"""Vehicle and driver rebalancing for station-based mobility-on-demand fleets."""

from .errors import (
    InsufficientFleetError,
    InvalidStateError,
    RebalanceInfeasibleError,
    ValidationError,
)
from .experiments import (
    SweepConfig,
    SweepReport,
    TrialRow,
    run_sweep,
    trial_seed,
    write_report_csv,
    write_summary_csv,
)
from .fluidsim import (
    FluidState,
    SimTrace,
    StabilityReport,
    equilibrium_state,
    initial_state,
    simulate,
    stability_probe,
    write_trace_csv,
)
from .generate import GeneratorConfig, generate_instance
from .mincostflow import (
    INFINITE_CAPACITY,
    FlowProblem,
    FlowSolution,
    solve_mcf,
)
from .network import (
    ImbalanceVector,
    RebalanceAssignment,
    StationNetwork,
    compute_imbalance,
    fleet_sizes,
    validate_assignment,
)
from .rebalance import (
    RebalanceSolution,
    driver_flow_problem,
    solve_driver_rebalancing,
    solve_rebalancing,
    solve_vehicle_rebalancing,
    vehicle_flow_problem,
)
from .storage import load_assignment, load_instance, save_assignment, save_instance

__version__ = "0.1.0"
