"""The two flow programs that keep a station network balanced.

Customer trips alone give each station a net vehicle flux (the
imbalance).  Two coupled assignments cancel it:

* empty-vehicle rebalancing trips, rate matrix ``alpha``: employed
  drivers take surplus vehicles to deficit stations.  Per-station net
  outflow must equal the surplus.  Uncapacitated.
* driver-return rides, rate matrix ``beta``: the drivers stranded by
  those trips ride back on customer trips.  Per-station net outflow
  must equal the negated surplus, and each leg is capped by
  ``taxi_fraction * lambda * dest_prob`` (drivers can only ride along
  on trips customers actually make).

Both programs minimize the in-transit mass they pin down, i.e. total
rate weighted by travel time.  They share no variables, so they are
solved as two independent minimum-cost flow problems; minimizing the
driver total (rebalancing trips plus return rides) and minimizing the
rebalancing-vehicle total pull in the same direction.  Arc ``k`` of
both programs is leg ``k`` of the layout ``network`` owns, and both
take their supplies from ``compute_imbalance``.  Each program returns
its certified LP's flow as its rate matrix and that LP's optimum
``cost @ flow`` (:attr:`~fleetbalance.mincostflow.FlowSolution.objective`)
as its objective; nothing here sums them again.  A solution's status
is read off its plan: ``"optimal"`` when it has one, else
``"beta_infeasible"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RebalanceInfeasibleError
from .mincostflow import (
    INFINITE_CAPACITY,
    FlowProblem,
    farkas_cut,
    solve_mcf,
)
from .network import (
    RebalanceAssignment,
    StationNetwork,
    _from_legs,
    _legs,
    _on_legs,
    compute_imbalance,
    fleet_sizes,
)


def _station_flow_problem(net: StationNetwork, supply: np.ndarray, capacity) -> FlowProblem:
    """One arc per leg, priced by travel time; ``capacity`` is per leg."""
    tail, head = _legs(net.n)
    return FlowProblem(
        node_count=net.n,
        supply=supply,
        tail=tail,
        head=head,
        cost=_on_legs(net.travel_time),
        capacity=capacity,
    )


def vehicle_flow_problem(net: StationNetwork) -> FlowProblem:
    """Uncapacitated program moving surplus vehicles to deficit stations."""
    return _station_flow_problem(net, compute_imbalance(net), np.full(net.n * (net.n - 1), INFINITE_CAPACITY))


def driver_flow_problem(net: StationNetwork) -> FlowProblem:
    """Capacitated program riding stranded drivers back on customer trips."""
    return _station_flow_problem(net, -compute_imbalance(net), _on_legs(net.taxi_capacity()))


def solve_vehicle_rebalancing(net: StationNetwork) -> tuple[np.ndarray, float]:
    """Cheapest empty-vehicle rebalancing rates; always feasible."""
    solution = solve_mcf(vehicle_flow_problem(net))
    if solution.status != "optimal":  # uncapacitated and balanced: cannot happen
        raise RuntimeError("uncapacitated rebalancing program reported infeasible")
    # A certified optimum carries flow one way on any pair whose round trip
    # T_ij + T_ji is above 2 * OPTIMALITY_TOL of the longest travel time (the
    # two reduced costs sum to it), so neither program's rates need netting.
    return _from_legs(solution.flow, net.n), solution.objective


def solve_driver_rebalancing(net: StationNetwork) -> tuple[np.ndarray, float]:
    """Cheapest driver-return rates within taxi capacity.

    Raises :class:`RebalanceInfeasibleError` when capacities cannot carry
    the required driver flow.  The diagnosis costs the one LP: the error
    carries a witness station subset whose outgoing capacity is provably
    short, read from the LP's Farkas ray
    (:func:`~fleetbalance.mincostflow.farkas_cut`), with its driver
    demand and outgoing capacity recomputed from the network.  A missing
    or wrong ray yields an error without a witness, never a wrong witness.
    """
    problem = driver_flow_problem(net)
    solution = solve_mcf(problem)
    if solution.status != "optimal":
        inside = farkas_cut(problem, solution.ray)
        if inside is not None:
            demand = float(-compute_imbalance(net)[inside].sum())
            capacity = float(net.taxi_capacity()[np.ix_(inside, ~inside)].sum())
            if demand > capacity:
                witness = tuple(int(i) for i in np.flatnonzero(inside))
                raise RebalanceInfeasibleError(
                    "driver-return program infeasible: stations "
                    f"{{{', '.join(map(str, witness))}}} must emit {demand:.6g} drivers "
                    f"but only {capacity:.6g} taxi capacity leaves them",
                    witness=witness,
                    demand=demand,
                    capacity=capacity,
                )
        raise RebalanceInfeasibleError(
            "driver-return program infeasible: taxi capacity cannot carry the required driver flow"
        )
    return _from_legs(solution.flow, net.n), solution.objective


@dataclass(frozen=True, eq=False)
class RebalanceSolution:
    """Joint result of the two programs.

    ``assignment`` is the plan, ``None`` when the driver program has no
    feasible point; ``infeasibility`` then carries the diagnosis.
    ``vehicle_objective`` is the in-transit mass of rebalancing vehicles
    (time-weighted alpha); ``driver_objective`` is the time-weighted
    beta mass, set only with a plan.  Both are the certified LPs' optima
    ``cost @ flow``, while ``assignment``'s floors come from
    :func:`~fleetbalance.network.fleet_sizes`, so the two objectives sum
    to ``assignment.min_drivers`` only up to rounding.
    """

    assignment: Optional[RebalanceAssignment]
    vehicle_objective: Optional[float]
    driver_objective: Optional[float]
    infeasibility: Optional[RebalanceInfeasibleError] = None

    @property
    def status(self) -> str:
        """``"optimal"`` with a plan, else ``"beta_infeasible"``: read off ``assignment``."""
        return "beta_infeasible" if self.assignment is None else "optimal"


def _solve_against_vehicles(net: StationNetwork, alpha: np.ndarray, alpha_obj: float) -> RebalanceSolution:
    """Solve the driver program next to a solved vehicle program and size the fleet.

    The vehicle program does not see the taxi fraction, so one
    ``(alpha, alpha_obj)`` serves every taxi fraction of a network.
    """
    try:
        beta, beta_obj = solve_driver_rebalancing(net)
    except RebalanceInfeasibleError as err:
        return RebalanceSolution(
            assignment=None,
            vehicle_objective=alpha_obj,
            driver_objective=None,
            infeasibility=err,
        )
    min_vehicles, min_drivers = fleet_sizes(net, alpha, beta)
    assignment = RebalanceAssignment(
        vehicle_rates=alpha,
        driver_rates=beta,
        min_vehicles=min_vehicles,
        min_drivers=min_drivers,
    )
    return RebalanceSolution(
        assignment=assignment,
        vehicle_objective=alpha_obj,
        driver_objective=beta_obj,
    )


def solve_rebalancing(net: StationNetwork) -> RebalanceSolution:
    """Solve both programs and size the minimum fleet they pin in transit."""
    return _solve_against_vehicles(net, *solve_vehicle_rebalancing(net))
