"""Command-line interface.

Subcommands: gen, solve, simulate, sweep.  Exit codes: 0 on
success, 2 for invalid input (unreadable or unwritable files, a plan
not for its instance and a run too large to allocate included), 3
when the driver-return program is infeasible, 4 when requested fleet
totals cannot support an equilibrium.  Checks, messages and file
formats come from the library; :func:`main` maps each failure to its
exit code and one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .errors import InsufficientFleetError, RebalanceInfeasibleError, ValidationError
from .experiments import SweepConfig, run_sweep, write_report_csv, write_summary_csv
from .fluidsim import stability_probe, write_trace_csv
from .generate import GeneratorConfig, generate_instance
from .network import validate_assignment
from .rebalance import solve_rebalancing
from .storage import _write_json, load_assignment, load_instance, load_sweep_config, save_assignment, save_instance

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_FLEET = 4
_EXIT_CODES = {RebalanceInfeasibleError: EXIT_INFEASIBLE, InsufficientFleetError: EXIT_FLEET}


@functools.cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetbalance",
        description="Vehicle and driver rebalancing for station-based fleets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a random instance and write it to JSON")
    gen.add_argument("--n", type=int, required=True, help="number of stations")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", type=Path, required=True)
    # generator settings: a flag not given (None) leaves GeneratorConfig's default
    gen.add_argument("--env-size", type=float)
    gen.add_argument("--lambda-max", type=float)
    gen.add_argument("--f", type=float, dest="taxi_fraction", help="taxi fraction for every leg")
    gen.add_argument("--mu-factor", type=float)

    solve = sub.add_parser("solve", help="solve both rebalancing programs for an instance")
    solve.add_argument("--instance", type=Path, required=True)
    solve.add_argument("--out", type=Path, required=True, help="assignment JSON to write")

    sim = sub.add_parser("simulate", help="perturbed-equilibrium stability run")
    sim.add_argument("--instance", type=Path, required=True)
    sim.add_argument("--assignment", type=Path, required=True)
    sim.add_argument("--V", type=float, required=True, dest="total_vehicles")
    sim.add_argument("--R", type=float, required=True, dest="total_drivers")
    sim.add_argument("--h", type=float, default=None, help="step (default: min travel time / 10)")
    sim.add_argument("--horizon", type=float, default=None)
    sim.add_argument("--trace-out", type=Path, required=True)
    sim.add_argument("--meta-out", type=Path, default=None, help="default: trace path + .meta.json")
    sim.add_argument("--perturbation", type=float, default=0.1)
    sim.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep", help="fleet sizing across network sizes x taxi fractions")
    sweep.add_argument("--config", type=Path, default=None, help="JSON sweep config")
    sweep.add_argument("--out-dir", type=Path, required=True)
    sweep.add_argument("--workers", type=int, default=None, help="worker threads in this process")
    return parser


def _cmd_gen(args) -> int:
    settings = ("env_size", "lambda_max", "taxi_fraction", "mu_factor")
    config = GeneratorConfig(**{k: getattr(args, k) for k in settings if getattr(args, k) is not None})
    net = generate_instance(args.n, args.seed, config)
    save_instance(net, args.out)
    print(f"wrote {args.out} (n={net.n}, seed={args.seed})")
    return EXIT_OK


def _cmd_solve(args) -> int:
    net = load_instance(args.instance)
    solution = solve_rebalancing(net)
    assignment = solution.assignment
    if assignment is None:
        raise solution.infeasibility
    save_assignment(solution, args.out, meta={"instance": str(args.instance)})
    ratio = assignment.min_drivers / assignment.min_vehicles if assignment.min_vehicles else float("nan")
    print(
        f"v_alpha={assignment.min_vehicles:.6g} r_alpha_beta={assignment.min_drivers:.6g} "
        f"ratio={ratio:.4g} -> {args.out}"
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    net = load_instance(args.instance)
    solution = load_assignment(args.assignment)
    assignment = solution.assignment
    try:
        validate_assignment(net, assignment)
    except ValidationError as exc:
        raise ValidationError(f"{args.assignment}: {exc}") from exc
    min_v, min_r = assignment.min_vehicles, assignment.min_drivers
    if min_v <= 0 or min_r <= 0:
        raise ValidationError(f"{args.assignment}: assignment pins no mass in transit; nothing to simulate")
    slack_v = args.total_vehicles / min_v - 1.0
    slack_r = args.total_drivers / min_r - 1.0
    h = args.h if args.h is not None else net.min_offdiag_travel_time() / 10.0
    report = stability_probe(
        net,
        solution,
        slack_vehicles=slack_v,
        slack_drivers=slack_r,
        perturbation=args.perturbation,
        h=h,
        seed=args.seed,
        horizon=args.horizon,
    )
    write_trace_csv(report.trace, args.trace_out)
    meta_path = args.meta_out or Path(str(args.trace_out) + ".meta.json")
    meta = {
        "instance": str(args.instance),
        "assignment": str(args.assignment),
        "V": args.total_vehicles,
        "R": args.total_drivers,
        "h": report.trace.h,
        "horizon": report.horizon,
        "perturbation": args.perturbation,
        "seed": report.seed,
        "passed": report.passed,
    }
    try:
        _write_json(meta, meta_path)
    except OSError:  # leave no trace without its sidecar
        args.trace_out.unlink()
        raise
    for name, ok in (
        ("customers_cleared", report.customers_cleared),
        ("vehicles_positive", report.vehicles_positive),
        ("drivers_positive", report.drivers_positive),
        ("totals_conserved", report.conserved),
    ):
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    drain = "never" if report.drain_time is None else f"{report.drain_time:.6g}"
    print(
        f"stability: {'PASS' if report.passed else 'FAIL'} "
        f"(drain_time={drain}, vehicle_drift={report.vehicle_drift:.3g}, "
        f"driver_drift={report.driver_drift:.3g}) -> {args.trace_out}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = SweepConfig() if args.config is None else load_sweep_config(args.config)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    # an output directory that cannot be made fails before the trials run
    args.out_dir.mkdir(parents=True, exist_ok=True)
    report = run_sweep(config)
    rows_path, summary_path = args.out_dir / "sweep_rows.csv", args.out_dir / "sweep_summary.csv"
    write_report_csv(report, rows_path)
    write_summary_csv(report, summary_path)
    _write_json(asdict(report.config), args.out_dir / "sweep_config.json")
    for row in report.summary():
        if row.metric in ("ratio", "r_alpha_beta"):
            print(f"{row.group_key} {row.metric}: mean={row.mean:.4g} [{row.min:.4g}, {row.max:.4g}]")
    print(f"wrote {rows_path} and {summary_path}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (RebalanceInfeasibleError, InsufficientFleetError, ValidationError, OSError, MemoryError) as exc:
        # files that cannot be read, decoded or written and arrays too large to allocate are invalid input
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
