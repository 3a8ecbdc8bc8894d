"""Command-line interface.

Subcommands: gen, solve, simulate, sweep.  Exit codes: 0 on
success, 2 for invalid input, 3 when the driver-return program is
infeasible, 4 when requested fleet totals cannot support an equilibrium.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from .errors import InsufficientFleetError, RebalanceInfeasibleError, ValidationError
from .experiments import SweepConfig, run_sweep, write_report_csv, write_summary_csv
from .fluidsim import stability_probe, write_trace_csv
from .generate import GeneratorConfig, generate_instance
from .rebalance import solve_rebalancing
from .storage import load_assignment, load_instance, read_json_object, save_assignment, save_instance

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_FLEET = 4


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
    gen.add_argument("--env-size", type=float, default=100.0)
    gen.add_argument("--lambda-max", type=float, default=0.05)
    gen.add_argument("--f", type=float, default=1.0, help="taxi fraction for every leg")
    gen.add_argument("--mu-factor", type=float, default=2.0)

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
    sweep.add_argument("--workers", type=int, default=None)
    return parser


def _cmd_gen(args) -> int:
    config = GeneratorConfig(
        env_size=args.env_size,
        lambda_max=args.lambda_max,
        taxi_fraction=args.f,
        mu_factor=args.mu_factor,
    )
    net = generate_instance(args.n, args.seed, config)
    save_instance(net, args.out)
    print(f"wrote {args.out} (n={net.n}, seed={args.seed})")
    return EXIT_OK


def _cmd_solve(args) -> int:
    net = load_instance(args.instance)
    solution = solve_rebalancing(net)
    if solution.status != "optimal":
        err = solution.infeasibility
        print("driver-return program infeasible", file=sys.stderr)
        if err is not None and err.witness is not None:
            stations = ",".join(str(i) for i in err.witness)
            print(
                f"witness stations {{{stations}}}: must emit {err.demand:.6g} "
                f"drivers, taxi capacity out is {err.capacity:.6g}",
                file=sys.stderr,
            )
        return EXIT_INFEASIBLE
    assignment = solution.assignment
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
    if assignment.n != net.n:
        raise ValidationError(
            f"assignment is for {assignment.n} stations, instance has {net.n}"
        )
    min_v, min_r = assignment.min_vehicles, assignment.min_drivers
    if min_v <= 0 or min_r <= 0:
        raise ValidationError("assignment pins no mass in transit; nothing to simulate")
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
        "h": report.h,
        "horizon": report.horizon,
        "perturbation": args.perturbation,
        "seed": report.seed,
        "passed": report.passed,
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
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


def _load_sweep_config(path, workers) -> SweepConfig:
    config = SweepConfig()
    if path is not None:
        raw = read_json_object(path)
        extra = sorted(set(raw) - {f.name for f in fields(SweepConfig)})
        if extra:
            raise ValidationError(f"{path}: unknown sweep config fields: {', '.join(extra)}")
        gen_raw = raw.get("generator", {})
        if not isinstance(gen_raw, dict):
            raise ValidationError(f"{path}: field 'generator' must be an object")
        try:
            config = SweepConfig(**{**raw, "generator": GeneratorConfig(**gen_raw)})
        except TypeError as exc:
            raise ValidationError(f"{path}: bad sweep config: {exc}") from exc
    if workers is not None:
        config = replace(config, workers=workers)
    return config


def _cmd_sweep(args) -> int:
    report = run_sweep(_load_sweep_config(args.config, args.workers))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    rows_path, summary_path = args.out_dir / "sweep_rows.csv", args.out_dir / "sweep_summary.csv"
    write_report_csv(report, rows_path)
    write_summary_csv(report, summary_path)
    with open(args.out_dir / "sweep_config.json", "w") as fh:
        json.dump(asdict(report.config), fh, indent=2)
        fh.write("\n")
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
    except RebalanceInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InsufficientFleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLEET
    except (ValidationError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
