"""Randomized fleet-sizing experiments.

Two sweeps, both over generator-sampled instances:

* station sweep: fixed number of trials at each network size, taxi
  fraction pinned to 1; reports how the driver pool compares with the
  vehicle fleet as networks grow.
* taxi-fraction sweep: one network size, the same instances re-solved at
  several taxi fractions; reports how sharing customer trips shrinks the
  driver pool.

Both sweeps run the same trial: generate the instance, compute its
imbalance and vehicle program once, then solve the driver program at
each taxi fraction.  Each trial derives its seed as ``base_seed * 10000
+ size * 100 + trial``, so any row can be regenerated in isolation.
Trials are independent; with ``workers > 1`` they run in a process pool
and are re-assembled in deterministic order.  Identical configs produce
byte-identical CSV files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .generate import GeneratorConfig, generate_instance
from .network import ImbalanceVector, StationNetwork, _from_legs, assignment_residuals, compute_imbalance
from .rebalance import RebalanceSolution, _solve_against_vehicles, solve_vehicle_rebalancing

ROW_FIELDS = ("group_key", "trial", "seed", "n", "f", "v_alpha", "r_alpha_beta", "ratio", "reb_fraction")
SUMMARY_METRICS = ("v_alpha", "r_alpha_beta", "ratio", "reb_fraction")


@dataclass(frozen=True)
class SweepConfig:
    sizes: tuple[int, ...] = (10, 25, 50, 100, 200)
    trials_per_size: int = 20
    base_seed: int = 0
    f_values: tuple[float, ...] = (1.0,)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    workers: int = 1

    def __post_init__(self):
        for name in ("trials_per_size", "base_seed", "workers"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not self.sizes or any(not isinstance(s, (int, np.integer)) or s < 2 for s in self.sizes):
            raise ValidationError(f"sizes must be integers >= 2, got {self.sizes!r}")
        if self.trials_per_size < 1:
            raise ValidationError("trials_per_size must be >= 1")
        if not self.f_values or any(f < 0 for f in self.f_values):
            raise ValidationError(f"f_values must be nonnegative, got {self.f_values!r}")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")


def trial_seed(base_seed: int, size: int, trial: int) -> int:
    return base_seed * 10000 + size * 100 + trial


@dataclass(frozen=True)
class TrialRow:
    """One solved trial.  The residual fields are in-memory diagnostics only."""

    group_key: str
    trial: int
    seed: int
    n: int
    f: float
    v_alpha: float
    r_alpha_beta: float
    ratio: float
    reb_fraction: float
    alpha_residual: float
    beta_residual: float
    beta_cap_excess: float


@dataclass(frozen=True)
class SummaryRow:
    group_key: str
    metric: str
    mean: float
    min: float
    max: float


@dataclass
class SweepReport:
    config: SweepConfig
    rows: list[TrialRow]

    def group_keys(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.group_key not in seen:
                seen.append(row.group_key)
        return seen

    def group_values(self, group_key: str, metric: str) -> np.ndarray:
        return np.array([getattr(r, metric) for r in self.rows if r.group_key == group_key])

    def summary(self) -> list[SummaryRow]:
        out = []
        for key in self.group_keys():
            for metric in SUMMARY_METRICS:
                vals = self.group_values(key, metric)
                out.append(
                    SummaryRow(
                        group_key=key,
                        metric=metric,
                        mean=float(vals.mean()),
                        min=float(vals.min()),
                        max=float(vals.max()),
                    )
                )
        return out


def _row_from_solution(
    net: StationNetwork,
    imbalance: ImbalanceVector,
    solution: RebalanceSolution,
    group_key: str,
    trial: int,
    seed: int,
    f_value: float,
) -> TrialRow:
    if solution.status != "optimal" or solution.assignment is None:
        raise RuntimeError(
            f"trial {trial} (seed {seed}, n={net.n}, f={f_value:g}) "
            f"has no feasible driver-return assignment: {solution.infeasibility}"
        )
    a = solution.assignment
    alpha_res, beta_res, cap_excess = assignment_residuals(net, a, imbalance)
    ratio = a.min_drivers / a.min_vehicles if a.min_vehicles > 0 else float("nan")
    frac = solution.vehicle_objective / a.min_drivers if a.min_drivers > 0 else float("nan")
    return TrialRow(
        group_key=group_key,
        trial=trial,
        seed=seed,
        n=net.n,
        f=f_value,
        v_alpha=a.min_vehicles,
        r_alpha_beta=a.min_drivers,
        ratio=ratio,
        reb_fraction=frac,
        alpha_residual=float(np.max(np.abs(alpha_res))),
        beta_residual=float(np.max(np.abs(beta_res))),
        beta_cap_excess=float(np.max(cap_excess)),
    )


def _trial(args) -> list[TrialRow]:
    """One generated instance, solved at each entry of ``f_values``.

    ``None`` keeps the instance's own taxi fraction and groups the row
    by size (station sweep); a number sets every leg to it and groups
    the row by that fraction (taxi-fraction sweep).
    """
    config, size, trial, f_values = args
    seed = trial_seed(config.base_seed, size, trial)
    net = generate_instance(size, seed, config.generator)
    d = compute_imbalance(net)
    # alpha does not see the taxi fraction; solve it once per instance
    alpha = solve_vehicle_rebalancing(net, d)
    rows = []
    for f_value in f_values:
        if f_value is None:
            net_f, group_key, f_value = net, f"n={size}", config.generator.taxi_fraction
        else:
            taxi = _from_legs(float(f_value), size)
            net_f, group_key = replace(net, taxi_fraction=taxi), f"f={f_value:g}"
        solution = _solve_against_vehicles(net_f, d, *alpha)
        rows.append(_row_from_solution(net_f, d, solution, group_key, trial, seed, f_value))
    return rows


def _sweep(config: SweepConfig, f_values: tuple) -> SweepReport:
    """Run :func:`_trial` on every (size, trial) cell, in a process pool when ``workers > 1``.

    Rows are grouped by taxi fraction (column-major over trials, for
    readable CSVs), then in (size, trial) order.
    """
    specs = [
        (config, size, trial, f_values) for size in config.sizes for trial in range(config.trials_per_size)
    ]
    if config.workers > 1:
        # imported here: every CLI command imports this module, few run a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_trial = list(pool.map(_trial, specs))
    else:
        per_trial = [_trial(s) for s in specs]
    rows = [trial_rows[k] for k in range(len(f_values)) for trial_rows in per_trial]
    return SweepReport(config=config, rows=rows)


def run_station_sweep(config: SweepConfig) -> SweepReport:
    """Solve every (size, trial) cell; taxi fraction must be pinned to 1, ``f_values`` left at (1,)."""
    if config.generator.taxi_fraction != 1.0:
        raise ValidationError(
            f"station sweep requires taxi_fraction=1, got {config.generator.taxi_fraction:g}"
        )
    if config.f_values != (1.0,):
        raise ValidationError(
            f"station sweep solves at taxi_fraction=1 and reads no f_values, got {config.f_values!r}"
        )
    return _sweep(config, (None,))


def run_f_sweep(config: SweepConfig) -> SweepReport:
    """Re-solve the same instances at each taxi fraction (one network size).

    The fractions come from ``f_values`` alone, so the generator's
    ``taxi_fraction`` must stay at its default of 1.
    """
    if config.generator.taxi_fraction != 1.0:
        raise ValidationError(
            "taxi-fraction sweep sets every leg from f_values and reads no "
            f"generator taxi_fraction, got {config.generator.taxi_fraction:g}"
        )
    if len(config.sizes) != 1:
        raise ValidationError(f"taxi-fraction sweep needs exactly one size, got {config.sizes!r}")
    if any(not (1.0 <= f <= 4.0) for f in config.f_values):
        raise ValidationError(f"f_values must lie in [1, 4], got {config.f_values!r}")
    return _sweep(config, config.f_values)


def write_report_csv(report: SweepReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROW_FIELDS)
        for row in report.rows:
            writer.writerow([_fmt(getattr(row, name)) for name in ROW_FIELDS])


def write_summary_csv(report: SweepReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("group_key", "metric", "mean", "min", "max"))
        for row in report.summary():
            writer.writerow(
                (row.group_key, row.metric, _fmt(row.mean), _fmt(row.min), _fmt(row.max))
            )


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value
