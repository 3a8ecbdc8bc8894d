"""Randomized fleet-sizing experiments.

One sweep over the grid of network sizes x taxi fractions: a fixed
number of generator-sampled instances at each size, each solved at
every taxi fraction in ``f_values``.  It reports how the driver pool
compares with the vehicle fleet as networks grow, and how sharing
customer trips shrinks the driver pool.

Each trial generates the instance and solves its vehicle program
once, then solves the driver program at each taxi fraction.
Each trial derives its seed as ``base_seed * 10000 + size * 100 +
trial``, so any row can be regenerated in isolation.  Trials are
independent; with ``workers > 1`` they run in a process pool and are
re-assembled in deterministic order.  Identical configs produce
byte-identical CSV files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .generate import GeneratorConfig, generate_instance
from .network import StationNetwork, _checked_array, _checked_int, _from_legs, assignment_residuals
from .rebalance import RebalanceSolution, _solve_against_vehicles, solve_vehicle_rebalancing

ROW_FIELDS = ("group_key", "trial", "seed", "n", "f", "v_alpha", "r_alpha_beta", "ratio", "reb_fraction")
SUMMARY_METRICS = ("v_alpha", "r_alpha_beta", "ratio", "reb_fraction")


@dataclass(frozen=True)
class SweepConfig:
    """The grid ``sizes x f_values``, ``trials_per_size`` instances per size.

    Every check of a sweep is made here, so the API and the CLI reject
    the same configs and :func:`run_sweep` checks nothing.  ``sizes`` is
    kept as a tuple of ints and ``f_values`` as a tuple of floats.  The taxi fractions come from ``f_values`` alone, so
    the generator's ``taxi_fraction`` must stay at its default of 1.
    """

    sizes: tuple[int, ...] = (10, 25, 50, 100, 200)
    trials_per_size: int = 20
    base_seed: int = 0
    f_values: tuple[float, ...] = (1.0,)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    workers: int = 1

    def __post_init__(self):
        for name, minimum in (("trials_per_size", 1), ("base_seed", None), ("workers", 1)):
            object.__setattr__(self, name, _checked_int(name, getattr(self, name), minimum))
        sizes = _checked_array("sizes", self.sizes, (None,), integer=True)
        if sizes.size == 0 or (sizes < 2).any():
            raise ValidationError(f"sizes must be integers >= 2, got {self.sizes!r}")
        if np.unique(sizes).size < sizes.size:
            raise ValidationError(f"sizes must not repeat, got {self.sizes!r}")
        f_values = _checked_array("f_values", self.f_values, (None,))
        if f_values.size == 0 or ((f_values < 1.0) | (f_values > 4.0)).any():
            raise ValidationError(f"f_values must lie in [1, 4], got {self.f_values!r}")
        if len({f"{f:g}" for f in f_values}) < f_values.size:
            raise ValidationError(
                f"f_values must differ in their f= labels (6 significant digits), got {self.f_values!r}"
            )
        if self.generator.taxi_fraction != 1.0:
            raise ValidationError(
                "a sweep sets every leg from f_values and reads no generator "
                f"taxi_fraction, got {self.generator.taxi_fraction:g}"
            )
        object.__setattr__(self, "sizes", tuple(sizes.tolist()))
        object.__setattr__(self, "f_values", tuple(f_values.tolist()))


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
    solution: RebalanceSolution,
    group_key: str,
    trial: int,
    seed: int,
    f_value: float,
) -> TrialRow:
    if solution.assignment is None:
        raise RuntimeError(
            f"trial {trial} (seed {seed}, n={net.n}, f={f_value:g}) "
            f"has no feasible driver-return assignment: {solution.infeasibility}"
        )
    a = solution.assignment
    alpha_res, beta_res, cap_excess = assignment_residuals(net, a)
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


def _group_key(config: SweepConfig, size: int, f_value: float) -> str:
    """``n=…`` with one taxi fraction, ``f=…`` with one size and several, else both."""
    if len(config.f_values) == 1:
        return f"n={size}"
    if len(config.sizes) == 1:
        return f"f={f_value:g}"
    return f"n={size} f={f_value:g}"


def _trial(args) -> list[TrialRow]:
    """One generated instance, solved at each taxi fraction of ``config.f_values``."""
    config, size, trial = args
    seed = trial_seed(config.base_seed, size, trial)
    net = generate_instance(size, seed, config.generator)
    # alpha does not see the taxi fraction; solve it once per instance
    alpha = solve_vehicle_rebalancing(net)
    rows = []
    for f_value in config.f_values:
        net_f = replace(net, taxi_fraction=_from_legs(f_value, size))
        solution = _solve_against_vehicles(net_f, *alpha)
        group_key = _group_key(config, size, f_value)
        rows.append(_row_from_solution(net_f, solution, group_key, trial, seed, f_value))
    return rows


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run :func:`_trial` on every (size, trial) cell, in a process pool when ``workers > 1``.

    Rows are grouped by taxi fraction (column-major over trials, for
    readable CSVs), then in (size, trial) order.
    """
    specs = [(config, size, trial) for size in config.sizes for trial in range(config.trials_per_size)]
    if config.workers > 1:
        # imported here: every CLI command imports this module, few run a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_trial = list(pool.map(_trial, specs))
    else:
        per_trial = [_trial(s) for s in specs]
    rows = [trial_rows[k] for k in range(len(config.f_values)) for trial_rows in per_trial]
    return SweepReport(config=config, rows=rows)


# kept for perfbench, whose sweep workload calls and traces the sweep by this name
run_station_sweep = run_sweep


def write_report_csv(report: SweepReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROW_FIELDS)
        writer.writerows([getattr(row, name) for name in ROW_FIELDS] for row in report.rows)


def write_summary_csv(report: SweepReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("group_key", "metric", "mean", "min", "max"))
        writer.writerows((row.group_key, row.metric, row.mean, row.min, row.max) for row in report.summary())
