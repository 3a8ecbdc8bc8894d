import multiprocessing
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from fleetbalance import experiments, mincostflow, rebalance
from fleetbalance.errors import RebalanceInfeasibleError, ValidationError
from fleetbalance.experiments import (
    ROW_FIELDS,
    SweepConfig,
    run_sweep,
    trial_seed,
    write_report_csv,
    write_summary_csv,
)
from fleetbalance.generate import GeneratorConfig, generate_instance
from fleetbalance.network import compute_imbalance
from fleetbalance.rebalance import solve_rebalancing

from conftest import build_two_station


def small_station_config(**overrides):
    defaults = dict(sizes=(5, 8), trials_per_size=3, base_seed=2)
    defaults.update(overrides)
    return SweepConfig(**defaults)


def test_trial_seed_schedule():
    assert trial_seed(0, 10, 0) == 1000
    assert trial_seed(5, 200, 19) == 70019
    # distinct cells never collide for trials < 100 and sizes < 10000
    seen = {
        trial_seed(3, size, trial)
        for size in (10, 25, 50, 100, 200)
        for trial in range(20)
    }
    assert len(seen) == 100


def test_station_sweep_rows_and_groups():
    config = small_station_config()
    report = run_sweep(config)
    assert report.group_keys() == ["n=5", "n=8"]
    assert len(report.rows) == 6
    for row in report.rows:
        assert row.seed == trial_seed(2, row.n, row.trial)
        assert row.f == 1.0
        assert row.v_alpha > 0
        assert row.ratio == pytest.approx(row.r_alpha_beta / row.v_alpha)
        assert 0.0 <= row.reb_fraction <= 1.0
        assert row.alpha_residual <= 1e-7
        assert row.beta_residual <= 1e-7
        assert row.beta_cap_excess <= 1e-9


def test_station_sweep_row_reproducible_in_isolation():
    config = small_station_config()
    report = run_sweep(config)
    row = report.rows[4]
    net = generate_instance(row.n, row.seed, config.generator)
    sol = solve_rebalancing(net)
    assert sol.assignment.min_vehicles == pytest.approx(row.v_alpha)
    assert sol.assignment.min_drivers == pytest.approx(row.r_alpha_beta)


def test_station_sweep_deterministic_csv(tmp_path):
    config = small_station_config()
    paths = []
    for tag in ("a", "b"):
        report = run_sweep(config)
        rows_path = tmp_path / f"rows_{tag}.csv"
        summary_path = tmp_path / f"summary_{tag}.csv"
        write_report_csv(report, rows_path)
        write_summary_csv(report, summary_path)
        paths.append((rows_path, summary_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_workers_do_not_change_results(tmp_path):
    grid = dict(sizes=(5, 7), trials_per_size=2, f_values=(1.0, 2.5))
    for tag, overrides in (("station", {}), ("grid", grid)):
        paths = []
        for workers in (1, 2):
            report = run_sweep(small_station_config(workers=workers, **overrides))
            rows_path = tmp_path / f"{tag}_{workers}_rows.csv"
            summary_path = tmp_path / f"{tag}_{workers}_summary.csv"
            write_report_csv(report, rows_path)
            write_summary_csv(report, summary_path)
            paths.append((rows_path.read_bytes(), summary_path.read_bytes()))
        assert paths[0] == paths[1], tag
    # two sizes and two fractions: each group names both
    assert report.group_keys() == ["n=5 f=1", "n=7 f=1", "n=5 f=2.5", "n=7 f=2.5"]


def _failing_trial(args):
    raise RuntimeError("trial failed")


def _refuse_fork():
    raise OSError("fork refused")


def test_parallel_sweep_leaves_no_process_running(monkeypatch):
    threads = threading.enumerate()
    # workers are threads of this process: a sweep needs no fork
    monkeypatch.setattr(os, "fork", _refuse_fork)
    run_sweep(small_station_config(workers=2))
    assert multiprocessing.active_children() == []
    assert threading.enumerate() == threads
    # patched before the pool starts, so its workers run the failing trial
    monkeypatch.setattr(experiments, "_trial", _failing_trial)
    with pytest.raises(RuntimeError, match="trial failed"):
        run_sweep(small_station_config(workers=2))
    assert multiprocessing.active_children() == []
    assert threading.enumerate() == threads


def test_sweep_workers_build_their_own_solvers(monkeypatch):
    builders = []
    new_solver = mincostflow._new_solver

    def recording_new_solver():
        builders.append(threading.get_ident())
        return new_solver()

    monkeypatch.setattr(mincostflow, "_new_solver", recording_new_solver)
    config = SweepConfig(sizes=(5,), trials_per_size=3, workers=8)
    rows = run_sweep(config).rows
    # the pool starts a thread only when no idle one can take a trial, and
    # each thread that runs a trial builds its own HiGHS object on its first LP
    assert 1 <= len(builders) <= 3
    assert threading.get_ident() not in builders
    assert rows == run_sweep(replace(config, workers=1)).rows


def test_station_sweep_requires_full_taxi_fraction():
    config = SweepConfig(sizes=(5,), trials_per_size=1)
    # the check runs at construction, so no path to a sweep skips it
    with pytest.raises(ValidationError, match="reads no generator taxi_fraction"):
        replace(config, generator=GeneratorConfig(taxi_fraction=0.5))


def test_injected_instance_provider(monkeypatch):
    monkeypatch.setattr(experiments, "generate_instance", lambda size, seed, gen: build_two_station())
    config = SweepConfig(sizes=(2,), trials_per_size=1)
    report = run_sweep(config)
    assert len(report.rows) == 1
    row = report.rows[0]
    # hand case: V=8, R=6
    assert row.v_alpha == pytest.approx(8.0, abs=1e-9)
    assert row.r_alpha_beta == pytest.approx(6.0, abs=1e-9)
    assert row.ratio == pytest.approx(0.75, abs=1e-9)
    assert report.group_values("n=2", "ratio")[0] == row.ratio


def test_infeasible_trial_is_a_hard_error(monkeypatch):
    def infeasible(net):
        raise RebalanceInfeasibleError("driver-return program infeasible")

    # every taxi fraction of a sweep solves its driver program through this name
    monkeypatch.setattr(rebalance, "solve_driver_rebalancing", infeasible)
    config = SweepConfig(sizes=(5,), trials_per_size=1, f_values=(1.0, 2.0))
    with pytest.raises(RuntimeError, match="no feasible driver-return assignment"):
        run_sweep(config)


def test_f_sweep_structure_and_monotonicity():
    config = SweepConfig(sizes=(12,), trials_per_size=3, base_seed=1, f_values=(1.0, 2.0, 4.0))
    report = run_sweep(config)
    assert report.group_keys() == ["f=1", "f=2", "f=4"]
    assert len(report.rows) == 9

    for trial in range(3):
        per_f = [r for r in report.rows if r.trial == trial]
        assert [r.f for r in per_f] == [1.0, 2.0, 4.0]
        # alpha never sees the taxi fraction
        assert len({round(r.v_alpha, 12) for r in per_f}) == 1
        # a looser cap can only shrink the driver pool
        r_values = [r.r_alpha_beta for r in per_f]
        assert all(b <= a + 1e-9 for a, b in zip(r_values, r_values[1:]))
        assert all(r.seed == trial_seed(1, 12, trial) for r in per_f)


def test_grid_rows_are_its_one_f_sweeps():
    grid = run_sweep(small_station_config(f_values=(1.0, 2.5)))
    # f-major, then size, then trial
    assert [(r.f, r.n, r.trial) for r in grid.rows] == [
        (f, n, t) for f in (1.0, 2.5) for n in (5, 8) for t in range(3)
    ]
    one_f = [r for f in (1.0, 2.5) for r in run_sweep(small_station_config(f_values=(f,))).rows]
    # the same numbers; only the group keys differ
    assert [replace(r, group_key="") for r in grid.rows] == [replace(r, group_key="") for r in one_f]


def test_station_sweep_is_the_one_sweep():
    # kept as a name: the perfbench sweep workload calls it and its tracer wraps it
    assert experiments.run_station_sweep is run_sweep


def test_f_sweep_residuals_respect_scaled_caps():
    config = SweepConfig(sizes=(10,), trials_per_size=2, base_seed=4, f_values=(1.0, 3.0))
    report = run_sweep(config)
    for row in report.rows:
        assert row.alpha_residual <= 1e-7
        assert row.beta_residual <= 1e-7
        assert row.beta_cap_excess <= 1e-9


def test_sweep_config_validation():
    with pytest.raises(ValidationError, match="sizes"):
        SweepConfig(sizes=())
    with pytest.raises(ValidationError, match="sizes"):
        SweepConfig(sizes=(1,))
    with pytest.raises(ValidationError, match="sizes must not repeat"):
        SweepConfig(sizes=(8, 8))
    with pytest.raises(ValidationError, match="trials_per_size"):
        SweepConfig(trials_per_size=0)
    for f_values in ((-1.0,), (0.5, 1.0), (1.0, 5.0), ()):
        with pytest.raises(ValidationError, match=r"f_values must lie in \[1, 4\]"):
            SweepConfig(f_values=f_values)
    with pytest.raises(ValidationError, match="f_values is not numeric"):
        SweepConfig(f_values=("a",))
    with pytest.raises(ValidationError, match=r"f_values\[1\] is not finite"):
        SweepConfig(f_values=(1.0, float("nan")))
    # 1.0000001 would share the f=1 group with 1.0
    with pytest.raises(ValidationError, match="f_values must differ"):
        SweepConfig(f_values=(1.0, 1.0000001))
    with pytest.raises(ValidationError, match="reads no generator taxi_fraction"):
        SweepConfig(generator=GeneratorConfig(taxi_fraction=0.5))
    with pytest.raises(ValidationError, match="workers"):
        SweepConfig(workers=0)
    # ints and bools are kept as the floats the CSV writes
    config = SweepConfig(sizes=[np.int64(5)], f_values=[True, 2])
    assert config.f_values == (1.0, 2.0) and all(type(f) is float for f in config.f_values)
    assert config.sizes == (5,) and type(config.sizes[0]) is int


def test_csv_columns_roundtrip(tmp_path):
    import csv

    config = small_station_config(sizes=(6,), trials_per_size=2)
    report = run_sweep(config)
    path = tmp_path / "rows.csv"
    write_report_csv(report, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(ROW_FIELDS)
    assert len(rows) == 2
    for parsed, row in zip(rows, report.rows):
        assert parsed["group_key"] == row.group_key
        assert int(parsed["trial"]) == row.trial
        assert int(parsed["seed"]) == row.seed
        # repr-formatted floats survive the trip exactly
        assert float(parsed["v_alpha"]) == row.v_alpha
        assert float(parsed["ratio"]) == row.ratio

    summary_path = tmp_path / "summary.csv"
    write_summary_csv(report, summary_path)
    with open(summary_path) as fh:
        summary = list(csv.DictReader(fh))
    assert list(summary[0].keys()) == ["group_key", "metric", "mean", "min", "max"]
    metrics = [r["metric"] for r in summary if r["group_key"] == "n=6"]
    assert metrics == ["v_alpha", "r_alpha_beta", "ratio", "reb_fraction"]
    vals = report.group_values("n=6", "v_alpha")
    mean_row = next(r for r in summary if r["metric"] == "v_alpha")
    assert float(mean_row["mean"]) == pytest.approx(vals.mean())
    assert float(mean_row["min"]) == vals.min()
    assert float(mean_row["max"]) == vals.max()


def test_vehicle_fleet_bounded_below_by_customer_trips():
    config = small_station_config(sizes=(9,), trials_per_size=4)
    report = run_sweep(config)
    for row in report.rows:
        net = generate_instance(row.n, row.seed, config.generator)
        base = float(np.sum(net.travel_time * (net.dest_prob * net.arrival_rate[:, None])))
        assert row.v_alpha >= base - 1e-9
        assert abs(compute_imbalance(net).sum()) < 1e-12
