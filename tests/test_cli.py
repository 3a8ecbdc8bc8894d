import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fleetbalance
from fleetbalance import cli
from fleetbalance.cli import main
from fleetbalance.generate import GeneratorConfig, generate_instance
from fleetbalance.storage import load_assignment, load_instance, save_instance

from conftest import build_two_station


def write_two_station(tmp_path, f_01=1.0):
    path = tmp_path / "net.json"
    save_instance(build_two_station(f_01), path)
    return path


def test_gen_writes_loadable_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main(["gen", "--n", "8", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert "n=8" in capsys.readouterr().out
    net = load_instance(out)
    assert net.n == 8
    assert net.meta["seed"] == 3


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--n", "6", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen", "--n", "6", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_honors_flags(tmp_path):
    out = tmp_path / "inst.json"
    code = main(
        ["gen", "--n", "5", "--seed", "1", "--out", str(out),
         "--lambda-max", "0.2", "--f", "2.0", "--env-size", "10", "--mu-factor", "3"]
    )
    assert code == 0
    net = load_instance(out)
    assert net.arrival_rate.max() <= 0.2
    assert net.taxi_fraction.max() == 2.0
    assert np.allclose(net.service_rate, 3 * net.arrival_rate)


def test_gen_rejects_bad_parameters(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--n", "1", "--seed", "0", "--out", str(out)]) == 2
    assert "n must be an integer >= 2" in capsys.readouterr().err
    assert main(["gen", "--n", "5", "--seed", "0", "--out", str(out), "--mu-factor", "1"]) == 2
    assert not out.exists()


def test_solve_hand_instance(tmp_path, capsys):
    net_path = write_two_station(tmp_path)
    out = tmp_path / "assign.json"
    code = main(["solve", "--instance", str(net_path), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "v_alpha=8" in printed
    assert "r_alpha_beta=6" in printed
    assert "ratio=0.75" in printed
    solution = load_assignment(out)
    assert solution.assignment.vehicle_rates[1, 0] == pytest.approx(0.3, abs=1e-9)
    assert solution.assignment.driver_rates[0, 1] == pytest.approx(0.3, abs=1e-9)
    assert json.loads(out.read_text())["meta"]["instance"] == str(net_path)


def test_solve_infeasible_prints_witness(tmp_path, capsys):
    net_path = write_two_station(tmp_path, f_01=0.5)
    out = tmp_path / "assign.json"
    code = main(["solve", "--instance", str(net_path), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "stations {0} must emit 0.3 drivers" in err
    assert "0.3" in err and "0.2" in err
    assert not out.exists()


def test_solve_infeasible_lists_witness_in_index_order(tmp_path, capsys):
    net_path, out = tmp_path / "net.json", tmp_path / "assign.json"
    save_instance(generate_instance(14, 21, GeneratorConfig(taxi_fraction=0.5)), net_path)
    assert main(["solve", "--instance", str(net_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: driver-return program infeasible: stations {2, 4, 10} must emit")
    assert err.count("\n") == 1
    assert not out.exists()


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path / "a.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instance,out",
    [("bytes.json", "a.json"), ("net.json", "net.json/a.json")],
    ids=["instance-not-utf8", "out-under-a-regular-file"],
)
def test_unreadable_input_or_unwritable_output_exits_2(tmp_path, capsys, instance, out):
    write_two_station(tmp_path)
    (tmp_path / "bytes.json").write_bytes(bytes(range(128, 192)))  # 64 bytes, none of them UTF-8 text
    bad = tmp_path / (instance if instance == "bytes.json" else out)
    assert main(["solve", "--instance", str(tmp_path / instance), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err


def solve_first(tmp_path):
    net_path = write_two_station(tmp_path)
    assign_path = tmp_path / "assign.json"
    assert main(["solve", "--instance", str(net_path), "--out", str(assign_path)]) == 0
    return net_path, assign_path


def test_simulate_stable_fleet(tmp_path, capsys):
    net_path, assign_path = solve_first(tmp_path)
    trace = tmp_path / "trace.csv"
    code = main(
        ["simulate", "--instance", str(net_path), "--assignment", str(assign_path),
         "--V", "9.6", "--R", "7.2", "--h", "1.0", "--trace-out", str(trace)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 5
    assert "stability: PASS" in out
    assert trace.exists()
    header = trace.read_text().split("\n", 1)[0]
    assert header == "t,c_1,c_2,v_1,v_2,r_1,r_2,V_total,R_total"
    meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
    assert meta["passed"] is True
    assert meta["V"] == 9.6 and meta["R"] == 7.2
    assert meta["h"] == 1.0


def test_simulate_reports_queues_that_never_clear(tmp_path, capsys):
    net_path, assign_path = solve_first(tmp_path)
    trace = tmp_path / "trace.csv"
    # large initial queues and a horizon of two steps: no queue drains in time
    code = main(
        ["simulate", "--instance", str(net_path), "--assignment", str(assign_path), "--V", "9.6", "--R", "7.2",
         "--h", "1.0", "--horizon", "2", "--perturbation", "0.9", "--trace-out", str(trace)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "customers_cleared: FAIL" in out
    assert "stability: FAIL (drain_time=never," in out
    assert json.loads((tmp_path / "trace.csv.meta.json").read_text())["passed"] is False


def test_simulate_rejects_fleet_at_minimum(tmp_path, capsys):
    net_path, assign_path = solve_first(tmp_path)
    trace = tmp_path / "trace.csv"
    # V equals the in-transit minimum: no idle stock anywhere
    code = main(
        ["simulate", "--instance", str(net_path), "--assignment", str(assign_path),
         "--V", "8.0", "--R", "7.2", "--h", "1.0", "--trace-out", str(trace)]
    )
    assert code == 4
    assert "error:" in capsys.readouterr().err
    assert not trace.exists()


def test_simulate_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    # a tiny h or a huge idle stock asks numpy for TiB-sized calendars or traces
    net_path, assign_path = solve_first(tmp_path)
    message = "Unable to allocate 3.45 TiB for an array with shape (78955346161, 6) and data type float64"

    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "stability_probe", too_large)
    trace = tmp_path / "trace.csv"
    code = main(
        ["simulate", "--instance", str(net_path), "--assignment", str(assign_path),
         "--V", "9.6", "--R", "7.2", "--trace-out", str(trace)]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not trace.exists()


@pytest.mark.parametrize(
    "flag,value,field",
    # a huge idle stock grows the probe's default horizon, and the message says so
    [
        ("--horizon", "1e300", "horizon"), ("--V", "1e308", "horizon"), ("--V", "1e300", "horizon"),
        ("--h", "1e-300", "h"), ("--h", "1e-17", "h"),
    ],
)
def test_simulate_refuses_step_counts_numpy_cannot_size(tmp_path, capsys, flag, value, field):
    net_path, plan_path = tmp_path / "net.json", tmp_path / "plan.json"
    assert main(["gen", "--n", "6", "--seed", "2", "--out", str(net_path)]) == 0
    assert main(["solve", "--instance", str(net_path), "--out", str(plan_path)]) == 0
    capsys.readouterr()
    args = {"--V": "20", "--R": "5", flag: value}
    code = simulate_plan(tmp_path, net_path, plan_path, *(x for kv in args.items() for x in kv))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} is ") and err.count("\n") == 1
    assert ("the default one, drain bound + 2 max T + 10 h, grew with the idle stock" in err) == (flag == "--V")
    assert not (tmp_path / "t.csv").exists()


def test_probe_queues_no_station_without_arrivals(tmp_path, capsys):
    # station 1 has no arrivals, so its p row may be all 0; a queue there would have nowhere to go
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"n": 2, "lambda": [0.4, 0.0], "mu": [0.8, 0.2], "p": [[0, 1], [0, 0]],
                                    "T": [[0, 10], [10, 0]], "f": 1.0}))
    assign_path, trace = tmp_path / "assign.json", tmp_path / "trace.csv"
    assert main(["solve", "--instance", str(net_path), "--out", str(assign_path)]) == 0
    code = main(
        ["simulate", "--instance", str(net_path), "--assignment", str(assign_path),
         "--V", "20", "--R", "20", "--trace-out", str(trace)]
    )
    assert code == 0
    assert "stability: PASS" in capsys.readouterr().out
    first = np.loadtxt(trace, delimiter=",", skiprows=1)[0]
    assert first[1] > 0 and first[2] == 0  # c_1, c_2 at t = 0


def test_simulate_meta_out_override(tmp_path):
    net_path, assign_path = solve_first(tmp_path)
    trace, meta = tmp_path / "t.csv", tmp_path / "m.json"
    code = main(
        ["simulate", "--instance", str(net_path), "--assignment", str(assign_path),
         "--V", "10", "--R", "8", "--h", "1.0", "--seed", "5",
         "--trace-out", str(trace), "--meta-out", str(meta)]
    )
    assert code == 0
    assert json.loads(meta.read_text())["seed"] == 5


def test_simulate_mismatched_assignment(tmp_path, capsys):
    net_path, assign_path = solve_first(tmp_path)
    other = tmp_path / "other.json"
    assert main(["gen", "--n", "5", "--seed", "0", "--out", str(other)]) == 0
    code = main(
        ["simulate", "--instance", str(other), "--assignment", str(assign_path),
         "--V", "10", "--R", "8", "--trace-out", str(tmp_path / "t.csv")]
    )
    assert code == 2
    assert "2 stations" in capsys.readouterr().err


def gen_and_solve(tmp_path, seed):
    net_path, plan_path = tmp_path / f"net{seed}.json", tmp_path / f"plan{seed}.json"
    assert main(["gen", "--n", "10", "--seed", str(seed), "--out", str(net_path)]) == 0
    assert main(["solve", "--instance", str(net_path), "--out", str(plan_path)]) == 0
    return net_path, plan_path


def simulate_plan(tmp_path, net_path, plan_path, *flags):
    return main(
        ["simulate", "--instance", str(net_path), "--assignment", str(plan_path),
         "--trace-out", str(tmp_path / "t.csv"), *flags]
    )


def test_simulate_rejects_plan_with_wrong_fleet_floors(tmp_path, capsys):
    net_path, plan_path = gen_and_solve(tmp_path, 2)
    # the solver's own plan is below the floors at V=10, R=4
    assert simulate_plan(tmp_path, net_path, plan_path, "--V", "10", "--R", "4") == 4
    capsys.readouterr()
    plan = json.loads(plan_path.read_text())
    plan["v_alpha"] /= 2
    plan["r_alpha_beta"] /= 2
    plan_path.write_text(json.dumps(plan))
    assert simulate_plan(tmp_path, net_path, plan_path, "--V", "10", "--R", "4") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {plan_path}: v_alpha ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


def test_simulate_rejects_plan_for_another_instance(tmp_path, capsys):
    _, plan_path = gen_and_solve(tmp_path, 1)
    net_path, _ = gen_and_solve(tmp_path, 2)
    capsys.readouterr()
    assert simulate_plan(tmp_path, net_path, plan_path, "--V", "100", "--R", "100") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {plan_path}: ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


def test_simulate_rejects_plan_that_pins_no_mass(tmp_path, capsys):
    # customers balance every station, so the plan moves no vehicle and no driver
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"n": 2, "lambda": [0.4, 0.4], "mu": [0.8, 0.8], "p": [[0, 1], [1, 0]],
                                    "T": [[0, 10], [10, 0]], "f": 1.0}))
    plan_path = tmp_path / "plan.json"
    assert main(["solve", "--instance", str(net_path), "--out", str(plan_path)]) == 0
    capsys.readouterr()
    assert simulate_plan(tmp_path, net_path, plan_path, "--V", "10", "--R", "1") == 2
    assert "pins no mass" in capsys.readouterr().err


def test_simulate_leaves_no_trace_when_meta_cannot_be_written(tmp_path, capsys):
    net_path, assign_path = solve_first(tmp_path)
    trace, meta = tmp_path / "t.csv", tmp_path / "nonexistent" / "m.json"
    code = simulate_plan(
        tmp_path, net_path, assign_path, "--V", "9.6", "--R", "7.2", "--h", "1.0", "--meta-out", str(meta)
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(meta) in err
    assert not trace.exists()


@pytest.mark.parametrize(
    "flag,value,field",
    [("--horizon", "nan", "horizon"), ("--horizon", "inf", "horizon"),
     ("--V", "nan", "slack_vehicles"), ("--R", "inf", "slack_drivers")],
)
def test_simulate_rejects_non_finite_input(tmp_path, capsys, flag, value, field):
    net_path, assign_path = solve_first(tmp_path)
    args = {"--V": "9.6", "--R": "7.2", "--horizon": "20", flag: value}
    code = main(
        ["simulate", "--instance", str(net_path), "--assignment", str(assign_path),
         "--h", "1.0", "--trace-out", str(tmp_path / "t.csv"), *(x for kv in args.items() for x in kv)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err and value in err


def test_sweep_with_config_file(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sizes": [5, 7], "trials_per_size": 2, "base_seed": 3}))
    out_dir = tmp_path / "out"
    code = main(["sweep", "--config", str(config), "--out-dir", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "n=5 ratio" in printed and "n=7 ratio" in printed
    rows = (out_dir / "sweep_rows.csv").read_text().strip().split("\n")
    assert rows[0].startswith("group_key,trial,seed,n,f,")
    assert len(rows) == 5
    assert (out_dir / "sweep_summary.csv").exists()
    echo = json.loads((out_dir / "sweep_config.json").read_text())
    assert echo["sizes"] == [5, 7]
    assert echo["generator"]["taxi_fraction"] == 1.0


def test_sweep_config_echo_feeds_back(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sizes": [5, 6], "trials_per_size": 2, "base_seed": 4}))
    first = tmp_path / "first"
    assert main(["sweep", "--config", str(config), "--out-dir", str(first), "--workers", "2"]) == 0
    echo = first / "sweep_config.json"
    assert json.loads(echo.read_text())["workers"] == 2
    # the echo runs as a config, workers included; --workers still wins over the file
    for out, flags in (("again", []), ("serial", ["--workers", "1"])):
        assert main(["sweep", "--config", str(echo), "--out-dir", str(tmp_path / out), *flags]) == 0
        for name in ("sweep_rows.csv", "sweep_summary.csv"):
            assert (tmp_path / out / name).read_bytes() == (first / name).read_bytes()
    assert (tmp_path / "again" / "sweep_config.json").read_bytes() == echo.read_bytes()
    serial = json.loads((tmp_path / "serial" / "sweep_config.json").read_text())
    assert serial == {**json.loads(echo.read_text()), "workers": 1}


def test_fsweep_with_config_file(tmp_path, capsys):
    config = tmp_path / "fsweep.json"
    config.write_text(
        json.dumps({"sizes": [8], "trials_per_size": 2, "base_seed": 1, "f_values": [1, 2]})
    )
    out_dir = tmp_path / "out"
    code = main(["sweep", "--config", str(config), "--out-dir", str(out_dir), "--workers", "2"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "f=1 r_alpha_beta" in printed and "f=2 r_alpha_beta" in printed
    rows = (out_dir / "sweep_rows.csv").read_text().strip().split("\n")
    assert len(rows) == 5
    # integer-spelled fractions are written as the floats they are
    assert [row.split(",")[4] for row in rows[1:]] == ["1.0", "1.0", "2.0", "2.0"]


def test_sweep_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sizes": [5], "bogus_field": 1}))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 2
    assert "unknown sweep config fields: bogus_field" in capsys.readouterr().err

    config.write_text("{broken")
    assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    config.write_text("[5]")
    assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 2
    assert "top level must be a JSON object" in capsys.readouterr().err

    # non-integer counts and seeds (JSON booleans too), non-numeric fractions and a generator
    # taxi fraction are named, not run or left to a traceback
    for field, raw in (("trials_per_size", {"sizes": [5], "trials_per_size": 2.5}),
                       ("sizes", {"sizes": [5.5]}),
                       ("sizes", {"sizes": [[5], [6, 7]]}),
                       ("base_seed", {"sizes": [5], "trials_per_size": 1, "base_seed": 1.5}),
                       ("trials_per_size", {"sizes": [5], "trials_per_size": True, "workers": True,
                                            "base_seed": False}),
                       ("workers", {"sizes": [5], "trials_per_size": 1, "workers": True}),
                       ("f_values", {"sizes": [5], "f_values": ["a"]}),
                       ("f_values", {"sizes": [5], "f_values": ["2", "3"]}),
                       ("taxi_fraction", {"sizes": [5], "generator": {"taxi_fraction": 0.5}}),
                       ("field 'generator' must be an object", {"sizes": [5], "generator": 5})):
        config.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and field in err
    assert not out_dir.exists()


def test_sweep_makes_its_out_dir_before_running(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(cli, "run_sweep", lambda config: pytest.fail("the sweep ran"))
    assert main(["sweep", "--out-dir", str(blocker / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker / "out") in err


def test_unknown_command_and_missing_args_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    # taxi fractions are one more axis of `sweep`, with no command of their own
    assert main(["fsweep", "--out-dir", "results"]) == 2
    assert "invalid choice: 'fsweep'" in capsys.readouterr().err
    assert main(["gen", "--n", "5"]) == 2
    capsys.readouterr()


def test_main_runs_repeatedly_in_one_process(tmp_path, capsys):
    # the parser is built once and reused; a failed parse leaves it as it was
    net_path = write_two_station(tmp_path)
    plans = [tmp_path / "a.json", tmp_path / "b.json"]
    assert main(["solve", "--instance", str(net_path), "--out", str(plans[0])]) == 0
    assert main(["solve", "--instance", str(net_path)]) == 2
    assert main(["solve", "--instance", str(net_path), "--out", str(plans[1]), "--bogus"]) == 2
    assert main(["solve", "--instance", str(net_path), "--out", str(plans[1])]) == 0
    assert main(["gen", "--n", "4", "--seed", "1", "--out", str(tmp_path / "net4.json")]) == 0
    out = capsys.readouterr().out
    assert out.count("v_alpha=8 r_alpha_beta=6") == 2 and "n=4" in out
    assert plans[0].read_bytes() == plans[1].read_bytes()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds ~0.3 s and 16 MB to a fresh process; the flow
    # solver imports it on first use, so commands that never solve skip it.
    # scipy.sparse (~0.4 s with csgraph) is not imported by the package at all.
    # No command starts a process pool, and the thread pool is imported by
    # the sweep itself, so a command that runs no sweep skips it too.
    heavy = (
        "scipy.optimize", "scipy.sparse", "multiprocessing", "concurrent.futures.process", "concurrent.futures.thread"
    )
    code = f"import sys, fleetbalance.cli; print(*(m in sys.modules for m in {heavy!r}))"
    src = Path(fleetbalance.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.split() == ["False"] * len(heavy)
