import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fleetbalance
from fleetbalance.cli import main
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
    assert "n >= 2" in capsys.readouterr().err
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
    assert "witness stations {0}" in err
    assert "0.3" in err and "0.2" in err
    assert not out.exists()


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path / "a.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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

    # non-integer counts and seeds, non-numeric fractions and a generator
    # taxi fraction are named, not run or left to a traceback
    for field, raw in (("trials_per_size", {"sizes": [5], "trials_per_size": 2.5}),
                       ("sizes", {"sizes": [5.5]}),
                       ("base_seed", {"sizes": [5], "trials_per_size": 1, "base_seed": 1.5}),
                       ("f_values", {"sizes": [5], "f_values": ["a"]}),
                       ("taxi_fraction", {"sizes": [5], "generator": {"taxi_fraction": 0.5}})):
        config.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
    assert not out_dir.exists()


def test_unknown_command_and_missing_args_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    # taxi fractions are one more axis of `sweep`, with no command of their own
    assert main(["fsweep", "--out-dir", "results"]) == 2
    assert "invalid choice: 'fsweep'" in capsys.readouterr().err
    assert main(["gen", "--n", "5"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds ~0.3 s and 16 MB to a fresh process; the flow
    # solver imports it on first use, so commands that never solve skip it.
    # scipy.sparse (~0.4 s with csgraph) is not imported by the package at all.
    # Nor is the process pool, which only a sweep with workers > 1 starts.
    heavy = ("scipy.optimize", "scipy.sparse", "multiprocessing", "concurrent.futures.process")
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
    assert done.stdout.split() == ["False"] * 4
