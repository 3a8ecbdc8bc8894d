"""Smoke test of the per-layer harness ``bench/scale.py`` at its smallest size."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "scale.py"


def test_scale_layers_run_and_count_the_probe(monkeypatch):
    # the script puts its checkout's src/ on sys.path; undo that afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_scale", SCRIPT)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    monkeypatch.setattr(scale, "REPEATS", 1)
    row = scale.layers(25)
    sim_keys = {
        "sim_run_step", "sim_cold_run_step", "sim_cold_zero_hits",
        "sim_probe", "sim_probe_steps", "sim_probe_general_steps", "sim_probe_blocks",
    }
    assert sim_keys | {"sweep"} <= row.keys()
    # the patched engine methods pass through: a probe runs general steps and blocks
    assert 0 < row["sim_probe_general_steps"] < row["sim_probe_steps"]
    assert row["sim_probe_blocks"] > 0
    assert row["infeasible_witness"] is True
    # a generated (metric) vehicle program needs one column-generation round
    assert row["alpha_lp_rounds"] == 1
