"""Smoke test of the per-layer harness ``bench/scale.py`` at its smallest size."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "scale.py"


@pytest.fixture
def scale(monkeypatch):
    # the script puts its checkout's src/ on sys.path; undo that afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scale_counts_src_lines(scale):
    files = sorted((ROOT / "src" / "fleetbalance").glob("*.py"))
    assert len(files) > 1
    assert scale.src_lines() == sum(len(path.read_text().splitlines()) for path in files)
    by_module = scale.src_lines_by_module()
    assert by_module == {path.name: len(path.read_text().splitlines()) for path in files}
    assert sum(by_module.values()) == scale.src_lines()


SAMPLE = '''"""Module docstring
over two lines."""

import os  # a comment after code

    # an indented comment


class A:
    """Class docstring."""

    x = """a string, not a docstring,

    so code"""

    def f(self):
        """Function
        docstring."""
        return os.sep
'''


def test_scale_counts_code_lines(scale, tmp_path, monkeypatch):
    # import, class, the two lines of x that are not blank, def and return
    assert scale.code_lines(SAMPLE) == 6
    (tmp_path / "fleetbalance").mkdir()
    (tmp_path / "fleetbalance" / "sample.py").write_text(SAMPLE)
    monkeypatch.setattr(scale, "SRC", tmp_path)
    assert scale.src_code_lines_by_module() == {"sample.py": 6}
    assert scale.src_lines_by_module() == {"sample.py": len(SAMPLE.splitlines())}


def test_scale_layers_run_and_count_the_probe(scale, monkeypatch):
    monkeypatch.setattr(scale, "REPEATS", 1)
    row = scale.layers(25)
    sim_keys = {
        "sim_run_step", "sim_cold_run_step", "sim_cold_zero_hits",
        "sim_probe", "sim_probe_steps", "sim_probe_general_steps", "sim_probe_blocks", "sim_calendar_bytes",
        "sim_probe_peak_mb",
    }
    assert sim_keys | {"sweep", "sweep_workers"} <= row.keys()
    # the patched engine methods pass through: a probe runs general steps and blocks
    assert 0 < row["sim_probe_general_steps"] < row["sim_probe_steps"]
    assert row["sim_probe_blocks"] > 0
    # the probe's trace alone, (steps + 1) x 3 x n level floats, is in the traced peak
    assert row["sim_probe_peak_mb"] * 2**20 > (row["sim_probe_steps"] + 1) * 3 * 25 * 8
    # every calendar-sized array of the probe's engine: the window and a
    # longest block's post offsets and values
    net = scale.generate_instance(25, scale.SEED)
    a = scale.solve_rebalancing(net).assignment
    state = scale.equilibrium_state(
        net, a.vehicle_rates, a.driver_rates, np.zeros(25), np.ones(25), np.ones(25), net.min_offdiag_travel_time() / 10
    )
    engine = scale._Engine(net, a.vehicle_rates, a.driver_rates, state)
    # an int64 offset and a float per cell that a longest block posts
    posts = engine.block_cap * engine.fleet_cell.size * (8 + 8)
    assert row["sim_calendar_bytes"] == engine.cal.nbytes + posts
    assert row["infeasible_witness"] is True
    # a generated (metric) vehicle program needs one column-generation round
    assert row["alpha_lp_rounds"] == 1
