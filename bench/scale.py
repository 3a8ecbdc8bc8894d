"""Per-layer timings of fleetbalance across network sizes.

Times each layer of a solve on its own, at n = 25, 50, 100, 200 and 300
stations (``generate_instance(n, SEED)``):

* ``generate``: ``generate_instance``;
* ``load_instance``: reading the same instance back from the JSON file
  ``save_instance`` writes, which includes every check of its arrays;
* ``imbalance``: ``compute_imbalance``;
* ``vehicle_problem``, ``driver_problem``: building the two flow problems,
  each from the network alone, so each includes one ``compute_imbalance``
  (~20 us);
* ``alpha_lp``, ``beta_lp``: ``solve_mcf`` on each of them;
  ``alpha_lp_rounds`` is the number of LPs the alpha solve hands HiGHS,
  counted from the ``fleetbalance.mincostflow`` DEBUG records (one per
  column-generation round);
* ``infeasible_diagnosis``: ``solve_driver_rebalancing`` on the same
  draw at ``taxi_fraction=0.5``, up to the ``RebalanceInfeasibleError``
  and its witness;
* ``sim_run_step``: the cost per step inside ``fluidsim.simulate``, a run
  of ``SIM_RUN_STEPS`` steps from the equilibrium state at h = min T / 10
  divided by that count, for n <= 100 only.  That state has no queues
  and ample idle stock, so the run is steady and goes in blocks that
  start at the shortest delay and double, as most of a stability probe
  does;
* ``sim_cold_run_step``: the same per-step cost from a cold start: empty
  roads, customers, idle vehicles and idle drivers drawn from U[0, 1),
  U[0, 0.5) and U[0, 0.3) per station (``default_rng(SEED)``, in that
  order), for n <= 100 only.  Queues build up, so every step is a
  general one; ``sim_cold_zero_hits`` is that run's number of zero
  crossings, ``zero_hits`` summed over its levels;
* ``sim_probe``: one ``stability_probe`` of the solved assignment at
  h = min T / 10, slack ``PROBE_SLACK`` on both fleets and perturbation
  ``PROBE_PERTURBATION``, for n <= ``PROBE_MAX_N`` only, and the median
  of a single timed call above ``SIM_MAX_N``, where a probe takes
  seconds; ``sim_probe_steps`` is its step count,
  ``sim_probe_general_steps`` how many of those ran one at a time,
  ``sim_probe_blocks`` how many blocks ran the rest,
  ``sim_probe_peak_mb`` the peak of the memory ``tracemalloc`` saw the
  probe allocate (numpy reports its arrays to it), and
  ``sim_calendar_bytes`` the bytes of every calendar-sized array the
  probe engine keeps for its blocks (``CALENDAR_ARRAYS``): its window of
  both calendars, and the cell offsets and values of a longest block's
  posts;
* ``sweep``: one ``run_sweep`` of ``SWEEP_TRIALS`` instances at size n,
  each solved at the taxi fractions ``SWEEP_F_VALUES``, in one process,
  for n <= ``SWEEP_MAX_N`` only;

plus ``fresh_import_cli``, the wall time of a new process that runs
``import fleetbalance.cli``, and ``fresh_solve_cli``, a new process that
does what ``fleetbalance solve`` does at n = ``SOLVE_N``, split into its
phases: ``import_cli`` (``import fleetbalance.cli``), ``import_highs``
(the first import of the HiGHS binding the solver calls), ``load``,
``solve`` and ``save``; ``process`` is that process's wall time seen
from outside, interpreter start-up included.  Each figure is the median
of ``REPEATS`` calls (one for a probe above ``SIM_MAX_N``), after one
untimed call that pays lazy imports.
The output, ``BENCH_<label>.json``, also records the machine, the
Python, numpy and scipy versions, the git commit of the checkout
measured, ``src_lines``, the ``wc -l`` total of its
``src/fleetbalance/*.py``, ``src_lines_by_module``, the count of
each of those files, and ``src_code_lines_by_module``, the lines of each
that hold code: not blank, not comment-only and not inside a module,
class or function docstring.

Run from the repository root, on whichever checkout is to be measured:

    python3 bench/scale.py --label baseline

Uses the standard library and numpy only, besides the package under
``src/`` of the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import ast
import json
import logging
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib import metadata
from logging.handlers import BufferingHandler
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from fleetbalance import (  # noqa: E402
    GeneratorConfig,
    RebalanceInfeasibleError,
    SweepConfig,
    compute_imbalance,
    driver_flow_problem,
    equilibrium_state,
    generate_instance,
    initial_state,
    load_instance,
    run_sweep,
    save_instance,
    simulate,
    solve_driver_rebalancing,
    solve_mcf,
    solve_rebalancing,
    stability_probe,
    vehicle_flow_problem,
)
from fleetbalance.fluidsim import _Engine  # noqa: E402

SIZES = (25, 50, 100, 200, 300)
SIM_MAX_N = 100
PROBE_MAX_N = 200
SIM_RUN_STEPS = 200
PROBE_SLACK = 0.2
PROBE_PERTURBATION = 0.1
SEED = 1
REPEATS = 7
SOLVE_N = 200
# the probe engine's arrays that grow with its calendars
CALENDAR_ARRAYS = ("cal", "block_cells", "posts")
SWEEP_MAX_N = 50
SWEEP_TRIALS = 4
SWEEP_F_VALUES = (1.0, 2.0)

# the phases of `fleetbalance solve --instance argv[1] --out argv[2]`,
# timed inside one fresh interpreter; prints them in ms as one JSON object
SOLVE_PHASES = """
import json, sys, time
started = time.perf_counter()
import fleetbalance.cli as cli
marks = [time.perf_counter()]
import scipy.optimize._highspy._core  # what mincostflow._highs imports on its first solve
marks.append(time.perf_counter())
net = cli.load_instance(sys.argv[1])
marks.append(time.perf_counter())
solution = cli.solve_rebalancing(net)
marks.append(time.perf_counter())
cli.save_assignment(solution, sys.argv[2], meta={"instance": sys.argv[1]})
marks.append(time.perf_counter())
names = ("import_cli", "import_highs", "load", "solve", "save")
print(json.dumps({k: 1e3 * (b - a) for k, a, b in zip(names, [started] + marks, marks)}))
"""


def median_ms(call, repeats=None) -> float:
    """Median wall time in ms of ``repeats`` calls (``REPEATS`` if None) after an untimed one."""
    call()  # lazy imports and first-touch allocations stay out of the figure
    samples = []
    for _ in range(REPEATS if repeats is None else repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return round(1e3 * statistics.median(samples), 4)


def lp_rounds(problem) -> int:
    """How many LPs one ``solve_mcf`` call logs at DEBUG."""
    log, records = logging.getLogger("fleetbalance.mincostflow"), BufferingHandler(capacity=1000)
    level = log.level
    log.addHandler(records)
    log.setLevel(logging.DEBUG)
    try:
        solve_mcf(problem)
    finally:
        log.setLevel(level)
        log.removeHandler(records)
    return len(records.buffer)


def diagnose(net) -> bool:
    """Run the infeasible driver program; True if the error carried a witness."""
    try:
        solve_driver_rebalancing(net)
    except RebalanceInfeasibleError as err:
        return err.witness is not None
    raise RuntimeError(f"driver program at n={net.n} was feasible; the diagnosis needs an infeasible draw")


def sim_runs(net, a, h) -> dict:
    """``sim_run_step``, ``sim_cold_run_step`` and ``sim_cold_zero_hits`` of the assignment ``a`` at step ``h``."""
    n = net.n
    state = equilibrium_state(net, a.vehicle_rates, a.driver_rates, np.zeros(n), np.ones(n), np.ones(n), h)
    run = median_ms(lambda: simulate(net, a.vehicle_rates, a.driver_rates, state, SIM_RUN_STEPS * h))
    rng = np.random.default_rng(SEED)
    cold = initial_state(net, rng.uniform(0, 1, n), rng.uniform(0, 0.5, n), rng.uniform(0, 0.3, n), h)

    def cold_run():
        return simulate(net, a.vehicle_rates, a.driver_rates, cold, SIM_RUN_STEPS * h)

    return {
        "sim_run_step": round(run / SIM_RUN_STEPS, 4),
        "sim_cold_run_step": round(median_ms(cold_run) / SIM_RUN_STEPS, 4),
        "sim_cold_zero_hits": int(cold_run().zero_hits.sum()),
    }


def probe_figures(net, sol, h, repeats) -> dict:
    """The ``sim_probe`` figures of a probe of ``sol`` at step ``h``, timed over ``repeats`` calls."""

    def probe():
        return stability_probe(net, sol, PROBE_SLACK, PROBE_SLACK, PROBE_PERTURBATION, h)

    row = {"sim_probe": median_ms(probe, repeats)}
    # the same probe once more, counting its general steps and blocks and tracing its memory
    tracemalloc.start()
    try:
        with mock.patch.object(_Engine, "advance", autospec=True, side_effect=_Engine.advance) as advance, \
                mock.patch.object(_Engine, "repeat", autospec=True, side_effect=_Engine.repeat) as repeat:
            row["sim_probe_steps"] = probe().trace.times.size - 1
        row["sim_probe_peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
    finally:
        tracemalloc.stop()
    row["sim_probe_general_steps"], row["sim_probe_blocks"] = advance.call_count, repeat.call_count
    engine = repeat.call_args.args[0]
    row["sim_calendar_bytes"] = sum(getattr(engine, name).nbytes for name in CALENDAR_ARRAYS)
    return row


def layers(n: int) -> dict:
    net = generate_instance(n, SEED)
    vehicle, driver = vehicle_flow_problem(net), driver_flow_problem(net)
    tight = generate_instance(n, SEED, GeneratorConfig(taxi_fraction=0.5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        save_instance(net, path)
        loaded = median_ms(lambda: load_instance(path))
    row = {
        "generate": median_ms(lambda: generate_instance(n, SEED)),
        "load_instance": loaded,
        "imbalance": median_ms(lambda: compute_imbalance(net)),
        "vehicle_problem": median_ms(lambda: vehicle_flow_problem(net)),
        "driver_problem": median_ms(lambda: driver_flow_problem(net)),
        "alpha_lp": median_ms(lambda: solve_mcf(vehicle)),
        "alpha_lp_rounds": lp_rounds(vehicle),
        "beta_lp": median_ms(lambda: solve_mcf(driver)),
        "infeasible_diagnosis": median_ms(lambda: diagnose(tight)),
        "infeasible_witness": diagnose(tight),
    }
    if n <= PROBE_MAX_N:
        sol = solve_rebalancing(net)
        h = net.min_offdiag_travel_time() / 10.0
        if n <= SIM_MAX_N:
            row.update(sim_runs(net, sol.assignment, h))
        # a probe above SIM_MAX_N takes seconds: one timed call
        row.update(probe_figures(net, sol, h, None if n <= SIM_MAX_N else 1))
    if n <= SWEEP_MAX_N:
        sweep = SweepConfig(sizes=(n,), trials_per_size=SWEEP_TRIALS, base_seed=SEED, f_values=SWEEP_F_VALUES)
        row["sweep"] = median_ms(lambda: run_sweep(sweep))
    return row


def fresh_import_ms() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import fleetbalance.cli"]
    return median_ms(lambda: subprocess.run(command, env=env, check=True, timeout=120))


def fresh_solve_ms() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        instance, out = Path(tmp) / "net.json", Path(tmp) / "plan.json"
        save_instance(generate_instance(SOLVE_N, SEED), instance)
        command = [sys.executable, "-c", SOLVE_PHASES, str(instance), str(out)]
        for _ in range(REPEATS + 1):  # the first run is dropped, as in median_ms
            started = time.perf_counter()
            done = subprocess.run(command, env=env, check=True, timeout=300, capture_output=True, text=True)
            runs.append(dict(json.loads(done.stdout), process=1e3 * (time.perf_counter() - started)))
    runs = runs[1:]
    return {"n": SOLVE_N, **{k: round(statistics.median(r[k] for r in runs), 4) for k in runs[0]}}


def git_commit() -> dict:
    def git(*args):
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": git("rev-parse", "HEAD"), "tracked_files_modified": bool(status) if status is not None else None}


def src_lines_by_module() -> dict:
    """Lines of each ``src/fleetbalance/*.py``, by file name, counted as ``wc -l`` does: by newlines."""
    return {path.name: path.read_bytes().count(b"\n") for path in sorted((SRC / "fleetbalance").glob("*.py"))}


def src_lines() -> int:
    return sum(src_lines_by_module().values())


def code_lines(source: str) -> int:
    """Lines of Python ``source`` that are not blank, not comment-only and not inside a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and (
            ast.get_docstring(node, clean=False) is not None
        ):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = enumerate(source.splitlines(), 1)
    return sum(1 for k, line in lines if k not in docs and line.strip() and not line.lstrip().startswith("#"))


def src_code_lines_by_module() -> dict:
    """Code lines (see :func:`code_lines`) of each ``src/fleetbalance/*.py``, by file name."""
    return {path.name: code_lines(path.read_text()) for path in sorted((SRC / "fleetbalance").glob("*.py"))}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"platform": platform.platform(), "cpu": cpu, "cpu_count": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="output file is BENCH_<label>.json")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="directory of the output file")
    args = parser.parse_args(argv)

    report = {
        "label": args.label,
        "commit": git_commit(),
        "src_lines": src_lines(),
        "src_lines_by_module": src_lines_by_module(),
        "src_code_lines_by_module": src_code_lines_by_module(),
        "machine": machine(),
        "versions": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
        },
        "repeats": REPEATS,
        "seed": SEED,
        "unit": "ms, median of repeats",
        "fresh_import_cli": fresh_import_ms(),
        "fresh_solve_cli": fresh_solve_ms(),
        "layers": {},
    }
    for n in SIZES:
        report["layers"][str(n)] = layers(n)
        print(f"n={n}: {report['layers'][str(n)]}", file=sys.stderr)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
