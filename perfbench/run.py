"""fleetbalance benchmark: one workload per run, timed from outside the program.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --write-manifest                 # rewrite BENCHMARK.json

Run from the root of a checkout: the program is imported from ``src/``
as it stands there; nothing needs installing.  A run plans its inputs
from ``--seed`` (untimed), sets up ``SETUP_REPEATS`` times (a fresh
interpreter importing the package, then the workload's inputs built
through the program), runs whole rounds of the workload's operations
until ``--seconds`` would be exceeded, and checks every output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds that record spans around the program's
public functions (see ``tracer.py``), writes the spans to
``perfbench/out/spans-<workload>-seed<seed>.json`` and reports the
per-layer metrics plus the tracing overhead.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RUN_SECONDS = 50
SETUP_REPEATS = 5

WORKLOADS = {
    "solve": "CLI solves at n=50, infeasible diagnoses on both sides of n=20 and a parallel sweep: every solver path, simulator idle",
    "probe": "stability probes at h = min T / 10 with T ratio ~120: delay-line buffers and per-step totals; solves only in set-up",
}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": k, "unit": u, "better": b} for k, (u, b) in LAYERS.items()],
    }


def _fresh_import() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import fleetbalance.cli"], env=env, check=True, timeout=120)


def _measure(wl, seconds, tracer=None):
    """Whole rounds until another would overrun ``seconds``.

    Returns each operation's wall times, one per round, and the rounds'
    records.  With a tracer, every other round runs traced and its times
    are returned apart, so both kinds of round see the same machine.
    """
    times = {False: [], True: []}
    records = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            ops = wl.ops()  # after installing, so bound functions are the traced ones
            samples = []
            outcomes = []
            with tracer.span("round") if traced else contextlib.nullcontext():
                for op in ops:
                    t0 = time.perf_counter()
                    outcomes.append(op())
                    samples.append(time.perf_counter() - t0)
        times[traced].append(samples)
        records.append(wl.collect(outcomes))
        rounds = len(records)
        if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds and (
            tracer is None or rounds >= 2
        ):
            return times, records


def _op_seconds(wl, rounds) -> float:
    """Seconds per operation: each operation's fastest repeat, averaged over a round.

    Other tenants of the machine slow it by up to half for tens of
    seconds at a time; the fastest repeat is the figure they disturb least.
    """
    return sum(min(repeats) for repeats in zip(*rounds)) / wl.ops_per_round


def _part_seconds(wl, rounds) -> dict[str, float]:
    """``_op_seconds`` of each part of the workload, by the part's label."""
    per_part = zip(*(wl.split(r) for r in rounds))
    return {f"ops.{p.LABEL}": _op_seconds(p, list(chunks)) for p, chunks in zip(wl.parts, per_part)}


def _peak_rss_mb(pool_workers: int) -> float:
    """This process's peak plus, for a pool, workers times the largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS as IMPLS  # imports fleetbalance, so after the path is set

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        wl = IMPLS[name](seed, workdir)
        wl.plan()
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _fresh_import()
            wl.setup()
            setup.append(time.perf_counter() - t0)

        if not trace:
            times, records = _measure(wl, seconds)
            rss = _peak_rss_mb(wl.workers)
            errors = wl.check(records)
            metrics = {
                "setup_s": statistics.median(setup),
                "peak_rss_mb": rss,
                "op_s": _op_seconds(wl, times[False]),
            }
            units = {m["name"]: m["unit"] for m in END_TO_END}
            for label, value in _part_seconds(wl, times[False]).items():
                print(f"{label} = {value:.6g} s")
        else:
            tracer = Tracer()
            with tracer.installed(), tracer.span("setup"):
                wl.setup()
            times, records = _measure(wl, seconds, tracer)
            with tracer.installed(), tracer.span("check"):
                errors = wl.check(records)
            metrics = layer_metrics(tracer)
            metrics.update({k: 0.0 for k in LAYERS if k.startswith("ops.")})
            metrics.update(_part_seconds(wl, times[False]))
            untraced = _op_seconds(wl, times[False])
            traced = _op_seconds(wl, times[True])
            metrics.update({
                "tracing.overhead_ms": (traced - untraced) * 1e3,
                "tracing.op_untraced_s": untraced,
                "tracing.op_traced_s": traced,
            })
            units = {k: u for k, (u, _) in LAYERS.items()}
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            tracer.dump(spans_path)
            _print_self_times(tracer)
            print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")

        attempted = wl.ops_per_round * len(records)
        failed = sum(wl.failures(r) for r in records)
        for e in errors[:20]:
            print(f"CHECK FAILED: {e}")
        for key, value in metrics.items():
            print(f"{key} = {value:.6g} {units[key]}")
        print(f"{name}: {attempted} operations attempted, {failed} failed, "
              f"{len(records)} rounds, {len(errors)} check errors")
        return {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_self_times(tracer) -> None:
    own = tracer.self_times()
    totals: dict[str, list] = {}
    for rec in tracer.spans:
        entry = totals.setdefault(rec["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += own[rec["id"]]
    print(f"{'span':44s} {'calls':>6s} {'self s':>10s}")
    for span_name, (calls, total) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"{span_name:44s} {calls:6d} {total:10.4f}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    summary = {}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="", flush=True)
        worst = max(worst, proc.returncode)
        if proc.returncode == 0:
            summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "fleetbalance" / "__init__.py").is_file():
        print(f"error: no fleetbalance sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
