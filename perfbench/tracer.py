"""Spans around calls into fleetbalance's public functions.

The traced run wraps the public functions listed in ``TARGETS`` from the
outside: each wrapper replaces the function object wherever a
``fleetbalance`` module binds it (``from .x import f`` copies included),
so calls made inside the package are traced too and every span gets the
span that was open when it started as its parent.  Nothing in ``src/``
knows about tracing.

A span is ``{"id", "parent", "name", "start", "end", "info"}``; times
are ``time.perf_counter()`` seconds.  A span's self time is its duration
minus the durations of its direct children (calls nest, so children
never overlap).  ``layer_metrics`` turns the self times into the
per-layer metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays))


def _cut_note(result, args, kwargs):
    if result.witness is None:
        return {"subsets": 2 ** args[0].n}
    # the scan runs in ascending bitmask order, so it examined the masks
    # 0..witness before stopping
    return {"subsets": sum(1 << i for i in result.witness) + 1}


def _equilibrium_note(result, args, kwargs):
    return {
        "slots": int(result.legs.total_slots),
        "buffer_bytes": _nbytes(result.vehicle_buffer, result.driver_buffer),
    }


def _simulate_note(result, args, kwargs):
    return {
        "steps": int(round((result.times[-1] - result.times[0]) / result.h)),
        "trace_bytes": _nbytes(
            result.times,
            result.customers,
            result.vehicles,
            result.drivers,
            result.vehicles_total,
            result.drivers_total,
        ),
    }


def _sweep_note(result, args, kwargs):
    return {"workers": int(result.config.workers), "trials": len(result.rows)}


# (module, function, note): the note records counts from the call's
# result on its span.
TARGETS = (
    ("cli", "main", None),
    ("generate", "generate_instance", None),
    ("storage", "load_instance", None),
    ("storage", "save_assignment", None),
    ("network", "compute_imbalance", None),
    ("network", "fleet_sizes", None),
    ("network", "check_feasibility_bruteforce", _cut_note),
    ("rebalance", "solve_rebalancing", None),
    ("rebalance", "solve_vehicle_rebalancing", None),
    ("rebalance", "solve_driver_rebalancing", None),
    ("rebalance", "vehicle_flow_problem", None),
    ("rebalance", "driver_flow_problem", None),
    ("mincostflow", "solve_mcf", lambda r, a, k: {"status": r.status}),
    ("fluidsim", "stability_probe", None),
    ("fluidsim", "equilibrium_state", _equilibrium_note),
    ("fluidsim", "simulate", _simulate_note),
    ("experiments", "run_station_sweep", _sweep_note),
    ("experiments", "write_report_csv", None),
    ("experiments", "write_summary_csv", None),
)


class Tracer:
    """Keeps spans in memory; ``installed()`` wraps ``TARGETS`` for a ``with`` block."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **info):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "info": info,
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if note is not None:
                rec["info"].update(note(result, args, kwargs))
            return result

        return traced

    def _install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "fleetbalance" or key.startswith("fleetbalance.")
        ]
        for module_name, func_name, note in TARGETS:
            home = importlib.import_module(f"fleetbalance.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            traced = self._wrap(f"{module_name}.{func_name}", original, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, traced)

    def _uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def self_times(self) -> dict[int, float]:
        child = {rec["id"]: 0.0 for rec in self.spans}
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return {rec["id"]: rec["end"] - rec["start"] - child[rec["id"]] for rec in self.spans}

    def dump(self, path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        out = [
            dict(rec, start=rec["start"] - t0, end=rec["end"] - t0) for rec in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(out, fh)
            fh.write("\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans; 0 where a layer was not called."""
    own = tracer.self_times()
    by_id = {rec["id"]: rec for rec in tracer.spans}

    def picks(name, keep=lambda rec: True):
        return [rec for rec in tracer.spans if rec["name"] == name and keep(rec)]

    def self_median(name, scale, keep=lambda rec: True):
        return _median([own[rec["id"]] * scale for rec in picks(name, keep)])

    def parent_is(name):
        return lambda rec: rec["parent"] is not None and by_id[rec["parent"]]["name"] == name

    def status_is(status):
        return lambda rec: rec["info"].get("status") == status

    def info_median(name, key, scale=1.0):
        return _median([rec["info"][key] * scale for rec in picks(name)])

    sims = picks("fluidsim.simulate")
    serial = picks("experiments.run_station_sweep", lambda r: r["info"]["workers"] == 1)
    parallel = picks("experiments.run_station_sweep", lambda r: r["info"]["workers"] > 1)
    serial_s = _median([r["end"] - r["start"] for r in serial])
    parallel_s = _median([r["end"] - r["start"] for r in parallel])
    workers = _median([r["info"]["workers"] for r in parallel])
    trials = _median([r["info"]["trials"] for r in serial])

    return {
        "cli.self_ms": self_median("cli.main", 1e3),
        "generate.instance_ms": self_median("generate.generate_instance", 1e3),
        "storage.load_instance_ms": self_median("storage.load_instance", 1e3),
        "storage.save_assignment_ms": self_median("storage.save_assignment", 1e3),
        "network.imbalance_us": self_median("network.compute_imbalance", 1e6),
        "network.fleet_sizes_us": self_median("network.fleet_sizes", 1e6),
        "network.cut_scan_ms": self_median("network.check_feasibility_bruteforce", 1e3),
        "network.cut_subsets_scanned": info_median("network.check_feasibility_bruteforce", "subsets"),
        "rebalance.vehicle_problem_ms": self_median("rebalance.vehicle_flow_problem", 1e3),
        "rebalance.driver_problem_ms": self_median("rebalance.driver_flow_problem", 1e3),
        "rebalance.alpha_s": self_median("rebalance.solve_vehicle_rebalancing", 1.0),
        "rebalance.beta_s": self_median("rebalance.solve_driver_rebalancing", 1.0),
        "mincostflow.alpha_solve_s": self_median(
            "mincostflow.solve_mcf", 1.0, parent_is("rebalance.solve_vehicle_rebalancing")
        ),
        "mincostflow.beta_solve_s": self_median(
            "mincostflow.solve_mcf",
            1.0,
            lambda r: parent_is("rebalance.solve_driver_rebalancing")(r) and status_is("optimal")(r),
        ),
        "mincostflow.infeasible_detect_s": self_median(
            "mincostflow.solve_mcf", 1.0, status_is("infeasible")
        ),
        "fluidsim.probe_self_ms": self_median("fluidsim.stability_probe", 1e3),
        "fluidsim.equilibrium_state_ms": self_median("fluidsim.equilibrium_state", 1e3),
        "fluidsim.simulate_step_us": _median(
            [own[r["id"]] * 1e6 / r["info"]["steps"] for r in sims]
        ),
        "fluidsim.steps": info_median("fluidsim.simulate", "steps"),
        "fluidsim.delay_slots": info_median("fluidsim.equilibrium_state", "slots"),
        "fluidsim.buffer_mb": info_median("fluidsim.equilibrium_state", "buffer_bytes", 1e-6),
        "fluidsim.trace_mb": info_median("fluidsim.simulate", "trace_bytes", 1e-6),
        "experiments.trial_s": serial_s / trials if trials else 0.0,
        "experiments.serial_sweep_s": serial_s,
        "experiments.parallel_worker_s": workers * parallel_s,
        "experiments.pool_efficiency": (
            serial_s / (workers * parallel_s) if serial_s and parallel_s else 0.0
        ),
        "experiments.csv_write_ms": self_median("experiments.write_report_csv", 1e3)
        + self_median("experiments.write_summary_csv", 1e3),
    }


# name -> (unit, better), in the order BENCHMARK.json lists them
LAYERS = {
    "cli.self_ms": ("ms", "lower"),
    "generate.instance_ms": ("ms", "lower"),
    "storage.load_instance_ms": ("ms", "lower"),
    "storage.save_assignment_ms": ("ms", "lower"),
    "network.imbalance_us": ("us", "lower"),
    "network.fleet_sizes_us": ("us", "lower"),
    "network.cut_scan_ms": ("ms", "lower"),
    "network.cut_subsets_scanned": ("count", "lower"),
    "rebalance.vehicle_problem_ms": ("ms", "lower"),
    "rebalance.driver_problem_ms": ("ms", "lower"),
    "rebalance.alpha_s": ("s", "lower"),
    "rebalance.beta_s": ("s", "lower"),
    "mincostflow.alpha_solve_s": ("s", "lower"),
    "mincostflow.beta_solve_s": ("s", "lower"),
    "mincostflow.infeasible_detect_s": ("s", "lower"),
    "fluidsim.probe_self_ms": ("ms", "lower"),
    "fluidsim.equilibrium_state_ms": ("ms", "lower"),
    "fluidsim.simulate_step_us": ("us", "lower"),
    "fluidsim.steps": ("count", "lower"),
    "fluidsim.delay_slots": ("count", "lower"),
    "fluidsim.buffer_mb": ("MB", "lower"),
    "fluidsim.trace_mb": ("MB", "lower"),
    "experiments.trial_s": ("s", "lower"),
    "experiments.serial_sweep_s": ("s", "lower"),
    "experiments.parallel_worker_s": ("s", "lower"),
    "experiments.pool_efficiency": ("ratio", "higher"),
    "experiments.csv_write_ms": ("ms", "lower"),
    "ops.solve_s": ("s", "lower"),
    "ops.diagnose_s": ("s", "lower"),
    "ops.sweep_trial_s": ("s", "lower"),
    "ops.probe_s": ("s", "lower"),
    "tracing.overhead_ms": ("ms", "lower"),
    "tracing.op_untraced_s": ("s", "lower"),
    "tracing.op_traced_s": ("s", "lower"),
}
