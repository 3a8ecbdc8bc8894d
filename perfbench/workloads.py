"""The benchmark's workloads: inputs from the seed, timed operations, checks.

A workload is a ``Mix`` of parts.  Each part follows one protocol,
driven by ``run.py``:

* ``plan()`` (untimed) picks the generator seeds of the inputs;
* ``setup()`` (timed, repeated) builds the inputs through the program;
* ``ops()`` lists the operations of one round as zero-argument calls,
  each timed on its own; ``ops_per_round`` is how many operations a
  round attempts (a sweep call attempts one per trial);
* ``collect(outcomes)`` (untimed) turns a round's return values into a
  record, ``failures(record)`` counts its failed operations and
  ``check(records)`` (untimed) returns error strings for wrong outputs.

Every round runs the same operations on the same inputs, so the share
of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
from dataclasses import replace

import numpy as np

from fleetbalance import cli, experiments, fluidsim, generate, rebalance, storage

import checks


def sub_seed(seed: int, stream: int, k: int) -> int:
    """Generator seed of input ``k`` of stream ``stream`` for workload seed ``seed``."""
    return (seed * 1_000_003 + stream * 10_007 + k) % 2**63


class Solve:
    """``fleetbalance solve`` on stored, feasible generated instances."""

    LABEL = "solve_s"

    N = 50
    INSTANCES = 8

    def __init__(self, seed, workdir):
        self.seeds = [sub_seed(seed, 1, k) for k in range(self.INSTANCES)]
        self.paths = [
            (os.path.join(workdir, f"instance{k}.json"), os.path.join(workdir, f"assignment{k}.json"))
            for k in range(self.INSTANCES)
        ]
        self.ops_per_round = self.INSTANCES

    def plan(self):
        pass

    def setup(self):
        for s, (src, _) in zip(self.seeds, self.paths):
            storage.save_instance(generate.generate_instance(self.N, s), src)

    @staticmethod
    def _solve(src, dst):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["solve", "--instance", src, "--out", dst])

    def ops(self):
        return [functools.partial(self._solve, src, dst) for src, dst in self.paths]

    def collect(self, codes):
        return codes

    def failures(self, codes):
        return sum(code != 0 for code in codes)

    def check(self, records):
        # every round rewrites the same files; the last round's are checked
        errors = []
        for src, dst in self.paths:
            with open(src) as fh:
                inst = checks.Instance.from_json(json.load(fh))
            with open(dst) as fh:
                out = json.load(fh)
            errors += [
                f"{os.path.basename(dst)}: {e}"
                for e in checks.check_assignment(
                    inst, out["alpha"], out["beta"], out["v_alpha"], out["r_alpha_beta"],
                    out["objective_alpha"], out["objective_beta"],
                    checks.lp_optimum(inst, "alpha"), checks.lp_optimum(inst, "beta"),
                )
            ]
        return errors


class Sweep:
    """``run_station_sweep`` at mid sizes on every core, plus both CSV writers."""

    LABEL = "sweep_trial_s"

    SIZES = (10, 25, 50)
    TRIALS = 8

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.workers = len(os.sched_getaffinity(0))
        self.ops_per_round = len(self.SIZES) * self.TRIALS
        self.csvs = (os.path.join(workdir, "sweep_rows.csv"), os.path.join(workdir, "sweep_summary.csv"))

    def plan(self):
        pass

    def setup(self):
        self.config = experiments.SweepConfig(
            sizes=self.SIZES,
            trials_per_size=self.TRIALS,
            base_seed=self.seed % 100_000,
            workers=self.workers,
        )

    @staticmethod
    def _sweep(config, rows_csv, summary_csv):
        report = experiments.run_station_sweep(config)
        experiments.write_report_csv(report, rows_csv)
        experiments.write_summary_csv(report, summary_csv)

    def ops(self):
        return [functools.partial(self._sweep, self.config, *self.csvs)]

    def collect(self, _):
        return _digest(*self.csvs)

    def failures(self, digest):
        return 0

    def check(self, records):
        serial_csvs = (
            os.path.join(self.workdir, "serial_rows.csv"),
            os.path.join(self.workdir, "serial_summary.csv"),
        )
        self._sweep(replace(self.config, workers=1), *serial_csvs)
        serial = _digest(*serial_csvs)
        errors = [
            f"round {k}: CSVs of the {self.workers}-worker sweep differ from the serial run"
            for k, digest in enumerate(records)
            if digest != serial
        ]
        with open(self.csvs[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        want = [(n, t) for n in self.SIZES for t in range(self.TRIALS)]
        got = [(int(r["n"]), int(r["trial"])) for r in rows]
        if got != want:
            return errors + [f"sweep rows are {got}, expected {want}"]
        for row in rows:
            n, trial, seed = int(row["n"]), int(row["trial"]), int(row["seed"])
            if seed != self.config.base_seed * 10000 + n * 100 + trial:
                errors.append(f"row n={n} trial={trial} has seed {seed}")
                continue
            inst = checks.Instance.of(generate.generate_instance(n, seed))
            errors += checks.check_sweep_row(
                inst, row, checks.lp_optimum(inst, "alpha"), checks.lp_optimum(inst, "beta")
            )
        return errors


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Infeasible:
    """``solve_rebalancing`` on driver programs that taxi_fraction 0.5 makes infeasible.

    Sizes 14 and 18 get a witness from the exhaustive subset scan; sizes
    24 and 40 are above its n <= 20 limit, report no witness, and count
    as failed operations.
    """

    LABEL = "diagnose_s"

    SIZES = (14, 18, 24, 40)
    PER_SIZE = 6
    CONFIG = generate.GeneratorConfig(taxi_fraction=0.5)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.ops_per_round = len(self.SIZES) * self.PER_SIZE

    def plan(self):
        # keep the first candidates whose driver LP is infeasible, judged
        # by HiGHS and not by the program under test
        self.picks = []
        for stream, n in enumerate(self.SIZES):
            k = 0
            chosen = 0
            while chosen < self.PER_SIZE:
                s = sub_seed(self.seed, 10 + stream, k)
                k += 1
                inst = checks.Instance.of(generate.generate_instance(n, s, self.CONFIG))
                if checks.lp_optimum(inst, "beta") is None:
                    self.picks.append((n, s, inst, checks.lp_optimum(inst, "alpha")))
                    chosen += 1

    def setup(self):
        self.nets = [generate.generate_instance(n, s, self.CONFIG) for n, s, _, _ in self.picks]

    def ops(self):
        return [functools.partial(rebalance.solve_rebalancing, net) for net in self.nets]

    def collect(self, solutions):
        out = []
        for sol in solutions:
            err = sol.infeasibility
            out.append(
                (sol.status, sol.vehicle_objective)
                + ((err.witness, err.demand, err.capacity) if err is not None else (None, None, None))
            )
        return out

    def failures(self, outcomes):
        return sum(status == "optimal" or witness is None for status, _, witness, _, _ in outcomes)

    def check(self, records):
        errors = []
        for outcomes in records:
            for (n, s, inst, lp_alpha), (status, obj_alpha, witness, demand, capacity) in zip(
                self.picks, outcomes
            ):
                found = checks.close("vehicle objective vs LP", obj_alpha, lp_alpha, inst.cost_tol)
                if status != "optimal" and witness is not None:
                    found += checks.check_witness(inst, witness, demand, capacity)
                errors += [f"n={n} seed={s}: {e}" for e in found]
        return errors


class Probe:
    """``stability_probe`` at h = min T / 10 on solved instances with a wide T ratio.

    A probe costs about (steps) x (delay-line slots): the step count is
    near 20 x RATIO and every step sums both slot buffers.  Instances are
    drawn until the ratio and that product both sit near their targets,
    so each seed gets probes of the same size.
    """

    LABEL = "probe_s"

    N = 14
    INSTANCES = 3
    RATIO = 120.0          # longest / shortest travel time
    SLOTS = 106_000        # sum over legs of round(T / h), h = min T / 10
    RATIO_BAND = 0.05      # accepted relative distance from RATIO
    COST_BAND = 0.03       # accepted relative distance of ratio x slots from RATIO x SLOTS
    MIN_LAMBDA = 0.05      # smallest arrival rate, as a share of lambda_max
    SLACK = 0.2            # fleets are (1 + SLACK) times the in-transit minimum
    PERTURBATION = 0.1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.ops_per_round = self.INSTANCES

    def plan(self):
        # the drain deadline grows as 1 / min(lambda), so a floor on the
        # smallest rate keeps the horizon near 2 max T
        lam_floor = self.MIN_LAMBDA * generate.GeneratorConfig().lambda_max
        off = ~np.eye(self.N, dtype=bool)
        self.seeds = []
        k = 0
        while len(self.seeds) < self.INSTANCES:
            s = sub_seed(self.seed, 2, k)
            k += 1
            net = generate.generate_instance(self.N, s)
            legs = net.travel_time[off]
            ratio = legs.max() / legs.min()
            slots = np.rint(10.0 * legs / legs.min()).sum()
            if (
                abs(ratio / self.RATIO - 1.0) <= self.RATIO_BAND
                and abs(ratio * slots / (self.RATIO * self.SLOTS) - 1.0) <= self.COST_BAND
                and net.arrival_rate.min() >= lam_floor
            ):
                self.seeds.append(s)

    def setup(self):
        self.cases = []
        for s in self.seeds:
            net = generate.generate_instance(self.N, s)
            self.cases.append((net, rebalance.solve_rebalancing(net), net.min_offdiag_travel_time() / 10.0, s))

    def ops(self):
        return [
            functools.partial(
                fluidsim.stability_probe, net, sol, self.SLACK, self.SLACK, self.PERTURBATION, h, seed=s
            )
            for net, sol, h, s in self.cases
        ]

    def collect(self, reports):
        # checked here so that the traces need not be kept
        errors = []
        for (net, sol, _, s), report in zip(self.cases, reports):
            a = sol.assignment
            errors += [
                f"probe seed {s}: {e}"
                for e in checks.check_probe(checks.Instance.of(net), a.vehicle_rates, a.driver_rates, report.trace)
            ]
        return errors

    def failures(self, errors):
        return 0

    def check(self, records):
        return [e for errors in records for e in errors]


class Mix:
    """Parts run one after another in every round, as one workload."""

    def __init__(self, *parts):
        self.parts = parts
        self.ops_per_round = sum(p.ops_per_round for p in parts)
        self.workers = max(getattr(p, "workers", 0) for p in parts)

    def plan(self):
        for p in self.parts:
            p.plan()

    def setup(self):
        for p in self.parts:
            p.setup()

    def ops(self):
        self._counts = []
        ops = []
        for p in self.parts:
            part_ops = p.ops()
            self._counts.append(len(part_ops))
            ops += part_ops
        return ops

    def split(self, per_op: list) -> list[list]:
        """Cut a round's per-operation list into one list per part."""
        out, start = [], 0
        for count in self._counts:
            out.append(per_op[start:start + count])
            start += count
        return out

    def collect(self, outcomes):
        return [p.collect(chunk) for p, chunk in zip(self.parts, self.split(outcomes))]

    def failures(self, record):
        return sum(p.failures(r) for p, r in zip(self.parts, record))

    def check(self, records):
        return [e for k, p in enumerate(self.parts) for e in p.check([r[k] for r in records])]


# The solver paths share one workload and the simulator has its own:
# each 50-s run then repeats every operation often enough for its
# fastest repeat to be steady on a machine whose speed drifts.
WORKLOADS = {
    "solve": lambda seed, workdir: Mix(Solve(seed, workdir), Infeasible(seed, workdir), Sweep(seed, workdir)),
    "probe": lambda seed, workdir: Mix(Probe(seed, workdir)),
}
