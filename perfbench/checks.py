"""Output checks that do not trust the program's own verdicts.

Both flow programs are re-solved here as node-arc incidence LPs with
``scipy.optimize.linprog(method="highs")``, straight from the instance
arrays.  Balance residuals, capacity excess and fleet sizes are
recomputed with numpy.  Infeasibility witnesses are re-derived as cuts.
Probe trajectories are judged from the trace arrays and the instance.

Tolerances scale with the data: flows with the total arrival rate,
costs with total arrival rate times the longest travel time.  Every
function returns a list of error strings; empty means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

FLOW_RTOL = 1e-8   # balance residuals and capacity excess, times sum(lambda)
COST_RTOL = 1e-7   # objectives and fleet sizes, times sum(lambda) * max(T)
QUEUE_CLEAR = 1e-4  # customers left at the drain deadline


class Instance:
    """The arrays of one instance, plus the quantities every check needs."""

    def __init__(self, arrival_rate, service_rate, dest_prob, travel_time, taxi_fraction):
        self.lam = np.asarray(arrival_rate, dtype=float)
        self.mu = np.asarray(service_rate, dtype=float)
        self.p = np.asarray(dest_prob, dtype=float)
        self.T = np.asarray(travel_time, dtype=float)
        self.f = np.asarray(taxi_fraction, dtype=float)
        self.n = self.lam.shape[0]
        self.trips = self.lam[:, None] * self.p
        self.surplus = self.trips.sum(axis=0) - self.lam
        self.cap = self.f * self.trips
        self.flow_tol = FLOW_RTOL * max(self.lam.sum(), np.finfo(float).tiny)
        self.cost_tol = COST_RTOL * max(self.lam.sum() * self.T.max(), np.finfo(float).tiny)

    @classmethod
    def of(cls, net) -> "Instance":
        return cls(net.arrival_rate, net.service_rate, net.dest_prob, net.travel_time, net.taxi_fraction)

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        """An instance file as ``storage.save_instance`` writes it (nested matrices)."""
        return cls(data["lambda"], data["mu"], data["p"], data["T"], data["f"])


def lp_optimum(inst: Instance, program: str):
    """Optimal cost of the vehicle ("alpha") or driver ("beta") program; None if infeasible."""
    n = inst.n
    tail, head = np.nonzero(~np.eye(n, dtype=bool))
    m = tail.size
    incidence = csr_matrix(
        (np.r_[np.ones(m), -np.ones(m)], (np.r_[tail, head], np.r_[np.arange(m), np.arange(m)])),
        shape=(n, m),
    )
    if program == "alpha":
        supply, upper = inst.surplus, np.full(m, np.inf)
    else:
        supply, upper = -inst.surplus, inst.cap[tail, head]
    res = linprog(
        inst.T[tail, head],
        A_eq=incidence,
        b_eq=supply,
        bounds=np.column_stack([np.zeros(m), upper]),
        method="highs",
    )
    if res.status == 0:
        return float(res.fun)
    if res.status == 2:
        return None
    raise RuntimeError(f"HiGHS could not settle the {program} program: {res.message}")


def close(label, got, want, tol):
    if not abs(got - want) <= tol:
        return [f"{label}: {got!r} differs from {want!r} by more than {tol:.3g}"]
    return []


def check_assignment(inst: Instance, alpha, beta, v_alpha, r_alpha_beta, obj_alpha, obj_beta,
                     lp_alpha, lp_beta) -> list[str]:
    """An optimal solve: feasible rates, consistent totals, LP-optimal objectives."""
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    errors = []
    for name, res in (
        ("alpha balance", alpha.sum(axis=1) - alpha.sum(axis=0) - inst.surplus),
        ("beta balance", beta.sum(axis=1) - beta.sum(axis=0) + inst.surplus),
        ("beta capacity excess", np.maximum(beta - inst.cap, 0.0)),
        ("negative rate", np.minimum(np.minimum(alpha, beta), 0.0)),
    ):
        worst = float(np.max(np.abs(res)))
        if not worst <= inst.flow_tol:
            errors.append(f"{name} {worst:.3g} exceeds {inst.flow_tol:.3g}")
    T = inst.T
    errors += close("v_alpha", v_alpha, float(np.sum(T * (inst.trips + alpha))), inst.cost_tol)
    errors += close("r_alpha_beta", r_alpha_beta, float(np.sum(T * (alpha + beta))), inst.cost_tol)
    errors += close("objective_alpha vs rates", obj_alpha, float(np.sum(T * alpha)), inst.cost_tol)
    errors += close("objective_beta vs rates", obj_beta, float(np.sum(T * beta)), inst.cost_tol)
    errors += close("objective_alpha vs LP", obj_alpha, lp_alpha, inst.cost_tol)
    if lp_beta is None:
        errors.append("program reported optimal but the driver LP is infeasible")
    else:
        errors += close("objective_beta vs LP", obj_beta, lp_beta, inst.cost_tol)
    return errors


def check_sweep_row(inst: Instance, row: dict, lp_alpha, lp_beta) -> list[str]:
    """A sweep CSV row against fleet sizes built from the LP optima."""
    if lp_beta is None:
        return [f"seed {row['seed']}: row written but the driver LP is infeasible"]
    v = float(np.sum(inst.T * inst.trips)) + lp_alpha
    r = lp_alpha + lp_beta
    got_v, got_r = float(row["v_alpha"]), float(row["r_alpha_beta"])
    errors = close(f"seed {row['seed']} v_alpha", got_v, v, inst.cost_tol)
    errors += close(f"seed {row['seed']} r_alpha_beta", got_r, r, inst.cost_tol)
    errors += close(f"seed {row['seed']} ratio", float(row["ratio"]), got_r / got_v, 1e-12)
    errors += close(f"seed {row['seed']} reb_fraction", float(row["reb_fraction"]),
                     lp_alpha / got_r, COST_RTOL)
    return errors


def check_witness(inst: Instance, witness, demand, capacity) -> list[str]:
    """A cut whose required driver outflow exceeds the taxi capacity leaving it."""
    inside = np.zeros(inst.n, dtype=bool)
    inside[list(witness)] = True
    need = float(-inst.surplus[inside].sum())
    out_cap = float(inst.cap[np.ix_(inside, ~inside)].sum())
    errors = []
    if not need - out_cap > inst.flow_tol:
        errors.append(
            f"witness {tuple(witness)} is no certificate: demand {need:.6g} vs capacity {out_cap:.6g}"
        )
    errors += close("witness demand", demand, need, inst.flow_tol)
    errors += close("witness capacity", capacity, out_cap, inst.flow_tol)
    return errors


def check_probe(inst: Instance, alpha, beta, trace) -> list[str]:
    """Drift, queue clearing and positivity read from the trajectory itself."""
    h = trace.h
    errors = []
    for name, totals, rate in (
        ("vehicle", trace.vehicles_total, inst.lam.sum()),
        ("driver", trace.drivers_total, np.sum(alpha) + np.sum(beta)),
    ):
        drift = float(np.max(np.abs(totals - totals[0])))
        if not drift <= 10.0 * h * rate:
            errors.append(f"{name} total drifts {drift:.3g} > 10 h rate = {10 * h * rate:.3g}")
    c0 = trace.customers[0]
    deadline = trace.times[0] + float(np.max(c0 / (inst.mu - inst.lam))) + 5.0 * h
    after = trace.times >= deadline
    if not np.any(after):
        return errors + [f"trace ends at {trace.times[-1]:.6g}, before the drain deadline {deadline:.6g}"]
    worst_queue = float(np.max(trace.customers[after]))
    if not worst_queue <= QUEUE_CLEAR:
        errors.append(f"queue {worst_queue:.3g} left after the drain deadline {deadline:.6g}")
    for name, levels in (("vehicles", trace.vehicles), ("drivers", trace.drivers)):
        low = float(np.min(levels[after]))
        if not low > 0.0:
            errors.append(f"idle {name} reach {low:.3g} after the drain")
    return errors
