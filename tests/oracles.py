"""Independent oracles that cross-check the solver in the tests.

None of these is used by the library.  Most enumerate an exponential
set (flow-polytope vertices, station subsets) and refuse inputs past a
small size with :class:`SizeLimitError`.

* :func:`brute_force_mcf` takes the cheapest vertex of the flow
  polytope: free arcs forming a forest, every other arc pinned at 0 or
  at its capacity.  At most 6 nodes and 12 arcs.
* :func:`residual_negative_cycle` is Bellman-Ford on the residual graph
  of a flow: an optimal flow leaves no negative-cost cycle.
* :func:`check_feasibility_bruteforce` scans every station subset for a
  driver-return cut whose demand exceeds its outgoing taxi capacity.
  At most 20 stations.
* :func:`max_flow_cut` decides feasibility by a max flow (one LP) and
  reads the minimal minimum cut off its residual graph.  Polynomial, but
  a second LP the library no longer solves: it is the reference for the
  cut the library reads off the Farkas ray.
* :func:`flow_debug_dict` dumps a problem and its solution for assertion
  messages.
* :func:`probe_verdicts` reads a stability probe's verdict fields off its
  trace by the direct reductions: row maxima, boolean-mask minima and
  drift over both totals columns at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from fleetbalance.mincostflow import (
    INFINITE_CAPACITY,
    SUPPLY_TOL,
    FlowProblem,
    FlowSolution,
    _highs,
    _supply_total,
)
from fleetbalance.network import StationNetwork, compute_imbalance

RESIDUAL_TOL = 1e-12  # residual capacity treated as saturated (the cut scales supplies to unit total)


class SizeLimitError(ValueError):
    """Problem is too large for an exponential-time routine."""


def residual_negative_cycle(problem: FlowProblem, solution: FlowSolution, tol: float = 1e-9) -> bool:
    """True if the residual graph of ``solution`` contains a negative-cost cycle.

    An optimal flow has none (Bellman-Ford from an all-zero potential).
    """
    n = problem.node_count
    entries = []  # (tail, head, cost)
    for k in range(problem.arc_count):
        tail, head, cost = int(problem.tail[k]), int(problem.head[k]), float(problem.cost[k])
        flow = float(solution.flow[k])
        if problem.capacity[k] - flow > RESIDUAL_TOL:
            entries.append((tail, head, cost))
        if flow > RESIDUAL_TOL:
            entries.append((head, tail, -cost))
    dist = np.zeros(n)
    for _ in range(n + 1):
        changed = False
        for tail, head, cost in entries:
            if dist[tail] + cost < dist[head] - tol:
                dist[head] = dist[tail] + cost
                changed = True
        if not changed:
            return False
    # still relaxing after n+1 full passes: some cycle keeps improving
    return True


def _forest_subsets(pairs: list[tuple[int, int]], node_count: int) -> Iterable[tuple[int, ...]]:
    """All arc-index subsets whose undirected support is acyclic.

    Parallel and antiparallel arcs between the same node pair count as a
    cycle (their incidence columns are linearly dependent).
    """
    m = len(pairs)
    max_size = min(m, node_count - 1)
    for size in range(max_size + 1):
        for subset in itertools.combinations(range(m), size):
            root = list(range(node_count))

            def find(x):
                while root[x] != x:
                    root[x] = root[root[x]]
                    x = root[x]
                return x

            ok = True
            for k in subset:
                a, b = (find(pairs[k][0]), find(pairs[k][1]))
                if a == b:
                    ok = False
                    break
                root[a] = b
            if ok:
                yield subset


def brute_force_mcf(problem: FlowProblem) -> FlowSolution:
    """Exhaustive oracle: cheapest vertex of the flow polytope.

    Every vertex has its free arcs forming a forest and every other arc
    pinned at 0 or at a finite capacity, so enumerating (forest, pinned
    bounds) pairs covers all vertices.  With nonnegative costs the
    optimum (when feasible) is attained at a vertex.  Independent of
    :func:`~fleetbalance.mincostflow.solve_mcf`.
    """
    n = problem.node_count
    m = problem.arc_count
    if n > 6:
        raise SizeLimitError(f"brute force limited to 6 nodes, got {n}")
    if m > 12:
        raise SizeLimitError(f"brute force limited to 12 arcs, got {m}")

    supply = problem.supply
    caps = problem.capacity
    costs = problem.cost
    incidence = np.zeros((n, m))
    for k in range(m):
        incidence[problem.tail[k], k] += 1.0
        incidence[problem.head[k], k] -= 1.0
    pairs = list(zip(problem.tail.tolist(), problem.head.tolist()))

    best_obj = np.inf
    best_flow = None
    consistency_tol = 1e-6
    bound_tol = 1e-9

    for forest in _forest_subsets(pairs, n):
        free = np.array(forest, dtype=int)
        pinned = np.setdiff1d(np.arange(m), free)
        finite = pinned[np.isfinite(caps[pinned]) & (caps[pinned] > bound_tol)]
        # arcs pinned at an infinite or zero capacity can only sit at 0
        k_fin = finite.shape[0]
        combos = (np.arange(1 << k_fin)[:, None] >> np.arange(k_fin)) & 1
        pinned_flow = combos * caps[finite]  # (2**k, k_fin)
        adjusted = supply[None, :] - pinned_flow @ incidence[:, finite].T

        if free.size:
            basis = incidence[:, free]
            free_flow = adjusted @ np.linalg.pinv(basis).T
            resid = adjusted - free_flow @ basis.T
            in_bounds = np.all(free_flow >= -bound_tol, axis=1) & np.all(
                free_flow <= caps[free] + bound_tol, axis=1
            )
        else:
            free_flow = np.zeros((adjusted.shape[0], 0))
            resid = adjusted
            in_bounds = np.ones(adjusted.shape[0], dtype=bool)
        feasible = in_bounds & (np.max(np.abs(resid), axis=1) <= consistency_tol)
        if not np.any(feasible):
            continue
        obj = free_flow @ costs[free] + pinned_flow @ costs[finite]
        obj = np.where(feasible, obj, np.inf)
        k = int(np.argmin(obj))
        if obj[k] < best_obj:
            best_obj = float(obj[k])
            flow = np.zeros(m)
            flow[finite] = pinned_flow[k]
            flow[free] = np.clip(free_flow[k], 0.0, caps[free])
            best_flow = flow

    if best_flow is None:
        return FlowSolution(flow=np.zeros(m), objective=0.0, status="infeasible")
    return FlowSolution(flow=best_flow, objective=best_obj, status="optimal")


def flow_debug_dict(problem: FlowProblem, solution: Optional[FlowSolution] = None) -> dict:
    """JSON-ready dump of a problem (and optionally its solution) for debugging.

    Unbounded capacities serialize as ``None``.
    """
    arcs = []
    for k in range(problem.arc_count):
        cap = float(problem.capacity[k])
        entry = {
            "from": int(problem.tail[k]),
            "to": int(problem.head[k]),
            "cost": float(problem.cost[k]),
            "capacity": None if math.isinf(cap) else cap,
        }
        if solution is not None:
            entry["flow"] = float(solution.flow[k])
        arcs.append(entry)
    out = {"node_count": problem.node_count, "supply": problem.supply.tolist(), "arcs": arcs}
    if solution is not None:
        out["objective"] = solution.objective
        out["status"] = solution.status
    return out


@dataclass(frozen=True)
class CutCheck:
    """Result of the exhaustive driver-return feasibility check.

    When infeasible, ``witness`` is the first station subset (by
    ascending bitmask, bit ``i`` = station ``i``) whose required driver
    outflow ``demand`` exceeds the taxi ``capacity`` leaving the subset.
    """

    feasible: bool
    witness: Optional[tuple[int, ...]]
    demand: float
    capacity: float


def check_feasibility_bruteforce(net: StationNetwork, tol: float = 1e-9) -> CutCheck:
    """Enumerate every station subset to decide driver-return feasibility.

    A feasible driver-return assignment exists iff, for every subset S,
    the driver flow S must emit (the total vehicle deficit inside S) does
    not exceed the taxi capacity on legs leaving S; ``tol`` is the
    absolute shortfall tolerated.  Exponential in n; refuses n > 20.
    """
    n = net.n
    if n > 20:
        raise SizeLimitError(f"exhaustive subset check limited to n <= 20, got n={n}")
    d = compute_imbalance(net)
    cap = net.taxi_capacity()

    total = 1 << n
    chunk = 1 << 16
    bits = np.arange(n, dtype=np.int64)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        member = ((masks[:, None] >> bits) & 1).astype(float)  # (chunk, n)
        demand = -(member @ d)
        # capacity leaving S: sum over i in S, j not in S
        outcap = ((member @ cap) * (1.0 - member)).sum(axis=1)
        viol = demand - outcap > tol
        if np.any(viol):
            k = int(np.flatnonzero(viol)[0])
            mask = int(masks[k])
            witness = tuple(i for i in range(n) if (mask >> i) & 1)
            return CutCheck(
                feasible=False,
                witness=witness,
                demand=float(demand[k]),
                capacity=float(outcap[k]),
            )
    return CutCheck(feasible=True, witness=None, demand=0.0, capacity=0.0)


def max_flow_cut(problem: FlowProblem) -> tuple[float, np.ndarray]:
    """Supply no flow within capacity can deliver, and the cut that proves it.

    A super-source feeds every supply node, every demand node drains into
    a super-sink, the problem's arcs cost nothing and one uncapacitated
    bypass arc from source to sink costs 1, so the bypass carries exactly
    the supply no flow within the capacities can deliver: the largest
    ``supply(S) - capacity(S -> rest)`` over all node sets.  Returns
    ``(undeliverable, inside)``; ``inside`` masks the nodes reachable
    from the super-source in the residual graph of the max flow, the
    source side of the minimal minimum cut.  The problem is feasible iff
    ``undeliverable <= SUPPLY_TOL`` times the supply total.
    """
    n = problem.node_count
    total = _supply_total(problem)
    if total == 0.0:
        return 0.0, np.zeros(n, dtype=bool)
    sup = problem.supply / total
    src, dst = np.flatnonzero(sup > 0), np.flatnonzero(sup < 0)
    s, t = n, n + 1
    m = problem.arc_count + src.size + dst.size  # the bypass arc is index m
    tail = np.r_[problem.tail, np.full(src.size, s), dst, s]
    head = np.r_[problem.head, src, np.full(dst.size, t), t]
    capacity = np.r_[problem.capacity / total, sup[src], -sup[dst], INFINITE_CAPACITY]
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    balance = np.zeros(n + 2)
    balance[s], balance[t] = 1.0, -1.0
    _, flow, _ = _highs(n + 2, tail, head, cost, capacity, balance)

    # residual graph of the max flow, bypass arc left out
    forward = flow[:m] < capacity[:m] - RESIDUAL_TOL
    backward = flow[:m] > RESIDUAL_TOL
    r_tail = np.r_[tail[:m][forward], head[:m][backward]]
    r_head = np.r_[head[:m][forward], tail[:m][backward]]
    residual = csr_matrix((np.ones(r_tail.size), (r_tail, r_head)), shape=(n + 2, n + 2))
    inside = np.zeros(n + 2, dtype=bool)
    inside[breadth_first_order(residual, s, return_predecessors=False)] = True
    return float(flow[m]) * total, inside[:n]


def max_flow_feasible(problem: FlowProblem) -> bool:
    """True iff :func:`max_flow_cut` leaves at most ``SUPPLY_TOL`` of the supply undelivered."""
    undeliverable, _ = max_flow_cut(problem)
    return undeliverable <= SUPPLY_TOL * _supply_total(problem)


def probe_verdicts(net: StationNetwork, assignment, slack_vehicles: float, slack_drivers: float, trace) -> dict:
    """The verdict fields of ``stability_probe``'s report for a run that left ``trace``.

    The reference the library's one-pass reductions must equal: each row's
    largest queue against the clearing threshold, minima over the rows that
    boolean masks pick at or after the drain time, and both drifts in one
    reduction over the two totals columns.
    """
    n = net.n
    idle_v = slack_vehicles * assignment.min_vehicles
    idle_r = slack_drivers * assignment.min_drivers
    below = np.max(trace.customers, axis=1) <= 4e-4 * idle_v / n
    drained = np.flatnonzero(below)
    if drained.size:
        drain_time = float(trace.times[drained[0]])
        customers_cleared = bool(np.all(below[drained[0]:]))
    else:
        drain_time, customers_cleared = None, False
    post = trace.times >= (drain_time if drain_time is not None else trace.times[-1])
    min_v = float(np.min(trace.vehicles[post]))
    need_pos = trace.drivers[post][:, compute_imbalance(net) != 0]
    min_r = float(np.min(need_pos)) if need_pos.size else float("inf")
    vehicle_drift, driver_drift = np.max(np.abs(trace.totals - trace.totals[0]), axis=0).tolist()
    v_bound = 10.0 * trace.h * float(net.arrival_rate.sum())
    r_bound = 10.0 * trace.h * float(assignment.vehicle_rates.sum() + assignment.driver_rates.sum())
    conserved = vehicle_drift <= v_bound and driver_drift <= r_bound
    vehicles_ok = min_v >= 4e-6 * idle_v / n
    drivers_ok = min_r >= 4e-6 * idle_r / n
    return {
        "passed": customers_cleared and vehicles_ok and drivers_ok and conserved,
        "customers_cleared": customers_cleared,
        "vehicles_positive": vehicles_ok,
        "drivers_positive": drivers_ok,
        "conserved": conserved,
        "drain_time": drain_time,
        "min_idle_vehicles": min_v,
        "min_idle_drivers": min_r,
        "vehicle_drift": vehicle_drift,
        "driver_drift": driver_drift,
    }
