"""Minimum-cost flow on dense graphs with real-valued supplies and capacities.

Solver: each problem is one linear program handed to HiGHS's dual
simplex through ``scipy.optimize.linprog``.  The equality constraints
are the node-arc incidence matrix (+1 at an arc's tail, -1 at its head)
against the supplies; the bounds are ``0 <= flow <= capacity``.  Before
the call, supplies are divided by their positive total and costs by
their maximum, so HiGHS's absolute tolerances act relative to the data;
flows are scaled back afterwards.  The feasibility tolerances are
tightened to ``LP_TOL`` (HiGHS's default 1e-7 left balance residuals
above 1e-7 of the total supply), and presolve is off: dual simplex
without presolve was the fastest HiGHS setting measured on these
incidence matrices, and only without presolve does an iteration limit
take effect.

Every optimal answer is certified before it is returned: the equality
duals of the LP are node potentials ``pi``, and complementary slackness
requires the reduced cost ``c_ij - pi_i + pi_j`` to be nonnegative on
every arc below capacity and nonpositive on every arc carrying flow.
The check is O(arcs) and its tolerance, ``OPTIMALITY_TOL``, is relative
to the largest arc cost.

Feasibility is decided by a max flow through the same routine: a
super-source feeds every supply node, every demand node drains into a
super-sink, the problem's arcs cost nothing and one uncapacitated bypass
arc from source to sink costs 1.  The bypass carries exactly the supply
that no flow within the capacities can deliver, and the nodes reachable
from the super-source in the residual graph form a cut that proves it
(Gale/Hoffman): together they must ship out more than their outgoing
capacity allows.

``scipy.optimize`` is imported inside the solver, not at module level:
it costs about 0.3 s and 16 MB (2-core x86 machine, Python 3.11,
SciPy 1.17), which a process pays on its first solve and not on
``import fleetbalance``.

``brute_force_mcf`` is an independent oracle for tests: it enumerates
every vertex of the flow polytope (free arcs forming a forest, every
other arc pinned at 0 or at its capacity) and takes the cheapest
feasible one.  Exponential; refuses more than 6 nodes or 12 arcs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .errors import SizeLimitError, ValidationError

INFINITE_CAPACITY = math.inf
SUPPLY_TOL = 1e-9       # supply imbalance and undeliverable supply, relative to the supply total
RESIDUAL_TOL = 1e-12    # residual capacity treated as saturated (the cut scales supplies to unit total)
LP_TOL = 1e-10          # HiGHS primal and dual feasibility tolerances on the scaled LP
OPTIMALITY_TOL = 1e-9   # reduced-cost slack of the certificate, relative to the largest cost


@dataclass(frozen=True, eq=False)
class FlowProblem:
    """A node set with real supplies and directed capacitated arcs.

    Arc ``k`` runs from ``tail[k]`` to ``head[k]`` at unit cost
    ``cost[k]`` and carries at most ``capacity[k]`` (``INFINITE_CAPACITY``
    for none).  ``supply[i] > 0`` means node ``i`` must ship that much
    net flow out; negative entries are demands.  Supplies must balance
    to zero (an unbalanced problem is invalid input, which is different
    from a balanced problem that is infeasible for lack of capacity).
    """

    node_count: int
    supply: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    cost: np.ndarray
    capacity: np.ndarray

    def __post_init__(self):
        if not isinstance(self.node_count, (int, np.integer)) or self.node_count < 1:
            raise ValidationError(f"node_count must be a positive integer, got {self.node_count!r}")
        n = int(self.node_count)
        object.__setattr__(self, "node_count", n)
        sup = np.array(self.supply, dtype=float, copy=True)
        if sup.shape != (n,):
            raise ValidationError(f"supply must have length {n}, got shape {sup.shape}")
        if not np.all(np.isfinite(sup)):
            raise ValidationError("supply contains non-finite entries")
        if abs(float(sup.sum())) > SUPPLY_TOL * float(np.abs(sup).sum()):
            raise ValidationError(f"supplies must sum to zero, got {float(sup.sum()):.3g}")

        tail = np.array(self.tail, dtype=np.int64, copy=True)
        head = np.array(self.head, dtype=np.int64, copy=True)
        cost = np.array(self.cost, dtype=float, copy=True)
        cap = np.array(self.capacity, dtype=float, copy=True)
        m = tail.shape[0] if tail.ndim == 1 else -1
        if any(a.shape != (m,) for a in (tail, head, cost, cap)):
            raise ValidationError(
                "tail, head, cost and capacity must be vectors of one length, got shapes "
                f"{tail.shape}, {head.shape}, {cost.shape}, {cap.shape}"
            )
        for bad, what in (
            ((tail < 0) | (tail >= n) | (head < 0) | (head >= n), "endpoints out of range"),
            (tail == head, "is a self-loop"),
            (~(np.isfinite(cost) & (cost >= 0)), "cost must be finite and >= 0"),
            (~(cap >= 0), "capacity must be >= 0"),
        ):
            if np.any(bad):
                k = int(np.flatnonzero(bad)[0])
                raise ValidationError(
                    f"arc {k} ({tail[k]}->{head[k]}, cost {cost[k]!r}, capacity {cap[k]!r}) {what}"
                )
        for name, arr in (("supply", sup), ("tail", tail), ("head", head), ("cost", cost), ("capacity", cap)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def arc_count(self) -> int:
        return self.tail.shape[0]


@dataclass(frozen=True, eq=False)
class FlowSolution:
    """Per-arc flows, total cost, and a status flag.

    ``flow`` and ``objective`` are meaningful only when status is
    ``"optimal"``; an infeasible problem reports zero flow.
    """

    flow: np.ndarray
    objective: float
    status: str  # "optimal" | "infeasible"


def _highs(node_count: int, tail, head, cost, capacity, supply, max_iterations: Optional[int] = None):
    """Solve the flow LP of data already scaled to unit supply and cost.

    Returns the ``linprog`` result when HiGHS proves it optimal (status
    0) or infeasible (status 2); any other outcome raises.
    """
    from scipy.optimize import linprog

    m = tail.shape[0]
    arcs = np.arange(m)
    incidence = csr_matrix(
        (np.r_[np.ones(m), -np.ones(m)], (np.r_[tail, head], np.r_[arcs, arcs])),
        shape=(node_count, m),
    )
    options = {
        "presolve": False,
        "primal_feasibility_tolerance": LP_TOL,
        "dual_feasibility_tolerance": LP_TOL,
    }
    if max_iterations is not None:
        options["maxiter"] = max_iterations
    res = linprog(
        cost,
        A_eq=incidence,
        b_eq=supply,
        bounds=np.column_stack([np.zeros(m), capacity]),
        method="highs-ds",
        options=options,
    )
    if res.status not in (0, 2):
        raise RuntimeError(
            f"HiGHS did not settle the flow LP within its iteration and tolerance limits: {res.message}"
        )
    return res


def _certify(problem: FlowProblem, cost, capacity, flow, potential) -> None:
    """Raise unless the potentials prove the (scaled) flow optimal."""
    reduced = cost - potential[problem.tail] + potential[problem.head]
    bad = ((flow < capacity) & (reduced < -OPTIMALITY_TOL)) | ((flow > 0) & (reduced > OPTIMALITY_TOL))
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise RuntimeError(
            f"min-cost flow failed its optimality certificate: arc {k} "
            f"({problem.tail[k]}->{problem.head[k]}) carries {flow[k]:.3g} of {capacity[k]:.3g} "
            f"at reduced cost {reduced[k]:.3g}"
        )


def _supply_total(problem: FlowProblem) -> float:
    """Positive supply total, or 0 when it is negligible next to the supplies' size."""
    total = float(problem.supply[problem.supply > 0].sum())
    return 0.0 if total <= SUPPLY_TOL * float(np.abs(problem.supply).sum()) else total


def solve_mcf(problem: FlowProblem, max_iterations: Optional[int] = None) -> FlowSolution:
    """Minimum-cost flow via HiGHS, certified by complementary slackness.

    ``max_iterations`` caps the simplex iterations; reaching it raises
    :class:`RuntimeError`.
    """
    m = problem.arc_count
    total = _supply_total(problem)
    if total == 0.0:
        return FlowSolution(flow=np.zeros(m), objective=0.0, status="optimal")
    if m == 0:
        return FlowSolution(flow=np.zeros(0), objective=0.0, status="infeasible")

    unit = float(problem.cost.max()) or 1.0
    cost = problem.cost / unit
    capacity = problem.capacity / total
    res = _highs(
        problem.node_count, problem.tail, problem.head, cost, capacity, problem.supply / total, max_iterations
    )
    if res.status == 2:
        return FlowSolution(flow=np.zeros(m), objective=0.0, status="infeasible")
    scaled = np.clip(res.x, 0.0, capacity)
    _certify(problem, cost, capacity, scaled, res.eqlin.marginals)
    flow = scaled * total
    return FlowSolution(flow=flow, objective=float(problem.cost @ flow), status="optimal")


def feasibility_cut(problem: FlowProblem) -> tuple[float, np.ndarray]:
    """Supply no flow within capacity can deliver, and the cut that proves it.

    Returns ``(undeliverable, inside)``.  ``inside`` masks the nodes
    reachable from the super-source in the residual graph of a maximum
    flow.  When ``undeliverable`` is positive they must ship out
    ``supply[inside].sum()``, but the arcs leaving them carry at most
    that minus ``undeliverable``.
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
    flow = _highs(n + 2, tail, head, cost, capacity, balance).x

    # residual graph of the max flow, bypass arc left out
    forward = flow[:m] < capacity[:m] - RESIDUAL_TOL
    backward = flow[:m] > RESIDUAL_TOL
    r_tail = np.r_[tail[:m][forward], head[:m][backward]]
    r_head = np.r_[head[:m][forward], tail[:m][backward]]
    residual = csr_matrix((np.ones(r_tail.size), (r_tail, r_head)), shape=(n + 2, n + 2))
    inside = np.zeros(n + 2, dtype=bool)
    inside[breadth_first_order(residual, s, return_predecessors=False)] = True
    return float(flow[m]) * total, inside[:n]


def check_flow_feasibility(problem: FlowProblem) -> bool:
    """True iff some flow respects all capacities and meets all supplies.

    Feasible iff the max flow of :func:`feasibility_cut` leaves at most
    ``SUPPLY_TOL`` of the supply total undelivered.
    """
    undeliverable, _ = feasibility_cut(problem)
    return undeliverable <= SUPPLY_TOL * _supply_total(problem)


def residual_negative_cycle(problem: FlowProblem, solution: FlowSolution, tol: float = 1e-9) -> bool:
    """True if the residual graph of ``solution`` contains a negative-cost cycle.

    An optimal flow has none; this is the optimality certificate used by
    the tests (Bellman-Ford from an all-zero potential).
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
    :func:`solve_mcf`.
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
