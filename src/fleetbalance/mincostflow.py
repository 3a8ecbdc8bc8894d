"""Minimum-cost flow on dense graphs with real-valued supplies and capacities.

Solver: each problem is a linear program handed to HiGHS's dual
simplex through the HiGHS binding that SciPy ships,
``scipy.optimize._highspy._core``, with the options
``scipy.optimize.linprog(method="highs-ds")`` would set.  Going through
``linprog`` cost more Python time (input cleaning, sparse stacking,
option checks, per-column bound marginals) than HiGHS spent solving;
the direct call halves the cost of a solve.

The equality constraints are the node-arc incidence matrix (+1 at an
arc's tail, -1 at its head), passed column-wise, against the supplies;
the bounds are ``0 <= flow <= capacity``.  Before the call, supplies are
divided by their positive total and costs by their maximum, so HiGHS's
absolute tolerances act relative to the data; flows are scaled back
afterwards.  The feasibility tolerances are tightened to ``LP_TOL``
(HiGHS's default 1e-7 left balance residuals above 1e-7 of the total
supply), and presolve is off: dual simplex without presolve was the
fastest HiGHS setting measured on these incidence matrices.

When no arc has a capacity (the vehicle program), the LP is solved by
column generation.  The working set starts as the arcs from a supply
node to a demand node, which hold an optimum whenever costs obey the
triangle inequality; each round solves the LP on the working set,
prices every arc with the round's potentials and adds the arcs whose
reduced cost is below ``-OPTIMALITY_TOL``, until none is added.  At
n=200 the start set is about a quarter of the n(n-1) arcs, and every
generated instance stops after one round.  An empty start set, or a
restricted LP that HiGHS calls infeasible, grows to every arc, so an
"infeasible" verdict and its ray always come from the full problem.  A
problem with capacities (the driver program) is solved on every arc:
its supply-to-demand arcs alone are infeasible when capacities bind.

Every optimal answer is certified before it is returned: the equality
duals of the LP are node potentials ``pi``, and complementary slackness
requires the reduced cost ``c_ij - pi_i + pi_j`` to be nonnegative on
every arc below capacity and nonpositive on every arc carrying flow.
It runs on every arc, with zero flow on the arcs outside the working
set.  The check is O(arcs) and its tolerance, ``OPTIMALITY_TOL``, is
relative to the largest arc cost.  The certificate is what makes the
private binding safe to call: a wrong optimum from it fails the check,
and a wrong "infeasible" yields no witness, since
``rebalance.solve_driver_rebalancing`` recomputes the cut's demand and
capacity from the network.

An infeasible LP comes back with HiGHS's Farkas dual ray ``y``, a node
vector with ``y . supply > sum_k capacity_k * max(0, y_tail(k) - y_head(k))``.
Written level by level (supplies sum to zero), ``y . supply`` is the
integral over ``t`` of the supply inside the superlevel set
``S_t = {i : y_i >= t}``, and each arc's term is its capacity times the
length of the ``t`` range over which it leaves ``S_t``.  The inequality therefore holds for at least
one of the at most ``n - 1`` distinct sets ``S_t``: that set must ship
out more than the capacity of its outgoing arcs (Gale/Hoffman).
:func:`farkas_cut` finds it with one sort and a difference array over
the arcs, O(n log n + arcs).  It scans both signs of the ray, so the
result does not depend on HiGHS's sign convention.  No second LP and
no sparse graph search is needed, and nothing under ``fleetbalance``
imports ``scipy.sparse``.

The binding is imported inside the solver, not at module level.
Importing it still loads the ``scipy.optimize`` package, which costs
about 0.3-0.6 s and 16 MB (2-core x86 machine, Python 3.11, SciPy
1.17); a process pays that on its first solve and not on
``import fleetbalance``.  Each LP is logged at DEBUG to the
``fleetbalance.mincostflow`` logger with its size, HiGHS model status,
simplex iterations and wall time, so a column-generation solve logs
one record per round.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

INFINITE_CAPACITY = math.inf
SUPPLY_TOL = 1e-9       # supply imbalance and negligible supply, relative to the supplies' size
LP_TOL = 1e-10          # HiGHS primal and dual feasibility tolerances on the scaled LP
OPTIMALITY_TOL = 1e-9   # reduced-cost slack of the certificate, relative to the largest cost
# what linprog(method="highs-ds") sets: dual simplex, no presolve, quiet
_HIGHS_OPTIONS = (
    ("presolve", "off"),
    ("solver", "simplex"),
    ("simplex_strategy", 1),
    ("primal_feasibility_tolerance", LP_TOL),
    ("dual_feasibility_tolerance", LP_TOL),
    ("output_flag", False),
)

_log = logging.getLogger(__name__)


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
    ``"optimal"``; an infeasible problem reports zero flow.  ``ray`` is
    set only when the status is ``"infeasible"`` and HiGHS supplied a
    Farkas dual ray (one entry per node); :func:`farkas_cut` turns it
    into a violated cut.
    """

    flow: np.ndarray
    objective: float
    status: str  # "optimal" | "infeasible"
    ray: Optional[np.ndarray] = None


def _highs(node_count: int, tail, head, cost, capacity, supply):
    """Solve the flow LP of data already scaled to unit supply and cost.

    Returns ``(status, x, y)``: ``"optimal"`` with the arc flows and
    the node potentials, or ``"infeasible"`` with ``None`` and the Farkas
    dual ray (``None`` if HiGHS has none).  Any other HiGHS outcome
    raises.
    """
    from scipy.optimize._highspy import _core

    started = time.perf_counter()
    m = tail.shape[0]
    highs = _core._Highs()
    for option, value in _HIGHS_OPTIONS:
        if highs.setOptionValue(option, value) != _core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected option {option}={value!r}")
    # incidence column k: +1 at row tail[k], -1 at row head[k]
    index = np.empty(2 * m, dtype=np.int32)
    index[0::2], index[1::2] = tail, head
    highs.passModel(
        m, node_count, 2 * m,  # columns, rows, nonzeros
        _core.MatrixFormat.kColwise, _core.ObjSense.kMinimize,
        0.0,  # objective offset
        cost, np.zeros(m), capacity,  # column costs and bounds
        supply, supply,  # row bounds
        np.arange(0, 2 * m, 2, dtype=np.int32), index, np.tile([1.0, -1.0], m),
        np.zeros(m, dtype=np.int32),  # every column continuous
    )
    highs.run()
    status = highs.getModelStatus()
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "flow LP: %d rows, %d columns, %s, %d simplex iterations, %.3f ms",
            node_count, m, highs.modelStatusToString(status),
            highs.getInfo().simplex_iteration_count, 1e3 * (time.perf_counter() - started),
        )
    if status == _core.HighsModelStatus.kInfeasible:
        _, has_ray, ray = highs.getDualRay()
        return "infeasible", None, np.array(ray) if has_ray else None
    if status != _core.HighsModelStatus.kOptimal:
        raise RuntimeError(
            "HiGHS did not settle the flow LP within its iteration and tolerance limits: "
            f"{highs.modelStatusToString(status)}"
        )
    solution = highs.getSolution()
    return "optimal", np.array(solution.col_value), np.array(solution.row_dual)


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


def solve_mcf(problem: FlowProblem) -> FlowSolution:
    """Minimum-cost flow via HiGHS, certified by complementary slackness.

    Uncapacitated problems go by column generation from the
    supply-to-demand arcs (see the module docstring).  A HiGHS outcome
    other than optimal or infeasible raises :class:`RuntimeError`.
    """
    m = problem.arc_count
    total = _supply_total(problem)
    if total == 0.0:
        return FlowSolution(flow=np.zeros(m), objective=0.0, status="optimal")

    unit = float(problem.cost.max(initial=0.0)) or 1.0
    cost = problem.cost / unit
    capacity = problem.capacity / total
    supply = problem.supply / total
    tail, head = problem.tail, problem.head
    if np.all(np.isinf(capacity)):
        working = (supply[tail] > 0) & (supply[head] < 0)
    else:
        working = np.ones(m, dtype=bool)
    while True:
        columns = np.flatnonzero(working)
        status, x, y = _highs(
            problem.node_count, tail[columns], head[columns], cost[columns], capacity[columns], supply
        ) if columns.size else ("infeasible", None, None)
        if status == "infeasible" and columns.size < m:
            working[:] = True  # only the full problem decides infeasibility and gives its ray
            continue
        if status == "infeasible":
            return FlowSolution(flow=np.zeros(m), objective=0.0, status="infeasible", ray=y)
        entering = ~working & (cost - y[tail] + y[head] < -OPTIMALITY_TOL)
        if not entering.any():
            break
        working |= entering
    scaled = np.zeros(m)
    scaled[columns] = np.clip(x, 0.0, capacity[columns])
    _certify(problem, cost, capacity, scaled, y)
    flow = scaled * total
    return FlowSolution(flow=flow, objective=float(problem.cost @ flow), status="optimal")


def _best_level_set(problem: FlowProblem, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest ``supply(S) - capacity(S -> rest)`` over the sets ``{i : y_i >= t}``.

    Returns ``(violation, members)``, the smallest such set on a tie;
    ``(-inf, empty)`` when ``y`` is constant.
    """
    n = problem.node_count
    order = np.argsort(-y, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    level = y[order]
    sizes = np.flatnonzero(level[:-1] != level[1:]) + 1  # cut only between distinct values
    if sizes.size == 0:
        return -math.inf, order[:0]
    # an arc leaves the top-k set for rank[tail] < k <= rank[head]
    lo, hi = rank[problem.tail] + 1, rank[problem.head] + 1
    leaving = lo < hi
    # no set that an arc of capacity >= sum |supply| leaves can be violated,
    # so clipping there keeps every violated set and makes the sums finite
    cap = np.minimum(problem.capacity[leaving], np.abs(problem.supply).sum())
    lo, hi = lo[leaving], hi[leaving]
    out_cap = np.cumsum(np.bincount(lo, cap, n + 1) - np.bincount(hi, cap, n + 1))[sizes]
    violation = np.cumsum(problem.supply[order])[sizes - 1] - out_cap
    k = int(np.argmax(violation))  # first maximum: the smallest of the nested sets
    return float(violation[k]), order[: sizes[k]]


def farkas_cut(problem: FlowProblem, ray: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Mask of a node set that must ship out more than its outgoing capacity.

    Scans the superlevel sets of ``ray`` and of ``-ray`` and returns the
    one with the largest violation ``supply(S) - capacity(S -> rest)``;
    ties go to the smaller set, then to the lowest node indices.
    Returns ``None`` when ``ray`` is ``None`` or no such set is
    violated.
    """
    if ray is None:
        return None
    ray = np.asarray(ray, dtype=float)
    candidates = []
    for y in (ray, -ray):
        violation, members = _best_level_set(problem, y)
        candidates.append((-violation, members.size, sorted(members.tolist())))
    neg_violation, _, members = min(candidates)
    if not -neg_violation > 0:
        return None
    inside = np.zeros(problem.node_count, dtype=bool)
    inside[members] = True
    return inside
