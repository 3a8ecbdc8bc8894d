import logging
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from fleetbalance import mincostflow
from fleetbalance.errors import ValidationError
from fleetbalance.mincostflow import (
    INFINITE_CAPACITY,
    LP_TOL,
    FlowProblem,
    FlowSolution,
    farkas_cut,
    solve_mcf,
)
from fleetbalance.mincostflow import _certify, _highs
from fleetbalance.network import compute_imbalance
from fleetbalance.rebalance import driver_flow_problem, vehicle_flow_problem

from oracles import (
    SizeLimitError,
    brute_force_mcf,
    flow_debug_dict,
    max_flow_cut,
    max_flow_feasible,
    residual_negative_cycle,
)


def arcs(*rows):
    """FlowProblem arc keywords from (tail, head, cost, capacity) rows."""
    cols = np.array(rows, dtype=float).reshape(-1, 4).T
    return dict(tail=cols[0].astype(int), head=cols[1].astype(int), cost=cols[2], capacity=cols[3])


def random_problem(rng: np.random.Generator) -> FlowProblem:
    """Small random instance; roughly half the draws are infeasible."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 13))
    rows = []
    for _ in range(m):
        tail = int(rng.integers(n))
        head = int(rng.integers(n - 1))
        if head >= tail:
            head += 1
        cap = INFINITE_CAPACITY if rng.random() < 0.25 else float(rng.uniform(0, 2))
        rows.append((tail, head, float(rng.uniform(0, 5)), cap))
    supply = rng.uniform(-1, 1, n)
    supply[-1] -= supply.sum()
    if rng.random() < 0.2:
        supply[:] = 0.0
    return FlowProblem(node_count=n, supply=supply, **arcs(*rows))


def assert_valid_flow(problem: FlowProblem, solution: FlowSolution, tol=1e-7):
    flows = solution.flow
    assert np.all(flows >= -tol)
    for k in range(problem.arc_count):
        assert flows[k] <= problem.capacity[k] + tol
    net_out = np.zeros(problem.node_count)
    for k in range(problem.arc_count):
        net_out[problem.tail[k]] += flows[k]
        net_out[problem.head[k]] -= flows[k]
    assert np.max(np.abs(net_out - problem.supply)) <= tol
    costs = problem.cost
    assert solution.objective == pytest.approx(float(flows @ costs), abs=1e-9)


def assert_violated_cut(problem: FlowProblem, inside):
    """``inside`` must ship out more than its outgoing capacity, by at most the max-flow shortfall."""
    assert inside is not None, flow_debug_dict(problem)
    leaving = inside[problem.tail] & ~inside[problem.head]
    violation = float(problem.supply[inside].sum() - problem.capacity[leaving].sum())
    undeliverable, _ = max_flow_cut(problem)
    scale = float(np.abs(problem.supply).sum())
    assert 0 < violation <= undeliverable + 1e-9 * scale, flow_debug_dict(problem)


def test_single_arc():
    problem = FlowProblem(
        node_count=2, supply=[1.0, -1.0], **arcs((0, 1, 2.0, INFINITE_CAPACITY))
    )
    sol = solve_mcf(problem)
    assert sol.status == "optimal"
    assert sol.flow == pytest.approx([1.0])
    assert sol.objective == pytest.approx(2.0)


def test_capacity_forces_split():
    # direct arc costs 5; the two-hop route costs 2 but its first leg caps at 0.6
    problem = FlowProblem(
        node_count=3,
        supply=[1.0, 0.0, -1.0],
        **arcs(
            (0, 2, 5.0, INFINITE_CAPACITY),
            (0, 1, 1.0, 0.6),
            (1, 2, 1.0, INFINITE_CAPACITY),
        ),
    )
    sol = solve_mcf(problem)
    assert sol.status == "optimal"
    assert sol.flow == pytest.approx([0.4, 0.6, 0.6])
    assert sol.objective == pytest.approx(0.4 * 5 + 0.6 * 2)


def test_zero_supply_is_trivially_optimal():
    problem = FlowProblem(
        node_count=3,
        supply=np.zeros(3),
        **arcs((0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)),
    )
    sol = solve_mcf(problem)
    assert sol.status == "optimal"
    assert sol.objective == 0.0
    assert np.all(sol.flow == 0.0)


def test_infeasible_capacity_shortfall():
    problem = FlowProblem(
        node_count=2, supply=[1.0, -1.0], **arcs((0, 1, 1.0, 0.5))
    )
    sol = solve_mcf(problem)
    assert sol.status == "infeasible"
    assert not max_flow_feasible(problem)
    assert brute_force_mcf(problem).status == "infeasible"
    assert farkas_cut(problem, sol.ray).tolist() == [True, False]


def test_disconnected_demand_is_infeasible():
    problem = FlowProblem(
        node_count=3, supply=[1.0, -1.0, 0.0], **arcs((0, 2, 1.0, INFINITE_CAPACITY))
    )
    assert solve_mcf(problem).status == "infeasible"
    assert not max_flow_feasible(problem)
    no_arcs = FlowProblem(node_count=2, supply=[1.0, -1.0], **arcs())
    assert solve_mcf(no_arcs).status == "infeasible"
    assert not max_flow_feasible(no_arcs)


def test_parallel_and_antiparallel_arcs():
    # two parallel arcs with different prices plus a reverse arc as a decoy
    problem = FlowProblem(
        node_count=2,
        supply=[1.5, -1.5],
        **arcs(
            (0, 1, 3.0, INFINITE_CAPACITY),
            (0, 1, 1.0, 1.0),
            (1, 0, 0.1, INFINITE_CAPACITY),
        ),
    )
    sol = solve_mcf(problem)
    assert sol.status == "optimal"
    assert sol.flow == pytest.approx([0.5, 1.0, 0.0])
    assert sol.objective == pytest.approx(2.5)
    oracle = brute_force_mcf(problem)
    assert oracle.objective == pytest.approx(sol.objective)


def test_matches_bruteforce_on_random_problems():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(120):
        problem = random_problem(rng)
        sol = solve_mcf(problem)
        oracle = brute_force_mcf(problem)
        assert sol.status == oracle.status, flow_debug_dict(problem, sol)
        if sol.status == "optimal":
            assert_valid_flow(problem, sol)
            tol = 1e-6 * (1.0 + abs(oracle.objective))
            assert abs(sol.objective - oracle.objective) <= tol, flow_debug_dict(problem, sol)
            assert not residual_negative_cycle(problem, sol)
            checked += 1
        else:
            assert_violated_cut(problem, farkas_cut(problem, sol.ray))
        assert max_flow_feasible(problem) == (sol.status == "optimal")
    assert checked >= 40  # the draw must exercise the optimal path often enough


def test_negative_cycle_detector_flags_suboptimal_flow():
    problem = FlowProblem(
        node_count=3,
        supply=[1.0, 0.0, -1.0],
        **arcs((0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (0, 2, 10.0, 1.0)),
    )
    expensive = FlowSolution(flow=np.array([0.0, 0.0, 1.0]), objective=10.0, status="optimal")
    assert residual_negative_cycle(problem, expensive)
    cheap = solve_mcf(problem)
    assert cheap.flow == pytest.approx([1.0, 1.0, 0.0])
    assert not residual_negative_cycle(problem, cheap)


def test_certificate_rejects_suboptimal_flow():
    problem = FlowProblem(
        node_count=3,
        supply=[1.0, 0.0, -1.0],
        **arcs((0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (0, 2, 10.0, 1.0)),
    )
    optimal = np.array([1.0, 1.0, 0.0])
    _certify(problem, problem.cost, problem.capacity, optimal, np.array([2.0, 1.0, 0.0]))
    # the direct arc carries flow at reduced cost 8 against these potentials
    with pytest.raises(RuntimeError, match="certificate"):
        _certify(problem, problem.cost, problem.capacity, np.array([0.0, 0.0, 1.0]), np.array([2.0, 1.0, 0.0]))


def test_solver_handles_problems_beyond_bruteforce_limits():
    rng = np.random.default_rng(7)
    n = 30
    supply = rng.uniform(-1, 1, n)
    supply -= supply.mean()
    rows = [
        (i, j, float(rng.uniform(1, 10)), INFINITE_CAPACITY)
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    problem = FlowProblem(node_count=n, supply=supply, **arcs(*rows))
    sol = solve_mcf(problem)
    assert sol.status == "optimal"
    assert_valid_flow(problem, sol)
    assert not residual_negative_cycle(problem, sol)
    with pytest.raises(SizeLimitError):
        brute_force_mcf(problem)


def test_iteration_guard(monkeypatch):
    from scipy.optimize._highspy import _core

    class Stopped(_core._Highs):
        def getModelStatus(self):
            # what HiGHS reports when it hits its iteration limit
            return _core.HighsModelStatus.kIterationLimit

    monkeypatch.setattr(_core, "_Highs", Stopped)
    problem = FlowProblem(
        node_count=2, supply=[1.0, -1.0], **arcs((0, 1, 1.0, INFINITE_CAPACITY))
    )
    with pytest.raises(RuntimeError, match="iteration"):
        solve_mcf(problem)


def linprog_highs(node_count, tail, head, cost, capacity, supply):
    """The flow LP through public ``linprog``, with the options ``_highs`` sets."""
    from scipy.optimize import linprog

    m = tail.shape[0]
    columns = np.arange(m)
    incidence = csr_matrix(
        (np.r_[np.ones(m), -np.ones(m)], (np.r_[tail, head], np.r_[columns, columns])),
        shape=(node_count, m),
    )
    res = linprog(
        cost,
        A_eq=incidence,
        b_eq=supply,
        bounds=np.column_stack([np.zeros(m), capacity]),
        method="highs-ds",
        options={
            "presolve": False,
            "primal_feasibility_tolerance": LP_TOL,
            "dual_feasibility_tolerance": LP_TOL,
        },
    )
    assert res.status in (0, 2), res.message
    return ("optimal", res.x, res.eqlin.marginals) if res.status == 0 else ("infeasible", None, None)


@pytest.mark.parametrize(
    "n,seed,taxi_fraction", [(5, 0, 1.0), (14, 1, 1.0), (50, 2, 1.0), (14, 0, 0.5)]
)
def test_binding_agrees_with_linprog(monkeypatch, make_instance, n, seed, taxi_fraction):
    """Every LP the solver hands HiGHS: alpha and beta, feasible or not."""
    lps = []

    def recording(*args):
        lps.append(args)
        return _highs(*args)

    monkeypatch.setattr(mincostflow, "_highs", recording)
    net = make_instance(n, seed, taxi_fraction=taxi_fraction)
    d = compute_imbalance(net)
    beta = driver_flow_problem(net, d)
    solve_mcf(vehicle_flow_problem(net, d))
    beta_status = solve_mcf(beta).status
    assert beta_status == ("infeasible" if taxi_fraction < 1 else "optimal")
    assert len(lps) == 2
    for args in lps:
        status, x, duals = _highs(*args)
        want_status, want_x, want_duals = linprog_highs(*args)
        assert status == want_status
        if status == "optimal":
            np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(duals, want_duals, rtol=0, atol=1e-12)


def detour_problem() -> FlowProblem:
    """Two surplus stations and one deficit; the long edge 0->2 has a short detour 0->1->2."""
    inf = INFINITE_CAPACITY
    return FlowProblem(
        node_count=3,
        supply=[1.0, 1.0, -2.0],
        **arcs((0, 1, 1.0, inf), (0, 2, 10.0, inf), (1, 0, 10.0, inf),
               (1, 2, 1.0, inf), (2, 0, 10.0, inf), (2, 1, 10.0, inf)),
    )


def logged_lps(caplog, problem: FlowProblem):
    """Solve ``problem`` and return it with the DEBUG messages of its LPs."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fleetbalance.mincostflow"):
        sol = solve_mcf(problem)
    assert all(r.name == "fleetbalance.mincostflow" and r.levelno == logging.DEBUG for r in caplog.records)
    return sol, [r.getMessage() for r in caplog.records]


def test_non_metric_detour_needs_a_second_round(caplog):
    problem = detour_problem()
    sol, messages = logged_lps(caplog, problem)
    # round 1 prices the two surplus->deficit arcs, round 2 adds the detour's first leg
    assert [m.split(", ")[1] for m in messages] == ["2 columns", "3 columns"]
    assert sol.status == "optimal"
    assert sol.flow == pytest.approx([1.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    assert sol.objective == pytest.approx(brute_force_mcf(problem).objective) == pytest.approx(3.0)
    assert not residual_negative_cycle(problem, sol)


def test_no_surplus_to_deficit_arc_solves_on_every_arc(caplog):
    # uncapacitated, but the only route is through the zero-supply node 1
    problem = FlowProblem(
        node_count=3, supply=[1.0, 0.0, -1.0],
        **arcs((0, 1, 1.0, INFINITE_CAPACITY), (1, 2, 2.0, INFINITE_CAPACITY)),
    )
    sol, messages = logged_lps(caplog, problem)
    assert len(messages) == 1 and messages[0].startswith("flow LP: 3 rows, 2 columns, Optimal, ")
    assert sol.status == "optimal"
    assert sol.flow == pytest.approx([1.0, 1.0])
    assert sol.objective == pytest.approx(brute_force_mcf(problem).objective) == pytest.approx(3.0)


def test_restricted_infeasible_lp_takes_the_full_problems_ray(caplog):
    # surplus node 1 reaches the deficit side only through 0, and deficit node 3 has no arc in
    inf = INFINITE_CAPACITY
    problem = FlowProblem(
        node_count=4, supply=[1.0, 1.0, -1.0, -1.0],
        **arcs((0, 2, 1.0, inf), (1, 0, 1.0, inf), (2, 1, 1.0, inf), (3, 0, 1.0, inf)),
    )
    sol, messages = logged_lps(caplog, problem)
    assert [m.split(", ")[1:3] for m in messages] == [["1 columns", "Infeasible"], ["4 columns", "Infeasible"]]
    assert sol.status == "infeasible"
    assert not max_flow_feasible(problem)
    # the full LP, scaled as solve_mcf scales it (unit cost, total supply 2)
    status, _, ray = _highs(4, problem.tail, problem.head, problem.cost, problem.capacity, problem.supply / 2)
    assert status == "infeasible" and ray is not None
    np.testing.assert_array_equal(sol.ray, ray)
    assert_violated_cut(problem, farkas_cut(problem, sol.ray))


def test_each_lp_is_logged_at_debug(caplog, make_instance):
    problem = FlowProblem(
        node_count=2, supply=[1.0, -1.0], **arcs((0, 1, 1.0, INFINITE_CAPACITY))
    )
    _, (message,) = logged_lps(caplog, problem)
    assert message.startswith("flow LP: 2 rows, 1 columns, Optimal, ")
    assert "simplex iterations" in message and message.endswith(" ms")
    # a metric vehicle program stops after one round; the detour needs two
    net = make_instance(25, 1)
    _, messages = logged_lps(caplog, vehicle_flow_problem(net, compute_imbalance(net)))
    assert len(messages) == 1
    _, messages = logged_lps(caplog, detour_problem())
    assert len(messages) == 2


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(node_count=2, supply=[1.0, 0.0], **arcs()), "sum to zero"),
        (dict(node_count=2, supply=[1.0], **arcs()), "length 2"),
        (dict(node_count=0, supply=[], **arcs()), "positive integer"),
        (
            dict(node_count=2, supply=[0.0, 0.0], **arcs((0, 0, 1.0, 1.0))),
            "self-loop",
        ),
        (
            dict(node_count=2, supply=[0.0, 0.0], **arcs((0, 1, -1.0, 1.0))),
            "cost",
        ),
        (
            dict(node_count=2, supply=[0.0, 0.0], **arcs((0, 1, 1.0, -2.0))),
            "capacity",
        ),
        (
            dict(node_count=2, supply=[0.0, 0.0], **arcs((0, 3, 1.0, 1.0))),
            "out of range",
        ),
    ],
)
def test_problem_validation(kwargs, fragment):
    with pytest.raises(ValidationError, match=fragment):
        FlowProblem(**kwargs)


def test_arc_tuples_are_coerced():
    problem = FlowProblem(
        node_count=2, supply=[1.0, -1.0], tail=(0,), head=(1,), cost=(1.0,), capacity=(2.0,)
    )
    assert isinstance(problem.tail, np.ndarray) and problem.tail.dtype == np.int64
    assert solve_mcf(problem).objective == pytest.approx(1.0)


def test_flow_debug_dict_serializes_infinite_capacity():
    problem = FlowProblem(
        node_count=2, supply=[1.0, -1.0], **arcs((0, 1, 1.0, INFINITE_CAPACITY))
    )
    sol = solve_mcf(problem)
    dump = flow_debug_dict(problem, sol)
    assert dump["arcs"][0]["capacity"] is None
    assert dump["arcs"][0]["flow"] == pytest.approx(1.0)
    assert dump["status"] == "optimal"
    assert math.isclose(dump["objective"], 1.0)
