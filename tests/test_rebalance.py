from dataclasses import replace

import numpy as np
import pytest

from fleetbalance import mincostflow
from fleetbalance.errors import RebalanceInfeasibleError
from fleetbalance.generate import GeneratorConfig, generate_instance
from fleetbalance.fluidsim import _Legs
from fleetbalance.network import StationNetwork, _legs, compute_imbalance, fleet_sizes, validate_assignment
from fleetbalance.rebalance import (
    RebalanceSolution,
    driver_flow_problem,
    solve_driver_rebalancing,
    solve_rebalancing,
    solve_vehicle_rebalancing,
    vehicle_flow_problem,
)
from fleetbalance.mincostflow import INFINITE_CAPACITY

from conftest import build_two_station
from oracles import brute_force_mcf, max_flow_cut, max_flow_feasible


def test_two_station_hand_solution(two_station):
    alpha, alpha_obj = solve_vehicle_rebalancing(two_station)
    # only way to cancel d = (-0.3, 0.3): ship 0.3 vehicles from 1 to 0
    assert alpha == pytest.approx(np.array([[0.0, 0.0], [0.3, 0.0]]), abs=1e-9)
    assert alpha_obj == pytest.approx(3.0, abs=1e-9)

    beta, beta_obj = solve_driver_rebalancing(two_station)
    assert beta == pytest.approx(np.array([[0.0, 0.3], [0.0, 0.0]]), abs=1e-9)
    assert beta_obj == pytest.approx(3.0, abs=1e-9)


def test_two_station_joint_solution(two_station):
    sol = solve_rebalancing(two_station)
    assert sol.status == "optimal"
    a = sol.assignment
    assert a.min_vehicles == pytest.approx(8.0, abs=1e-9)
    assert a.min_drivers == pytest.approx(6.0, abs=1e-9)
    assert sol.vehicle_objective + sol.driver_objective == pytest.approx(
        a.min_drivers, abs=1e-9
    )
    validate_assignment(two_station, a)


def test_infeasible_two_station_witness(two_station_tight):
    with pytest.raises(RebalanceInfeasibleError) as exc:
        solve_driver_rebalancing(two_station_tight)
    err = exc.value
    assert err.witness == (0,)
    assert err.demand == pytest.approx(0.3)
    assert err.capacity == pytest.approx(0.2)
    assert "0.3" in str(err) and "0.2" in str(err)

    sol = solve_rebalancing(two_station_tight)
    assert sol.status == "beta_infeasible"
    assert sol.assignment is None
    assert sol.driver_objective is None
    # the vehicle program is unaffected by taxi capacity
    assert sol.vehicle_objective == pytest.approx(3.0, abs=1e-9)
    assert sol.infeasibility.witness == (0,)


def test_status_is_read_off_the_plan(two_station_tight):
    sol = solve_rebalancing(two_station_tight)
    # no constructor states a status: a plan-less solution cannot claim "optimal"
    with pytest.raises(TypeError):
        RebalanceSolution(status="optimal", assignment=None, vehicle_objective=3.0, driver_objective=None)
    with pytest.raises(AttributeError):
        sol.status = "optimal"
    assert sol.status == "beta_infeasible"


@pytest.mark.parametrize("n", [24, 40])
def test_infeasible_witness_above_subset_scan_limit(n):
    net = generate_instance(n, 0, GeneratorConfig(taxi_fraction=0.5))
    sol = solve_rebalancing(net)
    assert sol.status == "beta_infeasible"
    err = sol.infeasibility
    assert err.witness
    inside = np.zeros(n, dtype=bool)
    inside[list(err.witness)] = True
    trips = net.arrival_rate[:, None] * net.dest_prob
    deficit = float((net.arrival_rate - trips.sum(axis=0))[inside].sum())
    out_cap = float((net.taxi_fraction * trips)[np.ix_(inside, ~inside)].sum())
    assert deficit - out_cap > 1e-8 * net.arrival_rate.sum()
    assert err.demand == pytest.approx(deficit)
    assert err.capacity == pytest.approx(out_cap)


def test_fleet_sizes_scale_with_arrival_rates(make_instance):
    # rates times c: both fleets and both rate matrices times c, whatever the magnitude of c
    per_rate = []
    for lambda_max in (1e-9, 1.0, 1e6):
        net = make_instance(10, 0, lambda_max=lambda_max, taxi_fraction=2)
        sol = solve_rebalancing(net)
        a = sol.assignment
        total = net.arrival_rate.sum()
        per_rate.append(
            (a.min_drivers / total, a.min_vehicles / total, a.vehicle_rates / total, a.driver_rates / total)
        )
    for scaled in (per_rate[0], per_rate[2]):
        assert scaled[:2] == pytest.approx(per_rate[1][:2], rel=1e-9)
        for k in (2, 3):
            np.testing.assert_allclose(scaled[k], per_rate[1][k], rtol=0, atol=1e-9)


def relabelled(net: StationNetwork, perm: np.ndarray) -> StationNetwork:
    """The same network with new station k standing for old station perm[k]."""
    ix = np.ix_(perm, perm)
    return replace(
        net,
        arrival_rate=net.arrival_rate[perm],
        service_rate=net.service_rate[perm],
        dest_prob=net.dest_prob[ix],
        travel_time=net.travel_time[ix],
        taxi_fraction=net.taxi_fraction[ix],
    )


@pytest.mark.parametrize("c", [1e-3, 37.0, 1e4])
def test_travel_time_scaling_scales_fleets(make_instance, c):
    # travel times times c: both fleets times c, alpha and beta unchanged
    for seed in range(10):
        net = make_instance(10, seed, taxi_fraction=0.5 if seed % 2 else 1.0)
        sol = solve_rebalancing(net)
        scaled = solve_rebalancing(replace(net, travel_time=c * net.travel_time))
        assert scaled.status == sol.status
        assert scaled.vehicle_objective == pytest.approx(c * sol.vehicle_objective, rel=1e-9)
        if sol.status != "optimal":
            continue
        a, b = sol.assignment, scaled.assignment
        assert b.min_vehicles == pytest.approx(c * a.min_vehicles, rel=1e-9)
        assert b.min_drivers == pytest.approx(c * a.min_drivers, rel=1e-9)
        atol = 1e-9 * net.arrival_rate.sum()
        np.testing.assert_allclose(b.vehicle_rates, a.vehicle_rates, rtol=0, atol=atol)
        np.testing.assert_allclose(b.driver_rates, a.driver_rates, rtol=0, atol=atol)


@pytest.mark.parametrize("taxi_fraction", [0.5, 1.0])
def test_relabelling_stations_permutes_the_solution(make_instance, taxi_fraction):
    rng = np.random.default_rng(17)
    infeasible = 0
    for seed in range(20):
        n = 3 + seed % 10
        net = make_instance(n, seed, taxi_fraction=taxi_fraction)
        perm = rng.permutation(n)
        sol = solve_rebalancing(net)
        moved = solve_rebalancing(relabelled(net, perm))
        assert moved.status == sol.status
        assert moved.vehicle_objective == pytest.approx(sol.vehicle_objective, rel=1e-12)
        if sol.status != "optimal":
            infeasible += 1
            # the witness is the most violated level set of the Farkas ray, ties
            # to the smaller set and then the lowest stations.  That the ray
            # follows the relabelling is observed (395 of 395 infeasible draws),
            # not proved: dual simplex pivots depend on column order, so a
            # failure here points at HiGHS's ray, not at the level-set scan
            witness = tuple(sorted(int(perm[k]) for k in moved.infeasibility.witness))
            assert witness == sol.infeasibility.witness
            assert moved.infeasibility.demand == pytest.approx(sol.infeasibility.demand, rel=1e-12)
            continue
        a, b = sol.assignment, moved.assignment
        ix = np.ix_(perm, perm)
        atol = 1e-9 * net.arrival_rate.sum()
        np.testing.assert_allclose(b.vehicle_rates, a.vehicle_rates[ix], rtol=0, atol=atol)
        np.testing.assert_allclose(b.driver_rates, a.driver_rates[ix], rtol=0, atol=atol)
        assert moved.driver_objective == pytest.approx(sol.driver_objective, rel=1e-12)
        assert b.min_vehicles == pytest.approx(a.min_vehicles, rel=1e-12)
        assert b.min_drivers == pytest.approx(a.min_drivers, rel=1e-12)
    # half the legs' worth of taxi capacity leaves some draws infeasible
    assert (infeasible > 0) == (taxi_fraction < 1.0)


def test_solutions_validate_on_random_instances(make_instance):
    for seed in range(15):
        net = make_instance(12, seed)
        sol = solve_rebalancing(net)
        assert sol.status == "optimal"
        validate_assignment(net, sol.assignment)
        # objectives recompute from the matrices
        assert sol.vehicle_objective == pytest.approx(
            float(np.sum(net.travel_time * sol.assignment.vehicle_rates)), abs=1e-9
        )
        v, r = fleet_sizes(net, sol.assignment.vehicle_rates, sol.assignment.driver_rates)
        assert sol.assignment.min_vehicles == pytest.approx(v)
        assert sol.assignment.min_drivers == pytest.approx(r)
        # customer trips alone bound the vehicle fleet from below
        base = float(np.sum(net.travel_time * (net.dest_prob * net.arrival_rate[:, None])))
        assert v >= base - 1e-9
        assert abs(compute_imbalance(net).sum()) < 1e-12


def test_objectives_match_bruteforce_on_tiny_instances(make_instance):
    for seed in range(10):
        net = make_instance(4, seed)
        alpha, alpha_obj = solve_vehicle_rebalancing(net)
        oracle_a = brute_force_mcf(vehicle_flow_problem(net))
        assert oracle_a.status == "optimal"
        assert alpha_obj == pytest.approx(oracle_a.objective, abs=1e-7)
        beta, beta_obj = solve_driver_rebalancing(net)
        oracle_b = brute_force_mcf(driver_flow_problem(net))
        assert oracle_b.status == "optimal"
        assert beta_obj == pytest.approx(oracle_b.objective, abs=1e-7)


@pytest.mark.parametrize("n", [5, 10, 25, 50, 100])
def test_objectives_are_the_certified_lp_optima(n):
    # one source per objective: each is the certified LP's own cost @ flow
    for seed in range(1, 6):
        net = generate_instance(n, seed)
        sol = solve_rebalancing(net)
        assert sol.vehicle_objective == mincostflow.solve_mcf(vehicle_flow_problem(net)).objective
        assert sol.driver_objective == mincostflow.solve_mcf(driver_flow_problem(net)).objective


def test_flow_problem_construction(two_station):
    vp = vehicle_flow_problem(two_station)
    assert vp.node_count == 2
    assert vp.supply == pytest.approx([-0.3, 0.3])
    assert all(vp.capacity == INFINITE_CAPACITY)
    dp = driver_flow_problem(two_station)
    assert dp.supply == pytest.approx([0.3, -0.3])
    caps = dict(zip(zip(dp.tail.tolist(), dp.head.tolist()), dp.capacity))
    assert caps[(0, 1)] == pytest.approx(0.4)
    assert caps[(1, 0)] == pytest.approx(0.1)


def test_no_opposing_flow_in_solutions(make_instance):
    # a certified optimum never ships both ways on a pair: the two reduced
    # costs would add up to the round trip's positive travel time
    for seed in range(8):
        for taxi_fraction in (1.0, 2.0):
            net = make_instance(4 + 3 * seed, seed, taxi_fraction=taxi_fraction)
            sol = solve_rebalancing(net)
            a, b = sol.assignment.vehicle_rates, sol.assignment.driver_rates
            assert np.all(np.minimum(a, a.T) == 0.0)
            assert np.all(np.minimum(b, b.T) == 0.0)


def witness_violation(net: StationNetwork, witness) -> float:
    """Driver demand of the witness stations minus the taxi capacity leaving them."""
    inside = np.zeros(net.n, dtype=bool)
    inside[list(witness)] = True
    demand = float(-compute_imbalance(net)[inside].sum())
    return demand - float(net.taxi_capacity()[np.ix_(inside, ~inside)].sum())


@pytest.mark.parametrize("taxi_fraction", [0.5, 1.0])
@pytest.mark.parametrize("n", [5, 14, 24, 40, 100])
def test_witness_agrees_with_max_flow_oracle(make_instance, n, taxi_fraction):
    infeasible = 0
    for seed in range(6):
        net = make_instance(n, seed, taxi_fraction=taxi_fraction)
        problem = driver_flow_problem(net)
        feasible = max_flow_feasible(problem)
        assert (mincostflow.solve_mcf(problem).status == "optimal") == feasible
        if feasible:
            solve_driver_rebalancing(net)
            continue
        infeasible += 1
        with pytest.raises(RebalanceInfeasibleError) as exc:
            solve_driver_rebalancing(net)
        err = exc.value
        assert err.demand - err.capacity == pytest.approx(witness_violation(net, err.witness), rel=1e-12)
        undeliverable, _ = max_flow_cut(problem)
        assert 0 < err.demand - err.capacity <= undeliverable + 1e-9 * net.arrival_rate.sum()
    assert (infeasible > 0) == (taxi_fraction < 1)


@pytest.mark.parametrize("ray", ["zero", "random"])
@pytest.mark.parametrize("taxi_fraction", [0.5, 1.0])
def test_wrong_ray_gives_no_wrong_witness(monkeypatch, make_instance, ray, taxi_fraction):
    # every LP reports "infeasible" with a made-up ray, feasible programs included
    rng = np.random.default_rng(5)
    fake = np.zeros if ray == "zero" else rng.standard_normal
    monkeypatch.setattr(mincostflow, "_highs", lambda n, *args: ("infeasible", None, fake(n)))
    for seed in range(5):
        net = make_instance(14, seed, taxi_fraction=taxi_fraction)
        with pytest.raises(RebalanceInfeasibleError) as exc:
            solve_driver_rebalancing(net)
        if ray == "zero" or taxi_fraction == 1.0:
            # a zero ray has no level sets; a feasible program has no violated set
            assert exc.value.witness is None
        elif exc.value.witness is not None:
            # a random ray may still hit a violated set, but only a true one
            assert witness_violation(net, exc.value.witness) > 0


def test_infeasible_diagnosis_solves_one_lp(monkeypatch, make_instance):
    calls = []
    real = mincostflow._highs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mincostflow, "_highs", counting)
    net = make_instance(40, 0, taxi_fraction=0.5)
    with pytest.raises(RebalanceInfeasibleError) as exc:
        solve_driver_rebalancing(net)
    assert exc.value.witness
    assert len(calls) == 1


def test_balanced_network_needs_no_rebalancing():
    net = build_two_station()
    sym = replace(
        net,
        arrival_rate=np.array([0.3, 0.3]),
        service_rate=np.array([0.7, 0.7]),
    )
    sol = solve_rebalancing(sym)
    assert sol.vehicle_objective == 0.0
    assert sol.driver_objective == 0.0
    assert np.all(sol.assignment.vehicle_rates == 0.0)
    # only customer trips pin vehicles: 10*0.3 + 10*0.3
    assert sol.assignment.min_vehicles == pytest.approx(6.0)
    assert sol.assignment.min_drivers == 0.0


@pytest.mark.parametrize("lam", [0.1, 0.37, 1.0, 1e6])
def test_balanced_network_with_rounding_noise_needs_no_rebalancing(lam):
    # p rows 0/0.3/0.7 are not dyadic: inflow - lambda leaves ~1e-17 noise
    # at lam = 0.1, and f = 0 on half the legs, so driver noise would have
    # nowhere to go
    p = np.array([[0.0, 0.3, 0.7], [0.7, 0.0, 0.3], [0.3, 0.7, 0.0]])
    net = StationNetwork(
        n=3,
        arrival_rate=np.full(3, lam),
        service_rate=np.full(3, 2 * lam + 1),
        dest_prob=p,
        travel_time=5.0 * (np.ones((3, 3)) - np.eye(3)),
        taxi_fraction=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
    )
    assert np.all(compute_imbalance(net) == 0.0)
    sol = solve_rebalancing(net)
    assert sol.status == "optimal"
    assert np.all(sol.assignment.vehicle_rates == 0.0)
    assert np.all(sol.assignment.driver_rates == 0.0)
    assert sol.vehicle_objective == 0.0
    assert sol.driver_objective == 0.0


def test_driver_program_tightens_with_taxi_fraction(make_instance):
    # binding capacities can only raise the driver objective
    net = make_instance(10, 4)
    _, loose = solve_driver_rebalancing(net)
    off = 1 - np.eye(10)
    tight = replace(net, taxi_fraction=0.35 * off)
    try:
        _, tight_obj = solve_driver_rebalancing(tight)
    except RebalanceInfeasibleError:
        return
    assert tight_obj >= loose - 1e-9


@pytest.mark.parametrize("n", [2, 5, 12])
def test_flow_arcs_are_the_simulator_legs(n):
    net = generate_instance(n, n)
    tail, head = _legs(n)
    legs = _Legs.build(net, net.min_offdiag_travel_time() / 10)
    for problem in (vehicle_flow_problem(net), driver_flow_problem(net)):
        assert np.array_equal(problem.tail, tail) and np.array_equal(problem.head, head)
        assert np.array_equal(problem.cost, net.travel_time[tail, head])
    assert np.array_equal(legs.tail, tail)
    # the simulator keeps each leg's head and delay in its calendar group
    assert np.array_equal(legs.group_cell[legs.group] % n, head)
    assert np.array_equal(legs.group_cell[legs.group] // n, legs.steps)
