import numpy as np
import pytest

from fleetbalance.errors import InsufficientFleetError, ValidationError
from fleetbalance.fluidsim import (
    equilibrium_state,
    initial_state,
    simulate,
    stability_probe,
    write_trace_csv,
)
from fleetbalance.network import RebalanceAssignment, StationNetwork, fleet_sizes
from fleetbalance.rebalance import RebalanceSolution, solve_rebalancing

from oracles import probe_verdicts

# hand-optimal assignment for the two_station fixture
ALPHA = np.array([[0.0, 0.0], [0.3, 0.0]])
BETA = np.array([[0.0, 0.3], [0.0, 0.0]])


def test_equilibrium_is_fixed_point(two_station):
    h = 2.5
    state = equilibrium_state(
        two_station, ALPHA, BETA, customers=[0.0, 0.0], vehicles=[1.0, 1.0],
        drivers=[0.5, 0.5], h=h,
    )
    state = simulate(two_station, ALPHA, BETA, state, 6 * h).final
    assert state.customers == pytest.approx(np.zeros(2), abs=1e-12)
    assert state.vehicles == pytest.approx(np.array([1.0, 1.0]), abs=1e-12)
    assert state.drivers == pytest.approx(np.array([0.5, 0.5]), abs=1e-12)
    assert state.time == pytest.approx(6 * h)


def test_equilibrium_state_buffer_mass(two_station):
    state = equilibrium_state(
        two_station, ALPHA, BETA, customers=[0.0, 0.0], vehicles=[1.0, 1.0],
        drivers=[0.5, 0.5], h=2.5,
    )
    # delay lines carry exactly the in-transit minima of the assignment
    assert state.calendars.sum(axis=(1, 2)) * state.h == pytest.approx([8.0, 6.0])
    assert state.totals == pytest.approx([10.0, 7.0])


def test_simulate_returns_a_new_final_state(two_station):
    state = initial_state(two_station, [0.2, 0.0], [1.0, 1.0], [0.5, 0.5], h=2.0)
    arrays = ("customers", "vehicles", "drivers", "vehicle_buffer", "driver_buffer")
    before = [getattr(state, name).copy() for name in arrays]
    out = simulate(two_station, ALPHA, BETA, state, 3 * state.h).final
    assert out is not state
    for name, was in zip(arrays, before):
        assert np.array_equal(getattr(state, name), was), name
    # the calendars filled up in the run, on arrays of its own, not views
    # that keep the run's calendar window alive
    assert out.vehicle_buffer.sum() > 0 and out.driver_buffer.sum() > 0
    assert out.calendars.base is None and out.levels.base is None
    assert state.step_index == 0 and out.step_index == 3


def test_state_arrays_are_read_only(two_station):
    state = initial_state(two_station, [0.2, 0.0], [1.0, 1.0], [0.5, 0.5], h=2.0)
    with pytest.raises(ValueError, match="read-only"):
        state.vehicles[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.driver_buffer[0, 0] = 1.0


def test_trace_arrays_are_read_only(two_station):
    # empty roads, 10 steps of h = 2: idle vehicles at station 0 hit 0
    state = initial_state(two_station, [0.2, 0.0], [1.0, 1.0], [0.5, 0.5], h=2.0)
    trace = simulate(two_station, ALPHA, BETA, state, 20.0)
    hits = trace.zero_hits.copy()
    assert hits[1, 0] > 0
    with pytest.raises(ValueError, match="read-only"):
        trace.vehicles[:] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        trace.totals[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        trace.times[0] = 1.0
    # the cached summaries stay those of the levels
    assert np.array_equal(trace.zero_hits, hits)
    with pytest.raises(AttributeError):
        trace.final = None


def test_final_calendar_rows_follow_its_step_index(two_station):
    # D = 10: customers leave at lambda from step 0 and arrive 10 steps on,
    # so after 3 steps the rows for steps 10-12 are the last three
    zero = np.zeros((2, 2))
    state = initial_state(two_station, [0.0, 0.0], [5.0, 5.0], [0.0, 0.0], h=1.0)
    out = simulate(two_station, zero, zero, state, 3.0).final
    assert out.step_index == 3 and out.vehicle_buffer.shape == (10, 2)
    assert np.array_equal(out.vehicle_buffer[7:], [[0.1, 0.4]] * 3)
    assert np.all(out.vehicle_buffer[:7] == 0) and np.all(out.driver_buffer == 0)


def test_customer_drain_tracks_analytic_time(two_station):
    # station 0 drains its queue at rate mu - lambda = 0.4: empty at t = 1.25
    for h in (0.5, 0.25):
        init = equilibrium_state(
            two_station, np.zeros((2, 2)), np.zeros((2, 2)),
            customers=[0.5, 0.0], vehicles=[2.0, 2.0], drivers=[0.0, 0.0], h=h,
        )
        trace = simulate(two_station, np.zeros((2, 2)), np.zeros((2, 2)), init, 3.0)
        peak = trace.customers.max(axis=1)
        assert np.all(trace.customers >= 0.0)
        assert np.all(np.diff(peak) <= 1e-12)  # queue never refills
        drained = np.flatnonzero(peak <= 1e-9)
        assert drained.size
        t_drain = trace.times[drained[0]]
        assert abs(t_drain - 1.25) <= h + 1e-6
        # once empty it stays empty
        assert np.all(peak[drained[0]:] <= 1e-9)


def test_no_vehicles_means_no_departures(two_station):
    h = 2.0
    state = initial_state(two_station, [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], h=h)
    state = simulate(two_station, ALPHA, BETA, state, 4 * h).final
    # customers pile up at rate lambda; nothing ever leaves
    assert state.customers == pytest.approx(4 * h * two_station.arrival_rate)
    assert np.all(state.vehicle_buffer == 0.0)
    assert np.all(state.driver_buffer == 0.0)
    assert state.drivers == pytest.approx(np.array([1.0, 1.0]))


def test_no_drivers_blocks_rebalancing_but_not_customers(two_station):
    h = 2.0
    state = initial_state(two_station, [0.0, 0.0], [5.0, 5.0], [0.0, 0.0], h=h)
    state = simulate(two_station, ALPHA, BETA, state, h).final
    # customer trips depart at lambda, rebalancing and returns are gated off
    assert np.all(state.driver_buffer == 0.0)
    assert state.drivers == pytest.approx(np.zeros(2))
    assert state.vehicle_buffer.sum() == pytest.approx(two_station.arrival_rate.sum())


def test_returns_capped_by_actual_customer_flow(two_station):
    # nominal beta 0.45 exceeds the taxi capacity 0.4 of the realized flow
    beta = np.array([[0.0, 0.45], [0.0, 0.0]])
    state = initial_state(two_station, [0.0, 0.0], [1.0, 1.0], [2.0, 2.0], h=2.5)
    state = simulate(two_station, np.zeros((2, 2)), beta, state, state.h).final
    assert state.driver_buffer.sum() == pytest.approx(0.4)


def test_clamp_keeps_levels_nonnegative_and_mass_conserved(two_station):
    h = 2.5
    state = initial_state(two_station, [1.0, 1.0], [0.01, 0.01], [0.01, 0.01], h=h)
    totals = state.totals
    for _ in range(12):
        state = simulate(two_station, ALPHA, BETA, state, h).final
        assert np.all(state.customers >= 0)
        assert np.all(state.vehicles >= 0)
        assert np.all(state.drivers >= 0)
        assert state.totals == pytest.approx(totals, abs=1e-12)


def test_mass_conserved_far_from_equilibrium(make_instance):
    net = make_instance(6, 13)
    sol = solve_rebalancing(net)
    a = sol.assignment
    h = net.min_offdiag_travel_time() / 4
    rng = np.random.default_rng(1)
    init = initial_state(
        net, rng.uniform(0, 0.5, 6), rng.uniform(0, 3, 6), rng.uniform(0, 2, 6), h=h
    )
    trace = simulate(net, a.vehicle_rates, a.driver_rates, init, 40 * h)
    assert np.max(np.abs(trace.vehicles_total - trace.vehicles_total[0])) < 1e-9
    assert np.max(np.abs(trace.drivers_total - trace.drivers_total[0])) < 1e-9
    assert np.all(np.isfinite(trace.customers))
    assert np.all(trace.vehicles >= 0)


def test_symmetric_network_reaches_delayed_steady_state():
    # both stations ship at rate 1 with travel time 1: idle stock settles at
    # v=(1,1) once the delay lines are primed, with 1 unit in transit each way
    net = StationNetwork(
        n=2,
        arrival_rate=[1.0, 1.0],
        service_rate=[2.0, 2.0],
        dest_prob=[[0.0, 1.0], [1.0, 0.0]],
        travel_time=[[0.0, 1.0], [1.0, 0.0]],
        taxi_fraction=[[0.0, 1.0], [1.0, 0.0]],
    )
    zero = np.zeros((2, 2))
    h = 0.1
    init = initial_state(net, [0.0, 0.0], [2.0, 2.0], [0.0, 0.0], h=h)
    trace = simulate(net, zero, zero, init, 5.0)
    warm = trace.times >= 1.0
    assert trace.vehicles[warm] == pytest.approx(np.ones_like(trace.vehicles[warm]), abs=1e-12)
    assert np.all(trace.customers == 0.0)
    assert trace.vehicles_total[-1] - trace.vehicles[-1].sum() == pytest.approx(2.0)
    # ramp before the first arrivals: v = 2 - t
    early = trace.times <= 1.0 - h / 2
    assert trace.vehicles[early, 0] == pytest.approx(2.0 - trace.times[early], abs=1e-12)


def test_drivers_frozen_without_assignment(two_station):
    h = 1.0
    state = initial_state(two_station, [0.3, 0.0], [2.0, 2.0], [0.7, 0.2], h=h)
    zero = np.zeros((2, 2))
    state = simulate(two_station, zero, zero, state, 10 * h).final
    assert state.drivers == pytest.approx(np.array([0.7, 0.2]), abs=0)
    assert np.all(state.driver_buffer == 0.0)


def test_zero_crossing_events(two_station):
    h = 0.5
    init = equilibrium_state(
        two_station, np.zeros((2, 2)), np.zeros((2, 2)),
        customers=[0.5, 0.0], vehicles=[2.0, 2.0], drivers=[0.0, 0.0], h=h,
    )
    trace = simulate(two_station, np.zeros((2, 2)), np.zeros((2, 2)), init, 3.0)
    assert trace.time_at_zero.shape == trace.zero_hits.shape == trace.first_zero.shape == (3, 2)
    assert trace.zero_hits[0, 0] == 1
    assert np.all(trace.zero_hits[1] == 0) and np.all(trace.time_at_zero[1] == 0)
    assert np.all(np.isnan(trace.first_zero[1]))
    assert abs(trace.first_zero[0, 0] - 1.5) <= h + 1e-9


def test_drained_queue_lands_on_exact_zero(two_station):
    # the queue of 0.3 drains in the first step at rate lambda + c / h =
    # 0.7 <= mu, and c + h * (lambda - 0.7) rounds to 5.6e-17, not 0
    h = 1.0
    init = equilibrium_state(
        two_station, np.zeros((2, 2)), np.zeros((2, 2)),
        customers=[0.3, 0.0], vehicles=[2.0, 2.0], drivers=[0.0, 0.0], h=h,
    )
    trace = simulate(two_station, np.zeros((2, 2)), np.zeros((2, 2)), init, 3.0)
    assert np.all(trace.customers[1:] == 0.0)
    # station 0 hits 0 in step 1 and stays there, station 1 never leaves it
    assert trace.zero_hits[0].tolist() == [1, 0]
    assert trace.first_zero[0, 0] == 1.0 and np.isnan(trace.first_zero[0, 1])
    assert trace.time_at_zero[0].tolist() == [2.0, 3.0]


def test_queued_customers_need_destinations():
    net = StationNetwork(
        n=2,
        arrival_rate=[0.4, 0.0],
        service_rate=[0.8, 0.2],
        dest_prob=[[0.0, 1.0], [0.0, 0.0]],
        travel_time=[[0.0, 10.0], [10.0, 0.0]],
        taxi_fraction=[[0.0, 1.0], [1.0, 0.0]],
    )
    state = initial_state(net, [0.0, 0.5], [1.0, 1.0], [0.0, 0.0], h=2.0)
    with pytest.raises(ValidationError, match="p row 1"):
        simulate(net, np.zeros((2, 2)), np.zeros((2, 2)), state, 2.0)


def test_state_runs_only_on_the_travel_times_it_was_built_for(make_instance):
    from dataclasses import replace

    net = make_instance(6, 1)
    a = solve_rebalancing(net).assignment
    h = net.min_offdiag_travel_time() / 10
    state = equilibrium_state(net, a.vehicle_rates, a.driver_rates, np.zeros(6), np.ones(6), np.ones(6), h)
    other = make_instance(6, 2)
    # another network's delays, and delays so short that h > min T / 4
    for wrong in (other, replace(net, travel_time=net.travel_time * 0.2)):
        with pytest.raises(ValidationError, match="travel times"):
            simulate(wrong, a.vehicle_rates, a.driver_rates, state, 5 * h)
    # the taxi-fraction sweep re-solves networks made with replace: p,
    # lambda and f may differ from the state's network
    for same_roads in (
        replace(net, dest_prob=other.dest_prob),
        replace(net, arrival_rate=0.5 * net.arrival_rate),
        replace(net, taxi_fraction=0.5 * net.taxi_fraction),
    ):
        trace = simulate(same_roads, a.vehicle_rates, a.driver_rates, state, 5 * h)
        assert trace.times.size == 6


def test_state_runs_only_on_a_network_of_its_size(two_station, make_instance):
    state = initial_state(two_station, [0, 0], [1, 1], [1, 1], h=2.0)
    with pytest.raises(ValidationError, match="state has 2 stations, network has 3"):
        simulate(make_instance(3, 1), np.zeros((3, 3)), np.zeros((3, 3)), state, 10.0)


def test_step_size_validation(two_station):
    with pytest.raises(ValidationError, match="min travel time / 4"):
        initial_state(two_station, [0, 0], [1, 1], [1, 1], h=3.0)


def test_one_station_is_not_simulated():
    # StationNetwork takes one station, but no trip can leave it
    net = StationNetwork(
        n=1, arrival_rate=[0.0], service_rate=[1.0], dest_prob=[[0.0]], travel_time=[[0.0]], taxi_fraction=[[0.0]]
    )
    with pytest.raises(ValidationError, match="at least 2 stations, got 1"):
        initial_state(net, [0.0], [1.0], [1.0], h=1.0)


def test_zero_travel_time_rejected():
    net = StationNetwork(
        n=2,
        arrival_rate=[0.4, 0.1],
        service_rate=[0.8, 0.2],
        dest_prob=[[0.0, 1.0], [1.0, 0.0]],
        travel_time=[[0.0, 0.0], [0.0, 0.0]],
        taxi_fraction=[[0.0, 1.0], [1.0, 0.0]],
    )
    with pytest.raises(ValidationError, match="positive travel times"):
        initial_state(net, [0, 0], [1, 1], [1, 1], h=1.0)


def test_state_validation(two_station):
    with pytest.raises(ValidationError, match="customers"):
        initial_state(two_station, [-0.1, 0.0], [1, 1], [1, 1], h=2.0)
    with pytest.raises(ValidationError, match="vehicles"):
        initial_state(two_station, [0, 0], [np.nan, 1.0], [1, 1], h=2.0)
    with pytest.raises(ValidationError, match="length-2"):
        initial_state(two_station, [0, 0, 0], [1, 1], [1, 1], h=2.0)


@pytest.mark.parametrize("bad", [["x", 0.0], [0.0, [1.0, 2.0]]], ids=["non-numeric", "ragged"])
@pytest.mark.parametrize("which", ["customers", "vehicles", "drivers"])
@pytest.mark.parametrize("builder", ["initial_state", "equilibrium_state"])
def test_state_vectors_must_be_numeric(two_station, bad, which, builder):
    levels = {"customers": [0, 0], "vehicles": [1, 1], "drivers": [1, 1], which: bad}
    build = {
        "initial_state": lambda c, v, r: initial_state(two_station, c, v, r, h=2.0),
        "equilibrium_state": lambda c, v, r: equilibrium_state(two_station, ALPHA, BETA, c, v, r, 2.0),
    }[builder]
    with pytest.raises(ValidationError, match=which + " is not numeric"):
        build(levels["customers"], levels["vehicles"], levels["drivers"])


@pytest.mark.parametrize(
    "bad,message",
    [
        ([[0.0, -0.1], [0.3, 0.0]], r"\[0,1\] is negative"),
        ([[0.0, np.nan], [0.3, 0.0]], r"\[0,1\] is not finite"),
        (np.zeros((3, 3)), " must be an 2x2 matrix"),
        ([[0.1, 0.0], [0.3, 0.0]], " must have a zero diagonal"),
        ([[0.0, "x"], [0.3, 0.0]], " is not numeric"),
        ([[0.0, 0.1], [0.3]], " is not numeric"),
    ],
)
@pytest.mark.parametrize("which", ["alpha", "beta"])
@pytest.mark.parametrize("entry", ["equilibrium_state", "simulate"])
def test_bad_rate_matrices_rejected(two_station, bad, message, which, entry):
    rates = {"alpha": ALPHA, "beta": BETA, which: bad}
    state = initial_state(two_station, [0, 0], [1, 1], [1, 1], h=2.0)
    run = {
        "equilibrium_state": lambda a, b: equilibrium_state(two_station, a, b, [0, 0], [1, 1], [1, 1], 2.0),
        "simulate": lambda a, b: simulate(two_station, a, b, state, 10.0),
    }[entry]
    with pytest.raises(ValidationError, match=which + message):
        run(rates["alpha"], rates["beta"])


def test_simulate_argument_validation(two_station):
    state = initial_state(two_station, [0, 0], [1, 1], [1, 1], h=2.0)
    with pytest.raises(ValidationError, match="horizon"):
        simulate(two_station, ALPHA, BETA, state, -1.0)


def test_simulate_rounds_the_horizon_to_whole_steps(two_station):
    state = initial_state(two_station, [0, 0], [1, 1], [1, 1], h=2.0)
    full = simulate(two_station, ALPHA, BETA, state, 20.6)
    assert full.times.shape == (11,)  # horizon rounds to 10 whole steps
    assert np.array_equal(full.times, 2.0 * np.arange(11))
    assert full.customers.shape == (11, 2)


def test_stability_probe_passes_on_two_station(two_station):
    sol = solve_rebalancing(two_station)
    report = stability_probe(
        two_station, sol, slack_vehicles=0.2, slack_drivers=0.2,
        perturbation=0.1, h=1.0, seed=3,
    )
    assert report.passed
    assert report.customers_cleared
    assert report.vehicles_positive and report.drivers_positive
    assert report.conserved
    assert report.drain_time is not None
    assert report.drain_time <= report.drain_bound + 5 * report.trace.h
    assert report.trace.totals[0] == pytest.approx([1.2 * 8.0, 1.2 * 6.0])
    assert report.vehicle_drift <= report.vehicle_drift_bound
    assert report.trace.times[-1] == pytest.approx(report.horizon, abs=report.trace.h)


def test_stability_probe_fails_when_queues_outlast_the_horizon(two_station):
    sol = solve_rebalancing(two_station)
    report = stability_probe(two_station, sol, 0.2, 0.2, 0.9, h=1.0, horizon=2.0)
    assert report.trace.customers[-1].max() > 0.1
    assert report.drain_time is None
    assert not report.customers_cleared and not report.passed


def test_probe_report_keeps_no_engine_memory(make_instance):
    net = make_instance(8, 5)
    report = stability_probe(net, solve_rebalancing(net), 0.2, 0.2, 0.1, h=net.min_offdiag_travel_time() / 10)
    # nothing resumes from a probe, so its trace keeps no final calendars
    assert report.trace.final is None


def test_stability_probe_rejects_fleet_at_minimum(two_station):
    sol = solve_rebalancing(two_station)
    with pytest.raises(InsufficientFleetError, match="slack 0"):
        stability_probe(two_station, sol, 0.0, 0.2, 0.1, h=1.0)
    with pytest.raises(InsufficientFleetError, match="slack -0.1"):
        stability_probe(two_station, sol, 0.2, -0.1, 0.1, h=1.0)


def test_stability_probe_rejects_plan_that_pins_no_mass():
    # customers balance both stations: the plan moves no vehicle and no driver
    net = StationNetwork(
        n=2,
        arrival_rate=[0.4, 0.4],
        service_rate=[0.8, 0.8],
        dest_prob=[[0.0, 1.0], [1.0, 0.0]],
        travel_time=[[0.0, 10.0], [10.0, 0.0]],
        taxi_fraction=[[0.0, 1.0], [1.0, 0.0]],
    )
    sol = solve_rebalancing(net)
    assert sol.assignment.min_drivers == 0
    with pytest.raises(ValidationError, match="pins no mass"):
        stability_probe(net, sol, 0.2, 0.2, 0.1, h=1.0)


def test_stability_probe_argument_validation(two_station, two_station_tight):
    sol = solve_rebalancing(two_station)
    with pytest.raises(ValidationError, match="perturbation"):
        stability_probe(two_station, sol, 0.2, 0.2, 1.0, h=1.0)
    bad = solve_rebalancing(two_station_tight)
    assert bad.status == "beta_infeasible"
    with pytest.raises(ValidationError, match="optimal"):
        stability_probe(two_station_tight, bad, 0.2, 0.2, 0.1, h=1.0)


def balanced_pair():
    """Two stations that customers balance, with a hand-made plan that still moves both fleets.

    No station needs idle drivers, so no driver level enters the verdict.
    """
    net = StationNetwork(
        n=2,
        arrival_rate=[0.4, 0.4],
        service_rate=[0.8, 0.8],
        dest_prob=[[0.0, 1.0], [1.0, 0.0]],
        travel_time=[[0.0, 10.0], [10.0, 0.0]],
        taxi_fraction=[[0.0, 1.0], [1.0, 0.0]],
    )
    alpha = np.array([[0.0, 0.1], [0.1, 0.0]])
    beta = np.zeros((2, 2))
    plan = RebalanceAssignment(alpha, beta, *fleet_sizes(net, alpha, beta))
    return net, RebalanceSolution(assignment=plan, vehicle_objective=2.0, driver_objective=0.0)


@pytest.mark.parametrize("case", ["drains", "never_drains", "all_balanced"])
def test_probe_verdicts_equal_the_direct_reductions(make_instance, case):
    if case == "all_balanced":
        net, sol = balanced_pair()
        h, perturbation, horizon = 1.0, 0.1, None
    else:
        net = make_instance(8, 5)
        sol = solve_rebalancing(net)
        h = net.min_offdiag_travel_time() / 10
        # queues of 0.9 times the idle vehicles outlast 40 steps, by which
        # time vehicles that served them come back: the last row is not the lowest
        perturbation, horizon = (0.9, 40 * h) if case == "never_drains" else (0.1, None)
    report = stability_probe(net, sol, 0.2, 0.3, perturbation, h=h, seed=2, horizon=horizon)
    want = probe_verdicts(net, sol.assignment, 0.2, 0.3, report.trace)
    assert {key: getattr(report, key) for key in want} == want
    if case == "drains":
        assert report.passed and report.drain_time is not None
        assert report.min_idle_drivers < float("inf")
    elif case == "never_drains":
        assert report.drain_time is None and not report.customers_cleared
        assert report.min_idle_vehicles > report.trace.vehicles.min()
    else:
        assert report.min_idle_drivers == float("inf") and report.drivers_positive


def test_probe_deterministic_in_seed(two_station):
    sol = solve_rebalancing(two_station)
    a = stability_probe(two_station, sol, 0.2, 0.2, 0.1, h=1.0, seed=11)
    b = stability_probe(two_station, sol, 0.2, 0.2, 0.1, h=1.0, seed=11)
    assert np.array_equal(a.trace.customers, b.trace.customers)
    assert a.drain_time == b.drain_time
    c = stability_probe(two_station, sol, 0.2, 0.2, 0.1, h=1.0, seed=12)
    assert not np.array_equal(a.trace.vehicles[0], c.trace.vehicles[0])


def test_write_trace_csv(tmp_path, two_station):
    h = 2.0
    state = initial_state(two_station, [0.2, 0.0], [1.0, 1.0], [0.5, 0.5], h=h)
    trace = simulate(two_station, ALPHA, BETA, state, 10.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,c_1,c_2,v_1,v_2,r_1,r_2,V_total,R_total"
    assert len(lines) == trace.times.shape[0] + 1
    table = np.column_stack((
        trace.times, trace.customers, trace.vehicles, trace.drivers, trace.vehicles_total, trace.drivers_total
    ))
    # repr round-trips every float, so each cell reads back exactly
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), table)


def test_probe_is_invariant_under_rate_scaling(make_instance):
    # scaling every rate by a power of two scales every level exactly; the
    # balanced-station test must not read tiny surpluses as balanced
    net = make_instance(8, 3)
    s = 2.0**-40
    small = StationNetwork(
        n=net.n,
        arrival_rate=net.arrival_rate * s,
        service_rate=net.service_rate * s,
        dest_prob=net.dest_prob,
        travel_time=net.travel_time,
        taxi_fraction=net.taxi_fraction,
    )
    h = net.min_offdiag_travel_time() / 4
    base = stability_probe(net, solve_rebalancing(net), 0.2, 0.2, 0.1, h=h, seed=4)
    scaled = stability_probe(small, solve_rebalancing(small), 0.2, 0.2, 0.1, h=h, seed=4)
    assert np.isfinite(base.min_idle_drivers)
    assert scaled.passed == base.passed
    assert scaled.drain_time == base.drain_time
    assert scaled.min_idle_vehicles == pytest.approx(base.min_idle_vehicles * s, rel=1e-9, abs=0)
    assert scaled.min_idle_drivers == pytest.approx(base.min_idle_drivers * s, rel=1e-9, abs=0)
