"""The arrival-calendar simulator against the per-leg delay-ring integrator.

``RingStepper`` is the layout the calendar replaced: every leg ``(i, j)``
owns ``round(T[i, j] / h)`` slots of departure rates, and step ``k``
reads, then overwrites, slot ``k % steps`` of every leg.  It costs
O(sum of slots) per step and memory, but its bookkeeping is direct, so
it serves as the reference for ``simulate``.

``stepwise_run`` is ``simulate`` without steady blocks: one general step
at a time.  Blocks repeat a steady step's arithmetic in the same order,
so ``simulate`` must match it bit for bit, zero summaries included.
"""

import collections
import contextlib

import numpy as np
import pytest

from fleetbalance.fluidsim import _Engine, equilibrium_state, initial_state, simulate
from fleetbalance.network import StationNetwork
from fleetbalance.rebalance import solve_rebalancing

from conftest import build_two_station

RTOL = 1e-12


class RingStepper:
    """Per-leg ring-buffer Euler integrator with the simulator's dynamics."""

    def __init__(self, net, alpha, beta, h, customers, vehicles, drivers, steady):
        n = net.n
        self.n, self.h = n, h
        self.tail, self.head = np.nonzero(~np.eye(n, dtype=bool))
        self.steps = np.rint(net.travel_time[self.tail, self.head] / h).astype(np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.steps)[:-1]])
        self.lam, self.mu = net.arrival_rate, net.service_rate
        self.alpha_leg = alpha[self.tail, self.head]
        self.beta_leg = beta[self.tail, self.head]
        self.p_leg = net.dest_prob[self.tail, self.head]
        self.taxi_leg = net.taxi_fraction[self.tail, self.head]
        self.c = np.array(customers, dtype=float)
        self.v = np.array(vehicles, dtype=float)
        self.r = np.array(drivers, dtype=float)
        if steady:
            veh = self.lam[self.tail] * self.p_leg + self.alpha_leg
            drv = self.alpha_leg + self.beta_leg
        else:
            veh = drv = np.zeros(self.tail.shape[0])
        self.veh_buf = np.repeat(veh, self.steps)
        self.drv_buf = np.repeat(drv, self.steps)
        self.k = 0
        self.clamped = False

    def totals(self):
        return (
            self.v.sum() + self.veh_buf.sum() * self.h,
            self.r.sum() + self.drv_buf.sum() * self.h,
        )

    def advance(self):
        h, n, tail, head = self.h, self.n, self.tail, self.head
        c, v, r = self.c, self.v, self.r
        slots = self.offsets + self.k % self.steps
        arrive_v = np.bincount(head, weights=self.veh_buf[slots], minlength=n)
        arrive_r = np.bincount(head, weights=self.drv_buf[slots], minlength=n)

        vpos, rpos, cpos = v > 0, r > 0, c > 0
        cust_dep = np.where(
            vpos, np.where(cpos, np.minimum(self.mu, self.lam + c / h), self.lam), 0.0
        )
        gate = (vpos & rpos)[tail]
        reb = np.where(gate, self.alpha_leg, 0.0)
        ret = np.where(gate, self.beta_leg, 0.0)
        out_v = cust_dep + np.bincount(tail, weights=reb, minlength=n)
        out_r = np.bincount(tail, weights=reb + ret, minlength=n)

        sv, sr = np.ones(n), np.ones(n)
        for scale, level, arrive, out in ((sv, v, arrive_v, out_v), (sr, r, arrive_r, out_r)):
            short = level + h * (arrive - out) < 0
            scale[short] = (level[short] / h + arrive[short]) / out[short]
        self.clamped |= bool(np.any(sv < 1) or np.any(sr < 1))

        cust_f = cust_dep * sv
        reb_f = reb * np.minimum(sv, sr)[tail]
        ret_f = np.minimum(ret * sr[tail], self.taxi_leg * (cust_f[tail] * self.p_leg))

        self.c = np.maximum(c + h * (self.lam - cust_f), 0.0)
        self.v = np.maximum(
            v + h * (arrive_v - cust_f - np.bincount(tail, weights=reb_f, minlength=n)), 0.0
        )
        self.r = np.maximum(
            r + h * (arrive_r - np.bincount(tail, weights=reb_f + ret_f, minlength=n)), 0.0
        )
        self.veh_buf[slots] = cust_f[tail] * self.p_leg + reb_f
        self.drv_buf[slots] = reb_f + ret_f
        self.k += 1


def ring_run(ring, steps):
    """Levels and totals of the ring at steps 0..steps, stacked per field."""
    rows = []
    for k in range(steps + 1):
        rows.append((ring.c.copy(), ring.v.copy(), ring.r.copy(), *ring.totals()))
        if k < steps:
            ring.advance()
    return [np.array(col) for col in zip(*rows)]


def assert_close(actual, expected, scale, label):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale, err_msg=label)


def assert_trace_matches(trace, ring_cols, scale):
    for name, got, want in zip(
        ("customers", "vehicles", "drivers", "vehicles_total", "drivers_total"),
        (trace.customers, trace.vehicles, trace.drivers, trace.vehicles_total, trace.drivers_total),
        ring_cols,
    ):
        assert_close(got, want, scale, name)


def perturbed_start(net, seed):
    """Probe-like start: solved assignment, idle stock with jitter, queues."""
    a = solve_rebalancing(net).assignment
    rng = np.random.default_rng(seed)
    v0 = 0.2 * a.min_vehicles / net.n * rng.uniform(0.8, 1.2, net.n)
    r0 = 0.2 * a.min_drivers / net.n * rng.uniform(0.8, 1.2, net.n)
    return a, 0.1 * v0, v0, r0


@pytest.mark.parametrize("n,seed", [(4, 7), (6, 13), (9, 21)])
def test_simulate_matches_ring_on_generated_instances(make_instance, n, seed):
    net = make_instance(n, seed)
    h = net.min_offdiag_travel_time() / 5
    a, c0, v0, r0 = perturbed_start(net, seed)
    ring = RingStepper(net, a.vehicle_rates, a.driver_rates, h, c0, v0, r0, steady=True)
    assert len(set(ring.steps.tolist())) > 3  # unequal delays
    steps = int(round(2.5 * net.max_travel_time() / h))
    init = equilibrium_state(net, a.vehicle_rates, a.driver_rates, c0, v0, r0, h)
    scale = float(np.sum(ring.totals()))
    assert init.totals == pytest.approx(ring.totals(), rel=RTOL)

    trace = simulate(net, a.vehicle_rates, a.driver_rates, init, steps * h)
    assert trace.times.shape == (steps + 1,)
    assert_trace_matches(trace, ring_run(ring, steps), scale)


def test_repeated_steps_match_ring_far_from_equilibrium(make_instance):
    # empty roads, queues and scarce idle stock: clamping binds early on.
    # A clamped queue lands on rounding noise (0 or ~1e-17) and the gates
    # read that noise, so the two layouts can only agree past a clamp if
    # their arrivals round alike: with two legs into each station an
    # arrival is a sum of two terms, which rounds the same in any order.
    net = make_instance(3, 3)
    h = net.min_offdiag_travel_time() / 4
    a = solve_rebalancing(net).assignment
    rng = np.random.default_rng(2)
    c0, v0, r0 = rng.uniform(0, 2, 3), rng.uniform(0, 0.02, 3), rng.uniform(0, 0.01, 3)
    ring = RingStepper(net, a.vehicle_rates, a.driver_rates, h, c0, v0, r0, steady=False)
    assert len(set(ring.steps.tolist())) == 3
    state = initial_state(net, c0, v0, r0, h)
    scale = float(np.sum(ring.totals()) + c0.sum())
    for k in range(int(round(4 * net.max_travel_time() / h))):
        state = simulate(net, a.vehicle_rates, a.driver_rates, state, h).final
        ring.advance()
        label = f"step {k + 1}"
        assert_close(state.customers, ring.c, scale, label)
        assert_close(state.vehicles, ring.v, scale, label)
        assert_close(state.drivers, ring.r, scale, label)
        assert_close(state.totals, ring.totals(), scale, label)
    assert ring.clamped
    assert state.step_index == ring.k


@pytest.mark.parametrize("support", ["empty", "every leg"])
def test_support_extremes_match_ring_from_empty_roads(make_instance, support):
    # alpha = beta = 0 leaves the engine no rebalancing legs at all (no
    # driver departures, station sums over no legs); positive rates on
    # every leg make the support all n(n-1) legs.  Three stations, as in
    # the clamped run above, so both layouts round their arrivals alike.
    net = make_instance(3, 5)
    h = net.min_offdiag_travel_time() / 4
    rng = np.random.default_rng(8)
    if support == "empty":
        alpha = beta = np.zeros((3, 3))
    else:
        off = 1.0 - np.eye(3)
        alpha, beta = rng.uniform(0.05, 0.3, (2, 3, 3)) * off
    c0, v0, r0 = rng.uniform(0, 2, 3), rng.uniform(0, 0.02, 3), rng.uniform(0, 0.01, 3)
    ring = RingStepper(net, alpha, beta, h, c0, v0, r0, steady=False)
    init = initial_state(net, c0, v0, r0, h)
    steps = int(round(4 * net.max_travel_time() / h))

    engine = _Engine(net, alpha, beta, init)
    assert engine.sup.size == (0 if support == "empty" else 6)
    for _ in range(steps):
        engine.advance()
    vehicle_buffer, driver_buffer = engine.buffers()
    assert np.any(vehicle_buffer > 0)
    assert np.all(driver_buffer == 0) == (support == "empty")

    trace = simulate(net, alpha, beta, init, steps * h)
    assert_trace_matches(trace, ring_run(ring, steps), float(np.sum(ring.totals()) + c0.sum()))
    assert ring.clamped


def test_resumed_snapshot_matches_ring(make_instance):
    net = make_instance(7, 9)
    h = net.min_offdiag_travel_time() / 4
    a, c0, v0, r0 = perturbed_start(net, 9)
    ring = RingStepper(net, a.vehicle_rates, a.driver_rates, h, c0, v0, r0, steady=True)
    state = equilibrium_state(net, a.vehicle_rates, a.driver_rates, c0, v0, r0, h)
    # stop mid-delay so the calendar rows are out of phase with step 0
    first = int(ring.steps.max()) // 2 + 3
    state = simulate(net, a.vehicle_rates, a.driver_rates, state, first * h).final
    assert state.step_index == first
    more = int(round(2 * net.max_travel_time() / h))
    trace = simulate(net, a.vehicle_rates, a.driver_rates, state, more * h)
    assert trace.times[0] == pytest.approx(first * h)

    cols = ring_run(ring, first + more)
    assert_trace_matches(trace, [col[first:] for col in cols], float(np.sum(ring.totals())))


@pytest.mark.parametrize("start", ["perturbed equilibrium", "cold"])
def test_a_run_resumed_from_its_final_state_matches_one_run(make_instance, start):
    net = make_instance(7, 1)
    h = net.min_offdiag_travel_time() / 10
    a, c0, v0, r0 = perturbed_start(net, 1)
    if start == "cold":
        # empty roads, long queues and three times the idle stock: idle
        # levels keep crossing 0, so the run takes mostly general steps
        init = initial_state(net, 10 * c0, 3 * v0, 3 * r0, h)
    else:
        init = equilibrium_state(net, a.vehicle_rates, a.driver_rates, c0, v0, r0, h)
    steps = int(round(4 * net.max_travel_time() / h))
    whole = simulate(net, a.vehicle_rates, a.driver_rates, init, steps * h)
    # split mid-delay, so the calendar rows are out of phase with step 0;
    # from the equilibrium, the split falls inside one of whole's blocks
    first = init.legs.depth // 2 + 3
    head = simulate(net, a.vehicle_rates, a.driver_rates, init, first * h)
    tail = simulate(net, a.vehicle_rates, a.driver_rates, head.final, (steps - first) * h)
    assert head.final.step_index == first and tail.final.step_index == whole.final.step_index == steps
    assert np.array_equal(np.concatenate((head.times, tail.times[1:])), whole.times)
    assert np.array_equal(np.concatenate((head.levels, tail.levels[1:])), whole.levels)
    assert np.array_equal(tail.final.levels, whole.final.levels)
    assert np.array_equal(tail.final.calendars, whole.final.calendars)
    assert np.array_equal(head.zero_hits + tail.zero_hits, whole.zero_hits)
    assert np.array_equal(np.fmin(head.first_zero, tail.first_zero), whole.first_zero, equal_nan=True)
    np.testing.assert_allclose(head.time_at_zero + tail.time_at_zero, whole.time_at_zero, rtol=RTOL)
    # a state's totals are the first row of a run from it and the last of the run that ends in it, bit for bit
    for state, trace in ((init, whole), (head.final, tail)):
        assert np.array_equal(state.totals, trace.totals[0])
        assert np.array_equal(trace.final.totals, trace.totals[-1])
    # queues drain in both runs; idle levels hit 0 on the cold start only
    assert np.all(whole.zero_hits[0] > 0)
    assert np.any(whole.zero_hits[1:] > 0) == (start == "cold")


def test_running_totals_equal_full_sums_under_clamping(make_instance):
    net = make_instance(6, 4)
    h = net.min_offdiag_travel_time() / 4
    a = solve_rebalancing(net).assignment
    rng = np.random.default_rng(5)
    c0, v0, r0 = rng.uniform(0, 2, 6), rng.uniform(0, 0.02, 6), rng.uniform(0, 0.01, 6)
    init = equilibrium_state(net, a.vehicle_rates, a.driver_rates, c0, v0, r0, h)
    engine = _Engine(net, a.vehicle_rates, a.driver_rates, init)
    reached = np.zeros((3, 6), dtype=bool)
    for _ in range(int(round(3 * net.max_travel_time() / h))):
        engine.advance()
        reached |= engine.zero
        running = engine.levels[1:].sum(axis=1) + (engine.transit + engine.moved) * h
        assert running == pytest.approx(full_totals(engine), rel=RTOL)
    # idle stock only reaches exactly zero through a clamp
    assert np.all(reached[1:].any(axis=1))


def test_calendar_cells_are_the_reported_slots(make_instance):
    net = make_instance(8, 2)
    h = net.min_offdiag_travel_time() / 10
    a = solve_rebalancing(net).assignment
    state = equilibrium_state(
        net, a.vehicle_rates, a.driver_rates, np.zeros(8), np.ones(8), np.ones(8), h
    )
    legs = state.legs
    assert legs.total_slots == state.vehicle_buffer.size == state.driver_buffer.size
    assert state.vehicle_buffer.shape == (int(legs.steps.max()), 8)
    # far fewer cells than the per-leg rings would hold
    assert legs.total_slots < legs.steps.sum()
    empty = initial_state(net, np.zeros(8), np.ones(8), np.ones(8), h)
    assert empty.legs.total_slots == empty.vehicle_buffer.size == empty.driver_buffer.size


def test_steady_calendar_rows(make_instance):
    net = make_instance(5, 3)
    h = net.min_offdiag_travel_time() / 4
    a = solve_rebalancing(net).assignment
    state = equilibrium_state(
        net, a.vehicle_rates, a.driver_rates, np.zeros(5), np.ones(5), np.ones(5), h
    )
    legs = state.legs
    tail, head = np.nonzero(~np.eye(5, dtype=bool))
    drv = a.vehicle_rates[tail, head] + a.driver_rates[tail, head]
    assert np.all(state.driver_buffer >= 0)
    for t in range(legs.depth):
        live = legs.steps > t
        want = np.bincount(head[live], weights=drv[live], minlength=5)
        np.testing.assert_allclose(state.driver_buffer[t], want, rtol=RTOL, atol=0)
    # the last row only holds the longest legs; stations no such leg
    # enters are exactly empty there
    longest = legs.steps == legs.depth
    assert np.all(state.driver_buffer[-1][~np.isin(np.arange(5), head[longest])] == 0)
    assert state.driver_buffer.sum() * h == pytest.approx(h * np.sum(legs.steps * drv), rel=RTOL)


def full_totals(engine):
    """Vehicle and driver totals of an engine from full sums of its live rows."""
    return engine.levels[1:].sum(axis=1) + engine.buffers().reshape(2, -1).sum(axis=1) * engine.h


def stepwise_run(net, alpha, beta, init, horizon):
    """Times, levels, totals, zero summaries and final calendars of ``simulate`` run one general step at a time.

    The summaries are counted here, from the levels after each step.
    """
    engine = _Engine(net, alpha, beta, init)
    steps = max(1, int(round(horizon / init.h)))
    levels, moved = [engine.levels.copy()], [engine.moved.copy()]
    zero = engine.levels <= 0
    at_zero, hits = np.zeros((2, 3, net.n), dtype=np.int64)
    first_zero = np.full((3, net.n), np.nan)
    for _ in range(steps):
        at_zero += zero
        engine.advance()
        after = engine.levels <= 0
        hit = after & ~zero
        hits += hit
        first_zero[hit & np.isnan(first_zero)] = engine.step_index * init.h
        zero = after
        levels.append(engine.levels.copy())
        moved.append(engine.moved.copy())
    levels, moved = np.array(levels), np.array(moved)
    totals = levels[:, 1:].sum(axis=2) + (engine.transit + moved) * init.h
    totals[-1] = full_totals(engine)
    times = (init.step_index + np.arange(steps + 1)) * init.h
    return times, levels, totals, (init.h * at_zero, hits, first_zero), engine.buffers().copy()


def assert_same_run(monkeypatch, net, alpha, beta, init, horizon):
    """``simulate`` equals ``stepwise_run``; returns its trace and how many general steps it took."""
    times, levels, totals, summaries, calendars = stepwise_run(net, alpha, beta, init, horizon)
    calls = [0]
    advance = _Engine.advance

    def counted(self):
        calls[0] += 1
        advance(self)

    with monkeypatch.context() as patch:
        patch.setattr(_Engine, "advance", counted)
        trace = simulate(net, alpha, beta, init, horizon)
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.levels, levels)
    assert np.array_equal(np.stack((trace.vehicles_total, trace.drivers_total), axis=1), totals)
    for got, want in zip((trace.time_at_zero, trace.zero_hits, trace.first_zero), summaries):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(trace.final.calendars, calendars)
    return trace, calls[0]


@pytest.mark.parametrize("divisor", [10, 4])
def test_blocks_match_single_steps_after_a_perturbation(make_instance, monkeypatch, divisor):
    net = make_instance(8, 5)
    h = net.min_offdiag_travel_time() / divisor
    a, c0, v0, r0 = perturbed_start(net, 5)
    init = equilibrium_state(net, a.vehicle_rates, a.driver_rates, c0, v0, r0, h)
    assert _Engine(net, a.vehicle_rates, a.driver_rates, init).block_steps == divisor
    horizon = 3 * net.max_travel_time()
    trace, general = assert_same_run(monkeypatch, net, a.vehicle_rates, a.driver_rates, init, horizon)
    # the queues drain early, and blocks run the rest
    assert np.all(trace.customers[0] > 0) and np.all(trace.customers[-1] == 0)
    assert general < 0.2 * int(round(horizon / h))


def test_steady_run_takes_few_general_steps(make_instance, monkeypatch):
    net = make_instance(8, 5)
    h = net.min_offdiag_travel_time() / 10
    a, _, v0, r0 = perturbed_start(net, 5)
    init = equilibrium_state(net, a.vehicle_rates, a.driver_rates, np.zeros(8), v0, r0, h)
    trace, general = assert_same_run(
        monkeypatch, net, a.vehicle_rates, a.driver_rates, init, 3 * net.max_travel_time()
    )
    assert general < 0.2 * (trace.times.size - 1)


def cold_start(net, fleet):
    """Solved assignment and a state at h = min T / 10: empty roads, queues, ``fleet`` times the minimum fleets."""
    a = solve_rebalancing(net).assignment
    rng = np.random.default_rng(1)
    c0 = rng.uniform(0, 1, net.n)
    v0 = fleet * a.min_vehicles / net.n * rng.uniform(0.5, 1.5, net.n)
    r0 = fleet * a.min_drivers / net.n * rng.uniform(0.5, 1.5, net.n)
    return a, initial_state(net, c0, v0, r0, net.min_offdiag_travel_time() / 10)


@pytest.mark.parametrize("fleet", [1.5, 3.0])
def test_blocks_match_single_steps_from_a_cold_start(make_instance, monkeypatch, fleet):
    # at 1.5 times the minimum fleets the queues never clear, at 3 times
    # they do and the run settles into blocks
    net = make_instance(7, 1)
    a, init = cold_start(net, fleet)
    trace, general = assert_same_run(
        monkeypatch, net, a.vehicle_rates, a.driver_rates, init, 20 * net.max_travel_time()
    )
    # levels hit 0, and levels leave it: a level leaves 0 as often as it
    # hits it, plus once if it starts at 0, minus once if it ends there
    left = trace.zero_hits + (init.levels <= 0) - (trace.final.levels <= 0)
    assert np.any(trace.zero_hits > 0) and np.any(left > 0)
    assert (general < 0.2 * (trace.times.size - 1)) == (fleet == 3.0)


def test_blocks_keep_a_closed_gate_at_a_balanced_station(monkeypatch):
    # station 2 receives as many customers as it sends: no rebalancing
    # touches it, so it needs no idle drivers and its gate stays shut
    net = StationNetwork(
        n=3,
        arrival_rate=np.array([2.0, 1.0, 1.0]),
        service_rate=np.array([4.0, 2.0, 2.0]),
        dest_prob=np.array([[0.0, 0.75, 0.25], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]),
        travel_time=np.array([[0.0, 4.0, 5.0], [4.0, 0.0, 3.0], [5.0, 3.0, 0.0]]),
        taxi_fraction=1.0 - np.eye(3),
    )
    a = solve_rebalancing(net).assignment
    assert np.all(a.vehicle_rates[2] == 0) and np.all(a.vehicle_rates[:, 2] == 0)
    init = equilibrium_state(
        net, a.vehicle_rates, a.driver_rates, np.zeros(3), np.ones(3), np.array([1.0, 1.0, 0.0]), 0.25
    )
    trace, general = assert_same_run(monkeypatch, net, a.vehicle_rates, a.driver_rates, init, 40.0)
    assert np.all(trace.drivers[:, 2] == 0) and np.all(trace.drivers[:, :2] > 0)
    assert general < 0.2 * (trace.times.size - 1)


def test_blocks_end_on_the_nominal_outflow_clamp(two_station_tight, monkeypatch):
    # return rides 0 -> 1 are asked at 0.3 but capped at f * 0.4 = 0.2, so
    # drivers leave station 0 at 0.3 (with alpha 0.1), nominally 0.4.  On
    # empty roads nothing arrives for 10 steps; at step 9, with
    # 0.3 <= r_0 < 0.4, the step clamps on the nominal outflow although
    # the capped one fits, and the clamp scales alpha down.  A test on the
    # capped outflow alone would run that step unclamped.  From step 10 on,
    # drivers arrive at 0.5 and no step clamps: the clamped departures of
    # step 9 must not be repeated.
    net = two_station_tight
    alpha = np.array([[0.0, 0.1], [0.5, 0.0]])
    beta = np.array([[0.0, 0.3], [0.0, 0.0]])
    init = initial_state(net, np.zeros(2), np.full(2, 10.0), np.array([3.05, 10.0]), 1.0)
    trace, general = assert_same_run(monkeypatch, net, alpha, beta, init, 30.0)
    r0 = trace.drivers[:, 0]
    assert np.flatnonzero((r0 >= 0.3) & (r0 < 0.4)).tolist() == [9]
    # clamped: alpha left at 0.1 * r_0 / 0.4, so r_0 fell by less than 0.3
    assert r0[9] - r0[10] == pytest.approx(0.1 * r0[9] / 0.4 + 0.2)
    assert np.all(np.diff(r0[10:]) > 0)
    assert general < 10


def test_blocks_end_when_an_idle_level_leaves_zero(two_station, monkeypatch):
    # no idle drivers at station 0: its gate is shut until the first
    # rebalancing trip from station 1 lands, 10 steps in, and opens it
    alpha = np.array([[0.0, 0.0], [0.3, 0.0]])
    beta = np.array([[0.0, 0.3], [0.0, 0.0]])
    init = initial_state(two_station, np.zeros(2), np.full(2, 10.0), np.array([0.0, 10.0]), 1.0)
    trace, general = assert_same_run(monkeypatch, two_station, alpha, beta, init, 30.0)
    # steps 0 to 10 began with r_0 at 0, and no level hit 0
    assert trace.zero_hits.sum() == 0 and np.all(np.isnan(trace.first_zero))
    assert np.array_equal(trace.time_at_zero, [[30.0, 30.0], [0.0, 0.0], [11.0, 0.0]])
    assert general < 10


@contextlib.contextmanager
def recorded_blocks(monkeypatch):
    """Records every ``repeat`` of the runs inside: (engine, first step, count, steps kept)."""
    blocks = []
    repeat = _Engine.repeat

    def recorded(self, levels, moved):
        start = self.step_index
        kept = repeat(self, levels, moved)
        blocks.append((self, start, len(levels) - 1, kept))
        return kept

    with monkeypatch.context() as patch:
        patch.setattr(_Engine, "repeat", recorded)
        yield blocks


def test_blocks_grow_past_the_shortest_delay_across_the_calendar_end(make_instance, monkeypatch):
    net = make_instance(8, 5)
    h = net.min_offdiag_travel_time() / 10
    a, _, v0, r0 = perturbed_start(net, 5)
    init = equilibrium_state(net, a.vehicle_rates, a.driver_rates, np.zeros(8), v0, r0, h)
    with recorded_blocks(monkeypatch) as blocks:
        assert_same_run(monkeypatch, net, a.vehicle_rates, a.driver_rates, init, 3 * net.max_travel_time())
    engine = blocks[0][0]
    depth, shortest = engine.legs.depth, engine.shortest
    # blocks start at the shortest delay and double; the kept steps of a
    # long one run through calendar row D - 1 and on from row 0
    assert blocks[0][2] == shortest and blocks[1][2] == 2 * shortest
    assert any(kept > shortest and start // depth != (start + kept - 1) // depth for _, start, _, kept in blocks)


def draining_drivers(drivers):
    """Two stations, delays of 10 and 40 steps at h = 1, whose steady run takes station 0's idle drivers down by 0.3 a step.

    Drivers leave station 0 at 0.4 and come back at 0.1.  Returns the
    network, alpha, beta and the equilibrium state with ``drivers`` idle
    drivers at station 0.
    """
    net = StationNetwork(
        n=2,
        arrival_rate=np.array([0.4, 0.1]),
        service_rate=np.array([0.8, 0.2]),
        dest_prob=np.array([[0.0, 1.0], [1.0, 0.0]]),
        travel_time=np.array([[0.0, 10.0], [40.0, 0.0]]),
        taxi_fraction=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    alpha = np.array([[0.0, 0.1], [0.1, 0.0]])
    beta = np.array([[0.0, 0.3], [0.0, 0.0]])
    init = equilibrium_state(net, alpha, beta, np.zeros(2), np.full(2, 100.0), np.array([drivers, 1.0]), 1.0)
    return net, alpha, beta, init


@pytest.mark.parametrize("drivers,kept,first_zero", [(20.0, 35, 69.0), (9.45, 0, 34.0), (21.15, 39, 73.0)])
def test_a_long_block_cut_short_posts_only_its_kept_steps(monkeypatch, drivers, kept, first_zero):
    # r_0 falls by 0.3 a step, and a step that starts it below 0.3 clamps.
    # From 20 idle drivers the first clamp comes 66 steps in, so the third
    # block, steps 31 to 70, keeps 35; from 9.45 it keeps none, and from
    # 21.15 all but its last.  Its steps read the posts of delay 10 that
    # its earlier steps make, and the dropped steps' departures would
    # arrive 10 to 40 steps later, inside the horizon.
    net, alpha, beta, init = draining_drivers(drivers)
    with recorded_blocks(monkeypatch) as blocks:
        trace, _ = assert_same_run(monkeypatch, net, alpha, beta, init, 120.0)
    assert [(start, count, m) for _, start, count, m in blocks[:3]] == [(1, 10, 10), (11, 20, 20), (31, 40, kept)]
    assert blocks[0][0].shortest == 10
    assert np.nanmin(trace.first_zero) == trace.first_zero[2, 0] == first_zero


Block = collections.namedtuple("Block", "start count kept into window_before base_before window_after base_after")


@contextlib.contextmanager
def recorded_windows(monkeypatch):
    """Records every ``repeat`` of the runs inside as a ``Block``, its window and ``base`` before and after it.

    ``into`` is the number of steps between the general step that
    started the block's chain and the block's first step.
    """
    blocks, chain_start = [], {}
    advance, repeat = _Engine.advance, _Engine.repeat

    def stepped(self):
        chain_start[self] = self.step_index
        advance(self)

    def recorded(self, levels, moved):
        start, window, base = self.step_index, self.cal.copy(), self.base
        kept = repeat(self, levels, moved)
        blocks.append(
            Block(start, len(levels) - 1, kept, start - chain_start[self], window, base, self.cal.copy(), self.base)
        )
        return kept

    with monkeypatch.context() as patch:
        patch.setattr(_Engine, "advance", stepped)
        patch.setattr(_Engine, "repeat", recorded)
        yield blocks


def test_blocks_a_delay_into_their_chain_leave_the_window_as_it_was(make_instance, monkeypatch):
    # the queues drain early and one chain runs on for longer than D steps.
    # From D steps into it, every live row holds the chain's posts alone,
    # so the rows hold the same floats a step later: a block posts nothing
    # and moves no row, only the step its window starts at
    net = make_instance(8, 5)
    h = net.min_offdiag_travel_time() / 10
    a, c0, v0, r0 = perturbed_start(net, 5)
    init = equilibrium_state(net, a.vehicle_rates, a.driver_rates, c0, v0, r0, h)
    depth = init.legs.depth
    with recorded_windows(monkeypatch) as blocks:
        assert_same_run(monkeypatch, net, a.vehicle_rates, a.driver_rates, init, 3 * net.max_travel_time())
    late = [block for block in blocks if block.into >= depth]
    assert len(late) >= 3 and sum(block.kept for block in late) > depth
    for block in late:
        assert np.array_equal(block.window_after, block.window_before)
        assert block.base_after == block.base_before + block.kept
    # blocks earlier in a chain post their steps
    assert all(not np.array_equal(b.window_after, b.window_before) for b in blocks if b.into < depth and b.kept)


def test_a_block_a_delay_into_its_chain_cut_short_matches_single_steps(monkeypatch):
    # from 30 idle drivers the chain started by step 0 outlives D = 40
    # steps: its fourth block, steps 71 to 110, posts nothing and is cut
    # where r_0, down to 0.3, would clamp.  The general steps after the cut
    # take the rows as the block left them; r_0 lands on 0 at step 100
    net, alpha, beta, init = draining_drivers(30.0)
    with recorded_windows(monkeypatch) as blocks:
        trace, general = assert_same_run(monkeypatch, net, alpha, beta, init, 120.0)
    assert [(b.start, b.count, b.kept, b.into) for b in blocks] == [
        (1, 10, 10, 1), (11, 20, 20, 11), (31, 40, 40, 31), (71, 40, 28, 71)
    ]
    cut = blocks[-1]
    assert np.array_equal(cut.window_after, cut.window_before) and cut.base_after == cut.base_before + 28
    assert np.all(np.diff(trace.drivers[:100, 0]) < 0)
    assert trace.first_zero[2, 0] == 100.0
    # steps 0 and 99 to 119 ran one at a time
    assert general == 1 + 120 - 99


@pytest.mark.parametrize("below", [False, True])
def test_a_block_at_the_clamp_bound_keeps_its_step(monkeypatch, below):
    # return rides 0 -> 1 are asked at 0.75 but capped at f * lambda =
    # 2^-6: drivers leave station 0 at 2^-6 a step, nominally at
    # h * out = 0.75, and none ever arrive there.  r_0 stays in [0.5, 1),
    # where doubles are the multiples of 2^-53, so it falls by exactly 2^-6
    # a step: the first block, steps 1 to 10, starts step 10 at exactly
    # h * out, or one ulp below.  At h * out no step can clamp and the block keeps all ten;
    # one ulp below, the full test finds r_0 + h * (0 - out) < 0 at step
    # 10, although the step would leave r_0 above 0, and the block ends
    # there.
    net = StationNetwork(
        n=2,
        arrival_rate=np.array([0.25, 0.25]),
        service_rate=np.array([0.5, 0.5]),
        dest_prob=np.array([[0.0, 1.0], [1.0, 0.0]]),
        travel_time=np.array([[0.0, 10.0], [10.0, 0.0]]),
        taxi_fraction=np.array([[0.0, 2.0**-4], [1.0, 0.0]]),
    )
    alpha = np.zeros((2, 2))
    beta = np.array([[0.0, 0.75], [0.0, 0.0]])
    h_out = 1.0 * (alpha[0, 1] + beta[0, 1])
    level = np.nextafter(h_out, 0.0) if below else h_out
    init = initial_state(net, np.zeros(2), np.full(2, 100.0), np.array([level + 10 * 2.0**-6, 1.0]), 1.0)
    with recorded_blocks(monkeypatch) as blocks:
        trace, _ = assert_same_run(monkeypatch, net, alpha, beta, init, 30.0)
    r0 = trace.drivers[:, 0]
    assert r0[10] == level and r0[10] - 2.0**-6 > 0
    assert (r0[10] + 1.0 * (0.0 - h_out) < 0) == below
    _, start, count, kept = blocks[0]
    assert (start, count, kept) == (1, 10, 9 if below else 10)


@contextlib.contextmanager
def recorded_moves(monkeypatch):
    """Records every window move of the runs inside: (engine, step of the move)."""
    moves = []
    row = _Engine._row

    def recorded(self, count):
        base = self.base
        found = row(self, count)
        if self.base != base:
            moves.append((self, self.step_index))
        return found

    with monkeypatch.context() as patch:
        patch.setattr(_Engine, "_row", recorded)
        yield moves


def test_blocks_cut_at_window_moves_match_single_steps(make_instance, monkeypatch):
    # the cold start at 3 times the minimum fleets: the queues clear, and
    # blocks run, cut short where an idle level nears 0, while the window
    # moves every few dozen steps until the last chain is D steps old
    net = make_instance(7, 1)
    a, init = cold_start(net, 3.0)
    h = init.h
    steps = int(round(20 * net.max_travel_time() / h))
    with recorded_blocks(monkeypatch) as blocks, recorded_moves(monkeypatch) as moves:
        whole, _ = assert_same_run(monkeypatch, net, a.vehicle_rates, a.driver_rates, init, steps * h)
    engine = blocks[0][0]
    moved = [step for owner, step in moves if owner is engine]
    assert len(moved) >= 3
    starts = [start for _, start, _, _ in blocks] + [steps]
    cut = [i for i, (_, start, count, kept) in enumerate(blocks) if kept < count]
    # a block cut short right after the window moved for it
    assert any(starts[i] in moved for i in cut)
    # a block cut short right before a move: the window moves before the
    # next block runs, or for it
    assert any(
        starts[i] not in moved and any(starts[i] < step <= starts[i + 1] for step in moved) for i in cut
    )

    # resumed from a state taken between two moves.  A resumed run starts a
    # new chain, and from D steps into a chain blocks move no rows: the
    # tail moves its window twice, in the first D steps of its chain
    first = moved[1] + 3
    head = simulate(net, a.vehicle_rates, a.driver_rates, init, first * h)
    with recorded_blocks(monkeypatch) as blocks, recorded_moves(monkeypatch) as moves:
        tail, _ = assert_same_run(monkeypatch, net, a.vehicle_rates, a.driver_rates, head.final, (steps - first) * h)
    assert sum(owner is blocks[0][0] for owner, _ in moves) == 2
    assert np.array_equal(tail.levels, whole.levels[first:])
    assert np.array_equal(tail.final.calendars, whole.final.calendars)


def test_a_queue_draining_at_mu_runs_in_blocks(two_station, monkeypatch):
    # station 0's queue of 20 is served at mu = 0.8 while 0.4 arrive: it
    # drains over 50 steps, which blocks run
    a = solve_rebalancing(two_station).assignment
    init = equilibrium_state(
        two_station, a.vehicle_rates, a.driver_rates, np.array([20.0, 0.0]), np.array([30.0, 5.0]), np.full(2, 5.0), 1.0
    )
    trace, general = assert_same_run(monkeypatch, two_station, a.vehicle_rates, a.driver_rates, init, 100.0)
    assert np.all(trace.customers[:51, 0] > 0) and np.all(trace.customers[51:] == 0)
    assert trace.zero_hits.sum() == trace.zero_hits[0, 0] == 1 and trace.first_zero[0, 0] == 51.0
    assert np.array_equal(trace.time_at_zero, [[49.0, 100.0], [0.0, 0.0], [0.0, 0.0]])
    assert general <= 3


def test_a_block_ends_where_the_drain_rate_reaches_mu(monkeypatch):
    # a queue of 2.5 served at mu = 0.47 while 0.22 arrive: after 9 steps
    # it holds 0.25, and lam + c / h rounds to mu exactly, so step 9 is
    # served at its drain rate and lands on 0, although c + h * (lam - mu)
    # is 2.8e-17.  A block that checked only for crossings would keep it.
    net = StationNetwork(
        n=2,
        arrival_rate=np.array([0.22, 0.1]),
        service_rate=np.array([0.47, 0.2]),
        dest_prob=np.array([[0.0, 1.0], [1.0, 0.0]]),
        travel_time=np.array([[0.0, 10.0], [10.0, 0.0]]),
        taxi_fraction=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    rates = np.zeros((2, 2))
    init = equilibrium_state(net, rates, rates, np.array([2.5, 0.0]), np.full(2, 100.0), np.full(2, 5.0), 1.0)
    trace, general = assert_same_run(monkeypatch, net, rates, rates, init, 30.0)
    c = trace.customers[:, 0]
    assert 0.22 + c[9] == 0.47 and c[9] + (0.22 - 0.47) > 0
    assert c[10] == 0 and trace.first_zero[0, 0] == 10.0
    assert trace.zero_hits.sum() == trace.zero_hits[0, 0] == 1
    assert np.array_equal(trace.time_at_zero, [[20.0, 30.0], [0.0, 0.0], [0.0, 0.0]])
    assert general <= 3


@pytest.mark.parametrize("n,seed", [(8, 5), (12, 3)])
def test_blocks_never_exceed_the_calendar_sized_cap(make_instance, monkeypatch, n, seed):
    net = make_instance(n, seed)
    h = net.min_offdiag_travel_time() / 10
    a, c0, v0, r0 = perturbed_start(net, seed)
    init = equilibrium_state(net, a.vehicle_rates, a.driver_rates, c0, v0, r0, h)
    with recorded_blocks(monkeypatch) as blocks:
        assert_same_run(monkeypatch, net, a.vehicle_rates, a.driver_rates, init, 3 * net.max_travel_time())
    engine = blocks[0][0]
    cap = max(engine.shortest, 2 * engine.legs.total_slots // engine.fleet_cell.size)
    counts = [count for _, _, count, _ in blocks]
    assert max(counts) == cap > engine.shortest
