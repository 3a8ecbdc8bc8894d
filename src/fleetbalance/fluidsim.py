"""Fluid simulation of queue levels under a fixed rebalancing assignment.

State per station: waiting customers ``c``, idle vehicles ``v``, idle
employed drivers ``r``.  Everything in transit lives in arrival
calendars (see Integration).  The dynamics are threshold-gated rate equations:

* customers depart station ``i`` at rate ``mu[i]`` while a queue is
  present and a vehicle is idle, at rate ``lambda[i]`` when vehicles are
  idle but no queue has formed, and not at all without vehicles;
* empty-vehicle rebalancing trips leave at rate ``alpha[i, j]`` while
  both an idle vehicle and an idle driver are present;
* driver-return rides leave at rate ``beta[i, j]`` under the same
  gating, additionally capped by ``taxi_fraction`` times the customer
  departure flow actually happening on that leg this step.

Gates read "present" as strictly positive: a level exactly 0 emits
nothing.  A customer queue served at its drain rate ``lambda + c / h``
lands on exactly 0 at the step it drains, not on the rounding noise of
``c + h * (lambda - drain)``.  Idle vehicle and driver levels can still
land on such noise, which keeps their gates open.

Integration: explicit Euler with a fixed step ``h``, fixed when a state
is built (``initial_state``, ``equilibrium_state``); ``step`` and
``simulate`` advance by the state's own ``h``.  Travel times are
rounded to whole steps: what leaves ``i`` for ``j`` at step ``k``
arrives at ``j`` at step ``k + d``, ``d = round(T[i, j] / h)``; the
construction requires ``h <= min positive T / 4`` so every leg is at
least a few steps long.  In-transit mass lives in two arrival calendars
(vehicles in motion: customer trips plus rebalancing trips; drivers in
motion: rebalancing trips plus return rides), each of shape ``(D, n)``
with ``D`` the longest delay in steps.  Row ``k % D`` holds the rate
arriving at each station at step ``k``: a step reads and clears that
row, then adds each leg's departure rate into row ``(k + d) % D`` of its
head station.  Legs that share a delay and a head are summed first, so
a step costs O(legs + n) whatever the ratio of longest to shortest
travel time.  In-transit totals are running sums (plus what a step
writes, minus what it reads), so reading them is O(1).

Idle vehicles and idle drivers follow the same queue-and-transit
dynamics, so both fleets go through one code path: the engine stacks
their idle levels as one ``(2, n)`` array and their calendars as one
``(2, D, n)`` array, and each step clamps, posts and sums both at once.

Clamping: when a step would drive a queue negative, all outbound flows
from that queue are scaled down so the queue lands at zero, and the
scaled rates (not the nominal ones) are written into the calendars.
A rebalancing trip draws on both the vehicle and the driver queue, so it
is scaled by the smaller of the two factors, which can leave a queue
slightly above zero but never below.  Because calendar writes always
equal queue withdrawals and every write is read back exactly once, one
delay later, total vehicle and driver mass is conserved to float
rounding; there is no scheme-level drift term.  The running in-transit
sums only reorder that rounding, and ``simulate`` takes the first and
last samples of its totals from full calendar sums, so a bookkeeping
leak would still show as drift in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InsufficientFleetError, InvalidStateError, ValidationError
from .network import PROB_TOL, StationNetwork, _checked_array, _rate_matrix, compute_imbalance
from .rebalance import RebalanceSolution

ZERO_EVENT_CAP = 100_000


@dataclass(frozen=True, eq=False)
class _Legs:
    """Leg and calendar geometry shared by all states of one run.

    Legs with the same delay and head station write the same calendar
    cell each step; ``group`` numbers those (delay, head) pairs, and
    ``group_cell`` is each pair's flat offset ``delay * n + head``.
    """

    tail: np.ndarray    # leg tails, length n*(n-1)
    head: np.ndarray
    steps: np.ndarray   # delay of each leg in steps, >= 1
    group: np.ndarray   # (delay, head) group of each leg
    group_cell: np.ndarray
    depth: int          # calendar rows D = longest delay
    total_slots: int    # calendar cells D * n

    @staticmethod
    def build(net: StationNetwork, h: float) -> "_Legs":
        n = net.n
        tt = net.travel_time
        if n > 1:
            off = tt[~np.eye(n, dtype=bool)]
            if np.any(off <= 0):
                raise ValidationError(
                    "simulation requires positive travel times between distinct stations"
                )
            min_tt = float(off.min())
            if not (0 < h <= min_tt / 4):
                raise ValidationError(
                    f"step h={h:g} must satisfy 0 < h <= min travel time / 4 = {min_tt / 4:g}"
                )
        elif h <= 0:
            raise ValidationError(f"step h={h:g} must be positive")
        tails, heads = np.nonzero(~np.eye(n, dtype=bool))
        steps = np.rint(tt[tails, heads] / h).astype(np.int64)
        depth = int(steps.max()) if steps.size else 1
        cells, group = np.unique(steps * n + heads, return_inverse=True)
        return _Legs(
            tail=tails.astype(np.int64),
            head=heads.astype(np.int64),
            steps=steps,
            group=group.astype(np.int64),
            group_cell=cells.astype(np.int64),
            depth=depth,
            total_slots=depth * n,
        )

    def steady_calendar(self, leg_rate: np.ndarray, n: int) -> np.ndarray:
        """Calendar of legs that have run at ``leg_rate`` for a full delay.

        Row ``t`` holds, per head station, the rate of the legs still in
        flight at step ``t``: those with delay > t.  Built as a suffix
        sum over delays of nonnegative terms, so no entry goes negative.
        """
        by_delay = np.zeros((self.depth + 1, n))
        np.add.at(by_delay, (self.steps, self.head), leg_rate)
        return np.cumsum(by_delay[::-1], axis=0)[::-1][1:].copy()


@dataclass(frozen=True, eq=False)
class FluidState:
    """One snapshot of a run: idle levels plus both arrival calendars.

    The buffers are ``(D, n)`` calendars of arrival rates: row
    ``k % D`` holds what reaches each station at step ``k``.  The
    in-transit mass of a cell is ``h`` times its rate.
    """

    customers: np.ndarray
    vehicles: np.ndarray
    drivers: np.ndarray
    vehicle_buffer: np.ndarray
    driver_buffer: np.ndarray
    step_index: int
    h: float
    legs: _Legs

    @property
    def n(self) -> int:
        return self.customers.shape[0]

    @property
    def time(self) -> float:
        return self.step_index * self.h

    def in_transit_vehicles(self) -> float:
        return float(self.vehicle_buffer.sum()) * self.h

    def in_transit_drivers(self) -> float:
        return float(self.driver_buffer.sum()) * self.h

    def total_vehicles(self) -> float:
        return float(self.vehicles.sum()) + self.in_transit_vehicles()

    def total_drivers(self) -> float:
        return float(self.drivers.sum()) + self.in_transit_drivers()


def _state_vector(name: str, value, n: int) -> np.ndarray:
    return _checked_array(name, value, (n,), nonnegative=True, error=InvalidStateError).copy()


def initial_state(net: StationNetwork, customers, vehicles, drivers, h: float) -> FluidState:
    """State at time zero with empty roads (nothing was in transit before)."""
    legs = _Legs.build(net, float(h))
    n = net.n
    return FluidState(
        customers=_state_vector("customers", customers, n),
        vehicles=_state_vector("vehicles", vehicles, n),
        drivers=_state_vector("drivers", drivers, n),
        vehicle_buffer=np.zeros((legs.depth, n)),
        driver_buffer=np.zeros((legs.depth, n)),
        step_index=0,
        h=float(h),
        legs=legs,
    )


def equilibrium_state(
    net: StationNetwork,
    vehicle_rates,
    driver_rates,
    customers,
    vehicles,
    drivers,
    h: float,
) -> FluidState:
    """State whose calendars carry the steady departure rates.

    Matches a history in which every leg has been running at its
    assignment rate (customer trips at ``lambda * p`` plus rebalancing at
    ``alpha``; drivers at ``alpha + beta``) for at least one full travel
    time.
    """
    n = net.n
    alpha = _rate_matrix("alpha", vehicle_rates, n)
    beta = _rate_matrix("beta", driver_rates, n)
    legs = _Legs.build(net, float(h))
    veh_rate = net.arrival_rate[legs.tail] * net.dest_prob[legs.tail, legs.head] + alpha[
        legs.tail, legs.head
    ]
    drv_rate = alpha[legs.tail, legs.head] + beta[legs.tail, legs.head]
    return FluidState(
        customers=_state_vector("customers", customers, n),
        vehicles=_state_vector("vehicles", vehicles, n),
        drivers=_state_vector("drivers", drivers, n),
        vehicle_buffer=legs.steady_calendar(veh_rate, n),
        driver_buffer=legs.steady_calendar(drv_rate, n),
        step_index=0,
        h=float(h),
        legs=legs,
    )


@dataclass
class SimTrace:
    """Sampled trajectory of a run plus zero-crossing events.

    ``events`` holds ``(time, quantity, station, direction)`` tuples
    where direction is "hit_zero" or "left_zero"; at most
    ``ZERO_EVENT_CAP`` are kept (``events_dropped`` counts the rest).
    """

    times: np.ndarray
    customers: np.ndarray
    vehicles: np.ndarray
    drivers: np.ndarray
    vehicles_total: np.ndarray
    drivers_total: np.ndarray
    h: float
    events: list = field(default_factory=list)
    events_dropped: int = 0

    @property
    def n(self) -> int:
        return self.customers.shape[1]


class _Engine:
    """Mutable working copy of a state; advances it step by step.

    ``idle`` is ``(2, n)`` and ``cal`` is ``(2, D, n)``: fleet 0 the
    vehicles, fleet 1 the drivers.
    """

    QUANTITIES = ("customers", "vehicles", "drivers")

    def __init__(self, net: StationNetwork, vehicle_rates, driver_rates, state: FluidState):
        n = net.n
        if state.n != n:
            raise InvalidStateError(f"state has {state.n} stations, network has {n}")
        alpha = _rate_matrix("alpha", vehicle_rates, n)
        beta = _rate_matrix("beta", driver_rates, n)
        legs = state.legs
        for name in ("customers", "vehicles", "drivers", "vehicle_buffer", "driver_buffer"):
            shape = (legs.depth, n) if name.endswith("_buffer") else (n,)
            _checked_array(name, getattr(state, name), shape, nonnegative=True, error=InvalidStateError)
        # queued customers depart along dest_prob rows; an unnormalized row
        # would leak vehicle mass out of the conservation ledger
        queued = state.customers > 0
        if np.any(queued):
            sums = net.dest_prob[queued].sum(axis=1)
            if np.any(np.abs(sums - 1.0) > PROB_TOL):
                i = int(np.flatnonzero(queued)[np.argmax(np.abs(sums - 1.0))])
                raise InvalidStateError(
                    f"station {i} has queued customers but p row {i} does not sum to 1"
                )

        self.n = n
        self.h = state.h
        self.legs = legs
        self.c = state.customers.copy()
        self.idle = np.array((state.vehicles, state.drivers))
        self.cal = np.array((state.vehicle_buffer, state.driver_buffer))
        # in-transit rate sums: the state's full sums plus a running net
        # change (+ each step's writes, - its reads), kept apart so its
        # rounding scales with the change and not with the whole sum
        self.transit = self.cal.reshape(2, -1).sum(axis=1)
        self.moved = np.zeros(2)
        self.step_index = state.step_index
        self.zero = self._zero_mask()

        self.lam = net.arrival_rate
        self.mu = net.service_rate
        self.alpha_leg = alpha[legs.tail, legs.head]
        self.beta_leg = beta[legs.tail, legs.head]
        self.p_leg = net.dest_prob[legs.tail, legs.head]
        self.taxi_leg = net.taxi_fraction[legs.tail, legs.head]
        # (delay, head) groups of the vehicle legs, then of the driver legs
        groups = legs.group_cell.size
        self.fleet_group = np.concatenate((legs.group, legs.group + groups))
        self.events: list = []
        self.events_dropped = 0

    def _zero_mask(self) -> np.ndarray:
        """Rows customers, vehicles, drivers: True where the level is 0."""
        return np.vstack((self.c, self.idle)) <= 0

    def _log_events(self, before: np.ndarray, after: np.ndarray, time: float) -> None:
        for q, i in zip(*np.nonzero(before != after)):
            if len(self.events) >= ZERO_EVENT_CAP:
                self.events_dropped += 1
                continue
            direction = "hit_zero" if after[q, i] else "left_zero"
            self.events.append((time, self.QUANTITIES[q], int(i), direction))

    def advance(self) -> None:
        h, n, legs = self.h, self.n, self.legs
        c, idle = self.c, self.idle

        row = self.step_index % legs.depth
        arrive = self.cal[:, row].copy()
        self.cal[:, row] = 0.0

        _, vpos, rpos = ~self.zero
        # customer departures: mu while a queue drains (capped at drain, the
        # rate that empties it this step; an empty queue caps them at
        # lambda, below mu), 0 without vehicles
        drain = self.lam + c / h
        cust_dep = np.where(vpos, np.minimum(self.mu, drain), 0.0)
        gate = (vpos & rpos)[legs.tail]
        reb = np.where(gate, self.alpha_leg, 0.0)
        ret = np.where(gate, self.beta_leg, 0.0)

        out = np.array((
            cust_dep + np.bincount(legs.tail, weights=reb, minlength=n),
            np.bincount(legs.tail, weights=reb + ret, minlength=n),
        ))
        # pro-rata scale-down of queues that would go negative; a queue can
        # only go negative with a positive outflow, so the division is safe
        sv, sr = np.divide(
            idle / h + arrive, out, out=np.ones((2, n)), where=idle + h * (arrive - out) < 0
        )

        cust_f = cust_dep * sv
        reb_f = reb * np.minimum(sv, sr)[legs.tail]
        # return rides can only use customer trips that actually depart
        ret_f = np.minimum(ret * sr[legs.tail], self.taxi_leg * (cust_f[legs.tail] * self.p_leg))

        # a queue served at its drain rate lands on exactly 0, not on the
        # rounding noise of c + h * (lam - drain)
        self.c = np.where(cust_f >= drain, 0.0, np.maximum(c + h * (self.lam - cust_f), 0.0))
        out_f = np.array((
            cust_f + np.bincount(legs.tail, weights=reb_f, minlength=n),
            np.bincount(legs.tail, weights=reb_f + ret_f, minlength=n),
        ))
        self.idle = np.maximum(idle + h * (arrive - out_f), 0.0)

        # departures into their arrival rows, legs that share a fleet, a
        # delay and a head summed first so the fancy-index add sees unique cells
        dep = np.concatenate((cust_f[legs.tail] * self.p_leg + reb_f, reb_f + ret_f))
        by_cell = np.bincount(self.fleet_group, weights=dep)
        cells = (self.step_index * n + legs.group_cell) % legs.total_slots
        self.cal.reshape(-1)[np.concatenate((cells, cells + legs.total_slots))] += by_cell
        self.moved += by_cell.reshape(2, -1).sum(axis=1) - arrive.sum(axis=1)
        self.step_index += 1

        after = self._zero_mask()
        if not np.array_equal(after, self.zero):
            self._log_events(self.zero, after, self.step_index * h)
        self.zero = after

    def totals(self) -> np.ndarray:
        """Vehicle and driver totals from the running in-transit sums, O(n)."""
        return self.idle.sum(axis=1) + (self.transit + self.moved) * self.h

    def full_totals(self) -> np.ndarray:
        """Vehicle and driver totals from full calendar sums, O(D n)."""
        return self.idle.sum(axis=1) + self.cal.reshape(2, -1).sum(axis=1) * self.h


def step(state: FluidState, net: StationNetwork, vehicle_rates, driver_rates) -> FluidState:
    """Advance one Euler step of ``state.h``; returns a new state, the input is untouched."""
    engine = _Engine(net, vehicle_rates, driver_rates, state)
    engine.advance()
    # the engine ends here, so the new state takes its arrays without copies
    return FluidState(
        customers=engine.c,
        vehicles=engine.idle[0],
        drivers=engine.idle[1],
        vehicle_buffer=engine.cal[0],
        driver_buffer=engine.cal[1],
        step_index=engine.step_index,
        h=state.h,
        legs=state.legs,
    )


def simulate(
    net: StationNetwork,
    vehicle_rates,
    driver_rates,
    init: FluidState,
    horizon: float,
    sample_every: int = 1,
) -> SimTrace:
    """Run steps of ``init.h`` until ``horizon`` (rounded to whole steps), sampling the trajectory."""
    if horizon <= 0:
        raise ValidationError(f"horizon must be positive, got {horizon!r}")
    if sample_every < 1:
        raise ValidationError("sample_every must be >= 1")
    engine = _Engine(net, vehicle_rates, driver_rates, init)
    h = init.h
    steps = max(1, int(round(horizon / h)))

    sample_steps = list(range(0, steps + 1, sample_every))
    if sample_steps[-1] != steps:
        sample_steps.append(steps)
    times = np.empty(len(sample_steps))
    c_out = np.empty((len(sample_steps), net.n))
    v_out = np.empty_like(c_out)
    r_out = np.empty_like(c_out)
    v_tot = np.empty(len(sample_steps))
    r_tot = np.empty(len(sample_steps))

    cursor = 0
    for k in range(steps + 1):
        if k == sample_steps[cursor]:
            times[cursor] = init.time + k * h
            c_out[cursor] = engine.c
            v_out[cursor], r_out[cursor] = engine.idle
            # the ends come from full sums, so a leak in the running
            # sums still shows as drift
            ends = k == 0 or k == steps
            v_tot[cursor], r_tot[cursor] = engine.full_totals() if ends else engine.totals()
            cursor += 1
        if k < steps:
            engine.advance()

    return SimTrace(
        times=times,
        customers=c_out,
        vehicles=v_out,
        drivers=r_out,
        vehicles_total=v_tot,
        drivers_total=r_tot,
        h=h,
        events=engine.events,
        events_dropped=engine.events_dropped,
    )


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Outcome of a perturbed-equilibrium run.

    ``passed`` requires: customers cleared (every station at or below
    4e-4 times the idle vehicle stock per station from ``drain_time``
    through the horizon), idle vehicles and idle drivers staying at or
    above 4e-6 times their fleet's idle stock per station after the
    customer drain (driver levels at perfectly balanced stations are not
    checked: no level goes below 0), and both totals conserved within
    ``10 * h * total rate``.  Every threshold scales with the data, so
    the verdict does not change with the unit of rates or of time.  At
    an idle stock of 0.25 per station, typical of generated instances at
    20 % slack, the two thresholds are 1e-4 and 1e-6.
    """

    passed: bool
    customers_cleared: bool
    vehicles_positive: bool
    drivers_positive: bool
    conserved: bool
    drain_time: Optional[float]
    drain_bound: float
    min_idle_vehicles: float
    min_idle_drivers: float
    vehicle_drift: float
    driver_drift: float
    vehicle_drift_bound: float
    driver_drift_bound: float
    total_vehicles: float
    total_drivers: float
    horizon: float
    h: float
    seed: int
    trace: SimTrace


def stability_probe(
    net: StationNetwork,
    solution: RebalanceSolution,
    slack_vehicles: float,
    slack_drivers: float,
    perturbation: float,
    h: float,
    seed: int = 0,
    horizon: Optional[float] = None,
) -> StabilityReport:
    """Perturb an equilibrium and check the run settles back onto it.

    Fleet totals are ``(1 + slack) * minimum``; the idle stock (the slack
    portion) is spread evenly over stations, then jittered station-wise
    by ``perturbation`` (relative, sum preserved).  Initial customer
    queues are ``perturbation`` times the idle vehicles.  Scenarios
    without strictly positive slack are rejected before any simulation
    work, since no equilibrium exists there.
    """
    if solution.status != "optimal" or solution.assignment is None:
        raise ValidationError("stability probe needs an optimal rebalancing solution")
    if slack_vehicles <= 0:
        raise InsufficientFleetError(
            f"vehicle fleet must exceed the in-transit minimum (slack {slack_vehicles:g} <= 0)"
        )
    if slack_drivers <= 0:
        raise InsufficientFleetError(
            f"driver pool must exceed the in-transit minimum (slack {slack_drivers:g} <= 0)"
        )
    if not (0 <= perturbation < 1):
        raise ValidationError(f"perturbation must be in [0, 1), got {perturbation!r}")

    assignment = solution.assignment
    n = net.n
    idle_v = slack_vehicles * assignment.min_vehicles
    idle_r = slack_drivers * assignment.min_drivers
    if idle_v <= 0 or idle_r <= 0:
        raise InsufficientFleetError("assignment pins no mass in transit; nothing to probe")

    rng = np.random.default_rng(int(seed) % 2**64)
    v0 = (idle_v / n) * (1.0 + perturbation * rng.uniform(-1.0, 1.0, size=n))
    v0 *= idle_v / v0.sum()
    r0 = (idle_r / n) * (1.0 + perturbation * rng.uniform(-1.0, 1.0, size=n))
    r0 *= idle_r / r0.sum()
    c0 = perturbation * v0

    drain_bound = float(np.max(c0 / (net.service_rate - net.arrival_rate))) if n else 0.0
    max_tt = net.max_travel_time()
    if horizon is None:
        horizon = drain_bound + 2.0 * max_tt + 10.0 * h

    init = equilibrium_state(
        net, assignment.vehicle_rates, assignment.driver_rates, c0, v0, r0, h
    )
    trace = simulate(net, assignment.vehicle_rates, assignment.driver_rates, init, horizon)

    below = np.max(trace.customers, axis=1) <= 4e-4 * idle_v / n
    drained = np.flatnonzero(below)
    if drained.size:
        k0 = int(drained[0])
        drain_time = float(trace.times[k0])
        customers_cleared = bool(np.all(below[k0:]))
    else:
        drain_time = None
        customers_cleared = False

    # the last sample is always in post
    post = trace.times >= (drain_time if drain_time is not None else trace.times[-1])
    min_v = float(np.min(trace.vehicles[post]))
    # compute_imbalance sets balanced stations to exactly 0, relative to
    # sum(lambda); they need no idle drivers, and no level goes below 0
    need_pos = trace.drivers[post][:, compute_imbalance(net).surplus != 0]
    min_r = float(np.min(need_pos)) if need_pos.size else float("inf")

    total_v0 = float(trace.vehicles_total[0])
    total_r0 = float(trace.drivers_total[0])
    vehicle_drift = float(np.max(np.abs(trace.vehicles_total - total_v0)))
    driver_drift = float(np.max(np.abs(trace.drivers_total - total_r0)))
    v_bound = 10.0 * h * float(net.arrival_rate.sum())
    r_bound = 10.0 * h * float(assignment.vehicle_rates.sum() + assignment.driver_rates.sum())
    conserved = vehicle_drift <= v_bound and driver_drift <= r_bound

    vehicles_ok = min_v >= 4e-6 * idle_v / n
    drivers_ok = min_r >= 4e-6 * idle_r / n
    passed = customers_cleared and vehicles_ok and drivers_ok and conserved
    return StabilityReport(
        passed=passed,
        customers_cleared=customers_cleared,
        vehicles_positive=vehicles_ok,
        drivers_positive=drivers_ok,
        conserved=conserved,
        drain_time=drain_time,
        drain_bound=drain_bound,
        min_idle_vehicles=min_v,
        min_idle_drivers=min_r,
        vehicle_drift=vehicle_drift,
        driver_drift=driver_drift,
        vehicle_drift_bound=v_bound,
        driver_drift_bound=r_bound,
        total_vehicles=total_v0,
        total_drivers=total_r0,
        horizon=float(horizon),
        h=float(h),
        seed=int(seed),
        trace=trace,
    )


def write_trace_csv(trace: SimTrace, path) -> None:
    """Write the sampled trajectory: t, c_1.., v_1.., r_1.., V_total, R_total."""
    n = trace.n
    header = (
        ["t"]
        + [f"c_{i + 1}" for i in range(n)]
        + [f"v_{i + 1}" for i in range(n)]
        + [f"r_{i + 1}" for i in range(n)]
        + ["V_total", "R_total"]
    )
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(trace.times.shape[0]):
            row = (
                [trace.times[k]]
                + list(trace.customers[k])
                + list(trace.vehicles[k])
                + list(trace.drivers[k])
                + [trace.vehicles_total[k], trace.drivers_total[k]]
            )
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
