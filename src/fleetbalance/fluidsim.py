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

Integration: explicit Euler with a fixed step ``h``.  A state is built
(``initial_state``, ``equilibrium_state``) with its ``h`` and the travel
times rounded to whole steps: what leaves ``i`` for ``j`` at step ``k``
arrives at ``j`` at step ``k + d``, ``d = round(T[i, j] / h)``, and
``h <= min positive T / 4``, so every leg is a few steps long, on at
least 2 stations: one has no legs.  ``simulate`` advances a state by
its ``h``, on a network with the same delays only, records the levels
after every step and returns the state after its last one, from which a
next run resumes.  In-transit mass lives in two arrival calendars
(vehicles in motion: customer trips plus rebalancing trips; drivers in
motion: rebalancing trips plus return rides) of ``D`` rows, the longest
delay in steps, by ``n`` stations: a state's row ``t`` holds what
arrives at step ``step_index + t``.  A run copies them into the first
rows of a window laid out alike, followed by ``2 * block_cap`` rows of
0.0, and copies the ``D`` live rows out at its end.  A step reads its
row in place and adds each leg's departure rate into the row ``d`` on,
at its head station, legs that share a delay and a head summed first;
the live rows move to the window's front when posts would run past its
end.  Customer trips run on all n(n-1) legs, but rebalancing trips and
return rides only on the support of ``alpha + beta`` (n - 1 to ~20 % of
the legs for solved assignments), so a step costs O(n^2) for customer
legs plus O(|support|) for rebalancing legs, whatever the ratio of
longest to shortest travel time.  In-transit totals are running sums
(plus what a step withdraws from the idle levels, minus what it reads),
so reading them is O(1).

Steady stretches run a block at a time.  A step is steady when the
next one repeats its departures: it clamped nothing, moved no level
across 0 and served every customer queue it left above 0 at ``mu``, so a
customer drain is steady too.  The steps after it depart alike until
some level would be clamped or cross 0, or a queue would drain.
``simulate`` repeats such a step's departures in blocks: the first as
long as ``d_min``, the shortest leg delay in steps (at least 4), each
next one twice as long, up to ``block_cap``, at which a block posts as
many cells as the calendars have.  Blocks chain until one stops early;
the step after that is a general one again.  Blocks give the same
floats as single steps, bit for bit:

* ``np.add.at`` posts a block's kept steps into the window in step
  order, and a cell gets at most one write per step, so each cell adds
  its writes in the order the steps make them, from the 0.0 a row past
  the live ones holds.  A step's arrivals are its row, which only
  earlier steps write;
* one ``np.add.accumulate`` over the block's per-step level changes (and
  one over its in-transit changes) adds them in step order, as the steps
  do; a queue served at ``mu`` changes by ``h * (lambda - mu)`` a step;
* a block keeps the longest prefix of steps that pass the general step's
  own clamp test, taken on the nominal outflow, in which no level crosses
  0 and every queue's drain rate ``lambda + c / h`` stays above ``mu``.
  Where the taxi cap binds, the outflow that happens is smaller than the
  nominal one, so a test on it would miss clamps.

A block makes only the posts its outcome needs, by one of two exact rules:

* A chain is stationary from ``D`` steps after the general step that
  starts it.  Every live row then holds only the chain's own posts: the
  same per-cell values, added from 0.0 in step order, since a row past
  the live ones holds 0.0 and the posts into live row ``t`` are those of
  delay above ``t``.  So live row ``t`` holds the same floats at every
  step: each step's arrivals are the current row, and the live rows
  after ``m`` steps are those before them.  Such a block posts nothing,
  copies nothing, moves no row and only moves the window's ``base`` on
  by ``m``.
* Any other block tests first.  Step ``t`` reads only its window row
  and the block's own posts into it, from earlier steps by a delay below
  the block's length.  Where there are such posts, the block copies its
  rows and adds them in with one ``np.add.at`` in step order, so each
  cell adds the same writes, in the same order, from the same value as
  posting would; a block no longer than ``d_min`` has none and reads
  the rows in place.  It then posts its kept steps once.

The blocks of one steady chain, between two general steps, repeat the
departures of the general step that starts it, so that step keeps what
they share: its outflows, the clamp bound ``h * out`` and its per-cell
posts, copied into a buffer of ``block_cap`` rows as blocks first reach
them.  Two exact shortcuts spare a block the per-step tests, which decide
where a shortcut fails: no step clamps when every idle level a step
starts from is at least ``h * out``, since arrivals are >= 0 and
rounding is monotone, so ``idle + h * (arrive - out)`` rounds to at
least ``idle - h * out >= 0``; and no step moves a level across 0 when
the whole block's zero pattern is the chain's.

A stability probe at h = min T / 10 with a T ratio of 120 (n = 14,
2 350 to 2 600 steps) takes 17 to 23 general steps and 29 to 33 blocks.
A queue with no idle vehicle grows and keeps its steps general, so a
cold start whose queues never clear takes mostly general steps.  The
first step of every run is a general one.

Idle vehicles and idle drivers follow the same queue-and-transit
dynamics, so both fleets go through one code path: customers, idle
vehicles and idle drivers are one ``(3, n)`` array and both calendars
one ``(2, D, n)`` array, in the engine, in a state and, one level row
per step, in a trace, and each step clamps, posts and sums both fleets
at once.  The engine holds only what the next step needs: the levels,
which of them are at 0 (the gates), the window and the in-transit sums.
A state and a trace are read-only; the trace reduces its zero summaries
from the levels it records, on first read.

Clamping: when a step would drive a queue negative, all outbound flows
from that queue are scaled down so the queue lands at zero, and the
scaled rates (not the nominal ones) are written into the calendars.
A rebalancing trip draws on both the vehicle and the driver queue, so it
is scaled by the smaller of the two factors, which can leave a queue
slightly above zero but never below.  Because calendar writes always
equal queue withdrawals and every write is read back exactly once, one
delay later, total vehicle and driver mass is conserved to float
rounding; there is no scheme-level drift term.  The running in-transit
sums follow the withdrawals, not the calendar writes, from the full sums
of the initial state, and ``simulate`` takes the last of its totals from
its final state's ``totals``, full sums, so a write that differs from its
withdrawal would still show as drift in the trace.  An ``h`` or horizon
too fine or long for numpy to size the arrays is refused before any allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InsufficientFleetError, ValidationError
from .network import (
    PROB_TOL,
    StationNetwork,
    _checked_array,
    _checked_int,
    _frozen,
    _leg_matrix,
    _legs,
    _on_legs,
    compute_imbalance,
)
from .rebalance import RebalanceSolution

# numpy sizes no array of more bytes than this
_MAX_BYTES = float(np.iinfo(np.intp).max)


@dataclass(frozen=True, eq=False)
class _Legs:
    """Leg and calendar geometry shared by all states of one run; legs in ``network``'s order.

    Legs with the same delay and head station write the same calendar
    cell each step; ``group`` numbers those (delay, head) pairs, and
    ``group_cell`` is each pair's flat offset ``delay * n + head``.
    """

    tail: np.ndarray    # leg tails, length n*(n-1)
    steps: np.ndarray   # delay of each leg in steps, >= 1
    group: np.ndarray   # (delay, head) group of each leg
    group_cell: np.ndarray
    depth: int          # calendar rows D = longest delay
    total_slots: int    # calendar cells D * n

    @staticmethod
    def build(net: StationNetwork, h: float) -> "_Legs":
        n = net.n
        # one station has no leg for a trip to take
        if n < 2:
            raise ValidationError(f"simulation needs at least 2 stations, got {n}")
        tt = _on_legs(net.travel_time)
        if np.any(tt <= 0):
            raise ValidationError("simulation requires positive travel times between distinct stations")
        min_tt = float(tt.min())
        if not (0 < h <= min_tt / 4):
            raise ValidationError(f"step h={h:g} must satisfy 0 < h <= min travel time / 4 = {min_tt / 4:g}")
        steps = np.rint(tt / h)
        # in floats, before the int cast can wrap: the engine's largest
        # array, its window or a block's posts, holds at most (2n + 10) D n floats
        if 8.0 * (2 * n + 10) * n * steps.max() > _MAX_BYTES:
            raise ValidationError(f"h is too small: legs of {steps.max():.3g} steps make calendars numpy cannot size")
        tails, heads = _legs(n)
        steps = steps.astype(np.int64)
        depth = int(steps.max())
        cells, group = np.unique(steps * n + heads, return_inverse=True)
        return _Legs(
            tail=tails, steps=steps, group=group, group_cell=cells, depth=depth, total_slots=depth * n
        )

    def steady_calendars(self, leg_rates, n: int) -> np.ndarray:
        """``(2, D, n)`` calendars of legs that have run at ``leg_rates`` (per fleet, per leg) for a full delay.

        Row ``t`` holds, per head station, the rate of the legs still in
        flight at step ``t``: those with delay > t.  Summed per (delay, head)
        group, then over delays as a suffix sum of nonnegative terms.  Both
        fleets fill one array, summed in place, so a state checks and copies
        it in delay order: numpy stacks a list of calendars slowly.
        """
        by_delay = np.zeros((2, self.depth + 1, n))
        for cells, rate in zip(by_delay.reshape(2, -1), leg_rates):
            cells[self.group_cell] = np.bincount(self.group, weights=rate)
        # summed from the longest delay down, in place: rows stay in delay order
        np.cumsum(by_delay[:, ::-1], axis=1, out=by_delay[:, ::-1])
        return by_delay[:, 1:]


@dataclass(frozen=True, eq=False)
class FluidState:
    """One snapshot of a run, in the engine's layout, checked and kept as read-only copies.

    ``levels`` is ``(3, n)``: ``customers``, ``vehicles`` and ``drivers``
    (idle) are views of its rows.  ``calendars`` is ``(2, D, n)``, its
    rows ``vehicle_buffer`` and ``driver_buffer``, of arrival rates: row
    ``t`` holds what reaches each station at step ``step_index + t``.
    The in-transit mass of a cell is ``h`` times its rate, and ``totals``
    is a trace's ``totals`` row for the state: idle plus in-transit
    vehicles, then drivers.
    """

    levels: np.ndarray
    calendars: np.ndarray
    step_index: int
    h: float
    legs: _Legs

    def __post_init__(self):
        depth = self.legs.depth
        n = self.legs.total_slots // depth
        for name, shape in (("levels", (3, n)), ("calendars", (2, depth, n))):
            arr = _checked_array(name, getattr(self, name), shape, nonnegative=True)
            object.__setattr__(self, name, _frozen(arr))
        object.__setattr__(self, "step_index", _checked_int("step_index", self.step_index, 0))
        object.__setattr__(self, "h", float(_checked_array("h", self.h, ())))
        if self.h <= 0:
            raise ValidationError(f"h must be positive, got {self.h!r}")

    customers = property(lambda self: self.levels[0])
    vehicles = property(lambda self: self.levels[1])
    drivers = property(lambda self: self.levels[2])
    vehicle_buffer = property(lambda self: self.calendars[0])
    driver_buffer = property(lambda self: self.calendars[1])

    @property
    def n(self) -> int:
        return self.levels.shape[1]

    @property
    def time(self) -> float:
        return self.step_index * self.h

    @property
    def totals(self) -> np.ndarray:
        return self.levels[1:].sum(axis=1) + self.calendars.reshape(2, -1).sum(axis=1) * self.h


def _state(net: StationNetwork, customers, vehicles, drivers, h, steady=None) -> FluidState:
    """State at time zero: empty roads, or the calendars of ``steady = (alpha, beta)`` run for a full delay."""
    h = float(_checked_array("h", h, ()))
    legs = _Legs.build(net, h)
    n = net.n
    named = (("customers", customers), ("vehicles", vehicles), ("drivers", drivers))
    levels = [_checked_array(name, value, (n,), nonnegative=True) for name, value in named]
    if steady is None:
        calendars = np.zeros((2, legs.depth, n))
    else:
        alpha_leg, beta_leg = map(_on_legs, steady)
        veh_rate = net.arrival_rate[legs.tail] * _on_legs(net.dest_prob) + alpha_leg
        calendars = legs.steady_calendars((veh_rate, alpha_leg + beta_leg), n)
    return FluidState(levels=levels, calendars=calendars, step_index=0, h=h, legs=legs)


def initial_state(net: StationNetwork, customers, vehicles, drivers, h: float) -> FluidState:
    """State at time zero with empty roads (nothing was in transit before)."""
    return _state(net, customers, vehicles, drivers, h)


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
    steady = (_leg_matrix("alpha", vehicle_rates, net.n), _leg_matrix("beta", driver_rates, net.n))
    return _state(net, customers, vehicles, drivers, h, steady)


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Trajectory of a run, its zero summaries and its final state, read-only like a state.

    ``times``, ``levels`` ``(steps + 1, 3, n)`` and ``totals``
    ``(steps + 1, 2)``, all three read-only, have one row per step, from
    the initial state's (row 0, ``totals`` its ``totals``) to the final one's;
    ``customers``, ``vehicles``, ``drivers`` and ``vehicles_total``, ``drivers_total`` are views of their columns.
    The zero summaries are reductions over the level rows, taken on first
    read and kept, each ``(3, n)`` with rows customers, idle vehicles and
    idle drivers.
    ``time_at_zero`` is ``h`` times the number of steps that began with
    the level at or below 0 (its gate shut), ``zero_hits`` the number of
    steps that took it from above 0 to 0 or below, and ``first_zero``
    the time of the first such step, NaN if none.  So the summaries of consecutive runs add up, first hits by
    ``np.fmin``, to those of one run.  ``final`` is the state after the
    last step, on arrays of its own; the run leaves its initial state as
    it was.  In a stability probe's report ``final`` is None.
    """

    times: np.ndarray
    levels: np.ndarray
    totals: np.ndarray
    h: float
    final: Optional[FluidState]

    customers = property(lambda self: self.levels[:, 0])
    vehicles = property(lambda self: self.levels[:, 1])
    drivers = property(lambda self: self.levels[:, 2])
    vehicles_total = property(lambda self: self.totals[:, 0])
    drivers_total = property(lambda self: self.totals[:, 1])

    @property
    def n(self) -> int:
        return self.levels.shape[2]

    @cached_property
    def _zero_summaries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # step t begins with row t and ends with row t + 1
        zero = self.levels <= 0
        hits = zero[1:] > zero[:-1]
        zero_hits = hits.sum(axis=0)
        first_zero = np.where(zero_hits > 0, self.times[1 + hits.argmax(axis=0)], np.nan)
        return self.h * zero[:-1].sum(axis=0), zero_hits, first_zero

    time_at_zero = property(lambda self: self._zero_summaries[0])
    zero_hits = property(lambda self: self._zero_summaries[1])
    first_zero = property(lambda self: self._zero_summaries[2])


class _Engine:
    """Mutable working copy of a state; advances it step by step.

    ``levels`` is ``(3, n)``: customers, idle vehicles, idle drivers.
    ``cal`` is the window: fleet 0 the vehicles, fleet 1 the drivers, row ``r`` step ``base + r``.
    Rebalancing trips and return rides only run on the support of
    ``alpha + beta``, so the engine keeps those legs apart; customer
    trips run on every leg.
    """

    def __init__(self, net: StationNetwork, vehicle_rates, driver_rates, state: FluidState):
        n = net.n
        if state.n != n:
            raise ValidationError(f"state has {state.n} stations, network has {n}")
        alpha = _leg_matrix("alpha", vehicle_rates, n)
        beta = _leg_matrix("beta", driver_rates, n)
        legs = state.legs
        if not np.array_equal(legs.steps, np.rint(_on_legs(net.travel_time) / state.h)):
            raise ValidationError(
                f"state was built for other travel times: its legs' delays in steps of "
                f"h={state.h:g} are not the network's"
            )
        # queued customers depart along dest_prob rows; an unnormalized row
        # would leak vehicle mass out of the conservation ledger
        queued = state.customers > 0
        if np.any(queued):
            sums = net.dest_prob[queued].sum(axis=1)
            if np.any(np.abs(sums - 1.0) > PROB_TOL):
                i = int(np.flatnonzero(queued)[np.argmax(np.abs(sums - 1.0))])
                raise ValidationError(
                    f"station {i} has queued customers but p row {i} does not sum to 1"
                )

        self.n = n
        self.h = state.h
        self.legs = legs
        self.levels = state.levels.copy()
        self.moved = np.zeros(2)
        self.step_index = state.step_index
        self.zero = self.levels <= 0
        self.steady = False
        # a steady stretch starts with a block of the shortest delay in steps
        self.shortest = int(legs.steps.min())
        self.block_steps = self.shortest
        self.ones = np.ones((2, n))

        self.lam = net.arrival_rate
        self.mu = net.service_rate
        self.p_leg = _on_legs(net.dest_prob)
        # the support: legs with alpha or beta > 0, in leg order
        alpha_leg, beta_leg = _on_legs(alpha), _on_legs(beta)
        self.sup = np.flatnonzero(alpha_leg + beta_leg > 0)
        tail = legs.tail[self.sup]
        # each leg's tail in the (2, n) station arrays: fleet 0, then fleet 1
        self.sup_station = np.concatenate((tail, tail + n))
        self.sup_rates = np.array((alpha_leg[self.sup], beta_leg[self.sup]))
        self.sup_taxi = _on_legs(net.taxi_fraction)[self.sup]
        # per tail station: alpha out and (alpha + beta) out, summed in leg
        # order as a step sums its legs, so gating a whole station by 0 or
        # 1 gives the sums of its gated legs bit for bit
        both = self.sup_rates.copy()
        both[1] += both[0]
        self.gated_out = self._station_sums(both)
        # calendar writes: every vehicle (delay, head) group, then the
        # driver groups that legs of the support write, numbered in order
        groups = legs.group_cell.size
        sup_group = legs.group[self.sup]
        used = np.zeros(groups, dtype=bool)
        used[sup_group] = True
        self.fleet_group = np.concatenate((legs.group, groups - 1 + np.cumsum(used)[sup_group]))
        driver_cell = legs.group_cell[used]
        # blocks double up to the length at which a block posts as many
        # cells as both calendars have: its cell and post arrays stay that size
        self.block_cap = max(self.shortest, 2 * legs.total_slots // (groups + driver_cell.size))
        depth = legs.depth
        # the window's row r holds step base + r, as the state's row t holds step_index + t
        self.cal = np.zeros((2, depth + 2 * self.block_cap, n))
        self.cal[:, :depth] = state.calendars
        self.base = state.step_index
        # in-transit rate sums: the state's full sums plus a running net
        # change (+ each step's withdrawals, - its arrivals), kept apart so
        # its rounding scales with the change and not with the whole sum
        self.transit = self.cal[:, :depth].reshape(2, -1).sum(axis=1)
        # a step's posts as flat offsets from its row's first cell, driver
        # groups in the drivers' half; step t of a block posts t * n further on
        self.fleet_cell = np.concatenate((legs.group_cell, driver_cell + self.cal[0].size))
        self.block_cells = np.arange(self.block_cap)[:, None] * n + self.fleet_cell
        # a steady chain's posts, one row per step, filled as its blocks first reach them
        self.posts = np.empty(self.block_cells.shape)
        # the posts a block can read, of delay below block_cap: step s of a
        # block posts such a cell into row s + delay of its (count, 2, n) arrivals
        fleet, cell = np.divmod(self.fleet_cell, self.cal[0].size)
        near = np.flatnonzero(cell < self.block_cap * n)
        self.near_row = np.arange(self.block_cap)[:, None] + cell[near] // n
        self.near_offset = self.near_row * 2 * n + (fleet * n + cell % n)[near]
        self.near_cell = np.broadcast_to(near, self.near_row.shape)
        # per block length: offsets and cells of the posts that land in its arrivals, in step order
        self.inside = {}
        # a step's departures per leg: customer trips plus rebalancing on
        # every vehicle leg, then rebalancing plus return rides on the support
        self.dep = np.empty(legs.tail.size + self.sup.size)
        self.vehicle_dep, self.driver_dep = self.dep[: legs.tail.size], self.dep[legs.tail.size :]

    def _station_sums(self, sup_flows: np.ndarray) -> np.ndarray:
        """``(2, n)`` sums by tail station of ``(2, |support|)`` leg flows, in leg order."""
        sums = np.bincount(self.sup_station, weights=sup_flows.reshape(-1), minlength=2 * self.n)
        # an empty support has no weights, and bincount then counts in int64
        return sums.astype(float, copy=False).reshape(2, self.n)

    def _row(self, count: int) -> int:
        """Window row of the current step; moves the live rows to the front first if ``count`` steps' posts would not fit."""
        row, depth = self.step_index - self.base, self.legs.depth
        if row + count + depth > self.cal.shape[1]:
            self.cal[:, :depth] = self.cal[:, row : row + depth]
            self.cal[:, depth:] = 0.0
            self.base, row = self.step_index, 0
        return row

    def buffers(self) -> np.ndarray:
        """The ``(2, D, n)`` live rows of the window, a state's calendars: row ``t`` for step ``step_index + t``."""
        row = self.step_index - self.base
        return self.cal[:, row : row + self.legs.depth]

    def advance(self) -> None:
        h, n, legs = self.h, self.n, self.legs
        levels, cal = self.levels, self.cal
        c, idle = levels[0], levels[1:]

        row = self._row(1)
        # the step posts to later rows only: its arrivals are read in place
        arrive = cal[:, row]

        pos = ~self.zero
        # customer departures: mu while a queue drains (capped at drain, the
        # rate that empties it this step; an empty queue caps them at
        # lambda, below mu), 0 without vehicles
        drain = self.lam + c / h
        cust_dep = np.where(pos[1], np.minimum(self.mu, drain), 0.0)
        gate = pos[1] & pos[2]
        out = gate * self.gated_out
        out[0] += cust_dep
        # pro-rata scale-down of queues that would go negative; a queue can
        # only go negative with a positive outflow, so the division is safe
        short = idle + h * (arrive - out) < 0
        scale = np.divide(idle / h + arrive, out, out=self.ones.copy(), where=short)
        cust_f = cust_dep * scale[0]
        # rebalancing trips draw on both queues, return rides on drivers
        np.minimum(scale[0], scale[1], out=scale[0])
        flows = self.sup_rates * (gate * scale).reshape(-1)[self.sup_station].reshape(2, -1)
        trips = np.multiply(cust_f[legs.tail], self.p_leg, out=self.vehicle_dep)
        sup_trips = trips[self.sup]
        # return rides can only use customer trips that actually depart
        np.minimum(flows[1], self.sup_taxi * sup_trips, out=flows[1])
        flows[1] += flows[0]

        # a queue served at its drain rate lands on exactly 0, not on the
        # rounding noise of c + h * (lam - drain)
        queue_in = h * (self.lam - cust_f)
        levels[0] = np.where(cust_f >= drain, 0.0, np.maximum(c + queue_in, 0.0))
        out_f = self._station_sums(flows)
        out_f[0] += cust_f
        net_in = arrive - out_f
        np.maximum(idle + h * net_in, 0.0, out=idle)
        self.moved -= net_in.sum(axis=1)

        # departures into their arrival rows, legs that share a fleet, a
        # delay and a head summed first so the fancy-index add sees unique cells
        trips[self.sup] = sup_trips + flows[0]
        self.driver_dep[:] = flows[1]
        by_cell = np.bincount(self.fleet_group, weights=self.dep)
        cal.reshape(-1)[row * n + self.fleet_cell] += by_cell
        self.step_index += 1

        after = levels <= 0
        changed = (after != self.zero).any()
        self.zero = after
        # a step that clamped nothing, moved no level across 0 and served
        # every customer queue left above 0 at mu departs alike until some
        # level would
        self.steady = not changed and not short.any() and (after[0] | (cust_dep == self.mu)).all()
        self.block_steps = self.shortest
        if self.steady:
            # what every block of the chain this step starts repeats: a queue
            # at 0 stays there, one served at mu changes by h * (lam - mu) a step
            self.out, self.out_f, self.by_cell = out, out_f, by_cell
            self.h_out, self.queue_step = h * out, np.where(after[0], 0.0, queue_in)
            self.filled, self.chain_start = 0, self.step_index - 1

    def repeat(self, levels: np.ndarray, moved: np.ndarray) -> int:
        """Advance up to ``count <= block_cap`` steps that repeat a steady step's departures.

        Only valid while ``steady``.  ``levels`` and ``moved`` are
        ``(count + 1, 3, n)`` and ``(count + 1, 2)`` trace rows; row 0
        holds the engine's levels and running sums, and row ``t`` gets
        them after step ``t``, in place.  Keeps the longest prefix of
        steps in which no level is clamped or crosses 0 and no queue
        drains, and returns its length ``m``: rows past ``m`` hold steps
        that were dropped.  ``steady`` stays set, and the next block is
        twice as long, only if all ``count`` steps were kept.

        A block makes only the posts its outcome needs.  From ``D`` steps
        into its chain on, every live row holds the chain's posts alone,
        the same per-cell values added from 0.0 in step order, so live row
        ``t`` holds the same floats at every step: each step's arrivals
        are the current row, and ``m`` steps on the live rows are what
        they were, so the block posts nothing and only moves ``base`` on
        by ``m``.  Any other block tests first: step ``t`` reads its row
        plus the block's posts into it of delay below ``count - t``, which
        it adds into a copy of its rows in step order, as posting would,
        and then posts its ``m`` kept steps once.
        """
        h, k, cal = self.h, self.step_index, self.cal
        count = len(levels) - 1
        stationary = k - self.chain_start >= self.legs.depth
        if stationary:
            # every step arrives at the current row's floats
            arrive = np.broadcast_to(cal[:, k - self.base], (count, 2, self.n))
        else:
            row = self._row(count)
            arrive = cal[:, row : row + count].swapaxes(0, 1)
            if count not in self.inside:
                lands = self.near_row[:count] < count
                self.inside[count] = (self.near_offset[:count][lands], self.near_cell[:count][lands])
            inside, cells = self.inside[count]
            if inside.size:
                # step t's row plus the block's earlier posts into it, added in step order as posting adds them
                arrive = arrive.copy()
                np.add.at(arrive.reshape(-1), inside, self.by_cell[cells])
        net_in = arrive - self.out_f
        levels[1:, 0] = self.queue_step
        np.multiply(net_in, h, out=levels[1:, 1:])
        # adds in step order, as the steps do: the same sums bit for bit
        np.add.accumulate(levels, axis=0, out=levels)
        idle = levels[:-1, 1:]
        keep = np.ones(count, dtype=bool)
        # arrivals are >= 0, so a step that starts with idle >= h * out
        # cannot clamp: idle + h * (arrive - out) rounds to >= idle - h * out
        if not (idle >= self.h_out).all():
            # the step's own clamp test, on the nominal outflow: where the taxi
            # cap binds, the outflow that happens is smaller
            keep &= (idle + h * (arrive - self.out) >= 0).all(axis=(1, 2))
        same = (levels[1:] <= 0) == self.zero
        if not same.all():
            keep &= same.all(axis=(1, 2))
        queued = ~self.zero[0]
        if queued.any():
            # a queue whose drain rate is not above mu is served at its drain rate
            keep &= (self.lam[queued] + levels[:-1, 0, queued] / h > self.mu[queued]).all(axis=1)
        m = count if keep.all() else int(keep.argmin())
        moved = moved[: m + 1]
        np.negative(net_in[:m].sum(axis=2), out=moved[1:])
        np.add.accumulate(moved, axis=0, out=moved)

        if stationary:
            # the live rows hold the same floats m steps on
            self.base += m
        else:
            if m > self.filled:
                self.posts[self.filled : m] = self.by_cell
                self.filled = m
            # flat indices and values: numpy 2.4 adds a broadcast ``by_cell`` to
            # the wrong cells; add.at adds repeated cells one at a time, in step order
            np.add.at(cal.reshape(-1)[row * self.n :], self.block_cells[:m].reshape(-1), self.posts[:m].reshape(-1))
        self.levels[:] = levels[m]
        self.moved[:] = moved[m]
        self.step_index = k + m
        self.steady = m == count
        self.block_steps = min(2 * count, self.block_cap)
        return m


def simulate(
    net: StationNetwork,
    vehicle_rates,
    driver_rates,
    init: FluidState,
    horizon: float,
) -> SimTrace:
    """Run steps of ``init.h`` until ``horizon`` (rounded to whole steps), recording every step."""
    horizon = float(_checked_array("horizon", horizon, ()))
    if horizon <= 0:
        raise ValidationError(f"horizon must be positive, got {horizon!r}")
    engine = _Engine(net, vehicle_rates, driver_rates, init)
    h = init.h
    # in floats, before numpy sizes the (steps + 1, 3, n) level rows
    if 24.0 * net.n * (horizon / h + 1) > _MAX_BYTES:
        raise ValidationError(f"horizon is too long: {horizon / h:.3g} steps of h={h:g} make a trace numpy cannot size")
    steps = max(1, int(round(horizon / h)))

    levels = np.empty((steps + 1, 3, net.n))
    moved = np.empty((steps + 1, 2))
    levels[0], moved[0] = engine.levels, engine.moved
    done = 0
    while done < steps:
        if engine.steady:
            end = done + min(engine.block_steps, steps - done) + 1
            done += engine.repeat(levels[done:end], moved[done:end])
        else:
            engine.advance()
            done += 1
            levels[done], moved[done] = engine.levels, engine.moved
    final = replace(init, levels=engine.levels, calendars=engine.buffers(), step_index=engine.step_index)
    totals = levels[:, 1:].sum(axis=2) + (engine.transit + moved) * h
    # the last row comes from the final state's full sums, so a leak in
    # the running sums still shows as drift
    totals[-1] = final.totals
    times = (init.step_index + np.arange(steps + 1)) * h
    for arr in (times, levels, totals):
        arr.setflags(write=False)
    return SimTrace(times=times, levels=levels, totals=totals, h=h, final=final)


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
    20 % slack, the two thresholds are 1e-4 and 1e-6.  The fleet totals
    and ``h`` are the trace's ``totals[0]`` and ``h``.
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
    horizon: float
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
    queues are ``perturbation`` times the idle vehicles, at stations
    where customers arrive (a station without arrivals may have no
    destinations to send a queue to).  Scenarios
    without strictly positive slack are rejected before any simulation
    work, since no equilibrium exists there, and so is a non-finite
    slack.  Without a ``horizon`` the run lasts drain bound + 2 max T +
    10 h, which grows with the idle stock.
    """
    if solution.assignment is None:
        raise ValidationError("stability probe needs an optimal rebalancing solution")
    slack_vehicles = float(_checked_array("slack_vehicles", slack_vehicles, ()))
    slack_drivers = float(_checked_array("slack_drivers", slack_drivers, ()))
    for pool, slack in (("vehicle fleet", slack_vehicles), ("driver pool", slack_drivers)):
        if slack <= 0:
            raise InsufficientFleetError(f"{pool} must exceed the in-transit minimum (slack {slack:g} <= 0)")
    perturbation = float(_checked_array("perturbation", perturbation, ()))
    if not (0 <= perturbation < 1):
        raise ValidationError(f"perturbation must be in [0, 1), got {perturbation!r}")
    seed = _checked_int("seed", seed)

    assignment = solution.assignment
    n = net.n
    idle_v = slack_vehicles * assignment.min_vehicles
    idle_r = slack_drivers * assignment.min_drivers
    if idle_v <= 0 or idle_r <= 0:
        raise ValidationError("assignment pins no mass in transit; nothing to probe")

    rng = np.random.default_rng(seed % 2**64)
    v0 = (idle_v / n) * (1.0 + perturbation * rng.uniform(-1.0, 1.0, size=n))
    v0 *= idle_v / v0.sum()
    r0 = (idle_r / n) * (1.0 + perturbation * rng.uniform(-1.0, 1.0, size=n))
    r0 *= idle_r / r0.sum()
    c0 = np.where(net.arrival_rate > 0, perturbation * v0, 0.0)

    init = equilibrium_state(net, assignment.vehicle_rates, assignment.driver_rates, c0, v0, r0, h)
    h = init.h
    drain_bound = float(np.max(c0 / (net.service_rate - net.arrival_rate)))
    given = horizon is not None
    if not given:
        horizon = drain_bound + 2.0 * net.max_travel_time() + 10.0 * h
    try:
        trace = simulate(net, assignment.vehicle_rates, assignment.driver_rates, init, horizon)
    except ValidationError as exc:  # init and the rates passed their checks: only the horizon is left
        if given:
            raise
        raise ValidationError(
            f"{exc}; no horizon was given, and the default one, drain bound + 2 max T + 10 h, grew with the idle stock"
        ) from exc
    # nothing resumes from a probe: its report keeps no calendars
    trace = replace(trace, final=None)

    # each verdict in one pass along the rows, by order-free reductions
    # (all, min, max), so it is the one the row maxima and masks would give
    levels = trace.levels
    below = (levels[:, 0] <= 4e-4 * idle_v / n).all(axis=1)
    k0 = int(below.argmax())
    if below[k0]:
        drain_time = float(trace.times[k0])
        customers_cleared = bool(below[k0:].all())
    else:
        # the last step is always in post
        drain_time, customers_cleared, k0 = None, False, below.size - 1
    # post-drain rows are a suffix: the times rise with the row
    min_v = float(levels[k0:, 1].min())
    # compute_imbalance sets balanced stations to exactly 0, relative to
    # sum(lambda); they need no idle drivers, and no level goes below 0
    need_pos = levels[k0:, 2, compute_imbalance(net) != 0]
    min_r = float(need_pos.min()) if need_pos.size else float("inf")

    vehicle_drift, driver_drift = (float(np.max(np.abs(col - col[0]))) for col in trace.totals.T)
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
        horizon=float(horizon),
        seed=seed,
        trace=trace,
    )


def write_trace_csv(trace: SimTrace, path) -> None:
    """Write the trajectory, one row per step: t, c_1.., v_1.., r_1.., V_total, R_total."""
    header = ["t"] + [f"{q}_{i + 1}" for q in "cvr" for i in range(trace.n)] + ["V_total", "R_total"]
    table = np.column_stack((trace.times, trace.levels.reshape(len(trace.times), -1), trace.totals))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in table.tolist())
