"""Problem data for station-based vehicle and driver rebalancing.

A :class:`StationNetwork` describes one instance of the fleet-management
problem.  Stations are indexed ``0..n-1``.  All quantities are fluid
rates (nonnegative reals, not integer counts):

* customers arrive at station ``i`` at rate ``arrival_rate[i]``, each
  takes a vehicle and drives to station ``j`` with probability
  ``dest_prob[i, j]``, taking ``travel_time[i, j]`` time units;
* when customers are queued, they depart at rate ``service_rate[i]``
  (which must exceed the arrival rate, or queues never drain);
* ``taxi_fraction[i, j]`` caps the rate of employed drivers who can ride
  back on customer trips from ``i`` to ``j``, expressed as a multiple of
  the customer trip rate on that leg (values above 1 mean a single
  customer vehicle may carry several returning drivers).

Customer trips alone leave each station with a net vehicle flux: the
imbalance.  Stations with positive imbalance accumulate vehicles,
stations with negative imbalance run dry.  Two flow assignments cancel
it: empty-vehicle rebalancing trips (driven by employed drivers) and
driver-return rides on customer trips.  This module computes the
imbalance, the fleet sizes a given assignment pins in transit, and the
residuals by which an assignment misses the balance and capacity
constraints; :func:`validate_assignment` is the one check that a plan
belongs to an instance.  The imbalance is fixed by ``lambda`` and ``p``
alone, so no function takes it as an argument: each that needs it calls
:func:`compute_imbalance`, the one code that forms it.

Every number from outside is checked once, in the code that owns it:
arrays and reals by ``_checked_array``, counts and seeds by
``_checked_int``.  The owners are :class:`StationNetwork`,
:class:`RebalanceAssignment`, :func:`fleet_sizes`, the flow problem,
the generator and sweep configs, the simulator's state (its levels,
calendars and step index) and the simulator's entry points.  The
imbalance is derived, not read, so it has no check of its own.
``storage`` reads only the file format and leaves values to these.

The module also owns the leg layout shared by the flow programs' arcs
and the simulator: leg ``k`` is the ``k``-th off-diagonal entry of an
``n x n`` matrix, row-major (``_legs``, ``_on_legs``, ``_from_legs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

# Tolerances used across the package.
PROB_TOL = 1e-9      # probability row sums
BALANCE_TOL = 1e-9   # flow-balance residuals on assignments, relative to the total customer rate
CAP_TOL = 1e-9       # allowed slack above driver-trip capacities, relative to the total customer rate
SUM_RTOL = 1e-9      # imbalance rounding, relative to sum(lambda); stored fleet floors, to the floor


def _checked_array(
    name: str, value, shape: tuple, nonnegative: bool = False, integer: bool = False, infinite: bool = False,
) -> np.ndarray:
    """``value`` as a float array of ``shape``, finite and, if asked, nonnegative.

    The one check of every outside array and real number: ``None`` in
    ``shape`` takes any length, and ``()`` takes one number.  Bools are
    refused (a JSON ``true`` would read as 1); a list that mixes them
    with numbers converts.  ``integer`` asks for an integer dtype and
    returns int64 in place of float; ``infinite`` lets ``+inf`` through.  A float array is
    read in place, not copied, so a type that keeps the result takes its
    own copy.  A bad value raises ``ValidationError`` with a message that
    names ``name`` and the first bad entry, or the value of a bad number.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:  # a ragged nesting, for one
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    # strings, quoted numbers among them, bools and other objects; numpy reads [] as float
    if arr.dtype.kind not in ("iu" if integer and arr.size else "iuf"):
        raise ValidationError(f"{name} is not {'integer' if integer else 'numeric'}: got dtype {arr.dtype}")
    arr = arr.astype(np.int64 if integer else float, copy=False)
    if arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        dims = "x".join("n" if k is None else str(k) for k in shape)
        wanted = f"a length-{dims} vector" if len(shape) == 1 else f"an {dims} matrix" if shape else "a number"
        raise ValidationError(f"{name} must be {wanted}, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if infinite:
        finite |= arr == np.inf
    if not finite.all():
        bad, what, want = ~finite, "is not finite", "finite"
    elif nonnegative and (arr < 0).any():
        bad, what, want = arr < 0, "is negative", "nonnegative"
    else:
        return arr
    if arr.ndim == 0:
        raise ValidationError(f"{name} must be {want}, got {arr.item()!r}")
    pos = ",".join(str(int(k)) for k in np.argwhere(bad)[0])
    raise ValidationError(f"{name}[{pos}] {what}")


def _checked_int(name: str, value, minimum: Optional[int] = None) -> int:
    """``value`` as an ``int`` of at least ``minimum``: the one check of every outside count and seed.

    Bools are refused, as by :func:`_checked_array`, and so are floats, integral or not.
    """
    low = -np.inf if minimum is None else minimum
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        wanted = {None: "an integer", 1: "a positive integer"}.get(minimum, f"an integer >= {minimum}")
        raise ValidationError(f"{name} must be {wanted}, got {value!r}")
    return int(value)


def _legs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the n(n-1) legs, in leg order."""
    return np.nonzero(~np.eye(n, dtype=bool))


def _on_legs(matrix: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of an ``n x n`` matrix, in leg order.

    Dropping the first entry of the flat matrix puts every diagonal entry
    at the end of a row of ``n + 1``, so one slice and one copy suffice.
    """
    n = matrix.shape[0]
    return matrix.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].reshape(-1)


def _from_legs(values, n: int) -> np.ndarray:
    """The ``n x n`` matrix with per-leg ``values`` (or one scalar on every leg), zero diagonal."""
    out = np.zeros((n, n))
    out[~np.eye(n, dtype=bool)] = values
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy, so a frozen type shares no memory with its caller."""
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _leg_matrix(name: str, value, n: int) -> np.ndarray:
    """A finite, nonnegative ``n x n`` matrix of per-leg values (rates or times) with an exact zero diagonal."""
    arr = _checked_array(name, value, (n, n), nonnegative=True)
    diag = np.diagonal(arr)
    if np.any(diag != 0):
        i = int(np.flatnonzero(diag)[0])
        raise ValidationError(f"{name}[{i},{i}] is {diag[i]:.6g}; {name} must have a zero diagonal")
    return arr


@dataclass(frozen=True, eq=False)
class StationNetwork:
    """Immutable description of one rebalancing problem instance.

    Error messages refer to fields by their file-schema names:
    ``lambda`` (arrival_rate), ``mu`` (service_rate), ``p`` (dest_prob),
    ``T`` (travel_time), ``f`` (taxi_fraction).
    """

    n: int
    arrival_rate: np.ndarray
    service_rate: np.ndarray
    dest_prob: np.ndarray
    travel_time: np.ndarray
    taxi_fraction: np.ndarray
    meta: Optional[dict] = None

    def __post_init__(self):
        n = _checked_int("n", self.n, 1)
        object.__setattr__(self, "n", n)
        lam = _checked_array("lambda", self.arrival_rate, (n,), nonnegative=True)
        mu = _checked_array("mu", self.service_rate, (n,))
        p = _checked_array("p", self.dest_prob, (n, n), nonnegative=True)
        tt = _leg_matrix("T", self.travel_time, n)
        f = _checked_array("f", self.taxi_fraction, (n, n), nonnegative=True)

        if np.any(mu <= lam):
            i = int(np.flatnonzero(mu <= lam)[0])
            raise ValidationError(
                f"mu[{i}]={mu[i]:.6g} must exceed lambda[{i}]={lam[i]:.6g}"
            )
        if np.any(p > 1 + PROB_TOL):
            i, j = np.argwhere(p > 1 + PROB_TOL)[0]
            raise ValidationError(f"p[{i},{j}]={p[i, j]:.6g} exceeds 1")
        diag = np.abs(np.diagonal(p))
        if np.any(diag > PROB_TOL):
            i = int(np.flatnonzero(diag > PROB_TOL)[0])
            raise ValidationError(f"p[{i},{i}] must be 0 (no self-loop trips)")
        sums = p.sum(axis=1)
        bad = np.flatnonzero((lam > 0) & (np.abs(sums - 1.0) > PROB_TOL))
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"p row {i} sums to {sums[i]:.6g}, expected 1 within {PROB_TOL:g}"
            )

        object.__setattr__(self, "arrival_rate", _frozen(lam))
        object.__setattr__(self, "service_rate", _frozen(mu))
        object.__setattr__(self, "dest_prob", _frozen(p))
        object.__setattr__(self, "travel_time", _frozen(tt))
        object.__setattr__(self, "taxi_fraction", _frozen(f))

    def min_offdiag_travel_time(self) -> float:
        """Smallest strictly positive travel time between distinct stations, 0 if there is none."""
        off = _on_legs(self.travel_time)
        pos = off[off > 0]
        return float(pos.min()) if pos.size else 0.0

    def max_travel_time(self) -> float:
        return float(self.travel_time.max())

    def taxi_capacity(self) -> np.ndarray:
        """Per-leg cap on driver-return rates: ``f[i,j] * lambda[i] * p[i,j]``."""
        return self.taxi_fraction * (self.arrival_rate[:, None] * self.dest_prob)


def compute_imbalance(net: StationNetwork) -> np.ndarray:
    """Net vehicle flux from customer trips alone: the read-only ``(n,)`` surplus.

    Station ``i`` receives vehicles at rate ``sum_j lambda[j] * p[j, i]``
    and loses them at rate ``lambda[i]``.  Positive entries accumulate
    vehicles, negative entries drain them.

    Rounding in ``inflow - lambda`` grows with the rates, not with the
    surplus, so it is judged against ``sum(lambda)``: entries within
    ``SUM_RTOL`` of it are set to 0, and what the others still fail to
    sum to (rounding, and the ``PROB_TOL`` slack of the rows of ``p``)
    is taken off them in proportion to their size.  A balanced network
    thus gets an exact zero vector, not noise for the flow programs to
    ship.
    """
    inflow = net.dest_prob.T @ net.arrival_rate
    surplus = inflow - net.arrival_rate
    surplus[np.abs(surplus) <= SUM_RTOL * float(net.arrival_rate.sum())] = 0.0
    size = np.abs(surplus)
    if size.sum() > 0:
        surplus -= surplus.sum() * size / size.sum()
    surplus.setflags(write=False)
    return surplus


@dataclass(frozen=True, eq=False)
class RebalanceAssignment:
    """A pair of station-to-station rate matrices plus the fleet they pin in transit.

    ``vehicle_rates[i, j]`` is the rate of empty-vehicle rebalancing trips
    from ``i`` to ``j`` (each carries one employed driver).
    ``driver_rates[i, j]`` is the rate of drivers riding back on customer
    trips from ``i`` to ``j``.  ``min_vehicles`` / ``min_drivers`` are the
    time-averaged in-transit masses these rates imply; any workable fleet
    must strictly exceed them.
    """

    vehicle_rates: np.ndarray
    driver_rates: np.ndarray
    min_vehicles: float
    min_drivers: float

    def __post_init__(self):
        a = _checked_array("alpha", self.vehicle_rates, (None, None))
        a = _leg_matrix("alpha", a, a.shape[0])
        b = _leg_matrix("beta", self.driver_rates, a.shape[0])
        for name, attr in (("v_alpha", "min_vehicles"), ("r_alpha_beta", "min_drivers")):
            object.__setattr__(self, attr, float(_checked_array(name, getattr(self, attr), (), nonnegative=True)))
        object.__setattr__(self, "vehicle_rates", _frozen(a))
        object.__setattr__(self, "driver_rates", _frozen(b))

    @property
    def n(self) -> int:
        return self.vehicle_rates.shape[0]


def fleet_sizes(net: StationNetwork, vehicle_rates, driver_rates) -> tuple[float, float]:
    """In-transit masses pinned by an assignment.

    Returns ``(min_vehicles, min_drivers)``: the time-averaged number of
    vehicles on the road (customer trips plus rebalancing trips) and of
    employed drivers on the road (rebalancing trips plus return rides).
    A fleet can hold every queue positive only if it strictly exceeds
    these numbers.
    """
    n = net.n
    alpha = _checked_array("alpha", vehicle_rates, (n, n), nonnegative=True)
    beta = _checked_array("beta", driver_rates, (n, n), nonnegative=True)
    trips = net.dest_prob * net.arrival_rate[:, None]
    min_vehicles = float(np.sum(net.travel_time * (trips + alpha)))
    min_drivers = float(np.sum(net.travel_time * (alpha + beta)))
    return min_vehicles, min_drivers


def assignment_residuals(
    net: StationNetwork, assignment: RebalanceAssignment
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How far an assignment misses its constraints.

    Returns ``(alpha_residual, beta_residual, capacity_excess)``: per
    station, vehicle_rates net outflow minus the surplus and
    driver_rates net outflow plus the surplus (both zero when balanced),
    and per leg, driver_rates minus the taxi capacity (nonpositive when
    within capacity).
    """
    d = compute_imbalance(net)
    alpha, beta = assignment.vehicle_rates, assignment.driver_rates
    alpha_residual = alpha.sum(axis=1) - alpha.sum(axis=0) - d
    beta_residual = beta.sum(axis=1) - beta.sum(axis=0) + d
    return alpha_residual, beta_residual, beta - net.taxi_capacity()


def validate_assignment(net: StationNetwork, assignment: RebalanceAssignment) -> None:
    """Raise :class:`ValidationError` unless the assignment is a plan for ``net``.

    Checks the station count; per station, that vehicle_rates net
    outflow equals the surplus and driver_rates net outflow equals its
    negative; that driver rates respect the per-leg taxi capacity; and
    that the stated fleet floors are the ones :func:`fleet_sizes` gives
    for the rates.  The balance and capacity tolerances, ``BALANCE_TOL``
    and ``CAP_TOL``, are relative to ``sum(lambda)``, and the floors'
    ``SUM_RTOL`` to the recomputed floor, so the verdict does not change
    with the unit of time.  Messages name the plan file's fields.
    """
    if assignment.n != net.n:
        raise ValidationError(f"assignment is for {assignment.n} stations, network has {net.n}")
    scale = float(net.arrival_rate.sum())
    balance_tol, cap_tol = BALANCE_TOL * scale, CAP_TOL * scale
    a_res, b_res, excess = assignment_residuals(net, assignment)
    for name, res in (("alpha", a_res), ("beta", b_res)):
        if np.max(np.abs(res)) > balance_tol:
            i = int(np.argmax(np.abs(res)))
            raise ValidationError(
                f"{name} balance residual {res[i]:.3g} at station {i} exceeds {balance_tol:.3g}"
            )
    if np.max(excess) > cap_tol:
        i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
        raise ValidationError(
            f"beta[{i},{j}] exceeds taxi capacity by {excess[i, j]:.3g} (> {cap_tol:.3g})"
        )
    floors = fleet_sizes(net, assignment.vehicle_rates, assignment.driver_rates)
    stated = (assignment.min_vehicles, assignment.min_drivers)
    for name, want, got in zip(("v_alpha", "r_alpha_beta"), floors, stated):
        if abs(got - want) > SUM_RTOL * want:
            raise ValidationError(f"{name} is {got:.6g}, but the rates pin {want:.6g} in transit")
