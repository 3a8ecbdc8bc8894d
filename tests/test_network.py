import numpy as np
import pytest

from fleetbalance.errors import ValidationError
from fleetbalance.network import (
    RebalanceAssignment,
    StationNetwork,
    _from_legs,
    _legs,
    _on_legs,
    compute_imbalance,
    fleet_sizes,
    validate_assignment,
)
from fleetbalance.rebalance import solve_rebalancing

from conftest import build_two_station
from oracles import SizeLimitError, check_feasibility_bruteforce


def test_two_station_fields_frozen(two_station):
    assert two_station.n == 2
    with pytest.raises(ValueError):
        two_station.arrival_rate[0] = 99.0
    with pytest.raises(Exception):
        two_station.n = 3


def test_imbalance_two_station(two_station):
    d = compute_imbalance(two_station)
    # station 0 sends 0.4 out and receives 0.1 back
    assert d == pytest.approx([-0.3, 0.3], abs=1e-12)
    assert d.shape == (2,)
    assert abs(d.sum()) < 1e-12


def test_imbalance_symmetric_network_is_zero():
    n = 3
    p = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    net = StationNetwork(
        n=n,
        arrival_rate=np.ones(n),
        service_rate=np.full(n, 2.0),
        dest_prob=p,
        travel_time=5.0 * (np.ones((n, n)) - np.eye(n)),
        taxi_fraction=np.ones((n, n)) - np.eye(n),
    )
    assert compute_imbalance(net) == pytest.approx(np.zeros(n), abs=1e-12)


def test_imbalance_sums_to_zero_on_random_instances(make_instance):
    for seed in range(25):
        net = make_instance(12, seed)
        d = compute_imbalance(net)
        assert abs(d.sum()) < 1e-12
        assert d.shape == (net.n,)


def test_imbalance_is_read_only(two_station):
    d = compute_imbalance(two_station)
    with pytest.raises(ValueError):
        d[0] = 1.0


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("arrival_rate", [-0.1, 0.1], "lambda"),
        ("arrival_rate", [0.4, 0.1, 0.2], "length-2"),
        ("service_rate", [0.3, 0.2], "mu[0]"),
        ("dest_prob", [[0.0, 0.9], [1.0, 0.0]], "p row 0 sums"),
        ("dest_prob", [[0.1, 0.9], [1.0, 0.0]], "p[0,0]"),
        ("dest_prob", [[0.0, 1.5], [1.0, 0.0]], "exceeds 1"),
        ("travel_time", [[1.0, 10.0], [10.0, 0.0]], "T[0,0]"),
        ("travel_time", [[0.0, -1.0], [10.0, 0.0]], "T[0,1]"),
        ("taxi_fraction", [[0.0, -0.5], [1.0, 0.0]], "f[0,1]"),
        ("travel_time", [[0.0, np.inf], [10.0, 0.0]], "not finite"),
        ("arrival_rate", ["x", 0.1], "lambda is not numeric"),
        ("service_rate", [0.8, [0.2, 0.3]], "mu is not numeric"),
        ("dest_prob", [[0.0, 1.0], [1.0]], "p is not numeric"),
        ("taxi_fraction", [[0.0, "x"], [1.0, 0.0]], "f is not numeric"),
        # a nonzero diagonal is refused at any unit of time
        ("travel_time", [[1e-13, 10.0], [10.0, 0.0]], "T[0,0]"),
        ("travel_time", [[1e-1, 1e13], [1e13, 0.0]], "T[0,0]"),
    ],
)
def test_network_validation_errors(field, value, fragment):
    kwargs = dict(
        n=2,
        arrival_rate=[0.4, 0.1],
        service_rate=[0.8, 0.2],
        dest_prob=[[0.0, 1.0], [1.0, 0.0]],
        travel_time=[[0.0, 10.0], [10.0, 0.0]],
        taxi_fraction=[[0.0, 1.0], [1.0, 0.0]],
    )
    kwargs[field] = value
    with pytest.raises(ValidationError) as exc:
        StationNetwork(**kwargs)
    assert fragment in str(exc.value)


def test_network_rejects_bad_n():
    # a JSON true loads as a bool, which is an int subclass equal to 1
    for n in (0, True):
        with pytest.raises(ValidationError, match="n must be a positive integer"):
            StationNetwork(
                n=n,
                arrival_rate=[],
                service_rate=[],
                dest_prob=[[]],
                travel_time=[[]],
                taxi_fraction=[[]],
            )


def test_first_bad_probability_row_is_reported():
    # row 0 has no arrivals, so only rows 1 and 2 count; row 1 comes first
    with pytest.raises(ValidationError, match=r"^p row 1 sums to 0\.5, expected 1 within 1e-09$"):
        StationNetwork(
            n=3,
            arrival_rate=[0.0, 0.1, 0.1],
            service_rate=[0.2, 0.2, 0.2],
            dest_prob=[[0.0, 0.1, 0.1], [0.5, 0.0, 0.0], [0.9, 0.0, 0.0]],
            travel_time=np.ones((3, 3)) - np.eye(3),
            taxi_fraction=np.ones((3, 3)) - np.eye(3),
        )


@pytest.mark.parametrize("n", [1, 2, 7])
def test_leg_layout_round_trip(n):
    matrix = np.random.default_rng(n).uniform(size=(n, n))
    tail, head = np.nonzero(~np.eye(n, dtype=bool))
    assert np.array_equal(_legs(n)[0], tail) and np.array_equal(_legs(n)[1], head)
    assert np.array_equal(_on_legs(matrix), matrix[tail, head])
    zeroed = matrix.copy()
    np.fill_diagonal(zeroed, 0.0)
    assert np.array_equal(_from_legs(_on_legs(matrix), n), zeroed)
    assert np.array_equal(_from_legs(0.75, n), np.where(np.eye(n, dtype=bool), 0.0, 0.75))


def test_zero_arrival_row_skips_probability_check():
    # a station nobody departs from may have an all-zero p row
    net = StationNetwork(
        n=2,
        arrival_rate=[0.4, 0.0],
        service_rate=[0.8, 0.2],
        dest_prob=[[0.0, 1.0], [0.0, 0.0]],
        travel_time=[[0.0, 10.0], [10.0, 0.0]],
        taxi_fraction=[[0.0, 1.0], [1.0, 0.0]],
    )
    assert compute_imbalance(net) == pytest.approx([-0.4, 0.4])


def test_travel_time_helpers(two_station, make_instance):
    assert two_station.min_offdiag_travel_time() == 10.0
    assert two_station.max_travel_time() == 10.0
    net = make_instance(15, 3)
    off = net.travel_time[~np.eye(15, dtype=bool)]
    assert net.min_offdiag_travel_time() == pytest.approx(off[off > 0].min())
    assert net.max_travel_time() == pytest.approx(net.travel_time.max())


def test_taxi_capacity(two_station):
    cap = two_station.taxi_capacity()
    assert cap == pytest.approx(np.array([[0.0, 0.4], [0.1, 0.0]]), abs=1e-12)
    tight = build_two_station(f_01=0.5)
    assert tight.taxi_capacity()[0, 1] == pytest.approx(0.2)


def test_fleet_sizes_hand_values(two_station):
    alpha = np.array([[0.0, 0.0], [0.3, 0.0]])
    beta = np.array([[0.0, 0.3], [0.0, 0.0]])
    v, r = fleet_sizes(two_station, alpha, beta)
    # customer trips pin 10*0.4 + 10*0.1 = 5; alpha adds 3; alpha+beta pin 6
    assert v == pytest.approx(8.0)
    assert r == pytest.approx(6.0)
    v0, r0 = fleet_sizes(two_station, np.zeros((2, 2)), np.zeros((2, 2)))
    assert v0 == pytest.approx(5.0)
    assert r0 == 0.0


def test_fleet_sizes_linear_in_rates(make_instance):
    net = make_instance(8, 11)
    rng = np.random.default_rng(0)
    alpha = rng.uniform(0, 0.1, (8, 8)) * (1 - np.eye(8))
    beta = rng.uniform(0, 0.1, (8, 8)) * (1 - np.eye(8))
    v1, r1 = fleet_sizes(net, alpha, beta)
    v2, r2 = fleet_sizes(net, 2 * alpha, beta)
    assert v2 - v1 == pytest.approx(np.sum(net.travel_time * alpha))
    assert r2 - r1 == pytest.approx(np.sum(net.travel_time * alpha))


def test_fleet_sizes_rejects_negative_rates(two_station):
    with pytest.raises(ValidationError, match="alpha"):
        fleet_sizes(two_station, [[0.0, -0.1], [0.0, 0.0]], np.zeros((2, 2)))


def test_assignment_validation(two_station):
    good = RebalanceAssignment(
        vehicle_rates=[[0.0, 0.0], [0.3, 0.0]],
        driver_rates=[[0.0, 0.3], [0.0, 0.0]],
        min_vehicles=8.0,
        min_drivers=6.0,
    )
    validate_assignment(two_station, good)

    unbalanced = RebalanceAssignment(
        vehicle_rates=[[0.0, 0.0], [0.2, 0.0]],
        driver_rates=[[0.0, 0.3], [0.0, 0.0]],
        min_vehicles=7.0,
        min_drivers=5.0,
    )
    with pytest.raises(ValidationError, match="alpha balance residual"):
        validate_assignment(two_station, unbalanced)

    over_cap = RebalanceAssignment(
        vehicle_rates=[[0.0, 0.2], [0.5, 0.0]],
        driver_rates=[[0.0, 0.5], [0.2, 0.0]],
        min_vehicles=12.0,
        min_drivers=14.0,
    )
    with pytest.raises(ValidationError, match="taxi capacity"):
        validate_assignment(two_station, over_cap)


@pytest.mark.parametrize(
    "lambda_max,n,seed,plan",
    [
        # max |surplus| is 5e-10 here: doing nothing leaves it all unbalanced
        (1e-9, 10, 1, "nothing"),
        # rounding of ~1e11 rates leaves absolute residuals near 1e-5
        (1e10, 60, 1, "optimal"),
        (1e10, 60, 2, "optimal"),
        (1e10, 60, 3, "optimal"),
        # the largest acceptance-sweep size at the default rate scale
        (0.05, 200, 1, "optimal"),
    ],
)
def test_assignment_tolerances_follow_the_rate_scale(make_instance, lambda_max, n, seed, plan):
    net = make_instance(n, seed, lambda_max=lambda_max)
    if plan == "nothing":
        idle = RebalanceAssignment(
            vehicle_rates=np.zeros((n, n)), driver_rates=np.zeros((n, n)), min_vehicles=0.0, min_drivers=0.0
        )
        with pytest.raises(ValidationError, match="alpha balance residual"):
            validate_assignment(net, idle)
    else:
        validate_assignment(net, solve_rebalancing(net).assignment)


def test_assignment_rejects_negative_and_diagonal():
    with pytest.raises(ValidationError, match="alpha"):
        RebalanceAssignment(
            vehicle_rates=[[0.0, -0.1], [0.0, 0.0]],
            driver_rates=np.zeros((2, 2)),
            min_vehicles=1.0,
            min_drivers=1.0,
        )
    with pytest.raises(ValidationError, match="zero diagonal"):
        RebalanceAssignment(
            vehicle_rates=[[0.1, 0.0], [0.0, 0.0]],
            driver_rates=np.zeros((2, 2)),
            min_vehicles=1.0,
            min_drivers=1.0,
        )


@pytest.mark.parametrize("bad", ["x", None])
@pytest.mark.parametrize("field,name", [("min_vehicles", "v_alpha"), ("min_drivers", "r_alpha_beta")])
def test_assignment_fleet_minimum_must_be_a_real(bad, field, name):
    fleets = {"min_vehicles": 1.0, "min_drivers": 1.0, field: bad}
    with pytest.raises(ValidationError, match=f"{name} is not numeric"):
        RebalanceAssignment(vehicle_rates=np.zeros((2, 2)), driver_rates=np.zeros((2, 2)), **fleets)


@pytest.mark.parametrize(
    "bad,message",
    [
        ([[0.0, "x"], [0.0, 0.0]], " is not numeric"),
        ([[0.0, 0.1], [0.0]], " is not numeric"),
        ("x", " is not numeric"),
        (np.zeros((2, 3)), " must be an 2x2 matrix"),
    ],
    ids=["non-numeric", "ragged", "string", "not-square"],
)
@pytest.mark.parametrize("which", ["alpha", "beta"])
@pytest.mark.parametrize("entry", ["RebalanceAssignment", "fleet_sizes"])
def test_rate_matrices_must_be_numeric_arrays(two_station, bad, message, which, entry):
    rates = {"alpha": np.zeros((2, 2)), "beta": np.zeros((2, 2)), which: bad}
    run = {
        "RebalanceAssignment": lambda a, b: RebalanceAssignment(
            vehicle_rates=a, driver_rates=b, min_vehicles=1.0, min_drivers=1.0
        ),
        "fleet_sizes": lambda a, b: fleet_sizes(two_station, a, b),
    }[entry]
    with pytest.raises(ValidationError, match=which + message):
        run(rates["alpha"], rates["beta"])


def test_feasibility_bruteforce_two_station(two_station, two_station_tight):
    ok = check_feasibility_bruteforce(two_station)
    assert ok.feasible and ok.witness is None

    bad = check_feasibility_bruteforce(two_station_tight)
    assert not bad.feasible
    # station 0 must emit 0.3 drivers/time but only 0.2 can ride out
    assert bad.witness == (0,)
    assert bad.demand == pytest.approx(0.3)
    assert bad.capacity == pytest.approx(0.2)


def test_feasibility_bruteforce_full_taxi_fraction_always_feasible(make_instance):
    for seed in range(30):
        net = make_instance(7, seed)
        assert check_feasibility_bruteforce(net).feasible


def test_feasibility_monotone_in_taxi_fraction(make_instance):
    from dataclasses import replace

    rng = np.random.default_rng(42)
    for seed in range(30):
        net = make_instance(6, seed)
        f = rng.uniform(0.0, 1.0, (6, 6)) * (1 - np.eye(6))
        small = replace(net, taxi_fraction=f)
        if check_feasibility_bruteforce(small).feasible:
            big = replace(net, taxi_fraction=1.5 * f)
            assert check_feasibility_bruteforce(big).feasible


def test_feasibility_bruteforce_size_limit(make_instance):
    net = make_instance(21, 0)
    with pytest.raises(SizeLimitError, match="n <= 20"):
        check_feasibility_bruteforce(net)
