import json

import numpy as np
import pytest

from fleetbalance.errors import ValidationError
from fleetbalance.generate import generate_instance
from fleetbalance.rebalance import RebalanceSolution, solve_rebalancing
from fleetbalance.storage import (
    load_assignment,
    load_instance,
    save_assignment,
    save_instance,
)


def test_instance_roundtrip_exact(tmp_path):
    net = generate_instance(20, 9)
    path = tmp_path / "net.json"
    save_instance(net, path)
    back = load_instance(path)
    assert back.n == net.n
    for field in ("arrival_rate", "service_rate", "dest_prob", "travel_time", "taxi_fraction"):
        assert np.array_equal(getattr(back, field), getattr(net, field)), field
    assert back.meta == net.meta


def test_save_instance_is_deterministic(tmp_path, two_station):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(two_station, p1)
    save_instance(two_station, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scalar_taxi_fraction_broadcasts(tmp_path):
    data = {
        "n": 2,
        "lambda": [0.4, 0.1],
        "mu": [0.8, 0.2],
        "p": [[0.0, 1.0], [1.0, 0.0]],
        "T": [[0.0, 10.0], [10.0, 0.0]],
        "f": 0.7,
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    net = load_instance(path)
    assert net.taxi_fraction == pytest.approx(np.array([[0.0, 0.7], [0.7, 0.0]]))
    assert net.meta is None


def test_flat_matrices_accepted(tmp_path):
    data = {
        "n": 2,
        "lambda": [0.4, 0.1],
        "mu": [0.8, 0.2],
        "p": [0.0, 1.0, 1.0, 0.0],
        "T": [0.0, 10.0, 10.0, 0.0],
        "f": [0.0, 1.0, 1.0, 0.0],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    net = load_instance(path)
    assert net.dest_prob[0, 1] == 1.0
    assert net.travel_time[1, 0] == 10.0


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("mu"), "missing required field 'mu'"),
        (lambda d: d.update(p=[[0.0, 0.9], [1.0, 0.0]]), "p row 0 sums"),
        (lambda d: d.update(mu=[0.4, 0.2]), "mu[0]"),
        (lambda d: d.update(T=[[0.0, 10.0]]), "T must be an 2x2"),
        (lambda d: d.update(n=0), "'n' must be a positive integer"),
        (lambda d: d.update(n=True), "field 'n' must be a positive integer"),
        (lambda d: d.update(meta=[1, 2]), "'meta' must be an object"),
        (lambda d: d.update({"lambda": ["x", "y"]}), "lambda is not numeric"),
        (lambda d: d.update(p=[[0.0, 1.0], [1.0]]), "p is not numeric"),
        (lambda d: d.update({"lambda": [0.4, "0.1"]}), "lambda is not numeric: got dtype"),
    ],
)
def test_load_instance_errors_name_the_file(tmp_path, mutate, fragment):
    data = {
        "n": 2,
        "lambda": [0.4, 0.1],
        "mu": [0.8, 0.2],
        "p": [[0.0, 1.0], [1.0, 0.0]],
        "T": [[0.0, 10.0], [10.0, 0.0]],
        "f": 1.0,
    }
    mutate(data)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as exc:
        load_instance(path)
    msg = str(exc.value)
    assert fragment in msg
    assert "net.json" in msg


def test_load_instance_rejects_garbage(tmp_path):
    path = tmp_path / "net.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_instance(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValidationError, match="top level"):
        load_instance(path)


def test_nan_rejected_on_save(tmp_path, two_station):
    # bypass network validation to hit the serializer guard
    net = two_station
    bad = object.__new__(type(net))
    for field in ("n", "arrival_rate", "service_rate", "dest_prob", "taxi_fraction", "meta"):
        object.__setattr__(bad, field, getattr(net, field))
    tt = net.travel_time.copy()
    tt[0, 1] = np.nan
    object.__setattr__(bad, "travel_time", tt)
    with pytest.raises(ValueError):
        save_instance(bad, tmp_path / "net.json")


def test_assignment_roundtrip(tmp_path, two_station):
    sol = solve_rebalancing(two_station)
    path = tmp_path / "assign.json"
    save_assignment(sol, path, meta={"note": "hand case"})
    back = load_assignment(path)
    assert back.status == "optimal"
    assert np.array_equal(back.assignment.vehicle_rates, sol.assignment.vehicle_rates)
    assert np.array_equal(back.assignment.driver_rates, sol.assignment.driver_rates)
    assert back.assignment.min_vehicles == sol.assignment.min_vehicles
    assert back.assignment.min_drivers == sol.assignment.min_drivers
    assert back.vehicle_objective == sol.vehicle_objective
    assert back.driver_objective == sol.driver_objective
    assert json.loads(path.read_text())["meta"] == {"note": "hand case"}


def test_save_assignment_refuses_infeasible(tmp_path):
    sol = RebalanceSolution(assignment=None, vehicle_objective=3.0, driver_objective=None)
    assert sol.status == "beta_infeasible"
    with pytest.raises(ValidationError, match="beta_infeasible"):
        save_assignment(sol, tmp_path / "assign.json")


def test_load_assignment_errors(tmp_path):
    path = tmp_path / "assign.json"
    path.write_text(json.dumps({"alpha": [[0.0, 0.0], [0.3, 0.0]]}))
    with pytest.raises(ValidationError, match="missing required field 'beta'"):
        load_assignment(path)
    path.write_text(
        json.dumps(
            {
                "alpha": [[0.0, 0.0], [0.3, 0.0]],
                "beta": [[0.0, 0.3], [0.0, 0.0]],
                "v_alpha": "eight",
                "r_alpha_beta": 6.0,
                "objective_alpha": 3.0,
                "objective_beta": 3.0,
            }
        )
    )
    with pytest.raises(ValidationError, match="v_alpha is not numeric"):
        load_assignment(path)


def _assignment_file(path, alpha, beta):
    path.write_text(
        json.dumps(
            {
                "alpha": alpha,
                "beta": beta,
                "v_alpha": 8.0,
                "r_alpha_beta": 6.0,
                "objective_alpha": 3.0,
                "objective_beta": 3.0,
            }
        )
    )


@pytest.mark.parametrize(
    "alpha,beta,fragment",
    [
        ([[0.0, 0.0], [0.3, 0.0]], [[0.0, 0.3], [0.0]], "beta is not numeric"),
        ([[0.0, "x"], [0.3, 0.0]], [[0.0, 0.3], [0.0, 0.0]], "alpha is not numeric"),
        ([0.0, 0.0, 0.3, 0.0], [[0.0, 0.3], [0.0, 0.0]], "alpha must be an nxn matrix"),
        ([[0.0, 0.0], [0.3, 0.0]], [[0.0, 0.3, 0.0], [0.0, 0.0, 0.0]], "beta must be an 2x2 matrix"),
    ],
)
def test_load_assignment_array_errors_name_the_file(tmp_path, alpha, beta, fragment):
    path = tmp_path / "assign.json"
    _assignment_file(path, alpha, beta)
    with pytest.raises(ValidationError) as exc:
        load_assignment(path)
    msg = str(exc.value)
    assert fragment in msg
    assert "assign.json" in msg


def test_flat_beta_accepted(tmp_path):
    path = tmp_path / "assign.json"
    _assignment_file(path, [[0.0, 0.0], [0.3, 0.0]], [0.0, 0.3, 0.0, 0.0])
    assert np.array_equal(load_assignment(path).assignment.driver_rates, [[0.0, 0.3], [0.0, 0.0]])
