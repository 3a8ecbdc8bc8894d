"""Every number from outside is checked: bad numbers raise ``ValidationError`` naming the field.

One row per entry point and bad number: a JSON boolean (Python's ``True``,
which numpy and ``int`` read as 1), a quoted number, NaN or inf, and a
non-integral float where a count or seed belongs.  CLI rows write the
bad number into an input file and expect exit code 2 and a message that
starts with that file's path.  Rows that the
tables of the other test files already hold are left out.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from fleetbalance import (
    FlowProblem,
    GeneratorConfig,
    RebalanceAssignment,
    StationNetwork,
    SweepConfig,
    ValidationError,
    generate_instance,
    initial_state,
    load_assignment,
    load_instance,
    simulate,
    solve_rebalancing,
    stability_probe,
)
from fleetbalance.cli import main

from conftest import build_two_station

NET = dict(
    n=2,
    arrival_rate=[0.4, 0.1],
    service_rate=[0.8, 0.2],
    dest_prob=[[0.0, 1.0], [1.0, 0.0]],
    travel_time=[[0.0, 10.0], [10.0, 0.0]],
    taxi_fraction=[[0.0, 1.0], [1.0, 0.0]],
)
FLOW = dict(node_count=2, supply=[1.0, -1.0], tail=[0], head=[1], cost=[1.0], capacity=[1.0])
ASSIGNMENT = dict(vehicle_rates=np.zeros((2, 2)), driver_rates=np.zeros((2, 2)), min_vehicles=1.0, min_drivers=1.0)
INSTANCE_FILE = {"n": 2, "lambda": [0.4, 0.1], "mu": [0.8, 0.2], "p": [[0.0, 1.0], [1.0, 0.0]],
                 "T": [[0.0, 10.0], [10.0, 0.0]], "f": 1.0}
ASSIGNMENT_FILE = {"alpha": [[0.0, 0.0], [0.3, 0.0]], "beta": [[0.0, 0.3], [0.0, 0.0]], "v_alpha": 8.0,
                   "r_alpha_beta": 6.0, "objective_alpha": 3.0, "objective_beta": 3.0}


def names(message, field):
    """Whether ``message`` says what is wrong with ``field`` (or one of its entries)."""
    return re.search(rf"(^|: ){re.escape(field)}(\[[0-9,]*\])? (is|must) ", message) is not None


def _state(**kwargs):
    return initial_state(build_two_station(), [0, 0], [1, 1], [1, 1], **{"h": 2.0, **kwargs})


def _simulate(horizon, **fields):
    net = build_two_station()
    return simulate(net, np.zeros((2, 2)), np.zeros((2, 2)), replace(_state(), **fields), horizon)


def _probe(**kwargs):
    net = build_two_station()
    args = {"slack_vehicles": 0.2, "slack_drivers": 0.2, "perturbation": 0.1, "h": 1.0, **kwargs}
    return stability_probe(net, solve_rebalancing(net), **args)


def _file(tmp_path, name, base, **fields):
    path = tmp_path / name
    path.write_text(json.dumps({**base, **fields}))
    return path


# (id, call on tmp_path, the field the message must name)
API_ROWS = [
    ("network-n-float", lambda t: StationNetwork(**{**NET, "n": 2.0}), "n"),
    ("flow-node_count-float", lambda t: FlowProblem(**{**FLOW, "node_count": 2.5}), "node_count"),
    ("flow-supply-quoted", lambda t: FlowProblem(**{**FLOW, "supply": ["1", "-1"]}), "supply"),
    ("flow-supply-nan", lambda t: FlowProblem(**{**FLOW, "supply": [np.nan, 0.0]}), "supply"),
    ("flow-tail-float", lambda t: FlowProblem(**{**FLOW, "tail": [0.7]}), "tail"),
    ("flow-head-quoted", lambda t: FlowProblem(**{**FLOW, "head": ["1"]}), "head"),
    ("flow-cost-inf", lambda t: FlowProblem(**{**FLOW, "cost": [np.inf]}), "cost"),
    ("flow-capacity-bool", lambda t: FlowProblem(**{**FLOW, "capacity": [True]}), "capacity"),
    ("flow-capacity-nan", lambda t: FlowProblem(**{**FLOW, "capacity": [np.nan]}), "capacity"),
    ("sweep-seed-bool", lambda t: SweepConfig(base_seed=False), "base_seed"),
    ("sweep-f_values-bool", lambda t: SweepConfig(f_values=[True]), "f_values"),
    ("generator-lambda_max-bool", lambda t: GeneratorConfig(lambda_max=True), "lambda_max"),
    ("generator-env_size-quoted", lambda t: GeneratorConfig(env_size="100"), "env_size"),
    ("generate-n-float", lambda t: generate_instance(4.0, 1), "n"),
    ("generate-n-bool", lambda t: generate_instance(True, 1), "n"),
    ("generate-seed-float", lambda t: generate_instance(4, 1.7), "seed"),
    ("load_instance-n-bool", lambda t: load_instance(_file(t, "i.json", INSTANCE_FILE, n=True)), "field 'n'"),
    ("load_instance-n-float", lambda t: load_instance(_file(t, "i.json", INSTANCE_FILE, n=2.5)), "field 'n'"),
    ("load_instance-f-bool", lambda t: load_instance(_file(t, "i.json", INSTANCE_FILE, f=True)), "f"),
    ("load_instance-f-quoted", lambda t: load_instance(_file(t, "i.json", INSTANCE_FILE, f="1")), "f"),
    ("load_instance-f-nan", lambda t: load_instance(_file(t, "i.json", INSTANCE_FILE, f=float("nan"))), "f"),
    ("load_assignment-v_alpha-bool",
     lambda t: load_assignment(_file(t, "a.json", ASSIGNMENT_FILE, v_alpha=True)), "v_alpha"),
    ("load_assignment-objective-quoted",
     lambda t: load_assignment(_file(t, "a.json", ASSIGNMENT_FILE, objective_alpha="3")), "objective_alpha"),
    ("load_assignment-objective-inf",
     lambda t: load_assignment(_file(t, "a.json", ASSIGNMENT_FILE, objective_beta=float("inf"))), "objective_beta"),
    ("assignment-min_vehicles-quoted",
     lambda t: RebalanceAssignment(**{**ASSIGNMENT, "min_vehicles": "1.5"}), "v_alpha"),
    ("assignment-min_drivers-bool",
     lambda t: RebalanceAssignment(**{**ASSIGNMENT, "min_drivers": True}), "r_alpha_beta"),
    ("assignment-min_vehicles-nan",
     lambda t: RebalanceAssignment(**{**ASSIGNMENT, "min_vehicles": np.nan}), "v_alpha"),
    ("state-h-quoted", lambda t: _state(h="0.37"), "h"),
    ("state-h-bool", lambda t: _state(h=True), "h"),
    ("state-h-nan", lambda t: _state(h=np.nan), "h"),
    ("state-step_index-float", lambda t: _simulate(20.0, step_index=2.5), "step_index"),
    ("state-step_index-bool", lambda t: _simulate(20.0, step_index=True), "step_index"),
    ("state-step_index-negative", lambda t: _simulate(20.0, step_index=-1), "step_index"),
    ("state-levels-nan", lambda t: replace(_state(), levels=[[0, 0], [1, np.nan], [1, 1]]), "levels"),
    ("state-levels-quoted", lambda t: replace(_state(), levels=[["0", "0"], ["1", "1"], ["1", "1"]]), "levels"),
    ("state-calendars-negative", lambda t: replace(_state(), calendars=np.full((2, 5, 2), -0.1)), "calendars"),
    ("replaced-state-h-quoted", lambda t: _simulate(20.0, h="0.5"), "h"),
    ("replaced-state-h-bool", lambda t: _simulate(20.0, h=True), "h"),
    ("replaced-state-h-nan", lambda t: _simulate(20.0, h=np.nan), "h"),
    ("replaced-state-h-none", lambda t: _simulate(20.0, h=None), "h"),
    ("replaced-state-h-zero", lambda t: _simulate(20.0, h=0.0), "h"),
    ("simulate-horizon-quoted", lambda t: _simulate("20"), "horizon"),
    ("simulate-horizon-bool", lambda t: _simulate(True), "horizon"),
    # numpy cannot size these step counts: refused before any allocation
    ("simulate-horizon-unsizable", lambda t: _simulate(1e300), "horizon"),
    ("state-h-unsizable", lambda t: _state(h=1e-300), "h"),
    ("probe-slack-quoted", lambda t: _probe(slack_vehicles="0.2"), "slack_vehicles"),
    ("probe-slack-bool", lambda t: _probe(slack_drivers=True), "slack_drivers"),
    ("probe-perturbation-quoted", lambda t: _probe(perturbation="0.1"), "perturbation"),
    ("probe-perturbation-nan", lambda t: _probe(perturbation=np.nan), "perturbation"),
    ("probe-h-quoted", lambda t: _probe(h="1.0"), "h"),
    ("probe-seed-float", lambda t: _probe(seed=1.7), "seed"),
    ("probe-seed-bool", lambda t: _probe(seed=True), "seed"),
]


@pytest.mark.parametrize("call,field", [row[1:] for row in API_ROWS], ids=[row[0] for row in API_ROWS])
def test_bad_numbers_are_rejected_by_name(tmp_path, call, field):
    with pytest.raises(ValidationError) as exc:
        call(tmp_path)
    assert names(str(exc.value), field)


def _sweep(tmp_path, **fields):
    config = _file(tmp_path, "sweep.json", {"sizes": [5], "trials_per_size": 1}, **fields)
    return ["sweep", "--config", str(config), "--out-dir", str(tmp_path / "out")]


def _solve(tmp_path, **fields):
    instance = _file(tmp_path, "i.json", INSTANCE_FILE, **fields)
    return ["solve", "--instance", str(instance), "--out", str(tmp_path / "a.json")]


def _simulate_cli(tmp_path, **fields):
    instance = _file(tmp_path, "i.json", INSTANCE_FILE)
    assignment = _file(tmp_path, "a.json", ASSIGNMENT_FILE, **fields)
    return ["simulate", "--instance", str(instance), "--assignment", str(assignment),
            "--V", "9.6", "--R", "7.2", "--trace-out", str(tmp_path / "t.csv")]


CLI_ROWS = [
    ("sweep-lambda_max-bool", lambda t: _sweep(t, generator={"lambda_max": True}), "lambda_max", "sweep.json"),
    ("sweep-lambda_max-quoted", lambda t: _sweep(t, generator={"lambda_max": "0.1"}), "lambda_max", "sweep.json"),
    ("solve-f-bool", lambda t: _solve(t, f=True), "f", "i.json"),
    ("solve-n-quoted", lambda t: _solve(t, n="2"), "field 'n'", "i.json"),
    ("simulate-r_alpha_beta-bool", lambda t: _simulate_cli(t, r_alpha_beta=True), "r_alpha_beta", "a.json"),
    ("simulate-objective-nan", lambda t: _simulate_cli(t, objective_alpha=float("nan")), "objective_alpha", "a.json"),
]


@pytest.mark.parametrize("argv,field,file", [row[1:] for row in CLI_ROWS], ids=[row[0] for row in CLI_ROWS])
def test_cli_exits_2_on_bad_numbers(tmp_path, capsys, argv, field, file):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    # the message names the file the bad number came from, as well as the field
    assert err.startswith(f"error: {tmp_path / file}: ") and names(err, field)
    assert not (tmp_path / "out").exists() and not (tmp_path / "t.csv").exists()
