"""JSON serialization for instances and assignments.

This module owns only the file format.  Instance files carry ``n``,
``lambda``, ``mu``, ``p``, ``T``, ``f`` and an optional ``meta``
object; matrices are written as nested row-major lists and may be read
back flat (length n*n), and ``f`` may be one scalar for every leg (zero
diagonal).  Assignment files carry ``alpha`` (always nested: its rows
give n), ``beta``, ``v_alpha``, ``r_alpha_beta``, ``objective_alpha``
and ``objective_beta``.  The arrays go as read to
:class:`StationNetwork` and :class:`RebalanceAssignment`, which check
every value; their messages come back prefixed with the file's path.

Each file is one line of compact JSON.  Floats are written with full
``repr`` precision (the default for ``json``), so ``load(save(x))``
reproduces ``x`` exactly and saving the same object twice produces
identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .errors import ValidationError
from .network import RebalanceAssignment, StationNetwork, _from_legs
from .rebalance import RebalanceSolution

PathLike = Union[str, Path]


def _require(data: dict, key: str, path: PathLike):
    if key not in data:
        raise ValidationError(f"{path}: missing required field '{key}'")
    return data[key]


def _rows(value, n: int):
    """A flat row-major list of ``n*n`` entries as ``n`` rows; any other value as it is."""
    if isinstance(value, list) and n > 0 and len(value) == n * n and not isinstance(value[0], list):
        return [value[i * n:(i + 1) * n] for i in range(n)]
    return value


def read_json_object(path: PathLike) -> dict:
    """The top-level object of a JSON file; ``ValidationError`` if it holds anything else."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    return data


def _write_json(data: dict, path: PathLike) -> None:
    # json.dumps without indent runs the C encoder; json.dump to a file never does
    with open(path, "w") as fh:
        fh.write(json.dumps(data, allow_nan=False) + "\n")


def save_instance(net: StationNetwork, path: PathLike) -> None:
    data = {
        "n": net.n,
        "lambda": net.arrival_rate.tolist(),
        "mu": net.service_rate.tolist(),
        "p": net.dest_prob.tolist(),
        "T": net.travel_time.tolist(),
        "f": net.taxi_fraction.tolist(),
        "meta": net.meta,
    }
    _write_json(data, path)


def load_instance(path: PathLike) -> StationNetwork:
    data = read_json_object(path)
    n = _require(data, "n", path)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"{path}: field 'n' must be a positive integer")
    lam, mu, p, tt, f = (_require(data, key, path) for key in ("lambda", "mu", "p", "T", "f"))
    if isinstance(f, (int, float)):
        f = _from_legs(float(f), n)
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValidationError(f"{path}: field 'meta' must be an object")
    try:
        return StationNetwork(
            n=n,
            arrival_rate=lam,
            service_rate=mu,
            dest_prob=_rows(p, n),
            travel_time=_rows(tt, n),
            taxi_fraction=_rows(f, n),
            meta=meta,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_assignment(solution: RebalanceSolution, path: PathLike, meta: dict | None = None) -> None:
    """Write an optimal rebalancing solution; refuses infeasible ones."""
    if solution.status != "optimal" or solution.assignment is None:
        raise ValidationError(f"cannot save a solution with status '{solution.status}'")
    a = solution.assignment
    data = {
        "alpha": a.vehicle_rates.tolist(),
        "beta": a.driver_rates.tolist(),
        "v_alpha": a.min_vehicles,
        "r_alpha_beta": a.min_drivers,
        "objective_alpha": solution.vehicle_objective,
        "objective_beta": solution.driver_objective,
    }
    if meta is not None:
        data["meta"] = meta
    _write_json(data, path)


def load_assignment(path: PathLike) -> RebalanceSolution:
    data = read_json_object(path)

    def _scalar(key):
        val = _require(data, key, path)
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ValidationError(f"{path}: field '{key}' must be a number")
        return float(val)

    alpha, beta = _require(data, "alpha", path), _require(data, "beta", path)
    # alpha is always nested, so its rows give n for a flat beta
    n = len(alpha) if isinstance(alpha, list) else 0
    v_alpha, r_alpha_beta = _scalar("v_alpha"), _scalar("r_alpha_beta")
    try:
        assignment = RebalanceAssignment(
            vehicle_rates=alpha,
            driver_rates=_rows(beta, n),
            min_vehicles=v_alpha,
            min_drivers=r_alpha_beta,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return RebalanceSolution(
        status="optimal",
        assignment=assignment,
        vehicle_objective=_scalar("objective_alpha"),
        driver_objective=_scalar("objective_beta"),
    )
