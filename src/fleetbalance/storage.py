"""JSON serialization for instances and assignments.

Instance files carry ``n``, ``lambda``, ``mu``, ``p``, ``T``, ``f`` and
an optional ``meta`` object; matrices are written as nested row-major
lists and may be read back either nested or flat (length n*n).  ``f``
may also be a single scalar, which broadcasts to every leg with a zero
diagonal.  Assignment files carry ``alpha``, ``beta``, ``v_alpha``,
``r_alpha_beta``, ``objective_alpha``, ``objective_beta``.

Each file is one line of compact JSON.  Floats are written with full
``repr`` precision (the default for ``json``), so ``load(save(x))``
reproduces ``x`` exactly and saving the same object twice produces
identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ValidationError
from .network import RebalanceAssignment, StationNetwork
from .rebalance import RebalanceSolution

PathLike = Union[str, Path]


def _require(data: dict, key: str, path: PathLike):
    if key not in data:
        raise ValidationError(f"{path}: missing required field '{key}'")
    return data[key]


def _vector(name: str, value, n: int, path: PathLike) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: field '{name}' is not numeric: {exc}") from exc
    if arr.shape != (n,):
        raise ValidationError(f"{path}: field '{name}' must have length {n}")
    return arr

def _matrix(name: str, value, n: int, path: PathLike) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: field '{name}' is not numeric: {exc}") from exc
    if arr.shape == (n * n,):
        arr = arr.reshape(n, n)
    if arr.shape != (n, n):
        raise ValidationError(f"{path}: field '{name}' must be an {n}x{n} row-major matrix")
    return arr


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
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"{path}: field 'n' must be a positive integer")

    lam = _vector("lambda", _require(data, "lambda", path), n, path)
    mu = _vector("mu", _require(data, "mu", path), n, path)
    p = _matrix("p", _require(data, "p", path), n, path)
    tt = _matrix("T", _require(data, "T", path), n, path)

    f_raw = _require(data, "f", path)
    if isinstance(f_raw, (int, float)):
        f = np.full((n, n), float(f_raw))
        np.fill_diagonal(f, 0.0)
    else:
        f = _matrix("f", f_raw, n, path)

    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValidationError(f"{path}: field 'meta' must be an object")
    try:
        return StationNetwork(
            n=n,
            arrival_rate=lam,
            service_rate=mu,
            dest_prob=p,
            travel_time=tt,
            taxi_fraction=f,
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
    alpha_raw = _require(data, "alpha", path)
    try:
        alpha = np.array(alpha_raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: field 'alpha' is not numeric: {exc}") from exc
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
        raise ValidationError(f"{path}: field 'alpha' must be a square matrix")
    n = alpha.shape[0]
    beta = _matrix("beta", _require(data, "beta", path), n, path)

    def _scalar(key):
        val = _require(data, key, path)
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ValidationError(f"{path}: field '{key}' must be a number")
        return float(val)

    try:
        assignment = RebalanceAssignment(
            vehicle_rates=alpha,
            driver_rates=beta,
            min_vehicles=_scalar("v_alpha"),
            min_drivers=_scalar("r_alpha_beta"),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return RebalanceSolution(
        status="optimal",
        assignment=assignment,
        vehicle_objective=_scalar("objective_alpha"),
        driver_objective=_scalar("objective_beta"),
    )
