"""JSON serialization: the reader of every input file and the writer of every JSON output.

This module owns only the file format.  Instance files carry ``n``,
``lambda``, ``mu``, ``p``, ``T``, ``f`` and an optional ``meta``
object; matrices are written as nested row-major lists and may be read
back flat (length n*n), and ``f`` may be one scalar for every leg (zero
diagonal).  Assignment files carry ``alpha`` (always nested: its rows
give n), ``beta``, ``v_alpha``, ``r_alpha_beta``, ``objective_alpha``
and ``objective_beta``.  Sweep config files carry any fields of
:class:`SweepConfig`, with ``generator`` an object of
:class:`GeneratorConfig` fields.  Every value goes as read to
:class:`StationNetwork`, :class:`RebalanceAssignment`, the two configs
or the checkers they use, ``_checked_array`` and ``_checked_int``; their
messages come back prefixed with the file's path.

Each file written, the CLI's ``.meta.json`` sidecars and sweep config
echoes included (:func:`_write_json`), is one line of compact JSON.
Floats are written with full ``repr`` precision (the default for
``json``), so ``load(save(x))`` reproduces ``x`` exactly and saving the
same object twice produces identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Union

from .errors import ValidationError
from .experiments import SweepConfig
from .generate import GeneratorConfig
from .network import RebalanceAssignment, StationNetwork, _checked_array, _checked_int, _from_legs
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
        except ValueError as exc:  # bytes that are not text, or text that is not JSON
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
    n, lam, mu, p, tt, f = (_require(data, key, path) for key in ("n", "lambda", "mu", "p", "T", "f"))
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValidationError(f"{path}: field 'meta' must be an object")
    try:
        n = _checked_int("field 'n'", n, 1)
        if not isinstance(f, list):  # one taxi fraction for every leg
            f = _from_legs(float(_checked_array("f", f, ())), n)
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
    if solution.assignment is None:
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
    alpha, beta, v_alpha, r_alpha_beta, obj_alpha, obj_beta = (
        _require(data, key, path)
        for key in ("alpha", "beta", "v_alpha", "r_alpha_beta", "objective_alpha", "objective_beta")
    )
    # alpha is always nested, so its rows give n for a flat beta
    n = len(alpha) if isinstance(alpha, list) else 0
    try:
        return RebalanceSolution(
            assignment=RebalanceAssignment(
                vehicle_rates=alpha,
                driver_rates=_rows(beta, n),
                min_vehicles=v_alpha,
                min_drivers=r_alpha_beta,
            ),
            vehicle_objective=float(_checked_array("objective_alpha", obj_alpha, ())),
            driver_objective=float(_checked_array("objective_beta", obj_beta, ())),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_sweep_config(path: PathLike) -> SweepConfig:
    data = read_json_object(path)
    try:
        extra = sorted(set(data) - {f.name for f in fields(SweepConfig)})
        if extra:
            raise ValidationError(f"unknown sweep config fields: {', '.join(extra)}")
        generator = data.get("generator", {})
        if not isinstance(generator, dict):
            raise ValidationError("field 'generator' must be an object")
        return SweepConfig(**{**data, "generator": GeneratorConfig(**generator)})
    except (ValidationError, TypeError) as exc:  # TypeError: an unknown generator field
        raise ValidationError(f"{path}: {exc}") from exc
