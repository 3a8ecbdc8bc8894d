"""Random instance generator.

Stations are placed uniformly at random in a square environment; travel
times are the Euclidean distances.  Arrival rates are uniform on
``[0, lambda_max]``, destination rows are independently sampled
nonnegative vectors normalized to sum to 1 (zero diagonal), queue
service rates are ``mu_factor`` times the arrival rates, and the taxi
fraction is one constant for every leg.

Determinism: one ``numpy.random.default_rng(seed)`` stream drives all
sampling, in this fixed order:

1. station coordinates, one ``(n, 2)`` uniform draw;
2. arrival rates, one ``(n,)`` uniform draw;
3. destination weights, one ``(n, n-1)`` uniform draw scattered
   row-major into the off-diagonal entries, then row-normalized.

Negative seeds are folded with ``seed % 2**64``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .network import StationNetwork, _checked_array, _checked_int, _from_legs


@dataclass(frozen=True)
class GeneratorConfig:
    env_size: float = 100.0
    lambda_max: float = 0.05
    taxi_fraction: float = 1.0
    mu_factor: float = 2.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            object.__setattr__(self, name, float(_checked_array(name, value, ())))
        if self.env_size <= 0:
            raise ValidationError(f"env_size must be positive, got {self.env_size}")
        if self.lambda_max <= 0:
            raise ValidationError(f"lambda_max must be positive, got {self.lambda_max}")
        if self.taxi_fraction < 0:
            raise ValidationError(f"taxi_fraction must be >= 0, got {self.taxi_fraction}")
        if self.mu_factor <= 1:
            raise ValidationError(
                f"mu_factor must exceed 1 so queues drain, got {self.mu_factor}"
            )


def generate_instance(n: int, seed: int, config: GeneratorConfig = GeneratorConfig()) -> StationNetwork:
    """Sample one random instance with ``n`` stations."""
    n, seed = _checked_int("n", n, 2), _checked_int("seed", seed)
    rng = np.random.default_rng(seed % 2**64)

    coords = rng.uniform(0.0, config.env_size, size=(n, 2))
    lam = rng.uniform(0.0, config.lambda_max, size=n)
    raw = rng.uniform(size=(n, n - 1))

    p = _from_legs(raw.ravel(), n)
    p /= p.sum(axis=1, keepdims=True)

    # the diagonal is exactly 0: each station's distance to itself
    diff = coords[:, None, :] - coords[None, :, :]
    travel = np.sqrt((diff ** 2).sum(axis=-1))

    meta = {"seed": seed, "generator_config": asdict(config)}
    return StationNetwork(
        n=n,
        arrival_rate=lam,
        service_rate=config.mu_factor * lam,
        dest_prob=p,
        travel_time=travel,
        taxi_fraction=_from_legs(config.taxi_fraction, n),
        meta=meta,
    )
