import math

import numpy as np
import pytest

from fleetbalance.errors import ValidationError
from fleetbalance.generate import GeneratorConfig, generate_instance


def test_same_seed_same_instance():
    a = generate_instance(30, 7)
    b = generate_instance(30, 7)
    for field in ("arrival_rate", "service_rate", "dest_prob", "travel_time", "taxi_fraction"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.meta == b.meta


@pytest.mark.parametrize("n,seed", [(6, 11), (40, 3)])
def test_documented_draw_order(n, seed):
    cfg = GeneratorConfig(taxi_fraction=0.5)
    net = generate_instance(n, seed, cfg)
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0.0, cfg.env_size, size=(n, 2)).T
    lam = rng.uniform(0.0, cfg.lambda_max, size=n)
    raw = rng.uniform(size=(n, n - 1))
    travel = np.array(
        [[math.sqrt((x[i] - x[j]) * (x[i] - x[j]) + (y[i] - y[j]) * (y[i] - y[j])) for j in range(n)] for i in range(n)]
    )
    rows = [np.insert(raw[i], i, 0.0) for i in range(n)]
    assert np.array_equal(net.arrival_rate, lam)
    assert np.array_equal(net.travel_time, travel)
    assert np.array_equal(net.dest_prob, np.array([row / row.sum() for row in rows]))
    assert np.array_equal(net.taxi_fraction, 0.5 * (1.0 - np.eye(n)))


def test_different_seeds_differ():
    a = generate_instance(10, 0)
    b = generate_instance(10, 1)
    assert not np.array_equal(a.arrival_rate, b.arrival_rate)


def test_generated_instance_shape_and_ranges():
    cfg = GeneratorConfig()
    net = generate_instance(50, 3, cfg)
    assert net.n == 50
    assert np.all(net.arrival_rate >= 0) and np.all(net.arrival_rate <= cfg.lambda_max)
    # max of 50 uniforms is essentially never below half the range
    assert net.arrival_rate.max() > 0.5 * cfg.lambda_max
    assert np.allclose(net.service_rate, 2.0 * net.arrival_rate)
    assert np.allclose(net.dest_prob.sum(axis=1), 1.0)
    assert np.all(np.diagonal(net.dest_prob) == 0)
    assert np.all(np.diagonal(net.travel_time) == 0)
    assert np.allclose(net.travel_time, net.travel_time.T)
    # 100x100 square: distances capped by the diagonal
    assert net.travel_time.max() <= 100.0 * np.sqrt(2.0) + 1e-9
    off = ~np.eye(50, dtype=bool)
    assert np.all(net.taxi_fraction[off] == 1.0)
    assert np.all(np.diagonal(net.taxi_fraction) == 0.0)


def test_total_arrival_rate_scale():
    # n=100 at lambda_max=0.05 concentrates near 100 * 0.025 = 2.5
    net = generate_instance(100, 1)
    assert 1.5 <= float(net.arrival_rate.sum()) <= 3.5


def test_config_fields_flow_through():
    cfg = GeneratorConfig(env_size=10.0, lambda_max=0.2, taxi_fraction=0.5, mu_factor=3.0)
    net = generate_instance(12, 5, cfg)
    assert net.travel_time.max() <= 10.0 * np.sqrt(2.0) + 1e-9
    assert net.arrival_rate.max() <= 0.2
    assert net.arrival_rate.max() > 0.1
    assert np.allclose(net.service_rate, 3.0 * net.arrival_rate)
    off = ~np.eye(12, dtype=bool)
    assert np.all(net.taxi_fraction[off] == 0.5)
    assert net.meta["generator_config"]["lambda_max"] == 0.2


def test_meta_records_seed():
    net = generate_instance(5, 123)
    assert net.meta["seed"] == 123
    assert net.meta["generator_config"] == {
        "env_size": 100.0,
        "lambda_max": 0.05,
        "taxi_fraction": 1.0,
        "mu_factor": 2.0,
    }


def test_negative_seed_is_folded():
    a = generate_instance(5, -1)
    b = generate_instance(5, 2**64 - 1)
    assert np.array_equal(a.arrival_rate, b.arrival_rate)


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(env_size=0.0), "env_size"),
        (dict(lambda_max=-0.1), "lambda_max"),
        (dict(taxi_fraction=-0.5), "taxi_fraction"),
        (dict(mu_factor=1.0), "mu_factor"),
        (dict(env_size=float("inf")), "env_size must be finite"),
        (dict(env_size=float("nan")), "env_size must be finite"),
        (dict(lambda_max=float("nan")), "lambda_max must be finite"),
        (dict(lambda_max=float("inf")), "lambda_max must be finite"),
        (dict(taxi_fraction=float("inf")), "taxi_fraction must be finite"),
        (dict(taxi_fraction=float("nan")), "taxi_fraction must be finite"),
        (dict(mu_factor=float("nan")), "mu_factor must be finite"),
        (dict(mu_factor=float("inf")), "mu_factor must be finite"),
    ],
)
def test_config_validation(kwargs, fragment):
    with pytest.raises(ValidationError, match=fragment):
        GeneratorConfig(**kwargs)


def test_generator_rejects_tiny_n():
    with pytest.raises(ValidationError, match="n must be an integer >= 2"):
        generate_instance(1, 0)
