"""Bootstrap-MSE/SE kernel invariants (reference
tests/test_sample_entropy.py:198-247, 525-544); the one-call replicate
SampEns equal the scalar kernel per replicate."""

import numpy as np
import pytest

from eristropy_ray.kernels.bootstrap import stationary_bootstrap
from eristropy_ray.kernels.sampen import sampen
from eristropy_ray.kernels.sampen_boot import (
    _replicate_sampens,
    sampen_bootstrap_mse,
    sampen_bootstrap_se,
)

_rng = np.random.default_rng(5)
_normal = _rng.normal(size=150)


@pytest.mark.parametrize(
    "x, m, r",
    [
        (_normal, 2, 0.2),
        (_normal[:40], 1, 0.5),
        (_rng.integers(0, 3, 120).astype(float), 2, 0.5),  # ties
        (np.full(60, 3.0), 2, 0.2),  # constant: SampEn -0.0
        (_normal[:3], 2, 0.2),  # n <= m + 1
        (_normal[:2], 1, 0.2),
        (_normal, 2, 0.0),
        (_normal, 2, -0.3),
        (np.full(60, 3.0), 2, 0.0),
    ],
    ids=["normal", "m1", "ties", "constant", "n_m_plus_1", "n2_m1", "r0",
         "r_negative", "constant_r0"],
)
def test_replicate_sampens_equal_scalar_loop_bits(x, m, r):
    X = stationary_bootstrap(x, 0.3, 40, seed=7, key=(2,))
    want = np.array([sampen(row, m, r) for row in X])
    got = _replicate_sampens(x, m, r, 0.3, 40, 7, (2,))
    assert got.dtype == np.float64 and got.shape == (40,)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_mse_nonnegative(rng):
    x = rng.normal(size=200)
    assert sampen_bootstrap_mse(x, 2, 0.2, 0.5, n_boot=30, seed=1, key=(1,)) >= 0


def test_constant_signal_mse_zero():
    x = np.full(120, 3.0)
    # every bootstrap replicate of a constant is the constant; SampEn 0
    assert sampen_bootstrap_mse(x, 2, 0.2, 0.5, n_boot=10, seed=1) == 0.0
    assert sampen_bootstrap_se(x, 2, 0.2, 0.5, n_boot=10, seed=1) == 0.0


def test_mse_nonincreasing_with_length(rng):
    x = rng.normal(size=400)
    short = sampen_bootstrap_mse(x[:60], 1, 0.3, 0.5, n_boot=60, seed=2, key=(1,))
    long_ = sampen_bootstrap_mse(x, 1, 0.3, 0.5, n_boot=60, seed=2, key=(2,))
    assert long_ <= short


def test_se_nonnegative_and_deterministic(rng):
    x = rng.normal(size=150)
    a = sampen_bootstrap_se(x, 2, 0.25, 0.4, n_boot=25, seed=3, key=(9,))
    b = sampen_bootstrap_se(x, 2, 0.25, 0.4, n_boot=25, seed=3, key=(9,))
    assert a == b >= 0
