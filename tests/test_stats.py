"""ddof conventions pinned (SURVEY.md §7.4): standard_error is population
SD (ddof=0) despite its name; zscore uses sample SD (ddof=1). ``micros``
is the hand-written micro-unit cast on finite input and raises where
that cast would give INT64_MIN."""

import math

import numpy as np

from eristropy_ray.kernels.difference import difference
from eristropy_ray.kernels.stats import (
    from_micros,
    mean,
    mean_squared_error,
    micros,
    standard_error,
    zscore,
)
import pytest


def test_mean_matches_numpy(rng):
    x = rng.normal(size=257)
    assert mean(x) == np.mean(x)


def test_standard_error_is_population_sd(rng):
    x = rng.normal(size=100)
    assert math.isclose(standard_error(x), np.std(x, ddof=0), rel_tol=1e-14)
    assert standard_error(np.full(10, 3.0)) == 0.0


def test_mse_docstring_example():
    y = np.array([1.0, 2.0, 3.0])
    yhat = np.array([1.5, 2.2, 2.8])
    assert math.isclose(mean_squared_error(y, yhat), 0.11, rel_tol=1e-12)


def test_zscore_matches_pandas_transform(rng):
    import pandas as pd

    x = rng.normal(size=50) * 3 + 7
    s = pd.Series(x)
    want = ((s - s.mean()) / s.std()).to_numpy()  # pandas std: ddof=1
    np.testing.assert_allclose(zscore(x), want, rtol=1e-13)


def test_zscore_degenerate():
    assert np.isnan(zscore(np.full(5, 2.0))).all()


def test_difference_basic():
    np.testing.assert_array_equal(
        difference(np.array([1.0, 3.0, 6.0, 10.0, 15.0])), [2, 3, 4, 5]
    )


def test_difference_errors():
    with pytest.raises(ValueError):
        difference(np.array([1.0]))
    with pytest.raises(ValueError):
        difference(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        difference(np.array([1.0, np.inf]))


def test_micros_equals_the_hand_written_cast(rng):
    ties = (np.arange(-8, 9) + 0.5) / 1e6  # half-micro ties, both signs
    near = np.array([9.2e12, -9.2e12, 9223372036854.7, -9223372036854.7])
    x = np.concatenate(
        [ties, near, [0.0, -0.0, 1e-7, -1e-7], rng.normal(size=500) * 1e3]
    )
    small = x[np.abs(x) < 1e3]  # the products below stay in range
    for v in (x, small * small, small * (1.0 - 0.07)):
        want = np.round(v * 1e6).astype(np.int64)
        np.testing.assert_array_equal(micros(v), want)
        assert micros(v).dtype == np.int64
    np.testing.assert_array_equal(from_micros(micros(x)), micros(x).astype(np.float64) / 1e6)
    assert micros(np.empty(0)).dtype == np.int64


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, 9.3e12, -9.3e12, 9223372036854.776]
)
def test_micros_rejects_what_would_become_int64_min(bad):
    with pytest.raises(ValueError, match="1 value"):
        micros(np.array([1.0, bad, 2.0]))
