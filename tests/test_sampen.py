"""SampEn conformance: bit-for-bit against golden vectors generated from
the reference's run-length kernel (utils.py:144-193; the generating
transliteration is not kept in-repo), plus the reference test suite's
analytic invariants (tests/test_utils.py:143-191)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from eristropy_ray.kernels.sampen import (
    _sampen_matrix,
    _sampen_offset,
    sampen,
    sampen_auto_r,
)

_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "reference_golden.json").read_text()
)


def _f(hex_str):
    return np.frombuffer(bytes.fromhex(hex_str), dtype=np.float64)


def test_bit_for_bit_vs_reference_golden():
    for case in _GOLDEN["sampen"]:
        x = _f(case["x_hex"])
        r = float(_f(case["r_hex"])[0])
        want = float(_f(case["want_hex"])[0])
        got = sampen(x, case["m"], r)
        assert (math.isnan(want) and math.isnan(got)) or want == got


def test_matrix_and_offset_paths_agree(rng):
    for _ in range(30):
        n = int(rng.integers(10, 200))
        m = int(rng.integers(1, 4))
        x = rng.normal(size=n)
        r = float(rng.uniform(0.1, 1.0))
        a = _sampen_matrix(x, m, r)
        b = _sampen_offset(x, m, r)
        assert (math.isnan(a) and math.isnan(b)) or a == b


def test_constant_signal_is_zero():
    x = np.full(1000, 5.0)
    assert sampen(x, 2, 0.2) == 0.0
    val, r_used = sampen_auto_r(x)
    assert val == 0.0 and r_used == 1.0


def test_linear_signal_is_zero():
    x = np.linspace(0, 1, 1000)
    assert sampen(x, 2, 0.2) == 0.0


def test_random_positive_and_ordering(rng):
    noise = rng.normal(size=1000)
    sine = np.sin(np.linspace(0, 6 * np.pi, 1000))
    s_noise = sampen(noise, 2, 0.2)
    s_sine = sampen(sine, 2, 0.2)
    assert s_noise > 0
    assert 0 <= s_sine < s_noise


def test_decreasing_in_r(rng):
    x = rng.normal(size=600)
    vals = [sampen(x, 2, r) for r in (0.1, 0.2, 0.4, 0.8)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_short_signal_nan():
    assert math.isnan(sampen(np.array([1.0, 2.0, 3.0]), 2, 0.2))
    assert math.isnan(sampen(np.array([1.0]), 1, 0.2))


def test_no_match_nan():
    x = np.array([0.0, 10.0, 1.0, 20.0, 2.0, 30.0])
    assert math.isnan(sampen(x, 2, 1e-9))


@pytest.mark.parametrize("r", [0.0, -0.5])
def test_non_positive_radius_is_nan(r):
    """Under the strict ``<`` no pair matches when r <= 0, on every path:
    the matrix path's all-True-diagonal correction must not apply."""
    from eristropy_ray.kernels.batch_entropy import sampen_ragged

    x = np.tile([3.0, 9.0, 9.0, 3.0], 10)
    assert math.isnan(sampen(x, 2, r))
    assert math.isnan(_sampen_matrix(x, 2, r))
    assert math.isnan(_sampen_offset(x, 2, r))
    got = sampen_ragged(x, np.array([0, 20, 40]), 2, np.array([r, r]))
    assert np.isnan(got).all()


def test_nan_input_returns_nan():
    # NaN signals are rejected at the validation boundary; the kernel
    # must return NaN (both paths consistently), never raise from the
    # matrix path's diagonal count correction.
    x = np.array([1.0, np.nan, 2.0, 3.0] * 5)
    assert math.isnan(sampen(x, 2, 0.2))


def test_rejects_2d():
    with pytest.raises(ValueError):
        sampen(np.zeros((3, 3)), 2, 0.2)
