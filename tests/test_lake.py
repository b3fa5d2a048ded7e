"""Lake analytic CP kernel: bit-for-bit against golden vectors generated
from the reference kernel (extras.py:51-191; generating transliteration
not kept in-repo), plus objective sanity."""

import json
import math
from pathlib import Path

import numpy as np

from eristropy_ray.kernels.lake import (
    bootstrap_objective,
    counting_objective,
    cp_mean_and_sd,
    sampen_and_analytic_se,
)
from eristropy_ray.kernels.sampen import sampen

_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "reference_golden.json").read_text()
)


def _f(hex_str):
    return np.frombuffer(bytes.fromhex(hex_str), dtype=np.float64)


def _eq(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


def test_bit_for_bit_vs_reference_golden():
    for case in _GOLDEN["lake"]:
        x = _f(case["x_hex"])
        r = float(_f(case["r_hex"])[0])
        want_cp = float(_f(case["cp_hex"])[0])
        want_sd = float(_f(case["sd_hex"])[0])
        got_cp, got_sd = cp_mean_and_sd(x, case["m"], r)
        assert _eq(want_cp, got_cp) and _eq(want_sd, got_sd)


def test_cp_in_unit_interval(rng):
    x = rng.normal(size=120)
    cp, sd = cp_mean_and_sd(x, 2, 0.5)
    assert 0 < cp <= 1
    assert sd > 0


def test_analytic_se_consistency(rng):
    x = rng.normal(size=150)
    s, se = sampen_and_analytic_se(x, 2, 0.5)
    assert s > 0 and se > 0
    # Lake's CP-based SampEn should be close to (not identical to) the
    # template-count SampEn — different boundary conventions
    assert abs(s - sampen(x, 2, 0.5)) < 0.2


def test_counting_objective_finite_and_nan(rng):
    x = rng.normal(size=100)
    assert np.isfinite(counting_objective(x, 2, 0.5))


def test_bootstrap_objective_positive_and_deterministic(rng):
    x = rng.normal(size=80)
    a = bootstrap_objective(x, 2, 0.5, n_boot=20, seed=5, key=(1,))
    b = bootstrap_objective(x, 2, 0.5, n_boot=20, seed=5, key=(1,))
    assert a == b and a > 0


def test_bootstrap_objective_at_zero_sampen():
    """Every template matches, so SampEn is 0: the SE/SampEn term is 0,
    as ``counting_objective`` scores CP == 1."""
    x = np.tile([0.0, 1.0], 30)
    assert sampen(x, 2, 0.5) == 0.0
    assert counting_objective(x, 2, 0.5) == 0.0
    se = bootstrap_objective(x, 2, 0.5, n_boot=20, seed=5)
    assert se == max(se, 0.0) and math.isfinite(se)
