"""TPE-lite (``optimize.py``) properties: it beats seeded random search
with the same seed and trial budget on convex objectives, and trials whose
objective is NaN never reach its density fits."""

import math

import numpy as np
import pytest

from eristropy_ray.optimize import ParamSpec, Trial, TPEOptimizer

SPECS = [ParamSpec("x", -2.0, 3.0), ParamSpec("y", -1.0, 4.0)]
CONVEX = {
    "bowl": lambda p: (p["x"] - 0.7) ** 2 + 2 * (p["y"] - 1.3) ** 2,
    "corner": lambda p: (p["x"] - 2.8) ** 2 + (p["y"] + 0.9) ** 2,
    "l1": lambda p: abs(p["x"] - 0.1) + abs(p["y"] - 3.0),
}


def _best(opt: TPEOptimizer, f, n_trials: int) -> float:
    opt.optimize(f, n_trials)
    return min(t.value for t in opt.trials)


@pytest.mark.parametrize("name", sorted(CONVEX))
def test_beats_seeded_random_search(name):
    """Random search is the same optimizer with every trial a startup
    trial, so both share the seed and the first 10 draws."""
    f, n = CONVEX[name], 60
    ratios = np.array([
        _best(TPEOptimizer(SPECS, seed=s), f, n)
        / _best(TPEOptimizer(SPECS, seed=s, n_startup=n), f, n)
        for s in range(10)
    ])
    assert (ratios < 1).sum() >= 9, ratios
    assert np.median(ratios) < 0.5, ratios


def test_nan_trials_stay_out_of_the_density_fits():
    """With most trials failed (NaN), every suggestion is finite and in
    bounds, integer parameters stay integral, and the failed trials change
    no suggestion: the fits see only the finite trials."""
    specs = SPECS + [ParamSpec("m", 1, 3, is_int=True)]
    rng = np.random.default_rng(0)

    def trial(value: float) -> Trial:
        x, y, m = rng.uniform(-2.0, 3.0), rng.uniform(-1.0, 4.0), rng.integers(1, 4)
        return Trial(0, {"x": x, "y": y, "m": float(m)}, value)

    finite = [trial(v) for v in (0.5, 2.0, 1.0)]
    failed = [trial(math.nan) for _ in range(40)]
    opt = TPEOptimizer(specs, seed=3, trials=finite + failed)
    for _ in range(20):
        params = opt.suggest()
        for spec in specs:
            v = params[spec.name]
            assert math.isfinite(v) and spec.low <= v <= spec.high
        assert params["m"] == round(params["m"])
        opt.trials.append(Trial(len(opt.trials), params, math.nan))

    for spec in specs:
        a, b = TPEOptimizer(specs, seed=5), TPEOptimizer(specs, seed=5)
        assert a._suggest_tpe(spec, finite) == b._suggest_tpe(spec, finite + failed)
