"""SampleEntropy / SampEnEfficiency pipelines: the reference test suite's
contracts (determinism, failure modes, warnings, invariants) from
tests/test_sample_entropy.py; both reject NaN/inf input, as the
reference's ``_validate_dataframe`` does."""

import math
import warnings

import numpy as np
import pandas as pd
import pytest

from eristropy_ray.pipelines.entropy import (
    OptimizationFailureWarning,
    SampEnConfig,
    SampEnSettingWarning,
    compute_all_sampen,
    find_optimal_sampen_params,
    _collect_signals,
    sampen_efficiency,
)
from eristropy_ray.stages.validate import SignalValidationError


def _normal_signals(n_sig=5, n=200, seed=17):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=n_sig * n)
    return pd.DataFrame(
        {
            "signal_id": np.repeat(np.arange(n_sig), n),
            "ts_us": np.tile(np.arange(n), n_sig),
            "value": vals,
        }
    )


def test_fixed_params_compute(ray_session):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(m=2, r=0.2, p=0.5, n_boot=20, n_trials=5)
    out, info = compute_all_sampen(
        _normal_signals(), cfg, estimate_uncertainty=True
    )
    assert len(out) == 5
    assert (out["sampen"] > 0).all()
    assert (out["se_sampen"] >= 0).all()


def test_varlen_signals(ray_session):
    rng = np.random.default_rng(17)
    frames = []
    for sid, n in enumerate((200, 150, 250)):
        frames.append(
            pd.DataFrame(
                {
                    "signal_id": sid,
                    "ts_us": np.arange(n),
                    "value": rng.normal(size=n),
                }
            )
        )
    df = pd.concat(frames)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(m=1, r=0.25, n_boot=10, n_trials=5)
    out, _ = compute_all_sampen(df, cfg)
    assert len(out) == 3 and np.isfinite(out["sampen"]).all()


def test_optimize_deterministic(ray_session):
    df = _normal_signals(n_sig=2, n=80)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(random_seed=17, n_boot=10, n_trials=8)
    best1, _ = find_optimal_sampen_params(_collect_signals(df), cfg)
    best2, _ = find_optimal_sampen_params(_collect_signals(df), cfg)
    assert best1 == best2
    assert cfg.m_range[0] <= best1["m"] <= cfg.m_range[1]
    assert cfg.r_range[0] <= best1["r"] <= cfg.r_range[1]
    assert cfg.p_range[0] <= best1["p"] <= cfg.p_range[1]


def test_optimization_failure_nan_stars(ray_session):
    df = _normal_signals(n_sig=2, n=15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(
            random_seed=17, n_boot=5, n_trials=3,
            r_range=(1e-9, 2e-9), m_range=(2, 3),
        )
    with pytest.warns(OptimizationFailureWarning):
        best, _ = find_optimal_sampen_params(_collect_signals(df), cfg)
    assert math.isnan(best["m"]) and math.isnan(best["r"])
    with pytest.raises(ValueError, match="Invalid m or r"):
        compute_all_sampen(df, cfg, optimize=True)


def test_compute_without_params_raises(ray_session):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(n_boot=20, n_trials=5)
    with pytest.raises(ValueError, match="Invalid m or r"):
        compute_all_sampen(_normal_signals(), cfg)


def test_uncertainty_without_p_raises(ray_session):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(m=2, r=0.2, n_boot=20, n_trials=5)
    with pytest.raises(ValueError, match="bootstrap"):
        compute_all_sampen(_normal_signals(), cfg, estimate_uncertainty=True)


def test_min_length_guard(ray_session):
    df = _normal_signals(n_sig=2, n=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(m=2, r=0.2, n_boot=10, n_trials=5)
    with pytest.raises(ValueError, match="shortest"):
        compute_all_sampen(df, cfg)


def test_boundary_warnings():
    with pytest.warns(SampEnSettingWarning):
        SampEnConfig(r=0.05, n_boot=100, n_trials=100)  # r below r_range
    with pytest.warns(SampEnSettingWarning):
        SampEnConfig(n_boot=5, n_trials=100)  # low n_boot


def test_collect_signals_sample_cap(ray_session):
    """Optimization input is a bounded gather: >cap signals in a Dataset
    collect to exactly cap, deterministically (stride over sorted ids)."""
    import ray.data as rd

    df = _normal_signals(n_sig=30, n=40)
    ds = rd.from_pandas(df)
    got1 = _collect_signals(ds, sample_cap=10)
    got2 = _collect_signals(rd.from_pandas(df), sample_cap=10)
    assert len(got1) == 10
    assert [s for s, _ in got1] == [s for s, _ in got2]
    # uncapped DataFrame collection still returns everything
    assert len(_collect_signals(df)) == 30


def test_dataset_final_pass_matches_dataframe(ray_session):
    """The distributed final pass (Dataset input -> exchange fan-out) is
    bit-identical to the local DataFrame loop: same kernels, same ordered
    series, placement-independent counter-keyed bootstrap seeds."""
    import ray.data as rd

    df = _normal_signals(n_sig=6, n=120)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(m=2, r=0.2, p=0.5, n_boot=20, n_trials=5,
                           random_seed=11)
    local, _ = compute_all_sampen(df, cfg, estimate_uncertainty=True)
    dist, _ = compute_all_sampen(
        rd.from_pandas(df), cfg, estimate_uncertainty=True
    )
    pd.testing.assert_frame_equal(
        local.sort_values("signal_id").reset_index(drop=True),
        dist.sort_values("signal_id").reset_index(drop=True),
        check_dtype=False,
    )


def test_dataset_min_length_guard(ray_session):
    import ray.data as rd

    df = _normal_signals(n_sig=2, n=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(m=2, r=0.2, n_boot=10, n_trials=5)
    with pytest.raises(ValueError, match="shortest"):
        compute_all_sampen(rd.from_pandas(df), cfg)


def test_sampen_efficiency(ray_session):
    import ray.data as rd

    df = _normal_signals(n_sig=3, n=150)
    out, info = sampen_efficiency(
        rd.from_pandas(df), m=2, r_range=(0.1, 0.5), random_seed=3
    )
    assert len(out) == 3
    assert 0.1 <= info["r_star_"] <= 0.51
    assert (out["se_sampen"] > 0).all()
    out2, info2 = sampen_efficiency(
        rd.from_pandas(df), m=2, r_range=(0.1, 0.5), random_seed=3
    )
    pd.testing.assert_frame_equal(out, out2)
    assert info["r_star_"] == info2["r_star_"]


def _non_finite(as_dataset: bool, bad: float):
    import ray.data as rd

    df = _normal_signals(n_sig=3, n=60)
    df.loc[70, "value"] = bad
    return rd.from_pandas(df) if as_dataset else df


@pytest.mark.parametrize("as_dataset", [False, True], ids=["frame", "dataset"])
def test_compute_all_sampen_rejects_non_finite(ray_session, as_dataset):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(m=2, r=0.2, n_boot=10, n_trials=5)
    with pytest.raises(SignalValidationError, match="NaN"):
        compute_all_sampen(_non_finite(as_dataset, np.nan), cfg)


def test_validation_leaves_the_callers_context_alone(ray_session):
    """A failing pipeline raises ``SignalValidationError`` itself, and
    the caller's Dataset does not start raising original map exceptions:
    validation asks for them on its own copy of the context."""
    ds = _non_finite(True, np.nan)
    assert not ds.context.raise_original_map_exception
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(m=2, r=0.2, n_boot=10, n_trials=5)
    with pytest.raises(SignalValidationError, match="NaN"):
        compute_all_sampen(ds, cfg)
    assert not ds.context.raise_original_map_exception


@pytest.mark.parametrize("as_dataset", [False, True], ids=["frame", "dataset"])
def test_sampen_efficiency_rejects_non_finite(ray_session, as_dataset):
    with pytest.raises(SignalValidationError, match="infinite"):
        sampen_efficiency(_non_finite(as_dataset, np.inf), m=2, r_range=(0.1, 0.5))


def test_tpe_lite_divergence_from_optuna_is_intentional(ray_session):
    """Documented divergence (O3): the optimizer is TPE-lite, built from
    the TPE paper (Bergstra et al., NeurIPS 2011) because optuna is not
    installed. It honors the reference's ONLY tested contract — same seed
    -> same optimum (reference tests/test_sample_entropy.py:547-574
    asserts determinism, never specific optima) — but will NOT reproduce
    optuna's exact (m*, r*, p*) draws on the reference fixtures: optuna's
    sampler startup heuristics, EI candidate count and bandwidths differ.
    This test pins the contract we do keep: determinism, in-range optima,
    and seed sensitivity (different seeds explore differently)."""
    df = _normal_signals(n_sig=2, n=80)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg17 = SampEnConfig(random_seed=17, n_boot=10, n_trials=8)
        cfg18 = SampEnConfig(random_seed=18, n_boot=10, n_trials=8)
    best17a, _ = find_optimal_sampen_params(_collect_signals(df), cfg17)
    best17b, _ = find_optimal_sampen_params(_collect_signals(df), cfg17)
    best18, _ = find_optimal_sampen_params(_collect_signals(df), cfg18)
    assert best17a == best17b
    assert best17a != best18  # seeds steer the search


def test_collect_signals_row_cap(ray_session):
    """The optimizer gather is bounded in ROWS too: long-series corpora
    must not blow the driver through the signal cap alone. The stride
    sample is prefix-trimmed to the row budget, keeping >= 1 signal."""
    import ray.data as rd

    df = _normal_signals(n_sig=10, n=50)  # 500 rows total
    got = _collect_signals(rd.from_pandas(df), sample_cap=10, row_cap=120)
    assert 1 <= len(got) <= 3  # 50 rows/signal -> at most 2 fit + first
    assert sum(x.size for _, x in got) <= 120 or len(got) == 1
    # a single giant signal is still gathered (smallest unit)
    got1 = _collect_signals(rd.from_pandas(df), sample_cap=1, row_cap=10)
    assert len(got1) == 1


def test_optimize_min_length_guard_checks_full_corpus(ray_session):
    """A too-short signal OUTSIDE the stride sample must fail fast,
    before the optimizer or the distributed final pass run — the guard
    reads the full count-only lengths frame, not the gathered sample."""
    import ray.data as rd

    df = _normal_signals(n_sig=8, n=60)
    # shrink one signal below m_range's upper bound; with sample_cap
    # small and stride over sorted ids, craft it mid-range
    short_id = sorted(df["signal_id"].unique())[3]
    df = pd.concat(
        [df[df["signal_id"] != short_id],
         df[df["signal_id"] == short_id].head(2)],
        ignore_index=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(n_boot=10, n_trials=3, random_seed=3)
    with pytest.raises(ValueError, match="shortest"):
        compute_all_sampen(
            rd.from_pandas(df), cfg, optimize=True, sample_cap=2
        )
