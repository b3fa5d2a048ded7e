"""StationarySignals pipeline: decision-level conformance with the
reference's ramp/sine contract (tests/test_stationarity.py:70-75) and
method variants; NaN/inf input raises, as the reference's
``_validate_dataframe`` does."""

import numpy as np
import pandas as pd
import pytest

from eristropy_ray.pipelines.stationary import (
    StationaryConfig,
    make_stationary_signals,
)
from eristropy_ray.stages.validate import SignalValidationError


def _ramp_sine_df():
    # FIXTURES.md ramp_sine_2x100: abc = linear ramp (non-stationary),
    # def = one sine period (stationary after differencing)
    t = np.arange(100)
    return pd.DataFrame(
        {
            "signal_id": ["abc"] * 100 + ["def"] * 100,
            "ts_us": np.concatenate([t, t]),
            "value": np.concatenate(
                [np.linspace(0, 100, 100), np.sin(np.linspace(0, 2 * np.pi, 100))]
            ),
        }
    )


@pytest.fixture()
def ramp_sine_ds(ray_session):
    import ray.data as rd

    return rd.from_pandas(_ramp_sine_df())


def test_difference_decision_matches_reference(ray_session, ramp_sine_ds):
    """ramp differences to a constant -> ADF p=1.0 fallback -> rejected;
    sine differences to a stationary series -> accepted. The reference
    pins stationary_frac_ == 0.5 and accepted == ['def']."""
    out, info = make_stationary_signals(
        ramp_sine_ds, StationaryConfig(method="difference", normalize_signals=False)
    )
    assert info["stationary_frac_"] == 0.5
    assert info["stationary_signals_"] == ["def"]
    df = out.to_pandas()
    assert set(df["signal_id"]) == {"def"}
    assert len(df) == 99  # difference drops each signal's first row
    # values equal np.diff of the sine
    want = np.diff(np.sin(np.linspace(0, 2 * np.pi, 100)))
    got = df.sort_values("ts_us")["value"].to_numpy()
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_normalize_zscores_accepted(ray_session, ramp_sine_ds):
    out, _ = make_stationary_signals(
        ramp_sine_ds, StationaryConfig(method="difference", normalize_signals=True)
    )
    df = out.to_pandas()
    v = df["value"].to_numpy()
    assert abs(v.mean()) < 1e-12
    assert abs(v.std(ddof=1) - 1.0) < 1e-12


def test_linreg_detrend_kills_trend(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(17)
    t = np.arange(200)
    df = pd.DataFrame(
        {
            "signal_id": ["s0"] * 200 + ["s1"] * 200,
            "ts_us": np.concatenate([t, t]),
            "value": np.concatenate(
                [3.0 + 0.5 * t + rng.normal(size=200), rng.normal(size=200)]
            ),
        }
    )
    out, info = make_stationary_signals(
        rd.from_pandas(df),
        StationaryConfig(method="detrend", detrend_type="lr",
                         normalize_signals=False),
    )
    # both become stationary residual noise
    assert info["stationary_frac_"] == 1.0
    res = out.to_pandas()
    for _, g in res.groupby("signal_id"):
        assert abs(g["value"].mean()) < 0.5


def test_gp_detrend_arange_semantics(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(17)
    t = np.arange(40)
    df = pd.DataFrame(
        {
            "signal_id": ["g0"] * 40,
            "ts_us": t * 1000 + 77,  # deliberately non-arange timestamps
            "value": 0.2 * t + rng.normal(scale=0.1, size=40),
        }
    )
    cfg = StationaryConfig(
        method="detrend", detrend_type="gp", random_seed=17,
        ls_range=(5.0, 20.0), n_searches=3, n_splits=3,
        normalize_signals=False,
    )
    out, _ = make_stationary_signals(rd.from_pandas(df), cfg)
    res = out.to_pandas().sort_values("ts_us")
    # reference quirk: output timestamps are the arange, not the input ts
    np.testing.assert_array_equal(np.sort(res["ts_us"].unique()), np.arange(40))


def test_rejects_non_finite_values(ray_session):
    import ray.data as rd

    df = _ramp_sine_df()
    df.loc[150, "value"] = np.inf
    with pytest.raises(SignalValidationError, match="infinite"):
        make_stationary_signals(rd.from_pandas(df), StationaryConfig(method="difference"))


def test_config_validation():
    with pytest.raises(ValueError):
        StationaryConfig(method="bogus")
    with pytest.raises(ValueError):
        StationaryConfig(detrend_type="xx")
    with pytest.raises(ValueError):
        StationaryConfig(alpha=2.0)
    with pytest.raises(ValueError):
        StationaryConfig(ls_range=(5.0, 1.0))
