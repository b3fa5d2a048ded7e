"""Windowed rollup core vs an independent pandas oracle."""

import numpy as np
import pandas as pd
import pytest

from eristropy_ray.config import TIER_STEPS_US, RollupConfig
from eristropy_ray.kernels.permen import permen
from eristropy_ray.kernels.sampen import sampen
from eristropy_ray.stages.windows import (
    diff_window_radius,
    raw_window_radius,
    rollup_windows,
)


def _entropies_oracle(x, cfg, r):
    """Per-window entropy oracle: the scalar kernels on the window's
    kernel series — the deterministic stride cap thins windows longer than
    ``cfg.max_window_points``. The radius is derived from the full window
    via the shared helpers."""
    n = x.size
    if n > cfg.max_window_points:
        x = x[:: -(-n // cfg.max_window_points)]
    return sampen(x, cfg.m, r), permen(x, order=cfg.permen_order)


def _same_bits(a, b):
    """Equal as float64 bit patterns (``==`` accepts -0.0 for 0.0)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return bool((a.view(np.uint64) == b.view(np.uint64)).all())


def _make_turns(rng, n_convs=5, n_turns=200):
    rows = []
    for c in range(n_convs):
        ts0 = 1_700_000_000_000_000 + c * 3_600_000_000
        for t in range(n_turns):
            rows.append(
                {
                    "conv_id": f"c{c}",
                    "turn_idx": t,
                    "ts": ts0 + t * 7_000_000 + int(rng.integers(0, 1000)),
                    "value": float(rng.integers(1, 500)),
                }
            )
    rng.shuffle(rows)  # input order must not matter
    return pd.DataFrame(rows)


def _oracle(df, cfg):
    out = []
    for tier in cfg.tiers:
        step = TIER_STEPS_US[tier]
        d = df.copy()
        d["bucket"] = d["ts"] // step * step
        for (conv, bucket), g in d.groupby(["conv_id", "bucket"]):
            g = g.sort_values(["ts", "turn_idx"], kind="stable")
            x = g["value"].to_numpy()
            row = {
                "conv_id": conv,
                "tier": tier,
                "bucket_ts": bucket,
                "n_turns": len(g),
                "value_mean": x.mean(),
                "value_min": x.min(),
                "value_max": x.max(),
            }
            if len(x) >= cfg.min_window:
                row["sampen_raw"], row["permen_raw"] = _entropies_oracle(
                    x, cfg, raw_window_radius(x, cfg.r_frac)
                )
                row["sampen"], row["permen"] = _entropies_oracle(
                    np.diff(x), cfg, diff_window_radius(x, cfg.r_frac)
                )
            else:
                row["sampen_raw"] = row["permen_raw"] = np.nan
                row["sampen"] = row["permen"] = np.nan
            out.append(row)
    return (
        pd.DataFrame(out)
        .sort_values(["tier", "conv_id", "bucket_ts"])
        .reset_index(drop=True)
    )


def _assert_matches_oracle(df, cfg, kept=None):
    """``kept``: the turns the oracle sees (default ``df``), for a config
    that drops late turns."""
    got = pd.DataFrame(
        rollup_windows(
            df["conv_id"].to_numpy(dtype=object),
            df["turn_idx"].to_numpy(),
            df["ts"].to_numpy(),
            df["value"].to_numpy(),
            cfg,
        )
    ).sort_values(["tier", "conv_id", "bucket_ts"]).reset_index(drop=True)
    want = _oracle(df if kept is None else kept, cfg)
    assert len(got) == len(want)
    for col in ("n_turns", "value_mean", "value_min", "value_max"):
        np.testing.assert_array_equal(got[col].to_numpy(), want[col].to_numpy(), err_msg=col)
    for col in ("sampen", "permen", "sampen_raw", "permen_raw"):
        assert _same_bits(got[col].to_numpy(), want[col].to_numpy()), col
    return got


def test_rollup_windows_matches_oracle(rng):
    _assert_matches_oracle(_make_turns(rng), RollupConfig())


def _conv(name, values, gap_us=7_000_000, t0=1_700_000_000_000_000):
    n = len(values)
    return pd.DataFrame(
        {
            "conv_id": [name] * n,
            "turn_idx": np.arange(n),
            "ts": t0 + np.arange(n) * gap_us,
            "value": np.asarray(values, dtype=np.float64),
        }
    )


def test_degenerate_windows_match_oracle(rng):
    """Constant, two-value and 3-turn windows, exact against the scalar
    kernels; constant windows give SampEn -0.0 and PermEn 0.0."""
    df = pd.concat(
        [
            _conv("const", np.full(400, 42.0)),
            _conv("tied", rng.choice([3.0, 9.0], size=400)),
            _conv("ramp", np.arange(300.0)),
            # 3 turns per minute: 1m windows of 3 turns, under min_window
            _conv("three", rng.integers(1, 500, size=90), gap_us=20_000_000),
            _conv("gauss", np.round(rng.normal(size=500) * 100 + 300), gap_us=3_000_000),
        ],
        ignore_index=True,
    )
    got = _assert_matches_oracle(df, RollupConfig())
    const = got[(got["conv_id"] == "const") & (got["n_turns"] >= 4)]
    assert _same_bits(const["sampen_raw"], np.full(len(const), -0.0))
    assert (const["permen_raw"] == 0.0).all()
    three = got[(got["conv_id"] == "three") & (got["tier"] == "1m")]
    assert three["sampen"].isna().all() and three["permen_raw"].isna().all()


def test_zero_eligible_windows(rng):
    # every window below min_window: all entropies NaN, stats still exact
    df = _conv("sparse", rng.integers(1, 500, size=30), gap_us=25_000_000)
    got = _assert_matches_oracle(df, RollupConfig(tiers=("1m",)))
    assert got[["sampen", "permen", "sampen_raw", "permen_raw"]].isna().all().all()


def test_skew_guard_strides_long_windows(rng):
    n = 20000
    df = pd.DataFrame(
        {
            "conv_id": ["hot"] * n,
            "turn_idx": np.arange(n),
            "ts": 1_700_000_000_000_000 + np.arange(n) * 4_000_000,  # ~22h
            "value": rng.normal(size=n) * 100 + 300,
        }
    )
    cfg = RollupConfig(tiers=("1d",), max_window_points=1000)
    out = rollup_windows(
        df["conv_id"].to_numpy(dtype=object),
        df["turn_idx"].to_numpy(),
        df["ts"].to_numpy(),
        df["value"].to_numpy(),
        cfg,
    )
    # stats exact over all points, entropy over the strided subsample
    assert out["n_turns"].sum() == n
    assert np.isfinite(out["sampen"]).all()
    # every window of both tiers is over the cap: exact vs the oracle
    # (integer values, so the oracle's pandas means are exact too)
    _assert_matches_oracle(
        df.assign(value=np.round(df["value"])),
        RollupConfig(tiers=("1h", "1d"), max_window_points=500),
    )


def test_empty_input():
    cfg = RollupConfig()
    out = rollup_windows(
        np.empty(0, dtype=object), np.empty(0), np.empty(0), np.empty(0), cfg
    )
    assert all(len(v) == 0 for v in out.values())


def test_null_ids_are_dropped_not_merged():
    """groupby dropna semantics: null conv/signal ids must be dropped,
    never factorized into one synthetic -1 group."""
    import pandas as pd

    from eristropy_ray.config import RollupConfig
    from eristropy_ray.stages.signals import difference_partition
    from eristropy_ray.stages.windows import rollup_windows

    df = pd.DataFrame(
        {
            "signal_id": pd.array([1, None, 1, None], dtype="Int64"),
            "ts_us": np.array([1, 2, 3, 4], dtype=np.int64),
            "value": [1.0, 10.0, 2.0, 20.0],
            "tie": [0, 0, 0, 0],
        }
    )
    out = difference_partition(df)
    # only signal 1's second row survives; no fabricated 10->20 diff
    assert len(out) == 1
    assert float(out["value"].iloc[0]) == 1.0

    cols = rollup_windows(
        np.array(["a", None, "a", None], dtype=object),
        np.array([0, 0, 1, 1], dtype=np.int64),
        np.array([0, 0, 1_000_000, 1_000_000], dtype=np.int64),
        np.array([1.0, 10.0, 2.0, 20.0]),
        RollupConfig(),
    )
    assert set(cols["conv_id"]) == {"a"}
    assert all(n == 2 for n in cols["n_turns"])


def test_lateness_watermark_property():
    """Property: rollup_windows with lateness equals rollup_windows on a
    manually filtered input (per-(conv, day) max-ts watermark), for
    random conversations/timestamps/arrival orders."""
    import numpy as np

    from eristropy_ray.config import TIER_STEPS_US, RollupConfig
    from eristropy_ray.stages.windows import rollup_windows

    day = TIER_STEPS_US["1d"]
    rng = np.random.default_rng(41)
    for trial in range(5):
        n = int(rng.integers(20, 200))
        conv = rng.choice(np.array(["a", "b", "c"], dtype=object), size=n)
        ts = rng.integers(0, 3 * day, size=n).astype(np.int64)
        idx = rng.permutation(n).astype(np.int64)
        val = rng.normal(size=n)
        lateness = int(rng.integers(1, day))
        cfg = RollupConfig(tiers=("1h",), lateness_us=lateness)

        # manual expectation: keep ts >= max(ts in (conv, day)) - lateness
        keep = np.zeros(n, dtype=bool)
        d = ts // day
        for c in np.unique(conv):
            for dd in np.unique(d[conv == c]):
                m = (conv == c) & (d == dd)
                keep[m] = ts[m] >= ts[m].max() - lateness
        import pandas as pd

        def frame(cols):
            return (
                pd.DataFrame(cols)
                .sort_values(["tier", "conv_id", "bucket_ts"], kind="stable")
                .reset_index(drop=True)
            )

        want = frame(
            rollup_windows(
                conv[keep], idx[keep], ts[keep], val[keep],
                RollupConfig(tiers=("1h",)),
            )
        )
        got = frame(rollup_windows(conv, idx, ts, val, cfg))
        pd.testing.assert_frame_equal(got, want)


def _tiered_turns():
    """``short``: 30 turns in one hour, so its 1d window equals its 1h
    window; ``long``: 40 turns over two hours, so it does not; ``hot``:
    300 turns in one hour, over a 100-point stride cap at 1h and 1d."""
    t0 = 1_700_006_400_000_000  # an hour boundary
    return pd.concat(
        [
            _conv("short", np.round(np.sin(np.arange(30.0)) * 50), gap_us=60_000_000, t0=t0),
            _conv("long", np.arange(40.0) % 7, gap_us=180_000_000, t0=t0),
            _conv("hot", np.round(np.cos(np.arange(300.0) / 3) * 90), gap_us=10_000_000, t0=t0),
        ],
        ignore_index=True,
    )


def test_equal_windows_across_tiers_are_computed_once(monkeypatch):
    """A 1d window holding exactly the turns of a 1h window reuses its
    entropies: SampEn receives each distinct window once per series."""
    import eristropy_ray.stages.windows as windows

    sent = []

    def counting(x, bounds, m, r):
        sent.append(np.diff(bounds))
        return sampen_ragged(x, bounds, m, r)

    from eristropy_ray.kernels.batch_entropy import sampen_ragged

    monkeypatch.setattr(windows, "sampen_ragged", counting)
    df = _tiered_turns()
    cfg = RollupConfig(tiers=("1h", "1d"), max_window_points=100)
    _assert_matches_oracle(df, cfg)
    # raw series: short 30 (1h), long 20 + 20 (1h) and 40 (1d), hot
    # 300 strided to 100 (1h); the 1d windows of short and hot are reused
    raw = [30, 20, 20, 100, 40]
    diff = [29, 19, 19, 100, 39]
    assert sorted(np.concatenate(sent).tolist()) == sorted(raw + diff)


@pytest.mark.parametrize(
    "cfg",
    [
        RollupConfig(tiers=("1d", "1h", "1m")),
        RollupConfig(tiers=("1h",)),
        RollupConfig(tiers=("1m", "1d"), max_window_points=100),
        RollupConfig(tiers=("1h", "1m", "1d"), lateness_us=1_800_000_000),
    ],
    ids=["reversed", "one_tier", "skip_1h", "lateness"],
)
def test_tier_orders_match_oracle(cfg):
    """Reuse holds for any tier order and config: bits equal the scalar
    oracle's, with late turns dropped as the watermark says."""
    df = _tiered_turns()
    kept = df
    if cfg.lateness_us is not None:
        day = df["ts"] // TIER_STEPS_US["1d"]
        last = df.groupby([df["conv_id"], day])["ts"].transform("max")
        kept = df[df["ts"] >= last - cfg.lateness_us]
        assert len(kept) < len(df)
    _assert_matches_oracle(df, cfg, kept)
