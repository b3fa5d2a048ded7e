"""Property-based upsert (hypothesis): ``update_windows_incremental`` over a
late batch must equal a from-scratch ``rollup_windows`` of the merged turns,
bit for bit, whatever the batch holds — appended turns, replays with the
same or a changed value, turns moved across a day boundary, conversations
never stored, duplicate keys inside the batch (the last copy wins), null
conversation ids (dropped) — for int64 or datetime ``ts`` and
``bucket_ts`` on either side, with or without ``lateness_us``."""

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from eristropy_ray.config import RollupConfig
from eristropy_ray.pipelines.maintain import update_windows_incremental
from eristropy_ray.stages.windows import rollup_windows

SEC = 1_000_000
DAY = 86_400 * SEC
# 22:00 on a fixed day: conversations of a few hours cross midnight
T0 = 19_675 * DAY + 22 * 3_600 * SEC
KEY = ["conv_id", "tier", "bucket_ts"]
TS_DTYPES = ("int64", "datetime64[us]", "datetime64[ns]")


def _rollup(turns: pd.DataFrame, cfg: RollupConfig) -> pd.DataFrame:
    """From-scratch rollup of int64-µs turns, sorted by KEY, RangeIndex."""
    out = pd.DataFrame(
        rollup_windows(
            turns["conv_id"].to_numpy(dtype=object),
            turns["turn_idx"].to_numpy(dtype=np.int64),
            turns["ts"].to_numpy(dtype=np.int64),
            turns["value"].to_numpy(dtype=np.float64),
            cfg,
        )
    )
    out["bucket_ts"] = pd.to_datetime(out["bucket_ts"], unit="us")
    return out.sort_values(KEY, kind="stable").reset_index(drop=True)


def _as(frame: pd.DataFrame, col: str, dtype: str) -> pd.DataFrame:
    us = frame[col].to_numpy().astype("datetime64[us]").astype(np.int64)
    return frame.assign(**{col: us if dtype == "int64" else us.astype("datetime64[us]").astype(dtype)})


@st.composite
def stores(draw):
    """Stored turns: 1-3 conversations of 1-40 turns, steps of 1 s to 40 min
    from 22:00, small integer values (ties and constant windows)."""
    frames = []
    for c in range(draw(st.integers(1, 3))):
        steps = draw(st.lists(st.integers(1, 2_400), min_size=1, max_size=40))
        vals = draw(st.lists(st.integers(0, 5), min_size=len(steps), max_size=len(steps)))
        frames.append(pd.DataFrame({
            "conv_id": f"c{c}",
            "turn_idx": np.arange(len(steps), dtype=np.int64),
            "ts": T0 + c * 3_600 * SEC + np.cumsum(steps, dtype=np.int64) * SEC,
            "value": np.array(vals, dtype=np.float64),
        }))
    return pd.concat(frames, ignore_index=True)


OPS = ("append", "replay", "change", "move", "new", "dup", "null")


def _late_batch(stored: pd.DataFrame, ops: list) -> pd.DataFrame:
    """One late row per (kind, a, b) op, built against the stored turns."""
    rows: list[tuple] = []
    convs = sorted(stored["conv_id"].unique())
    for kind, a, b in ops:
        r = stored.iloc[a % len(stored)]
        if kind == "append":
            c = convs[a % len(convs)]
            own = stored[stored["conv_id"] == c]
            row = (c, int(own["turn_idx"].max()) + 1 + b % 3, int(own["ts"].max()) + (b + 1) * 60 * SEC, float(b % 7))
        elif kind == "replay":
            row = (r.conv_id, int(r.turn_idx), int(r.ts), float(r.value))
        elif kind == "change":
            row = (r.conv_id, int(r.turn_idx), int(r.ts), float(r.value) + 1 + b % 5)
        elif kind == "move":  # 7 h steps either way: mostly across midnight
            row = (r.conv_id, int(r.turn_idx), int(r.ts) + (b - 5) * 25_200 * SEC, float(r.value))
        elif kind == "new":
            row = (f"n{a % 2}", b, T0 + (a % 5) * 3_600 * SEC + b * 300 * SEC, float(a % 4))
        elif kind == "dup" and rows:
            c, t, ts, v = rows[a % len(rows)]
            row = (c, t, ts + b * 1_800 * SEC, v + 1.0)
        else:  # "null", or "dup" with nothing to duplicate yet
            row = (None, int(r.turn_idx), int(r.ts), float(b))
        rows.append(row)
    return pd.DataFrame(rows, columns=["conv_id", "turn_idx", "ts", "value"]).astype(
        {"conv_id": object, "turn_idx": np.int64, "ts": np.int64, "value": np.float64}
    )


@settings(max_examples=150, deadline=None)
@given(
    stored=stores(),
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 1_000), st.integers(0, 11)),
        max_size=10,
    ),
    stored_ts=st.sampled_from(TS_DTYPES),
    late_ts=st.sampled_from(TS_DTYPES),
    bucket_ts=st.sampled_from(TS_DTYPES),
    tiers=st.sampled_from([("1m", "1h", "1d"), ("1h",), ("1d", "1m")]),
    lateness_us=st.sampled_from([None, 600 * SEC, 7_200 * SEC]),
    shuffle=st.integers(0, 2**32 - 1),
)
def test_upsert_equals_full_recompute(stored, ops, stored_ts, late_ts, bucket_ts, tiers, lateness_us, shuffle):
    cfg = RollupConfig(tiers=tiers, lateness_us=lateness_us)
    late = _late_batch(stored, ops)
    rows = _as(_rollup(stored, cfg), "bucket_ts", bucket_ts)
    # any row order and index in; the tier column last, as tier files read back
    rng = np.random.default_rng(shuffle)
    rows = rows.iloc[rng.permutation(len(rows))][[c for c in rows.columns if c != "tier"] + ["tier"]]

    updated = update_windows_incremental(rows, _as(stored, "ts", stored_ts), _as(late, "ts", late_ts), cfg)
    merged = pd.concat([stored, late[late["conv_id"].notna()]], ignore_index=True)
    full = _rollup(merged.drop_duplicates(["conv_id", "turn_idx"], keep="last"), cfg)
    # the contract: the input's columns, sorted by KEY, a RangeIndex,
    # bucket_ts datetime64[ns] and every other dtype unchanged
    assert list(updated.columns) == list(rows.columns)
    assert isinstance(updated.index, pd.RangeIndex)
    assert updated["bucket_ts"].dtype == np.dtype("datetime64[ns]")
    assert (updated.dtypes.drop("bucket_ts") == rows.dtypes.drop("bucket_ts")).all()
    pd.testing.assert_frame_equal(updated[full.columns], full, check_exact=True)
