"""Cascade / retention / incremental-update maintenance operators; the
upsert path imports no Ray."""

import glob
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from eristropy_ray.config import RollupConfig
from eristropy_ray.pipelines.maintain import (
    apply_retention,
    cascade_stats,
    update_windows_incremental,
)
from eristropy_ray.stages.windows import rollup_windows


def _turns(rng, n_convs=4, n=300, start=1_700_000_000_000_000):
    frames = []
    for c in range(n_convs):
        ts = start + c * 7_200_000_000 + np.cumsum(
            rng.integers(2_000_000, 12_000_000, size=n)
        )
        frames.append(
            pd.DataFrame(
                {
                    "conv_id": f"c{c}",
                    "turn_idx": np.arange(n, dtype=np.int64),
                    "ts": ts.astype(np.int64),
                    "value": rng.integers(1, 500, size=n).astype(np.float64),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _rollup_df(df, cfg):
    cols = rollup_windows(
        df["conv_id"].to_numpy(dtype=object),
        df["turn_idx"].to_numpy(),
        df["ts"].to_numpy(),
        df["value"].to_numpy(),
        cfg,
    )
    out = pd.DataFrame(cols)
    out["bucket_ts"] = pd.to_datetime(out["bucket_ts"], unit="us")
    return out


def test_cascade_stats_match_direct(rng):
    cfg = RollupConfig()
    df = _turns(rng)
    rollup = _rollup_df(df, cfg)
    fine = rollup[rollup.tier == "1m"]
    for coarse in ("1h", "1d"):
        cascaded = cascade_stats(fine, coarse).reset_index(drop=True)
        direct = (
            rollup[rollup.tier == coarse]
            .sort_values(["conv_id", "bucket_ts"], kind="stable")
            .reset_index(drop=True)
        )
        assert len(cascaded) == len(direct)
        for col in ("n_turns", "value_min", "value_max"):
            np.testing.assert_array_equal(
                cascaded[col].to_numpy(), direct[col].to_numpy(), err_msg=col
            )
        # integer-micro cascade sums equal the engine's reduceat sums to
        # micro precision (the engine sums raw doubles)
        np.testing.assert_allclose(
            cascaded["value_sum"].to_numpy(),
            direct["value_sum"].to_numpy(),
            atol=1e-5,
        )


def test_incremental_update_equals_full_recompute(rng):
    cfg = RollupConfig()
    df = _turns(rng)
    # hold out a contiguous chunk of one conversation as "late" turns
    late_mask = (df["conv_id"] == "c1") & (df["turn_idx"] >= 250)
    initial = df[~late_mask]
    late = df[late_mask]
    rollup_initial = _rollup_df(initial, cfg)
    updated = update_windows_incremental(rollup_initial, initial, late, cfg)
    full = _rollup_df(df, cfg)
    key = ["conv_id", "tier", "bucket_ts"]
    updated = updated.sort_values(key, kind="stable").reset_index(drop=True)
    full = full.sort_values(key, kind="stable").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        updated[full.columns], full, check_exact=True
    )


def test_incremental_replay_is_idempotent(rng):
    cfg = RollupConfig()
    df = _turns(rng, n_convs=2, n=100)
    rollup = _rollup_df(df, cfg)
    replay = df[df["conv_id"] == "c0"].iloc[40:60]
    updated = update_windows_incremental(rollup, df, replay, cfg)
    key = ["conv_id", "tier", "bucket_ts"]
    pd.testing.assert_frame_equal(
        updated.sort_values(key, kind="stable").reset_index(drop=True)[rollup.columns],
        rollup.sort_values(key, kind="stable").reset_index(drop=True),
        check_exact=True,
    )


def test_retention(ray_session, tmp_path):
    from eristropy_ray.pipelines.rollup import run_rollup_job
    from eristropy_ray.sources.transcripts import synthesize_transcripts

    d = synthesize_transcripts(
        tmp_path / "tx", n_convs=8, mean_turns=20, n_files=2, hot_factor=2
    )
    files = sorted(glob.glob(f"{d}/*.parquet"))
    out = str(tmp_path / "out")
    run_rollup_job(files, out, n_shards=1, layout="conv_files")
    n_before = len(list((tmp_path / "out").glob("**/tier=1m/*.parquet")))
    assert n_before > 0
    # far-future "now": every 1m file expired; 1d retained
    now = 3_000_000_000_000_000
    deleted = apply_retention(
        out, now, {"1m": 60_000_000, "1d": 10**18}
    )
    assert deleted["1m"] >= n_before
    assert deleted["1d"] == 0
    assert not list((tmp_path / "out").glob("**/tier=1m/*.parquet"))
    assert list((tmp_path / "out").glob("**/tier=1d/*.parquet"))


def test_incremental_update_accepts_int64_us_bucket_ts(rng):
    """rollup_windows emits int64 microsecond bucket_ts; the upsert must
    interpret it as µs (a unit-less to_datetime would read ns, match no
    keys, and silently duplicate every touched row)."""
    cfg = RollupConfig()
    df = _turns(rng, n_convs=2, n=120)
    late_mask = (df["conv_id"] == "c0") & (df["turn_idx"] >= 80)
    initial, late = df[~late_mask], df[late_mask]

    raw = pd.DataFrame(
        rollup_windows(
            initial["conv_id"].to_numpy(dtype=object),
            initial["turn_idx"].to_numpy(),
            initial["ts"].to_numpy(),
            initial["value"].to_numpy(),
            cfg,
        )
    )
    assert pd.api.types.is_integer_dtype(raw["bucket_ts"])  # the raw dtype
    updated = update_windows_incremental(raw, initial, late, cfg)
    full = _rollup_df(df, cfg)
    key = ["conv_id", "tier", "bucket_ts"]
    pd.testing.assert_frame_equal(
        updated.sort_values(key, kind="stable").reset_index(drop=True)[full.columns],
        full.sort_values(key, kind="stable").reset_index(drop=True),
        check_exact=True,
    )


def test_incremental_update_vacates_moved_turn_buckets(rng):
    """A replayed turn whose timestamp moved to a different bucket (and
    day) must vacate the old bucket AND the old day — no double count."""
    cfg = RollupConfig()
    df = _turns(rng, n_convs=1, n=80)
    rollup = _rollup_df(df, cfg)
    # move one stored turn ~2 days forward
    moved = df.iloc[[10]].copy()
    moved["ts"] = moved["ts"] + 2 * 86_400_000_000
    updated = update_windows_incremental(rollup, df, moved, cfg)
    df_after = df.copy()
    df_after.loc[df_after.index[10], "ts"] = moved["ts"].iloc[0]
    full = _rollup_df(df_after, cfg)
    key = ["conv_id", "tier", "bucket_ts"]
    pd.testing.assert_frame_equal(
        updated.sort_values(key, kind="stable").reset_index(drop=True)[full.columns],
        full.sort_values(key, kind="stable").reset_index(drop=True),
        check_exact=True,
    )
    # total turn count conserved at every tier (the old double-count bug
    # inflated these)
    for tier in ("1m", "1h", "1d"):
        assert (
            updated[updated["tier"] == tier]["n_turns"].sum()
            == full[full["tier"] == tier]["n_turns"].sum()
        )


def test_retention_keeps_blocks_with_in_retention_points(tmp_path):
    """A block FILE whose block_start is old but whose points extend into
    the retention window must survive (block_start is the block's OLDEST
    bucket)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.maintain import apply_retention

    d = tmp_path / "blocks" / "shard=0" / "tier=1d"
    d.mkdir(parents=True)
    day = 86_400_000_000
    now = 100 * day
    # block starts 30 days ago but covers 25 days -> newest point 5d ago
    pq.write_table(
        pa.table(
            {"block_start": pa.array([now - 30 * day], pa.timestamp("us")),
             "n_points": pa.array([25], pa.int32())}
        ),
        d / "a.parquet",
    )
    # block fully expired: starts 30d ago, covers 3 days
    pq.write_table(
        pa.table(
            {"block_start": pa.array([now - 30 * day], pa.timestamp("us")),
             "n_points": pa.array([3], pa.int32())}
        ),
        d / "b.parquet",
    )
    deleted = apply_retention(tmp_path, now, {"1d": 7 * day})
    assert deleted == {"1d": 1}
    assert (d / "a.parquet").exists() and not (d / "b.parquet").exists()


def test_cascade_rejects_mixed_tiers(rng):
    cfg = RollupConfig()
    rollup = _rollup_df(_turns(rng, n_convs=1, n=50), cfg)
    with pytest.raises(ValueError, match="single fine tier"):
        cascade_stats(rollup, "1d")  # all three tiers present


def test_cascade_rejects_not_coarser(rng):
    cfg = RollupConfig()
    rollup = _rollup_df(_turns(rng, n_convs=1, n=50), cfg)
    day_rows = rollup[rollup["tier"] == "1d"]
    with pytest.raises(ValueError, match="not coarser"):
        cascade_stats(day_rows, "1h")  # day -> hour is not a cascade
    with pytest.raises(ValueError, match="not coarser"):
        cascade_stats(day_rows, "1d")  # identity is not a cascade either


def test_cascade_rejects_non_finite_sums(rng):
    cfg = RollupConfig()
    rollup = _rollup_df(_turns(rng, n_convs=1, n=50), cfg)
    fine = rollup[rollup["tier"] == "1m"].copy()
    fine.loc[fine.index[3], "value_sum"] = np.nan
    with pytest.raises(ValueError, match="DECIMAL"):
        cascade_stats(fine, "1h")


def test_upsert_path_imports_no_ray():
    """``late_upsert`` runs the upsert and the block encoder without Ray;
    a fresh interpreter importing both must not load it."""
    code = (
        "import sys, eristropy_ray.pipelines.maintain, eristropy_ray.stages.encode; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ray'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=Path(__file__).resolve().parents[1],
    )
    assert out.stdout.strip() == "[]"


def test_incremental_update_empty_batch_is_noop(rng):
    cfg = RollupConfig()
    df = _turns(rng, n_convs=2, n=60)
    rollup = _rollup_df(df, cfg)
    empty = df.iloc[0:0]
    out = update_windows_incremental(rollup, df, empty, cfg)
    # the same rows, in the contract every batch gets: sorted by
    # (conv_id, tier, bucket_ts) with a RangeIndex
    want = rollup.sort_values(["conv_id", "tier", "bucket_ts"], kind="stable")
    pd.testing.assert_frame_equal(out, want.reset_index(drop=True), check_exact=True)


def test_incremental_update_preserves_other_tiers(rng):
    """cfg.tiers=('1m',) recomputes ONLY minute rows; the 1h/1d rows of
    touched days must pass through unchanged, not be silently deleted."""
    full_cfg = RollupConfig()
    df = _turns(rng, n_convs=1, n=80)
    rollup = _rollup_df(df, full_cfg)
    late_mask = df["turn_idx"] >= 70
    initial, late = df[~late_mask], df[late_mask]
    rollup_initial = _rollup_df(initial, full_cfg)

    cfg_1m = RollupConfig(tiers=("1m",))
    updated = update_windows_incremental(rollup_initial, initial, late, cfg_1m)
    # 1m rows equal the full recompute's 1m rows
    key = ["conv_id", "tier", "bucket_ts"]
    got_1m = (
        updated[updated["tier"] == "1m"]
        .sort_values(key, kind="stable")
        .reset_index(drop=True)
    )
    want_1m = (
        rollup[rollup["tier"] == "1m"]
        .sort_values(key, kind="stable")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got_1m[want_1m.columns], want_1m, check_exact=True)
    # 1h/1d rows are the INITIAL ones, untouched (stale by contract: the
    # caller cascades or re-calls for those tiers)
    for tier in ("1h", "1d"):
        got = (
            updated[updated["tier"] == tier]
            .sort_values(key, kind="stable")
            .reset_index(drop=True)
        )
        want = (
            rollup_initial[rollup_initial["tier"] == tier]
            .sort_values(key, kind="stable")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[want.columns], want, check_exact=True)


def test_retention_sparse_blocks_block_end(tmp_path):
    """With gapfill=False blocks are SPARSE: coverage must come from
    block_end, not block_start + n_points*step (which under-covers and
    would delete files still holding in-retention points)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "blocks" / "shard=0" / "tier=1d"
    d.mkdir(parents=True)
    day = 86_400_000_000
    now = 100 * day
    # sparse block: 2 points, starts 30d ago, LAST bucket 5d ago.
    # The dense estimate (start + 2*day) says "expired 28d ago" — wrong.
    pq.write_table(
        pa.table(
            {
                "block_start": pa.array([now - 30 * day], pa.timestamp("us")),
                "block_end": pa.array([now - 5 * day], pa.timestamp("us")),
                "n_points": pa.array([2], pa.int32()),
            }
        ),
        d / "sparse.parquet",
    )
    # sparse block fully expired: last bucket 20d ago
    pq.write_table(
        pa.table(
            {
                "block_start": pa.array([now - 30 * day], pa.timestamp("us")),
                "block_end": pa.array([now - 20 * day], pa.timestamp("us")),
                "n_points": pa.array([2], pa.int32()),
            }
        ),
        d / "expired.parquet",
    )
    deleted = apply_retention(tmp_path, now, {"1d": 7 * day})
    assert deleted == {"1d": 1}
    assert (d / "sparse.parquet").exists()
    assert not (d / "expired.parquet").exists()


def test_retention_skips_corrupt_file(tmp_path):
    """One unreadable file must be skipped, not abort the sweep."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "blocks" / "shard=0" / "tier=1d"
    d.mkdir(parents=True)
    day = 86_400_000_000
    now = 100 * day
    (d / "corrupt.parquet").write_bytes(b"PAR1 this is not a parquet file")
    pq.write_table(
        pa.table(
            {
                "block_start": pa.array([now - 30 * day], pa.timestamp("us")),
                "block_end": pa.array([now - 20 * day], pa.timestamp("us")),
                "n_points": pa.array([2], pa.int32()),
            }
        ),
        d / "expired.parquet",
    )
    deleted = apply_retention(tmp_path, now, {"1d": 7 * day})
    assert deleted == {"1d": 1}
    assert (d / "corrupt.parquet").exists()  # skipped, never deleted


def test_resume_reuses_completed_rollup_stage(ray_session, tmp_path):
    """Crash between rollup and encode: resume must NOT rerun the turn
    scan + shuffle — it re-reads the completed rollup checkpoint and
    reruns only encode."""
    import json

    from eristropy_ray.pipelines.rollup import run_rollup_job
    from eristropy_ray.sources.transcripts import synthesize_transcripts

    d = synthesize_transcripts(
        tmp_path / "tx", n_convs=6, mean_turns=15, n_files=2, hot_factor=2
    )
    files = sorted(glob.glob(f"{d}/*.parquet"))
    out = tmp_path / "out"
    run_rollup_job(files, str(out), n_shards=1, layout="unpartitioned")

    # simulate the crash: encode output gone, encode manifest entry gone
    import shutil

    shutil.rmtree(out / "blocks" / "shard=s0000")
    mpath = out / "MANIFEST.json"
    state = json.loads(mpath.read_text())
    del state["shards"]["s0000"]["stages"]["encode"]
    mpath.write_text(json.dumps(state))

    rollup_files = sorted((out / "rollup").glob("**/*.parquet"))
    mtimes = {f: f.stat().st_mtime_ns for f in rollup_files}

    summary = run_rollup_job(files, str(out), n_shards=1, layout="unpartitioned")
    assert summary["shards_skipped"] == 0
    # rollup checkpoint untouched byte-for-byte (same files, same mtimes)
    after = sorted((out / "rollup").glob("**/*.parquet"))
    assert after == rollup_files
    assert {f: f.stat().st_mtime_ns for f in after} == mtimes
    # encode regenerated
    assert list((out / "blocks").glob("**/*.parquet"))


@pytest.mark.parametrize("stored_unit,late_unit", [("datetime64[us]", None), (None, "datetime64[us]")])
def test_incremental_update_mixed_ts_dtypes(rng, stored_unit, late_unit):
    """Stored and late turns may carry ``ts`` in different dtypes (int64 µs
    on one side, datetime on the other): each frame's ``ts`` is read on its
    own, never through a concatenated object column."""
    cfg = RollupConfig()
    df = _turns(rng, n_convs=2, n=120)
    late_mask = (df["conv_id"] == "c1") & (df["turn_idx"] >= 90)
    stored, late = df[~late_mask], df[late_mask]
    rows = _rollup_df(stored, cfg)
    if stored_unit:
        stored = stored.assign(ts=stored["ts"].astype(stored_unit))
    if late_unit:
        late = late.assign(ts=late["ts"].astype(late_unit))
    updated = update_windows_incremental(rows, stored, late, cfg)
    full = _rollup_df(df, cfg)
    pd.testing.assert_frame_equal(updated[full.columns], full.sort_values(
        ["conv_id", "tier", "bucket_ts"], kind="stable").reset_index(drop=True), check_exact=True)


def test_incremental_update_into_empty_store(rng):
    """Late turns of conversations never stored, upserted into an empty
    rollup: the result is the from-scratch rollup, sorted by
    (conv_id, tier, bucket_ts) — not in the batch's or cfg.tiers' order."""
    cfg = RollupConfig()
    df = _turns(rng, n_convs=3, n=60)
    late = df.iloc[::-1]  # conversations arrive c2, c1, c0
    empty = _rollup_df(df.iloc[0:0], cfg)
    updated = update_windows_incremental(empty, df.iloc[0:0], late, cfg)
    full = _rollup_df(df, cfg).sort_values(["conv_id", "tier", "bucket_ts"], kind="stable")
    pd.testing.assert_frame_equal(updated, full.reset_index(drop=True), check_exact=True)
