"""Continuous-aggregate maintenance: downsample cascade, retention,
incremental window updates.

- ``cascade_stats``: the decomposable rollup columns (n_turns, value_sum,
  value_min, value_max, and exact mean via integer-micro sums) of a
  coarser tier derived FROM the finer tier's rows — no second pass over
  the turn table. Entropy columns are NOT decomposable (SampEn of an hour
  cannot be assembled from minute SampEns), which is exactly why the
  flagship computes every tier from raw in its single pass; the cascade
  exists for stat-only re-aggregation (e.g. after retention has aged out
  raw turns) and is verified equal to direct computation in tests.

- ``apply_retention``: age out tier partitions per a {tier: max_age_us}
  policy over the hive-partitioned rows/blocks layout. File-level,
  manifest-aware deletes (a tier directory holds one file per input
  shard; a file is dropped only when EVERY bucket in it is expired).

- ``update_windows_incremental``: late/new turns for already-rolled-up
  conversations: recompute every window of each touched (conv_id, day)
  unit — the days of the late turns plus the old days of the stored turns
  they replace — from the merged turns, then upsert into the rollup rows.
  The unit is a whole day, not the touched windows: every tier's windows
  (<= 1d) and the ``lateness_us`` watermark are local to a (conv, day),
  and one ``rollup_windows`` call over the whole unit lets an equal 1h
  and 1d window share their entropies. The merge itself is one numpy
  keyed pass (int64 (conv, day) keys, a lexsort keep-last dedupe, a
  lexsort take-based assembly).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from eristropy_ray.config import TIER_STEPS_US, RollupConfig
from eristropy_ray.kernels.stats import from_micros, micros
from eristropy_ray.stages.windows import rollup_windows


def cascade_stats(fine: pd.DataFrame, coarse_tier: str) -> pd.DataFrame:
    """Aggregate finer-tier rollup rows into coarser-tier STAT rows.

    Exactness: value_sum re-aggregates via integer micro-units (the same
    convention as the SQL oracles) so cascaded sums equal direct sums
    bit-for-bit; min/max/count are trivially exact.
    """
    step = TIER_STEPS_US[coarse_tier]
    if "tier" in fine.columns:
        tiers = fine["tier"].unique()
        if len(tiers) > 1:
            # mixed tiers would silently count each turn once PER tier
            raise ValueError(
                f"cascade_stats expects rows of a single fine tier, got {sorted(tiers)}"
            )
        if len(tiers) == 1 and tiers[0] in TIER_STEPS_US:
            fine_step = TIER_STEPS_US[str(tiers[0])]
            if step <= fine_step:
                # e.g. day rows "cascaded" to 1h: the re-bucketing is a
                # no-op and the output would be day-level stats silently
                # mislabeled with the finer tier
                raise ValueError(
                    f"coarse_tier {coarse_tier!r} is not coarser than the "
                    f"input rows' tier {tiers[0]!r}"
                )
    df = fine.copy()
    b = df["bucket_ts"]
    if np.issubdtype(b.dtype, np.datetime64):
        bucket_us = b.to_numpy().astype("datetime64[us]").astype(np.int64)
    else:
        bucket_us = b.to_numpy(dtype=np.int64)
    df["bucket_ts"] = bucket_us - bucket_us % step
    df["_sum_mu"] = micros(df["value_sum"].to_numpy())
    g = df.groupby(["conv_id", "bucket_ts"], sort=True).agg(
        n_turns=("n_turns", "sum"),
        _sum_mu=("_sum_mu", "sum"),
        value_min=("value_min", "min"),
        value_max=("value_max", "max"),
    )
    g = g.reset_index()
    vsum = from_micros(g["_sum_mu"])
    g["value_sum"] = vsum
    g["value_mean"] = vsum / g["n_turns"]
    g["tier"] = coarse_tier
    g["bucket_ts"] = pd.to_datetime(g["bucket_ts"], unit="us")
    return g.drop(columns=["_sum_mu"])[
        ["conv_id", "tier", "bucket_ts", "n_turns", "value_mean",
         "value_sum", "value_min", "value_max"]
    ]


def apply_retention(
    out_dir: str | Path, now_us: int, policy: dict[str, int]
) -> dict[str, int]:
    """Delete tier partition files under ``rollup/`` and ``blocks/`` whose
    entire content is older than ``now_us - policy[tier]``. Returns
    {tier: files_deleted}.

    Files are the checkpoint/resume granularity, so deletion never splits
    a codec stream or a shard. A file survives until its newest COVERED
    timestamp expires: for rollup rows that is max(bucket_ts) + step, and
    for blocks max(block_end) + step — ``block_end`` is the block's LAST
    bucket, exact even for the sparse blocks ``EncodeConfig(gapfill=
    False)`` produces (a block's start is its OLDEST bucket, and the
    dense estimate block_start + n_points*step under-covers sparse
    blocks, which would delete files still holding in-retention points;
    legacy files written before ``block_end`` existed fall back to the
    dense estimate, exact for their always-gap-filled layout).

    I/O shape: parquet FOOTER statistics only (row-group max of the
    timestamp column) — a retention sweep over a 100 TB tier store must
    not decompress data pages; a file with missing/untrusted stats falls
    back to reading just the needed column. Unreadable or
    foreign-schema files are skipped, never deleted."""
    out = Path(out_dir)

    def _stats_max(pf: pq.ParquetFile, col: str) -> int | None:
        """max over row-group footer stats for ``col``, as int64 µs
        (None when any row group lacks trustworthy stats). Uses the
        PHYSICAL value (``max_raw``): timestamp[us] is stored as int64
        µs, sidestepping the naive-datetime local-time hazard of the
        logical ``Statistics.max``."""
        md = pf.metadata
        if md.num_row_groups == 0:
            return None
        rg0 = md.row_group(0)
        idx = next(
            (
                i
                for i in range(rg0.num_columns)
                if rg0.column(i).path_in_schema == col
            ),
            None,
        )
        if idx is None:
            return None
        best: int | None = None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                return None
            mx = st.max_raw
            if not isinstance(mx, int):
                return None
            best = mx if best is None else max(best, mx)
        return best

    def _col_max(f: Path, col: str) -> int | None:
        t = pq.read_table(f, columns=[col])
        if not t.num_rows:
            return None
        return int(pa.compute.max(t[col].cast(pa.int64())).as_py())

    deleted: dict[str, int] = {}
    for tier, max_age in policy.items():
        cutoff = now_us - max_age
        step = TIER_STEPS_US[tier]
        count = 0
        for sub in ("rollup", "blocks"):
            for f in out.glob(f"{sub}/**/tier={tier}/*.parquet"):
                try:
                    pf = pq.ParquetFile(f)
                    if pf.metadata.num_rows == 0:
                        continue
                    names = set(pf.schema_arrow.names)
                    if sub == "rollup":
                        mx = _stats_max(pf, "bucket_ts")
                        if mx is None:
                            mx = _col_max(f, "bucket_ts")
                        newest = mx + step if mx is not None else None
                    elif "block_end" in names:
                        mx = _stats_max(pf, "block_end")
                        if mx is None:
                            mx = _col_max(f, "block_end")
                        newest = mx + step if mx is not None else None
                    else:
                        # legacy blocks (pre-block_end): dense estimate,
                        # exact for gap-filled data
                        meta = pq.read_table(
                            f, columns=["block_start", "n_points"]
                        )
                        if not meta.num_rows:
                            continue
                        starts = meta["block_start"].cast(pa.int64()).to_numpy()
                        npts = meta["n_points"].cast(pa.int64()).to_numpy()
                        newest = int((starts + npts * step).max())
                except (OSError, KeyError, pa.ArrowInvalid):
                    continue
                if newest is not None and newest < cutoff:
                    f.unlink()
                    count += 1
        deleted[tier] = count
    return deleted


def _us(col: pd.Series) -> np.ndarray:
    """int64 microseconds of a timestamp column: datetime of any unit, or
    int64 that already holds µs (the dtype ``rollup_windows`` emits)."""
    if col.dtype.kind == "M":
        return col.to_numpy().astype("datetime64[us]").view(np.int64)
    return col.to_numpy(dtype=np.int64)


def update_windows_incremental(
    rollup_rows: pd.DataFrame,
    stored_turns: pd.DataFrame,
    new_turns: pd.DataFrame,
    cfg: RollupConfig = RollupConfig(),
) -> pd.DataFrame:
    """Upsert rollup rows for the (conv, day) units touched by ``new_turns``.

    Args:
        rollup_rows: existing rollup rows (the ``ROLLUP_COLUMNS``, any
            subset of tiers/convs), ``bucket_ts`` int64 µs or timestamp.
        stored_turns: the turn store restricted to (at least) the touched
            conversations — (conv_id, turn_idx, ts, value) with ts int64
            µs or timestamp.
        new_turns: the late/new batch, same schema (its ``ts`` dtype may
            differ from the store's). A replayed (conv, turn_idx) replaces
            the stored turn; within the batch the last copy wins. Turns
            with a null conv_id are dropped.

    Returns the updated rollup frame sorted by (conv_id, tier, bucket_ts)
    with a RangeIndex and ``bucket_ts`` datetime64[ns]: untouched rows
    unchanged, every ``cfg.tiers`` row of a touched (conv, day) recomputed
    from the merged turns (rows of buckets a moved turn emptied vanish).
    Rows of OTHER tiers pass through unchanged even in touched days (the
    caller recomputes them with a second call or ``cascade_stats`` —
    deleting them here would silently drop data the recompute does not
    replace). Deterministic: the merged turn multiset fully determines
    every recomputed row.
    """
    day = TIER_STEPS_US["1d"]
    # conversation codes over the late batch's ids: -1 marks a null late
    # id (dropped) and a stored turn of an untouched conversation
    late_c, convs = pd.factorize(new_turns["conv_id"])
    stored_c = convs.get_indexer(stored_turns["conv_id"])
    s, n = np.flatnonzero(stored_c >= 0), np.flatnonzero(late_c >= 0)
    frames = ((stored_turns, s), (new_turns, n))
    c = np.concatenate((stored_c[s], late_c[n])).astype(np.int64)
    t = np.concatenate([f["turn_idx"].to_numpy(dtype=np.int64)[i] for f, i in frames])
    ts = np.concatenate([_us(f["ts"])[i] for f, i in frames])
    v = np.concatenate([f["value"].to_numpy(dtype=np.float64)[i] for f, i in frames])
    # (conv, day) keys: the day index of any int64 µs fits in ±2^31
    key = (c << 32) + ts // day

    # keep-last dedupe of (conv, turn_idx): the stable lexsort ends each key
    # group with its last row in batch order, a late one when any is late.
    # The stored copies of such a group are replaced; their days join the
    # scope, so a turn moved across a day boundary vacates its old day.
    order = np.lexsort((t, c))
    last = np.ones(order.size, dtype=bool)
    last[:-1] = (c[order[1:]] != c[order[:-1]]) | (t[order[1:]] != t[order[:-1]])
    group = np.cumsum(last) - last  # group ends before each row
    late_last = order[last] >= s.size
    replaced = order[(order < s.size) & late_last[group]]
    # the recompute scope: whole (conv, day) units, inside which every
    # tier's windows (<= 1d) and the lateness_us watermark are local
    scope = np.unique(np.concatenate((key[s.size:], key[replaced])))
    kept = order[last]
    kept = kept[np.isin(key[kept], scope)]
    rec = rollup_windows(convs.to_numpy(dtype=object)[c[kept]], t[kept], ts[kept], v[kept], cfg)

    # drop every cfg.tiers row of a scope unit — not just the recomputed
    # keys: a bucket emptied by a moved turn has no recomputed row. A
    # null conv_id (factorize code -1) is untouched and sorts last.
    e_codes, e_convs = pd.factorize(rollup_rows["conv_id"], sort=True)
    e_tiers, tiers = pd.factorize(rollup_rows["tier"], sort=True)
    e_us = _us(rollup_rows["bucket_ts"])
    e_c = np.append(convs.get_indexer(e_convs), -1)[e_codes]
    stale = (e_c >= 0) & np.isin(tiers, cfg.tiers)[e_tiers]
    stale &= np.isin((e_c << 32) + e_us // day, scope)
    keep = np.flatnonzero(~stale)

    # assemble with one stable lexsort over (sorted conv rank, tier rank,
    # bucket µs); position breaks ties, as the stable sort it replaces did
    all_convs = e_convs.union(convs, sort=True)
    all_tiers = tiers.union(cfg.tiers, sort=True)
    conv_rank = np.concatenate((
        np.append(all_convs.get_indexer(e_convs), all_convs.size)[e_codes[keep]],
        all_convs.get_indexer(rec["conv_id"]),
    ))
    tier_rank = np.concatenate((
        all_tiers.get_indexer(tiers)[e_tiers[keep]], all_tiers.get_indexer(rec["tier"])
    ))
    bucket = np.concatenate((e_us[keep], rec["bucket_ts"]))
    out = np.lexsort((bucket, tier_rank, conv_rank))
    return pd.DataFrame({
        col: bucket[out].astype("datetime64[us]").astype("datetime64[ns]")
        if col == "bucket_ts"
        else np.concatenate((rollup_rows[col].to_numpy()[keep], rec[col]))[out]
        for col in rollup_rows.columns
    })
