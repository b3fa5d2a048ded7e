"""Gap-fill + compressed tier-block stage.

Operates on rollup rows (already tiny relative to the turn table) that
hold whole conversations: one exchange partition of conv_id in the
bucketed plan, or one input file's rows in the fused colocated task. Per
(conv_id, tier), sorted by bucket_ts:

1. optional linear-interpolation gap-fill onto the dense tier grid
   (same semantics as codecs/gapfill.py, fast-pathed when the grid is
   already dense); filled rows carry no observation (gap_filled_points);
2. split into blocks of <= max_points;
3. delta-of-delta-encode the bucket timestamps and Gorilla-encode each
   configured float column.

Group iteration is lexsort + boundary slices over flat numpy arrays —
one Python iteration per (conv, tier) with pure-array operands (a pandas
groupby per group was the dominant cost at millions of conversations).

Encoder state is per (conv, tier, block) by construction — blocks never
span a shard/checkpoint boundary, so resume cannot split a codec stream
(SURVEY.md §7.4 "Gorilla at bucket boundaries").

Output schema:
    conv_id, tier, block_start (timestamp[us]), block_end (timestamp[us],
    the block's LAST bucket — with gapfill=False blocks are sparse, so
    retention must not infer coverage as block_start + n_points*step),
    n_points, gap_filled_points,
    ts_enc (binary), <col>_enc (binary per encoded column),
    raw_bytes, enc_bytes
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from eristropy_ray.codecs.dod import dod_encode
from eristropy_ray.codecs.gapfill import fill_missing
from eristropy_ray.codecs.gorilla import gorilla_encode
from eristropy_ray.config import TIER_STEPS_US, EncodeConfig


def make_partition_encode_fn(cfg: EncodeConfig):
    """Rollup rows of whole conversations -> compressed blocks."""

    columns = cfg.columns

    def encode_partition(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        tier = t["tier"].to_numpy(zero_copy_only=False)
        bucket = t["bucket_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        series = {
            col: t[col].to_numpy(zero_copy_only=False).astype(np.float64)
            for col in columns
        }
        conv_codes, conv_uniq = pd.factorize(conv, sort=False)
        tier_codes, tier_uniq = pd.factorize(tier, sort=False)
        order = np.lexsort((bucket, tier_codes, conv_codes))
        cc = conv_codes[order]
        tc = tier_codes[order]
        bk = bucket[order]
        sv = {col: series[col][order] for col in columns}
        tier_steps = np.array(
            [TIER_STEPS_US[str(u)] for u in tier_uniq], dtype=np.int64
        )

        out: dict[str, list] = {
            "conv_id": [], "tier": [], "block_start": [], "block_end": [],
            "n_points": [],
            "gap_filled_points": [], "ts_enc": [], "raw_bytes": [], "enc_bytes": [],
        }
        for col in columns:
            out[f"{col}_enc"] = []

        n = cc.size
        if n:
            change = np.empty(n, dtype=bool)
            change[0] = True
            np.logical_or(
                cc[1:] != cc[:-1], tc[1:] != tc[:-1], out=change[1:]
            )
            g_starts = np.flatnonzero(change)
            g_ends = np.append(g_starts[1:], n)
        else:
            g_starts = g_ends = np.empty(0, dtype=np.int64)

        n_raw_cols = 1 + len(columns)
        for gs, ge in zip(g_starts, g_ends):
            step = int(tier_steps[tc[gs]])
            buckets = bk[gs:ge]
            cols = {col: sv[col][gs:ge] for col in columns}
            observed = None
            if cfg.gapfill:
                span = (buckets[-1] - buckets[0]) // step + 1
                if span > buckets.size:  # gaps exist
                    grid = np.arange(
                        buckets[0], buckets[-1] + step, step, dtype=np.int64
                    )
                    pos = (buckets - buckets[0]) // step
                    observed = np.zeros(grid.size, dtype=bool)
                    observed[pos] = True
                    filled_cols = {
                        col: fill_missing(grid, observed, buckets, v)
                        for col, v in cols.items()
                    }
                    buckets, cols = grid, filled_cols

            npts = buckets.size
            for s in range(0, npts, cfg.max_points):
                e = min(s + cfg.max_points, npts)
                ts_enc = dod_encode(buckets[s:e])
                encs = {col: gorilla_encode(cols[col][s:e]) for col in columns}
                out["conv_id"].append(conv_uniq[cc[gs]])
                out["tier"].append(tier_uniq[tc[gs]])
                out["block_start"].append(int(buckets[s]))
                out["block_end"].append(int(buckets[e - 1]))
                out["n_points"].append(e - s)
                out["gap_filled_points"].append(
                    0 if observed is None else int((~observed[s:e]).sum())
                )
                out["ts_enc"].append(ts_enc)
                out["raw_bytes"].append((e - s) * 8 * n_raw_cols)
                out["enc_bytes"].append(
                    len(ts_enc) + sum(len(b) for b in encs.values())
                )
                for col in columns:
                    out[f"{col}_enc"].append(encs[col])

        return pa.table(
            {
                "conv_id": pa.array(out["conv_id"], pa.string()),
                "tier": pa.array(out["tier"], pa.string()),
                "block_start": pa.array(
                    np.array(out["block_start"], dtype=np.int64),
                    pa.timestamp("us"),
                ),
                "block_end": pa.array(
                    np.array(out["block_end"], dtype=np.int64),
                    pa.timestamp("us"),
                ),
                "n_points": pa.array(out["n_points"], pa.int32()),
                "gap_filled_points": pa.array(
                    out["gap_filled_points"], pa.int32()
                ),
                "ts_enc": pa.array(out["ts_enc"], pa.binary()),
                **{
                    f"{col}_enc": pa.array(out[f"{col}_enc"], pa.binary())
                    for col in columns
                },
                "raw_bytes": pa.array(out["raw_bytes"], pa.int64()),
                "enc_bytes": pa.array(out["enc_bytes"], pa.int64()),
            }
        )

    return encode_partition


def decode_blocks(table: pa.Table, columns: tuple[str, ...]) -> pd.DataFrame:
    """Round-trip helper (tests + consumers): blocks -> dense rollup rows."""
    from eristropy_ray.codecs.dod import dod_decode
    from eristropy_ray.codecs.gorilla import gorilla_decode

    frames = []
    df = table.to_pandas()
    for _, row in df.iterrows():
        ts = dod_decode(row["ts_enc"])
        data = {"conv_id": row["conv_id"], "tier": row["tier"], "bucket_ts": ts}
        for col in columns:
            data[col] = gorilla_decode(row[f"{col}_enc"])
        frames.append(pd.DataFrame(data))
    if not frames:
        return pd.DataFrame(columns=["conv_id", "tier", "bucket_ts", *columns])
    return pd.concat(frames, ignore_index=True)
