"""Gap-fill + compressed tier-block stage.

Operates on rollup rows (already tiny relative to the turn table) that
hold whole conversations: one exchange partition of conv_id in the
bucketed plan, or one input file's rows in the fused colocated task. Per
(conv_id, tier), sorted by bucket_ts:

1. optional linear-interpolation gap-fill onto the dense tier grid
   (codecs/gapfill.py::fill_missing); filled rows carry no observation
   (gap_filled_points);
2. split into blocks of <= max_points;
3. delta-of-delta-encode the bucket timestamps and Gorilla-encode each
   configured float column.

Every step is an array pass over the whole partition, never a loop over
groups or points: one lexsort; every group's grid, gap-fill (skipped when
no group has a gap) and block bounds at once; ``dod_fields`` over the
timestamps and one ``gorilla_fields`` over every column's blocks; one
``pack_fields`` for all streams. Each binary column is a slice of the
packed bytes with its own offsets.

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

from eristropy_ray.codecs.bits import pack_fields
from eristropy_ray.codecs.dod import dod_fields
from eristropy_ray.codecs.gapfill import fill_missing
from eristropy_ray.codecs.gorilla import gorilla_fields
from eristropy_ray.config import TIER_STEPS_US, EncodeConfig
from eristropy_ray.kernels.batch_entropy import ragged_arange


def _binary(data: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """A binary column over ``data[offsets[0]:offsets[-1]]``, no copy."""
    return pa.Array.from_buffers(
        pa.binary(),
        offsets.size - 1,
        [
            None,
            pa.py_buffer((offsets - offsets[0]).astype(np.int32)),
            pa.py_buffer(data[offsets[0] : offsets[-1]]),
        ],
    )


def make_partition_encode_fn(cfg: EncodeConfig):
    """Rollup rows of whole conversations -> compressed blocks."""

    columns = cfg.columns

    def encode_partition(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        tier = t["tier"].to_numpy(zero_copy_only=False)
        bucket = t["bucket_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        conv_codes, conv_uniq = pd.factorize(conv, sort=False)
        tier_codes, tier_uniq = pd.factorize(tier, sort=False)
        order = np.lexsort((bucket, tier_codes, conv_codes))
        cc = conv_codes[order]
        tc = tier_codes[order]
        bk = bucket[order]
        values = np.empty((len(columns), bk.size))
        for j, col in enumerate(columns):
            values[j] = t[col].to_numpy(zero_copy_only=False)[order]
        tier_steps = np.array(
            [TIER_STEPS_US[str(u)] for u in tier_uniq], dtype=np.int64
        )

        # (conv, tier) groups, each one series
        n = cc.size
        change = np.ones(n, dtype=bool)
        np.logical_or(cc[1:] != cc[:-1], tc[1:] != tc[:-1], out=change[1:])
        g_start = np.flatnonzero(change)
        g_len = np.diff(np.append(g_start, n))
        ids = np.arange(g_start.size)
        if cfg.gapfill:
            # the dense grid from each group's first to last bucket
            step = tier_steps[tc[g_start]]
            first = bk[g_start]
            size = (bk[g_start + g_len - 1] - first) // step + 1
            group = np.repeat(ids, size)
            ts = first[group] + ragged_arange(size) * step[group]
            row_group = np.repeat(ids, g_len)
            observed = np.zeros(ts.size, dtype=bool)
            observed[
                (np.cumsum(size) - size)[row_group]
                + (bk - first[row_group]) // step[row_group]
            ] = True
            if not observed.all():
                # one fill for all columns: column j's groups are j * G + g
                k = len(columns)
                values = fill_missing(
                    np.tile(ts, k), np.tile(observed, k), np.tile(bk, k),
                    values.ravel(), (group + ids.size * np.arange(k)[:, None]).ravel(),
                )
        else:
            size, ts = g_len, bk
            observed = np.ones(n, dtype=bool)

        # blocks of <= max_points, tiling the grids
        n_blocks = -(-size // cfg.max_points)
        b_group = np.repeat(ids, n_blocks)
        bounds = np.append(
            (np.cumsum(size) - size)[b_group]
            + ragged_arange(n_blocks) * cfg.max_points,
            ts.size,
        )
        n_points = np.diff(bounds)
        seen = np.zeros(ts.size + 1, dtype=np.int64)
        np.cumsum(observed, out=seen[1:])

        # one pack for every stream's blocks: the timestamps, then each
        # column; each binary column is a slice of its bytes
        nb = n_points.size
        tiled = np.append(
            (bounds[:-1] + ts.size * np.arange(1 + len(columns))[:, None]).ravel(),
            ts.size * (1 + len(columns)),
        )
        dv, dw = dod_fields(ts, bounds)
        gv, gw = gorilla_fields(values.ravel(), tiled[nb:] - ts.size)
        data, off = pack_fields(
            tiled, np.concatenate([dv, gv]), np.concatenate([dw, gw])
        )
        streams = [
            _binary(data, off[j * nb : (j + 1) * nb + 1])
            for j in range(1 + len(columns))
        ]
        return pa.table(
            {
                "conv_id": pa.array(conv_uniq[cc[g_start]][b_group], pa.string()),
                "tier": pa.array(tier_uniq[tc[g_start]][b_group], pa.string()),
                "block_start": pa.array(ts[bounds[:-1]], pa.timestamp("us")),
                "block_end": pa.array(ts[bounds[1:] - 1], pa.timestamp("us")),
                "n_points": pa.array(n_points, pa.int32()),
                "gap_filled_points": pa.array(
                    n_points - np.diff(seen[bounds]), pa.int32()
                ),
                "ts_enc": streams[0],
                **{f"{col}_enc": enc for col, enc in zip(columns, streams[1:])},
                "raw_bytes": pa.array(n_points * 8 * (1 + len(columns)), pa.int64()),
                "enc_bytes": pa.array(
                    np.diff(off).reshape(1 + len(columns), nb).sum(axis=0), pa.int64()
                ),
            }
        )

    return encode_partition


def decode_blocks(table: pa.Table, columns: tuple[str, ...]) -> pd.DataFrame:
    """Round-trip helper (tests + consumers): blocks -> dense rollup rows."""
    from eristropy_ray.codecs.dod import dod_decode
    from eristropy_ray.codecs.gorilla import gorilla_decode

    if not table.num_rows:
        return pd.DataFrame(columns=["conv_id", "tier", "bucket_ts", *columns])
    ts = [dod_decode(b) for b in table["ts_enc"].to_pylist()]
    n = [t.size for t in ts]
    return pd.DataFrame(
        {
            "conv_id": np.repeat(table["conv_id"].to_numpy(zero_copy_only=False), n),
            "tier": np.repeat(table["tier"].to_numpy(zero_copy_only=False), n),
            "bucket_ts": np.concatenate(ts),
            **{
                col: np.concatenate(
                    [gorilla_decode(b) for b in table[f"{col}_enc"].to_pylist()]
                )
                for col in columns
            },
        }
    )
