"""Ingest projection: transcript batches -> (conv_id, turn_idx, ts, value).

Stateless, zero-copy-in Arrow ``map_batches`` stage. The derived signal is
``value = float(len(text))`` — message-length dynamics — per SURVEY.md §1.2:
under stable turn ordering this makes every derived series (and hence every
rolled-up point) reproducible bit-for-bit.

Validation follows the reference's contract (validation.py:5-55) adapted to
Arrow: required columns present, no nulls in key/ts columns, finite values —
but NEVER mutates input in place (the reference coerces the caller's frame;
we fail fast instead).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "text", "ts"]


class SchemaError(ValueError):
    pass


def project_turns(batch: pa.Table) -> pa.Table:
    """(conv_id, turn_idx, ts, value) with value = utf8 length of text."""
    missing = [c for c in TRANSCRIPT_COLUMNS if c not in batch.column_names]
    if missing:
        raise SchemaError(f"transcript batch missing columns: {missing}")
    for col in ("conv_id", "turn_idx", "ts"):
        if batch[col].null_count:
            raise SchemaError(f"nulls in required column {col!r}")
    text = batch["text"]
    value = pc.cast(pc.utf8_length(pc.fill_null(text, "")), pa.float64())
    return pa.table(
        {
            "conv_id": pc.cast(batch["conv_id"], pa.string()),
            "turn_idx": pc.cast(batch["turn_idx"], pa.int64()),
            "ts": pc.cast(batch["ts"], pa.timestamp("us")),
            "value": value,
        }
    )


def add_partition_key(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Append the hash-bucket shuffle key (SURVEY.md §7.3 shuffle 1).

    Keys on ``hash(conv_id) ^ mix(day)`` — the salted-key repartitioning
    for hot conversations: a pathological conversation with months of
    turns spreads across partitions at day granularity, while every
    (conv, day) unit — hence every window of every tier <= 1d — stays
    intact inside one partition. Stages that need whole conversations
    (the encode's gap-fill) key on ``conv_id`` alone instead.

    Uses pandas' vectorized, process-stable string hash; skew across
    partitions is bounded by hash uniformity over (conv, day) units, and
    per-window cost by ``max_window_points``.
    """
    import numpy as np
    import pandas as pd

    from eristropy_ray.config import TIER_STEPS_US

    conv = batch["conv_id"].to_pandas()
    h = pd.util.hash_pandas_object(conv, index=False).to_numpy()
    ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    day = (ts // TIER_STEPS_US["1d"]).astype(np.uint64)
    h = h ^ (day * np.uint64(0x9E3779B97F4A7C15))
    part = (h % np.uint64(num_partitions)).astype("int64")
    return batch.append_column("part", pa.array(part, pa.int64()))
