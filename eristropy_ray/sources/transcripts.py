"""Transcript table sources.

The engine's input shape (BASELINE.json.input_hint):

    conv_id:string, turn_idx:int32, role:string, text:string,
    tool:string, ts:timestamp[us]

Four sources:

- ``synthesize_transcripts``: deterministic multi-file Parquet generator
  (FIXTURES.md layer B). Per conversation, turn count and message-length
  dynamics come from a counter-seeded PCG64, so any (scale, conv) pair is
  reproducible independent of process or worker. Conversation i=0 is a
  "hot" conversation with ``hot_factor``× the mean turns (drives the skew
  path). Conversations are assigned to files by modulo, so one conversation
  never spans two files — the invariant shard-level resume relies on.
  Rows inside a file are written in a deterministic shuffled order to
  exercise the sort-within-partition stable-ordering invariant.

- ``events_to_transcripts``: adapter projecting the driver-provided
  ``events`` table (TESTDATA.md) into transcript shape: one conversation
  per user, text := props, tool := event_type, turn_idx := event_id
  (deterministic tie-break for equal ts).

- ``fixture_transcripts``: the reference test fixtures (FIXTURES.md layer
  A) embedded as conversations whose ``len(text)`` recovers a scaled copy
  of each fixture series.

- ``read_transcripts_jsonl``: JSONL ingest (ts as epoch-µs int64),
  normalized to the same schema; rollup-equivalence with the parquet
  path is pinned in tests.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_EPOCH_US = 1_700_000_000_000_000  # fixed, deterministic base timestamp
_ROLES = np.array(["user", "assistant"], dtype=object)
_TOOLS = np.array(["", "", "", "search", "python", "browser"], dtype=object)

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


def _conv_arrays(i: int, seed: int, mean_turns: int, hot_factor: int) -> dict:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
    n = int(rng.integers(mean_turns // 2, mean_turns * 2))
    if i == 0:
        n *= hot_factor
    n = max(n, 4)
    # message-length dynamics: geometric moving average of noise around a
    # drifting baseline (vectorized; AR(1)-like autocorrelation)
    base = rng.uniform(20, 200)
    drift = rng.uniform(-0.05, 0.05)
    noise = rng.normal(scale=base * 0.25, size=n)
    phi = rng.uniform(0.2, 0.8)
    kernel = phi ** np.arange(8)
    ma = np.convolve(noise, kernel)[:n]
    lengths = np.clip(np.round(base + drift * np.arange(n) + ma), 1, 4000).astype(
        np.int64
    )
    gaps = rng.integers(2_000_000, 12_000_000, size=n)  # 2-12 s between turns
    start = _EPOCH_US + int(rng.integers(0, 30)) * 86_400_000_000 + int(
        rng.integers(0, 86_400)
    ) * 1_000_000
    ts = start + np.cumsum(gaps) - gaps[0]
    return {
        "conv_id": np.full(n, f"conv{i:07d}", dtype=object),
        "turn_idx": np.arange(n, dtype=np.int32),
        "role": _ROLES[np.arange(n) % 2],
        "tool": _TOOLS[rng.integers(0, len(_TOOLS), size=n)],
        "lengths": lengths,
        "ts": ts,
    }


_PAD = "the quick brown fox jumps over the lazy dog " * 100


def _text_array_from_lengths(lengths: np.ndarray) -> pa.Array:
    """Vectorized Arrow string column where row i is a prefix of the pad
    text of length ``lengths[i]`` — built directly from offset buffers, no
    per-row Python strings."""
    pad = _PAD
    while len(pad) < int(lengths.max(initial=0)):
        pad += pad
    pad_np = np.frombuffer(pad.encode("ascii"), dtype=np.uint8)
    lengths = lengths.astype(np.int64)
    total = int(lengths.sum())
    if total >= 2**31:
        # int32 string offsets would silently wrap and corrupt the column
        raise ValueError(
            f"file text totals {total} bytes, exceeding int32 string "
            "offsets - increase n_files so each file stays under 2 GiB"
        )
    offsets = np.zeros(lengths.size + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    # position within each row: global index minus the row's start offset
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    data = pad_np[within]
    return pa.StringArray.from_buffers(
        lengths.size,
        pa.py_buffer(offsets.tobytes()),
        pa.py_buffer(data.tobytes()),
    )


def _texts_from_lengths(lengths: np.ndarray) -> pa.Array:
    return _text_array_from_lengths(np.asarray(lengths))


def synthesize_transcripts(
    out_dir: str | os.PathLike,
    n_convs: int = 100,
    mean_turns: int = 60,
    seed: int = 42,
    n_files: int = 8,
    hot_factor: int = 50,
) -> str:
    """Write a deterministic transcript Parquet dataset; returns the dir.

    Idempotent cache: if the directory already contains a matching
    ``_SPEC`` marker, generation is skipped.
    """
    out = Path(out_dir)
    spec = f"v2:{n_convs}:{mean_turns}:{seed}:{n_files}:{hot_factor}"
    marker = out / "_SPEC"
    if marker.exists() and marker.read_text() == spec:
        return str(out)
    out.mkdir(parents=True, exist_ok=True)
    for old in out.glob("*.parquet"):
        old.unlink()
    shuffle_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, 0xF17E]))
    )
    for f in range(n_files):
        convs = [
            _conv_arrays(i, seed, mean_turns, hot_factor)
            for i in range(f, n_convs, n_files)
        ]
        if not convs:
            continue
        cols = {
            k: np.concatenate([c[k] for c in convs])
            for k in ("conv_id", "turn_idx", "role", "tool", "lengths", "ts")
        }
        perm = shuffle_rng.permutation(cols["conv_id"].size)
        table = pa.table(
            {
                "conv_id": pa.array(cols["conv_id"][perm], pa.string()),
                "turn_idx": pa.array(cols["turn_idx"][perm], pa.int32()),
                "role": pa.array(cols["role"][perm], pa.string()),
                "text": _texts_from_lengths(cols["lengths"][perm]),
                "tool": pa.array(cols["tool"][perm], pa.string()),
                "ts": pa.array(cols["ts"][perm], pa.timestamp("us")),
            }
        )
        pq.write_table(table, out / f"part-{f:05d}.parquet")
    marker.write_text(spec)
    return str(out)


def events_to_transcripts(batch: pa.Table) -> pa.Table:
    """events (event_id, ts, user_id, event_type, value, props) -> transcript shape."""
    import pyarrow.compute as pc

    n = batch.num_rows
    event_id = batch["event_id"]
    return pa.table(
        {
            "conv_id": pc.binary_join_element_wise(
                pa.array(["u"] * n), pc.cast(batch["user_id"], pa.string()), ""
            ),
            # int64: event ids at target volumes exceed 2^31 and the
            # checked int32 cast would raise mid-pipeline
            "turn_idx": pc.cast(event_id, pa.int64()),
            "role": pa.array(["user"] * n, pa.string()),
            "text": pc.cast(pc.fill_null(batch["props"], ""), pa.string()),
            "tool": pc.cast(batch["event_type"], pa.string()),
            "ts": pc.cast(batch["ts"], pa.timestamp("us")),
        }
    )


def fixture_transcripts() -> pa.Table:
    """Layer-A reference fixtures as transcript conversations.

    ``ramp``: linspace(0, 100, 100) scaled to integer text lengths;
    ``sine``: sin(linspace(0, 2π, 100)) likewise (affine: 500 + 400·v).
    One turn per 5 s so each conversation spans several 1m buckets within
    one 1h bucket."""
    convs = {
        "ramp": np.round(np.linspace(0, 100, 100) * 10 + 1).astype(np.int64),
        "sine": np.round(np.sin(np.linspace(0, 2 * np.pi, 100)) * 400 + 500).astype(
            np.int64
        ),
    }
    parts = []
    for name, lengths in convs.items():
        n = lengths.size
        ts = _EPOCH_US + np.arange(n, dtype=np.int64) * 5_000_000
        parts.append(
            pa.table(
                {
                    "conv_id": pa.array([name] * n, pa.string()),
                    "turn_idx": pa.array(np.arange(n, dtype=np.int32), pa.int32()),
                    "role": pa.array(["user", "assistant"] * (n // 2), pa.string()),
                    "text": _texts_from_lengths(lengths),
                    "tool": pa.array([""] * n, pa.string()),
                    "ts": pa.array(ts, pa.timestamp("us")),
                }
            )
        )
    return pa.concat_tables(parts)


def _norm_transcript_batch(b: pa.Table) -> pa.Table:
    """Normalize a text-format ingest batch to ``TRANSCRIPT_SCHEMA``
    types (shared by the JSONL and CSV readers): string conv_id/role,
    int64 turn_idx (the target-volume width), null text/tool -> "",
    and ``ts`` from the text-shipment contract (int64 epoch-µs) to
    timestamp[us]."""
    import pyarrow.compute as pc

    return pa.table(
        {
            "conv_id": pc.cast(b["conv_id"], pa.string()),
            "turn_idx": pc.cast(b["turn_idx"], pa.int64()),
            "role": pc.cast(b["role"], pa.string()),
            "text": pc.cast(pc.fill_null(b["text"], ""), pa.string()),
            "tool": pc.cast(pc.fill_null(b["tool"], ""), pa.string()),
            "ts": pc.cast(b["ts"], pa.timestamp("us")),
        }
    )


def read_transcripts_jsonl(paths: list[str] | str):
    """Transcript table from JSONL files (a second ingest format).

    JSON has no timestamp or fixed-width integer types, so the contract
    for JSONL shipments is ``ts`` as int64 epoch-microseconds; this
    reader normalizes every column back to ``TRANSCRIPT_SCHEMA`` types
    (int64 turn_idx — the target-volume width). Distributed read via
    ``ray.data.read_json`` (one task per file / block, same streaming
    properties as the parquet source); equivalence with the parquet path
    is pinned in tests/test_pipeline.py.
    """
    import ray.data as rd

    ds = rd.read_json(paths)
    return ds.map_batches(_norm_transcript_batch, batch_format="pyarrow")


def read_transcripts_csv(paths: list[str] | str):
    """Transcript table from CSV files (a third ingest format).

    Same text-shipment contract as JSONL — ``ts`` as int64
    epoch-microseconds, empty/missing text and tool fields become ""
    — normalized through the shared ``_norm_transcript_batch``.
    Distributed read via ``ray.data.read_csv`` (streaming, one task per
    file / block); equivalence with the parquet path, quoted multi-line
    texts included, is pinned in tests/test_pipeline.py. Quoted fields
    may hold newlines (``newlines_in_values``, as ``pyarrow.csv.
    write_csv`` emits them), which pyarrow documents as slowing its
    multi-threaded parse; parquet or JSONL read faster.
    """
    import ray.data as rd
    from pyarrow import csv as pa_csv

    # empty strings must stay strings (not null-typed columns) even when
    # a whole block's text column is empty; strings_can_be_null=False is
    # the pyarrow default but convert_options pins column types so a
    # numeric-looking conv_id file still reads as string
    ds = rd.read_csv(
        paths,
        parse_options=pa_csv.ParseOptions(newlines_in_values=True),
        convert_options=pa_csv.ConvertOptions(
            column_types={
                "conv_id": pa.string(),
                "turn_idx": pa.int64(),
                "role": pa.string(),
                "text": pa.string(),
                "tool": pa.string(),
                "ts": pa.int64(),
            }
        ),
    )
    return ds.map_batches(_norm_transcript_batch, batch_format="pyarrow")
