"""Correctness checks, run outside the timed sections.

Rollup rows are compared through a canonical form (fixed column order,
``bucket_ts`` as int64 microseconds, sorted by tier, conversation and
bucket) and a sha256 over its raw column bytes, so "equal" means equal bit
for bit, NaN payloads included.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from eristropy_ray.codecs.dod import dod_decode
from eristropy_ray.codecs.gorilla import gorilla_decode
from eristropy_ray.config import EncodeConfig, RollupConfig
from eristropy_ray.stages.project import project_turns
from eristropy_ray.stages.windows import ROLLUP_COLUMNS, rollup_windows

TURN_COLUMNS = ["conv_id", "turn_idx", "text", "ts"]
KEY = ["tier", "conv_id", "bucket_ts"]


def to_us(col: pd.Series) -> np.ndarray:
    """int64 microseconds of a timestamp column (integers pass through)."""
    if np.issubdtype(col.dtype, np.datetime64):
        return col.to_numpy().astype("datetime64[us]").astype(np.int64)
    return col.to_numpy(dtype=np.int64)


def canon_rows(df: pd.DataFrame) -> pd.DataFrame:
    out = pd.DataFrame({c: df[c].to_numpy() for c in ROLLUP_COLUMNS})
    out["bucket_ts"] = to_us(df["bucket_ts"])
    out["conv_id"] = out["conv_id"].astype(object)
    out["tier"] = out["tier"].astype(object)
    return out.sort_values(KEY, kind="stable").reset_index(drop=True)


def digest(df: pd.DataFrame) -> str:
    """sha256 over a canonical frame's columns (strings NUL-joined)."""
    h = hashlib.sha256()
    for c in df.columns:
        a = df[c].to_numpy()
        if a.dtype == object:
            h.update("\0".join(map(str, a)).encode())
        else:
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(b"\1")
    return h.hexdigest()


def read_hive(path: str | Path) -> pd.DataFrame:
    """Every parquet file under ``path``, with the ``tier=`` directory
    restored as a column (written partitions drop it from the files)."""
    frames = []
    for f in sorted(Path(path).rglob("*.parquet")):
        t = pq.read_table(f).to_pandas()
        for part in f.parent.parts:
            if part.startswith("tier="):
                t["tier"] = part.split("=", 1)[1]
        frames.append(t)
    if not frames:
        raise FileNotFoundError(f"no parquet files under {path}")
    return pd.concat(frames, ignore_index=True)


def read_turns(path: str) -> pd.DataFrame:
    """One transcript file projected to (conv_id, turn_idx, ts, value)."""
    return project_turns(pq.read_table(path, columns=TURN_COLUMNS)).to_pandas()


def rollup_frame(turns: pd.DataFrame, cfg: RollupConfig = RollupConfig()) -> pd.DataFrame:
    """Single-thread rollup of projected turns: the colocated plan's
    per-file work, without Ray."""
    return pd.DataFrame(
        rollup_windows(
            turns["conv_id"].to_numpy(dtype=object),
            turns["turn_idx"].to_numpy(dtype=np.int64),
            to_us(turns["ts"]),
            turns["value"].to_numpy(dtype=np.float64),
            cfg,
        )
    )


def reference_digest(files: list[str]) -> tuple[str, int]:
    """Digest of the rollup rows of ``files`` and their turn count."""
    turns = [read_turns(f) for f in files]
    rows = pd.concat([rollup_frame(t) for t in turns], ignore_index=True)
    return digest(canon_rows(rows)), sum(len(t) for t in turns)


def blocks_match_rows(
    blocks: pd.DataFrame, rows: pd.DataFrame, enc: EncodeConfig = EncodeConfig()
) -> str:
    """Decode every tier block and check it carries the rollup rows: each
    row's bucket is in its (conversation, tier) block stream with the same
    value bits, and the observed (not gap-filled) points add up to the row
    count. Returns "" when they match, else the first difference."""
    n_obs = int((blocks["n_points"] - blocks["gap_filled_points"]).sum())
    if n_obs != len(rows):
        return f"blocks hold {n_obs} observed points for {len(rows)} rows"
    conv, tier, ts, vals = [], [], [], {c: [] for c in enc.columns}
    for rec in blocks.itertuples(index=False):
        t = dod_decode(rec.ts_enc)
        if t.size != rec.n_points:
            return f"block of {rec.conv_id}/{rec.tier} decodes {t.size} != {rec.n_points}"
        conv.append(np.full(t.size, rec.conv_id, dtype=object))
        tier.append(np.full(t.size, rec.tier, dtype=object))
        ts.append(t)
        for c in enc.columns:
            vals[c].append(gorilla_decode(getattr(rec, f"{c}_enc")))
    decoded = pd.DataFrame(
        {"conv_id": np.concatenate(conv), "tier": np.concatenate(tier),
         "bucket_ts": np.concatenate(ts),
         **{c: np.concatenate(v) for c, v in vals.items()}}
    )
    want = canon_rows(rows)
    got = want[KEY].merge(
        decoded, on=KEY, how="left", validate="one_to_one", indicator=True
    )
    missing = int((got["_merge"] != "both").sum())
    if missing:
        return f"{missing} rollup rows have no point in the decoded blocks"
    for c in enc.columns:
        a = want[c].to_numpy(dtype=np.float64).view(np.int64)
        b = got[c].to_numpy(dtype=np.float64).view(np.int64)
        if not np.array_equal(a, b):
            bad = int((a != b).sum())
            return f"{bad} decoded {c} values differ from the checkpointed rows"
    return ""


def compression_ratio(blocks: pd.DataFrame) -> float:
    return float(blocks["raw_bytes"].sum()) / float(blocks["enc_bytes"].sum())
