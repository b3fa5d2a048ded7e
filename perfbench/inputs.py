"""Seeded benchmark inputs, cached under ``perfbench/.cache``.

Every input is a pure function of ``(spec, seed)``: the same seed writes the
same bytes. The library's own generator makes the transcripts; this module
makes the registry's star-schema tables (the shape of the fixed test corpus
the query registry and its DuckDB oracles were written against) and the late
batches of the upsert workload.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"
# Entries are seed-specific and runs vary their seeds, so keep only the
# newest few: enough for every workload of one seed to share its inputs.
CACHE_KEEP = 8


@dataclass(frozen=True)
class TranscriptSpec:
    """Arguments of ``synthesize_transcripts`` (conversation-partitioned)."""

    n_convs: int
    n_files: int
    mean_turns: int = 120
    hot_factor: int = 50

    def key(self, seed: int) -> str:
        return (
            f"tx-c{self.n_convs}-f{self.n_files}-t{self.mean_turns}"
            f"-h{self.hot_factor}-s{seed}"
        )


@dataclass(frozen=True)
class TablesSpec:
    """Row counts of the registry tables (sf0.001 of the test corpus)."""

    customers: int = 150
    suppliers: int = 10
    parts: int = 200
    orders: int = 1500
    lineitems: int = 6000
    # 2000 events, not the corpus's 1000: with 1000 the sweep's block
    # compression ratio swung 16-21 across seeds (too few finite anchors)
    events: int = 2000
    users: int = 15
    # 250, not the corpus's 500: the all-pairs DuckDB oracles of the
    # near-dup entries grow with its square and dominate the checks
    documents: int = 250
    embeddings: int = 500
    dim: int = 64

    def key(self, seed: int) -> str:
        return (
            f"tables-o{self.orders}-e{self.events}-u{self.users}"
            f"-d{self.documents}-s{seed}"
        )


def _prune_cache(keep: Path) -> None:
    entries = sorted(
        (p for p in CACHE.iterdir() if p.is_dir() and p != keep),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for old in entries[CACHE_KEEP - 1 :]:
        shutil.rmtree(old, ignore_errors=True)


def _write_transcripts(out: Path, spec: TranscriptSpec, seed: int) -> None:
    from eristropy_ray.sources.transcripts import synthesize_transcripts

    synthesize_transcripts(
        out,
        n_convs=spec.n_convs,
        mean_turns=spec.mean_turns,
        seed=seed,
        n_files=spec.n_files,
        hot_factor=spec.hot_factor,
    )


def _synth(kind_key: str, writer, scratch: Path, reps: int) -> tuple[Path, float]:
    """Cache check or write of one input, then ``reps - 1`` fresh writes.

    Returns the cached directory and the median seconds over all ``reps``
    (so a cache hit still reports what generating the input costs).
    """
    CACHE.mkdir(parents=True, exist_ok=True)
    final = CACHE / kind_key
    times = []
    t0 = time.perf_counter()
    if not (final / "_DONE").exists():
        tmp = CACHE / f".{kind_key}.{os.getpid()}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        writer(tmp)
        (tmp / "_DONE").touch()
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    times.append(time.perf_counter() - t0)
    os.utime(final)
    for i in range(reps - 1):
        d = scratch / f"synth-rep-{i}"
        shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        writer(d)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(d, ignore_errors=True)
    _prune_cache(final)
    return final, statistics.median(times)


def transcripts(
    spec: TranscriptSpec, seed: int, scratch: Path, reps: int = 3
) -> tuple[list[str], float]:
    """Seeded transcript files (one conversation never spans two files)."""
    d, synth_s = _synth(
        spec.key(seed), lambda out: _write_transcripts(out, spec, seed), scratch, reps
    )
    return sorted(str(p) for p in d.glob("*.parquet")), synth_s


def tables(
    spec: TablesSpec, seed: int, scratch: Path, reps: int = 3
) -> tuple[str, float]:
    """Seeded registry tables; returns the directory the queries read."""
    d, synth_s = _synth(
        spec.key(seed), lambda out: write_tables(out, spec, seed), scratch, reps
    )
    return str(d), synth_s


_WORDS = (
    "the a fast slow key order sort table scan merge part window small big "
    "hash join batch stream spark group query row data filter customer line "
    "value agg column vector dup"
).split()
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_PART_ADJ = ["cold", "small", "large", "blue", "red", "green", "hot", "tiny"]
_PART_NOUN = ["widget", "bolt", "rod", "gear", "valve", "spring", "nut", "pipe"]
_PART_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_LANGS = ["de", "en", "es", "fr", "zh"]
_US = 1_000_000
_DAY_US = 86_400 * _US


def _days(rng, n: int, start: str, n_days: int) -> pa.Array:
    base = np.datetime64(start, "us").astype(np.int64)
    us = base + rng.integers(0, n_days, n) * _DAY_US
    return pa.array(us, pa.timestamp("us"))


def _money(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def _documents(rng, n: int) -> pa.Table:
    texts: list[str] = []
    originals: list[int] = []
    for i in range(n):
        if len(originals) >= 10 and rng.random() < 0.06:
            # Near-duplicate as in the fixed test corpus: an original with
            # " dup" appended (word-shingle Jaccard 0.89-0.99). The LSH
            # near-dup queries are oracle-exact only while every pair is
            # that similar; see NOTES.md.
            texts.append(texts[originals[int(rng.integers(0, len(originals)))]] + " dup")
        else:
            originals.append(i)
            n_words = int(rng.integers(8, 90))
            texts.append(" ".join(rng.choice(_WORDS, n_words)))
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(rng.choice(_LANGS, n), pa.string()),
            "source": pa.array([f"src{k}" for k in rng.integers(0, 20, n)]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def _embeddings(rng, n: int, dim: int) -> pa.Table:
    # Isotropic unit vectors with independent labels, as in the fixed test
    # corpus. The IVF near-dup entry is oracle-exact on such vectors; on
    # clustered ones it misses pairs near its threshold (see NOTES.md).
    vecs = rng.normal(size=(n, dim))
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
    return pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
            "label": pa.array(rng.integers(0, 10, n), pa.int32()),
        }
    )


def write_tables(out: Path, spec: TablesSpec, seed: int) -> None:
    """The ten registry tables, same schemas as the fixed test corpus."""
    rng = np.random.default_rng([seed, 0x7AB1E5])
    out.mkdir(parents=True, exist_ok=True)
    s = spec
    t: dict[str, pa.Table] = {}
    t["region"] = pa.table(
        {
            "r_regionkey": pa.array(np.arange(5), pa.int32()),
            "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
        }
    )
    t["nation"] = pa.table(
        {
            "n_nationkey": pa.array(np.arange(25), pa.int32()),
            "n_name": [f"NATION_{i}" for i in range(25)],
            "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
        }
    )
    t["customer"] = pa.table(
        {
            "c_custkey": pa.array(np.arange(s.customers), pa.int64()),
            "c_name": [f"Customer#{i:09d}" for i in range(s.customers)],
            "c_nationkey": pa.array(rng.integers(0, 25, s.customers), pa.int32()),
            "c_acctbal": _money(rng, -999.99, 9999.99, s.customers),
            "c_mktsegment": rng.choice(_SEGMENTS, s.customers),
        }
    )
    t["supplier"] = pa.table(
        {
            "s_suppkey": pa.array(np.arange(s.suppliers), pa.int64()),
            "s_name": [f"Supplier#{i:09d}" for i in range(s.suppliers)],
            "s_nationkey": pa.array(rng.integers(0, 25, s.suppliers), pa.int32()),
            "s_acctbal": _money(rng, -999.99, 9999.99, s.suppliers),
        }
    )
    t["part"] = pa.table(
        {
            "p_partkey": pa.array(np.arange(s.parts), pa.int64()),
            "p_name": [
                f"{rng.choice(_PART_ADJ)} {rng.choice(_PART_NOUN)}"
                for _ in range(s.parts)
            ],
            "p_brand": [f"Brand#{k}" for k in rng.integers(1, 26, s.parts)],
            "p_type": rng.choice(_PART_TYPES, s.parts),
            "p_size": pa.array(rng.integers(1, 51, s.parts), pa.int32()),
            "p_retailprice": np.round(900 + (np.arange(s.parts) % 200) * 0.1, 2),
        }
    )
    t["orders"] = pa.table(
        {
            "o_orderkey": pa.array(np.arange(s.orders), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, s.customers, s.orders), pa.int64()),
            "o_orderstatus": rng.choice(["F", "O", "P"], s.orders),
            "o_totalprice": _money(rng, 1000, 500000, s.orders),
            "o_orderdate": _days(rng, s.orders, "1995-01-01", 2404),
            "o_orderpriority": rng.choice(_PRIORITIES, s.orders),
        }
    )
    qty = rng.integers(1, 51, s.lineitems).astype(np.float64)
    t["lineitem"] = pa.table(
        {
            "l_orderkey": pa.array(rng.integers(0, s.orders, s.lineitems), pa.int64()),
            "l_partkey": pa.array(rng.integers(0, s.parts, s.lineitems), pa.int64()),
            "l_suppkey": pa.array(
                rng.integers(0, s.suppliers, s.lineitems), pa.int64()
            ),
            "l_linenumber": pa.array(rng.integers(1, 8, s.lineitems), pa.int32()),
            "l_quantity": qty,
            "l_extendedprice": np.round(qty * rng.uniform(900, 2100, s.lineitems), 2),
            "l_discount": rng.integers(0, 11, s.lineitems) / 100.0,
            "l_tax": rng.integers(0, 9, s.lineitems) / 100.0,
            "l_returnflag": rng.choice(["A", "N", "R"], s.lineitems),
            "l_linestatus": rng.choice(["F", "O"], s.lineitems),
            "l_shipdate": _days(rng, s.lineitems, "1995-01-02", 2498),
        }
    )
    ts = np.sort(
        np.datetime64("2024-01-01", "us").astype(np.int64)
        + rng.integers(0, 30 * _DAY_US, s.events)
    )
    t["events"] = pa.table(
        {
            "event_id": pa.array(np.arange(s.events), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, s.users, s.events), pa.int64()),
            "event_type": rng.choice(_EVENT_TYPES, s.events),
            "value": np.round(rng.exponential(50.0, s.events), 2) + 0.01,
            "props": [json.dumps({"k": int(k)}) for k in rng.integers(0, 100, s.events)],
        }
    )
    t["documents"] = _documents(rng, s.documents)
    t["embeddings"] = _embeddings(rng, s.embeddings, s.dim)
    for name, table in t.items():
        pq.write_table(table, out / f"{name}.parquet")


def late_batch(stored: pd.DataFrame, seed: int, partition: int) -> pd.DataFrame:
    """Late turns for one partition: a quarter of its conversations each get
    three turns appended just after their last stored turn."""
    rng = np.random.default_rng([seed, 0x1A7E, partition])
    last = stored.groupby("conv_id", sort=True).agg(
        max_idx=("turn_idx", "max"), max_ts=("ts", "max")
    )
    touched = last.iloc[rng.permutation(len(last))[: max(1, len(last) // 4)]]
    touched = touched.sort_index()
    n = 3 * len(touched)
    step = rng.integers(1, 5_000_000, n).astype("timedelta64[us]")
    return pd.DataFrame(
        {
            "conv_id": touched.index.repeat(3),
            "turn_idx": touched["max_idx"].to_numpy().repeat(3)
            + np.tile([1, 2, 3], len(touched)),
            "ts": touched["max_ts"].to_numpy().repeat(3).astype("datetime64[us]")
            + np.cumsum(step.reshape(-1, 3), axis=1).ravel(),
            "value": rng.integers(1, 400, n).astype(np.float64),
        }
    )
