"""Driver-facing query surface: one entry per operator (SURVEY.md §2),
each with a DuckDB oracle where ANSI SQL can express it.

Cross-engine exactness: float aggregates are accumulated as integer
micro-units on the Ray side and as DECIMAL(.,6) sums on the DuckDB side —
both are exact, and every subsequent float op is written in the same
order, so value hashes match bit-for-bit (no tolerance needed). Every
conversion is ``kernels.stats.micros``/``from_micros``, which raises
``ValueError`` on a null/NaN, ±inf or out-of-range value (the twins fail
on inf too; they skip nulls, which these sums do not do yet). Columns
carrying event time are emitted as ``ts_us``/``bucket_us`` BIGINT
(microseconds) on both sides to avoid timestamp-type mismatches.

All callables take ``sf_dir`` and return a Ray Dataset / pandas DataFrame.
Ray is initialised by the caller — never here.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache as _lru_cache

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from eristropy_ray.config import EncodeConfig, RollupConfig
from eristropy_ray.kernels.stats import from_micros, micros
from eristropy_ray.pipelines.exchange import (
    exchange,
    fold,
    fold_by,
    keyed_combine,
    partition_of,
    segment_rank,
    segment_starts,
    top_k,
)
from eristropy_ray.stages.signals import (
    adf_partition,
    difference_partition,
    entropy_partition,
    gather_signals,
    zscore_partition,
)

US_1H = 3_600_000_000
US_1D = 86_400_000_000
_BAND_JOIN_WINDOW_US = 600_000_000  # band_join window; SQL twin generated


@_lru_cache(maxsize=256)
def _clean_schema(path: str, columns: tuple[str, ...] | None) -> pa.Schema:
    import pyarrow.parquet as pq

    sch = pq.read_schema(path).remove_metadata()
    if columns is not None:
        sch = pa.schema([sch.field(c) for c in columns])
    return sch


def _read(path: str, columns: list[str] | None = None, **kw) -> rd.Dataset:
    """``rd.read_parquet`` with the file's ``b'pandas'`` schema metadata
    stripped via an explicit pruned schema override.

    The driver-generated testdata carries pandas metadata, and a
    ``pa.Schema`` WITH metadata is unhashable (``hash`` raises on the
    metadata dict), so every downstream block-schema dedup — sort /
    groupby / join concats — logs Ray's "Failed to hash the schemas"
    warning and pays full schema unification per concat instead of the
    hashable early exit. Passing ``schema=`` keeps the read a pure read
    op (``count()`` stays a parquet-footer fast path; a strip-metadata
    ``map_batches`` would not) and costs one cached driver-side footer
    read per (path, columns).

    The read's context (its own copy of the session's, shared by the
    Datasets derived from it) raises a map's own exception, so a caller
    catches, say, ``micros``' ``ValueError`` rather than Ray's
    ``UserCodeException`` that names it only in text."""
    cols = None if columns is None else tuple(columns)
    ds = rd.read_parquet(
        path, columns=columns, schema=_clean_schema(path, cols), **kw
    )
    ds.context.raise_original_map_exception = True
    return ds


def _events_signals(sf_dir: str) -> rd.Dataset:
    """events -> (signal_id, ts_us, value, tie)."""
    ds = _read(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "signal_id": pc.cast(b["user_id"], pa.int64()),
                "ts_us": pc.cast(b["ts"], pa.int64()),
                "value": b["value"],
                "tie": pc.cast(b["event_id"], pa.int64()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------- queries

_USER_COUNTS = pa.schema([("user_id", pa.int64()), ("n_obs", pa.int64())])


def _user_counts(sf_dir: str) -> rd.Dataset:
    """(user_id, n_obs) via per-batch collapse + keyed combine: the
    shuffle carries (users x blocks) partial rows, not one row per
    event, and skips Ray's sort-based Aggregate fixed cost."""
    ds = _read(f"{sf_dir}/events.parquet", columns=["user_id"])
    return keyed_combine(ds, ["user_id"], {"n_obs": "count"})


def q_signal_counts(sf_dir: str):
    """V3-style per-signal sizes + exact min/max (validation surface).
    Partial-collapsed per batch (count/min/max are mergeable), then the
    keyed combine — the shuffle carries partial rows, not events."""
    ds = _read(f"{sf_dir}/events.parquet", columns=["user_id", "value"])

    def project(b: pa.Table) -> pa.Table:
        v = pc.cast(b["value"], pa.float64())
        return pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "value_min": v,
                "value_max": v,
            }
        )

    return keyed_combine(
        ds.map_batches(project, batch_format="pyarrow"),
        ["user_id"],
        {"n_obs": "count", "value_min": "min", "value_max": "max"},
    )


def q_min_signal_length(sf_dir: str):
    """min group size guard (sample_entropy.py:106-111), a ``top_k``."""
    m = top_k(_user_counts(sf_dir), [("n_obs", "ascending")], 1, _USER_COUNTS)
    # MIN over zero groups is one NULL row, as in the SQL twin
    return pd.DataFrame({"min_len": [m["n_obs"][0].as_py() if len(m) else np.nan]})


def q_doc_len(sf_dir: str):
    """value = len(text) derivation (the transcript ingest projection)."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "value": pc.cast(pc.utf8_length(b["text"]), pa.float64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


_DOC_LEN_QS = (0.25, 0.5, 0.75, 0.95, 0.99)  # SQL twin generated


def q_doc_len_quantiles(sf_dir: str):
    """EXACT corpus doc-length quantiles via a mergeable histogram.

    The 100 TB shape for percentile cutoffs (quality filters pick "drop
    below P5 / above P99 length" thresholds): each batch collapses to
    (length, count) partial rows — the fold carries value-domain-sized
    tables (distinct lengths × tasks), independent of corpus row count —
    a ``fold_by`` sums them, and the driver finish interpolates on the
    cumulative histogram (value-domain-sized, the same legal
    small-result pinch as the other sketch finishes, but EXACT: integer
    value domains need no GK/t-digest approximation). Interpolation
    mirrors DuckDB's quantile_cont bit-for-bit (convex combination
    lo*(1-f) + hi*f at h=(n-1)*q, fuzz-pinned in tests). An empty corpus
    gives NaN at every q, as quantile_cont's NULL."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def lengths(b: pa.Table) -> pa.Table:
        # utf8_length == pandas str.len == DuckDB LENGTH (codepoints)
        return pa.table({"len": pc.cast(pc.utf8_length(b["text"]), pa.int64())})

    hist = fold_by(
        ds.map_batches(lengths, batch_format="pyarrow"), ["len"], {"cnt": "count"},
        pa.schema([("len", pa.int64()), ("cnt", pa.int64())]),
    ).sort_by("len")
    qs = _DOC_LEN_QS
    out = {"q": [float(q) for q in qs], "value": [np.nan] * len(qs)}
    if hist.num_rows:
        lens = hist["len"].to_numpy().astype(np.float64)
        cum = hist["cnt"].to_numpy().cumsum()
        n = int(cum[-1])
        for j, q in enumerate(qs):
            h = (n - 1) * q
            i = int(np.floor(h))
            f = h - i
            lo = lens[np.searchsorted(cum, i, side="right")]
            hi = lens[np.searchsorted(cum, min(i + 1, n - 1), side="right")]
            out["value"][j] = lo * (1.0 - f) + hi * f
    return pd.DataFrame(out).astype({"q": "float64", "value": "float64"})


def q_difference(sf_dir: str):
    """T2 per-signal first difference (difference.py:29-81)."""
    return exchange(
        _events_signals(sf_dir), "signal_id", difference_partition
    ).select_columns(["signal_id", "ts_us", "value"])


def q_zscore(sf_dir: str):
    """A4 per-signal z-score, ddof=1 (stationarity.py:278-281)."""
    return exchange(
        _events_signals(sf_dir), "signal_id", zscore_partition
    ).select_columns(["signal_id", "ts_us", "value"])


def _bucket_rollup(sf_dir: str, step_us: int):
    """Continuous-aggregate rollup as one keyed combine on (user, bucket):
    exact integer-micro sums per batch, merged after one exchange.
    (Round 5: the combine replaced ``groupby(keys).aggregate(...)`` —
    same shuffle volume, but Ray's sort-based Aggregate cost ~2.4 s of
    fixed machinery on 4.5 MB of partials; the combine reads 2.8x faster
    at sf0.1 and is bit-equal because every merge op is
    order-insensitive: int64 sums, float min/max.)"""
    ds = _read(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def project(b: pa.Table) -> pa.Table:
        ts = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        val = pa.array(v, pa.float64())
        return pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "bucket_us": pa.array(ts - ts % step_us, pa.int64()),
                "value_min": val,
                "value_max": val,
                "sum_mu": pa.array(micros(v), pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_obs"].to_numpy()
        vsum = from_micros(t["sum_mu"].to_numpy())
        return (
            t.drop_columns(["sum_mu"])
            .append_column("value_sum", pa.array(vsum, pa.float64()))
            .append_column("value_mean", pa.array(vsum / n, pa.float64()))
        )

    return keyed_combine(
        ds.map_batches(project, batch_format="pyarrow"),
        ["user_id", "bucket_us"],
        {"n_obs": "count", "value_min": "min", "value_max": "max",
         "sum_mu": "sum"},
        finish,
    )


def q_rollup_1h(sf_dir: str):
    """1h tumbling-bucket rollup (count/min/max/sum/mean) via the
    partial-agg pattern: exact integer-micro sums per batch, then a
    small groupby — binary-exact vs the DECIMAL-sum SQL twin."""
    return _bucket_rollup(sf_dir, US_1H)


def q_rollup_1d(sf_dir: str):
    """1d tumbling-bucket rollup; same partial-agg pattern as 1h."""
    return _bucket_rollup(sf_dir, US_1D)


def q_doc_counts_by_lang(sf_dir: str):
    """Document counts per language label (one pruned-column ``fold_by``)."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["lang"])
    schema = pa.schema([("lang", pa.string()), ("n_docs", pa.int64())])
    return fold_by(ds, ["lang"], {"n_docs": "count"}, schema).to_pandas()


def q_dedup_exact(sf_dir: str):
    """Exact dedup: group by 128-bit content hash, keep min doc_id.
    Hashing is one vectorized pass over the Arrow string column's flat
    buffer + offsets (``batch_hash128`` — C-speed rolling hashes, no
    per-row Python; replaced the ``Series.map(sha1)`` loop flagged in
    VERDICT r4), and the shuffle carries two int64 key columns instead
    of 40-char hex strings. The group-by is the keyed combine on
    (h1, h2) — min doc_id and a count per hash, merged after one
    exchange on h1; it replaced ``groupby((h1,h2)).aggregate`` for the
    same fixed-shuffle-machinery reason as ``_bucket_rollup``."""
    from eristropy_ray.datapipe.dedup import batch_hash128

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def hash_batch(b: pa.Table) -> pa.Table:
        h1, h2 = batch_hash128(b["text"])
        return pa.table(
            {
                "h1": pa.array(h1.view(np.int64), pa.int64()),
                "h2": pa.array(h2.view(np.int64), pa.int64()),
                "doc_id": pc.cast(b["doc_id"], pa.int64()),
            }
        )

    return keyed_combine(
        ds.map_batches(hash_batch, batch_format="pyarrow"),
        ["h1", "h2"],
        {"doc_id": "min", "n_dupes": "count"},
        lambda t: t.select(["doc_id", "n_dupes"]),
    )


# GPT-2-style pre-tokenizer, simplified to be lookahead-free and written
# with EXPLICIT ASCII whitespace classes (Python's \s is Unicode-aware,
# RE2's is not — explicit classes make both engines match identically):
# contractions | space?letter-run | space?digit-run | space?punct-run
_BPE_PAT = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 \t\n\f\r']+"
_WS_TOKEN_PAT = r"[^ \t\n\f\r]+"


def _parquet_rows(path_glob: str) -> int:
    """Exact row count from parquet footer metadata — no data scan."""
    import glob as _glob

    import pyarrow.parquet as _pq

    paths = _glob.glob(path_glob) or [path_glob]
    return sum(_pq.ParquetFile(p).metadata.num_rows for p in paths)


def _sql_regex(pat: str) -> str:
    """SQL string literal of a Python regex: the escapes (\t etc.) are
    already literal backslash sequences RE2 understands; only quotes need
    doubling. Generating the oracle pattern from the SAME constant keeps
    the two engines from drifting (CLAUDE.md bit-exactness rule)."""
    return "'" + pat.replace("'", "''") + "'"


def q_token_counts(sf_dir: str):
    """Token counting (text-analysis op): whitespace tokens plus a
    BPE-ish pre-tokenizer count (compiled once per worker via the pandas
    str engine; the regex is RE2-compatible so the SQL twin is exact)."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        # count_substring_regex = RE2 non-overlapping match count — the
        # same engine the SQL twin runs, C-speed on the Arrow buffer
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tokens": pc.cast(
                    pc.count_substring_regex(b["text"], pattern=_WS_TOKEN_PAT),
                    pa.int64(),
                ),
                "n_bpe_tokens": pc.cast(
                    pc.count_substring_regex(b["text"], pattern=_BPE_PAT),
                    pa.int64(),
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def q_quality_scores(sf_dir: str):
    """Quality scoring: exact integer counts + deterministic ratios."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        n_chars = pc.cast(pc.utf8_length(b["text"]), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        n_punct = pc.cast(
            pc.count_substring_regex(b["text"], pattern=r"[.!?,;:]"),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        n_upper = pc.cast(
            pc.count_substring_regex(b["text"], pattern=r"[A-Z]"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        # max(n,1): an empty doc scores 0.0 on BOTH engines
        # (0/0 would be NaN here but NULL in DuckDB)
        denom = np.maximum(n_chars, 1)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_chars": pa.array(n_chars, pa.int64()),
                "n_punct": pa.array(n_punct, pa.int64()),
                "n_upper": pa.array(n_upper, pa.int64()),
                "punct_ratio": pa.array(n_punct / denom, pa.float64()),
                "upper_ratio": pa.array(n_upper / denom, pa.float64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _first_ids(sf_dir: str) -> pd.DataFrame:
    """The first ``_SIMILARITY_K`` vec_ids with a NaN sim (typed when empty)."""
    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
    order = [("vec_id", "ascending")]
    ids = top_k(ds, order, _SIMILARITY_K, pa.schema([("vec_id", pa.int64())]))
    return pd.DataFrame({"vec_id": ids["vec_id"].to_numpy(), "sim": np.nan})


_SIMILARITY_K = 10  # similarity_topk; SQL twin generated


def q_similarity_topk(sf_dir: str):
    """Brute-force cosine top-10 vs the vec_id=0 embedding (broadcast).

    The broadcast side is the SINGLE query vector (the correct
    small-side pattern); the row is fetched with a predicate-pushdown
    read so only the row groups whose vec_id range covers 0 leave
    storage — no full-corpus driver read; a ``top_k`` keeps the best
    scores. Without that row every cosine is NULL, as in the SQL twin:
    the first 10 ids with a NaN sim."""
    import pyarrow.parquet as pq
    import ray

    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "==", 0)],
    )
    if len(tbl) == 0:
        return _first_ids(sf_dir)
    qvec = np.asarray(tbl["embedding"][0].as_py(), dtype=np.float64)
    qref = ray.put(qvec / max(np.sqrt((qvec * qvec).sum()), 1e-30))

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def score(b: pa.Table) -> pa.Table:
        import ray as _ray

        q = _ray.get(qref)
        # flat list-buffer reshape (no per-row to_pylist loop); float64
        # values and row order are identical, so sims stay bit-exact
        lst = b["embedding"].combine_chunks()
        flat = np.asarray(lst.flatten(), dtype=np.float64)
        n = len(b)
        emb = flat.reshape(n, flat.size // n) if n else flat.reshape(0, 0)
        norms = np.maximum(np.sqrt((emb * emb).sum(axis=1)), 1e-30)
        sims = np.round((emb @ q) / norms, 4)
        vec_id = pc.cast(b["vec_id"], pa.int64())
        return pa.table({"vec_id": vec_id, "sim": pa.array(sims, pa.float64())})

    scored = ds.map_batches(score, batch_format="pyarrow")
    order = [("sim", "descending"), ("vec_id", "ascending")]
    schema = pa.schema([("vec_id", pa.int64()), ("sim", pa.float64())])
    return top_k(scored, order, _SIMILARITY_K, schema).to_pandas()


def q_sampen_per_signal(sf_dir: str):
    """O4 analogue: per-signal SampEn/PermEn (rows-only; not SQL)."""
    return exchange(_events_signals(sf_dir), "signal_id", entropy_partition)


def q_adf_stationarity(sf_dir: str):
    """A1+A2: difference -> per-signal ADF p -> Holm-Sidak accept set.

    The multiple-testing barrier runs on the driver over one scalar per
    signal (rows-only; not SQL)."""
    from eristropy_ray.kernels.multitest import holm_sidak

    diffed = exchange(_events_signals(sf_dir), "signal_id", difference_partition)
    pvals = gather_signals(diffed, adf_partition)
    reject, corrected = holm_sidak(pvals["pvalue"].to_numpy(), alpha=0.05)
    pvals["stationary"] = reject
    pvals["pvalue_corrected"] = corrected
    return pvals


def q_transcript_rollup(sf_dir: str):
    """Flagship rollup over events projected to transcript shape
    (rows-only; windowed entropies are not SQL-expressible)."""
    from eristropy_ray.pipelines.rollup import rollup_dataset
    from eristropy_ray.sources.transcripts import events_to_transcripts

    ds = _read(f"{sf_dir}/events.parquet")
    turns = ds.map_batches(events_to_transcripts, batch_format="pyarrow")
    return rollup_dataset(turns, RollupConfig())


def q_transcript_rollup_stats(sf_dir: str):
    """SQL-expressible face of the flagship rollup: the SAME
    rollup_dataset pipeline as ``transcript_rollup``, projected to its
    stats columns. value = utf8 length of text is integer-valued, so the
    float64 sums are exact and the mean is the identical division on
    both engines — this pins the flagship's windowing, bucketing and
    stats hash-exactly (the entropy columns stay pytest-pinned in
    ``transcript_rollup``)."""
    from eristropy_ray.pipelines.rollup import rollup_dataset
    from eristropy_ray.sources.transcripts import events_to_transcripts

    ds = _read(f"{sf_dir}/events.parquet")
    turns = ds.map_batches(events_to_transcripts, batch_format="pyarrow")
    rollup = rollup_dataset(turns, RollupConfig())

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": b["conv_id"],
                "tier": b["tier"],
                "bucket_us": pc.cast(b["bucket_ts"], pa.int64()),
                "n_turns": pc.cast(b["n_turns"], pa.int64()),
                "value_sum": b["value_sum"],
                "value_min": b["value_min"],
                "value_max": b["value_max"],
                "value_mean": b["value_mean"],
            }
        )

    return rollup.map_batches(project, batch_format="pyarrow")


def _tier_blocks(sf_dir: str, *columns: str):
    """The tier blocks of the events' transcript rollup (bucketed rollup +
    encode), projected to (conv_id, tier, block_start_us) and
    ``columns``, each as int64 — the one projection of the three
    tier-block entries."""
    from eristropy_ray.pipelines.rollup import encode_dataset, rollup_dataset
    from eristropy_ray.sources.transcripts import events_to_transcripts

    ds = _read(f"{sf_dir}/events.parquet")
    turns = ds.map_batches(events_to_transcripts, batch_format="pyarrow")
    blocks = encode_dataset(rollup_dataset(turns, RollupConfig()))

    def project(b: pa.Table) -> pa.Table:
        ints = {"block_start_us": b["block_start"], **{c: b[c] for c in columns}}
        return pa.table(
            {
                "conv_id": b["conv_id"],
                "tier": b["tier"],
                **{c: pc.cast(v, pa.int64()) for c, v in ints.items()},
            }
        )

    return blocks.map_batches(project, batch_format="pyarrow")


def q_tier_blocks(sf_dir: str):
    """Gap-filled tier blocks: per (conv, tier, block) boundary, point and
    gap-filled-point counts — binary-exact vs a dense-grid windowed SQL
    oracle (generate_series grid LEFT JOIN observed buckets)."""
    return _tier_blocks(sf_dir, "n_points", "gap_filled_points")


def q_tier_block_sizes(sf_dir: str):
    """Raw-side compression accounting per tier block. ``raw_bytes`` is a
    pure function of the gap-filled point count (8 bytes x (1 timestamp +
    len(EncodeConfig.columns) values) per point), so this side is
    oracle-exact against the dense-grid SQL twin; the codec-dependent
    encoded size lives in ``q_tier_block_enc`` (rows-only, pinned by
    round-trip tests)."""
    return _tier_blocks(sf_dir, "raw_bytes")


def q_tier_block_enc(sf_dir: str):
    """Encoded-side compression accounting (Gorilla/DoD output bytes per
    tier block; rows-only — codec byte counts are pinned by the codec
    round-trip and golden tests, not SQL-expressible)."""
    return _tier_blocks(sf_dir, "enc_bytes")


def q_stationary_signals(sf_dir: str):
    """Full StationarySignals flow (difference -> ADF -> Holm-Sidak ->
    semi-join filter -> z-score) on the events signal table (rows-only)."""
    from eristropy_ray.pipelines.stationary import (
        StationaryConfig,
        make_stationary_signals,
    )

    out, _ = make_stationary_signals(
        _events_signals(sf_dir), StationaryConfig(method="difference")
    )
    return out.select_columns(["signal_id", "ts_us", "value"])


def _no_estimates(signals: rd.Dataset) -> pd.DataFrame:
    """A NaN (sampen, se_sampen) row per signal: the registry's answer
    where a library estimator rejects its input."""
    from eristropy_ray.stages.signals import map_signals

    def sampen_final(df: pd.DataFrame) -> pd.DataFrame:
        return map_signals(df, lambda _, x: (np.nan, np.nan), ["sampen", "se_sampen"])

    return gather_signals(signals, sampen_final).drop(columns=["n_obs"])


def q_sampen_optimized(sf_dir: str):
    """SampleEntropy.compute_all_sampen(optimize=True) analogue with a
    deterministic TPE-lite search (rows-only). Signals too short for any
    (m, r) give NaN rows where the library call raises."""
    import warnings

    from eristropy_ray.pipelines.entropy import (
        SampEnConfig,
        SampEnSettingWarning,
        compute_all_sampen,
    )
    from eristropy_ray.stages.signals import zscore_plain_partition

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampEnSettingWarning)
        cfg = SampEnConfig(random_seed=17, n_boot=20, n_trials=10, m=2)
    # the reference's r_range is for normalized signals (the
    # StationarySignals output) — z-score first, as its flow does
    normalized = exchange(
        _events_signals(sf_dir), "signal_id", zscore_plain_partition
    )
    try:
        out, _ = compute_all_sampen(
            normalized, cfg, optimize=True, estimate_uncertainty=True
        )
    except ValueError:
        # no signals, one shorter than m_range, every trial NaN (which
        # OptimizationFailureWarning has reported) or a non-finite
        # z-score (a one-event or constant signal): no estimate exists
        out = _no_estimates(normalized)
    return out


def q_sampen_efficiency(sf_dir: str):
    """SampEnEfficiency grid path: Lake analytic r* + per-signal SampEn
    and analytic SE (rows-only). A one-event or constant signal z-scores
    to NaN, which the library rejects: every signal then gets a NaN row
    (its NaN score would make the median score, so every estimate, NaN)."""
    from eristropy_ray.pipelines.entropy import sampen_efficiency
    from eristropy_ray.stages.signals import zscore_plain_partition
    from eristropy_ray.stages.validate import SignalValidationError

    normalized = exchange(
        _events_signals(sf_dir), "signal_id", zscore_plain_partition
    )
    try:
        out, _ = sampen_efficiency(
            normalized, m=2, r_range=(0.1, 0.5), random_seed=17
        )
    except SignalValidationError:
        out = _no_estimates(normalized)
    return out


def q_doc_bytes(sf_dir: str):
    """Opaque-payload byte length (multimodal metadata op; text treated
    as its utf-8 payload)."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_bytes": pc.cast(
                    pc.binary_length(pc.cast(b["text"], pa.binary())), pa.int64()
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def q_langid(sf_dir: str):
    """Heuristic language ID (stopword/CJK n-gram scoring). Oracle-backed:
    the SQL twin is generated from the SAME stopword sets (_langid_sql),
    so the per-doc labels are hash-checked even though the synthetic
    corpus carries no real language signal. Batch-vectorized since
    round 5 (langid_predict_arrow — one slab regex split + np.isin per
    language, element-identical to the scalar kernel)."""
    from eristropy_ray.datapipe.textstats import langid_predict_arrow

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(b["doc_id"], pa.int64()),
                "lang_pred": pa.array(
                    langid_predict_arrow(b["text"]).astype(str), pa.string()
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def q_fingerprints(sf_dir: str):
    """Winnowing document fingerprints + whole-doc rolling hash."""
    from eristropy_ray.datapipe.textstats import content_hash64, winnow_fingerprints

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_fingerprints": [
                    int(winnow_fingerprints(t).size) for t in df["text"]
                ],
                "content_hash": [format(content_hash64(t), "016x") for t in df["text"]],
            }
        )

    return ds.map_batches(fn, batch_format="pandas")


def q_simhash(sf_dir: str):
    """64-bit SimHash per document (near-dup signature; rows-only).
    Arrow-native: signatures come off the string column's flat buffer
    (``simhash64_arrow``, element-identical to the scalar kernel)."""
    from eristropy_ray.datapipe.dedup import simhash64_arrow

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        sig = simhash64_arrow(b["text"])
        hexcat = sig.astype(">u8").tobytes().hex()
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "simhash": pa.array(
                    [hexcat[i * 16 : (i + 1) * 16] for i in range(sig.size)],
                    pa.string(),
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _bucket_pairs(
    codes: np.ndarray, ids: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Every pair of rows sharing a bucket code, buckets of 2..``cap``
    rows only, fully vectorized (no Python loop over buckets): with rows
    sorted by (bucket, id), the row at position p of its bucket is the
    b-side of p pairs with the rows before it. Returns the a-side and
    b-side row indices and the number of buckets over ``cap``."""
    order = np.lexsort((ids, codes))
    sizes = np.bincount(codes)
    rows = order[((sizes >= 2) & (sizes <= cap))[codes[order]]]
    _, code = np.unique(codes[rows], return_inverse=True)
    starts = np.concatenate(([0], np.cumsum(np.bincount(code))[:-1]))
    pos = np.arange(rows.size) - starts[code]
    firsts = np.cumsum(pos) - pos
    a_idx = np.repeat(starts[code], pos) + (
        np.arange(int(pos.sum())) - np.repeat(firsts, pos)
    )
    b_idx = np.repeat(np.arange(rows.size), pos)
    return rows[a_idx], rows[b_idx], int((sizes > cap).sum())


def _collect_pairs(
    pairs: rd.Dataset, what: str, bucket_cap: int, dtypes: dict[str, str]
) -> pd.DataFrame:
    """The one driver-side pair collector of the bucketed near-dup plans
    (q_simhash_neardup, q_minhash_neardup): sum the over-cap sentinel
    rows (``doc_a = -1``, ``doc_b`` = buckets over ``bucket_cap``), log
    the count, drop those rows, dedupe the pairs a doc pair surfaces
    from in several buckets, and type an empty result as ``dtypes``
    (Ray's to_pandas drops zero-row blocks and their columns)."""
    import logging

    out = pairs.to_pandas()
    if len(out):
        n_over = int(out.loc[out["doc_a"] < 0, "doc_b"].sum())
        if n_over:
            logging.getLogger(__name__).warning(
                what + " exceeded cap=%d docs and were not paired "
                "(near-dup recall may be reduced for those buckets)",
                n_over, bucket_cap,
            )
        out = out[out["doc_a"] >= 0].drop_duplicates(["doc_a", "doc_b"])
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in dtypes.items()})
    return out.reset_index(drop=True)


_SIMHASH_MAX_HAMMING = 3  # the 4-chunk pigeonhole's recall bound
_SIMHASH_BUCKET_CAP = 200


def q_simhash_neardup(sf_dir: str):
    """SimHash near-dup pairs: Hamming(sig_a, sig_b) <= 3 over 64-bit
    word-unigram SimHash (rows-only; the SQL-expressible dedup surfaces
    are minhash_neardup / ngram_jaccard).

    Scale-safe plan, and SIMPLER than the minhash one because the
    signature (8 bytes) travels with every bucket row, so verification
    needs no second pass over the corpus: vectorized signatures per
    batch -> explode 4 chunk keys per doc (pigeonhole: any pair within
    Hamming <= 3 of a 4-chunk split shares at least one exact 16-bit
    chunk, so recall is 1.0 by construction, not probabilistically) ->
    groupby(bucket hash-partition) -> segment-local candidate pair
    expansion carrying both sigs -> inline vectorized Hamming verify ->
    output-scale pair set, deduped across chunks driver-side (the same
    legal small-result pinch as minhash_neardup). The corpus text never
    moves past the sign stage; buckets over 200 docs are counted and
    logged, not silently dropped. doc_ids are assumed non-negative
    (``doc_a = -1`` marks the over-cap bucket count row)."""
    from eristropy_ray.datapipe.dedup import hamming64_batch, simhash64_arrow

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def sign(b: pa.Table) -> pa.Table:
        sig = simhash64_arrow(b["text"])
        ids = b["doc_id"].to_numpy()
        n = ids.size
        chunk_id = np.tile(np.arange(4, dtype=np.uint64), n)
        rep_sig = np.repeat(sig, 4)
        chunk_val = (rep_sig >> (chunk_id * np.uint64(16))) & np.uint64(0xFFFF)
        # one flat int key per (chunk, value) bucket
        bucket = (chunk_id.astype(np.int64) << 16) | chunk_val.astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "doc_id": pa.array(np.repeat(ids, 4), pa.int64()),
                "sig": pa.array(rep_sig.view(np.int64), pa.int64()),
            }
        )

    banded = docs.map_batches(sign, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # the minhash pair expansion with the sigs carried along; Hamming
        # verify inline, fully vectorized
        ids = df["doc_id"].to_numpy()
        sigs = df["sig"].to_numpy().view(np.uint64)
        codes = df.groupby("bucket", sort=False).ngroup().to_numpy()
        a, b, n_over = _bucket_pairs(codes, ids, _SIMHASH_BUCKET_CAP)
        ham = hamming64_batch(sigs[a], sigs[b])
        ok = ham <= _SIMHASH_MAX_HAMMING
        out = (
            pd.DataFrame({"doc_a": ids[a][ok], "doc_b": ids[b][ok], "hamming": ham[ok]})
            .drop_duplicates(["doc_a", "doc_b"])
            .astype({"doc_a": "int64", "doc_b": "int64", "hamming": "int64"})
        )
        if n_over:  # sentinel row; filtered + logged driver-side
            out = pd.concat(
                [out, pd.DataFrame({"doc_a": [-1], "doc_b": [n_over], "hamming": [-1]})],
                ignore_index=True,
            ).astype({"doc_a": "int64", "doc_b": "int64", "hamming": "int64"})
        return out

    # a pair within Hamming<=3 can share up to 4 chunks -> dedupe across
    # partitions on the (small) verified output
    pairs = _collect_pairs(
        exchange(banded, "bucket", bucket_pairs),
        "simhash_neardup: %d chunk buckets",
        _SIMHASH_BUCKET_CAP,
        {"doc_a": "int64", "doc_b": "int64", "hamming": "int64"},
    )
    return pairs.sort_values(["doc_a", "doc_b"], kind="stable").reset_index(drop=True)


_CHUNK_TOKENS, _CHUNK_STRIDE = 128, 96  # doc_chunks windows


def q_doc_chunks(sf_dir: str):
    """Token-window document chunking (rows-only): explode each document
    into fixed-token-count overlapping windows — the pre-tokenization
    split a training pipeline runs before sequence packing. One output
    row per (doc, chunk); a pure streaming flat-map (no shuffle, no
    state), so at 100 TB it rides the same wave-parallel scan as every
    other text op. Windows are deterministic (chunk i = tokens
    [96*i, 96*i + 128)), overlapping by 32 tokens, and the union of
    windows covers every token exactly (pinned by property tests in
    tests/test_datapipe.py). The explode is fully
    batch-vectorized off the Arrow flat buffer (one whitespace-mask pass
    per batch, ranges-to-indices gather for the chunk text — no per-row
    Python loop; element-identical to the scalar kernel)."""
    from eristropy_ray.datapipe.textstats import chunk_token_windows_arrow

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def explode(b: pa.Table) -> pa.Table:
        doc_idx, chunk_id, first, ntok, text_arr = chunk_token_windows_arrow(
            b.column("text"), _CHUNK_TOKENS, _CHUNK_STRIDE
        )
        ids = b.column("doc_id").to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(ids[doc_idx], pa.int64()),
                "chunk_id": pa.array(chunk_id, pa.int64()),
                "first_token": pa.array(first, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "chunk_text": text_arr,
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


_SEQ_CAPACITY = 256  # seq_pack tokens per sequence


def q_seq_pack(sf_dir: str):
    """Sequence packing (rows-only): assign every document to a
    256-token training sequence — the step after chunking
    that fills model context windows before tokenization.

    Plan: one Arrow map_batches computes per-doc token counts (same
    C-speed regex count as ``token_counts``); one ``exchange`` on doc_id
    colocates each partition; inside a partition docs are walked in
    doc_id order and packed greedily
    (``greedy_pack_tokens`` — the scan loop runs per OUTPUT sequence,
    not per doc). Sequences never span partitions, so the shuffle is the
    only exchange and partitions pack independently — at 100 TB each
    partition's loop count is its token budget / 256. A doc longer
    than 256 tokens gets its own overflowing sequence (callers chunk
    first via ``doc_chunks`` if they need hard caps). Output one row per
    doc: (part, seq_id, seq_offset, doc_id, n_tokens), where ``part`` is
    ``partition_of(doc_id)``; (part, seq_id) is the globally unique
    sequence key. Deterministic."""
    from eristropy_ray.datapipe.textstats import greedy_pack_tokens

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(b["doc_id"], pa.int64()),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(b["text"], pattern=_WS_TOKEN_PAT),
                    pa.int64(),
                ),
            }
        )

    def pack_partition(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        ntok = t["n_tokens"].to_numpy()
        order = np.argsort(ids, kind="stable")
        ids, ntok = ids[order], ntok[order]
        seq, off = greedy_pack_tokens(ntok, _SEQ_CAPACITY)
        return pa.table(
            {
                "part": partition_of(pa.array(ids)),
                "seq_id": seq,
                "seq_offset": off,
                "doc_id": ids,
                "n_tokens": ntok,
            }
        )

    return exchange(
        ds.map_batches(tag, batch_format="pyarrow"), "doc_id", pack_partition,
        "pyarrow",
    )


#: default per-language sampling rates for q_weighted_mix — module-level
#: so the SQL twin (_weighted_mix_sql) is generated from the SAME dict.
WEIGHTED_MIX_RATES = {"en": 0.6, "unknown": 0.3}
WEIGHTED_MIX_DEFAULT_RATE = 0.5
WEIGHTED_MIX_M = 1000


def q_weighted_mix(sf_dir: str):
    """Weighted corpus mixing (rows-only registry; exact DuckDB pin in
    pytest via a twin generated from the same rate dict): rebalance a
    multi-source corpus by sampling each predicted language at its own
    rate — the source-mixing step before training. Deterministic
    systematic sample (the ``sample_events`` idiom): doc kept iff
    ``doc_id % M < round(rate(lang) * M)``, so re-weighting is a pure
    filter change — no shuffle, no state, reproducible across runs and
    cluster sizes. Output (doc_id, lang_pred)."""
    from eristropy_ray.datapipe.textstats import langid_predict_arrow

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    m = WEIGHTED_MIX_M
    thresholds = {
        lang: int(round(r * m)) for lang, r in WEIGHTED_MIX_RATES.items()
    }
    default_thr = int(round(WEIGHTED_MIX_DEFAULT_RATE * m))

    def fn(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lang = langid_predict_arrow(b["text"])
        thr = np.array(
            [thresholds.get(x, default_thr) for x in lang], dtype=np.int64
        )
        keep = (ids % m) < thr
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "lang_pred": pa.array(lang[keep].astype(str), pa.string()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _weighted_mix_sql() -> str:
    """SQL twin of q_weighted_mix (pytest pin, not a driver oracle —
    the 50-slot prefix is full). Generated from WEIGHTED_MIX_RATES so
    the rates cannot drift between engines."""
    m = WEIGHTED_MIX_M
    cases = " ".join(
        f"WHEN lang_pred = '{lang}' THEN {int(round(r * m))}"
        for lang, r in sorted(WEIGHTED_MIX_RATES.items())
    )
    thr = f"CASE {cases} ELSE {int(round(WEIGHTED_MIX_DEFAULT_RATE * m))} END"
    return f"""
WITH lang AS ({_langid_sql()})
SELECT doc_id, lang_pred FROM lang
WHERE doc_id % {m} < {thr}
"""


_MINHASH_TAU = 0.5  # minhash_neardup's Jaccard cut; SQL twin generated
_MINHASH_BUCKET_CAP = 50


def q_minhash_neardup(sf_dir: str):
    """MinHash-LSH near-dup candidate pairs, Jaccard-verified (>= 0.5).

    Scale-safe plan: vectorized signatures per batch -> explode
    (band_id, band_hash, doc_id) -> groupby(bucket) -> candidate PAIRS
    only (ids, no text) -> distributed pair dedupe -> broadcast the
    candidate id->pair map (output-scale, the legal driver pinch) ->
    one streaming filter tags candidate texts with their pair ids ->
    one groupby(pair-hash) regroups them -> exact-Jaccard verify per
    pair. The corpus text is never broadcast or collected on the driver
    and never joins: only candidate texts move through the one regroup
    shuffle. Buckets larger than 50 docs are counted and
    logged, not silently dropped.

    Oracle-exact: on the test corpus LSH recall is 1.0 (every exact
    word-shingle-Jaccard>=0.5 pair shares at least one band — asserted in
    tests/test_datapipe.py), so the verified output IS the exact pair set
    and matches the all-pairs SQL twin (``_minhash_sql``) bit-for-bit:
    the emitted jaccard is an unrounded int/int double division on both
    sides.
    """
    from eristropy_ray.datapipe.dedup import (
        jaccard_from_hashes,
        lsh_band_keys,
        minhash_signature_arrow,
        word_shingle_hashes,
    )

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def sign(b: pa.Table) -> pa.Table:
        # Arrow-native hot stage: signatures come straight off the string
        # column's flat buffer (segment-vectorized, no per-text Python)
        sigs = minhash_signature_arrow(b["text"], num_perm=64)
        band_id, band_hash = lsh_band_keys(sigs, n_bands=16)
        n_bands = 16
        bh = band_hash.view(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.repeat(b["doc_id"].to_numpy(), n_bands), pa.int64()
                ),
                "band_id": pa.array(band_id.astype(np.int64), pa.int64()),
                "band_hash": pa.array(bh, pa.int64()),
            }
        )

    banded = docs.map_batches(sign, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["band_id", "band_hash", "doc_id"])
        ids = df["doc_id"].to_numpy()
        codes = df.groupby(["band_id", "band_hash"], sort=False).ngroup().to_numpy()
        a, b, n_over = _bucket_pairs(codes, ids, _MINHASH_BUCKET_CAP)
        out = (
            pd.DataFrame({"doc_a": ids[a], "doc_b": ids[b]})
            .drop_duplicates()
            .astype({"doc_a": "int64", "doc_b": "int64"})
        )
        if n_over:  # sentinel row; filtered + logged driver-side
            out = pd.concat(
                [out, pd.DataFrame({"doc_a": [-1], "doc_b": [n_over]})],
                ignore_index=True,
            ).astype({"doc_a": "int64", "doc_b": "int64"})
        return out

    # candidate pairs are tiny relative to the corpus — collecting them
    # (NOT the corpus) is the legal small-result pinch point; dedupe of
    # pairs surfacing from several bands happens here too. Exchanging on
    # band_hash makes pair generation one UDF call per partition, not
    # one per LSH bucket.
    pairs_pd = _collect_pairs(
        exchange(banded, "band_hash", bucket_pairs),
        "minhash_neardup: %d LSH buckets",
        _MINHASH_BUCKET_CAP,
        {"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"},
    )
    if pairs_pd.empty:
        return pairs_pd
    # Candidate texts reach their pairs WITHOUT a join barrier: the
    # candidate id -> (pair, side) map is output-scale (the same data as
    # pairs_pd, which already legally sits on the driver), so it is
    # broadcast once via ray.put; one streaming map over the corpus
    # filters to candidate docs and tags each with its pair ids, then a
    # single groupby(pair-hash) regroups that candidate-text set for
    # verification. The corpus itself streams through the filter — only
    # candidate texts shuffle, and the ~1.3 s local-mode join barrier of
    # the previous plan is gone.
    import ray as _ray_mod

    a_ids = pairs_pd["doc_a"].to_numpy()
    b_ids = pairs_pd["doc_b"].to_numpy()
    # candidate id -> (pair, side) map as SORTED flat numpy arrays (CSR
    # layout): zero-copy through the object store, and the tag stage
    # below is fully vectorized (searchsorted + repeat), no per-doc
    # Python. Two refs so each stage ships only what it reads.
    n_pairs = a_ids.size
    occ_doc = np.concatenate([a_ids, b_ids])
    occ_pid = np.tile(np.arange(n_pairs, dtype=np.int64), 2)
    occ_side = np.repeat(np.array([0, 1], dtype=np.int64), n_pairs)
    order = np.argsort(occ_doc, kind="stable")
    occ_doc, occ_pid, occ_side = occ_doc[order], occ_pid[order], occ_side[order]
    cand_ids, starts = np.unique(occ_doc, return_index=True)
    offsets = np.append(starts, occ_doc.size).astype(np.int64)
    tag_ref = _ray_mod.put((cand_ids, offsets, occ_pid, occ_side))
    pairs_ref = _ray_mod.put((a_ids, b_ids))

    def tag_candidates(batch: pa.Table) -> pa.Table:
        # Arrow in AND out: the corpus text column never converts to
        # pandas object dtype (the scan's dominant cost), and zero-row
        # no-candidate batches have exact Arrow size accounting (the
        # pandas estimator cannot size an empty object column).
        cids, offs, o_pid, o_side = _ray_mod.get(tag_ref)
        ids = batch.column("doc_id").to_numpy()
        if cids.size == 0 or ids.size == 0:
            rows = np.empty(0, dtype=np.int64)
        else:
            pos = np.searchsorted(cids, ids)
            hit = (pos < cids.size) & (cids[np.minimum(pos, cids.size - 1)] == ids)
            rows = np.flatnonzero(hit)
        if rows.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return pa.table(
                {
                    "pid": pa.array(empty, pa.int64()),
                    "side": pa.array(empty, pa.int64()),
                    "text": pa.array([], pa.string()),
                }
            )
        idx = np.searchsorted(cids, ids[rows])
        counts = offs[idx + 1] - offs[idx]
        # flat occurrence indices for each candidate row's slice
        flat = (
            np.repeat(offs[idx], counts)
            + np.arange(int(counts.sum()), dtype=np.int64)
            - np.repeat(np.cumsum(counts) - counts, counts)
        )
        # one Arrow take with repeated row indices == np.repeat(texts)
        text = batch.column("text").take(pa.array(np.repeat(rows, counts)))
        return pa.table(
            {
                "pid": pa.array(o_pid[flat], pa.int64()),
                "side": pa.array(o_side[flat], pa.int64()),
                "text": text,
            }
        )

    tagged = docs.map_batches(tag_candidates, batch_format="pyarrow")

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        p_a, p_b = _ray_mod.get(pairs_ref)
        a_rows = df[df["side"] == 0][["pid", "text"]].rename(
            columns={"text": "text_a"}
        )
        b_rows = df[df["side"] == 1][["pid", "text"]].rename(
            columns={"text": "text_b"}
        )
        both = a_rows.merge(b_rows, on="pid")  # inner: need both sides
        both["doc_a"] = p_a[both["pid"].to_numpy()]
        both["doc_b"] = p_b[both["pid"].to_numpy()]
        # shingle each distinct text once (docs recur across pairs)
        cache: dict[str, np.ndarray] = {}

        def shingles(t: str) -> np.ndarray:
            s = cache.get(t)
            if s is None:
                s = cache[t] = word_shingle_hashes(t, 3)
            return s

        keep = {"doc_a": [], "doc_b": [], "jaccard": []}
        for a, b, ta, tb in zip(
            both["doc_a"], both["doc_b"], both["text_a"], both["text_b"]
        ):
            j = jaccard_from_hashes(shingles(ta), shingles(tb))
            if j >= _MINHASH_TAU:
                keep["doc_a"].append(int(a))
                keep["doc_b"].append(int(b))
                # unrounded: inter/union int->double division is
                # bit-identical to the SQL twin's CAST(...)/uni
                keep["jaccard"].append(j)
        return pd.DataFrame(keep).astype(
            {"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"}
        )

    verify.__name__ = "verify_pairs"
    out = exchange(tagged, "pid", verify).to_pandas()
    return out.sort_values(["doc_a", "doc_b"], kind="stable").reset_index(drop=True)


def _embedding_dim(path: str) -> int:
    """Embedding dimensionality via a single-row driver-side read.

    The stored column type is variable ``list<float>``, so an empty
    Arrow batch cannot self-describe its dimensionality; resolving d
    once at plan-build time lets batch UDFs emit correctly-typed empty
    ``fixed_size_list`` columns for zero-row inputs (Ray's shuffle
    concat requires every block's schema to agree). A zero-row table
    has no row to measure: d is 0, so the plan emits typed empty
    results."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    if pf.metadata.num_rows == 0:
        return 0
    batch = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
    return len(batch.column(0)[0])


def _fsl2d(col: "pa.ChunkedArray") -> np.ndarray:
    """Zero-copy a FixedSizeList column to a 2-D numpy array
    (rows x list_size), respecting any slice offsets (``flatten()``,
    not ``.values``)."""
    arr = col.combine_chunks()
    d = arr.type.list_size
    return arr.flatten().to_numpy(zero_copy_only=False).reshape(-1, d)


def _merge_topk(tbl: pa.Table, k: int) -> pa.Table:
    """Merge per-group kNN partials into the global top-k per query:
    sort by (qid, rounded-sim DESC, nid ASC) — the shared reproducible
    order — drop the self-match, keep the first k of each qid run.
    The merge of q_knn_all and q_ann_ivf (``_topk_partial`` emits
    disjoint (qid, nid) rows with already-rounded sims)."""
    qid = tbl.column("qid").to_numpy()
    nid = tbl.column("nid").to_numpy()
    sim = tbl.column("sim").to_numpy()
    order = np.lexsort((nid, -sim, qid))
    qid, nid, sim = qid[order], nid[order], sim[order]
    keep = nid != qid  # drop self-match
    qid, nid, sim = qid[keep], nid[keep], sim[keep]
    top = segment_rank(qid) < k  # rank within each (qid-sorted) query run
    return pa.table(
        {
            "vec_id": pa.array(qid[top].astype(np.int64)),
            "neighbor_id": pa.array(nid[top].astype(np.int64)),
            "sim": pa.array(np.round(sim[top], 4).astype(np.float64)),
        }
    )


def _embedding_plan(sf_dir: str, assign, key: str, partial, merge) -> rd.Dataset:
    """The one route–scan–merge plan of the embedding entries
    (q_knn_all, q_ann_ivf, q_embedding_neardup_ivf).

      1. route: one ``map_batches`` unit-normalizes each batch and asks
         ``assign(ids, u)`` for ``(own, reach, probe)``: each vector's
         member group, an (n, g) array of the groups its query must
         meet, and either None or its IVF ``(cell, probe cells)``. A
         vector emits one member row (role 0) in ``own`` that DOUBLES as
         its query there, plus one query copy (role 1) per other distinct
         group in ``reach``; with ``probe``, members carry their cell and
         every row its probe-cell list. d is resolved once at plan build
         (``_embedding_dim``), so a zero-row batch takes the same path to
         a typed empty table (Ray's shuffle concat needs every block's
         schema to agree);
      2. ``groupby(group).map_groups(partial)`` scans each group
         (``_scan_group``);
      3. an exchange on ``key`` merges the partials (``merge``).
    ``assign`` None (an empty table: nothing to train IVF cells on)
    gives the typed empty result without running a plan."""
    from eristropy_ray.datapipe.similarity import unit_rows

    if assign is None:
        no_rows = pa.table({c: pa.array([], pa.int64()) for c in ("rid", "role")})
        return rd.from_arrow(merge(partial(no_rows)))
    path = f"{sf_dir}/embeddings.parquet"
    d = _embedding_dim(path)

    def fsl(v: np.ndarray, typ: pa.DataType) -> pa.FixedSizeListArray:
        flat = pa.array(v.reshape(-1), typ)
        return pa.FixedSizeListArray.from_arrays(flat, v.shape[1])

    def route(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy().astype(np.int64)
        # flatten(), not .values: offset-safe on sliced chunks (_fsl2d)
        flat = np.asarray(b["embedding"].combine_chunks().flatten(), dtype=np.float64)
        u = unit_rows(flat.reshape(ids.size, d))
        own, reach, probe = assign(ids, u)
        reach = np.sort(reach, axis=1)
        other = np.ones_like(reach, dtype=bool)
        other[:, 1:] = reach[:, 1:] != reach[:, :-1]
        other &= reach != own[:, None]  # own group: the member row covers it
        qi, qj = np.nonzero(other)
        out = {
            "group": pa.array(np.concatenate([own, reach[qi, qj]]), pa.int64()),
            "role": pa.array(np.repeat([0, 1], [ids.size, qi.size]), pa.int64()),
            "rid": pa.array(np.concatenate([ids, ids[qi]]), pa.int64()),
            "vec": fsl(np.concatenate([u, u[qi]]), pa.float64()),
        }
        if probe is not None:
            cell, probes = probe
            out["cell"] = pa.array(
                np.concatenate([cell, np.full(qi.size, -1)]), pa.int64()
            )
            out["probes"] = fsl(np.concatenate([probes, probes[qi]]), pa.int64())
        return pa.table(out)

    routed = _read(path, columns=["vec_id", "embedding"]).map_batches(
        route, batch_format="pyarrow"
    )
    partials = routed.groupby("group").map_groups(partial, batch_format="pyarrow")
    return exchange(partials, key, merge, "pyarrow")


def _scan_group(tbl: pa.Table):
    """The one chunked query x member scan of a routed group. Members
    (role 0) are id-sorted, so column index order == id order; every row
    (member or query copy) queries them, 1024 at a time so the (chunk x
    members) matrices stay bounded whatever the group size. Yields
    (query ids, member ids, dot products, allowed): ``allowed`` masks the
    members outside each query's probe cells when the rows carry probe
    lists (IVF semantics, exactly), and is True otherwise."""
    rid = tbl.column("rid").to_numpy()
    mmask = tbl.column("role").to_numpy() == 0
    if not mmask.any():
        return
    vecs = _fsl2d(tbl.column("vec"))
    order = np.argsort(rid[mmask], kind="stable")
    m, mids = vecs[mmask][order], rid[mmask][order]
    probes = None
    if "probes" in tbl.column_names:
        probes = _fsl2d(tbl.column("probes"))
        mcells = tbl.column("cell").to_numpy()[mmask][order]
    for s in range(0, len(tbl), 1024):
        allowed = True
        if probes is not None:
            allowed = (probes[s : s + 1024, :, None] == mcells).any(axis=1)
        yield rid[s : s + 1024], mids, vecs[s : s + 1024] @ m.T, allowed


def _topk_partial(tbl: pa.Table) -> pa.Table:
    """The one per-group top-(k+1) partial of q_knn_all and q_ann_ivf
    (k = ``_KNN_K``). Selection is on ROUNDED similarity (4 dp) with id
    tie-break, as an integer key over the id-sorted members — the
    (rounded sim DESC, id ASC) total order the merge and the SQL oracle
    rank by. A global top-k neighbour of q is beaten by < k non-self rows
    globally, hence by <= k rows (self included) in its group, so the
    group's top-(k+1) provably contains it."""
    masked = np.int64(-(1 << 62))
    qid, nid, sim = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for qids, mids, dots, allowed in _scan_group(tbl):
        sims = np.round(dots, 4)
        n_m = mids.size
        key = np.rint(sims * 1e4).astype(np.int64) * n_m - np.arange(n_m)
        key = np.where(allowed, key, masked)
        kk = min(_KNN_K + 1, n_m)
        part = np.argpartition(-key, kk - 1, axis=1)[:, :kk]
        rows = np.arange(qids.size)[:, None]
        valid = key[rows, part] != masked
        qid.append(np.repeat(qids, kk)[valid.ravel()])
        nid.append(mids[part][valid])
        sim.append(sims[rows, part][valid])
    return pa.table(
        {
            "qid": pa.array(np.concatenate(qid), pa.int64()),
            "nid": pa.array(np.concatenate(nid), pa.int64()),
            "sim": pa.array(np.concatenate(sim), pa.float64()),
        }
    )


def _merge_knn(tbl: pa.Table) -> pa.Table:
    return _merge_topk(tbl, _KNN_K)


#: q_knn_all's fixed member shards: vector ``vec_id % _KNN_SHARDS`` is a
#: member of one shard, and its query meets every shard.
_KNN_SHARDS = 8
#: neighbours per vector of knn_all and ann_ivf (one twin, generated)
_KNN_K = 5


def _knn_assign(ids: np.ndarray, u: np.ndarray):
    shards = np.arange(_KNN_SHARDS, dtype=np.int64)
    return ids % _KNN_SHARDS, np.broadcast_to(shards, (ids.size, _KNN_SHARDS)), None


def q_knn_all(sf_dir: str):
    """Exact top-5 cosine neighbors for EVERY vector — corpus-sharded
    partial top-k + merge on the shared ``_embedding_plan`` (no
    whole-corpus driver read or ``ray.put`` broadcast; selection stays on
    ROUNDED similarity (4 dp) with id tie-break so the SQL oracle is
    exactly reproducible).

    The assignment is fixed, not trained: member shard ``vec_id % 8``,
    every shard probed. Exactness requires every query to meet every
    shard, so the shuffle carries 8x the embedding table (the exact-kNN
    tax; the IVF path is the sub-linear alternative). Each shard's
    ``_topk_partial`` is a dense matmul; ``_merge_topk`` drops the
    self-match."""
    return _embedding_plan(sf_dir, _knn_assign, "qid", _topk_partial, _merge_knn)


#: The IVF layout of ann_ivf and embedding_neardup_ivf: cells trained on
#: at most ``_IVF_SAMPLE_CAP`` vectors, clustered into ``_IVF_N_SUPER``
#: proximity supercells.
_IVF_N_CELLS = 16
_IVF_N_SUPER = _IVF_N_CELLS // 4
_IVF_SAMPLE_CAP = 4096


def _ivf_assign(sf_dir: str, n_probe: int):
    """The trained IVF assignment rule of ``_embedding_plan`` (used by
    ``q_ann_ivf`` at every cell and ``q_embedding_neardup_ivf`` at 8):
    train centroids on a bounded deterministic sample, cluster them into
    proximity supercells, broadcast both once. A vector's member group is
    its nearest cell's supercell; its query reaches the supercells of its
    ``n_probe`` nearest cells (the top probe cell is the member cell, so
    copies ship only to the OTHER distinct ones), carrying (member cell,
    probe cells). n_probe is clamped to the trained centroid count so
    tiny corpora cannot produce ragged probe lists. None for an empty
    embedding table: there is no sample to train on."""
    import ray

    from eristropy_ray.datapipe.similarity import (
        _kmeans,
        supercell_assign,
        unit_rows,
    )

    emb = _read(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    # footer-metadata row count — sizing the sample stride must not cost
    # a full scan of the embedding table
    n_total = _parquet_rows(f"{sf_dir}/embeddings.parquet")
    if not n_total:
        return None
    # power-of-2 stride so the mask is a cheap bit_wise_and
    stride = 1
    while n_total // stride > _IVF_SAMPLE_CAP:
        stride *= 2

    def sample_mask(b: pa.Table) -> pa.Table:
        keep = pc.equal(
            pc.bit_wise_and(b["vec_id"], np.int64(stride - 1)), np.int64(0)
        )
        return b.filter(keep)

    sample_tbl = pa.Table.from_pandas(
        emb.map_batches(sample_mask, batch_format="pyarrow")
        .limit(_IVF_SAMPLE_CAP)
        .to_pandas()
    )
    s_ids = sample_tbl["vec_id"].to_numpy()
    order = np.argsort(s_ids)  # order-independent training input
    s_flat = np.asarray(
        sample_tbl["embedding"].combine_chunks().flatten(), dtype=np.float64
    )
    s_vecs = s_flat.reshape(len(s_ids), s_flat.size // len(s_ids))[order]
    centroids = _kmeans(unit_rows(s_vecs), _IVF_N_CELLS, seed=7)
    n_probe = min(n_probe, centroids.shape[0])
    cref = ray.put((centroids, supercell_assign(centroids, _IVF_N_SUPER)))

    def assign(ids: np.ndarray, u: np.ndarray):
        c, csuper = ray.get(cref)
        scores = u @ c.T
        cell = scores.argmax(axis=1).astype(np.int64)
        probes = np.argsort(-scores, axis=1)[:, :n_probe].astype(np.int64)
        return csuper[cell], csuper[probes], (cell, probes)

    return assign


def q_ann_ivf(sf_dir: str):
    """IVF nearest neighbors (top 5) — distributed build AND probe,
    probing every cell, where IVF is exactly brute force, so the ENTIRE
    distributed machinery is oracle-checkable against ``knn_all``'s SQL
    twin (selection on rounded similarity with id tie-break is the
    shared reproducible order).

    Scale shape (no full-corpus driver read anywhere):
      1. centroids are k-means-trained on a bounded deterministic sample
         (vec_id stride mask, capped at 4096 rows — the only driver
         materialization besides the final result) and broadcast once
         via ``ray.put``; the 16 cells are then clustered into 4
         proximity supercells (``_ivf_assign``);
      2. the shared ``_embedding_plan`` routes every vector to its
         nearest cell's supercell (role=member, shipped ONCE; the member
         row doubles as the query in its own supercell) and ships query
         copies only to the OTHER distinct supercells among its probe
         cells, each carrying its probe-cell list. The shuffle therefore
         carries 1 + E[distinct other probe supercells] times the
         embedding table, vs a flat (1 + n_probe) for naive per-cell
         routing (at n_probe = 4: ~2.7x on adversarial uniform-random
         vectors, asserted < n_probe in tests/test_datapipe.py);
      3. per-supercell top-(k+1) partials (``_topk_partial``, shared
         with q_knn_all) mask members whose cell is not in the query's
         probe list (IVF semantics preserved exactly — parity-tested);
      4. an exchange on qid merges partials into the global top-k.
    At cluster scale the supercell count rises with the node count so
    one supercell's members fit a worker's heap; probe locality persists
    because supercells group neighboring centroids. Partial probing
    (``_ivf_assign`` with n_probe < 16) keeps its own pins in
    tests/test_datapipe.py: parity with the single-process ``IVFIndex``
    and the routing replication factor.
    """
    assign = _ivf_assign(sf_dir, _IVF_N_CELLS)
    return _embedding_plan(sf_dir, assign, "qid", _topk_partial, _merge_knn)


def _uniq_pairs(a: np.ndarray, b: np.ndarray) -> pa.Table:
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = segment_starts(a, b)
    return pa.table(
        {
            "vec_a": pa.array(a[first], pa.int64()),
            "vec_b": pa.array(b[first], pa.int64()),
        }
    )


#: cosine cut of embedding_neardup and its IVF scale path (one twin,
#: generated), and the scale path's probe count
_NEARDUP_TAU = 0.45
_NEARDUP_IVF_N_PROBE = 8


def q_embedding_neardup_ivf(sf_dir: str):
    """Embedding-cosine near-dup pairs via IVF cell bucketing — the SCALE
    path of ``q_embedding_neardup`` (its all-pairs exactness twin): a
    pair is a candidate iff one side's member cell is among the other
    side's 8 probe cells, so per-group work is ~n²/16 instead of n² and
    nothing is broadcast. Same ``_embedding_plan`` and IVF routing as
    ``q_ann_ivf``; the per-supercell partial keeps the scanned pairs at
    cosine >= 0.45 and the exchange on vec_a dedupes pairs found from
    both sides' probes or several supercells. Emits (vec_a, vec_b) id
    pairs; recall vs the exact pair set is asserted in
    tests/test_datapipe.py (rows-only: candidate coverage is
    data-dependent, the exactness baseline is the oracle's job). A
    near-dup pair at a LOW tau can sit far from both its cell centroids,
    so near-dup bucketing probes wider than top-k search — 8/16 cells
    recovers the full exact pair set on the 500-vector test corpora (not
    on sf0.1's 2,000: 4 of 144 pairs are missed) while still halving the
    work."""

    def super_pairs(tbl: pa.Table) -> pa.Table:
        a, b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for qids, mids, dots, allowed in _scan_group(tbl):
            hit = (dots >= _NEARDUP_TAU) & allowed & (qids[:, None] != mids)
            qi, mi = np.nonzero(hit)
            a.append(np.minimum(qids[qi], mids[mi]))
            b.append(np.maximum(qids[qi], mids[mi]))
        return _uniq_pairs(np.concatenate(a), np.concatenate(b))

    def dedupe(tbl: pa.Table) -> pa.Table:
        return _uniq_pairs(
            tbl.column("vec_a").to_numpy(), tbl.column("vec_b").to_numpy()
        )

    assign = _ivf_assign(sf_dir, _NEARDUP_IVF_N_PROBE)
    return _embedding_plan(sf_dir, assign, "vec_a", super_pairs, dedupe)


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs at cosine >= 0.45 (exact
    all-pairs baseline vs a broadcast unit matrix — the labeled
    small-corpus baseline; the scale path buckets by IVF cell first).
    Emits pair ids only: the cosine itself differs from DuckDB's
    sequential accumulation in the last ulp, while threshold membership
    is stable (the nearest pair sits ~5e-4 from 0.45 on this corpus)."""
    import pyarrow.parquet as pq
    import ray

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = tbl["vec_id"].to_numpy()
    flat = np.asarray(tbl["embedding"].combine_chunks().flatten(), dtype=np.float64)
    emb = flat.reshape(len(ids), flat.size // len(ids)) if len(ids) else flat.reshape(0, 0)
    unit = emb / np.maximum(np.sqrt((emb * emb).sum(axis=1, keepdims=True)), 1e-30)
    ref = ray.put((ids, unit))

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def pairs(b: pa.Table) -> pa.Table:
        import ray as _ray

        c_ids, c_unit = _ray.get(ref)
        q_ids = b["vec_id"].to_numpy()
        lst = b["embedding"].combine_chunks()
        qf = np.asarray(lst.flatten(), dtype=np.float64)
        nq = len(b)
        q = qf.reshape(nq, qf.size // nq) if nq else qf.reshape(0, 0)
        qu = q / np.maximum(np.sqrt((q * q).sum(axis=1, keepdims=True)), 1e-30)
        sims = qu @ c_unit.T
        qi, ci = np.nonzero(
            (sims >= _NEARDUP_TAU) & (c_ids[None, :] > q_ids[:, None])
        )
        rows_a, rows_b = q_ids[qi].astype(np.int64), c_ids[ci].astype(np.int64)
        return pa.table(
            {
                "vec_a": pa.array(rows_a, pa.int64()),
                "vec_b": pa.array(rows_b, pa.int64()),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow")


_NGRAM_TAU, _NGRAM_K = 0.5, 3  # ngram_jaccard; SQL twin generated


def q_ngram_jaccard(sf_dir: str):
    """Exact all-pairs character-3-gram Jaccard near-dup (the exactness
    baseline; minhash_neardup is the scale path). Corpus gram incidence
    is packed into bitsets (one bit per vocab gram) and broadcast once —
    ~2 MB per 5k docs at a 30k-gram vocab — then each batch scores its
    rows against the whole corpus with an AND+popcount sweep. Jaccard is
    an int/int double ratio, so it is bit-identical to the SQL oracle."""
    import pyarrow.parquet as pq
    import ray

    from eristropy_ray.datapipe.textstats import rolling_kgram_hashes

    tbl = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = tbl["doc_id"].to_numpy().astype(np.int64)
    texts = tbl["text"].to_pylist()

    def grams(t: str) -> np.ndarray:
        if len(t) == 0:
            return np.array([np.uint64(0)], dtype=np.uint64)  # SQL: {''}
        if len(t) < _NGRAM_K:
            return np.unique(rolling_kgram_hashes(t, len(t)))
        return np.unique(rolling_kgram_hashes(t, _NGRAM_K))

    gram_sets = [grams(t) for t in texts]
    vocab = np.unique(np.concatenate([np.empty(0, np.uint64), *gram_sets]))
    nbytes = (vocab.size + 7) // 8
    bits = np.zeros((ids.size, nbytes), dtype=np.uint8)
    for i, g in enumerate(gram_sets):
        pos = np.searchsorted(vocab, g)
        np.bitwise_or.at(bits[i], pos >> 3, (1 << (pos & 7)).astype(np.uint8))
    sizes = np.array([g.size for g in gram_sets], dtype=np.int64)
    order = np.argsort(ids)
    ref = ray.put((ids[order], bits[order], sizes[order]))
    pop = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint16)

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def pairs(b: pa.Table) -> pa.Table:
        import ray as _ray

        c_ids, c_bits, c_sizes = _ray.get(ref)
        q_ids = b["doc_id"].to_numpy().astype(np.int64)
        rows = {"doc_a": [], "doc_b": [], "jaccard": []}
        for qid in q_ids:
            qi = int(np.searchsorted(c_ids, qid))
            # c_ids is sorted: only the > qid half can form an (a < b)
            # pair, so AND+popcount over just that slice (halves the
            # dominant cost of this baseline)
            tail_bits = c_bits[qi + 1 :]
            if not tail_bits.size:
                continue
            inter = pop[np.bitwise_and(c_bits[qi][None, :], tail_bits)].sum(
                axis=1, dtype=np.int64
            )
            union = c_sizes[qi] + c_sizes[qi + 1 :] - inter
            j = inter / np.maximum(union, 1)
            hit = np.flatnonzero(j >= _NGRAM_TAU)
            rows["doc_a"].extend([int(qid)] * hit.size)
            rows["doc_b"].extend(c_ids[qi + 1 :][hit].tolist())
            rows["jaccard"].extend(j[hit].tolist())
        return pa.table(
            {
                "doc_a": pa.array(rows["doc_a"], pa.int64()),
                "doc_b": pa.array(rows["doc_b"], pa.int64()),
                "jaccard": pa.array(rows["jaccard"], pa.float64()),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow")


_VOCAB_K = 50  # vocab_topk; SQL twin generated


def q_vocab_topk(sf_dir: str):
    """Corpus vocabulary: top-50 words by total frequency (count desc, word
    asc). The classic wordcount shape with the scalable pre-aggregation:
    per-batch word counts collapse each batch to its distinct words
    BEFORE the shuffle, so the exchange carries (word, partial-count)
    rows, not one row per token; each word's total is complete in one
    partition, so a ``top_k`` fold of them is exact. SQL twin via unnest."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(b: pa.Table) -> pa.Table:
        # Arrow-native wordcount partial: regex split + flatten + hash
        # value_counts, all C kernels — splitting on the whitespace class
        # yields exactly the _WS_TOKEN_PAT tokens plus empty edge strings
        # (filtered), so tokenization is unchanged vs str.findall
        toks = pc.list_flatten(
            pc.split_pattern_regex(b["text"], pattern="[ \\t\\n\\f\\r]+")
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        vc = pc.value_counts(toks)
        return pa.table(
            {
                "word": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    counts = keyed_combine(partials, ["word"], {"n": "sum"})
    order = [("n", "descending"), ("word", "ascending")]
    schema = pa.schema([("word", pa.string()), ("n", pa.int64())])
    return top_k(counts, order, _VOCAB_K, schema).to_pandas()


def _uid_key(t: pa.Table) -> np.ndarray:
    return t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)


_BLOOM_M_BITS = 1 << 17  # bloom_semijoin / anti_join filter size


def _purchaser_fold(ev: rd.Dataset, key_of=_uid_key):
    """ONE fold over the build side producing two mergeable summaries
    per batch: the OR-mergeable 16 KiB Bloom bits (fixed size) and the
    union-mergeable DISTINCT purchaser key set (key-dimension-sized — it
    grows with distinct keys, not with the event stream, and is the
    explicit scale bound of the exact-verify side), reduced by
    ``exchange.fold``: per-batch summary rows combine inside each task,
    then once on the driver (OR / set-union monoids make any fold tree
    equivalent; no purchase folds to empty bits and keys). Returns a
    shared object ref to ``(bloom_bits, sorted_exact_keys)`` — broadcast
    once via ``ray.put``, read by every probe task. ``key_of`` maps the
    purchase-filtered batch to its int64 join key (plain user id for the
    semi-join; a composite (user, day) key for the anti-join). Shared by
    the semi- and anti-join probes."""
    import ray

    from eristropy_ray.datapipe.sketch import bloom_build

    def build_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], "purchase"))
        uid = key_of(t)
        bits = bloom_build(uid, _BLOOM_M_BITS)
        return pa.table(
            {
                "bits": pa.array([bits.tobytes()], pa.binary()),
                "ids": pa.array([np.unique(uid).tobytes()], pa.binary()),
            }
        )

    def combine(parts: list[pa.Table]) -> pa.Table:
        acc = np.zeros(_BLOOM_M_BITS // 8, dtype=np.uint8)
        ids = [np.empty(0, np.int64)]
        for t in parts:
            for payload in t["bits"].to_pylist():
                np.bitwise_or(acc, np.frombuffer(payload, dtype=np.uint8), out=acc)
            ids += [np.frombuffer(p, dtype=np.int64) for p in t["ids"].to_pylist()]
        return pa.table(
            {
                "bits": pa.array([acc.tobytes()], pa.binary()),
                "ids": pa.array(
                    [np.unique(np.concatenate(ids)).tobytes()], pa.binary()
                ),
            }
        )

    folded = fold(ev, build_partial, combine)
    merged = np.frombuffer(folded["bits"][0].as_py(), dtype=np.uint8).copy()
    exact_ids = np.frombuffer(folded["ids"][0].as_py(), dtype=np.int64).copy()
    return ray.put((merged, exact_ids))


def q_bloom_semijoin(sf_dir: str):
    """Semi-join via a Bloom prefilter plus exact verification: click
    events by users who made a purchase. Probe applies the Bloom mask
    first (4 cheap hash probes per row prune non-members before the
    log-n sorted-set lookup survivors pay), then re-checks survivors
    against the exact purchaser set from the same fold
    (``_purchaser_fold``), so the output is the EXACT semi-join
    (oracle-checked). When the distinct build side outgrows a broadcast,
    the documented pattern is the same Bloom prefilter with a
    hash-partitioned join as the verify stage instead of the broadcast
    set; the Bloom stage's zero-FN / bounded-FP contract keeps its own
    pin in tests/test_datapipe.py."""
    import ray

    from eristropy_ray.datapipe.sketch import bloom_contains

    ev = _read(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value", "event_type"],
    )
    bref = _purchaser_fold(ev)

    def probe(b: pa.Table) -> pa.Table:
        bits, exact = ray.get(bref)
        t = b.filter(pc.equal(b["event_type"], "click"))
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = bloom_contains(bits, uid)
        # exact verification of the Bloom survivors (sorted-set member
        # check; `exact` is the folded distinct purchaser set)
        pos = np.searchsorted(exact, uid)
        pos_c = np.minimum(pos, max(exact.size - 1, 0))
        keep &= (pos < exact.size) & (
            exact[pos_c] == uid if exact.size else False
        )
        t = t.filter(pa.array(keep))
        return pa.table(
            {
                "event_id": pc.cast(t["event_id"], pa.int64()),
                "user_id": pc.cast(t["user_id"], pa.int64()),
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "value": t["value"],
            }
        )

    return ev.map_batches(probe, batch_format="pyarrow")


def _user_day_key(t: pa.Table) -> np.ndarray:
    """Composite int64 (user, epoch-day) key: ``user_id * 2^21 + day``.
    Injective while ``day < 2^21`` (valid until year 7729) and
    ``user_id < 2^42`` — both documented premises of the anti-join's
    exactness (a 100-TB deployment with wider ids would widen the key to
    two int64 columns and a hash-partitioned verify join instead)."""
    uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    day = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // US_1D
    return uid * (1 << 21) + day


def q_anti_join(sf_dir: str):
    """Anti-join — the complement of ``q_bloom_semijoin``: click events
    on (user, day) pairs with NO purchase by that user that day
    (completing the join family: co-partitioned inner
    `order_segments_join` on one exchange, broadcast-dim
    `orders_by_segment`, as-of `asof_purchase_click`,
    range `clicks_before_purchase` / `band_join`, semi `bloom_semijoin`,
    anti here). Day-scoped because the dense synthetic corpus gives
    every user every event type — a user-only anti-join is degenerately
    empty at every sf.

    The Bloom filter's zero-false-negative contract flips roles on the
    anti side: ``bloom_contains(key) == False`` PROVES non-membership,
    so the no-purchase-that-day majority keeps rows without ever
    touching the exact set — only the Bloom-positive minority pays the
    log-n sorted-set verify that separates true members (drop) from
    false positives (keep). Build side is the same single
    ``_purchaser_fold`` broadcast over composite (user, day) keys;
    output is the EXACT anti-join (oracle-checked NOT EXISTS twin)."""
    import ray

    from eristropy_ray.datapipe.sketch import bloom_contains

    ev = _read(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value", "event_type"],
    )
    bref = _purchaser_fold(ev, key_of=_user_day_key)

    def probe(b: pa.Table) -> pa.Table:
        bits, exact = ray.get(bref)
        t = b.filter(pc.equal(b["event_type"], "click"))
        key = _user_day_key(t)
        maybe = bloom_contains(bits, key)  # False => provably no purchase
        member = np.zeros(key.size, dtype=bool)
        if maybe.any() and exact.size:
            cand = key[maybe]
            pos = np.searchsorted(exact, cand)
            pos_c = np.minimum(pos, exact.size - 1)
            member[maybe] = (pos < exact.size) & (exact[pos_c] == cand)
        t = t.filter(pa.array(~member))
        return pa.table(
            {
                "event_id": pc.cast(t["event_id"], pa.int64()),
                "user_id": pc.cast(t["user_id"], pa.int64()),
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "value": t["value"],
            }
        )

    return ev.map_batches(probe, batch_format="pyarrow")


_HEAVY_HITTERS_K = 256  # Misra-Gries summary size
_HEAVY_HITTERS_TOPN = 20  # heavy_hitters rows; SQL twin generated


def q_heavy_hitters(sf_dir: str):
    """Approximate heavy hitters (top-20 frequent words) via mergeable
    Misra-Gries summaries — the sketch counterpart to the exact
    ``vocab_topk``: each batch collapses to at most 256
    (word, estimate) rows, and ``exchange.fold`` merges those summaries
    within each task and once on the driver, so no step holds more than
    O(tasks x k) rows, independent of corpus size (at 100 TB the exact
    wordcount's (word, count) exchange is vocabulary-sized; this one is
    constant per task). Estimates undercount by at most
    n_total/256 (mergeability bound, Agarwal et al. PODS'12) —
    pinned against exact counts in tests/test_datapipe.py. Oracle-backed
    since round 5: when the corpus vocabulary fits the summary (true of
    the test corpus: 31 words << 256) MG never evicts, estimates equal
    exact counts, and the SQL twin checks the entire distributed plan."""
    from eristropy_ray.datapipe.sketch import mg_merge

    ds = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(b: pa.Table) -> pa.Table:
        # Arrow-native tokenize + count (same kernels as vocab_topk's
        # partial: whitespace-class split == _WS_TOKEN_PAT findall)
        toks = pc.list_flatten(
            pc.split_pattern_regex(b["text"], pattern="[ \\t\\n\\f\\r]+")
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        vc = pc.value_counts(toks)
        return mg_combine(
            [pa.table({"word": vc.field("values"), "est": vc.field("counts")})]
        )

    def mg_combine(parts: list[pa.Table]) -> pa.Table:
        # any MG merge tree preserves the n/k undercount bound, and
        # each merge emits at most k rows: the driver receives at most
        # tasks x k rows, bounded regardless of corpus size
        items, counts = mg_merge(
            [(np.empty(0, object), np.empty(0, np.int64))]
            + [(t["word"].to_numpy(zero_copy_only=False).astype(object),
                t["est"].to_numpy()) for t in parts],
            _HEAVY_HITTERS_K,
        )
        return pa.table(
            {"word": pa.array(items.astype(str), pa.string()),
             "est": pa.array(counts, pa.int64())}
        )

    merged = fold(ds, partial, mg_combine)
    items = merged["word"].to_numpy(zero_copy_only=False).astype(str)
    counts = merged["est"].to_numpy()
    order = np.lexsort((items, -counts))[:_HEAVY_HITTERS_TOPN]
    return pd.DataFrame(
        {"word": items[order].astype(str), "est": counts[order]}
    ).astype({"est": "int64"})


# RE2-compatible patterns shared verbatim with the SQL twins (explicit
# ASCII whitespace class; no lookahead)
_EMAIL_PAT = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z][A-Za-z]+"
_URL_PAT = r"https?://[^ \t\n\f\r]+"


def q_pii_counts(sf_dir: str):
    """Per-document PII-ish pattern counts (emails, URLs) — the redaction
    pre-scan of a training-data pipeline. One stateless vectorized pass
    (compiled regex, no shuffle); the SQL twin runs the IDENTICAL RE2
    patterns, generated from the same constants."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(b["doc_id"], pa.int64()),
                "n_emails": pc.cast(
                    pc.count_substring_regex(b["text"], pattern=_EMAIL_PAT),
                    pa.int64(),
                ),
                "n_urls": pc.cast(
                    pc.count_substring_regex(b["text"], pattern=_URL_PAT),
                    pa.int64(),
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def q_split_contamination(sf_dir: str):
    """Train/eval contamination check: near-dup pairs (word-shingle
    Jaccard >= 0.5, the minhash_neardup surface) that CROSS dataset-split
    boundaries — the leakage audit run before any training job. Composed
    from two oracle-exact operators, so the SQL twin is their CTE
    composition; the split label is pure id arithmetic (no extra join)."""
    pairs = q_minhash_neardup(sf_dir)
    if pairs.empty:
        return pairs.assign(
            split_a=pd.Series(dtype="object"), split_b=pd.Series(dtype="object")
        )

    sa = _split_of(pairs["doc_a"].to_numpy())
    sb = _split_of(pairs["doc_b"].to_numpy())
    out = pairs.assign(split_a=sa, split_b=sb)
    return out[out["split_a"] != out["split_b"]].reset_index(drop=True)


_REPETITION_K = 10  # repetition's gram width; SQL twin generated


def q_repetition(sf_dir: str):
    """Per-document repetition ratio: 1 - distinct/total character
    10-grams — the boilerplate/spam quality signal. Stateless vectorized
    pass; distinct counts the ACTUAL 10-char substrings (UTF-32 sliding
    windows uniqued as fixed-width byte records), not their hashes, so
    the substring-based SQL twin matches UNCONDITIONALLY — no rolling-
    hash collision can undercount. The ratio is an int/int division,
    bit-identical to the SQL CAST(... AS DOUBLE) / n."""
    from numpy.lib.stride_tricks import sliding_window_view

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    k = _REPETITION_K

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        total = np.empty(len(df), dtype=np.int64)
        distinct = np.empty(len(df), dtype=np.int64)
        for i, t in enumerate(df["text"]):
            if len(t) < k:
                total[i] = 0
                distinct[i] = 0
                continue
            cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
            win = np.ascontiguousarray(sliding_window_view(cp, k))
            recs = win.view(np.dtype((np.void, k * 4))).ravel()
            total[i] = recs.size
            distinct[i] = np.unique(recs).size
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_grams": total,
                "n_distinct": distinct,
                "rep_ratio": np.where(
                    total > 0, 1.0 - distinct / np.maximum(total, 1), 0.0
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pandas")


def _synthesize_payloads(b: pa.Table) -> pa.Table:
    """Deterministic binary payloads from document text (shared by the
    multimodal queries): even doc_ids become real PNGs (text bytes as a
    W x 8 gray raster, all five filter types), odd ones PCM WAVs, and
    every 7th an undecodable JPEG-magic payload to exercise per-row
    degradation."""
    from eristropy_ray.datapipe.media import encode_png, encode_wav

    ids = b["doc_id"].to_numpy().astype(np.int64)
    payloads = []
    for did, text in zip(ids, b["text"].to_pylist()):
        data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        data = data[:256] if data.size else np.zeros(1, np.uint8)
        if did % 7 == 0:  # undecodable: JPEG magic, no decoder
            payloads.append(b"\xff\xd8\xff" + data.tobytes())
        elif did % 2 == 0:  # image: pad to a W x 8 gray raster
            w = 8
            n = max((data.size + w - 1) // w, 1) * w
            px = np.zeros(n, np.uint8)
            px[: data.size] = data
            payloads.append(
                encode_png(px.reshape(-1, w, 1), filters=[0, 1, 2, 3, 4])
            )
        else:  # audio: bytes as centered 16-bit samples
            samples = (data.astype(np.int64) - 128) * 256
            payloads.append(encode_wav(samples.reshape(-1, 1)))
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def q_multimodal_features(sf_dir: str):
    """Multimodal decode pipeline over binary payload columns (rows-only:
    zlib/codec byte streams are not SQL-expressible).

    Payloads are synthesized DETERMINISTICALLY from the documents table
    (text bytes become PNG pixels / WAV samples; every 7th doc gets an
    undecodable JPEG-magic payload to exercise per-row degradation), then
    decoded for real by the stdlib decoders behind an actor-pool
    ``map_batches`` stage — the exact shape a production image/audio
    feature-extraction stage has (per-actor setup, small batches for wide
    binary rows, typed metadata out)."""
    from eristropy_ray.datapipe.multimodal import BinaryFeatureStage

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    feats = ds.map_batches(_synthesize_payloads, batch_format="pyarrow").map_batches(
        BinaryFeatureStage(),
        batch_format="pyarrow",
        batch_size=128,  # small: payload rows are wide
        concurrency=4,
    )

    def project(b: pa.Table) -> pa.Table:
        emb = b["embedding"].combine_chunks()
        first = pc.list_element(emb, 0)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "format": b["format"],
                "n_bytes": b["n_bytes"],
                "decode_ok": b["decode_ok"],
                "feat_mean": pc.round(first, ndigits=6),
            }
        )

    return feats.map_batches(project, batch_format="pyarrow")


def q_image_resize(sf_dir: str):
    """Image resize pipeline — decode PNG -> nearest-neighbor resize to
    16x16 -> re-encode — over the same deterministic payloads as
    ``multimodal_features`` (rows-only: codec byte streams aren't SQL).
    Real resolution normalization for image training data: PNG rows are
    actually decoded, resampled with the half-pixel-center gather and
    re-encoded (round-trip pixel equality pinned in tests); WAV/JPEG/
    corrupt rows degrade per row (``resize_ok=False``), never fail the
    task. Actor-pool stage, small batches for wide binary rows; output
    is the resized payload plus typed in/out dimension metadata, with
    one schema across all rows."""
    from eristropy_ray.datapipe.multimodal import ImageResizeStage

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    resized = ds.map_batches(
        _synthesize_payloads, batch_format="pyarrow"
    ).map_batches(
        ImageResizeStage(),
        batch_format="pyarrow",
        batch_size=128,  # small: payload rows are wide
        concurrency=4,
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "resize_ok": b["resize_ok"],
                "in_height": b["in_height"],
                "in_width": b["in_width"],
                "n_bytes_out": pc.binary_length(b["resized"].combine_chunks()),
            }
        )

    return resized.map_batches(project, batch_format="pyarrow")


def q_frame_sample(sf_dir: str):
    """Video-style frame sampling — 1->4 explode of evenly spaced 32-byte
    windows of each DECODED payload (scanline bands of PNGs, sample windows of
    WAV clips; undecodable rows degrade to empty frames) — over the same
    deterministic payloads as ``multimodal_features`` (rows-only: codec
    byte streams aren't SQL). The canonical video pre-processing shape:
    actor-pool stage, small batches for wide binary rows, one output row
    per (doc, frame_idx) with the binary frame column plus typed
    metadata."""
    from eristropy_ray.datapipe.multimodal import FrameSampleStage

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    frames = ds.map_batches(
        _synthesize_payloads, batch_format="pyarrow"
    ).map_batches(
        FrameSampleStage(),
        batch_format="pyarrow",
        batch_size=128,  # small: payload rows are wide
        concurrency=4,
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "frame_idx": b["frame_idx"],
                "n_frame_bytes": pc.binary_length(
                    b["frame"].combine_chunks()
                ),
            }
        )

    return frames.map_batches(project, batch_format="pyarrow")


#: clean_corpus's quality filter: at least 100 chars, punctuation share
#: below 0.1 (SQL twin generated)
_CLEAN_MIN_CHARS, _CLEAN_MAX_PUNCT = 100, 0.1


def q_clean_corpus(sf_dir: str):
    """End-to-end corpus cleaning composition — the pipeline shape a
    training-data user actually runs: length/quality filter -> exact
    dedup (content-hash groupby, keep min doc_id) -> English-only
    (langid) -> token counts. One streaming pass plus one dedup shuffle
    of (hash, id, tokens) triples; binary-exact vs a composed SQL twin."""
    from eristropy_ray.datapipe.dedup import batch_hash128
    from eristropy_ray.datapipe.textstats import langid_predict_arrow

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def score_filter(b: pa.Table) -> pa.Table:
        # Arrow-native filters; the batch langid kernel runs on the
        # already-filtered subset. Dedup keys are the vectorized 128-bit
        # buffer digest (two int64 shuffle keys, same plan as
        # q_dedup_exact).
        n_chars = pc.utf8_length(b["text"])
        punct = pc.count_substring_regex(b["text"], pattern=r"[.!?,;:]")
        keep = pc.and_(
            pc.greater_equal(n_chars, _CLEAN_MIN_CHARS),
            pc.less(
                pc.divide(
                    pc.cast(punct, pa.float64()),
                    pc.cast(n_chars, pa.float64()),
                ),
                _CLEAN_MAX_PUNCT,
            ),
        )
        sub = b.filter(pc.fill_null(keep, False))
        if sub.num_rows:
            en = langid_predict_arrow(sub["text"]) == "en"
            sub = sub.filter(pa.array(en))
        h1, h2 = batch_hash128(sub["text"])
        return pa.table(
            {
                "h1": pa.array(h1.view(np.int64), pa.int64()),
                "h2": pa.array(h2.view(np.int64), pa.int64()),
                "doc_id": pc.cast(sub["doc_id"], pa.int64()),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(
                        sub["text"], pattern=_WS_TOKEN_PAT
                    ),
                    pa.int64(),
                ),
            }
        )

    # keyed combine (same plan as q_dedup_exact): identical texts carry
    # identical n_tokens, so the min count IS the min doc_id's count
    return keyed_combine(
        ds.map_batches(score_filter, batch_format="pyarrow"),
        ["h1", "h2"],
        {"doc_id": "min", "n_tokens": "min"},
        lambda t: t.select(["doc_id", "n_tokens"]),
    )


#: hopping_window: windows of _HOPS slides, so each event is in exactly
#: _HOPS windows (SQL twin generated)
_HOP_SLIDE_US, _HOPS = 900_000_000, 4


def q_hopping_window(sf_dir: str):
    """Hopping (sliding) window aggregate: 1h windows advancing every
    15m per user. Each event explodes to its 4 windows inside
    ``map_batches`` (vectorized repeat), and one keyed combine on
    (user, window) sums exact integer-micro partials — the shuffle moves
    per-(user, window) partials, never the exploded rows."""
    ds = _read(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def explode(b: pa.Table) -> pa.Table:
        ts = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # the window starting at the event's slide and the _HOPS - 1
        # before it: a span is a whole number of slides, so all contain ts
        hops = np.arange(_HOPS, dtype=np.int64) * _HOP_SLIDE_US
        starts = (ts - ts % _HOP_SLIDE_US)[:, None] - hops[None, :]
        return pa.table(
            {
                "signal_id": pa.array(np.repeat(uid, _HOPS), pa.int64()),
                "window_start_us": pa.array(starts.reshape(-1), pa.int64()),
                "sum_mu": pa.array(np.repeat(micros(v), _HOPS), pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        vsum = from_micros(t["sum_mu"].to_numpy())
        return t.drop_columns(["sum_mu"]).append_column(
            "value_sum", pa.array(vsum, pa.float64())
        )

    return keyed_combine(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["signal_id", "window_start_us"],
        {"n_obs": "count", "sum_mu": "sum"},
        finish,
    )


#: streaming_window's delayed arrivals (event_id % 16 == 5 arrives 40
#: positions late) and allowed lateness; SQL twin generated
_STREAM_DELAY_EVERY, _STREAM_DELAY_AT, _STREAM_DELAY_SHIFT = 16, 5, 40
_STREAM_LATENESS_US = 1_800_000_000


def q_streaming_window(sf_dir: str):
    """Streaming tumbling windows with a per-key WATERMARK and an
    allowed-lateness drop policy — the streaming-window operator.

    Events are processed in ARRIVAL order; the watermark per key is the
    running max event-time of prior arrivals minus 30 minutes; an
    arrival whose event-time is below the watermark is dropped as late
    (counted per window), everything else aggregates into its 1h
    tumbling window. The synthetic feed is perfectly time-ordered, so a
    deterministic delayed-arrival permutation (every 16th event arrives
    40 positions late — mirrored exactly in the SQL twin)
    exercises the late path for real: at sf0.01, 131 events arrive out
    of order, 105 fall below the watermark and are dropped, 26 are
    accepted within lateness.

    Scale shape = sessionization's: one hash shuffle by key, then one
    stateful vectorized pass per partition (pandas C-level segmented
    cummax for the watermark), partial aggregation before emit.
    """
    events = _read(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )

    def to_typed(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        delayed = eid % _STREAM_DELAY_EVERY == _STREAM_DELAY_AT
        arrival = eid + np.where(delayed, _STREAM_DELAY_SHIFT, 0)
        return pa.table(
            {
                "signal_id": pa.array(uid, pa.int64()),
                "ts_us": pc.cast(b["ts"], pa.int64()),
                "vmu": pa.array(
                    micros(b["value"].to_numpy(zero_copy_only=False)), pa.int64()
                ),
                "arrival": pa.array(arrival, pa.int64()),
                "event_id": pa.array(eid, pa.int64()),
            }
        )

    def window_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["signal_id", "arrival", "event_id"], kind="stable"
        ).reset_index(drop=True)
        g = df.groupby("signal_id", sort=False)
        # watermark at each arrival: cummax of PRIOR arrivals' event time
        prev_max = g["ts_us"].cummax().groupby(df["signal_id"]).shift(1)
        late = df["ts_us"] < prev_max - _STREAM_LATENESS_US  # NaN -> False
        win = df["ts_us"] - df["ts_us"] % US_1H
        out = (
            pd.DataFrame(
                {
                    "signal_id": df["signal_id"],
                    "window_start_us": win,
                    "n_obs": (~late).astype("int64"),
                    "sum_mu": df["vmu"].where(~late, 0),
                    "n_late": late.astype("int64"),
                }
            )
            .groupby(["signal_id", "window_start_us"], sort=True)
            .agg(
                n_obs=("n_obs", "sum"),
                sum_mu=("sum_mu", "sum"),
                n_late=("n_late", "sum"),
            )
            .reset_index()
        )
        out["value_sum"] = from_micros(out["sum_mu"])
        return out[
            ["signal_id", "window_start_us", "n_obs", "value_sum", "n_late"]
        ].astype(
            {"signal_id": "int64", "window_start_us": "int64",
             "n_obs": "int64", "value_sum": "float64", "n_late": "int64"}
        )

    typed = events.map_batches(to_typed, batch_format="pyarrow")
    return exchange(typed, "signal_id", window_partition)


def q_distinct_users(sf_dir: str):
    """Exact distributed COUNT(DISTINCT user_id) per event_type.

    One real shuffle: per-batch pair dedup (combiner), hash-partition by
    user (int key — all of a user's (type, user) pairs co-locate, so the
    partition-local dedup is globally exact), per-partition counts, then
    a ``fold_by`` sums the P x n_types rows. Avoids sorting the full pair
    set on a string key twice."""
    ds = _read(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])

    def partial(b: pa.Table) -> pa.Table:
        # per-batch pair dedup as a C-speed Arrow hash-distinct
        return b.group_by(["event_type", "user_id"]).aggregate([])

    def count_partition(df: pd.DataFrame) -> pd.DataFrame:
        u = df.drop_duplicates(["event_type", "user_id"])
        g = u.groupby("event_type", sort=True).size().reset_index(name="n_users")
        g["n_users"] = g["n_users"].astype("int64")
        return g

    partials = exchange(
        ds.map_batches(partial, batch_format="pyarrow"), "user_id", count_partition
    )
    schema = pa.schema([("event_type", pa.string()), ("n_users", pa.int64())])
    return fold_by(partials, ["event_type"], {"n_users": "sum"}, schema).to_pandas()


_HLL_P = 12  # distinct_users_approx: 2^12 registers
_HDR_M = 7  # value_quantiles_hdr: 2^7 sub-buckets per power of two


def _hll_partial_by_type(b: pa.Table) -> pa.Table:
    """One HLL register row per event_type of the batch."""
    from eristropy_ray.datapipe.sketch import hll_partial

    # one lexsort, then hll_partial over contiguous type segments
    # (cardinality of event_type is tiny; no per-row pandas groupby)
    et = b["event_type"].to_numpy(zero_copy_only=False)
    uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(et, kind="stable")
    et, uid = et[order], uid[order]
    bounds = np.append(segment_starts(et), et.size)
    regs = [
        hll_partial(uid[a:z], _HLL_P).tobytes() for a, z in zip(bounds, bounds[1:])
    ]
    return pa.table(
        {"event_type": pa.array(et[bounds[:-1]], pa.string()),
         "regs": pa.array(regs, pa.binary())}
    )


def _hdr_partial_by_type(b: pa.Table) -> pa.Table:
    """(event_type, bucket, n) HDR summary rows of the batch."""
    from eristropy_ray.datapipe.sketch import hdr_partial

    # one lexsort, hdr_partial per contiguous type segment
    et = b["event_type"].to_numpy(zero_copy_only=False)
    val = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
    order = np.argsort(et, kind="stable")
    et, val = et[order], val[order]
    bounds = np.append(segment_starts(et), et.size)
    parts = [hdr_partial(val[a:z], _HDR_M) for a, z in zip(bounds, bounds[1:])]
    empty = np.empty(0, np.int64)
    return pa.table(
        {
            "event_type": pa.array(
                np.repeat(et[bounds[:-1]], [bk.size for bk, _ in parts]), pa.string()
            ),
            "bucket": pa.array(np.concatenate([empty, *(bk for bk, _ in parts)])),
            "n": pa.array(np.concatenate([empty, *(c for _, c in parts)])),
        }
    )


def q_distinct_users_approx(sf_dir: str):
    """HyperLogLog distinct users per event_type (rows-only; the error
    bound vs the exact count is pinned in tests). Each batch reduces to
    one 4 KiB register row per event_type; a ``fold`` merges each
    type's registers by elementwise max, and the driver estimates."""
    from eristropy_ray.datapipe.sketch import hll_estimate, hll_merge

    ds = _read(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    schema = pa.schema([("event_type", pa.string()), ("regs", pa.binary())])

    def merge_registers(parts: list[pa.Table]) -> pa.Table:
        t = pa.concat_tables([schema.empty_table(), *parts]).sort_by("event_type")
        et = t["event_type"].to_numpy(zero_copy_only=False)
        regs = [np.frombuffer(r, dtype=np.uint8) for r in t["regs"].to_pylist()]
        bounds = np.append(segment_starts(et), et.size)
        merged = [hll_merge(regs[a:z]).tobytes() for a, z in zip(bounds, bounds[1:])]
        return pa.table(
            {"event_type": pa.array(et[bounds[:-1]], pa.string()),
             "regs": pa.array(merged, pa.binary())}
        )

    t = fold(ds, _hll_partial_by_type, merge_registers)
    regs = [np.frombuffer(r, dtype=np.uint8) for r in t["regs"].to_pylist()]
    return pd.DataFrame(
        {
            "event_type": t["event_type"].to_numpy(zero_copy_only=False),
            "n_users_approx": np.array([hll_estimate(r) for r in regs], np.float64),
        }
    )


def q_value_quantiles_hdr(sf_dir: str):
    """Approximate value quantiles per event_type via a mergeable
    HDR-style log-bucketed histogram (rows-only; relative error bound
    2^-8 vs the exact order statistic is pinned in tests) — the
    sketch twin of exact ``doc_len_quantiles`` for UNBOUNDED positive
    double domains, completing the sketch family: HLL (distinct),
    Misra-Gries (heavy hitters), Bloom (membership), HDR (quantiles).
    Each block folds to one (event_type, bucket, n) summary whose size
    is bounded by the occupied buckets, not the row count; a
    ``fold_by`` sums the counts per (event_type, bucket) — event types
    are a bounded domain — and the driver ranks each type's histogram
    with ``hdr_quantiles``."""
    from eristropy_ray.datapipe.sketch import hdr_quantiles

    ds = _read(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    qs = np.array([0.25, 0.5, 0.75, 0.99])
    schema = pa.schema(
        [("event_type", pa.string()), ("bucket", pa.int64()), ("n", pa.int64())]
    )
    # batch_size=None: fold whole blocks — the summary is bucket-
    # bounded, so bigger batches mean strictly fewer partial rows.
    partials = ds.map_batches(
        _hdr_partial_by_type, batch_format="pyarrow", batch_size=None
    )
    t = fold_by(partials, ["event_type", "bucket"], {"n": "sum"}, schema).sort_by(
        "event_type"
    )
    et = t["event_type"].to_numpy(zero_copy_only=False)
    bucket, n = t["bucket"].to_numpy(), t["n"].to_numpy()
    bounds = np.append(segment_starts(et), et.size)
    est = [
        hdr_quantiles(bucket[a:z], n[a:z], qs, _HDR_M)
        for a, z in zip(bounds, bounds[1:])
    ]
    return pd.DataFrame(
        {
            "event_type": np.repeat(et[bounds[:-1]], qs.size),
            "q": np.tile(qs, len(est)),
            "value_approx": np.array(est, dtype=np.float64).reshape(-1),
        }
    )


_GROUP_CAP_K = 3  # group_cap; SQL twin generated


def q_group_cap(sf_dir: str):
    """First-3-per-group cap (earliest 3 events per user by (ts, id)) —
    the "at most N documents per domain/source" diversity cap of a
    training-data pipeline. One hash shuffle, then a vectorized
    rank-and-filter per partition; exact row_number SQL twin."""
    ds = _events_signals(sf_dir)

    def group_cap(df: pd.DataFrame) -> pd.DataFrame:
        sid = df["signal_id"].to_numpy()
        ts = df["ts_us"].to_numpy()
        tie = df["tie"].to_numpy()
        order = np.lexsort((tie, ts, sid))
        sid, ts, tie = sid[order], ts[order], tie[order]
        v = df["value"].to_numpy()[order]
        keep = segment_rank(sid) < _GROUP_CAP_K
        return pd.DataFrame(
            {
                "signal_id": sid[keep],
                "ts_us": ts[keep],
                "event_id": tie[keep],
                "value": v[keep],
            }
        )

    return exchange(ds, "signal_id", group_cap)


#: dataset_split's id hash, h = (id mod P) * MUL mod P mod 100, and its
#: cuts: h < 80 is train, h < 90 val, the rest test (SQL twin generated)
_SPLIT_P, _SPLIT_MUL = 1000000007, 2654435761
_SPLIT_TRAIN, _SPLIT_VAL = 80, 90


def _split_of(ids: np.ndarray) -> np.ndarray:
    """The split label of each int64 id (dataset_split's rule)."""
    p = np.int64(_SPLIT_P)
    h = ((ids % p + p) % p) * _SPLIT_MUL % p % 100
    return np.where(h < _SPLIT_TRAIN, "train", np.where(h < _SPLIT_VAL, "val", "test"))


def q_dataset_split(sf_dir: str):
    """Deterministic train/val/test assignment (80/10/10) by multiplicative
    id hash — the reproducible split every training-data pipeline needs.
    The id is reduced mod p BEFORE the multiply (floor-safe form) so the
    int64 product cannot overflow for ANY int64 doc_id and negative ids
    agree across engines (DuckDB % truncates, numpy floors); pure int64
    arithmetic on both sides, so the SQL twin is exact. At 100 TB this
    is a stateless map with no shuffle at all."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def fn(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "split": pa.array(_split_of(ids).astype(object), pa.string()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def q_sample_events(sf_dir: str):
    """Deterministic systematic sample (the reproducible analogue of
    random_sample; exact SQL oracle)."""
    ds = _read(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def fn(b: pa.Table) -> pa.Table:
        keep = pc.equal(pc.bit_wise_and(b["event_id"], np.int64(15)), np.int64(3))
        t = b.filter(keep)
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "value": t["value"],
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


_RESERVOIR_K = 1000  # reservoir_sample rows


def q_reservoir_sample(sf_dir: str):
    """Fixed-size uniform sample — EXACTLY 1000 rows regardless of corpus
    size (the "give me 10k examples from 100 TB" op; the fixed-RATE
    twin is ``sample_events``). Mergeable bottom-k sketch: every row
    gets the deterministic key splitmix64(event_id) — a bijection, so
    distinct ids never tie — and a ``top_k`` fold keeps the k smallest
    keys of each batch, of each task's survivors and of all of them on
    the driver. Bottom-k is a commutative, associative, idempotent
    reduction, so that equals the bottom-k of the full table, and no
    row moves between tasks. Rows-only: the 64-bit mix isn't
    SQL-expressible; exactness vs a single-pass local bottom-k and
    block-layout invariance are pinned in tests."""
    from eristropy_ray.datapipe.sketch import sample_key64

    ds = _read(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )

    def keyed(b: pa.Table) -> pa.Table:
        key = sample_key64(b["event_id"].to_numpy())
        return pa.table(
            {
                "sample_key": pa.array(key, pa.uint64()),
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "ts_us": pc.cast(b["ts"], pa.int64()),
                "value": b["value"],
            }
        )

    int64s = [(c, pa.int64()) for c in ("event_id", "user_id", "ts_us")]
    schema = pa.schema([("sample_key", pa.uint64()), *int64s, ("value", pa.float64())])
    keyed_rows = ds.map_batches(keyed, batch_format="pyarrow")
    order = [("sample_key", "ascending")]
    return top_k(keyed_rows, order, _RESERVOIR_K, schema).to_pandas()


_TOP_USERS_K = 10  # top_users; SQL twin generated


def q_top_users(sf_dir: str):
    """Top-10 users by observation count (count desc, user_id asc).
    Counts come from the partial-collapsed keyed combine; each user's
    total is complete within one combine partition, so a ``top_k`` fold
    over the per-user rows is exact and moves none of them."""
    order = [("n_obs", "descending"), ("user_id", "ascending")]
    return top_k(_user_counts(sf_dir), order, _TOP_USERS_K, _USER_COUNTS).to_pandas()


def q_orders_by_segment(sf_dir: str):
    """Broadcast hash join: orders x customer (small side shipped once via
    ray.put), then exact-decimal revenue per market segment — the A3-style
    broadcast-join pattern generalized to a dimension lookup, with no
    exchange (contrast ``order_segments_join``, which exchanges both
    sides when neither fits a broadcast). As in the SQL inner join, an
    order whose customer is missing is dropped."""
    import pyarrow.parquet as pq
    import ray

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    # broadcast the dim as SORTED flat numpy (keys + dictionary-encoded
    # segment codes): searchsorted lookup inside the partial instead of a
    # Python dict probe per row, and the object-store payload is two
    # dense arrays instead of a pickled dict of Python strings.
    keys = cust["c_custkey"].to_numpy()
    seg_names, seg_codes = np.unique(
        cust["c_mktsegment"].to_numpy(zero_copy_only=False), return_inverse=True
    )
    korder = np.argsort(keys, kind="stable")
    lookup_ref = ray.put((keys[korder], seg_codes[korder].astype(np.int64)))

    orders = _read(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def project(batch: pa.Table) -> pa.Table:
        skeys, scodes = ray.get(lookup_ref)
        ck = batch.column("o_custkey").to_numpy()
        pos = np.searchsorted(skeys, ck)
        hit = pos < skeys.size
        hit[hit] = skeys[pos[hit]] == ck[hit]
        # only joined rows: the twin casts to DECIMAL after its inner join
        price = batch.column("o_totalprice").to_numpy()[hit]
        return pa.table(
            {
                "seg": pa.array(scodes[pos[hit]], pa.int64()),
                "sum_mu": pa.array(micros(price), pa.int64()),
            }
        )

    # exact int64 group sums: the fold never leaves integers
    t = fold_by(
        orders.map_batches(project, batch_format="pyarrow"),
        ["seg"],
        {"n_orders": "count", "sum_mu": "sum"},
        pa.schema([(c, pa.int64()) for c in ("seg", "n_orders", "sum_mu")]),
    )
    n = t["n_orders"].to_numpy()
    total = from_micros(t["sum_mu"].to_numpy())
    return pd.DataFrame(
        {
            "c_mktsegment": seg_names[t["seg"].to_numpy()].astype(object),
            "n_orders": n,
            "total_price": total,
            "avg_price": total / n,
        }
    )


def q_order_segments_join(sf_dir: str):
    """Co-partitioned hash join of orders x customer — the LARGE-x-large
    join surface (contrast ``orders_by_segment``, the broadcast map-side
    variant for small dims): both sides are tagged with one schema (the
    int64 ``key``, a side flag, the other side's columns as typed
    nulls), unioned, and ONE ``exchange`` on ``key`` hands every
    partition both sides of its keys, which an Arrow inner join pairs.
    This is the plan when neither side fits a broadcast. As in SQL, a
    null key never matches. Emits one row per order with its market
    segment; exact SQL twin."""
    types = {"o_orderkey": pa.int64(), "o_totalprice": pa.float64(),
             "c_mktsegment": pa.string()}

    def tag(b: pa.Table, key: str) -> pa.Table:
        b = b.filter(pc.is_valid(b[key]))  # a null key never matches
        n = b.num_rows
        cols = {"key": pc.cast(b[key], pa.int64()),
                "is_order": pa.array(np.full(n, key == "o_custkey"))}
        for c, t in types.items():
            cols[c] = pc.cast(b[c], t) if c in b.column_names else pa.nulls(n, t)
        return pa.table(cols)

    def join_partition(t: pa.Table) -> pa.Table:
        is_order = t["is_order"]
        o = t.filter(is_order).select(["key", "o_orderkey", "o_totalprice"])
        c = t.filter(pc.invert(is_order)).select(["key", "c_mktsegment"])
        j = o.join(c, "key", join_type="inner", use_threads=False)
        return j.select(["o_orderkey", "c_mktsegment", "o_totalprice"])

    orders = _read(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    ).map_batches(tag, batch_format="pyarrow", fn_args=("o_custkey",))
    cust = _read(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(tag, batch_format="pyarrow", fn_args=("c_custkey",))
    return exchange(orders.union(cust), "key", join_partition, "pyarrow")


def q_sessions(sf_dir: str):
    """Gap-based session windows over each user's event stream (streaming
    op; exact integer outputs vs a window-function SQL oracle)."""
    from eristropy_ray.stages.signals import sessionize_partition

    return exchange(_events_signals(sf_dir), "signal_id", sessionize_partition)


def q_rolling_mean(sf_dir: str):
    """Rolling mean over the last 5 events per user (exact via
    integer-micro prefix sums)."""
    from eristropy_ray.stages.signals import rolling_mean_partition

    return exchange(_events_signals(sf_dir), "signal_id", rolling_mean_partition)


def q_running_sum(sf_dir: str):
    """Cumulative sum per user at every event — the unbounded-frame
    window aggregate (``SUM OVER (PARTITION BY user ORDER BY ts, id)``),
    completing the window family: rolling (bounded ROWS frame), hopping,
    streaming-watermark, session, and now cumulative. One hash shuffle
    on the user key, then a single global integer-micro cumsum per
    partition rebased at group starts (segmented prefix sum, no Python
    loop); ties broken by event_id on both engines."""
    from eristropy_ray.stages.signals import running_sum_partition

    return exchange(_events_signals(sf_dir), "signal_id", running_sum_partition)


_TOPK_PER_USER_K = 3  # topk_per_user; SQL twin generated


def q_topk_per_user(sf_dir: str):
    """Top-3 events by value per user with their rank — the ranked
    window-function shape (``ROW_NUMBER OVER (PARTITION BY user ORDER BY
    value DESC, event_id)``), vs ``group_cap``'s arrival-order cap. The
    scalable plan is partial top-k: each batch keeps at most 3 rows per
    user BEFORE the shuffle (the global per-user top-k is a subset of
    the union of batch-local top-ks), so the exchange carries
    O(users x 3) rows, not the event stream. Ordering is on raw doubles
    (identical bits both engines) with the id tie-break; no NaN values
    by the documented corpus contract."""
    ds = _read(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )

    def topk_local(uid, eid, v, k_keep):
        order = np.lexsort((eid, -v, uid))
        su, se, sv = uid[order], eid[order], v[order]
        pos = segment_rank(su)
        keep = pos < k_keep
        return su[keep], se[keep], sv[keep], (pos[keep] + 1)

    def partial(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        uid, eid, v, _ = topk_local(uid, eid, v, _TOPK_PER_USER_K)
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "event_id": pa.array(eid, pa.int64()),
                "value": pa.array(v, pa.float64()),
            }
        )

    def select_partition(df: pd.DataFrame) -> pd.DataFrame:
        su, se, sv, rk = topk_local(
            df["user_id"].to_numpy(dtype=np.int64),
            df["event_id"].to_numpy(dtype=np.int64),
            df["value"].to_numpy(dtype=np.float64),
            _TOPK_PER_USER_K,
        )
        return pd.DataFrame(
            {
                "user_id": su,
                "event_id": se,
                "value": sv,
                "rk": rk.astype(np.int64),
            }
        )

    return exchange(
        ds.map_batches(partial, batch_format="pyarrow"), "user_id", select_partition
    )


def q_event_types(sf_dir: str):
    """Distinct values with their counts (set op; one ``fold_by`` for a
    deterministic, oracle-matched output)."""
    ds = _read(f"{sf_dir}/events.parquet", columns=["event_type"])
    schema = pa.schema([("event_type", pa.string()), ("n", pa.int64())])
    return fold_by(ds, ["event_type"], {"n": "count"}, schema).to_pandas()


def q_pricing_summary(sf_dir: str):
    """TPC-H-Q1-style pricing summary over lineitem: grouped exact-decimal
    sums and means (classic OLAP shape on the biggest table)."""
    ds = _read(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount",
        ],
    )

    def project(b: pa.Table) -> pa.Table:
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty_mu": pa.array(micros(qty), pa.int64()),
                "price_mu": pa.array(micros(price), pa.int64()),
                # disc_price rounded to micro per row BEFORE summing, so the
                # DuckDB DECIMAL(24,6) cast of the identical double matches
                "disc_price_mu": pa.array(micros(price * (1.0 - disc)), pa.int64()),
            }
        )

    t = fold_by(
        ds.map_batches(project, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {"n_rows": "count", "qty_mu": "sum", "price_mu": "sum",
         "disc_price_mu": "sum"},
        pa.schema([("l_returnflag", pa.string()), ("l_linestatus", pa.string())]
                  + [(c, pa.int64()) for c in
                     ("n_rows", "qty_mu", "price_mu", "disc_price_mu")]),
    )
    n = t["n_rows"].to_numpy()
    qty, price, disc_price = (
        from_micros(t[c].to_numpy()) for c in ("qty_mu", "price_mu", "disc_price_mu")
    )
    means = {"sum_qty": qty, "sum_base_price": price, "sum_disc_price": disc_price,
             "avg_qty": qty / n, "avg_price": price / n}
    out = t.select(["l_returnflag", "l_linestatus", "n_rows"])
    for name, v in means.items():
        out = out.append_column(name, pa.array(v, pa.float64()))
    return out.to_pandas()


def _typed_user_events(sf_dir: str) -> rd.Dataset:
    """Shared typed projection for the user-keyed joins (as-of, range):
    (user_id, ts_us, event_id, event_type), exchanged on user_id by both
    join queries."""
    events = _read(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def to_typed(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "ts_us": pc.cast(b["ts"], pa.int64()),
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "event_type": b["event_type"],
            }
        )

    return events.map_batches(to_typed, batch_format="pyarrow")


def q_asof_purchase_click(sf_dir: str):
    """As-of join: for each 'purchase' event, the user's most recent
    STRICTLY earlier 'click' event (pd.merge_asof inside hash partitions
    keyed by user — the guide's canonical as-of pattern; right side made
    unique per (user, ts) so tie resolution is deterministic on both
    engines)."""
    typed = _typed_user_events(sf_dir)

    def asof_partition(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["event_type"] == "purchase"][
            ["user_id", "ts_us", "event_id"]
        ].sort_values(["ts_us", "event_id"], kind="stable")
        right = df[df["event_type"] == "click"][["user_id", "ts_us", "event_id"]]
        # deterministic tie resolution: one row per (user, ts), max event_id
        right = (
            right.groupby(["user_id", "ts_us"], sort=False)["event_id"]
            .max()
            .reset_index()
            .rename(columns={"event_id": "click_event_id", "ts_us": "click_ts_us"})
            .sort_values(["click_ts_us", "click_event_id"], kind="stable")
        )
        if left.empty or right.empty:
            return pd.DataFrame(
                columns=["event_id", "user_id", "ts_us", "click_event_id",
                         "click_ts_us", "lag_us"]
            ).astype({"event_id": "int64", "user_id": "int64", "ts_us": "int64",
                      "click_event_id": "int64", "click_ts_us": "int64",
                      "lag_us": "int64"})
        merged = pd.merge_asof(
            left,
            right,
            left_on="ts_us",
            right_on="click_ts_us",
            left_by="user_id",
            right_by="user_id",
            direction="backward",
            allow_exact_matches=False,
        )
        merged = merged.dropna(subset=["click_event_id"])
        merged["click_event_id"] = merged["click_event_id"].astype("int64")
        merged["click_ts_us"] = merged["click_ts_us"].astype("int64")
        merged["lag_us"] = merged["ts_us"] - merged["click_ts_us"]
        return merged[["event_id", "user_id", "ts_us", "click_event_id",
                       "click_ts_us", "lag_us"]]

    return exchange(typed, "user_id", asof_partition)


def q_clicks_before_purchase(sf_dir: str):
    """Range join: for each 'purchase', count the same user's clicks in
    the preceding hour (vectorized searchsorted per partition; exact
    integer output vs an inequality-join SQL oracle)."""
    typed = _typed_user_events(sf_dir)

    def range_partition(df: pd.DataFrame) -> pd.DataFrame:
        out = {"event_id": [], "user_id": [], "ts_us": [], "n_clicks_1h": []}
        hour = 3_600_000_000
        for uid, g in df.groupby("user_id", sort=True):
            clicks = np.sort(
                g[g["event_type"] == "click"]["ts_us"].to_numpy(dtype=np.int64)
            )
            purchases = g[g["event_type"] == "purchase"]
            if purchases.empty:
                continue
            ts = purchases["ts_us"].to_numpy(dtype=np.int64)
            hi = np.searchsorted(clicks, ts, side="left")  # strictly before
            lo = np.searchsorted(clicks, ts - hour, side="right")  # > ts-1h
            out["event_id"].extend(purchases["event_id"].tolist())
            out["user_id"].extend([uid] * len(purchases))
            out["ts_us"].extend(ts.tolist())
            out["n_clicks_1h"].extend((hi - lo).astype(np.int64).tolist())
        res = pd.DataFrame(out).astype(
            {"event_id": "int64", "user_id": "int64",
             "ts_us": "int64", "n_clicks_1h": "int64"}
        )
        return res.sort_values(
            ["user_id", "ts_us", "event_id"], kind="stable"
        ).reset_index(drop=True)

    return exchange(typed, "user_id", range_partition)


def q_band_join(sf_dir: str):
    """KEYLESS time-band interval join: for each 'purchase' event, the
    count of clicks by ANY user in the preceding 10 minutes
    ``[ts - window, ts)``. Unlike ``clicks_before_purchase`` (which
    hash-partitions on the user equality key), there is NO equality key
    here — the scalable plan is the classic band replication: with band
    width B == window, each click replicates to bands ``floor(t/B)`` and
    ``floor(t/B)+1`` (a bounded 2x of the probe-side stream, key-free),
    purchases route to their own band only, and every purchase's window
    is fully covered by its single band group (``t >= p - B`` implies
    ``floor(t/B) >= floor(p/B) - 1``) with no double counting (each
    click copy carries a distinct band value). Bands hash-partition into
    ``part`` buckets; inside a partition one composite-key sort
    ``band * 2B + (t - band*B + B)`` (offset is in ``[-B, B)`` so the
    key is collision-free and fits int64) makes the per-purchase count a
    pair of global ``searchsorted`` calls — fully vectorized, no Python
    loop over bands."""
    ev = _read(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type"]
    )
    B = _BAND_JOIN_WINDOW_US

    def route(b: pa.Table) -> pa.Table:
        ts = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_p = pc.equal(b["event_type"], "purchase").to_numpy(
            zero_copy_only=False
        )
        is_c = pc.equal(b["event_type"], "click").to_numpy(
            zero_copy_only=False
        )
        band = np.concatenate(
            [ts[is_p] // B, ts[is_c] // B, ts[is_c] // B + 1]
        )
        out = pa.table(
            {
                "band": pa.array(band, pa.int64()),
                "kind": pa.array(
                    np.concatenate(
                        [
                            np.ones(int(is_p.sum()), np.int64),
                            np.zeros(2 * int(is_c.sum()), np.int64),
                        ]
                    ),
                    pa.int64(),
                ),
                "ts_us": pa.array(
                    np.concatenate([ts[is_p], ts[is_c], ts[is_c]]), pa.int64()
                ),
                "event_id": pa.array(
                    np.concatenate(
                        [eid[is_p], np.full(2 * int(is_c.sum()), -1, np.int64)]
                    ),
                    pa.int64(),
                ),
            }
        )
        return out

    def band_partition(df: pd.DataFrame) -> pd.DataFrame:
        band = df["band"].to_numpy(dtype=np.int64)
        kind = df["kind"].to_numpy(dtype=np.int64)
        ts = df["ts_us"].to_numpy(dtype=np.int64)
        c = kind == 0
        # composite key: band-major, in-band offset in [-B, B) shifted
        # non-negative — one sort serves every band segment at once
        ckey = np.sort(band[c] * (2 * B) + (ts[c] - band[c] * B + B))
        pb, pt = band[~c], ts[~c]
        pkey_hi = pb * (2 * B) + (pt - pb * B + B)
        n = np.searchsorted(ckey, pkey_hi, side="left") - np.searchsorted(
            ckey, pkey_hi - B, side="left"
        )
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(dtype=np.int64)[~c],
                "ts_us": pt,
                "n_clicks_10m": n.astype(np.int64),
            }
        )

    routed = ev.map_batches(route, batch_format="pyarrow")
    return exchange(routed, "band", band_partition)


def q_user_value_median(sf_dir: str):
    """Per-user exact median (order statistic; both engines average the
    two middle elements of the identical sorted doubles)."""
    ds = _events_signals(sf_dir)

    def med_partition(df: pd.DataFrame) -> pd.DataFrame:
        sig = df["signal_id"].to_numpy()
        val = df["value"].to_numpy(dtype=np.float64)
        # one lexsort, then order-statistic medians at segment boundaries
        # (identical to np.median per group: average of the two middle
        # elements of the sorted values; values are NaN-free by schema)
        order = np.lexsort((val, sig))
        sig, val = sig[order], val[order]
        starts = segment_starts(sig)
        counts = np.diff(np.append(starts, sig.size))
        lo = starts + (counts - 1) // 2
        hi = starts + counts // 2
        return pd.DataFrame(
            {
                "signal_id": sig[starts],
                "value_median": (val[lo] + val[hi]) / 2.0,
            }
        )

    return exchange(ds, "signal_id", med_partition)


# Registry order is load-bearing: the correctness driver checks the
# first ~50 entries per round, so every ORACLE_SQL-backed query comes
# FIRST (hash-exact rows), then the rows-only queries ordered by how
# much a formal row adds over their pytest pins (the optimizer/ADF
# surfaces lead; sketch/codec queries whose exactness is approximate or
# non-SQL by DESIGN trail). tests/test_queries_registry.py pins the
# partitioning.
QUERIES = {
    # --- oracle-backed (hash-exact vs ORACLE_SQL) ---
    "signal_counts": q_signal_counts,
    "min_signal_length": q_min_signal_length,
    "doc_len": q_doc_len,
    "doc_len_quantiles": q_doc_len_quantiles,
    "difference": q_difference,
    "zscore": q_zscore,
    "rollup_1h": q_rollup_1h,
    "rollup_1d": q_rollup_1d,
    "doc_counts_by_lang": q_doc_counts_by_lang,
    "dedup_exact": q_dedup_exact,
    "token_counts": q_token_counts,
    "quality_scores": q_quality_scores,
    "similarity_topk": q_similarity_topk,
    "transcript_rollup_stats": q_transcript_rollup_stats,
    "split_contamination": q_split_contamination,
    "repetition": q_repetition,
    "tier_blocks": q_tier_blocks,
    "tier_block_sizes": q_tier_block_sizes,
    "doc_bytes": q_doc_bytes,
    "langid": q_langid,
    "minhash_neardup": q_minhash_neardup,
    "ngram_jaccard": q_ngram_jaccard,
    "embedding_neardup": q_embedding_neardup,
    "embedding_neardup_ivf": q_embedding_neardup_ivf,
    "knn_all": q_knn_all,
    "ann_ivf": q_ann_ivf,
    "vocab_topk": q_vocab_topk,
    "bloom_semijoin": q_bloom_semijoin,
    "anti_join": q_anti_join,
    "pii_counts": q_pii_counts,
    "clean_corpus": q_clean_corpus,
    "hopping_window": q_hopping_window,
    "streaming_window": q_streaming_window,
    "distinct_users": q_distinct_users,
    "group_cap": q_group_cap,
    "dataset_split": q_dataset_split,
    "sample_events": q_sample_events,
    "top_users": q_top_users,
    "orders_by_segment": q_orders_by_segment,
    "order_segments_join": q_order_segments_join,
    "sessions": q_sessions,
    "rolling_mean": q_rolling_mean,
    "running_sum": q_running_sum,
    "topk_per_user": q_topk_per_user,
    "heavy_hitters": q_heavy_hitters,
    "pricing_summary": q_pricing_summary,
    "asof_purchase_click": q_asof_purchase_click,
    "clicks_before_purchase": q_clicks_before_purchase,
    "band_join": q_band_join,
    "user_value_median": q_user_value_median,
    # --- rows-only (non-SQL-expressible or approximate by design;
    #     each pinned by ported-reference / golden pytest coverage) ---
    "sampen_optimized": q_sampen_optimized,
    "sampen_efficiency": q_sampen_efficiency,
    "adf_stationarity": q_adf_stationarity,
    "sampen_per_signal": q_sampen_per_signal,
    "transcript_rollup": q_transcript_rollup,
    "stationary_signals": q_stationary_signals,
    "tier_block_enc": q_tier_block_enc,
    "fingerprints": q_fingerprints,
    "simhash": q_simhash,
    "simhash_neardup": q_simhash_neardup,
    "doc_chunks": q_doc_chunks,
    "seq_pack": q_seq_pack,
    "weighted_mix": q_weighted_mix,
    # event_types rotated out of the oracle prefix in round 5 (its
    # trivial-groupby shape is already hash-covered by doc_counts_by_lang)
    # to free the slot for heavy_hitters' full distributed sketch plan
    "event_types": q_event_types,
    "multimodal_features": q_multimodal_features,
    "image_resize": q_image_resize,
    "frame_sample": q_frame_sample,
    "distinct_users_approx": q_distinct_users_approx,
    "value_quantiles_hdr": q_value_quantiles_hdr,
    "reservoir_sample": q_reservoir_sample,
}


def _rollup_sql(step_us: int) -> str:
    return f"""
SELECT user_id,
       -- ((x % s + s) % s) keeps FLOOR semantics for negative epochs
       -- (DuckDB % truncates toward zero; the numpy side floors)
       epoch_us(ts) - ((epoch_us(ts) % {step_us} + {step_us}) % {step_us})
         AS bucket_us,
       COUNT(*) AS n_obs,
       MIN(value) AS value_min,
       MAX(value) AS value_max,
       CAST(SUM(CAST(value AS DECIMAL(18,6))) AS DOUBLE) AS value_sum,
       CAST(SUM(CAST(value AS DECIMAL(18,6))) AS DOUBLE) / COUNT(*) AS value_mean
FROM events
GROUP BY 1, 2
"""


def _langid_sql() -> str:
    """SQL twin of q_langid, generated from the SAME stopword sets so the
    two sides cannot drift."""
    from eristropy_ray.datapipe.textstats import _STOPWORDS

    def inlist(ws: set[str]) -> str:
        return "(" + ",".join(f"'{w}'" for w in sorted(ws)) + ")"

    score_cols = ",\n    ".join(
        f"CAST(len(list_filter(ws, x -> x IN {inlist(sw)})) AS DOUBLE)"
        f"/greatest(len(ws),1) AS s_{lang}"
        for lang, sw in sorted(_STOPWORDS.items())
    )
    langs = sorted(_STOPWORDS) + ["zh"]
    lang_list = "[" + ",".join(f"'{x}'" for x in langs) + "]"
    score_list = "[" + ",".join(f"s_{x}" for x in langs) + "]"
    return f"""
WITH w AS (
  SELECT doc_id, text,
         list_transform(regexp_extract_all(text, '[\\p{{L}}]+'), x -> lower(x)) AS ws
  FROM documents
), sc AS (
  SELECT doc_id,
    {score_cols},
    CAST(len(regexp_extract_all(text, '[\\x{{4E00}}-\\x{{9FFF}}]')) AS DOUBLE)
      /greatest(length(text),1) AS s_zh
  FROM w
), u AS (
  SELECT doc_id, unnest({lang_list}) AS lang,
         unnest({score_list}) AS score FROM sc
), r AS (
  SELECT doc_id, lang, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang ASC) AS rn
  FROM u
)
SELECT doc_id, CASE WHEN score >= 0.02 THEN lang ELSE 'unknown' END AS lang_pred
FROM r WHERE rn = 1
"""


def _split_case_sql(col: str) -> str:
    """The dataset_split hash as a SQL CASE expression — ONE definition
    shared by the dataset_split and split_contamination oracles, matching
    ``_split_of``'s numpy arithmetic exactly (mod p before the multiply
    so int64 never overflows; floor-safe double-mod for negative ids)."""
    p = _SPLIT_P
    h = f"(({col} % {p} + {p}) % {p}) * {_SPLIT_MUL} % {p} % 100"
    return (
        f"CASE WHEN {h} < {_SPLIT_TRAIN} THEN 'train' "
        f"WHEN {h} < {_SPLIT_VAL} THEN 'val' ELSE 'test' END"
    )


def _minhash_sql() -> str:
    """All-pairs word-shingle-Jaccard twin of q_minhash_neardup.

    The word splitter's character class is GENERATED from
    ``dedup.WS_RANGES`` (the same Python-``\\s`` codepoint set that
    ``dedup._whitespace_mask`` implements byte-wise), so the two engines
    tokenize identically. Shingle semantics mirror
    ``dedup.word_shingle_hashes``: docs with >= 3 words use the distinct
    3-word shingle set; shorter docs collapse to one shingle (the whole
    word tuple — a space join is unambiguous because words contain no
    whitespace). jaccard = inter/union as an exact int->double division.
    """
    from eristropy_ray.datapipe.dedup import WS_RANGES

    cls = "".join(
        (f"\\x{{{lo:04X}}}" if lo == hi else f"\\x{{{lo:04X}}}-\\x{{{hi:04X}}}")
        for lo, hi in WS_RANGES
    )
    return f"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(text, '[^{cls}]+') AS ws FROM documents
), sh AS (
  SELECT doc_id,
    CASE WHEN len(ws) >= 3 THEN
      list_distinct(list_transform(generate_series(1, len(ws)-2),
        i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
    ELSE [array_to_string(ws, ' ')] END AS grams
  FROM w
), p AS (
  SELECT CAST(a.doc_id AS BIGINT) AS doc_a, CAST(b.doc_id AS BIGINT) AS doc_b,
         len(list_intersect(a.grams, b.grams)) AS inter,
         len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams)) AS uni
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
)
SELECT doc_a, doc_b, CAST(inter AS DOUBLE) / uni AS jaccard
FROM p WHERE CAST(inter AS DOUBLE) / uni >= {_MINHASH_TAU}
"""


_TIER_BLOCKS_SQL = f"""
WITH t(tier, step) AS (VALUES ('1m', 60000000), ('1h', 3600000000), ('1d', 86400000000)),
b AS (
  SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id, t.tier, t.step,
         epoch_us(ts) - ((epoch_us(ts) % t.step + t.step) % t.step) AS bucket
  FROM events, t GROUP BY 1,2,3,4
), g AS (
  SELECT conv_id, tier, step, MIN(bucket) AS b0, MAX(bucket) AS b1
  FROM b GROUP BY 1,2,3
), grid AS (
  SELECT g.conv_id, g.tier, g.step, gs.i AS idx, g.b0 + gs.i*g.step AS bucket
  FROM g, LATERAL (
    SELECT unnest(generate_series(0, CAST((g.b1-g.b0)/g.step AS BIGINT))) AS i
  ) gs
)
SELECT grid.conv_id, grid.tier,
       MIN(grid.bucket) AS block_start_us,
       COUNT(*) AS n_points,
       CAST(SUM(CASE WHEN b.bucket IS NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS gap_filled_points
FROM grid LEFT JOIN b
  ON b.conv_id = grid.conv_id AND b.tier = grid.tier AND b.bucket = grid.bucket
GROUP BY grid.conv_id, grid.tier, grid.idx // {EncodeConfig().max_points}
"""


def _clean_corpus_sql() -> str:
    """Composed twin of q_clean_corpus: the langid oracle as a CTE, then
    the same quality filter, dedup-by-text and token count."""
    return f"""
WITH lang AS ({_langid_sql()}),
scored AS (
  SELECT d.doc_id, d.text,
         CAST(len(regexp_extract_all(d.text, {_sql_regex(_WS_TOKEN_PAT)})) AS BIGINT) AS n_tokens
  FROM documents d JOIN lang ON d.doc_id = lang.doc_id
  WHERE length(d.text) >= {_CLEAN_MIN_CHARS}
    AND CAST(length(regexp_extract_all(d.text, '[.!?,;:]')) AS DOUBLE)
        / length(d.text) < {_CLEAN_MAX_PUNCT}
    AND lang.lang_pred = 'en'
)
SELECT MIN(doc_id) AS doc_id, MIN(n_tokens) AS n_tokens
FROM scored GROUP BY text
"""


_NEARDUP_SQL = f"""
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {_NEARDUP_TAU}
"""


_KNN_SQL = f"""
WITH sims AS (
  SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id,
         ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                      CAST(b.embedding AS DOUBLE[])), 4) AS sim
  FROM embeddings a, embeddings b
  WHERE a.vec_id <> b.vec_id
)
SELECT vec_id, neighbor_id, sim FROM (
  SELECT vec_id, neighbor_id, sim,
         row_number() OVER (PARTITION BY vec_id
                            ORDER BY sim DESC, neighbor_id) AS rk
  FROM sims
) WHERE rk <= {_KNN_K}
"""


ORACLE_SQL = {
    "minhash_neardup": _minhash_sql(),
    # raw_bytes = 8 B x (1 ts + n value columns) per gap-filled point;
    # the multiplier is GENERATED from EncodeConfig so SQL cannot drift
    "tier_block_sizes": f"""
SELECT conv_id, tier, block_start_us,
       CAST(n_points * 8 * {1 + len(EncodeConfig().columns)} AS BIGINT)
         AS raw_bytes
FROM ({_TIER_BLOCKS_SQL})
""",
    "clean_corpus": _clean_corpus_sql(),
    "langid": _langid_sql(),
    "tier_blocks": _TIER_BLOCKS_SQL,
    "ngram_jaccard": f"""
WITH g AS (
  SELECT doc_id, substring(text, gs.i, {_NGRAM_K}) AS gram
  FROM documents, LATERAL (
    SELECT unnest(generate_series(1, greatest(length(text) - {_NGRAM_K - 1}, 1))) AS i
  ) gs(i)
), s AS (
  SELECT doc_id, list(DISTINCT gram) AS grams FROM g GROUP BY doc_id
), p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.grams, b.grams)) AS inter,
         len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams)) AS uni
  FROM s a JOIN s b ON a.doc_id < b.doc_id
)
SELECT doc_a, doc_b, CAST(inter AS DOUBLE) / uni AS jaccard
FROM p WHERE CAST(inter AS DOUBLE) / uni >= {_NGRAM_TAU}
""",
    "embedding_neardup": _NEARDUP_SQL,
    # unnest of two same-length lists in one SELECT zips in DuckDB, so
    # each q lands beside its quantile; interpolation parity with
    # quantile_cont is fuzz-pinned in tests/test_queries_registry.py.
    "doc_len_quantiles": f"""
SELECT unnest([{", ".join(map(str, _DOC_LEN_QS))}]) AS q,
       unnest(quantile_cont(length(text),
                            [{", ".join(map(str, _DOC_LEN_QS))}])) AS value
FROM documents
""",
    # The IVF-bucketed scale path recovers the exact pair set at
    # n_probe=8/16 (recall 1.0 asserted in tests/test_datapipe.py on
    # both corpora), so its oracle IS the exact all-pairs twin.
    "embedding_neardup_ivf": _NEARDUP_SQL,
    # ann_ivf probes every cell, where IVF is exactly brute force (every
    # member allowed for every query) — the knn_all twin checks the
    # whole distributed route/partial/merge machinery.
    "ann_ivf": _KNN_SQL,
    # Bloom prefilter + exact verification = the plain semi-join.
    "bloom_semijoin": """
SELECT event_id, user_id, epoch_us(ts) AS ts_us, value
FROM events
WHERE event_type = 'click' AND user_id IN (
  SELECT user_id FROM events WHERE event_type = 'purchase')
""",
    "distinct_users": """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type
""",
    "streaming_window": f"""
WITH a AS (
  SELECT user_id, event_id, epoch_us(ts) AS ts_us, value,
         MAX(epoch_us(ts)) OVER (
           PARTITION BY user_id
           ORDER BY event_id + CASE WHEN event_id % {_STREAM_DELAY_EVERY} = {_STREAM_DELAY_AT} THEN {_STREAM_DELAY_SHIFT} ELSE 0 END,
                    event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM events
), b AS (
  SELECT user_id, ts_us, value,
         (wm IS NOT NULL AND ts_us < wm - {_STREAM_LATENESS_US}) AS late,
         ts_us - ((ts_us % {US_1H} + {US_1H}) % {US_1H}) AS win
  FROM a
)
SELECT user_id AS signal_id, win AS window_start_us,
       CAST(COALESCE(SUM(CASE WHEN NOT late THEN 1 END), 0) AS BIGINT) AS n_obs,
       CAST(COALESCE(SUM(CASE WHEN NOT late
                          THEN CAST(value AS DECIMAL(18,6)) END), 0) AS DOUBLE)
         AS value_sum,
       CAST(COALESCE(SUM(CASE WHEN late THEN 1 END), 0) AS BIGINT) AS n_late
FROM b GROUP BY 1, 2
""",
    "hopping_window": f"""
WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us, value FROM events),
w AS (
  SELECT user_id, value,
         ts_us - ((ts_us % {_HOP_SLIDE_US} + {_HOP_SLIDE_US}) % {_HOP_SLIDE_US})
           - CAST(k.i AS BIGINT) * {_HOP_SLIDE_US} AS win_start
  FROM e, (VALUES {",".join(f"({i})" for i in range(_HOPS))}) k(i)
)
SELECT user_id AS signal_id, win_start AS window_start_us,
       COUNT(*) AS n_obs,
       CAST(SUM(CAST(value AS DECIMAL(18,6))) AS DOUBLE) AS value_sum
FROM w GROUP BY 1, 2
""",
    "signal_counts": """
SELECT user_id, COUNT(*) AS n_obs, MIN(value) AS value_min, MAX(value) AS value_max
FROM events GROUP BY user_id
""",
    "min_signal_length": """
SELECT MIN(n_obs) AS min_len
FROM (SELECT COUNT(*) AS n_obs FROM events GROUP BY user_id)
""",
    "doc_len": """
SELECT doc_id, CAST(length(text) AS DOUBLE) AS value FROM documents
""",
    "difference": """
SELECT signal_id, ts_us, value FROM (
  SELECT user_id AS signal_id, epoch_us(ts) AS ts_us,
         value - LAG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS value
  FROM events
) WHERE value IS NOT NULL
""",
    "zscore": """
WITH s AS (
  SELECT user_id AS signal_id, epoch_us(ts) AS ts_us, value,
         COUNT(*) OVER w AS n,
         CAST(SUM(CAST(value AS DECIMAL(18,6))) OVER w AS DOUBLE) AS sv,
         CAST(SUM(CAST(value * value AS DECIMAL(24,6))) OVER w AS DOUBLE) AS sq
  FROM events
  WINDOW w AS (PARTITION BY user_id)
)
SELECT signal_id, ts_us, (value - sv / n) / sqrt((sq - sv * sv / n) / (n - 1)) AS value
FROM s WHERE n >= 2
""",
    "rollup_1h": _rollup_sql(US_1H),
    "rollup_1d": _rollup_sql(US_1D),
    "doc_counts_by_lang": """
SELECT lang, COUNT(*) AS n_docs FROM documents GROUP BY lang
""",
    "dedup_exact": """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_dupes FROM documents GROUP BY text
""",
    "token_counts": f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, {_sql_regex(_WS_TOKEN_PAT)})) AS BIGINT)
         AS n_tokens,
       CAST(len(regexp_extract_all(text, {_sql_regex(_BPE_PAT)})) AS BIGINT)
         AS n_bpe_tokens
FROM documents
""",
    "quality_scores": """
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(length(regexp_extract_all(text, '[.!?,;:]')) AS BIGINT) AS n_punct,
       CAST(length(regexp_extract_all(text, '[A-Z]')) AS BIGINT) AS n_upper,
       CAST(length(regexp_extract_all(text, '[.!?,;:]')) AS DOUBLE)
         / greatest(CAST(length(text) AS DOUBLE), 1.0) AS punct_ratio,
       CAST(length(regexp_extract_all(text, '[A-Z]')) AS DOUBLE)
         / greatest(CAST(length(text) AS DOUBLE), 1.0) AS upper_ratio
FROM documents
""",
    "clicks_before_purchase": """
WITH p AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us
           FROM events WHERE event_type = 'purchase'),
     c AS (SELECT user_id, epoch_us(ts) AS cts
           FROM events WHERE event_type = 'click')
SELECT p.event_id, p.user_id, p.ts_us,
       CAST(COALESCE(SUM(CASE WHEN c.cts > p.ts_us - 3600000000
                          AND c.cts < p.ts_us THEN 1 END), 0) AS BIGINT) AS n_clicks_1h
FROM p LEFT JOIN c ON p.user_id = c.user_id
GROUP BY p.event_id, p.user_id, p.ts_us
""",
    "band_join": f"""
WITH p AS (SELECT event_id, epoch_us(ts) AS ts_us
           FROM events WHERE event_type = 'purchase'),
     c AS (SELECT epoch_us(ts) AS cts
           FROM events WHERE event_type = 'click')
SELECT p.event_id, p.ts_us,
       CAST(COUNT(c.cts) AS BIGINT) AS n_clicks_10m
FROM p LEFT JOIN c
  ON c.cts >= p.ts_us - {_BAND_JOIN_WINDOW_US}
 AND c.cts < p.ts_us
GROUP BY p.event_id, p.ts_us
""",
    "anti_join": f"""
SELECT event_id, user_id, epoch_us(ts) AS ts_us, value
FROM events e
WHERE event_type = 'click' AND NOT EXISTS (
  SELECT 1 FROM events p
  WHERE p.event_type = 'purchase' AND p.user_id = e.user_id
    AND epoch_us(p.ts) // {US_1D} = epoch_us(e.ts) // {US_1D})
""",
    "user_value_median": """
SELECT user_id AS signal_id, MEDIAN(value) AS value_median
FROM events GROUP BY user_id
""",
    "asof_purchase_click": """
WITH p AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us
           FROM events WHERE event_type = 'purchase'),
     c AS (SELECT user_id, epoch_us(ts) AS click_ts_us,
                  MAX(event_id) AS click_event_id
           FROM events WHERE event_type = 'click'
           GROUP BY user_id, epoch_us(ts))
SELECT p.event_id, p.user_id, p.ts_us,
       c.click_event_id, c.click_ts_us,
       p.ts_us - c.click_ts_us AS lag_us
FROM p ASOF JOIN c
  ON p.user_id = c.user_id AND p.ts_us > c.click_ts_us
""",
    # heavy_hitters' twin is exact because the test corpus vocabulary
    # (31 words) is far below the 256-row summary: Misra-Gries never
    # evicts, so every estimate equals the exact count and the whole
    # distributed sketch plan (per-batch summaries -> per-part merges ->
    # final merge -> (est DESC, word ASC) top-n) is hash-checkable — the
    # same full-capacity pattern that makes ann_ivf oracle-checkable by
    # probing every cell. The n/k undercount bound for the general case
    # keeps its own pin in tests/test_datapipe.py.
    "heavy_hitters": f"""
SELECT word, CAST(COUNT(*) AS BIGINT) AS est
FROM (SELECT unnest(regexp_extract_all(text, {_sql_regex(_WS_TOKEN_PAT)})) AS word
      FROM documents)
GROUP BY word ORDER BY est DESC, word LIMIT {_HEAVY_HITTERS_TOPN}
""",
    "pricing_summary": """
SELECT l_returnflag, l_linestatus,
       COUNT(*) AS n_rows,
       CAST(SUM(CAST(l_quantity AS DECIMAL(18,6))) AS DOUBLE) AS sum_qty,
       CAST(SUM(CAST(l_extendedprice AS DECIMAL(18,6))) AS DOUBLE) AS sum_base_price,
       CAST(SUM(CAST(l_extendedprice * (1.0 - l_discount) AS DECIMAL(24,6))) AS DOUBLE)
         AS sum_disc_price,
       CAST(SUM(CAST(l_quantity AS DECIMAL(18,6))) AS DOUBLE) / COUNT(*) AS avg_qty,
       CAST(SUM(CAST(l_extendedprice AS DECIMAL(18,6))) AS DOUBLE) / COUNT(*) AS avg_price
FROM lineitem
GROUP BY l_returnflag, l_linestatus
""",
    "sessions": """
WITH marked AS (
  SELECT user_id AS signal_id, epoch_us(ts) AS ts_us, event_id,
         CASE WHEN LAG(epoch_us(ts)) OVER w IS NULL
                   OR epoch_us(ts) - LAG(epoch_us(ts)) OVER w > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), sess AS (
  SELECT signal_id, ts_us,
         SUM(new_s) OVER (PARTITION BY signal_id
                          ORDER BY ts_us, event_id) AS session_id
  FROM marked
)
SELECT signal_id, CAST(session_id AS BIGINT) AS session_id,
       COUNT(*) AS n_events, MIN(ts_us) AS start_us, MAX(ts_us) AS end_us,
       MAX(ts_us) - MIN(ts_us) AS duration_us
FROM sess GROUP BY 1, 2
""",
    "rolling_mean": """
SELECT user_id AS signal_id, epoch_us(ts) AS ts_us,
       CAST(SUM(CAST(value AS DECIMAL(18,6)))
              OVER (PARTITION BY user_id ORDER BY ts, event_id
                    ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS DOUBLE)
         / LEAST(CAST(row_number() OVER (PARTITION BY user_id
                    ORDER BY ts, event_id) AS DOUBLE), 5.0) AS value
FROM events
""",
    "running_sum": """
SELECT user_id AS signal_id, epoch_us(ts) AS ts_us,
       CAST(event_id AS BIGINT) AS event_id,
       CAST(SUM(CAST(value AS DECIMAL(18,6)))
              OVER (PARTITION BY user_id ORDER BY ts, event_id
                    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
            AS DOUBLE) AS running_sum
FROM events
""",
    "topk_per_user": f"""
SELECT user_id, event_id, value, CAST(rk AS BIGINT) AS rk
FROM (SELECT user_id, event_id, value,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY value DESC, event_id) AS rk
      FROM events)
WHERE rk <= {_TOPK_PER_USER_K}
""",
    "sample_events": """
SELECT event_id, user_id, epoch_us(ts) AS ts_us, value
FROM events WHERE event_id & 15 = 3
""",
    "vocab_topk": f"""
SELECT word, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT unnest(regexp_extract_all(text, {_sql_regex(_WS_TOKEN_PAT)})) AS word
      FROM documents)
GROUP BY word ORDER BY n DESC, word LIMIT {_VOCAB_K}
""",
    "pii_counts": f"""
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(len(regexp_extract_all(text, {_sql_regex(_EMAIL_PAT)})) AS BIGINT)
         AS n_emails,
       CAST(len(regexp_extract_all(text, {_sql_regex(_URL_PAT)})) AS BIGINT)
         AS n_urls
FROM documents
""",
    "transcript_rollup_stats": """
WITH t(tier, step) AS (VALUES ('1m', 60000000), ('1h', 3600000000),
                              ('1d', 86400000000)),
e AS (
  SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
         length(COALESCE(props, '')) AS v,
         epoch_us(ts) AS ts_us
  FROM events
)
SELECT e.conv_id, t.tier,
       ts_us - ((ts_us % t.step + t.step) % t.step) AS bucket_us,
       COUNT(*) AS n_turns,
       CAST(SUM(v) AS DOUBLE) AS value_sum,
       CAST(MIN(v) AS DOUBLE) AS value_min,
       CAST(MAX(v) AS DOUBLE) AS value_max,
       CAST(SUM(v) AS DOUBLE) / COUNT(*) AS value_mean
FROM e, t GROUP BY 1, 2, 3
""",
    "group_cap": f"""
SELECT signal_id, ts_us, event_id, value FROM (
  SELECT user_id AS signal_id, epoch_us(ts) AS ts_us,
         CAST(event_id AS BIGINT) AS event_id, value,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rk
  FROM events
) WHERE rk <= {_GROUP_CAP_K}
""",
    "dataset_split": f"""
SELECT CAST(doc_id AS BIGINT) AS doc_id, {_split_case_sql('doc_id')} AS split
FROM documents
""",
    "split_contamination": f"""
WITH pairs AS ({{minhash}}),
labeled AS (
  SELECT doc_a, doc_b, jaccard,
         {_split_case_sql('doc_a')} AS split_a,
         {_split_case_sql('doc_b')} AS split_b
  FROM pairs
)
SELECT * FROM labeled WHERE split_a <> split_b
""".replace("{minhash}", _minhash_sql()),
    "repetition": f"""
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(greatest(length(text) - {_REPETITION_K - 1}, 0) AS BIGINT) AS n_grams,
       CASE WHEN length(text) >= {_REPETITION_K} THEN (
         SELECT CAST(COUNT(DISTINCT substring(d.text, gs.i, {_REPETITION_K})) AS BIGINT)
         FROM (SELECT unnest(generate_series(1, length(d.text) - {_REPETITION_K - 1})) AS i) gs(i)
       ) ELSE 0 END AS n_distinct,
       CASE WHEN length(text) >= {_REPETITION_K} THEN 1.0 - (
         SELECT CAST(COUNT(DISTINCT substring(d.text, gs.i, {_REPETITION_K})) AS DOUBLE)
         FROM (SELECT unnest(generate_series(1, length(d.text) - {_REPETITION_K - 1})) AS i) gs(i)
       ) / (length(text) - {_REPETITION_K - 1}) ELSE 0.0 END AS rep_ratio
FROM documents d
""",
    "top_users": f"""
SELECT user_id, COUNT(*) AS n_obs FROM events
GROUP BY user_id ORDER BY n_obs DESC, user_id LIMIT {_TOP_USERS_K}
""",
    "order_segments_join": """
SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey, c_mktsegment, o_totalprice
FROM orders JOIN customer ON o_custkey = c_custkey
""",
    "orders_by_segment": """
SELECT c_mktsegment,
       COUNT(*) AS n_orders,
       CAST(SUM(CAST(o_totalprice AS DECIMAL(18,6))) AS DOUBLE) AS total_price,
       CAST(SUM(CAST(o_totalprice AS DECIMAL(18,6))) AS DOUBLE) / COUNT(*) AS avg_price
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
""",
    "doc_bytes": """
SELECT doc_id, octet_length(encode(text)) AS n_bytes FROM documents
""",
    "knn_all": _KNN_SQL,
    "similarity_topk": f"""
WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS embedding
           FROM embeddings WHERE vec_id = 0)
SELECT e.vec_id,
       ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                    (SELECT embedding FROM q)), 4) AS sim
FROM embeddings e
ORDER BY sim DESC, vec_id
LIMIT {_SIMILARITY_K}
""",
}
