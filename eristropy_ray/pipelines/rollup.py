"""Flagship pipeline: transcripts -> entropy rollups -> retention tiers.

Two physical plans over one logical plan (SURVEY.md §4.2):

1. **Colocated** (conversation-partitioned files — the production ingest
   layout): ZERO shuffles, one task per group of whole files (one group
   per CPU, packed largest-first; see ``_path_dataset``). Each task of
   ``fused_rollup_encode_colocated`` reads and projects (value=len(text))
   its files one by one, then runs ONE all-tier rollup, atomic rollup-row
   checkpoint and gap-fill + Gorilla/DoD encode over the whole group; the
   block stream goes straight to the Parquet sink with no barriers.
   ``rollup_files_colocated`` is the same body, rows only.

2. **Bucketed** (any layout): ``rollup_dataset`` pays ONE hash shuffle —
   a day-salted ``part = hash(conv_id, day) % P`` then
   ``groupby(part).map_groups`` over whole hash buckets (per-task Python
   cost O(P), not O(windows)); ``encode_dataset`` regroups the rows by
   conversation through ``pipelines/exchange.py``.

The colocated plans map over one path Dataset built by ``_path_dataset``
(one fn call per file group). That Dataset switches off Ray Data's
operator resource reservation on its own context, so the fused map runs
one task per CPU instead of half-wide; the session's global
``DataContext`` is never written. The bucketed plan keeps reservation,
which guards its exchanges.

Streaming properties: no driver-side materialization of the turn table;
the rollup output is ~windows-sized (orders smaller than input); blocks
are smaller still. Never call ray.init() here — the session owner does.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from eristropy_ray.config import EncodeConfig, RollupConfig
from eristropy_ray.pipelines.exchange import exchange
from eristropy_ray.stages.encode import make_partition_encode_fn
from eristropy_ray.stages.project import add_partition_key, project_turns
from eristropy_ray.stages.windows import ROLLUP_COLUMNS, rollup_windows
from eristropy_ray.state.manifest import Manifest
from eristropy_ray.state.metrics import MetricsLog


def _footer_rows(path: str) -> int:
    """Exact row count of a written parquet dir from footer metadata —
    no data re-scan (the write already streamed the rows once; counting
    metrics must not read them back)."""
    total = 0
    for root, _dirs, names in os.walk(path):
        for n in names:
            if n.endswith(".parquet"):
                total += pq.ParquetFile(
                    os.path.join(root, n)
                ).metadata.num_rows
    return total

TRANSCRIPT_READ_COLUMNS = ["conv_id", "turn_idx", "text", "ts"]


def _pin_arrow_threads() -> None:
    """Cap Arrow's global thread pools inside Ray workers.

    Each worker defaults to a CPU-count-sized Arrow pool; with 32
    concurrent single-CPU tasks that's 32x oversubscription on reads and
    decompression. Idempotent, once per worker process."""
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)


def _cluster_cpus() -> int | None:
    """CPUs of the Ray session this process is in, None outside one."""
    if not ray.is_initialized():
        return None
    return int(ray.cluster_resources().get("CPU", 8))


def _default_partitions(cfg: RollupConfig) -> int:
    """Twice the session's CPUs, at least 16 (no ``cfg`` field sets it)."""
    return max(2 * (_cluster_cpus() or 8), 16)


def _rollup_table(t: pa.Table, cfg: RollupConfig) -> pa.Table:
    """Rollup rows of projected turns (``conv_id``, ``turn_idx``, ``ts``,
    ``value``; other columns are ignored) holding whole (conv, day)
    units.

    Conversation ids go to ``rollup_windows`` as dictionary codes, which
    number them in first-appearance order as the strings would, and come
    back through one ``take``."""
    conv = t["conv_id"].combine_chunks().dictionary_encode()
    cols = rollup_windows(
        conv_id=conv.indices.to_numpy(zero_copy_only=False),
        turn_idx=t["turn_idx"].to_numpy(zero_copy_only=False),
        ts_us=t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
        value=t["value"].to_numpy(zero_copy_only=False),
        cfg=cfg,
    )
    return pa.table(
        {
            "conv_id": conv.dictionary.take(cols["conv_id"].astype(np.int64)),
            "tier": pa.array(cols["tier"], pa.string()),
            "bucket_ts": pa.array(cols["bucket_ts"], pa.timestamp("us")),
            "n_turns": pa.array(cols["n_turns"], pa.int64()),
            **{
                name: pa.array(cols[name], pa.float64())
                for name in ROLLUP_COLUMNS[4:]
            },
        }
    )


def rollup_dataset(
    turns: rd.Dataset, cfg: RollupConfig = RollupConfig()
) -> rd.Dataset:
    """Transcript-shaped Dataset -> rollup-row Dataset (lazy), any layout.

    The day salt of ``add_partition_key`` is the hot-conversation skew
    guard: a long conversation spreads over partitions by day, while
    every (conv, day) unit — hence every window of every tier <= 1d —
    stays whole inside one partition."""
    nparts = _default_partitions(cfg)
    projected = turns.map_batches(project_turns, batch_format="pyarrow")
    keyed = projected.map_batches(
        lambda b: add_partition_key(b, nparts), batch_format="pyarrow"
    )

    def rollup_partition(t: pa.Table) -> pa.Table:
        return _rollup_table(t, cfg)

    return keyed.groupby("part").map_groups(
        rollup_partition, batch_format="pyarrow"
    )


def encode_dataset(
    rollup: rd.Dataset, enc_cfg: EncodeConfig = EncodeConfig()
) -> rd.Dataset:
    """Rollup rows -> gap-filled compressed tier blocks (lazy), any layout.

    Keyed on the unsalted conversation: gap-fill needs a conversation's
    ENTIRE tier series in one call to build the dense bucket grid."""
    return exchange(
        rollup, "conv_id", make_partition_encode_fn(enc_cfg), "pyarrow"
    )


def _file_groups(files: list[str], n: int, max_bytes: int | None) -> list[list[str]]:
    """Whole files packed into ``n`` groups: largest first onto the
    lightest group (LPT, Graham 1969). A file that would push the
    lightest group past ``max_bytes`` opens a group of its own, so files
    of ``max_bytes`` or more each get one."""
    groups: list[list[str]] = [[] for _ in range(n)]
    heap = [(0, i) for i in range(n)]
    sizes = {f: os.path.getsize(f) for f in files}
    for f in sorted(files, key=sizes.get, reverse=True):
        load, i = heapq.heappop(heap)
        if load and max_bytes is not None and load + sizes[f] > max_bytes:
            heapq.heappush(heap, (load, i))
            load, i = 0, len(groups)
            groups.append([])
        groups[i].append(f)
        heapq.heappush(heap, (load + sizes[f], i))
    return groups


def _path_dataset(files: list[str]) -> rd.Dataset:
    """One-row-per-file-group Dataset that the colocated plans map over.

    Ray's fixed cost per task is as large as a small file's work, so the
    files are packed into ``min(len(files), cluster CPUs)`` groups by
    ``_file_groups``, whose byte bound is the context's
    ``target_max_block_size`` (128 MiB): a layout of large files still
    gets one task per file. Outside a Ray session, or in one that reports
    no CPUs, every file is its own group. Each row holds one group's
    ``paths``.

    Mapped with ``batch_size=1`` it guarantees exactly one fn call per
    group of whole files, so a conversation is never split; one call
    holds its group's turns at once, so the byte bound also bounds its
    memory. (read_parquet
    + override_num_blocks is only a hint: Ray's dynamic block splitting
    can still cut a file — and therefore a conversation — across blocks,
    which silently breaks the window contract; observed on the
    hot-conversation file.)

    Operator resource reservation is switched off on THIS Dataset's own
    context. Ray Data's reservation allocator gives the plan's input
    operator an equal share it never uses, so a plan whose only work is
    one map runs half-wide: one task at a time on 2 CPUs. ``from_items``
    copies the session's DataContext and every downstream op (the
    encode map, the parquet sink) shares that copy, so the caller's
    global context is untouched.
    """
    groups = _file_groups(
        files,
        min(len(files), _cluster_cpus() or len(files)),
        rd.DataContext.get_current().target_max_block_size,
    )
    paths = rd.from_items([{"paths": g} for g in groups])
    paths.context.op_resource_reservation_enabled = False
    return paths


def _rollup_group(paths: list[str], cfg: RollupConfig) -> tuple[pa.Table, np.ndarray]:
    """Rollup rows of a group of whole files from ONE ``_rollup_table``
    call (each file read and projected alone, so its ``text`` goes before
    the next read), and each row's index in ``paths``. Rows are
    tier-major and, within a tier, in file order. A conversation in two
    files raises ``ValueError``."""
    _pin_arrow_threads()
    turns = [
        project_turns(pq.read_table(p, columns=TRANSCRIPT_READ_COLUMNS))
        for p in paths
    ]
    ids = [pc.unique(t["conv_id"]) for t in turns]
    file_of = np.repeat(np.arange(len(paths)), [len(u) for u in ids])
    ids = pa.concat_arrays(ids)
    first = pc.index_in(ids, value_set=ids).to_numpy()
    seen = first != np.arange(len(ids))
    if seen.any():
        i = seen.argmax()
        raise ValueError(
            f"conversation {ids[i].as_py()!r} is in both "
            f"{paths[file_of[first[i]]]} and {paths[file_of[i]]}"
        )
    rollup = _rollup_table(pa.concat_tables(turns), cfg)
    return rollup, file_of[pc.index_in(rollup["conv_id"], value_set=ids).to_numpy()]


def rollup_files_colocated(
    files: list[str], cfg: RollupConfig = RollupConfig()
) -> rd.Dataset:
    """Zero-shuffle rollup rows for conversation-partitioned input layouts.

    CONTRACT: every conversation's turns live entirely inside one input
    file (the synthesizer guarantees this; a production ingest at 10^12
    turns would bucket-by-conv at write time for exactly this reason —
    it converts the one big all-to-all exchange into embarrassingly
    parallel per-file work); a conversation in two files of one group
    raises ``ValueError``. One task per group of whole files (see
    ``_path_dataset``) rolls up all tiers of the group in one call
    (``_rollup_group``); ``fused_rollup_encode_colocated`` runs the same
    body and also checkpoints and encodes in the same task.

    For unpartitioned inputs use ``rollup_dataset``, which pays the hash
    shuffle to establish the same co-location.
    """

    def read_project_rollup(batch: pa.Table) -> pa.Table:
        return _rollup_group(batch["paths"][0].as_py(), cfg)[0]

    return _path_dataset(files).map_batches(
        read_project_rollup, batch_format="pyarrow", batch_size=1
    )


def fused_rollup_encode_colocated(
    files: list[str],
    rows_out_dir: str,
    cfg: RollupConfig = RollupConfig(),
    enc_cfg: EncodeConfig = EncodeConfig(),
) -> rd.Dataset:
    """Single-pass flagship for conversation-partitioned layouts.

    Each task takes one group of whole files (see ``_path_dataset``) and
    runs one body over the group: read + project each file -> one
    all-tier rollup (``_rollup_group``) -> CHECKPOINT the rollup rows
    itself (atomic tmp+rename, hive-partitioned by tier, one file per
    (input file, tier)) -> one encode into gap-filled compressed blocks.
    One map stage, zero Dataset barriers — the returned Dataset streams
    blocks straight into its sink while other groups are still running.
    The side-effect write is idempotent (same input file -> same output
    path, whatever the grouping), so Ray task retries and resumes are
    safe.
    """
    encode_fn = make_partition_encode_fn(enc_cfg)

    def task(batch: pa.Table) -> pa.Table:
        # batch_size=1 below: each call sees exactly one file group
        paths = batch["paths"][0].as_py()
        rollup, f = _rollup_group(paths, cfg)
        tiers = rollup["tier"].to_numpy(zero_copy_only=False)
        # tier-major rows in file order: each (file, tier) is one slice
        new = np.ones(f.size, dtype=bool)
        new[1:] = (f[1:] != f[:-1]) | (tiers[1:] != tiers[:-1])
        bounds = np.append(np.flatnonzero(new), f.size)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            src = paths[f[lo]]
            # stem alone collides for equal basenames in different dirs —
            # whichever task finished last would silently overwrite the
            # other's rollup checkpoint; salt with a path digest
            stem = Path(src).stem + "-" + hashlib.sha1(src.encode()).hexdigest()[:8]
            d = Path(rows_out_dir) / f"tier={tiers[lo]}"
            d.mkdir(parents=True, exist_ok=True)
            tmp = d / f".{stem}.parquet.tmp"
            pq.write_table(
                rollup.slice(lo, hi - lo).drop_columns(["tier"]), tmp,
                use_dictionary=["conv_id"],
            )
            os.replace(tmp, d / f"{stem}.parquet")
        return encode_fn(rollup)

    return _path_dataset(files).map_batches(
        task, batch_format="pyarrow", batch_size=1
    )


def run_rollup_job(
    input_files: list[str],
    out_dir: str,
    cfg: RollupConfig = RollupConfig(),
    enc_cfg: EncodeConfig = EncodeConfig(),
    n_shards: int = 4,
    resume: bool = True,
    layout: str = "unpartitioned",
) -> dict:
    """Checkpointed, resumable rollup over a list of transcript files.

    Shards = strided round-robin input-file groups, ``files[idx::n_shards]``
    (any grouping is valid — conversations never span files — and striding
    balances size-skewed inputs; do NOT build range/locality logic on a
    contiguity assumption). Completed shards (manifest + output present)
    are skipped on resume; in the unpartitioned layout a shard whose
    rollup stage completed resumes from its checkpoint and reruns only encode.
    Emits per-(stage, shard) lineage metrics. Returns a summary dict.

    ``layout="conv_files"`` uses the fused single-pass colocated path
    (each conversation contained in one input file); ``"unpartitioned"``
    pays the bucketed plan's hash shuffle and works for any layout.
    """
    out = Path(out_dir)
    manifest = Manifest(out)
    metrics = MetricsLog(out)
    input_files = sorted(input_files)
    shards = [
        (f"s{idx:04d}", input_files[idx::n_shards]) for idx in range(n_shards)
    ]
    summary = {"shards_total": len(shards), "shards_skipped": 0, "rows": 0, "blocks": 0}
    for shard_id, files in shards:
        if not files:
            continue
        if resume and manifest.is_complete(shard_id, "encode"):
            summary["shards_skipped"] += 1
            continue
        # a shard not marked complete may have partial output from a
        # crashed attempt; Ray's write_parquet APPENDS uuid-named files,
        # so rerunning without clearing would duplicate every row. In the
        # unpartitioned layout a COMPLETED rollup stage survives a crash
        # during encode: resume re-reads its checkpoint instead of
        # re-scanning and re-shuffling the turn table.
        rollup_done = (
            resume
            and layout != "conv_files"
            and manifest.is_complete(shard_id, "rollup")
        )
        stale_stages = ("blocks",) if rollup_done else ("rollup", "blocks")
        for stale in stale_stages:
            shutil.rmtree(out / stale / f"shard={shard_id}", ignore_errors=True)
        if layout == "conv_files":
            t0 = time.time()
            rows_path = str(out / "rollup" / f"shard={shard_id}")
            blocks_path = str(out / "blocks" / f"shard={shard_id}")
            blocks = fused_rollup_encode_colocated(files, rows_path, cfg, enc_cfg)
            blocks.write_parquet(blocks_path, partition_cols=["tier"])
            n_rows = _footer_rows(rows_path)
            n_blocks = _footer_rows(blocks_path)
            t1 = time.time()
            # one emission for the fused stage so the shared wall time is
            # not double-counted in lineage totals
            metrics.emit(
                stage="rollup_encode_fused", shard=shard_id, rows_out=n_rows,
                blocks_out=n_blocks, input_files=len(files),
                wall_s=round(t1 - t0, 3),
            )
            manifest.mark_complete(shard_id, "rollup", rows_path, n_rows, t1 - t0)
            manifest.mark_complete(shard_id, "encode", blocks_path, n_blocks, t1 - t0)
            summary["rows"] += n_rows
            summary["blocks"] += n_blocks
            continue
        t0 = time.time()
        rows_path = str(out / "rollup" / f"shard={shard_id}")
        if rollup_done:
            # resume from the completed rollup checkpoint (stage-level
            # resume: only encode reruns)
            rollup_written = rd.read_parquet(rows_path).select_columns(
                list(ROLLUP_COLUMNS)
            )
            n_rows = _footer_rows(rows_path)
            t1 = time.time()
        else:
            turns = rd.read_parquet(files, columns=TRANSCRIPT_READ_COLUMNS)
            rollup = rollup_dataset(turns, cfg)
            rollup.write_parquet(rows_path, partition_cols=["tier"])
            # re-read = checkpoint barrier; drop the hive "shard=" path column
            rollup_written = rd.read_parquet(rows_path).select_columns(
                list(ROLLUP_COLUMNS)
            )
            n_rows = _footer_rows(rows_path)
            t1 = time.time()
            metrics.emit(
                stage="rollup", shard=shard_id, rows_out=n_rows,
                input_files=len(files), wall_s=round(t1 - t0, 3),
            )
            manifest.mark_complete(shard_id, "rollup", rows_path, n_rows, t1 - t0)

        blocks_path = str(out / "blocks" / f"shard={shard_id}")
        blocks = encode_dataset(rollup_written, enc_cfg)
        blocks.write_parquet(blocks_path, partition_cols=["tier"])
        n_blocks = _footer_rows(blocks_path)
        t2 = time.time()
        metrics.emit(
            stage="encode", shard=shard_id, rows_out=n_blocks,
            wall_s=round(t2 - t1, 3),
        )
        manifest.mark_complete(shard_id, "encode", blocks_path, n_blocks, t2 - t1)
        summary["rows"] += n_rows
        summary["blocks"] += n_blocks
    return summary
