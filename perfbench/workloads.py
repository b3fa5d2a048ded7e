"""The four workloads. Each sets up its seeded input, runs the measured
closed loop through ``Run.loop``/``Run.timed`` (checks outside the timed
span) and reports its end-to-end metrics.

Why these four: ``colocated_backfill`` is the production path with no
exchange; ``bucketed_job`` adds the hash exchange, checkpoints and the
manifest on the same kernels; ``registry_sweep`` is dominated by the fixed
cost of Dataset executions and sort barriers; ``late_upsert`` is the write
side with no Ray at all. A change to one layer should move one of them and
leave the others, as NOTES.md tabulates.
"""

from __future__ import annotations

import shutil
import statistics
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import checks
import inputs
from specs import (
    BACKFILL, BUCKETED, JOB_SHARDS, SMOKE_TX, TABLES, WARM_QUERIES,
)


def _transcripts(run: Run, spec: inputs.TranscriptSpec) -> list[str]:
    spec = SMOKE_TX if run.smoke else spec
    files, synth_s = run.setup_step(
        "synth", lambda: inputs.transcripts(spec, run.seed, run.work)
    )
    # report what generating the input costs, not the cache check
    run.setup["synth"] = synth_s
    return files


def _blocks_digest(blocks: pd.DataFrame) -> str:
    cols = [c for c in blocks.columns if c.endswith("_enc")]
    order = blocks.sort_values(["tier", "conv_id", "block_start"], kind="stable")
    return checks.digest(order[["tier", "conv_id", *cols]].astype(object))


def colocated_backfill(run: Run) -> None:
    """The production path: fused rollup + encode over conversation-
    partitioned files, blocks written partitioned by tier. No shuffle."""
    from eristropy_ray.pipelines.rollup import fused_rollup_encode_colocated

    files = _transcripts(run, BACKFILL)
    ref, n_turns = run.setup_step("reference", lambda: checks.reference_digest(files))
    run.setup["ray_init"] = run.start_ray()
    out = run.work / "out"

    def op(dst: Path = out, paths: list[str] = files):
        with run.tracer.span("pipelines.rollup.fused_rollup_encode_colocated"):
            blocks = fused_rollup_encode_colocated(paths, str(dst / "rollup"))
        with run.tracer.span("ray.data.write_parquet"):
            blocks.write_parquet(str(dst / "blocks"), partition_cols=["tier"])
        return blocks

    # the whole input: after a warm-up on a few files the first timed
    # repetition still ran ~45 % slower than the rest
    run.setup_step("warmup", lambda: op(run.work / "warm", files))
    verified: dict[str, str] = {}

    def check(ds) -> str:
        run.tracer.stats("pipelines.rollup.colocated", ds)
        rows = checks.read_hive(out / "rollup")
        if checks.digest(checks.canon_rows(rows)) != ref:
            return "rollup rows differ from the single-thread reference"
        blocks = checks.read_hive(out / "blocks")
        run.e2e["compression_ratio"] = checks.compression_ratio(blocks)
        d = _blocks_digest(blocks)
        if "blocks" not in verified:
            diff = checks.blocks_match_rows(blocks, rows)
            if diff:
                return diff
            verified["blocks"] = d
        elif d != verified["blocks"]:
            return "blocks differ from the first, fully decoded repetition"
        return ""

    times = run.loop(
        "backfill", "backfill", op, check, min_reps=3,
        prep=lambda: shutil.rmtree(out, ignore_errors=True),
    )
    wall = statistics.median(times)
    run.metric("wall_s", wall, "s")
    run.metric("turns_per_s", n_turns / wall, "turns/s")
    run.metric("compression_ratio", run.e2e["compression_ratio"], "ratio")
    run.note(f"backfill: {len(files)} files, {n_turns} turns, {len(times)} repetitions")
    run.finish()


def bucketed_job(run: Run) -> None:
    """The checkpointed job over an unpartitioned layout: hash exchange,
    checkpoint write and re-read, manifest and metrics sidecars."""
    from eristropy_ray.pipelines.rollup import run_rollup_job
    from eristropy_ray.state.manifest import Manifest

    files = _transcripts(run, BUCKETED)
    ref, n_turns = run.setup_step("reference", lambda: checks.reference_digest(files))
    run.setup["ray_init"] = run.start_ray()
    out = run.work / "job"

    def op(dst: Path = out):
        with run.tracer.span("pipelines.rollup.run_rollup_job"):
            run_rollup_job(files, str(dst), n_shards=JOB_SHARDS, layout="unpartitioned")
        return dst

    # the whole job: after a warm-up on two files and one shard the first
    # timed jobs still ran up to 60 % slower than the rest
    run.setup_step("warmup", lambda: op(run.work / "warm"))

    def check(dst: Path) -> str:
        manifest = Manifest(dst)
        undone = [
            f"s{i:04d}" for i in range(JOB_SHARDS)
            if files[i::JOB_SHARDS] and not manifest.is_complete(f"s{i:04d}", "encode")
        ]
        if undone:
            return f"shards not complete in the manifest: {undone}"
        rows = checks.read_hive(dst / "rollup")
        if checks.digest(checks.canon_rows(rows)) != ref:
            return "job rows differ from the colocated plan's rows"
        run.e2e["compression_ratio"] = checks.compression_ratio(
            checks.read_hive(dst / "blocks")
        )
        return ""

    times = run.loop(
        "job", "job", op, check, min_reps=2,
        prep=lambda: shutil.rmtree(out, ignore_errors=True),
    )
    wall = statistics.median(times)
    run.metric("wall_s", wall, "s")
    run.metric("turns_per_s", n_turns / wall, "turns/s")
    run.metric("compression_ratio", run.e2e["compression_ratio"], "ratio")
    run.note(f"job: {len(files)} files, {n_turns} turns, {JOB_SHARDS} shards, {len(times)} repetitions")
    run.finish()


def _oracle_connection(tables_dir: str):
    import duckdb

    from tools.check_oracle import TABLES as TABLE_NAMES

    con = duckdb.connect()
    for t in TABLE_NAMES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tables_dir}/{t}.parquet')"
        )
    return con


# Oracle-backed entries whose candidate coverage is data-dependent (their
# docstrings say so): exact parity is promised only on the fixed test corpus,
# where tools/check_oracle.py and the tests still require it. On seeded
# corpora the benchmark requires that every row they return is an oracle
# row, and reports the rows they miss. See NOTES.md, known defects.
APPROXIMATE = frozenset({"embedding_neardup_ivf"})


def _subset_of_oracle(run: Run, name: str, got: pd.DataFrame, want: pd.DataFrame) -> str:
    from tools.check_oracle import canon

    a, b = canon(got), canon(want)
    if list(a.columns) != list(b.columns) or list(a.dtypes) != list(b.dtypes):
        return f"SCHEMA MISMATCH ray={dict(a.dtypes)} sql={dict(b.dtypes)}"
    rows = a.merge(b.drop_duplicates(), how="left", indicator=True)
    false_rows = int((rows["_merge"] != "both").sum())
    if false_rows:
        return f"{false_rows} rows not in the oracle's result"
    if len(a) < len(b):
        run.note(f"{name}: returned {len(a)} of the oracle's {len(b)} rows (known defect)")
    return ""


def registry_sweep(run: Run) -> None:
    """Every registry entry once, in registry order; each result consumed
    once (materialized) and checked against its DuckDB oracle."""
    from ray.data import Dataset

    from eristropy_ray.pipelines.queries import ORACLE_SQL, QUERIES
    from tools.check_oracle import compare, to_pandas

    tables_dir, synth_s = run.setup_step(
        "synth", lambda: inputs.tables(TABLES, run.seed, run.work)
    )
    run.setup["synth"] = synth_s
    run.setup["ray_init"] = run.start_ray()
    con = _oracle_connection(tables_dir)

    def consume(name: str):
        out = QUERIES[name](tables_dir)
        return out.materialize() if isinstance(out, Dataset) else out

    def warm() -> None:
        for name in WARM_QUERIES:
            consume(name)

    run.setup_step("warmup", warm)
    names = list(QUERIES)
    if run.smoke:
        names = names[:2] + ["tier_block_sizes", "tier_block_enc"] + names[-1:]
    results: dict[str, pd.DataFrame] = {}

    def checker(name: str):
        def check(out) -> str:
            if isinstance(out, Dataset):
                run.tracer.stats(f"pipelines.queries.{name}", out)
                schema = out.schema()
                if schema is None or not schema.names:
                    return "result has no schema"
                if any(t is None or (isinstance(t, pa.DataType) and pa.types.is_null(t))
                       for t in schema.types):
                    return f"untyped columns in {schema}"
            df = to_pandas(out)
            if name in ("tier_block_sizes", "tier_block_enc"):
                results[name] = df
            if name not in ORACLE_SQL:
                return "" if len(df) else "rows-only entry returned no rows"
            want = con.execute(ORACLE_SQL[name]).df()
            if name in APPROXIMATE:
                return _subset_of_oracle(run, name, df, want)
            verdict = compare(name, df, want)
            return "" if verdict == "OK" else verdict

        return check

    total = 0.0
    for name in names:
        dt = run.timed("query", name, lambda n=name: consume(n), checker(name))
        run.query_walls[name] = dt
        total += dt
    con.close()
    n_events = pq.ParquetFile(f"{tables_dir}/events.parquet").metadata.num_rows
    run.metric("wall_s", total, "s")
    run.metric("turns_per_s", n_events / total, "turns/s")
    ratio = float(results["tier_block_sizes"]["raw_bytes"].sum()) / float(
        results["tier_block_enc"]["enc_bytes"].sum()
    )
    run.metric("compression_ratio", ratio, "ratio")
    run.note(f"sweep: {len(names)} entries, {n_events} events rows")
    run.finish()


def write_tiers(rows: pd.DataFrame, root: Path, i: int) -> None:
    """Partition ``i``'s rollup rows as one file per tier, hive-style
    (``tier=<t>/part-<i>.parquet``), the layout of the backfill's checkpoint."""
    for tier, sub in rows.groupby("tier"):
        d = root / f"tier={tier}"
        d.mkdir(parents=True, exist_ok=True)
        pq.write_table(
            pa.Table.from_pandas(sub.drop(columns=["tier"]), preserve_index=False),
            d / f"part-{i:05d}.parquet",
        )


def build_store(files: list[str], seed: int, store: Path) -> tuple[list, list[str], int]:
    """The backfill's per-partition output for the upsert workload: tier
    checkpoint files, one late batch per partition, and the digest of a
    from-scratch rollup of each partition with its late batch."""
    late_batches, refs, n_late = [], [], 0
    for i, f in enumerate(files):
        stored = checks.read_turns(f)
        rows = checks.rollup_frame(stored)
        rows["bucket_ts"] = rows["bucket_ts"].to_numpy().astype("datetime64[us]")
        write_tiers(rows, store, i)
        late = inputs.late_batch(stored, seed, i)
        merged = pd.concat([stored, late], ignore_index=True)
        refs.append(checks.digest(checks.canon_rows(checks.rollup_frame(merged))))
        late_batches.append(late)
        n_late += len(late)
    return late_batches, refs, n_late


def upsert_partition(tr, f: str, i: int, store: Path, late: pd.DataFrame, dst: Path):
    """One partition's upsert: read its turns and tier checkpoints, recompute
    the touched windows, write the replacement tier files."""
    from eristropy_ray.pipelines.maintain import update_windows_incremental

    with tr.span("pipelines.maintain.io"):
        stored = checks.read_turns(f)
        rows = pd.concat(
            [
                pq.read_table(d / f"part-{i:05d}.parquet").to_pandas().assign(
                    tier=d.name.split("=", 1)[1]
                )
                for d in sorted(store.glob("tier=*"))
            ],
            ignore_index=True,
        )
    with tr.span("pipelines.maintain.update_windows_incremental"):
        updated = update_windows_incremental(rows, stored, late)
    with tr.span("pipelines.maintain.io"):
        write_tiers(updated, dst, i)
    return updated


def late_upsert(run: Run) -> None:
    """Sequential per-partition upserts of late turns over the backfill's
    output, from one client. No Ray on this path."""
    from eristropy_ray.stages.encode import make_partition_encode_fn
    from eristropy_ray.config import EncodeConfig

    files = _transcripts(run, BACKFILL)
    store = run.work / "store"
    late, refs, n_late = run.setup_step(
        "reference", lambda: build_store(files, run.seed, store)
    )
    blocks = make_partition_encode_fn(EncodeConfig())(
        pa.Table.from_pandas(checks.read_hive(store), preserve_index=False)
    ).to_pandas()
    ratio = checks.compression_ratio(blocks)
    dst = run.work / "upserted"

    def warm() -> None:
        for i, f in enumerate(files):
            upsert_partition(run.tracer, f, i, store, late[i], run.work / "warm")

    # the first pass of a cold process ran ~25 % slower than the rest
    run.setup_step("warmup", warm)
    passes: list[float] = []
    while not passes or sum(passes) < run.seconds:
        pass_s = 0.0
        for i, f in enumerate(files):
            pass_s += run.timed(
                "upsert", f"upsert-{i}",
                lambda f=f, i=i: upsert_partition(run.tracer, f, i, store, late[i], dst),
                lambda upd, i=i: "" if checks.digest(checks.canon_rows(upd)) == refs[i]
                else "upsert differs from a from-scratch rollup of the partition",
            )
        passes.append(pass_s)
    wall = statistics.median(passes)
    run.metric("wall_s", wall, "s")
    run.metric("turns_per_s", n_late / wall, "turns/s")
    run.metric("compression_ratio", ratio, "ratio")
    run.note(f"upsert: {len(files)} partitions, {n_late} late turns a pass, {len(passes)} passes")
    run.finish()


WORKLOADS = {
    "colocated_backfill": colocated_backfill,
    "bucketed_job": bucketed_job,
    "registry_sweep": registry_sweep,
    "late_upsert": late_upsert,
}
