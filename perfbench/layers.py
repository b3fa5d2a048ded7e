"""The traced run: spans around calls into the library, ``ds.stats()`` per
Ray operator, and layer probes that give the per-layer metrics.

Spans are recorded only from the benchmark's own files, around calls into
the library's public functions; nothing inside the library is changed. They
stay in memory and are written to ``.work/trace-<workload>-<seed>.json``
(with self times) when the run ends. End-to-end metrics come from untraced
runs; ``trace.overhead_s`` is what tracing adds to one backfill.

Every traced run reports every metric in ``LAYER_METRICS``, whatever its
workload, so the probes run on their own seeded inputs: the backfill's and
the job's transcripts and the registry tables of the run's seed.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import checks
import inputs
import workloads
from specs import BACKFILL, BUCKETED, JOB_SHARDS, NUM_CPUS, SMOKE_TX, TABLES

# Registry entries timed one by one: the heaviest (they set the sweep's
# tail) and three at the median, where the fixed cost of an execution rules.
QUERY_PROBES = (
    "order_segments_join", "sampen_optimized", "tier_blocks", "rolling_mean",
    "minhash_neardup", "rollup_1h", "pricing_summary", "doc_len",
)
EXCHANGE_OPS = ("Sort", "Aggregate", "Repartition", "Shuffle", "Join")


def _rollup_ops(plan: str, kinds: tuple[str, ...], moves: str) -> list[tuple]:
    return [
        (f"pipelines.rollup.{plan}.{k}.{part}", "s", "lower", moves)
        for k in kinds
        for part in ("wall_s", "remote_s", "wait_s")
    ]


# (name, unit, better, the end-to-end metric(s) it should move)
LAYER_METRICS: list[tuple[str, str, str, str]] = [
    ("sources.synth_s", "s", "lower", "setup_s on every workload"),
    ("stages.project.rows_per_s", "rows/s", "higher", "colocated_backfill.turns_per_s"),
    ("stages.windows.turns_per_s", "turns/s", "higher",
     "colocated_backfill.turns_per_s, late_upsert.op_p50_ms"),
    ("stages.encode.rows_per_s", "rows/s", "higher", "colocated_backfill.turns_per_s"),
    ("kernels.sampen.points_per_s", "points/s", "higher",
     "colocated_backfill.turns_per_s, bucketed_job.turns_per_s"),
    ("kernels.permen.points_per_s", "points/s", "higher",
     "colocated_backfill.turns_per_s, bucketed_job.turns_per_s"),
    ("codecs.gorilla.encode_points_per_s", "points/s", "higher",
     "colocated_backfill.turns_per_s"),
    ("codecs.gorilla.decode_points_per_s", "points/s", "higher",
     "colocated_backfill.turns_per_s"),
    ("codecs.dod.encode_points_per_s", "points/s", "higher", "colocated_backfill.turns_per_s"),
    ("codecs.gapfill.points_per_s", "points/s", "higher", "colocated_backfill.turns_per_s"),
    ("codecs.gap_filled_frac", "ratio", "lower", "compression_ratio"),
    *_rollup_ops("colocated", ("map",), "colocated_backfill.wall_s"),
    *_rollup_ops("bucketed", ("map", "exchange"), "bucketed_job.wall_s"),
    ("ray.exec_floor_s", "s", "lower", "registry_sweep.op_p50_ms"),
    ("ray.exchange.partition_skew", "ratio", "lower", "bucketed_job.wall_s"),
    ("ray.exchange.bytes", "bytes", "lower", "bucketed_job.wall_s"),
    ("state.manifest_s", "s", "lower", "bucketed_job.wall_s"),
    ("state.metrics_s", "s", "lower", "bucketed_job.wall_s"),
    ("state.checkpoint.rollup_s", "s", "lower", "bucketed_job.wall_s"),
    ("state.checkpoint.encode_s", "s", "lower", "bucketed_job.wall_s"),
    *[
        (f"pipelines.queries.{q}.wall_s", "s", "lower",
         "registry_sweep.wall_s, registry_sweep.op_tail_ms")
        for q in QUERY_PROBES
    ],
    ("pipelines.maintain.upsert_s", "s", "lower", "late_upsert.op_p50_ms"),
    ("pipelines.maintain.io_s", "s", "lower", "late_upsert.op_p50_ms"),
    ("overhead.replay_turns_per_s", "turns/s", "higher", "colocated_backfill.turns_per_s"),
    ("overhead.ray_share", "ratio", "lower", "colocated_backfill.turns_per_s"),
    ("trace.overhead_s", "s", "lower", "none: the cost of tracing one backfill"),
]


class Tracer:
    """In-memory spans (name, start, end, parent, root) and parsed
    ``ds.stats()``; a no-op when disabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op_stats: dict[str, list[list[dict]]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans), "name": name, "parent": parent,
            "root": self.spans[parent]["root"] if parent is not None else len(self.spans),
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def stats(self, name: str, ds) -> None:
        if self.enabled:
            self.op_stats.setdefault(name, []).append(parse_stats(ds.stats()))

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total seconds, and self seconds (total
        minus the time covered by child spans)."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and "end" in s:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            if "end" not in s:
                continue
            d = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            d["count"] += 1
            d["total_s"] += dur
            d["self_s"] += dur - child_s[s["id"]]
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"spans": self.spans, "self_times": self.self_times(),
             "ray_operators": self.op_stats, **extra},
            indent=1,
        ))


_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP_RE = re.compile(
    r"^Operator \d+ (?P<name>.+?): (?:\d+ tasks executed, \d+ blocks produced in"
    r"|executed in) (?P<v>[\d.]+)(?P<u>us|ms|s)\s*$"
)
_REMOTE_RE = re.compile(r"Remote wall time: .* (?P<v>[\d.]+)(?P<u>us|ms|s) total")


def parse_stats(text: str) -> list[dict]:
    """Operators of a ``ds.stats()`` report: name, wall seconds, and the
    summed remote (task) wall seconds including sub-operators."""
    ops: list[dict] = []
    for line in text.splitlines():
        line = line.strip()
        m = _OP_RE.match(line)
        if m:
            ops.append({
                "name": m["name"], "wall_s": float(m["v"]) * _UNITS[m["u"]],
                "remote_s": 0.0,
            })
            continue
        m = _REMOTE_RE.search(line)
        if m and ops:
            ops[-1]["remote_s"] += float(m["v"]) * _UNITS[m["u"]]
    return ops


def operator_totals(runs: list[list[dict]], kind: str) -> dict[str, float]:
    """Median over executions of summed wall, remote and wait seconds of
    the operators of one kind (``exchange``: all-to-all; ``map``: the
    rest). Wait is operator wall time not covered by its tasks running on
    all CPUs: scheduling, barriers, back-pressure."""
    per_run = []
    for ops in runs:
        sel = [
            o for o in ops
            if any(k in o["name"] for k in EXCHANGE_OPS) == (kind == "exchange")
        ]
        wall = sum(o["wall_s"] for o in sel)
        remote = sum(o["remote_s"] for o in sel)
        wait = sum(max(0.0, o["wall_s"] - o["remote_s"] / NUM_CPUS) for o in sel)
        per_run.append((wall, remote, wait))
    return {
        part: statistics.median(r[i] for r in per_run)
        for i, part in enumerate(("wall_s", "remote_s", "wait_s"))
    }


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def probe_stages(path: str) -> tuple[dict, pd.DataFrame]:
    """project / windows / encode on one transcript file (one Arrow batch,
    as one colocated task sees it)."""
    from eristropy_ray.config import EncodeConfig, RollupConfig
    from eristropy_ray.stages.encode import make_partition_encode_fn
    from eristropy_ray.stages.project import project_turns
    from eristropy_ray.stages.windows import rollup_windows

    table = pq.read_table(path, columns=checks.TURN_COLUMNS)
    project_s = _median_time(lambda: project_turns(table), 5)
    turns = project_turns(table).to_pandas()
    args = (
        turns["conv_id"].to_numpy(dtype=object), turns["turn_idx"].to_numpy(),
        checks.to_us(turns["ts"]), turns["value"].to_numpy(), RollupConfig(),
    )
    windows_s = _median_time(lambda: rollup_windows(*args), 3)
    rows = pd.DataFrame(rollup_windows(*args))
    rows_t = pa.Table.from_pandas(rows, preserve_index=False)
    encode = make_partition_encode_fn(EncodeConfig())
    encode_s = _median_time(lambda: encode(rows_t), 3)
    blocks = encode(rows_t)
    filled = pc.sum(blocks["gap_filled_points"]).as_py()
    points = pc.sum(blocks["n_points"]).as_py()
    return {
        "stages.project.rows_per_s": table.num_rows / project_s,
        "stages.windows.turns_per_s": len(turns) / windows_s,
        "stages.encode.rows_per_s": len(rows) / encode_s,
        "codecs.gap_filled_frac": filled / points,
    }, rows


def probe_kernels(path: str) -> dict:
    """The padded batch kernels on the window-length mix of one file
    (every tier's windows of 4 to 128 turns, the batched path)."""
    from eristropy_ray.config import TIER_STEPS_US
    from eristropy_ray.kernels.batch_entropy import (
        gather_padded, masked_radius, permen_padded, sampen_padded,
    )

    turns = checks.read_turns(path)
    codes = pd.factorize(turns["conv_id"])[0]
    ts = checks.to_us(turns["ts"])
    order = np.lexsort((turns["turn_idx"].to_numpy(), ts, codes))
    codes, ts, v = codes[order], ts[order], turns["value"].to_numpy()[order]
    sampen_s = permen_s = 0.0
    points = 0
    for step in TIER_STEPS_US.values():
        bucket = ts // step
        change = np.r_[True, (codes[1:] != codes[:-1]) | (bucket[1:] != bucket[:-1])]
        starts = np.flatnonzero(change)
        lengths = np.diff(np.r_[starts, codes.size])
        for lo, hi in ((4, 16), (17, 128)):
            sel = (lengths >= lo) & (lengths <= hi)
            if not sel.any():
                continue
            P = gather_padded(v, starts[sel], lengths[sel], int(lengths[sel].max()))
            r = masked_radius(P, lengths[sel], 0.2)
            r[~(r > 0)] = 1.0
            sampen_s += _median_time(lambda: sampen_padded(P, lengths[sel], 2, r), 3)
            permen_s += _median_time(lambda: permen_padded(P, lengths[sel], 3), 3)
            points += int(lengths[sel].sum())
    return {
        "kernels.sampen.points_per_s": points / sampen_s,
        "kernels.permen.points_per_s": points / permen_s,
    }


def probe_codecs(rows: pd.DataFrame) -> dict:
    """Gorilla, delta-of-delta and gap-fill on every (conversation, tier)
    series of one file's rollup rows."""
    from eristropy_ray.codecs.dod import dod_encode
    from eristropy_ray.codecs.gapfill import fill_missing
    from eristropy_ray.codecs.gorilla import gorilla_decode, gorilla_encode
    from eristropy_ray.config import TIER_STEPS_US

    series = []
    for (_, tier), g in rows.sort_values("bucket_ts").groupby(["conv_id", "tier"]):
        series.append((g["bucket_ts"].to_numpy(np.int64), g["value_mean"].to_numpy(),
                       TIER_STEPS_US[tier]))
    n = sum(b.size for b, _, _ in series)
    enc_s = _median_time(lambda: [gorilla_encode(v) for _, v, _ in series], 3)
    blobs = [gorilla_encode(v) for _, v, _ in series]
    dec_s = _median_time(lambda: [gorilla_decode(b) for b in blobs], 3)
    dod_s = _median_time(lambda: [dod_encode(b) for b, _, _ in series], 3)
    grids = []
    for b, v, step in series:
        grid = np.arange(b[0], b[-1] + step, step, dtype=np.int64)
        observed = np.zeros(grid.size, dtype=bool)
        observed[(b - b[0]) // step] = True
        grids.append((grid, observed, b, v))
    fill_s = _median_time(lambda: [fill_missing(*g) for g in grids], 3)
    return {
        "codecs.gorilla.encode_points_per_s": n / enc_s,
        "codecs.gorilla.decode_points_per_s": n / dec_s,
        "codecs.dod.encode_points_per_s": n / dod_s,
        "codecs.gapfill.points_per_s": sum(g[0].size for g in grids) / fill_s,
    }


def probe_exec_floor() -> dict:
    """The cost of one single-block map execution, the floor under every
    registry entry."""
    import ray.data as rd

    def once():
        rd.from_items([{"x": 1}]).map_batches(_identity, batch_format="pyarrow").materialize()

    once()
    return {"ray.exec_floor_s": _median_time(once, 10)}


def _identity(batch):
    return batch


def probe_backfill(run, files: list[str], n_turns: int) -> dict:
    """Colocated backfill: operator stats, tracing overhead (alternating
    untraced and traced executions) and the single-thread replay of the
    same work (project, windows, encode, write) that ``overhead.ray_share``
    compares against the 2-CPU Ray run."""
    from eristropy_ray.config import EncodeConfig
    from eristropy_ray.pipelines.rollup import fused_rollup_encode_colocated
    from eristropy_ray.stages.encode import make_partition_encode_fn

    out = run.work / "probe-backfill"
    stats: list[list[dict]] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    fused_rollup_encode_colocated(files[:NUM_CPUS], str(out / "warm")).materialize()
    for traced in (False, True, False, True):
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        if traced:
            with run.tracer.span("probe.backfill"):
                with run.tracer.span("pipelines.rollup.fused_rollup_encode_colocated"):
                    ds = fused_rollup_encode_colocated(files, str(out / "rollup"))
                with run.tracer.span("ray.data.write_parquet"):
                    ds.write_parquet(str(out / "blocks"), partition_cols=["tier"])
                stats.append(parse_stats(ds.stats()))
        else:
            ds = fused_rollup_encode_colocated(files, str(out / "rollup"))
            ds.write_parquet(str(out / "blocks"), partition_cols=["tier"])
        walls[traced].append(time.perf_counter() - t0)
    untraced = statistics.median(walls[False])

    encode = make_partition_encode_fn(EncodeConfig())
    replay_dir = run.work / "probe-replay"
    shutil.rmtree(replay_dir, ignore_errors=True)
    replay_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    for i, f in enumerate(files):
        rows = pa.Table.from_pandas(checks.rollup_frame(checks.read_turns(f)), preserve_index=False)
        pq.write_table(rows, replay_dir / f"rows-{i}.parquet")
        pq.write_table(encode(rows), replay_dir / f"blocks-{i}.parquet")
    replay_s = time.perf_counter() - t0
    shutil.rmtree(replay_dir, ignore_errors=True)
    col = operator_totals(stats, "map")
    return {
        **{f"pipelines.rollup.colocated.map.{k}": v for k, v in col.items()},
        "trace.overhead_s": statistics.median(walls[True]) - untraced,
        "overhead.replay_turns_per_s": n_turns / replay_s,
        "overhead.ray_share": 1.0 - replay_s / (NUM_CPUS * untraced),
    }


@contextmanager
def _patched(obj, attr: str, wrap):
    orig = getattr(obj, attr)
    setattr(obj, attr, wrap(orig))
    try:
        yield
    finally:
        setattr(obj, attr, orig)


def probe_job(run, files: list[str]) -> dict:
    """The bucketed job: per-operator stats of the Datasets it builds, time
    in the manifest and metrics sidecars, per-shard checkpoint stage times,
    and the hash exchange's skew and volume."""
    from eristropy_ray.pipelines import rollup as rollup_mod
    from eristropy_ray.state.manifest import Manifest
    from eristropy_ray.state.metrics import MetricsLog
    from eristropy_ray.stages.project import add_partition_key, project_turns

    built: list = []
    spent = {"manifest": 0.0, "metrics": 0.0}

    def capture(fn):
        def wrapper(*a, **kw):
            ds = fn(*a, **kw)
            built.append(ds)
            return ds
        return wrapper

    def timer(key: str, name: str):
        def wrap(fn):
            def wrapper(*a, **kw):
                t0 = time.perf_counter()
                with run.tracer.span(name):
                    out = fn(*a, **kw)
                spent[key] += time.perf_counter() - t0
                return out
            return wrapper
        return wrap

    out = run.work / "probe-job"
    shutil.rmtree(out, ignore_errors=True)
    with _patched(rollup_mod, "rollup_dataset", capture), \
            _patched(rollup_mod, "encode_dataset", capture), \
            _patched(Manifest, "mark_complete", timer("manifest", "state.Manifest.mark_complete")), \
            _patched(MetricsLog, "emit", timer("metrics", "state.MetricsLog.emit")), \
            run.tracer.span("probe.job"):
        rollup_mod.run_rollup_job(files, str(out), n_shards=JOB_SHARDS, layout="unpartitioned")
    stats = [parse_stats(ds.stats()) for ds in built]
    records = MetricsLog(out).read()

    def stage_s(stage: str) -> float:
        return statistics.median(r["wall_s"] for r in records if r["stage"] == stage)

    keyed = add_partition_key(
        pa.concat_tables(
            project_turns(pq.read_table(f, columns=checks.TURN_COLUMNS)) for f in files
        ),
        rollup_mod._default_partitions(rollup_mod.RollupConfig()),
    )
    counts = np.bincount(keyed["part"].to_numpy())
    counts = counts[counts > 0]
    return {
        **{f"pipelines.rollup.bucketed.map.{k}": v
           for k, v in operator_totals(stats, "map").items()},
        **{f"pipelines.rollup.bucketed.exchange.{k}": v
           for k, v in operator_totals(stats, "exchange").items()},
        "state.manifest_s": spent["manifest"],
        "state.metrics_s": spent["metrics"],
        "state.checkpoint.rollup_s": stage_s("rollup"),
        "state.checkpoint.encode_s": stage_s("encode"),
        "ray.exchange.partition_skew": float(counts.max() / counts.mean()),
        "ray.exchange.bytes": float(keyed.nbytes),
    }


def probe_queries(run, tables_dir: str) -> dict:
    from ray.data import Dataset

    from eristropy_ray.pipelines.queries import QUERIES

    out = {}
    for name in QUERY_PROBES:
        if name not in run.query_walls:
            t0 = time.perf_counter()
            with run.tracer.span(f"probe.query.{name}"):
                res = QUERIES[name](tables_dir)
                if isinstance(res, Dataset):
                    res.materialize()
            run.query_walls[name] = time.perf_counter() - t0
        out[f"pipelines.queries.{name}.wall_s"] = run.query_walls[name]
    return out


def probe_maintain(run, files: list[str]) -> dict:
    """Median per-partition compute and I/O seconds of the upsert."""
    store = run.work / "probe-store"
    late, _refs, _n = workloads.build_store(files, run.seed, store)
    tr = Tracer(enabled=True)
    for i, f in enumerate(files):
        with tr.span("op"):
            workloads.upsert_partition(tr, f, i, store, late[i], run.work / "probe-upserted")
    per_op: dict[str, list[float]] = {"io": [], "upsert": []}
    for root in (s for s in tr.spans if s["parent"] is None):
        kids = [s for s in tr.spans if s["parent"] == root["id"]]
        per_op["io"].append(sum(s["end"] - s["start"] for s in kids if s["name"].endswith(".io")))
        per_op["upsert"].append(
            sum(s["end"] - s["start"] for s in kids if not s["name"].endswith(".io"))
        )
    return {
        "pipelines.maintain.upsert_s": statistics.median(per_op["upsert"]),
        "pipelines.maintain.io_s": statistics.median(per_op["io"]),
    }


def report(run) -> None:
    """Run every probe, emit every per-layer metric with the end-to-end
    metric it should move, and write the trace file."""
    import ray

    if not ray.is_initialized():
        run.start_ray()
    run.phase("setup", "probes", 150.0)
    small = SMOKE_TX if run.smoke else None
    bf_files, _ = inputs.transcripts(small or BACKFILL, run.seed, run.work, reps=1)
    job_files, _ = inputs.transcripts(small or BUCKETED, run.seed, run.work, reps=1)
    tables_dir, _ = inputs.tables(TABLES, run.seed, run.work, reps=1)
    values: dict[str, float] = {"sources.synth_s": run.setup["synth"]}
    stage_vals, rows = probe_stages(bf_files[1])
    values.update(stage_vals)
    values.update(probe_kernels(bf_files[1]))
    values.update(probe_codecs(rows))
    values.update(probe_exec_floor())
    n_turns = sum(pq.ParquetFile(f).metadata.num_rows for f in bf_files)
    values.update(probe_backfill(run, bf_files, n_turns))
    values.update(probe_job(run, job_files))
    values.update(probe_queries(run, tables_dir))
    values.update(probe_maintain(run, bf_files[:4]))
    for name, unit, _better, moves in LAYER_METRICS:
        run.layer(name, values[name], unit)
        run.note(f"layer {name} -> {moves}")
    run.tracer.dump(
        run.work.parent / f"trace-{run.workload}-{run.seed}.json",
        {"workload": run.workload, "seed": run.seed, "e2e": run.e2e,
         "setup": run.setup, "query_walls": run.query_walls, "layers": values},
    )
