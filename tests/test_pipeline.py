"""End-to-end Ray pipeline tests: plan equivalence against an in-process
reference, codec round-trip through the block stage, checkpoint/resume,
determinism."""

import glob

import numpy as np
import pandas as pd
import pytest

from eristropy_ray.config import EncodeConfig, RollupConfig


@pytest.fixture(scope="module")
def fixture_ds(ray_session):
    import ray.data as rd

    from eristropy_ray.sources.transcripts import fixture_transcripts

    return rd.from_arrow(fixture_transcripts())


def _sorted_rollup(ds):
    return (
        ds.to_pandas()
        .sort_values(["tier", "conv_id", "bucket_ts"], kind="stable")
        .reset_index(drop=True)
    )


def _reference_rollup(table, cfg):
    """The partition-free reference: one in-process rollup of the whole
    table."""
    from eristropy_ray.pipelines.rollup import _rollup_table
    from eristropy_ray.stages.project import project_turns

    return _sorted_rollup(_rollup_table(project_turns(table), cfg))


def test_modes_agree(ray_session, fixture_ds):
    from eristropy_ray.pipelines.rollup import rollup_dataset
    from eristropy_ray.sources.transcripts import fixture_transcripts

    cfg = RollupConfig()
    r1 = _sorted_rollup(rollup_dataset(fixture_ds, cfg))
    r2 = _reference_rollup(fixture_transcripts(), cfg)
    pd.testing.assert_frame_equal(r1, r2)
    assert len(r1) > 0
    # ramp conversation: raw SampEn of a pure trend must be 0 at 1h/1d
    ramp = r1[(r1.conv_id == "ramp") & (r1.tier != "1m")]
    assert (ramp["sampen_raw"] == 0.0).all()


def test_shuffled_input_invariant(ray_session, fixture_ds):
    """Stable turn ordering: a permuted input yields identical rollups."""
    import ray.data as rd

    from eristropy_ray.pipelines.rollup import rollup_dataset
    from eristropy_ray.sources.transcripts import fixture_transcripts

    t = fixture_transcripts()
    perm = np.random.default_rng(5).permutation(t.num_rows)
    shuffled = rd.from_arrow(t.take(perm))
    cfg = RollupConfig()
    a = _sorted_rollup(rollup_dataset(fixture_ds, cfg))
    b = _sorted_rollup(rollup_dataset(shuffled, cfg))
    pd.testing.assert_frame_equal(a, b)


def test_block_roundtrip(ray_session, fixture_ds):
    """Gorilla/DoD blocks decode back to the gap-filled rollup series."""
    import ray.data as rd

    from eristropy_ray.codecs.gapfill import gapfill_series
    from eristropy_ray.config import TIER_STEPS_US
    from eristropy_ray.pipelines.rollup import encode_dataset, rollup_dataset
    from eristropy_ray.stages.encode import decode_blocks

    cfg = RollupConfig()
    enc_cfg = EncodeConfig()
    rollup = _sorted_rollup(rollup_dataset(fixture_ds, cfg))
    blocks = encode_dataset(rollup_dataset(fixture_ds, cfg), enc_cfg).to_pandas()
    decoded = decode_blocks(
        __import__("pyarrow").Table.from_pandas(blocks), enc_cfg.columns
    )
    for (conv, tier), g in rollup.groupby(["conv_id", "tier"]):
        step = TIER_STEPS_US[tier]
        buckets = g["bucket_ts"].astype("int64").to_numpy()
        want_grid, want_vals, _ = gapfill_series(
            buckets, g["sampen"].to_numpy(), step
        )
        d = decoded[(decoded.conv_id == conv) & (decoded.tier == tier)].sort_values(
            "bucket_ts"
        )
        np.testing.assert_array_equal(d["bucket_ts"].to_numpy(), want_grid)
        a, b = d["sampen"].to_numpy(), want_vals
        assert ((a == b) | (np.isnan(a) & np.isnan(b))).all()
    # headers dominate single-point blocks; compression must hold in
    # aggregate and per-block once a block has real length
    assert blocks["enc_bytes"].sum() < blocks["raw_bytes"].sum()
    big = blocks[blocks["n_points"] >= 8]
    assert len(big) > 0 and (big["enc_bytes"] < big["raw_bytes"]).all()


def test_job_resume(ray_session, tmp_path):
    from eristropy_ray.pipelines.rollup import run_rollup_job
    from eristropy_ray.sources.transcripts import synthesize_transcripts

    d = synthesize_transcripts(
        tmp_path / "tx", n_convs=12, mean_turns=20, n_files=4, hot_factor=3
    )
    files = sorted(glob.glob(f"{d}/*.parquet"))
    out = str(tmp_path / "out")
    s1 = run_rollup_job(files, out, n_shards=2)
    assert s1["shards_skipped"] == 0 and s1["rows"] > 0
    s2 = run_rollup_job(files, out, n_shards=2)
    assert s2["shards_skipped"] == 2 and s2["rows"] == 0
    # lineage metrics emitted per (stage, shard)
    from eristropy_ray.state.metrics import MetricsLog

    records = MetricsLog(out).read()
    assert {(r["stage"], r["shard"]) for r in records} == {
        ("rollup", "s0000"), ("rollup", "s0001"),
        ("encode", "s0000"), ("encode", "s0001"),
    }


def test_synthesizer_deterministic(tmp_path):
    from eristropy_ray.sources.transcripts import synthesize_transcripts
    import pyarrow.parquet as pq

    d1 = synthesize_transcripts(tmp_path / "a", n_convs=6, mean_turns=15, n_files=2)
    d2 = synthesize_transcripts(tmp_path / "b", n_convs=6, mean_turns=15, n_files=2)
    for f1, f2 in zip(sorted(glob.glob(f"{d1}/*.parquet")), sorted(glob.glob(f"{d2}/*.parquet"))):
        assert pq.read_table(f1).equals(pq.read_table(f2))


def test_colocated_matches_bucketed(ray_session, tmp_path):
    """The zero-shuffle colocated plan produces the same rollup rows and
    the same tier blocks as the bucketed plan on a
    conversation-partitioned layout."""
    import ray.data as rd

    from eristropy_ray.pipelines.rollup import (
        TRANSCRIPT_READ_COLUMNS,
        encode_dataset,
        fused_rollup_encode_colocated,
        rollup_dataset,
        rollup_files_colocated,
    )
    from eristropy_ray.sources.transcripts import synthesize_transcripts

    d = synthesize_transcripts(
        tmp_path / "tx", n_convs=10, mean_turns=25, n_files=3, hot_factor=4
    )
    files = sorted(glob.glob(f"{d}/*.parquet"))
    cfg = RollupConfig()
    bucketed = rollup_dataset(
        rd.read_parquet(files, columns=TRANSCRIPT_READ_COLUMNS), cfg
    )
    a = _sorted_rollup(rollup_files_colocated(files, cfg))
    pd.testing.assert_frame_equal(a, _sorted_rollup(bucketed))
    keys = ["tier", "conv_id", "block_start"]
    blocks = [
        ds.to_pandas().sort_values(keys).reset_index(drop=True)
        for ds in (
            fused_rollup_encode_colocated(files, str(tmp_path / "rows"), cfg),
            encode_dataset(bucketed),
        )
    ]
    pd.testing.assert_frame_equal(*blocks)
    assert blocks[0]["n_points"].sum() > 0


def test_path_dataset_runs_one_task_per_cpu(ray_session, tmp_path):
    """A map over the colocated plans' path Dataset keeps every CPU busy.

    With Ray Data's operator reservation on, the plan's input operator
    takes a share it never uses: on 4 CPUs the same map kept ~3.0 tasks
    in flight (1 on 2 CPUs), against ~3.8 without it. Disabling it must
    stay local to the plan: the session's DataContext is unchanged after
    the colocated builders run."""
    import ray
    from ray.data import DataContext

    from eristropy_ray.pipelines.rollup import (
        _path_dataset,
        fused_rollup_encode_colocated,
        rollup_files_colocated,
    )
    from eristropy_ray.sources.transcripts import synthesize_transcripts

    cpus = int(ray.cluster_resources()["CPU"])
    sleep_s = 0.2

    def interval(batch):
        import time

        rows = {"t0": [], "t1": []}
        for _ in batch["paths"][0]:
            rows["t0"].append(time.time())
            time.sleep(sleep_s)
            rows["t1"].append(time.time())
        return rows

    # real files: the path Dataset packs them into groups by size
    paths = []
    for i in range(4 * cpus):
        (tmp_path / f"p{i}").write_bytes(b"x")
        paths.append(str(tmp_path / f"p{i}"))
    _path_dataset(paths).map_batches(interval, batch_size=1).materialize()
    peaks, widths = [], []
    # median of three runs: single runs of the reserved plan reached 3.7
    for _ in range(3):
        rows = _path_dataset(paths).map_batches(interval, batch_size=1).take_all()
        events = sorted(
            [(r["t0"], 1) for r in rows] + [(r["t1"], -1) for r in rows]
        )
        peaks.append(max(np.cumsum([d for _, d in events])))
        span = max(r["t1"] for r in rows) - min(r["t0"] for r in rows)
        widths.append(sum(r["t1"] - r["t0"] for r in rows) / span)
    assert peaks == [cpus] * 3
    assert np.median(widths) >= 0.85 * cpus, widths

    before = DataContext.get_current().op_resource_reservation_enabled
    d = synthesize_transcripts(
        tmp_path / "tx", n_convs=6, mean_turns=20, n_files=2, hot_factor=2
    )
    files = sorted(glob.glob(f"{d}/*.parquet"))
    fused = fused_rollup_encode_colocated(files, str(tmp_path / "rows"))
    rows = rollup_files_colocated(files)
    assert fused.materialize().count() > 0
    assert rows.materialize().count() > 0
    assert not fused.context.op_resource_reservation_enabled
    assert not rows.context.op_resource_reservation_enabled
    assert DataContext.get_current().op_resource_reservation_enabled == before


def _map_tasks(ds) -> int:
    """Tasks of the plan's map operator, as ``ds.stats()`` reports them
    (an operator that ran no task prints no count)."""
    import re

    m = re.search(r"MapBatches\(\w+\): (\d+) tasks executed", ds.stats())
    return int(m.group(1)) if m else 0


def test_file_groups_pack_largest_first_under_the_byte_bound(tmp_path):
    """LPT: largest file first onto the lightest group; a file that would
    push the lightest group past the bound opens a group of its own."""
    from eristropy_ray.pipelines.rollup import _file_groups

    files = []
    for i, size in enumerate([7, 1, 5, 4, 3, 2, 9]):
        (tmp_path / f"f{i}").write_bytes(b"x" * size)
        files.append(str(tmp_path / f"f{i}"))

    def names(groups):
        return [[int(f[-1]) for f in g] for g in groups]

    assert names(_file_groups(files, 3, None)) == [[6, 5], [0, 4], [2, 3, 1]]
    assert names(_file_groups(files, 2, 10)) == [[6], [0, 4], [2, 3], [5, 1]]
    assert names(_file_groups(files, 2, 1)) == [[6], [0], [2], [3], [4], [5], [1]]
    assert _file_groups([], 0, None) == []


def _per_file_checkpoint(files: list[str], cfg) -> dict[str, pd.DataFrame]:
    """The rollup checkpoint a per-file body writes: one frame per
    (input file, tier), keyed by its path under the rows dir."""
    import hashlib
    from pathlib import Path

    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.rollup import TRANSCRIPT_READ_COLUMNS, _rollup_table
    from eristropy_ray.stages.project import project_turns

    out = {}
    for f in files:
        rows = _rollup_table(
            project_turns(pq.read_table(f, columns=TRANSCRIPT_READ_COLUMNS)), cfg
        ).to_pandas()
        stem = Path(f).stem + "-" + hashlib.sha1(f.encode()).hexdigest()[:8]
        for tier, g in rows.groupby("tier", sort=False):
            out[f"tier={tier}/{stem}.parquet"] = g.drop(columns="tier").reset_index(drop=True)
    return out


@pytest.mark.parametrize("layout", ["hot", "few", "one", "zero", "empty_file"])
def test_grouped_plans_match_in_process(ray_session, tmp_path, monkeypatch, layout):
    """The colocated plans run min(files, CPUs) map tasks over groups of
    whole files, each making one ``rollup_windows`` call for its group.
    Their rows, blocks and rollup checkpoint equal a per-file rollup and
    encode of the same files: the same checkpoint file names, and the
    same rows in each."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from eristropy_ray.pipelines import rollup as rollup_mod
    from eristropy_ray.pipelines.rollup import (
        TRANSCRIPT_READ_COLUMNS,
        _path_dataset,
        _rollup_group,
        _rollup_table,
        fused_rollup_encode_colocated,
        rollup_files_colocated,
    )
    from eristropy_ray.sources.transcripts import synthesize_transcripts
    from eristropy_ray.stages.encode import make_partition_encode_fn
    from eristropy_ray.stages.project import project_turns

    cpus = int(ray.cluster_resources()["CPU"])
    # "hot": one file holds a conversation 30x the mean; "empty_file":
    # CPUs + 1 files, one of them with zero rows
    n = {"hot": 4 * cpus, "few": cpus - 1, "one": 1, "zero": 0, "empty_file": cpus}[layout]
    files = []
    if n:
        d = synthesize_transcripts(
            tmp_path / "tx", n_convs=2 * n, mean_turns=20, n_files=n, hot_factor=30
        )
        files = sorted(glob.glob(f"{d}/*.parquet"))
    if layout == "empty_file":
        empty = str(tmp_path / "tx" / "empty.parquet")
        pq.write_table(pq.read_table(files[0]).slice(0, 0), empty)
        files = sorted(files + [empty])
    assert len(files) == n + (layout == "empty_file")
    cfg = RollupConfig()
    rows = rollup_files_colocated(files, cfg).materialize()
    out = tmp_path / "rows"
    blocks = fused_rollup_encode_colocated(files, str(out), cfg).materialize()
    groups = [r["paths"] for r in _path_dataset(files).take_all()]
    assert _map_tasks(rows) == _map_tasks(blocks) == len(groups) == min(len(files), cpus)

    calls = []
    windows = rollup_mod.rollup_windows
    monkeypatch.setattr(
        rollup_mod, "rollup_windows", lambda *a, **k: calls.append(1) or windows(*a, **k)
    )
    for g in groups:
        _rollup_group(list(g), cfg)
    assert len(calls) == len(groups)

    want = _per_file_checkpoint(files, cfg)
    got = sorted(
        os.path.relpath(f, out) for f in glob.glob(f"{out}/tier=*/*.parquet")
    )
    assert got == sorted(want)
    for name in got:
        pd.testing.assert_frame_equal(
            pq.read_table(out / name).to_pandas(), want[name], check_exact=True
        )
    if not n:
        assert rows.count() == blocks.count() == 0
        return
    turns = [pq.read_table(f, columns=TRANSCRIPT_READ_COLUMNS) for f in files]
    pd.testing.assert_frame_equal(
        _sorted_rollup(rows), _reference_rollup(pa.concat_tables(turns), cfg), check_exact=True
    )
    encode = make_partition_encode_fn(EncodeConfig())
    keys = ["tier", "conv_id", "block_start"]
    want = pa.concat_tables(encode(_rollup_table(project_turns(t), cfg)) for t in turns)
    pd.testing.assert_frame_equal(
        blocks.to_pandas().sort_values(keys).reset_index(drop=True),
        want.to_pandas().sort_values(keys).reset_index(drop=True),
        check_exact=True,
    )


def test_conversation_split_across_files_raises(tmp_path):
    """A group whose files share a conversation id fails loudly, naming
    the id and both files, instead of rolling up duplicate windows."""
    import re

    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.rollup import _rollup_group
    from eristropy_ray.sources.transcripts import fixture_transcripts

    t = fixture_transcripts()
    conv = t["conv_id"].to_pylist()
    # the fixture's rows come conversation by conversation: the second
    # conversation's first turn goes to a, its other turns to b
    k = conv.count(conv[0])
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(t.slice(0, k + 1), a)
    pq.write_table(t.slice(k + 1), b)
    shared = conv[k]
    assert conv[k + 1] == shared
    with pytest.raises(ValueError, match=re.escape(f"'{shared}' is in both {a} and {b}")):
        _rollup_group([a, b], RollupConfig())


@pytest.mark.parametrize("case", ["zero", "one_conv", "non_ascii", "digits", "null"])
def test_rollup_table_codes_match_strings(case):
    """``_rollup_table`` hands ``rollup_windows`` dictionary codes, not
    strings: its rows equal a ``rollup_windows`` call on the string ids,
    in the same order, and an empty input gives the same typed table."""
    import pyarrow as pa

    from eristropy_ray.pipelines.rollup import _rollup_table
    from eristropy_ray.stages.windows import ROLLUP_COLUMNS, rollup_windows

    rng = np.random.default_rng(3)
    ids = {
        "zero": [],
        "one_conv": ["c"] * 40,
        "non_ascii": ["ü", "会話", "😀", "u"] * 15,
        "digits": ["1", "01", "001", "10"] * 15,
        "null": ["a", None, "b"] * 20,
    }[case]
    n = len(ids)
    t = pa.table(
        {
            "conv_id": pa.array(ids, pa.string()),
            "turn_idx": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(
                1_700_000_000_000_000 + rng.integers(0, 3 * 86_400_000_000, n),
                pa.timestamp("us"),
            ),
            "value": pa.array(rng.integers(1, 9, n).astype(float)),
        }
    )
    cols = rollup_windows(
        np.array(ids, dtype=object), np.arange(n),
        t["ts"].cast(pa.int64()).to_numpy(), t["value"].to_numpy(), RollupConfig(),
    )
    want = pa.table(
        {
            "conv_id": pa.array(cols["conv_id"], pa.string()),
            "tier": pa.array(cols["tier"], pa.string()),
            "bucket_ts": pa.array(cols["bucket_ts"], pa.timestamp("us")),
            "n_turns": pa.array(cols["n_turns"], pa.int64()),
            **{c: pa.array(cols[c], pa.float64()) for c in ROLLUP_COLUMNS[4:]},
        }
    )
    got = _rollup_table(t, RollupConfig())
    assert got.schema == want.schema
    assert (got.num_rows > 0) == (n > 0)
    pd.testing.assert_frame_equal(got.to_pandas(), want.to_pandas(), check_exact=True)


def test_path_dataset_bounds_group_bytes(ray_session, tmp_path):
    """A plan context whose target_max_block_size is below every file
    gives one task per file: files as large as a block are never packed."""
    import os

    from ray.data import DataContext

    from eristropy_ray.pipelines.rollup import rollup_files_colocated
    from eristropy_ray.sources.transcripts import synthesize_transcripts

    d = synthesize_transcripts(tmp_path / "tx", n_convs=12, mean_turns=20, n_files=6, hot_factor=3)
    files = sorted(glob.glob(f"{d}/*.parquet"))
    ctx = DataContext.get_current()
    before = ctx.target_max_block_size
    ctx.target_max_block_size = min(os.path.getsize(f) for f in files)
    try:
        ds = rollup_files_colocated(files)
    finally:
        ctx.target_max_block_size = before
    assert ds.context.target_max_block_size < before
    rows = ds.materialize()
    assert _map_tasks(rows) == len(files)
    pd.testing.assert_frame_equal(
        _sorted_rollup(rows), _sorted_rollup(rollup_files_colocated(files)), check_exact=True
    )


def test_job_fused_layout_and_resume(ray_session, tmp_path):
    """conv_files layout: fused single-pass path, same manifest/resume
    contract, and its rollup checkpoint equals the bucketed job's rows."""
    import ray.data as rd

    from eristropy_ray.pipelines.rollup import run_rollup_job
    from eristropy_ray.sources.transcripts import synthesize_transcripts

    d = synthesize_transcripts(
        tmp_path / "tx", n_convs=10, mean_turns=24, n_files=4, hot_factor=3
    )
    files = sorted(glob.glob(f"{d}/*.parquet"))
    out_a = str(tmp_path / "fused")
    out_b = str(tmp_path / "bucketed")
    s1 = run_rollup_job(files, out_a, n_shards=2, layout="conv_files")
    s2 = run_rollup_job(files, out_b, n_shards=2, layout="unpartitioned")
    assert s1["rows"] == s2["rows"] and s1["rows"] > 0
    a = (
        rd.read_parquet(f"{out_a}/rollup")
        .to_pandas()
        .sort_values(["tier", "conv_id", "bucket_ts"], kind="stable")
        .reset_index(drop=True)
    )
    b = (
        rd.read_parquet(f"{out_b}/rollup")
        .to_pandas()
        .sort_values(["tier", "conv_id", "bucket_ts"], kind="stable")
        .reset_index(drop=True)
    )
    cols = [c for c in a.columns if c not in ("shard", "tier")]
    pd.testing.assert_frame_equal(a[cols], b[cols])
    s3 = run_rollup_job(files, out_a, n_shards=2, layout="conv_files")
    assert s3["shards_skipped"] == 2


def test_encode_multi_block_roundtrip(ray_session):
    """A (conv, tier) series longer than max_points splits into several
    blocks that decode back to the full gap-filled series."""
    import pyarrow as pa

    from eristropy_ray.config import TIER_STEPS_US
    from eristropy_ray.stages.encode import decode_blocks, make_partition_encode_fn

    n = 30
    step = TIER_STEPS_US["1m"]
    buckets = np.arange(n, dtype=np.int64) * step + 1_700_000_000_000_000
    buckets = np.delete(buckets, [7, 8, 20])  # punch gaps
    vals = np.sin(np.arange(buckets.size) / 3.0)
    t = pa.table(
        {
            "conv_id": pa.array(["c"] * buckets.size),
            "tier": pa.array(["1m"] * buckets.size),
            "bucket_ts": pa.array(buckets, pa.timestamp("us")),
            "sampen": pa.array(vals, pa.float64()),
            "permen": pa.array(vals * 0.5, pa.float64()),
            "value_mean": pa.array(vals + 2, pa.float64()),
        }
    )
    cfg = EncodeConfig(max_points=8)
    blocks = make_partition_encode_fn(cfg)(t)
    assert blocks.num_rows == 4  # 30 dense points / 8 per block
    assert blocks["gap_filled_points"].to_pylist().count(0) < 4
    decoded = decode_blocks(blocks, cfg.columns).sort_values("bucket_ts")
    assert len(decoded) == 30  # dense grid restored
    # observed points round-trip exactly
    obs = decoded[decoded["bucket_ts"].isin(buckets)]
    np.testing.assert_array_equal(obs["sampen"].to_numpy(), vals)


def _canonical(path: str, keys: list[str]) -> pd.DataFrame:
    """The rows of a job's hive-partitioned output dir, sorted, without
    the shard path column."""
    import pyarrow.dataset as pads

    df = pads.dataset(path, partitioning="hive").to_table().to_pandas()
    return df.drop(columns=["shard"]).sort_values(keys).reset_index(drop=True)


@pytest.mark.parametrize(
    "layout,kill_at",
    [("conv_files", 1), ("conv_files", 2), ("unpartitioned", 1), ("unpartitioned", 2)],
)
def test_resume_after_partial_failure_does_not_duplicate(
    ray_session, tmp_path, monkeypatch, layout, kill_at
):
    """A run killed as it records its ``kill_at``-th manifest entry leaves
    that stage's output on disk but unrecorded. The resumed run must
    replace it, not append (Ray write_parquet appends uuid-named files
    into an existing dir), and end with an uninterrupted run's rollup
    rows and blocks."""
    from eristropy_ray.pipelines.rollup import run_rollup_job
    from eristropy_ray.sources.transcripts import synthesize_transcripts
    from eristropy_ray.state.manifest import Manifest

    d = synthesize_transcripts(
        tmp_path / "tx", n_convs=8, mean_turns=20, n_files=4, hot_factor=2
    )
    files = sorted(glob.glob(f"{d}/*.parquet"))
    clean, out = tmp_path / "clean", tmp_path / "out"
    want = run_rollup_job(files, str(clean), n_shards=2, layout=layout)

    entries = []
    mark_complete = Manifest.mark_complete

    def killed(self, shard_id, stage, *args):
        entries.append((shard_id, stage))
        if len(entries) == kill_at:
            raise RuntimeError("killed")
        mark_complete(self, shard_id, stage, *args)

    with monkeypatch.context() as m:
        m.setattr(Manifest, "mark_complete", killed)
        with pytest.raises(RuntimeError, match="killed"):
            run_rollup_job(files, str(out), n_shards=2, layout=layout)
    assert entries[-1] == ("s0000", ("rollup", "encode")[kill_at - 1])
    got = run_rollup_job(files, str(out), n_shards=2, layout=layout)
    assert got["shards_skipped"] == 0
    assert (got["rows"], got["blocks"]) == (want["rows"], want["blocks"])
    for stage, keys in (("rollup", ["tier", "conv_id", "bucket_ts"]),
                        ("blocks", ["tier", "conv_id", "block_start"])):
        pd.testing.assert_frame_equal(
            _canonical(str(out / stage), keys), _canonical(str(clean / stage), keys)
        )


def test_hopping_window_matches_brute_force(ray_session, tmp_path):
    """Every window containing an event is counted, with its exact sum,
    pinned against a brute-force per-window scan."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.queries import _HOP_SLIDE_US, _HOPS, q_hopping_window

    rng = np.random.default_rng(9)
    n = 400
    ts = np.sort(rng.integers(0, 20_000, size=n)).astype(np.int64) * 1_000_000
    uid = rng.integers(0, 3, size=n).astype(np.int64)
    val = rng.normal(size=n).round(3)
    pq.write_table(
        pa.table(
            {"event_id": pa.array(np.arange(n), pa.int64()),
             "user_id": pa.array(uid, pa.int64()),
             "ts": pa.array(ts, pa.timestamp("us")),
             "value": pa.array(val, pa.float64()),
             "event_type": pa.array(["click"] * n, pa.string())}
        ),
        tmp_path / "events.parquet",
    )
    slide = _HOP_SLIDE_US
    span = _HOPS * slide
    out = (
        q_hopping_window(str(tmp_path))
        .to_pandas()
        .sort_values(["signal_id", "window_start_us"])
        .reset_index(drop=True)
    )
    rows = {"signal_id": [], "window_start_us": [], "n_obs": [], "value_sum": []}
    for u in np.unique(uid):
        t_u = ts[uid == u]
        v_u = val[uid == u]
        starts = np.unique(
            np.array(
                [t - t % slide - k * slide for t in t_u for k in range(_HOPS)],
                dtype=np.int64,
            )
        )
        for s in starts:
            m = (t_u >= s) & (t_u < s + span)
            if m.any():
                rows["signal_id"].append(int(u))
                rows["window_start_us"].append(int(s))
                rows["n_obs"].append(int(m.sum()))
                rows["value_sum"].append(
                    float(np.round(v_u[m] * 1e6).astype(np.int64).sum() / 1e6)
                )
    exp = (
        pd.DataFrame(rows)
        .astype({"signal_id": "int64", "window_start_us": "int64",
                 "n_obs": "int64", "value_sum": "float64"})
        .sort_values(["signal_id", "window_start_us"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp)


def test_streaming_window_late_path_fires(ray_session):
    """The watermark must actually drop late arrivals on the fixture
    (105 of 131 out-of-order events at sf0.01) and keep totals
    consistent: kept + late == all events."""
    from eristropy_ray.pipelines.queries import q_streaming_window

    out = q_streaming_window("/root/testdata/sf0.01").to_pandas()
    assert int(out["n_late"].sum()) == 105
    assert int(out["n_obs"].sum()) + int(out["n_late"].sum()) == 10_000
    # a window that lost events to lateness still reports its survivors
    lossy = out[out["n_late"] > 0]
    assert len(lossy) > 0


def test_late_data_policy_modes_agree(ray_session, tmp_path):
    """cfg.lateness_us: the (conv, day)-local watermark drops late turns
    identically in every physical plan, under shuffled arrival order."""
    import glob as _glob

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from eristropy_ray.config import TIER_STEPS_US
    from eristropy_ray.pipelines.rollup import (
        TRANSCRIPT_READ_COLUMNS,
        rollup_dataset,
        rollup_files_colocated,
    )

    day = TIER_STEPS_US["1d"]
    hour = TIER_STEPS_US["1h"]
    rng = np.random.default_rng(23)
    rows = []
    for conv in ("c0", "c1"):
        base = day if conv == "c1" else 0
        # a conv-day whose max ts is base+20h; turns at 1h..20h
        for i in range(20):
            rows.append((conv, i, "t" * (i % 7 + 1), base + (i + 1) * hour))
        # second day for c0: exercises day-locality of the watermark
        if conv == "c0":
            for i in range(5):
                rows.append((conv, 100 + i, "x" * 3, base + day + (i + 1) * hour))
    t = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int64()),
            "role": pa.array(["user"] * len(rows), pa.string()),
            "text": pa.array([r[2] for r in rows], pa.string()),
            "tool": pa.array([""] * len(rows), pa.string()),
            "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
        }
    )
    perm = rng.permutation(t.num_rows)  # shuffled arrival
    t = t.take(perm)
    f = tmp_path / "late_tx.parquet"
    pq.write_table(t, f)

    cfg = RollupConfig(lateness_us=6 * hour)
    a = _sorted_rollup(rollup_files_colocated([str(f)], cfg))
    ds = rd.read_parquet(str(f), columns=TRANSCRIPT_READ_COLUMNS)
    b = _sorted_rollup(rollup_dataset(ds, cfg))
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, _reference_rollup(t, cfg))

    # manual expectation: day-1 of c0 keeps ts >= 20h - 6h = 14h
    h1 = a[(a.conv_id == "c0") & (a.tier == "1h")]
    kept_buckets = sorted(h1["bucket_ts"].astype("int64") // hour)
    assert kept_buckets == [14, 15, 16, 17, 18, 19, 20, 25, 26, 27, 28, 29]
    # no policy -> everything kept
    full = _sorted_rollup(rollup_files_colocated([str(f)], RollupConfig()))
    f1 = full[(full.conv_id == "c0") & (full.tier == "1h")]
    assert len(f1) == 25
    with pytest.raises(ValueError):
        RollupConfig(lateness_us=-1)


def test_jsonl_source_matches_parquet(ray_session, tmp_path):
    """The JSONL ingest path produces byte-identical rollups to parquet."""
    import json

    import pyarrow as pa
    import ray.data as rd

    from eristropy_ray.pipelines.rollup import rollup_dataset
    from eristropy_ray.sources.transcripts import (
        fixture_transcripts,
        read_transcripts_jsonl,
    )

    t = fixture_transcripts()
    df = t.to_pandas()
    df["ts"] = df["ts"].astype("int64")  # JSONL contract: epoch-µs int64
    half = len(df) // 2
    for i, part in enumerate((df.iloc[:half], df.iloc[half:])):
        with open(tmp_path / f"tx_{i}.jsonl", "w") as f:
            for rec in part.to_dict(orient="records"):
                f.write(json.dumps(rec) + "\n")

    cfg = RollupConfig()
    a = _sorted_rollup(rollup_dataset(rd.from_arrow(t), cfg))
    b = _sorted_rollup(
        rollup_dataset(
            read_transcripts_jsonl(
                [str(tmp_path / "tx_0.jsonl"), str(tmp_path / "tx_1.jsonl")]
            ),
            cfg,
        )
    )
    pd.testing.assert_frame_equal(a, b)


def test_csv_source_matches_parquet(ray_session, tmp_path):
    """The CSV ingest path produces byte-identical rollups to parquet."""
    import pyarrow as pa
    import ray.data as rd
    from pyarrow import csv as pa_csv

    from eristropy_ray.pipelines.rollup import rollup_dataset
    from eristropy_ray.sources.transcripts import (
        fixture_transcripts,
        read_transcripts_csv,
    )

    t = fixture_transcripts()
    # CSV contract: ts as int64 epoch-µs (same as JSONL)
    t_csv = t.set_column(
        t.schema.get_field_index("ts"),
        "ts",
        t["ts"].cast(pa.int64()),
    )
    half = len(t_csv) // 2
    files = []
    for i, part in enumerate((t_csv.slice(0, half), t_csv.slice(half))):
        path = tmp_path / f"tx_{i}.csv"
        pa_csv.write_csv(part, path)
        files.append(str(path))

    cfg = RollupConfig()
    a = _sorted_rollup(rollup_dataset(rd.from_arrow(t), cfg))
    b = _sorted_rollup(rollup_dataset(read_transcripts_csv(files), cfg))
    pd.testing.assert_frame_equal(a, b)

    # quoted multi-line texts in a file larger than pyarrow's 1 MiB read
    # block, so a quoted newline straddles a block boundary
    i = t.schema.get_field_index("text")
    multi = [(s + "\nand a second line,\r\n") * 12 for s in t["text"].to_pylist()]
    t_ml = t.set_column(i, "text", pa.array(multi, pa.string()))
    path = tmp_path / "tx_multiline.csv"
    pa_csv.write_csv(t_csv.set_column(i, "text", t_ml["text"]), path)
    assert path.stat().st_size > 1 << 20
    a = _sorted_rollup(rollup_dataset(rd.from_arrow(t_ml), cfg))
    b = _sorted_rollup(rollup_dataset(read_transcripts_csv([str(path)]), cfg))
    pd.testing.assert_frame_equal(a, b)
