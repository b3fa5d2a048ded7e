"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The run tests start the full watchdog + session on the ``--smoke`` inputs;
the rest are unit tests of the helpers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run as runner  # noqa: E402
from stats import op_summary  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

STATS_TEXT = """Operator 1 ReadParquet->SplitBlocks(2): 2 tasks executed, 4 blocks produced in 0.11s
* Remote wall time: 976.79us min, 20.52ms max, 7.49ms mean, 29.98ms total

Operator 3 Sort: executed in 0.68s

\tSuboperator 0 SortMap: 1 tasks executed, 4 blocks produced
\t* Remote wall time: 675.93us min, 1.06ms max, 882.07us mean, 3.53ms total

\tSuboperator 1 SortReduce: 1 tasks executed, 4 blocks produced
\t* Remote wall time: 1.03ms min, 3.57ms max, 1.78ms mean, 7.11ms total

Operator 4 MapBatches(rollup_partition)->Write: 4 tasks executed, 4 blocks produced in 290ms
* Remote wall time: 34.02ms min, 169.61ms max, 95.14ms mean, 380.58ms total
"""


def test_tail_is_the_nearest_rank_p85():
    assert op_summary([1.0, 2.0, 3.0])["tail_ms"] == 3.0
    assert op_summary([float(i) for i in range(1, 11)])["tail_ms"] == 9.0
    s = op_summary([float(i) for i in range(1, 71)])
    assert s["tail_pct"] == 85 and s["tail_ms"] == 60.0 and s["p50_ms"] == 35.5
    assert op_summary([float(i) for i in range(1, 331)])["tail_ms"] == 281.0


def test_parse_stats_sums_suboperators():
    ops = layers.parse_stats(STATS_TEXT)
    assert [o["name"] for o in ops] == [
        "ReadParquet->SplitBlocks(2)", "Sort", "MapBatches(rollup_partition)->Write",
    ]
    assert ops[1]["wall_s"] == pytest.approx(0.68)
    assert ops[1]["remote_s"] == pytest.approx(0.01064)
    assert ops[2]["wall_s"] == pytest.approx(0.29)
    ex = layers.operator_totals([ops], "exchange")
    assert ex["wall_s"] == pytest.approx(0.68)
    assert ex["wait_s"] == pytest.approx(0.68 - 0.01064 / 2)
    assert layers.operator_totals([ops], "map")["wall_s"] == pytest.approx(0.40)


def test_tracer_self_time():
    tr = layers.Tracer(enabled=True)
    with tr.span("outer"):
        time.sleep(0.02)
        with tr.span("inner"):
            time.sleep(0.03)
    st = tr.self_times()
    assert st["outer"]["total_s"] >= st["inner"]["total_s"] >= 0.03
    assert st["outer"]["self_s"] == pytest.approx(
        st["outer"]["total_s"] - st["inner"]["total_s"]
    )
    assert tr.spans[1]["root"] == tr.spans[0]["id"]
    off = layers.Tracer(enabled=False)
    with off.span("x"):
        pass
    assert off.spans == []


def test_tables_are_a_function_of_the_seed(tmp_path):
    spec = inputs.TablesSpec(orders=50, lineitems=200, events=100, documents=30, embeddings=20)
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.write_tables(tmp_path / name, spec, seed)
    same = (tmp_path / "a" / "events.parquet").read_bytes()
    assert same == (tmp_path / "b" / "events.parquet").read_bytes()
    assert same != (tmp_path / "c" / "events.parquet").read_bytes()


def test_late_batch_appends_after_each_touched_conversation():
    stored = pd.DataFrame({
        "conv_id": ["a"] * 5 + ["b"] * 5 + ["c"] * 5 + ["d"] * 5,
        "turn_idx": np.tile(np.arange(5), 4),
        "ts": pd.to_datetime(np.arange(20) * 1_000_000, unit="us"),
        "value": np.ones(20),
    })
    late = inputs.late_batch(stored, seed=3, partition=0)
    assert late.equals(inputs.late_batch(stored, seed=3, partition=0))
    assert len(late) == 3
    conv = late["conv_id"].iloc[0]
    last = stored[stored["conv_id"] == conv]
    assert (late["turn_idx"] > last["turn_idx"].max()).all()
    assert (late["ts"] > last["ts"].max()).all()


def test_blocks_check_catches_a_flipped_value():
    from eristropy_ray.config import EncodeConfig
    from eristropy_ray.stages.encode import make_partition_encode_fn
    from eristropy_ray.sources.transcripts import fixture_transcripts
    from eristropy_ray.stages.project import project_turns

    rows = checks.rollup_frame(project_turns(fixture_transcripts()).to_pandas())
    blocks = make_partition_encode_fn(EncodeConfig())(
        pa.Table.from_pandas(rows, preserve_index=False)
    ).to_pandas()
    assert checks.blocks_match_rows(blocks, rows) == ""
    bad = rows.copy()
    i = int(np.flatnonzero(np.isfinite(bad["value_mean"]))[0])
    bad.loc[i, "value_mean"] += 1e-9
    assert "value_mean" in checks.blocks_match_rows(blocks, bad)


def test_watchdog_kills_a_hung_phase_and_its_session():
    rfd, wfd = os.pipe()
    code = (
        "import os, sys, time, subprocess;"
        f"os.write({wfd}, b'{{\"ev\": \"phase\", \"kind\": \"op\", \"name\": \"hang\", "
        "\"deadline_s\": 0.5}\\n');"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']);"
        "time.sleep(60)"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", code], pass_fds=(wfd,), start_new_session=True
    )
    os.close(wfd)
    watch = runner.Watch(rfd)
    t0 = time.monotonic()
    assert watch.pump(t0 + 30) is False
    assert watch.timed_out == "op hang"
    assert time.monotonic() - t0 < 10
    runner.reap_session(child.pid)
    child.wait(timeout=10)
    os.close(rfd)
    assert runner._session_pids(child.pid) == []


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=240,
    )


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*"))
    p = _bench("--workload", "late_upsert", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


@pytest.mark.parametrize("workload", ["late_upsert", "colocated_backfill", "bucketed_job"])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    p = _bench("--workload", workload, "--seed", "2", "--seconds", "1",
               "--trace", "0", "--smoke")
    assert p.returncode == 0, p.stderr[-2000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_smoke_run_prints_every_layer_metric():
    p = _bench("--workload", "late_upsert", "--seed", "2", "--seconds", "1",
               "--trace", "1", "--smoke")
    assert p.returncode == 0, p.stderr[-2000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"], p.stdout
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(res["metrics"]) == sorted(names)
    arrows = [line for line in p.stdout.splitlines() if line.startswith("# layer ")]
    assert len(arrows) == len(names)
