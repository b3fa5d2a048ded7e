"""Sizes, session shape and deadlines shared by the workloads and the trace."""

from __future__ import annotations

import inputs

NUM_CPUS = 2
# Small next to the 16 GB box, which other jobs share; the largest input
# here is a few tens of MB.
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# Unix socket paths under the Ray temp dir must stay below 108 bytes, and
# Ray appends ~70 of its own.
RAY_TMP_MAX_LEN = 36

BACKFILL = inputs.TranscriptSpec(n_convs=1500, n_files=16)  # ~230 k turns
BUCKETED = inputs.TranscriptSpec(n_convs=250, n_files=4)  # ~45 k turns
SMOKE_TX = inputs.TranscriptSpec(n_convs=24, n_files=4, mean_turns=40)
TABLES = inputs.TablesSpec()
JOB_SHARDS = 2

SETUP_DEADLINE_S = 120.0
CHECK_DEADLINE_S = 60.0
OP_DEADLINE_S = {
    "backfill": 60.0,
    "job": 90.0,
    "query": 60.0,
    "upsert": 20.0,
}
# Run before the sweep, untimed: the first queries of a cold session pay
# worker start-up and imports (2.1 s against 0.3 s warm).
WARM_QUERIES = ("doc_len", "rollup_1h")
