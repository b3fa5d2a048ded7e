"""Local replica of the driver's __ray_entry__ smoke-check.

The round driver calls ``ray.init(...)`` itself, imports
``__ray_entry__``, runs ``entry()`` (expects >= 0 rows with a stable
schema) and then each ``queries()`` callable. This tool reproduces that
sequence so a session can verify the contract end-to-end before the
driver does — the sibling of ``tools/check_oracle.py`` (which replicates
the DuckDB correctness gate).

Usage:
    python tools/check_entry.py [sf_dir]    # default /root/testdata/sf0.001

Exit status 0 iff entry() returns rows and every registry entry runs.
"""
from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    import ray

    if not ray.is_initialized():  # the driver owns the session otherwise
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext, Dataset

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    def rows(obj) -> int:
        # NOTE: Dataset has a .columns *method*, so duck-typing on the
        # attribute misroutes it to len() — use isinstance. Materialize
        # first so the plan executes once and the count reads the result.
        return obj.materialize().count() if isinstance(obj, Dataset) else len(obj)

    res = e.entry()
    n = rows(res)
    print(f"entry -> {type(res).__name__} rows: {n}")
    ok = n >= 0

    failures: list[str] = []
    qs = e.queries()
    oracles = e.oracle_sql()
    for name, fn in qs.items():
        try:
            cnt = rows(fn(sf_dir))
            if cnt is None or cnt < 0:
                failures.append(name)
        except Exception as ex:  # noqa: BLE001 — report, don't abort
            failures.append(f"{name}: {type(ex).__name__} {ex}")
    print(
        f"queries run: {len(qs)} (oracle-backed: {len(oracles)}) "
        f"failures: {failures}"
    )

    # Ray Data executors finalize asynchronously; give finalizer threads
    # time before shutdown or the process can hard-exit code 1
    # (CLAUDE.md teardown-race note).
    gc.collect()
    time.sleep(1)
    ray.shutdown()
    return 0 if ok and not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
