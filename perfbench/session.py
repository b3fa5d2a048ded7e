"""One benchmark run: set-up, the measured closed loop, checks, metrics.

Started by ``run.py`` in a session of its own; not meant to be run by hand.
Events go to the file descriptor given by ``--events-fd``, one JSON object a
line: ``phase`` (what runs next and its deadline), ``op`` (one operation's
time and whether its check passed), ``metric`` and ``note``; ``end`` closes
the stream. Operations are timed with their checks outside the timed span.

The driver is a single thread. It owns one Ray session pinned to
``num_cpus=2`` (at ``num_cpus=1`` ``Dataset.join`` never finishes, see
NOTES.md) and calls only the library's public entry points.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT), str(HERE)]

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from stats import steal_s  # noqa: E402
from specs import (  # noqa: E402
    CHECK_DEADLINE_S, NUM_CPUS, OBJECT_STORE_BYTES, OP_DEADLINE_S,
    RAY_TMP_MAX_LEN, SETUP_DEADLINE_S,
)

class Events:
    def __init__(self, fd: int) -> None:
        self._fh = os.fdopen(fd, "w", buffering=1)

    def send(self, ev: str, **fields) -> None:
        self._fh.write(json.dumps({"ev": ev, **fields}) + "\n")
        self._fh.flush()


class Run:
    """State of one run: arguments, events, tracer, scratch dir, Ray."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.ev = Events(args.events_fd)
        self.tracer = layers.Tracer(enabled=self.trace)
        self.work = HERE / ".work" / f"{self.workload}-s{self.seed}-p{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.ray_tmp: Path | None = None
        self.setup: dict[str, float] = {}
        self.e2e: dict[str, float] = {}
        self.query_walls: dict[str, float] = {}

    # -- events -------------------------------------------------------
    def phase(self, kind: str, name: str, deadline_s: float) -> None:
        self.ev.send("phase", kind=kind, name=name, deadline_s=deadline_s)

    def note(self, text: str) -> None:
        self.ev.send("note", text=text)

    def metric(self, name: str, value: float, unit: str) -> None:
        """An end-to-end metric: reported untraced, kept for the trace."""
        self.e2e[name] = value
        if not self.trace:
            self.ev.send("metric", name=name, value=value, unit=unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        if self.trace:
            self.ev.send("metric", name=name, value=value, unit=unit)

    # -- Ray session --------------------------------------------------
    def start_ray(self) -> float:
        import ray
        from ray.data import DataContext

        kw = {}
        tmp = HERE / ".work" / "ray"
        if len(str(tmp)) <= RAY_TMP_MAX_LEN:
            tmp.mkdir(parents=True, exist_ok=True)
            kw["_temp_dir"] = str(tmp)
            self.ray_tmp = tmp
        else:
            self.note("checkout path too long for Ray sockets; Ray uses its default temp dir")
        t0 = time.perf_counter()
        ray.init(
            address="local", num_cpus=NUM_CPUS, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES, **kw,
        )
        DataContext.get_current().enable_progress_bars = False
        from eristropy_ray.raylog import install_empty_schema_warning_filter

        install_empty_schema_warning_filter()
        return time.perf_counter() - t0

    def close(self) -> None:
        import ray

        if ray.is_initialized():
            # Ray Data finalises executors asynchronously; a finalizer that
            # touches the core worker after shutdown exits the process with
            # code 1 and no message. Drop the datasets and let them finish.
            gc.collect()
            time.sleep(1.0)
            ray.shutdown()
        shutil.rmtree(self.work, ignore_errors=True)
        if self.ray_tmp is not None:
            shutil.rmtree(self.ray_tmp, ignore_errors=True)

    # -- the closed loop ----------------------------------------------
    def loop(self, kind: str, name: str, op, check, min_reps: int, prep=None) -> list[float]:
        """Run ``op`` then ``check`` until the timed seconds reach
        ``--seconds`` (at least ``min_reps`` times). Returns op seconds."""
        times: list[float] = []
        while len(times) < min_reps or sum(times) < self.seconds:
            times.append(self.timed(kind, name, op, check, prep))
        return times

    def timed(self, kind: str, name: str, op, check, prep=None) -> float:
        """One operation: ``prep()`` untimed, timed ``op()``, then
        ``check(result)`` untimed."""
        self.phase("op", name, OP_DEADLINE_S[kind])
        ok, detail = True, ""
        if prep is not None:
            prep()
        steal0 = steal_s()
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name):
                out = op()
        except Exception as exc:  # one failed operation must not end the run
            dt = time.perf_counter() - t0
            traceback.print_exc()
            self.ev.send("op", name=name, ms=dt * 1000, ok=False, detail=repr(exc))
            return dt
        dt = time.perf_counter() - t0
        stolen = steal_s() - steal0
        self.phase("check", name, CHECK_DEADLINE_S)
        try:
            detail = check(out)
            ok = not detail
        except Exception as exc:
            traceback.print_exc()
            ok, detail = False, f"check raised {exc!r}"
        self.ev.send("op", name=name, ms=dt * 1000, ok=ok, detail=detail, steal_s=stolen)
        return dt

    def setup_step(self, name: str, fn):
        """Run one set-up step under the set-up deadline, timing it."""
        self.phase("setup", name, SETUP_DEADLINE_S)
        t0 = time.perf_counter()
        with self.tracer.span(f"setup.{name}"):
            out = fn()
        self.setup[name] = time.perf_counter() - t0
        return out

    def finish(self) -> None:
        """Report set-up time and peak memory, then the per-layer trace."""
        self.metric("setup_s", sum(self.setup.values()), "s")
        self.metric("peak_rss_mb", peak_rss_mb(), "MB")
        if self.trace:
            layers.report(self)


def peak_rss_mb() -> float:
    """Sum of VmHWM over this session's live processes: the driver, and the
    raylet, GCS and workers it started."""
    sid = os.getsid(0)
    total_kb = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            fields = stat[stat.rindex(")") + 2 :].split()
            if fields[0] == "Z" or int(fields[3]) != sid:
                continue
            with open(f"/proc/{entry}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except (OSError, ValueError):
            continue
    return total_kb / 1024.0


def box_facts() -> dict:
    import ray

    nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_num_cpus": NUM_CPUS,
        "ray": ray.__version__,
        "pyarrow": pa.__version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--events-fd", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    run = Run(ap.parse_args())
    try:
        run.note("box: " + json.dumps(box_facts(), sort_keys=True))
        workloads.WORKLOADS[run.workload](run)
    finally:
        run.close()
    run.ev.send("end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
