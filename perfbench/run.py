#!/usr/bin/env python3
"""Benchmark entry point and watchdog.

    python3 perfbench/run.py --workload colocated_backfill --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The workload runs in a child process
(``perfbench/session.py``) in a session of its own; this process only
watches it. The child announces each phase with a deadline; when a phase
overruns, the whole session (driver, raylet, workers) is killed, the
operation in flight counts as failed, and the metrics gathered so far are
still printed. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Earlier lines starting
with ``#`` describe the box, the operation counts and, with ``--trace 1``,
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import op_summary, steal_s  # noqa: E402

# A run must end within 180 s; leave room to kill and reap the session.
RUN_DEADLINE_S = 150.0
# Runnable by hand but not in BENCHMARK.json. One sweep over the 70 registry
# entries takes about 60 s a run whatever --seconds says, and its per-entry
# tail swung by a third of its median between runs of the same code. The
# job is a chain of short Ray tasks: on a shared host its median job time
# swung by 30-50 % between runs with the hypervisor's CPU steal.
UNGATED_WORKLOADS = ("bucketed_job", "registry_sweep")


def _session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session
        fields = stat[stat.rindex(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def reap_session(sid: int, grace_s: float = 5.0) -> list[int]:
    """TERM, then KILL, every process left in the session; wait until all
    are gone. Returns the pids that had to be signalled."""
    left = _session_pids(sid)
    signalled = list(left)
    for sig, wait_s in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 10.0)):
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        end = time.monotonic() + wait_s
        while left and time.monotonic() < end:
            time.sleep(0.1)
            left = _session_pids(sid)
        if not left:
            break
    return signalled


class Watch:
    """Reads the child's event stream and enforces phase deadlines."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.t0 = time.monotonic()
        self.buf = b""
        self.ops: list[tuple[float, bool]] = []
        self.metrics: dict[str, dict] = {}
        self.notes: list[str] = []
        self.phase: tuple[str, str, float] | None = None  # (kind, name, due)
        self.ended = False
        self.timed_out: str | None = None

    def handle(self, ev: dict) -> None:
        kind = ev["ev"]
        # the event log on stderr says where a run spent its time
        print(f"[{time.monotonic() - self.t0:8.3f}] {json.dumps(ev)}", file=sys.stderr)
        if kind == "phase":
            due = time.monotonic() + float(ev["deadline_s"])
            self.phase = (ev["kind"], ev["name"], due)
        elif kind == "op":
            self.ops.append((float(ev["ms"]), bool(ev["ok"])))
            if not ev["ok"]:
                self.notes.append(f"failed op {ev['name']}: {ev.get('detail', '')}")
        elif kind == "metric":
            self.metrics[ev["name"]] = {"value": ev["value"], "unit": ev["unit"]}
        elif kind == "note":
            self.notes.append(ev["text"])
        elif kind == "end":
            self.ended = True
            self.phase = None

    def pump(self, run_due: float) -> bool:
        """Handle events until EOF (True) or a missed deadline (False)."""
        while True:
            now = time.monotonic()
            due = min(run_due, self.phase[2]) if self.phase else run_due
            if now >= due:
                what = f"{self.phase[0]} {self.phase[1]}" if self.phase else "run"
                self.timed_out = what
                return False
            ready, _, _ = select.select([self.fd], [], [], min(due - now, 1.0))
            if not ready:
                continue
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return True
            self.buf += chunk
            *lines, self.buf = self.buf.split(b"\n")
            for line in lines:
                if line.strip():
                    self.handle(json.loads(line))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS),
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's tests"
    )
    args = ap.parse_args(argv)
    if not (ROOT / "eristropy_ray" / "__init__.py").is_file():
        print(
            f"perfbench: no eristropy_ray package under {ROOT}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2

    t0 = time.monotonic()
    steal0 = steal_s()
    rfd, wfd = os.pipe()
    env = dict(os.environ)
    # Ray workers import the library by module path: give them the
    # checkout root whatever the caller's working directory is.
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), env.get("PYTHONPATH", "")) if p
    )
    # the session must not try to report usage over the network
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    # temporary files of Ray, Arrow and DuckDB stay inside the checkout
    tmp = HERE / ".work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    cmd = [
        sys.executable, str(HERE / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--events-fd", str(wfd),
    ] + (["--smoke"] if args.smoke else [])
    child = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=sys.stderr.fileno(), pass_fds=(wfd,), start_new_session=True,
    )
    os.close(wfd)
    watch = Watch(rfd)
    try:
        watch.pump(t0 + RUN_DEADLINE_S)
    finally:
        if watch.timed_out:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            rc = child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            rc = child.wait()
        stray = reap_session(child.pid)
        os.close(rfd)

    ops = list(watch.ops)
    if watch.timed_out:
        watch.notes.append(f"deadline missed in {watch.timed_out}; session killed")
        # the operation in flight (or the set-up that never let one start)
        ops.append(((time.monotonic() - t0) * 1000.0, False))
    watch.notes.append(
        f"run took {time.monotonic() - t0:.1f} s; cpu steal {steal_s() - steal0:.2f} s"
    )
    if stray:
        watch.notes.append(f"reaped {len(stray)} leftover processes")
    attempted = max(len(ops), 1)
    failed = sum(not ok for _, ok in ops) if ops else 1
    metrics = dict(watch.metrics)
    if not args.trace and ops:
        s = op_summary([ms for ms, _ in ops])
        metrics["op_p50_ms"] = {"value": s["p50_ms"], "unit": "ms"}
        metrics["op_tail_ms"] = {"value": s["tail_ms"], "unit": "ms"}
        metrics["ok_rate"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
        watch.notes.append(
            f"ops: n={s['n']} p50={s['p50_ms']:.3f} ms "
            f"tail=p{s['tail_pct']} {s['tail_ms']:.3f} ms"
        )
    expected = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in expected if m["name"] not in metrics]
    if missing:
        watch.notes.append(f"missing metrics: {missing}")
    correct = rc == 0 and watch.ended and not watch.timed_out and not failed and not missing
    for note in watch.notes:
        print(f"# {note}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
