"""Summary statistics shared by the watchdog and the workloads (stdlib only)."""

from __future__ import annotations

import math
import os
import statistics


def nearest_rank(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``%
    of the samples at or below it."""
    s = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(s)))
    return s[k - 1]


# The tail is the p85 of operation times, whatever their number. The rule
# "highest percentile with ten samples beyond it" falls towards the median
# below 70 samples (p50 at 20, p9 at 11) and jumps when a run makes one
# operation more or less; above p85 it measured the host, not the code: on
# a shared 4-vCPU host the p90 of ~330 upserts spread by 20 % of its median
# over ten runs of the same code, the p95 by 27 %, the p85 by 14 %.
TAIL_PCT = 85


def op_summary(ms: list[float]) -> dict:
    """Median and tail of per-operation times, with the percentile used."""
    return {
        "n": len(ms),
        "p50_ms": statistics.median(ms),
        "tail_pct": TAIL_PCT,
        "tail_ms": nearest_rank(ms, TAIL_PCT),
    }


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
