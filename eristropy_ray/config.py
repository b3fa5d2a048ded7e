"""Typed pipeline configuration (the reference's ctor-kwarg surface,
SURVEY.md §2.8 "user-extension surface", as one dataclass)."""

from __future__ import annotations

from dataclasses import dataclass, field

US = 1_000_000
TIER_STEPS_US: dict[str, int] = {
    "1m": 60 * US,
    "1h": 3600 * US,
    "1d": 86400 * US,
}


@dataclass(frozen=True)
class RollupConfig:
    """Parameters of the flagship windowed-entropy rollup.

    Attributes:
        tiers: retention tiers to emit, each a key of ``TIER_STEPS_US``.
        m: SampEn embedding dimension (reference default m_range=(1,3);
           2 is the classic choice and the midpoint).
        r_frac: per-window similarity radius as a fraction of the window's
           population std (reference optimizes an absolute r; windows here
           are heterogeneous so the standard 0.2·std rule applies, with
           r = 1.0 for constant windows to keep SampEn(constant) = 0).
        permen_order: ordinal-pattern order for permutation entropy.
        min_window: windows shorter than this get NaN entropies (stats are
           still exact); must be > m+1 for SampEn to be defined at all.
        max_window_points: skew guard — windows longer than this are
           deterministically strided down to this many points for the
           entropy kernels only (O(n²) SampEn on an unbounded hot window
           would be the straggler; stats stay exact over all points).
           2048 bounds the ragged SampEn kernel's worst case, a
           near-constant window counted by its dense pairwise match
           matrix: ~8 MB for the 2048² match matrix and its run mask.
           SampEn estimates are stable well below this length.
        lateness_us: allowed lateness for the (conversation, day)-local
           watermark — turns older than (max ts in their conv-day) minus
           this are dropped before windowing. None (default) accepts
           everything. Day-local so both physical plans (colocated and
           day-salted bucketed) evaluate it identically;
           see stages/windows.rollup_windows.
    """

    tiers: tuple[str, ...] = ("1m", "1h", "1d")
    m: int = 2
    r_frac: float = 0.2
    permen_order: int = 3
    min_window: int = 4
    max_window_points: int = 2048
    lateness_us: int | None = None

    def __post_init__(self) -> None:
        for tier in self.tiers:
            if tier not in TIER_STEPS_US:
                raise ValueError(f"unknown tier {tier!r}")
        if self.lateness_us is not None and self.lateness_us < 0:
            raise ValueError("lateness_us must be >= 0 (or None to accept all)")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 < self.r_frac:
            raise ValueError("r_frac must be > 0")
        if self.min_window <= self.m + 1:
            raise ValueError("min_window must exceed m + 1")


@dataclass(frozen=True)
class EncodeConfig:
    """Compressed tier-block layout.

    Attributes:
        columns: rollup columns Gorilla-encoded per block.
        max_points: points per block (blocks align with (conv, tier) and
            never span a checkpoint shard, so resume can't split a stream).
        gapfill: densify the bucket grid (linear interpolation) first.
    """

    columns: tuple[str, ...] = ("sampen", "permen", "value_mean")
    max_points: int = 4096
    gapfill: bool = True
