"""Linear-interpolation gap-fill over missing retention-tier buckets.

Net-new vs the reference (SURVEY.md §2.8): given the sparse per-(conv, tier)
rollup points, produce a dense bucket grid from the first to the last
observed bucket at the tier's step, linearly interpolating the numeric
rollup columns across the gaps (oracle: ``np.interp``). Filled rows carry
``n_turns = 0`` and ``gap_filled = True``.

NaN observed values (legitimately produced by too-short windows) are
treated as missing for interpolation purposes; they are preserved at their
own bucket and never used as interpolation anchors.
"""

from __future__ import annotations

import numpy as np


def gapfill_series(
    buckets: np.ndarray,
    values: np.ndarray,
    step: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (grid, filled_values, was_observed) for one rollup column.

    Args:
        buckets: sorted, unique observed bucket starts (int64, e.g. µs).
        values: float64 rollup values aligned with ``buckets``.
        step: tier bucket width in the same unit as ``buckets``.

    Returns:
        grid: int64 dense bucket starts, ``arange(min, max+step, step)``.
        filled: float64 values with gaps linearly interpolated STRICTLY
            inside the finite-anchor range; grid points outside it (incl.
            everything when fewer than two finite anchors exist) stay
            NaN — edges never extrapolate or constant-hold.
        was_observed: bool mask, True where the bucket was in the input.
    """
    b = np.ascontiguousarray(buckets, dtype=np.int64)
    v = np.ascontiguousarray(values, dtype=np.float64)
    if b.size == 0:
        return b, v, np.zeros(0, dtype=bool)
    grid = np.arange(b[0], b[-1] + step, step, dtype=np.int64)
    observed = np.isin(grid, b)
    filled = fill_missing(grid, observed, b, v)
    return grid, filled, observed


def fill_missing(
    grid: np.ndarray,
    observed: np.ndarray,
    b: np.ndarray,
    v: np.ndarray,
    group: np.ndarray | None = None,
) -> np.ndarray:
    """Filled values for a dense grid: linear interpolation strictly
    inside the finite-anchor range, NaN outside it (no extrapolation,
    no constant-hold). ONE implementation shared by ``gapfill_series``
    and the block encoder (stages/encode.py) so the two can never
    diverge bit-wise.

    ``b`` are the observed buckets (``grid[observed]``) and ``v`` their
    values. ``group`` (nondecreasing ids per grid point) fills many
    series' grids in one pass; anchors never reach across groups. Each
    filled value is ``np.interp``'s expression on the two anchors around
    it, NaN fallbacks included, so it equals ``np.interp`` bit for bit.
    """
    filled = np.full(grid.size, np.nan)
    filled[observed] = v
    finite = np.isfinite(v)
    at = np.flatnonzero(observed)[finite]  # grid positions of the anchors
    xp = b[finite].astype(np.float64)
    fp = v[finite]
    # the anchors around each grid point: at[j - 1] < i < at[j]
    j = np.searchsorted(at, np.arange(grid.size))
    inside = ~observed & (j > 0) & (j < at.size)
    if group is not None and at.size:
        lo, hi = at[np.maximum(j - 1, 0)], at[np.minimum(j, at.size - 1)]
        inside &= (group[lo] == group) & (group[hi] == group)
    i = np.flatnonzero(inside)
    hi = j[i]
    lo = hi - 1
    x = grid[i].astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (fp[hi] - fp[lo]) / (xp[hi] - xp[lo])
        y = slope * (x - xp[lo]) + fp[lo]
        bad = np.isnan(y)  # "if we get nan in one direction, try the other"
        if bad.any():
            y[bad] = (slope * (x - xp[hi]) + fp[hi])[bad]
            same = bad & np.isnan(y) & (fp[lo] == fp[hi])
            y[same] = fp[lo][same]
    filled[i] = y
    return filled
