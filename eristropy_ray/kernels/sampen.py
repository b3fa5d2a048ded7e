"""Sample entropy (SampEn) — vectorized numpy implementation.

Semantics match the reference's run-length template-counting kernel
(``/root/reference/eristropy/utils.py:144-193``) exactly, including:

- the Chebyshev metric realized as per-step absolute difference with a
  **strict** ``<`` comparison (utils.py:171; the docs say ``<=`` but the
  code does ``<``),
- the ``j < n-1`` boundary on the B (denominator) count (utils.py:180-182),
- ``NaN`` when no (m+1)-length template pair matches (utils.py:190-191).

Instead of transliterating the O(n²)-time / O(n)-space run-length loop, we
use the closed-form equivalence (verified bit-for-bit against a direct port
on randomized inputs in ``tests/test_sampen.py``):

    A = #{(i, j) : 0 <= i < j <= n-m-1,  max_{k<=m}  |x[i+k] - x[j+k]| < r}
    B = #{(i, j) : 0 <= i < j <= n-m-1,  max_{k<m}   |x[i+k] - x[j+k]| < r}
    SampEn = -log(A / B),   NaN if A == 0

Both counts are exact integers, and ``-log(A/B)`` is a single float64
division + log, so the result is bit-identical to the reference's
``-math.log(a[m-1] / b[m-2])``.

Two execution paths with identical counting:

- matrix path (default for n <= SAMPEN_MATRIX_MAX_N): one n×n boolean
  match matrix + m logical-AND diagonal shifts — O(n²) memory;
- offset path: streams over diagonal offsets d = j-i with O(n) memory per
  step, for long signals.

This is the single-signal kernel (the reference semantics, the per-user
queries and the test oracle). The rollup engine does not call it: it
computes every window of a tier at once with the ragged kernels of
``kernels/batch_entropy.py``, which count the same A and B (sorted
candidates, or the same match matrix for dense windows) and are verified
bit-for-bit against this function.
"""

from __future__ import annotations

import math

import numpy as np

# n above which the O(n^2)-memory boolean matrix path is abandoned for the
# O(n)-memory per-offset path (n=4096 -> ~16.8 MB per bool matrix).
SAMPEN_MATRIX_MAX_N = 4096


def _sampen_matrix(x: np.ndarray, m: int, r: float) -> float:
    if not r > 0:  # strict `<`: no pair matches, not even i with itself
        return math.nan
    n = x.size
    # build the boolean match matrix in row chunks so the float64
    # difference intermediate stays cache-sized (8x less memory traffic
    # than materializing the full n x n float matrix — this kernel is
    # bandwidth-bound under many concurrent Ray tasks)
    match = np.empty((n, n), dtype=bool)
    blk = max(1, 2_000_000 // max(n, 1))
    buf = np.empty((min(blk, n), n), dtype=np.float64)
    for s in range(0, n, blk):
        e = min(s + blk, n)
        d = np.subtract(x[s:e, None], x[None, :], out=buf[: e - s])
        np.abs(d, out=d)
        np.less(d, r, out=match[s:e])
    del buf
    # Both counts only involve template starts i, j <= n-m-1, so AND the
    # m (and then m+1) diagonal shifts of `match` trimmed to the (q, q)
    # needed region up front — ~35% faster than AND-ing full-size shifted
    # views and slicing afterwards (less memory traffic, and
    # count_nonzero beats bool .sum()). run[i, j] <=> length-m templates
    # starting at i and j match. The matrix is symmetric with an all-True
    # diagonal, so the i<j pair count is (total - diag) / 2 — no triu
    # mask allocation.
    q = n - m
    if m == 1:
        run = match[:q, :q].copy()  # copy: `run &=` below must not alias
    else:
        run = match[:q, :q] & match[1 : q + 1, 1 : q + 1]
    for k in range(2, m):
        run &= match[k : k + q, k : k + q]
    b = (np.count_nonzero(run) - q) // 2
    run &= match[m : m + q, m : m + q]
    a = (np.count_nonzero(run) - q) // 2
    if a == 0:
        return math.nan
    return -math.log(a / b)


def _sampen_offset(x: np.ndarray, m: int, r: float) -> float:
    n = x.size
    a = 0
    b = 0
    for d in range(1, n - m + 1):
        v = np.abs(x[d:] - x[:-d]) < r
        length = v.size  # n - d
        if length < m:
            continue
        c = np.cumsum(v)
        # all-true windows of width m starting at i: rolling sum == m
        wm = np.empty(length - m + 1, dtype=bool)
        wm[0] = c[m - 1] == m
        wm[1:] = (c[m:] - c[:-m]) == m
        lim = n - m - d  # second start j = i + d must be <= n-m-1
        if lim > 0:
            b += int(wm[:lim].sum())
        if length >= m + 1:
            wm1 = np.empty(length - m, dtype=bool)
            wm1[0] = c[m] == m + 1
            wm1[1:] = (c[m + 1 :] - c[: -m - 1]) == m + 1
            a += int(wm1.sum())
    if a == 0:
        return math.nan
    return -math.log(a / b)


def sampen(x: np.ndarray, m: int = 2, r: float = 0.2) -> float:
    """SampEn(x; m, r) with the reference's exact counting semantics.

    Args:
        x: 1-D signal (coerced to float64).
        m: embedding dimension (template length for the denominator count).
        r: similarity radius (strict ``<`` on absolute differences).

    Returns:
        ``-log(A/B)`` or NaN when no (m+1)-template pair matches (this
        includes every case with ``n <= m+1``, where no pair can exist,
        and every ``r <= 0``, where the strict ``<`` matches nothing).
        NaN-bearing signals also return NaN: the pipeline rejects them at
        the validation boundary (reference ``validation.py:43-49``), so a
        NaN here is outside the defined domain — the matrix path's
        all-True-diagonal count correction would otherwise be invalid
        (``|NaN-NaN| < r`` is False) and the two paths would diverge.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x must be 1-D")
    n = x.size
    if n <= m + 1 or np.isnan(x).any():
        return math.nan
    if n <= SAMPEN_MATRIX_MAX_N:
        return _sampen_matrix(x, m, r)
    return _sampen_offset(x, m, r)


def sampen_auto_r(
    x: np.ndarray, m: int = 2, r_frac: float = 0.2
) -> tuple[float, float]:
    """SampEn with the conventional data-driven radius ``r = r_frac·std(x)``.

    The reference always takes an absolute ``r`` (chosen upstream by its
    optimizer); the rollup engine instead derives ``r`` per window, the
    standard practice for heterogeneous windows. ``std`` is the population
    standard deviation (ddof=0, matching ``utils.py:25-35`` conventions).

    For a constant window (std == 0) any positive radius makes all
    templates match, giving SampEn = 0 — we use r = 1.0 so the
    ``SampEn(constant) == 0`` invariant of the reference's tests
    (``tests/test_utils.py:143-156``) holds instead of returning NaN.

    Returns:
        ``(sampen_value, r_used)``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    sd = float(x.std()) if x.size else 0.0
    r = r_frac * sd if sd > 0.0 else 1.0
    return sampen(x, m, r), r
