"""Lake et al. analytic SampEn conditional-probability mean and SD.

Reimplements the semantics of the reference's largest kernel,
``SampEnEfficiency._cp_mean_and_sd`` (``/root/reference/eristropy/extras.py:51-191``):
one O(n²·m) pass that estimates CP = A/B (so SampEn = -log(CP)) and the
analytic standard deviation of CP from Lake et al., "Sample entropy
analysis of neonatal heart rate variability" (Am J Physiol 2002), giving
SE(SampEn) ≈ s/CP by error propagation.

The implementation vectorizes the per-``i`` run-length counting and the
K-covariance correction sums with numpy instead of the reference's numba
scalar loops; outputs are bit-identical because every accumulated quantity
is an exact integer count until the final p/v/s arithmetic, which follows
the same expression order. Reference quirks preserved:

- ``dd`` is initialized to 1 and never changed (extras.py:152), so the two
  ``range(dd - 1)`` adjustment loops are dead code — the nm1/nm4 terms are
  used unadjusted;
- the run/run1 buffers are full-length and carry stale entries beyond the
  current diagonal (reference reads them into R1 for small ``nj``), which
  we reproduce by maintaining full-length buffers the same way.

Also provides the three efficiency objectives built on it
(extras.py:193-225): ``counting`` (analytic), ``bootstrap``, and the
shared ``max(a, b)`` relative-error criterion.
"""

from __future__ import annotations

import math

import numpy as np

from eristropy_ray.kernels.sampen import sampen
from eristropy_ray.kernels.sampen_boot import sampen_bootstrap_se


def cp_mean_and_sd(x: np.ndarray, m: int, r: float) -> tuple[float, float]:
    """(CP, analytic SD of CP) for SampEn at embedding m and radius r.

    When a B count is zero the result is NaN (numba float division in the
    reference likewise yields nan/inf rather than raising; the
    ZeroDivisionError branch at extras.py:196-198 is kept in the objective
    below for parity with the stated contract).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    mm = m + 1
    MM = 2 * mm
    mm_cap = min(MM, n)  # reference indexes run[0:MM] unguarded; cap to n

    run = np.zeros(n, dtype=np.int64)
    run1 = np.zeros(n, dtype=np.int64)
    R1 = np.zeros((n, MM), dtype=np.int64)
    F = np.zeros((n, mm), dtype=np.int64)
    F1 = np.zeros((n, mm), dtype=np.int64)
    A = np.zeros(mm, dtype=np.float64)
    B = np.zeros(mm, dtype=np.float64)
    K = np.zeros((mm + 1) * mm, dtype=np.float64)

    for i in range(n - 1):
        nj = n - i - 1
        matched = np.abs(x[i + 1 :] - x[i]) < r
        run[:nj] = np.where(matched, run1[:nj] + 1, 0)

        clipped = np.minimum(run[:nj][matched], mm)
        if clipped.size:
            cnt = np.bincount(clipped, minlength=mm + 1)
            # suffix[k] = #matches with run > k  (contributes to order k)
            suffix = cnt[::-1].cumsum()[::-1][1:]  # length mm
            A += suffix
            F1[i, :] += suffix
            F[i, :] += suffix
            j_idx = np.nonzero(matched)[0] + i + 1
            runs_m = run[:nj][matched]
            for order in range(mm):
                F[j_idx[runs_m > order], order] += 1
            # B: like-to-like boundary — drop matches at j == n-1
            interior = j_idx < n - 1
            if interior.all():
                B += suffix
            else:
                cnt_b = np.bincount(
                    np.minimum(runs_m[interior], mm), minlength=mm + 1
                )
                B += cnt_b[::-1].cumsum()[::-1][1:]

        R1[i, :mm_cap] = run[:mm_cap]
        upto = max(mm_cap, nj)
        run1[:upto] = run[:upto]

    R2 = np.zeros((n, MM), dtype=np.int64)
    for j in range(MM):
        start = j + 2 if j < MM - 1 else MM
        if start < n:
            R2[start:n, j] = R1[start - j - 1 : n - j - 1, j]

    F2 = F - F1
    FF = F.astype(np.float64)
    K[(np.arange(mm)) * (mm + 1)] += (FF * (FF - 1.0)).sum(axis=0)

    B[1:] = B[:-1]
    B[0] = n * (n - 1) / 2
    # B can be 0 for sparse matches; like numba's float division the
    # reference produces inf/nan here rather than raising — preserve that.
    with np.errstate(invalid="ignore", divide="ignore"):
        p = A / B
        v2 = p * (1.0 - p) / B

    # K covariance-correction sums (extras.py:152-173); dd == 1 throughout,
    # so nm1 = F1[i1] and nm4 = F2[i2] with no R-based adjustment.
    for order in range(mm):
        d2 = order + 1 if order + 1 < mm - 1 else mm - 1
        ge1 = (R1 >= order + 1).astype(np.int64)
        ge2 = (R2 >= order + 1).astype(np.int64)
        C1 = np.concatenate([np.zeros((n, 1), np.int64), ge1.cumsum(axis=1)], axis=1)
        C2 = np.concatenate([np.zeros((n, 1), np.int64), ge2.cumsum(axis=1)], axis=1)
        for d in range(d2 + 1):
            i1 = np.arange(d + 1, n)
            i2 = i1 - d - 1
            nm1 = F1[i1, order]
            nm2 = F2[i1, order] - C2[i1, 2 * (d + 1)]
            nm3 = F1[i2, order] - C1[i2, 2 * d + 1]
            nm4 = F2[i2, order]
            K[d + 1 + (mm + 1) * order] += 2.0 * float(
                ((nm1 + nm2) * (nm3 + nm4)).sum()
            )

    n1 = np.zeros(mm, dtype=np.float64)
    n2 = np.zeros(mm, dtype=np.float64)
    n1[0] = n * (n - 1) * (n - 2)
    for order in range(mm - 1):
        n1[order + 1] = K[(mm + 1) * order : (mm + 1) * order + order + 2].sum()
    for order in range(mm):
        n2[order] = K[(mm + 1) * order : (mm + 1) * order + order + 1].sum()

    s1 = np.zeros(mm, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        for order in range(mm):
            v1 = v2[order]
            dv = (n2[order] - n1[order] * p[order] * p[order]) / (B[order] * B[order])
            if dv > 0:
                v1 += dv
            s1[order] = math.sqrt(v1) if v1 >= 0 or math.isnan(v1) else math.nan

    return float(p[-1]), float(s1[-1])


def counting_objective(x: np.ndarray, m: int, r: float) -> float:
    """Analytic efficiency score max(s/CP, (s/CP)/SampEn) (extras.py:193-208)."""
    try:
        cp, s_cp = cp_mean_and_sd(x, m, r)
        a = s_cp / cp
    except ZeroDivisionError:
        return math.nan
    if cp == 1:
        b = 0.0
    else:
        # reference expression order (extras.py:203-206): reciprocal
        # first, then multiply — a/(-log cp) differs in the last ulp
        sampen_val = -math.log(cp)
        b = a * (1.0 / sampen_val)
    return max(a, b)


def bootstrap_objective(
    x: np.ndarray,
    m: int,
    r: float,
    p: float = 0.5,
    n_boot: int = 100,
    seed: int = 0,
    key: tuple[int, ...] = (),
) -> float:
    """Bootstrap efficiency score max(SE, SE/SampEn) (extras.py:210-219).
    SampEn 0 (every template matches) scores SE/SampEn as 0, as
    ``counting_objective`` does at CP == 1."""
    se = sampen_bootstrap_se(x, m, r, p, n_boot, seed=seed, key=key)
    s = sampen(x, m, r)
    return max(se, se / s if s != 0 else 0.0)


def sampen_and_analytic_se(x: np.ndarray, m: int, r: float) -> tuple[float, float]:
    """(SampEn, analytic SE) = (-log CP, s/CP) (extras.py:244-248).

    CP <= 0 (no (m+1)-template matches) yields (NaN, NaN) instead of a
    math-domain crash — one pathological signal must not kill a
    distributed final stage."""
    cp, s_cp = cp_mean_and_sd(x, m, r)
    if not cp > 0.0:
        return math.nan, math.nan
    return -math.log(cp), s_cp / cp
