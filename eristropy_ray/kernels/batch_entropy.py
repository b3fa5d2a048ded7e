"""Ragged entropy kernels: SampEn/PermEn over MANY windows in one pass.

The rollup engine's dominant cost is the entropy of millions of small
windows. A Python call per window costs more than its arithmetic, and
padding windows to a common length counts elements that hold no data. The
kernels here take every window of one series at once as a ragged array: a
flat float64 array ``x`` and offsets ``bounds`` (window ``w`` is
``x[bounds[w]:bounds[w + 1]]``), with no padding.

SampEn counts template pairs only between sorted near neighbours (the
sorted-candidate idea of Manis, Aktaruzzaman & Sassi, "Low computational
cost for sample entropy", Entropy 2018):

- template starts are sorted by (window, first value); a pair can match
  only if its first values differ by less than r, so each start's
  candidates are the sorted starts after it up to ``fl(x + r)`` — found by
  one ``searchsorted`` — trimmed to the exact prefix that passes the match
  predicate (``fl(x_j - x_i)`` is monotone in ``x_j``);
- coordinates 1..m are then checked on those candidates only, offset by
  offset, in memory proportional to the number of template starts;
- windows whose candidates exceed ``_DENSE_SHARE`` of their pairs (near-
  constant or few-valued windows, where sorting prunes nothing) are counted
  by the dense pairwise matrix instead, in length-sorted slabs; a window
  whose values span less than r goes there without being sorted.

Windows are taken in consecutive groups of at most ``_GROUP_POINTS``
template starts (points, for PermEn), which bounds one call's working set
on large inputs; a window's result does not depend on its group.

Exactness: both paths decide every match with the scalar kernel's
predicate ``abs(a - b) < r`` and count integers, and each window's value is
one ``-math.log(a / b)``, so results are bit-identical to ``sampen`` /
``permen`` (``tests/test_batch_entropy.py``). PermEn counts every window's
ordinal patterns with one ``bincount`` into a dense (W, order**order)
layout whose row sums run in the scalar kernel's order.

``sampen_padded``/``permen_padded`` are adapters for callers holding a
+inf-padded (W, L) matrix: they strip the padding and call the ragged
kernels.
"""

from __future__ import annotations

import math

import numpy as np

from eristropy_ray.kernels.permen import _codes3

# float64 elements of one dense-path difference block (256 KB) and boolean
# elements of one dense slab's match matrix (256 KB): cache-sized — larger
# blocks run slower, most of all under many concurrent Ray tasks
_CHUNK_ELEMS = 1 << 15
_DENSE_ELEMS = 1 << 18
# template starts (SampEn) or points (PermEn) per window group: at a few
# hundred bytes per start, 2^15 keeps one group's working set near 10 MB
# (2^17: ~40 MB; on the benchmark backfill's two file groups the
# colocated body then took 0.65 s of CPU against 0.53 s)
_GROUP_POINTS = 1 << 15
# candidate share of a window's q(q-1)/2 pairs above which the dense matrix
# is cheaper than checking candidates one by one (measured crossover)
_DENSE_SHARE = 0.25


def ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(k) for k in lengths])`` without the loop."""
    lengths = np.asarray(lengths, dtype=np.int64)
    first = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) - np.repeat(first, lengths)


def _window_groups(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive window ranges [lo, hi) whose sizes sum to at most
    ``_GROUP_POINTS`` (a larger single window is a group of its own)."""
    c = np.cumsum(sizes)
    groups, lo = [], 0
    while lo < sizes.size:
        base = int(c[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(c, base + _GROUP_POINTS, side="right")))
        groups.append((lo, hi))
        lo = hi
    return groups


def _complex_keys(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """(window, value) sort keys: numpy orders complex numbers
    lexicographically. Built field by field — ``w + 1j * v`` would compute
    ``0 * v`` and turn an infinite value into a NaN window."""
    k = np.empty(real.size, dtype=np.complex128)
    k.real = real
    k.imag = imag
    return k


def _segment_sums(a: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Sums of ``a`` over consecutive segments of lengths ``seg`` (empty
    segments sum to 0, unlike ``np.add.reduceat``)."""
    c = np.zeros(a.size + 1, dtype=np.int64)
    np.cumsum(a, out=c[1:])
    ends = np.cumsum(seg)
    return c[ends] - c[ends - seg]


def _pair_counts(run: np.ndarray) -> np.ndarray:
    """True entries per window of a contiguous (w, h, c) boolean array."""
    w, h, c = run.shape
    if h * c >= 4096:  # count_nonzero's popcount beats a summing reduce
        return np.array([np.count_nonzero(run[i]) for i in range(w)])
    return run.reshape(w, h * c).sum(axis=1)


def _dense_counts(
    P: np.ndarray, q: np.ndarray, m: int, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) counts of the windows in one +inf-padded slab by the full
    pairwise match matrix, as the scalar ``_sampen_matrix`` counts one
    window. +inf never matches (|inf - x| = inf and inf - inf = nan both
    fail ``<``), so only real templates match; start q (a real B-template,
    but not a template start) is masked. The matrix is symmetric with a
    matching diagonal, so the i<j count is (total - q) / 2."""
    w, L = P.shape
    Q = L - m
    match = np.empty((w, L, L), dtype=bool)
    rows = min(L, max(1, _CHUNK_ELEMS // (w * L)))
    buf = np.empty((w, rows, L))
    rc = r[:, None, None]
    with np.errstate(invalid="ignore"):  # inf - inf in the pad region
        for s in range(0, L, rows):
            e = min(s + rows, L)
            d = np.subtract(P[:, s:e, None], P[:, None, :], out=buf[:, : e - s])
            np.abs(d, out=d)
            np.less(d, rc, out=match[:, s:e])
    if m == 1:
        run = match[:, :Q, :Q].copy()  # copy: `run &=` below must not alias
    else:
        run = match[:, :Q, :Q] & match[:, 1 : Q + 1, 1 : Q + 1]
    for k in range(2, m):
        run &= match[:, k : k + Q, k : k + Q]
    short = np.flatnonzero(q < Q)
    run[short, q[short], :] = False
    run[short, :, q[short]] = False
    b = (_pair_counts(run) - q) // 2
    run &= match[:, m : m + Q, m : m + Q]
    a = (_pair_counts(run) - q) // 2
    return a, b


def _sparse_counts(
    x: np.ndarray,
    sg: np.ndarray,
    wid: np.ndarray,
    rw: np.ndarray,
    cnt: np.ndarray,
    rows: np.ndarray,
    m: int,
    W: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) counts from the sorted candidates: sorted start ``p`` (global
    template start ``sg[p]``) pairs with sorted starts p+1 .. p+cnt[p], all
    of which already match on coordinate 0. ``rows`` lists the sorted
    starts to expand.

    Pairs are visited by offset d = 1, 2, ...: with the rows ordered by
    descending candidate count, the rows that still have a d-th candidate
    are a prefix, so each offset is a few contiguous vector operations and
    per-row hit counts accumulate in place."""
    ordr = rows[np.argsort(-cnt[rows])]
    co = cnt[ordr]
    hb = co if m == 1 else np.zeros(ordr.size, dtype=np.int64)
    ha = np.zeros(ordr.size, dtype=np.int64)
    if ordr.size:
        # coordinate k of every sorted start, and of the ordered rows
        xs = [x[sg + k] for k in range(1, m + 1)]
        xo = [c[ordr] for c in xs]
        ro = rw[ordr]
        hit = np.empty(ordr.size, dtype=bool)
        tmp = np.empty(ordr.size)
        # rows with at least d candidates, d = 1 .. max
        n_at = np.searchsorted(-co, -np.arange(1, int(co[0]) + 1), side="right")
        for d, k in enumerate(n_at.tolist(), start=1):
            pj = ordr[:k] + d
            t, hk = tmp[:k], hit[:k]
            np.subtract(xo[0][:k], xs[0][pj], out=t)
            np.abs(t, out=t)
            np.less(t, ro[:k], out=hk)
            if m == 1:
                ha[:k] += hk
                continue
            # the few pairs still matching go on by index
            live = np.flatnonzero(hk)
            for c in range(1, m):
                if c == m - 1:
                    hb[live] += 1
                live = live[np.abs(xo[c][live] - xs[c][pj[live]]) < ro[live]]
            ha[live] += 1
    # float weights are exact here: counts stay far below 2**53
    wo = wid[ordr]
    a = np.bincount(wo, weights=ha, minlength=W).astype(np.int64)
    b = np.bincount(wo, weights=hb, minlength=W).astype(np.int64)
    return a, b


def _sampen_counts(
    x: np.ndarray,
    bounds: np.ndarray,
    q: np.ndarray,
    inf_win: np.ndarray,
    m: int,
    r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) counts of the windows ``x[bounds[w]:bounds[w + 1]]`` with q
    template starts each (0 for windows without a pair)."""
    n = np.diff(bounds)
    W = n.size
    if not q.any():
        return np.zeros(W, dtype=np.int64), np.zeros(W, dtype=np.int64)
    wid = np.repeat(np.arange(W), q)
    g = np.repeat(bounds[:-1], q) + ragged_arange(q)
    xg = x[g]
    # windows known to be dense before any sorting: those whose start
    # values span less than r (then every pair matches on coordinate 0,
    # as fl(x_j - x_i) is monotone) and those holding an infinity, which
    # count as the scalar matrix does (inf - inf never matches, not even on
    # its diagonal)
    has = np.flatnonzero(q)
    first = (np.cumsum(q) - q)[has]
    dense = inf_win & (q > 0)
    with np.errstate(invalid="ignore"):  # inf - inf
        span = np.maximum.reduceat(xg, first) - np.minimum.reduceat(xg, first)
        dense[has] |= span < r[has]
    qs = q
    if dense.any():
        qs = np.where(dense, 0, q)
        keep = ~dense[wid]
        wid, g, xg = wid[keep], g[keep], xg[keep]

    # sort the other starts by (window, first value); windows keep their
    # order, so wid is also the window of each SORTED start
    order = np.argsort(_complex_keys(wid, xg), kind="stable")
    sg = g[order]
    sv = x[sg]
    keys = _complex_keys(wid, sv)
    rw = r[wid]
    # candidates of sorted start p: p+1 .. hi[p]-1, a superset of its
    # coordinate-0 matches (fl(x_j - x_i) < r implies x_j <= fl(x_i + r))
    hi = np.searchsorted(keys, _complex_keys(wid, sv + rw), side="right")
    pos = np.arange(sg.size)
    # trim each range to the exact prefix: drop the whole tie group of the
    # last candidate while it fails the predicate (a few ulps at most)
    check = pos[hi - 1 > pos]
    while check.size:
        last = hi[check] - 1
        fail = ~(np.abs(sv[check] - sv[last]) < rw[check])
        check = check[fail]
        hi[check] = np.searchsorted(
            keys, _complex_keys(wid[check], sv[last[fail]]), side="left"
        )
        check = check[hi[check] - 1 > check]
    cnt = hi - pos - 1

    # route the rest by candidate density
    dense |= _segment_sums(cnt, qs) > _DENSE_SHARE * (q * (q - 1) // 2)
    a, b = _sparse_counts(
        x, sg, wid, rw, cnt, np.flatnonzero((cnt > 0) & ~dense[wid]), m, W
    )
    dw = np.flatnonzero(dense)
    dw = dw[np.argsort(n[dw], kind="stable")]
    s = 0
    while s < dw.size:
        # length-sorted slab: as many windows as fit the element budget at
        # the slab's longest length
        ns = n[dw[s : s + max(1, _DENSE_ELEMS // int(n[dw[s]]) ** 2)]]
        fit = np.arange(1, ns.size + 1) * ns * ns <= _DENSE_ELEMS
        sel = dw[s : s + max(1, int(fit.sum()))]
        s += sel.size
        L = int(n[sel[-1]])
        P = x[np.minimum(bounds[sel][:, None] + np.arange(L), x.size - 1)]
        P[np.arange(L) >= n[sel][:, None]] = np.inf
        a[sel], b[sel] = _dense_counts(P, q[sel], m, r[sel])
    return a, b


def sampen_ragged(
    x: np.ndarray, bounds: np.ndarray, m: int, r: np.ndarray
) -> np.ndarray:
    """SampEn of every window ``x[bounds[w]:bounds[w + 1]]``.

    Args:
        x: flat float64 array holding the windows back to back.
        bounds: (W + 1,) int64 window offsets into ``x``.
        m: embedding dimension.
        r: (W,) strictly positive similarity radius per window.

    Returns:
        (W,) float64: ``-log(A/B)``, NaN where no (m+1)-template pair
        matches, the window has at most m + 1 points, or it holds a NaN —
        exactly ``sampen`` per window.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.int64)
    r = np.asarray(r, dtype=np.float64)
    n = np.diff(bounds)
    W = n.size
    out = np.full(W, np.nan)
    # q template starts per window; windows without a pair get none, and
    # so do NaN-bearing ones (the scalar kernel's NaN)
    q = np.where(n > m + 1, n - m, 0)
    inf_win = np.zeros(W, dtype=bool)
    if not np.isfinite(x).all():
        q[_segment_sums(np.isnan(x), n) > 0] = 0
        inf_win = _segment_sums(np.isinf(x), n) > 0
    a = np.zeros(W, dtype=np.int64)
    b = np.zeros(W, dtype=np.int64)
    for lo, hi in _window_groups(q):
        a[lo:hi], b[lo:hi] = _sampen_counts(
            x, bounds[lo : hi + 1], q[lo:hi], inf_win[lo:hi], m, r[lo:hi]
        )

    # math.log, once per distinct ratio (small windows repeat a few): numpy's
    # vectorized log differs from libm by 1 ulp on some inputs — the scalar
    # kernel (and the reference) use math.log, and bit-equality is the
    # contract
    hit = np.flatnonzero(a != 0)
    ratios, inv = np.unique(a[hit] / b[hit], return_inverse=True)
    out[hit] = np.array([-math.log(t) for t in ratios.tolist()])[inv]
    return out


def permen_ragged(
    x: np.ndarray, bounds: np.ndarray, order: int = 3, normalize: bool = True
) -> np.ndarray:
    """Permutation entropy (delay 1) of every window
    ``x[bounds[w]:bounds[w + 1]]``; NaN where no full pattern fits —
    exactly ``permen`` per window."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.int64)
    h = np.empty(bounds.size - 1)
    for lo, hi in _window_groups(np.diff(bounds)):
        h[lo:hi] = _permen_group(
            x[bounds[lo] : bounds[hi]], bounds[lo : hi + 1] - bounds[lo], order, normalize
        )
    return h


def _permen_group(
    x: np.ndarray, bounds: np.ndarray, order: int, normalize: bool
) -> np.ndarray:
    """``permen_ragged`` of one window group (``bounds`` start at 0)."""
    n = np.diff(bounds)
    W = n.size
    K = order**order
    nwin = n - (order - 1)
    # the pattern at every position of the flat array; the last order-1
    # positions of each window straddle into the next one and go to a
    # dropped bin
    npos = max(x.size - (order - 1), 0)
    if order == 3 and not np.isnan(x).any():
        # comparison-based order-3 codes (kernels/permen._codes3): the
        # stable-argsort integers without the argsort; NaN data takes the
        # argsort path (argsort sorts NaN last, comparisons would not)
        code = _codes3(x[:npos], x[1 : npos + 1], x[2 : npos + 2])
    elif npos:
        sw = np.lib.stride_tricks.sliding_window_view(x, order)
        code = np.argsort(sw, axis=1, kind="stable") @ (
            order ** np.arange(order, dtype=np.int64)
        )
    else:
        code = np.empty(0, dtype=np.int64)
    key = np.repeat(np.arange(W) * K, n)[:npos] + code
    tail = bounds[1:, None] - np.arange(1, order)[None, :]
    key[tail[(tail >= bounds[:-1, None]) & (tail < npos)]] = W * K
    counts = np.bincount(key, minlength=W * K + 1)[: W * K].reshape(W, K)
    p = counts / np.maximum(nwin, 1)[:, None].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, p * np.log(p), 0.0)
    h = -terms.sum(axis=1)
    if normalize:
        h = h / math.log(math.factorial(order))
    h[nwin <= 0] = np.nan
    return h


def _strip(P: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, bounds) ragged form of a padded (W, L) matrix."""
    lengths = np.asarray(lengths, dtype=np.int64)
    bounds = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    mask = np.arange(P.shape[1])[None, :] < lengths[:, None]
    return P[mask], bounds


def sampen_padded(
    P: np.ndarray, lengths: np.ndarray, m: int, r: np.ndarray
) -> np.ndarray:
    """SampEn per padded window row.

    Args:
        P: (W, L) float64, row w holds window w's first lengths[w] values,
           remainder +inf.
        lengths: (W,) true window lengths.
        m: embedding dimension.
        r: (W,) strictly positive similarity radius per window.
    """
    x, bounds = _strip(P, lengths)
    return sampen_ragged(x, bounds, m, r)


def permen_padded(
    P: np.ndarray, lengths: np.ndarray, order: int = 3, normalize: bool = True
) -> np.ndarray:
    """Permutation entropy per padded window row (delay 1)."""
    x, bounds = _strip(P, lengths)
    return permen_ragged(x, bounds, order, normalize)


def gather_padded(
    v: np.ndarray, starts: np.ndarray, lengths: np.ndarray, L: int
) -> np.ndarray:
    """(W, L) +inf-padded gather of windows v[starts[w] : starts[w]+lengths[w]]."""
    W = starts.size
    P = np.full((W, L), np.inf)
    if W == 0:
        return P
    offs = np.arange(L)
    idx = starts[:, None] + offs[None, :]
    mask = offs[None, :] < lengths[:, None]
    np.clip(idx, 0, v.size - 1, out=idx)
    P[mask] = v[idx[mask]]
    return P


def masked_radius(P: np.ndarray, lengths: np.ndarray, r_frac: float) -> np.ndarray:
    """Per-window radius r = r_frac * population std (1.0 for constant
    windows), computed from the padded matrix via masked moment sums.

    NOT bit-compatible with the engine's radius: this accumulates the
    centered second moment with pairwise row sums, while the engine uses
    ``window_radii_from_moments`` over reduceat segment sums — for long
    windows the float accumulation order differs in the last ulp. Test
    helper only; never substitute it into the rollup path."""
    mask = np.arange(P.shape[1])[None, :] < lengths[:, None]
    vals = np.where(mask, P, 0.0)
    n = np.maximum(lengths, 1).astype(np.float64)
    mean = vals.sum(axis=1) / n
    # centered two-pass variance (single-pass E[x^2]-mean^2 collapses for
    # large-mean windows and would hand SampEn a garbage radius)
    centered = np.where(mask, P - mean[:, None], 0.0)
    var = (centered * centered).sum(axis=1) / n
    std = np.sqrt(var)
    return np.where(std > 0.0, r_frac * std, 1.0)
