"""Ragged entropy kernels (and their padded adapters) vs the scalar
kernels — element-wise exact, compared as float64 bit patterns (``==``
would accept a ``-0.0`` for a ``0.0`` and cannot compare NaNs)."""

import numpy as np
import pytest

from eristropy_ray.kernels.batch_entropy import (
    gather_padded,
    masked_radius,
    permen_padded,
    permen_ragged,
    sampen_padded,
    sampen_ragged,
)
from eristropy_ray.kernels.permen import permen
from eristropy_ray.kernels.sampen import sampen


def assert_same_bits(got, want):
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _ragged_windows(rng, W, max_len, min_len=1):
    lengths = rng.integers(min_len, max_len + 1, size=W)
    v = rng.normal(size=int(lengths.sum()))
    starts = np.zeros(W, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return v, starts, lengths


def _bounds(lengths):
    b = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=b[1:])
    return b


def _windows(x, bounds):
    return [x[bounds[w] : bounds[w + 1]] for w in range(bounds.size - 1)]


def _check_ragged(windows, m, r, orders=(3,)):
    """Both ragged kernels on ``windows`` vs the scalar kernels, bits;
    SampEn with the path chosen by density, then with every window forced
    to the dense matrix (share -1) and every window that sorting can prune
    forced to sorted candidates (share 2: candidates never exceed the pair
    count)."""
    import eristropy_ray.kernels.batch_entropy as be

    lengths = [len(w) for w in windows]
    x = np.concatenate([np.asarray(w, dtype=np.float64) for w in windows])
    bounds = _bounds(lengths)
    r = np.broadcast_to(np.asarray(r, dtype=np.float64), (len(windows),))
    want = [sampen(w, m, rw) for w, rw in zip(_windows(x, bounds), r)]
    for share in (be._DENSE_SHARE, -1.0, 2.0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(be, "_DENSE_SHARE", share)
            assert_same_bits(sampen_ragged(x, bounds, m, r), want)
    for order in orders:
        assert_same_bits(
            permen_ragged(x, bounds, order),
            [permen(w, order=order) for w in _windows(x, bounds)],
        )


def test_sampen_padded_exact(rng):
    for m in (1, 2, 3):
        v, starts, lengths = _ragged_windows(rng, 200, 40)
        L = int(lengths.max())
        P = gather_padded(v, starts, lengths, L)
        r = rng.uniform(0.1, 1.0, size=200)
        got = sampen_padded(P, lengths, m, r)
        want = [
            sampen(v[starts[w] : starts[w] + lengths[w]], m, r[w])
            for w in range(200)
        ]
        assert_same_bits(got, want)


def test_permen_padded_exact(rng):
    for order in (2, 3, 4):
        v, starts, lengths = _ragged_windows(rng, 150, 30)
        L = int(lengths.max())
        P = gather_padded(v, starts, lengths, L)
        got = permen_padded(P, lengths, order=order)
        want = [
            permen(v[starts[w] : starts[w] + lengths[w]], order=order)
            for w in range(150)
        ]
        assert_same_bits(got, want)


def test_padded_with_ties_and_constants(rng):
    # ties exercise stable argsort; constant windows exercise r=1.0
    vals = np.concatenate([np.zeros(10), np.array([1.0, 1.0, 2.0, 2.0, 0.5])])
    lengths = np.array([10, 5])
    starts = np.array([0, 10])
    P = gather_padded(vals, starts, lengths, 10)
    r = masked_radius(P, lengths, 0.2)
    assert r[0] == 1.0  # constant window
    s = sampen_padded(P, lengths, 2, r)
    # -log(A/B) with A == B is -0.0, exactly as the scalar kernel
    assert_same_bits(s[:1], [sampen(vals[:10], 2, 1.0)])
    assert_same_bits(s[:1], [-0.0])
    pe = permen_padded(P, lengths, order=3)
    assert pe[0] == 0.0
    assert_same_bits(pe, [permen(vals[:10], order=3), permen(vals[10:15], order=3)])


def test_chunking_boundary(rng, monkeypatch):
    import eristropy_ray.kernels.batch_entropy as be

    # force one-row difference blocks and one-window slabs on the dense
    # path, and send every window there
    monkeypatch.setattr(be, "_CHUNK_ELEMS", 1)
    monkeypatch.setattr(be, "_DENSE_ELEMS", 1)
    monkeypatch.setattr(be, "_DENSE_SHARE", -1.0)
    v, starts, lengths = _ragged_windows(rng, 64, 20, min_len=4)
    L = int(lengths.max())
    P = gather_padded(v, starts, lengths, L)
    r = np.full(64, 0.4)
    got = be.sampen_padded(P, lengths, 2, r)
    want = [sampen(v[starts[w] : starts[w] + lengths[w]], 2, 0.4) for w in range(64)]
    assert_same_bits(got, want)


def test_masked_radius_matches_moment_formula(rng):
    v, starts, lengths = _ragged_windows(rng, 50, 25, min_len=2)
    P = gather_padded(v, starts, lengths, int(lengths.max()))
    r = masked_radius(P, lengths, 0.2)
    assert (r > 0).all()


def test_dense_and_sparse_paths_agree(rng):
    windows = [rng.normal(size=n) for n in rng.integers(1, 90, size=40)]
    windows += [np.full(12, 3.0), rng.integers(0, 2, size=50).astype(float)]
    for m in (1, 2, 3):
        _check_ragged(windows, m, rng.uniform(0.05, 1.5, size=len(windows)))


def test_window_groups_split_exactly(rng, monkeypatch):
    """Groups of at most 7 starts/points: windows larger than a group,
    groups of windows without a pair, and every group boundary."""
    import eristropy_ray.kernels.batch_entropy as be

    monkeypatch.setattr(be, "_GROUP_POINTS", 7)
    windows = [rng.normal(size=n) for n in (0, 1, 2, 3, 30, 2, 5, 9, 1, 12, 0, 4)]
    windows += [np.full(11, 2.0), np.array([1.0, np.nan, 3.0, 2.0, 5.0])]
    for m in (1, 2):
        _check_ragged(windows, m, 0.6, orders=(2, 3, 4))


def test_difference_exactly_r_is_not_a_match(rng):
    # integer grids with integer radii: many pairs differ by exactly r,
    # which the strict predicate rejects; ties fill the range boundaries
    for r in (1.0, 2.0, 3.0):
        windows = [rng.integers(0, 6, size=n).astype(float) for n in (5, 9, 30, 200)]
        for m in (1, 2):
            _check_ragged(windows, m, r)


def test_boundary_ties_and_rounded_range_ends():
    # 1e16 has a ulp of 2: fl(x + 0.9) rounds down to x and fl(x + 1.5)
    # rounds up to the next value, which then differs by 2 > r and must be
    # trimmed from the candidate range together with all its ties
    base = 1e16
    steps = np.array([0, 1, 1, 2, 0, 2, 2, 1, 0, 3, 1, 2, 2, 0, 1, 1, 3, 2])
    distinct = np.array([5, 0, 7, 2, 9, 1, 4, 11, 3, 8, 6, 10])
    for r in (0.9, 1.5, 2.0, 2.5, 4.0):
        windows = [base + 2.0 * steps, -base - 2.0 * steps[::-1], base + 2.0 * distinct]
        for m in (1, 2):
            _check_ragged(windows, m, r)
    # two distinct values in one candidate range fail (x_j's ulp is finer
    # than the difference's), so trimming takes two steps
    x, r = -1.8282804000649202, 4.471599212342355
    v1 = x + r
    v2 = np.nextafter(v1, -np.inf)
    v3 = np.nextafter(v2, -np.inf)
    assert not abs(x - v1) < r and not abs(x - v2) < r and abs(x - v3) < r
    w = np.array([x, v1, v2, x, v2, v3, v1, x, v3, v2])
    for m in (1, 2):
        _check_ragged([w, w[::-1], np.array([x, v2, v1, x])], m, r)
    # a tie group sitting exactly at x + r
    w = np.array([0.0, 0.5, 0.5, 0.5, 0.0, 0.5, 0.25, 0.5, 0.0, 0.5])
    _check_ragged([w, w[::-1]], 2, 0.5)


def test_constant_windows_are_negative_zero():
    windows = [np.full(n, 7.5) for n in (4, 5, 17, 130)]
    x = np.concatenate(windows)
    bounds = _bounds([len(w) for w in windows])
    got = sampen_ragged(x, bounds, 2, np.ones(len(windows)))
    assert_same_bits(got, np.full(len(windows), -0.0))
    _check_ragged(windows, 2, 1.0)


def test_shortest_windows(rng):
    for m in (1, 2, 3):
        windows = [rng.normal(size=n) for n in range(0, m + 4)]
        _check_ragged(windows, m, 0.8, orders=(2, 3, 4))


def test_zero_windows_and_nan_windows():
    empty = np.empty(0)
    assert sampen_ragged(empty, np.zeros(1, dtype=np.int64), 2, empty).size == 0
    assert permen_ragged(empty, np.zeros(1, dtype=np.int64)).size == 0
    _check_ragged([np.array([1.0, np.nan, 2.0, 3.0, 1.5, 2.5]), np.arange(8.0)], 2, 0.7)
    # outside the rollup's domain (projection rejects non-finite values),
    # but still exactly the scalar kernel
    inf = np.inf
    with np.errstate(invalid="ignore"):  # the scalar kernel's inf - inf
        _check_ragged(
            [np.array([1.0, inf, 2.0, inf, 1.5, -inf, inf, 2.5]), np.arange(8.0)], 2, 0.7
        )


def test_dense_fallback_takes_constant_and_two_value_windows(rng, monkeypatch):
    """The path is chosen from the window itself: a constant window (its
    values span less than r, so every pair matches) and a two-value window
    (about half its pairs are candidates) are counted by the dense matrix,
    Gaussian windows (~11 % candidates) by sorted candidates."""
    import eristropy_ray.kernels.batch_entropy as be

    dense_q = []
    real = be._dense_counts

    def spy(P, q, m, r):
        dense_q.extend(q.tolist())
        return real(P, q, m, r)

    monkeypatch.setattr(be, "_dense_counts", spy)
    n = 300
    windows = [
        np.full(n, 2.0),
        rng.integers(0, 2, size=n).astype(float),
        rng.normal(size=n),
        rng.normal(size=n),
    ]
    # Gaussian radius 0.2 sigma; the two-value window's 0/1 steps exceed
    # its radius of 0.1, so its candidates are exactly its ties (~half)
    r = [1.0, 0.1, 0.2, 0.2]
    x = np.concatenate(windows)
    got = be.sampen_ragged(x, _bounds([n] * 4), 2, np.array(r))
    assert sorted(dense_q) == [n - 2, n - 2]
    assert_same_bits(got, [sampen(w, 2, rw) for w, rw in zip(windows, r)])


def test_padded_kernels_hypothesis():
    """Property form of the exactness contract: ANY ragged float windows
    with ANY positive radii produce bit-identical results to the scalar
    kernels."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1,
                max_size=24,
            ),
            min_size=1,
            max_size=12,
        ),
        st.floats(min_value=1e-6, max_value=10.0),
        st.integers(min_value=1, max_value=3),
    )
    def inner(windows, r_val, m):
        lengths = np.array([len(w) for w in windows])
        v = np.concatenate([np.asarray(w, dtype=np.float64) for w in windows])
        starts = np.zeros(lengths.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        P = gather_padded(v, starts, lengths, int(lengths.max()))
        r = np.full(lengths.size, r_val)
        xs = [v[starts[w] : starts[w] + lengths[w]] for w in range(lengths.size)]
        assert_same_bits(sampen_padded(P, lengths, m, r), [sampen(x, m, r_val) for x in xs])
        assert_same_bits(permen_padded(P, lengths, order=3), [permen(x, order=3) for x in xs])

    inner()
