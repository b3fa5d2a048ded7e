"""Round-trip identity + compression sanity for the Gorilla / DoD codecs
and the np.interp oracle for gap-fill (SURVEY.md §5 target strategy #2)."""

import numpy as np

from eristropy_ray.codecs.bits import BitReader, pack_fields
from eristropy_ray.codecs.dod import dod_decode, dod_encode
from eristropy_ray.codecs.gapfill import gapfill_series
from eristropy_ray.codecs.gorilla import gorilla_decode, gorilla_encode


def _roundtrip_floats(v):
    got = gorilla_decode(gorilla_encode(v))
    np.testing.assert_array_equal(
        np.asarray(v, dtype=np.float64).view(np.uint64), got.view(np.uint64)
    )


def test_bitstream_roundtrip():
    """``BitReader`` reads back the fields ``pack_fields`` writes after a
    block's count header; the block is zero-padded to a byte."""
    vals = [(0b1, 1), (0b0, 1), (0xDEADBEEF, 32), (0b101, 3), (0, 7), ((1 << 64) - 1, 64), (0, 0)]
    data, offsets = pack_fields(
        np.array([0, 1]),
        np.array([[v for v, _ in vals]], dtype=np.uint64),
        np.array([[nb for _, nb in vals]], dtype=np.uint8),
    )
    raw = data.tobytes()
    assert offsets.tolist() == [0, len(raw)] and len(raw) == 4 + 14  # 108 bits
    assert raw[:4] == (1).to_bytes(4, "big")
    r = BitReader(raw[4:])
    for v, nb in vals:
        assert r.read(nb) == v
    assert r.read(4) == 0  # padding


def test_gorilla_roundtrip_random(rng):
    _roundtrip_floats(rng.normal(size=500))


def test_gorilla_roundtrip_entropy_like(rng):
    # slowly varying values — the codec's sweet spot
    v = np.cumsum(rng.normal(scale=1e-3, size=1000)) + 1.5
    _roundtrip_floats(v)
    assert len(gorilla_encode(v)) < 8 * v.size  # beats raw float64


def test_gorilla_roundtrip_specials():
    _roundtrip_floats(np.array([]))
    _roundtrip_floats(np.array([0.0]))
    _roundtrip_floats(np.array([1.0, 1.0, 1.0, 1.0]))
    _roundtrip_floats(np.array([np.nan, 1.0, np.nan, np.inf, -np.inf, -0.0]))
    _roundtrip_floats(np.array([np.finfo(np.float64).max, np.finfo(np.float64).tiny]))


def test_gorilla_constant_compresses_hard():
    v = np.full(1000, 2.125)
    enc = gorilla_encode(v)
    assert len(enc) < 4 + 8 + 1000 // 8 + 2  # 1 bit per repeat


def test_dod_roundtrip_regular():
    ts = np.arange(0, 60_000_000 * 100, 60_000_000, dtype=np.int64)  # 1m grid, µs
    enc = dod_encode(ts)
    np.testing.assert_array_equal(dod_decode(enc), ts)
    # regular grid: ~1 bit/point after the 20-byte header
    assert len(enc) <= 20 + (ts.size // 8) + 2


def test_dod_roundtrip_irregular(rng):
    deltas = rng.integers(-5000, 5_000_000, size=300)
    ts = np.cumsum(np.concatenate([[1_700_000_000_000_000], deltas])).astype(np.int64)
    np.testing.assert_array_equal(dod_decode(dod_encode(ts)), ts)


def test_dod_roundtrip_extreme_jumps():
    ts = np.array(
        [0, 1, 2, 10**15, 10**15 + 1, -(10**14), 0, 60_000_000], dtype=np.int64
    )
    np.testing.assert_array_equal(dod_decode(dod_encode(ts)), ts)


def test_dod_edge_sizes():
    for ts in ([], [5], [5, 65]):
        arr = np.array(ts, dtype=np.int64)
        np.testing.assert_array_equal(dod_decode(dod_encode(arr)), arr)


def test_gapfill_matches_interp_oracle(rng):
    step = 60
    buckets = np.array([0, 60, 180, 240, 480], dtype=np.int64)
    values = rng.normal(size=5)
    grid, filled, observed = gapfill_series(buckets, values, step)
    np.testing.assert_array_equal(grid, np.arange(0, 481, 60))
    np.testing.assert_array_equal(observed, np.isin(grid, buckets))
    want = np.interp(grid.astype(float), buckets.astype(float), values)
    np.testing.assert_allclose(filled, want, rtol=1e-13)


def test_gapfill_nan_anchors_skipped():
    buckets = np.array([0, 60, 120, 240], dtype=np.int64)
    values = np.array([1.0, np.nan, 3.0, 5.0])
    grid, filled, observed = gapfill_series(buckets, values, 60)
    assert np.isnan(filled[1])  # observed NaN preserved
    assert filled[3] == 4.0  # interpolated from finite anchors (120, 240)


def test_gapfill_trivial_cases():
    g, f, o = gapfill_series(np.array([], dtype=np.int64), np.array([]), 60)
    assert g.size == 0
    g, f, o = gapfill_series(np.array([100], dtype=np.int64), np.array([7.0]), 60)
    np.testing.assert_array_equal(g, [100])
    np.testing.assert_array_equal(f, [7.0])


def test_gapfill_never_extrapolates_past_finite_anchors():
    """Missing buckets OUTSIDE the finite-anchor range stay NaN — no
    clamped constant-hold at the edges (the reference groupby analogue
    would emit nothing there, and a Gorilla block must not persist
    fabricated values)."""
    buckets = np.array([0, 120, 180], dtype=np.int64)
    values = np.array([np.nan, 5.0, 7.0])
    grid, filled, observed = gapfill_series(buckets, values, 60)
    np.testing.assert_array_equal(grid, [0, 60, 120, 180])
    assert np.isnan(filled[0])  # observed NaN preserved
    assert np.isnan(filled[1])  # missing, left of first finite anchor
    assert filled[2] == 5.0 and filled[3] == 7.0
    # single finite anchor: nothing to interpolate, no constant-hold
    g2, f2, _ = gapfill_series(
        np.array([0, 120], dtype=np.int64), np.array([np.nan, 9.0]), 60
    )
    assert np.isnan(f2[1]) and f2[2] == 9.0
