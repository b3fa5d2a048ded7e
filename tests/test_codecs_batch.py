"""Block bytes of the tier-block encoder, pinned and against per-point oracles.

``_gorilla_oracle`` and ``_dod_oracle`` are the original one-point-at-a-time
encoders (a big-int bit accumulator, one Python iteration per point). The
library encodes every block of a partition in array passes; these tests
hold it to the oracles byte for byte, and pin the partition encoder's
output on the fixture rollup by sha256.
"""

import hashlib
import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from eristropy_ray.codecs.bits import pack_fields
from eristropy_ray.codecs.dod import dod_encode, dod_fields
from eristropy_ray.codecs.gapfill import fill_missing
from eristropy_ray.codecs.gorilla import gorilla_encode, gorilla_fields
from eristropy_ray.config import EncodeConfig, RollupConfig
from eristropy_ray.stages.encode import make_partition_encode_fn
from eristropy_ray.stages.windows import rollup_windows
from tests.test_golden_stability import _fixture_rollup

# ---------------------------------------------------------------------------
# Oracles: the per-point encoders
# ---------------------------------------------------------------------------

_DOD_BUCKETS = (
    (64, 0b10, 2, 7),
    (256, 0b110, 3, 9),
    (2048, 0b1110, 4, 12),
    (1 << 31, 0b11110, 5, 32),
)


def _gorilla_oracle(values) -> bytes:
    v = np.ascontiguousarray(values, dtype=np.float64)
    n = v.size
    header = n.to_bytes(4, "big")
    if not n:
        return header
    bits = v.view(np.uint64)
    xors = np.zeros(n, dtype=np.uint64)
    xors[0] = bits[0]
    np.bitwise_xor(bits[1:], bits[:-1], out=xors[1:])
    xl = xors.tolist()
    acc = xl[0]
    nbits = 64
    prev_lead, prev_len = -1, 0
    for i in range(1, n):
        x = xl[i]
        if x == 0:
            acc <<= 1
            nbits += 1
            continue
        lead = min(64 - x.bit_length(), 31)
        trail = (x & -x).bit_length() - 1
        mlen = 64 - lead - trail
        if prev_lead >= 0 and lead >= prev_lead and trail >= 64 - prev_lead - prev_len:
            acc = (
                (acc << (2 + prev_len))
                | (0b10 << prev_len)
                | (x >> (64 - prev_lead - prev_len))
            )
            nbits += 2 + prev_len
        else:
            acc = (acc << 2) | 0b11
            acc = (acc << 5) | lead
            acc = (acc << 6) | (mlen & 0x3F)
            acc = (acc << mlen) | (x >> trail)
            nbits += 13 + mlen
            prev_lead, prev_len = lead, mlen
    pad = (-nbits) % 8
    return header + ((acc << pad).to_bytes((nbits + pad) // 8, "big"))


def _dod_oracle(ts) -> bytes:
    t = np.ascontiguousarray(ts, dtype=np.int64)
    n = t.size
    header = n.to_bytes(4, "big")
    if n == 0:
        return header
    header += int(t[0]).to_bytes(8, "big", signed=True)
    if n == 1:
        return header
    u = t.view(np.uint64)
    deltas = np.subtract(u[1:], u[:-1])
    header += int(deltas[0]).to_bytes(8, "big")
    acc = 0
    nbits = 0
    for dod_u in np.subtract(deltas[1:], deltas[:-1]).tolist():
        dod = dod_u - (1 << 64) if dod_u >= (1 << 63) else dod_u
        if dod == 0:
            acc <<= 1
            nbits += 1
            continue
        for hi, prefix, plen, vbits in _DOD_BUCKETS:
            if -hi < dod <= hi:
                acc = (acc << plen) | prefix
                acc = (acc << vbits) | (dod + hi - 1)
                nbits += plen + vbits
                break
        else:
            acc = (acc << 5) | 0b11111
            acc = (acc << 64) | dod_u
            nbits += 69
    pad = (-nbits) % 8
    tail = (acc << pad).to_bytes((nbits + pad) // 8, "big") if nbits else b""
    return header + tail


# ---------------------------------------------------------------------------
# Pins: partition encoder output on the fixture rollup
# ---------------------------------------------------------------------------


def _blocks_digest(rows: pd.DataFrame, cfg: EncodeConfig) -> str:
    blocks = make_partition_encode_fn(cfg)(pa.Table.from_pandas(rows, preserve_index=False))
    h = hashlib.sha256()
    for c in blocks.column_names:
        h.update(c.encode())
        h.update(repr(blocks[c].to_pylist()).encode())
    return h.hexdigest()


def _random_rollup() -> pd.DataFrame:
    """Thirty conversations with exponential turn gaps: sparse 1m and 1h
    grids (gap-fill runs) and random entropies (many Gorilla resets)."""
    rng = np.random.default_rng(11)
    conv, ts, val = [], [], []
    for c in range(30):
        n = int(rng.integers(5, 120))
        conv += [f"c{c}"] * n
        ts.append(1_700_000_000_000_000 + np.cumsum(rng.exponential(90e6, n)).astype(np.int64))
        val.append(rng.integers(1, 500, n).astype(np.float64))
    return pd.DataFrame(
        rollup_windows(
            np.array(conv, dtype=object), np.arange(len(conv)),
            np.concatenate(ts), np.concatenate(val), RollupConfig(),
        )
    )


BLOCK_PINS = {
    "dense": "d157aea6aa68ccaa3b4b1a4fcdec2af1e3777388eb5d723a62725be4ca61c393",
    "sparse": "d157aea6aa68ccaa3b4b1a4fcdec2af1e3777388eb5d723a62725be4ca61c393",
    "split": "3e7d402c113e3059ebada9e76a6cfc3479cbbec2ddc6fef27df232a93f1c410b",
    "gaps": "e905e50ffb489e036b992bb28b6b9451e0886134a3bbca6895099d9ea1e2fe54",
    "gaps_sparse": "2962e0d5f51c0ead2ff509cb88924dfa11b6802525746a63e929ec5f1d9f916c",
    "random": "86c17d82bfa7c29018f3b650db5342676c8f22e188790f9b3e286fe4b78a872e",
    "random_split": "42398aa3ae7e353e595d0e8836f18923b578abe3a60dd8941ce821d2645bceec",
}


def test_block_bytes_pinned():
    """sha256 of every block column (bytes, counts, bounds) per layout:
    gap-fill on and off, and small ``max_points`` forcing split blocks.
    ``gaps`` drops every third fixture row so interpolation runs."""
    fixture = _fixture_rollup()
    gappy = fixture.iloc[[i for i in range(len(fixture)) if i % 3 != 1]]
    rand = _random_rollup()
    cases = {
        "dense": (fixture, EncodeConfig()),
        "sparse": (fixture, EncodeConfig(gapfill=False)),
        "split": (fixture, EncodeConfig(max_points=3)),
        "gaps": (gappy, EncodeConfig(max_points=4)),
        "gaps_sparse": (gappy, EncodeConfig(gapfill=False, max_points=2)),
        "random": (rand, EncodeConfig()),
        "random_split": (rand, EncodeConfig(max_points=16)),
    }
    got = {name: _blocks_digest(rows, cfg) for name, (rows, cfg) in cases.items()}
    assert got == BLOCK_PINS


def test_block_table_survives_arrow_ipc():
    """The binary columns are built over the packed bytes without a copy;
    each must round-trip through Arrow IPC (Ray's object transfer) and
    pickle unchanged, at the size of its own bytes."""
    blocks = make_partition_encode_fn(EncodeConfig())(
        pa.Table.from_pandas(_random_rollup(), preserve_index=False)
    )
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, blocks.schema) as w:
        w.write_table(blocks)
    assert pa.ipc.open_stream(sink.getvalue()).read_all().equals(blocks)
    assert pickle.loads(pickle.dumps(blocks)).equals(blocks)
    payload = sum(blocks[c].nbytes for c in blocks.column_names)
    assert len(pickle.dumps(blocks)) < 1.2 * payload


# ---------------------------------------------------------------------------
# Batch encoders == oracles, byte for byte
# ---------------------------------------------------------------------------

_BASE = int(np.float64(1.5).view(np.uint64))
_SPECIAL_BITS = (
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # quiet NaN
    0x7FF8000000000001,  # NaN payloads
    0xFFF4000000000000,
    0x0000000000000001,  # smallest subnormal
    0x000FFFFFFFFFFFFF,  # largest subnormal
    0x8000000000000001,  # XOR with +0.0 keeps 64 meaningful bits
)
float_bits = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(_SPECIAL_BITS),
    # near 1.5: XORs with >= 32 leading zeros (the capped count)
    st.integers(0, 2**20).map(lambda d: _BASE ^ d),
    st.floats(allow_nan=True, allow_infinity=True, width=64).map(
        lambda f: int(np.float64(f).view(np.uint64))
    ),
)
float_block = st.one_of(
    st.lists(float_bits, max_size=40),
    # constant runs
    st.tuples(float_bits, st.integers(0, 30)).map(lambda t: [t[0]] * t[1]),
    st.lists(float_bits, min_size=0, max_size=2),
)
delta = st.one_of(
    st.integers(-70, 70),
    st.integers(-3000, 3000),
    st.integers(-(2**32), 2**32),
    st.integers(-(2**63), 2**63 - 1),  # wraps
)
ts_block = st.one_of(
    st.tuples(st.integers(-(2**63), 2**63 - 1), st.lists(delta, max_size=40)),
    st.tuples(st.integers(-(2**63), 2**63 - 1), st.lists(delta, max_size=1)),
)


def _bounds(blocks) -> np.ndarray:
    return np.concatenate([[0], np.cumsum([len(b) for b in blocks])]).astype(np.int64)


def _split(data: np.ndarray, offsets: np.ndarray) -> list[bytes]:
    return [data[a:b].tobytes() for a, b in zip(offsets[:-1], offsets[1:])]


@settings(max_examples=300, deadline=None)
@given(st.lists(float_block, max_size=6))
def test_gorilla_blocks_match_oracle(blocks):
    values = [np.array(b, dtype=np.uint64).view(np.float64) for b in blocks]
    flat = np.concatenate([np.empty(0), *values])
    bounds = _bounds(blocks)
    got = _split(*pack_fields(bounds, *gorilla_fields(flat, bounds)))
    assert got == [_gorilla_oracle(v) for v in values]
    assert [gorilla_encode(v) for v in values] == got


@settings(max_examples=300, deadline=None)
@given(st.lists(ts_block, max_size=6))
def test_dod_blocks_match_oracle(blocks):
    series = [
        np.cumsum(np.array([d % 2**64 for d in (t0, *deltas)], dtype=np.uint64)).view(np.int64)
        for t0, deltas in blocks
    ]
    # blocks of 0 points as well
    series.insert(len(series) // 2, np.empty(0, dtype=np.int64))
    flat = np.concatenate([np.empty(0, dtype=np.int64), *series])
    bounds = _bounds(series)
    got = _split(*pack_fields(bounds, *dod_fields(flat, bounds)))
    assert got == [_dod_oracle(t) for t in series]
    assert [dod_encode(t) for t in series] == got



@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
    seed=st.integers(0, 2**31 - 1),
    nan_frac=st.floats(0.0, 0.9),
)
def test_fill_missing_groups_match_one_by_one(sizes, seed, nan_frac):
    """Many series' grids filled in one pass equal each filled alone:
    anchors never reach across series."""
    rng = np.random.default_rng(seed)
    grids, observed, values = [], [], []
    for n in sizes:
        g = 1_700_000_000_000_000 + np.arange(n, dtype=np.int64) * 60_000_000
        o = rng.random(n) < 0.6
        o[[0, -1]] = True
        v = rng.normal(size=int(o.sum()))
        v[rng.random(v.size) < nan_frac] = np.nan
        grids.append(g)
        observed.append(o)
        values.append(v)
    want = [fill_missing(g, o, g[o], v) for g, o, v in zip(grids, observed, values)]
    grid, obs = np.concatenate(grids), np.concatenate(observed)
    got = fill_missing(
        grid, obs, grid[obs], np.concatenate(values),
        np.repeat(np.arange(len(sizes)), sizes),
    )
    assert np.concatenate(want).tobytes() == got.tobytes()
