"""Delta-of-delta timestamp codec (Pelkonen et al., VLDB 2015, §4.1.1).

Encodes an int64 timestamp stream (microseconds here; the paper uses
seconds) as first value + first delta + delta-of-deltas D with the paper's
variable-length buckets, extended with a 64-bit escape because microsecond
deltas exceed the paper's 32-bit bucket:

    D == 0                  -> '0'
    D in (-64, 64]          -> '10'  + 7 bits
    D in (-256, 256]        -> '110' + 9 bits
    D in (-2048, 2048]      -> '1110' + 12 bits
    D in (-2^31, 2^31]      -> '11110' + 32 bits
    otherwise               -> '11111' + 64 bits

All delta arithmetic is performed modulo 2^64 (two's complement), so the
codec round-trips EVERY int64 stream bit-exactly — including pathological
jumps whose deltas overflow a signed 64-bit difference (verified by
hypothesis in tests/test_codecs_property.py). Values in buckets are
stored offset (D + bucket_max - 1, like the paper). Header: uint32 count,
int64 first timestamp, int64 first (wrapped) delta when n >= 2.

Rollup bucket timestamps are regular after gap-fill, so almost every
point costs one bit.

Each point's fields depend only on its own delta-of-delta, so
``dod_fields`` classifies every point of every block at once and
``codecs/bits.py::pack_fields`` writes them in one pass; ``dod_encode``
is the one-block call.
"""

from __future__ import annotations

import numpy as np

from eristropy_ray.codecs.bits import BitReader, pack_fields

_BUCKETS = (
    (64, 0b10, 2, 7),
    (256, 0b110, 3, 9),
    (2048, 0b1110, 4, 12),
    (1 << 31, 0b11110, 5, 32),
)
_M64 = (1 << 64) - 1
# the buckets as lookup tables, the 64-bit escape as a fifth row
_HI = np.array([b[0] for b in _BUCKETS], dtype=np.uint64)
_PREFIX = np.array([b[1] for b in _BUCKETS] + [0b11111], dtype=np.uint64)
_PLEN = np.array([b[2] for b in _BUCKETS] + [5])
_VBITS = np.array([b[3] for b in _BUCKETS] + [64])
_OFFSET = np.array([b[0] - 1 for b in _BUCKETS] + [0])  # D is stored + hi - 1

def _to_signed(u: int) -> int:
    return u - (1 << 64) if u >= (1 << 63) else u


def dod_encode(ts: np.ndarray) -> bytes:
    t = np.ascontiguousarray(ts, dtype=np.int64)
    bounds = np.array([0, t.size])
    data, _ = pack_fields(bounds, *dod_fields(t, bounds))
    return data.tobytes()


def dod_fields(ts: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every point's two fields as uint64 values and uint8 widths of shape
    (n, 2), for the blocks ``ts[bounds[b]:bounds[b + 1]]``: the first
    timestamp and the first delta verbatim (64 bits), then each
    delta-of-delta's bucket prefix and offset value."""
    u = np.ascontiguousarray(ts, dtype=np.int64).view(np.uint64)
    n = u.size
    starts = np.asarray(bounds)[:-1]
    starts = starts[starts < n]
    delta = u.copy()
    np.subtract(u[1:], u[:-1], out=delta[1:])  # uint64 wraparound
    delta[starts] = u[starts]  # a block's first field
    dod = delta.copy()
    np.subtract(delta[1:], delta[:-1], out=dod[1:])
    sd = dod.view(np.int64)
    # s lies in (-hi, hi] iff max(s, 1 - s) <= hi
    b = np.searchsorted(_HI, np.where(sd > 0, dod, np.uint64(1) - dod))

    vals = np.empty((n, 2), dtype=np.uint64)
    widths = np.empty((n, 2), dtype=np.uint8)
    vals[:, 0] = _PREFIX[b]
    widths[:, 0] = _PLEN[b]
    vals[:, 1] = (sd + _OFFSET[b]).view(np.uint64)
    widths[:, 1] = _VBITS[b]
    zero = sd == 0
    vals[zero] = 0
    widths[zero] = (1, 0)
    verbatim = np.zeros(n, dtype=bool)
    verbatim[starts] = True
    verbatim[1:] |= verbatim[:-1].copy()
    vals[verbatim, 0] = delta[verbatim]
    vals[verbatim, 1] = 0
    widths[verbatim] = (64, 0)
    return vals, widths


def dod_decode(data: bytes) -> np.ndarray:
    n = int.from_bytes(data[:4], "big")
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    prev = int.from_bytes(data[4:12], "big", signed=True)
    out[0] = prev
    if n == 1:
        return out
    delta = int.from_bytes(data[12:20], "big")  # unsigned wrapped delta
    prev = (prev + delta) & _M64
    out[1] = _to_signed(prev)
    reader = BitReader(data[20:])
    for i in range(2, n):
        if reader.read(1) == 1:
            for hi, _prefix, plen, vbits in _BUCKETS:
                if reader.read(1) == 0:
                    dod = reader.read(vbits) - hi + 1
                    break
            else:
                dod = reader.read(64)
            delta = (delta + dod) & _M64
        prev = (prev + delta) & _M64
        out[i] = _to_signed(prev)
    return out
