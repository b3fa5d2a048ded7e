"""Gorilla XOR float codec (Pelkonen et al., VLDB 2015, §4.1.2).

Encodes a float64 stream by XOR-ing each value with its predecessor:

- XOR == 0            -> single '0' bit;
- XOR != 0, and its meaningful bits fit the previous (leading, length)
  window            -> '10' + meaningful bits in the previous window;
- otherwise         -> '11' + 5 bits leading-zero count + 6 bits
                       meaningful-bit length (64 stored as 0) + the bits.

The first value is stored verbatim (64 bits). NaN round-trips bit-exactly
(the canonical quiet-NaN pattern is just bits), which matters here because
short rollup windows legitimately produce NaN entropies. Leading-zero
counts are capped at 31 so they fit 5 bits (paper's practical variant).

Block layout: uint32 big-endian point count, then the bit stream,
zero-padded to a byte.

``gorilla_fields`` computes the fields of every block of a partition in
array passes, and ``codecs/bits.py::pack_fields`` writes them. XOR,
leading and trailing zeros come for all points at once; the only serial
state is the window that each '11' point sets. The next reset after a
reset ``p`` is the first later nonzero XOR in the block with fewer
leading zeros or fewer trailing zeros than ``p``'s. That "next
violation" is found for every point at once by binary lifting over range
minima, and the chains from each block's first nonzero XOR by pointer
doubling. ``gorilla_encode`` is the one-block call.
"""

from __future__ import annotations

import numpy as np

from eristropy_ray.codecs.bits import BitReader, pack_fields


def gorilla_encode(values: np.ndarray) -> bytes:
    v = np.ascontiguousarray(values, dtype=np.float64)
    bounds = np.array([0, v.size])
    data, _ = pack_fields(bounds, *gorilla_fields(v, bounds))
    return data.tobytes()


def gorilla_fields(
    values: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every point's two fields, (control, payload) as uint64 values and
    uint8 widths of shape (n, 2), for the blocks
    ``values[bounds[b]:bounds[b + 1]]``; ``pack_fields`` writes them."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    n = bits.size
    starts = np.asarray(bounds)[:-1]
    first = np.zeros(n, dtype=bool)
    first[starts[starts < n]] = True
    x = bits.copy()
    np.bitwise_xor(bits[1:], bits[:-1], out=x[1:])
    x[first] = 0
    lead, trail = _lead_trail(x)

    cand = np.flatnonzero(x)
    reset = np.zeros(n, dtype=bool)
    reset[cand[_resets(lead[cand], trail[cand], np.cumsum(first)[cand])]] = True
    # each point's window: the last reset at or before it (every block's
    # first nonzero XOR is a reset, so it lies in the same block)
    last = np.maximum.accumulate(np.where(reset, np.arange(n), 0))
    mlen = 64 - lead[last] - trail[last]

    nz = x != 0
    vals = np.zeros((n, 2), dtype=np.uint64)
    widths = np.zeros((n, 2), dtype=np.uint8)
    # '0' (XOR 0), '10' (fits the window) or '11' + lead + length
    ctrl = (0b11 << 11) | (lead.astype(np.uint64) << 6) | (mlen & 0x3F)
    vals[:, 0] = np.where(reset, ctrl, np.uint64(0b10) * nz)
    widths[:, 0] = np.where(reset, 13, 1 + nz)
    vals[:, 1] = np.where(nz, x >> (trail[last] & 63), 0)
    widths[:, 1] = np.where(nz, mlen, 0)
    vals[first, 0] = bits[first]  # the first value verbatim
    widths[first, 0] = 64
    return vals, widths


def _lead_trail(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading zeros capped at 31, and trailing zeros, of nonzero uint64s
    as uint8 (arbitrary where zero). ``frexp`` is exact on the high 32-bit half and
    on the lowest set bit, a power of two."""
    hi = np.frexp((x >> np.uint64(32)).astype(np.float64))[1]
    lead = np.minimum(32 - hi, 31).astype(np.uint8)
    trail = np.frexp((x & (~x + np.uint64(1))).astype(np.float64))[1] - 1
    return lead, trail.astype(np.uint8)


def _resets(lead: np.ndarray, trail: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Indices of the window resets among consecutive nonzero XORs.

    A block's first nonzero XOR resets; after a reset ``p`` the next is the
    first later one in the block with ``lead < lead[p]`` or
    ``trail < trail[p]``."""
    m = lead.size
    if m == 0:
        return np.empty(0, dtype=np.int64)
    end = np.searchsorted(block, block, side="right")
    run = int((end - np.arange(m)).max())
    # minima of lead and trail over [j, j + span), span = 1, 2, 4, ...
    levels = [(1, lead, trail)]
    while 2 * levels[-1][0] <= run:
        span, ml, mt = levels[-1]
        levels.append(
            (2 * span, np.minimum(ml[:-span], ml[span:]), np.minimum(mt[:-span], mt[span:]))
        )
    # the first violation after each: binary lifting from the top level
    pos = np.arange(1, m + 1)
    for span, ml, mt in reversed(levels):
        at = np.minimum(pos, ml.size - 1)
        ok = (pos + span <= end) & (ml[at] >= lead) & (mt[at] >= trail)
        pos += span * ok
    jump = np.append(np.where(pos < end, pos, m), m)
    # the chains from each block's first: pointer doubling
    on = np.zeros(m + 1, dtype=bool)
    on[np.flatnonzero(np.append(True, block[1:] != block[:-1]))] = True
    while (jump[:m] < m).any():
        on[jump[np.flatnonzero(on)]] = True
        jump = jump[jump]
    return np.flatnonzero(on[:m])


def gorilla_decode(data: bytes) -> np.ndarray:
    n = int.from_bytes(data[:4], "big")
    reader = BitReader(data[4:])
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out.view(np.float64)
    prev = reader.read(64)
    out[0] = prev
    prev_lead, prev_len = -1, 0
    for i in range(1, n):
        if reader.read(1) == 0:
            out[i] = prev
            continue
        if reader.read(1) == 0:
            lead, mlen = prev_lead, prev_len
        else:
            lead = reader.read(5)
            mlen = reader.read(6) or 64
            prev_lead, prev_len = lead, mlen
        x = reader.read(mlen) << (64 - lead - mlen)
        prev ^= x
        out[i] = prev
    return out.view(np.float64)
