"""MSB-first bit streams: one array pass that packs the fields of many
blocks, and a reader over one block.

A block's stream is a uint32 big-endian point count, then each point's
fixed number of variable-width fields in order, zero-padded at the tail
to a byte boundary. The codecs compute every point's fields as arrays
(``codecs/gorilla.py``, ``codecs/dod.py``); ``pack_fields`` lays out all
blocks of a partition in one pass: each field goes to its bit offset,
and the fields that share a 64-bit word are OR-ed by ``reduceat``.
"""

from __future__ import annotations

import numpy as np

def pack_fields(
    bounds: np.ndarray, values: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Byte streams of consecutive blocks, concatenated.

    Args:
        bounds: int (n_blocks + 1) point offsets; block b holds points
            ``bounds[b]:bounds[b + 1]`` (empty blocks allowed).
        values: uint64 (n_points, k) field values, each below
            ``2**width`` (0 where the width is 0).
        widths: uint8 (n_points, k) field widths in bits, 0..64.

    Returns:
        (data, offsets): uint8 bytes of all blocks, and int64
        (n_blocks + 1) byte offsets of each block in ``data``.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    n, k = widths.shape
    counts = np.diff(bounds)
    w = widths.ravel()
    end = np.cumsum(w, dtype=np.int64)  # in one stream, no headers or pads
    before = np.zeros(n + 1, dtype=np.int64)  # bits before each point
    before[1:] = end[k - 1 :: k]
    nbytes = (32 + before[bounds[1:]] - before[bounds[:-1]] + 7) // 8
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])

    # each field's bit in the output: its block's byte, the header, then
    # its place among the block's fields
    live = np.flatnonzero(w)
    w = w[live]
    move = np.repeat(8 * offsets[:-1] + 32 - before[bounds[:-1]], counts)
    start = end[live] - w + move[live // k]
    del end, move
    top = values.ravel()[live] << (64 - w).astype(np.uint64)  # left-aligned
    # a field spans at most two 64-bit words: OR each word's share
    q = start >> 6
    r = (start & 63).astype(np.uint64)
    words = np.zeros(offsets[-1] // 8 + 2, dtype=np.uint64)
    if q.size:
        seg = np.flatnonzero(np.append(True, q[1:] != q[:-1]))
        words[q[seg]] |= np.bitwise_or.reduceat(top >> r, seg)
        words[q[seg] + 1] |= np.bitwise_or.reduceat(
            (top << (np.uint64(63) - r)) << np.uint64(1), seg
        )
    data = words.astype(">u8").view(np.uint8)[: offsets[-1]]
    data[offsets[:-1, None] + np.arange(4)] = (
        counts.astype(">u4").view(np.uint8).reshape(-1, 4)
    )
    return data, offsets


class BitReader:
    __slots__ = ("_data", "_pos", "_nbits")

    def __init__(self, data: bytes) -> None:
        self._data = int.from_bytes(data, "big") if data else 0
        self._nbits = len(data) * 8
        self._pos = 0

    def read(self, nbits: int) -> int:
        """Next ``nbits`` bits as an unsigned int (MSB first)."""
        if nbits == 0:
            return 0
        if self._pos + nbits > self._nbits:
            raise EOFError("bit stream exhausted")
        shift = self._nbits - self._pos - nbits
        self._pos += nbits
        return (self._data >> shift) & ((1 << nbits) - 1)
