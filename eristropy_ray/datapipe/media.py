"""Pure-stdlib media decoders for the multimodal stages.

No media libraries exist in this environment, but two real formats are
decodable from public specs with the standard library alone:

- WAV via the ``wave`` module (RFC-less but canonical RIFF layout):
  PCM 8/16/32-bit, any channel count -> int numpy sample matrix.
- PNG via ``zlib`` + numpy scanline reconstruction (the PNG spec's five
  filter types: None/Sub/Up/Average/Paeth), for the common shapes:
  8-bit depth, color types 0 (gray), 2 (RGB), 4 (gray+alpha),
  6 (RGBA), non-interlaced.

Both raise ``ValueError`` on unsupported variants — callers treat that
as a decode failure, not a crash. Used by the ``multimodal`` stages.
"""

from __future__ import annotations

import io
import struct
import zlib

import numpy as np

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
# samples per pixel by PNG color type (palette unsupported)
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}
# decode cap: 64M samples (~a 4096x4096 RGBA frame). Payloads declaring
# more are treated as undecodable so one hostile row cannot OOM a worker.
_PNG_MAX_SAMPLES = 1 << 26


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM -> (samples[n_frames, n_channels] int, framerate).

    8-bit WAV is unsigned per the spec; 16/32-bit are signed
    little-endian. Raises ``ValueError`` on compressed or odd-width
    streams (anything the stdlib ``wave`` module rejects)."""
    import wave

    try:
        with wave.open(io.BytesIO(payload), "rb") as w:
            nch = w.getnchannels()
            width = w.getsampwidth()
            rate = w.getframerate()
            raw = w.readframes(w.getnframes())
    except Exception as exc:  # wave.Error, EOFError on truncation
        raise ValueError(f"not a decodable PCM WAV: {exc}") from exc
    dtype = {1: np.uint8, 2: np.dtype("<i2"), 4: np.dtype("<i4")}.get(width)
    if dtype is None:
        raise ValueError(f"unsupported WAV sample width {width}")
    flat = np.frombuffer(raw, dtype=dtype)
    if nch > 1:
        flat = flat[: (flat.size // nch) * nch].reshape(-1, nch)
    else:
        flat = flat.reshape(-1, 1)
    return flat, rate


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """PNG Paeth predictor, elementwise (spec §9, filter type 4)."""
    a16 = a.astype(np.int16)
    b16 = b.astype(np.int16)
    c16 = c.astype(np.int16)
    p = a16 + b16 - c16
    pa, pb, pc = np.abs(p - a16), np.abs(p - b16), np.abs(p - c16)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def decode_png(payload: bytes) -> np.ndarray:
    """PNG -> uint8 pixel array of shape (height, width, channels).

    Supports bit depth 8, color types 0/2/4/6, interlace 0 (the shapes a
    training-data pipeline actually stores). Scanline reconstruction:
    Up is fully vectorized; Sub uses a grouped uint8 cumsum (recon[x] =
    filt[x] + recon[x-bpp] is a per-lane prefix sum, wraparound mod 256
    is native uint8 overflow); Average/Paeth walk pixels within the row
    (both predictors depend on the just-reconstructed left neighbor)."""
    if not payload.startswith(_PNG_MAGIC):
        raise ValueError("not a PNG (bad signature)")
    pos = len(_PNG_MAGIC)
    width = height = None
    channels = None
    idat = bytearray()
    # truncated/corrupt chunk streams raise struct.error / zlib.error —
    # normalize to ValueError so callers' per-row degradation works
    try:
        while pos + 8 <= len(payload):
            (length,) = struct.unpack(">I", payload[pos : pos + 4])
            ctype = payload[pos + 4 : pos + 8]
            data = payload[pos + 8 : pos + 8 + length]
            pos += 12 + length  # length + type + data + crc
            if ctype == b"IHDR":
                width, height, depth, color, _comp, _filt, interlace = (
                    struct.unpack(">IIBBBBB", data)
                )
                if depth != 8:
                    raise ValueError(f"unsupported PNG bit depth {depth}")
                if color not in _PNG_CHANNELS:
                    raise ValueError(f"unsupported PNG color type {color}")
                if interlace != 0:
                    raise ValueError("interlaced PNG unsupported")
                channels = _PNG_CHANNELS[color]
                if width == 0 or height == 0:
                    raise ValueError("empty PNG (zero dimension)")
                # with both dims >= 1 this also bounds the scanline
                # payload h*(w*c+1) at twice the cap
                if width * height * channels > _PNG_MAX_SAMPLES:
                    raise ValueError(
                        f"PNG dimensions {width}x{height}x{channels} exceed "
                        f"the {_PNG_MAX_SAMPLES}-sample decode cap"
                    )
            elif ctype == b"IDAT":
                idat.extend(data)
            elif ctype == b"IEND":
                break
        if width is None or channels is None:
            raise ValueError("PNG missing IHDR")
        # bounded inflate: never allocate past the IHDR-declared payload
        # (a zlib bomb must degrade the row, not OOM the worker)
        expected = height * (width * channels + 1)
        dec = zlib.decompressobj()
        raw_bytes = dec.decompress(bytes(idat), expected)
        # any extra inflated output means the stream overruns the
        # IHDR-declared size — whether it is still waiting in
        # unconsumed_tail OR already buffered from consumed input
        # (flush surfaces the latter; both must reject uniformly)
        if not dec.eof and (dec.unconsumed_tail or dec.flush(1)):
            raise ValueError("PNG IDAT inflates past the declared size")
        raw = np.frombuffer(raw_bytes, dtype=np.uint8)
    except (struct.error, zlib.error) as exc:
        raise ValueError(f"corrupt PNG stream: {exc}") from exc
    stride = width * channels
    if raw.size != height * (stride + 1):
        raise ValueError("PNG scanline payload size mismatch")
    rows = raw.reshape(height, stride + 1)
    filters = rows[:, 0]
    out = np.zeros((height, stride), dtype=np.uint8)
    bpp = channels
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        f = int(filters[y])
        line = rows[y, 1:].copy()
        if f == 0:
            rec = line
        elif f == 1:  # Sub: per-lane prefix sum, uint8 wraparound
            lanes = line.reshape(-1, bpp)
            rec = np.cumsum(lanes, axis=0, dtype=np.uint8).reshape(-1)
        elif f == 2:  # Up
            rec = line + prev
        elif f == 3:  # Average
            rec = line
            left = np.zeros(bpp, dtype=np.uint8)
            for x in range(0, stride, bpp):
                rec[x : x + bpp] = line[x : x + bpp] + (
                    (left.astype(np.int16) + prev[x : x + bpp].astype(np.int16))
                    // 2
                ).astype(np.uint8)
                left = rec[x : x + bpp]
        elif f == 4:  # Paeth
            rec = line
            left = np.zeros(bpp, dtype=np.uint8)
            upleft = np.zeros(bpp, dtype=np.uint8)
            for x in range(0, stride, bpp):
                up = prev[x : x + bpp]
                rec[x : x + bpp] = line[x : x + bpp] + _paeth(left, up, upleft)
                left = rec[x : x + bpp]
                upleft = up
        else:
            raise ValueError(f"unknown PNG filter type {f}")
        out[y] = rec
        prev = out[y]
    return out.reshape(height, width, channels)


def encode_png(pixels: np.ndarray, filters: list[int] | None = None) -> bytes:
    """Minimal PNG writer (8-bit, gray/GA/RGB/RGBA): the inverse of
    ``decode_png``, applying the requested filter type per scanline.
    Used by round-trip tests and the deterministic payload synthesizer
    (``q_multimodal_features``) — NOT an optimizing encoder."""
    h, w, ch = pixels.shape
    color = {1: 0, 2: 4, 3: 2, 4: 6}[ch]
    filters = filters or [0]
    raw = bytearray()
    prev = np.zeros(w * ch, dtype=np.uint8)
    for y in range(h):
        line = pixels[y].reshape(-1).astype(np.uint8)
        f = filters[y % len(filters)]
        raw.append(f)
        left = np.concatenate([np.zeros(ch, np.uint8), line[:-ch]])
        if f == 0:
            filt = line
        elif f == 1:  # Sub
            filt = line - left
        elif f == 2:  # Up
            filt = line - prev
        elif f == 3:  # Average
            filt = line - (
                (left.astype(np.int16) + prev.astype(np.int16)) // 2
            ).astype(np.uint8)
        elif f == 4:  # Paeth
            upleft = np.concatenate([np.zeros(ch, np.uint8), prev[:-ch]])
            filt = line - _paeth(left, prev, upleft)
        else:
            raise ValueError(f"unknown PNG filter type {f}")
        raw.extend(filt.tobytes())
        prev = line

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", zlib.crc32(ctype + data))
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (
        _PNG_MAGIC
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(raw)))
        + chunk(b"IEND", b"")
    )


def encode_wav(samples: np.ndarray, rate: int = 8000) -> bytes:
    """Minimal 16-bit PCM WAV writer (inverse of ``decode_wav``)."""
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(samples.shape[1])
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(samples.astype("<i2").tobytes())
    return buf.getvalue()


FEATURE_DIM = 8  # length of real_features' moment vector


def real_features(payload: bytes, fmt: str) -> np.ndarray:
    """Deterministic content features from a DECODED payload: the moment
    vector (mean, std, min, max, q25, q50, q75, n/1e6) of the sample or
    pixel stream — a model-free stand-in with real decode semantics.
    Raises ``ValueError`` when the sniffed format has no decoder."""
    if fmt == "png":
        vals = decode_png(payload).astype(np.float64).reshape(-1)
    elif fmt == "riff":
        samples, _rate = decode_wav(payload)
        vals = samples.astype(np.float64).reshape(-1)
    else:
        raise ValueError(f"no stdlib decoder for format {fmt!r}")
    if vals.size == 0:
        return np.zeros(FEATURE_DIM, dtype=np.float64)
    q25, q50, q75 = np.percentile(vals, [25, 50, 75])
    return np.array(
        [vals.mean(), vals.std(), vals.min(), vals.max(), q25, q50, q75,
         vals.size / 1e6],
        dtype=np.float64,
    )
