"""Multimodal binary-column plumbing.

Treats image/audio/video payloads as opaque ``binary`` columns with typed
metadata. The Ray-side shape — schema, actor-pool signature, small batch
sizes for wide rows, output layout — is real and tested, and so is the
decoding for the formats the standard library can express: PNG (zlib +
numpy scanline reconstruction) and PCM WAV (the ``wave`` module) are
actually decoded (``datapipe/media.py``); payloads of any other format —
or corrupt ones — degrade per row (NaN features / empty frames /
``resize_ok=False``) instead of failing the job, the right behavior for
web-scale dirty data.

Each stage reads the ``payload`` column and has one configuration: the
module constants below, the values its registry entry runs with.

Usage:
    ds.map_batches(BinaryFeatureStage(),
                   batch_format="pyarrow",
                   batch_size=128,          # small: payload rows are wide
                   concurrency=4)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from eristropy_ray.datapipe.media import (
    FEATURE_DIM,
    decode_png,
    decode_wav,
    encode_png,
    real_features,
)

PAYLOAD_COL = "payload"
N_FRAMES, FRAME_BYTES = 4, 32  # FrameSampleStage: frames per item, bytes each
RESIZE_H, RESIZE_W = 16, 16  # ImageResizeStage output size

_MAGIC = [
    (b"\x89PNG\r\n\x1a\n", "png"),
    (b"\xff\xd8\xff", "jpeg"),
    (b"GIF8", "gif"),
    (b"RIFF", "riff"),  # wav/avi container
    (b"fLaC", "flac"),
    (b"OggS", "ogg"),
    (b"\x00\x00\x00", "mp4?"),
]


def sniff_format(payload: bytes) -> str:
    for magic, name in _MAGIC:
        if payload.startswith(magic):
            return name
    return "unknown"


class BinaryFeatureStage:
    """Actor-pool map_batches stage over the binary payload column:
    decodes PNG/WAV payloads (stdlib decoders, ``datapipe/media.py``) and
    emits their moment-vector features (``media.real_features``) — rows whose payload can't
    be decoded (unsupported format, corrupt bytes) get a NaN embedding
    and ``decode_ok=False`` rather than failing the task."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = [p or b"" for p in batch[PAYLOAD_COL].to_pylist()]
        fmts = [sniff_format(p) for p in payloads]
        cols = {
            name: batch[name] for name in batch.column_names if name != PAYLOAD_COL
        }
        cols["format"] = pa.array(fmts, pa.string())
        cols["n_bytes"] = pa.array([len(p) for p in payloads], pa.int64())
        embs = []
        ok = []
        for p, fmt in zip(payloads, fmts):
            try:
                embs.append(real_features(p, fmt))
                ok.append(True)
            except ValueError:
                embs.append(np.full(FEATURE_DIM, np.nan))
                ok.append(False)
        cols["decode_ok"] = pa.array(ok, pa.bool_())
        cols["embedding"] = pa.array(
            [e.tolist() for e in embs], pa.list_(pa.float64())
        )
        return pa.table(cols)


def _decoded_stream(payload: bytes) -> bytes:
    """Raw bytes of the decoded content (pixels row-major / PCM samples),
    or b'' when no stdlib decoder applies."""
    fmt = sniff_format(payload)
    try:
        if fmt == "png":
            return decode_png(payload).tobytes()
        if fmt == "riff":
            samples, _rate = decode_wav(payload)
            return samples.tobytes()
    except ValueError:
        return b""
    return b""


class FrameSampleStage:
    """Actor-pool 1->N frame-sampling stage for video-ish payloads.

    Emits ``N_FRAMES`` rows per item, (item, frame_idx): windows of
    ``FRAME_BYTES`` bytes at evenly spaced offsets of the DECODED stream
    (stdlib PNG/WAV, ``datapipe/media.py``) — scanline bands of an image,
    sample windows of an audio clip — the standard pre-processing shape
    for video training data. Undecodable payloads degrade to empty frames
    per row (dirty web data must not fail the job)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[PAYLOAD_COL].to_pylist()
        n = len(payloads)
        keep = [c for c in batch.column_names if c != PAYLOAD_COL]
        frames: list[bytes] = []
        for p in payloads:
            p = _decoded_stream(p or b"")
            # evenly spaced offsets over the decoded stream (floor, stable)
            for f in range(N_FRAMES):
                off = (len(p) * f) // N_FRAMES
                frames.append(p[off : off + FRAME_BYTES])
        idx = pa.array(np.repeat(np.arange(n), N_FRAMES))
        cols = {name: batch[name].take(idx) for name in keep}
        cols["frame_idx"] = pa.array(
            np.tile(np.arange(N_FRAMES, dtype=np.int64), n), pa.int64()
        )
        cols["frame"] = pa.array(frames, pa.binary())
        return pa.table(cols)


def resize_nearest(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Deterministic nearest-neighbor resize (H, W, C) -> (out_h, out_w, C)
    with the standard half-pixel-center mapping: source index
    floor((i + 0.5) * H / out_h), clamped. Pure fancy-indexing — one
    gather, no per-pixel Python."""
    if pixels.ndim != 3:
        raise ValueError("expected (height, width, channels) pixels")
    h, w, _c = pixels.shape
    yi = np.minimum(
        ((np.arange(out_h) + 0.5) * h / out_h).astype(np.int64), h - 1
    )
    xi = np.minimum(
        ((np.arange(out_w) + 0.5) * w / out_w).astype(np.int64), w - 1
    )
    return pixels[yi][:, xi]


class ImageResizeStage:
    """Actor-pool image-resize stage: decode PNG -> nearest-neighbor
    resize to ``RESIZE_H`` x ``RESIZE_W`` -> re-encode PNG, the canonical
    normalize-resolution preprocessing step for image training data.
    Same per-row degradation contract as ``BinaryFeatureStage``: rows
    whose payload is not a decodable PNG emit ``resize_ok=False`` with
    an empty output payload instead of failing the task, and the output
    schema is identical for every row (one schema across all blocks)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[PAYLOAD_COL].to_pylist()
        keep = [c for c in batch.column_names if c != PAYLOAD_COL]
        out_payloads: list[bytes] = []
        in_h: list[int] = []
        in_w: list[int] = []
        ok: list[bool] = []
        for p in payloads:
            try:
                px = decode_png(p or b"")
                resized = resize_nearest(px, RESIZE_H, RESIZE_W)
                out_payloads.append(encode_png(resized))
                in_h.append(px.shape[0])
                in_w.append(px.shape[1])
                ok.append(True)
            except ValueError:
                out_payloads.append(b"")
                in_h.append(0)
                in_w.append(0)
                ok.append(False)
        cols = {name: batch[name] for name in keep}
        cols["resized"] = pa.array(out_payloads, pa.binary())
        cols["in_height"] = pa.array(in_h, pa.int64())
        cols["in_width"] = pa.array(in_w, pa.int64())
        cols["out_height"] = pa.array(
            np.full(len(payloads), RESIZE_H, dtype=np.int64), pa.int64()
        )
        cols["out_width"] = pa.array(
            np.full(len(payloads), RESIZE_W, dtype=np.int64), pa.int64()
        )
        cols["resize_ok"] = pa.array(ok, pa.bool_())
        return pa.table(cols)
