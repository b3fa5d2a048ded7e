"""Core windowed-entropy rollup over flat numpy arrays — the single code
path shared by both physical plans (per-file colocated tasks and bucketed
hash partitions) and by the in-process references used in tests.

Given (conv_id, turn_idx, ts, value) arrays for ANY set of conversations,
sorts by (conv, ts, turn_idx) — the "stable turn ordering" invariant from
BASELINE.json.input_hint — then for every retention tier emits one row per
(conv_id, bucket) window with exact vectorized stats (reduceat) and the
entropy kernels of the reference applied per window — computed for all of a
tier's windows of one series in ONE ragged pass (``_window_entropies``,
``kernels/batch_entropy``), bit-identical to the scalar kernels, and once
per distinct window across tiers (a 1d window holding exactly the turns
of a 1h window reuses its entropies):

- ``sampen``/``permen``: computed on the first-differenced window series
  (the reference's stationarity preprocessing, stationarity.py:237-241,
  difference.py:52-79) — NaN when the window is shorter than
  ``cfg.min_window``;
- ``sampen_raw``/``permen_raw``: the same kernels on the raw series;
- per-window radius r = cfg.r_frac · std(series) (population), r = 1.0 for
  constant series (keeps the reference invariant SampEn(constant) = 0).

Windows never span group boundaries by construction: callers hand over
whole conversations (colocated files) or whole (conversation, day) units
(day-salted bucketed partitions) — each tier's buckets nest inside a day,
so a (conv, day) unit always contains whole windows for every tier <= 1d.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from eristropy_ray.config import TIER_STEPS_US, RollupConfig
from eristropy_ray.kernels.batch_entropy import (
    permen_ragged,
    ragged_arange,
    sampen_ragged,
)

ROLLUP_COLUMNS = (
    "conv_id",
    "tier",
    "bucket_ts",
    "n_turns",
    "value_mean",
    "value_sum",
    "value_min",
    "value_max",
    "value_std",
    "sampen",
    "permen",
    "sampen_raw",
    "permen_raw",
)


def window_radii_from_moments(
    ssq_centered: np.ndarray, counts: np.ndarray, r_frac: float
) -> np.ndarray:
    """r = r_frac * population std from centered second moments; 1.0 for
    constant windows (keeps SampEn(constant)=0). One shared definition for
    the engine and the test oracle — see ``raw_window_radius``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        std = np.sqrt(ssq_centered / counts)
    return np.where(std > 0.0, r_frac * std, 1.0)


def raw_window_radius(x: np.ndarray, r_frac: float) -> float:
    """Per-window oracle form of the engine's radius derivation: the same
    reduceat accumulation order on a single segment."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    mean = np.add.reduceat(x, [0])[0] / n
    c = x - mean
    ssq = np.add.reduceat(c * c, [0])[0]
    return float(window_radii_from_moments(
        np.array([ssq]), np.array([n]), r_frac
    )[0])


def diff_window_radius(x: np.ndarray, r_frac: float) -> float:
    """Oracle form for the differenced series: mean via the telescoping
    (last-first)/(n-1) identity, variance via the centered reduceat."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 2:
        return 1.0
    d = x[1:] - x[:-1]
    mean = (x[-1] - x[0]) / (n - 1.0)
    c = d - mean
    ssq = np.add.reduceat(c * c, [0])[0]
    return float(window_radii_from_moments(
        np.array([ssq]), np.array([n - 1]), r_frac
    )[0])


def _window_entropies(
    v: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    eligible: np.ndarray,
    radii: np.ndarray,
    cfg: RollupConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """(sampen, permen) arrays over all windows; NaN where not eligible.

    One ragged pass over every eligible window of the series
    (``kernels/batch_entropy``): each window's kernel series is gathered
    into one flat array — the deterministic stride cap thins windows
    longer than ``cfg.max_window_points`` — and both kernels run on all of
    them at once. The radius always comes from the full window (radii are
    precomputed once per tier from centered reduceat moments). A window's
    result depends only on its own values, so it is placement-independent.
    """
    s_out = np.full(lengths.size, np.nan)
    p_out = np.full(lengths.size, np.nan)
    sel = np.flatnonzero(eligible)
    n = lengths[sel]
    stride = -(-n // cfg.max_window_points)  # ceil division
    k = -(-n // stride)  # len(x[::stride])
    bounds = np.zeros(sel.size + 1, dtype=np.int64)
    np.cumsum(k, out=bounds[1:])
    x = v[np.repeat(starts[sel], k) + ragged_arange(k) * np.repeat(stride, k)]
    s_out[sel] = sampen_ragged(x, bounds, cfg.m, radii[sel])
    p_out[sel] = permen_ragged(x, bounds, cfg.permen_order)
    return s_out, p_out


def rollup_windows(
    conv_id: np.ndarray,
    turn_idx: np.ndarray,
    ts_us: np.ndarray,
    value: np.ndarray,
    cfg: RollupConfig,
) -> dict[str, np.ndarray]:
    """All-tier rollup rows (dict of columns per ROLLUP_COLUMNS) for the
    given turns. Input order is irrelevant; output is ordered by
    (tier, conv, bucket). Null conv_ids — factorize's -1 code — are
    dropped (groupby dropna semantics), never merged into one synthetic
    conversation.

    Late-data policy (``cfg.lateness_us`` not None): turns older than the
    (conversation, day) watermark — the max ts seen in that conv-day
    minus the allowed lateness — are dropped before windowing. The
    watermark is deliberately (conv, DAY)-local, not conv-global: the
    bucketed plan groups by day-salted conversation keys, so a day-local
    rule is the strongest one both physical plans (colocated and
    bucketed) can evaluate identically — and it is
    order-independent, the batch analogue of the streaming operator's
    end-state watermark (q_streaming_window's per-arrival drop).
    """
    codes, uniques = pd.factorize(conv_id, sort=False)
    valid = codes >= 0  # factorize codes a null id -1
    if not valid.all():
        codes = codes[valid]
        turn_idx = np.asarray(turn_idx)[valid]
        ts_us = np.asarray(ts_us)[valid]
        value = np.asarray(value)[valid]
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    ts_us = np.ascontiguousarray(ts_us, dtype=np.int64)
    turn_idx = np.ascontiguousarray(turn_idx, dtype=np.int64)
    value = np.ascontiguousarray(value, dtype=np.float64)

    order = np.lexsort((turn_idx, ts_us, codes))
    codes = codes[order]
    ts_us = ts_us[order]
    v = value[order]
    uniques = np.asarray(uniques, dtype=object)

    if cfg.lateness_us is not None and codes.size:
        day_us = TIER_STEPS_US["1d"]
        day = np.floor_divide(ts_us, day_us)
        seg = np.empty(codes.size, dtype=bool)
        seg[0] = True
        np.logical_or(
            codes[1:] != codes[:-1], day[1:] != day[:-1], out=seg[1:]
        )
        seg_starts = np.flatnonzero(seg)
        seg_ends = np.append(seg_starts[1:], codes.size)
        # rows are ts-sorted within (conv, day): segment max = last row
        wm = ts_us[seg_ends - 1] - cfg.lateness_us
        keep = ts_us >= np.repeat(wm, seg_ends - seg_starts)
        if not keep.all():
            codes, ts_us, v = codes[keep], ts_us[keep], v[keep]

    out: dict[str, list[np.ndarray]] = {name: [] for name in ROLLUP_COLUMNS}
    # entropies of every window computed so far, by (start, count): all
    # tiers share one sorted order, so an equal window of another tier has
    # the same kernel series, radius and result bits
    done_key = np.empty(0, dtype=np.int64)
    done = np.empty((0, 4))
    dv = np.zeros(v.size)  # the first-differenced series
    np.subtract(v[1:], v[:-1], out=dv[1:])
    for tier in cfg.tiers:
        step = TIER_STEPS_US[tier]
        bucket = (ts_us // step) * step
        if codes.size == 0:
            continue
        change = np.empty(codes.size, dtype=bool)
        change[0] = True
        np.logical_or(
            codes[1:] != codes[:-1], bucket[1:] != bucket[:-1], out=change[1:]
        )
        starts = np.flatnonzero(change)
        counts = np.diff(np.append(starts, codes.size))
        sums = np.add.reduceat(v, starts)
        mins = np.minimum.reduceat(v, starts)
        maxs = np.maximum.reduceat(v, starts)
        means = sums / counts
        # centered two-pass variance: the single-pass E[x^2]-mean^2 form
        # loses all precision when |mean| >> std (e.g. counter-like values)
        rep = np.repeat(np.arange(starts.size), counts)
        centered = v - means[rep]
        ssq_c = np.add.reduceat(centered * centered, starts)
        var = ssq_c / counts
        stds = np.sqrt(var)
        r_raw = window_radii_from_moments(ssq_c, counts, cfg.r_frac)

        n_win = starts.size
        key = starts * (codes.size + 1) + counts
        at = np.searchsorted(done_key, key)
        hit = at < done_key.size
        hit[hit] = done_key[at[hit]] == key[hit]
        todo = (counts >= cfg.min_window) & ~hit
        ent = np.empty((n_win, 4))
        ent[:, 0], ent[:, 1] = _window_entropies(v, starts, counts, todo, r_raw, cfg)
        # diff-series radius: telescoping mean, centered reduceat
        # variance; dv[starts] is zeroed by construction so segment
        # sums over [start, next_start) cover exactly [start+1, end)
        ends = np.append(starts[1:], codes.size)
        with np.errstate(invalid="ignore", divide="ignore"):
            means_d = (v[ends - 1] - v[starts]) / (counts - 1.0)
        cd = dv - means_d[rep]
        cd[starts] = 0.0
        ssq_d = np.add.reduceat(cd * cd, starts)
        r_diff = window_radii_from_moments(
            ssq_d, np.maximum(counts - 1, 1), cfg.r_frac
        )
        ent[:, 2], ent[:, 3] = _window_entropies(
            dv, starts + 1, counts - 1, todo, r_diff, cfg
        )
        ent[hit] = done[at[hit]]
        done_key = np.append(done_key, key[todo])
        by_key = np.argsort(done_key, kind="stable")
        done_key, done = done_key[by_key], np.concatenate([done, ent[todo]])[by_key]
        s_raw, p_raw, s_diff, p_diff = ent.T

        out["conv_id"].append(uniques[codes[starts]])
        out["tier"].append(np.full(n_win, tier, dtype=object))
        out["bucket_ts"].append(bucket[starts])
        out["n_turns"].append(counts.astype(np.int64))
        out["value_mean"].append(means)
        out["value_sum"].append(sums)
        out["value_min"].append(mins)
        out["value_max"].append(maxs)
        out["value_std"].append(stds)
        out["sampen"].append(s_diff)
        out["permen"].append(p_diff)
        out["sampen_raw"].append(s_raw)
        out["permen_raw"].append(p_raw)

    if not out["conv_id"]:
        return {
            "conv_id": np.empty(0, dtype=object),
            "tier": np.empty(0, dtype=object),
            "bucket_ts": np.empty(0, dtype=np.int64),
            **{
                name: np.empty(0, dtype=np.int64 if name == "n_turns" else np.float64)
                for name in ROLLUP_COLUMNS[3:]
            },
        }
    return {name: np.concatenate(chunks) for name, chunks in out.items()}
