"""Grouped signal-table operators over (signal_id, ts_us, value[, tie]).

The reference's per-signal transforms (SURVEY.md §2.3-2.5) re-expressed as
vectorized multi-signal stages. ``pipelines.exchange.exchange`` calls
each stage once per hash partition of ``signal_id``, so one call handles
every signal of its partition:

- ``difference_partition``: T2 ``_difference_all_signals``
  (difference.py:29-81) — per-signal first difference, dropping each
  signal's first timestamp.
- ``zscore_partition``: A4 ``_normalize`` via groupby transform
  (stationarity.py:167-170, 278-281) — ddof=1, and binary-exact against a
  DuckDB decimal-sum oracle: sums are accumulated as integer micro-units
  and every subsequent float op follows the documented expression order.
- ``entropy_partition``: O4 ``compute_all_sampen`` analogue — per-signal
  SampEn (m, r = r_frac·std) + PermEn.
- ``adf_partition``: A1 ``_calculate_pvalues`` (stationarity.py:129-165) —
  per-signal ADF p-value with the p=1.0 too-short fallback.

Per-signal scalar stages (one output row per signal) are ``map_signals``
calls; ``gather_signals`` runs one over a whole Dataset or DataFrame.

Ordering contract: rows are sorted by (signal, ts_us, tie) before any
kernel — the reference's global sort_values(timestamp) + stable groupby
(difference.py:52-55) restricted to within-partition, which is sufficient
because signals never span partitions.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
import ray.data as rd

from eristropy_ray.kernels.adf import adf_pvalue_or_one
from eristropy_ray.kernels.permen import permen
from eristropy_ray.kernels.sampen import sampen_auto_r
from eristropy_ray.kernels.stats import from_micros, micros
from eristropy_ray.pipelines.exchange import exchange, segment_starts


def _sorted_groups(df: pd.DataFrame) -> tuple[pd.DataFrame, np.ndarray]:
    """(sorted df, group start indices) by (signal_id, ts_us, tie).

    Null signal_ids are DROPPED first (the reference's pandas groupby
    default, dropna=True): factorize codes them all as -1, which would
    otherwise merge unrelated null-id rows into one synthetic group and
    fabricate cross-signal results."""
    if df["signal_id"].isna().any():
        df = df[df["signal_id"].notna()]
    codes, _ = pd.factorize(df["signal_id"], sort=False)
    tie = df["tie"].to_numpy() if "tie" in df.columns else np.zeros(len(df))
    order = np.lexsort((tie, df["ts_us"].to_numpy(), codes))
    return df.iloc[order].reset_index(drop=True), segment_starts(codes[order])


def map_signals(
    df: pd.DataFrame,
    fn: Callable[[object, np.ndarray], object],
    columns: Sequence[str],
) -> pd.DataFrame:
    """One row per signal of ``df``: ``signal_id``, ``n_obs``, then the
    float64 ``columns`` from ``fn(signal_id, x)``, where ``x`` holds the
    signal's values in (ts_us, tie) order and ``fn`` returns one value
    per column (a bare scalar for one column). A zero-row ``df`` gives a
    zero-row frame with the same columns."""
    sdf, starts = _sorted_groups(df)
    v = sdf["value"].to_numpy(dtype=np.float64)
    bounds = np.append(starts, v.size)
    ids = sdf["signal_id"].iloc[starts].reset_index(drop=True)
    vals = [fn(sid, v[s:e]) for sid, s, e in zip(ids.to_numpy(), bounds[:-1], bounds[1:])]
    out = pd.DataFrame({"signal_id": ids, "n_obs": np.diff(bounds)})
    cols = np.array(vals, dtype=np.float64).reshape(starts.size, len(columns))
    for j, name in enumerate(columns):
        out[name] = cols[:, j]
    return out


#: zero-row input in the signal-table schema
_NO_SIGNALS = pd.DataFrame(
    {"signal_id": np.empty(0, np.int64), "ts_us": np.empty(0, np.int64),
     "value": np.empty(0)}
)


def gather_signals(
    signals: rd.Dataset | pd.DataFrame, fn: Callable[[pd.DataFrame], pd.DataFrame]
) -> pd.DataFrame:
    """``fn``, a ``map_signals`` stage, over every signal of ``signals`` —
    in process for a DataFrame, through ``exchange`` for a Dataset — as
    one driver frame sorted by signal_id. An empty Dataset gives ``fn``'s
    zero-row frame: Ray's ``to_pandas`` drops zero-row blocks, and their
    columns with them."""
    if isinstance(signals, rd.Dataset):
        out = exchange(signals, "signal_id", fn).to_pandas()
        if out.columns.empty:
            out = fn(_NO_SIGNALS)
    else:
        out = fn(signals)
    return out.sort_values("signal_id", kind="stable").reset_index(drop=True)


def difference_partition(df: pd.DataFrame) -> pd.DataFrame:
    sdf, starts = _sorted_groups(df)
    v = sdf["value"].to_numpy(dtype=np.float64)
    n = v.size
    if n == 0:
        return sdf.iloc[0:0][["signal_id", "ts_us", "value"]]
    keep = np.ones(n, dtype=bool)
    keep[starts] = False  # drop each signal's first row
    out = sdf.loc[keep, ["signal_id", "ts_us"]].copy()
    diffs = np.empty(n)
    diffs[1:] = v[1:] - v[:-1]
    out["value"] = diffs[keep]
    return out


def zscore_partition(df: pd.DataFrame) -> pd.DataFrame:
    """Exact-decimal z-score; groups with <2 rows are dropped (the SQL
    oracle does the same) and zero-variance groups yield NaN."""
    sdf, starts = _sorted_groups(df)
    v = sdf["value"].to_numpy(dtype=np.float64)
    if v.size == 0:
        return sdf.iloc[0:0][["signal_id", "ts_us", "value"]]
    counts = np.diff(np.append(starts, v.size))
    sv = from_micros(np.add.reduceat(micros(v), starts))
    sq = from_micros(np.add.reduceat(micros(v * v), starts))
    n = counts.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sv / n
        var = (sq - sv * sv / n) / (n - 1.0)
        std = np.sqrt(var)
    rep = np.repeat(np.arange(starts.size), counts)
    keep = counts[rep] >= 2
    out = sdf.loc[keep, ["signal_id", "ts_us"]].copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        out["value"] = ((v - mean[rep]) / std[rep])[keep]
    return out


def entropy_partition(
    df: pd.DataFrame, m: int = 2, r_frac: float = 0.2, permen_order: int = 3
) -> pd.DataFrame:
    def entropies(_, x: np.ndarray) -> tuple[float, float]:
        return sampen_auto_r(x, m, r_frac)[0], permen(x, order=permen_order)

    return map_signals(df, entropies, ["sampen", "permen"])


def make_adf_partition(
    regression: str = "c",
    autolag: str | None = "AIC",
    maxlag: int | None = None,
):
    """Parameterized A1 stage: per-signal ADF p-values with the widened
    user surface ('ct' trend regression, fixed-lag autolag=None) —
    defaults reproduce the reference's only configuration."""

    def pvalue(_, x: np.ndarray) -> float:
        return adf_pvalue_or_one(
            x, regression=regression, autolag=autolag, maxlag=maxlag
        )

    def adf_partition(df: pd.DataFrame) -> pd.DataFrame:
        return map_signals(df, pvalue, ["pvalue"])[["signal_id", "pvalue", "n_obs"]]

    return adf_partition


#: default-configuration stage (reference parity: 'c' + AIC)
adf_partition = make_adf_partition()


def zscore_plain_partition(df: pd.DataFrame) -> pd.DataFrame:
    """A4 z-score with plain float accumulation (library semantics —
    pandas groupby().transform((x-mean)/std), ddof=1). The integer-micro
    variant above exists for binary-exact SQL-oracle comparison and would
    quantize tiny detrended residuals; this one does not."""
    sdf, starts = _sorted_groups(df)
    v = sdf["value"].to_numpy(dtype=np.float64)
    if v.size == 0:
        return sdf.iloc[0:0][["signal_id", "ts_us", "value"]]
    counts = np.diff(np.append(starts, v.size))
    sums = np.add.reduceat(v, starts)
    means = sums / counts
    rep = np.repeat(np.arange(starts.size), counts)
    centered = v - means[rep]
    ssq = np.add.reduceat(centered * centered, starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        std = np.sqrt(ssq / np.maximum(counts - 1, 0))
    out = sdf[["signal_id", "ts_us"]].copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        out["value"] = centered / std[rep]
    return out


def sessionize_partition(
    df: pd.DataFrame, gap_us: int = 1_800_000_000
) -> pd.DataFrame:
    """Session windows: split each signal's ordered stream at inactivity
    gaps > ``gap_us`` (net-new streaming op; tumbling tiers are the
    flagship, this is the event-driven window shape). Output one row per
    (signal, session): n_events, start_us, end_us, duration_us — all
    integers, so the DuckDB window-function oracle matches exactly."""
    sdf, starts = _sorted_groups(df)
    ts = sdf["ts_us"].to_numpy(dtype=np.int64)
    n = ts.size
    if n == 0:
        return pd.DataFrame(
            columns=["signal_id", "session_id", "n_events", "start_us",
                     "end_us", "duration_us"]
        )
    new_session = np.ones(n, dtype=np.int64)
    gaps_ok = np.zeros(n, dtype=bool)
    gaps_ok[1:] = (ts[1:] - ts[:-1]) <= gap_us
    gaps_ok[starts] = False  # first row of each signal starts a session
    new_session[gaps_ok] = 0
    session_id = np.cumsum(new_session)
    # renumber per signal (1-based like SUM OVER in the SQL oracle)
    first_of_signal = session_id[starts]
    rep = np.repeat(np.arange(starts.size), np.diff(np.append(starts, n)))
    session_id = session_id - first_of_signal[rep] + 1
    out = pd.DataFrame(
        {
            "signal_id": sdf["signal_id"],
            "session_id": session_id,
            "ts_us": ts,
        }
    )
    g = out.groupby(["signal_id", "session_id"], sort=True).agg(
        n_events=("ts_us", "size"),
        start_us=("ts_us", "min"),
        end_us=("ts_us", "max"),
    )
    g = g.reset_index()
    g["duration_us"] = g["end_us"] - g["start_us"]
    return g


def rolling_mean_partition(df: pd.DataFrame, window: int = 5) -> pd.DataFrame:
    """Exact rolling mean over the last ``window`` rows per signal
    (integer-micro prefix sums; matches the DuckDB ROWS-frame oracle
    bit-for-bit)."""
    sdf, starts = _sorted_groups(df)
    v = sdf["value"].to_numpy(dtype=np.float64)
    n = v.size
    if n == 0:
        return sdf.iloc[0:0][["signal_id", "ts_us", "value"]]
    counts = np.diff(np.append(starts, n))
    pos = np.arange(n) - np.repeat(starts, counts)  # index within signal
    cs = np.cumsum(micros(v))
    prev = np.zeros(n, dtype=np.int64)
    base = np.repeat(np.where(starts > 0, cs[starts - 1], 0), counts)
    back = np.maximum(pos - window, -1) + np.repeat(starts, counts)
    has_back = pos >= window
    prev[has_back] = cs[back[has_back]]
    prev[~has_back] = base[~has_back]
    wsum = from_micros(cs - prev)
    wcount = np.minimum(pos + 1, window).astype(np.float64)
    out = sdf[["signal_id", "ts_us"]].copy()
    out["value"] = wsum / wcount
    return out


def running_sum_partition(df: pd.DataFrame) -> pd.DataFrame:
    """Per-signal cumulative sum at every event (SUM OVER an unbounded
    ROWS frame): one global integer-micro cumsum, per-group rebased by
    subtracting the exclusive prefix at each group start — no Python
    loop over signals. ``from_micros`` at the end matches DuckDB's
    DECIMAL(18,6)-window-sum-cast-to-DOUBLE bit-for-bit while the
    per-signal micro total stays below 2**53 (documented premise; a
    wider deployment would emit the micro int64 itself)."""
    sdf, starts = _sorted_groups(df)
    v = sdf["value"].to_numpy(dtype=np.float64)
    n = v.size
    if n == 0:
        out = sdf.iloc[0:0][["signal_id", "ts_us"]].copy()
        out["event_id"] = np.empty(0, dtype=np.int64)
        out["running_sum"] = np.empty(0, dtype=np.float64)
        return out
    # the GLOBAL (cross-signal) cumsum may wrap int64 on extreme
    # partitions, but cs and base wrap identically, so the rebased
    # difference is exact two's-complement arithmetic whenever the true
    # per-signal running sum fits int64 (the documented premise above)
    cs = np.cumsum(micros(v))
    counts = np.diff(np.append(starts, n))
    base = np.repeat(np.where(starts > 0, cs[starts - 1], 0), counts)
    out = sdf[["signal_id", "ts_us"]].copy()
    out["event_id"] = sdf["tie"].to_numpy(dtype=np.int64)
    out["running_sum"] = from_micros(cs - base)
    return out
