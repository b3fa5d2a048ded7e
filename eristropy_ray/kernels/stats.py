"""Scalar statistics with the reference's exact ddof conventions.

- ``standard_error`` is the **population** standard deviation (ddof=0, no
  /sqrt(n)) despite its name — matching ``/root/reference/eristropy/utils.py:25-35``.
- z-score normalization elsewhere uses **sample** std (ddof=1), matching the
  pandas ``Series.std()`` default used at ``stationarity.py:167-170``.
- ``micros``/``from_micros`` are the engine's one exact-decimal format:
  int64 micro-unit sums match a DuckDB ``DECIMAL(18,6)`` sum bit for bit.
  ``micros`` rejects NaN/±inf as the reference's ``_validate_dataframe``
  does (validation.py:43-50) and DuckDB's own cast does.
"""

from __future__ import annotations

import numpy as np


def mean(x: np.ndarray) -> float:
    """Arithmetic mean (reference ``_mean``, utils.py:8-17)."""
    return float(np.asarray(x, dtype=np.float64).mean())


def standard_error(x: np.ndarray) -> float:
    """Population SD, ddof=0 (reference ``_standard_error``, utils.py:25-35)."""
    return float(np.asarray(x, dtype=np.float64).std(ddof=0))


def mean_squared_error(y: np.ndarray, yhat: np.ndarray) -> float:
    """MSE (reference ``_mean_squared_error``, utils.py:43-68)."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    d = y - yhat
    return float((d * d).mean())


def zscore(x: np.ndarray) -> np.ndarray:
    """Per-signal z-score with sample std (ddof=1).

    Matches ``StationarySignals._normalize`` applied through pandas
    ``groupby().transform`` (``stationarity.py:167-170, 278-281``): pandas
    ``Series.std()`` defaults to ddof=1.
    """
    x = np.asarray(x, dtype=np.float64)
    sd = x.std(ddof=1) if x.size > 1 else 0.0
    if sd == 0.0:
        return np.full_like(x, np.nan)
    return (x - x.mean()) / sd


def micros(x: np.ndarray) -> np.ndarray:
    """``x`` as int64 micro-units, ``round(x * 1e6)`` (half to even).

    Pass the expression that would precede ``* 1e6`` (``micros(v * v)``):
    Python multiplies left to right, so the bits equal ``np.round(v * v *
    1e6)``. Raises ``ValueError`` on a null/NaN, ±inf or |x·1e6| >= 2**63
    (~9.2e12 units), whose int64 cast would silently be INT64_MIN."""
    mu = np.round(np.asarray(x) * 1e6)
    ok = np.abs(mu) < 2.0**63  # False for NaN
    if not ok.all():
        raise ValueError(
            f"{ok.size - np.count_nonzero(ok)} value(s) are null, NaN, ±inf "
            "or beyond ±9.2e12: not summable as DECIMAL(18,6) micro-units"
        )
    return mu.astype(np.int64)


def from_micros(s):
    """float64 value of int64 micro-units (array or pandas Series)."""
    return s.astype(np.float64) / 1e6
