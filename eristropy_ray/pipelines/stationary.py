"""StationarySignals pipeline — the reference's preprocessing flow
(``/root/reference/eristropy/stationarity.py:192-283``) as a Ray Data
pipeline over a long-format signal Dataset (signal_id, ts_us, value[, tie]):

    make stationary (difference | detrend-lr | detrend-gp)
      -> per-signal ADF p-value                       [distributed]
      -> Holm-Sidak multipletests                     [driver barrier —
           one scalar per signal, gathered to the driver]
      -> broadcast-semi-join filter on the accept set [ray.put + filter]
      -> per-signal z-score (ddof=1)                  [distributed]

Reference fidelity notes:
- the accept decision is keyed BY SIGNAL ID, fixing the reference's
  unique()-vs-groupby alignment hazard (stationarity.py:186-190) while
  agreeing with it whenever ids appear in sorted order (true for all its
  tests — SURVEY.md §7.4);
- GP detrending regresses on ``arange(len(group))`` and emits that arange
  as the output timestamp (gp.py:531, 539) — reproduced faithfully via
  ``gp_arange_semantics=True`` (default), since rolled-up points must
  match; set False to keep real timestamps;
- GP length-scale candidates are drawn ONCE for all signals from
  ``RandomState(seed)`` (gp.py:526) and broadcast to every partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from eristropy_ray.kernels.gp import (
    detrend_gp,
    detrend_gp_cv_search,
    draw_ls_candidates,
    stable_signal_key,
)
from eristropy_ray.kernels.linreg import detrend_linreg
from eristropy_ray.kernels.multitest import holm_sidak
from eristropy_ray.pipelines.exchange import exchange
from eristropy_ray.stages.signals import (
    _sorted_groups,
    difference_partition,
    gather_signals,
    make_adf_partition,
    zscore_plain_partition,
)
from eristropy_ray.stages.validate import validate_signals


@dataclass(frozen=True)
class StationaryConfig:
    method: str = "difference"  # "difference" | "detrend"
    detrend_type: str = "gp"  # "lr" | "gp"
    alpha: float = 0.05
    random_seed: int | None = None
    ls_range: tuple[float, float] = (10.0, 100.0)
    n_searches: int = 10
    n_splits: int = 5
    eps: float = 1e-6
    normalize_signals: bool = True
    gp_arange_semantics: bool = True
    # "numba": T4 semantics (shared candidate draw, unnormalized target);
    # "cv_search": de-bugged T5 semantics (per-signal RandomizedSearchCV-
    # style draw, fold-local normalize_y, 1e-10 jitter) — see
    # kernels/gp.py:detrend_gp_cv_search for the documented divergences.
    # "sklearn" is accepted as an alias for "cv_search": it names the
    # reference variant this path conforms to (SURVEY §2.3 T5,
    # reference gp.py:18-113) with the id-column bug (gp.py:104)
    # corrected — the alias normalizes in __post_init__.
    gp_implementation: str = "numba"
    # ADF user surface beyond the reference's fixed ('c', AIC) call
    # (reference stationarity.py:155 only ever uses the defaults):
    # the full statsmodels regression set ('n'/'c'/'ct'/'ctt', each
    # with its MacKinnon response surface) and autolag modes ('AIC',
    # 'BIC', 't-stat'); adf_autolag=None fixes the lag at adf_maxlag
    # (0 when unset) instead of IC-searching.
    adf_regression: str = "c"  # "n" | "c" | "ct" | "ctt"
    adf_autolag: str | None = "AIC"  # "AIC" | "BIC" | "t-stat" | None
    adf_maxlag: int | None = None

    def __post_init__(self) -> None:
        if self.method not in ("difference", "detrend"):
            raise ValueError("method must be 'difference' or 'detrend'")
        if self.adf_regression == "nc":  # statsmodels' deprecated alias
            object.__setattr__(self, "adf_regression", "n")
        if self.adf_regression not in ("n", "c", "ct", "ctt"):
            raise ValueError(
                "adf_regression must be one of 'n', 'c', 'ct', 'ctt'"
            )
        if self.adf_autolag not in ("AIC", "BIC", "t-stat", None):
            raise ValueError(
                "adf_autolag must be 'AIC', 'BIC', 't-stat' or None"
            )
        if self.adf_maxlag is not None and self.adf_maxlag < 0:
            raise ValueError("adf_maxlag must be >= 0")
        if self.detrend_type not in ("lr", "gp"):
            raise ValueError("detrend_type must be 'lr' or 'gp'")
        if self.gp_implementation == "sklearn":
            object.__setattr__(self, "gp_implementation", "cv_search")
        if self.gp_implementation not in ("numba", "cv_search"):
            raise ValueError(
                "gp_implementation must be 'numba', 'cv_search' or 'sklearn'"
            )
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.ls_range[0] <= 0 or self.ls_range[0] >= self.ls_range[1]:
            raise ValueError("ls_range must be (a, b) with 0 < a < b")


def linreg_detrend_partition(df: pd.DataFrame) -> pd.DataFrame:
    """T3: per-signal OLS residual vs the actual timestamp (linreg.py:38-100)."""
    sdf, starts = _sorted_groups(df)
    v = sdf["value"].to_numpy(dtype=np.float64)
    t = sdf["ts_us"].to_numpy(dtype=np.float64)
    out = np.empty_like(v)
    ends = np.append(starts[1:], v.size)
    for s, e in zip(starts, ends):
        out[s:e] = detrend_linreg(t[s:e], v[s:e])
    res = sdf[["signal_id", "ts_us"]].copy()
    res["value"] = out
    return res


def make_gp_detrend_partition(cfg: StationaryConfig, ls_vals_ref):
    """T4: per-signal GP detrend with broadcast ls candidates (gp.py:473-550)."""

    def gp_detrend_partition(df: pd.DataFrame) -> pd.DataFrame:
        ls_vals = ray.get(ls_vals_ref) if ls_vals_ref is not None else None
        sdf, starts = _sorted_groups(df)
        v = sdf["value"].to_numpy(dtype=np.float64)
        ends = np.append(starts[1:], v.size)
        out = np.empty_like(v)
        ts_out = sdf["ts_us"].to_numpy(dtype=np.float64).copy()
        sig_ids = sdf["signal_id"].to_numpy()
        for s, e in zip(starts, ends):
            if e - s < cfg.n_splits + 2:
                # too short for forward-chaining CV (the reference would
                # crash driver-side; a distributed stage must not) —
                # fall back to mean-centering
                out[s:e] = v[s:e] - v[s:e].mean()
                if cfg.gp_arange_semantics:
                    ts_out[s:e] = np.arange(e - s, dtype=np.float64)
                continue
            X = np.arange(e - s, dtype=np.float64).reshape(-1, 1)
            if cfg.gp_implementation == "cv_search":
                out[s:e] = detrend_gp_cv_search(
                    X, v[s:e], cfg.ls_range, cfg.random_seed,
                    stable_signal_key(sig_ids[s]),
                    n_iter=cfg.n_searches, n_splits=cfg.n_splits,
                )
            else:
                out[s:e] = detrend_gp(
                    X, v[s:e], ls_vals, n_splits=cfg.n_splits, eps=cfg.eps
                )
            if cfg.gp_arange_semantics:
                ts_out[s:e] = X.ravel()
        res = sdf[["signal_id"]].copy()
        res["ts_us"] = ts_out.astype(np.int64)
        res["value"] = out
        return res

    return gp_detrend_partition


def make_stationary_signals(
    signals: rd.Dataset, cfg: StationaryConfig = StationaryConfig()
) -> tuple[rd.Dataset, dict]:
    """Returns (stationary signal Dataset, info dict with stationary_frac_
    and stationary_signals_ — the reference's fitted attributes)."""
    signals = validate_signals(signals)
    if cfg.method == "difference":
        transformed = exchange(signals, "signal_id", difference_partition)
    elif cfg.detrend_type == "lr":
        transformed = exchange(signals, "signal_id", linreg_detrend_partition)
    else:
        if cfg.gp_implementation == "cv_search":
            ls_ref = None  # cv_search draws per signal; no shared broadcast
        else:
            ls_vals = draw_ls_candidates(
                cfg.ls_range, cfg.n_searches, cfg.random_seed
            )
            ls_ref = ray.put(ls_vals)
        transformed = exchange(
            signals, "signal_id", make_gp_detrend_partition(cfg, ls_ref)
        )
    transformed = transformed.materialize()

    # barrier: one (signal_id, pvalue) scalar per signal to the driver
    pvals = gather_signals(
        transformed,
        make_adf_partition(cfg.adf_regression, cfg.adf_autolag, cfg.adf_maxlag),
    )
    reject, _ = holm_sidak(pvals["pvalue"].to_numpy(), alpha=cfg.alpha)
    accepted = set(pvals["signal_id"][reject].tolist())
    info = {
        "stationary_frac_": float(reject.mean()) if reject.size else 0.0,
        "stationary_signals_": sorted(accepted),
        "pvalues": pvals,
    }

    accept_ref = ray.put(accepted)

    def filter_accepted(df: pd.DataFrame) -> pd.DataFrame:
        acc = ray.get(accept_ref)
        return df[df["signal_id"].isin(acc)]

    stationary = transformed.map_batches(filter_accepted, batch_format="pandas")
    if cfg.normalize_signals:
        stationary = exchange(stationary, "signal_id", zscore_plain_partition)
    return stationary, info
