"""SampleEntropy and SampEnEfficiency pipelines.

Reimplements the reference's two parameter-selection + estimation flows
over a long-format signal Dataset (signal_id, ts_us, value[, tie]):

- ``compute_all_sampen`` ≈ ``SampleEntropy.compute_all_sampen``
  (sample_entropy.py:346-402): optional TPE optimization of (m, r, p)
  with sequential trials on the driver over a BOUNDED gathered signal
  sample (TPE conditions on history, like the reference's optuna loop;
  the gather is capped at ``sample_cap`` signals via a deterministic
  stride — see ``_collect_signals``), then per-signal SampEn
  (± bootstrap SE) fanned out through ``exchange`` with the scalar
  (m*, r*, p*) broadcast in the partition closure. Counter-keyed
  bootstrap seeds (``stable_key``) make the SE placement-independent,
  so the distributed pass is bit-identical to a driver loop.
- ``sampen_efficiency`` ≈ ``SampEnEfficiency.compute_all_sampen``
  (extras.py:227-274): (signal × r-grid) fan-out of the Lake efficiency
  score (each partition hoists its signals once — the reference re-extracts
  x per r, extras.py:234-235), median across signals per r gathered to the
  driver (tiny), np.interp onto the fine grid, nanargmin → r*, then final
  per-signal SampEn + analytic SE.

Failure contracts preserved: all-NaN trials → NaN stars +
``OptimizationFailureWarning`` (sample_entropy.py:333-344); compute without
valid (m, r) → ValueError (sample_entropy.py:365-371); boundary r/p and
low n_boot/n_trials → ``SampEnSettingWarning`` (sample_entropy.py:173-203).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from eristropy_ray.kernels.bootstrap import stable_key
from eristropy_ray.kernels.lake import (
    bootstrap_objective,
    counting_objective,
    sampen_and_analytic_se,
)
from eristropy_ray.kernels.sampen import sampen
from eristropy_ray.kernels.sampen_boot import (
    sampen_bootstrap_mse,
    sampen_bootstrap_se,
)
from eristropy_ray.optimize import (
    OptimizationFailureError,
    ParamSpec,
    TPEOptimizer,
)
from eristropy_ray.stages.signals import gather_signals, map_signals
from eristropy_ray.stages.validate import validate_signals


class SampEnSettingWarning(UserWarning):
    """Boundary/low-value parameter settings (reference name preserved)."""


class OptimizationFailureWarning(UserWarning):
    """Optimization produced no finite trial (reference name preserved)."""


@dataclass
class SampEnConfig:
    objective: str = "mse"  # "mse" | "sampen_eff"
    n_boot: int = 100
    n_trials: int = 100
    random_seed: int | None = None
    r_range: tuple[float, float] = (0.10, 0.50)
    m_range: tuple[int, int] = (1, 3)
    p_range: tuple[float, float] = (0.01, 0.99)
    lam: float = 0.33
    r: float | None = None
    m: int | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        for name, rng_ in (("r_range", self.r_range), ("m_range", self.m_range),
                           ("p_range", self.p_range)):
            if rng_[1] <= rng_[0]:
                raise ValueError(f"second element of {name} must exceed the first")
        if not (0 < self.p_range[0] < self.p_range[1] < 1):
            raise ValueError("p_range must lie strictly inside (0, 1)")
        if self.r_range[0] <= 0:
            raise ValueError("r_range lower bound must be > 0")
        if self.objective not in ("mse", "sampen_eff"):
            raise ValueError("objective must be 'mse' or 'sampen_eff'")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        for name, val, thresh in (("n_boot", self.n_boot, 50),
                                  ("n_trials", self.n_trials, 10)):
            if not isinstance(val, int) or val <= 0:
                raise ValueError(f"{name} must be a positive integer")
            if val < thresh:
                warnings.warn(
                    f"{name} is set to a low value; consider at least {thresh}.",
                    SampEnSettingWarning, stacklevel=3,
                )
        if self.r is not None and not (self.r_range[0] < self.r < self.r_range[1]):
            warnings.warn(
                "Provided r value is at the boundary of the r_range.",
                SampEnSettingWarning, stacklevel=3,
            )
        if self.p is not None and not (self.p_range[0] < self.p < self.p_range[1]):
            warnings.warn(
                "Provided p value is at the boundary of the p_range.",
                SampEnSettingWarning, stacklevel=3,
            )


#: Default bounds on the TPE optimizer's driver gather. The study is
#: driver-held by design (each trial conditions on all prior trials,
#: like the reference's optuna loop), so its input must stay
#: driver-memory-sized no matter how large the corpus is: the SIGNAL cap
#: bounds how many series are sampled, and the ROW cap bounds their
#: total point count (long-series corpora would otherwise blow the
#: driver through the signal cap alone). 8M float64 points ≈ 64 MB.
DEFAULT_SAMPLE_CAP = 1024
DEFAULT_SAMPLE_ROW_CAP = 8_000_000


def _signal_lengths(signals: rd.Dataset | pd.DataFrame) -> pd.DataFrame:
    """Per-signal row counts as a small driver frame (signal_id, n).

    For a Dataset, one count-only pass: each batch emits per-signal
    partial counts (#signals × #blocks scalar rows travel, never values),
    summed on the driver. Null signal_ids are dropped (groupby dropna
    semantics, matching ``_sorted_groups``)."""

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("signal_id", dropna=True, sort=False).size()
        out = g.rename("n").reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    if isinstance(signals, rd.Dataset):
        parts = signals.map_batches(partial_counts, batch_format="pandas").to_pandas()
    else:
        parts = partial_counts(signals)
    if parts.empty:
        return pd.DataFrame({"signal_id": pd.Series([], dtype=object),
                             "n": pd.Series([], dtype="int64")})
    return (
        parts.groupby("signal_id", sort=True)["n"].sum().astype("int64")
        .reset_index()
    )


def _stride_sample(ids: list, cap: int) -> list:
    """Deterministic stride pick of ≤ ``cap`` items from a sorted id list
    (the same evenly-spaced scheme as the IVF trainer's bounded sample)."""
    n = len(ids)
    if n <= cap:
        return list(ids)
    idx = (np.arange(cap, dtype=np.int64) * n) // cap
    return [ids[int(i)] for i in idx]


def _collect_signals(
    signals: rd.Dataset | pd.DataFrame,
    sample_cap: int | None = None,
    row_cap: int | None = None,
    lengths: pd.DataFrame | None = None,
) -> list[tuple[object, np.ndarray]]:
    """Driver-side (signal_id, ordered values) list, optionally capped.

    With caps set and a Dataset input, a deterministic stride over the
    sorted signal ids picks at most ``sample_cap`` signals, then the
    stride sample is prefix-trimmed so its TOTAL row count stays within
    ``row_cap`` (at least one signal is always kept — a single series is
    the smallest unit the optimizer can condition on), and ONLY those
    signals' rows are gathered (broadcast id set + streaming filter);
    the full table never lands on the driver regardless of signal count
    OR series length. This is the enforced form of the
    bounded-optimization pattern: the TPE study conditions on history so
    it is driver-held, but its input is a bounded sample — the
    per-signal SampEn/SE pass itself never gathers. ``lengths`` lets the
    caller reuse an already-computed ``_signal_lengths`` frame.
    """
    if isinstance(signals, rd.Dataset):
        if sample_cap is not None or row_cap is not None:
            if lengths is None:
                lengths = _signal_lengths(signals)
            ids = lengths["signal_id"].tolist()
            keep = (
                _stride_sample(ids, sample_cap)
                if sample_cap is not None
                else list(ids)
            )
            if row_cap is not None and len(keep) > 1:
                n_by_id = dict(zip(ids, lengths["n"].tolist()))
                total = 0
                trimmed = []
                for sid in keep:
                    total += n_by_id[sid]
                    if trimmed and total > row_cap:
                        break
                    trimmed.append(sid)
                keep = trimmed
            if len(keep) < len(ids):
                keep_ref = ray.put(set(keep))

                def filter_sampled(df: pd.DataFrame) -> pd.DataFrame:
                    return df[df["signal_id"].isin(ray.get(keep_ref))]

                signals = signals.map_batches(
                    filter_sampled, batch_format="pandas"
                )
        df = signals.to_pandas()
    else:
        df = signals
    tie = df["tie"] if "tie" in df.columns else 0
    df = df.assign(_tie=tie).sort_values(
        ["signal_id", "ts_us", "_tie"], kind="stable"
    )
    return [
        (sid, g["value"].to_numpy(dtype=np.float64))
        for sid, g in df.groupby("signal_id", sort=True)
    ]


def find_optimal_sampen_params(
    collected: list[tuple[object, np.ndarray]], cfg: SampEnConfig
) -> tuple[dict[str, float], TPEOptimizer]:
    """O3: sequential TPE trials minimizing the distributed objective."""
    specs = []
    if cfg.m is None:
        specs.append(ParamSpec("m", cfg.m_range[0], cfg.m_range[1], is_int=True))
    if cfg.r is None:
        specs.append(ParamSpec("r", *cfg.r_range))
    if cfg.p is None:
        specs.append(ParamSpec("p", *cfg.p_range))
    opt = TPEOptimizer(specs, seed=cfg.random_seed)

    # per-signal score, reduced in ``collected``'s sorted-id order
    score = sampen_bootstrap_mse if cfg.objective == "mse" else bootstrap_objective

    def objective(params: dict[str, float]) -> float:
        m = int(params.get("m", cfg.m))
        r = float(params.get("r", cfg.r))
        p = float(params.get("p", cfg.p))
        vals = np.array([
            score(x, m, r, p, cfg.n_boot, seed=cfg.random_seed or 0, key=stable_key(sid))
            for sid, x in collected
        ])
        if cfg.objective == "mse":
            return float(vals.mean()) + cfg.lam * math.sqrt(r)
        return float(np.median(vals))

    try:
        best = opt.optimize(objective, cfg.n_trials)
    except OptimizationFailureError:
        warnings.warn(
            "Optimization failed: the r_range may be too stringent or the "
            "signals too short to estimate SampEn.",
            OptimizationFailureWarning, stacklevel=2,
        )
        return {"m": math.nan, "r": math.nan, "p": math.nan}, opt
    return (
        {
            "m": best.get("m", cfg.m),
            "r": best.get("r", cfg.r),
            "p": best.get("p", cfg.p),
        },
        opt,
    )


def _make_sampen_final_partition(
    m: int, r: float, p: float | None, n_boot: int, seed: int,
    estimate_uncertainty: bool,
):
    """Per-partition final pass: SampEn (± bootstrap SE) for every signal
    of a hash partition. (m, r, p) are three scalars captured in the
    closure — the broadcast is the task args, no table ships. Also emits
    n_obs so the driver can enforce the min-length guard without a
    separate counting scan."""

    def estimate(sid, x: np.ndarray) -> float | tuple[float, float]:
        s = sampen(x, m, r)
        if not estimate_uncertainty:
            return s
        key = stable_key(sid)
        return s, sampen_bootstrap_se(x, m, r, float(p), n_boot, seed=seed, key=key)

    columns = ["sampen", "se_sampen"] if estimate_uncertainty else ["sampen"]

    def sampen_final(df: pd.DataFrame) -> pd.DataFrame:
        return map_signals(df, estimate, columns)

    return sampen_final


def _check_m_range(cfg: SampEnConfig, lengths: pd.Series) -> None:
    """The reference's gathered-table guard: some signal, and none shorter
    than ``m_range``'s upper limit."""
    if lengths.empty:
        raise ValueError("no signals")
    if cfg.m_range[1] > int(lengths.min()):
        raise ValueError(
            "The upper limit of m_range cannot exceed the length of the "
            "shortest time series."
        )


def compute_all_sampen(
    signals: rd.Dataset | pd.DataFrame,
    cfg: SampEnConfig = SampEnConfig(),
    optimize: bool = False,
    estimate_uncertainty: bool = False,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
) -> tuple[pd.DataFrame, dict]:
    """O4: per-signal SampEn (± bootstrap SE) with given/optimized params.

    Returns (result frame, info) where info carries m_star_/r_star_/p_star_
    and the optimizer trials frame when optimization ran.

    Dataset inputs are processed distributed end-to-end: the optimizer
    (when requested) gathers at most ``sample_cap`` signals chosen by a
    deterministic stride, and the final estimation pass fans out through
    ``exchange`` with the scalar stars in the closure — the full signal
    table never lands on the driver. DataFrame inputs (the reference's
    local API shape, sample_entropy.py:346) run the same final-pass stage
    in process.
    """
    signals = validate_signals(signals)
    is_ds = isinstance(signals, rd.Dataset)
    info: dict = {"m_star_": cfg.m, "r_star_": cfg.r, "p_star_": cfg.p}
    if optimize or not is_ds:
        if is_ds:
            # one materialization ONLY when there are two consumers (the
            # optimizer sample and the final pass would otherwise
            # re-execute the upstream lineage twice); the optimize=False
            # path streams straight through the single final pass
            signals = signals.materialize()
        # the count-only lengths pass serves both the FULL-corpus
        # min-length guard (enforced BEFORE the optimizer and the
        # distributed fan-out burn any work — a too-short signal outside
        # the stride sample must fail fast, matching the reference's
        # gathered-table guard) and the bounded gather
        lengths = _signal_lengths(signals)
        _check_m_range(cfg, lengths["n"])
    if optimize:
        collected = _collect_signals(
            signals, sample_cap=sample_cap,
            row_cap=DEFAULT_SAMPLE_ROW_CAP, lengths=lengths,
        )
        best, opt = find_optimal_sampen_params(collected, cfg)
        info.update(
            m_star_=best["m"], r_star_=best["r"], p_star_=best["p"],
            trials=opt.results_frame(),
        )

    m_star, r_star = info["m_star_"], info["r_star_"]
    if any(v is None or (isinstance(v, float) and math.isnan(v)) for v in (m_star, r_star)):
        raise ValueError(
            "Invalid m or r values. Optimize first (optimize=True) or "
            "provide valid parameters."
        )
    p_star = info["p_star_"]
    if estimate_uncertainty and p_star is None:
        raise ValueError(
            "Cannot estimate uncertainty without a stationary bootstrap "
            "probability value."
        )

    fn = _make_sampen_final_partition(
        int(m_star), float(r_star),
        None if p_star is None else float(p_star),
        cfg.n_boot, cfg.random_seed or 0, estimate_uncertainty,
    )
    result = gather_signals(signals, fn)  # output-scale: one row per signal
    # a streamed Dataset is guarded here: same ValueError, one pass
    _check_m_range(cfg, result["n_obs"])
    return result.drop(columns=["n_obs"]), info


def sampen_efficiency(
    signals: rd.Dataset | pd.DataFrame,
    m: int,
    r_range: tuple[float, float],
    r_step_size: float = 0.05,
    interpolation_step_size: float = 0.01,
    p: float = 0.5,
    n_boot: int = 100,
    objective: str = "counting",
    random_seed: int | None = None,
) -> tuple[pd.DataFrame, dict]:
    """O6-O9: grid-based r selection + analytic-SE estimation, distributed.

    The (signal × r) score matrix is computed per partition with the signal
    series hoisted once; only one row of r-grid scores per signal travels.
    When no score is finite (no signals, or all too short), r* is NaN and
    every signal's row is NaN.
    """
    signals = validate_signals(signals)
    if isinstance(signals, rd.Dataset):
        # one materialization: the score and final passes below would
        # otherwise re-execute the entire upstream lineage (e.g. the
        # stationarity pipeline) and re-shuffle the same rows twice
        signals = signals.materialize()

    rs = np.arange(r_range[0], r_range[1] + interpolation_step_size, r_step_size)
    pts = np.arange(
        r_range[0], r_range[1] + interpolation_step_size, interpolation_step_size
    )
    r_cols = [f"r{j}" for j in range(rs.size)]

    def scores(sid, x: np.ndarray) -> list[float]:
        if objective == "counting":
            return [counting_objective(x, m, float(r)) for r in rs]
        key = stable_key(sid)
        return [
            bootstrap_objective(x, m, float(r), p, n_boot, seed=random_seed or 0, key=key)
            for r in rs
        ]

    def sampen_eff_scores(df: pd.DataFrame) -> pd.DataFrame:
        return map_signals(df, scores, r_cols)

    grid = gather_signals(signals, sampen_eff_scores)[r_cols].to_numpy()
    # np.median propagates NaN (reference extras.py:238 semantics);
    # pandas' median would silently skip failed signals
    med = np.median(grid, axis=0) if len(grid) else np.full(rs.size, np.nan)
    interp = np.interp(pts, rs, med)
    found = not np.isnan(interp).all()
    r_star = float(pts[int(np.nanargmin(interp))]) if found else math.nan
    info = {"r_star_": r_star, "obj_": float(np.nanmin(interp)) if found else math.nan,
            "rs": rs, "median_scores": med}

    def estimate(_, x: np.ndarray) -> tuple[float, float]:
        return sampen_and_analytic_se(x, m, r_star)

    def sampen_eff_final(df: pd.DataFrame) -> pd.DataFrame:
        return map_signals(df, estimate, ["sampen", "se_sampen"])

    return gather_signals(signals, sampen_eff_final).drop(columns=["n_obs"]), info
