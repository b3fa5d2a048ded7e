"""Deterministic TPE-lite optimizer (driver-side parameter search).

The reference delegates (m, r, p) selection to Optuna's TPESampler
(sample_entropy.py:308-344); optuna is unavailable here, so this is a
compact, fully deterministic Tree-structured Parzen Estimator implemented
from the public algorithm (Bergstra et al., "Algorithms for Hyper-
Parameter Optimization", NeurIPS 2011):

- ``n_startup`` seeded-random trials, then per parameter: split observed
  trials at the γ-quantile of the objective into good/bad sets, fit the
  paper's adaptive Parzen estimators l(x) and g(x) (a Gaussian per
  observation whose sigma is the larger gap to its sorted neighbours,
  plus the prior N(mid, width) as one more component — the prior keeps
  the search exploring), draw candidates from l, keep the candidate
  maximizing l(x)/g(x).
- Integer parameters are optimized on the continuous relaxation and
  rounded; NaN objectives are kept (failed trials) and excluded from the
  density fits, mirroring Optuna's failed-trial handling.

Same seed → identical trial sequence and optimum regardless of where the
objective is evaluated (driver or Ray fan-out), matching the reference's
determinism contract (tests/test_sample_entropy.py:547-574).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ParamSpec:
    name: str
    low: float
    high: float
    is_int: bool = False


@dataclass
class Trial:
    number: int
    params: dict[str, float]
    value: float = math.nan


class OptimizationFailureError(RuntimeError):
    """All trials failed (NaN objective)."""


@dataclass
class TPEOptimizer:
    specs: list[ParamSpec]
    seed: int | None = None
    n_startup: int = 10
    gamma: float = 0.25
    n_candidates: int = 24
    trials: list[Trial] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed))
        )

    def _sample_uniform(self, spec: ParamSpec) -> float:
        v = self._rng.uniform(spec.low, spec.high)
        return float(np.clip(round(v), spec.low, spec.high)) if spec.is_int else v

    def _suggest_tpe(self, spec: ParamSpec, done: list[Trial]) -> float:
        vals = np.array([t.value for t in done])
        xs = np.array([t.params[spec.name] for t in done])
        finite = np.isfinite(vals)
        if finite.sum() < 2:
            return self._sample_uniform(spec)
        vals, xs = vals[finite], xs[finite]
        n_good = max(1, int(math.ceil(self.gamma * vals.size)))
        order = np.argsort(vals, kind="stable")
        good, bad = xs[order[:n_good]], xs[order[n_good:]]
        width = spec.high - spec.low

        def parzen(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # one Gaussian per observation, its sigma the larger gap to a
            # sorted neighbour (or bound), plus the prior N(mid, width)
            mus = np.append(obs, 0.5 * (spec.low + spec.high))
            srt = np.sort(mus)
            edges = np.concatenate(([spec.low], srt, [spec.high]))
            sig = np.empty_like(mus)
            sig[np.argsort(mus, kind="stable")] = np.maximum(
                srt - edges[:-2], edges[2:] - srt
            )
            sig = np.clip(sig, width / min(100.0, 1.0 + mus.size), width)
            sig[-1] = width
            return mus, sig

        def log_density(pts: np.ndarray, mus: np.ndarray, sig: np.ndarray) -> np.ndarray:
            z = (pts[:, None] - mus[None, :]) / sig
            return np.log((np.exp(-0.5 * z * z) / sig).mean(axis=1) + 1e-300)

        (lm, ls), (gm, gs) = parzen(good), parzen(bad)
        k = self._rng.integers(lm.size, size=self.n_candidates)
        cands = np.clip(self._rng.normal(lm[k], ls[k]), spec.low, spec.high)
        score = log_density(cands, lm, ls) - log_density(cands, gm, gs)
        best = float(cands[int(np.argmax(score))])
        return float(np.clip(round(best), spec.low, spec.high)) if spec.is_int else best

    def suggest(self) -> dict[str, float]:
        done = self.trials  # NaN trials filtered inside _suggest_tpe
        params = {}
        for spec in self.specs:
            if len(self.trials) < self.n_startup:
                params[spec.name] = self._sample_uniform(spec)
            else:
                params[spec.name] = self._suggest_tpe(spec, done)
        return params

    def optimize(
        self, objective: Callable[[dict[str, float]], float], n_trials: int
    ) -> dict[str, float]:
        """Run n_trials sequential trials; returns the best params.

        Raises OptimizationFailureError when every trial's objective is
        NaN (the reference's "No trials are completed yet." path,
        sample_entropy.py:333-344)."""
        for _ in range(n_trials):
            params = self.suggest()
            value = float(objective(params))
            self.trials.append(Trial(len(self.trials), params, value))
        finite = [t for t in self.trials if math.isfinite(t.value)]
        if not finite:
            raise OptimizationFailureError(
                "all trials failed (NaN objective)"
            )
        best = min(finite, key=lambda t: t.value)
        return dict(best.params)

    def results_frame(self):
        """Trials as a DataFrame (reference get_optimization_results,
        sample_entropy.py:404-424)."""
        import pandas as pd

        return pd.DataFrame(
            {
                "number": [t.number for t in self.trials],
                "value": [t.value for t in self.trials],
                **{
                    f"params_{s.name}": [t.params[s.name] for t in self.trials]
                    for s in self.specs
                },
            }
        )
