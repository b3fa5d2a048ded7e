"""Bootstrap-based SampEn uncertainty kernels.

Reimplements ``SampleEntropy._bootstrap_mse`` (sample_entropy.py:205-230)
and ``SampleEntropy._sampen_se`` (sample_entropy.py:232-248): stationary-
bootstrap replicates of the signal, SampEn per replicate, then MSE against
the point estimate / population-SD across replicates. Seeding is
counter-based per (seed, key, replicate) — see kernels/bootstrap.py. All
replicates of a signal are one ``sampen_ragged`` call, equal to the scalar
``sampen`` per replicate as float64 bit patterns.
"""

from __future__ import annotations

import numpy as np

from eristropy_ray.kernels.batch_entropy import sampen_ragged
from eristropy_ray.kernels.bootstrap import stationary_bootstrap
from eristropy_ray.kernels.sampen import sampen
from eristropy_ray.kernels.stats import mean_squared_error, standard_error


def _replicate_sampens(
    x: np.ndarray, m: int, r: float, p: float, n_boot: int, seed: int,
    key: tuple[int, ...],
) -> np.ndarray:
    if not r > 0:  # scalar sampen's NaN; the ragged kernel needs r > 0
        return np.full(n_boot, np.nan)
    X = stationary_bootstrap(x, p, n_boot, seed=seed, key=key)
    n = X.shape[1]
    return sampen_ragged(X.ravel(), np.arange(n_boot + 1) * n, m, np.full(n_boot, r))


def sampen_bootstrap_mse(
    x: np.ndarray, m: int, r: float, p: float, n_boot: int = 100,
    seed: int = 0, key: tuple[int, ...] = (),
) -> float:
    """MSE(SampEn(x), SampEn(boot_i)) over replicates (E4)."""
    shat = _replicate_sampens(x, m, r, p, n_boot, seed, key)
    strue = sampen(np.ascontiguousarray(x, dtype=np.float64), m, r)
    return mean_squared_error(np.full(n_boot, strue), shat)


def sampen_bootstrap_se(
    x: np.ndarray, m: int, r: float, p: float, n_boot: int = 100,
    seed: int = 0, key: tuple[int, ...] = (),
) -> float:
    """Population SD of bootstrap SampEn replicates (E5, ddof=0)."""
    return standard_error(_replicate_sampens(x, m, r, p, n_boot, seed, key))
