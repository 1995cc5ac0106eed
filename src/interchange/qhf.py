"""Heisenberg ferromagnet observables through the cycle-weighted representation.

Interchange trajectories carry the spin system: with alpha_k(t) the number of
k-cycles at time t and alpha(t) their total, the partition function and the
squared magnetization are
    Z(t) = E(2^alpha(t)),
    m^2(t) = E((sum_k k^2 alpha_k(t)) 2^alpha(t)) / Z(t).
Both are estimated here by plain Monte Carlo over shared trajectories (a
ratio estimator for m^2), plus an exact enumeration oracle for n <= 5.

A spectral expansion of these observables also exists, of the form
sum_rho d_{rho,k} dim(rho) exp(-t lambda(K_n, rho)) over partitions rho.  Its
coefficients satisfy:

1. d_{rho,k} = 0 unless rho = [a, b, c, 1^d] (at most three rows plus a
   single-column tail).
2. For two-row partitions [a, b] with a + b = n and 0 <= b <= (n-k)/2,
   d_{[a,b],k} = 2(a - b + 1)/k.
3. |d_{rho,k}| <= 2n + 2 for every rho and k.
4. For k between n/2 and 3n/4, every contributing rho other than a two-row
   partition has lambda(K_n, rho) of order n^2, with dimension at most 6^n.

Beyond these four facts the coefficients are not pinned down, so no spectral
route is implemented; the Monte Carlo and enumeration estimators above are
the supported ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cycles import mc_per_sample
from .errors import ConsistencyError
from .graphs import WeightFunction
from .group_algebra import InterchangeExact, cycle_counts

_BATCHES = 32
_DEFAULT_SAMPLES = 100_000


@dataclass(frozen=True)
class QhfEstimate:
    """Partition function and squared magnetization at one time."""

    t: float
    z: float
    z_stderr: float
    m_sq: float
    m_sq_stderr: float
    samples: int
    seed: int
    batches: int


def _cycle_observables(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(2^alpha, sum_k k^2 alpha_k) for cycle counts along the last axis."""
    alpha = counts[..., 1:].sum(axis=-1)
    weighted = counts @ np.arange(n + 1) ** 2
    if (weighted > n * n).any():
        raise ConsistencyError("sum of k^2 alpha_k can never exceed n^2")
    return 2.0**alpha, weighted.astype(float)


def qhf_mc(
    w: WeightFunction, t: float, samples: int = _DEFAULT_SAMPLES, seed: int = 0
) -> QhfEstimate:
    """Monte Carlo estimate of (Z, m^2) from shared interchange trajectories.

    Standard errors come from batch means over up to 32 batches; the m^2
    error is the spread of per-batch ratios.  Fewer than two batches give
    zero reported error.
    """
    def observables(counts: np.ndarray) -> np.ndarray:
        weight, spin = _cycle_observables(counts, w.n)
        return np.column_stack((weight, spin * weight))

    z_vals, num_vals = mc_per_sample(w, t, samples, seed, observables).T
    batches = min(_BATCHES, samples)
    z_batches = np.array([b.mean() for b in np.array_split(z_vals, batches)])
    ratio_batches = np.array(
        [nb.sum() / zb.sum() for nb, zb in
         zip(np.array_split(num_vals, batches), np.array_split(z_vals, batches))]
    )
    if batches > 1:
        z_stderr = float(z_batches.std(ddof=1) / math.sqrt(batches))
        m_sq_stderr = float(ratio_batches.std(ddof=1) / math.sqrt(batches))
    else:
        z_stderr = 0.0
        m_sq_stderr = 0.0
    return QhfEstimate(
        t=float(t),
        z=float(z_vals.mean()),
        z_stderr=z_stderr,
        m_sq=float(num_vals.sum() / z_vals.sum()),
        m_sq_stderr=m_sq_stderr,
        samples=samples,
        seed=seed,
        batches=batches,
    )


def qhf_exact(w: WeightFunction, t: float) -> tuple[float, float]:
    """(Z, m^2) summed over all permutations with exact probabilities, n <= 5."""
    process = InterchangeExact(w)
    dist = process.distribution(t)
    z = 0.0
    numerator = 0.0
    for p, perm in zip(dist, process.permutations):
        weight, spin = _cycle_observables(cycle_counts(perm), w.n)
        z += p * weight
        numerator += p * spin * weight
    return float(z), float(numerator / z)
