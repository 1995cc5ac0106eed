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

No spectral route is implemented; the Monte Carlo and enumeration
estimators above are the supported ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cycles import MC_DEFAULT_SAMPLES, exact_mean, mc_per_sample, mean_stderr
from .errors import CapError, ConsistencyError
from .graphs import WeightFunction

_BATCHES = 32


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


def _cycle_observables(counts: np.ndarray, n: int) -> np.ndarray:
    """(alpha, sum_k k^2 alpha_k) for cycle counts along the last axis, stacked last."""
    alpha = counts[..., 1:].sum(axis=-1)
    weighted = counts @ np.arange(n + 1) ** 2
    if (weighted > n * n).any():
        raise ConsistencyError("sum of k^2 alpha_k can never exceed n^2")
    return np.stack((alpha, weighted), axis=-1)


def qhf_mc(
    w: WeightFunction, t: float, samples: int = MC_DEFAULT_SAMPLES, seed: int = 0
) -> QhfEstimate:
    """Monte Carlo estimate of (Z, m^2) from shared interchange trajectories.

    Standard errors come from batch means over up to 32 batches; the m^2
    error is the spread of per-batch ratios.  Fewer than two batches give
    zero reported error.  2^alpha overflows a float from alpha = 1024 on, so
    the weights are averaged as 2^(alpha - shift), shift the largest alpha
    drawn, and Z and its error scaled back by 2^shift; m^2 is a ratio of the
    scaled sums.  Scaling by a power of two is exact, so at small n the values
    are those of the unscaled formula bit for bit.  Raises CapError when Z
    itself exceeds the float range.
    """
    alpha, spin = mc_per_sample(
        w, t, samples, seed, lambda counts: _cycle_observables(counts, w.n)
    ).T
    shift = int(alpha.max())
    z_vals = np.ldexp(1.0, alpha - shift)
    num_vals = spin * z_vals
    batches = min(_BATCHES, samples)
    z_batches = np.array([b.mean() for b in np.array_split(z_vals, batches)])
    ratio_batches = np.array(
        [nb.sum() / zb.sum() for nb, zb in
         zip(np.array_split(num_vals, batches), np.array_split(z_vals, batches))]
    )
    z_stderr, m_sq_stderr = (float(mean_stderr(b)[1]) for b in (z_batches, ratio_batches))
    try:
        z = math.ldexp(float(z_vals.mean()), shift)
        z_stderr = math.ldexp(z_stderr, shift)
    except OverflowError:
        raise CapError(
            f"partition function E(2^alpha) exceeds the float range (alpha up to {shift})"
        ) from None
    return QhfEstimate(
        t=float(t),
        z=z,
        z_stderr=z_stderr,
        m_sq=float(num_vals.sum() / z_vals.sum()),
        m_sq_stderr=m_sq_stderr,
        samples=samples,
        seed=seed,
        batches=batches,
    )


def qhf_exact(w: WeightFunction, t: float) -> tuple[float, float]:
    """(Z, m^2) summed over all permutations with exact probabilities, n <= 5.

    The values are a plain loop's bit for bit: exact_mean adds in its order,
    and p (spin 2^alpha) = (p spin) 2^alpha, as scaling by 2^alpha is exact.
    """

    def weights(counts: np.ndarray) -> np.ndarray:
        alpha, spin = _cycle_observables(counts, w.n).T
        weight = np.ldexp(1.0, alpha)
        return np.stack((weight, spin * weight), axis=-1)

    z, numerator = exact_mean(w, t, weights)
    return float(z), float(numerator / z)
