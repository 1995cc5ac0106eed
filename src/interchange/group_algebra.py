"""Signed pair operators on the symmetric group and exact operator checks.

Permutations are tuples: p[i] is the image of i, composition is
compose(p, q)(i) = p[q[i]].  Every operator checked here has the form
    sum_{i<j} c_ij (1 - (i j))
for a finite, symmetric, zero-diagonal coefficient matrix c of either sign;
PairOperator holds that matrix.  It acts on functions over the symmetric
group by (A f)(tau) = sum_{i<j} c_ij (f(tau) - f((i j) tau)).  In the basis
of all permutations in lexicographic order this is a symmetric n! x n!
matrix, and on each irreducible representation rho it is the block
sum_{i<j} c_ij (I - rho((i j))) (see irreps.YoungOrthogonalRep.delta_matrix).

The interchange generator for a weight function w is
    delta_of_weights(w) = sum_{i<j} w_ij (1 - (i j)),
with c = w, which is positive semidefinite.  Two operator inequalities are
checked exactly here by building the signed gap operator and testing
positive semidefiniteness on the regular representation or on every
irreducible block:

* the octopus inequality: for a hub vertex h,
      sum_i w_hi (1 - (h i))  >=  sum_{i<j} (w_hi w_hj / w_h) (1 - (i j)),
* the doubling bound: for a lifted weight u with diagonal fraction eps,
      (2 + 2 eps) Delta_u  >=  Delta_{u^(2)}.

Exact distributions exp(-t Delta_w) of the process are available for n <= 5
via the symmetric eigendecomposition of the regular representation matrix.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .chain import LiftedWeight, double_weight
from .errors import CapError, DegenerateWeightError, DisconnectedError, ParameterError
from .graphs import WeightFunction

Perm = tuple[int, ...]

REGULAR_REP_MAX_N = 7
EXACT_SEMIGROUP_MAX_N = 5
PSD_TOL = 1e-9
TV_MIX_TIME_TOL = 1e-6


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p q)(i) = p[q[i]], i.e. apply q first."""
    assert len(p) == len(q)
    return tuple(p[qi] for qi in q)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def transposition_perm(n: int, i: int, j: int) -> Perm:
    if i == j:
        raise ParameterError("transposition needs two distinct points")
    out = list(range(n))
    out[i], out[j] = j, i
    return tuple(out)


def cycle_counts(p: Perm) -> np.ndarray:
    """counts[k] = number of k-cycles of p, for k = 0 .. n (index 0 unused)."""
    n = len(p)
    counts = np.zeros(n + 1, dtype=np.int64)
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = p[v]
            length += 1
        counts[length] += 1
    return counts


def all_perms(n: int) -> list[Perm]:
    """Every permutation of {0, ..., n-1} in lexicographic image order."""
    return list(itertools.permutations(range(n)))


@dataclass(frozen=True, eq=False)
class PairOperator:
    """Signed pair operator sum_{i<j} c_ij (1 - (i j)) on n points.

    c is a finite, symmetric n x n matrix with a zero diagonal; the
    coefficients may have either sign.  Symmetry makes the operator self
    adjoint, so its regular and irreducible blocks are symmetric matrices.
    """

    c: np.ndarray

    def __post_init__(self):
        try:
            c = np.array(self.c, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParameterError("pair coefficients must be a real matrix") from exc
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 2:
            raise ParameterError(f"pair coefficients need an n x n matrix, n >= 2, got {c.shape}")
        if not np.isfinite(c).all():
            raise ParameterError("pair coefficients must be finite")
        if not np.array_equal(c, c.T):
            raise ParameterError("pair coefficients must be symmetric")
        if np.diag(c).any():
            raise ParameterError("pair coefficients must have a zero diagonal")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def pairs(self) -> list[tuple[int, int, float]]:
        """Nonzero (i, j, c_ij) with i < j, in lexicographic pair order."""
        rows, cols = np.nonzero(np.triu(self.c, 1))
        return [(int(i), int(j), float(self.c[i, j])) for i, j in zip(rows, cols)]


def delta_of_weights(w: WeightFunction) -> PairOperator:
    """Interchange generator sum_{i<j} w_ij (1 - (i j))."""
    return PairOperator(w.dense())


def regular_rep_matrix(a: PairOperator) -> np.ndarray:
    """Matrix of sum_{i<j} c_ij (I - P_ij) on functions over S_n, size n! x n!.

    Rows and columns follow all_perms(n); (P_ij f)(tau) = f((i j) tau), so
    M[tau, (i j) tau] = -c_ij and every diagonal entry is sum_{i<j} c_ij.
    """
    n = a.n
    if n > REGULAR_REP_MAX_N:
        raise CapError(f"regular representation capped at n <= {REGULAR_REP_MAX_N}, got {n}")
    perms = np.array(all_perms(n))
    # base-n codes increase with lexicographic order, so searchsorted ranks them
    place = n ** np.arange(n - 1, -1, -1)
    codes = perms @ place
    rows = np.arange(len(perms))
    m = np.zeros((len(perms), len(perms)))
    pairs = a.pairs()
    for i, j, c in pairs:
        relabel = np.arange(n)
        relabel[[i, j]] = j, i
        m[rows, np.searchsorted(codes, relabel[perms] @ place)] = -c
    m[rows, rows] = sum(c for _, _, c in pairs)
    return m


class PsdVerdict(NamedTuple):
    psd: bool
    min_eigenvalue: float


def is_psd(a: PairOperator, tol: float = PSD_TOL, method: str = "auto") -> PsdVerdict:
    """Decide positive semidefiniteness of a pair operator.

    method "regular" assembles the full n! x n! matrix (n <= 7); "irrep"
    diagonalizes each irreducible block instead and reaches n <= 10; "auto"
    picks the regular route up to n = 5 and the irrep route beyond.  The
    verdict tolerates eigenvalues down to -tol times the largest matrix
    entry in absolute value.
    """
    if method == "auto":
        method = "regular" if a.n <= EXACT_SEMIGROUP_MAX_N else "irrep"
    if method == "regular":
        m = regular_rep_matrix(a)
        scale = float(np.abs(m).max())
        min_eig = float(np.linalg.eigvalsh(m).min()) if scale > 0 else 0.0
    elif method == "irrep":
        from .irreps import min_eigenvalue_on_irreps

        min_eig, scale = min_eigenvalue_on_irreps(a)
    else:
        raise ParameterError(f"unknown method {method!r}")
    return PsdVerdict(psd=min_eig >= -tol * max(scale, 1e-300), min_eigenvalue=min_eig)


def octopus_gap(n: int, hub: int, arm_weights: Iterable[float]) -> PairOperator:
    """Gap operator of the octopus inequality for a hub and its arm weights.

    arm_weights lists w(hub, v) for the non-hub vertices v in increasing
    order.  Returns sum_i w_hi (1 - (h i)) minus
    sum_{i<j} (w_hi w_hj / w_h) (1 - (i j)).
    """
    arms = [float(x) for x in arm_weights]
    others = [v for v in range(n) if v != hub]
    if not 0 <= hub < n:
        raise ParameterError(f"hub {hub} out of range for n={n}")
    if len(arms) != len(others):
        raise ParameterError(f"expected {len(others)} arm weights, got {len(arms)}")
    if any(a < 0 for a in arms):
        raise ParameterError("arm weights must be nonnegative")
    hub_weight = sum(arms)
    if hub_weight <= 0:
        raise DegenerateWeightError("octopus needs at least one positive arm")
    a = np.array(arms)
    c = np.zeros((n, n))
    c[hub, others] = a
    c[others, hub] = a
    c[np.ix_(others, others)] = -np.outer(a, a) / hub_weight
    np.fill_diagonal(c, 0.0)
    return PairOperator(c)


def octopus_check(
    n: int, hub: int, arm_weights: Iterable[float], tol: float = PSD_TOL
) -> PsdVerdict:
    """Verify the octopus inequality for one hub configuration."""
    return is_psd(octopus_gap(n, hub, arm_weights), tol=tol)


def doubling_gap(u: LiftedWeight) -> PairOperator:
    """(2 + 2 eps) Delta_u - Delta_{u^(2)}, both taken off the diagonal."""
    lhs = delta_of_weights(u.off_diagonal_weights())
    rhs = delta_of_weights(double_weight(u).off_diagonal_weights())
    return PairOperator((2.0 + 2.0 * u.epsilon) * lhs.c - rhs.c)


def doubling_inequality_check(u: LiftedWeight, tol: float = PSD_TOL) -> PsdVerdict:
    """Verify the doubling inequality for one lifted weight."""
    return is_psd(doubling_gap(u), tol=tol)


class InterchangeExact:
    """Exact distribution of the interchange process started at the identity.

    Diagonalizes the regular representation of Delta_w once (n <= 5) and
    evaluates exp(-t Delta_w) applied to the point mass at the identity for
    any t from the spectral data.
    """

    def __init__(self, w: WeightFunction):
        if w.n > EXACT_SEMIGROUP_MAX_N:
            raise CapError(
                f"exact distribution capped at n <= {EXACT_SEMIGROUP_MAX_N}, got {w.n}"
            )
        self.weights = w
        self.permutations = all_perms(w.n)
        m = regular_rep_matrix(delta_of_weights(w))
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(m)
        # identity is first in lexicographic order
        self._id_row = self.eigenvectors[0, :]

    def distribution(self, t: float) -> np.ndarray:
        """Probabilities over all_perms(n) after time t >= 0."""
        if t < 0:
            raise ParameterError(f"time must be >= 0, got {t}")
        dist = self.eigenvectors @ (np.exp(-t * self.eigenvalues) * self._id_row)
        return dist

    def tv_from_uniform(self, t: float) -> float:
        size = len(self.permutations)
        return float(0.5 * np.abs(self.distribution(t) - 1.0 / size).sum())


def interchange_tv_mix_exact(w: WeightFunction) -> float:
    """First time the interchange process is within 1/4 of uniform in TV.

    Located by doubling and bisection on the continuous time axis; the
    result is accurate to TV_MIX_TIME_TOL.  Raises DisconnectedError when the
    weight function is disconnected (the process then never approaches
    uniform).
    """
    if not w.is_connected():
        raise DisconnectedError("interchange mixing needs a connected weight function")
    process = InterchangeExact(w)
    hi = 1.0 / w.total_weight
    while process.tv_from_uniform(hi) >= 0.25:
        hi *= 2.0
        if hi > 1e9:
            raise DegenerateWeightError("interchange process failed to mix")
    lo = 0.0
    while hi - lo > TV_MIX_TIME_TOL:
        mid = 0.5 * (lo + hi)
        if process.tv_from_uniform(mid) < 0.25:
            hi = mid
        else:
            lo = mid
    return hi
