"""Signed pair operators on the symmetric group and exact operator checks.

Permutations are tuples: p[i] is the image of i.  Every operator checked
here has the form
    sum_{i<j} c_ij (1 - (i j))
for a finite, symmetric, zero-diagonal coefficient matrix c of either sign;
PairOperator holds that matrix.  It acts on functions over the symmetric
group by (A f)(tau) = sum_{i<j} c_ij (f(tau) - f((i j) tau)).  In the basis
of all permutations in lexicographic order this is a symmetric n! x n!
matrix, and on each irreducible representation rho it is the block
sum_{i<j} c_ij (I - rho((i j))) (see irreps.delta_blocks).

The interchange generator for a weight function w is
    delta_of_weights(w) = sum_{i<j} w_ij (1 - (i j)),
with c = w, which is positive semidefinite.  Two operator inequalities are
checked exactly here by building the signed gap operator and testing
positive semidefiniteness on its support, the points whose row of c is
nonzero: on the regular representation of a support of at most 5 points,
and on every irreducible block of a larger support, as far as irreps reaches:

* the octopus inequality: for a hub vertex h,
      sum_i w_hi (1 - (h i))  >=  sum_{i<j} (w_hi w_hj / w_h) (1 - (i j)),
* the doubling bound: for a lifted weight u with diagonal fraction eps,
      (2 + 2 eps) Delta_u  >=  Delta_{u^(2)}.

The lifted weight u = lift_lazy(w) puts the lazy walk's holding mass w_i on
the diagonal of w, and double_weight(u) = u^(2) holds its two-step law.

Exact distributions exp(-t Delta_w) of the process are available for n <= 5
via the symmetric eigendecomposition of the regular representation matrix.
That reach (EXACT_SEMIGROUP_MAX_N, check_exact_reach) and the default PSD
tolerance PSD_TOL live in graphs, beside IRREP_MAX_N, so a caller refuses
or takes the default without loading this module.
generator_decays is the one exp(-t lambda) of generator eigenvalues, for this
route and the spectral cycle formula: it refuses an eigenvalue that rounding
left below 0 once t would blow it up.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CapError, DegenerateWeightError, DisconnectedError, ParameterError
from .graphs import EXACT_SEMIGROUP_MAX_N, MAX_TOTAL_WEIGHT, PSD_TOL, WeightFunction
from .graphs import check_exact_reach, check_integer, check_irrep_reach, check_time

Perm = tuple[int, ...]

REGULAR_REP_MAX_N = 7
TV_MIX_TIME_TOL = 1e-6
# Largest total mass of a lifted weight, what lift_lazy can produce (doubling
# keeps the mass); the allowance absorbs a few ulps of rounding in the sum.
_MAX_LIFTED_MASS = 2.0 * MAX_TOTAL_WEIGHT * (1.0 + 1e-9)


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


def is_psd(a: PairOperator, tol: float = PSD_TOL) -> PsdVerdict:
    """Decide positive semidefiniteness of a pair operator on its support.

    The support is the k points whose row of c is nonzero.  Relabeled
    0 .. k-1, the operator keeps its smallest eigenvalue and its largest
    matrix entry: relabeling conjugates by a group element, and the regular
    representation of S_n restricted to S_k is a multiple of that of S_k.
    A support of at most 5 points is decided on its k! x k! regular
    representation, a larger one on its irreducible blocks.  Past their reach
    graphs.check_irrep_reach refuses, naming the support's size, before the
    relabeled copy is made.  The zero operator
    is PSD with minimum eigenvalue 0.  On both routes, eigenvalues down to
    -tol times the largest entry of the regular representation in absolute
    value are tolerated.  That entry is read off the coefficients: every
    diagonal entry is sum_{i<j} c_ij and every other nonzero entry a single
    -c_ij, so it is max(|sum_{i<j} c_ij|, max_{i<j} |c_ij|).  tol must be
    finite and > 0.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"PSD tolerance must be finite and > 0, got {tol}")
    support = np.flatnonzero(a.c.any(axis=1))
    if not support.size:
        return PsdVerdict(psd=True, min_eigenvalue=0.0)
    check_irrep_reach(support.size)
    op = PairOperator(a.c[np.ix_(support, support)])
    upper = op.c[np.triu_indices(op.n, 1)]
    scale = max(abs(float(upper.sum())), float(np.abs(upper).max()))
    if op.n <= EXACT_SEMIGROUP_MAX_N:
        min_eig = float(np.linalg.eigvalsh(regular_rep_matrix(op)).min())
    else:
        from .irreps import min_eigenvalue_on_irreps

        min_eig = min_eigenvalue_on_irreps(op)
    return PsdVerdict(psd=min_eig >= -tol * scale, min_eigenvalue=min_eig)


def octopus_gap(n: int, hub: int, arm_weights: Iterable[float]) -> PairOperator:
    """Gap operator of the octopus inequality for a hub and its arm weights.

    arm_weights lists w(hub, v) for the non-hub vertices v in increasing
    order.  Returns sum_i w_hi (1 - (h i)) minus
    sum_{i<j} (w_hi w_hj / w_h) (1 - (i j)).
    """
    check_integer(hub, "hub")
    if not 0 <= hub < n:
        raise ParameterError(f"hub {hub} out of range for n={n}")
    arms = [float(x) for x in arm_weights]
    others = [v for v in range(n) if v != hub]
    if len(arms) != len(others):
        raise ParameterError(f"expected {len(others)} arm weights, got {len(arms)}")
    if not all(map(math.isfinite, arms)):
        raise ParameterError(f"arm weights must be finite, got {arms}")
    if any(a < 0 for a in arms):
        raise ParameterError("arm weights must be nonnegative")
    hub_weight = sum(arms)
    if hub_weight <= 0:
        raise DegenerateWeightError("octopus needs at least one positive arm")
    a = np.array(arms)
    c = np.zeros((n, n))
    c[hub, others] = a
    c[others, hub] = a
    # from mantissas: a_i a_j can underflow where a_i a_j / w_h is representable
    arm_m, arm_e = np.frexp(a)
    hub_m, hub_e = math.frexp(hub_weight)
    c[np.ix_(others, others)] = -np.ldexp(np.outer(arm_m, arm_m) / hub_m,
                                          np.add.outer(arm_e, arm_e) - hub_e)
    np.fill_diagonal(c, 0.0)
    return PairOperator(c)


class LiftedWeight:
    """Weight function augmented with diagonal mass (holding probabilities).

    The lift of a lazy chain puts u_ij = w_ij off the diagonal and u_ii = w_i,
    so each row mass doubles: u_i = 2 w_i.  Doubling maps u to
    u2_ij = sum_k u_ik u_kj / u_k, which preserves row masses and tracks the
    two-step transition probabilities of the lazy walk.  The matrix must be
    finite, nonnegative and exactly symmetric (doubling_gap reads only the
    upper triangle), with a total mass of at most 2 MAX_TOTAL_WEIGHT (up to
    rounding), the most lift_lazy can produce, and every row mass positive:
    doubling and epsilon divide by them.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ParameterError(f"lifted weight needs a square matrix, got {matrix.shape}")
        if not (np.isfinite(matrix).all() and (matrix >= 0).all()):
            raise ParameterError("lifted weight matrix must be finite and nonnegative")
        # the entries are checked first: each under the cap, their sum cannot overflow
        if matrix.max(initial=0.0) > _MAX_LIFTED_MASS or matrix.sum() > _MAX_LIFTED_MASS:
            raise ParameterError(
                f"lifted weight total mass exceeds the cap {_MAX_LIFTED_MASS:g}; "
                "scale the weights down"
            )
        if not np.array_equal(matrix, matrix.T):
            raise ParameterError("lifted weight matrix must be exactly symmetric")
        self.matrix = matrix
        self.n = matrix.shape[0]
        self.vertex_weights = matrix.sum(axis=1)
        row = int(np.argmin(self.vertex_weights))
        if self.vertex_weights[row] <= 0:
            raise DegenerateWeightError(
                f"a lifted weight needs every row mass positive: row {row} is an isolated vertex")

    @property
    def epsilon(self) -> float:
        """max_i u_ii / u_i, the diagonal mass fraction."""
        return float((np.diag(self.matrix) / self.vertex_weights).max())


def lift_lazy(w: WeightFunction) -> LiftedWeight:
    """Lift w to the lazy weight with u_ii = w_i; LiftedWeight refuses an isolated vertex."""
    matrix = w.dense()
    np.fill_diagonal(matrix, w.vertex_weights)
    return LiftedWeight(matrix)


def double_weight(u: LiftedWeight) -> LiftedWeight:
    """One doubling step: u2_ij = sum_k u_ik u_kj / u_k."""
    doubled = (u.matrix / u.vertex_weights[None, :]) @ u.matrix
    doubled = 0.5 * (doubled + doubled.T)
    return LiftedWeight(doubled)


def doubling_gap(u: LiftedWeight) -> PairOperator:
    """(2 + 2 eps) Delta_u - Delta_{u^(2)}, from the upper triangles of u and u^(2)."""
    upper = (2.0 + 2.0 * u.epsilon) * np.triu(u.matrix, 1) - np.triu(double_weight(u).matrix, 1)
    return PairOperator(upper + upper.T)


def generator_decays(eigenvalues: np.ndarray, t: np.ndarray, w: WeightFunction) -> np.ndarray:
    """exp(-t lambda) for each eigenvalue lambda of Delta_w, one row per time of check_time(t).

    Delta_w is positive semidefinite, so a negative eigenvalue left once the
    known kernel is set to 0 is one the eigensolver could not tell from 0,
    and exp(-t lambda) would scale its term by exp(t |lambda|): CapError
    once t |lambda| > 1e-9 for the latest t and the most negative lambda.
    """
    lowest = float(eigenvalues.min(initial=0.0))
    latest = float(t.max(initial=0.0))
    if latest * -lowest > 1e-9:
        ratio = float(w.weights.max()) / w.min_positive_weight()
        raise CapError(
            f"exact routes refuse t = {latest:.6g}: generator eigenvalue {lowest:.3g} is "
            f"rounding below 0, which exp(-t lambda) would blow up (weight ratio {ratio:.3g})"
        )
    with np.errstate(over="ignore"):  # t * lambda = inf gives exp(-inf) = 0
        return np.exp(-t[..., None] * eigenvalues)


class InterchangeExact:
    """Exact distribution of the interchange process started at the identity.

    Diagonalizes the regular representation of Delta_w once (n <= 5) and
    evaluates exp(-t Delta_w) applied to the point mass at the identity for
    any t from the spectral data.  Delta_w vanishes exactly on the functions
    fixed by the Young subgroup of w's components, sizes mu: n! / prod(mu_i!)
    eigenvalues, the smallest, which are set to 0 so that rounding (about
    1e-16) is not blown up or decayed by exp(-t lambda) at large t.
    """

    def __init__(self, w: WeightFunction):
        check_exact_reach(w.n)
        self.weights = w
        self.permutations = all_perms(w.n)
        m = regular_rep_matrix(delta_of_weights(w))
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(m)
        sizes = w.component_sizes()
        self.eigenvalues[: math.factorial(w.n) // math.prod(map(math.factorial, sizes))] = 0.0
        # identity is first in lexicographic order
        self._id_row = self.eigenvectors[0, :]

    def distribution(self, t) -> np.ndarray:
        """Probabilities over all_perms(n) after a finite time t >= 0.

        For an array of times, one row of probabilities per time.
        """
        weights = generator_decays(self.eigenvalues, check_time(t), self.weights) * self._id_row
        return (self.eigenvectors @ weights.T).T

    def tv_from_uniform(self, t: float) -> float:
        size = len(self.permutations)
        return float(0.5 * np.abs(self.distribution(t) - 1.0 / size).sum())


def interchange_tv_mix_exact(w: WeightFunction) -> float:
    """First time the interchange process is within 1/4 of uniform in TV.

    Located by doubling and bisection on the continuous time axis; the
    result is accurate to TV_MIX_TIME_TOL.  Raises DisconnectedError when the
    weight function is disconnected (the process then never approaches
    uniform), and CapError when the doubling passes time 1e9 unmixed.
    """
    if not w.is_connected():
        raise DisconnectedError("interchange mixing needs a connected weight function")
    process = InterchangeExact(w)
    hi = 1.0 / w.total_weight
    while process.tv_from_uniform(hi) >= 0.25:
        if hi > 1e9:
            raise CapError(f"interchange process not within 1/4 of uniform by time {hi:.6g}")
        hi *= 2.0
    lo = 0.0
    while hi - lo > TV_MIX_TIME_TOL:
        mid = 0.5 * (lo + hi)
        if process.tv_from_uniform(mid) < 0.25:
            hi = mid
        else:
            lo = mid
    return hi
