"""Lazy random walk derived from a weight function, and its mixing profile.

The chain moves from i to j with probability w_ij / (2 w_i) and stays put
with probability 1/2.  Its stationary law is pi(j) = w_j / w_tot and the
chain is reversible.  Three quantities drive everything else here:

* lmix: the first integer time t at which p_t(i, j) > (3/4) pi(j) holds for
  every pair strictly.  The minimum of p_t(i, j) / pi(j) over pairs is
  nondecreasing in t, which justifies locating lmix by doubling the time
  until the condition holds and then binary searching.
* tv_mix: the first integer time at which the worst-row total variation
  distance from pi drops below 1/4.  It sits between lmix / 8 and lmix.
* delta: 1 / delta = prod_k (1 + eps_k) where eps_k is the largest diagonal
  entry of the 2^k-step transition matrix, taken over 0 <= k <= log2(lmix).

Strict inequalities are evaluated with a small tie guard so that exact ties
(which occur on tiny graphs) resolve the same way in floating point as they
do in exact arithmetic: a value within the guard of the threshold counts as
not exceeding it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DegenerateWeightError, DisconnectedError
from .graphs import WeightFunction

TIE_GUARD = 1e-12
_ROW_SUM_TOL = 1e-10
_PROBABILITY_CONSTANT = 30.0


class LazyChain:
    """Transition matrix, stationary law, and cached dyadic powers."""

    def __init__(self, w: WeightFunction):
        wi = w.vertex_weights
        if (wi <= 0).any():
            isolated = int(np.argmin(wi))
            raise DegenerateWeightError(
                f"vertex {isolated} has zero total weight; lazy chain undefined"
            )
        n = w.n
        p = w.dense()
        edges = np.count_nonzero(p)
        p /= 2.0 * wi[:, None]
        if np.count_nonzero(p) < edges:
            raise DegenerateWeightError(
                "a transition probability underflows to zero on a weighted edge; "
                "the weight ratios are too extreme"
            )
        np.fill_diagonal(p, 0.5)
        pi = wi / wi.sum()
        if (pi == 0).any():
            raise DegenerateWeightError(
                f"the stationary weight of vertex {int(np.argmin(pi))} underflows to zero; "
                "the weight ratios are too extreme"
            )
        self.weights = w
        self.n = n
        self.matrix = p
        self.pi = pi
        self.connected = w.is_connected()
        self._dyadic: dict[int, np.ndarray] = {0: p}

    def dyadic_power(self, k: int) -> np.ndarray:
        """P^(2^k), cached across calls."""
        if k not in self._dyadic:
            prev = self.dyadic_power(k - 1)
            self._dyadic[k] = _checked_product(prev, prev)
        return self._dyadic[k]

    def power(self, t: int) -> np.ndarray:
        """P^t for integer t >= 0 via the cached dyadic powers."""
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        result = np.eye(self.n)
        k = 0
        while t:
            if t & 1:
                result = _checked_product(result, self.dyadic_power(k))
            t >>= 1
            k += 1
        return result


def _checked_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    product = a @ b
    drift = np.abs(product.sum(axis=1) - 1.0).max()
    if drift > _ROW_SUM_TOL:
        raise ConsistencyError(f"row sums drifted by {drift:.3e} in a matrix power")
    return product


def lazy_chain(w: WeightFunction) -> LazyChain:
    """Build the lazy walk for w.  Raises if any vertex has zero weight."""
    return LazyChain(w)


def min_stationary_ratio(chain: LazyChain, t: int) -> float:
    """min over (i, j) of p_t(i, j) / pi(j); nondecreasing in t."""
    return float((chain.power(t) / chain.pi[None, :]).min())


def tv_distance(chain: LazyChain, t: int) -> float:
    """max over rows i of the total variation distance between p_t(i, .) and pi."""
    return float(0.5 * np.abs(chain.power(t) - chain.pi[None, :]).sum(axis=1).max())


def _search_first_time(condition, guard_cap: int = 60) -> int:
    """Smallest integer t >= 1 with condition(t), given condition is monotone."""
    if condition(1):
        return 1
    k = 0
    while not condition(1 << (k + 1)):
        k += 1
        if k > guard_cap:
            raise ConsistencyError("mixing condition never met on a connected chain")
    lo, hi = 1 << k, 1 << (k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if condition(mid):
            hi = mid
        else:
            lo = mid
    return hi

def lmix(chain: LazyChain) -> int | float:
    """First time every p_t(i, j) strictly exceeds (3/4) pi(j).

    Returns math.inf when the weight function is disconnected.  The strict
    comparison is applied to the ratio p_t(i, j) / pi(j) with the tie guard,
    so a ratio within the guard of 3/4 does not count as exceeding it.
    """
    if not chain.connected:
        return math.inf
    return _search_first_time(
        lambda t: min_stationary_ratio(chain, t) > 0.75 + TIE_GUARD
    )


def tv_mix(chain: LazyChain) -> int | float:
    """First time the worst-row total variation distance drops below 1/4."""
    if not chain.connected:
        return math.inf
    return _search_first_time(lambda t: tv_distance(chain, t) < 0.25 - TIE_GUARD)


class DeltaResult(NamedTuple):
    delta: float
    epsilons: tuple[float, ...]


def delta(chain: LazyChain, lmix_value: int | float | None = None) -> DeltaResult:
    """Laziness factor delta together with the eps_k sequence that builds it.

    eps_k is the largest diagonal entry of P^(2^k) and
    1 / delta = prod_{k=0}^{floor(log2 lmix)} (1 + eps_k).
    Raises DisconnectedError when lmix is infinite.
    """
    if lmix_value is None:
        lmix_value = lmix(chain)
    if math.isinf(lmix_value):
        raise DisconnectedError("delta is undefined: the chain never mixes")
    k_max = int(lmix_value).bit_length() - 1
    epsilons = tuple(
        float(np.diag(chain.dyadic_power(k)).max()) for k in range(k_max + 1)
    )
    inverse = 1.0
    for eps in epsilons:
        inverse *= 1.0 + eps
    return DeltaResult(delta=1.0 / inverse, epsilons=epsilons)


class ClauseDiagnostics(NamedTuple):
    edge_degree_ratio_sq: float
    regular: bool
    half_inverse_lmix: float


def is_regular(w: WeightFunction) -> bool:
    """True when all positive weights are equal and all vertex weights agree."""
    weights = [weight for _, weight in w.edges()]
    if not weights:
        return False
    wmin, wmax = min(weights), max(weights)
    vi = w.vertex_weights
    return math.isclose(wmin, wmax, rel_tol=1e-12) and math.isclose(
        float(vi.min()), float(vi.max()), rel_tol=1e-12
    )


@dataclass(frozen=True)
class MixingReport:
    """Everything the mix entry point reports for one weight function."""

    lmix: int | float
    mix: int | float
    delta: float | None
    epsilons: tuple[float, ...]
    clause_bounds: ClauseDiagnostics | None
    theorem_bound: float | None


def _clause_diagnostics(w: WeightFunction, lmix_value: int | float) -> ClauseDiagnostics:
    """Lower bound diagnostics for delta.

    Reports (min positive w_ij / max_i w_i)^2, whether w is regular (in which
    case delta is bounded below by an absolute constant), and 1 / (2 lmix).
    """
    ratio = w.min_positive_weight() / float(w.vertex_weights.max())
    half_inv = 0.0 if math.isinf(lmix_value) else 1.0 / (2.0 * lmix_value)
    return ClauseDiagnostics(
        edge_degree_ratio_sq=ratio * ratio,
        regular=is_regular(w),
        half_inverse_lmix=half_inv,
    )


def mixing_report(w: WeightFunction) -> MixingReport:
    """Compute lmix, tv mixing time, delta, the clause diagnostics, and the
    theorem bound (delta / lmix) * (min_i w_i)^2 / w_tot.

    The theorem bound is the graph-dependent factor of the main comparison
    bound; no universal constant is folded in.  For disconnected w, delta and
    the theorem bound are None.
    """
    chain = lazy_chain(w)
    lm = lmix(chain)
    mix = tv_mix(chain)
    if math.isinf(lm):
        return MixingReport(
            lmix=lm,
            mix=mix,
            delta=None,
            epsilons=(),
            clause_bounds=_clause_diagnostics(w, lm),
            theorem_bound=None,
        )
    result = delta(chain, lm)
    wi_min = float(w.vertex_weights.min())
    bound = (result.delta / lm) * (wi_min * wi_min) / w.total_weight
    return MixingReport(
        lmix=lm,
        mix=mix,
        delta=result.delta,
        epsilons=result.epsilons,
        clause_bounds=_clause_diagnostics(w, lm),
        theorem_bound=bound,
    )


class LiftedWeight:
    """Weight function augmented with diagonal mass (holding probabilities).

    The lift of a lazy chain puts u_ij = w_ij off the diagonal and u_ii = w_i,
    so each row mass doubles: u_i = 2 w_i.  Doubling maps u to
    u2_ij = sum_k u_ik u_kj / u_k, which preserves row masses and tracks the
    two-step transition probabilities of the lazy walk.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"lifted weight needs a square matrix, got {matrix.shape}")
        if not np.allclose(matrix, matrix.T, atol=1e-12):
            raise ValueError("lifted weight matrix must be symmetric")
        if (matrix < 0).any():
            raise ValueError("lifted weight matrix must be nonnegative")
        self.matrix = matrix
        self.n = matrix.shape[0]
        self.vertex_weights = matrix.sum(axis=1)

    @property
    def epsilon(self) -> float:
        """max_i u_ii / u_i, the diagonal mass fraction."""
        if (self.vertex_weights <= 0).any():
            raise DegenerateWeightError("epsilon undefined with a zero-mass vertex")
        return float((np.diag(self.matrix) / self.vertex_weights).max())

    def off_diagonal_weights(self) -> WeightFunction:
        """The plain weight function given by the off-diagonal entries."""
        entries = {}
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.matrix[i, j] > 0:
                    entries[(i, j)] = float(self.matrix[i, j])
        return WeightFunction(self.n, entries)


def lift_lazy(w: WeightFunction) -> LiftedWeight:
    """Lift w to the lazy weight with u_ii = w_i on the diagonal."""
    wi = w.vertex_weights
    if (wi <= 0).any():
        raise DegenerateWeightError("cannot lift weights with an isolated vertex")
    matrix = w.dense()
    np.fill_diagonal(matrix, wi)
    return LiftedWeight(matrix)


def double_weight(u: LiftedWeight) -> LiftedWeight:
    """One doubling step: u2_ij = sum_k u_ik u_kj / u_k."""
    if (u.vertex_weights <= 0).any():
        raise DegenerateWeightError("doubling needs every row mass positive")
    doubled = (u.matrix / u.vertex_weights[None, :]) @ u.matrix
    doubled = 0.5 * (doubled + doubled.T)
    return LiftedWeight(doubled)


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of checking the heat kernel upper bounds up to lmix."""

    lmix: int
    holds: bool
    worst_slack: float
    regular: bool
    regular_holds: bool | None
    regular_worst_slack: float | None


def verify_probability_bounds(chain: LazyChain, w: WeightFunction) -> BoundCheckReport:
    """Check p_t(i, j) <= (30 / sqrt(t)) w_i / min* w_ij for 1 <= t <= lmix.

    The ratio w_i / min* w_ij is scale free, so the bound applies to any
    normalization of w.  For regular w the stronger form
    p_t(i, j) <= 30 / t^(1/4) is checked as well.  Slack is the minimum of
    (bound - p_t) over the checked range; the bounds hold iff it is >= 0.
    """
    lm = lmix(chain)
    if math.isinf(lm):
        raise DisconnectedError("probability bounds apply to connected weights only")
    ratio = w.vertex_weights / w.min_positive_weight()
    regular = is_regular(w)
    worst = math.inf
    worst_regular = math.inf
    power = np.eye(chain.n)
    for t in range(1, int(lm) + 1):
        power = _checked_product(power, chain.matrix)
        slack = float(((_PROBABILITY_CONSTANT / math.sqrt(t)) * ratio[:, None] - power).min())
        worst = min(worst, slack)
        if regular:
            slack_r = float((_PROBABILITY_CONSTANT / t**0.25 - power).min())
            worst_regular = min(worst_regular, slack_r)
    return BoundCheckReport(
        lmix=int(lm),
        holds=worst >= 0.0,
        worst_slack=worst,
        regular=regular,
        regular_holds=(worst_regular >= 0.0) if regular else None,
        regular_worst_slack=worst_regular if regular else None,
    )
