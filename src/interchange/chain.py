"""Lazy random walk derived from a weight function, and its mixing profile.

The chain moves from i to j with probability w_ij / (2 w_i) and stays put
with probability 1/2.  Its stationary law is pi(j) = w_j / w_tot and the
chain is reversible.  Three quantities drive everything else here:

* lmix: the first integer time t at which p_t(i, j) > (3/4) pi(j) holds for
  every pair strictly.  The minimum of p_t(i, j) / pi(j) over pairs is
  nondecreasing in t, which justifies locating lmix by doubling the time
  until the condition holds and then lifting the largest failing time one
  bit at a time, from the highest: P^lo P^(2^j) is one product per bit, and
  the lifted power is kept when it still fails.
* tv_mix: the first integer time at which the worst-row total variation
  distance from pi drops below 1/4.  It sits between lmix / 8 and lmix.
* delta: 1 / delta = prod_k (1 + eps_k) where eps_k is the largest diagonal
  entry of the 2^k-step transition matrix, taken over 0 <= k <= log2(lmix).

lmix and tv_mix are found together by one search on a ladder of dyadic
powers P^(2^k) that the search holds itself: it records each eps_k as the
power is made and drops each power once its last reader has used it.  The
search owns its n x n arrays: it writes every power into one with out= and
puts a dropped one back on its own free list, never back to malloc, so its
peak memory follows the most powers it holds at once.  The ladder keeps
every second level from P^16 up and makes a dropped level again from the
nearest one below when a lift reads it, or from P (checkpointing, as in
Griewank and Walther, Algorithm 799: revolve, ACM TOMS 26, 2000).  Once the
lifts at bits 3 and up are done, and at bit 2 where P^4 is in hand, each
condition is finished on its own, walking its last bits one product by P at
a time.  Each lift is made and tested by row blocks through one buffer, so a
lifted power that holds is never stored.  A search bracketed at k holds
about ceil((k + 1) / 2) n x n arrays (2 on hypercube:10).

Reversibility and Cauchy-Schwarz in L^2(1 / pi) settle many tests without a
product (Levin-Peres-Wilmer, Markov Chains and Mixing Times, 2nd ed., 4.7
and ch. 12): with s(a)^2 = max_i sum_k p_a(i, k)^2 / pi(k) - 1, the worst
row's chi-distance, min p_(a+b) / pi >= 1 - s(a) s(b) and the worst TV of
P^(a+b) is at most s(a) s(b) / 2.  Each s(a)^2 a certificate reads is one
O(n^2) pass over P^a, made once, the first time a certificate asks for it.
Entries are nonnegative, so rounding is relative, about #products * n * u
(7e-12 at n = 1024); a certificate must clear its threshold by 1e-9, far
above that plus the tie guard, so a settled test ends as the product would.
The certificates settle the doubling top and late lifts.

Rounding drift in the row sums of P^t grows with t, so a chain too slow for
double precision (drift past the tolerance that rounding explains, or no
mixing by t = 2^60) raises CapError naming the time reached; drift rounding
cannot explain is a ConsistencyError.

LazyChain.power builds P^t from dyadic powers cached on the chain.  The
heat-kernel bounds are checked at every t up to lmix without a product per
step: by Chapman-Kolmogorov, p_t(i, j) <= max P^a for all t >= a, which
bounds the slack on a whole interval of times from one evaluated power, so a
branch and bound over t evaluates only the times whose interval it cannot
rule out.  The reported worst slacks are still the exact minima over every t.

Strict inequalities are evaluated with a small tie guard so that exact ties
(which occur on tiny graphs) resolve the same way in floating point as they
do in exact arithmetic: a value within the guard of the threshold counts as
not exceeding it.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CapError,
    ConsistencyError,
    DegenerateWeightError,
    DisconnectedError,
    ParameterError,
)
from .graphs import WeightFunction

TIE_GUARD = 1e-12
_ROW_SUM_TOL = 1e-10
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
# what a chi-distance certificate keeps to spare over its threshold, and the
# rounding it allows in a computed s^2 (see the module docstring)
_CERTIFICATE_MARGIN = 1e-9
_PROBABILITY_CONSTANT = 30.0
# largest k tried when doubling the time, 2^k, while locating lmix or tv_mix
_DOUBLING_GUARD = 60
# rows per block when summing total variation and chi-distances; subtracting
# pi takes a buffer of numpy's own (up to 8192 entries) beside the block's
_TV_ROWS = 16
# rows per block of a lift, tested through one buffer; at most this many rows,
# a lift is one product, bit for bit the product of the whole matrices
_LIFT_ROWS = 128


class LazyChain:
    """Stationary law, and the transition matrix and its dyadic powers on demand.

    The cache serves power(), that is the heat-kernel bounds and the
    profiles min_stationary_ratio and tv_distance; P itself is built on its
    first read.  The mixing search does not fill it: it makes P from the
    weights and holds its own ladder of dyadic powers, in arrays it reuses.
    """

    def __init__(self, w: WeightFunction):
        wi = w.vertex_weights
        if (wi <= 0).any():
            isolated = int(np.argmin(wi))
            raise DegenerateWeightError(
                f"vertex {isolated} has zero total weight; lazy chain undefined"
            )
        # P's two entries of each edge, w_ij / (2 w_i) and w_ij / (2 w_j), as
        # _transition divides them
        if any((w.weights / (2.0 * wi[ends]) == 0).any() for ends in w.ends):
            raise DegenerateWeightError(
                "a transition probability underflows to zero on a weighted edge; "
                "the weight ratios are too extreme"
            )
        pi = wi / wi.sum()
        if (pi == 0).any():
            raise DegenerateWeightError(
                f"the stationary weight of vertex {int(np.argmin(pi))} underflows to zero; "
                "the weight ratios are too extreme"
            )
        self.weights = w
        self.n = w.n
        self.pi = pi
        self.connected = w.is_connected()
        self._dyadic: dict[int, np.ndarray] = {}

    def dyadic_power(self, k: int) -> np.ndarray:
        """P^(2^k), cached across calls; P itself is dyadic_power(0)."""
        if k not in self._dyadic:
            if k:
                prev = self.dyadic_power(k - 1)
                power = _checked_product(prev, prev, 1 << k)
            else:
                power = _transition(self.weights)
            power.setflags(write=False)
            self._dyadic[k] = power
        return self._dyadic[k]

    def power(self, t: int) -> np.ndarray:
        """P^t for integer t >= 0 via the cached dyadic powers.

        Takes popcount(t) - 1 products once the dyadic powers are cached.
        The result may be a cached power itself, which is read-only.
        """
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or t < 0:
            raise ParameterError(f"time must be an integer >= 0, got {t!r}")
        if t == 0:
            return np.eye(self.n)
        result = None
        k = 0
        made = 0
        while t:
            if t & 1:
                factor = self.dyadic_power(k)
                made += 1 << k
                result = factor if result is None else _checked_product(result, factor, made)
            t >>= 1
            k += 1
        return result


def _transition(w: WeightFunction, out: np.ndarray | None = None) -> np.ndarray:
    """P for w, made the same way, so with the same bits, at every call; in out if given.

    Each edge's two entries, w_ij / (2 w_i) and w_ij / (2 w_j), are divided
    on the edge list: the bits of w.dense() divided by 2 w_i row by row,
    without a pass over the zeros or numpy's buffer for the broadcast (up to
    8192 entries, a whole matrix at n = 90).
    """
    p = np.empty((w.n, w.n)) if out is None else out
    p.fill(0.0)
    first, second = w.ends
    half = 2.0 * w.vertex_weights
    p[first, second] = w.weights / half[first]
    p[second, first] = w.weights / half[second]
    # the diagonal through a flat view, without fill_diagonal's temporaries
    p.reshape(-1)[:: w.n + 1] = 0.5
    return p


def _row_drift(product: np.ndarray) -> float:
    """Largest |row sum - 1| over the rows of a block of a power of P."""
    return float(np.abs(product.sum(axis=1) - 1.0).max())


def _check_drift(drift: float, time: int, n: int) -> None:
    """Raise when rounding drifted the row sums of the n x n power P^time by drift.

    Rounding moves them by at most about 2 (time + 1)(n + 1) u; drift past the
    tolerance within that is a CapError, beyond it a bug.
    """
    if drift > _ROW_SUM_TOL:
        if drift > 2.0 * (time + 1) * (n + 1) * _UNIT_ROUNDOFF:
            raise ConsistencyError(f"row sums drifted by {drift:.3e} in a matrix power")
        raise CapError(
            "the lazy chain mixes too slowly for double precision: rounding drifted "
            f"the row sums of P^{time} by {drift:.3e}"
        )


def _checked_product(
    a: np.ndarray, b: np.ndarray, time: int, out: np.ndarray | None = None
) -> np.ndarray:
    """a @ b = P^time for two powers of P, in out if given, with the row sums checked."""
    product = np.matmul(a, b, out=out)
    _check_drift(_row_drift(product), time, len(b))
    return product


def lazy_chain(w: WeightFunction) -> LazyChain:
    """Build the lazy walk for w.  Raises if any vertex has zero weight.

    Kept only because perfbench/ imports it by name.
    """
    return LazyChain(w)


def min_stationary_ratio(chain: LazyChain, t: int) -> float:
    """min over (i, j) of p_t(i, j) / pi(j); nondecreasing in t."""
    return _min_ratio(chain.power(t), chain.pi)


def tv_distance(chain: LazyChain, t: int) -> float:
    """max over rows i of the total variation distance between p_t(i, .) and pi."""
    return _worst_tv(chain.power(t), chain.pi)


def _min_ratio(power: np.ndarray, pi: np.ndarray) -> float:
    # fl(x / y) is monotone in x for y > 0, so dividing the column minima gives
    # the same minimum as dividing every entry, without an n x n temporary
    return float((power.min(axis=0) / pi).min())


def _row_blocks(power: np.ndarray):
    """power's blocks of _TV_ROWS rows, each with a buffer of its shape to work in."""
    buffer = np.empty((min(_TV_ROWS, len(power)), power.shape[1]))
    for i in range(0, len(power), _TV_ROWS):
        block = power[i : i + _TV_ROWS]
        yield block, buffer[: len(block)]


def _worst_tv(power: np.ndarray, pi: np.ndarray) -> float:
    # row by row the same sums as over the whole matrix, through one buffer
    # of _TV_ROWS rows
    return max(
        float(0.5 * np.abs(np.subtract(block, pi, out=out), out=out).sum(axis=1).max())
        for block, out in _row_blocks(power)
    )


class _Condition(NamedTuple):
    """A mixing condition on P^t, monotone in t, and its certificate.

    settles(s(a) s(b)) is True only when that proves holds(P^(a + b)).
    """

    holds: Callable[[np.ndarray], bool]
    settles: Callable[[float], bool]


def _mixes(chain: LazyChain) -> _Condition:
    """lmix: min p_t(i, j) / pi(j) > 3/4, and min p_(a+b) / pi >= 1 - s(a) s(b)."""
    return _Condition(
        holds=lambda power: _min_ratio(power, chain.pi) > 0.75 + TIE_GUARD,
        settles=lambda ss: 1.0 - ss >= 0.75 + _CERTIFICATE_MARGIN,
    )


def _tv_mixes(chain: LazyChain) -> _Condition:
    """tv_mix: worst-row TV of P^t < 1/4, and TV(P^(a+b)) <= s(a) s(b) / 2."""
    return _Condition(
        holds=lambda power: _worst_tv(power, chain.pi) < 0.25 - TIE_GUARD,
        settles=lambda ss: 0.5 * ss <= 0.25 - _CERTIFICATE_MARGIN,
    )


def _chi_squared(power: np.ndarray, pi: np.ndarray) -> float:
    """s(a)^2 = max_i sum_k p_a(i, k)^2 / pi(k) - 1 for power = P^a, by row blocks."""
    inverse = 1.0 / pi
    return max(
        float((np.square(block, out=out) @ inverse).max()) for block, out in _row_blocks(power)
    ) - 1.0


def _chi_bound(chi_squared: float) -> float:
    """An upper bound on s from a computed s^2 = sum - 1, allowing for rounding."""
    return math.sqrt(max(chi_squared, 0.0) + _CERTIFICATE_MARGIN * (1.0 + chi_squared))


def _settles(condition: _Condition, chi2: dict[int, float], a: int, b: int) -> bool:
    """True when s(a) s(b) proves condition(P^(a + b)) without the product."""
    return condition.settles(_chi_bound(chi2[a]) * _chi_bound(chi2[b]))


def _lift(
    failing: np.ndarray,
    factor: np.ndarray,
    time: int,
    holds: Callable[[np.ndarray], bool],
    buffer: np.ndarray,
    take: Callable[[], np.ndarray] | None = None,
    whole: bool = True,
) -> np.ndarray | None:
    """None when holds(P^time), P^time = failing @ factor, else P^time.

    The product is made and tested by row blocks through buffer, so one that
    holds is never stored.  Row i of the product reads only row i of failing,
    so one that fails is written over failing block by block, or over the
    array take() returns when failing is shared; the blocks tested before the
    failure showed are made again.  When whole is False nothing reads a
    product that fails, so testing stops at its first failing block, which is
    returned.  The row sums of every block made are checked.
    """
    size = len(buffer)
    blocks = [slice(start, start + size) for start in range(0, len(failing), size)]
    drift = 0.0

    def product(rows: slice) -> np.ndarray:
        nonlocal drift
        block = failing[rows]
        block = np.matmul(block, factor, out=buffer[: len(block)])
        drift = max(drift, _row_drift(block))
        return block

    lifted = None
    for index, rows in enumerate(blocks):
        block = product(rows)
        if not holds(block):
            if not whole:
                lifted = block
                break
            lifted = failing if take is None else take()
            lifted[rows] = block
            for other in blocks[:index] + blocks[index + 1 :]:
                lifted[other] = product(other)
            break
    _check_drift(drift, time, len(failing))
    return lifted


def _checkpoint(k: int) -> bool:
    """Whether the ladder keeps level k, P^(2^k), to remake the levels above it."""
    return k >= 4 and k % 2 == 0


class _Search:
    """The search for the smallest t >= 1 with condition(P^t), for each of
    conditions, all monotone in t; run() makes it.

    Doubling squares the top power, records eps_k = max diag P^(2^k) as each
    power is made, and tests every condition not yet bracketed between 2^k,
    which fails, and 2^(k+1), which holds.  Lifting then goes from the
    highest bit down to bit 3: the largest failing time lo of each condition
    bracketed above j becomes lo + 2^j whenever P^lo P^(2^j) still fails, one
    product per condition per bit.  Bit 2 is lifted the same way while P^4 is
    in hand.  The end game finishes the conditions one at a time, the one
    bracketed last first: it lifts at bit 2 if P^4 is in hand by then, and
    walks the at most 7 (or 3) candidates left one lift by P at a time, with
    P made from the weights (_transition, the same bits each time).

    Every power lives in one of the search's own n x n arrays, and every
    product is written into one with out=; each array is allocated once, and
    a power the search drops goes back to its free list, never to malloc
    (glibc keeps a freed 8 MiB power's pages resident once its mmap threshold
    has risen, so the peak would follow the order of allocation rather than
    the most powers held at once).  The ladder keeps the even levels
    from P^16 up while a reader may remain above them.  A level, or a
    condition's dropped failing power P^(2^k), is squared up when first read
    from the nearest level held below it, or from P, and the square it was
    made from stays in hand for the next bit down: a condition bracketed at
    k lifts at bit k - 1 by it.  Lifts go through _lift with one buffer: a
    product that fails is written over its condition's failing power, and
    the last candidate stops at its first failing block, since nothing reads
    it.  The doubling top and the lifts at bits >= 2 are made only where the
    certificate s(a) s(b) does not settle them.  Each s(a)^2 is one pass over
    P^a, made the first time a certificate reads it: before each square of
    the doubling, and over a lifted condition's failing power at its first
    lift at a bit >= 2.  A first time of exactly 2^(k+1) whose top was
    settled gets eps_(k+1) from k + 1 squarings of P: the same products, the
    same bits.  A search bracketed at k holds about ceil((k + 1) / 2) n x n
    arrays (2 on hypercube:10).
    """

    __slots__ = (
        "chain", "conditions", "held", "free", "chi2", "brackets", "lows", "failing", "buffer",
    )

    def __init__(self, chain: LazyChain, conditions: tuple[_Condition, ...]):
        self.chain = chain
        self.conditions = conditions
        # the ladder: level k is P^(2^k)
        self.held: dict[int, np.ndarray] = {}
        self.free: list[np.ndarray] = []
        # s(t)^2 of each time a certificate has read, one pass over P^t each
        self.chi2: dict[int, float] = {}
        self.brackets: dict[int, int] = {}
        # each bracketed condition's largest failing time, and its failing
        # power: one the ladder dropped is None until first read, and one
        # power may be a held level too
        self.lows: dict[int, int] = {}
        self.failing: dict[int, np.ndarray | None] = {}

    def run(self) -> tuple[list[int], tuple[float, ...]]:
        """The first times in the order of the conditions, and eps_k for every
        dyadic power up to the largest first time."""
        conditions, held, chi2, brackets = self.conditions, self.held, self.chi2, self.brackets
        pi = self.chain.pi
        held[0] = _transition(self.chain.weights, out=self.take())
        epsilons = [float(np.diag(held[0]).max())]
        times = [1 if condition.holds(held[0]) else None for condition in conditions]
        unbracketed = [i for i, t in enumerate(times) if t is None]
        k = 0
        while unbracketed:
            if k >= _DOUBLING_GUARD:
                raise CapError(
                    "the lazy chain mixes too slowly: no mixing condition holds "
                    f"by t = 2^{_DOUBLING_GUARD}"
                )
            chi2[1 << k] = _chi_squared(held[k], pi)
            for i in unbracketed:
                if _settles(conditions[i], chi2, 1 << k, 1 << k):
                    brackets[i] = k
            unbracketed = [i for i in unbracketed if i not in brackets]
            if not unbracketed:
                break
            top = self.square(k)
            epsilons.append(float(np.diag(top).max()))
            for i in unbracketed:
                if conditions[i].holds(top):
                    brackets[i] = k
            unbracketed = [i for i in unbracketed if i not in brackets]
            # no lift reads the last top
            if unbracketed:
                if not _checkpoint(k):
                    self.give(held.pop(k))
                held[k + 1] = top
            else:
                self.give(top)
            k += 1

        self.lows = {i: 1 << k for i, k in brackets.items()}
        self.failing = {i: held.get(k) for i, k in brackets.items()}
        # the lifts' buffer of _LIFT_ROWS rows, made once the doubling is done
        self.buffer = np.empty((min(_LIFT_ROWS, self.chain.n), self.chain.n))
        # bits 3 and up, every condition at once, and bit 2 if P^4 is then in hand
        low_bit = 3
        for j in reversed(range(2, max(brackets.values(), default=0))):
            if j == 2:
                if 2 not in held:
                    break
                low_bit = 2
            self.release(j + 1)
            for i, k in brackets.items():
                if j < k:
                    self.lift(i, j)
        # the end game, one condition at a time, the one bracketed last first: a
        # failing power made from P leaves P^4 in hand for a lift at bit 2, and
        # the candidates below the lowest bit lifted are walked by P
        for i in sorted(brackets, key=brackets.get, reverse=True):
            k, bit = brackets[i], low_bit
            self.release(0)
            if k:
                self.failing_power(i)
            if bit == 3 and k > 2 and 2 in held:
                self.lift(i, 2)
                bit = 2
            self.release(0)
            last = (1 << min(k, bit)) - 1
            for candidate in range(1, last + 1):
                if self.lift(i, 0, whole=candidate < last):
                    break
            power = self.failing.pop(i)
            if power is not None:
                self.give(power)
        for i, low in self.lows.items():
            times[i] = low + 1
        if times and max(times).bit_length() > len(epsilons):
            epsilons.append(float(np.diag(self.level(len(epsilons))).max()))
        return times, tuple(epsilons)

    def take(self) -> np.ndarray:
        """An n x n array off the free list, allocated only when the list is empty."""
        return self.free.pop() if self.free else np.empty((self.chain.n, self.chain.n))

    def give(self, power: np.ndarray) -> None:
        """Put power on the free list unless a level or a failing power holds it."""
        holders = [*self.held.values(), *self.failing.values()]
        if not any(power is other for other in holders):
            self.free.append(power)

    def square(self, k: int) -> np.ndarray:
        """P^(2^(k+1)) from level k, written into an array of the search's own."""
        power = self.held[k]
        return _checked_product(power, power, 2 << k, out=self.take())

    def level(self, j: int) -> np.ndarray:
        """P^(2^j), squared up from the nearest level held below it, or from P
        made from the weights; the square it was made from stays in hand."""
        held = self.held
        if j not in held:
            base = max((m for m in held if m < j), default=None)
            if base is None:
                base = 0
                held[0] = _transition(self.chain.weights, out=self.take())
            for m in range(base + 1, j + 1):
                if m - 2 >= base and not _checkpoint(m - 2):
                    self.give(held.pop(m - 2))
                held[m] = self.square(m - 1)
        return held[j]

    def release(self, bottom: int) -> None:
        """Drop the levels from bottom up but the checkpoints below a failing
        power still to be made; a held level that is one becomes it."""
        held, failing, brackets = self.held, self.failing, self.brackets
        for i, power in failing.items():
            if power is None and brackets[i] in held:
                failing[i] = held[brackets[i]]
        top = max((brackets[i] for i, power in failing.items() if power is None), default=-1)
        for j in [j for j in held if j >= bottom and not (_checkpoint(j) and j < top)]:
            self.give(held.pop(j))

    def failing_power(self, i: int) -> np.ndarray:
        """Condition i's failing power, made from the ladder when first read."""
        if self.failing[i] is None:
            self.level(self.brackets[i])
            self.release(self.brackets[i])
        return self.failing[i]

    def lift(self, i: int, j: int, whole: bool = True) -> bool:
        """True when condition i holds at lows[i] + 2^j; else lift its failing
        power by P^(2^j).  At bits 2 and up a certificate may settle it."""
        condition, failing, chi2 = self.conditions[i], self.failing, self.chi2
        low, step = self.lows[i], 1 << j
        if j >= 2:
            # an unlifted low is a time the doubling reached, so a missing one
            # has its power in hand
            if low not in chi2:
                chi2[low] = _chi_squared(failing[i], self.chain.pi)
            if _settles(condition, chi2, low, step):
                return True
        power = self.failing_power(i)
        others = [*self.held.values(), *(failing[m] for m in failing if m != i)]
        take = self.take if any(power is other for other in others) else None
        lifted = _lift(power, self.level(j), low + step, condition.holds, self.buffer, take, whole)
        if lifted is None:
            return True
        self.lows[i] += step
        # a last candidate that fails returns its first failing block, a view
        # of the buffer that nothing reads: the failing power keeps its array
        if whole:
            failing[i] = lifted
        return False


def lmix(chain: LazyChain) -> int | float:
    """First time every p_t(i, j) strictly exceeds (3/4) pi(j).

    Returns math.inf when the weight function is disconnected.  The strict
    comparison is applied to the ratio p_t(i, j) / pi(j) with the tie guard,
    so a ratio within the guard of 3/4 does not count as exceeding it.
    """
    if not chain.connected:
        return math.inf
    return _Search(chain, (_mixes(chain),)).run()[0][0]


def _delta_result(epsilons: tuple[float, ...], lmix_value: int) -> tuple[float, tuple[float, ...]]:
    """(delta, eps_k for 0 <= k <= floor(log2 lmix)), 1 / delta = prod_k (1 + eps_k)."""
    epsilons = epsilons[: lmix_value.bit_length()]
    inverse = 1.0
    for eps in epsilons:
        inverse *= 1.0 + eps
    return 1.0 / inverse, epsilons


class ClauseDiagnostics(NamedTuple):
    edge_degree_ratio_sq: float
    regular: bool
    half_inverse_lmix: float


def is_regular(w: WeightFunction) -> bool:
    """True when all positive weights are equal and all vertex weights agree."""
    if not w.weights.size:
        return False
    wmin, wmax = float(w.weights.min()), float(w.weights.max())
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
    bound; no universal constant is folded in.  It is formed from the
    mantissas of min_i w_i and w_tot, so (min_i w_i)^2 cannot underflow where
    the bound is representable; a bound below the normal float range raises
    CapError.  For disconnected w, delta and the theorem bound are None.
    """
    chain = lazy_chain(w)
    if not chain.connected:
        return MixingReport(
            lmix=math.inf,
            mix=math.inf,
            delta=None,
            epsilons=(),
            clause_bounds=_clause_diagnostics(w, math.inf),
            theorem_bound=None,
        )
    (lm, mix), epsilons = _Search(chain, (_mixes(chain), _tv_mixes(chain))).run()
    delta, epsilons = _delta_result(epsilons, lm)
    m_min, e_min = math.frexp(float(w.vertex_weights.min()))
    m_tot, e_tot = math.frexp(w.total_weight)
    bound = math.ldexp((delta / lm) * (m_min * m_min) / m_tot, 2 * e_min - e_tot)
    if not bound >= np.finfo(float).tiny:
        ratio = math.ldexp(m_min / m_tot, e_min - e_tot)
        raise CapError(f"theorem bound below the float range: min_i w_i / w_tot = {ratio:.3g}")
    return MixingReport(
        lmix=lm,
        mix=mix,
        delta=delta,
        epsilons=epsilons,
        clause_bounds=_clause_diagnostics(w, lm),
        theorem_bound=bound,
    )


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
    (bound - p_t) over 1 <= t <= lmix; the bounds hold iff it is >= 0.

    The slacks are the exact minima over every t, found by branch and bound
    rather than one product per step.  For t >= a, Chapman-Kolmogorov gives
    p_t(i, j) = sum_k p_(t-a)(i, k) p_a(k, j) <= max P^a, so for every t
    strictly inside (a, b) the slack is at least
    30 min_i(w_i / min* w) / sqrt(b - 1) - max P^a, and the regular slack at
    least 30 / (b - 1)^(1/4) - max P^a.  The slack is evaluated exactly at
    t = 1 and t = lmix; an interval is dropped once both lower bounds reach
    the worst slacks found so far, and is otherwise split at its midpoint,
    where the slack is evaluated exactly from the dyadic powers.  Only max P^a
    is kept of each evaluated power.  w must be the chain's own weight function.
    """
    if w != chain.weights:
        raise ParameterError("the probability bounds need the chain's own weight function")
    lm = lmix(chain)
    if math.isinf(lm):
        raise DisconnectedError("probability bounds apply to connected weights only")
    lm = int(lm)
    ratio = w.vertex_weights / w.min_positive_weight()
    ratio_min = float(ratio.min())
    regular = is_regular(w)
    worst = math.inf
    worst_regular = math.inf

    def evaluate(t: int) -> float:
        """Fold the exact slacks at t into the worst ones; return max P^t."""
        nonlocal worst, worst_regular
        power = chain.power(t)
        peak = float(power.max())
        # fl(x - y) is monotone in y, so subtracting the row maxima gives the
        # same minimum as subtracting every entry
        worst = min(worst, float(
            ((_PROBABILITY_CONSTANT / math.sqrt(t)) * ratio - power.max(axis=1)).min()
        ))
        if regular:
            worst_regular = min(worst_regular, _PROBABILITY_CONSTANT / t**0.25 - peak)
        return peak

    stack = [(1, lm, evaluate(1))]
    if lm > 1:
        evaluate(lm)
    while stack:
        a, b, peak_a = stack.pop()
        if b - a < 2:
            continue
        bound_ok = _PROBABILITY_CONSTANT * ratio_min / math.sqrt(b - 1) - peak_a >= worst
        if bound_ok and regular:
            bound_ok = _PROBABILITY_CONSTANT / (b - 1) ** 0.25 - peak_a >= worst_regular
        if bound_ok:
            continue
        mid = (a + b) // 2
        stack.append((mid, b, evaluate(mid)))
        stack.append((a, mid, peak_a))
    return BoundCheckReport(
        lmix=lm,
        holds=worst >= 0.0,
        worst_slack=worst,
        regular=regular,
        regular_holds=(worst_regular >= 0.0) if regular else None,
        regular_worst_slack=worst_regular if regular else None,
    )
