"""Cycle statistics of the interchange process: exact formulas and Monte Carlo.

The expected number of k-cycles at time t has a closed spectral form
    E(s_k(t)) = (1/k) sum_rho a_rho sum_j exp(-t lambda_j(w, rho)),
where the coefficients a_rho take values in {-1, 0, +1} and are supported on
the trivial partition [n] (coefficient +1) together with two families of
hook-augmented two-row partitions:

* [k-i-1, n-k+1, 1^i] for i in {0, ..., 2k-n-2}, coefficient (-1)^(i+1),
* [n-k, k-i, 1^i] for i in {max(2k-n, 0), ..., k-1}, coefficient (-1)^i.

The same partitions admit closed forms for the complete graph eigenvalue and
the dimension, which this module exposes and cross-checks against the content
sum and hook length routes.

Every Monte Carlo estimator here (and in qhf and acceptance) is a reduction
over cycle_count_blocks, which simulates trajectories MC_BLOCK at a time by
uniformization: with R = sum_{i<j} w_ij, each trajectory's event count is
Poisson(R t) and each event swaps the marbles on an edge drawn with
probability w_ij / R, which is the law of the process with independent
Poisson clocks.  Block b draws from Philox keyed by (seed, b), so a block's
counts depend only on the seed, its index and its size, never on how many
blocks are run or in what order.  simulate_interchange runs one trajectory
literally (exponential waiting times, one event at a time) and is kept as
the reference oracle the tests compare the engine against.
"""

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CapError, ConsistencyError, ParameterError
from .graphs import WeightFunction
from .group_algebra import InterchangeExact, Perm, cycle_counts, identity_perm
from .irreps import (
    IRREP_MAX_N,
    Partition,
    delta_on_irrep,
    hook_dim,
    lambda_kn,
    standard_partition,
    validate_partition,
)

_BRUTE_FORCE_MAX_N = 5


@dataclass(frozen=True)
class CycleFormula:
    """Signed partition support of the expected k-cycle count formula."""

    n: int
    k: int
    terms: tuple[tuple[Partition, int], ...]

    def coefficient(self, p: Partition) -> int:
        for partition, a in self.terms:
            if partition == p:
                return a
        return 0


def _family_partition(n: int, k: int, i: int, family: str) -> Partition:
    if family == "first":
        parts = (k - i - 1, n - k + 1) + (1,) * i
    elif family == "second":
        parts = (n - k, k - i) + (1,) * i
    else:
        raise ParameterError(f"unknown family {family!r} (expected 'first' or 'second')")
    try:
        return validate_partition(parts, n)
    except ParameterError as exc:
        raise ConsistencyError(
            f"index table produced invalid partition {parts} "
            f"(n={n}, k={k}, i={i}, family={family})"
        ) from exc


def first_family_range(n: int, k: int) -> range:
    return range(0, 2 * k - n - 1)


def second_family_range(n: int, k: int) -> range:
    return range(max(2 * k - n, 0), k)


def cycle_coefficients(n: int, k: int) -> CycleFormula:
    """The a_rho table for counting k-cycles among n marbles.

    Index ranges are taken literally; if a range ever emitted a malformed
    partition this would raise ConsistencyError rather than dropping the
    term.  Duplicate partitions across families would likewise be an error.
    """
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    terms: list[tuple[Partition, int]] = [((n,), 1)]
    seen = {(n,)}
    for i in first_family_range(n, k):
        p = _family_partition(n, k, i, "first")
        if p in seen:
            raise ConsistencyError(f"duplicate partition {p} in coefficient table")
        seen.add(p)
        terms.append((p, (-1) ** (i + 1)))
    for i in second_family_range(n, k):
        p = _family_partition(n, k, i, "second")
        if p in seen:
            raise ConsistencyError(f"duplicate partition {p} in coefficient table")
        seen.add(p)
        terms.append((p, (-1) ** i))
    return CycleFormula(n=n, k=k, terms=tuple(terms))


def coefficient_dimension_sum(n: int, k: int) -> int:
    """sum over the table of a_rho * dim(rho); zero for every k >= 2."""
    return sum(a * hook_dim(p) for p, a in cycle_coefficients(n, k).terms)


def expected_cycles_spectral(w: WeightFunction, k: int, t):
    """E(s_k(t)) by the spectral formula.  t may be a scalar or an array."""
    if w.n > IRREP_MAX_N:
        raise CapError(f"spectral route capped at n <= {IRREP_MAX_N}")
    t_arr = np.asarray(t, dtype=float)
    if (t_arr < 0).any():
        raise ParameterError("time must be >= 0")
    total = np.zeros_like(t_arr)
    for p, a in cycle_coefficients(w.n, k).terms:
        eigenvalues = delta_on_irrep(w, p).eigenvalues
        total = total + a * np.exp(-t_arr[..., None] * eigenvalues).sum(axis=-1)
    result = total / k
    return float(result) if np.isscalar(t) or t_arr.ndim == 0 else result


def family_lambda_dim(n: int, k: int, i: int, family: str) -> tuple[int, int]:
    """Closed-form (complete graph eigenvalue, dimension) for a family member.

    Both families share
        lambda = C(n, 2) + i k + k - ((n-k)^2 + k^2 - n) / 2,
    and their dimensions are
        first:  n! (2k - n - i - 1) / (i! k (n-k)! (k-i-1)! (n-k+i+1)),
        second: n! (n - 2k + i + 1) / (i! k (n-k)! (k-i-1)! (n-k+i+1)).
    """
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if family == "first":
        valid = first_family_range(n, k)
        numerator = math.factorial(n) * (2 * k - n - i - 1)
    elif family == "second":
        valid = second_family_range(n, k)
        numerator = math.factorial(n) * (n - 2 * k + i + 1)
    else:
        raise ParameterError(f"unknown family {family!r} (expected 'first' or 'second')")
    if i not in valid:
        raise ParameterError(
            f"index i={i} outside {family} family range {valid} for n={n}, k={k}"
        )
    half, parity = divmod((n - k) ** 2 + k * k - n, 2)
    assert parity == 0, "eigenvalue formula must be integral"
    lam = n * (n - 1) // 2 + i * k + k - half
    denominator = (
        math.factorial(i)
        * k
        * math.factorial(n - k)
        * math.factorial(k - i - 1)
        * (n - k + i + 1)
    )
    dim, remainder = divmod(numerator, denominator)
    if remainder != 0:
        raise ConsistencyError(
            f"dimension formula not integral at n={n}, k={k}, i={i}, family={family}"
        )
    return lam, dim


MC_BLOCK = 512  # trajectories per block; fixed, because it keys the streams
MC_MAX_SAMPLES = 10_000_000
MC_MAX_EVENTS = 100_000_000  # expected swap events, summed over trajectories
MAX_SEED = 2**64 - 1  # the seed keys a uint64 Philox counter
_STEP_CHUNK = 32  # event steps whose edge picks are drawn together


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ParameterError(f"time must be finite and >= 0, got {t}")


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one trajectory of the reference simulator."""
    if seed < 0 or index < 0:
        raise ParameterError("seed and trajectory index must be nonnegative")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


@dataclass(frozen=True)
class Trajectory:
    """One realized interchange trajectory at a fixed time."""

    weights: WeightFunction
    seed: int
    index: int
    t: float
    final: Perm
    events: int
    counts: np.ndarray  # counts[k] = number of k-cycles, index 0 unused

    def __post_init__(self):
        total = sum(k * int(self.counts[k]) for k in range(1, self.weights.n + 1))
        if total != self.weights.n:
            raise ConsistencyError("cycle lengths must sum to the number of marbles")


def simulate_interchange(
    w: WeightFunction, t: float, seed: int = 0, index: int = 0
) -> Trajectory:
    """Run the process to time t one event at a time: the reference oracle.

    Zero total weight is not an error: no clock ever rings and the identity
    is returned.
    """
    _check_time(t)
    rng = trajectory_rng(seed, index)
    edges = list(w.edges())
    rate = float(sum(weight for _, weight in edges))
    if rate * t > MC_MAX_EVENTS:
        raise CapError(
            f"expected {rate * t:.3g} events exceeds the cap of {MC_MAX_EVENTS} per run"
        )
    marbles = list(range(w.n))
    events = 0
    if rate > 0.0 and t > 0.0:
        cumulative = np.cumsum([weight for _, weight in edges])
        cumulative /= cumulative[-1]
        elapsed = 0.0
        while True:
            block = min(max(16, int(rate * (t - elapsed)) + 16), 1 << 16)
            gaps = rng.exponential(scale=1.0 / rate, size=block)
            times = elapsed + np.cumsum(gaps)
            rung = int(np.searchsorted(times, t, side="right"))
            chosen = np.minimum(
                np.searchsorted(cumulative, rng.random(rung), side="right"),
                len(edges) - 1,
            )
            for e in chosen:
                (i, j), _ = edges[e]
                marbles[i], marbles[j] = marbles[j], marbles[i]
            events += rung
            if rung < block:
                break
            elapsed = float(times[-1])
    final = tuple(marbles)
    counts = cycle_counts(final)
    counts.setflags(write=False)
    return Trajectory(
        weights=w,
        seed=seed,
        index=index,
        t=float(t),
        final=final,
        events=events,
        counts=counts,
    )


def cycle_counts_batch(perms: np.ndarray) -> np.ndarray:
    """Cycle counts (m, n+1) of each row of an (m, n) array of permutations.

    Pointer doubling: after r rounds label[i] is the smallest point among the
    first 2^r iterates of i, so once 2^r >= n it names the cycle through i.
    """
    m, n = perms.shape
    label = np.tile(np.arange(n), (m, 1))
    jump = perms
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, np.take_along_axis(label, jump, axis=1))
        jump = np.take_along_axis(jump, jump, axis=1)
    rows = np.arange(m)[:, None]
    lengths = np.bincount((rows * n + label).ravel(), minlength=m * n).reshape(m, n)
    counts = np.bincount(
        (rows * (n + 1) + lengths).ravel(), minlength=m * (n + 1)
    ).reshape(m, n + 1)
    counts[:, 0] = 0  # points that do not name their cycle
    if (counts @ np.arange(n + 1) != n).any():
        raise ConsistencyError("cycle lengths must sum to the number of marbles")
    return counts


def _philox(seed: int, block: int, region: int) -> np.random.Generator:
    """Counter region `region` of block `block`'s Philox stream."""
    return np.random.Generator(
        np.random.Philox(
            counter=np.array([0, region, 0, 0], dtype=np.uint64),
            key=np.array([seed, block], dtype=np.uint64),
        )
    )


def _swap_steps(
    perms: np.ndarray, ends: np.ndarray, cumulative: np.ndarray,
    u: np.ndarray, active: list[int],
) -> None:
    """Apply event steps to perms: at step j its first active[j] rows swap.

    Row r swaps at step j the ends of the edge whose cumulative-probability
    interval holds the uniform draw u[r, j].
    """
    picks = np.searchsorted(cumulative, u, side="right").T
    offsets = np.arange(len(u)) * perms.shape[1]
    first = ends[0].take(picks) + offsets  # flat positions, one row per step
    second = ends[1].take(picks) + offsets
    flat = perms.reshape(-1)
    for j, rows in enumerate(active):
        a, b = first[j, :rows], second[j, :rows]
        flat[a], flat[b] = flat[b], flat[a]


def _block_counts(
    n: int, ends: np.ndarray, cumulative: np.ndarray, mean_events: float,
    seed: int, block: int, m: int,
) -> np.ndarray:
    """Cycle counts of trajectories block * MC_BLOCK + r for r < m.

    Region 0 of the block's stream holds the Poisson event counts, and region
    c + 1 an (m, _STEP_CHUNK) array of uniforms that pick the edges of event
    steps c * _STEP_CHUNK onwards, one row per trajectory.  Both are drawn in
    trajectory order, so trajectory r gets the same draws whatever m is.
    """
    perms = np.tile(np.arange(n), (m, 1))
    events = _philox(seed, block, 0).poisson(mean_events, m)
    # Row r of perms holds trajectory order[r]; ranked by event count, the
    # rows still swapping at step s are a prefix.
    order = np.argsort(-events, kind="stable")
    last = int(events.max())
    for chunk, first in enumerate(range(0, last, _STEP_CHUNK)):
        step = np.arange(first, min(first + _STEP_CHUNK, last))
        active = (events[:, None] > step).sum(axis=0).tolist()
        u = _philox(seed, block, chunk + 1).random((m, _STEP_CHUNK))
        u = u[order[: active[0]], : len(active)]  # a copy, so the full draw is freed
        _swap_steps(perms, ends, cumulative, u, active)
    counts = np.empty((m, n + 1), dtype=np.int64)
    counts[order] = cycle_counts_batch(perms)
    return counts


def cycle_count_blocks(
    w: WeightFunction, t: float, samples: int, seed: int = 0
) -> Iterator[np.ndarray]:
    """Cycle counts of `samples` trajectories at time t, one block at a time.

    Yields int arrays of shape (m, n+1): row r of block b holds counts[k],
    the number of k-cycles of trajectory b * MC_BLOCK + r, with m = MC_BLOCK
    except in the last block.  Block b draws from Philox keyed by (seed, b),
    so the first N rows of a run with more samples equal a run with N.
    Arguments are checked when called, before any block is simulated.
    """
    _check_time(t)
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    if samples > MC_MAX_SAMPLES:
        raise CapError(f"Monte Carlo capped at {MC_MAX_SAMPLES} samples, got {samples}")
    if not 0 <= seed <= MAX_SEED:
        raise ParameterError(f"seed must be in [0, 2**64 - 1], got {seed}")
    edges = list(w.edges())
    ends = np.array([pair for pair, _ in edges], dtype=np.intp).reshape(-1, 2).T.copy()
    weights = np.array([weight for _, weight in edges])
    mean_events = float(weights.sum()) * t if t > 0 else 0.0
    if samples * mean_events > MC_MAX_EVENTS:
        raise CapError(
            f"expected {samples * mean_events:.3g} events exceeds the Monte Carlo cap "
            f"of {MC_MAX_EVENTS}; lower the samples or the time"
        )
    cumulative = np.cumsum(weights)
    if edges:
        # ends at exactly 1, so every uniform draw in [0, 1) picks an edge
        cumulative /= cumulative[-1]
    return (
        _block_counts(w.n, ends, cumulative, mean_events, seed, block,
                      min(MC_BLOCK, samples - start))
        for block, start in enumerate(range(0, samples, MC_BLOCK))
    )


def mc_per_sample(
    w: WeightFunction, t: float, samples: int, seed: int,
    reduce: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """reduce(counts) over every block, one value (or row) per trajectory.

    Each block's values are copied into one preallocated array, so no block
    outlives its reduction.
    """
    out = None
    for block, counts in enumerate(cycle_count_blocks(w, t, samples, seed)):
        values = reduce(counts)
        if out is None:
            out = np.empty((samples,) + values.shape[1:], dtype=values.dtype)
        out[block * MC_BLOCK : block * MC_BLOCK + len(values)] = values
    return out


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    samples = len(values)
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return float(values.mean()), stderr


def expected_cycles_mc(
    w: WeightFunction, k: int, t: float, samples: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of E(s_k(t)) with its standard error."""
    if not 1 <= k <= w.n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}")
    return _mean_stderr(mc_per_sample(w, t, samples, seed, lambda c: c[:, k]))


def large_cycle_probability(
    w: WeightFunction, t: float, samples: int, seed: int = 0
) -> tuple[float, float]:
    """MC probability that some cycle is strictly longer than n/2."""
    threshold = w.n // 2
    hits = mc_per_sample(
        w, t, samples, seed, lambda c: c[:, threshold + 1 :].any(axis=1)
    )
    p = int(hits.sum()) / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def large_cycle_mass(
    w: WeightFunction, t: float, samples: int, seed: int = 0
) -> tuple[float, float]:
    """MC estimate of the expected number of cycles with n/2 <= length <= 3n/4."""
    lo = (w.n + 1) // 2
    hi = (3 * w.n) // 4
    return _mean_stderr(
        mc_per_sample(w, t, samples, seed, lambda c: c[:, lo : hi + 1].sum(axis=1))
    )


def exact_cycles_bruteforce(w: WeightFunction, k: int, t: float) -> float:
    """E(s_k(t)) summed over all permutations with exact probabilities."""
    if w.n > _BRUTE_FORCE_MAX_N:
        raise CapError(f"brute force capped at n <= {_BRUTE_FORCE_MAX_N}")
    process = InterchangeExact(w)
    dist = process.distribution(t)
    return float(
        sum(p * cycle_counts(perm)[k] for p, perm in zip(dist, process.permutations))
    )


def oracle_t_grid(w: WeightFunction) -> np.ndarray:
    """Times {0, 0.01, 0.1, 0.5, 1, 5} scaled by the spectral gap of w."""
    gap = delta_on_irrep(w, standard_partition(w.n)).lambda_min
    if gap <= 1e-12:
        raise ParameterError("t grid needs a connected weight function")
    return np.array([0.0, 0.01, 0.1, 0.5, 1.0, 5.0]) / gap
