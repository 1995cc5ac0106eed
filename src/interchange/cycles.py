"""Cycle statistics of the interchange process: exact formulas and Monte Carlo.

The expected number of k-cycles at time t has a closed spectral form
    E(s_k(t)) = (1/k) sum_rho a_rho sum_j exp(-t lambda_j(w, rho)),
where the coefficients a_rho take values in {-1, 0, +1} and are supported on
the trivial partition [n] (coefficient +1) together with two families of
hook-augmented two-row partitions:

* [k-i-1, n-k+1, 1^i] for i in {0, ..., 2k-n-2}, coefficient (-1)^(i+1),
* [n-k, k-i, 1^i] for i in {max(2k-n, 0), ..., k-1}, coefficient (-1)^i.

family_members is the one table of the two families: each member with its
partition, sign and closed forms for the complete graph eigenvalue and the
dimension, which the suite checks against the content sum and hook length
routes.  cycle_coefficients, the suite and the tests read it.  Every route
that takes k checks it with check_cycle_lengths: an integer (not a bool)
with 1 <= k <= n.  Both exact routes take exp(-t lambda) from
group_algebra.generator_decays, which refuses a generator eigenvalue that
rounding left below 0 once t would blow it up.  Each exact route decides its
own reach and says so by CapError: expected_cycles_by_k past graphs'
IRREP_MAX_N, checked before it loads irreps, and exact_cycles_by_k past
EXACT_SEMIGROUP_MAX_N.  A caller asks the routes rather than reading their caps.

Every Monte Carlo estimator here (and in qhf and acceptance) is a reduction
over cycle_count_blocks, which simulates trajectories MC_BLOCK at a time by
uniformization: with R = sum_{i<j} w_ij, each trajectory's event count is
Poisson(R t) and each event swaps the marbles on an edge drawn with
probability w_ij / R, which is the law of the process with independent
Poisson clocks.  Block b draws from Philox keyed by (seed, b), so a block's
counts depend only on the seed, its index and its size, never on how many
blocks are run or in what order.  Its trajectories stay in draw order, one
row each, and a row past its event count swaps a position with itself, in
place.  Edges are picked from a guide table (indexed search: Chen and Asau,
AIIE Trans. 1974; Devroye, Non-Uniform Random Variate Generation, 1986,
III.2.4), built once per call: a power-of-two number of cells, each whole
cell naming its edge's ends outright, with a binary search only for draws in
the few cells that a cumulative probability splits.
Every pick equals the binary search's, so the streams are those of the plain
searchsorted engine.  simulate_interchange runs one trajectory literally
(exponential waiting times, one event at a time) and is kept as the
reference oracle the tests compare the engine against; it runs the
engine's argument check once, and trajectory i draws from Philox keyed by
(seed, i).  Sample counts, seeds and indices must be Python or numpy
integers: a float or a bool raises ParameterError.  exact_mean is the
counterpart of mc_per_sample for n <= 5, with exact probabilities in place
of trajectories.  Every route here counts cycles with cycle_counts_batch.
The Monte Carlo half (the engine, the estimators and the simulator) and
oracle_t_grid stand on graphs alone; the exact routes import irreps and
group_algebra when run.
"""

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapError, ConsistencyError, DisconnectedError, ParameterError
from .graphs import (
    MAX_SEED,
    WeightFunction,
    check_integer,
    check_irrep_reach,
    check_one_time,
    check_time,
)


@dataclass(frozen=True)
class CycleFormula:
    """Signed partition support of the expected k-cycle count formula."""

    n: int
    k: int
    terms: tuple[tuple[tuple[int, ...], int], ...]


class FamilyMember(NamedTuple):
    """Member i of a hook-augmented family, with its closed forms."""

    family: str  # "first" or "second"
    i: int
    partition: tuple[int, ...]
    sign: int  # its coefficient a_rho
    eigenvalue: int  # of the complete graph's generator on the partition
    dim: int


def check_cycle_lengths(ks: Iterable[int], n: int) -> list[int]:
    """ks as a list, each an integer k (not a bool) with 1 <= k <= n."""
    ks = list(ks)
    for k in ks:
        check_integer(k, "k")
        if not 1 <= k <= n:
            raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    return ks


def family_members(n: int, k: int) -> list[FamilyMember]:
    """Both families for k-cycles among n marbles, first family first, i ascending.

    Both share the complete graph eigenvalue
        lambda = C(n, 2) + i k + k - ((n-k)^2 + k^2 - n) / 2,
    and their dimensions are
        first:  n! (2k - n - i - 1) / (i! k (n-k)! (k-i-1)! (n-k+i+1)),
        second: n! (n - 2k + i + 1) / (i! k (n-k)! (k-i-1)! (n-k+i+1)).
    Index ranges are taken literally: a malformed partition or a dimension
    that is not an integer raises ConsistencyError rather than being dropped.
    """
    from .irreps import validate_partition

    check_cycle_lengths((k,), n)
    # (family, i, its first two parts, sign, the dimension's numerator factor)
    rows = [("first", i, (k - i - 1, n - k + 1), (-1) ** (i + 1), 2 * k - n - i - 1)
            for i in range(0, 2 * k - n - 1)]
    rows += [("second", i, (n - k, k - i), (-1) ** i, n - 2 * k + i + 1)
             for i in range(max(2 * k - n, 0), k)]
    half = ((n - k) ** 2 + k * k - n) // 2  # (n-k)^2 + k^2 - n is even
    members = []
    for family, i, head, sign, factor in rows:
        parts = head + (1,) * i
        try:
            partition = validate_partition(parts, n)
        except ParameterError as exc:
            raise ConsistencyError(
                f"index table produced invalid partition {parts} "
                f"(n={n}, k={k}, i={i}, family={family})"
            ) from exc
        dim, remainder = divmod(
            math.factorial(n) * factor,
            math.factorial(i) * k * math.factorial(n - k) * math.factorial(k - i - 1)
            * (n - k + i + 1),
        )
        if remainder != 0:
            raise ConsistencyError(
                f"dimension formula not integral at n={n}, k={k}, i={i}, family={family}"
            )
        eigenvalue = n * (n - 1) // 2 + i * k + k - half
        members.append(FamilyMember(family, i, partition, sign, eigenvalue, dim))
    return members


def cycle_coefficients(n: int, k: int) -> CycleFormula:
    """The a_rho table for counting k-cycles among n marbles.

    [n] with coefficient +1, then each of family_members(n, k) with its sign.
    A partition in both families would raise ConsistencyError rather than
    merge the terms.
    """
    terms = (((n,), 1),) + tuple((m.partition, m.sign) for m in family_members(n, k))
    if len({p for p, _ in terms}) < len(terms):
        raise ConsistencyError(f"duplicate partition in the coefficient table of n={n}, k={k}")
    return CycleFormula(n=n, k=k, terms=terms)


def coefficient_dimension_sum(n: int, k: int) -> int:
    """sum over the table of a_rho * dim(rho); zero for every k >= 2."""
    from .irreps import hook_dim

    return sum(a * hook_dim(p) for p, a in cycle_coefficients(n, k).terms)


def expected_cycles_spectral(w: WeightFunction, k: int, t):
    """E(s_k(t)) by the spectral formula.  t may be a scalar or an array.

    Kept only because perfbench/ imports it by name.
    """
    return expected_cycles_by_k(w, (k,), t)[k]


def expected_cycles_by_k(w: WeightFunction, ks: Iterable[int], t) -> dict[int, float | np.ndarray]:
    """E(s_k(t)) by the spectral formula for each k in ks, keyed by k.

    t may be a scalar or an array.  The blocks that the formulas of all ks
    read are solved together, each once.  Past the reach of the irreducible
    blocks it raises CapError once t and ks pass, before it loads irreps.
    """
    t_arr = check_time(t)
    ks = check_cycle_lengths(ks, w.n)
    check_irrep_reach(w.n)
    from .group_algebra import generator_decays
    from .irreps import _weight_spectra

    formulas = {k: cycle_coefficients(w.n, k).terms for k in ks}
    targets = dict.fromkeys(p for terms in formulas.values() for p, _ in terms)
    spectra = _weight_spectra(w, list(targets))
    decays = {
        p: generator_decays(spectrum.eigenvalues, t_arr, w).sum(axis=-1)
        for p, spectrum in spectra.items()
    }
    results = {}
    for k, terms in formulas.items():
        total = np.zeros_like(t_arr)
        for p, a in terms:
            total = total + a * decays[p]
        result = total / k
        results[k] = float(result) if np.isscalar(t) or t_arr.ndim == 0 else result
    return results


MC_BLOCK = 512  # trajectories per block; fixed, because it keys the streams
MC_DEFAULT_SAMPLES = 100_000  # when a Monte Carlo run names no sample count
MC_MAX_SAMPLES = 10_000_000
MC_MAX_EVENTS = 100_000_000  # expected swap events, summed over trajectories
_STEP_CHUNK = 32  # event steps whose edge picks are drawn together
_GUIDE_MIN_CELLS = 1 << 12
_GUIDE_MAX_CELLS = 1 << 20
_GUIDE_CELLS_PER_EDGE = 4


def _check_run(mean_events: float, samples: int, seed: int, index: int = 0) -> None:
    """Refuse a run before it draws: a bool or non-integer argument, or one out of range."""
    for name, value in (("samples", samples), ("seed", seed), ("trajectory index", index)):
        check_integer(value, name)
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    if samples > MC_MAX_SAMPLES:
        raise CapError(f"Monte Carlo capped at {MC_MAX_SAMPLES} samples, got {samples}")
    if not 0 <= seed <= MAX_SEED:
        raise ParameterError(f"seed must be in [0, 2**64 - 1], got {seed}")
    if not 0 <= index <= MAX_SEED:
        raise ParameterError(f"trajectory index must be in [0, 2**64 - 1], got {index}")
    if samples * mean_events > MC_MAX_EVENTS:
        raise CapError(
            f"expected {samples * mean_events:.3g} events exceeds the Monte Carlo cap "
            f"of {MC_MAX_EVENTS}; lower the samples or the time"
        )


@dataclass(frozen=True)
class Trajectory:
    """One realized interchange trajectory at a fixed time."""

    weights: WeightFunction
    seed: int
    index: int
    t: float
    final: tuple[int, ...]
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
    t = check_one_time(t)
    edges = list(w.edges())
    rate = float(sum(weight for _, weight in edges))
    _check_run(rate * t, 1, seed, index)
    marbles = list(range(w.n))
    events = 0
    if rate > 0.0 and t > 0.0:
        rng = _philox(seed, index, 0)
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
    [counts] = cycle_counts_batch(np.array([final]))
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

    Pointer doubling on flat positions, point i of row r at r * n + i: after
    r rounds label[x] is the smallest position among the first 2^r iterates
    of x, so once 2^r >= n it names the cycle through x.
    """
    m, n = perms.shape
    label = np.arange(m * n)
    jump = (perms + label[::n, None]).ravel()
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, label[jump])
        jump = jump[jump]
    rows = np.arange(m)[:, None]
    lengths = np.bincount(label, minlength=m * n).reshape(m, n)
    counts = np.bincount(
        (rows * (n + 1) + lengths).ravel(), minlength=m * (n + 1)
    ).reshape(m, n + 1)
    counts[:, 0] = 0  # points that do not name their cycle
    if (counts @ np.arange(n + 1) != n).any():
        raise ConsistencyError("cycle lengths must sum to the number of marbles")
    return counts


# The annotation is a string: numpy loads numpy.random (about 6 MB) on first
# use, which only the Monte Carlo routes need, not an import.
def _philox(seed: int, block: int, region: int) -> "np.random.Generator":
    """Counter region `region` of block `block`'s Philox stream."""
    return np.random.Generator(
        np.random.Philox(
            counter=np.array([0, region, 0, 0], dtype=np.uint64),
            key=np.array([seed, block], dtype=np.uint64),
        )
    )


class _GuideTable(NamedTuple):
    """Edge picks by cell (indexed search): a uniform u lies in cell floor(u * G).

    G, the cell count, is a power of two, so u * G is exact.  A cell is whole
    when no cumulative probability lies strictly inside it: every u there picks
    the same edge, whose ends `first` and `second` hold.  They hold -1 in the
    other (split) cells, whose draws are searched in `scaled`, the cumulative
    probabilities times G.
    """

    first: np.ndarray
    second: np.ndarray
    ends: np.ndarray
    scaled: np.ndarray


def _guide_table(ends: np.ndarray, weights: np.ndarray) -> _GuideTable:
    """Guide table for picking edge i with probability weights[i] / sum(weights).

    About _GUIDE_CELLS_PER_EDGE cells per edge, at least _GUIDE_MIN_CELLS and at
    most _GUIDE_MAX_CELLS.  Endpoints that fit, such as those of every graph
    spec (at most MAX_VERTICES vertices), are stored as int16: the largest
    such table takes 4 MB.
    """
    cumulative = np.cumsum(weights)
    # ends at exactly 1, so every uniform draw in [0, 1) picks an edge
    cumulative /= cumulative[-1]
    cells = 1 << (_GUIDE_CELLS_PER_EDGE * len(weights) - 1).bit_length()
    cells = min(max(cells, _GUIDE_MIN_CELLS), _GUIDE_MAX_CELLS)
    scaled = cumulative * cells  # exact
    # Cell c picks edge #{i : scaled[i] <= c} = #{i : ceil(scaled[i]) <= c},
    # so edge e fills the cells from ceil(scaled[e - 1]) up to ceil(scaled[e]).
    bounds = np.ceil(scaled)
    widths = np.diff(bounds, prepend=0.0).astype(np.intp)
    dtype = np.int16 if ends.max() < 2**15 else np.intp
    first, second = (np.repeat(end.astype(dtype), widths) for end in ends)
    split = bounds[bounds != scaled].astype(np.intp) - 1
    first[split] = second[split] = -1
    return _GuideTable(first, second, ends, scaled)


def _pick_ends(guide: _GuideTable, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both ends of the edge each uniform in u picks.

    That edge is searchsorted(cumulative, u, side="right"), as in
    simulate_interchange: looked up by cell, searched in a split cell.
    """
    scaled = u * len(guide.first)
    cells = scaled.astype(np.intp)
    first = guide.first.take(cells)
    second = guide.second.take(cells)
    split = first < 0
    if split.any():
        picks = np.searchsorted(guide.scaled, scaled[split], side="right")
        first[split] = guide.ends[0].take(picks)
        second[split] = guide.ends[1].take(picks)
    return first, second


def _block_counts(
    n: int, guide: _GuideTable | None, mean_events: float,
    seed: int, block: int, m: int,
) -> np.ndarray:
    """Cycle counts of trajectories block * MC_BLOCK + r for r < m.

    Region 0 of the block's stream holds the Poisson event counts, and region
    c + 1 an (m, _STEP_CHUNK) array of uniforms that pick the edges of event
    steps c * _STEP_CHUNK onwards, one row per trajectory.  Both are drawn
    trajectory by trajectory, so trajectory r gets the same draws whatever m
    is.  Row r of perms is trajectory r throughout: at each step past its
    event count it swaps its edge's first end with itself, in place.
    """
    perms = np.tile(np.arange(n), (m, 1))
    flat = perms.reshape(-1)
    offsets = np.arange(0, m * n, n)  # flat position of each row's point 0
    events = _philox(seed, block, 0).poisson(mean_events, m)
    fewest, last = int(events.min()), int(events.max())
    for chunk, start in enumerate(range(0, last, _STEP_CHUNK)):
        steps = np.arange(start, min(start + _STEP_CHUNK, last))
        u = _philox(seed, block, chunk + 1).random((m, _STEP_CHUNK))
        first, second = _pick_ends(guide, u.T[: len(steps)])
        del u  # the full draw, so it is freed before the next chunk's
        first = first + offsets  # flat positions, one row per step
        second = second + offsets
        if steps[-1] >= fewest:  # some row stops swapping in this chunk
            np.copyto(second, first, where=events <= steps[:, None])
        for a, b in zip(first, second):
            flat[a], flat[b] = flat[b], flat[a]
    return cycle_counts_batch(perms)


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
    t = check_one_time(t)
    mean_events = float(w.weights.sum()) * t if t > 0 else 0.0
    _check_run(mean_events, samples, seed)
    samples = int(samples)  # a numpy uint64 would turn the row offsets into floats
    guide = _guide_table(w.ends, w.weights) if w.weights.size else None
    return (
        _block_counts(w.n, guide, mean_events, seed, block,
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


def mean_stderr(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each column; one sample reports an error of 0."""
    means = values.mean(axis=0)
    if len(values) == 1:
        return means, np.zeros_like(means)
    return means, values.std(axis=0, ddof=1) / math.sqrt(len(values))


def expected_cycles_mc(
    w: WeightFunction, ks: Iterable[int], t: float, samples: int, seed: int = 0
) -> dict[int, tuple[float, float]]:
    """E(s_k(t)) with its Monte Carlo standard error for each k in ks, keyed by k.

    Every k is read off the same trajectories.
    """
    ks = check_cycle_lengths(ks, w.n)
    means, stderrs = mean_stderr(mc_per_sample(w, t, samples, seed, lambda c: c[:, ks]))
    return {k: (float(means[c]), float(stderrs[c])) for c, k in enumerate(ks)}


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


def exact_mean(w: WeightFunction, t, reduce: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Exact mean of reduce(counts) at time t, n <= 5: mc_per_sample's counterpart.

    reduce maps the (n!, n+1) cycle counts to one row per permutation.  The
    rows are weighted by the exact probabilities of one solve and added in
    permutation order (a cumulative sum, the order of a plain loop), so a
    scalar t gets the loop's values bit for bit.  An array of times adds a
    leading axis.
    """
    from .group_algebra import InterchangeExact

    process = InterchangeExact(w)
    values = reduce(cycle_counts_batch(np.array(process.permutations)))
    distribution = process.distribution(t)
    return np.cumsum(distribution[..., None] * values, axis=-2)[..., -1, :]


def exact_cycles_by_k(w: WeightFunction, ks: Iterable[int], t) -> dict[int, float | np.ndarray]:
    """E(s_k(t)) by exact_mean (n <= 5) for each k in ks, keyed by k; t may be an array."""
    ks = check_cycle_lengths(ks, w.n)
    totals = np.moveaxis(exact_mean(w, t, lambda counts: counts[:, ks]), -1, 0)
    return {k: float(total) if total.ndim == 0 else total for k, total in zip(ks, totals)}


def oracle_t_grid(w: WeightFunction) -> np.ndarray:
    """Times {0, 0.01, 0.1, 0.5, 1, 5} divided by the spectral gap of w.

    The gap is lambda_2 of the weighted Laplacian L_w = diag(w_i) - W, which is
    the generator's [n-1, 1] block on the vectors summing to zero.  A
    disconnected w raises DisconnectedError, and a gap not above eigvalsh's
    absolute error bound n u lambda_max(L_w), u = 2^-53, CapError naming both.
    """
    if not w.is_connected():
        raise DisconnectedError("the t grid needs a connected weight function")
    eigenvalues = np.linalg.eigvalsh(np.diag(w.vertex_weights) - w.dense())
    gap, bound = eigenvalues[1], w.n * 2.0**-53 * eigenvalues[-1]
    if not gap > bound:
        raise CapError(f"Laplacian gap {gap:.3g} is not above eigvalsh's error bound {bound:.3g}")
    return np.array([0.0, 0.01, 0.1, 0.5, 1.0, 5.0]) / gap
