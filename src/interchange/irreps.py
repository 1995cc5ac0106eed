"""Irreducible representations of the symmetric group in orthogonal form.

Irreducible representations are indexed by partitions of n.  The matrices
here use Young's orthogonal form: the basis is indexed by standard Young
tableaux, sorted lexicographically by the row of each value 0, 1, ..., n-1,
and the adjacent transposition s_a = (a, a+1) acts on the basis vector of a
tableau T through the axial distance d between the cells holding a and a+1
(content of the cell of a+1 minus content of the cell of a):

* entries in the same row give a diagonal entry +1,
* entries in the same column give a diagonal entry -1,
* otherwise the diagonal entry is 1/d and T pairs with the tableau T'
  obtained by swapping a and a+1, with off diagonal entry sqrt(1 - 1/d^2).

Young's basis is adapted to the chain S_1 < S_2 < ... < S_n: restricted to
the permutations of the first n-1 points, rho_lambda is the direct sum of
the rho_mu over the partitions mu left by removing one corner of lambda,
and in the sorted basis the tableaux holding n-1 in that corner are mu's
tableaux in mu's order.  Each representation is therefore assembled from
the cached representations of its corners, and stores only the action of
s_{n-2}: the actions of s_0 .. s_{n-3} are the rho_mu's, and past the
sub-blocks on S_{n-1} a block reads s_{n-2} alone.  Blocks of a pair
operator are built by the same branching rule,
    D_lambda(c) = (+)_mu D_mu(c on the first n-1 points)
                  + sum_{i<n-1} c_{i,n-1} (I - rho_lambda((i, n-1))),
with the last-point sum Y_lambda(a) = sum_{i<n-1} a_i rho_lambda((i, n-1))
in Horner form: (i, n-1) = s_{n-2} (i, n-2) s_{n-2} for i < n-2 gives
    Y_lambda(a) = a_{n-2} rho_lambda(s_{n-2})
                  + rho_lambda(s_{n-2}) [(+)_mu Y_mu(a_{<n-2})] rho_lambda(s_{n-2}),
one conjugation per partition and level.  The sub-blocks of one operator,
and the Y_mu of one column of c, are built once and shared by every
partition that branches to them.  Each block is built in the array that
holds it: the last-point sum Y is made there, negated as 0 - Y, and
D_mu + (sum_{i<n-1} c_{i,n-1}) I is added on the sub-blocks.  The
conjugation runs in place, a block of partner rows at a time, through a
scratch of _CONJUGATE_ROWS rows.  The top-level blocks of one operator
share one buffer, sized for the largest: beside the shared sub-blocks and
sums on S_{n-1}, a build holds that buffer and, while a block is solved,
the eigensolver's copy of it.

Conjugate partitions share one eigensolve.  rho_{lambda'} = sgn (x) rho_lambda
(Sagan, The Symmetric Group, 2nd ed., 2.7), so the block of lambda' is
similar to c.sum() I - D_lambda(c) (c.sum() over ordered pairs), by a signed
permutation that keeps the magnitude of every off-diagonal entry.  Every
per-partition solve goes through _block_spectra, which builds and solves only
the first of each conjugate pair of targets in tuple order and reads the
other's spectrum, c.sum() minus the eigenvalues reversed; the conjugate's rep
and top-level block are never built.  At n = 10 that is 22 eigensolves for
the 42 partitions.  It returns one IrrepSpectrum per target, and every
spectral route (delta_on_irrep, all_spectra, min_eigenvalue_on_irreps,
cycles.expected_cycles_by_k) reads that record, a weight function's through
_weight_spectra.  _check_reach is the one test of the blocks' reach, IRREP_MAX_N
points, met before any operator is built.  The PSD tolerance is not decided
here: group_algebra.is_psd reads it off the operator's coefficients.

All representation matrices are symmetric orthogonal involutions on
transpositions, so the generator restricted to a partition,
    Delta_w | rho = sum_{i<j} w_ij (I - rho((i j))),
is symmetric positive semidefinite.  Its kernel is known exactly: with mu
the sizes of the connected components of w, Delta_w vanishes on a block
exactly on the vectors fixed by the Young subgroup S_mu, a space of dimension
the Kostka number K_{lambda mu} by Young's rule (Sagan, 2.11).  The spectra of
a weight function's generator have those eigenvalues set to exactly 0, so
exp(-t lambda) stays bounded at any t.  Restricted to the complete graph the
generator is the scalar lambda_kn(rho) = C(n, 2) - content_sum(rho); the
full spectrum of the generator on functions over the symmetric group is the
union over partitions of the per-partition spectra, each repeated dim(rho)
times.

The smallest nonzero block eigenvalue over partitions, normalized by the
complete graph scalar, is the comparison constant
    a*(w) = min_{rho != [n]} lambda_1(w, rho) / lambda_kn(rho),
positive exactly when w is connected.  The Aldous property says the minimum
of lambda_1(w, rho) over rho != [n] is attained at rho = [n-1, 1], where it
equals the spectral gap of the weighted graph Laplacian.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CapError, ConsistencyError, ParameterError
from .graphs import WeightFunction
from .group_algebra import PairOperator, delta_of_weights

Partition = tuple[int, ...]

PARTITION_MAX_N = 12
IRREP_MAX_N = 10
ALDOUS_TOL = 1e-9


def validate_partition(parts: Sequence[int], n: int | None = None) -> Partition:
    """Check that parts is a partition (positive, nonincreasing), optionally of n."""
    p = tuple(int(x) for x in parts)
    if not p or any(x <= 0 for x in p):
        raise ParameterError(f"{parts} is not a partition: parts must be positive")
    if any(a < b for a, b in zip(p, p[1:])):
        raise ParameterError(f"{parts} is not a partition: parts must be nonincreasing")
    if n is not None and sum(p) != n:
        raise ParameterError(f"{parts} is not a partition of {n}")
    return p


def _check_reach(points: int) -> None:
    """The one reach of the irreducible blocks: CapError past IRREP_MAX_N points."""
    if points > IRREP_MAX_N:
        raise CapError(f"irreducible blocks capped at {IRREP_MAX_N} points, got {points}")


def partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order, [n] first."""
    if not 1 <= n <= PARTITION_MAX_N:
        raise CapError(f"partitions supported for 1 <= n <= {PARTITION_MAX_N}, got {n}")
    out: list[Partition] = []

    def extend(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(remaining - part, part, prefix)
            prefix.pop()

    extend(n, n, [])
    return out


def standard_partition(n: int) -> Partition:
    """The partition [n-1, 1] whose block carries the Laplacian spectral gap.

    For n = 2 it is [1, 1], the sign block, which is then the only nontrivial
    one.
    """
    return (n - 1, 1) if n > 2 else (1, 1)


def conjugate_partition(p: Partition) -> Partition:
    p = validate_partition(p)
    return tuple(sum(1 for row in p if row > c) for c in range(p[0]))


def hook_dim(p: Partition) -> int:
    """Dimension of the irreducible representation, by the hook length formula."""
    p = validate_partition(p)
    n = sum(p)
    if n > PARTITION_MAX_N:
        raise CapError(f"hook_dim capped at n <= {PARTITION_MAX_N}, got {n}")
    cols = conjugate_partition(p)
    product = 1
    for r, row_len in enumerate(p):
        for c in range(row_len):
            product *= (row_len - c - 1) + (cols[c] - r - 1) + 1
    dim, remainder = divmod(math.factorial(n), product)
    if remainder:
        raise ConsistencyError(f"hook product {product} does not divide {n}!")
    return dim


def content_sum(p: Partition) -> int:
    """Sum of c - r over all cells (r, c) of the diagram, 0-based."""
    p = validate_partition(p)
    return sum(c - r for r, row_len in enumerate(p) for c in range(row_len))


def lambda_kn(p: Partition) -> int:
    """Eigenvalue of the complete graph generator on the partition's block.

    Equals C(n, 2) - content_sum(p); zero exactly for the trivial partition
    [n], n for [n-1, 1], and n(n-1) for the sign partition [1^n].
    """
    p = validate_partition(p)
    n = sum(p)
    return n * (n - 1) // 2 - content_sum(p)


class _AdjacentAction(NamedTuple):
    """rho(s_{n-2}) in two entries per row: row i is diag[i] at i, off[i] at partner[i]."""

    diag: np.ndarray
    off: np.ndarray
    partner: np.ndarray


# Row codes: digit v (from the most significant) is the row of value v.  The
# base bounds the row index for every partition within IRREP_MAX_N, so a code
# keeps its meaning between n - 1 and n, and 10**10 fits in an int64.
_CODE_BASE = IRREP_MAX_N

# last-point sums Y_mu of one column of a pair operator, by partition mu
_Memo = dict[Partition, np.ndarray]

# rows per block of a conjugation by s_{n-2}, half of them partners of the other
# half
_CONJUGATE_ROWS = 64


def _corners(p: Partition) -> list[tuple[int, Partition]]:
    """(row, p less that row's last cell) for each removable corner of p."""
    out = []
    for r, length in enumerate(p):
        if r + 1 == len(p) or p[r + 1] < length:
            out.append((r, p[:r] + ((length - 1,) if length > 1 else ()) + p[r + 1 :]))
    return out


class YoungOrthogonalRep:
    """Orthogonal irreducible representation attached to one partition.

    The rep is built from the cached reps of the partitions mu left by
    removing one corner of the diagram.  The tableaux holding n-1 in one
    corner are mu's tableaux in mu's order, and their row codes are mu's codes
    with that corner's row appended; one sort of these (distinct) codes gives the
    sorted basis, and branches lists, for each corner, mu and the basis
    indices of its tableaux.  So rho restricted to S_{n-1} is the direct sum
    of the rho_mu placed at those indices, and the rep keeps only what is
    new, the action of s_{n-2}: it reads the row and content of the values
    n-2 and n-1, and finds each partner by searching the sorted codes.

    s_{n-2} is stored in a compressed two-entries-per-row form, three arrays
    of length dim, so conjugating a matrix by it costs O(dim^2).  Pair
    operator blocks are built by the branching rule (delta_blocks).
    """

    def __init__(self, partition: Sequence[int]):
        p = validate_partition(partition)
        n = sum(p)
        _check_reach(n)
        self.partition = p
        self.n = n
        if n == 1:
            # one tableau and no adjacent transposition; S_0 is the empty partition
            self.dim = 1
            self._codes = self._last_row = self._last_content = np.zeros(1, dtype=np.int64)
            self._adjacent = _AdjacentAction(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.intp))
            self.branches = [((), np.zeros(1, dtype=np.intp))]
            return
        corners = _corners(p)
        subs = [_rep(mu) for _, mu in corners]
        codes = np.concatenate([sub._codes * _CODE_BASE + r for (r, _), sub in zip(corners, subs)])
        order = np.argsort(codes)
        self.dim = len(codes)
        self._codes = codes[order]
        position = np.empty(self.dim, dtype=np.intp)
        position[order] = np.arange(self.dim)
        dims = [sub.dim for sub in subs]
        indices = np.split(position, np.cumsum(dims[:-1]))
        self.branches = [(mu, index) for (_, mu), index in zip(corners, indices)]

        # s_{n-2}: value n-2 sits where mu put its last value, n-1 in the corner
        last_row = np.repeat([r for r, _ in corners], dims)[order]
        self._last_row = last_row
        self._last_content = (np.asarray(p)[last_row] - 1) - last_row
        before_row = np.concatenate([sub._last_row for sub in subs])[order]
        before_content = np.concatenate([sub._last_content for sub in subs])[order]
        d = self._last_content - before_content
        paired = np.abs(d) > 1
        off = np.zeros(self.dim)
        off[paired] = np.sqrt(1.0 - 1.0 / (d[paired] * d[paired]))
        swapped = self._codes + (last_row - before_row) * (_CODE_BASE - 1)
        partner = np.arange(self.dim)
        partner[paired] = np.searchsorted(self._codes, swapped[paired])
        self._adjacent = _AdjacentAction(1.0 / d, off, partner)

    def _conjugate(self, m: np.ndarray) -> None:
        """m <- rho(s_{n-2}) m rho(s_{n-2}) in place, a block of rows at a time.

        Right, then left: each entry becomes diag m + off m[partner].  Rows i
        and partner[i] of the result read only those two rows of m, so a
        block holds either pairs, the first rows in its first half and their
        partners in its second, or rows that are their own partners.  Each is
        conjugated in a scratch of at most _CONJUGATE_ROWS rows and written back.
        """
        diag, off, partner = self._adjacent
        index = np.arange(self.dim)
        firsts, alone = index[partner > index], index[partner == index]
        half = _CONJUGATE_ROWS // 2
        pairs = [firsts[start : start + half] for start in range(0, len(firsts), half)]
        blocks = [(np.concatenate([first, partner[first]]), len(first)) for first in pairs]
        blocks += [(alone[start : start + 2 * half], 0) for start in range(0, len(alone), 2 * half)]
        for rows, shift in blocks:
            block = m[rows]
            scratch = np.take(block, partner, axis=1)
            scratch *= off
            block *= diag
            block += scratch
            # row r's partner is row r + shift of the block, cyclically
            scratch[: len(rows) - shift] = block[shift:]
            scratch[len(rows) - shift :] = block[:shift]
            scratch *= off[rows, None]
            block *= diag[rows, None]
            block += scratch
            m[rows] = block

    def _add_adjacent(self, m: np.ndarray, scale: float) -> None:
        """m += scale * rho(s_{n-2}), touching only the two entries per row."""
        diag, off, partner = self._adjacent
        idx = np.arange(self.dim)
        m[idx, idx] += scale * diag
        m[idx, partner] += scale * off

    def _branch(
        self,
        c: np.ndarray,
        below: Mapping[Partition, np.ndarray],
        memo: _Memo,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Block of c on its first self.n points, from its blocks on one point fewer.

        below maps each partition of self.n - 1 that this one branches to
        onto its block.  memo holds the last-point sums of column self.n - 1
        of c on smaller partitions (see _last_sum) and is shared by every
        partition of self.n built from that column.  The block is written
        into out (dim x dim) if given, else into a new array.
        """
        if out is None:
            out = np.empty((self.dim, self.dim))
        m = self.n - 1
        last = c[:m, m]
        # 0 - Y in out (0 when the column is), then D_mu + last.sum() I added
        # on the sub-blocks.  No block holds -0 (0 - Y never is, nor a sum of
        # two terms that are not), so with D = D_mu + last.sum() I, D + (0 - Y)
        # has the bits of D - Y
        if last.any():
            self._last_sum(last, memo, out)
            np.subtract(0.0, out, out=out)
        else:
            out.fill(0.0)
        total = last.sum()
        for mu, index in self.branches:
            block = below[mu].copy()
            block.flat[:: len(index) + 1] += total
            out[index[:, None], index] += block
        return out

    def _last_sum(self, a: np.ndarray, memo: _Memo, out: np.ndarray | None = None) -> np.ndarray:
        """Y(a) = sum_{i<n-1} a_i rho((i, n-1)) for a vector a of length n-1.

        Horner form over the chain of subgroups: since (i, n-1) =
        s_{n-2} (i, n-2) s_{n-2} for i < n-2,
            Y(a) = a_{n-2} rho(s_{n-2}) + rho(s_{n-2}) [(+)_mu Y_mu(a_{<n-2})] rho(s_{n-2}),
        where Y_mu(a_{<n-2}) lives on S_{n-1}, block diagonal over the
        corners mu.  One conjugation per partition; the Y_mu are looked up
        in memo (keyed by partition, which fixes the prefix of a) and the
        recursion stops where the rest of a is zero.  Y is written into out
        (dim x dim) if given, else into a new array.
        """
        s = self.n - 2
        if out is None:
            out = np.zeros((self.dim, self.dim))
        else:
            out.fill(0.0)
        if a[:s].any():
            for mu, index in self.branches:
                if mu not in memo:
                    memo[mu] = _rep(mu)._last_sum(a[:s], memo)
                out[index[:, None], index] = memo[mu]
            self._conjugate(out)
        self._add_adjacent(out, a[s])
        return out


def _sub_blocks(c: np.ndarray, targets: Iterable[Partition]) -> dict[Partition, np.ndarray]:
    """Blocks of c on its first n-1 points for each partition the targets branch to.

    Built upward from S_0 one point at a time; each level holds only the
    partitions that some target reaches, and only one level is kept, with
    the last-point sums of its own column of c.
    """
    levels = [set(targets)]
    for _ in range(len(c) - 1):
        levels.append({mu for lam in levels[-1] for mu, _ in _rep(lam).branches})
    # S_0 has one block, the 1 x 1 zero block of the empty operator
    below = {(): np.zeros((1, 1))}
    for level in reversed(levels[1:]):
        memo: _Memo = {}
        below = {lam: _rep(lam)._branch(c, below, memo) for lam in level}
    return below


def delta_blocks(
    op: PairOperator, targets: Sequence[Sequence[int]]
) -> Iterator[tuple[Partition, np.ndarray]]:
    """(partition, block of op) for each target partition of op.n, in order.

    The sub-blocks on S_{n-1} and below, and the last-point sums of the last
    column on S_{n-1} and below, are built once and shared by every target.
    The top-level blocks are built, when each is reached, in one buffer sized
    for the largest target: a yielded block is a view of that buffer, valid
    until the next one is yielded.  Use each block, or copy it, before asking
    for the next.
    """
    targets = [validate_partition(p, op.n) for p in targets]
    below = _sub_blocks(op.c, targets)
    memo: _Memo = {}
    buffer = np.empty(max((_rep(p).dim ** 2 for p in targets), default=0))
    for p in targets:
        dim = _rep(p).dim
        yield p, _rep(p)._branch(op.c, below, memo, buffer[: dim * dim].reshape(dim, dim))


# unbounded, but the cap IRREP_MAX_N bounds it to the 138 partitions of n <= 10
@lru_cache(maxsize=None)
def _rep(partition: Partition) -> YoungOrthogonalRep:
    return YoungOrthogonalRep(partition)


@dataclass(frozen=True)
class IrrepSpectrum:
    """Spectrum of the interchange generator restricted to one partition."""

    partition: Partition
    dim: int
    eigenvalues: np.ndarray
    lambda_complete: int

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])


# unbounded; the spectral routes reach it only with partitions of n <= IRREP_MAX_N
@lru_cache(maxsize=None)
def kostka_number(shape: Partition, content: Partition) -> int:
    """K_{shape, content}: semistandard tableaux of a shape with a given content.

    By Young's rule (Sagan, The Symmetric Group, 2.11) it is the multiplicity
    of rho_shape in the permutation module of the Young subgroup S_content,
    so sum over shapes of dim(rho_shape) K_{shape, content} = n! / prod(content!).
    Counted by removing the cells holding the largest entry, a horizontal
    strip of content[-1] cells.
    """
    if not content:
        return int(not shape)
    *rest, last = content
    below = shape[1:] + (0,)
    return sum(
        kostka_number(tuple(row for row in inner if row), tuple(rest))
        for inner in itertools.product(*(range(b, a + 1) for a, b in zip(shape, below)))
        if sum(shape) - sum(inner) == last
    )


def _block_spectra(
    op: PairOperator, targets: Sequence[Sequence[int]], components: Partition | None = None
) -> dict[Partition, IrrepSpectrum]:
    """Spectrum of op's block on each target, in target order.

    rho_{lambda'} = sgn (x) rho_lambda, and in Young's orthogonal form a
    signed permutation Q (T -> T transposed) gives rho_{lambda'}(tau) =
    -Q rho_lambda(tau) Q^T on every transposition, so
        D_{lambda'}(c) = Q (c.sum() I - D_lambda(c)) Q^T,
    c.sum() being the sum over ordered pairs.  When both partitions of a
    conjugate pair are targets, only the one first in tuple order is built
    and solved: the other's eigenvalues are c.sum() minus its eigenvalues
    reversed.  Self-conjugate partitions, [n] and the standard partition are
    always solved directly, so the spectral gap keeps its direct eigenvalue.

    components, given when op is the generator of a weight function, are the
    sizes of its connected components: the kostka_number(lambda, components)
    smallest eigenvalues of block lambda, the kernel, are then set to 0.
    """
    targets = [validate_partition(p, op.n) for p in targets]
    wanted = set(targets)
    standard = standard_partition(op.n)
    mirror = {}  # solved partition -> its conjugate, read off its spectrum
    for q in wanted:
        p = conjugate_partition(q)
        if p > q and p in wanted and q != standard:
            mirror[p] = q
    total = float(op.c.sum())
    eigenvalues: dict[Partition, np.ndarray] = {}
    solved = [p for p in dict.fromkeys(targets) if p not in mirror.values()]
    for p, block in delta_blocks(op, solved):
        eigenvalues[p] = np.linalg.eigvalsh(block)
        if p in mirror:
            eigenvalues[mirror[p]] = total - eigenvalues[p][::-1]
    spectra = {}
    for p, values in eigenvalues.items():
        if components is not None:
            values[: kostka_number(p, components)] = 0.0
        values.setflags(write=False)
        spectra[p] = IrrepSpectrum(p, len(values), values, lambda_kn(p))
    return {p: spectra[p] for p in targets}


def _weight_spectra(w: WeightFunction, targets=None) -> dict[Partition, IrrepSpectrum]:
    """Spectra of w's generator on targets (None: every partition), reach checked first."""
    _check_reach(w.n)
    if targets is None:
        targets = partitions(w.n)
    return _block_spectra(delta_of_weights(w), targets, w.component_sizes())


def delta_on_irrep(w: WeightFunction, p: Sequence[int]) -> IrrepSpectrum:
    """Eigenvalues of the generator block for weights w and partition p."""
    [spectrum] = _weight_spectra(w, [p]).values()
    return spectrum


def all_spectra(w: WeightFunction) -> list[IrrepSpectrum]:
    """Generator spectra for every partition of w.n, in partition order.

    One eigensolve per partition; the blocks share their sub-blocks.
    """
    return list(_weight_spectra(w).values())


def assembled_spectrum(w: WeightFunction) -> np.ndarray:
    """Full generator spectrum on functions over the symmetric group.

    Concatenates each partition's eigenvalues with multiplicity dim(rho) and
    sorts; the result has n! entries and matches the spectrum of the regular
    representation matrix of the generator.
    """
    blocks = [np.repeat(s.eigenvalues, s.dim) for s in all_spectra(w)]
    return np.sort(np.concatenate(blocks))


def min_eigenvalue_on_irreps(a: PairOperator) -> float:
    """Smallest eigenvalue of a pair operator across all irreducible blocks.

    group_algebra.is_psd calls this on an operator's support, so a refusal
    names the support's size.  One block per conjugate pair is solved.
    """
    _check_reach(a.n)
    return min(s.lambda_min for s in _block_spectra(a, partitions(a.n)).values())


class AldousReport(NamedTuple):
    holds: bool
    worst_partition: Partition | None
    margin: float
    spectral_gap: float


def aldous_check(spectra: Sequence[IrrepSpectrum]) -> AldousReport:
    """Check that the standard partition [n-1, 1] attains the spectral gap.

    spectra is the output of all_spectra(w).  margin is the smallest
    lambda_1(w, rho) - lambda_1(w, [n-1, 1]) over partitions rho other than
    [n] and [n-1, 1] (infinite when there are no such partitions, i.e. n = 2);
    the check holds when margin >= -ALDOUS_TOL.  worst_partition is the first
    partition, in partition order, whose difference is within ALDOUS_TOL of
    the margin, so exact ties do not fall to rounding.
    """
    n = sum(spectra[0].partition)
    standard = standard_partition(n)
    gap = next(s.lambda_min for s in spectra if s.partition == standard)
    others = [(s.lambda_min - gap, s.partition) for s in spectra
              if s.partition not in ((n,), standard)]
    margin = min((diff for diff, _ in others), default=math.inf)
    worst = next((p for diff, p in others if diff <= margin + ALDOUS_TOL), None)
    return AldousReport(
        holds=margin >= -ALDOUS_TOL, worst_partition=worst, margin=margin, spectral_gap=gap
    )


class PartitionRow(NamedTuple):
    partition: Partition
    dim: int
    lambda_complete: int
    lambda_min: float
    ratio: float | None


@dataclass(frozen=True)
class ComparisonReport:
    """Comparison constant a* and the data supporting it."""

    a_star: float
    argmin_partition: Partition | None
    aldous: AldousReport
    theorem_bound: float | None
    empirical_c: float | None
    rows: tuple[PartitionRow, ...]


def comparison_constant(w: WeightFunction) -> ComparisonReport:
    """a*(w) = min over nontrivial partitions of lambda_1(w, rho) / lambda_kn(rho).

    Also reports the per-partition table, the Aldous check of the same
    spectra, the mixing-based lower bound b(w), and the ratio a* / b(w),
    which raises CapError when it exceeds the float range.  For disconnected
    w the constant is 0 and b(w) is undefined (reported None).
    """
    from .chain import mixing_report

    spectra = all_spectra(w)
    rows = []
    a_star = math.inf
    argmin: Partition | None = None
    for s in spectra:
        if s.partition == (w.n,):
            rows.append(PartitionRow(s.partition, s.dim, s.lambda_complete, s.lambda_min, None))
            continue
        ratio = s.lambda_min / s.lambda_complete
        rows.append(PartitionRow(s.partition, s.dim, s.lambda_complete, s.lambda_min, ratio))
        if ratio < a_star:
            a_star = ratio
            argmin = s.partition
    a_star = max(a_star, 0.0)
    if w.is_connected():
        bound = mixing_report(w).theorem_bound
        empirical = a_star / bound
        if not math.isfinite(empirical):
            raise CapError(f"a* / b(w) = {a_star:.3g} / {bound:.3g} exceeds the float range")
    else:
        bound = None
        empirical = None
    return ComparisonReport(
        a_star=a_star,
        argmin_partition=argmin,
        aldous=aldous_check(spectra),
        theorem_bound=bound,
        empirical_c=empirical,
        rows=tuple(rows),
    )
