"""Irreducible representations of the symmetric group in orthogonal form.

Irreducible representations are indexed by partitions of n.  The matrices
here use Young's orthogonal form: the basis is indexed by standard Young
tableaux, and the adjacent transposition (a, a+1) acts on the basis vector
of a tableau T through the axial distance d between the cells holding a and
a+1 (content of the cell of a+1 minus content of the cell of a):

* entries in the same row give a diagonal entry +1,
* entries in the same column give a diagonal entry -1,
* otherwise the diagonal entry is 1/d and T pairs with the tableau T'
  obtained by swapping a and a+1, with off diagonal entry sqrt(1 - 1/d^2).

All representation matrices are symmetric orthogonal involutions on
transpositions, so the generator restricted to a partition,
    Delta_w | rho = sum_{i<j} w_ij (I - rho((i j))),
is symmetric positive semidefinite.  Restricted to the complete graph the
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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .chain import theorem_bound
from .errors import CapError, ParameterError
from .graphs import WeightFunction
from .group_algebra import PairOperator, delta_of_weights

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]

PARTITION_MAX_N = 12
IRREP_MAX_N = 10


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
    assert remainder == 0, "hook product must divide n!"
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


def standard_tableaux(p: Partition) -> list[Tableau]:
    """All standard Young tableaux of shape p, in a fixed deterministic order.

    Entries are 0 .. n-1, increasing along rows and down columns.  Tableaux
    are ordered lexicographically by the row index of each value.
    """
    p = validate_partition(p)
    n = sum(p)
    rows: list[list[int]] = [[] for _ in p]
    found: list[tuple[tuple[int, ...], Tableau]] = []

    def place(value: int) -> None:
        if value == n:
            key = tuple(row_of[v] for v in range(n))
            found.append((key, tuple(tuple(r) for r in rows)))
            return
        for r, row in enumerate(rows):
            if len(row) < p[r] and (r == 0 or len(rows[r - 1]) > len(row)):
                row.append(value)
                row_of[value] = r
                place(value + 1)
                row.pop()

    row_of = [0] * n
    place(0)
    found.sort()
    return [t for _, t in found]


class _AdjacentAction(NamedTuple):
    diag: np.ndarray
    off: np.ndarray
    partner: np.ndarray


class YoungOrthogonalRep:
    """Orthogonal irreducible representation attached to one partition.

    Adjacent transpositions are stored in a compressed two-entries-per-row
    form, so multiplying any matrix by an adjacent generator costs O(dim^2).
    General transpositions (i, j) are reached by conjugation,
    (i, j) = (j-1, j)(i, j-1)(j-1, j), walking j upward.
    """

    def __init__(self, partition: Sequence[int]):
        p = validate_partition(partition)
        n = sum(p)
        if n > IRREP_MAX_N:
            raise CapError(f"representation matrices capped at n <= {IRREP_MAX_N}")
        self.partition = p
        self.n = n
        self.tableaux = standard_tableaux(p)
        self.dim = len(self.tableaux)
        index = {t: k for k, t in enumerate(self.tableaux)}
        positions = []
        for t in self.tableaux:
            pos = [(0, 0)] * n
            for r, row in enumerate(t):
                for c, value in enumerate(row):
                    pos[value] = (r, c)
            positions.append(pos)
        self._adjacent: list[_AdjacentAction] = []
        for a in range(n - 1):
            diag = np.zeros(self.dim)
            off = np.zeros(self.dim)
            partner = np.arange(self.dim)
            for k, t in enumerate(self.tableaux):
                r1, c1 = positions[k][a]
                r2, c2 = positions[k][a + 1]
                d = (c2 - r2) - (c1 - r1)
                diag[k] = 1.0 / d
                if abs(d) > 1:
                    swapped = _swap_values(t, a, a + 1)
                    partner[k] = index[swapped]
                    off[k] = math.sqrt(1.0 - 1.0 / (d * d))
            self._adjacent.append(_AdjacentAction(diag, off, partner))

    def _apply_left(self, a: int, m: np.ndarray) -> np.ndarray:
        act = self._adjacent[a]
        return act.diag[:, None] * m + act.off[:, None] * m[act.partner, :]

    def _apply_right(self, m: np.ndarray, a: int) -> np.ndarray:
        act = self._adjacent[a]
        return m * act.diag[None, :] + m[:, act.partner] * act.off[None, :]

    def adjacent_matrix(self, a: int) -> np.ndarray:
        """Dense matrix of the adjacent transposition (a, a+1)."""
        if not 0 <= a < self.n - 1:
            raise ParameterError(f"adjacent index {a} out of range for n={self.n}")
        act = self._adjacent[a]
        m = np.zeros((self.dim, self.dim))
        idx = np.arange(self.dim)
        m[idx, idx] = act.diag
        m[idx, act.partner] += act.off
        return m

    def transposition_matrix(self, i: int, j: int) -> np.ndarray:
        """Dense matrix of the transposition (i, j), i != j."""
        if i == j:
            raise ParameterError("transposition needs two distinct points")
        i, j = min(i, j), max(i, j)
        if not 0 <= i < j < self.n:
            raise ParameterError(f"pair ({i}, {j}) out of range for n={self.n}")
        m = self.adjacent_matrix(i)
        for a in range(i + 1, j):
            m = self._apply_left(a, self._apply_right(m, a))
        return m

    def matrix(self, perm: Sequence[int]) -> np.ndarray:
        """Dense matrix of an arbitrary permutation.

        The permutation is factored into adjacent transpositions by sorting
        its image array; the representation matrices of the factors are then
        multiplied in order.
        """
        arr = list(perm)
        if sorted(arr) != list(range(self.n)):
            raise ParameterError(f"{perm} is not a permutation of {self.n} points")
        word: list[int] = []
        i = 0
        while i < self.n - 1:
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i)
                i = max(i - 1, 0)
            else:
                i += 1
        m = np.eye(self.dim)
        for a in word:
            m = self._apply_left(a, m)
        return m

    def delta_matrix(self, op: PairOperator) -> np.ndarray:
        """Block of a pair operator: sum_{i<j} c_ij (I - rho((i, j)))."""
        if op.n != self.n:
            raise ParameterError(f"operator on {op.n} points, representation on {self.n}")
        pairs = op.pairs()
        out = sum(c for _, _, c in pairs) * np.eye(self.dim)
        by_anchor: dict[int, list[tuple[int, float]]] = {}
        for i, j, c in pairs:
            by_anchor.setdefault(i, []).append((j, c))
        for i, targets in by_anchor.items():
            cur = self.adjacent_matrix(i)
            reached = i + 1
            for j, c in targets:
                while reached < j:
                    cur = self._apply_left(reached, self._apply_right(cur, reached))
                    reached += 1
                out -= c * cur
        return out


def _swap_values(t: Tableau, a: int, b: int) -> Tableau:
    return tuple(
        tuple(b if v == a else a if v == b else v for v in row) for row in t
    )


@lru_cache(maxsize=128)
def _rep(partition: Partition) -> YoungOrthogonalRep:
    return YoungOrthogonalRep(partition)


def transposition_matrix(p: Sequence[int], i: int, j: int) -> np.ndarray:
    """Representation matrix of the transposition (i, j) for shape p."""
    return _rep(validate_partition(p)).transposition_matrix(i, j)


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


def delta_on_irrep(w: WeightFunction, p: Sequence[int]) -> IrrepSpectrum:
    """Eigenvalues of the generator block for weights w and partition p."""
    p = validate_partition(p, w.n)
    rep = _rep(p)
    eigenvalues = np.linalg.eigvalsh(rep.delta_matrix(delta_of_weights(w)))
    eigenvalues.setflags(write=False)
    return IrrepSpectrum(
        partition=p, dim=rep.dim, eigenvalues=eigenvalues, lambda_complete=lambda_kn(p)
    )


def all_spectra(w: WeightFunction) -> list[IrrepSpectrum]:
    """Generator spectra for every partition of w.n, in partition order."""
    if w.n > IRREP_MAX_N:
        raise CapError(f"per-partition spectra capped at n <= {IRREP_MAX_N}")
    return [delta_on_irrep(w, p) for p in partitions(w.n)]


def assembled_spectrum(w: WeightFunction) -> np.ndarray:
    """Full generator spectrum on functions over the symmetric group.

    Concatenates each partition's eigenvalues with multiplicity dim(rho) and
    sorts; the result has n! entries and matches the spectrum of the regular
    representation matrix of the generator.
    """
    blocks = [np.repeat(s.eigenvalues, s.dim) for s in all_spectra(w)]
    return np.sort(np.concatenate(blocks))


def min_eigenvalue_on_irreps(a: PairOperator) -> tuple[float, float]:
    """Smallest eigenvalue of a pair operator across all irreducible blocks.

    Returns (min eigenvalue, scale), where scale is the largest absolute
    entry seen across blocks, for use in relative tolerance checks.
    """
    if a.n > IRREP_MAX_N:
        raise CapError(f"per-partition route capped at n <= {IRREP_MAX_N}")
    min_eig = math.inf
    scale = 0.0
    for p in partitions(a.n):
        block = _rep(p).delta_matrix(a)
        scale = max(scale, float(np.abs(block).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(block).min()))
    return min_eig, scale


class AldousReport(NamedTuple):
    holds: bool
    worst_partition: Partition | None
    margin: float
    spectral_gap: float


def aldous_check(w: WeightFunction, tol: float = 1e-9) -> AldousReport:
    """Check that the standard partition [n-1, 1] attains the spectral gap.

    margin is the smallest lambda_1(w, rho) - lambda_1(w, [n-1, 1]) over
    partitions rho other than [n] and [n-1, 1] (infinite when there are no
    such partitions, i.e. n = 2); the check holds when margin >= -tol.
    """
    spectra = all_spectra(w)
    standard = (w.n - 1, 1) if w.n > 2 else (1, 1)
    gap = next(s.lambda_min for s in spectra if s.partition == standard)
    margin = math.inf
    worst: Partition | None = None
    for s in spectra:
        if s.partition in ((w.n,), standard):
            continue
        if s.lambda_min - gap < margin:
            margin = s.lambda_min - gap
            worst = s.partition
    return AldousReport(
        holds=margin >= -tol, worst_partition=worst, margin=margin, spectral_gap=gap
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
    aldous_gap: float
    theorem_bound: float | None
    empirical_c: float | None
    rows: tuple[PartitionRow, ...]


def comparison_constant(w: WeightFunction) -> ComparisonReport:
    """a*(w) = min over nontrivial partitions of lambda_1(w, rho) / lambda_kn(rho).

    Also reports the per-partition table, the spectral gap at [n-1, 1], the
    mixing-based lower bound b(w), and the ratio a* / b(w).  For
    disconnected w the constant is 0 and b(w) is undefined (reported None).
    """
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
    standard = (w.n - 1, 1) if w.n > 2 else (1, 1)
    gap = next(s.lambda_min for s in spectra if s.partition == standard)
    a_star = max(a_star, 0.0)
    if w.is_connected():
        bound = theorem_bound(w)
        empirical = a_star / bound
    else:
        bound = None
        empirical = None
    return ComparisonReport(
        a_star=a_star,
        argmin_partition=argmin,
        aldous_gap=gap,
        theorem_bound=bound,
        empirical_c=empirical,
        rows=tuple(rows),
    )
