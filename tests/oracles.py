"""Reference implementations that only the tests call.

Each is the plain form of something the package does another way, or does
not need: permutations as tuples, standard tableaux by enumeration, dense
Young-rep matrices of any group element, the generator's block on one
partition read off all_spectra, a weight-file writer, the
environment of a child interpreter and the BLAS setting bit pins are made
under, scaled weights, component sizes by
breadth-first search, the shipped JSON schemas, the per-permutation loop that
qhf_exact replaced by array reductions, the mixing search run for one
condition alone, and closed forms of the lazy walk on hypercubes, paths and
cycles.  Nothing in the package imports from here.
"""

import itertools
import json
import math
import os
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

import interchange
from interchange.chain import TIE_GUARD, LazyChain, _mixes, _Search, _tv_mixes
from interchange.cli import _SUBCOMMANDS
from interchange.errors import ParameterError
from interchange.graphs import WeightFunction
from interchange.group_algebra import InterchangeExact
from interchange.irreps import (
    IrrepSpectrum,
    Partition,
    YoungOrthogonalRep,
    _rep,
    all_spectra,
    validate_partition,
)
from interchange.qhf import _cycle_observables

Perm = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
# rho(s_a) in two entries per row: row i is diag[i] at i, off[i] at partner[i]
Action = tuple[np.ndarray, np.ndarray, np.ndarray]


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


def adjacent_action(rep: YoungOrthogonalRep, a: int) -> Action:
    """The action of s_a on rep: stored for s_{n-2}, read off the sub-reps below.

    rho restricted to S_{n-1} is the direct sum of the rho_mu placed at the
    indices of rep.branches, so for a < n-2 each branch's action is moved to
    its indices.
    """
    if not 0 <= a < rep.n - 1:
        raise ParameterError(f"adjacent index {a} out of range for n={rep.n}")
    if a == rep.n - 2:
        return tuple(rep._adjacent)
    diag = np.empty(rep.dim)
    off = np.empty(rep.dim)
    partner = np.empty(rep.dim, dtype=np.intp)
    for mu, index in rep.branches:
        sub_diag, sub_off, sub_partner = adjacent_action(_rep(mu), a)
        diag[index] = sub_diag
        off[index] = sub_off
        partner[index] = index[sub_partner]
    return diag, off, partner


def _apply_left(action: Action, m: np.ndarray) -> np.ndarray:
    """rho(s_a) m, from s_a's action."""
    diag, off, partner = action
    return diag[:, None] * m + off[:, None] * m[partner, :]


def adjacent_matrix(rep: YoungOrthogonalRep, a: int) -> np.ndarray:
    """Dense matrix of the adjacent transposition (a, a+1)."""
    diag, off, partner = adjacent_action(rep, a)
    m = np.zeros((rep.dim, rep.dim))
    idx = np.arange(rep.dim)
    m[idx, idx] += diag
    m[idx, partner] += off
    return m


def transposition_matrix(rep: YoungOrthogonalRep, i: int, j: int) -> np.ndarray:
    """Dense matrix of the transposition (i, j), i != j.

    (i, j) = s_{j-1} ... s_{i+1} s_i s_{i+1} ... s_{j-1}: s_i conjugated by
    s_{i+1} up to s_{j-1}, each right then left.
    """
    if i == j:
        raise ParameterError("transposition needs two distinct points")
    i, j = min(i, j), max(i, j)
    if not 0 <= i < j < rep.n:
        raise ParameterError(f"pair ({i}, {j}) out of range for n={rep.n}")
    m = adjacent_matrix(rep, i)
    for a in range(i + 1, j):
        action = adjacent_action(rep, a)
        m = _apply_left(action, _apply_left(action, m.T).T)
    return m


def matrix(rep: YoungOrthogonalRep, perm: Sequence[int]) -> np.ndarray:
    """Dense matrix of an arbitrary permutation.

    The permutation is factored into adjacent transpositions by sorting
    its image array; the representation matrices of the factors are then
    multiplied in order.
    """
    arr = list(perm)
    if sorted(arr) != list(range(rep.n)):
        raise ParameterError(f"{perm} is not a permutation of {rep.n} points")
    word: list[int] = []
    i = 0
    while i < rep.n - 1:
        if arr[i] > arr[i + 1]:
            arr[i], arr[i + 1] = arr[i + 1], arr[i]
            word.append(i)
            i = max(i - 1, 0)
        else:
            i += 1
    m = np.eye(rep.dim)
    for a in word:
        m = _apply_left(adjacent_action(rep, a), m)
    return m


def irrep_block(w: WeightFunction, p: Sequence[int]) -> IrrepSpectrum:
    """The spectrum of w's generator on the block of partition p, from all_spectra."""
    p = validate_partition(p, w.n)
    return next(s for s in all_spectra(w) if s.partition == p)


def dump_weight_file(w: WeightFunction, path: str | Path) -> None:
    """Write a weight function in the format load_weight_file reads."""
    edges = list(w.edges())
    rows = [f"{w.n} {len(edges)}"]
    rows.extend(f"{i} {j} {weight!r}" for (i, j), weight in edges)
    Path(path).write_text("\n".join(rows) + "\n")


# The last bits of a product or an eigensolve depend on the OpenBLAS kernel
# and thread count: against the SkylakeX kernel, Haswell moves an epsilon of
# hypercube:10 and path:20 by an ulp and Sandybridge moves six mixing reports.
# So bit pins are made in a child process that picks both.  OPENBLAS_CORETYPE
# selects among the kernels of a build for several CPUs, as numpy's bundled
# OpenBLAS is.
PINNED_BLAS = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}


def child_env(**settings: str) -> dict[str, str]:
    """The environment for a child python that imports this package: this
    one's, with the OpenBLAS settings cleared and then settings set."""
    src = Path(interchange.__file__).parents[1]
    env = {key: value for key, value in os.environ.items() if not key.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env | settings


def scaled(w: WeightFunction, factor: float) -> WeightFunction:
    """New weight function with every weight multiplied by factor > 0."""
    if factor <= 0:
        raise ParameterError(f"scale factor must be positive, got {factor}")
    with np.errstate(over="ignore"):  # an overflow is rejected as non-finite
        weights = w.weights * factor
    return WeightFunction._from_arrays(w.n, *w.ends, weights)


def component_sizes_bfs(w: WeightFunction) -> tuple[int, ...]:
    """Component sizes, largest first, by breadth-first search: one pass per
    layer over the dense n x n adjacency."""
    adjacency = np.zeros((w.n, w.n), dtype=bool)
    first, second = w.ends
    adjacency[first, second] = adjacency[second, first] = True
    unseen = np.ones(w.n, dtype=bool)
    sizes = []
    while unseen.any():
        frontier = np.zeros(w.n, dtype=bool)
        frontier[np.argmax(unseen)] = True
        unseen &= ~frontier
        size = 1
        # each pass adds the unseen neighbours of the last layer
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & unseen
            unseen &= ~frontier
            size += int(frontier.sum())
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def schema_for(command: str) -> dict:
    """The JSON schema shipped for a subcommand's report."""
    if command not in _SUBCOMMANDS:
        raise ParameterError(f"unknown subcommand {command!r}")
    path = resources.files("interchange").joinpath("schemas", f"{command}.schema.json")
    return json.loads(path.read_text())


def qhf_exact_loop(w: WeightFunction, t: float) -> tuple[float, float]:
    """(Z, m^2) by a loop over all permutations with exact probabilities, n <= 5."""
    process = InterchangeExact(w)
    dist = process.distribution(t)
    z = 0.0
    numerator = 0.0
    for p, perm in zip(dist, process.permutations):
        alpha, spin = _cycle_observables(cycle_counts(perm), w.n)
        weight = 2.0**alpha
        z += p * weight
        numerator += p * spin * weight
    return float(z), float(numerator / z)


def search_alone(chain: LazyChain, name: str) -> tuple[int, tuple[float, ...]]:
    """The mixing search run for one condition alone on a connected chain,
    "lmix" or "mix": its first time and the eps_k it recorded on the way."""
    condition = {"lmix": _mixes, "mix": _tv_mixes}[name](chain)
    (time,), epsilons = _Search(chain, (condition,)).run()
    return time, epsilons


def hypercube_mixing(d: int) -> tuple[int, int, tuple[Fraction, ...]]:
    """(lmix, mix, eps_k for 2^k <= lmix) of hypercube:d, exactly.

    The lazy walk moves along each coordinate with probability 1 / (2 d), so
    the character of a j-set is an eigenfunction with eigenvalue 1 - j / d and
    p_t(x, y) / pi(y) = sum_j (1 - j / d)^t K_j(h), h the Hamming distance of
    x and y and K_j the Krawtchouk polynomial (Levin-Peres-Wilmer, 2nd ed.,
    ch. 12).  Every row is the same up to relabelling, so the row of x = 0
    decides both conditions; scaled by d^t each sum is an integer.
    """
    krawtchouk = [
        [sum((-1) ** i * math.comb(h, i) * math.comb(d - h, j - i) for i in range(j + 1))
         for j in range(d + 1)]
        for h in range(d + 1)
    ]

    def scaled_ratios(t: int) -> list[int]:
        # d^t p_t(0, y) / pi(y) for y at each Hamming distance h
        return [sum((d - j) ** t * k for j, k in enumerate(row)) for row in krawtchouk]

    def mixes(t: int) -> bool:
        return 4 * min(scaled_ratios(t)) > 3 * d**t

    def tv_mixes(t: int) -> bool:
        # TV = sum_h C(d, h) |ratio_h - 1| / 2^(d + 1) < 1/4
        excess = sum(math.comb(d, h) * abs(r - d**t) for h, r in enumerate(scaled_ratios(t)))
        return 2 * excess < 2**d * d**t

    lmix = next(t for t in itertools.count(1) if mixes(t))
    mix = next(t for t in range(1, lmix + 1) if tv_mixes(t))
    epsilons = tuple(
        Fraction(sum(math.comb(d, j) * (d - j) ** (1 << k) for j in range(d + 1)),
                 2**d * d ** (1 << k))
        for k in range(lmix.bit_length())
    )
    return lmix, mix, epsilons


class CosineWalk:
    """The lazy walk on path:n or cycle:n from its cosine eigenvectors.

    path:n: lambda_k = (1 + cos(pi k / (n - 1))) / 2 with eigenvector
    cos(pi k i / (n - 1)), k = 0 .. n - 1, whose pi-norm is 1 at k = 0 and
    k = n - 1 and 1/2 otherwise.  cycle:n: lambda_k = (1 + cos(2 pi k / n)) / 2
    with the eigenvectors cos(2 pi k x / n) for 0 <= k <= n / 2 and
    sin(2 pi k x / n) for 0 < k < n / 2, of pi-norm 1 at k = 0 and k = n / 2
    and 1/2 otherwise.  Then p_t(i, j) / pi(j) = sum_k lambda_k^t
    phi_k(i) phi_k(j) / |phi_k|^2 (Levin-Peres-Wilmer, 2nd ed., ch. 12).  Each
    lambda_k is 1 - sin(a)^2 with a = pi k / (2 (n - 1)) or pi k / n, and
    lambda_k^t is exp(t log1p(-sin(a)^2)), which keeps its relative accuracy
    at t near a million.  No eigensolver is involved.
    """

    def __init__(self, family: str, n: int):
        if family == "path":
            k = np.arange(n)
            self.phi = np.cos(np.pi * np.outer(np.arange(n), k) / (n - 1))
            half_angle = np.pi * k / (2 * (n - 1))
            self.pi = np.full(n, 1.0 / (n - 1))
            self.pi[[0, -1]] = 0.5 / (n - 1)
            ends = (k == 0) | (k == n - 1)
        elif family == "cycle":
            k = np.concatenate([np.arange(n // 2 + 1), np.arange(1, (n + 1) // 2)])
            angles = 2 * np.pi * np.outer(np.arange(n), k) / n
            cosines = n // 2 + 1
            self.phi = np.concatenate([np.cos(angles[:, :cosines]), np.sin(angles[:, cosines:])],
                                      axis=1)
            half_angle = np.pi * k / n
            self.pi = np.full(n, 1.0 / n)
            ends = np.zeros(n, dtype=bool)
            ends[0] = True
            ends[n // 2] = n % 2 == 0
        else:
            raise ValueError(f"no cosine eigenvectors for {family!r}")
        self.norm = np.where(ends, 1.0, 0.5)
        with np.errstate(divide="ignore"):  # lambda = 0 at the last path or even cycle k
            self.log_lambda = np.log1p(-np.sin(half_angle) ** 2)

    def weights(self, t: int) -> np.ndarray:
        """lambda_k^t / |phi_k|^2 for t >= 1."""
        return np.exp(t * self.log_lambda) / self.norm

    def ratios(self, t: int) -> np.ndarray:
        """The whole matrix p_t(i, j) / pi(j)."""
        return (self.phi * self.weights(t)) @ self.phi.T

    def mixes(self, t: int) -> bool:
        return float(self.ratios(t).min()) > 0.75 + TIE_GUARD

    def tv_mixes(self, t: int) -> bool:
        tv = 0.5 * (np.abs(self.ratios(t) - 1.0) @ self.pi).max()
        return float(tv) < 0.25 - TIE_GUARD

    def epsilon(self, k: int) -> float:
        """max_i p_(2^k)(i, i), a sum of nonnegative terms for each i."""
        return float(((self.phi**2 @ self.weights(1 << k)) * self.pi).max())
