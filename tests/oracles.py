"""Reference implementations that only the tests call.

Each is the plain form of something the package does another way, or does
not need: permutations as tuples, standard tableaux by enumeration, dense
Young-rep matrices of any group element, a weight-file writer, scaled
weights, the shipped JSON schemas, and the per-permutation loop that
qhf_exact replaced by array reductions.  Nothing in the package imports
from here.
"""

import json
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from interchange.cli import _SUBCOMMANDS
from interchange.errors import ParameterError
from interchange.graphs import WeightFunction
from interchange.group_algebra import InterchangeExact
from interchange.irreps import Partition, YoungOrthogonalRep, _rep, validate_partition
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


def dump_weight_file(w: WeightFunction, path: str | Path) -> None:
    """Write a weight function in the format load_weight_file reads."""
    edges = list(w.edges())
    rows = [f"{w.n} {len(edges)}"]
    rows.extend(f"{i} {j} {weight!r}" for (i, j), weight in edges)
    Path(path).write_text("\n".join(rows) + "\n")


def scaled(w: WeightFunction, factor: float) -> WeightFunction:
    """New weight function with every weight multiplied by factor > 0."""
    if factor <= 0:
        raise ParameterError(f"scale factor must be positive, got {factor}")
    with np.errstate(over="ignore"):  # an overflow is rejected as non-finite
        weights = w.weights * factor
    return WeightFunction._from_arrays(w.n, *w.ends, weights)


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
