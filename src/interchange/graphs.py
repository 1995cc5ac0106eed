"""Symmetric nonnegative weight functions on finite vertex sets.

A weight function assigns a weight w_ij >= 0 to every unordered pair of
vertices {i, j}.  Pairs with weight zero are treated as absent, so a weight
function is the same thing as a weighted undirected graph without self loops.
Everything downstream (random walks, interchange generators, spectra) is
parameterized by one of these.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import CapError, DegenerateWeightError, ParameterError

# Largest vertex count a graph spec may name.  Every dense route builds n x n
# matrices, and hypercube:10, the largest graph in use, has 1024 vertices.
MAX_VERTICES = 1024


class WeightFunction:
    """Immutable symmetric weight function on vertices {0, ..., n-1}.

    Entries are stored sparsely as a mapping from canonical pairs (i, j) with
    i < j to strictly positive weights.  Zero weights supplied at construction
    are dropped; negative or non-finite weights and self pairs are rejected.
    """

    __slots__ = ("n", "_entries", "_vertex_weights")

    def __init__(self, n: int, entries: Mapping[tuple[int, int], float]):
        if not isinstance(n, int) or n < 2:
            raise ParameterError(f"need at least 2 vertices, got n={n}")
        canonical: dict[tuple[int, int], float] = {}
        for (i, j), w in entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ParameterError(f"pair ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ParameterError(f"self pair ({i}, {i}) is not allowed")
            w = float(w)
            if not math.isfinite(w):
                raise ParameterError(f"non-finite weight {w} on pair ({i}, {j})")
            if w < 0:
                raise ParameterError(f"negative weight {w} on pair ({i}, {j})")
            key = (i, j) if i < j else (j, i)
            if key in canonical:
                raise ParameterError(f"duplicate pair {key}")
            if w > 0:
                canonical[key] = w
        self.n = n
        self._entries = canonical
        wi = np.zeros(n)
        for (i, j), w in canonical.items():
            wi[i] += w
            wi[j] += w
        self._vertex_weights = wi
        self._vertex_weights.setflags(write=False)

    def weight(self, i: int, j: int) -> float:
        """Weight of the unordered pair {i, j}; zero when absent."""
        if i == j:
            return 0.0
        key = (i, j) if i < j else (j, i)
        return self._entries.get(key, 0.0)

    def edges(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Iterate over ((i, j), weight) with i < j and weight > 0, sorted."""
        return iter(sorted(self._entries.items()))

    @property
    def vertex_weights(self) -> np.ndarray:
        """Vector of w_i = sum_j w_ij."""
        return self._vertex_weights

    @property
    def total_weight(self) -> float:
        """w_tot = sum_i w_i, which is twice the sum of all pair weights."""
        return float(self._vertex_weights.sum())

    def min_positive_weight(self) -> float:
        """Smallest strictly positive pair weight."""
        if not self._entries:
            raise DegenerateWeightError("all weights are zero")
        return min(self._entries.values())

    def dense(self) -> np.ndarray:
        """Symmetric n x n matrix of pair weights with zero diagonal."""
        m = np.zeros((self.n, self.n))
        for (i, j), w in self._entries.items():
            m[i, j] = w
            m[j, i] = w
        return m

    def is_connected(self) -> bool:
        """True when every vertex is reachable through positive weights."""
        if not self._entries:
            return self.n == 1
        adjacency: list[list[int]] = [[] for _ in range(self.n)]
        for (i, j) in self._entries:
            adjacency[i].append(j)
            adjacency[j].append(i)
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for u in adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return all(seen)

    def scaled(self, factor: float) -> "WeightFunction":
        """New weight function with every weight multiplied by factor > 0."""
        if factor <= 0:
            raise ParameterError(f"scale factor must be positive, got {factor}")
        return WeightFunction(self.n, {p: w * factor for p, w in self._entries.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightFunction):
            return NotImplemented
        return self.n == other.n and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self._entries.items()))))

    def __repr__(self) -> str:
        return f"WeightFunction(n={self.n}, edges={len(self._entries)})"


@dataclass(frozen=True)
class GraphFamily:
    """A named graph family instance, e.g. GraphFamily("complete", (5,))."""

    family: str
    params: tuple[int, ...]

    def build(self) -> WeightFunction:
        return build_family(self)


def _check_vertex_count(n: int, what: str) -> None:
    """Raise CapError before any edge list is built for an oversized graph."""
    if n > MAX_VERTICES:
        raise CapError(f"{what} has {n} vertices; graphs are capped at {MAX_VERTICES}")


def _pairs(edges: Iterable[tuple[int, int]]) -> dict[tuple[int, int], float]:
    return {(i, j) if i < j else (j, i): 1.0 for i, j in edges}


def complete(n: int) -> WeightFunction:
    """Unit weights on every pair of n vertices."""
    if n < 2:
        raise ParameterError(f"complete graph needs n >= 2, got {n}")
    _check_vertex_count(n, f"complete:{n}")
    return WeightFunction(n, _pairs((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle(n: int) -> WeightFunction:
    """Unit weights along a single n-cycle."""
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3, got {n}")
    _check_vertex_count(n, f"cycle:{n}")
    return WeightFunction(n, _pairs((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> WeightFunction:
    """Unit weights along a path 0 - 1 - ... - (n-1)."""
    if n < 2:
        raise ParameterError(f"path needs n >= 2, got {n}")
    _check_vertex_count(n, f"path:{n}")
    return WeightFunction(n, _pairs((i, i + 1) for i in range(n - 1)))


def star(n: int) -> WeightFunction:
    """Unit weights from center 0 to each of the n - 1 leaves."""
    if n < 2:
        raise ParameterError(f"star needs n >= 2, got {n}")
    _check_vertex_count(n, f"star:{n}")
    return WeightFunction(n, _pairs((0, i) for i in range(1, n)))


def hypercube(d: int) -> WeightFunction:
    """Unit weights on the d-dimensional Boolean hypercube (n = 2^d vertices)."""
    if d < 1:
        raise ParameterError(f"hypercube needs dimension >= 1, got {d}")
    # compare exponents: 2^d itself is unbounded in d
    if d >= MAX_VERTICES.bit_length():
        raise CapError(f"hypercube:{d} has 2^{d} vertices; graphs are capped at {MAX_VERTICES}")
    n = 1 << d
    edges = []
    for x in range(n):
        for b in range(d):
            y = x ^ (1 << b)
            if x < y:
                edges.append((x, y))
    return WeightFunction(n, _pairs(edges))


def hamming2(m: int) -> WeightFunction:
    """Hamming graph on pairs from an m-letter alphabet (n = m^2 vertices).

    Vertices are coordinate pairs (a, b), indexed as a * m + b.  Two distinct
    vertices carry weight 1 exactly when they agree in one coordinate, so the
    graph is 2(m - 1)-regular and hamming2(2) is the 4-cycle.
    """
    if m < 2:
        raise ParameterError(f"hamming2 needs alphabet size >= 2, got {m}")
    n = m * m
    _check_vertex_count(n, f"hamming2:{m}")
    edges = []
    for x in range(n):
        a1, b1 = divmod(x, m)
        for y in range(x + 1, n):
            a2, b2 = divmod(y, m)
            if (a1 == a2) != (b1 == b2):
                edges.append((x, y))
    return WeightFunction(n, _pairs(edges))


def regular_tree(degree: int, depth: int) -> WeightFunction:
    """Unit weights on the finite regular tree, labeled breadth first.

    The root has `degree` children and every other internal vertex has
    degree - 1 children; vertices at distance `depth` from the root are
    leaves.  degree = 2 degenerates to a path.
    """
    if degree < 2:
        raise ParameterError(f"tree degree must be >= 2, got {degree}")
    if depth < 1:
        raise ParameterError(f"tree depth must be >= 1, got {depth}")
    # count level by level, stopping once past the cap (each level adds >= 2)
    n, level = 1, degree
    for _ in range(depth):
        n += level
        if n > MAX_VERTICES:
            break
        level *= degree - 1
    _check_vertex_count(n, f"regular-tree:{degree},{depth}")
    edges = []
    next_label = 1
    frontier = [0]
    for level in range(depth):
        new_frontier = []
        for v in frontier:
            children = degree if level == 0 else degree - 1
            for _ in range(children):
                edges.append((v, next_label))
                new_frontier.append(next_label)
                next_label += 1
        frontier = new_frontier
    return WeightFunction(next_label, _pairs(edges))


_BUILDERS = {
    "complete": (complete, 1),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "star": (star, 1),
    "hypercube": (hypercube, 1),
    "hamming2": (hamming2, 1),
    "regular-tree": (regular_tree, 2),
}


def build_family(spec: GraphFamily) -> WeightFunction:
    if spec.family not in _BUILDERS:
        known = ", ".join(sorted(_BUILDERS))
        raise ParameterError(f"unknown graph family {spec.family!r} (known: {known})")
    builder, arity = _BUILDERS[spec.family]
    if len(spec.params) != arity:
        raise ParameterError(
            f"family {spec.family!r} takes {arity} parameter(s), got {spec.params}"
        )
    return builder(*spec.params)


def parse_graph_spec(text: str) -> WeightFunction:
    """Build a weight function from a compact textual spec.

    Accepted forms: "complete:5", "regular-tree:3,2", "file:/path/to/w.txt".
    """
    name, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ParameterError(f"graph spec {text!r} must look like 'family:params'")
    if name == "file":
        return load_weight_file(rest)
    try:
        params = tuple(int(p) for p in rest.split(","))
    except ValueError as exc:
        raise ParameterError(f"non-integer parameter in graph spec {text!r}") from exc
    return build_family(GraphFamily(name, params))


def load_weight_file(path: str | Path) -> WeightFunction:
    """Read a weight function from a text file.

    Format: a header line "<n> <count>" (vertex count, record count) followed
    by <count> lines "<i> <j> <weight>" with 0-based vertex indices.  Blank
    lines and lines starting with '#' are ignored.  Duplicate pairs are
    rejected.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read weight file {path}: {exc}") from exc
    lines = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    if not lines:
        raise ParameterError(f"weight file {path} is empty")
    header = lines[0].split()
    if len(header) != 2:
        raise ParameterError(f"weight file {path} must start with '<n> <count>'")
    try:
        n, count = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParameterError(f"bad header {lines[0]!r} in weight file {path}") from exc
    _check_vertex_count(n, f"weight file {path}")
    body = lines[1:]
    if len(body) != count:
        raise ParameterError(
            f"weight file {path} declares {count} records but has {len(body)}"
        )
    entries: dict[tuple[int, int], float] = {}
    for line in body:
        fields = line.split()
        if len(fields) != 3:
            raise ParameterError(f"bad weight line {line!r} in {path}")
        try:
            i, j, weight = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError as exc:
            raise ParameterError(f"bad weight line {line!r} in {path}") from exc
        key = (i, j) if i < j else (j, i)
        if key in entries:
            raise ParameterError(f"duplicate pair {key} in {path}")
        entries[key] = weight
    return WeightFunction(n, entries)


def dump_weight_file(w: WeightFunction, path: str | Path) -> None:
    """Write a weight function in the format load_weight_file reads."""
    edges = list(w.edges())
    rows = [f"{w.n} {len(edges)}"]
    rows.extend(f"{i} {j} {weight!r}" for (i, j), weight in edges)
    Path(path).write_text("\n".join(rows) + "\n")
