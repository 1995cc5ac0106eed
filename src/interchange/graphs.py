"""Symmetric nonnegative weight functions on finite vertex sets.

A weight function assigns a weight w_ij >= 0 to every unordered pair of
vertices {i, j}.  Pairs with weight zero are treated as absent, so a weight
function is the same thing as a weighted undirected graph without self loops.
Everything downstream (random walks, interchange generators, spectra) is
parameterized by one of these.  It is stored as sorted pair arrays, which
every consumer reads and which the graph families build with array code.
"""

import numbers
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import CapError, DegenerateWeightError, ParameterError

# Largest vertex count a graph spec may name.  Every dense route builds n x n
# matrices, and hypercube:10, the largest graph in use, has 1024 vertices.
MAX_VERTICES = 1024

# Largest point count of the irreducible blocks: a route checks it before loading irreps.
IRREP_MAX_N = 10

# Largest point count of the exact distribution, which diagonalizes the n! x n!
# regular representation: a route checks it before loading group_algebra.
EXACT_SEMIGROUP_MAX_N = 5

# Default PSD tolerance, relative to the largest regular-representation entry.
PSD_TOL = 1e-9

# Largest total weight w_tot = sum_i w_i.  Below it every vertex weight, the
# total, products of two of them (w_hi w_hj in the octopus gap, w_i^2 in the
# theorem bound) and small multiples of those stay finite.
MAX_TOTAL_WEIGHT = 1e150

# Largest seed a command or Monte Carlo run accepts: the seed keys a uint64
# Philox counter.
MAX_SEED = 2**64 - 1


def check_integer(value, what: str) -> None:
    """Refuse a value that is not a Python or numpy integer; a bool is refused too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{what} must be an integer, got {value!r}")


def check_irrep_reach(points: int) -> None:
    """The one reach of the irreducible blocks: CapError past IRREP_MAX_N points."""
    if points > IRREP_MAX_N:
        raise CapError(f"irreducible blocks capped at {IRREP_MAX_N} points, got {points}")


def check_exact_reach(n: int) -> None:
    """The one reach of the exact distribution: CapError past EXACT_SEMIGROUP_MAX_N points."""
    if n > EXACT_SEMIGROUP_MAX_N:
        raise CapError(f"exact distribution capped at n <= {EXACT_SEMIGROUP_MAX_N}, got {n}")


def check_time(t) -> np.ndarray:
    """t (a time or an array of times) as a float array; each must be finite and >= 0.

    A time is a real number: bool, str, complex and other input are refused,
    not converted, and the routes go on with the array returned here.
    """
    values = np.asarray(t)
    if values.dtype.kind == "O":
        real = all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in values.flat)
    else:
        real = values.dtype.kind in "iuf"
    if not real:
        raise ParameterError(f"time must be a real number, got {t!r}")
    try:
        t_arr = values.astype(float)
    except OverflowError:  # an int past the float range, refused as infinite
        t_arr = np.array(np.inf)
    if not (np.isfinite(t_arr).all() and (t_arr >= 0).all()):
        raise ParameterError(f"time must be finite and >= 0, got {t}")
    return t_arr


def check_one_time(t) -> float:
    """A single time t as a float, checked as check_time checks it."""
    t_arr = check_time(t)
    if t_arr.ndim:
        raise ParameterError(f"time must be a single number, got {t!r}")
    return float(t_arr)


class WeightFunction:
    """Immutable symmetric weight function on vertices {0, ..., n-1}.

    Storage is three read-only arrays: `ends`, a (2, m) intp array of the
    pairs (i, j) with i < j in lexicographic order, `weights`, their m weights,
    all > 0, and `vertex_weights`, w_i = sum_j w_ij.  WeightFunction(n, entries)
    takes a mapping {(i, j): w_ij} in which either order of a pair may appear;
    the graph families and load_weight_file pass arrays to _from_arrays.

    Validation runs in this order: vertex range, self pairs, finiteness, sign,
    duplicates (after canonicalising each pair to (min, max), so a pair given
    twice is rejected even when one of its weights is zero), and the cap on the
    total weight, checked on the largest weight before the sum so the sum cannot
    overflow.  Zero weights pass validation and are then dropped.  The vertex
    weights are summed pair by pair in the order the pairs were given, which
    keeps them bit-identical to a running sum over the input.
    """

    __slots__ = ("n", "ends", "weights", "vertex_weights")

    def __init__(self, n: int, entries: Mapping[tuple[int, int], float]):
        # object dtype: _assign converts the indices, so a huge one is a ParameterError
        pairs = np.array(list(entries), dtype=object).reshape(-1, 2)
        self._assign(n, pairs[:, 0], pairs[:, 1], list(entries.values()))

    @classmethod
    def _from_arrays(cls, n: int, first, second, weights) -> "WeightFunction":
        """Weight function with weight weights[k] on the pair {first[k], second[k]}."""
        w = cls.__new__(cls)
        w._assign(n, first, second, weights)
        return w

    def _assign(self, n: int, first, second, weights) -> None:
        check_integer(n, "vertex count")
        n = int(n)
        if n < 2:
            raise ParameterError(f"need at least 2 vertices, got n={n}")
        try:
            first = np.asarray(first, dtype=np.intp)
            second = np.asarray(second, dtype=np.intp)
        except OverflowError as exc:
            raise ParameterError(f"a vertex index is out of range for n={n}") from exc
        weights = np.asarray(weights, dtype=float)

        def reject(bad: np.ndarray, message: str) -> None:
            if bad.any():
                k = int(np.argmax(bad))
                raise ParameterError(message.format(
                    i=int(first[k]), j=int(second[k]), w=float(weights[k])
                ))

        reject((first < 0) | (first >= n) | (second < 0) | (second >= n),
               f"pair ({{i}}, {{j}}) out of range for n={n}")
        reject(first == second, "self pair ({i}, {i}) is not allowed")
        reject(~np.isfinite(weights), "non-finite weight {w} on pair ({i}, {j})")
        reject(weights < 0, "negative weight {w} on pair ({i}, {j})")
        low, high = np.minimum(first, second), np.maximum(first, second)
        codes = low * n + high
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        repeated = codes[1:] == codes[:-1]
        if repeated.any():
            code = int(codes[np.argmax(repeated)])
            raise ParameterError(f"duplicate pair ({code // n}, {code % n})")
        # the largest weight first: when it passes, the sum cannot overflow
        total = 2.0 * float(weights.max()) if weights.size else 0.0
        if total <= MAX_TOTAL_WEIGHT:
            total = 2.0 * float(weights.sum())
        if not total <= MAX_TOTAL_WEIGHT:
            raise ParameterError(
                f"total weight {total:g} exceeds the cap {MAX_TOTAL_WEIGHT:g}; "
                "scale the weights down"
            )
        # bincount adds in input order: (low_0, high_0, low_1, high_1, ...)
        vertex_weights = np.bincount(
            np.column_stack((low, high)).ravel(), np.repeat(weights, 2), minlength=n
        ).astype(float)
        order = order[weights[order] > 0]
        self.n = n
        self.ends = np.stack((low[order], high[order]))
        self.weights = weights[order]
        self.vertex_weights = vertex_weights
        for array in (self.ends, self.weights, self.vertex_weights):
            array.setflags(write=False)

    def edges(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Iterate over ((i, j), weight) with i < j and weight > 0, sorted.

        Yields Python ints and floats, so repr() of a weight is its shortest
        round-trip form.
        """
        first, second = self.ends.tolist()
        return zip(zip(first, second), self.weights.tolist())

    @property
    def total_weight(self) -> float:
        """w_tot = sum_i w_i, which is twice the sum of all pair weights."""
        return float(self.vertex_weights.sum())

    def min_positive_weight(self) -> float:
        """Smallest strictly positive pair weight."""
        if not self.weights.size:
            raise DegenerateWeightError("all weights are zero")
        return float(self.weights.min())

    def dense(self) -> np.ndarray:
        """Symmetric n x n matrix of pair weights with zero diagonal."""
        m = np.zeros((self.n, self.n))
        first, second = self.ends
        m[first, second] = m[second, first] = self.weights
        return m

    def is_connected(self) -> bool:
        """True when every vertex is reachable through positive weights."""
        return self.component_sizes() == (self.n,)

    def component_sizes(self) -> tuple[int, ...]:
        """Vertex counts of the connected components, largest first: a partition of n.

        Label propagation with pointer jumping over `ends`: each vertex points to
        a smaller neighbour or itself, and until no edge joins two trees, the
        labels jump (label = label[label]) to their roots and each root joined
        to a smaller one hooks to it.
        """
        label = np.arange(self.n)
        first, second = self.ends
        label[second] = first
        while True:
            jumped = label[label]
            if not np.array_equal(jumped, label):
                label = jumped
                continue
            a, b = label[first], label[second]
            joined = a != b
            if not joined.any():
                break
            a, b = a[joined], b[joined]
            label[np.maximum(a, b)] = np.minimum(a, b)
        sizes = np.bincount(label, minlength=self.n)
        return tuple(sorted(sizes[sizes > 0].tolist(), reverse=True))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightFunction):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.ends, other.ends)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.edges())))

    def __repr__(self) -> str:
        return f"WeightFunction(n={self.n}, edges={self.weights.size})"


def _check_vertex_count(n: int, what: str) -> None:
    """Raise CapError before any edge list is built for an oversized graph."""
    if n > MAX_VERTICES:
        raise CapError(f"{what} has {n} vertices; graphs are capped at {MAX_VERTICES}")


def _size(value, least: int, family: str, name: str) -> int:
    """A family's size parameter as an int: an integer (check_integer), >= least."""
    check_integer(value, f"{family} {name}")
    if value < least:
        raise ParameterError(f"{family} needs {name} >= {least}, got {value}")
    return int(value)


def _unit_weights(n: int, first: np.ndarray, second: np.ndarray) -> WeightFunction:
    return WeightFunction._from_arrays(n, first, second, np.ones(len(first)))


def complete(n: int) -> WeightFunction:
    """Unit weights on every pair of n vertices."""
    n = _size(n, 2, "complete graph", "n")
    _check_vertex_count(n, f"complete:{n}")
    return _unit_weights(n, *np.triu_indices(n, 1))


def cycle(n: int) -> WeightFunction:
    """Unit weights along a single n-cycle."""
    n = _size(n, 3, "cycle", "n")
    _check_vertex_count(n, f"cycle:{n}")
    vertices = np.arange(n)
    return _unit_weights(n, vertices, (vertices + 1) % n)


def path(n: int) -> WeightFunction:
    """Unit weights along a path 0 - 1 - ... - (n-1)."""
    n = _size(n, 2, "path", "n")
    _check_vertex_count(n, f"path:{n}")
    return _unit_weights(n, np.arange(n - 1), np.arange(1, n))


def star(n: int) -> WeightFunction:
    """Unit weights from center 0 to each of the n - 1 leaves."""
    n = _size(n, 2, "star", "n")
    _check_vertex_count(n, f"star:{n}")
    return _unit_weights(n, np.zeros(n - 1, dtype=np.intp), np.arange(1, n))


def hypercube(d: int) -> WeightFunction:
    """Unit weights on the d-dimensional Boolean hypercube (n = 2^d vertices)."""
    d = _size(d, 1, "hypercube", "dimension")
    # compare exponents: 2^d itself is unbounded in d
    if d >= MAX_VERTICES.bit_length():
        raise CapError(f"hypercube:{d} has 2^{d} vertices; graphs are capped at {MAX_VERTICES}")
    n = 1 << d
    x = np.arange(n)[:, None]
    y = x ^ (1 << np.arange(d))  # y[x, b]: x with bit b flipped
    up = x < y
    return _unit_weights(n, np.nonzero(up)[0], y[up])


def hamming2(m: int) -> WeightFunction:
    """Hamming graph on pairs from an m-letter alphabet (n = m^2 vertices).

    Vertices are coordinate pairs (a, b), indexed as a * m + b.  Two distinct
    vertices carry weight 1 exactly when they agree in one coordinate, so the
    graph is 2(m - 1)-regular and hamming2(2) is the 4-cycle.
    """
    m = _size(m, 2, "hamming2", "alphabet size")
    n = m * m
    _check_vertex_count(n, f"hamming2:{m}")
    x, y = np.arange(n)[:, None], np.arange(n)[None, :]
    adjacent = (x // m == y // m) != (x % m == y % m)
    return _unit_weights(n, *np.nonzero(adjacent & (x < y)))


def regular_tree(degree: int, depth: int) -> WeightFunction:
    """Unit weights on the finite regular tree, labeled breadth first.

    The root has `degree` children and every other internal vertex has
    degree - 1 children; vertices at distance `depth` from the root are
    leaves.  degree = 2 degenerates to a path.
    """
    degree = _size(degree, 2, "regular tree", "degree")
    depth = _size(depth, 1, "regular tree", "depth")
    # count level by level, stopping once past the cap (each level adds >= 2)
    n, level = 1, degree
    for _ in range(depth):
        n += level
        if n > MAX_VERTICES:
            break
        level *= degree - 1
    _check_vertex_count(n, f"regular-tree:{degree},{depth}")
    # Breadth first, the root's children are 1 .. degree and vertex p >= 1
    # has the degree - 1 children that follow those of p - 1.
    children = np.arange(1, n)
    parents = np.where(children <= degree, 0, 1 + (children - degree - 1) // (degree - 1))
    return _unit_weights(n, parents, children)


_BUILDERS = {
    "complete": (complete, 1),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "star": (star, 1),
    "hypercube": (hypercube, 1),
    "hamming2": (hamming2, 1),
    "regular-tree": (regular_tree, 2),
}


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
    if name not in _BUILDERS:
        known = ", ".join(sorted(_BUILDERS))
        raise ParameterError(f"unknown graph family {name!r} (known: {known})")
    builder, arity = _BUILDERS[name]
    if len(params) != arity:
        raise ParameterError(f"family {name!r} takes {arity} parameter(s), got {params}")
    return builder(*params)


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
    first, second, weights = [], [], []
    for line in body:
        fields = line.split()
        if len(fields) != 3:
            raise ParameterError(f"bad weight line {line!r} in {path}")
        try:
            first.append(int(fields[0]))
            second.append(int(fields[1]))
            weights.append(float(fields[2]))
        except ValueError as exc:
            raise ParameterError(f"bad weight line {line!r} in {path}") from exc
    try:
        return WeightFunction._from_arrays(n, first, second, weights)
    except ParameterError as exc:
        raise ParameterError(f"{exc} in {path}") from exc
