import itertools
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interchange.errors import DegenerateWeightError, ParameterError
from interchange.graphs import (
    MAX_TOTAL_WEIGHT,
    WeightFunction,
    check_integer,
    check_one_time,
    check_time,
    complete,
    cycle,
    hamming2,
    hypercube,
    load_weight_file,
    parse_graph_spec,
    path,
    regular_tree,
    star,
)
from oracles import component_sizes_bfs, dump_weight_file, scaled


def test_complete_three_degree_stats():
    w = complete(3)
    assert np.allclose(w.vertex_weights, [2.0, 2.0, 2.0])
    assert w.total_weight == 6.0
    assert w.min_positive_weight() == 1.0
    assert w.is_connected()


def test_weights_are_symmetric_and_zero_free():
    w = WeightFunction(4, {(2, 0): 1.5, (1, 2): 0.0, (3, 2): 2.0})
    assert w.dense()[0, 2] == 1.5
    assert w.dense()[2, 0] == 1.5
    assert w.dense()[1, 2] == 0.0
    assert list(w.edges()) == [((0, 2), 1.5), ((2, 3), 2.0)]
    assert w.dense()[1, 1] == 0.0


def test_negative_weight_rejected():
    with pytest.raises(ParameterError):
        WeightFunction(3, {(0, 1): -0.5})


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_rejected(weight):
    with pytest.raises(ParameterError):
        WeightFunction(3, {(0, 1): 1.0, (1, 2): weight})


def test_total_weight_cap():
    at_cap = WeightFunction(3, {(0, 1): MAX_TOTAL_WEIGHT / 4, (1, 2): MAX_TOTAL_WEIGHT / 4})
    assert at_cap.total_weight == MAX_TOTAL_WEIGHT
    for entries in ({(0, 1): 1e308, (1, 2): 1e308}, {(0, 1): MAX_TOTAL_WEIGHT}):
        with pytest.raises(ParameterError, match="exceeds the cap"):
            WeightFunction(3, entries)


def test_self_pair_rejected():
    with pytest.raises(ParameterError):
        WeightFunction(3, {(1, 1): 1.0})


def test_duplicate_pair_rejected():
    with pytest.raises(ParameterError):
        WeightFunction(3, {(0, 1): 1.0, (1, 0): 2.0})
    # a zero weight is a duplicate too, whichever order the pair comes in
    for entries in (
        {(0, 1): 0.0, (1, 0): 2.0}, {(1, 0): 2.0, (0, 1): 0.0}, {(1, 0): 0.0, (0, 1): 0.0}
    ):
        with pytest.raises(ParameterError, match=r"duplicate pair \(0, 1\)"):
            WeightFunction(3, entries)


def test_all_zero_weights_degenerate():
    w = WeightFunction(3, {(0, 1): 0.0})
    with pytest.raises(DegenerateWeightError):
        w.min_positive_weight()


def test_two_disjoint_edges_disconnected():
    w = WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0})
    assert not w.is_connected()


def test_path_three_weights():
    w = path(3)
    assert np.allclose(w.vertex_weights, [1.0, 2.0, 1.0])
    assert w.total_weight == 4.0


def test_min_positive_ignores_magnitude_order():
    w = WeightFunction(3, {(0, 1): 0.5, (1, 2): 2.0})
    assert w.min_positive_weight() == 0.5


def test_star_center_weight():
    w = star(4)
    assert w.vertex_weights[0] == 3.0
    assert np.allclose(w.vertex_weights[1:], 1.0)


def test_hypercube_regular():
    for d in (1, 2, 3, 4):
        w = hypercube(d)
        assert w.n == 2**d
        assert np.allclose(w.vertex_weights, d)


def test_hamming2_small_is_four_cycle():
    w = hamming2(2)
    assert w.n == 4
    assert np.allclose(w.vertex_weights, 2.0)
    assert w.total_weight == 8.0
    # vertices 0=(0,0) and 3=(1,1) differ in both coordinates
    assert w.dense()[0, 3] == 0.0
    assert w.dense()[1, 2] == 0.0


@pytest.mark.parametrize("m", [2, 3, 4])
def test_hamming2_degree_and_total(m):
    w = hamming2(m)
    assert w.n == m * m
    assert np.allclose(w.vertex_weights, 2 * (m - 1))
    assert math.isclose(w.total_weight, 2 * (m**3 - m**2))
    assert w.is_connected()


@pytest.mark.parametrize(
    "builder, arg, expected_ratio",
    [(complete, 5, 4 / 5), (cycle, 6, 2 / 6), (hypercube, 3, 3 / 8), (hamming2, 3, 4 / 9)],
)
def test_regular_families_degree_identity(builder, arg, expected_ratio):
    # for a d-regular unit-weight graph, min w_i^2 / w_tot reduces to d / n
    w = builder(arg)
    wi_min = w.vertex_weights.min()
    assert math.isclose(wi_min**2 / w.total_weight, expected_ratio)


def test_regular_tree_shape():
    w = regular_tree(3, 2)
    assert w.n == 10
    assert w.vertex_weights[0] == 3.0
    assert sorted(w.vertex_weights) == [1.0] * 6 + [3.0] * 4
    assert w.is_connected()


def test_regular_tree_degree_two_is_path():
    w = regular_tree(2, 3)
    assert w.n == 7
    assert sorted(w.vertex_weights) == [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]


@pytest.mark.parametrize(
    "t, want",
    [(0, 0.0), (2, 2.0), (0.5, 0.5), (np.float32(0.25), 0.25), (Fraction(1, 4), 0.25),
     ([0, 1.5], [0.0, 1.5]), (np.array([3, 4], dtype=np.uint8), [3.0, 4.0])],
    ids=repr,
)
def test_check_time_returns_floats(t, want):
    t_arr = check_time(t)
    assert t_arr.dtype == np.float64
    assert t_arr.tolist() == want


@pytest.mark.parametrize(
    "t",
    ["1", b"1", True, np.True_, [True, False], 1j, None, [0.5, "1"], {"t": 1},
     -1.0, math.nan, math.inf, pytest.param(10**400, id="10**400"), [0.5, -0.5]],
    ids=repr,
)
def test_check_time_refuses_what_is_not_a_time(t):
    with pytest.raises(ParameterError, match="time must be"):
        check_time(t)


@pytest.mark.parametrize("value", [0, -3, 2**64, np.int64(2), np.uint64(2**64 - 1)], ids=repr)
def test_check_integer_takes_python_and_numpy_integers(value):
    check_integer(value, "k")


@pytest.mark.parametrize(
    "value", [True, np.True_, 1.0, 1.5, np.float64(2.0), "1", None, Fraction(2, 1)], ids=repr)
def test_check_integer_refuses_bools_and_non_integers(value):
    with pytest.raises(ParameterError, match=r"^k must be an integer, got "):
        check_integer(value, "k")


@pytest.mark.parametrize(
    "build, size",
    [(complete, 4), (cycle, 4), (path, 4), (star, 4), (hypercube, 2), (hamming2, 2),
     (lambda n: regular_tree(3, n), 2), (lambda n: regular_tree(n, 2), 3),
     (lambda n: WeightFunction(n, {(0, 1): 1.0}), 3)],
    ids=["complete", "cycle", "path", "star", "hypercube", "hamming2", "tree-depth",
         "tree-degree", "WeightFunction"],
)
def test_graph_sizes_follow_check_integer(build, size):
    # a numpy integer is taken and stored as an int; a float or a bool is refused
    w = build(np.int64(size))
    assert type(w.n) is int and w == build(size)
    for value in (float(size), size + 0.5, True, np.True_):
        with pytest.raises(ParameterError, match=r" must be an integer, got "):
            build(value)


def test_check_one_time_refuses_an_array():
    assert check_one_time(3) == 3.0
    assert type(check_one_time(np.float64(0.5))) is float
    for t in ([1.0], np.array([1.0, 2.0])):
        with pytest.raises(ParameterError, match="a single number"):
            check_one_time(t)


def test_parse_graph_spec():
    assert parse_graph_spec("complete:4") == complete(4)
    assert parse_graph_spec("cycle:5") == cycle(5)
    assert parse_graph_spec("regular-tree:3,2") == regular_tree(3, 2)


@pytest.mark.parametrize(
    "spec",
    [
        "unknown:3", "complete", "complete:", "complete:x", "cycle:2", "complete:3,4",
        # each family's own lower bound
        "complete:1", "path:1", "star:1", "hypercube:0", "hamming2:1",
        "regular-tree:1,2", "regular-tree:3,0",
    ],
)
def test_bad_specs_rejected(spec):
    with pytest.raises(ParameterError):
        parse_graph_spec(spec)


def test_weight_file_round_trip(tmp_path):
    w = WeightFunction(5, {(0, 1): 0.5, (1, 2): 2.0, (3, 4): 1.25})
    target = tmp_path / "w.txt"
    dump_weight_file(w, target)
    assert load_weight_file(target) == w
    assert parse_graph_spec(f"file:{target}") == w


def test_weight_file_comments_and_blanks(tmp_path):
    target = tmp_path / "w.txt"
    target.write_text("# weights\n\n3 2\n0 1 1.0\n\n1 2 0.5\n")
    w = load_weight_file(target)
    assert w.dense()[1, 2] == 0.5


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1 1.0",
        "3 2\n0 1 1.0",
        "3 1\n0 1 1.0\n1 2 1.0",
        "3 2\n0 1 1.0\n1 0 2.0",
        "3 1\n0 1 oops",
        "3 1\n0 1",
        "3 one\n0 1 1.0",
    ],
)
def test_weight_file_malformed(tmp_path, text):
    target = tmp_path / "w.txt"
    target.write_text(text)
    with pytest.raises(ParameterError):
        load_weight_file(target)


def test_scaled():
    w = scaled(path(3), 2.5)
    assert w.dense()[0, 1] == 2.5
    with pytest.raises(ParameterError):
        scaled(path(3), 0.0)


# The loop-based family definitions the array builders replaced: each returns
# its pairs in generation order.
def reference_pairs(family: str, *params: int) -> tuple[int, list[tuple[int, int]]]:
    if family == "complete":
        (n,) = params
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if family == "cycle":
        (n,) = params
        return n, [(i, (i + 1) % n) for i in range(n)]
    if family == "path":
        (n,) = params
        return n, [(i, i + 1) for i in range(n - 1)]
    if family == "star":
        (n,) = params
        return n, [(0, i) for i in range(1, n)]
    if family == "hypercube":
        (d,) = params
        n = 1 << d
        return n, [(x, x ^ (1 << b)) for x in range(n) for b in range(d) if x < x ^ (1 << b)]
    if family == "hamming2":
        (m,) = params
        n = m * m
        pairs = []
        for x in range(n):
            a1, b1 = divmod(x, m)
            for y in range(x + 1, n):
                a2, b2 = divmod(y, m)
                if (a1 == a2) != (b1 == b2):
                    pairs.append((x, y))
        return n, pairs
    if family == "regular-tree":
        degree, depth = params
        pairs, next_label, frontier = [], 1, [0]
        for level in range(depth):
            new_frontier = []
            for v in frontier:
                for _ in range(degree if level == 0 else degree - 1):
                    pairs.append((v, next_label))
                    new_frontier.append(next_label)
                    next_label += 1
            frontier = new_frontier
        return next_label, pairs
    raise ValueError(family)


def running_vertex_weights(n: int, entries) -> np.ndarray:
    """w_i summed one pair at a time, in the order the pairs are given."""
    wi = [0.0] * n
    for (i, j), weight in entries:
        wi[i] += weight
        wi[j] += weight
    return np.array(wi)


@pytest.mark.parametrize(
    "spec",
    [
        "complete:2", "complete:7", "complete:1024",
        "cycle:3", "cycle:8", "cycle:1024",
        "path:2", "path:9", "path:1024",
        "star:2", "star:6", "star:1024",
        "hypercube:1", "hypercube:4", "hypercube:10",
        "hamming2:2", "hamming2:5", "hamming2:32",
        "regular-tree:2,1", "regular-tree:2,4", "regular-tree:4,3", "regular-tree:3,8",
    ],
)
def test_family_builders_match_loop_reference(spec):
    family, params = spec.split(":")
    n, pairs = reference_pairs(family, *(int(p) for p in params.split(",")))
    canonical = {(min(i, j), max(i, j)): 1.0 for i, j in pairs}
    w = parse_graph_spec(spec)
    assert w.n == n
    assert list(w.edges()) == sorted(canonical.items())
    expected = running_vertex_weights(n, canonical.items())
    assert w.vertex_weights.tobytes() == expected.tobytes()


@st.composite
def weight_entries(draw):
    """A mapping in shuffled order with reversed pairs, zeros and random floats."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(
        st.sampled_from(list(itertools.combinations(range(n), 2))), unique=True, max_size=20
    ))
    weight = st.one_of(
        st.just(0.0), st.sampled_from([0.1, 1 / 3, 2.5e-7]),
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    )
    entries = {}
    for i, j in draw(st.permutations(pairs)):
        key = (j, i) if draw(st.booleans()) else (i, j)
        entries[key] = draw(weight)
    return n, entries


@settings(max_examples=200)
@given(weight_entries())
def test_constructor_against_dict_oracles(case):
    n, entries = case
    w = WeightFunction(n, entries)
    edges = list(w.edges())
    assert edges == sorted(edges)
    assert all(
        type(i) is int and type(j) is int and type(weight) is float and i < j
        for (i, j), weight in edges
    )
    dense = np.zeros((n, n))
    for (i, j), weight in entries.items():
        dense[i, j] = dense[j, i] = weight
    assert np.array_equal(w.dense(), dense)
    positive = [((i, j), dense[i, j]) for i in range(n) for j in range(i + 1, n) if dense[i, j]]
    assert edges == positive
    assert w.vertex_weights.tobytes() == running_vertex_weights(n, entries.items()).tobytes()
    reordered = WeightFunction(n, {(j, i): v for (i, j), v in reversed(entries.items())})
    assert reordered == w and hash(reordered) == hash(w)
    with tempfile.TemporaryDirectory() as scratch:
        target = Path(scratch) / "w.txt"
        dump_weight_file(w, target)
        loaded = load_weight_file(target)
    assert loaded == w and list(loaded.edges()) == edges


def laplacian_gap_positive(w: WeightFunction) -> bool:
    laplacian = np.diag(w.vertex_weights) - w.dense()
    return bool(np.linalg.eigvalsh(laplacian)[1] > 1e-9)


@settings(max_examples=200)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), unique=True),
)))
def test_is_connected_agrees_with_laplacian_gap(case):
    n, pairs = case
    w = WeightFunction(n, {pair: 1.0 for pair in pairs})
    assert w.is_connected() == laplacian_gap_positive(w)


def test_is_connected_at_the_vertex_cap():
    assert path(1024).is_connected()
    halves = {(i, i + 1): 1.0 for i in range(1023) if i != 511}
    split = WeightFunction(1024, halves)
    assert not split.is_connected()
    assert not laplacian_gap_positive(split)


@st.composite
def grouped_graphs(draw):
    """Vertices split into groups, each joined by a path in drawn order plus
    random pairs inside it: the components are the groups, and groups of one
    are isolated vertices."""
    n = draw(st.integers(2, 40))
    group = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    pairs = set()
    for g in set(group):
        members = draw(st.permutations([v for v in range(n) if group[v] == g]))
        pairs.update(zip(members, members[1:]))
    inside = [(i, j) for i, j in itertools.combinations(range(n), 2) if group[i] == group[j]]
    if inside:
        pairs.update(draw(st.lists(st.sampled_from(inside), max_size=30)))
    sizes = tuple(sorted((group.count(g) for g in set(group)), reverse=True))
    return WeightFunction(n, {(min(i, j), max(i, j)): 1.0 for i, j in pairs}), sizes


@settings(max_examples=200)
@given(grouped_graphs())
def test_component_sizes_match_the_groups_and_the_bfs_oracle(case):
    w, sizes = case
    assert w.component_sizes() == component_sizes_bfs(w) == sizes


@pytest.mark.parametrize("spec", [
    "complete:1024", "cycle:1024", "path:1024", "star:1024", "hypercube:10",
    "hamming2:32", "regular-tree:3,8",
])
def test_component_sizes_match_the_bfs_oracle_on_the_largest_families(spec):
    w = parse_graph_spec(spec)
    assert w.component_sizes() == component_sizes_bfs(w) == (w.n,)
