import math

import numpy as np
import pytest

from interchange.errors import DegenerateWeightError, ParameterError
from interchange.graphs import (
    MAX_TOTAL_WEIGHT,
    GraphFamily,
    WeightFunction,
    build_family,
    complete,
    cycle,
    dump_weight_file,
    hamming2,
    hypercube,
    load_weight_file,
    parse_graph_spec,
    path,
    regular_tree,
    star,
)


def test_complete_three_degree_stats():
    w = complete(3)
    assert np.allclose(w.vertex_weights, [2.0, 2.0, 2.0])
    assert w.total_weight == 6.0
    assert w.min_positive_weight() == 1.0
    assert w.is_connected()


def test_weights_are_symmetric_and_zero_free():
    w = WeightFunction(4, {(2, 0): 1.5, (1, 2): 0.0, (3, 2): 2.0})
    assert w.weight(0, 2) == 1.5
    assert w.weight(2, 0) == 1.5
    assert w.weight(1, 2) == 0.0
    assert list(w.edges()) == [((0, 2), 1.5), ((2, 3), 2.0)]
    assert w.weight(1, 1) == 0.0


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
    assert w.weight(0, 3) == 0.0
    assert w.weight(1, 2) == 0.0


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


def test_build_family_and_parse():
    assert build_family(GraphFamily("complete", (4,))) == complete(4)
    assert parse_graph_spec("cycle:5") == cycle(5)
    assert parse_graph_spec("regular-tree:3,2") == regular_tree(3, 2)


@pytest.mark.parametrize(
    "spec",
    ["unknown:3", "complete", "complete:", "complete:x", "cycle:2", "complete:3,4"],
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
    assert w.weight(1, 2) == 0.5


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
    ],
)
def test_weight_file_malformed(tmp_path, text):
    target = tmp_path / "w.txt"
    target.write_text(text)
    with pytest.raises(ParameterError):
        load_weight_file(target)


def test_scaled():
    w = path(3).scaled(2.5)
    assert w.weight(0, 1) == 2.5
    with pytest.raises(ParameterError):
        path(3).scaled(0.0)
