import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interchange.errors import CapError, DegenerateWeightError, DisconnectedError, ParameterError
from interchange.graphs import WeightFunction, complete, path
from interchange.group_algebra import (
    PSD_TOL,
    TV_MIX_TIME_TOL,
    InterchangeExact,
    LiftedWeight,
    PairOperator,
    all_perms,
    delta_of_weights,
    double_weight,
    interchange_tv_mix_exact,
    is_psd,
    octopus_gap,
    doubling_gap,
    lift_lazy,
    regular_rep_matrix,
)
from interchange.irreps import min_eigenvalue_on_irreps
from oracles import compose, cycle_counts, identity_perm, invert, transposition_perm


def random_connected(rng: np.random.Generator, n: int) -> WeightFunction:
    while True:
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    entries[(i, j)] = float(rng.uniform(0.2, 2.0))
        w = WeightFunction(n, entries)
        if entries and w.is_connected() and (w.vertex_weights > 0).all():
            return w


def test_compose_and_invert_laws():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = tuple(rng.permutation(n))
        q = tuple(rng.permutation(n))
        assert compose(p, identity_perm(n)) == p
        assert compose(identity_perm(n), p) == p
        assert compose(p, invert(p)) == identity_perm(n)
        assert invert(compose(p, q)) == compose(invert(q), invert(p))


def test_compose_applies_right_factor_first():
    # q sends 0 -> 1, p sends 1 -> 2, so p q sends 0 -> 2
    p = (0, 2, 1)
    q = (1, 0, 2)
    assert compose(p, q)[0] == 2


def test_cycle_structure():
    assert cycle_counts((1, 2, 0, 3)).tolist() == [0, 1, 0, 1, 0]
    assert cycle_counts(identity_perm(4)).tolist() == [0, 4, 0, 0, 0]
    counts = cycle_counts((1, 0, 3, 2))
    assert counts[2] == 2 and counts[1] == 0
    assert sum(k * counts[k] for k in range(1, 5)) == 4


def test_all_perms_lexicographic():
    perms = all_perms(3)
    assert perms[0] == (0, 1, 2)
    assert perms == sorted(perms)
    assert len(perms) == 6


def test_delta_of_weights_coefficients():
    d = delta_of_weights(complete(3))
    assert d.n == 3
    assert np.array_equal(d.c, np.ones((3, 3)) - np.eye(3))
    assert d.pairs() == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def test_regular_rep_identity_and_symmetry():
    assert np.array_equal(regular_rep_matrix(PairOperator(np.zeros((3, 3)))), np.zeros((6, 6)))
    m = regular_rep_matrix(delta_of_weights(complete(3)))
    assert np.allclose(m, m.T)
    assert np.allclose(np.diag(m), 3.0)


def test_regular_rep_complete3_spectrum():
    # blocks: trivial 0 (dim 1), standard 3 (dim 2, repeated twice), sign 6
    m = regular_rep_matrix(delta_of_weights(complete(3)))
    eigs = np.sort(np.linalg.eigvalsh(m))
    assert np.allclose(eigs, [0.0, 3.0, 3.0, 3.0, 3.0, 6.0], atol=1e-10)


def test_regular_rep_cap():
    with pytest.raises(CapError):
        regular_rep_matrix(PairOperator(np.zeros((8, 8))))


def test_complete_graph_generator_is_central():
    rng = np.random.default_rng(2)
    k4 = regular_rep_matrix(delta_of_weights(complete(4)))
    for _ in range(5):
        m = regular_rep_matrix(delta_of_weights(random_connected(rng, 4)))
        assert np.abs(k4 @ m - m @ k4).max() <= 1e-10


def test_is_psd_basics():
    verdict = is_psd(delta_of_weights(complete(4)))
    assert verdict.psd
    assert verdict.min_eigenvalue == pytest.approx(0.0, abs=1e-9)
    # -(1 - (0 1)) has eigenvalues 0 and -2
    lopsided = np.zeros((3, 3))
    lopsided[0, 1] = lopsided[1, 0] = -1.0
    verdict = is_psd(PairOperator(lopsided))
    assert not verdict.psd
    assert verdict.min_eigenvalue == pytest.approx(-2.0, abs=1e-9)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_is_psd_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    # a negative or nan tol would call the PSD octopus gap not PSD, and an
    # infinite one would pass any operator
    with pytest.raises(ParameterError, match="PSD tolerance must be finite and > 0"):
        is_psd(octopus_gap(4, 0, [1.0, 1.0, 1.0]), tol=tol)
    with pytest.raises(ParameterError):
        is_psd(PairOperator(np.zeros((2, 2))), tol=tol)


def test_is_psd_requires_self_adjoint():
    # a pair operator is self adjoint by construction: asymmetric c is refused
    c = np.zeros((3, 3))
    c[0, 1] = 1.0
    with pytest.raises(ParameterError):
        is_psd(PairOperator(c))


@pytest.mark.parametrize(
    "c",
    [
        [[0.0, math.nan], [math.nan, 0.0]],
        [[0.0, math.inf], [math.inf, 0.0]],
        [[1.0, 1.0], [1.0, 0.0]],
        [[0.0, 1.0, 0.0]],
        [[0.0]],
        [0.0, 1.0],
        [["a", "b"], ["c", "d"]],
    ],
)
def test_pair_operator_rejects_invalid(c):
    with pytest.raises(ParameterError):
        PairOperator(c)


def test_pair_operator_is_frozen():
    op = delta_of_weights(complete(3))
    with pytest.raises(ValueError):
        op.c[0, 1] = 5.0


def literal_regular_rep(c: np.ndarray) -> np.ndarray:
    """sum_{i<j} c_ij (I - P_ij) with P_ij[tau, (i j) tau] = 1, entry by entry."""
    n = len(c)
    perms = all_perms(n)
    index = {p: k for k, p in enumerate(perms)}
    m = np.zeros((len(perms), len(perms)))
    for i in range(n):
        for j in range(i + 1, n):
            swap = transposition_perm(n, i, j)
            for t_idx, tau in enumerate(perms):
                m[t_idx, t_idx] += c[i, j]
                m[t_idx, index[compose(swap, tau)]] -= c[i, j]
    return m


@st.composite
def signed_pair_coefficients(draw) -> np.ndarray:
    n = draw(st.integers(2, 5))
    # quarter-integer coefficients keep negative eigenvalues well clear of
    # the relative tolerance, where rounding could split a verdict
    pairs = n * (n - 1) // 2
    upper = draw(st.lists(st.integers(-12, 12), min_size=pairs, max_size=pairs))
    c = np.zeros((n, n))
    c[np.triu_indices(n, 1)] = np.array(upper) / 4.0
    return c + c.T


def assert_psd_routes_agree(op: PairOperator) -> None:
    """The regular matrix, the irrep blocks and is_psd give one verdict and minimum."""
    m = regular_rep_matrix(op)
    regular = float(np.linalg.eigvalsh(m).min())
    irrep = min_eigenvalue_on_irreps(op)
    verdict = is_psd(op)
    assert irrep == pytest.approx(regular, abs=1e-9)
    assert verdict.min_eigenvalue == pytest.approx(regular, abs=1e-9)
    assert verdict.psd == (regular >= -PSD_TOL * np.abs(m).max())


@settings(max_examples=40, deadline=None)
@given(signed_pair_coefficients())
def test_regular_rep_matches_literal_definition(c):
    op = PairOperator(c)
    assert np.allclose(regular_rep_matrix(op), literal_regular_rep(c), atol=1e-12)
    assert_psd_routes_agree(op)


def test_is_psd_routes_agree():
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = random_connected(rng, 4)
        assert_psd_routes_agree(doubling_gap(lift_lazy(w)))


def test_octopus_star3_full_spectrum():
    gap = octopus_gap(3, 0, [1.0, 1.0])
    eigs = np.sort(np.linalg.eigvalsh(regular_rep_matrix(gap)))
    assert np.allclose(eigs, [0.0, 0.0, 0.0, 3.0, 3.0, 3.0], atol=1e-9)


def test_octopus_unit_arms_n4():
    verdict = is_psd(octopus_gap(4, 0, [1.0, 1.0, 1.0]))
    assert verdict.psd


def test_octopus_gap_scales_linearly():
    base = octopus_gap(4, 1, [0.5, 1.5, 2.0])
    scaled = octopus_gap(4, 1, [1.5, 4.5, 6.0])
    assert np.abs(scaled.c - 3.0 * base.c).max() <= 1e-12


def test_octopus_gap_keeps_arm_terms_whose_products_underflow():
    # a_i a_j is 2^-1200 or 2^-1199, below the float range, while
    # a_i a_j / w_h is 2^-602 or 2^-601; scaling by a power of two is exact
    gap = octopus_gap(4, 0, np.array([1.0, 1.0, 2.0]) * 2.0**-600)
    assert np.array_equal(gap.c, octopus_gap(4, 0, [1.0, 1.0, 2.0]).c * 2.0**-600)
    assert (gap.c[1:, 1:][~np.eye(3, dtype=bool)] < 0).all()


def test_octopus_random_nonnegative_arms():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5):
        for _ in range(20):
            arms = rng.uniform(0.0, 2.0, size=n - 1)
            if arms.sum() <= 0:
                continue
            hub = int(rng.integers(n))
            verdict = is_psd(octopus_gap(n, hub, arms))
            assert verdict.psd, (n, hub, arms)


def test_octopus_irrep_route_holds_few_blocks():
    # The irrep route at n = 10 builds the blocks of all 42 partitions, the
    # largest 768 x 768.  Conjugating by s_(n-2) in place, making each
    # last-point sum before the block it enters, and dropping each top-level
    # block before the next is built leave 3.13 such blocks at the peak, with
    # the reps cached; conjugating through copies and keeping the last block
    # took 7.19.
    block = 768 * 768 * 8
    is_psd(octopus_gap(10, 0, [1.0] * 9))  # builds and caches the Young reps
    tracemalloc.start()
    try:
        verdict = is_psd(octopus_gap(10, 0, [1.0] * 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.psd
    assert peak <= 3.4 * block


def test_octopus_degenerate_and_invalid():
    with pytest.raises(DegenerateWeightError):
        is_psd(octopus_gap(3, 0, [0.0, 0.0]))
    with pytest.raises(ParameterError):
        is_psd(octopus_gap(3, 0, [1.0, -1.0]))
    with pytest.raises(ParameterError):
        is_psd(octopus_gap(3, 0, [1.0]))
    with pytest.raises(ParameterError):
        is_psd(octopus_gap(3, 5, [1.0, 1.0]))
    # each used to reach the arithmetic: a RuntimeWarning and a message about
    # pair coefficients, numpy's shape-mismatch ValueError, or a count of arms
    with pytest.raises(ParameterError, match=r"arm weights must be finite, got \[1.0, inf\]"):
        octopus_gap(3, 0, [1.0, math.inf])
    with pytest.raises(ParameterError, match="arm weights must be finite"):
        octopus_gap(3, 0, [math.nan, 1.0])
    with pytest.raises(ParameterError, match="hub must be an integer, got True"):
        octopus_gap(3, True, [1.0, 1.0])
    with pytest.raises(ParameterError, match="hub must be an integer, got 0.5"):
        octopus_gap(3, 0.5, [1.0, 1.0])


def test_doubling_gap_complete3_value():
    # lifted complete(3) has eps = 1/2 and u^(2) = (5/4) on off-diagonals, so
    # the gap is (7/4) Delta and its top eigenvalue is (7/4) * 6
    gap = doubling_gap(lift_lazy(complete(3)))
    eigs = np.sort(np.linalg.eigvalsh(regular_rep_matrix(gap)))
    assert eigs[0] == pytest.approx(0.0, abs=1e-9)
    assert eigs[-1] == pytest.approx(10.5, abs=1e-9)


def test_doubling_check_random_lifted():
    rng = np.random.default_rng(5)
    for n in (3, 4):
        for _ in range(25):
            matrix = rng.uniform(0.0, 2.0, size=(n, n))
            matrix = 0.5 * (matrix + matrix.T)
            matrix[rng.random(size=(n, n)) < 0.2] = 0.0
            matrix = 0.5 * (matrix + matrix.T)
            assert is_psd(doubling_gap(LiftedWeight(matrix))).psd


def test_doubling_zero_diagonal():
    rng = np.random.default_rng(6)
    for _ in range(10):
        w = random_connected(rng, 4)
        u = LiftedWeight(w.dense())
        assert u.epsilon == 0.0
        assert is_psd(doubling_gap(u)).psd


def test_doubling_single_edge_with_spectator():
    # mass on one edge plus a self-looped spectator vertex: the doubled
    # weight vanishes off the edge and the inequality still holds
    matrix = np.array([[0.7, 1.3, 0.0], [1.3, 0.4, 0.0], [0.0, 0.0, 2.0]])
    u = LiftedWeight(matrix)
    doubled = double_weight(u)
    assert doubled.matrix[0, 2] == pytest.approx(0.0, abs=1e-15)
    assert doubled.matrix[1, 2] == pytest.approx(0.0, abs=1e-15)
    assert doubled.matrix[0, 1] > 0
    assert is_psd(doubling_gap(u)).psd


def test_lift_lazy_refuses_an_isolated_vertex():
    with pytest.raises(DegenerateWeightError, match="isolated vertex"):
        lift_lazy(WeightFunction(3, {(0, 1): 1.0}))


def test_double_weight_refuses_a_row_without_mass():
    # vertex 2 carries no mass, so u2 would divide by its zero row sum
    matrix = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(DegenerateWeightError, match="every row mass positive"):
        double_weight(LiftedWeight(matrix))


def test_interchange_exact_basics():
    w = complete(3)
    exact = InterchangeExact(w)
    dist0 = exact.distribution(0.0)
    assert dist0[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(dist0[1:]).max() <= 1e-12
    dist = exact.distribution(0.7)
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)
    assert dist.min() >= -1e-12
    far = exact.distribution(60.0)
    assert np.allclose(far, 1.0 / 6.0, atol=1e-10)


def test_interchange_exact_single_edge_law():
    w = WeightFunction(2, {(0, 1): 1.0})
    exact = InterchangeExact(w)
    for t in (0.1, 0.5, 2.0):
        dist = exact.distribution(t)
        assert dist[1] == pytest.approx(0.5 * (1.0 - math.exp(-2.0 * t)), abs=1e-12)


def test_interchange_exact_cap():
    with pytest.raises(CapError):
        InterchangeExact(complete(6))


def test_interchange_tv_mix_single_edge():
    # TV(t) = exp(-2t) / 2 crosses 1/4 at t = ln(2) / 2
    w = WeightFunction(2, {(0, 1): 1.0})
    assert interchange_tv_mix_exact(w) == pytest.approx(math.log(2.0) / 2.0, abs=1e-5)


def test_interchange_tv_mix_monotone_in_connectivity():
    with pytest.raises(DisconnectedError):
        interchange_tv_mix_exact(WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0}))


def test_interchange_tv_mix_path_vs_complete():
    assert interchange_tv_mix_exact(path(4)) >= interchange_tv_mix_exact(complete(4))


def _weak_first_edge(weight: float) -> WeightFunction:
    return WeightFunction(4, {(0, 1): weight, (1, 2): 1.0, (2, 3): 1.0})


def test_interchange_tv_mix_tests_the_last_doubled_time():
    # imix is about 8.24e8, below the 1e9 guard, and the doubling first
    # reaches past it at 2**31 / w_tot, about 1.07e9, where the process has
    # mixed: that time is tested before the guard refuses
    w = _weak_first_edge(1e-9)
    imix = interchange_tv_mix_exact(w)
    process = InterchangeExact(w)
    assert 8.2e8 < imix < 8.3e8
    assert process.tv_from_uniform(imix) < 0.25
    assert process.tv_from_uniform(imix - TV_MIX_TIME_TOL) >= 0.25


def test_interchange_tv_mix_past_the_guard_is_a_cap():
    # a connected graph is not degenerate: the time reached is the cap
    with pytest.raises(CapError, match="by time 1.07374e"):
        interchange_tv_mix_exact(_weak_first_edge(1e-12))


def test_interchange_tv_mix_below_the_guard_is_unchanged():
    assert interchange_tv_mix_exact(_weak_first_edge(1e-6)) == pytest.approx(
        823959.674, rel=0.0, abs=1e-3
    )
