import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from interchange.errors import CapError, ParameterError
from interchange.graphs import WeightFunction, complete, cycle, hamming2, path, star
from interchange.group_algebra import (
    PSD_TOL,
    PairOperator,
    delta_of_weights,
    is_psd,
    octopus_gap,
    regular_rep_matrix,
)
from interchange.irreps import (
    YoungOrthogonalRep,
    _block_spectra,
    aldous_check,
    all_spectra,
    assembled_spectrum,
    comparison_constant,
    conjugate_partition,
    content_sum,
    delta_blocks,
    hook_dim,
    kostka_number,
    lambda_kn,
    min_eigenvalue_on_irreps,
    partitions,
    validate_partition,
)
from oracles import (
    PINNED_BLAS,
    adjacent_action,
    adjacent_matrix,
    child_env,
    compose,
    irrep_block,
    matrix,
    standard_tableaux,
    transposition_matrix,
    transposition_perm,
)


def random_connected(rng: np.random.Generator, n: int) -> WeightFunction:
    while True:
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    entries[(i, j)] = float(rng.uniform(0.2, 2.0))
        w = WeightFunction(n, entries)
        if entries and w.is_connected() and (w.vertex_weights > 0).all():
            return w


def test_partitions_order_and_counts():
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions(6)) == 11
    assert len(partitions(10)) == 42
    assert len(partitions(12)) == 77
    with pytest.raises(CapError):
        partitions(13)
    with pytest.raises(CapError, match="^hook_dim capped at n <= 12, got 13$"):
        hook_dim((13,))
    with pytest.raises(CapError):
        partitions(0)


def test_validate_partition():
    assert validate_partition([3, 1], 4) == (3, 1)
    with pytest.raises(ParameterError):
        validate_partition([1, 3])
    with pytest.raises(ParameterError):
        validate_partition([2, 0])
    with pytest.raises(ParameterError):
        validate_partition([3, 1], 5)


def test_conjugate_partition():
    assert conjugate_partition((4, 3, 1)) == (3, 2, 2, 1)
    assert conjugate_partition((5,)) == (1, 1, 1, 1, 1)


def test_hook_dims_known_values():
    assert hook_dim((5,)) == 1
    assert hook_dim((1, 1, 1, 1, 1)) == 1
    assert hook_dim((4, 1)) == 4
    assert hook_dim((2, 1)) == 2
    assert hook_dim((2, 2)) == 2
    assert hook_dim((3, 3)) == 5
    assert hook_dim((4, 3, 2, 1)) == 768


@pytest.mark.parametrize("n", range(2, 9))
def test_dimension_squares_sum_to_group_order(n):
    assert sum(hook_dim(p) ** 2 for p in partitions(n)) == math.factorial(n)


def test_content_and_lambda():
    assert content_sum((3,)) == 3
    assert content_sum((1, 1, 1)) == -3
    assert content_sum((2, 1)) == 0
    assert lambda_kn((3,)) == 0
    assert lambda_kn((2, 1)) == 3
    assert lambda_kn((1, 1, 1)) == 6
    for n in (4, 6, 9):
        assert lambda_kn((n,)) == 0
        assert lambda_kn((n - 1, 1)) == n
        assert lambda_kn(tuple([1] * n)) == n * (n - 1)


def test_lambda_positive_off_trivial():
    for n in range(2, 11):
        for p in partitions(n):
            if p != (n,):
                assert lambda_kn(p) > 0


def test_standard_tableaux_counts_and_validity():
    for n in range(2, 7):
        for p in partitions(n):
            tableaux = standard_tableaux(p)
            assert len(tableaux) == hook_dim(p)
            for t in tableaux:
                for row in t:
                    assert all(a < b for a, b in zip(row, row[1:]))
                for r in range(1, len(t)):
                    assert all(a < b for a, b in zip(t[r - 1], t[r]))


def per_tableau_adjacent(p):
    """The per-tableau definition of the adjacent actions and the branches."""
    tableaux = standard_tableaux(p)
    n = sum(p)
    index = {t: k for k, t in enumerate(tableaux)}
    positions = []
    for t in tableaux:
        pos = [(0, 0)] * n
        for r, row in enumerate(t):
            for c, value in enumerate(row):
                pos[value] = (r, c)
        positions.append(pos)
    actions = []
    for a in range(n - 1):
        diag = np.zeros(len(tableaux))
        off = np.zeros(len(tableaux))
        partner = np.arange(len(tableaux))
        for k, t in enumerate(tableaux):
            r1, c1 = positions[k][a]
            r2, c2 = positions[k][a + 1]
            d = (c2 - r2) - (c1 - r1)
            diag[k] = 1.0 / d
            if abs(d) > 1:
                swapped = tuple(
                    tuple(a + 1 if v == a else a if v == a + 1 else v for v in row) for row in t
                )
                partner[k] = index[swapped]
                off[k] = math.sqrt(1.0 - 1.0 / (d * d))
        actions.append((diag, off, partner))
    branches: dict[int, tuple[list[int], list]] = {}
    for k, t in enumerate(tableaux):
        rest = tuple(row for row in (tuple(v for v in row if v != n - 1) for row in t) if row)
        indices, rests = branches.setdefault(positions[k][n - 1][0], ([], []))
        indices.append(k)
        rests.append(rest)
    return actions, [branches[r] for r in sorted(branches)]


@pytest.mark.parametrize("n", range(1, 11))
def test_array_built_reps_match_per_tableau_definition(n):
    for p in partitions(n):
        rep = YoungOrthogonalRep(p)
        actions, branches = per_tableau_adjacent(p)
        assert rep.dim == len(standard_tableaux(p))
        act = rep._adjacent
        # the rep stores s_{n-2} alone, three arrays of length dim
        assert act.diag.shape == act.off.shape == act.partner.shape == (rep.dim if n > 1 else 0,)
        if n > 1:
            diag, off, partner = actions[n - 2]
            assert np.array_equal(act.diag, diag)
            assert np.array_equal(act.off, off)
            assert np.array_equal(act.partner, partner)
        # every s_a, the ones below s_{n-2} read off the sub-reps through branches
        for a, (diag, off, partner) in enumerate(actions):
            for got, expected in zip(adjacent_action(rep, a), (diag, off, partner)):
                assert np.array_equal(got, expected)
            want = np.zeros((rep.dim, rep.dim))
            want[np.arange(rep.dim), np.arange(rep.dim)] = diag
            want[np.arange(rep.dim), partner] += off
            assert np.array_equal(adjacent_matrix(rep, a), want)
        assert len(rep.branches) == len(branches)
        for (mu, index), (indices, rests) in zip(rep.branches, branches):
            assert index.tolist() == indices
            # less n-1, the tableaux holding n-1 in one corner are mu's basis in mu's order
            assert rests == (standard_tableaux(mu) if mu else [()])


def random_pair_coefficients(draw, n: int, values) -> np.ndarray:
    c = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            c[i, j] = c[j, i] = draw(values)
    return c


@st.composite
def signed_operators(draw, max_n: int = 7) -> PairOperator:
    """Signed c on n <= max_n points with a random pattern of zero pairs."""
    n = draw(st.integers(2, max_n))
    values = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    return PairOperator(random_pair_coefficients(draw, n, values))


@settings(max_examples=40, deadline=None)
@given(signed_operators())
def test_branching_blocks_match_transposition_sum(op):
    n = op.n
    scale = np.abs(op.c).sum()
    for p, block in delta_blocks(op, partitions(n)):
        rep = YoungOrthogonalRep(p)
        want = np.zeros((rep.dim, rep.dim))
        for i, j, c in op.pairs():
            want += c * (np.eye(rep.dim) - transposition_matrix(rep, i, j))
        assert np.abs(block - want).max() <= 1e-12 * scale
        # no -0 entry, which _branch's order of operations relies on
        assert not np.signbit(block[block == 0]).any()
        # built alone, without the other targets' shared sub-blocks
        assert np.array_equal(dict(delta_blocks(op, [p]))[p], block)


@settings(max_examples=40, deadline=None)
@given(signed_operators(), st.randoms(use_true_random=False))
def test_conjugate_spectra_match_direct_blocks(op, random):
    # the conjugate of a pair is read off the other's spectrum, whatever the
    # order of the targets; every block is also solved directly here
    targets = partitions(op.n)
    random.shuffle(targets)
    spectra = _block_spectra(op, targets)
    assert list(spectra) == targets
    direct = {p: dict(delta_blocks(op, [p]))[p] for p in targets}
    scale = max(float(np.abs(block).max()) for block in direct.values())
    tol = 1e-12 * scale
    for p, block in direct.items():
        want = np.linalg.eigvalsh(block)
        assert np.abs(spectra[p].eigenvalues - want).max() <= tol
    min_eig = min_eigenvalue_on_irreps(op)
    assert min_eig == pytest.approx(min(float(np.linalg.eigvalsh(b)[0]) for b in direct.values()),
                                    abs=tol)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_psd_tolerance_is_the_same_on_both_routes(n):
    # -Delta_path has minimum eigenvalue -2(n-1): the sign block.  The largest
    # regular entry is n-1, so tol = 1.5 tolerates only -1.5(n-1), on the
    # regular route (n = 5) and on the irrep route (n = 6, 7) alike
    verdict = is_psd(PairOperator(-delta_of_weights(path(n)).c), tol=1.5)
    assert verdict.psd is False
    assert verdict.min_eigenvalue == pytest.approx(-2.0 * (n - 1), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(signed_operators(), st.sampled_from([PSD_TOL, 0.1, 0.5, 1.0, 1.5]))
@example(PairOperator(-delta_of_weights(path(6)).c), 1.5)
def test_psd_tolerance_is_the_largest_regular_entry(op, tol):
    m = regular_rep_matrix(op)
    scale = max(m.max(), -m.min())  # np.abs(m).max(), without a copy of m
    del m
    verdict = is_psd(op, tol=tol)
    assume(abs(verdict.min_eigenvalue + tol * scale) > 1e-9 * scale)
    assert verdict.psd == (verdict.min_eigenvalue >= -tol * scale)


@pytest.mark.parametrize("n", range(1, 11))
def test_kostka_numbers_count_the_young_subgroup_cosets(n):
    # Young's rule: the permutation module of S_mu has dimension n! / prod(mu_i!)
    for mu in partitions(n):
        cosets = math.factorial(n) // math.prod(map(math.factorial, mu))
        assert sum(hook_dim(p) * kostka_number(p, mu) for p in partitions(n)) == cosets
    for p in partitions(n):
        assert kostka_number(p, p) == 1
        assert kostka_number(p, (1,) * n) == hook_dim(p)


def test_generator_kernels_are_exactly_zero():
    # components {0, 1, 2}, {3, 4}, {5}: mu = (3, 2, 1)
    w = WeightFunction(6, {(0, 1): 1.0, (1, 2): 0.7, (0, 2): 0.1, (3, 4): 1.3})
    assert w.component_sizes() == (3, 2, 1)
    for s in all_spectra(w):
        kernel = kostka_number(s.partition, (3, 2, 1))
        assert (s.eigenvalues[:kernel] == 0.0).all()
        assert (s.eigenvalues[kernel:] > 1e-3).all()
    assert irrep_block(path(5), (5,)).eigenvalues.tolist() == [0.0]


def test_is_psd_solves_one_block_per_conjugate_pair(monkeypatch):
    sizes = []
    solve = np.linalg.eigvalsh

    def counted(block):
        sizes.append(len(block))
        return solve(block)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    n = 10
    dense = np.random.default_rng(10).uniform(0.5, 1.5, (n, n))
    assert is_psd(PairOperator(np.triu(dense, 1) + np.triu(dense, 1).T)).psd
    # 20 conjugate pairs and the self-conjugate [5,2,1,1,1] and [4,3,2,1]
    kept = [p for p in partitions(n) if p >= conjugate_partition(p)]
    assert len(sizes) == len(kept) == 22
    assert sorted(sizes) == sorted(hook_dim(p) for p in kept)


def test_last_point_sums_take_one_conjugation_per_node(monkeypatch):
    # column k-1 of c conjugates once for each partition of j, 3 <= j <= k, that
    # its Horner recursion reaches; below j = 3 the prefix of the column is empty
    calls = []
    conjugate = YoungOrthogonalRep._conjugate

    def counted(rep, m):
        calls.append((rep.partition, m.shape))
        return conjugate(rep, m)

    monkeypatch.setattr(YoungOrthogonalRep, "_conjugate", counted)
    n = 8
    dense = np.random.default_rng(18).uniform(0.5, 1.5, (n, n))
    list(delta_blocks(PairOperator(np.triu(dense, 1) + np.triu(dense, 1).T), partitions(n)))
    assert len(calls) == sum(len(partitions(j)) for k in range(3, n + 1) for j in range(3, k + 1))
    assert all(shape == (hook_dim(p),) * 2 for p, shape in calls)
    calls.clear()
    # a path touches only the pair (k-2, k-1) of each column: no conjugation at all
    list(delta_blocks(delta_of_weights(path(n)), partitions(n)))
    assert calls == []


@st.composite
def operators_on_a_support(draw, max_n: int = 6) -> PairOperator:
    """Quarter-integer signed c in [-3, 3] on a random subset of n <= max_n points.

    Quarter integers keep negative eigenvalues away from the tolerance band,
    where rounding could split a verdict.
    """
    n = draw(st.integers(2, max_n))
    support = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    values = st.integers(-12, 12).map(lambda q: q / 4)
    c = np.zeros((n, n))
    c[np.ix_(support, support)] = random_pair_coefficients(draw, len(support), values)
    return PairOperator(c)


def single_pair(n: int, i: int, j: int, c: float) -> PairOperator:
    m = np.zeros((n, n))
    m[i, j] = m[j, i] = c
    return PairOperator(m)


@settings(max_examples=30, deadline=None)
@given(operators_on_a_support())
@example(PairOperator(np.zeros((6, 6))))
@example(single_pair(6, 2, 5, -1.5))
@example(single_pair(6, 1, 4, 0.75))
def test_support_route_matches_regular_route(op):
    m = regular_rep_matrix(op)
    regular = float(np.linalg.eigvalsh(m).min())
    irrep = min_eigenvalue_on_irreps(op)
    verdict = is_psd(op)
    assert irrep == pytest.approx(regular, abs=1e-9)
    assert verdict.min_eigenvalue == pytest.approx(regular, abs=1e-9)
    assert verdict.psd == (regular >= -PSD_TOL * np.abs(m).max())
    if not op.c.any():
        assert irrep == 0.0
        assert tuple(verdict) == (True, 0.0)


def test_yor_adjacent_matrices_standard_block():
    rep = YoungOrthogonalRep((2, 1))
    a0 = adjacent_matrix(rep, 0)
    a1 = adjacent_matrix(rep, 1)
    assert np.allclose(a0, np.diag([1.0, -1.0]))
    root3 = math.sqrt(3.0) / 2.0
    assert np.allclose(a1, np.array([[-0.5, root3], [root3, 0.5]]))


def test_yor_matrices_are_symmetric_orthogonal_involutions():
    for n in (3, 4, 5):
        for p in partitions(n):
            rep = YoungOrthogonalRep(p)
            for a in range(n - 1):
                m = adjacent_matrix(rep, a)
                assert np.allclose(m, m.T, atol=1e-12)
                assert np.allclose(m @ m, np.eye(rep.dim), atol=1e-12)


def test_yor_braid_and_commutation_relations():
    for p in partitions(5):
        rep = YoungOrthogonalRep(p)
        mats = [adjacent_matrix(rep, a) for a in range(4)]
        for a in range(3):
            lhs = mats[a] @ mats[a + 1] @ mats[a]
            rhs = mats[a + 1] @ mats[a] @ mats[a + 1]
            assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(mats[0] @ mats[2], mats[2] @ mats[0], atol=1e-12)


def test_general_transpositions_are_involutions():
    for p in [(3, 2), (2, 2, 1), (4, 1)]:
        rep = YoungOrthogonalRep(p)
        for i in range(rep.n):
            for j in range(i + 1, rep.n):
                m = transposition_matrix(rep, i, j)
                assert np.allclose(m, m.T, atol=1e-12)
                assert np.allclose(m @ m, np.eye(rep.dim), atol=1e-12)


def test_matrix_is_a_homomorphism():
    rng = np.random.default_rng(10)
    rep = YoungOrthogonalRep((3, 2))
    assert np.allclose(matrix(rep, tuple(range(5))), np.eye(rep.dim))
    for _ in range(20):
        p = tuple(rng.permutation(5))
        q = tuple(rng.permutation(5))
        assert np.allclose(
            matrix(rep, compose(p, q)), matrix(rep, p) @ matrix(rep, q), atol=1e-12
        )
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.allclose(
                matrix(rep, transposition_perm(5, i, j)),
                transposition_matrix(rep, i, j),
                atol=1e-12,
            )


def test_transposition_matrix_two_one_shape():
    m = transposition_matrix(YoungOrthogonalRep((2, 1)), 0, 1)
    assert np.allclose(m, np.diag([1.0, -1.0]))


def test_delta_on_irrep_path3():
    spectrum = irrep_block(path(3), (2, 1))
    assert np.allclose(spectrum.eigenvalues, [1.0, 3.0], atol=1e-10)
    sign = irrep_block(path(3), (1, 1, 1))
    assert np.allclose(sign.eigenvalues, [4.0], atol=1e-10)


def test_delta_on_trivial_block_is_zero():
    rng = np.random.default_rng(11)
    w = random_connected(rng, 5)
    spectrum = irrep_block(w, (5,))
    assert np.allclose(spectrum.eigenvalues, [0.0], atol=1e-12)


def test_delta_on_sign_block_is_total_weight():
    rng = np.random.default_rng(12)
    w = random_connected(rng, 4)
    spectrum = irrep_block(w, (1, 1, 1, 1))
    assert np.allclose(spectrum.eigenvalues, [w.total_weight], atol=1e-10)


@pytest.mark.parametrize("n", range(2, 9))
def test_complete_graph_blocks_are_scalar(n):
    for p, block in delta_blocks(delta_of_weights(complete(n)), partitions(n)):
        target = float(lambda_kn(p))
        assert np.abs(block - target * np.eye(len(block))).max() <= 1e-9 * max(target, 1.0)


def test_standard_block_matches_graph_laplacian():
    rng = np.random.default_rng(13)
    for n in (3, 4, 5, 6):
        w = random_connected(rng, n)
        laplacian = np.diag(w.vertex_weights) - w.dense()
        lap_eigs = np.sort(np.linalg.eigvalsh(laplacian))
        block = irrep_block(w, (n - 1, 1) if n > 2 else (1, 1))
        assert np.allclose(block.eigenvalues, lap_eigs[1:], atol=1e-9)


def test_min_eigenvalue_on_irreps_matches_regular_route():
    rng = np.random.default_rng(15)
    w = random_connected(rng, 4)
    gap = delta_of_weights(w)
    min_eig = min_eigenvalue_on_irreps(gap)
    direct = float(np.linalg.eigvalsh(regular_rep_matrix(gap)).min())
    assert min_eig == pytest.approx(direct, abs=1e-9)


def test_aldous_check_path3():
    report = aldous_check(all_spectra(path(3)))
    assert report.holds
    assert report.spectral_gap == pytest.approx(1.0, abs=1e-10)
    assert report.worst_partition == (1, 1, 1)
    assert report.margin == pytest.approx(3.0, abs=1e-10)


def test_aldous_check_two_vertices():
    report = aldous_check(all_spectra(complete(2)))
    assert report.holds
    assert report.worst_partition is None
    assert math.isinf(report.margin)


def test_aldous_worst_partition_star5():
    # [3, 2] and [3, 1, 1] both have lambda_min = 2; the tie goes to the
    # first in partition order, whichever side rounding puts each value
    spectra = all_spectra(star(5))
    assert aldous_check(spectra).worst_partition == (3, 2)
    for shift in (-1e-13, 1e-13):
        nudged = [
            dataclasses.replace(s, eigenvalues=s.eigenvalues + shift)
            if s.partition == (3, 1, 1) else s
            for s in spectra
        ]
        report = aldous_check(nudged)
        assert report.worst_partition == (3, 2)
        assert report.margin == pytest.approx(1.0 + min(shift, 0.0), abs=1e-15)


def test_aldous_random_graphs():
    rng = np.random.default_rng(16)
    for _ in range(15):
        w = random_connected(rng, int(rng.integers(3, 7)))
        assert aldous_check(all_spectra(w)).holds


def test_comparison_constant_path3():
    report = comparison_constant(path(3))
    assert report.a_star == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert report.argmin_partition == (2, 1)
    assert report.aldous.spectral_gap == pytest.approx(1.0, abs=1e-10)
    assert report.theorem_bound == pytest.approx(report.a_star / report.empirical_c)
    by_partition = {row.partition: row for row in report.rows}
    assert by_partition[(3,)].ratio is None
    assert by_partition[(2, 1)].ratio == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert by_partition[(1, 1, 1)].ratio == pytest.approx(4.0 / 6.0, abs=1e-10)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_comparison_constant_complete_is_one(n):
    report = comparison_constant(complete(n))
    assert report.a_star == pytest.approx(1.0, abs=1e-9)
    assert report.aldous.spectral_gap == pytest.approx(n, abs=1e-9)


def test_comparison_constant_positive_iff_connected():
    rng = np.random.default_rng(17)
    for _ in range(10):
        w = random_connected(rng, 5)
        assert comparison_constant(w).a_star > 0
    split = WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0})
    report = comparison_constant(split)
    assert report.a_star == pytest.approx(0.0, abs=1e-10)
    assert report.theorem_bound is None
    assert report.empirical_c is None


def test_comparison_constant_known_graphs():
    # the 4-cycle: Laplacian gap 2 against complete-graph scalar 4
    report = comparison_constant(hamming2(2))
    assert report.aldous.spectral_gap == pytest.approx(2.0, abs=1e-9)
    assert 0.0 < report.a_star <= 0.5 + 1e-12
    report = comparison_constant(star(5))
    assert report.a_star > 0


@st.composite
def connected_weights(draw, max_n: int = 7) -> WeightFunction:
    """A random spanning tree plus random extra pairs, all weights in [0.1, 5]."""
    n = draw(st.integers(2, max_n))
    weight = st.floats(0.1, 5.0)
    entries = {(draw(st.integers(0, v - 1)), v): draw(weight) for v in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in entries and draw(st.booleans()):
                entries[(i, j)] = draw(weight)
    return WeightFunction(n, entries)


@settings(max_examples=40, deadline=None)
@given(connected_weights(max_n=5))
def test_assembled_spectrum_matches_regular_representation(w):
    direct = np.sort(np.linalg.eigvalsh(regular_rep_matrix(delta_of_weights(w))))
    assert np.allclose(assembled_spectrum(w), direct, rtol=0, atol=1e-12 * direct[-1])


@settings(max_examples=40, deadline=None)
@given(connected_weights())
def test_aldous_gap_is_laplacian_gap(w):
    # independent oracle for the [n-1, 1] block: the weighted graph Laplacian
    laplacian = np.diag(w.vertex_weights) - w.dense()
    want = np.linalg.eigvalsh(laplacian)[1]
    assert comparison_constant(w).aldous.spectral_gap == pytest.approx(want, abs=1e-9)


def test_all_spectra_sizes():
    w = cycle(5)
    spectra = all_spectra(w)
    assert [s.partition for s in spectra] == partitions(5)
    assert sum(s.dim ** 2 for s in spectra) == 120
    for s in spectra:
        assert s.eigenvalues.shape == (s.dim,)
        assert s.eigenvalues.min() >= -1e-9


def test_irrep_cap():
    with pytest.raises(CapError):
        YoungOrthogonalRep((11,))
    with pytest.raises(CapError):
        all_spectra(complete(11))


@pytest.mark.parametrize("route", [comparison_constant, all_spectra], ids=lambda f: f.__name__)
def test_spectral_routes_refuse_before_building(route):
    # path(1024)'s dense generator and PairOperator's copy of it take 17 MB, so
    # a route must refuse before it builds them
    w = path(1024)
    with pytest.raises(CapError):
        route(w)  # loads whatever the route imports
    tracemalloc.start()
    try:
        with pytest.raises(CapError, match="^irreducible blocks capped at 10 points, got 1024$"):
            route(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# SHA-256 of the eigenvalue bytes of all_spectra, partition after partition,
# and the octopus verdict at n = 10, all made under PINNED_BLAS
RECORDED_SPECTRA = {
    "star:10": "f0b9689c5446820f6528503a1039029d27908738feecfa4db3436c30028047ed",
    "hamming2:3": "7a1d9b07acf7f6a59e3e4c2bfe721d1fefa7c635e0d1ebc28c366eb9d04757c4",
    "path:10": "018c94db331d84eea2db0bd7b219a355f793352d2ae27750f7605d5eae729465",
}
RECORDED_OCTOPUS_10 = [True, -1.2434497875801753e-14]


def test_irrep_spectra_are_bit_for_bit_the_recorded_ones():
    # the blocks are built in place, in one buffer, with every zero's sign
    # kept: a flipped zero moves LAPACK's reflectors and so the spectra's bits
    code = (
        "import hashlib, json, sys\n"
        "from interchange.graphs import parse_graph_spec\n"
        "from interchange.group_algebra import is_psd, octopus_gap\n"
        "from interchange.irreps import all_spectra\n"
        "digests = {}\n"
        "for spec in json.loads(sys.argv[1]):\n"
        "    digest = hashlib.sha256()\n"
        "    for spectrum in all_spectra(parse_graph_spec(spec)):\n"
        "        digest.update(spectrum.eigenvalues.tobytes())\n"
        "    digests[spec] = digest.hexdigest()\n"
        "verdict = is_psd(octopus_gap(10, 0, [1.0] * 9))\n"
        "print(json.dumps([digests, list(verdict)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(sorted(RECORDED_SPECTRA))],
        capture_output=True, text=True, check=True, env=child_env(**PINNED_BLAS),
    )
    digests, verdict = json.loads(proc.stdout)
    assert digests == RECORDED_SPECTRA
    assert verdict == RECORDED_OCTOPUS_10


def test_octopus_check_at_n10_holds_one_top_level_block():
    # every partition of 10 branches to the partitions of 9, so the shared
    # sub-blocks and last-point sums on S_9 take 2 * 9! entries (5.5 MiB); the
    # top-level blocks share one buffer of 768 x 768 (4.5 MiB).  A second
    # array that size, such as a separate last-point sum, would pass 12 MiB:
    # 11.3 MiB measured, with the Young reps built inside
    tracemalloc.start()
    try:
        verdict = is_psd(octopus_gap(10, 0, [1.0] * 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.psd
    assert peak <= 12 * 2**20


def test_delta_blocks_yields_views_of_one_buffer():
    # a block is valid until the next is yielded: copy it to keep it
    op = delta_of_weights(path(5))
    blocks = [(p, block.copy(), block) for p, block in delta_blocks(op, partitions(5))]
    for p, kept, view in blocks:
        assert np.array_equal(kept, dict(delta_blocks(op, [p]))[p])
        assert np.shares_memory(view, blocks[0][2])
