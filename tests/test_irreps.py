import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interchange.errors import CapError, ParameterError
from interchange.graphs import WeightFunction, complete, cycle, hamming2, path, star
from interchange.group_algebra import (
    all_perms,
    compose,
    delta_of_weights,
    regular_rep_matrix,
    transposition_perm,
)
from interchange.irreps import (
    YoungOrthogonalRep,
    aldous_check,
    all_spectra,
    assembled_spectrum,
    comparison_constant,
    conjugate_partition,
    content_sum,
    delta_on_irrep,
    hook_dim,
    lambda_kn,
    min_eigenvalue_on_irreps,
    partitions,
    standard_tableaux,
    validate_partition,
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


def test_yor_adjacent_matrices_standard_block():
    rep = YoungOrthogonalRep((2, 1))
    a0 = rep.adjacent_matrix(0)
    a1 = rep.adjacent_matrix(1)
    assert np.allclose(a0, np.diag([1.0, -1.0]))
    root3 = math.sqrt(3.0) / 2.0
    assert np.allclose(a1, np.array([[-0.5, root3], [root3, 0.5]]))


def test_yor_matrices_are_symmetric_orthogonal_involutions():
    for n in (3, 4, 5):
        for p in partitions(n):
            rep = YoungOrthogonalRep(p)
            for a in range(n - 1):
                m = rep.adjacent_matrix(a)
                assert np.allclose(m, m.T, atol=1e-12)
                assert np.allclose(m @ m, np.eye(rep.dim), atol=1e-12)


def test_yor_braid_and_commutation_relations():
    for p in partitions(5):
        rep = YoungOrthogonalRep(p)
        mats = [rep.adjacent_matrix(a) for a in range(4)]
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
                m = rep.transposition_matrix(i, j)
                assert np.allclose(m, m.T, atol=1e-12)
                assert np.allclose(m @ m, np.eye(rep.dim), atol=1e-12)


def test_matrix_is_a_homomorphism():
    rng = np.random.default_rng(10)
    rep = YoungOrthogonalRep((3, 2))
    assert np.allclose(rep.matrix(tuple(range(5))), np.eye(rep.dim))
    for _ in range(20):
        p = tuple(rng.permutation(5))
        q = tuple(rng.permutation(5))
        assert np.allclose(
            rep.matrix(compose(p, q)), rep.matrix(p) @ rep.matrix(q), atol=1e-12
        )
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.allclose(
                rep.matrix(transposition_perm(5, i, j)),
                rep.transposition_matrix(i, j),
                atol=1e-12,
            )


def test_transposition_matrix_two_one_shape():
    m = YoungOrthogonalRep((2, 1)).transposition_matrix(0, 1)
    assert np.allclose(m, np.diag([1.0, -1.0]))


def test_delta_on_irrep_path3():
    spectrum = delta_on_irrep(path(3), (2, 1))
    assert np.allclose(spectrum.eigenvalues, [1.0, 3.0], atol=1e-10)
    sign = delta_on_irrep(path(3), (1, 1, 1))
    assert np.allclose(sign.eigenvalues, [4.0], atol=1e-10)


def test_delta_on_trivial_block_is_zero():
    rng = np.random.default_rng(11)
    w = random_connected(rng, 5)
    spectrum = delta_on_irrep(w, (5,))
    assert np.allclose(spectrum.eigenvalues, [0.0], atol=1e-12)


def test_delta_on_sign_block_is_total_weight():
    rng = np.random.default_rng(12)
    w = random_connected(rng, 4)
    spectrum = delta_on_irrep(w, (1, 1, 1, 1))
    assert np.allclose(spectrum.eigenvalues, [w.total_weight], atol=1e-10)


@pytest.mark.parametrize("n", range(2, 9))
def test_complete_graph_blocks_are_scalar(n):
    w = complete(n)
    for p in partitions(n):
        rep = YoungOrthogonalRep(p)
        block = rep.delta_matrix(delta_of_weights(w))
        target = float(lambda_kn(p))
        assert np.abs(block - target * np.eye(rep.dim)).max() <= 1e-9 * max(target, 1.0)


def test_standard_block_matches_graph_laplacian():
    rng = np.random.default_rng(13)
    for n in (3, 4, 5, 6):
        w = random_connected(rng, n)
        laplacian = np.diag(w.vertex_weights) - w.dense()
        lap_eigs = np.sort(np.linalg.eigvalsh(laplacian))
        block = delta_on_irrep(w, (n - 1, 1) if n > 2 else (1, 1))
        assert np.allclose(block.eigenvalues, lap_eigs[1:], atol=1e-9)


def test_assembled_spectrum_matches_regular_representation():
    rng = np.random.default_rng(14)
    for n in (3, 4):
        w = random_connected(rng, n)
        direct = np.sort(np.linalg.eigvalsh(regular_rep_matrix(delta_of_weights(w))))
        assert np.allclose(assembled_spectrum(w), direct, atol=1e-8)


def test_min_eigenvalue_on_irreps_matches_regular_route():
    rng = np.random.default_rng(15)
    w = random_connected(rng, 4)
    gap = delta_of_weights(w)
    min_eig, scale = min_eigenvalue_on_irreps(gap)
    direct = float(np.linalg.eigvalsh(regular_rep_matrix(gap)).min())
    assert min_eig == pytest.approx(direct, abs=1e-9)
    assert scale > 0


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
