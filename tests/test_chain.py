import math

import numpy as np
import pytest

from interchange.chain import (
    BoundCheckReport,
    DeltaResult,
    LazyChain,
    delta,
    double_weight,
    is_regular,
    lazy_chain,
    lift_lazy,
    lmix,
    min_stationary_ratio,
    mixing_report,
    tv_distance,
    tv_mix,
    verify_probability_bounds,
)
from interchange.errors import DegenerateWeightError, DisconnectedError
from interchange.graphs import WeightFunction, complete, cycle, hamming2, hypercube, path, star


def random_connected(rng: np.random.Generator, n: int) -> WeightFunction:
    """Random positive weights on a random connected support."""
    while True:
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    entries[(i, j)] = float(rng.uniform(0.2, 3.0))
        w = WeightFunction(n, entries)
        if entries and w.is_connected() and (w.vertex_weights > 0).all():
            return w


def brute_force_lmix(chain: LazyChain, cap: int = 4096) -> int:
    """Independent oracle: scan t = 1, 2, ... with plain repeated multiplication."""
    p = np.eye(chain.n)
    for t in range(1, cap + 1):
        p = p @ chain.matrix
        if (p / chain.pi[None, :]).min() > 0.75 + 1e-12:
            return t
    raise AssertionError("oracle cap reached")


def brute_force_tv_mix(chain: LazyChain, cap: int = 4096) -> int:
    p = np.eye(chain.n)
    for t in range(1, cap + 1):
        p = p @ chain.matrix
        if 0.5 * np.abs(p - chain.pi[None, :]).sum(axis=1).max() < 0.25 - 1e-12:
            return t
    raise AssertionError("oracle cap reached")


def test_complete3_transition_matrix():
    chain = lazy_chain(complete(3))
    expected = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    assert np.allclose(chain.matrix, expected)
    assert np.allclose(chain.pi, 1 / 3)


def test_complete3_two_step_probabilities():
    chain = lazy_chain(complete(3))
    p2 = chain.power(2)
    assert np.allclose(np.diag(p2), 3 / 8)
    off = p2[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 5 / 16)


def test_star4_stationary():
    chain = lazy_chain(star(4))
    assert math.isclose(chain.pi[0], 0.5)
    assert np.allclose(chain.pi[1:], 1 / 6)
    # leaves never hop to each other in one step
    assert chain.matrix[1, 2] == 0.0


def test_transition_power_zero_is_identity():
    chain = lazy_chain(path(4))
    assert np.array_equal(chain.power(0), np.eye(4))


def test_lmix_complete3_is_two():
    # at t = 1 the off-diagonal ratio ties the 3/4 threshold exactly, so the
    # strict comparison pushes lmix to 2
    chain = lazy_chain(complete(3))
    assert lmix(chain) == 2
    assert min_stationary_ratio(chain, 1) == pytest.approx(0.75, abs=1e-12)


def test_lmix_complete2_is_one():
    chain = lazy_chain(complete(2))
    assert lmix(chain) == 1
    assert brute_force_lmix(chain) == 1


def test_tv_mix_complete3_is_one():
    chain = lazy_chain(complete(3))
    assert tv_distance(chain, 1) == pytest.approx(1 / 6)
    assert tv_mix(chain) == 1


@pytest.mark.parametrize(
    "w",
    [complete(2), complete(3), complete(5), path(3), path(5), star(4), cycle(5), hamming2(2)],
)
def test_lmix_and_tv_mix_match_brute_force(w):
    chain = lazy_chain(w)
    assert lmix(chain) == brute_force_lmix(chain)
    assert tv_mix(chain) == brute_force_tv_mix(chain)


def test_lmix_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        chain = lazy_chain(random_connected(rng, int(rng.integers(3, 7))))
        assert lmix(chain) == brute_force_lmix(chain)
        assert tv_mix(chain) == brute_force_tv_mix(chain)


def test_disconnected_mixing_times_infinite():
    w = WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0})
    chain = lazy_chain(w)
    assert lmix(chain) == math.inf
    assert tv_mix(chain) == math.inf
    with pytest.raises(DisconnectedError):
        delta(chain)


def test_isolated_vertex_rejected():
    w = WeightFunction(3, {(0, 1): 1.0})
    with pytest.raises(DegenerateWeightError):
        lazy_chain(w)


def test_delta_complete3():
    chain = lazy_chain(complete(3))
    result = delta(chain)
    assert isinstance(result, DeltaResult)
    assert result.epsilons == (0.5, 0.375)
    assert result.delta == pytest.approx(16 / 33, abs=1e-12)


def test_delta_complete2():
    # lmix = 1, single factor 1 + 1/2
    result = delta(lazy_chain(complete(2)))
    assert result.epsilons == (0.5,)
    assert result.delta == pytest.approx(2 / 3, abs=1e-12)


def test_delta_lower_bound_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        chain = lazy_chain(random_connected(rng, int(rng.integers(3, 7))))
        lm = lmix(chain)
        result = delta(chain, lm)
        assert result.delta >= 1.0 / (2.0 * lm) - 1e-12
        assert 0.0 < result.delta < 1.0


def test_sandwich_on_standard_graphs():
    for w in [complete(3), complete(5), path(4), star(5), cycle(6), hypercube(3)]:
        chain = lazy_chain(w)
        lm, mx = lmix(chain), tv_mix(chain)
        assert lm / 8.0 <= mx <= lm


def test_monotone_profiles():
    for w in [complete(4), path(5), cycle(6)]:
        chain = lazy_chain(w)
        lm = lmix(chain)
        ratios = [min_stationary_ratio(chain, t) for t in range(0, int(lm) + 4)]
        tvs = [tv_distance(chain, t) for t in range(0, int(lm) + 4)]
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))


def test_scale_invariance_of_mixing():
    w = path(4)
    for factor in (0.25, 3.0, 17.5):
        a, b = lazy_chain(w), lazy_chain(w.scaled(factor))
        assert np.allclose(a.matrix, b.matrix)
        assert lmix(a) == lmix(b)


def test_is_regular():
    assert is_regular(complete(4))
    assert is_regular(cycle(5))
    assert is_regular(hamming2(3))
    assert not is_regular(path(3))
    assert not is_regular(star(4))
    assert not is_regular(WeightFunction(3, {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 1.0}))


def test_clause_diagnostics_path3():
    w = path(3)
    report = mixing_report(w)
    diag = report.clause_bounds
    assert diag.edge_degree_ratio_sq == pytest.approx((1 / 2) ** 2)
    assert diag.regular is False
    assert diag.half_inverse_lmix == pytest.approx(1 / (2 * report.lmix))
    assert report.delta >= diag.half_inverse_lmix


def test_theorem_bound_complete3():
    assert mixing_report(complete(3)).theorem_bound == pytest.approx(16 / 99, abs=1e-12)


def test_theorem_bound_scaling():
    # delta and lmix are scale free while min w_i^2 / w_tot is linear in scale
    w = cycle(5)
    bound = mixing_report(w).theorem_bound
    assert mixing_report(w.scaled(2.0)).theorem_bound == pytest.approx(2.0 * bound)


def test_mixing_report_complete3():
    report = mixing_report(complete(3))
    assert report.lmix == 2
    assert report.mix == 1
    assert report.delta == pytest.approx(16 / 33)
    assert report.theorem_bound == pytest.approx(16 / 99)
    assert report.clause_bounds.regular is True


def test_mixing_report_disconnected():
    report = mixing_report(WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0}))
    assert math.isinf(report.lmix)
    assert report.delta is None
    assert report.theorem_bound is None


def test_lift_lazy_complete3():
    u = lift_lazy(complete(3))
    assert np.allclose(np.diag(u.matrix), 2.0)
    assert np.allclose(u.vertex_weights, 4.0)
    assert u.epsilon == pytest.approx(0.5)


def test_double_preserves_row_masses():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = random_connected(rng, 5)
        u = lift_lazy(w)
        u2 = double_weight(u)
        assert np.allclose(u2.vertex_weights, u.vertex_weights)


def test_double_complete3_values():
    u2 = double_weight(lift_lazy(complete(3)))
    # u2_ij = u_i * p_2(i, j): 4 * 5/16 off the diagonal, 4 * 3/8 on it
    assert np.allclose(np.diag(u2.matrix), 1.5)
    off = u2.matrix[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 1.25)


def test_iterated_doubling_tracks_dyadic_powers():
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = random_connected(rng, 5)
        chain = lazy_chain(w)
        u = lift_lazy(w)
        for k in range(1, 4):
            u = double_weight(u)
            expected = u.vertex_weights[:, None] * chain.dyadic_power(k)
            assert np.allclose(u.matrix, expected, rtol=1e-9)


def test_lift_epsilon_routes_agree():
    # eps_k from the chain diagonal equals the doubled lift's diagonal fraction
    rng = np.random.default_rng(9)
    for _ in range(5):
        w = random_connected(rng, 5)
        chain = lazy_chain(w)
        u = double_weight(lift_lazy(w))
        for k in (1, 2):
            if k > 1:
                u = double_weight(u)
            eps_chain = float(np.diag(chain.dyadic_power(k)).max())
            assert u.epsilon == pytest.approx(eps_chain, rel=1e-9)


def test_probability_bounds_on_suite_graphs():
    for w in [complete(3), complete(5), path(4), star(5)]:
        chain = lazy_chain(w)
        report = verify_probability_bounds(chain, w)
        assert isinstance(report, BoundCheckReport)
        assert report.holds
        assert report.regular_holds in (True, None)


def test_probability_bounds_regular_branch():
    w = cycle(6)
    report = verify_probability_bounds(lazy_chain(w), w)
    assert report.regular
    assert report.regular_holds
    assert report.regular_worst_slack >= 0.0


def test_probability_bounds_disconnected_rejected():
    w = WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(DisconnectedError):
        verify_probability_bounds(lazy_chain(w), w)
