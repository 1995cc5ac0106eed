import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interchange import chain as chain_module
from interchange.chain import (
    TIE_GUARD,
    BoundCheckReport,
    ClauseDiagnostics,
    DeltaResult,
    LazyChain,
    LiftedWeight,
    MixingReport,
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
from interchange.errors import (
    CapError,
    ConsistencyError,
    DegenerateWeightError,
    DisconnectedError,
    ParameterError,
)
from interchange.graphs import (
    MAX_TOTAL_WEIGHT,
    WeightFunction,
    complete,
    cycle,
    hamming2,
    hypercube,
    parse_graph_spec,
    path,
    star,
)
from interchange.group_algebra import (
    PairOperator,
    delta_of_weights,
    doubling_gap,
    doubling_inequality_check,
)
from oracles import dump_weight_file, scaled


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


@st.composite
def connected_weights(draw, max_n: int = 12) -> WeightFunction:
    """Random positive weights on a random spanning tree plus random chords."""
    n = draw(st.integers(2, max_n))
    entries = {}
    for j in range(1, n):
        i = draw(st.integers(0, j - 1))
        entries[(i, j)] = draw(st.floats(0.2, 3.0))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in entries and draw(st.booleans()):
                entries[(i, j)] = draw(st.floats(0.2, 3.0))
    return WeightFunction(n, entries)


def brute_force_lmix(chain: LazyChain, cap: int = 4096) -> int:
    """Independent oracle: scan t = 1, 2, ... with plain repeated multiplication."""
    p = np.eye(chain.n)
    for t in range(1, cap + 1):
        p = p @ chain.dyadic_power(0)
        if (p / chain.pi[None, :]).min() > 0.75 + 1e-12:
            return t
    raise AssertionError("oracle cap reached")


def brute_force_tv_mix(chain: LazyChain, cap: int = 4096) -> int:
    p = np.eye(chain.n)
    for t in range(1, cap + 1):
        p = p @ chain.dyadic_power(0)
        if 0.5 * np.abs(p - chain.pi[None, :]).sum(axis=1).max() < 0.25 - 1e-12:
            return t
    raise AssertionError("oracle cap reached")


def record_products(monkeypatch) -> list[tuple[int, bool]]:
    """(time, whether a square) of each product the chain module makes from now on.

    Whole products go through _checked_product; the mixing search's lifts go
    through _lift, which makes and tests its product by row blocks.
    """
    products = []
    checked, lift = chain_module._checked_product, chain_module._lift

    def counted(a, b, time):
        products.append((time, a is b))
        return checked(a, b, time)

    def counted_lift(failing, factor, time, *rest, **options):
        products.append((time, False))
        return lift(failing, factor, time, *rest, **options)

    monkeypatch.setattr(chain_module, "_checked_product", counted)
    monkeypatch.setattr(chain_module, "_lift", counted_lift)
    return products


def test_complete3_transition_matrix():
    chain = lazy_chain(complete(3))
    expected = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    assert np.allclose(chain.dyadic_power(0), expected)
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
    assert chain.dyadic_power(0)[1, 2] == 0.0


def test_transition_power_zero_is_identity():
    chain = lazy_chain(path(4))
    assert np.array_equal(chain.power(0), np.eye(4))


def test_negative_time_is_a_parameter_error():
    chain = lazy_chain(path(4))
    for call in (chain.power, lambda t: min_stationary_ratio(chain, t),
                 lambda t: tv_distance(chain, t)):
        with pytest.raises(ParameterError):
            call(-1)


def test_power_products_match_popcount(monkeypatch):
    chain = lazy_chain(cycle(6))
    oracle = np.eye(6)
    powers = [oracle]
    for _ in range(40):
        oracle = oracle @ chain.dyadic_power(0)
        powers.append(oracle)
    chain.power(32)  # caches the dyadic powers up to P^32
    products = []
    checked = chain_module._checked_product

    def counted(a, b, time):
        products.append(1)
        return checked(a, b, time)

    monkeypatch.setattr(chain_module, "_checked_product", counted)
    for t in range(1, 41):
        products.clear()
        assert np.allclose(chain.power(t), powers[t], atol=1e-14)
        assert len(products) == bin(t).count("1") - 1
    with pytest.raises(ValueError):
        chain.power(1)[0, 0] = 1.0


@pytest.mark.parametrize(
    "matrix",
    [
        np.ones((2, 3)),
        np.array([[0.0, 1.0], [2.0, 0.0]]),
        np.array([[0.0, -1.0], [-1.0, 0.0]]),
        np.array([[0.0, math.inf], [math.inf, 0.0]]),
        np.full((2, 2), 1e308),
        # nearly symmetric: the triangles disagree in the sixth digit
        np.array([[1.0, 1.0, 0.5], [1.000009, 1.0, 0.2], [0.5, 0.2, 1.0]]),
    ],
)
def test_lifted_weight_rejects_invalid(matrix):
    with pytest.raises(ParameterError):
        LiftedWeight(matrix)


def test_lift_and_doubling_at_the_total_weight_cap():
    # summing the lift of this graph rounds an ulp above 2 MAX_TOTAL_WEIGHT,
    # and the doubled weight carries more than MAX_TOTAL_WEIGHT off its diagonal
    w = scaled(cycle(6), MAX_TOTAL_WEIGHT / 12.0)
    u = lift_lazy(w)
    for _ in range(3):
        u = double_weight(u)
        assert np.allclose(u.vertex_weights, 2.0 * w.vertex_weights, rtol=1e-12, atol=0.0)
    assert doubling_inequality_check(lift_lazy(w)).psd


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
        result = delta(chain)
        assert result.delta >= 1.0 / (2.0 * lm) - 1e-12
        assert 0.0 < result.delta < 1.0


def test_sandwich_on_standard_graphs():
    for w in [complete(3), complete(5), path(4), star(5), cycle(6), hypercube(3)]:
        chain = lazy_chain(w)
        lm, mx = lmix(chain), tv_mix(chain)
        assert lm / 8.0 <= mx <= lm


@settings(max_examples=60)
@given(connected_weights())
def test_sandwich_on_random_weights(w):
    chain = lazy_chain(w)
    lm, mx = lmix(chain), tv_mix(chain)
    assert lm / 8.0 <= mx <= lm


@settings(max_examples=60, deadline=None)
@given(connected_weights())
# lmix = 2 = 2^(k+1) with k = 0: eps_1 is read off the bracketing power
@example(complete(3))
def test_mixing_times_are_first_times_of_a_linear_scan(w):
    chain = lazy_chain(w)
    t = 1
    while not min_stationary_ratio(chain, t) > 0.75 + TIE_GUARD:
        t += 1
    assert lmix(chain) == t
    t = 1
    while not tv_distance(chain, t) < 0.25 - TIE_GUARD:
        t += 1
    assert tv_mix(chain) == t
    # the joint search in mixing_report is bit for bit the separate ones
    report = mixing_report(w)
    reference = delta(lazy_chain(w))
    assert (report.lmix, report.mix) == (lmix(lazy_chain(w)), tv_mix(lazy_chain(w)))
    assert (report.delta, report.epsilons) == (reference.delta, reference.epsilons)
    assert len(report.epsilons) == report.lmix.bit_length()
    for k, eps in enumerate(report.epsilons):
        assert eps == np.diag(lazy_chain(w).dyadic_power(k)).max()


def test_mixing_search_takes_one_product_per_bit(monkeypatch):
    # lmix(path(20)) = 304: P^2 .. P^256 by doubling, then one lift per bit
    # below 256; tv_mix = 137 is bracketed at P^128 and lifts 7 bits below 128.
    # The chi-distances settle three lmix products: the top P^512
    # (s(256)^2 = 0.060) and the lifts to 384 and 320 (s(256) s(128) = 0.145,
    # s(256) s(64) = 0.232), so doubling takes 8 products and lifting 6 + 7.
    # The ladder keeps the even levels, so the odd ones that unsettled lifts
    # read are made again: P^128 (tv_mix's failing power), P^32 and P^8.
    # Below bit 2 each search walks its candidates one product by P at a
    # time (lmix 301, 302, 303; tv_mix 137, which holds), so P^2 is not made
    # again.
    products = record_products(monkeypatch)
    report = mixing_report(path(20))
    assert (report.lmix, report.mix) == (304, 137)
    squares = [time for time, square in products if square]
    assert squares == [2 << k for k in range(8)] + [128, 32, 8]
    assert len(products) == 8 + 3 + 6 + 7


def test_mixing_report_holds_few_matrices():
    # lmix(hypercube(8)) = 26 is bracketed at k = 4.  The ladder holds P^4
    # and P^16 and makes P^8 again when a lift reads it; P is made from the
    # weights once the ladder is released, and each lift is tested by row
    # blocks: 3.70 matrices of 256 x 256 measured, with the 128-row buffer.
    # Making P before P^4 was released, with two buffers, measured 4.32,
    # holding P and remaking P^2 4.8, holding every level up to P^16 beside
    # the lifted powers 6.3 (8.26 before the search freed its ladder).
    n = 256
    tracemalloc.start()
    try:
        report = mixing_report(hypercube(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.lmix == 26
    assert peak <= 3.8 * n * n * 8


def test_slow_search_holds_about_half_its_ladder():
    # lmix(path(256)) = 54749 is bracketed at k = 15, so the search holds
    # about ceil((k + 1) / 2) + 1 = 9 matrices of 256 x 256, beside the
    # 128-row buffer and row-block temporaries: 9.66 measured.  Two buffers
    # and P made before the ladder was released measured 10.29, holding P
    # 10.8, holding every level 17.3.
    n = 256
    tracemalloc.start()
    try:
        report = mixing_report(path(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.lmix == 54749
    assert peak <= 9.8 * n * n * 8


def test_chi_certificates_settle_the_top_and_the_first_lifts(monkeypatch):
    # lmix(hypercube(10)) = 35 is bracketed at k = 5.  s(32)^2 = 0.012 settles
    # the top P^64, and s(32) s(16) = 0.067 and s(32) s(8) = 0.206 settle the
    # lifts to 48 and 40, so no lift reads P^16.  The ladder keeps P^4, P^16
    # and the top P^32, and makes P^8 (tv_mix's failing power) again: 5
    # doublings, 1 remade squaring and the lifts to 12 and 36.  Then the
    # ladder is released, P made from the weights, and each search walks its
    # candidates by P: 13, 14 and 15 all fail, and 15, the last, fails in
    # its first row block and stops there; 33 and 34 fail and 35 holds.
    # That is 13.125 products of 1024 x 1024.  A lift that holds (36 and 35)
    # is never stored, so the search peaks at 3.17 matrices, with the 128-row
    # buffer.  Making P before P^4 was released, with a buffer per factor of
    # a lift through P twice, peaked at 3.33, remaking P^2 beside P, P^12 and
    # P^32 at 4.19, holding every level at 6.08, and the search without
    # certificates at 7.02.
    n = 1024
    products = record_products(monkeypatch)
    lift_rows = []
    matmul = np.matmul

    def counted_matmul(a, b, **options):
        lift_rows.append(len(a))
        return matmul(a, b, **options)

    # _lift multiplies its row blocks with np.matmul, whole products use @
    monkeypatch.setattr(np, "matmul", counted_matmul)
    tracemalloc.start()
    try:
        report = mixing_report(hypercube(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.lmix, report.mix) == (35, 16)
    assert products == [
        (2, True), (4, True), (8, True), (16, True), (32, True),
        (8, True), (12, False), (36, False),
        (13, False), (14, False), (15, False), (33, False), (34, False), (35, False),
    ]
    squares = sum(square for _, square in products)
    assert squares + sum(lift_rows) / n <= 13.125
    assert peak <= 3.2 * n * n * 8


@pytest.mark.parametrize(
    "spec, name, k, offset",
    [
        # brackets k = 0, 1 and 2: the low is 2^k, and no lift precedes the walk
        ("complete:3", "lmix", 0, 1),
        # tv_mix's P^2 was dropped while lmix doubled on, so P^2 is made from P
        ("hypercube:3", "mix", 1, 1),
        ("path:4", "mix", 1, 2),
        ("cycle:5", "lmix", 2, 1),
        ("hamming2:4", "lmix", 2, 2),
        ("hypercube:3", "lmix", 2, 3),
        ("path:4", "lmix", 2, 4),
        # the low the lifts at bits 2 and up leave, 4 floor((t - 1) / 4)
        ("path:6", "lmix", 4, 1),
        ("path:5", "lmix", 3, 2),
        ("path:8", "mix", 4, 3),
        ("cycle:11", "mix", 3, 4),
    ],
)
def test_end_game_walks_to_each_offset_above_the_low(spec, name, k, offset):
    w = parse_graph_spec(spec)
    chain = lazy_chain(w)
    if name == "lmix":
        holds, separate = (lambda t: min_stationary_ratio(chain, t) > 0.75 + TIE_GUARD), lmix
    else:
        holds, separate = (lambda t: tv_distance(chain, t) < 0.25 - TIE_GUARD), tv_mix
    t = 1
    while not holds(t):
        t += 1
    # the case is what it claims: 2^k < t <= 2^(k+1), t = low + offset
    assert (t - 1).bit_length() - 1 == k
    assert t - max(1 << k, (t - 1) // 4 * 4) == offset
    assert separate(lazy_chain(w)) == t
    assert getattr(mixing_report(w), name) == t


def test_a_failing_last_candidate_stops_at_its_first_failing_block(monkeypatch):
    # tv_mix(hypercube(10)) = 16: its low after bit 2 is 12, and the walk's
    # candidates 13, 14 and 15 all fail.  Nothing reads 15, the last, so its
    # lift stops at the first block that fails; 13 and 14 are made whole.
    n, rows = 1024, chain_module._LIFT_ROWS
    multiplied = []
    matmul = np.matmul

    def counted_matmul(a, b, **options):
        multiplied.append(len(a))
        return matmul(a, b, **options)

    monkeypatch.setattr(np, "matmul", counted_matmul)
    lift = chain_module._lift
    lifts = {}

    def recorded(failing, factor, time, holds, *rest, **options):
        outcomes = []

        def recorded_holds(block):
            outcomes.append(holds(block))
            return outcomes[-1]

        start = len(multiplied)
        lifted = lift(failing, factor, time, recorded_holds, *rest, **options)
        lifts[time] = (outcomes, sum(multiplied[start:]))
        return lifted

    monkeypatch.setattr(chain_module, "_lift", recorded)
    assert tv_mix(lazy_chain(hypercube(10))) == 16
    assert sorted(lifts) == [12, 13, 14, 15]
    for time in (13, 14):
        outcomes, made = lifts[time]
        assert outcomes[-1] is False
        assert made == n + rows * (len(outcomes) - 1)
    outcomes, made = lifts[15]
    assert outcomes == [True] * (len(outcomes) - 1) + [False]
    assert made == rows * len(outcomes)


@pytest.mark.parametrize("w, k", [(path(3), 1), (path(4), 2)])
def test_settled_top_recomputes_its_epsilon(monkeypatch, w, k):
    # lmix = 2^(k+1), and s(2^k)^2 < 1/4 settles the doubling top P^(2^(k+1)),
    # so the search makes eps_(k+1) afterwards by k + 1 squarings of P
    times = []
    checked = chain_module._checked_product

    def counted(a, b, time):
        times.append(time)
        return checked(a, b, time)

    monkeypatch.setattr(chain_module, "_checked_product", counted)
    report = mixing_report(w)
    assert report.lmix == 2 << k
    assert times[-(k + 1):] == [2 << i for i in range(k + 1)]
    assert times.count(2 << k) == 1
    assert report.epsilons[k + 1] == np.diag(lazy_chain(w).dyadic_power(k + 1)).max()


def chi_distance(power: np.ndarray, pi: np.ndarray) -> float:
    """s = sqrt(max_i sum_k p(i, k)^2 / pi(k) - 1), over the whole matrix at once.

    The difference loses about n u of the sum to rounding, which matters when
    s^2 is that small, so s^2 is raised by 1e-14.
    """
    return math.sqrt(max(float((power**2 / pi[None, :]).sum(axis=1).max()) - 1.0, 0.0) + 1e-14)


@settings(max_examples=40, deadline=None)
@given(connected_weights(), st.integers(0, 6), st.integers(0, 6))
def test_chi_distance_bounds_the_product(w, i, j):
    # Cauchy-Schwarz in L^2(1 / pi) on a reversible chain:
    # |p_(a+b)(x, y) / pi(y) - 1| <= s(a) s(b), hence both certificates
    chain = lazy_chain(w)
    a, b = 1 << i, 1 << j
    s_a = chi_distance(chain.power(a), chain.pi)
    s_b = chi_distance(chain.power(b), chain.pi)
    product = chain.power(a + b)
    assert 1.0 - s_a * s_b <= chain_module._min_ratio(product, chain.pi) + 1e-12
    assert 0.5 * s_a * s_b >= chain_module._worst_tv(product, chain.pi) - 1e-12
    # the search's s is an upper bound, and s(a)^2 is P^(2a)'s diagonal
    assert chain_module._chi_bound(chain_module._chi_squared(chain.power(a), chain.pi)) >= s_a
    diagonal = float((np.diag(chain.power(2 * a)) / chain.pi).max()) - 1.0
    assert diagonal == pytest.approx(s_a**2, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(connected_weights())
@example(hypercube(6))
@example(path(20))
@example(cycle(6))
def test_every_settled_product_would_pass(w):
    settled = []
    certify = chain_module._settles

    def recorded(condition, chi2, a, b):
        if certify(condition, chi2, a, b):
            settled.append((condition, a + b))
            return True
        return False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_settles", recorded)
        mixing_report(w)
    chain = lazy_chain(w)
    for condition, t in settled:
        assert condition.holds(chain.power(t))


@pytest.mark.parametrize(
    "weight, message",
    [
        # rounding drift in the row sums grows with t and passes the tolerance
        # (here at P^8388608, by 1.006e-10)
        (1e-7, r"rounding drifted the row sums of P\^\d+ by \d\.\d{3}e-\d\d$"),
        # about 1e30 steps to cross the middle edge
        (1e-30, r"no mixing condition holds by t = 2\^60$"),
    ],
)
def test_slow_mixing_is_a_cap_error(weight, message):
    w = WeightFunction(4, {(0, 1): 1.0, (1, 2): weight, (2, 3): 1.0})
    for compute in (mixing_report, lambda w: lmix(lazy_chain(w))):
        with pytest.raises(CapError, match=message):
            compute(w)


def test_drift_rounding_cannot_explain_is_a_consistency_error():
    heavy = np.full((4, 4), 0.25 + 1e-9)
    uniform = np.full((4, 4), 0.25)
    with pytest.raises(ConsistencyError, match="row sums drifted by 4.000e-09"):
        chain_module._checked_product(heavy, uniform, 2)
    # the same drift is within what rounding can reach by t = 2^40
    with pytest.raises(CapError, match=r"the row sums of P\^1099511627776 by 4.000e-09"):
        chain_module._checked_product(heavy, uniform, 1 << 40)


@pytest.mark.parametrize("n", [1, 5, 4 * chain_module._TV_ROWS + 3])
def test_blocked_profiles_equal_whole_matrix_formulas(n):
    # bit for bit: the row blocks sum the same rows, and fl(x / y) is
    # monotone in x for y > 0
    rng = np.random.default_rng(n)
    power = rng.uniform(0.0, 1.0, (n, n))
    power /= power.sum(axis=1, keepdims=True)
    pi = rng.uniform(0.5, 1.5, n)
    pi /= pi.sum()
    assert chain_module._worst_tv(power, pi) == float(
        0.5 * np.abs(power - pi[None, :]).sum(axis=1).max()
    )
    assert chain_module._min_ratio(power, pi) == float((power / pi[None, :]).min())
    assert chain_module._chi_squared(power, pi) == float((power**2 @ (1.0 / pi)).max()) - 1.0


def lift_case(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A failing power and a factor of 300 x 300, rows summing to 1.

    300 rows are three blocks of _LIFT_ROWS = 128, 128 and 44.
    """
    rng = np.random.default_rng(seed)
    low, factor = rng.uniform(0.0, 1.0, (2, 300, 300))
    low /= low.sum(axis=1, keepdims=True)
    factor /= factor.sum(axis=1, keepdims=True)
    return low, factor


def failing_at(want: np.ndarray, failing_row: int | None, tested: list[int]):
    """A test that records each block's length and fails on the block holding want[failing_row]."""

    def holds(block):
        tested.append(len(block))
        return failing_row is None or not (want[failing_row] == block).all(axis=1).any()

    return holds


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("failing_row", [None, 0, 130, 299])
def test_lift_tests_by_row_blocks_and_writes_a_failing_product(failing_row, shared):
    # the test fails in the block holding failing_row, or never; testing
    # stops at the first failing block, and a lift that nothing reads once it
    # fails (whole=False) returns only that block
    rows = chain_module._LIFT_ROWS
    low, factor = lift_case(8)
    want = np.concatenate([low[i : i + rows] @ factor for i in range(0, len(low), rows)])
    assert np.allclose(want, low @ factor, rtol=1e-13, atol=0.0)
    for whole in (True, False):
        tested = []
        failing = low.copy()
        lifted = chain_module._lift(
            failing, factor, 3, failing_at(want, failing_row, tested),
            np.empty((rows, len(low))), shared, whole=whole,
        )
        if failing_row is None:
            assert lifted is None
            assert tested == [128, 128, 44]
            assert np.array_equal(failing, low)
            continue
        block = failing_row // rows
        assert tested == [128, 128, 44][: block + 1]
        if whole:
            assert np.array_equal(lifted, want)
            assert (lifted is failing) != shared
            assert np.array_equal(failing, low if shared else want)
        else:
            assert np.array_equal(lifted, want[block * rows : (block + 1) * rows])
            assert np.array_equal(failing, low)


@pytest.mark.parametrize("whole", [True, False])
@pytest.mark.parametrize("failing_row", [None, 0, 130, 299])
def test_lift_through_two_factors(failing_row, whole):
    # the end game reaches lo + 2 by two lifts by P through one buffer: the
    # first fails and is written over the failing power, and the second
    # makes, block by block, the bits of (low[rows] @ P) @ P
    rows = chain_module._LIFT_ROWS
    low, factor = lift_case(9)
    want = np.concatenate(
        [low[i : i + rows] @ factor @ factor for i in range(0, len(low), rows)]
    )
    buffer = np.empty((rows, len(low)))
    failing = low.copy()
    assert chain_module._lift(failing, factor, 2, lambda block: False, buffer, False) is failing
    once = failing.copy()
    tested = []
    lifted = chain_module._lift(
        failing, factor, 3, failing_at(want, failing_row, tested), buffer, False, whole=whole
    )
    if failing_row is None:
        assert lifted is None
        assert tested == [128, 128, 44]
        assert np.array_equal(failing, once)
        return
    block = failing_row // rows
    assert tested == [128, 128, 44][: block + 1]
    if whole:
        assert lifted is failing
        assert np.array_equal(lifted, want)
    else:
        assert np.array_equal(lifted, want[block * rows : (block + 1) * rows])
        assert np.array_equal(failing, once)


def test_lift_checks_the_row_sums_of_every_block():
    low = np.full((4, 4), 0.25)
    factor = np.full((4, 4), 0.25)
    factor[:, 0] += 1e-9
    with pytest.raises(ConsistencyError, match="row sums drifted by 1.000e-09"):
        chain_module._lift(low, factor, 2, lambda block: True, np.empty((2, 4)), False)


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
        a, b = lazy_chain(w), lazy_chain(scaled(w, factor))
        assert np.allclose(a.dyadic_power(0), b.dyadic_power(0))
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
    assert mixing_report(scaled(w, 2.0)).theorem_bound == pytest.approx(2.0 * bound)


def test_mixing_report_complete3():
    report = mixing_report(complete(3))
    assert report.lmix == 2
    assert report.mix == 1
    assert report.delta == pytest.approx(16 / 33)
    assert report.theorem_bound == pytest.approx(16 / 99)
    assert report.clause_bounds.regular is True


def golden_weights() -> WeightFunction:
    """A path on 30 vertices with chords, weights in [0.25, 4) from golden-ratio fractions."""

    def weight(x: int) -> float:
        return 0.25 + 3.75 * math.modf(x * 0.6180339887498949)[0]

    entries = {(i, i + 1): weight(i + 1) for i in range(29)}
    entries |= {(i, i + 7): weight((i + 2) * (i + 7)) for i in range(0, 23, 5)}
    return WeightFunction(30, entries)


# mixing_report before the search made P from the weights and lifted bit 1
# through P twice: (lmix, mix, delta, epsilons, clause bounds, theorem bound)
RECORDED_REPORTS = {
    "complete:3": (
        2, 1, 0.48484848484848486, (0.5, 0.375), (0.25, True, 0.25), 0.16161616161616163,
    ),
    "star:4": (
        4, 2, 0.2962962962962963, (0.5, 0.49999999999999994, 0.4999999999999999),
        (0.1111111111111111, False, 0.125), 0.012345679012345678,
    ),
    "path:3": (
        4, 2, 0.2962962962962963, (0.5, 0.5, 0.5), (0.25, False, 0.125), 0.018518518518518517,
    ),
    "hamming2:2": (
        4, 2, 0.37841832963784183, (0.5, 0.375, 0.28125), (0.25, True, 0.125), 0.04730229120473023,
    ),
    "complete:4": (
        2, 2, 0.5, (0.5, 0.33333333333333337), (0.1111111111111111, True, 0.25), 0.1875,
    ),
    "complete:5": (
        2, 2, 0.5079365079365079, (0.5, 0.3125), (0.0625, True, 0.25), 0.20317460317460317,
    ),
    "complete:8": (
        2, 2, 0.5185185185185185, (0.5, 0.28571428571428575), (0.02040816326530612, True, 0.25),
        0.22685185185185183,
    ),
    "hypercube:10": (
        35, 16, 0.46084240091434325,
        (0.5, 0.275, 0.10175000000000003, 0.023856800000000015, 0.004474249985306755,
         0.0013480108791700798),
        (0.010000000000000002, True, 0.014285714285714285), 0.00012858325918368952,
    ),
    "path:20": (
        304, 137, 0.12831997943714443,
        (0.5, 0.4375, 0.3828125, 0.318572998046875, 0.2497145882807672, 0.18718274280142783,
         0.13653917464698376, 0.09811434321936378, 0.07048045720260121),
        (0.25, False, 0.001644736842105263), 1.1108031460971643e-05,
    ),
    "golden": (
        321, 163, 0.12195077740607943,
        (0.5, 0.4512003638525198, 0.407235746222414, 0.3481850127661187, 0.27541584105664163,
         0.19532565911825456, 0.1216380128699568, 0.08587616367429093, 0.06932413107651154),
        (0.0022682001941965084, False, 0.001557632398753894), 1.5977483510875777e-05,
    ),
}


@pytest.mark.parametrize("spec", sorted(RECORDED_REPORTS))
def test_mixing_report_is_bit_for_bit_the_recorded_one(spec, tmp_path):
    # the README examples' graphs, hypercube:10, path:20 and a weight file
    lm, mix, delta_value, epsilons, clauses, bound = RECORDED_REPORTS[spec]
    if spec == "golden":
        dump_weight_file(golden_weights(), tmp_path / "golden.txt")
        spec = f"file:{tmp_path / 'golden.txt'}"
    report = mixing_report(parse_graph_spec(spec))
    assert report == MixingReport(
        lm, mix, delta_value, epsilons, ClauseDiagnostics(*clauses), bound
    )


def test_lazy_chain_builds_its_matrix_on_first_read():
    chain = LazyChain(path(4))
    assert chain._dyadic == {}
    assert chain.dyadic_power(0) is chain.dyadic_power(0)
    assert np.array_equal(chain.dyadic_power(0), chain_module._transition(path(4)))
    assert not chain.dyadic_power(0).flags.writeable


@pytest.mark.parametrize(
    "entries, message",
    [
        # p(0, 1) = 1e-320 / 2e10 underflows
        ({(0, 1): 1e-320, (0, 2): 1e10}, "a transition probability underflows to zero"),
        # every p(i, j) is positive, but pi(0) = 1e-320 / 2.002e6 underflows
        (
            {(0, 1): 1e-320, (1, 2): 1000.0, (2, 3): 1e6},
            "the stationary weight of vertex 0 underflows to zero",
        ),
    ],
)
def test_underflowing_chains_are_rejected_when_built(entries, message):
    w = WeightFunction(1 + max(max(pair) for pair in entries), entries)
    with pytest.raises(DegenerateWeightError, match=message):
        LazyChain(w)


def test_mixing_report_disconnected():
    report = mixing_report(WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0}))
    assert math.isinf(report.lmix)
    assert math.isinf(report.mix)
    assert report.epsilons == ()
    assert report.delta is None
    assert report.theorem_bound is None


def test_lift_lazy_complete3():
    u = lift_lazy(complete(3))
    assert np.allclose(np.diag(u.matrix), 2.0)
    assert np.allclose(u.vertex_weights, 4.0)
    assert u.epsilon == pytest.approx(0.5)


@settings(max_examples=40)
@given(connected_weights(), st.integers(0, 3))
def test_doubling_gap_matches_weight_function_construction(w, doublings):
    # the literal construction: each lifted weight's off-diagonal entries as a
    # WeightFunction, then its interchange generator
    def off_diagonal_generator(u: LiftedWeight) -> PairOperator:
        entries = {}
        for i in range(u.n):
            for j in range(i + 1, u.n):
                if u.matrix[i, j] > 0:
                    entries[(i, j)] = float(u.matrix[i, j])
        return delta_of_weights(WeightFunction(u.n, entries))

    u = lift_lazy(w)
    for _ in range(doublings):
        u = double_weight(u)
    lhs = off_diagonal_generator(u)
    rhs = off_diagonal_generator(double_weight(u))
    assert np.array_equal(doubling_gap(u).c, (2.0 + 2.0 * u.epsilon) * lhs.c - rhs.c)


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


def sequential_probability_bounds(chain: LazyChain, w: WeightFunction) -> BoundCheckReport:
    """Reference: evaluate both slacks at every t up to lmix, one product per step."""
    constant = chain_module._PROBABILITY_CONSTANT
    lm = lmix(chain)
    if math.isinf(lm):
        raise DisconnectedError("probability bounds apply to connected weights only")
    ratio = w.vertex_weights / w.min_positive_weight()
    regular = is_regular(w)
    worst = math.inf
    worst_regular = math.inf
    power = np.eye(chain.n)
    for t in range(1, int(lm) + 1):
        power = chain_module._checked_product(power, chain.dyadic_power(0), t)
        slack = float(((constant / math.sqrt(t)) * ratio[:, None] - power).min())
        worst = min(worst, slack)
        if regular:
            slack_r = float((constant / t**0.25 - power).min())
            worst_regular = min(worst_regular, slack_r)
    return BoundCheckReport(
        lmix=int(lm),
        holds=worst >= 0.0,
        worst_slack=worst,
        regular=regular,
        regular_holds=(worst_regular >= 0.0) if regular else None,
        regular_worst_slack=worst_regular if regular else None,
    )


def assert_reports_agree(got: BoundCheckReport, want: BoundCheckReport) -> None:
    assert (got.lmix, got.holds, got.regular, got.regular_holds) == (
        want.lmix, want.holds, want.regular, want.regular_holds
    )
    # the slacks are differences of entries of order one, so a few ulps of
    # absolute error from the different product order are allowed near zero
    assert got.worst_slack == pytest.approx(want.worst_slack, rel=1e-12, abs=1e-14)
    if want.regular:
        assert got.regular_worst_slack == pytest.approx(
            want.regular_worst_slack, rel=1e-12, abs=1e-14
        )


@pytest.mark.parametrize(
    "w", [path(2), path(16), cycle(16), star(8), complete(6), hypercube(3)]
)
def test_probability_bounds_match_sequential_on_families(w):
    chain = lazy_chain(w)
    assert_reports_agree(
        verify_probability_bounds(chain, w), sequential_probability_bounds(chain, w)
    )


# With the paper's constant 30 the worst slack sits at t = lmix on every graph
# tried, where it is evaluated exactly, so an unsound pruning would go unseen.
# Smaller constants move the plain minimum inside the range.  The regular
# minimum stays at an end on every regular graph tried, but not on irregular
# chains, so a regular w (complete) is also checked against the random chain.
# Both are fair inputs: the pruning rests on p_t <= max P^a for t >= a, which
# holds for every chain and every constant.
@settings(max_examples=80)
@given(
    connected_weights(),
    st.sampled_from([chain_module._PROBABILITY_CONSTANT, 1.0, 0.3, 0.1, 0.03]),
    st.booleans(),
)
def test_probability_bounds_match_sequential_oracle(w, constant, regular_w):
    chain = lazy_chain(w)
    bound_w = complete(w.n) if regular_w else w
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_PROBABILITY_CONSTANT", constant)
        got = verify_probability_bounds(chain, bound_w)
        want = sequential_probability_bounds(chain, bound_w)
    assert_reports_agree(got, want)


def test_probability_bounds_product_count(monkeypatch):
    # the per-step loop takes lmix = 13580 products on path(128)
    products = record_products(monkeypatch)
    w = path(128)
    report = verify_probability_bounds(lazy_chain(w), w)
    assert report.lmix == 13580
    assert report.holds
    assert len(products) <= 200


def test_probability_bounds_rebuild_the_dyadic_powers(monkeypatch):
    # lmix's search frees its own ladder, so power() builds the cached dyadic
    # powers P^2 .. P^8192 itself: 13 of the 121 products.  The search makes
    # 13 doublings up to P^8192 and 10 lifts at bits 12 to 2; the
    # chi-distances settle the top P^16384 (s(8192)^2 = 0.163) and the lift
    # to 14336 (s(12288) s(2048) = 0.240).  Its ladder keeps the even levels
    # and makes the odd ones its unsettled lifts read again: P^512, P^128,
    # P^32 and P^8.  The squares are those 13 + 13 + 4.  Below bit 2 the
    # search walks 13577, 13578 and 13579 by P, three lifts of one product
    # each.
    products = record_products(monkeypatch)
    w = path(128)
    chain = lazy_chain(w)
    verify_probability_bounds(chain, w)
    assert len(products) == 108 + 13
    assert sum(square for _, square in products) == 13 + 13 + 4
    assert sorted(chain._dyadic) == list(range(14))
