import json
import math
import subprocess
import sys
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
    LazyChain,
    MixingReport,
    is_regular,
    lazy_chain,
    lmix,
    min_stationary_ratio,
    mixing_report,
    tv_distance,
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
    LiftedWeight,
    PairOperator,
    delta_of_weights,
    double_weight,
    doubling_gap,
    is_psd,
    lift_lazy,
)
from oracles import (
    PINNED_BLAS,
    CosineWalk,
    child_env,
    dump_weight_file,
    hypercube_mixing,
    scaled,
    search_alone,
)


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

    def counted(a, b, time, out=None):
        products.append((time, a is b))
        return checked(a, b, time, out)

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


@pytest.mark.parametrize("t", [2.5, 3.0, True])
def test_a_time_that_is_not_an_integer_is_a_parameter_error(t):
    # a float stopped in a TypeError on t & 1, and True passed as t = 1
    chain = lazy_chain(path(4))
    for call in (chain.power, lambda t: min_stationary_ratio(chain, t),
                 lambda t: tv_distance(chain, t)):
        with pytest.raises(ParameterError, match="time must be an integer"):
            call(t)


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
    assert is_psd(doubling_gap(lift_lazy(w))).psd


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
    assert search_alone(chain, "mix")[0] == 1


@pytest.mark.parametrize(
    "w",
    [complete(2), complete(3), complete(5), path(3), path(5), star(4), cycle(5), hamming2(2)],
)
def test_lmix_and_tv_mix_match_brute_force(w):
    chain = lazy_chain(w)
    assert lmix(chain) == brute_force_lmix(chain)
    assert search_alone(chain, "mix")[0] == brute_force_tv_mix(chain)


def test_lmix_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        chain = lazy_chain(random_connected(rng, int(rng.integers(3, 7))))
        assert lmix(chain) == brute_force_lmix(chain)
        assert search_alone(chain, "mix")[0] == brute_force_tv_mix(chain)


def test_disconnected_mixing_times_infinite():
    # lmix is infinite on a disconnected w, so its chain is refused when built
    w = WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(DisconnectedError, match="^mixing numbers are infinite on a disconnected"):
        lazy_chain(w)


def test_isolated_vertex_rejected():
    # w is disconnected too, but the isolated vertex is refused first
    w = WeightFunction(3, {(0, 1): 1.0})
    with pytest.raises(DegenerateWeightError):
        lazy_chain(w)


def search_delta(chain: LazyChain) -> tuple[float, tuple[float, ...]]:
    """(delta, eps_k) from the search for lmix alone."""
    lm, epsilons = search_alone(chain, "lmix")
    return chain_module._delta_result(epsilons, lm)


def test_delta_complete3():
    delta, epsilons = search_delta(lazy_chain(complete(3)))
    assert epsilons == (0.5, 0.375)
    assert delta == pytest.approx(16 / 33, abs=1e-12)


def test_delta_complete2():
    # lmix = 1, single factor 1 + 1/2
    delta, epsilons = search_delta(lazy_chain(complete(2)))
    assert epsilons == (0.5,)
    assert delta == pytest.approx(2 / 3, abs=1e-12)


def test_delta_lower_bound_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        chain = lazy_chain(random_connected(rng, int(rng.integers(3, 7))))
        lm = lmix(chain)
        delta, _ = search_delta(chain)
        assert delta >= 1.0 / (2.0 * lm) - 1e-12
        assert 0.0 < delta < 1.0


def test_sandwich_on_standard_graphs():
    for w in [complete(3), complete(5), path(4), star(5), cycle(6), hypercube(3)]:
        chain = lazy_chain(w)
        lm, mx = lmix(chain), search_alone(chain, "mix")[0]
        assert lm / 8.0 <= mx <= lm


@settings(max_examples=60)
@given(connected_weights())
def test_sandwich_on_random_weights(w):
    chain = lazy_chain(w)
    lm, mx = lmix(chain), search_alone(chain, "mix")[0]
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
    assert search_alone(chain, "mix")[0] == t
    # the joint search in mixing_report is bit for bit the separate ones
    report = mixing_report(w)
    assert (report.lmix, report.mix) == (
        lmix(lazy_chain(w)), search_alone(lazy_chain(w), "mix")[0]
    )
    assert (report.delta, report.epsilons) == search_delta(lazy_chain(w))
    assert len(report.epsilons) == report.lmix.bit_length()
    for k, eps in enumerate(report.epsilons):
        assert eps == np.diag(lazy_chain(w).dyadic_power(k)).max()


def test_mixing_search_takes_one_product_per_bit(monkeypatch):
    # lmix(path(20)) = 304: P^2 .. P^256 by doubling, then one lift per bit
    # below 256; tv_mix = 137 is bracketed at P^128 and lifts the bits below
    # 128.  The chi-distances settle three lmix products: the top P^512
    # (s(256)^2 = 0.060) and the lifts to 384 and 320 (s(256) s(128) = 0.145,
    # s(256) s(64) = 0.232), so doubling takes 8 products.  The ladder keeps
    # P^16 and P^64 (no level below P^16), so the levels that unsettled lifts
    # read are made again: P^128 (tv_mix's failing power) from P^64, P^32
    # from P^16, and P^8 from P through P^2 and P^4.  P^4 is then in hand, so
    # both searches lift at bit 2 as well: lmix at bits 5, 4, 3 and 2, tv_mix
    # at bits 6 to 2.  Each then walks its candidates one product by P at a
    # time (lmix 301, 302, 303; tv_mix 137, which holds).
    products = record_products(monkeypatch)
    report = mixing_report(path(20))
    assert (report.lmix, report.mix) == (304, 137)
    squares = [time for time, square in products if square]
    assert squares == [2 << k for k in range(8)] + [128, 32, 2, 4, 8]
    assert len(products) == 8 + 5 + (4 + 3) + (5 + 1)


def test_mixing_report_holds_few_matrices():
    # lmix(hypercube(8)) = 26 is bracketed at k = 4 and tv_mix = 12 at k = 3.
    # The doubling holds two arrays; the lift at bit 3 makes P^8 from P
    # beside lmix's failing P^16 and keeps P^4 in hand for bit 2: three
    # arrays of the search's own, the 128-row buffer of each lift and the
    # row blocks of its tests: 3.694 matrices of 256 x 256 measured.
    n = 256
    tracemalloc.start()
    try:
        report = mixing_report(hypercube(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.lmix == 26
    assert peak <= 3.7 * n * n * 8


def test_slow_search_holds_about_half_its_ladder():
    # lmix(path(256)) = 54749 is bracketed at k = 15, so the search holds
    # ceil((k + 1) / 2) = 8 arrays of 256 x 256: the ladder's six levels
    # P^16 to P^16384 beside the doubling's last two squares, and later
    # beside both failing powers and the level a lift reads.  With the
    # 128-row buffer and row-block temporaries, 8.66 matrices measured.
    n = 256
    tracemalloc.start()
    try:
        report = mixing_report(path(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.lmix == 54749
    assert peak <= 8.7 * n * n * 8


def test_chi_certificates_settle_the_top_and_the_first_lifts(monkeypatch):
    # lmix(hypercube(10)) = 35 is bracketed at k = 5 and tv_mix = 16 at k = 3.
    # s(32)^2 = 0.012 settles the top P^64, and s(32) s(16) = 0.067 and
    # s(32) s(8) = 0.206 settle the lifts to 48 and 40.  The doubling keeps
    # P^16, the one checkpoint, and the top P^32: two arrays.  P^4 is not in
    # hand, so lmix, bracketed last, goes first and walks 33 and 34, which
    # fail, and 35, which holds, by P made from the weights in P^16's array.
    # tv_mix then makes its failing P^8 from P through P^2 and P^4, lifts it
    # by P^4 to 12, which fails, and walks 13, 14 and 15 by P; all fail, and
    # 15, the last, fails in its first row block and stops there.  That is
    # 15 products, 14.125 of 1024 x 1024.  A lift that holds is never stored,
    # so the search peaks at 2.17 matrices, with the 128-row buffer.
    n = 1024
    products = record_products(monkeypatch)
    rows = []
    matmul = np.matmul

    def counted_matmul(a, b, **options):
        rows.append(len(a))
        return matmul(a, b, **options)

    # every product of the search, square or lift block, goes through np.matmul
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
        (33, False), (34, False), (35, False),
        (2, True), (4, True), (8, True), (12, False),
        (13, False), (14, False), (15, False),
    ]
    assert sum(rows) / n == 14.125
    assert peak <= 2.3 * n * n * 8


def test_mixing_search_allocates_two_arrays_on_hypercube10(monkeypatch):
    # the search owns its n x n arrays: it allocates two, and writes every
    # square, lift block and P into one of them or the lifts' buffer, never
    # into an array a product allocates; the row-block temporaries of the
    # tests are all that is left to malloc
    n = 1024
    allocated = []

    class CountedNumpy:
        # numpy as chain.py sees it, with its allocations counted
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, *args, **options):
            allocated.append(shape)
            return np.empty(shape, *args, **options)

    monkeypatch.setattr(chain_module, "np", CountedNumpy())
    outs = []
    matmul, transition = np.matmul, chain_module._transition

    def written(a, b, out=None):
        outs.append(out)
        return matmul(a, b, out=out)

    def made(w, out=None):
        outs.append(out)
        return transition(w, out)

    monkeypatch.setattr(np, "matmul", written)
    monkeypatch.setattr(chain_module, "_transition", made)
    report = mixing_report(hypercube(10))
    assert (report.lmix, report.mix) == (35, 16)
    assert allocated.count((n, n)) == 2
    # P four times, 8 squares and six lifts made whole in 8 row blocks each (the
    # failing ones fail in their first block), and the first block of the last
    assert len(outs) == 4 + 8 * 8 + 6 * 8 + 1
    assert all(out is not None for out in outs)


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
        # offsets 5 to 8 above the low the lifts leave at bit 3, 8 floor((t - 1) / 8),
        # walked by P when P^4 is not in hand
        ("cycle:10", "lmix", 4, 5),
        ("cycle:8", "lmix", 3, 6),
        ("weighted-cycle:6", "lmix", 3, 7),
        ("cycle:13", "mix", 3, 8),
    ],
)
def test_end_game_walks_to_each_offset_above_the_low(spec, name, k, offset, tmp_path, monkeypatch):
    if spec == "weighted-cycle:6":
        (tmp_path / "w.txt").write_text("6 6\n0 1 7\n1 2 1\n2 3 1\n3 4 5\n4 5 3\n0 5 2\n")
        spec = f"file:{tmp_path / 'w.txt'}"
    w = parse_graph_spec(spec)
    chain = lazy_chain(w)

    def holds(t: int) -> bool:
        if name == "lmix":
            return min_stationary_ratio(chain, t) > 0.75 + TIE_GUARD
        return tv_distance(chain, t) < 0.25 - TIE_GUARD

    t = 1
    while not holds(t):
        t += 1
    # the case is what it claims: 2^k < t <= 2^(k+1), t = low + offset
    assert (t - 1).bit_length() - 1 == k
    step = 4 if offset <= 4 else 8
    low = max(1 << k, (t - 1) // step * step)
    assert t - low == offset
    products = record_products(monkeypatch)
    assert search_alone(lazy_chain(w), name)[0] == t
    if offset > 4:
        # the search on its own walks every candidate from low + 1 up
        walked = [time for time, _ in products if low < time <= low + 7]
        assert walked == list(range(low + 1, min(t, low + 7) + 1))
    assert getattr(mixing_report(w), name) == t


def test_a_failing_last_candidate_stops_at_its_first_failing_block(monkeypatch):
    # tv_mix(hypercube(10)) = 16 is bracketed at P^8, which the doubling
    # leaves in hand without P^4, so the walk starts at the bit-3 low 8 and
    # its candidates 9 to 15 all fail.  Nothing reads 15, the last, so its
    # lift stops at the first block that fails; 9 to 14 are made whole.
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
    assert search_alone(lazy_chain(hypercube(10)), "mix")[0] == 16
    assert sorted(lifts) == list(range(9, 16))
    for time in range(9, 15):
        outcomes, made = lifts[time]
        assert outcomes[-1] is False
        assert made == n + rows * (len(outcomes) - 1)
    outcomes, made = lifts[15]
    assert outcomes == [True] * (len(outcomes) - 1) + [False]
    assert made == rows * len(outcomes)


def complete_product(sizes: tuple[int, ...], weights: tuple[float, ...]) -> WeightFunction:
    """K_q1 x ... x K_qd, the edges along coordinate c weighing weights[c]."""
    vertices = list(np.ndindex(*sizes))
    index = {v: i for i, v in enumerate(vertices)}
    entries = {}
    for v in vertices:
        for c, size in enumerate(sizes):
            for x in range(v[c] + 1, size):
                entries[(index[v], index[v[:c] + (x,) + v[c + 1 :]])] = weights[c]
    return WeightFunction(len(vertices), entries)


@pytest.mark.parametrize("sizes, weight", [((2, 2, 2, 2, 5), 0.5), ((2, 2, 2, 20), 0.2)])
def test_a_failing_last_candidate_leaves_its_failing_power_in_place(
    sizes, weight, monkeypatch
):
    # lmix = 16 is bracketed at P^8 and finished first: 9 to 15 all fail, and
    # 15, the last, stops at its first failing block, a view of the lifts'
    # buffer.  tv_mix = 8 then remakes its failing P^4 from P and walks 5, 6
    # and 7, which all fail.  The view must not become a power of the search:
    # the next square written into it would be the buffer the walk's lifts
    # write over (n = 80), or an array of 128 rows (n = 160).
    w = complete_product(sizes, (1.0,) * (len(sizes) - 1) + (weight,))
    products = record_products(monkeypatch)
    report = mixing_report(w)
    assert products == [
        (2, True), (4, True), (8, True), (16, True),
        *((time, False) for time in range(9, 16)),
        (2, True), (4, True), (5, False), (6, False), (7, False),
    ]
    chain = lazy_chain(w)
    assert (report.lmix, report.mix) == (brute_force_lmix(chain), brute_force_tv_mix(chain))
    assert (report.lmix, report.mix) == (16, 8)


@pytest.mark.parametrize("w, k", [(path(3), 1), (path(4), 2)])
def test_settled_top_recomputes_its_epsilon(monkeypatch, w, k):
    # lmix = 2^(k+1), and s(2^k)^2 < 1/4 settles the doubling top P^(2^(k+1)),
    # so the search makes eps_(k+1) afterwards by k + 1 squarings of P
    times = []
    checked = chain_module._checked_product

    def counted(a, b, time, out=None):
        times.append(time)
        return checked(a, b, time, out)

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


@pytest.mark.parametrize("names", [("lmix", "mix"), ("lmix",), ("mix",)], ids="+".join)
@pytest.mark.parametrize(
    "spec",
    [
        "hypercube:10", "hypercube:6", "path:128", "path:20", "cycle:64", "star:20",
        "complete:5", "hamming2:4", "regular-tree:3,4", "path:512",
    ],
)
def test_each_chi_distance_is_one_pass(monkeypatch, spec, names):
    # every s(t)^2 a certificate reads is one exact pass over P^t, made once:
    # none comes off a diagonal or an extrapolation
    passes = []
    chi_squared = chain_module._chi_squared

    def counted(power, pi):
        passes.append(len(power))
        return chi_squared(power, pi)

    monkeypatch.setattr(chain_module, "_chi_squared", counted)
    chain = lazy_chain(parse_graph_spec(spec))
    makers = {"lmix": chain_module._mixes, "mix": chain_module._tv_mixes}
    search = chain_module._Search(chain, tuple(makers[name](chain) for name in names))
    search.run()
    # each pass reads a whole power
    assert set(passes) == {chain.n}
    assert len(passes) == len(search.chi2)


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
        taken = []

        def take():
            taken.append(np.empty_like(low))
            return taken[-1]

        lifted = chain_module._lift(
            failing, factor, 3, failing_at(want, failing_row, tested),
            np.empty((rows, len(low))), take if shared else None, whole=whole,
        )
        if failing_row is None:
            assert lifted is None
            assert tested == [128, 128, 44]
            assert np.array_equal(failing, low)
            assert not taken
            continue
        block = failing_row // rows
        assert tested == [128, 128, 44][: block + 1]
        if whole:
            assert np.array_equal(lifted, want)
            # a shared failing power is left alone, and the product written
            # over the one array take() gave
            assert lifted is (taken[0] if shared else failing)
            assert len(taken) == shared
            assert np.array_equal(failing, low if shared else want)
        else:
            assert np.array_equal(lifted, want[block * rows : (block + 1) * rows])
            assert np.array_equal(failing, low)
            assert not taken


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
    assert chain_module._lift(failing, factor, 2, lambda block: False, buffer) is failing
    once = failing.copy()
    tested = []
    lifted = chain_module._lift(
        failing, factor, 3, failing_at(want, failing_row, tested), buffer, whole=whole
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
        chain_module._lift(low, factor, 2, lambda block: True, np.empty((2, 4)))


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
    # delta and lmix are scale free while min w_i^2 / w_tot is linear in scale.
    # At 2^-600 the square (min w_i)^2 is below the float range and the bound
    # is not; scaling by a power of two is exact, so the bound is too
    w = cycle(5)
    bound = mixing_report(w).theorem_bound
    assert mixing_report(scaled(w, 2.0)).theorem_bound == pytest.approx(2.0 * bound)
    assert mixing_report(scaled(w, 2.0**-600)).theorem_bound == 2.0**-600 * bound


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
# through P twice, and (hypercube:8 to hamming2:4) before it kept its powers
# in arrays of its own, all made under PINNED_BLAS:
# (lmix, mix, delta, epsilons, clause bounds, theorem bound)
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
        35, 16, 0.46084240091434336,
        (0.5, 0.275, 0.10175000000000002, 0.023856800000000008, 0.004474249985306754,
         0.0013480108791700772),
        (0.010000000000000002, True, 0.014285714285714285), 0.00012858325918368958,
    ),
    "path:20": (
        304, 137, 0.12831997943714443,
        (0.5, 0.4375, 0.3828125, 0.318572998046875, 0.2497145882807672, 0.18718274280142783,
         0.13653917464698373, 0.09811434321936377, 0.0704804572026012),
        (0.25, False, 0.001644736842105263), 1.1108031460971643e-05,
    ),
    "hypercube:8": (
        26, 12, 0.44949161792022563,
        (0.5, 0.28125, 0.112060546875, 0.03184238076210022, 0.008814858297641948),
        (0.015625, True, 0.019230769230769232), 0.0005402543484618096,
    ),
    "path:64": (
        3342, 1507, 0.11527898764561306,
        (0.5, 0.4375, 0.3828125, 0.318572998046875, 0.2497145882807672, 0.18718274280142783,
         0.13653917460113424, 0.09811126563810166, 0.06994390560491626, 0.04966181015338744,
         0.03518886356271769, 0.024929729432681035),
        (0.25, False, 0.00014961101137043686), 2.7376199891143284e-07,
    ),
    "path:512": (
        219856, 99091, 0.10940099822347936,
        (0.5, 0.4375, 0.3828125, 0.318572998046875, 0.2497145882807672, 0.18718274280142783,
         0.13653917460113424, 0.09811126563810166, 0.06994390560491626, 0.04966181015338421,
         0.035188850178099765, 0.024908052399038882, 0.017621783105277775, 0.012463713320479455,
         0.008814319052707359, 0.006233068921974384, 0.004407589262909425,
         0.003118843827678591),
        (0.25, False, 2.2742158503747908e-06), 4.868913585257556e-10,
    ),
    "cycle:64": (
        862, 389, 0.21298075932282684,
        (0.5, 0.375, 0.2734375, 0.196380615234375, 0.13994993409141898, 0.09934675374796689,
         0.07038609217001514, 0.049819109936140485, 0.03524464239064978, 0.02494431299496599),
        (0.25, True, 0.000580046403712297), 7.72117021907e-06,
    ),
    "star:20": (
        4, 2, 0.29629629629629645,
        (0.5, 0.4999999999999997, 0.49999999999999944),
        (0.0027700831024930744, False, 0.125), 0.001949317738791424,
    ),
    "hamming2:4": (
        6, 4, 0.4513517043228419,
        (0.5, 0.29166666666666663, 0.1435185185185185),
        (0.027777777777777776, True, 0.08333333333333333), 0.028209481520177618,
    ),
    "golden": (
        321, 163, 0.12195077740607943,
        (0.5, 0.4512003638525198, 0.407235746222414, 0.3481850127661187, 0.27541584105664163,
         0.19532565911825456, 0.1216380128699568, 0.08587616367429093, 0.06932413107651154),
        (0.0022682001941965084, False, 0.001557632398753894), 1.5977483510875777e-05,
    ),
}


@pytest.fixture(scope="module")
def pinned_reports(tmp_path_factory) -> dict[str, list]:
    """The astuple of mixing_report for each recorded spec, made under PINNED_BLAS."""
    golden = tmp_path_factory.mktemp("golden") / "golden.txt"
    dump_weight_file(golden_weights(), golden)
    specs = {spec: f"file:{golden}" if spec == "golden" else spec for spec in RECORDED_REPORTS}
    code = (
        "import dataclasses, json, sys\n"
        "from interchange.chain import mixing_report\n"
        "from interchange.graphs import parse_graph_spec\n"
        "specs = json.loads(sys.argv[1])\n"
        "print(json.dumps({name: dataclasses.astuple(mixing_report(parse_graph_spec(spec)))\n"
        "                  for name, spec in specs.items()}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(specs)],
        capture_output=True, text=True, check=True, env=child_env(**PINNED_BLAS),
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("spec", sorted(RECORDED_REPORTS))
def test_mixing_report_is_bit_for_bit_the_recorded_one(spec, pinned_reports):
    # the README examples' graphs, hypercubes, paths, a cycle, a star, a
    # Hamming graph and a weight file; JSON keeps every float's bits
    def report(lm, mix, delta_value, epsilons, clauses, bound) -> MixingReport:
        return MixingReport(
            lm, mix, delta_value, tuple(epsilons), ClauseDiagnostics(*clauses), bound
        )

    assert report(*pinned_reports[spec]) == report(*RECORDED_REPORTS[spec])


@pytest.mark.parametrize(
    "d, want", [(3, (7, 3)), (6, (18, 8)), (8, (26, 12)), (10, (35, 16))], ids=str
)
def test_hypercube_search_matches_the_krawtchouk_closed_form(d, want):
    # exact rationals: lmix, mix and every eps_k owe nothing to the search
    lm, mix, epsilons = hypercube_mixing(d)
    assert (lm, mix) == want
    report = mixing_report(hypercube(d))
    assert (report.lmix, report.mix) == (lm, mix)
    assert len(report.epsilons) == len(epsilons)
    for got, exact in zip(report.epsilons, epsilons):
        assert got == pytest.approx(float(exact), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "spec, want",
    [
        ("path:20", (304, 137)),
        ("path:128", (13580, 6121)),
        ("path:512", (219856, 99091)),
        ("path:1024", (881145, 397139)),
        ("cycle:64", (862, 389)),
        ("cycle:257", (13902, 6266)),
    ],
    ids=str,
)
def test_first_times_match_the_cosine_closed_form(spec, want):
    # each condition is monotone in t, so failing at t - 1 and holding at t on
    # the whole closed-form matrix makes t the first time.  On path:1024 the
    # minimum ratio moves by about 3e-7 a step there, far above the
    # closed form's rounding, and the eps_k agree within 7.7e-13 relative.
    family, n = spec.split(":")
    walk = CosineWalk(family, int(n))
    report = mixing_report(parse_graph_spec(spec))
    assert (report.lmix, report.mix) == want
    assert (walk.mixes(report.lmix - 1), walk.mixes(report.lmix)) == (False, True)
    assert (walk.tv_mixes(report.mix - 1), walk.tv_mixes(report.mix)) == (False, True)
    for k, got in enumerate(report.epsilons):
        assert got == pytest.approx(walk.epsilon(k), rel=1e-11, abs=0.0)


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
        ({(0, 1): 1e-320, (0, 2): 1e10}, "a transition probability on a weighted edge is below"),
        # every p(i, j) is at least 5e-301, but pi(0) = 1e-300 / 2e10 is subnormal
        (
            {(0, 1): 1e-300, (1, 2): 1e-290, (2, 3): 1e10},
            "the stationary weight of vertex 0 is below the normal float range",
        ),
        # disconnected as well: the degenerate weights are refused first
        (
            {(0, 1): 1e-300, (1, 2): 1e-290, (2, 3): 1e10, (4, 5): 1.0},
            "the stationary weight of vertex 0 is below the normal float range",
        ),
    ],
)
def test_underflowing_chains_are_rejected_when_built(entries, message):
    w = WeightFunction(1 + max(max(pair) for pair in entries), entries)
    with pytest.raises(DegenerateWeightError, match=message):
        LazyChain(w)


def test_mixing_report_disconnected():
    with pytest.raises(DisconnectedError, match="^mixing numbers are infinite on a disconnected"):
        mixing_report(WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0}))


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


@pytest.mark.parametrize("other", [complete(6), star(4)], ids=["complete:6", "star:4"])
def test_probability_bounds_refuse_another_weight_function(other):
    # complete(6) once lent path(6)'s chain its ratios and its regularity, and
    # star(4) ended in numpy's broadcast error
    with pytest.raises(ParameterError, match="the chain's own weight function"):
        verify_probability_bounds(lazy_chain(path(6)), other)


def sequential_probability_bounds(chain: LazyChain, w: WeightFunction) -> BoundCheckReport:
    """Reference: evaluate both slacks at every t up to lmix, one product per step."""
    constant = chain_module._PROBABILITY_CONSTANT
    lm = lmix(chain)
    ratio = w.vertex_weights / w.min_positive_weight()
    regular = chain_module.is_regular(w)
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
# chains, so the regular slack is also taken on the random chain, as if it
# were regular.  Both are fair inputs: the pruning rests on p_t <= max P^a for
# t >= a, which holds for every chain and every constant.
@settings(max_examples=80)
@given(
    connected_weights(),
    st.sampled_from([chain_module._PROBABILITY_CONSTANT, 1.0, 0.3, 0.1, 0.03]),
    st.booleans(),
)
def test_probability_bounds_match_sequential_oracle(w, constant, as_regular):
    chain = lazy_chain(w)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_PROBABILITY_CONSTANT", constant)
        if as_regular:
            patch.setattr(chain_module, "is_regular", lambda w: True)
        got = verify_probability_bounds(chain, w)
        want = sequential_probability_bounds(chain, w)
    assert got.regular is (as_regular or is_regular(w))
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
    # powers P^2 .. P^8192 itself: 13 of the 123 products.  The search makes
    # 13 doublings up to P^8192 and 10 lifts at bits 12 to 2; the
    # chi-distances settle the top P^16384 (s(8192)^2 = 0.163) and the lift
    # to 14336 (s(12288) s(2048) = 0.240).  Its ladder keeps the even levels
    # from P^16 up and makes the odd ones its unsettled lifts read again,
    # P^512, P^128 and P^32, and P^8 from P through P^2 and P^4, which is then
    # in hand for bit 2.  The squares are those 13 + 13 + 6.  Below bit 2 the
    # search walks 13577, 13578 and 13579 by P, three lifts of one product
    # each.
    products = record_products(monkeypatch)
    w = path(128)
    chain = lazy_chain(w)
    verify_probability_bounds(chain, w)
    assert len(products) == 110 + 13
    assert sum(square for _, square in products) == 13 + 13 + 6
    assert sorted(chain._dyadic) == list(range(14))


@pytest.mark.parametrize("spec", ["path:128", "path:512", "cycle:257"])
def test_probability_bounds_match_the_cosine_closed_form(spec):
    # the worst slacks sit at t = lmix; there the closed form, with no product
    # of P, gives both, and none of 80 log-spaced times up to lmix does worse
    family, n = spec.split(":")
    walk = CosineWalk(family, int(n))
    w = parse_graph_spec(spec)
    report = verify_probability_bounds(lazy_chain(w), w)
    assert report.regular is (family == "cycle")
    constant = chain_module._PROBABILITY_CONSTANT
    ratio = w.vertex_weights / w.min_positive_weight()

    def slacks(t: int) -> tuple[float, float]:
        # each row's largest p_t(i, j), from p_t(i, j) / pi(j)
        peaks = (walk.ratios(t) * walk.pi).max(axis=1)
        return (
            float((constant / math.sqrt(t) * ratio - peaks).min()),
            constant / t**0.25 - float(peaks.max()),
        )

    worst, worst_regular = slacks(report.lmix)
    assert report.worst_slack == pytest.approx(worst, rel=1e-12, abs=0.0)
    if report.regular:
        assert report.regular_worst_slack == pytest.approx(worst_regular, rel=1e-12, abs=0.0)
    for t in np.geomspace(1, report.lmix, 80).round().astype(int):
        plain, regular = slacks(int(t))
        assert plain >= worst
        assert regular >= worst_regular or not report.regular
