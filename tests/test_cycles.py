import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from interchange import cycles as cycles_module
from interchange.cycles import (
    MC_BLOCK,
    MC_MAX_EVENTS,
    MC_MAX_SAMPLES,
    Trajectory,
    _guide_table,
    _pick_ends,
    coefficient_dimension_sum,
    cycle_coefficients,
    cycle_count_blocks,
    cycle_counts_batch,
    exact_cycles_by_k,
    exact_mean,
    expected_cycles_by_k,
    expected_cycles_mc,
    expected_cycles_spectral,
    family_members,
    large_cycle_probability,
    oracle_t_grid,
    simulate_interchange,
)
from interchange.errors import CapError, ConsistencyError, DisconnectedError, ParameterError
from interchange.graphs import WeightFunction, complete, cycle, parse_graph_spec, path, star
from interchange.group_algebra import InterchangeExact
from interchange.irreps import hook_dim, lambda_kn
from interchange.qhf import qhf_exact, qhf_mc
from oracles import cycle_counts, irrep_block

# Upper 0.1% points of the chi-square law, by degrees of freedom.
CHI2_CRITICAL_1E3 = {4: 18.467, 6: 22.458}
CHI2_GRAPHS = {
    "complete:4": complete(4),
    "path:4": path(4),
    "star:5": star(5),
    # unequal weights, so a wrong edge-pick law shows
    "weighted:4": WeightFunction(
        4, {(0, 1): 3.0, (0, 2): 1.5, (0, 3): 0.25, (1, 2): 0.5, (2, 3): 1.0}
    ),
}


class TestCoefficients:
    def test_table_n6_k4(self):
        formula = cycle_coefficients(6, 4)
        assert dict(formula.terms) == {
            (6,): 1,
            (3, 3): -1,
            (2, 2, 1, 1): 1,
            (2, 1, 1, 1, 1): -1,
        }

    def test_table_n3_k2(self):
        formula = cycle_coefficients(3, 2)
        assert dict(formula.terms) == {(3,): 1, (1, 1, 1): -1}

    def test_table_n2_k2(self):
        formula = cycle_coefficients(2, 2)
        assert dict(formula.terms) == {(2,): 1, (1, 1): -1}

    def test_k1_table(self):
        # only [n] and [n-1, 1] contribute to fixed points
        formula = cycle_coefficients(5, 1)
        assert dict(formula.terms) == {(5,): 1, (4, 1): 1}

    def test_kn_table_is_alternating_hooks(self):
        formula = cycle_coefficients(5, 5)
        assert dict(formula.terms) == {
            (5,): 1,
            (4, 1): -1,
            (3, 1, 1): 1,
            (2, 1, 1, 1): -1,
            (1, 1, 1, 1, 1): 1,
        }

    def test_coefficient_lookup(self):
        coefficients = dict(cycle_coefficients(6, 4).terms)
        assert coefficients.get((3, 3), 0) == -1
        assert coefficients.get((4, 2), 0) == 0

    def test_dimension_sum_example(self):
        dims = [hook_dim(p) for p, _ in cycle_coefficients(6, 4).terms]
        assert dims == [1, 5, 9, 5]
        assert coefficient_dimension_sum(6, 4) == 0

    def test_dimension_sum_vanishes_for_k_at_least_2(self):
        for n in range(2, 11):
            for k in range(2, n + 1):
                assert coefficient_dimension_sum(n, k) == 0, (n, k)

    def test_all_candidates_valid_up_to_cap(self):
        # the literal index ranges never emit a malformed partition
        for n in range(1, 13):
            for k in range(1, n + 1):
                formula = cycle_coefficients(n, k)
                for p, a in formula.terms:
                    assert sum(p) == n
                    assert a in (-1, 1)

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            cycle_coefficients(5, 0)
        with pytest.raises(ParameterError):
            cycle_coefficients(5, 6)


class TestSpectralFormula:
    def test_complete3_two_cycles(self):
        w = complete(3)
        for t in [0.0, 0.05, 0.3, 1.0, 4.0]:
            expected = 0.5 * (1.0 - math.exp(-6.0 * t))
            assert expected_cycles_spectral(w, 2, t) == pytest.approx(expected, abs=1e-10)

    def test_complete3_three_cycles(self):
        w = complete(3)
        for t in [0.0, 0.05, 0.3, 1.0, 4.0]:
            expected = (1.0 - math.exp(-3.0 * t)) ** 2 / 3.0
            assert expected_cycles_spectral(w, 3, t) == pytest.approx(expected, abs=1e-10)

    def test_zero_at_zero(self):
        for w in [complete(4), path(5), star(5), cycle(6)]:
            for k in range(2, w.n + 1):
                assert expected_cycles_spectral(w, k, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_fixed_points_at_zero(self):
        assert expected_cycles_spectral(complete(4), 1, 0.0) == pytest.approx(4.0)

    def test_uniform_limit(self):
        for w in [complete(4), path(4), cycle(5)]:
            for k in range(1, w.n + 1):
                assert expected_cycles_spectral(w, k, 1e4) == pytest.approx(
                    1.0 / k, abs=1e-9
                )

    def test_array_time(self):
        w = complete(3)
        ts = np.array([0.0, 0.1, 1.0])
        got = expected_cycles_spectral(w, 2, ts)
        want = 0.5 * (1.0 - np.exp(-6.0 * ts))
        assert np.allclose(got, want, atol=1e-12)

    def test_negative_time(self):
        with pytest.raises(ParameterError):
            expected_cycles_spectral(complete(3), 2, -0.5)

    @pytest.mark.parametrize("t", ["1", True, ["1", 0.5]], ids=repr)
    def test_a_time_that_is_not_a_real_number(self, t):
        # "1" once returned 0.4988
        with pytest.raises(ParameterError, match="time must be a real number"):
            expected_cycles_by_k(complete(3), (2,), t)

    def test_cap(self):
        with pytest.raises(CapError):
            expected_cycles_spectral(complete(11), 2, 1.0)

    @pytest.mark.parametrize("w", [complete(5), path(6), star(7), cycle(8)])
    def test_every_k_at_once_equals_each_k(self, w):
        # a shared solve may read a block's spectrum off its conjugate where
        # a single k solved it, so the values agree to rounding
        ts = np.array([0.0, 0.1, 1.0, 10.0])
        table = expected_cycles_by_k(w, range(1, w.n + 1), ts)
        assert list(table) == list(range(1, w.n + 1))
        for k, got in table.items():
            assert np.allclose(got, expected_cycles_spectral(w, k, ts), rtol=1e-12, atol=1e-14)
        assert expected_cycles_by_k(w, [2], 0.5) == {2: expected_cycles_spectral(w, 2, 0.5)}

    def test_cycle_formula_routes_solve_each_block_once(self, monkeypatch):
        # the check solves one block per (graph, partition), reading each
        # conjugate off its partner: 46 eigensolves, where one solve per
        # (graph, k) took 90 for the same 55 (graph, partition) pairs
        from interchange.acceptance import SuiteConfig, check_cycle_formula_routes

        sizes = []
        solve = np.linalg.eigvalsh

        def counted(block):
            sizes.append(len(block))
            return solve(block)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert check_cycle_formula_routes(SuiteConfig.for_level("desk")).passed
        assert len(sizes) == 46

    def test_cycle_formula_routes_solve_each_process_once(self, monkeypatch):
        # the brute-force route diagonalizes the n! x n! regular representation
        # once per oracle graph, for every k: 5 eigh calls, where one per
        # (graph, k) took 21
        from interchange.acceptance import SuiteConfig, check_cycle_formula_routes

        sizes = []
        solve = np.linalg.eigh

        def counted(matrix):
            sizes.append(len(matrix))
            return solve(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert check_cycle_formula_routes(SuiteConfig.for_level("desk")).passed
        assert sizes == [6, 24, 24, 120, 120]


class TestFamilyFormulas:
    @staticmethod
    def member(n, k, family, i):
        [member] = [m for m in family_members(n, k) if (m.family, m.i) == (family, i)]
        return member

    def test_second_family_3_3(self):
        member = self.member(6, 3, "second", 0)
        assert (member.eigenvalue, member.dim) == (12, 5)

    def test_standard_partition_eigenvalue(self):
        for n in range(2, 11):
            member = self.member(n, 1, "second", 0)
            assert member.eigenvalue == n
            assert member.dim == n - 1

    def test_matches_content_and_hook_routes(self):
        for n in range(2, 11):
            for k in range(1, n + 1):
                members = family_members(n, k)
                # first family first, i ascending; the coefficient table follows it
                assert [(m.family, m.i) for m in members] == sorted(
                    (m.family, m.i) for m in members)
                assert cycle_coefficients(n, k).terms[1:] == tuple(
                    (m.partition, m.sign) for m in members)
                for m in members:
                    if m.family == "first":
                        p, sign = (k - m.i - 1, n - k + 1) + (1,) * m.i, (-1) ** (m.i + 1)
                    else:
                        p, sign = (n - k, k - m.i) + (1,) * m.i, (-1) ** m.i
                    assert (m.partition, m.sign) == (p, sign), (n, k, m)
                    assert m.eigenvalue == lambda_kn(p), (n, k, m)
                    assert m.dim == hook_dim(p), (n, k, m)


class TestSimulator:
    def test_time_zero_is_identity(self):
        traj = simulate_interchange(complete(4), 0.0)
        assert traj.final == (0, 1, 2, 3)
        assert traj.events == 0
        assert traj.counts[1] == 4

    def test_zero_weight_is_identity(self):
        w = WeightFunction(3, {})
        traj = simulate_interchange(w, 5.0, seed=7)
        assert traj.final == (0, 1, 2)
        assert traj.events == 0

    def test_deterministic_per_seed_and_index(self):
        w = complete(5)
        a = simulate_interchange(w, 1.3, seed=11, index=4)
        b = simulate_interchange(w, 1.3, seed=11, index=4)
        assert a.final == b.final
        assert a.events == b.events

    def test_indices_give_distinct_streams(self):
        w = complete(5)
        finals = {simulate_interchange(w, 2.0, seed=3, index=i).final for i in range(20)}
        assert len(finals) > 1

    def test_counts_invariant(self):
        w = star(6)
        for idx in range(10):
            traj = simulate_interchange(w, 0.8, seed=2, index=idx)
            assert sum(k * int(traj.counts[k]) for k in range(1, 7)) == 6

    def test_trajectory_invariant_enforced(self):
        counts = np.zeros(4, dtype=np.int64)
        counts[1] = 2  # says two fixed points on three marbles
        with pytest.raises(ConsistencyError):
            Trajectory(
                weights=complete(3),
                seed=0,
                index=0,
                t=0.0,
                final=(0, 1, 2),
                events=0,
                counts=counts,
            )

    def test_event_rate(self):
        # Poisson count with rate t * total weight
        w = complete(4)
        t, samples = 0.7, 400
        rate = t * sum(weight for _, weight in w.edges())
        events = np.array(
            [simulate_interchange(w, t, seed=5, index=i).events for i in range(samples)]
        )
        stderr = math.sqrt(rate / samples)
        assert abs(events.mean() - rate) < 3 * stderr

    def test_single_edge_swap_probability(self):
        w = WeightFunction(2, {(0, 1): 1.0})
        t, samples = 0.6, 2000
        swaps = sum(
            simulate_interchange(w, t, seed=9, index=i).final == (1, 0)
            for i in range(samples)
        )
        p = 0.5 * (1.0 - math.exp(-2.0 * t))
        stderr = math.sqrt(p * (1.0 - p) / samples)
        assert abs(swaps / samples - p) < 4 * stderr

    def test_negative_time(self):
        with pytest.raises(ParameterError):
            simulate_interchange(complete(3), -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time(self, t):
        with pytest.raises(ParameterError):
            simulate_interchange(complete(4), t)

    @pytest.mark.parametrize("t", ["1", True, [1.0]], ids=repr)
    def test_a_time_that_is_not_one_real_number(self, t):
        # "1" once ended in a TypeError and True ran as t = 1
        with pytest.raises(ParameterError, match="time must be"):
            simulate_interchange(complete(3), t)

    def test_event_cap(self):
        # complete(4) has total rate 6, so this asks for about 6e12 events
        with pytest.raises(CapError):
            simulate_interchange(complete(4), 1e12)

    def test_rng_rejects_negative_keys(self):
        for key in ({"seed": -1}, {"index": -1}):
            with pytest.raises(ParameterError, match=r"must be in \[0, 2\*\*64 - 1\]"):
                simulate_interchange(complete(3), 1.0, **key)

    @pytest.mark.parametrize("seed, index", [(0, 0), (5, 7), (2**64 - 1, 3)])
    def test_rng_is_the_philox_stream_of_its_key(self, seed, index):
        key = np.array([seed, index], dtype=np.uint64)
        plain = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(cycles_module._philox(seed, index, 0).random(8), plain.random(8))

    @pytest.mark.parametrize("key", [{"seed": 2**64}, {"index": 2**64}])
    def test_key_words_past_64_bits(self, key):
        # numpy raised OverflowError on these
        with pytest.raises(ParameterError, match=r"must be in \[0, 2\*\*64 - 1\]"):
            simulate_interchange(complete(3), 1.0, **key)

    def test_arguments_are_checked_once(self, monkeypatch):
        calls = []
        check = cycles_module._check_run
        monkeypatch.setattr(cycles_module, "_check_run", lambda *a: calls.append(a) or check(*a))
        simulate_interchange(complete(3), 1.0, seed=5, index=7)
        assert calls == [(3.0, 1, 5, 7)]

    def test_a_long_run_draws_several_blocks_of_waiting_times(self):
        # complete(3) rings at rate R = 3, so R t = 9e4 events, more than the
        # 65536 waiting times one block draws
        w, t = complete(3), 3e4
        mean = 3.0 * t
        a = simulate_interchange(w, t, seed=6, index=2)
        b = simulate_interchange(w, t, seed=6, index=2)
        assert a.events > 1 << 16
        assert abs(a.events - mean) <= 5.0 * math.sqrt(mean)
        assert sum(k * int(a.counts[k]) for k in range(1, 4)) == 3
        assert (a.final, a.events) == (b.final, b.events)
        assert np.array_equal(a.counts, b.counts)


def _blocks(w, t, samples, seed):
    return np.concatenate(list(cycle_count_blocks(w, t, samples, seed)))


# Column sums and a SHA-256 digest of the little-endian int64 counts of
# cycle_count_blocks(w, t, 600, seed=5), recorded from the binary-search
# edge picks: any change to the Monte Carlo streams fails here.
GOLDEN_STREAMS = {
    "path:10": (
        parse_graph_spec("path:10"), 250.0,
        [0, 612, 293, 218, 152, 122, 109, 75, 65, 69, 61],
        "e7daab742dfe5324b11c28dbbd3e2b2fa45c7b083ac9df591bab333cd4490c62",
    ),
    "hamming2:3": (
        parse_graph_spec("hamming2:3"), 0.5,
        [0, 1266, 414, 242, 148, 123, 75, 71, 33, 18],
        "a022d87e9fbd988ef2137fb449ae69e4b2183d72b41260b24a81b392a9700a58",
    ),
    "weighted:4": (
        CHI2_GRAPHS["weighted:4"], 1.5,
        [0, 718, 311, 168, 139],
        "a115bff3044cff9afcd611968a574ff72809d156e31a3962d02c6a62f72f64a4",
    ),
    # one event per trajectory on average: rows that never swap sit beside
    # rows that do
    "complete:5": (
        parse_graph_spec("complete:5"), 0.1,
        [0, 2100, 302, 77, 15, 1],
        "3b2ee47e73f71c81a9cf25edb9ddae1e236dd91ce8dcb1c6f5eb7c04296ea2cc",
    ),
}


class TestGuideTable:
    """Edge picks by cell must equal searchsorted(cumulative, u, side="right")."""

    @staticmethod
    def check_picks(weights, draws, base=0):
        weights = np.array(weights)
        ends = base + np.stack([np.arange(len(weights)), np.arange(len(weights)) + 1])
        guide = _guide_table(ends, weights)
        cells = len(guide.first)
        assert cells & (cells - 1) == 0 and cells >= 4 * len(weights)
        cumulative = np.cumsum(weights)
        cumulative /= cumulative[-1]
        # the lowest and highest draw of every cell, each cumulative entry and
        # the draw just below it, then the given draws
        bounds = np.arange(cells) / cells
        u = np.concatenate([
            bounds,
            np.nextafter(bounds[1:], 0.0),
            [1.0 - 2.0**-53],
            cumulative[:-1],
            np.nextafter(cumulative[:-1], 0.0),
            draws,
        ])
        u = u[u < 1.0]  # weights lost to rounding leave entries at 1, which no draw reaches
        want = np.searchsorted(cumulative, u, side="right")
        first, second = _pick_ends(guide, u)
        assert (first == ends[0, want]).all() and (second == ends[1, want]).all()
        return guide

    @given(
        st.lists(
            st.one_of(st.floats(0.01, 100.0), st.floats(1e-300, 1e100)),
            min_size=1, max_size=64,
        ),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=32),
    )
    @example(weights=[1.0, 1.0, 2.0], draws=[])
    @example(weights=[1.0, 2.0], draws=[1.0 / 3.0])
    @example(weights=[1.0, 1e-300, 1.0], draws=[0.5])
    def test_picks_equal_searchsorted(self, weights, draws):
        self.check_picks(weights, draws)

    def test_entries_on_cell_edges_split_no_cell(self):
        # cumulative 1/4, 1/2, 1: every entry is a cell edge
        guide = self.check_picks([1.0, 1.0, 2.0], [0.25, 0.5])
        assert (guide.first >= 0).all()
        assert (np.bincount(guide.first) == len(guide.first) * np.array([0.25, 0.25, 0.5])).all()

    def test_one_split_cell_per_inner_entry(self):
        guide = self.check_picks([1.0, 2.0, 4.0], [])
        assert (guide.first < 0).sum() == 2  # 1/7 and 3/7 are not dyadic

    @pytest.mark.parametrize("base", [2**15 - 2, 2**16 + 1])
    def test_ends_beyond_int16(self, base):
        # library weight functions are not capped at MAX_VERTICES
        self.check_picks([1.0, 2.0, 4.0], [], base)

    def test_table_size(self):
        assert len(self.check_picks([1.0], []).first) == 2**12
        many = np.ones(2**18)
        guide = _guide_table(np.zeros((2, len(many)), dtype=np.intp), many)
        assert len(guide.first) == 2**20 and guide.first.dtype == np.int16


class TestEngine:
    @pytest.mark.parametrize("name", GOLDEN_STREAMS)
    def test_streams_are_pinned(self, name):
        w, t, column_sums, digest = GOLDEN_STREAMS[name]
        counts = _blocks(w, t, 600, seed=5)
        assert counts.sum(axis=0).tolist() == column_sums
        assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", CHI2_GRAPHS)
    def test_cycle_types_match_exact_distribution(self, name):
        # chi-square over cycle types at t = 0.5 / gap; every expected cell
        # holds about 100 or more of the 20k samples
        w = CHI2_GRAPHS[name]
        t = oracle_t_grid(w)[3]
        process = InterchangeExact(w)
        want: dict[tuple, float] = {}
        for p, perm in zip(process.distribution(t), process.permutations):
            key = tuple(cycle_counts(perm).tolist())
            want[key] = want.get(key, 0.0) + p
        samples = 20_000
        seen = dict.fromkeys(want, 0)
        for row in _blocks(w, t, samples, seed=2024):
            seen[tuple(row.tolist())] += 1
        assert sum(seen.values()) == samples  # no cycle type outside S_n
        stat = sum((seen[k] - samples * p) ** 2 / (samples * p) for k, p in want.items())
        assert stat < CHI2_CRITICAL_1E3[len(want) - 1], (stat, seen)

    @given(st.integers(1, 12).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=8)))
    def test_batch_counter_matches_cycle_counts(self, perms):
        counts = cycle_counts_batch(np.array(perms))
        n = len(perms[0])
        for row, perm in zip(counts, perms):
            assert row.tolist() == cycle_counts(tuple(perm)).tolist()
            assert row @ np.arange(n + 1) == n

    def test_same_seed_same_blocks(self):
        w = star(6)
        a = list(cycle_count_blocks(w, 0.8, 2 * MC_BLOCK + 5, seed=3))
        b = list(cycle_count_blocks(w, 0.8, 2 * MC_BLOCK + 5, seed=3))
        assert [x.shape for x in a] == [(MC_BLOCK, 7), (MC_BLOCK, 7), (5, 7)]
        assert all((x == y).all() for x, y in zip(a, b))
        assert not (_blocks(w, 0.8, 100, seed=4) == a[0][:100]).all()

    def test_prefix_of_larger_run(self):
        w = path(7)
        n_rows = MC_BLOCK + 100
        assert (_blocks(w, 2.0, n_rows, 9) == _blocks(w, 2.0, 2 * n_rows, 9)[:n_rows]).all()

    @pytest.mark.parametrize("w, t", [(complete(5), 0.0), (WeightFunction(4, {}), 3.0)])
    def test_no_events_gives_identity(self, w, t):
        identity = np.zeros(w.n + 1, dtype=np.int64)
        identity[1] = w.n
        assert (_blocks(w, t, 600, seed=1) == identity).all()

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, "1", True, [1.0]], ids=repr)
    def test_bad_time(self, t):
        # "1" once ended in a TypeError
        with pytest.raises(ParameterError):
            cycle_count_blocks(complete(4), t, 10, seed=0)

    def test_bad_samples_and_seed(self):
        with pytest.raises(ParameterError):
            cycle_count_blocks(complete(4), 1.0, 0, seed=0)
        with pytest.raises(ParameterError):
            cycle_count_blocks(complete(4), 1.0, 10, seed=-1)
        with pytest.raises(ParameterError):
            cycle_count_blocks(complete(4), 1.0, 10, seed=2**64)

    def test_caps(self):
        with pytest.raises(CapError, match="samples"):
            cycle_count_blocks(complete(4), 0.0, MC_MAX_SAMPLES + 1, seed=0)
        # complete(4) has total rate 6: the event cap counts samples * 6 * t
        for samples in (1, MC_MAX_SAMPLES):
            t = MC_MAX_EVENTS / (6 * samples)
            cycle_count_blocks(complete(4), 0.999 * t, samples, seed=0)  # admitted
            with pytest.raises(CapError, match="events"):
                cycle_count_blocks(complete(4), 1.001 * t, samples, seed=0)


class TestMonteCarlo:
    def test_matches_spectral(self):
        w = complete(4)
        t, samples = 0.4, 3000
        want = expected_cycles_spectral(w, 2, t)
        got, stderr = expected_cycles_mc(w, (2,), t, samples, seed=13)[2]
        assert abs(got - want) < 4 * stderr

    def test_long_cycles_are_indicators(self):
        w = complete(5)
        for idx in range(50):
            counts = simulate_interchange(w, 1.0, seed=21, index=idx).counts
            for k in range(3, 6):
                assert counts[k] in (0, 1)

    def test_large_cycle_probability_zero_at_zero(self):
        p, stderr = large_cycle_probability(complete(6), 0.0, 50, seed=1)
        assert p == 0.0
        assert stderr == 0.0

    def test_large_cycle_probability_matches_spectral_sum(self):
        # for k > n/2 the expected count is the probability, so the summed
        # spectral values bound the union probability from above
        w = complete(4)
        t, samples = 0.5, 2000
        p, stderr = large_cycle_probability(w, t, samples, seed=17)
        upper = sum(expected_cycles_spectral(w, k, t) for k in (3, 4))
        assert p <= upper + 4 * stderr

    @pytest.mark.parametrize("samples", [1, 7, 20_000])
    @pytest.mark.parametrize("spec", ["hamming2:3", "complete:8"])
    def test_every_k_from_one_set_of_trajectories(self, spec, samples):
        # each k's mean is bit for bit the one it gets alone: the counts are
        # integers, so their sums are exact.  The standard errors agree to
        # rounding only, because numpy sums a column of a 2-D array in another
        # order than a 1-D array.  One sample reports a standard error of 0.
        w = parse_graph_spec(spec)
        t = oracle_t_grid(w)[3]  # 0.5 / gap, the suite's rule
        ks = (2, w.n // 2 + 1)
        table = expected_cycles_mc(w, ks, t, samples, seed=3)
        assert list(table) == list(ks)
        for k in ks:
            mean, stderr = expected_cycles_mc(w, (k,), t, samples, seed=3)[k]
            assert table[k][0] == mean, k
            assert table[k][1] == pytest.approx(stderr, rel=1e-12, abs=0.0), k
            if samples == 1:
                assert table[k][1] == stderr == 0.0

    def test_sample_validation(self):
        with pytest.raises(ParameterError):
            expected_cycles_mc(complete(3), (2,), 1.0, 0)
        with pytest.raises(ParameterError):
            large_cycle_probability(complete(3), 1.0, 0)
        with pytest.raises(ParameterError):
            expected_cycles_mc(complete(3), (4,), 1.0, 10)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time(self, t):
        with pytest.raises(ParameterError):
            expected_cycles_spectral(complete(4), 2, t)
        with pytest.raises(ParameterError):
            expected_cycles_spectral(complete(4), 2, np.array([0.5, t]))
        with pytest.raises(ParameterError):
            exact_cycles_by_k(complete(4), (2,), t)[2]
        with pytest.raises(ParameterError):
            expected_cycles_mc(complete(4), (2,), t, 10)
        with pytest.raises(ParameterError):
            large_cycle_probability(complete(4), t, 10)


def _trajectory(samples, seed, index):
    trajectory = simulate_interchange(complete(4), 2.0, seed, index)
    return trajectory.final, trajectory.events, trajectory.counts.tolist()


# Every Monte Carlo entry point as a call of (samples, seed, index) that
# returns plain values, with the run arguments it takes.
MC_ENTRY_POINTS = {
    "cycle_count_blocks": (
        lambda samples, seed, index: np.concatenate(
            list(cycle_count_blocks(complete(4), 0.5, samples, seed))).tolist(),
        ("samples", "seed")),
    "expected_cycles_mc": (
        lambda samples, seed, index: expected_cycles_mc(complete(4), (2,), 0.5, samples, seed),
        ("samples", "seed")),
    "large_cycle_probability": (
        lambda samples, seed, index: large_cycle_probability(complete(4), 0.5, samples, seed),
        ("samples", "seed")),
    "qhf_mc": (
        lambda samples, seed, index: qhf_mc(complete(4), 0.3, samples, seed),
        ("samples", "seed")),
    "simulate_interchange": (_trajectory, ("seed", "index")),
}
RUN_ARGUMENTS = {"samples": 1000, "seed": 1, "index": 0}
# each used to run as its integer part (a wrong stream) or end in a TypeError
NOT_INTEGERS = [("seed", 1.5), ("index", 0.5), ("samples", 1000.0),
                ("samples", True), ("seed", True)]


@pytest.mark.parametrize(
    "entry, argument, value",
    [(entry, argument, value) for entry, (_, takes) in MC_ENTRY_POINTS.items()
     for argument, value in NOT_INTEGERS if argument in takes],
    ids=str,
)
def test_run_arguments_must_be_integers(entry, argument, value):
    call, _ = MC_ENTRY_POINTS[entry]
    with pytest.raises(ParameterError, match="must be an integer"):
        call(**{**RUN_ARGUMENTS, argument: value})


@pytest.mark.parametrize("integer", [np.int64, np.uint64], ids=lambda t: t.__name__)
@pytest.mark.parametrize("entry", sorted(MC_ENTRY_POINTS))
def test_numpy_integer_run_arguments_draw_the_same_numbers(entry, integer):
    call, _ = MC_ENTRY_POINTS[entry]
    want = call(**RUN_ARGUMENTS)
    assert call(**{name: integer(value) for name, value in RUN_ARGUMENTS.items()}) == want


class TestBruteForce:
    def test_matches_spectral_on_grid(self):
        for w in [complete(3), path(4), star(4), complete(5)]:
            ts = oracle_t_grid(w)
            for k in range(1, w.n + 1):
                want = expected_cycles_spectral(w, k, ts)
                got = np.array([exact_cycles_by_k(w, (k,), t)[k] for t in ts])
                assert np.allclose(got, want, atol=1e-8), (w, k)

    def test_time_array_equals_scalar_loop(self):
        for w in [complete(3), path(4), star(4), cycle(5), complete(5)]:
            ts = oracle_t_grid(w)
            process = InterchangeExact(w)
            rows = process.distribution(ts)
            assert rows.shape == (len(ts), len(process.permutations))
            for t, row in zip(ts, rows):
                assert np.abs(row - process.distribution(t)).max() <= 1e-15
            for k in range(1, w.n + 1):
                got = exact_cycles_by_k(w, (k,), ts)[k]
                loop = np.array([exact_cycles_by_k(w, (k,), t)[k] for t in ts])
                assert got.shape == ts.shape
                # counts reach n, so the bound is relative as well as absolute
                assert np.allclose(got, loop, rtol=1e-15, atol=1e-15), (w, k)

    @pytest.mark.parametrize(
        "w", [complete(3), complete(4), complete(5), path(4), star(4)], ids=repr)
    def test_exact_mean_is_the_loop_over_permutations(self, w):
        # the loop adds p * counts[k] over all_perms(n) in order, from the
        # same distribution; an array of times gets one row per time
        process = InterchangeExact(w)
        ks = [1, 2, w.n]
        ts = oracle_t_grid(w)

        def loop(distribution):
            total = np.zeros(len(ks))
            for p, perm in zip(distribution, process.permutations):
                total += p * cycle_counts(perm)[ks]
            return total

        rows = exact_mean(w, ts, lambda counts: counts[:, ks])
        assert rows.shape == (len(ts), len(ks))
        for t, row, distribution in zip(ts, rows, process.distribution(ts)):
            assert np.array_equal(row, loop(distribution)), t
            got = exact_mean(w, t, lambda counts: counts[:, ks])
            assert np.array_equal(got, loop(process.distribution(t))), t

    def test_every_k_at_once_equals_each_k(self):
        # one solve of the process for every k, the same sums bit for bit
        for w in [complete(3), path(4), star(4), cycle(5)]:
            ts = oracle_t_grid(w)
            table = exact_cycles_by_k(w, range(1, w.n + 1), ts)
            assert list(table) == list(range(1, w.n + 1))
            for k, got in table.items():
                assert np.array_equal(got, exact_cycles_by_k(w, (k,), ts)[k]), (w, k)
            assert exact_cycles_by_k(w, [2], 0.3)[2] == exact_cycles_by_k(w, (2,), 0.3)[2]

    def test_closed_form(self):
        w = complete(3)
        for t in [0.1, 0.7]:
            assert exact_cycles_by_k(w, (2,), t)[2] == pytest.approx(
                0.5 * (1.0 - math.exp(-6.0 * t)), abs=1e-10
            )

    def test_uniform_fixed_point_limit(self):
        for w in [complete(3), complete(4), path(5)]:
            assert exact_cycles_by_k(w, (1,), 1e4)[1] == pytest.approx(1.0, abs=1e-9)

    def test_cap(self):
        with pytest.raises(CapError):
            exact_cycles_by_k(complete(6), (2,), 1.0)[2]


def young_subgroup_mean(w: WeightFunction, k: int) -> float:
    """Mean number of k-cycles under the uniform law on the permutations that
    keep every connected component of w, enumerated: the t -> infinity law."""
    label = list(range(w.n))
    for _ in range(w.n):  # relax each vertex to the smallest label it reaches
        for (i, j), _ in w.edges():
            label[i] = label[j] = min(label[i], label[j])
    components = [[v for v in range(w.n) if label[v] == root] for root in sorted(set(label))]
    counts = []
    for images in itertools.product(*(itertools.permutations(c) for c in components)):
        perm = [0] * w.n
        for component, image in zip(components, images):
            for v, u in zip(component, image):
                perm[v] = u
        counts.append(int(cycle_counts(tuple(perm))[k]))
    return sum(counts) / len(counts)


LARGE_T_GRAPHS = [
    complete(4),
    path(5),
    path(6),
    WeightFunction(4, {(0, 1): 1.0, (2, 3): 2.5}),
    WeightFunction(5, {(0, 1): 1.0, (1, 2): 0.3, (3, 4): 4.0}),
    WeightFunction(6, {(0, 1): 1.0, (1, 2): 0.7, (3, 4): 1.3, (4, 5): 0.4}),
    WeightFunction(6, {(0, 2): 1.0, (2, 4): 0.5}),
]


@pytest.mark.parametrize("w", LARGE_T_GRAPHS, ids=repr)
def test_exact_routes_reach_the_young_subgroup_law(w):
    # rounding leaves the kernel eigenvalues at about 1e-16, which exp(-t lambda)
    # used to blow up or decay at large t; the known kernel is now exactly 0
    ts = [1e14, 1e17, 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(1, w.n + 1):
            want = young_subgroup_mean(w, k)
            got = expected_cycles_spectral(w, k, np.array(ts))
            assert np.abs(got - want).max() <= 1e-12, (k, got, want)
            if w.n <= 5:
                for t in ts:
                    assert abs(exact_cycles_by_k(w, (k,), t)[k] - want) <= 1e-12, (k, t)


# the exact route answered k = 0 with 0.0 and k = -1 with the n-cycle count;
# k = n + 1, 1.5 and True ended in tracebacks, or ran as k = 1 under the key True
CYCLE_ROUTES = {
    "table": lambda ks: [cycle_coefficients(4, k) for k in ks],
    "spectral": lambda ks: expected_cycles_by_k(complete(4), ks, 1.0),
    "exact": lambda ks: exact_cycles_by_k(complete(4), ks, 1.0),
    "mc": lambda ks: expected_cycles_mc(complete(4), ks, 1.0, 1000, 1),
}


@pytest.mark.parametrize(
    "k, message",
    [(0, "need 1 <= k <= n, got k=0, n=4"), (-1, "need 1 <= k <= n, got k=-1, n=4"),
     (5, "need 1 <= k <= n, got k=5, n=4"), (1.5, "k must be an integer, got 1.5"),
     (True, "k must be an integer, got True")],
    ids=repr,
)
@pytest.mark.parametrize("route", sorted(CYCLE_ROUTES))
def test_every_cycle_route_refuses_a_bad_k(route, k, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        CYCLE_ROUTES[route]((2, k))


@pytest.mark.parametrize("route", sorted(CYCLE_ROUTES))
def test_a_numpy_integer_k_gives_the_same_numbers(route):
    assert CYCLE_ROUTES[route]((np.int64(2), 4)) == CYCLE_ROUTES[route]((2, 4))


# A path whose last edge weighs 1e-300: eigh leaves its regular representation
# with eigenvalues 0, -2.06e-15, -4.4e-16, -2.2e-16, and exp(-t lambda) blew
# the -2e-15 up, so the brute sum read 1.25e88 at t = 1e17 (and NaN at 1e200)
STIFF_PATH = WeightFunction(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1e-300})


def stiff_paths(count: int, seed: int = 3) -> list[WeightFunction]:
    """Paths of 4 to 8 points; each edge weighs 10^U(-300, 0) with probability
    0.3, else U(0.5, 2), and half of them get a closing edge of 10^U(-300, 0)."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(4, 9))
        entries = {}
        for i in range(n - 1):
            tiny = rng.random() < 0.3
            entries[(i, i + 1)] = float(10 ** rng.uniform(-300, 0) if tiny else rng.uniform(0.5, 2))
        if rng.random() < 0.5:
            entries[(0, n - 1)] = float(10 ** rng.uniform(-300, 0))
        graphs.append(WeightFunction(n, entries))
    return graphs


@pytest.mark.parametrize("t", [1e17, 1e200], ids=repr)
def test_exact_routes_refuse_a_negative_eigenvalue_that_t_blows_up(t):
    with pytest.raises(CapError, match=re.escape(f"exact routes refuse t = {t:.6g}: ")) as refusal:
        exact_cycles_by_k(STIFF_PATH, (2,), t)
    assert str(refusal.value).endswith("(weight ratio 1e+300)")
    with pytest.raises(CapError, match="exact routes refuse"):
        qhf_exact(STIFF_PATH, t)


def test_a_stiff_path_still_answers_where_rounding_cannot_grow():
    assert exact_cycles_by_k(STIFF_PATH, (2,), 1e3)[2] == pytest.approx(0.5, abs=1e-9)
    assert expected_cycles_by_k(STIFF_PATH, (2,), 1e3)[2] == pytest.approx(0.5, abs=1e-12)


def test_the_spectral_route_refuses_a_negative_block_eigenvalue():
    # 104 of this graph's block eigenvalues are rounding below 0 once the kernel
    # is set to 0; at t = 1e17 the formula over every k reached 2.1e86
    w = stiff_paths(195)[194]
    assert w.n == 8
    with pytest.raises(CapError, match=r"exact routes refuse t = 1e\+17"):
        expected_cycles_by_k(w, range(1, 9), 1e17)


class TestOracleGrid:
    def test_grid_shape_and_scale(self):
        ts = oracle_t_grid(complete(4))
        assert ts[0] == 0.0
        assert np.allclose(ts * 4.0, [0.0, 0.01, 0.1, 0.5, 1.0, 5.0])

    def test_disconnected_rejected(self):
        w = WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(DisconnectedError):
            oracle_t_grid(w)

    def test_tiny_connected_weights_get_a_scaled_grid(self):
        # connectivity is read off the graph, not off a float gap, so the
        # grid of path:3 with weights 1e-13 is that of path:3 scaled by 1e13
        w = WeightFunction(3, {(0, 1): 1e-13, (1, 2): 1e-13})
        ts = oracle_t_grid(w)
        assert np.allclose(ts * 1e-13, oracle_t_grid(path(3)), rtol=1e-12)
        ks = range(1, 4)
        spectral, brute = expected_cycles_by_k(w, ks, ts), exact_cycles_by_k(w, ks, ts)
        assert max(float(np.abs(spectral[k] - brute[k]).max()) for k in ks) <= 1e-12

    @staticmethod
    def cliques_joined_by_a_whisker(a: int, b: int) -> WeightFunction:
        # unit cliques on a and on b vertices, joined by one 1e-20 edge: the
        # true gap is about 1e-20, far below the eigensolver's resolution
        entries = {pair: 1.0 for pair in itertools.combinations(range(a), 2)}
        entries |= {(a + i, a + j): 1.0 for i, j in itertools.combinations(range(b), 2)}
        return WeightFunction(a + b, entries | {(a - 1, a): 1e-20})

    def test_a_gap_lost_to_rounding_is_a_cap_error(self):
        # with one OpenBLAS thread the [n-1, 1] block read these gaps as
        # 5.6e-17, -5.6e-17 and -2.8e-16, where the true ones are about 1e-20
        for a, b in [(2, 2), (3, 2), (3, 3)]:
            w = self.cliques_joined_by_a_whisker(a, b)
            assert w.is_connected()
            with pytest.raises(CapError, match=(
                r"^Laplacian gap \S+ is not above eigvalsh's error bound \S+e-1[56]$"
            )):
                oracle_t_grid(w)

    def test_a_stiff_path_above_the_resolution_gets_its_grid(self):
        # L_w's gap is 1.3333333327e-9 (to 50 digits by mpmath), above the
        # bound 4 u lambda_max = 8.9e-11, and the computed gap is within it
        w = WeightFunction(4, {(0, 1): 1e-9, (1, 2): 1.0, (2, 3): 1e5})
        assert abs(1 / oracle_t_grid(w)[4] - 1.3333333327407e-9) <= 4 * 2.0**-53 * 2e5

    @pytest.mark.parametrize("n", [3, 10, 11, 128, 1024])
    def test_path_grids_follow_the_cosine_gap(self, n):
        # the gap of path:n is 2 (1 - cos(pi / n)), past the blocks' reach too
        assert oracle_t_grid(path(n))[4] * 2 * (1 - math.cos(math.pi / n)) == pytest.approx(
            1.0, abs=1e-9)

    def test_the_laplacian_gap_is_the_standard_block_gap(self):
        # the pair of routes to the gap: L_w's lambda_2 and the [n-1, 1] block
        from interchange.acceptance import SUITE_GRAPHS, random_connected_weights

        rng = np.random.default_rng(7)
        graphs = [w for _, w in SUITE_GRAPHS if w.n <= 10] + [complete(6), star(4)]
        graphs += [random_connected_weights(rng, n) for n in range(2, 11) for _ in range(4)]
        for w in graphs:
            block = irrep_block(w, (w.n - 1, 1) if w.n > 2 else (1, 1)).lambda_min
            assert 1 / oracle_t_grid(w)[4] == pytest.approx(block, rel=1e-12, abs=0.0), w
