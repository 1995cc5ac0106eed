import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from interchange.cycles import (
    MC_BLOCK,
    MC_MAX_EVENTS,
    MC_MAX_SAMPLES,
    CycleFormula,
    Trajectory,
    coefficient_dimension_sum,
    cycle_coefficients,
    cycle_count_blocks,
    cycle_counts_batch,
    exact_cycles_bruteforce,
    expected_cycles_mc,
    expected_cycles_spectral,
    family_lambda_dim,
    first_family_range,
    large_cycle_mass,
    large_cycle_probability,
    oracle_t_grid,
    second_family_range,
    simulate_interchange,
    trajectory_rng,
)
from interchange.errors import CapError, ConsistencyError, ParameterError
from interchange.graphs import WeightFunction, complete, cycle, path, star
from interchange.group_algebra import InterchangeExact, cycle_counts
from interchange.irreps import delta_on_irrep, hook_dim, lambda_kn

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
        formula = cycle_coefficients(6, 4)
        assert formula.coefficient((3, 3)) == -1
        assert formula.coefficient((4, 2)) == 0

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

    def test_cap(self):
        with pytest.raises(CapError):
            expected_cycles_spectral(complete(11), 2, 1.0)


class TestFamilyFormulas:
    def test_second_family_3_3(self):
        lam, dim = family_lambda_dim(6, 3, 0, "second")
        assert (lam, dim) == (12, 5)

    def test_standard_partition_eigenvalue(self):
        for n in range(2, 11):
            lam, dim = family_lambda_dim(n, 1, 0, "second")
            assert lam == n
            assert dim == n - 1

    def test_matches_content_and_hook_routes(self):
        for n in range(2, 11):
            for k in range(1, n + 1):
                formula = cycle_coefficients(n, k)
                by_partition = dict(formula.terms)
                for family, rng in [
                    ("first", first_family_range(n, k)),
                    ("second", second_family_range(n, k)),
                ]:
                    for i in rng:
                        lam, dim = family_lambda_dim(n, k, i, family)
                        if family == "first":
                            p = (k - i - 1, n - k + 1) + (1,) * i
                        else:
                            p = (n - k, k - i) + (1,) * i
                        assert p in by_partition
                        assert lam == lambda_kn(p), (n, k, i, family)
                        assert dim == hook_dim(p), (n, k, i, family)

    def test_out_of_range_index(self):
        with pytest.raises(ParameterError):
            family_lambda_dim(6, 4, 1, "first")
        with pytest.raises(ParameterError):
            family_lambda_dim(6, 4, 4, "second")
        with pytest.raises(ParameterError):
            family_lambda_dim(6, 4, 1, "both")


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

    def test_event_cap(self):
        # complete(4) has total rate 6, so this asks for about 6e12 events
        with pytest.raises(CapError):
            simulate_interchange(complete(4), 1e12)

    def test_rng_rejects_negative_keys(self):
        with pytest.raises(ParameterError):
            trajectory_rng(-1, 0)


def _blocks(w, t, samples, seed):
    return np.concatenate(list(cycle_count_blocks(w, t, samples, seed)))


class TestEngine:
    @pytest.mark.parametrize("name", CHI2_GRAPHS)
    def test_cycle_types_match_exact_distribution(self, name):
        # chi-square over cycle types at t = 0.5 / gap; every expected cell
        # holds about 100 or more of the 20k samples
        w = CHI2_GRAPHS[name]
        t = 0.5 / delta_on_irrep(w, (w.n - 1, 1)).lambda_min
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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_time(self, t):
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
        got, stderr = expected_cycles_mc(w, 2, t, samples, seed=13)
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

    def test_large_cycle_mass_matches_spectral(self):
        w = complete(6)
        t, samples = 0.3, 1500
        got, stderr = large_cycle_mass(w, t, samples, seed=29)
        want = sum(expected_cycles_spectral(w, k, t) for k in (3, 4))
        assert abs(got - want) < 4 * stderr

    def test_sample_validation(self):
        with pytest.raises(ParameterError):
            expected_cycles_mc(complete(3), 2, 1.0, 0)
        with pytest.raises(ParameterError):
            large_cycle_probability(complete(3), 1.0, 0)
        with pytest.raises(ParameterError):
            expected_cycles_mc(complete(3), 4, 1.0, 10)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time(self, t):
        with pytest.raises(ParameterError):
            expected_cycles_mc(complete(4), 2, t, 10)
        with pytest.raises(ParameterError):
            large_cycle_probability(complete(4), t, 10)
        with pytest.raises(ParameterError):
            large_cycle_mass(complete(4), t, 10)

    def test_large_cycle_mass_positive_after_burn_in(self):
        # at t = 10/n the mass of cycles with n/2 <= length <= 3n/4 is
        # decisively positive; no particular constant is asserted
        for n in (6, 8):
            mass, stderr = large_cycle_mass(complete(n), 10.0 / n, 1200, seed=41)
            assert mass - 4 * stderr > 0, (n, mass, stderr)


class TestBruteForce:
    def test_matches_spectral_on_grid(self):
        for w in [complete(3), path(4), star(4), complete(5)]:
            ts = oracle_t_grid(w)
            for k in range(1, w.n + 1):
                want = expected_cycles_spectral(w, k, ts)
                got = np.array([exact_cycles_bruteforce(w, k, t) for t in ts])
                assert np.allclose(got, want, atol=1e-8), (w, k)

    def test_closed_form(self):
        w = complete(3)
        for t in [0.1, 0.7]:
            assert exact_cycles_bruteforce(w, 2, t) == pytest.approx(
                0.5 * (1.0 - math.exp(-6.0 * t)), abs=1e-10
            )

    def test_uniform_fixed_point_limit(self):
        for w in [complete(3), complete(4), path(5)]:
            assert exact_cycles_bruteforce(w, 1, 1e4) == pytest.approx(1.0, abs=1e-9)

    def test_cap(self):
        with pytest.raises(CapError):
            exact_cycles_bruteforce(complete(6), 2, 1.0)


class TestOracleGrid:
    def test_grid_shape_and_scale(self):
        ts = oracle_t_grid(complete(4))
        assert ts[0] == 0.0
        assert np.allclose(ts * 4.0, [0.0, 0.01, 0.1, 0.5, 1.0, 5.0])

    def test_disconnected_rejected(self):
        w = WeightFunction(4, {(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(ParameterError):
            oracle_t_grid(w)
