import math

import numpy as np
import pytest

from interchange.cycles import mc_per_sample
from interchange.errors import CapError, ParameterError
from interchange.graphs import WeightFunction, complete, cycle, hamming2, path, star
from interchange.group_algebra import InterchangeExact
from interchange.qhf import QhfEstimate, qhf_exact, qhf_mc
from oracles import qhf_exact_loop


def k3_closed_form(t: float) -> tuple[float, float]:
    """Z and m^2 for the unit complete graph on 3 marbles.

    From the character expansion of the distribution over S_3:
    Z = 4(1 + e^{-3t}), m^2 = (5 + e^{-3t}) / (1 + e^{-3t}).
    """
    x = math.exp(-3.0 * t)
    return 4.0 * (1.0 + x), (5.0 + x) / (1.0 + x)


class TestExact:
    def test_time_zero(self):
        for n in range(2, 6):
            z, m_sq = qhf_exact(complete(n), 0.0)
            assert z == pytest.approx(2.0**n, abs=1e-9)
            assert m_sq == pytest.approx(float(n), abs=1e-9)

    def test_k3_closed_form(self):
        for t in [0.0, 0.1, 0.5, 1.0, 3.0]:
            z, m_sq = qhf_exact(complete(3), t)
            want_z, want_m = k3_closed_form(t)
            assert z == pytest.approx(want_z, abs=1e-10)
            assert m_sq == pytest.approx(want_m, abs=1e-10)

    def test_reductions_equal_the_permutation_loop(self):
        for family in (complete, path, star):
            for n in range(2, 6):
                w = family(n)
                for t in (0.0, 0.05, 0.3, 1.0, 4.0, 1e3):
                    z, m_sq = qhf_exact(w, t)
                    want_z, want_m = qhf_exact_loop(w, t)
                    assert abs(z - want_z) <= 1e-14 * abs(want_z), (w, t)
                    assert abs(m_sq - want_m) <= 1e-14 * abs(want_m), (w, t)

    def test_frozen_half_time_value(self):
        z, m_sq = qhf_exact(complete(3), 0.5)
        assert z == pytest.approx(4.892520640593719, abs=1e-9)
        assert m_sq == pytest.approx(4.270297904774575, abs=1e-9)

    def test_uniform_limit_partition_function(self):
        # sum of 2^alpha over S_n is (n+1)!, so Z converges to n + 1
        for n in range(2, 6):
            z, _ = qhf_exact(complete(n), 1e4)
            assert z == pytest.approx(n + 1.0, abs=1e-9)

    def test_uniform_limit_magnetization_n3(self):
        _, m_sq = qhf_exact(complete(3), 1e4)
        assert m_sq == pytest.approx(5.0, abs=1e-9)

    def test_z_at_least_two(self):
        for w in [complete(4), path(4), star(5), WeightFunction(3, {(0, 1): 2.0})]:
            for t in [0.0, 0.3, 2.0]:
                z, m_sq = qhf_exact(w, t)
                assert z >= 2.0
                assert 0.0 <= m_sq <= w.n**2

    def test_cap(self):
        with pytest.raises(CapError):
            qhf_exact(complete(6), 1.0)

    def test_finite_at_the_largest_time(self):
        # the kernel of Delta_w is exactly 0, so t = 1e308 gives the uniform limit
        z, m_sq = qhf_exact(complete(4), 1e308)
        assert z == pytest.approx(5.0, abs=1e-12)
        assert m_sq == pytest.approx(qhf_exact(complete(4), 1e4)[1], abs=1e-12)


def unscaled_qhf_mc(w: WeightFunction, t: float, samples: int, seed: int) -> QhfEstimate:
    """qhf_mc's estimator on the weights 2^alpha themselves, finite for n < 1024."""
    def observables(counts):
        alpha = counts[:, 1:].sum(axis=1)
        spin = (counts @ np.arange(w.n + 1) ** 2).astype(float)
        return np.column_stack((2.0**alpha, spin * 2.0**alpha))

    z_vals, num_vals = mc_per_sample(w, t, samples, seed, observables).T
    batches = min(32, samples)
    z_batches = np.array([b.mean() for b in np.array_split(z_vals, batches)])
    ratio_batches = np.array(
        [nb.sum() / zb.sum() for nb, zb in
         zip(np.array_split(num_vals, batches), np.array_split(z_vals, batches))]
    )
    spread = batches > 1
    return QhfEstimate(
        t=float(t),
        z=float(z_vals.mean()),
        z_stderr=float(z_batches.std(ddof=1) / math.sqrt(batches)) if spread else 0.0,
        m_sq=float(num_vals.sum() / z_vals.sum()),
        m_sq_stderr=float(ratio_batches.std(ddof=1) / math.sqrt(batches)) if spread else 0.0,
        samples=samples,
        seed=seed,
        batches=batches,
    )


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "w, t, samples",
        [(complete(4), 0.3, 1000), (star(5), 1.5, 300), (path(30), 0.05, 700),
         (cycle(20), 0.2, 5), (complete(12), 0.01, 1), (hamming2(5), 0.02, 2000)],
        ids=["complete4", "star5", "path30", "cycle20", "complete12", "hamming2-5"],
    )
    def test_scaled_weights_equal_the_unscaled_formula(self, w, t, samples):
        # scaling the weights by a power of two is exact at n <= 30
        assert qhf_mc(w, t, samples=samples, seed=3) == unscaled_qhf_mc(w, t, samples, 3)

    def test_partition_function_at_the_float_limit(self):
        # every trajectory is the identity at t = 0: alpha = n
        est = qhf_mc(complete(1023), 0.0, samples=10, seed=0)
        assert est.z == 2.0**1023
        assert est.m_sq == 1023.0
        assert est.z_stderr == est.m_sq_stderr == 0.0
        with pytest.raises(CapError):
            qhf_mc(complete(1024), 0.0, samples=10, seed=0)

    def test_time_zero_is_exact(self):
        est = qhf_mc(complete(4), 0.0, samples=64, seed=3)
        assert est.z == 16.0
        assert est.m_sq == 4.0
        assert est.z_stderr == 0.0
        assert est.m_sq_stderr == 0.0

    def test_matches_exact(self):
        w = complete(4)
        t = 0.3
        want_z, want_m = qhf_exact(w, t)
        est = qhf_mc(w, t, samples=4000, seed=5)
        assert abs(est.z - want_z) < 4 * est.z_stderr
        assert abs(est.m_sq - want_m) < 4 * est.m_sq_stderr

    def test_deterministic(self):
        a = qhf_mc(complete(3), 0.4, samples=200, seed=8)
        b = qhf_mc(complete(3), 0.4, samples=200, seed=8)
        assert a == b
        c = qhf_mc(complete(3), 0.4, samples=200, seed=9)
        assert c != a

    def test_z_at_least_two(self):
        # every trajectory weight is 2^alpha >= 2, so the mean is too
        est = qhf_mc(star(5), 1.5, samples=300, seed=2)
        assert est.z >= 2.0

    def test_batch_count(self):
        assert qhf_mc(complete(3), 0.1, samples=5, seed=1).batches == 5
        assert qhf_mc(complete(3), 0.1, samples=100, seed=1).batches == 32

    def test_single_sample(self):
        est = qhf_mc(complete(3), 0.2, samples=1, seed=4)
        assert isinstance(est, QhfEstimate)
        assert est.z_stderr == 0.0

    def test_sample_validation(self):
        with pytest.raises(ParameterError):
            qhf_mc(complete(3), 0.1, samples=0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time(self, t):
        with pytest.raises(ParameterError):
            qhf_mc(complete(4), t, samples=10)
        with pytest.raises(ParameterError):
            qhf_exact(complete(4), t)
        with pytest.raises(ParameterError):
            InterchangeExact(complete(4)).distribution(t)

    def test_hamming_magnetization_reported(self):
        # report-only run on the 3x3 rook graph at t past 1/sqrt(n); the
        # estimate just has to be a sane magnetization with finite error bars
        from interchange.graphs import hamming2

        w = hamming2(3)
        est = qhf_mc(w, 2.0 / math.sqrt(w.n), samples=2000, seed=7)
        print(f"REPORT hamming2(3) m^2 = {est.m_sq:.4f} +/- {est.m_sq_stderr:.4f}")
        assert 0.0 <= est.m_sq <= w.n**2
        assert est.z >= 2.0
        assert math.isfinite(est.m_sq_stderr)
