import math

import pytest

from interchange.errors import CapError, ParameterError
from interchange.graphs import WeightFunction, complete, path, star
from interchange.qhf import QhfEstimate, qhf_exact, qhf_mc


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


class TestMonteCarlo:
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
