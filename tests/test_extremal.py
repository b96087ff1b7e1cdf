import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from missingmass import (
    InvalidInputError,
    ProbVector,
    ThresholdNotFoundError,
    bivalent_missing_mass,
    bivalent_missing_mass_prime,
    bivalent_ratio_bound,
    expected_missing_mass,
    find_threshold,
    kernel_peak,
    light_mass_bounds,
    maximize_missing_mass,
    simplex_grid_oracle,
    uniform_ratio,
    uniform_value,
)
from missingmass.extremal import _prime, _prime_second, _solve
from missingmass.numerics import pow_one_minus


class TestBivalentValue:
    @pytest.mark.parametrize("n,t", [(5, 3), (10, 20)])
    def test_uniform_point_collapses(self, n, t):
        assert bivalent_missing_mass(n, t, 1.0 / n) == pytest.approx(
            (1 - 1 / n) ** t, rel=1e-12
        )

    def test_zero_light_mass(self):
        assert bivalent_missing_mass(7, 4, 0.0) == 0.0

    def test_frozen_rational_value(self):
        # 2*(1/6)*(5/6)^5 + (2/3)*(1/3)^5 evaluated exactly
        exact = 2 * Fraction(1, 6) * Fraction(5, 6) ** 5 + Fraction(2, 3) * Fraction(1, 3) ** 5
        assert float(exact) == pytest.approx(0.1367026748971194, abs=1e-15)
        assert bivalent_missing_mass(3, 5, 1 / 6) == pytest.approx(float(exact), rel=1e-13)

    def test_domain_validation(self):
        with pytest.raises(InvalidInputError):
            bivalent_missing_mass(5, 3, 0.3)  # above 1/n
        with pytest.raises(InvalidInputError):
            bivalent_missing_mass(1, 3, 0.5)

    def test_matches_expected_missing_mass(self):
        n, t, x = 6, 17, 0.11
        d = ProbVector([x] * (n - 1) + [1 - (n - 1) * x])
        assert bivalent_missing_mass(n, t, x) == pytest.approx(
            expected_missing_mass(d, t), abs=1e-12
        )


class TestBivalentPrime:
    @pytest.mark.parametrize("n,t", [(3, 5), (10, 30), (50, 200)])
    def test_matches_finite_differences(self, n, t):
        h = 1e-9
        for frac in [0.1, 0.3, 0.5, 0.7, 0.9]:
            x = frac / n
            fd = (
                bivalent_missing_mass(n, t, x + h) - bivalent_missing_mass(n, t, x - h)
            ) / (2 * h)
            assert bivalent_missing_mass_prime(n, t, x) == pytest.approx(
                fd, rel=1e-5, abs=1e-9
            )

    def test_uniform_is_critical(self):
        for n, t in [(4, 9), (25, 60)]:
            assert bivalent_missing_mass_prime(n, t, 1.0 / n) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_positive_at_kernel_peak(self):
        # below the kernel peak the family value is still climbing
        for n, t in [(5, 12), (100, 150)]:
            assert bivalent_missing_mass_prime(n, t, 1.0 / (t + 1)) > 0.0

    @pytest.mark.parametrize("n,t", [(2, 3), (3, 5), (10, 30), (50, 200), (1000, 1100),
                                     (10 ** 4, 10142), (10, 10 ** 6), (10 ** 4, 10 ** 9)])
    def test_second_derivative_matches_finite_differences(self, n, t):
        # across the solver's bracket (1/(t+1), min(2/(t+1), 1/n)); the first
        # derivative shares the second's powers and matches the plain one
        lo, hi = 1.0 / (t + 1), min(2.0 / (t + 1), 1.0 / n)
        x = lo + (hi - lo) * np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        h = 1e-7 * x
        t_arr = np.full(x.size, t)
        fd = (_prime(n, t_arr, x + h) - _prime(n, t_arr, x - h)) / (2 * h)
        prime, second = _prime_second(n, t_arr, x)
        assert second == pytest.approx(fd, rel=1e-7)
        scale = np.abs(second * x).max()
        assert prime == pytest.approx(_prime(n, t_arr, x), rel=1e-12, abs=1e-12 * scale)


class TestUniformRatio:
    def test_one_at_uniform(self):
        for n, t in [(3, 2), (10, 50), (200, 1000)]:
            assert uniform_ratio(n, t, 1.0 / n) == pytest.approx(1.0, abs=1e-12)

    def test_below_threshold_loses(self):
        assert uniform_ratio(10, 10, 1 / 11) < 1.0

    def test_far_above_threshold_wins(self):
        assert find_threshold(10).tau <= 200
        assert uniform_ratio(10, 200, 1 / 201) > 1.0

    def test_no_overflow_for_huge_t(self):
        assert uniform_ratio(5, 100000, 1 / 100001) == math.inf


class TestRatioBound:
    def test_certifies_below_threshold(self):
        q = bivalent_ratio_bound(100, 105)
        assert q < 1.0
        assert find_threshold(100).tau > 105

    def test_one_sided_certificate_along_scan(self):
        # whenever the bound drops below 1 the threshold must lie above t
        for n in [10, 100]:
            tau = find_threshold(n).tau
            assert tau > n
            for t in range(n, tau + 5):
                if bivalent_ratio_bound(n, t) < 1.0:
                    assert t < tau

    def test_finite_positive(self):
        for n, t in [(10, 10), (100, 105), (100, 200), (1000, 1100)]:
            q = bivalent_ratio_bound(n, t)
            assert q > 0.0
            assert math.isfinite(q)

    def test_overflow_is_infinite(self):
        # t log r1 is about 10^4 here, far past the largest finite exp
        assert bivalent_ratio_bound(1000, 10 ** 7) == math.inf


class TestMaximize:
    def test_uniform_regime(self):
        sol = maximize_missing_mass(10, 9)
        assert sol.is_uniform
        assert sol.x_star == 0.1
        assert sol.value == pytest.approx(0.9 ** 9, rel=1e-12)

    def test_deep_bivalent_regime(self):
        sol = maximize_missing_mass(10, 1000)
        assert not sol.is_uniform
        assert 1 / 1001 < sol.x_star < 1 / 1000
        assert sol.heavy == pytest.approx(1 - 9 * sol.x_star, abs=1e-14)

    def test_matches_simplex_oracle_n3(self):
        oracle_val, _ = simplex_grid_oracle(40, 1e-3)
        sol = maximize_missing_mass(3, 40)
        assert sol.value == pytest.approx(oracle_val, abs=1e-6)

    @pytest.mark.parametrize("n", [4, 10, 40])
    def test_uniform_for_all_t_up_to_n(self, n):
        for t in range(1, n + 1):
            assert maximize_missing_mass(n, t).is_uniform

    def test_solution_invariants(self):
        for n, t in [(10, 20), (100, 130), (1000, 1100)]:
            sol = maximize_missing_mass(n, t)
            assert (n - 1) * sol.x_star + sol.heavy == pytest.approx(1.0, abs=1e-14)
            assert sol.x_star <= 1.0 / n <= sol.heavy
            assert sol.value >= uniform_value(n, t)

    def test_value_consistent_with_expected_missing_mass(self):
        for n, t in [(10, 20), (50, 80)]:
            sol = maximize_missing_mass(n, t)
            d = sol.to_prob_vector()
            assert expected_missing_mass(d, t) == pytest.approx(sol.value, abs=1e-12)

    @pytest.mark.parametrize("t", [10 ** 6, 10 ** 9])
    def test_strict_bracket_at_huge_t(self, t):
        sol = maximize_missing_mass(10, t)
        assert not sol.is_uniform
        assert 1.0 / (t + 1) < sol.x_star < 1.0 / t

    def test_interior_derivative_small(self):
        for n, t in [(10, 20), (100, 130), (1000, 1100)]:
            sol = maximize_missing_mass(n, t)
            if sol.is_uniform:
                continue
            scale = max(1.0, abs(bivalent_missing_mass_prime(n, t, 1.0 / (t + 1))))
            assert abs(bivalent_missing_mass_prime(n, t, sol.x_star)) <= 1e-10 * scale


def _mp_interior_maximum(n: int, t: int):
    """The first root of the derivative inside (1/(t+1), min(2/(t+1), 1/n))
    at 50 digits, with the family value and the second derivative there, or
    None when the derivative stays positive (the uniform point wins)."""
    import mpmath

    with mpmath.workdps(50):
        def terms(x):
            u = (n - 1) * x
            return u, (1 - x) ** (t - 2), u ** (t - 2)

        def prime(x):
            u, light, heavy = terms(x)
            return light * (1 - x) * (1 - (t + 1) * x) + heavy * u * (t - (t + 1) * u)

        lo = mpmath.mpf(1) / (t + 1)
        # a hair below 1/n, where the uniform point is a critical point
        hi = min(2 * lo, (1 - mpmath.mpf(10) ** -20) / n)
        # the derivative at 1/(t+1) is the heavy part alone, so positive
        a = lo
        for k in range(1, 65):
            b = lo + (hi - lo) * k / 64
            if prime(b) <= 0:
                break
            a = b
        else:
            return None
        for _ in range(80):
            mid = (a + b) / 2
            a, b = (mid, b) if prime(mid) > 0 else (a, mid)
        r = (a + b) / 2
        u, light, heavy = terms(r)
        value = u * light * (1 - r) ** 2 + (1 - u) * heavy * u * u
        second = (n - 1) * t * (light * ((t + 1) * r - 2)
                                + (n - 1) * heavy * ((t - 1) - (t + 1) * u))
        return r, value, second


class TestSolver:
    def test_slice_independence(self):
        # a t's answer is bit for bit the same alone as in a slice of 800
        for n in (10, 100, 1000, 5000):
            t = np.arange(n + 1, n + 801)
            x, v = _solve(n, t)
            for k in range(0, 800, 7):
                xk, vk = _solve(n, t[k:k + 1])
                assert (x[k].hex(), v[k].hex()) == (xk[0].hex(), vk[0].hex()), (n, int(t[k]))

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 10 ** 4])
    def test_matches_mpmath_maximum(self, n):
        import mpmath

        tau = find_threshold(n).tau
        ts = {n + 1, n + 2, tau - 1, tau, tau + 1, 2 * n, 10 * n, 100 * n, 10 ** 6, 10 ** 9}
        for t in sorted(t for t in ts if t > n):
            sol = maximize_missing_mass(n, t)
            best = _mp_interior_maximum(n, t)
            if best is None:
                assert sol.is_uniform, t
                continue
            r, value, second = best
            ulp = math.ulp(float(value))
            with mpmath.workdps(50):
                x = mpmath.mpf(sol.x_star)
                exact = (n - 1) * x * (1 - x) ** t + (1 - (n - 1) * x) * ((n - 1) * x) ** t
                # the returned distribution is no more than 4 ulps below the
                # maximum, and its value is its own, up to the rounding of
                # (1-x)^t (about t/2 ulps below the log-space switch)
                assert exact >= value - 4 * ulp, t
                assert abs(sol.value - exact) <= 1e-13 * exact, t
                if not sol.is_uniform:
                    # flat-maximum tolerance: the distance over which a
                    # quadratic maximum drops by 4 ulps
                    flat = mpmath.sqrt(8 * ulp / abs(second))
                    peak = math.nextafter(1.0 / (t + 1), 1.0)
                    assert sol.x_star == peak or abs(x - r) <= flat, t


class TestThreshold:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 37])
    def test_exceeds_support_size(self, n):
        res = find_threshold(n)
        assert res.tau > n
        assert res.margin_at_tau > 0.0

    @pytest.mark.parametrize("n,tau", [(2, 4), (3, 5), (5, 8), (10, 15), (37, 46), (100, 114),
                                       (1000, 1045), (10000, 10142)])
    def test_pinned_table(self, n, tau):
        assert find_threshold(n).tau == tau

    def test_memory_flat_at_a_million_atoms(self):
        # one unsliced solve over the 10^4 scanned t would peak near 35 MB
        tracemalloc.start()
        try:
            res = find_threshold(10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert res.tau == 1001414

    def test_scan_budget_validation(self):
        with pytest.raises(InvalidInputError):
            find_threshold(100, t_max=120)

    def test_not_found_error_carries_evidence(self):
        # the mandated scan budget always covers the crossing, so the error
        # is defensive; it must still carry the scan evidence when raised
        err = ThresholdNotFoundError(7, 99)
        assert err.n == 7 and err.t_max == 99
        assert "n=7" in str(err)

    def test_wins_monotone_past_tau(self):
        """maximize_missing_mass agrees with the scan at every scanned t: its
        scalar uniform value is the scan's array one, bit for bit."""
        for n in (2, 3, 5, 10, 17, 30, 37, 63):
            res = find_threshold(n)
            ts = np.arange(n + 1, res.scan_range[1] + 1)
            uval = pow_one_minus(1.0 / n, ts)
            for t, u in zip(ts.tolist(), uval.tolist()):
                sol = maximize_missing_mass(n, t)
                assert sol.is_uniform == (t < res.tau), (n, t)
                if sol.is_uniform:
                    assert sol.value == u, (n, t)

    @pytest.mark.parametrize("n", [3, 17, 64, 200])
    def test_strict_bracket_past_tau_up_to_50n(self, n):
        tau = find_threshold(n).tau
        ts = sorted({tau, tau + 1, 2 * n, 5 * n, 10 * n, 25 * n, 50 * n})
        for t in ts:
            if t < tau:
                continue
            sol = maximize_missing_mass(n, t)
            assert not sol.is_uniform
            assert 1.0 / (t + 1) < sol.x_star < 1.0 / t


class TestLightMassBounds:
    def test_localization_membership(self):
        lo, hi = light_mass_bounds(100, 115)
        sol = maximize_missing_mass(100, 115)
        assert not sol.is_uniform
        assert lo < sol.x_star < hi

    def test_interval_width(self):
        lo, hi = light_mass_bounds(200, 300)
        assert hi - lo == pytest.approx(math.exp(-10.0), rel=1e-12)

    def test_lower_end_is_kernel_peak(self):
        lo, _ = light_mass_bounds(100, 130)
        assert lo == kernel_peak(130)

    def test_precondition(self):
        with pytest.raises(InvalidInputError):
            light_mass_bounds(100, 100)


class TestSimplexOracle:
    def test_small_t_prefers_uniform(self):
        _, point = simplex_grid_oracle(2, 5e-3)
        assert all(abs(p - 1 / 3) <= 5e-3 for p in point)

    def test_large_t_prefers_bivalent(self):
        _, point = simplex_grid_oracle(40, 1e-3)
        assert abs(point[0] - point[1]) <= 1e-3
        assert point[2] > point[1]

    def test_dominates_one_parameter_family(self):
        t = 11
        val, _ = simplex_grid_oracle(t, 5e-3)
        for k in range(0, 34):
            x = k / 100.0
            assert val >= bivalent_missing_mass(3, t, min(x, 1 / 3)) - 1e-9

    def test_grid_step_validation(self):
        with pytest.raises(InvalidInputError):
            simplex_grid_oracle(5, 0.5)

    def test_memory_bounded(self):
        # one unsliced sweep of the 1001 x 1001 grid holds several 8 MB temporaries
        tracemalloc.start()
        try:
            simplex_grid_oracle(40, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
