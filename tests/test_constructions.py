import math

import pytest

from missingmass import (
    ConstructionFailedError,
    InvalidInputError,
    ProbVector,
    doubling_operator,
    expected_missing_mass,
    expected_missing_mass_interval,
    geometric_targets,
    inverse_log_targets,
    plateau_length,
    rate_lb,
    tight_countable,
    tight_finite,
    truncate,
)


class TestTightFinite:
    def test_three_five(self):
        d = tight_finite(3, 5)
        assert d.masses[:2] == (1 / 6, 1 / 6)
        assert d.masses[2] == pytest.approx(2 / 3, rel=1e-15)
        value = expected_missing_mass(d, 5)
        assert value == pytest.approx(0.1367026748971194, abs=1e-14)
        assert value >= 8 * (3 - 1) / (27 * 5)

    def test_two_three(self):
        d = tight_finite(2, 3)
        assert d.masses == (0.25, 0.75)
        value = expected_missing_mass(d, 3)
        assert value == pytest.approx(0.1171875, abs=1e-15)
        assert value >= 8 / 81

    def test_sums_to_one(self):
        for n, t in [(2, 5), (10, 31), (60, 200)]:
            d = tight_finite(n, t)
            assert math.fsum(d.masses) == pytest.approx(1.0, abs=1e-12)

    def test_exactly_two_levels(self):
        d = tight_finite(9, 40)
        assert len(set(d.masses)) == 2
        assert d.blocks[0][1] == 8

    def test_requires_t_above_n(self):
        with pytest.raises(InvalidInputError):
            tight_finite(5, 5)
        with pytest.raises(InvalidInputError):
            tight_finite(1, 10)

    @pytest.mark.parametrize("n", [2, 7, 25, 60])
    def test_lower_bound_on_subgrid(self, n):
        for t in range(n + 1, 10 * n + 1, max(1, n // 2)):
            value = expected_missing_mass(tight_finite(n, t), t)
            assert value >= 8 * (n - 1) / (27 * t)


class TestTightCountable:
    def test_block_structure_a2(self):
        trunc = truncate(tight_countable(2), 2.0 ** -6)
        assert trunc.masses[-4:] == (0.125, 0.125, 0.25, 0.25)
        # total mass telescopes to 1: prefix + exact tail
        assert math.fsum(trunc.masses) + trunc.tail == pytest.approx(1.0, abs=1e-15)

    def test_lower_bound_example(self):
        lo, _ = expected_missing_mass_interval(tight_countable(3), 30, tol=1e-10)
        assert lo >= 4 * 3 / (27 * 30)

    @pytest.mark.parametrize("a", [2, 5, 10])
    def test_plateau_is_a(self, a):
        trunc = truncate(tight_countable(a), 2.0 ** -20)
        assert plateau_length(trunc) == a

    def test_rejects_small_a(self):
        with pytest.raises(InvalidInputError):
            tight_countable(1)


class TestRateTargets:
    def test_inverse_log(self):
        r = inverse_log_targets(5)
        assert r[0] == pytest.approx(1 / math.log(3))
        assert all(a > b for a, b in zip(r, r[1:]))

    def test_geometric(self):
        r = geometric_targets(4)
        assert r == pytest.approx([0.45, 0.225, 0.1125, 0.05625])


class TestRateLb:
    def test_rejects_empty_targets(self):
        with pytest.raises(InvalidInputError, match="nonempty"):
            rate_lb([])

    def test_dominates_inverse_log_horizon_sixty(self):
        targets = inverse_log_targets(60)
        d = rate_lb(targets)
        for t in range(1, 61):
            assert expected_missing_mass(d, t) > targets[t - 1]

    def test_dominates_geometric_targets(self):
        targets = geometric_targets(40)
        d = rate_lb(targets)
        for t in range(1, 41):
            assert expected_missing_mass(d, t) > targets[t - 1]

    def test_block_caps_hold(self):
        # every block except the heavy atom stays below its per-t mass cap;
        # doubling only shrinks masses, so the cap survives the final answer
        targets = inverse_log_targets(50)
        d = rate_lb(targets)
        tau = 11
        cap = 1.0 / (tau + 2) ** 2  # loosest cap across the per-t blocks
        non_heavy = [m for m, _ in d.blocks[:-1]]
        assert all(m < cap for m in non_heavy)

    def test_doubling_raises_missing_mass_everywhere(self):
        d = rate_lb(inverse_log_targets(30))
        doubled = doubling_operator(d)
        for t in [1, 5, 17, 30]:
            assert expected_missing_mass(doubled, t) > expected_missing_mass(d, t)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            rate_lb([0.5, 0.5, 0.4])  # not strictly decreasing
        with pytest.raises(InvalidInputError):
            rate_lb([1.0, 0.5])
        with pytest.raises(InvalidInputError):
            rate_lb([0.5, 0.4, 0.3])  # horizon never passes t=10

    def test_doubling_cap_enforced(self):
        with pytest.raises(ConstructionFailedError):
            rate_lb(inverse_log_targets(30), max_doublings=0)

    def test_run_length_encoding_survives_scale(self):
        # the doubled support would be enormous dense, tiny as blocks
        base = rate_lb(inverse_log_targets(100))
        big = base
        for _ in range(20):
            big = doubling_operator(big)
        assert big.n == base.n * 2 ** 20
        assert len(big.blocks) == len(base.blocks)
        assert expected_missing_mass(big, 1) > expected_missing_mass(base, 1)


class TestCrossChecks:
    def test_tight_finite_matches_bivalent_family(self):
        from missingmass import bivalent_missing_mass

        n, t = 12, 50
        d = tight_finite(n, t)
        assert expected_missing_mass(d, t) == pytest.approx(
            bivalent_missing_mass(n, t, 1.0 / (t + 1)), abs=1e-14
        )

    def test_countable_ratio_band(self):
        # t * E / a stays inside the calibration band on a small probe grid
        from missingmass import DEFAULT_COUNTABLE_C

        cap = 1.0 / DEFAULT_COUNTABLE_C
        for a in (2, 8, 32):
            trunc = truncate(tight_countable(a), 1e-12)
            for t in (a + 1, 2 * a, 10 * a, 100 * a):
                lo, hi = expected_missing_mass_interval(trunc, t)
                assert t * lo / a >= 4 / 27
                assert t * hi / a <= cap
