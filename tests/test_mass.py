import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from missingmass import (
    CountableFamily,
    InvalidInputError,
    MassCurve,
    ProbVector,
    bound_countable,
    bound_finite,
    dyadic_bands,
    expected_missing_mass,
    expected_missing_mass_interval,
    gt_bias,
    gt_expected_estimate,
    kernel,
    kernel_peak,
    kernel_prime,
    missing_mass_curve,
    plateau_length,
    singleton_mass_expectation,
    truncate,
)

from missingmass import PointCloud, expected_eps_missing_mass, monte_carlo, uniform_value

from conftest import prob_vectors, sample_counts_t


@pytest.mark.parametrize("t", [True, False, 0, -1, 2.5, "3", None])
@pytest.mark.parametrize(
    "entry",
    [
        lambda t: expected_missing_mass(ProbVector.uniform(3), t),
        lambda t: uniform_value(5, t),
        lambda t: monte_carlo([0.5, 0.5], t, 10, 0, lambda idx: idx[:, 0]),
        lambda t: expected_eps_missing_mass(PointCloud([0.5, 0.5], coords=[[0.0], [1.0]]), t, 0.5),
    ],
    ids=["mass", "extremal", "sampling", "cover"],
)
def test_one_sample_count_check(entry, t):
    with pytest.raises(InvalidInputError, match="sample count t must be an integer >= 1"):
        entry(t)


def enumerate_expectations(masses, t):
    """Exact oracle: enumerate all |support|^t equally weighted outcomes.

    Returns (E[missing mass], E[GT estimate], E[singleton mass]) as exact
    rationals; only meant for tiny supports and sample sizes.
    """
    fracs = [Fraction(m).limit_denominator(10 ** 9) for m in masses]
    e_missing = Fraction(0)
    e_gt = Fraction(0)
    e_singleton = Fraction(0)
    for outcome in product(range(len(fracs)), repeat=t):
        weight = math.prod((fracs[i] for i in outcome), start=Fraction(1))
        counts = [0] * len(fracs)
        for i in outcome:
            counts[i] += 1
        e_missing += weight * sum(f for f, c in zip(fracs, counts) if c == 0)
        e_gt += weight * Fraction(sum(1 for c in counts if c == 1), t)
        e_singleton += weight * sum(f for f, c in zip(fracs, counts) if c == 1)
    return e_missing, e_gt, e_singleton


class TestExpectedMissingMass:
    def test_trivial_examples(self):
        assert expected_missing_mass(ProbVector.uniform(2), 1) == 0.5
        assert expected_missing_mass(ProbVector([1.0]), 5) == 0.0

    def test_uniform_ten_frozen(self):
        # exact rational: 10 * (1/10) * (9/10)^10 = 9^10 / 10^10
        assert Fraction(9 ** 10, 10 ** 10) == Fraction(3486784401, 10 ** 10)
        value = expected_missing_mass(ProbVector.uniform(10), 10)
        assert value == pytest.approx(0.3486784401, rel=1e-12)

    @pytest.mark.parametrize(
        "masses,t",
        [([0.5, 0.5], 2), ([0.5, 0.5], 3), ([0.2, 0.3, 0.5], 2), ([1 / 3] * 3, 1)],
    )
    def test_against_enumeration_oracle(self, masses, t):
        d = ProbVector(masses, normalize=True)
        e_missing, e_gt, e_singleton = enumerate_expectations(d.masses, t)
        assert expected_missing_mass(d, t) == pytest.approx(float(e_missing), abs=1e-12)
        assert gt_expected_estimate(d, t) == pytest.approx(float(e_gt), abs=1e-12)
        assert singleton_mass_expectation(d, t) == pytest.approx(
            float(e_singleton), abs=1e-12
        )

    def test_t_zero_needs_flag(self):
        d = ProbVector.uniform(3)
        with pytest.raises(InvalidInputError):
            expected_missing_mass(d, 0)
        assert expected_missing_mass(d, 0, allow_zero=True) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_noninteger_t(self):
        with pytest.raises(InvalidInputError):
            expected_missing_mass(ProbVector.uniform(3), 2.5)

    @given(prob_vectors(), sample_counts_t)
    def test_bounded_by_finite_bound(self, d, t):
        assert expected_missing_mass(d, t) <= bound_finite(d.n, t) + 1e-12

    @given(prob_vectors(), sample_counts_t)
    def test_monotone_in_t(self, d, t):
        assert expected_missing_mass(d, t + 1) <= expected_missing_mass(d, t) + 1e-15

    @given(prob_vectors(), sample_counts_t)
    def test_trivial_estimate(self, d, t):
        trivial = (1.0 - d.min_mass) ** t
        assert expected_missing_mass(d, t) <= trivial + 1e-12


class TestInterval:
    def test_width_and_order(self):
        fam = CountableFamily.geometric(0.5)
        lo, hi = expected_missing_mass_interval(fam, 10, tol=1e-9)
        assert 0.0 <= lo <= hi <= 1.0
        assert hi - lo <= 1e-9

    def test_rejects_bare_prob_vector(self):
        with pytest.raises(InvalidInputError):
            expected_missing_mass_interval(ProbVector.uniform(3), 5)

    def test_truncation_rejected_by_point_estimate(self):
        trunc = truncate(CountableFamily.geometric(0.5), 1e-6)
        with pytest.raises(InvalidInputError):
            expected_missing_mass(trunc, 5)


class TestKernel:
    @pytest.mark.parametrize("t", [1, 10, 100])
    def test_endpoints_and_peak_bound(self, t):
        assert kernel(0.0, t) == 0.0
        assert kernel(1.0, t) == 0.0
        assert kernel(kernel_peak(t), t) < 1.0 / (math.e * t)

    @pytest.mark.parametrize("t", [2, 10, 100])
    def test_prime_minimum_location(self, t):
        # the derivative's global minimum sits at 2/(t+1)
        x_min = 2.0 / (t + 1)
        floor_val = kernel_prime(x_min, t)
        for x in [i / 200 for i in range(1, 200)]:
            assert kernel_prime(x, t) >= floor_val - 1e-12

    @pytest.mark.parametrize("t", [1, 7, 33, 100])
    def test_prime_matches_finite_differences(self, t):
        h = 1e-7
        for x in [0.01 + 0.98 * i / 40 for i in range(41)]:
            fd = (kernel(x + h, t) - kernel(x - h, t)) / (2 * h)
            analytic = kernel_prime(x, t)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_peak_is_maximum_on_grid(self):
        t = 25
        peak_val = kernel(kernel_peak(t), t)
        assert all(kernel(i / 500, t) <= peak_val for i in range(501))

    def test_domain_validation(self):
        with pytest.raises(InvalidInputError):
            kernel(-0.1, 3)
        with pytest.raises(InvalidInputError):
            kernel_prime(1.2, 3)


class TestBounds:
    def test_bound_finite_examples(self):
        assert bound_finite(10, 5) == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert bound_finite(10, 100) == pytest.approx(10 / (100 * math.e), rel=1e-15)
        assert bound_finite(1, 1) == pytest.approx(math.exp(-1), rel=1e-15)
        assert expected_missing_mass(ProbVector([1.0]), 1) <= bound_finite(1, 1)

    def test_bound_countable_examples(self):
        assert bound_countable(1, 10, 1.0) == pytest.approx(0.1)
        assert bound_countable(7, 7, 1.0) == pytest.approx(1.0)
        with pytest.raises(InvalidInputError):
            bound_countable(1, 10, 0.0)

    def test_bound_countable_on_dyadic_family(self):
        # default c must keep the bound valid on the family that calibrated it
        a, t = 4, 100
        lo, hi = expected_missing_mass_interval(CountableFamily.dyadic_blocks(a), t, tol=1e-12)
        assert lo >= 4 * a / (27 * t)
        assert hi <= bound_countable(a, t)


class TestDyadicBands:
    def test_uniform_single_band(self):
        d = ProbVector.uniform(4)
        bands = dyadic_bands(d, 3)
        assert bands == [(0, 4, pytest.approx(expected_missing_mass(d, 3), abs=1e-12))]

    def test_point_mass(self):
        bands = dyadic_bands(ProbVector([1.0]), 7)
        assert len(bands) == 1
        assert bands[0][1] == 1
        assert bands[0][2] == 0.0

    def test_all_below_threshold(self):
        bands = dyadic_bands(ProbVector.uniform(100), 9)
        assert [(j, c) for j, c, _ in bands] == [(-1, 100)]

    def test_exact_threshold_atom_lands_in_band_zero(self):
        # 49 * (1/49) rounds to 0.999..., which must not demote the atoms
        # to the sub-threshold pool: they sit exactly at 1/(t+1)
        bands = dyadic_bands(ProbVector.uniform(49), 48)
        assert [(j, c) for j, c, _ in bands] == [(0, 49)]

    @given(prob_vectors(), sample_counts_t)
    def test_contributions_resum(self, d, t):
        bands = dyadic_bands(d, t)
        total = math.fsum(contrib for _, _, contrib in bands)
        assert total == pytest.approx(expected_missing_mass(d, t), abs=1e-12)
        assert sum(c for _, c, _ in bands) == d.n

    @given(prob_vectors(), sample_counts_t)
    @settings(max_examples=50)
    def test_band_counts_capped_by_plateau(self, d, t):
        ell = plateau_length(d)
        for j, count, _ in dyadic_bands(d, t):
            if j >= 0:  # band -1 pools every sub-threshold scale
                assert count <= ell

    @given(prob_vectors(), sample_counts_t)
    @settings(max_examples=50)
    def test_band_membership(self, d, t):
        lo = 1.0 / (t + 1)
        for j, count, _ in dyadic_bands(d, t):
            members = [
                m
                for m in d.masses
                if (m < lo and j == -1)
                or (m >= lo and j >= 0 and 2.0 ** j * lo <= m < 2.0 ** (j + 1) * lo)
            ]
            assert len(members) == count


class TestGoodTuringClosedForms:
    def test_uniform_two_example(self):
        d = ProbVector.uniform(2)
        assert gt_expected_estimate(d, 2) == pytest.approx(0.5, abs=1e-12)
        assert expected_missing_mass(d, 2) == pytest.approx(0.25, abs=1e-12)
        assert gt_bias(d, 2) == pytest.approx(0.25, abs=1e-12)
        assert singleton_mass_expectation(d, 2) == pytest.approx(0.5, abs=1e-12)

    def test_point_mass(self):
        d = ProbVector([1.0])
        assert gt_expected_estimate(d, 3) == 0.0
        assert gt_bias(d, 3) == 0.0

    def test_uniform_three_t_one(self):
        d = ProbVector.uniform(3)
        assert gt_expected_estimate(d, 1) == pytest.approx(1.0, abs=1e-12)
        assert expected_missing_mass(d, 1) == pytest.approx(2 / 3, abs=1e-12)
        assert gt_bias(d, 1) == pytest.approx(1 / 3, abs=1e-12)
        assert singleton_mass_expectation(d, 1) == pytest.approx(1 / 3, abs=1e-12)

    def test_t_zero_invalid(self):
        with pytest.raises(InvalidInputError):
            gt_expected_estimate(ProbVector.uniform(2), 0)

    @given(prob_vectors(), sample_counts_t)
    def test_bias_identity(self, d, t):
        assert gt_bias(d, t) == pytest.approx(
            singleton_mass_expectation(d, t) / t, abs=1e-12
        )


class TestMassCurve:
    def test_exact_curve(self):
        d = ProbVector.uniform(4)
        curve = missing_mass_curve(d, [1, 2, 3])
        assert curve.values == curve.lower == curve.upper
        assert list(curve.values) == sorted(curve.values, reverse=True)

    def test_family_curve_enclosure(self):
        curve = missing_mass_curve(CountableFamily.geometric(0.5), [1, 5, 25], tol=1e-8)
        for lo, v, hi in zip(curve.lower, curve.values, curve.upper):
            assert lo <= v <= hi
            assert hi - lo <= 1e-8

    def test_csv_header(self):
        curve = missing_mass_curve(ProbVector.uniform(2), [1, 2])
        text = curve.to_csv_text()
        assert text.splitlines()[0] == "t,value,lower,upper"
        assert len(text.splitlines()) == 3

    def test_csv_roundtrip_precision(self):
        curve = missing_mass_curve(ProbVector.uniform(7), [3])
        cell = curve.to_csv_text().splitlines()[1].split(",")[1]
        assert float(cell) == curve.values[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            missing_mass_curve(ProbVector.uniform(2), [])
