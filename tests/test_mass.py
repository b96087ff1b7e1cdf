import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from missingmass import (
    DEFAULT_COUNTABLE_C,
    BlockVector,
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
    kernel_prime,
    missing_mass_curve,
    plateau_length,
    singleton_mass_expectation,
    truncate,
)

from missingmass import PointCloud, expected_eps_missing_mass, maximize_missing_mass, monte_carlo

from missingmass.numerics import pow_one_minus

from conftest import block_vectors, prob_vectors, sample_counts_t


@pytest.mark.parametrize("t", [True, False, 0, -1, 2.5, "3", None])
@pytest.mark.parametrize(
    "entry",
    [
        lambda t: expected_missing_mass(ProbVector.uniform(3), t),
        lambda t: maximize_missing_mass(5, t),
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
        # no flag admits t = 0; exponent 0 is gt_expected_estimate(d, 1)
        d = ProbVector.uniform(3)
        with pytest.raises(InvalidInputError):
            expected_missing_mass(d, 0)
        assert gt_expected_estimate(d, 1) == pytest.approx(1.0, abs=1e-12)

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
        trivial = (1.0 - min(d.masses)) ** t
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
        assert kernel(1.0 / (t + 1), t) < 1.0 / (math.e * t)

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

    def test_prime_sign_next_to_the_peak(self):
        # the floats within 3 spacings of 1/(t+1): rounding (t+1) x before
        # subtracting it from 1 gave a false 0 or the wrong sign at 238 of them
        for t in range(1, 200):
            xs, lo, hi = {1.0 / (t + 1)}, 1.0 / (t + 1), 1.0 / (t + 1)
            for _ in range(3):
                lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
                xs |= {lo, hi}
            for x in xs:
                exact = 1 - (t + 1) * Fraction(x)
                value = kernel_prime(x, t)
                assert (value > 0, value < 0) == (exact > 0, exact < 0), (x, t)
        assert kernel_prime(1 / 3, 2) == pytest.approx(3.7e-17, rel=1e-2)

    def test_peak_is_maximum_on_grid(self):
        t = 25
        peak_val = kernel(1.0 / (t + 1), t)
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
        assert bound_countable(1, 10) == pytest.approx(1 / (DEFAULT_COUNTABLE_C * 10))
        assert bound_countable(7, 7) == pytest.approx(1 / DEFAULT_COUNTABLE_C)
        with pytest.raises(InvalidInputError):
            bound_countable(0, 10)

    def test_bound_countable_on_dyadic_family(self):
        # default c must keep the bound valid on the family that calibrated it
        a, t = 4, 100
        lo, hi = expected_missing_mass_interval(CountableFamily.dyadic_blocks(a), t, tol=1e-12)
        assert lo >= 4 * a / (27 * t)
        assert hi <= bound_countable(a, t)

    @given(d=st.one_of(prob_vectors(), block_vectors()), t=st.integers(1, 10 ** 7))
    def test_bound_countable_holds_with_the_shipped_constant(self, d, t):
        # E[U_t] <= ell C*/t, and the shipped c = 0.69 is below c* = 1/C*
        assert expected_missing_mass(d, t) <= bound_countable(plateau_length(d), t)

    def test_countable_constant_is_sharp(self):
        # 4 atoms at each mass 2^-k/8 (total 1 - 2^-60): over one octave of t,
        # t E[U_t]/4 comes within 1e-6 of C* = 1.44270930
        d = BlockVector([(2.0 ** -k / 8, 4) for k in range(60)])
        assert plateau_length(d) == 4
        ts = np.unique(np.round(2.0 ** (21 + np.arange(1024) / 1024)).astype(np.int64))
        ratios = [t * expected_missing_mass(d, t) / 4 for t in ts.tolist()]
        assert 1.44270830 <= max(ratios) <= 1 / DEFAULT_COUNTABLE_C


class TestCountableConstantEnclosure:
    """A certified enclosure of C* = sup_y g(y), g(y) = sum_k f(2^k y) with
    f(x) = x exp(-x), in outward-rounded interval arithmetic.

    g(2y) = g(y), so y ranges over [1, 2], cut at y_j = 2^(j/N).  The terms
    k < K_LO add at most sum 2^(k+1) = 2^(K_LO+1), since f(x) <= x and
    2^k y < 2^(k+1); the terms k > K_HI add at most 2 f(2^(K_HI+1)), since f
    falls past 1 and each term is under half the one before.  Below: g(y_j)
    >= its kept terms.  Above: on [y_j, y_j+1] each kept term is at most f at
    the end nearer 1, or 1/e when its range holds 1.
    """

    N, K_LO, K_HI = 128, -24, 6

    def test_shipped_constant_is_proven(self):
        from mpmath import iv  # at its default 53-bit precision

        ks = range(self.K_LO, self.K_HI + 1)
        ys = [iv.mpf(2) ** (iv.mpf(j) / self.N) for j in range(self.N + 1)]
        xs = [[iv.mpf(2) ** k * y for k in ks] for y in ys]
        fs = [[x * iv.exp(-x) for x in row] for row in xs]
        top = iv.mpf(2) ** (self.K_HI + 1)
        tail = iv.mpf(2) ** (self.K_LO + 1) + 2 * top * iv.exp(-top)
        lower = max(sum(row, iv.mpf(0)).a for row in fs)
        upper = max(
            sum((fs[j + 1][i] if xs[j + 1][i].b <= 1 else fs[j][i] if xs[j][i].a >= 1
                 else iv.exp(-1) for i in range(len(ks))), tail).b
            for j in range(self.N)
        )
        assert 1.4427091 <= lower <= 1.44270930 <= upper <= 1.4457
        assert 1 / upper > DEFAULT_COUNTABLE_C  # c* = 1/C* > 0.69174 > 0.69


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


def _reference_sum(m, c, e, k=1):
    """The uncached kernel sum: fsum over the runs of c m^k (1 - m)^e, with the
    powers from pow_one_minus on fresh copies of m and c."""
    m, c = np.array(m), np.array(c)
    w = c * m if k == 1 else c * m * m
    return math.fsum((w * pow_one_minus(m, e)).tolist())


def _reference_bands(d, t):
    """dyadic_bands recomputed band by band with _reference_sum; frexp gives
    the exact band j of x = m (t + 1), 2^j <= x < 2^(j+1)."""
    m, c = np.array(d.m), np.array(d.c)
    j = np.array([-1 if p < 1.0 / (t + 1) else max(math.frexp(p * (t + 1))[1] - 1, 0)
                  for p in m.tolist()])
    return [(int(b), sum(c[j == b].tolist()), _reference_sum(m[j == b], c[j == b], t))
            for b in np.unique(j)]


def _bits(values):
    return [float(v).hex() for v in values]


# masses spread over 2^-45..2^0, so tiny masses, whose 1 - m rounding the
# compensated power puts back below the exponent switch, sit beside ordinary ones
_spread_weights = st.builds(math.ldexp, st.floats(1.0, 2.0), st.integers(-45, 0))


@st.composite
def spread_distributions(draw):
    pairs = draw(st.lists(st.tuples(_spread_weights, st.integers(1, 2 ** 20)),
                          min_size=1, max_size=12))
    if draw(st.booleans()):
        return ProbVector([w for w, _ in pairs], normalize=True)
    total = math.fsum(w * c for w, c in pairs)
    return BlockVector([(w / total, c) for w, c in pairs])


# t = 0 (exponent 0, through gt_expected_estimate at t = 1), exponents 63
# and 64 with s = 0 and with s = 1, and
# both sides of the switch far out
kernel_t = st.one_of(st.sampled_from([0, 1, 2, 3, 63, 64, 65]), st.integers(0, 300),
                     st.sampled_from([10 ** 3, 10 ** 5, 10 ** 9]))


class TestCachedKernelTerms:
    """Every closed form, evaluated through a distribution's cached kernel
    terms, equals the uncached reference bit for bit, whatever order of t
    fills the cache."""

    def _check(self, d, ts):
        for t in ts:
            want = _reference_sum(d.m, d.c, t)
            if t == 0:  # the Good-Turing expectation at t = 1 has exponent 0
                assert _bits([gt_expected_estimate(d, 1)]) == _bits([want])
                continue
            gt = _reference_sum(d.m, d.c, t - 1)
            bias = _reference_sum(d.m, d.c, t - 1, k=2)
            got = [expected_missing_mass(d, t), gt_expected_estimate(d, t),
                   singleton_mass_expectation(d, t), gt_bias(d, t)]
            assert _bits(got) == _bits([want, gt, t * bias, bias])
            got_bands, want_bands = dyadic_bands(d, t), _reference_bands(d, t)
            assert [b[:2] for b in got_bands] == [b[:2] for b in want_bands]
            assert _bits(b[2] for b in got_bands) == _bits(b[2] for b in want_bands)
        positive = [t for t in ts if t]
        if positive:
            want = [_reference_sum(d.m, d.c, t) for t in positive]
            assert _bits(missing_mass_curve(d, positive).values) == _bits(want)

    @given(d=spread_distributions(), ts=st.lists(kernel_t, min_size=1, max_size=8))
    # mixed, at exponent 2, where numpy's square and pow round 1 - 0.2 and
    # 1 - 0.6 apart: every path squares (0.6 alone is band 0 of dyadic_bands
    # at t = 2)
    @example(d=ProbVector([1e-9, 0.2, 0.2 - 1e-9, 0.6]), ts=[3, 2, 1, 63, 64, 65, 0])
    @example(d=ProbVector([1.0]), ts=[64, 65, 10 ** 9, 0, 1, 63])
    @example(d=ProbVector.uniform(2 ** 40), ts=[0, 63, 64, 65, 10 ** 9, 1])
    def test_distributions_match_uncached_reference(self, d, ts):
        self._check(d, ts)

    @given(d=st.one_of(prob_vectors(), block_vectors()), ts=st.lists(kernel_t, max_size=8))
    def test_ordinary_distributions_match_uncached_reference(self, d, ts):
        self._check(d, ts)

    @given(family=st.one_of(st.builds(CountableFamily.geometric, st.floats(0.05, 0.95)),
                            st.builds(CountableFamily.dyadic_blocks, st.integers(2, 64))),
           tol=st.sampled_from([1e-12, 1e-6, 1e-3]),
           ts=st.lists(kernel_t.filter(bool), min_size=1, max_size=8))
    def test_truncations_match_uncached_reference(self, family, tol, ts):
        trunc = truncate(family, tol)
        want = [_reference_sum(trunc.m, trunc.c, t) for t in ts]
        got = [expected_missing_mass_interval(trunc, t) for t in ts]
        assert _bits(lo for lo, _ in got) == _bits(want)
        assert _bits(hi for _, hi in got) == _bits(w + trunc.tail for w in want)
        fresh = [expected_missing_mass_interval(family, t, tol)[0] for t in ts]
        assert _bits(fresh) == _bits(want)
        assert _bits(missing_mass_curve(trunc, ts).lower) == _bits(want)
