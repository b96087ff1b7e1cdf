"""Exact-arithmetic oracles for the closed forms, and their extreme inputs.

Every float mass is a rational number, so E[U_t], the Good-Turing
expectation, the singleton mass, the dyadic bands and the one-heavy family
have exact values as `fractions.Fraction`s of the very floats a distribution
holds.  The library must land within 1e-12 relative of them whichever front
door (`ProbVector`, `BlockVector`, `Truncation`) the masses came through.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from missingmass import (
    BlockVector,
    ConstructionFailedError,
    CountableFamily,
    ProbVector,
    Truncation,
    bivalent_missing_mass,
    bivalent_missing_mass_prime,
    bound_finite,
    dyadic_bands,
    expected_missing_mass,
    expected_missing_mass_interval,
    gt_bias,
    gt_expected_estimate,
    maximize_missing_mass,
    rate_lb,
    singleton_mass_expectation,
    truncate,
)
from missingmass.numerics import pow_one_minus, pow_unit

REL = Fraction(1, 10 ** 12)
small_t = st.integers(min_value=1, max_value=30)


def close(value: float, exact) -> bool:
    """value within 1e-12 relative of an exact Fraction (exactly 0 when it is 0)."""
    return abs(Fraction(value) - exact) <= REL * abs(exact)


def exact_sum(atoms, t: int, k: int = 1, s: int = 0) -> Fraction:
    """sum over atoms x of x^k (1 - x)^(t - s), in exact rationals."""
    return sum((Fraction(x) ** k * (1 - Fraction(x)) ** (t - s) for x in atoms), Fraction(0))


def exact_band(x: float, t: int) -> int:
    """Band of an atom by the module's rule, decided without logarithms.

    Atoms below the float 1/(t+1) pool in band -1; the others take the j >= 0
    with 2^j <= x (t+1) < 2^(j+1), x (t+1) rounded to a float.  So an atom of
    mass fl(1/(t+1)) opens band 0, even where x (t+1) rounds below 1.
    """
    if x < 1.0 / (t + 1):
        return -1
    scaled = x * (t + 1)
    j = 0
    while scaled >= 2 ** (j + 1):
        j += 1
    return j


@st.composite
def prob_vector_inputs(draw):
    weights = draw(st.lists(st.integers(1, 50), min_size=1, max_size=6))
    atoms = [w / sum(weights) for w in weights]
    return ProbVector(atoms), atoms


@st.composite
def block_vector_inputs(draw):
    pairs = draw(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 2)), min_size=1, max_size=3))
    total = sum(w * c for w, c in pairs)
    blocks = [(w / total, c) for w, c in pairs]
    return BlockVector(blocks), [m for m, c in blocks for _ in range(c)]


@st.composite
def truncation_inputs(draw):
    """A prefix of a finite distribution; the tail is the dropped atoms' mass."""
    weights = draw(st.lists(st.integers(1, 50), min_size=2, max_size=6))
    atoms = [w / sum(weights) for w in weights]
    keep = draw(st.integers(1, len(atoms) - 1))
    return Truncation(atoms[:keep], math.fsum(atoms[keep:])), atoms[:keep]


finite_inputs = st.one_of(prob_vector_inputs(), block_vector_inputs())


@st.composite
def bivalent_inputs(draw):
    """A support size n <= 8 and a light mass x, the float of a rational in [0, 1/n]."""
    n = draw(st.integers(2, 8))
    x = draw(st.fractions(min_value=0, max_value=Fraction(1, n), max_denominator=10 ** 6))
    return n, float(x)


class TestExactOracles:
    @given(finite_inputs, small_t)
    def test_expected_missing_mass(self, given_d, t):
        d, atoms = given_d
        assert close(expected_missing_mass(d, t), exact_sum(atoms, t))

    @given(truncation_inputs(), small_t)
    def test_truncation_interval(self, given_d, t):
        trunc, kept = given_d
        lo, hi = expected_missing_mass_interval(trunc, t)
        assert close(lo, exact_sum(kept, t))
        assert hi == lo + trunc.tail

    @given(finite_inputs, small_t)
    def test_good_turing_expectation(self, given_d, t):
        d, atoms = given_d
        assert close(gt_expected_estimate(d, t), exact_sum(atoms, t, s=1))

    @given(finite_inputs, small_t)
    def test_singleton_mass_over_t_is_bias(self, given_d, t):
        d, atoms = given_d
        bias = exact_sum(atoms, t, k=2, s=1)  # = GT expectation - E[U_t], exactly
        assert close(singleton_mass_expectation(d, t) / t, bias)
        assert abs(Fraction(gt_bias(d, t)) - bias) <= REL * exact_sum(atoms, t, s=1)

    @given(finite_inputs, small_t)
    def test_bands_resum(self, given_d, t):
        d, atoms = given_d
        expected = {}
        for x in atoms:
            count, part = expected.get(exact_band(x, t), (0, Fraction(0)))
            expected[exact_band(x, t)] = (count + 1, part + exact_sum([x], t))
        bands = dyadic_bands(d, t)
        assert [(j, c) for j, c, _ in bands] == [(j, c) for j, (c, _) in sorted(expected.items())]
        for j, _, contribution in bands:
            assert close(contribution, expected[j][1])
        assert close(math.fsum(c for _, _, c in bands), exact_sum(atoms, t))


class TestExtremeInputs:
    @pytest.mark.parametrize("t", [1, 2, 30, 64, 10 ** 9])
    def test_point_mass(self, t):
        d = ProbVector([1.0])
        single = 1.0 if t == 1 else 0.0  # one draw sees the atom exactly once
        assert expected_missing_mass(d, t) == 0.0
        assert gt_expected_estimate(d, t) == single
        assert singleton_mass_expectation(d, t) == single
        assert gt_bias(d, t) == single
        [(j, count, contribution)] = dyadic_bands(d, t)
        assert (j, count, contribution) == (exact_band(1.0, t), 1, 0.0)

    @pytest.mark.parametrize("t", [1, 2, 30])
    def test_tiny_atom_exact(self, t):
        atoms = [1e-300, 0.5, 0.5]
        d = ProbVector(atoms)
        assert close(expected_missing_mass(d, t), exact_sum(atoms, t))
        assert close(gt_expected_estimate(d, t), exact_sum(atoms, t, s=1))
        assert close(singleton_mass_expectation(d, t), t * exact_sum(atoms, t, k=2, s=1))
        # the tiny atom has band -1 to itself, so its own term is checked too
        assert dyadic_bands(d, t)[0][:2] == (-1, 1)
        assert close(dyadic_bands(d, t)[0][2], exact_sum([1e-300], t))

    def test_tiny_atom_at_huge_t(self):
        # (1 - 1e-300)^(10^9) = 1 - 1e-291 and 0.5^(10^9) underflows: E = 1e-300
        d = BlockVector([(1e-300, 1), (0.5, 2)])
        assert expected_missing_mass(d, 10 ** 9) == pytest.approx(1e-300, rel=1e-12)
        assert dyadic_bands(d, 10 ** 9)[0] == (-1, 1, pytest.approx(1e-300, rel=1e-12))

    def test_huge_t_on_huge_support(self):
        # uniform on 10^9 atoms at t = 10^9: E = (1 - 1e-9)^(10^9) ~ 1/e
        m, t = 1e-9, 10 ** 9
        d = BlockVector([(m, 10 ** 9)])
        with localcontext() as ctx:
            ctx.prec = 50
            power = (1 - Decimal(m)) ** (t - 1)
            emm = Decimal(m) * 10 ** 9 * power * (1 - Decimal(m))
            gt = Decimal(m) * 10 ** 9 * power
        assert expected_missing_mass(d, t) == pytest.approx(float(emm), rel=1e-12)
        assert gt_expected_estimate(d, t) == pytest.approx(float(gt), rel=1e-12)
        assert singleton_mass_expectation(d, t) == pytest.approx(float(gt * Decimal(m) * t), rel=1e-12)
        assert expected_missing_mass(ProbVector.uniform(3), t) == 0.0  # (2/3)^(10^9) underflows

    def test_huge_t_on_truncation(self):
        trunc = truncate(CountableFamily.geometric(0.5), 1e-12)
        with localcontext() as ctx:
            ctx.prec = 50
            exact = sum(Decimal(m) * (1 - Decimal(m)) ** 10 ** 9 for m in trunc.masses)
        lo, hi = expected_missing_mass_interval(trunc, 10 ** 9)
        assert lo == pytest.approx(float(exact), rel=1e-12)
        assert hi == lo + trunc.tail

    def test_subnormal_tolerance(self):
        # 5e-324 is the smallest subnormal: the geometric tail 2^-N reaches it
        trunc = truncate(CountableFamily.geometric(0.5), 5e-324)
        assert isinstance(trunc, Truncation)
        assert 0.0 < trunc.tail <= 5e-324

    def test_unsorted_explicit_masses(self):
        obj = {"family": "explicit", "params": {"masses": [0.1, 0.5, 0.4]}}
        trunc = Truncation.from_json_obj(obj)
        assert trunc.blocks == ((0.1, 1), (0.4, 1), (0.5, 1))
        assert trunc.tail == 0.0

    def test_rate_lb_stops_at_the_doubling_cap(self):
        # targets within 1e-14 of 1 stay out of reach of any finite doubling
        targets = [1 - 1e-15 * t for t in range(1, 11)] + [0.8, 0.7]
        with pytest.raises(ConstructionFailedError, match="within 40 doublings"):
            rate_lb(targets)


class TestExtremalOracles:
    @given(bivalent_inputs(), small_t)
    def test_bivalent_value(self, given_nx, t):
        n, x = given_nx
        light = (n - 1) * Fraction(x)
        exact = light * (1 - Fraction(x)) ** t + (1 - light) * light ** t
        assert close(bivalent_missing_mass(n, t, x), exact)

    @given(bivalent_inputs(), small_t)
    def test_bivalent_prime(self, given_nx, t):
        """Within 1e-12 of the sum of the magnitudes of its terms: the light
        and heavy parts cancel at every critical point, x = 1/n included, so a
        relative error would be unbounded exactly where it matters least."""
        n, x = given_nx
        x_, light = Fraction(x), (n - 1) * Fraction(x)
        light_pow, heavy_pow = (1 - x_) ** (t - 1), light ** (t - 1)
        exact = (n - 1) * (light_pow * (1 - (t + 1) * x_) + heavy_pow * (t - (t + 1) * light))
        scale = (n - 1) * (light_pow * (1 + (t + 1) * x_) + heavy_pow * (t + (t + 1) * light))
        assert abs(Fraction(bivalent_missing_mass_prime(n, t, x)) - exact) <= REL * scale

    @given(bivalent_inputs(), small_t)
    def test_bound_finite_holds_exactly(self, given_nx, t):
        """E[U_t] <= bound_finite(n, t) over the exact sum of the stored masses,
        at the drawn light mass and at the maximizer of the family."""
        n, x = given_nx
        bound = bound_finite(n, t)
        dists = [maximize_missing_mass(n, t).to_prob_vector()]
        if x > 0.0:
            dists.append(ProbVector([x] * (n - 1) + [1.0 - (n - 1) * x]))
        for d in dists:
            assert exact_sum(d.masses, t) <= Fraction(bound)
            assert expected_missing_mass(d, t) <= bound


POWER_BASES = [1e-300, 1e-9, 1e-8, 1e-3, 0.25, 0.5, 1.0 - 2.0 ** -52, 1.0]
POWER_EXPONENTS = [0, 1, 2, 63, 64, 10 ** 9]
# a seeded sample of bases log-spaced over [1e-300, 1]
TWIN_BASES = 10.0 ** np.random.default_rng(2328).uniform(-300.0, 0.0, 10_000)


def decimal_pow(base: float, t: int, one_minus: bool = False) -> float:
    """base^t, or (1 - base)^t, computed with 50-digit Decimals and rounded to a float."""
    if t == 0:
        return 1.0
    with localcontext() as ctx:
        ctx.prec = 50
        return float((1 - Decimal(base) if one_minus else Decimal(base)) ** t)


class TestPowerPolicy:
    @pytest.mark.parametrize("t", sorted(POWER_EXPONENTS + [3, 7, 31]))
    def test_array_twin_matches_scalar(self, t):
        """Over an array of masses, pow_one_minus equals its value mass by mass
        and lies within 1e-13 relative of a 50-digit Decimal reference; over
        TWIN_BASES, both powers, with the exponent as a scalar or as an array,
        equal their scalar values base by base."""
        got = pow_one_minus(np.array(POWER_BASES), t)
        for p, g in zip(POWER_BASES, got.tolist()):
            assert g == float(pow_one_minus(p, t))
            assert g == pytest.approx(decimal_pow(p, t, one_minus=True), rel=1e-13, abs=0.0)
        for power in (pow_one_minus, pow_unit):
            want = [float(power(b, t)) for b in TWIN_BASES.tolist()]
            # a scalar exponent, and the same exponent as an array
            for exponent in (t, np.full(TWIN_BASES.size, t)):
                got = power(TWIN_BASES, exponent).tolist()
                assert [b for b, g, w in zip(TWIN_BASES.tolist(), got, want) if g != w] == []

    def test_array_exponents(self):
        """Both powers over a (bases x exponents) grid, which mixes the direct
        and the log-space branches in one call, and over its transpose, its
        flattened pairs and exponents all on one side of the switch: every
        element equals the scalar call bit for bit, so no nan of the side an
        element does not take is ever selected.  Base 0 takes 0 * log(0) on
        the discarded log side at t = 0; no warning escapes, since the suite
        turns warnings into errors."""
        bases = POWER_BASES + [0.0]
        for power, one_minus in ((pow_one_minus, True), (pow_unit, False)):
            want = [[float(power(b, t)).hex() for t in POWER_EXPONENTS] for b in bases]
            grid = power(np.array(bases)[:, None], np.array(POWER_EXPONENTS)[None, :])
            assert not np.isnan(grid).any()
            assert [[v.hex() for v in row] for row in grid.tolist()] == want
            flipped = power(np.array(bases)[None, :], np.array(POWER_EXPONENTS)[:, None])
            assert [[v.hex() for v in row] for row in flipped.T.tolist()] == want
            b, t = np.meshgrid(bases, POWER_EXPONENTS, indexing="ij")
            assert [v.hex() for v in power(b.ravel(), t.ravel()).tolist()] == sum(want, [])
            for side in ([0, 1, 2, 63], [64, 10 ** 9]):  # one side only
                got = power(np.array(bases)[:, None], np.array(side)[None, :])
                cols = [POWER_EXPONENTS.index(s) for s in side]
                assert [[v.hex() for v in row] for row in got.tolist()] == [
                    [row[j] for j in cols] for row in want]
            for i, b in enumerate(bases):
                for j, t in enumerate(POWER_EXPONENTS):
                    assert grid[i, j] == pytest.approx(
                        decimal_pow(b, t, one_minus=one_minus), rel=1e-13, abs=0.0)


U = 2.0 ** -53  # the unit roundoff


# a seeded sample of masses: log-uniform over [1e-300, 1], uniform in (0, 1),
# and log-uniform over [1e-12, 1e-6], where the rounding of 1 - p loses most
_rng = np.random.default_rng(4500)
ACCURACY_BASES = np.concatenate([10.0 ** _rng.uniform(-300.0, 0.0, 1500), _rng.random(1500),
                                 10.0 ** _rng.uniform(-12.0, -6.0, 1500)])
ACCURACY_T = [1, 2, 3, 7, 31, 63]


def accuracy_distributions():
    """Seeded distributions of 20-400 atoms; half spread log-uniformly down
    to 1e-12, half uniform weights with ten atoms near 1e-12..1e-9."""
    rng = np.random.default_rng(1213)
    out = []
    for i in range(12):
        n = int(rng.integers(20, 401))
        if i % 2:
            weights = 10.0 ** rng.uniform(-12.0, 0.0, n)
        else:
            weights = np.concatenate([rng.random(n - 10), 10.0 ** rng.uniform(-12.0, -9.0, 10)])
        out.append(ProbVector(weights, normalize=True))
    return out


def direct_powers(mpmath, m: np.ndarray, t: int):
    """For each mass, the exact (1-m)^t and what goes into its compensated
    power: P = fl(1-m)^t as this platform's pow computes it, the exact power
    hi^t of hi = fl(1 - m) that P rounds, and the factor 1 + t |lo/hi| that
    the compensation carries P's error through.  Call inside
    mpmath.workdps."""
    hi = 1.0 - m
    out = []
    for p, h, P in zip(m.tolist(), hi.tolist(), pow_unit(hi, t).tolist()):
        one_minus, h = 1 - mpmath.mpf(p), mpmath.mpf(h)
        out.append((one_minus ** t, P, h ** t, 1 + t * abs((one_minus - h) / h)))
    return out


class TestCompensatedPowers:
    """Below the log-space switch, (1-p)^t is the compensated power
    P + P (t r), P = hi^t.  Its error is the error of the platform's P,
    carried through 1 + t lo/hi, plus the final rounding (half an ulp) plus
    terms of order t^2 u^2, for every mass, tiny ones included; the direct
    power of fl(1 - p) would carry up to t/2 ulps more.  The limits below
    are measured from the platform's own P, so they hold whatever its pow
    loop: where P is within 0.75 ulp of hi^t they are within 1.25 ulps."""

    @pytest.mark.parametrize("t", ACCURACY_T)
    def test_power_within_its_compensation_bound(self, t):
        import mpmath

        array = pow_one_minus(ACCURACY_BASES, t).tolist()
        with mpmath.workdps(60):
            for p, g, (exact, P, hi_t, factor) in zip(
                    ACCURACY_BASES.tolist(), array, direct_powers(mpmath, ACCURACY_BASES, t)):
                # 4 t^2 u^2 covers the binomial tail, C(t, 2) u^2, and the
                # roundings of t r and P (t r), 3 t u^2
                limit = (abs(P - hi_t) * factor + math.ulp(g) / 2
                         + 4 * t * t * U * U * max(exact, P))
                assert abs(g - exact) <= limit, (p, t, float(abs(g - exact) / math.ulp(g)))
        # and a scalar gives its array element, bit for bit
        scalars = [float(pow_one_minus(p, t)) for p in ACCURACY_BASES.tolist()]
        assert [s.hex() for s in scalars] == [a.hex() for a in array]

    @pytest.mark.parametrize("t", ACCURACY_T)
    def test_closed_forms_within_one_and_a_half_ulps(self, t):
        """E[U_t], the Good-Turing expectation and the singleton mass, each a
        sum of compensated powers, within 1.5 ulps of their 60-digit sums
        where P is hi^t correctly rounded; on another pow loop P's distance
        from that rounding, carried through each term's weight, is added."""
        import mpmath

        for d in accuracy_distributions():
            assert d.m[0] < 1e-8
            with mpmath.workdps(60):
                m = [mpmath.mpf(x) for x in d.m.tolist()]
                c = d.c.tolist()

                def reference_and_allowance(k, e):
                    """sum c m^k (1-m)^e, and sum c m^k |P - fl(hi^e)| times
                    the compensation factor."""
                    terms = direct_powers(mpmath, d.m, e)
                    return (mpmath.fsum(n * x ** k * exact
                                        for x, n, (exact, _, _, _) in zip(m, c, terms)),
                            mpmath.fsum(n * x ** k * abs(P - float(hi_t)) * factor
                                        for x, n, (_, P, hi_t, factor) in zip(m, c, terms)))

                emm, emm_extra = reference_and_allowance(1, t)
                gt, gt_extra = reference_and_allowance(1, t - 1)
                singleton, singleton_extra = (t * x for x in reference_and_allowance(2, t - 1))
                for value, ref, extra in [(expected_missing_mass(d, t), emm, emm_extra),
                                          (gt_expected_estimate(d, t), gt, gt_extra),
                                          (singleton_mass_expectation(d, t), singleton,
                                           singleton_extra)]:
                    assert abs(value - ref) <= 1.5 * math.ulp(float(ref)) + extra, (d.n, t)


class TestLogSpacePowers:
    """From the switch on, a power is exp(t log1p(-p)) or exp(t log b).  The
    roundings of the log and of its product with t leave the exponent x =
    t log off by about |x| u, which exp turns into about |x| ulps of the
    power: the error grows with |x|, up to some 900 ulps on these bases.
    At most 1.5 (|x| + 1) ulps were measured here; the limit of 4 (|x| + 1)
    ulps leaves headroom for other platforms' exp and log loops."""

    @pytest.mark.parametrize("t", [64, 1000, 10 ** 5, 10 ** 9])
    def test_within_its_log_bound(self, t):
        import mpmath

        unit_bases = np.concatenate([ACCURACY_BASES, 1.0 - ACCURACY_BASES])
        with mpmath.workdps(60):
            for p, g in zip(ACCURACY_BASES.tolist(), pow_one_minus(ACCURACY_BASES, t).tolist()):
                error = abs(g - (1 - mpmath.mpf(p)) ** t)
                assert error <= 4 * (abs(t * math.log1p(-p)) + 1) * math.ulp(g), (p, t)
            for b, g in zip(unit_bases.tolist(), pow_unit(unit_bases, t).tolist()):
                error = abs(g - mpmath.mpf(b) ** t)
                assert error <= 4 * (abs(t * math.log(b)) + 1) * math.ulp(g), (b, t)
