"""Exact-arithmetic oracles for the closed forms, and their extreme inputs.

Every float mass is a rational number, so E[U_t], the Good-Turing
expectation, the singleton mass and the dyadic bands have exact values as
`fractions.Fraction`s of the very floats a distribution holds.  The library
must land within 1e-12 relative of them whichever front door (`ProbVector`,
`BlockVector`, `Truncation`) the masses came through.
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
    CountableFamily,
    ProbVector,
    Truncation,
    dyadic_bands,
    expected_missing_mass,
    expected_missing_mass_interval,
    gt_bias,
    gt_expected_estimate,
    singleton_mass_expectation,
    truncate,
)
from missingmass.numerics import pow_one_minus, pow_one_minus_array

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


class TestPowerPolicy:
    @pytest.mark.parametrize("t", [0, 1, 2, 63, 64, 10 ** 9])
    def test_array_twin_matches_scalar(self, t):
        ps = [1e-300, 1e-9, 1e-8, 1e-3, 0.25, 0.5, 1.0 - 2.0 ** -52, 1.0]
        got = pow_one_minus_array(np.array(ps), t)
        for p, g in zip(ps, got.tolist()):
            want = pow_one_minus(p, t)
            assert g == pytest.approx(want, rel=1e-13, abs=0.0)
