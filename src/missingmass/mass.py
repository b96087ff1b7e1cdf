"""Expected missing mass: exact values, distribution-free bounds, and the
closed-form expectations behind the Good-Turing estimator.

Everything here is a pure function of the distribution.  The single-atom
kernel x(1-x)^t drives all of it: an atom of mass x is missed by t draws
with probability (1-x)^t, so the expected missing mass is the sum of kernel
values over the support.

The countable-support bound (``bound_countable``) is a theorem with a sharp
constant.  Let ell be the plateau length, the largest number of atoms in one
band [alpha/2, alpha), and

    C* = sup_{y>0} sum_{k in Z} 2^k y exp(-2^k y) = 1.44270930.

Then E[U_t] <= ell C*/t, so ell/(c t) bounds E[U_t] for every
c <= c* = 1/C* = 0.69314033.  Proof sketch:

1. Sort the atoms in decreasing order.  Then p_{i+ell} <= p_i/2, or else
   ell+1 atoms would share one band.
2. Split the atoms into ell chains by index mod ell.  Within a chain each
   mass is at most half the one before.
3. (1-p)^t <= exp(-tp), so with x = tp an atom adds at most f(x)/t, where
   f(x) = x exp(-x) rises on (0, 1] and falls on [1, inf).
4. In one chain let z be the smallest x >= 1 and w the largest x < 1, and
   pick y in [max(w, 1/2), min(1, z/2)], dropping a side that is empty.
   Each term of the chain is then at most the matching term f(2^k y) of one
   geometric sequence, so the chain adds at most C*/t.

The sum over k oscillates in log2 y with period 1, by about 1.4e-5 around
its mean 1/ln 2 = 1.44269504; the oscillation comes from the Fourier terms
Gamma(1 + 2 pi i k/ln 2)/ln 2 of its Mellin transform (Flajolet, Gourdon &
Dumas, "Mellin transforms and asymptotics: harmonic sums", TCS 144, 1995),
and its maximum, at log2 y ~ 0.86 (mod 1), is C*.  The constant is sharp:
with ell atoms at each mass 2^-k/(2 ell), k >= 0, the largest t E[U_t]/ell
comes arbitrarily close to C* as t grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import BlockVector, CountableFamily, ProbVector, Truncation, truncate
from .errors import MAX_T, InvalidInputError, require_int, require_real, require_t
from .numerics import exact_sum, pow_one_minus

# The constant c of the countable-support bound ell/(c*t).  The bound holds for
# every c <= c* = 1/C* = 0.69314033 (the theorem in the module docstring);
# 0.69 keeps a 0.45 % margin.  The test suite checks the bound and its sharpness.
DEFAULT_COUNTABLE_C = 0.69

# The one default truncation tolerance: both enclosure functions and `mml --tol`.
DEFAULT_TOL = 1e-12


# The finite distribution types; the scalar closed forms check an exact type
# and an exact int t in [1, MAX_T] inline, and send anything else through the
# full checks.
_FINITE = (ProbVector, BlockVector)


def _require_distribution(d) -> None:
    if not isinstance(d, _FINITE):
        raise InvalidInputError(
            f"expected a ProbVector or BlockVector, got {type(d).__name__}; "
            "countable families go through expected_missing_mass_interval"
        )


def expected_missing_mass(d: ProbVector | BlockVector, t: int) -> float:
    """Exact E[U_t] = sum_i p_i (1 - p_i)^t."""
    if type(t) is not int or t < 1 or t > MAX_T or type(d) not in _FINITE:
        _require_distribution(d)
        t = require_t(t)
    return d.kernel_terms.total(t)


def expected_missing_mass_interval(
    f: CountableFamily | Truncation, t: int, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Interval [lower, upper] containing E[U_t] for a countable family or
    for listed atoms with a tail bound.

    The lower endpoint is the exact contribution of the retained atoms; the
    omitted atoms add at most their total mass, so the interval width is the
    tail bound: at most the truncation tolerance ``tol`` for a family, a
    Truncation's own ``tail`` otherwise.
    """
    t = require_t(t)
    if isinstance(f, CountableFamily):
        f = truncate(f, tol)
    elif not isinstance(f, Truncation):
        raise InvalidInputError(f"expected a CountableFamily or Truncation, got {type(f).__name__}")
    lower = f.kernel_terms.total(t)
    return lower, lower + f.tail


def kernel(x: float, t: int) -> float:
    """Single-atom contribution f(x) = x (1 - x)^t."""
    require_real(x, "kernel argument", 0.0, 1.0)
    require_t(t)
    return float(x * pow_one_minus(x, t))


def kernel_prime(x: float, t: int) -> float:
    """Derivative of the kernel: (1 - x)^(t-1) (1 - (t+1) x).

    The factor 1 - (t+1) x is taken exactly and rounded once, so its sign is
    right at every float, also next to the peak 1/(t+1), where rounding
    (t+1) x first would cancel to 0 or flip it: with x = n/d exactly, it is
    (d - (t+1) n)/d, a true division of ints, which Python rounds correctly.
    """
    require_real(x, "kernel argument", 0.0, 1.0)
    t = require_t(t)
    n, d = float(x).as_integer_ratio()
    return float(pow_one_minus(x, t - 1) * ((d - (t + 1) * n) / d))


def bound_finite(n: int, t: int) -> float:
    """Distribution-free upper bound on E[U_t] for support size n.

    exp(-t/n) while t <= n, then n/(e t).  Neither needs a clamp to 1:
    exp(-t/n) <= 1 for t >= 1, and n/(e t) < 1/e for t > n.
    """
    if type(n) is not int or type(t) is not int or n < 1 or t < 1 or t > MAX_T:
        n = require_int(n, "support size n", 1)
        t = require_t(t)
    if t <= n:
        return math.exp(-t / n)
    return n / (math.e * t)


def bound_countable(ell: int, t: int) -> float:
    """Plateau-length upper bound ell/(c*t) for countable supports, with
    c = DEFAULT_COUNTABLE_C.

    E[U_t] <= ell C*/t with C* = 1.44270930 (the theorem and its proof
    sketch are in the module docstring), so the bound holds for every
    c <= c* = 1/C* = 0.69314033; 0.69 keeps a 0.45 % margin.
    """
    ell = require_int(ell, "plateau length", 1)
    t = require_t(t)
    return ell / (DEFAULT_COUNTABLE_C * t)


def dyadic_bands(d: ProbVector | BlockVector, t: int) -> list[tuple[int, int, float]]:
    """Split E[U_t] by dyadic mass bands (2^j/(t+1) <= p < 2^(j+1)/(t+1)).

    Masses below 1/(t+1) are pooled in band j = -1.  Returns (band, atom
    count, band contribution) triples; contributions re-sum to E[U_t].
    """
    _require_distribution(d)
    t = require_t(t)
    # frexp's exponent e gives 2^(e-1) <= x < 2^e exactly, so j = e - 1; an
    # atom at 1/(t+1) whose x rounds to 0.999... stays in band 0
    j = np.maximum(np.frexp(d.m * (t + 1))[1] - 1, 0)
    j[d.m < 1.0 / (t + 1)] = -1
    # m is sorted and j is monotone in m, so each band is one slice of the runs
    bands = range(int(j[0]), int(j[-1]) + 1)
    edges = np.searchsorted(j, [*bands, bands.stop]).tolist()
    terms = d.kernel_terms(t)  # the very terms E[U_t] sums
    return [(band, int(d.c[lo:hi].sum()), exact_sum(terms[lo:hi]))
            for band, lo, hi in zip(bands, edges, edges[1:]) if lo < hi]


def gt_expected_estimate(d: ProbVector | BlockVector, t: int) -> float:
    """Exact expectation of the Good-Turing estimate: sum_i p_i (1 - p_i)^(t-1)."""
    if type(t) is not int or t < 1 or t > MAX_T or type(d) not in _FINITE:
        _require_distribution(d)
        t = require_t(t)
    return d.kernel_terms.total(t - 1)


def singleton_mass_expectation(d: ProbVector | BlockVector, t: int) -> float:
    """Exact expected mass of atoms seen exactly once: sum_i t p_i^2 (1 - p_i)^(t-1)."""
    return gt_bias(d, t) * require_t(t)  # t as a Python int, checked after d


def gt_bias(d: ProbVector | BlockVector, t: int) -> float:
    """Expected overshoot of the Good-Turing estimate over the missing mass,
    sum_i p_i^2 (1 - p_i)^(t-1).

    The estimate's expectation minus E[U_t] is this sum in exact arithmetic;
    taking the sum directly, exactly rounded, avoids that subtraction, which
    cancels (to 1e-9 relative on uniform(2^40) at t = 1000).
    """
    if type(t) is not int or t < 1 or t > MAX_T or type(d) not in _FINITE:
        _require_distribution(d)
        t = require_t(t)
    return d.kernel_terms.total(t - 1, 2)


@dataclass(frozen=True)
class MassCurve:
    """E[U_t] over a t-grid, with enclosure endpoints for truncated families."""

    t_values: tuple[int, ...]
    values: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def to_csv_text(self) -> str:
        lines = ["t,value,lower,upper"]
        for t, v, lo, hi in zip(self.t_values, self.values, self.lower, self.upper):
            lines.append(f"{t},{v!r},{lo!r},{hi!r}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "t": list(self.t_values),
            "value": list(self.values),
            "lower": list(self.lower),
            "upper": list(self.upper),
        }


def missing_mass_curve(
    d: ProbVector | BlockVector | CountableFamily | Truncation,
    t_values,
    tol: float = DEFAULT_TOL,
) -> MassCurve:
    """Evaluate E[U_t] over a grid of sample counts (a family truncated at ``tol``)."""
    ts = tuple(require_t(t) for t in t_values)
    if not ts:
        raise InvalidInputError("t grid must be nonempty")
    if isinstance(d, CountableFamily):
        d = truncate(d, tol)
    elif not isinstance(d, Truncation):
        _require_distribution(d)
    lower = d.kernel_terms.totals(ts)  # each kernel_terms.total(t), bit for bit
    if not isinstance(d, Truncation):
        lower = tuple(lower)
        return MassCurve(ts, lower, lower, lower)
    lower = np.array(lower)
    upper = lower + d.tail  # float64 arithmetic, elementwise as in Python
    return MassCurve(ts, tuple(((lower + upper) / 2.0).tolist()), tuple(lower.tolist()),
                     tuple(upper.tolist()))
