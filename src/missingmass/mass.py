"""Expected missing mass: exact values, distribution-free bounds, and the
closed-form expectations behind the Good-Turing estimator.

Everything here is a pure function of the distribution.  The single-atom
kernel x(1-x)^t drives all of it: an atom of mass x is missed by t draws
with probability (1-x)^t, so the expected missing mass is the sum of kernel
values over the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import BlockVector, CountableFamily, ProbVector, Truncation, truncate
from .errors import InvalidInputError, require_t
from .numerics import pow_one_minus, pow_one_minus_array

# Ships the empirically calibrated universal constant for the countable-support
# bound ell/(c*t).  On the dyadic-block grid a in 2..64, t in (a, 100a] the
# largest valid c is 1/max(t E/a) ~= 0.6933 (the max approaches 1/ln 2 from
# below); 0.69 keeps a safety margin.  Re-derived in the acceptance suite.
DEFAULT_COUNTABLE_C = 0.69


def _require_distribution(d) -> None:
    if not isinstance(d, (ProbVector, BlockVector)):
        raise InvalidInputError(
            f"expected a ProbVector or BlockVector, got {type(d).__name__}; "
            "countable families go through expected_missing_mass_interval"
        )


def _kernel_sum(m: np.ndarray, c: np.ndarray, t: int, k: int = 1, s: int = 0) -> float:
    """sum over the runs of c m^k (1 - m)^(t - s), exactly rounded.

    Every closed form in this module is one such sum.  The powers are taken
    elementwise; the sum is math.fsum, so the result is the correctly rounded
    sum of the rounded terms whatever their number or order (pairwise
    summation would carry an O(eps log n) bound instead: Higham, SIAM J. Sci.
    Comput. 14(4), 1993).
    """
    w = c * m if k == 1 else c * m * m
    return math.fsum((w * pow_one_minus_array(m, t - s)).tolist())


def expected_missing_mass(d: ProbVector | BlockVector, t: int, *, allow_zero: bool = False) -> float:
    """Exact E[U_t] = sum_i p_i (1 - p_i)^t."""
    _require_distribution(d)
    return _kernel_sum(d.m, d.c, require_t(t, 0 if allow_zero else 1))


def expected_missing_mass_interval(
    f: CountableFamily | Truncation, t: int, tol: float | None = None
) -> tuple[float, float]:
    """Interval [lower, upper] containing E[U_t] for a countable family.

    The lower endpoint is the exact contribution of the retained prefix; the
    omitted atoms add at most their total mass, so the interval width never
    exceeds the truncation tolerance.
    """
    t = require_t(t)
    if isinstance(f, CountableFamily):
        f = truncate(f, tol if tol is not None else f.truncation_tol)
    elif not isinstance(f, Truncation):
        raise InvalidInputError(f"expected a CountableFamily or Truncation, got {type(f).__name__}")
    lower = _kernel_sum(f.m, f.c, t)
    return lower, lower + f.tail


def kernel(x: float, t: int) -> float:
    """Single-atom contribution f(x) = x (1 - x)^t."""
    if not (0.0 <= x <= 1.0):
        raise InvalidInputError(f"kernel argument must lie in [0, 1], got {x}")
    require_t(t)
    return x * pow_one_minus(x, t)


def kernel_prime(x: float, t: int) -> float:
    """Derivative of the kernel: (1 - x)^(t-1) (1 - (t+1) x)."""
    if not (0.0 <= x <= 1.0):
        raise InvalidInputError(f"kernel argument must lie in [0, 1], got {x}")
    require_t(t)
    return pow_one_minus(x, t - 1) * (1.0 - (t + 1) * x)


def kernel_peak(t: int) -> float:
    """Location of the kernel maximum, 1/(t+1); the peak value is < 1/(e t)."""
    require_t(t)
    return 1.0 / (t + 1)


def bound_finite(n: int, t: int) -> float:
    """Distribution-free upper bound on E[U_t] for support size n.

    exp(-t/n) while t <= n, then n/(e t); both clamped to 1.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError(f"support size must be a positive integer, got {n!r}")
    t = require_t(t)
    if t <= n:
        return min(1.0, math.exp(-t / n))
    return min(1.0, n / (math.e * t))


def bound_countable(ell: int, t: int, c: float = DEFAULT_COUNTABLE_C) -> float:
    """Plateau-length upper bound ell/(c*t) for countable supports.

    The constant c is not pinned down by theory; the shipped default is the
    empirical calibration from the dyadic-block grid.
    """
    if not isinstance(ell, int) or ell < 1:
        raise InvalidInputError(f"plateau length must be a positive integer, got {ell!r}")
    t = require_t(t)
    if not (c > 0.0):
        raise InvalidInputError(f"constant c must be positive, got {c}")
    return ell / (c * t)


def dyadic_bands(d: ProbVector | BlockVector, t: int) -> list[tuple[int, int, float]]:
    """Split E[U_t] by dyadic mass bands (2^j/(t+1) <= p < 2^(j+1)/(t+1)).

    Masses below 1/(t+1) are pooled in band j = -1.  Returns (band, atom
    count, band contribution) triples; contributions re-sum to E[U_t].
    """
    _require_distribution(d)
    t = require_t(t)
    x = d.m * (t + 1)
    # guard the float log against landing one band off at boundaries: the
    # band test is x >= 2^j exactly, and m >= 1/(t+1) may give x = 0.999...
    j = np.maximum(np.floor(np.log2(x)), 0.0).astype(np.int64)
    while (down := (j > 0) & (x < np.ldexp(1.0, j))).any():
        j -= down
    while (up := x >= np.ldexp(1.0, j + 1)).any():
        j += up
    j[d.m < 1.0 / (t + 1)] = -1
    bands = []
    for band in np.unique(j):
        sel = j == band
        bands.append((int(band), sum(d.c[sel].tolist()), _kernel_sum(d.m[sel], d.c[sel], t)))
    return bands


def gt_expected_estimate(d: ProbVector | BlockVector, t: int) -> float:
    """Exact expectation of the Good-Turing estimate: sum_i p_i (1 - p_i)^(t-1)."""
    _require_distribution(d)
    return _kernel_sum(d.m, d.c, require_t(t), s=1)


def singleton_mass_expectation(d: ProbVector | BlockVector, t: int) -> float:
    """Exact expected mass of atoms seen exactly once: sum_i t p_i^2 (1 - p_i)^(t-1)."""
    _require_distribution(d)
    t = require_t(t)
    return t * _kernel_sum(d.m, d.c, t, k=2, s=1)


def gt_bias(d: ProbVector | BlockVector, t: int) -> float:
    """Expected overshoot of the Good-Turing estimate over the missing mass.

    Equals singleton_mass_expectation(d, t) / t in exact arithmetic.
    """
    return gt_expected_estimate(d, t) - expected_missing_mass(d, t)


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
    tol: float | None = None,
) -> MassCurve:
    """Evaluate E[U_t] over a grid of sample counts."""
    ts = tuple(require_t(t) for t in t_values)
    if not ts:
        raise InvalidInputError("t grid must be nonempty")
    if isinstance(d, CountableFamily):
        d = truncate(d, tol if tol is not None else d.truncation_tol)
    elif not isinstance(d, Truncation):
        _require_distribution(d)
    lower = tuple(_kernel_sum(d.m, d.c, t) for t in ts)
    if not isinstance(d, Truncation):
        return MassCurve(ts, lower, lower, lower)
    upper = tuple(lo + d.tail for lo in lower)
    return MassCurve(ts, tuple((lo + hi) / 2.0 for lo, hi in zip(lower, upper)), lower, upper)
