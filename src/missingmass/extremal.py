"""Extremizers of the expected missing mass over the simplex.

Every local maximizer is one heavy atom plus n-1 equal light atoms, so the
whole optimization collapses to one variable: the light mass x in [0, 1/n].
The value of that family is

    bivalent_missing_mass(n, t, x)
        = (n-1) x (1-x)^t + (1 - (n-1) x) ((n-1) x)^t,

with x = 1/n recovering the uniform distribution.  Small sample counts are
won by the uniform; past an integer threshold (strictly above n) a strictly
interior light mass wins, and its location is pinned inside (1/(t+1), 1/t).
The threshold is found by direct integer scan, and an exhaustive grid oracle
over the 3-atom simplex cross-checks the one-variable reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ProbVector
from .errors import InvalidInputError, MissingMassError, ThresholdNotFoundError, require_t
from .numerics import pow_one_minus, pow_unit

# Sign scan resolution for locating interior critical points, and the
# bisection tolerance on the light mass itself.
CRITICAL_SCAN_POINTS = 64
LIGHT_MASS_TOL = 1e-15

_LOG_OVERFLOW = 700.0  # exp argument beyond which a ratio is reported as inf


def _require(n, t=1, x=0.0) -> None:
    """Check a support size n >= 2, a sample count t and a light mass x in
    [0, 1/n]; the defaults pass, for callers without a t or an x."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidInputError(f"support size n must be an integer >= 2, got {n!r}")
    require_t(t)
    if not (0.0 <= x <= 1.0 / n + 1e-15):
        raise InvalidInputError(f"light mass must lie in [0, 1/{n}], got {x}")


def bivalent_missing_mass(n: int, t: int, x: float) -> float:
    """E[U_t] of the one-heavy/(n-1)-light distribution with light mass x."""
    _require(n, t, x)
    u = (n - 1) * x
    return (n - 1) * x * pow_one_minus(x, t) + (1.0 - u) * pow_unit(u, t)


def bivalent_missing_mass_prime(n: int, t: int, x: float) -> float:
    """Analytic derivative of bivalent_missing_mass in the light mass."""
    _require(n, t, x)
    u = (n - 1) * x
    light_part = pow_one_minus(x, t - 1) * (1.0 - (t + 1) * x)
    heavy_part = pow_unit(u, t - 1) * (t - (t + 1) * u)
    return (n - 1) * (light_part + heavy_part)


def uniform_value(n: int, t: int) -> float:
    """E[U_t] of the uniform distribution on n atoms: (1 - 1/n)^t."""
    _require(n, t)
    return pow_one_minus(1.0 / n, t)


def uniform_ratio(n: int, t: int, x: float) -> float:
    """Bivalent value at x divided by the uniform value; > 1 means x wins.

    Evaluated through ratio powers so that large t neither under- nor
    overflows; a genuinely astronomical ratio comes back as inf.
    """
    _require(n, t, x)
    # (1-x)/(1-1/n) >= 1 for x <= 1/n; its log via log1p of the increment
    log_r1 = math.log1p((1.0 / n - x) / (1.0 - 1.0 / n))
    if t * log_r1 > _LOG_OVERFLOW:
        return math.inf
    first = (n - 1) * x * math.exp(t * log_r1)
    second = (1.0 - (n - 1) * x) * pow_unit(n * x, t)
    return first + second


def bivalent_ratio_bound(n: int, t: int) -> float:
    """Upper bound on max-over-x uniform_ratio; a value < 1 certifies that
    the uniform distribution still wins at this t (t below the threshold).

    The bound caps the light part by the kernel peak at 1/(t+1) and the
    heavy part by its value at light mass 1/t.
    """
    _require(n, t)
    log_r1 = math.log1p((1.0 / n - 1.0 / (t + 1)) / (1.0 - 1.0 / n))
    if t * log_r1 > _LOG_OVERFLOW:
        return math.inf
    first = (n - 1) / (t + 1) * math.exp(t * log_r1)
    ratio2 = n / t
    if ratio2 >= 1.0:
        log_r2 = math.log(ratio2)
        second_pow = math.inf if t * log_r2 > _LOG_OVERFLOW else math.exp(t * log_r2)
    else:
        second_pow = pow_unit(ratio2, t)
    second = (1.0 - (n - 1) / t) * second_pow
    return first + second


@dataclass(frozen=True)
class ExtremalSolution:
    """Maximizer of E[U_t] over the n-simplex, in one-heavy form."""

    n: int
    t: int
    x_star: float
    heavy: float
    value: float
    is_uniform: bool

    def to_prob_vector(self) -> ProbVector:
        return ProbVector([self.x_star] * (self.n - 1) + [self.heavy])

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "x_star": self.x_star,
            "heavy": self.heavy,
            "value": self.value,
            "is_uniform": self.is_uniform,
        }


@dataclass(frozen=True)
class ThresholdResult:
    """First sample count at which an interior light mass strictly beats
    the uniform distribution, with the win margin at that point."""

    n: int
    tau: int
    margin_at_tau: float
    scan_range: tuple[int, int]

    def to_json_obj(self) -> dict:
        return {"n": self.n, "tau": self.tau, "margin_at_tau": self.margin_at_tau}


def _interior_critical_points(n: int, t: int) -> list[float]:
    """All sign changes of the derivative strictly inside (1/(t+1), 1/n).

    Interior local maxima can only live below 2/(t+1) (the derivative of the
    kernel decreases there and increases beyond), and the derivative vanishes
    at most twice in the scanned zone, so a fixed-resolution sign scan with
    bisection on each bracket finds every candidate.  The right end stays a
    hair below 1/n: the uniform point is a critical point of the family by
    construction, and letting the scan touch it would manufacture spurious
    interior roots out of float noise.
    """
    lo = 1.0 / (t + 1)
    hi = min(2.0 / (t + 1), (1.0 - 1e-9) / n)
    if hi <= lo:
        return []
    xs = [lo + (hi - lo) * i / CRITICAL_SCAN_POINTS for i in range(CRITICAL_SCAN_POINTS + 1)]
    gs = [bivalent_missing_mass_prime(n, t, x) for x in xs]
    roots: list[float] = []
    for i in range(CRITICAL_SCAN_POINTS):
        a, b, ga, gb = xs[i], xs[i + 1], gs[i], gs[i + 1]
        if ga == 0.0:
            roots.append(a)
            continue
        if (ga > 0.0) == (gb > 0.0) and gb != 0.0:
            continue
        # bisect past the 1e-15 contract all the way to float resolution, so
        # the residual derivative at the root is dominated by rounding alone
        while True:
            m = 0.5 * (a + b)
            if not (a < m < b):
                break
            gm = bivalent_missing_mass_prime(n, t, m)
            if gm == 0.0:
                a = b = m
                break
            if (gm > 0.0) == (ga > 0.0):
                a, ga = m, gm
            else:
                b, gb = m, gm
        roots.append(0.5 * (a + b))
    if gs[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def maximize_missing_mass(n: int, t: int) -> ExtremalSolution:
    """Global maximizer of E[U_t] over distributions on n atoms.

    For t <= n the uniform distribution is certified optimal.  Otherwise
    every interior critical point of the one-variable family inside
    (1/(t+1), 1/t) is located and the best one is compared against the
    uniform value; ties go to the uniform.
    """
    _require(n, t)
    uval = uniform_value(n, t)
    if t > n:
        # Strictly-interior representable bracket.  For extreme t the heavy
        # term underflows and the true maximizer sits within one float
        # spacing of the kernel peak, so the first float past the peak is
        # always offered as a candidate and winners are clamped inside.
        lo_open = math.nextafter(1.0 / (t + 1), 1.0)
        candidates = _interior_critical_points(n, t)
        if lo_open < 1.0 / t:
            candidates.append(lo_open)
        best_x, best_v = None, -math.inf
        for x in candidates:
            x = max(x, lo_open)
            v = bivalent_missing_mass(n, t, x)
            if v > best_v:
                best_x, best_v = x, v
        if best_x is not None and best_v > uval:
            return ExtremalSolution(
                n=n,
                t=t,
                x_star=best_x,
                heavy=1.0 - (n - 1) * best_x,
                value=best_v,
                is_uniform=False,
            )
    return ExtremalSolution(
        n=n, t=t, x_star=1.0 / n, heavy=1.0 / n, value=uval, is_uniform=True
    )


def find_threshold(n: int, t_max: int | None = None) -> ThresholdResult:
    """Scan t = n+1, n+2, ... for the first strict win of an interior light
    mass over the uniform distribution, verifying the win persists through
    the rest of the scan.
    """
    _require(n)
    budget = n + max(10, math.ceil(10.0 * math.sqrt(n)))
    if t_max is None:
        t_max = budget
    elif t_max < budget:
        raise InvalidInputError(
            f"t_max={t_max} is below the scan budget {budget} for n={n}"
        )
    tau, margin = None, None
    for t in range(n + 1, t_max + 1):
        sol = maximize_missing_mass(n, t)
        win = not sol.is_uniform
        if tau is None:
            if win:
                tau = t
                margin = sol.value - uniform_value(n, t)
        elif not win:
            raise MissingMassError(
                f"win indicator not monotone: n={n} wins at t={tau} but loses at t={t}"
            )
    if tau is None:
        raise ThresholdNotFoundError(n, t_max)
    return ThresholdResult(n=n, tau=tau, margin_at_tau=margin, scan_range=(n + 1, t_max))


def light_mass_bounds(n: int, t: int) -> tuple[float, float]:
    """Localization interval for the winning light mass once t is past
    n + sqrt(2n): (1/(t+1), 1/(t+1) + exp(-sqrt(n/2)))."""
    _require(n, t)
    if t < n + math.sqrt(2.0 * n):
        raise InvalidInputError(
            f"localization requires t >= n + sqrt(2n) = {n + math.sqrt(2 * n):.3f}, got t={t}"
        )
    lo = 1.0 / (t + 1)
    return lo, lo + math.exp(-math.sqrt(n / 2.0))


def simplex_grid_oracle(t: int, grid_step: float = 1e-3) -> tuple[float, tuple[float, float, float]]:
    """Exhaustive grid maximization of E[U_t] over the 3-atom simplex.

    Independent of the one-variable reduction: sweeps (p1, p2) on a square
    grid, takes p3 = 1 - p1 - p2, then refines once around the best cell.
    Returns the best value and its point, coordinates sorted nondecreasing.
    """
    require_t(t)
    if not (0.0 < grid_step <= 1e-2):
        raise InvalidInputError(f"grid step must lie in (0, 0.01], got {grid_step}")

    def sweep(p1_vals: np.ndarray, p2_vals: np.ndarray) -> tuple[float, float, float]:
        p1 = p1_vals[:, None]
        p2 = p2_vals[None, :]
        p3 = 1.0 - p1 - p2
        ok = p3 >= -1e-12
        p3c = np.clip(p3, 0.0, 1.0)
        f = (
            p1 * (1.0 - p1) ** t
            + p2 * (1.0 - p2) ** t
            + p3c * (1.0 - p3c) ** t
        )
        f = np.where(ok, f, -1.0)
        i, j = np.unravel_index(int(np.argmax(f)), f.shape)
        return float(f[i, j]), float(p1_vals[i]), float(p2_vals[j])

    m = int(round(1.0 / grid_step))
    coarse = np.linspace(0.0, 1.0, m + 1)
    val, b1, b2 = sweep(coarse, coarse)

    fine_step = grid_step / 50.0
    offsets = np.arange(-50, 51) * fine_step
    ref1 = np.clip(b1 + offsets, 0.0, 1.0)
    ref2 = np.clip(b2 + offsets, 0.0, 1.0)
    rval, r1, r2 = sweep(ref1, ref2)
    if rval > val:
        val, b1, b2 = rval, r1, r2

    p3 = max(0.0, 1.0 - b1 - b2)
    point = tuple(sorted((b1, b2, p3)))
    return val, point
