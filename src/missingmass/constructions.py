"""Explicit distributions witnessing the tightness of the missing-mass bounds.

Three constructions:

* ``tight_finite``  -- n atoms, light mass 1/(t+1), achieving E[U_t] within a
  constant factor of the finite-support bound: E[U_t] >= 8(n-1)/(27 t).
* ``tight_countable`` -- dyadic blocks of a equal atoms, plateau length a,
  achieving E[U_t] >= 4a/(27 t) for t > a.
* ``rate_lb`` -- for any strictly decreasing target sequence r_t, a finite
  distribution whose expected missing mass exceeds every r_t on the horizon,
  built from per-t fine blocks plus repeated atom doubling.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import BlockVector, CountableFamily, ProbVector, doubling_operator
from .errors import (
    ConstructionFailedError,
    InvalidInputError,
    require_int,
    require_real,
    require_reals,
    require_t,
)
from .mass import expected_missing_mass

MAX_DOUBLINGS = 40

# The longest horizon T that rate_lb and the target builders take: the
# targets and the base layout are each about T floats and the JSON output is
# one block per run.  A longer horizon is refused before anything is built.
MAX_HORIZON = 1 << 20

# The rounding radius of rate_lb's interval check (see _dominated): a float
# E[U_t] lies within the relative 2^-41 of its exact value, plus 2^-1063 for
# each run, whose term may be rounded in the subnormal range.  The accept
# test carries twice that radius and room for its own two roundings.
_ACCEPT_SLACK = 1.0 + 2.0 ** -37


def tight_finite(n: int, t: int) -> ProbVector:
    """n-atom near-extremizer: n-1 atoms at 1/(t+1), one heavy remainder.

    Requires t > n so the heavy atom genuinely dominates the light mass.
    """
    n = require_int(n, "support size n", 2)
    t = require_t(t, n + 1)
    x = 1.0 / (t + 1)
    return ProbVector._of_runs([x, 1.0 - (n - 1) * x], [n - 1, 1])


def tight_countable(a: int) -> CountableFamily:
    """Dyadic-block family: block k holds a atoms of mass 1/(2^k a).

    Block k carries total mass 2^-k, so the plateau length is exactly a and
    every truncation at a block boundary has tail 2^-k.
    """
    return CountableFamily.dyadic_blocks(a)


def _require_horizon(t_max: int) -> int:
    if t_max > MAX_HORIZON:
        raise InvalidInputError(f"horizon t_max={t_max} exceeds MAX_HORIZON={MAX_HORIZON}")
    return t_max


def inverse_log_targets(t_max: int) -> list[float]:
    """The slowly vanishing target sequence r_t = 1/ln(t+2), t <= MAX_HORIZON."""
    t_max = _require_horizon(require_int(t_max, "horizon t_max", 1))
    return [1.0 / math.log(t + 2) for t in range(1, t_max + 1)]


def geometric_targets(t_max: int) -> list[float]:
    """Rapidly vanishing targets r_t = 0.9 * 0.5^t, t <= MAX_HORIZON."""
    t_max = _require_horizon(require_int(t_max, "horizon t_max", 1))
    return [0.9 * 0.5 ** t for t in range(1, t_max + 1)]


def rate_lb(targets) -> BlockVector:
    """Distribution whose expected missing mass beats every target rate.

    ``targets`` lists real numbers r_1 > r_2 > ... > r_T in (0, 1), with T
    at most MAX_HORIZON, which is checked before anything is built.  The
    base layout is one heavy atom of mass 1 - r_tau (tau = first index past
    10 with r_tau < 0.9), a block of equal atoms below 1/(t+1)^2 carrying mass
    r_{t-1} - r_t for each tau < t <= T, and a final fine block carrying
    r_T.  Atom doubling is then applied until E[U_t] > r_t holds for every
    t on the horizon, at most MAX_DOUBLINGS times; each doubling strictly
    raises E[U_t] at every t, so the smallest sufficient count is the first
    one that passes.  Each count is checked by ``_dominated``, which gives
    the verdict of the T per-t comparisons from a few dozen kernel sums (35
    over all counts at T = 200 on inverse-log targets, 83 at T = 10^6).  A
    doubling that would halve the smallest mass to 0 (a final block of
    2^-1074, from targets deep in the subnormal range) raises
    ConstructionFailedError instead.

    Returns a run-length encoded distribution: doubling multiplies the
    support by 2 per round, so dense storage would not survive the cap.
    """
    t_max = _require_horizon(len(targets))
    r = [float(v) for v in require_reals(list(targets), "target rates")]
    if t_max < 1:
        raise InvalidInputError("target sequence must be nonempty")
    require_real(r[0], "first target", 0.0, 1.0, "()")
    require_real(r[-1], "last target", 0.0, 1.0, "()")
    rates = np.array(r)
    if not (rates[:-1] > rates[1:]).all():
        raise InvalidInputError("targets must be strictly decreasing")

    tau = next((t for t in range(11, t_max + 1) if r[t - 1] < 0.9), None)
    if tau is None:
        raise InvalidInputError(
            "horizon too short: need some t > 10 with r_t < 0.9 "
            f"(got T={t_max}, min target {r[-1]})"
        )

    # block t carries r_{t-1} - r_t in atoms below 1/(t+1)^2, tau < t <= T,
    # and the final block r_T below 1/(T+1)^2; (t+1)^2 is an exact float up
    # to MAX_HORIZON, so each count is floor(total (t+1)^2) + 1 as in scalars
    totals = np.append(rates[tau - 1:-1] - rates[tau:], r[-1])
    edges = np.append(np.arange(tau + 2, t_max + 2), t_max + 1).astype(float)
    counts = np.floor(totals * (edges * edges)).astype(np.int64) + 1
    d = BlockVector._of_runs(np.append(1.0 - r[tau - 1], totals / counts),
                             np.append(1, counts))
    for doublings in range(MAX_DOUBLINGS + 1):
        if _dominated(d, r):
            return d
        smallest = float(d.m.min())
        if not smallest / 2.0 > 0.0:
            raise ConstructionFailedError(
                f"targets not dominated after {doublings} doublings, and the atoms cannot "
                f"be halved again: the smallest mass {smallest!r} halves to 0"
            )
        d = doubling_operator(d)
    raise ConstructionFailedError(
        f"targets not dominated within {MAX_DOUBLINGS} doublings"
    )


def _dominated(d: BlockVector, r: list[float]) -> bool:
    """all(expected_missing_mass(d, t) > r[t - 1] for t in 1..T), T = len(r),
    for strictly decreasing r, from one kernel sum per interval it visits.

    Monotonicity.  Let S_t = sum_i c_i m_i (1 - m_i)^t be the exact sum over
    d's stored runs (n of them) and F_t = expected_missing_mass(d, t) its
    float.  S_t is non-increasing in t, as each (1 - m_i)^t is, and r is
    strictly decreasing, so a lower bound on S_b that exceeds r_a covers
    every t in [a, b].  The interval [a, b] is checked from F_b alone: it
    passes when F_b > r_a (1 + 2^-37) + 4A, fails at a = b when it fails
    the very comparison F_a > r_a, and is split in two otherwise.  The right
    half keeps F_b, so each split costs one kernel sum, at its midpoint;
    the stack holds at most log2 T + 1 intervals.

    Rounding radius.  With u = 2^-53, every F_t is within rho S_t + A of
    S_t, rho = 2^-41 and A = (n + 1) 2^-1063, by numerics' stated bounds:
    the compensated power is within 1.14 ulps below the switch; the
    log-space power within 1.5 (|x| + 1) ulps, x = t log1p(-m), a bound
    that grows with t, but a power in the normal range has |x| < 709, so it
    is within 1065 ulps at every t, and one with |x| > 746 is below 2^-1076;
    c as a float, c m, its product with the power and exact_sum's correctly
    rounded total add at most four roundings.  An ulp is at most 2u times
    the value, so a normal term is off by less than 2135 u < rho, relative;
    a term rounded in the subnormal range is off by at most 1124 2^-1074 <
    2^-1063 more, and the sum by 2^-1075.  Then for t in [a, b]:

        F_t >= (1 - rho) S_t - A >= (1 - rho) S_b - A
            >= (1 - rho)(F_b - A)/(1 + rho) - A >= (1 - 2 rho) F_b - 2A,

    which exceeds r_a >= r_t once F_b > (r_a + 2A)(1 + 2^-39).  The float
    test r_a (1 + 2^-37) + 4A, rounded twice, stays above that: the extra
    2^-38 relative and 2A absolute cover the two roundings, also of a
    subnormal r_a, where a relative slack alone would round away.  So an
    accepted interval holds every per-t comparison, a failed singleton is
    a failed comparison, and the verdict is the per-t scan's.
    """
    floor = math.ldexp(len(d.m) + 1, -1061)  # 4A, exact
    stack = [(1, len(r), expected_missing_mass(d, len(r)))]
    while stack:
        a, b, f_b = stack.pop()
        r_a = r[a - 1]
        if f_b > r_a * _ACCEPT_SLACK + floor:
            continue
        if a == b:
            if f_b > r_a:
                continue
            return False
        mid = (a + b) // 2
        stack.append((mid + 1, b, f_b))
        stack.append((a, mid, expected_missing_mass(d, mid)))
    return True
