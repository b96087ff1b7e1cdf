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


def inverse_log_targets(t_max: int) -> list[float]:
    """The slowly vanishing target sequence r_t = 1/ln(t+2)."""
    t_max = require_int(t_max, "horizon t_max", 1)
    return [1.0 / math.log(t + 2) for t in range(1, t_max + 1)]


def geometric_targets(t_max: int) -> list[float]:
    """Rapidly vanishing targets r_t = 0.9 * 0.5^t."""
    t_max = require_int(t_max, "horizon t_max", 1)
    return [0.9 * 0.5 ** t for t in range(1, t_max + 1)]


def rate_lb(targets) -> BlockVector:
    """Distribution whose expected missing mass beats every target rate.

    ``targets`` lists real numbers r_1 > r_2 > ... > r_T in (0, 1).  The
    base layout is one heavy atom of mass 1 - r_tau (tau = first index past
    10 with r_tau < 0.9), a block of equal atoms below 1/(t+1)^2 carrying mass
    r_{t-1} - r_t for each tau < t <= T, and a final fine block carrying
    r_T.  Atom doubling is then applied until E[U_t] > r_t holds for every
    t on the horizon, at most MAX_DOUBLINGS times; each doubling strictly
    raises E[U_t] at every t, so the smallest sufficient count is found by
    direct scan.

    Returns a run-length encoded distribution: doubling multiplies the
    support by 2 per round, so dense storage would not survive the cap.
    """
    r = [float(v) for v in require_reals(list(targets), "target rates")]
    t_max = len(r)
    if t_max < 1:
        raise InvalidInputError("target sequence must be nonempty")
    require_real(r[0], "first target", 0.0, 1.0, "()")
    require_real(r[-1], "last target", 0.0, 1.0, "()")
    if not all(r[i] > r[i + 1] for i in range(t_max - 1)):
        raise InvalidInputError("targets must be strictly decreasing")

    tau = next((t for t in range(11, t_max + 1) if r[t - 1] < 0.9), None)
    if tau is None:
        raise InvalidInputError(
            "horizon too short: need some t > 10 with r_t < 0.9 "
            f"(got T={t_max}, min target {r[-1]})"
        )

    blocks: list[tuple[float, int]] = [(1.0 - r[tau - 1], 1)]
    for t in range(tau + 1, t_max + 1):
        total = r[t - 2] - r[t - 1]
        count = int(math.floor(total * (t + 1) ** 2)) + 1
        blocks.append((total / count, count))
    final_total = r[t_max - 1]
    count = int(math.floor(final_total * (t_max + 1) ** 2)) + 1
    blocks.append((final_total / count, count))

    d = BlockVector(blocks)
    for _ in range(MAX_DOUBLINGS + 1):
        if all(expected_missing_mass(d, t) > r[t - 1] for t in range(1, t_max + 1)):
            return d
        d = doubling_operator(d)
    raise ConstructionFailedError(
        f"targets not dominated within {MAX_DOUBLINGS} doublings"
    )
