"""Floating-point helpers: the shared power-evaluation policy.

Powers of the form (1-p)^t underflow or lose accuracy when evaluated naively
for large t or tiny p.  Both failure modes are avoided by switching to
exp(t*log(1-p)) past a fixed threshold; below it the direct power is at least
as accurate.  Every module evaluates its power factors through these helpers
(scalar, or elementwise over an array of masses) so the policy lives in one
place.
"""

import math

import numpy as np

# Direct powers stay accurate for moderate exponents; log-space takes over
# past this, or whenever the base is within 1e-8 of 1.
POW_EXPONENT_SWITCH = 64
POW_TINY_MASS = 1e-8


def pow_one_minus(p: float, t: int | float) -> float:
    """(1 - p)^t for p in [0, 1], safe for large t and tiny p."""
    if t == 0:
        return 1.0
    if p >= 1.0:
        return 0.0
    if p <= 0.0:
        return 1.0
    if t >= POW_EXPONENT_SWITCH or p < POW_TINY_MASS:
        return math.exp(t * math.log1p(-p))
    return (1.0 - p) ** t


def pow_unit(b: float, t: int | float) -> float:
    """b^t for a base b in [0, 1]; underflow rounds to 0 rather than raising."""
    if t == 0:
        return 1.0
    if b <= 0.0:
        return 0.0
    if b >= 1.0:
        return 1.0
    if t >= POW_EXPONENT_SWITCH:
        if b > 0.5:
            # b - 1 is exact here (Sterbenz), so log1p keeps full precision
            return math.exp(t * math.log1p(b - 1.0))
        return math.exp(t * math.log(b))
    return b ** t


def pow_one_minus_array(p: np.ndarray, t: int | float) -> np.ndarray:
    """Elementwise pow_one_minus for masses p in (0, 1], by the same policy."""
    if t == 0:
        return np.ones_like(p)
    if t >= POW_EXPONENT_SWITCH:
        return _exp_log1p(p, t)
    out = (1.0 - p) ** t
    tiny = p < POW_TINY_MASS
    if np.count_nonzero(tiny):
        out[tiny] = _exp_log1p(p[tiny], t)
    return out


def _exp_log1p(p: np.ndarray, t: int | float) -> np.ndarray:
    """exp(t log1p(-p)); an atom of mass 1 gives exp(-inf) = 0, with no warning."""
    with np.errstate(divide="ignore"):
        return np.exp(t * np.log1p(-p))
