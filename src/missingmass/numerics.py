"""Floating-point helpers: the shared power-evaluation policy, and the cap on
the temporaries of sliced array evaluations.

Powers of the form (1-p)^t underflow or lose accuracy when evaluated naively
for large t or tiny p.  Both failure modes are avoided by switching to
exp(t*log(1-p)) past a fixed threshold; below it the direct power is at least
as accurate.  Every module evaluates its power factors through these helpers,
elementwise over numpy arrays or scalars of bases and exponents, so the
policy lives in one place.
"""

import numpy as np

# Direct powers stay accurate for moderate exponents; log-space takes over
# past this, or whenever the base is within 1e-8 of 1.
POW_EXPONENT_SWITCH = 64
POW_TINY_MASS = 1e-8

# Cap on the cells of one temporary array in a sliced evaluation (the
# extremal scan over t, the rows of the eps-ball matrix); slicing never
# changes a value.
SLICE_CELLS = 1 << 16


def pow_one_minus(p, t):
    """(1 - p)^t elementwise for p in [0, 1] and t >= 0, safe for large t and tiny p."""
    p = np.asarray(p, dtype=float)
    log_space = np.asarray(t >= POW_EXPONENT_SWITCH)
    if not log_space.all():  # the masses matter only where some exponent is small
        log_space = log_space | (p < POW_TINY_MASS)
    return _by_policy(log_space, p, t,
                      lambda p, t: np.exp(t * np.log1p(-p)), lambda p, t: (1.0 - p) ** t)


def pow_unit(b, t):
    """b^t elementwise for b in [0, 1] and t >= 0; underflow rounds to 0."""
    b = np.asarray(b, dtype=float)
    return _by_policy(np.asarray(t >= POW_EXPONENT_SWITCH), b, t,
                      lambda b, t: np.exp(t * _log_unit(b)), lambda b, t: b ** t)


def _log_unit(b: np.ndarray) -> np.ndarray:
    """log b for b in [0, 1]; past 0.5, b - 1 is exact (Sterbenz), so log1p
    keeps full precision there."""
    return _by_policy(b <= 0.5, b, 0, lambda b, _: np.log(b), lambda b, _: np.log1p(b - 1.0))


def _by_policy(mask, x, t, when_true, when_false):
    """when_true(x, t) where mask holds and when_false(x, t) elsewhere,
    evaluating only the branches some element needs.  when_true is the
    branch that may take the log of 0: it runs with that warning off."""
    logs = np.count_nonzero(mask)
    if not logs:
        return when_false(x, t)
    with np.errstate(divide="ignore"):
        if logs == mask.size:
            return when_true(x, t)
        x, t, mask = np.broadcast_arrays(x, t, mask)
        out = np.empty(mask.shape)
        out[mask] = when_true(x[mask], t[mask])
        out[~mask] = when_false(x[~mask], t[~mask])
        return out
