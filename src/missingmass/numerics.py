"""Floating-point helpers: the shared power-evaluation policy, the cached
kernel terms of one distribution, and the cap on the temporaries of sliced
array evaluations.

Powers (1-p)^t and b^t underflow or lose accuracy when evaluated naively
for large t.  One elementwise rule decides every power: log space,
exp(t*log1p(-p)) or exp(t*log b), when t >= POW_EXPONENT_SWITCH, and for
(1-p)^t also when p < POW_TINY_MASS; the direct power otherwise, on numpy's
array loop for scalars too.  So a power depends on its own base and
exponent only, whatever its neighbours and whether it comes alone:

* ``pow_one_minus`` and ``pow_unit`` take arrays or scalars of bases and
  exponents (the extremal solvers, the eps-ball masses, the scalar kernel);
* ``KernelTerms`` takes one distribution's sorted masses and a scalar
  exponent (every closed form in ``mass``) and gives pow_one_minus's values
  bit for bit: all atoms past the exponent switch, else the prefix of tiny
  masses, take log space.  What depends only on the distribution (its
  weights c m^k, 1 - m, log1p(-m) and the tiny prefix) is built on first
  use and cached per distribution, by ``_Runs.kernel_terms``.
"""

import numpy as np

# Log space from this exponent on, and for (1-p)^t whenever p is below
# POW_TINY_MASS, where it keeps about 1 ulp.  Below the switch the direct
# power rounds 1 - p first, so it carries up to about t/2 ulps; past it,
# that error would keep growing with t.
POW_EXPONENT_SWITCH = 64
POW_TINY_MASS = 1e-8

# Cap on the cells of one temporary array in a sliced evaluation (the
# extremal scan over t, the rows of the eps-ball matrix, the simplex grid
# oracle); slicing never changes a value.
SLICE_CELLS = 1 << 16


def pow_one_minus(p, t):
    """(1 - p)^t elementwise for p in [0, 1] and t >= 0, safe for large t and tiny p."""
    p = np.asarray(p, dtype=float)
    log_space = np.asarray(t >= POW_EXPONENT_SWITCH)
    if not log_space.all():  # the masses matter only where some exponent is small
        log_space = log_space | (p < POW_TINY_MASS)
    return _by_policy(log_space, p, t, lambda p, t: np.exp(t * np.log1p(-p)),
                      lambda p, t: _direct(1.0 - p, t))


class KernelTerms:
    """The terms c m^k (1 - m)^e, k in {1, 2}, of one run-length distribution
    (masses m sorted ascending, counts c; both read-only) for a scalar
    exponent e >= 0, with pow_one_minus's powers.

    Each ingredient is built the first time a branch needs it and then kept,
    so a distribution evaluated once pays only for its own branch.
    """

    __slots__ = ("m", "c", "_w1", "_w2", "_q", "_log", "_tiny")

    def __init__(self, m: np.ndarray, c: np.ndarray):
        self.m, self.c = m, c
        self._w1 = self._w2 = self._q = self._log = self._tiny = None

    def __call__(self, e: int, k: int = 1) -> np.ndarray:
        if k == 1:
            w = self._w1
            if w is None:
                w = self._w1 = self.c * self.m
        else:
            w = self._w2
            if w is None:
                w = self._w2 = self.c * self.m * self.m
        return w * self.powers(e)

    def powers(self, e: int) -> np.ndarray:
        """(1 - m)^e."""
        if e >= POW_EXPONENT_SWITCH:
            return np.exp(e * self.log)
        tiny = self._tiny
        if tiny is None:  # m is sorted, so the masses below POW_TINY_MASS are a prefix
            m = self.m
            tiny = 0 if m[0] >= POW_TINY_MASS else int(np.searchsorted(m, POW_TINY_MASS))
            self._tiny = tiny
        if not tiny:
            return self.q ** e
        return np.concatenate((np.exp(e * self.log[:tiny]), self.q[tiny:] ** e))

    @property
    def q(self) -> np.ndarray:
        """1 - m."""
        if self._q is None:
            self._q = 1.0 - self.m
        return self._q

    @property
    def log(self) -> np.ndarray:
        """log1p(-m); a mass of 1 gives -inf, and its power exp(-inf) = 0."""
        if self._log is None:
            with np.errstate(divide="ignore"):
                self._log = np.log1p(-self.m)
        return self._log


def pow_unit(b, t):
    """b^t elementwise for b in [0, 1] and t >= 0; underflow rounds to 0."""
    return _by_policy(np.asarray(t >= POW_EXPONENT_SWITCH), np.asarray(b, dtype=float), t,
                      lambda b, t: np.exp(t * np.log(b)), _direct)


def _direct(b, t):
    """b ** t over an ndarray, never a numpy scalar, whose `**` rounds apart
    from the array loop; as numpy squares a scalar exponent 2 but calls pow
    for an array of them, an array squares its 2s too."""
    b = np.asarray(b)
    out = b ** t
    if np.ndim(t) and (two := t == 2).any():
        out = np.where(two, b * b, out)
    return out


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
