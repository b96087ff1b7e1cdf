"""Floating-point helpers: the shared power-evaluation policy, the cached
kernel terms of one distribution, and the cap on the temporaries of sliced
array evaluations.

Powers.  One elementwise rule decides every power (1-p)^t and b^t: its
exponent alone.  From t = POW_EXPONENT_SWITCH on, a power is taken in log
space, exp(t*log1p(-p)) or exp(t*log b).  The switch trades accuracy for
speed.  exp turns the rounding of the exponent x = t*log into about |x|
ulps: against 60-digit references on 4,500 seeded bases at t from 64 to
10^9, the log-space powers were off by up to about 900 ulps, within
1.5 (|x| + 1) ulps, where the compensated (1-p)^t below stayed within 1.14
ulps up to t = 10^7 (13.8 at 10^9, its t^2 u^2 term) and the direct b^t
within 0.69.  But on 10^4 atoms the compensated power costs 2.9 to 4.6
times the log-space one (t = 64 to 10^5), and one compensated path for
every t raised the closed-form benchmark's wall time from 0.338 s to
0.426 s (seed 1, one pair, a 2-vCPU Xeon).  Below the switch b^t is the
direct power, on numpy's array loop for scalars too, and (1-p)^t is
Graillat's compensated power ("Accurate floating-point product and
exponentiation", IEEE Trans. Computers 58(7), 2009), with u = 2^-53:

1. Split.  hi = fl(1 - p) and lo = (1 - hi) - p give 1 - p = hi + lo
   exactly (Dekker's Fast2Sum, as 1 >= p), with |lo| <= u hi.  For p >= 1/2,
   1 - p is a float (Sterbenz), so lo = 0; r = lo / max(hi, 1/2) is then
   lo/hi, rounded once, for every p in [0, 1], and 0, not 0/0, at p = 1.
2. Correct.  (1-p)^t = hi^t (1 + lo/hi)^t = P (1 + t r) + O(t^2 u^2) with
   P = hi^t, so the power is P + P (t r): the error of P (under 1 ulp where
   the platform's pow is) plus the final rounding (1/2 ulp) plus terms of
   order t u^2.  The direct power of fl(1 - p) would carry up to about t/2
   ulps instead; against 60-digit references the compensated form stays
   within about 1.1 ulps at every t below the switch.  For p < 2^-54, hi = 1
   and the form is 1 - t p, so tiny masses need no rule of their own.

So a power depends on its own base and exponent only, whatever its
neighbours and whether it comes alone:

* ``pow_one_minus`` and ``pow_unit`` take arrays or scalars of bases and
  exponents (the extremal solvers, the eps-ball masses, the scalar kernel);
* ``KernelTerms`` takes one distribution's sorted masses and a scalar
  exponent (every closed form in ``mass``) and gives pow_one_minus's values
  bit for bit, as both take the same split and the same compensated step.
  What depends only on the distribution (its weights c m^k, the split hi
  and r, and log1p(-m)) is built on first use and cached per distribution,
  by ``_Runs.kernel_terms``.

Sums.  Every sum the package reports as one number (the closed forms, the
bands, the eps-missing masses, a Monte Carlo mean and variance, the mass
totals) goes through ``exact_sum``, which returns the correctly rounded sum
of its floats, as math.fsum does (Shewchuk, "Adaptive precision
floating-point arithmetic", DCG 18, 1997), so a sum depends neither on the
order nor on the number of its terms.  From EXACT_SUM_MIN terms on it avoids
fsum's per-term Python loop by Rump, Ogita & Oishi's error-free vector
extraction ("Accurate floating-point summation part I: faithful rounding",
SIAM J. Sci. Comput. 31(1), 2008), and it returns its own value only where a
filter proves it equal to fsum's.  With u = 2^-53, n terms x_i and
2^m >= n + 2:

1. Extraction.  Take sigma = 2^e with |x_i| < 2^-m sigma, q_i = (sigma +
   x_i) - sigma and p_i = x_i - q_i in floats.  sigma + x_i lies within
   sigma (1 +- 2^-m), so it rounds to a float of [sigma/2, 2 sigma], whose
   spacing is u sigma or 2u sigma; the subtraction of sigma is then exact
   (Sterbenz), q_i is a multiple of u sigma with |q_i| <= 2^-m sigma (both
   sigma +- 2^-m sigma are floats), and p_i is the rounding error of sigma +
   x_i, a float with |p_i| <= u sigma and x_i = q_i + p_i exactly.
2. Exactness of sum(q).  Every partial sum of the q_i, in any order, is a
   multiple of u sigma below n 2^-m sigma < sigma in magnitude, so it needs
   at most 53 bits: np.sum adds them exactly whatever its order.
3. The second extraction runs on the p_i with sigma' = 2^m u sigma, for
   which |p_i| <= 2^-m sigma' holds, leaving p'_i with |p'_i| <= u sigma'.
   So the exact sum is hi + lo + sum(p'), with hi and lo the two exact
   extracted sums, and rest = np.sum(p') is off by at most gamma_(n-1)
   sum|p'_i| <= (2nu)(n u sigma') < 2^(2m-105) sigma' =: B (Higham,
   "Accuracy and Stability of Numerical Algorithms", 2nd ed., sec. 4.2; the
   bound holds for every order of addition, and gradual underflow keeps it,
   since a sum that lands below the normal range is exact).
4. Rounding.  Knuth's TwoSum gives h + l = hi + lo, c + dc = l + rest and
   r + d = h + c, each exactly, so the exact sum is r + d + dc + delta with
   |delta| <= B.  If |d| + |dc| + B < g/2, where g is the gap from |r| down
   to the next float toward zero, the exact sum lies strictly nearer to r
   than to either neighbour of r, since the spacing above |r| is g or 2g;
   r is then the correctly rounded sum, which fsum returns too.  Measuring
   g below |r| covers the binade edge, where |r| is a power of two and the
   spacing below it is half the spacing above.  The test is made in
   floats as fl(|d| + 2 fl(|dc| + B)) < fl(g/2): doubling covers the one
   rounding of |dc| + B, a float sum below the float g/2 means an exact sum
   below it (rounding is monotone), and fl(g/2) is exact or, at g =
   2^-1074, 0.
5. Otherwise, near a tie or under deep cancellation, and for r = 0 (fsum's
   sign of zero), non-finite terms (fsum's inf, nan and ValueError), and
   sigma outside 2^-900..2^1021 (fsum's OverflowError; B and the grids
   stay exact floats inside), the sum is math.fsum's.
"""

import math

import numpy as np

# Every power takes log space from this exponent on, and one of the direct
# powers (compensated for (1-p)^t, within about 1 ulp) below it; see the
# module docstring.  The switch is for speed, not accuracy: the log-space
# power is off by up to 1.5 (|t log| + 1) ulps, where the compensated one
# stays within about 1 ulp, but it costs a third to a fifth as much.
POW_EXPONENT_SWITCH = 64

# Cap on the bytes of one temporary array in a sliced evaluation (the
# extremal scan over t, the simplex grid oracle, the eps-ball sums and
# gathers, the Monte Carlo blocks); slicing never changes a value.
SLICE_BYTES = 1 << 19


def rows_per_slice(row_bytes: int) -> int:
    """Rows of row_bytes bytes per slice: as many as fit in SLICE_BYTES, at
    least one."""
    return max(1, SLICE_BYTES // row_bytes)


def pow_one_minus(p, t):
    """(1 - p)^t elementwise for p in [0, 1] and t >= 0, safe for large t and tiny p."""
    p = np.asarray(p, dtype=float)
    return _by_policy(np.asarray(t >= POW_EXPONENT_SWITCH), p, t,
                      lambda p, t: np.exp(t * np.log1p(-p)),
                      lambda p, t: _compensated(*_split_one_minus(p), t))


def _split_one_minus(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, r) with hi = fl(1 - p) and r = lo/hi rounded, 1 - p = hi + lo
    exactly (Fast2Sum); r = 0 for p >= 1/2, where lo is 0."""
    hi = 1.0 - p
    r = 1.0 - hi
    r -= p
    r /= np.maximum(hi, 0.5)
    return hi, r


def _compensated(hi, r, t):
    """(hi + hi r)^t as P + P (t r), P = hi^t: (1 - p)^t below the switch."""
    P = _direct(hi, t)
    out = r * t
    out *= P
    out += P
    return out


class KernelTerms:
    """The terms c m^k (1 - m)^e, k in {1, 2}, of one run-length distribution
    (masses m sorted ascending, counts c; both read-only) for a scalar
    exponent e >= 0, with pow_one_minus's powers.

    Each ingredient is built the first time a branch needs it and then kept,
    so a distribution evaluated once pays only for its own branch.
    """

    __slots__ = ("m", "c", "_w1", "_w2", "_split", "_log")

    def __init__(self, m: np.ndarray, c: np.ndarray):
        self.m, self.c = m, c
        self._w1 = self._w2 = self._split = self._log = None

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
            log = self._log  # the slot, not the property: this runs for every closed form
            return np.exp(e * (self.log if log is None else log))
        split = self._split  # (hi, r) of 1 - m
        if split is None:
            split = self._split = _split_one_minus(self.m)
        return _compensated(*split, e)

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
    if isinstance(t, np.ndarray) and t.ndim and (two := t == 2).any():
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


# Below this many terms exact_sum hands the whole sum to math.fsum, which is
# then about as fast or faster.  On a 2-vCPU x86-64 VM (Python 3.11, numpy
# 2.4) fsum takes about 21 ns per term and the extraction about 7-8 us up to
# 500 terms; they cross between 350 and 550 terms as the machine's speed
# varies, and at 10^4 terms they take 274 and 25 us.
EXACT_SUM_MIN = 512


def exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float array x: math.fsum(x.tolist())
    bit for bit, with fsum's special values and errors.

    From EXACT_SUM_MIN terms on it takes two error-free extractions and one
    filtered rounding (see the module docstring) instead of fsum's Python
    loop over the terms, and falls back to fsum when the filter cannot
    certify the result.
    """
    n = x.size  # first, so a short sum pays nothing for the test
    if n < EXACT_SUM_MIN:
        return math.fsum(x.tolist())
    top = max(float(x.max()), -float(x.min()))
    m = (n + 1).bit_length()  # 2^m >= n + 2
    e = math.frexp(top)[1] + m  # |x_i| < 2^(e - m)
    # past these exponents a step could overflow, or the bound below underflow
    if not (math.isfinite(top) and -900 <= e <= 1021):
        return math.fsum(x.tolist())
    sigma = math.ldexp(1.0, e)
    q = x + sigma
    q -= sigma
    p = x - q
    hi = float(q.sum())
    sigma = math.ldexp(1.0, e + m - 53)  # 2^m u 2^e, and |p_i| <= u 2^e
    np.add(p, sigma, out=q)
    q -= sigma
    p -= q
    lo = float(q.sum())
    rest = float(p.sum())
    h = hi + lo
    l = _two_sum_err(hi, lo, h)
    c = l + rest
    r = h + c
    a = abs(r)
    # the exact sum is r + (h + c - r) + (l + rest - c) + (sum(p) - rest),
    # and the rounding of rest is at most 2 n u (n u sigma) < 2^(2m - 105) sigma
    err = abs(_two_sum_err(h, c, r)) + 2.0 * (abs(_two_sum_err(l, rest, c))
                                              + math.ldexp(1.0, e + 3 * m - 158))
    if a and err < 0.5 * (a - math.nextafter(a, 0.0)):
        return r
    return math.fsum(x.tolist())


def _two_sum_err(a: float, b: float, s: float) -> float:
    """(a + b) - s exactly, for s = fl(a + b) (Knuth's TwoSum)."""
    bb = s - a
    return (a - (s - bb)) + (b - bb)
