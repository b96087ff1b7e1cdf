"""Floating-point helpers: the shared power-evaluation policy, the cached
kernel terms of one distribution, and the cap on the slice buffers of sliced
array evaluations, which each call allocates once.

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

One routine takes each side of the switch, whatever the shape of the
call: ``_compensated`` every power below it (step 2, or with no r the
direct b^t), squaring every exponent of 2, and ``_exp_times`` every power
from it on.  So a power depends on its own base and exponent only, whatever
its neighbours and whether it comes alone.  The callers only pick the side:

* ``pow_one_minus(p, t)`` and ``pow_unit(b, t)`` take arrays or scalars of
  bases and exponents and return a new array or numpy scalar.
  ``_by_policy`` picks the side of a scalar exponent with one comparison.
  An array of exponents takes both routines on every element and keeps
  each element's own side, one ``np.where``, so each element is the power
  of its own base and exponent by its own side's routine.  Every
  call in the package has one exponent: the extremal solver's scan, Newton
  steps and values at its one t, the eps-ball masses and the scalar kernel;
  only the tests and the values audit pass arrays of exponents;
* ``KernelTerms`` takes one distribution's sorted masses and one exponent
  (every closed form in ``mass``), or a block of up to 512 exponents on one
  side of the switch (a t-grid, or a scan), laid out by its shape: one
  (runs, exponents) array, the exponents contiguous, where it has fewer
  runs than exponents, one (exponents, runs) array otherwise, so numpy's
  loops run along the longer side.  A scan's blocks are aligned, and one
  that straddles the switch is cut there into two.  What
  depends only on the distribution (its weights c m^k, the split hi and r,
  and log1p(-m)) is built on first use and cached per distribution, by
  ``_Runs.kernel_terms``.  That the 2-D exp and pow loops round each cell
  as the 1-D loops do is an observed fact of numpy's builds, which the
  tests check, not a theorem.

Sums.  Every sum the package reports as one number (the closed forms, the
bands, the eps-missing masses, a Monte Carlo mean and variance, the mass
totals) goes through ``exact_sum``, which returns the correctly rounded sum
of its floats, as math.fsum does (Shewchuk, "Adaptive precision
floating-point arithmetic", DCG 18, 1997), so a sum depends neither on the
order nor on the number of its terms.  From EXACT_SUM_MIN terms on it avoids
fsum's per-term Python loop by Rump, Ogita & Oishi's error-free vector
extraction ("Accurate floating-point summation part I: faithful rounding",
SIAM J. Sci. Comput. 31(1), 2008), and, as their AccSum does, it stops at
the first level whose error bound certifies the result: it returns its own
value only where a filter proves it equal to fsum's.  With u = 2^-53, n
terms x_i and 2^m >= n + 2:

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
3. Level 1.  So the exact sum is hi + sum(p), with hi the exact sum of the
   q_i, and rest = np.sum(p) is off by at most gamma_(n-1) sum|p_i| <=
   (2nu)(n u sigma) < 2^(2m-105) sigma = 2^(e+2m-105) =: B1 (Higham,
   "Accuracy and Stability of Numerical Algorithms", 2nd ed., sec. 4.2; the
   bound holds for every order of addition, and gradual underflow keeps it,
   since a sum that lands below the normal range is exact).  TwoSum (Knuth)
   gives r + d = hi + rest exactly, so the exact sum is r + d + delta with
   |delta| <= B1.  If |d| + B1 < g/2, where g is the gap from |r| down to
   the next float toward zero, the exact sum lies strictly nearer to r than
   to either neighbour of r, since the spacing above |r| is g or 2g; r is
   then the correctly rounded sum, which fsum returns too.  Measuring g
   below |r| covers the binade edge, where |r| is a power of two and the
   spacing below it is half the spacing above.  The test is made in floats
   as fl(|d| + 2 B1) < fl(g/2), with 2 B1 = 2^(e+2m-104) a float: a float
   sum below the float g/2 means an exact sum below it (rounding is
   monotone), and fl(g/2) is exact or, at g = 2^-1074, 0.  On
   nonnegative terms the sum is at least the largest term, so 2 B1 is at
   most 2^(3m-51) of its ulp (2^-9 at n = 10^4), and only a sum whose d
   lies that close to g/2 in magnitude fails: this level certifies nearly
   every closed form.
4. Level 2, for the sums level 1 cannot certify.  The second extraction
   runs on the same remainders p_i with sigma' = 2^m u sigma, for which
   |p_i| <= 2^-m sigma' holds, leaving p'_i with |p'_i| <= u sigma'.  So the
   exact sum is hi + lo + sum(p'), with lo the exact sum of the second
   q's, and rest' = np.sum(p') is off by at most 2^(2m-105) sigma' =
   2^(e+3m-158) =: B, as in step 3.  TwoSum gives h + l = hi + lo, c + dc
   = l + rest' and r + d = h + c, each exactly, so the exact sum is r + d +
   dc + delta with |delta| <= B, and r is certified, as in step 3, where
   fl(|d| + 2 fl(|dc| + B)) < fl(g/2): doubling covers the one rounding of
   |dc| + B.
5. Otherwise, near a tie or under deep cancellation, and for r = 0 (fsum's
   sign of zero), non-finite terms (fsum's inf, nan and ValueError), and
   sigma outside 2^-900..2^1021 (fsum's OverflowError; B, B1 and the grids
   stay exact floats inside), the sum is math.fsum's.  exact_sum sends
   terms that are all zero (top = 0), whose r would be 0, and the last
   three cases to fsum at once, before any extraction.

So a sum leaves ``exact_sum`` by the first exit that holds, in this
order: the level-1 filter, the level-2 filter, fsum.  Each exit returns the
correctly rounded sum, so which one a sum takes never changes a bit.
``_extract`` takes either extraction, ``_rounded1`` and ``_rounded`` the
rounding of each level.

``exact_row_sums`` is the 2-D form, for the blocks of KernelTerms: it takes
steps 1 to 3 for all rows of a 2-D array at once, or for all its columns,
each sum with its own sigma (broadcast along the summed axis) and filter,
and hands each sum that filter does not certify (zero, non-finite and
out-of-range sums among them) to exact_sum, with its own row or column,
which climbs the ladder above from level 1.  Sums shorter than
EXACT_SUM_MIN, which exact_sum would send to fsum at once, go to fsum
directly, with no call of exact_sum per sum.  So level 2 runs only inside
exact_sum, and each sum is exact_sum's of its row or column.  The proof
above holds for every order of addition, so summing down the columns
changes no bit.
Below EXACT_ROWS_MIN cells it hands each sum to math.fsum instead.
"""

import math

import numpy as np


# Every power takes log space from this exponent on, and one of the direct
# powers (compensated for (1-p)^t, within about 1 ulp) below it; see the
# module docstring.  The switch is for speed, not accuracy: the log-space
# power is off by up to 1.5 (|t log| + 1) ulps, where the compensated one
# stays within about 1 ulp, but it costs a third to a fifth as much.
POW_EXPONENT_SWITCH = 64

# Cap on the bytes of one slice buffer in a sliced evaluation (the simplex
# grid oracle, the distance matrix, the eps-ball sums and gathers, the Monte
# Carlo blocks, the blocks of KernelTerms); slicing never changes a value.
# Each call allocates its slice buffers once and reuses them for every
# slice: a fresh buffer of this size per slice is mapped and faulted in anew
# whenever the allocator has returned the last one to the system.
SLICE_BYTES = 1 << 19


def rows_per_slice(row_bytes: int) -> int:
    """Rows of row_bytes bytes per slice: as many as fit in SLICE_BYTES, at
    least one."""
    return max(1, SLICE_BYTES // row_bytes)


def pow_one_minus(p, t):
    """(1 - p)^t elementwise for p in [0, 1] and t >= 0, safe for large t and tiny p."""
    return _by_policy(np.asarray(p, dtype=float), t, _log_one_minus, _split_one_minus)


def pow_unit(b, t):
    """b^t elementwise for b in [0, 1] and t >= 0; underflow rounds to 0."""
    return _by_policy(np.asarray(b, dtype=float), t, np.log, lambda b: (b, None))


def _log_one_minus(p):
    """log1p(-p)."""
    return np.log1p(-p)


def _split_one_minus(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, r) with hi = fl(1 - p) and r = lo/hi rounded, 1 - p = hi + lo
    exactly (Fast2Sum); r = 0 for p >= 1/2, where lo is 0."""
    hi = 1.0 - p
    r = 1.0 - hi
    r -= p
    r /= np.maximum(hi, 0.5)
    return hi, r


def _by_policy(x, t, log, split):
    """x's power t elementwise: _exp_times(log(x), t) where t >= the switch
    and _compensated(*split(x), t) elsewhere.  A scalar exponent picks its
    side with one comparison.  An array of them takes both routines on every
    element and selects each element's own side.  The discarded log side
    takes 0 * -inf = nan at t = 0 on a zero base (b = 0, or p = 1), which
    the selected side never does, so that does not warn, nor the log of 0."""
    above = t >= POW_EXPONENT_SWITCH
    if isinstance(above, np.ndarray):  # an array of exponents
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(above, _exp_times(log(x), t), _compensated(*split(x), t))
    if not above:
        return _compensated(*split(x), t)
    with np.errstate(divide="ignore"):
        return _exp_times(log(x), t)


def _compensated(hi, r, t, out=None, tmp=None):
    """hi^t (1 + t r) as P + P (t r), P = hi^t, into out when it is given,
    with tmp (of out's shape) for P (t r); with r = None, P itself.  Every
    exponent equal to 2 squares, scalar or array: numpy's pow need not."""
    P = np.power(hi, t, out=out)
    two = t == 2.0
    if isinstance(two, np.ndarray):  # an array of exponents
        if two.any():
            np.multiply(hi, hi, out=P, where=two)
    elif two:
        P = np.multiply(hi, hi, out=out)
    if r is not None:
        tmp = np.multiply(r, t, out=tmp)
        tmp *= P
        P += tmp  # a numpy scalar, for 0-d inputs, is rebound instead
    return P


def _exp_times(log, t, out=None):
    """exp(t log), into out when it is given: a power from the switch on."""
    v = np.multiply(t, log, out=out)
    return np.exp(v, out=v if isinstance(v, np.ndarray) else None)


class KernelTerms:
    """The terms c m^k (1 - m)^e, k in {1, 2}, of one run-length distribution
    (masses m sorted ascending, counts c; both read-only) for a scalar
    exponent e >= 0, with pow_one_minus's powers (the same two routines,
    for one exponent or a block), and their exact sums.

    Each ingredient is built the first time a branch needs it and then kept,
    so a distribution evaluated once pays only for its own branch.

    ``totals`` sums the terms of many exponents in blocks of at most
    ``width`` exponents, all on one side of POW_EXPONENT_SWITCH, each one
    array of terms laid out by its shape: a block with fewer runs than
    exponents is one (runs, exponents) array, the exponents contiguous,
    summed column by column, and any other block one (exponents, runs)
    array, summed row by row, both by exact_row_sums.  So every numpy call
    on a block runs along its longer side.  ``total`` serves one exponent.
    It keeps, per k, the last block it evaluated, and reads any request
    inside it from it, first and with no other bookkeeping, so a scan's
    step, forward or backward, is one lookup.  It evaluates a block when a
    request for e lies just past the kept block's end or follows requests
    for e - 2 and e - 1 (a scan over consecutive exponents): the aligned
    block of width exponents that holds e, which totals cuts at the switch
    where it straddles it.  Any other request takes the one-exponent path.
    A block's sums are the correctly rounded sums of the same terms, so
    both paths give the same bits.
    """

    __slots__ = ("m", "c", "_w1", "_w2", "_split", "_log", "_kept", "_seen")

    def __init__(self, m: np.ndarray, c: np.ndarray):
        self.m, self.c = m, c
        self._w1 = self._w2 = self._split = self._log = None
        # indexed by k (1 or 2; entry 0 unused): the last block's (first
        # exponent, stop, sums), and the last two exponents asked for
        self._kept = [None, (-1, -1, ()), (-1, -1, ())]
        self._seen = [None, (None, None), (None, None)]

    @property
    def width(self) -> int:
        """Exponents per block: the largest power of two up to 512 whose
        block of cells fits in SLICE_BYTES (at least one exponent)."""
        return 1 << min(9, rows_per_slice(8 * self.m.size).bit_length() - 1)

    def __call__(self, e: int, k: int = 1) -> np.ndarray:
        return self.weights(k) * self.powers(e)

    def weights(self, k: int) -> np.ndarray:
        """c m^k."""
        if k == 1:
            if self._w1 is None:
                self._w1 = self.c * self.m
            return self._w1
        if self._w2 is None:
            self._w2 = self.c * self.m * self.m
        return self._w2

    def powers(self, e: int) -> np.ndarray:
        """(1 - m)^e."""
        # numpy converts a Python int e to this float too, but more slowly
        x = float(e)
        if e >= POW_EXPONENT_SWITCH:
            log = self._log  # the slot, not the property: this runs for every closed form
            return _exp_times(self.log if log is None else log, x)
        return _compensated(*(self._split or self.split), x)

    @property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """(hi, r) of 1 - m, as _split_one_minus gives them."""
        if self._split is None:
            self._split = _split_one_minus(self.m)
        return self._split

    @property
    def log(self) -> np.ndarray:
        """log1p(-m); a mass of 1 gives -inf, and its power exp(-inf) = 0."""
        if self._log is None:
            with np.errstate(divide="ignore"):
                self._log = _log_one_minus(self.m)
        return self._log

    def total(self, e: int, k: int = 1) -> float:
        """exact_sum(self(e, k)), the sum behind every closed form in
        ``mass``, correctly rounded whatever the number or order of its terms
        (pairwise summation would carry an O(eps log n) bound instead:
        Higham, SIAM J. Sci. Comput. 14(4), 1993).  A request for e inside
        the block kept for k reads it from there; one just past that block's
        end, or one after e - 2 and e - 1, reads it from a new aligned block
        of width exponents (up to 512, on both sides of the switch if it
        straddles it), and width is taken only then: the same sum of the
        same terms, so a scan gives the bits of isolated calls."""
        start, stop, sums = self._kept[k]
        if start <= e < stop:  # a step of a scan, inside its block
            return sums[e - start]
        seen = self._seen
        last, before = seen[k]
        seen[k] = e, last
        if e == stop or (last == e - 1 and before == e - 2):
            width = self.width
            if width > 1:  # the aligned block that holds e
                start = e - e % width
                sums = self.totals(range(start, start + width), k)
                self._kept[k] = start, start + width, sums
                return sums[e - start]
        w = self._w1 if k == 1 else self._w2  # self(e, k) in fewer calls
        return exact_sum((self.weights(k) if w is None else w) * self.powers(e))

    def totals(self, es, k: int = 1) -> list[float]:
        """[exact_sum(self(e, k)) for e in es], bit for bit, in blocks of up
        to width consecutive entries of es on one side of the switch, each
        laid out by its shape (see the class docstring), through three
        buffers of width x runs cells allocated once per call: the terms,
        and the first extraction's q and p."""
        e = np.array(es, dtype=float)  # each exponent rounded as powers rounds it
        rows = min(self.width, e.size) or 1
        runs = self.m.size
        buffers = np.empty((3, rows * runs))
        w = self.weights(k)
        side = e >= POW_EXPONENT_SWITCH
        cuts = [0, *(np.flatnonzero(side[1:] != side[:-1]) + 1).tolist(), e.size]
        sums = []
        for start, stop in zip(cuts, cuts[1:]):
            for i in range(start, stop, rows):
                t = e[i:min(i + rows, stop)]
                n = t.size
                # `at` indexes an array over the runs against the exponents
                if runs < n:  # the exponents contiguous: one column per exponent
                    at, axis, shape = (slice(None), None), 0, (runs, n)
                else:  # one row per exponent
                    at, axis, shape, t = slice(None), 1, (n, runs), t[:, None]
                x = buffers[:, :n * runs].reshape(3, *shape)  # the terms, and the sums' work
                if side[i]:
                    _exp_times(self.log[at], t, x[0])
                else:
                    hi, r = self.split
                    _compensated(hi[at], r[at], t, x[0], x[1])
                x[0] *= w[at]
                sums += exact_row_sums(x[0], x[1:], axis)
        return sums


# Below this many terms exact_sum hands the whole sum to math.fsum, which is
# then about as fast or faster.  On a 2-vCPU x86-64 VM (Python 3.11, numpy
# 2.4) fsum takes 21-30 ns per term as the machine's speed varies, and one
# extraction with its filter about 7.5 us up to 450 terms: they cross
# between about 250 and 360 terms, and at 10^4 terms they take 457 and
# 22 us.  A power of two, so that pairs [1, 2^-53] of EXACT_SUM_MIN terms
# sum to a tie, which the tests use.
EXACT_SUM_MIN = 256


# Below this many cells exact_row_sums hands each row or column to
# math.fsum.  Taken for all sums at once, one extraction and its filter cost
# 25-40 us from 4 to 448 sums (on the machine above), where one tolist and
# fsum over each sum take about 35-70 ns a cell, the more the shorter the
# sums: on blocks of kernel terms they cross between 700 and 1000 cells
# (columns of 64 and 448 exponents, rows of 4 and 64).
EXACT_ROWS_MIN = 1024


def exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float array x: math.fsum(x.tolist())
    bit for bit, with fsum's special values and errors.

    From EXACT_SUM_MIN terms on it takes one error-free extraction and the
    level-1 filter, a second extraction from the same remainders and the
    level-2 filter only where the first cannot certify the result, and
    fsum only where neither can (see the module docstring), instead of
    fsum's Python loop over the terms.  Terms that are all zero, non-finite
    or out of the extraction's range go to fsum at once.
    """
    n = x.size  # first, so a short sum pays nothing for the test
    if n < EXACT_SUM_MIN:
        return math.fsum(x.tolist())
    top = max(float(x.max()), -float(x.min()))
    m = (n + 1).bit_length()  # 2^m >= n + 2
    e = math.frexp(top)[1] + m  # |x_i| < 2^(e - m)
    # all zeros take fsum's sign of zero; past these exponents a step could
    # overflow, or the bounds below underflow
    if not (top and math.isfinite(top) and -900 <= e <= 1021):
        return math.fsum(x.tolist())
    work = np.empty((2, n))
    hi, rest = _extract(x, math.ldexp(1.0, e), work, 0).tolist()
    r, err = _rounded1(hi, rest, math.ldexp(1.0, e + 2 * m - 104))
    a = abs(r)
    if a and err < 0.5 * (a - math.nextafter(a, 0.0)):
        return r
    lo, rest = _extract(work[1], math.ldexp(1.0, e + m - 53), work, 0).tolist()
    r, err = _rounded(hi, lo, rest, math.ldexp(1.0, e + 3 * m - 158))
    a = abs(r)
    if a and err < 0.5 * (a - math.nextafter(a, 0.0)):
        return r
    return math.fsum(x.tolist())


def exact_row_sums(x: np.ndarray, work=None, axis: int = 1) -> list[float]:
    """[exact_sum(v) for v in the 1-D slices of x along axis] for a 2-D
    float array x (its rows for axis = 1, its columns for axis = 0), bit for
    bit: one extraction and the level-1 filter for every sum at once, with
    each sum's own sigma broadcast along axis, then exact_sum itself on the
    slice of each sum that filter cannot certify (every sum that exact_sum
    sends to fsum at once, all zeros, non-finite or out of range, among
    them), or math.fsum where the slices are shorter than EXACT_SUM_MIN,
    which is what exact_sum would return for them.  work, if given, is a
    float array of shape (2, *x.shape) for the extraction to write into; x
    is left as it is.
    """
    lines = x if axis else x.T  # one sum per row of lines
    if x.size < EXACT_ROWS_MIN:
        return [math.fsum(v) for v in lines.tolist()]
    if work is None:
        work = np.empty((2, *x.shape))
    top = x.max(axis=axis)
    np.maximum(top, np.negative(x.min(axis=axis)), out=top)  # nan stays nan
    m = (x.shape[axis] + 1).bit_length()
    e = np.frexp(top)[1] + m
    ok = np.isfinite(top) & (e >= -900) & (e <= 1021)
    y = x
    if not ok.all():  # such sums fall back; zeros keep the steps finite
        y, e = np.where(ok[:, None] if axis else ok, x, 0.0), np.where(ok, e, 0)
    along = (slice(None), None) if axis else slice(None)  # one per sum, broadcast along axis
    hi, rest = _extract(y, np.ldexp(1.0, e)[along], work, axis)
    r, err = _rounded1(hi, rest, np.ldexp(1.0, e + (2 * m - 104)))
    a = np.abs(r)
    certified = err < 0.5 * (a - np.nextafter(a, 0.0))  # r = 0 fails: zeros out of range
    out = r.tolist()
    left = np.flatnonzero(~certified)
    if x.shape[axis] < EXACT_SUM_MIN:  # exact_sum would take fsum at once
        for i, v in zip(left.tolist(), lines[left].tolist()):
            out[i] = math.fsum(v)
    else:
        for i in left.tolist():
            out[i] = exact_sum(lines[i])
    return out


def _extract(x, sigma, work, axis):
    """One error-free extraction (step 1 of the module docstring) along x's
    axis, with sigma = 2^e (a scalar, or one per sum, broadcast along axis),
    in work, of shape (2, *x.shape): q into work[0] and the remainders p
    into work[1] (x may be work[1] itself, as for the second extraction),
    and the exact sum of q and the float sum rest of p, as one array of
    shape (2, *x.shape without axis)."""
    q, p = work
    np.add(x, sigma, out=q)
    q -= sigma
    np.subtract(x, q, out=p)
    return work.sum(axis=axis + 1)


def _rounded1(hi, rest, bound):
    """Step 3's (r, err), floats or arrays: r = fl(hi + rest), and the exact
    sum lies within err of r, where bound = 2^(e + 2m - 104) is twice rest's
    error bound B1."""
    r = hi + rest
    return r, abs(_two_sum_err(hi, rest, r)) + bound


def _rounded(hi, lo, rest, bound):
    """Step 4's (r, err), for exact_sum's floats: r = fl(hi + lo + rest),
    and the exact sum lies within err of r, given that rest is within bound
    of its exact value, B = 2^(e + 3m - 158)."""
    h = hi + lo
    l = _two_sum_err(hi, lo, h)
    c = l + rest
    r = h + c
    # the exact sum is r + (h + c - r) + (l + rest - c) + (sum(p) - rest)
    return r, abs(_two_sum_err(h, c, r)) + 2.0 * (abs(_two_sum_err(l, rest, c)) + bound)


def _two_sum_err(a, b, s):
    """(a + b) - s exactly, for s = fl(a + b) (Knuth's TwoSum), elementwise."""
    bb = s - a
    return (a - (s - bb)) + (b - bb)
