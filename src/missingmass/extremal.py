"""Extremizers of the expected missing mass over the simplex.

Every local maximizer is one heavy atom plus n-1 equal light atoms, so the
whole optimization collapses to one variable: the light mass x in [0, 1/n].
The value of that family is

    bivalent_missing_mass(n, t, x)
        = (n-1) x (1-x)^t + (1 - (n-1) x) ((n-1) x)^t,

with x = 1/n recovering the uniform distribution.  Small sample counts are
won by the uniform; past an integer threshold tau(n) (strictly above n) a
strictly interior light mass wins, and its location is pinned inside
(1/(t+1), 1/t).  The solver works on one t at a time: one array pass of
the derivative over 65 points picks the cell of the maximum, and
safeguarded Newton steps on scalars refine it, every power through the
numpy routines of numerics.  tau(n) - n is floor(sqrt(2n)) or one more, so
the threshold is found by a search over the integers that decides the win
at n + isqrt(2n) and at one neighbour, and bisects only if those two do
not bracket it.  A grid oracle over the 3-atom simplex cross-checks the
one-variable reduction: it bounds each square block of its grid from above
and evaluates only the blocks whose bound is not below a value it has
computed, so it returns the exhaustive sweep's answer, bit for bit, from a
few percent of its cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ProbVector
from .errors import InvalidInputError, ThresholdNotFoundError, require_int, require_real, require_t
from .numerics import pow_one_minus, pow_unit, rows_per_slice

# Cells per sign scan of the derivative when locating the interior maximum.
CRITICAL_SCAN_POINTS = 64
_SCAN = np.arange(CRITICAL_SCAN_POINTS + 1) / CRITICAL_SCAN_POINTS
# The largest support size find_threshold takes: the largest n whose tau(n)
# has been checked against mpmath at 60 digits.  The win margins near tau
# shrink with n to a few ulps at 10^10, and at n = 10^11 the float decision
# puts tau two below mpmath's.
MAX_THRESHOLD_N = 10 ** 10
# The simplex grid oracle: square blocks of ORACLE_BLOCK x ORACLE_BLOCK
# cells, each evaluated only if its bound is not below a value already
# computed; the bound's relative and absolute margins; and the most grid
# points per axis (grid step 1e-5), past which a grid is refused.
ORACLE_BLOCK = 16
ORACLE_MARGIN_REL = 2.0 ** -40
ORACLE_MARGIN_ABS = 2.0 ** -1060
MAX_GRID_POINTS = 100_001


def _require(n, t=1, x=0.0) -> tuple[int, int]:
    """Check a support size n >= 2, a sample count t and a light mass x in
    [0, 1/n], and return n and t as ints; the defaults pass, for callers
    without a t or an x."""
    n, t = require_int(n, "support size n", 2), require_t(t)
    require_real(x, "light mass", 0.0, 1.0 / n + 1e-15)
    return n, t


def bivalent_missing_mass(n: int, t: int, x: float) -> float:
    """E[U_t] of the one-heavy/(n-1)-light distribution with light mass x."""
    _require(n, t, x)
    return float(_value(n, t, x))


def bivalent_missing_mass_prime(n: int, t: int, x: float) -> float:
    """Analytic derivative of bivalent_missing_mass in the light mass."""
    _require(n, t, x)
    return float(_prime(n, t, float(x)))


def _value(n: int, t, x):
    """bivalent_missing_mass elementwise over t and x (scalars or arrays), unchecked."""
    u = (n - 1) * x
    return u * pow_one_minus(x, t) + (1.0 - u) * pow_unit(u, t)


def _prime(n: int, t, x):
    """bivalent_missing_mass_prime elementwise over t and x (scalars or arrays), unchecked."""
    u = (n - 1) * x
    light_part = pow_one_minus(x, t - 1) * (1.0 - (t + 1) * x)
    heavy_part = pow_unit(u, t - 1) * (t - (t + 1) * u)
    return (n - 1) * (light_part + heavy_part)


def _prime_second(n: int, t, x):
    """The first and second derivatives of bivalent_missing_mass elementwise
    over t and x (scalars or arrays), unchecked; the powers (1-x)^(t-2) and
    u^(t-2) are taken once and multiplied up."""
    u, e = (n - 1) * x, t - 2
    light, heavy = pow_one_minus(x, e), pow_unit(u, e)
    prime = (n - 1) * (light * (1.0 - x) * (1.0 - (t + 1) * x)
                       + heavy * u * (t - (t + 1) * u))
    second = (n - 1) * t * (light * ((t + 1) * x - 2.0)
                            + (n - 1) * heavy * ((t - 1) - (t + 1) * u))
    return prime, second


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
        return ProbVector._of_runs([self.x_star, self.heavy], [self.n - 1, 1])

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
    the uniform distribution, with the win margin at that point, and the
    range of t searched for it, (n + 1, the search budget)."""

    n: int
    tau: int
    margin_at_tau: float
    scan_range: tuple[int, int]

    def to_json_obj(self) -> dict:
        return {"n": self.n, "tau": self.tau, "margin_at_tau": self.margin_at_tau}


def _solve(n: int, t: int) -> tuple[float, float]:
    """Best interior light mass and its value for one sample count t > n;
    the family beats the uniform where the value is > (1 - 1/n)^t.

    Interior local maxima can only live below 2/(t+1) (the derivative of the
    kernel decreases there and increases beyond).  One array pass samples
    the derivative at CRITICAL_SCAN_POINTS + 1 points across (1/(t+1),
    min(2/(t+1), 1/n)), the first of them the kernel peak (the first float
    past 1/(t+1)), and keeps the first cell where it turns from > 0 to <= 0:
    f rises up to that root, and a later root is a local minimum.  The right
    end stays a hair below 1/n, where the uniform point is a critical point
    by construction and float noise would make spurious roots.  Without such
    a cell the answer is the peak; for extreme t it mostly is, since the
    sign change sits within one float spacing of it.

    Otherwise safeguarded Newton steps on the derivative run from the cell's
    left end ("rtsafe", Numerical Recipes 9.4), on scalars, with the second
    derivative in closed form and every power through the numpy ufuncs of
    pow_one_minus and pow_unit, as for the scan.  Each step moves the end of
    the bracket on its side of the sign change; a step that would leave the
    bracket or not halve the previous step is replaced by bisection.  The
    steps stop once one is within four float spacings.  The peak stays a
    candidate: it wins where its value is strictly larger.
    """
    lo = 1.0 / (t + 1)
    peak = math.nextafter(lo, 1.0)
    end = min(lo + lo, (1.0 - 1e-9) / n)
    # a cell within a factor 2 of 1/(t+1) has an exact width, so the samples
    # stay inside it; the first one is the peak
    x = lo + (end - lo) * _SCAN
    x[0] = peak
    rising = _prime(n, t, x) > 0.0
    turn = np.flatnonzero(rising[:-1] & ~rising[1:])
    root = peak
    if turn.size and end > lo:
        a, b = x[turn[0]:turn[0] + 2].tolist()
        xk, step = a, math.inf
        while True:
            fp, fpp = _prime_second(n, t, xk)
            a, b = (xk, b) if fp > 0.0 else (a, xk)
            dx = fp / fpp  # numpy scalars: a zero fpp gives inf, as in an array
            nxt = xk - dx
            tol = 4.0 * math.ulp(xk)
            # Newton when it stays inside the bracket and halves the last step, or
            # moves less than the tolerance; bisection otherwise
            if not ((a < nxt < b and abs(dx + dx) < abs(step)) or abs(dx) <= tol):
                nxt = 0.5 * (a + b)
                dx = xk - nxt
            if abs(dx) <= tol:
                root = max(nxt, peak)
                break
            xk, step = nxt, dx
    v_root, v_peak = _value(n, t, np.array([root, peak])).tolist()
    return (peak, v_peak) if v_peak > v_root else (float(root), v_root)  # the root on ties


def maximize_missing_mass(n: int, t: int) -> ExtremalSolution:
    """Global maximizer of E[U_t] over distributions on n atoms.

    For t <= n the uniform distribution is certified optimal.  Otherwise the
    best interior light mass inside (1/(t+1), 1/t), which _solve finds for
    this one t, is compared against the uniform value; ties go to the
    uniform.
    """
    n, t = _require(n, t)
    uval = float(pow_one_minus(1.0 / n, t))
    if t > n:
        x, value = _solve(n, t)
        if value > uval:
            return ExtremalSolution(n=n, t=t, x_star=x, heavy=1.0 - (n - 1) * x,
                                    value=value, is_uniform=False)
    return ExtremalSolution(n=n, t=t, x_star=1.0 / n, heavy=1.0 / n, value=uval, is_uniform=True)


def find_threshold(n: int) -> ThresholdResult:
    """The first t at which an interior light mass strictly beats the
    uniform distribution, for 2 <= n <= MAX_THRESHOLD_N.

    A search over the integers with the invariant "lo loses, hi wins",
    from lo = n (t <= n is the certified uniform case) and hi = budget + 1
    (no win seen yet), budget = n + max(10, ceil(10 sqrt(n))).  Each probe
    solves the family at one t and compares its value with (1 - 1/n)^t.
    The first probe is t0 = n + isqrt(2n), the second its neighbour (t0 - 1
    after a win, t0 + 1 after a loss), and every later one the midpoint.
    tau(n) - n is floor(sqrt(2n)) or one more for every n checked, so two
    probes decide it, and bisection keeps the answer right where they do
    not.  That the win persists past tau is the family's behaviour, which
    the tests check against a scan of every t up to the budget.
    """
    n = _require(n)[0]
    if n > MAX_THRESHOLD_N:
        raise InvalidInputError(f"support size n={n} exceeds MAX_THRESHOLD_N={MAX_THRESHOLD_N}")
    budget = n + max(10, math.ceil(10.0 * math.sqrt(n)))
    lo, hi, margin = n, budget + 1, None
    t, first = n + math.isqrt(2 * n), True
    while hi - lo > 1:
        value, uval = _solve(n, t)[1], float(pow_one_minus(1.0 / n, t))
        win = value > uval
        if win:
            hi, margin = t, value - uval
        else:
            lo = t
        t = (t - 1 if win else t + 1) if first else (lo + hi) // 2
        first = False
    if hi > budget:
        raise ThresholdNotFoundError(n, budget)
    return ThresholdResult(n=n, tau=hi, margin_at_tau=margin, scan_range=(n + 1, budget))


def _axis_blocks(p: np.ndarray, t: int):
    """One axis of the oracle's grid in blocks of ORACLE_BLOCK points: its
    terms p (1 - p)^t and its points, each padded with 2.0 (out of the
    simplex) to whole blocks and shaped (blocks, ORACLE_BLOCK), and each
    block's largest term, smallest point and largest point."""
    term = p * (1.0 - p) ** t
    starts = np.arange(0, p.size, ORACLE_BLOCK)
    shape = (starts.size, ORACLE_BLOCK)
    padded_term, padded_p = np.zeros(shape), np.full(shape, 2.0)
    padded_term.reshape(-1)[:p.size], padded_p.reshape(-1)[:p.size] = term, p
    stats = (np.maximum.reduceat(term, starts), np.minimum.reduceat(p, starts),
             np.maximum.reduceat(p, starts))
    return padded_term, padded_p, stats


def _block_bounds(t: int, rows, cols) -> np.ndarray:
    """The oracle's bound on each block's computed cell values, from the
    (largest term, smallest point, largest point) of its row block and of
    its column block (see simplex_grid_oracle); -inf for a block with no
    cell in the simplex."""
    (top1, lo1, hi1), (top2, lo2, hi2) = ((a[:, None] for a in rows), cols)
    # each block's interval of y = 1 - p3 (p3 clipped at 0), from its
    # corners: rounding is monotone
    p3_hi = (1.0 - lo1) - lo2
    y_lo = 1.0 - np.maximum(p3_hi, 0.0)
    y_hi = 1.0 - np.maximum((1.0 - hi1) - hi2, 0.0)
    # psi at the point of the interval nearest its peak t (1 + 2^-54) / (t + 1),
    # or, where the interval meets the floats on either side of the peak,
    # the largest psi at those
    peak = t / (t + 1)
    around = np.minimum([np.nextafter(peak, 0.0), peak, np.nextafter(peak, 2.0)], 1.0)
    y = np.minimum(np.maximum(y_lo, peak), y_hi)
    psi = ((1.0 - y) + 2.0 ** -54) * y ** t
    psi_peak = (((1.0 - around) + 2.0 ** -54) * around ** t).max()
    np.maximum(psi, psi_peak, out=psi, where=(y_lo <= around[2]) & (y_hi >= around[0]))
    bound = ((top1 + top2) + psi) * (1.0 + ORACLE_MARGIN_REL) + ORACLE_MARGIN_ABS
    bound[p3_hi < -1e-12] = -math.inf
    return bound


def _grid_max(t: int, p1_vals: np.ndarray, p2_vals: np.ndarray) -> tuple[float, int, int]:
    """The largest (p1_i (1-p1_i)^t + p2_j (1-p2_j)^t) + p3 (1-p3)^t over the
    cells (i, j) of a grid, p3 = (1 - p1_i) - p2_j clipped to [0, 1] and a
    cell with p3 < -1e-12 worth -1, and its cell (i, j), the first in
    row-major order: an exhaustive sweep's answer, from the blocks whose
    bound is not below it (see simplex_grid_oracle)."""
    term1, blocks1, stats1 = _axis_blocks(p1_vals, t)
    term2, blocks2, stats2 = _axis_blocks(p2_vals, t)
    cells = ORACLE_BLOCK * ORACLE_BLOCK
    batch = min(len(term1) * len(term2), rows_per_slice(8 * cells))
    p3_buf, term_buf, f_buf = (np.empty(batch * cells) for _ in range(3))
    outside_buf = np.empty(batch * cells, bool)
    best, best_key = -math.inf, 0

    def evaluate(bi: np.ndarray, bj: np.ndarray) -> None:
        nonlocal best, best_key
        shape = (bi.size, ORACLE_BLOCK, ORACLE_BLOCK)
        size = bi.size * cells
        p1 = blocks1[bi][:, :, None]
        p3 = np.subtract(1.0 - p1, blocks2[bj][:, None, :], out=p3_buf[:size].reshape(shape))
        outside = np.less(p3, -1e-12, out=outside_buf[:size].reshape(shape))
        np.clip(p3, 0.0, 1.0, out=p3)
        term = np.subtract(1.0, p3, out=term_buf[:size].reshape(shape))
        term **= t  # p3 (1 - p3)^t, in place
        term *= p3
        f = np.add(term1[bi][:, :, None], term2[bj][:, None, :], out=f_buf[:size].reshape(shape))
        f += term
        f[outside] = -1.0
        f = f.reshape(bi.size, cells)
        at = np.argmax(f, axis=1)  # the first maximum of each block
        value = f[np.arange(bi.size), at]
        top = np.flatnonzero(value == value.max())
        # the first of the batch's maxima, by its row-major index in the grid
        key = int(((bi[top] * ORACLE_BLOCK + at[top] // ORACLE_BLOCK) * p2_vals.size
                   + bj[top] * ORACLE_BLOCK + at[top] % ORACLE_BLOCK).min())
        if value[top[0]] > best or (value[top[0]] == best and key < best_key):
            best, best_key = value[top[0]], key

    step = rows_per_slice(8 * len(term2))
    slices = [slice(r, r + step) for r in range(0, len(term1), step)]

    def bounds(rows: slice) -> np.ndarray:
        return _block_bounds(t, [a[rows] for a in stats1], stats2)

    # the incumbent: the first block of the largest bound
    largest, first = -math.inf, (0, 0)
    for rows in slices:
        bound = bounds(rows)
        k = int(np.argmax(bound))
        if bound.flat[k] > largest:
            largest, first = bound.flat[k], divmod(rows.start * len(term2) + k, len(term2))
    evaluate(np.array([first[0]]), np.array([first[1]]))
    # every block whose bound is not below a value already computed
    for rows in slices:
        bi, bj = np.nonzero(bounds(rows) >= best)
        bi += rows.start
        for b in range(0, bi.size, batch):
            evaluate(bi[b:b + batch], bj[b:b + batch])
    return float(best), *divmod(best_key, p2_vals.size)


def simplex_grid_oracle(t: int, grid_step: float = 1e-3) -> tuple[float, tuple[float, float, float]]:
    """Exhaustive grid maximization of E[U_t] over the 3-atom simplex.

    Independent of the one-variable reduction: sweeps (p1, p2) on the grid
    of m + 1 points per axis, m = round(1 / grid_step) (at most
    MAX_GRID_POINTS: a finer grid is refused before anything is allocated),
    takes p3 = (1 - p1) - p2, then refines once on a 101 x 101 grid around
    the best cell.  A cell is in the simplex when p3 >= -1e-12 and is then
    worth (p1 (1-p1)^t + p2 (1-p2)^t) + p3 (1-p3)^t, p3 clipped to [0, 1];
    a cell outside is worth -1.  Each sweep returns the first maximum in
    row-major order, bit for bit as an exhaustive sweep of the whole square
    would, but evaluates only a few blocks of cells.

    The grid is cut into square blocks of ORACLE_BLOCK x ORACLE_BLOCK cells,
    and each block gets an upper bound on its cells' computed values: the
    largest row term over its rows, plus the largest column term over its
    columns, plus a bound on its p3 terms.  Rounding is monotone, so every
    cell's p3 lies in [(1 - p1_max) - p2_max, (1 - p1_min) - p2_min] over
    the block's points, and its y = 1 - p3 (p3 clipped) in the matching
    interval.  A cell's term is y^t p3, and p3 <= (1 - y) + 2^-54 (half an
    ulp below 1), so the term is at most psi(y) = ((1 - y) + 2^-54) y^t,
    up to the rounding of one power and one product.  psi is unimodal with
    its peak at t (1 + 2^-54) / (t + 1), so over the floats of the interval
    it is largest at the point nearest that peak or, where the interval
    meets the three floats around the peak, at one of those.  Bounding in y,
    not in p3, keeps the t-fold growth of the rounding of 1 - p3 out of the
    bound.  The sum is inflated by the relative margin ORACLE_MARGIN_REL,
    far above the few ulps of rounding in the powers, products and sums,
    and by the absolute ORACLE_MARGIN_ABS, above the error of results that
    underflow.  A block with no cell in the simplex is bounded by -inf.

    The first block of the largest bound is evaluated first, and its
    maximum is the incumbent.  Then every block whose bound is not below
    the incumbent is evaluated, in batches within SLICE_BYTES through
    buffers allocated once per sweep, the incumbent rising as they go; ties
    go to the first cell in row-major order.  A pruned block's bound is
    strictly below a value that was actually computed, so none of its cells
    can hold the maximum or tie with it, and pruning cannot change the
    answer.  The bounds are computed twice (to find the first block, then
    to select), in slices of block rows within SLICE_BYTES.  Returns the
    best value and its point, coordinates sorted nondecreasing.

    The value is that of a grid point, so it is a lower bound on the
    maximum of E[U_t] over the simplex, up to rounding.  The maximizer's
    light atoms lie near 1/t, which the grid resolves only while
    t * grid_step is at most about 1: there the value is within 5.0e-5
    relative of maximize_missing_mass(3, t) (t = 1..60, 100, 500, 1000 at
    steps 1e-3, 3e-3 and 1e-2), but it is 9 % short at t * grid_step = 3
    and about 50 % short from t * grid_step of about 10.
    """
    require_t(t)
    require_real(grid_step, "grid step", 0.0, 1e-2, "(]")
    steps = 1.0 / grid_step  # inf for a subnormal step
    if steps > MAX_GRID_POINTS or round(steps) + 1 > MAX_GRID_POINTS:
        raise InvalidInputError(f"grid step {grid_step!r} gives more than "
                                f"MAX_GRID_POINTS={MAX_GRID_POINTS} points per axis")
    coarse = np.linspace(0.0, 1.0, int(round(steps)) + 1)
    val, i, j = _grid_max(t, coarse, coarse)
    b1, b2 = float(coarse[i]), float(coarse[j])

    fine_step = grid_step / 50.0
    offsets = np.arange(-50, 51) * fine_step
    ref1 = np.clip(b1 + offsets, 0.0, 1.0)
    ref2 = np.clip(b2 + offsets, 0.0, 1.0)
    rval, i, j = _grid_max(t, ref1, ref2)
    if rval > val:
        val, b1, b2 = rval, float(ref1[i]), float(ref2[j])

    p3 = max(0.0, 1.0 - b1 - b2)
    point = tuple(sorted((b1, b2, p3)))
    return val, point
