"""Seeded i.i.d. sampling and Monte Carlo verification.

Reproducibility contract: replicates run in blocks of BLOCK, and block b
draws from its own substream, derived from the master seed by a
counter-based split (block index -> spawn key).  Every seeded report is
therefore bit-for-bit reproducible, a shorter run is a prefix of a longer
one, and aggregation uses exactly rounded summation.

Uniforms map to atoms by inverse CDF through a guide table (Chen & Asau,
1974; Devroye 1986, III.2.4), which returns exactly the index of
``searchsorted(cum, u, side="right")`` at a fraction of its cost.

Each call allocates its block buffers once: the uniforms, the atom indices,
and for the missing-mass statistics a (rows, n) copy of the masses.  A
block's missing masses are then a fill, a scatter of 0.0 at the drawn atoms
and a row sum, which add the same summands in the same order as the dense
count form they replaced, so no value changed.  The Good-Turing singletons
are counted exactly: from t = n up by a bincount, whose zero counts times
the masses, written into the same copy, also give the missing masses; below
t = n by sorting each row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import BlockVector, ProbVector
from .errors import InvalidInputError, require_int, require_real, require_t
from .mass import expected_missing_mass, gt_bias
from .numerics import exact_sum, rows_per_slice

BLOCK = 64  # replicates per substream; part of the seeded layout, so a constant
# A row of a block holds max(t, n) cells for t draws from n atoms (its
# uniforms, and its masses in the statistics' buffer).  A block is drawn in
# row slices within numerics.SLICE_BYTES, which continue its stream, so no
# value depends on them; a row cannot be split, so past this it is refused.
MAX_ROW_CELLS = 2_000_000
# Relative slack of a verdict: a value that matches its closed form or bound
# up to a few ulps is no violation, even when the standard error is 0.
RHO = 1e-12
# Guide table: at most GUIDE_CELLS buckets, and at most GUIDE_PASSES
# vectorised steps from a bucket's first atom before the draws left over
# (skewed masses piled into one bucket) go through searchsorted.
GUIDE_CELLS = 1 << 16
GUIDE_PASSES = 4


@dataclass(frozen=True)
class SampleCounts:
    """Occurrence counts of t i.i.d. draws, indexed like the source masses."""

    t: int
    counts: tuple[int, ...]
    source: str
    seed: int

    def __post_init__(self):
        if sum(self.counts) != self.t:
            raise InvalidInputError("counts must sum to the sample size")


@dataclass(frozen=True)
class McReport:
    """Result of a seeded Monte Carlo experiment."""

    replicates: int
    estimate: float
    std_error: float
    seed: int
    exceed_freq: float | None = None
    bound: float | None = None
    violated: bool | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "replicates": self.replicates,
            "seed": self.seed,
        }
        if self.exceed_freq is not None:
            obj["exceed_freq"] = self.exceed_freq
        if self.bound is not None:
            obj["bound"] = self.bound
        if self.violated is not None:
            obj["violated"] = self.violated
        return obj


def monte_carlo(masses, t: int, replicates: int, seed: int, stat) -> np.ndarray:
    """Per-replicate statistics of seeded samples of t i.i.d. draws from masses.

    Block b of BLOCK replicates draws a (rows, t) array of uniforms from the
    substream (seed, spawn_key=(b,)) and maps it to atom indices by inverse
    CDF; stat turns that index block (or a slice of its rows, when a block
    of 8-byte cells outgrows numerics.SLICE_BYTES) into one value or one row
    of values per replicate.  A row of max(t, n) cells past MAX_ROW_CELLS is
    refused before anything is allocated.  The uniforms and indices live in
    buffers allocated once per call, so stat must not keep its argument; its
    results are copied out in replicate order.
    """
    t, replicates = require_t(t), require_int(replicates, "replicates", 1)
    _require_row(t, len(masses))
    cum = np.cumsum(masses)
    cum[-1] = 1.0  # guard: float cumsum may land a hair under 1
    lo = _guide_table(cum)
    step = min(BLOCK, replicates, rows_per_slice(8 * max(t, len(cum))))
    u = np.empty((step, t))
    idx, scratch = np.empty((2, step, t), np.intp)
    out = None
    for b, start in enumerate(range(0, replicates, BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        rows = min(BLOCK, replicates - start)
        for r in range(0, rows, step):
            k = min(step, rows - r)
            values = stat(_inverse_cdf(cum, lo, rng.random(out=u[:k]), idx[:k], scratch[:k]))
            if out is None:
                out = np.empty((replicates,) + values.shape[1:], values.dtype)
            out[start + r:start + r + k] = values
    return out


def _require_row(t: int, n: int) -> None:
    """Refuse t draws from n atoms when a row of max(t, n) cells passes
    MAX_ROW_CELLS."""
    if max(t, n) > MAX_ROW_CELLS:
        raise InvalidInputError(
            f"a Monte Carlo row of max(t={t}, n={n}) cells exceeds MAX_ROW_CELLS={MAX_ROW_CELLS}"
        )


def _atom_masses(d: ProbVector | BlockVector, t: int) -> np.ndarray:
    """d's masses atom by atom, for a sample of t draws; a row past
    MAX_ROW_CELLS is refused before the runs are expanded."""
    _require_row(t, d.n)
    return np.repeat(d.m, d.c)


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """lo[k] = searchsorted(cum, k/K, side="right") for K buckets, K a power of
    two: the next one >= 4n, capped at GUIDE_CELLS."""
    buckets = min(1 << (4 * len(cum) - 1).bit_length(), GUIDE_CELLS)
    return np.searchsorted(cum, np.arange(buckets) / buckets, side="right")


def _inverse_cdf(cum: np.ndarray, lo: np.ndarray, u: np.ndarray, out: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """searchsorted(cum, u, side="right") for uniforms u in [0, 1), by guide
    table, written to out; out and scratch are intp arrays of u's shape.

    K = len(lo) is a power of two, so u*K and k/K are exact: the bucket
    start lo[floor(u*K)] never passes the answer, and stepping while
    cum[j] <= u stops at the first cum[j] > u, which is the answer by
    definition; cum[-1] = 1 > u bounds every walk.
    """
    # Every bucket and atom index is in range; mode="clip" lets take write to
    # out unbuffered.  scratch holds the buckets, then the cum values at j.
    bucket = np.multiply(u, len(lo), out=scratch, casting="unsafe")
    j = lo.take(bucket, out=out, mode="clip")
    flat_j, flat_u = j.reshape(-1), u.reshape(-1)
    at_j = cum.take(flat_j, out=scratch.view(np.float64).reshape(-1), mode="clip")
    short = np.flatnonzero(at_j <= flat_u)  # draws not yet at their atom
    for _ in range(GUIDE_PASSES):
        if not len(short):
            return j
        flat_j[short] += 1
        short = short[cum[flat_j[short]] <= flat_u[short]]
    if len(short):
        flat_j[short] = np.searchsorted(cum, flat_u[short], side="right")
    return j


class _BlockStats:
    """Missing mass and Good-Turing bias of each row of the (rows, t) index
    blocks of one monte_carlo call, in buffers allocated once for the call:
    at the first block, which has the call's full row count.

    A block's missing masses are a fill, a scatter and a row sum: the masses
    are copied into every row, the drawn atoms are set to 0.0 through the
    flat index idx + n*row, and each row is summed.  The summands are those
    of the dense form, each count == 0 times its mass (m, or +0.0 for a
    drawn atom), in the same order, so numpy's pairwise sum returns the same
    value without a (rows, n) count array.
    """

    def __init__(self, masses: np.ndarray):
        self.masses = masses
        # kept (rows, n): the masses of the atoms a row never drew; flat
        # (rows, t): the block's flat index; offsets (rows, 1): n*row
        self.kept = self.flat = self.offsets = None

    def _flat_index(self, idx: np.ndarray) -> np.ndarray:
        """idx + n*row, the index of each draw in the flattened (rows, n) block."""
        rows, n = len(idx), len(self.masses)
        if self.kept is None:
            self.kept = np.empty((rows, n))
            self.flat = np.empty(idx.shape, np.intp)
            self.offsets = n * np.arange(rows)[:, None]
        return np.add(idx, self.offsets[:rows], out=self.flat[:rows])

    def missing(self, idx: np.ndarray) -> np.ndarray:
        """Mass of the atoms each row never drew."""
        flat = self._flat_index(idx)
        kept = self.kept[:len(idx)]
        kept[...] = self.masses
        kept.reshape(-1)[flat.reshape(-1)] = 0.0
        return kept.sum(axis=1)

    def bias(self, idx: np.ndarray) -> np.ndarray:
        """Good-Turing estimate minus missing mass.

        The singletons (atoms drawn exactly once) are counted exactly.  From
        t = n up, a bincount of the flat index is no larger than the draws;
        its zero counts times the masses, written into kept, are the
        missing-mass summands, so no scatter is needed.  Below t = n the
        counts would outgrow the draws, so the rows are scattered for the
        missing mass, then sorted in kept, which has room for them, and a
        singleton is a value equal to neither neighbour; 16 bits is the
        narrowest type numpy sorts fast.
        """
        (rows, t), n = idx.shape, len(self.masses)
        if t >= n:
            counts = np.bincount(self._flat_index(idx).reshape(-1), minlength=rows * n)
            counts = counts.reshape(rows, n)
            missing = np.multiply(counts == 0, self.masses, out=self.kept[:rows]).sum(axis=1)
            return np.count_nonzero(counts == 1, axis=1) / t - missing
        missing = self.missing(idx)
        dtype = np.result_type(np.min_scalar_type(n - 1), np.uint16)
        drawn = self.kept.reshape(-1).view(dtype)[:rows * t].reshape(rows, t)
        drawn[...] = idx
        drawn.sort(axis=1)
        same = drawn[:, 1:] == drawn[:, :-1]
        repeated = np.zeros((rows, t), bool)
        repeated[:, 1:] = same
        repeated[:, :-1] |= same
        return (t - np.count_nonzero(repeated, axis=1)) / t - missing


def draw_sample(d: ProbVector | BlockVector, t: int, seed: int) -> SampleCounts:
    """t i.i.d. draws from d, aggregated to per-atom counts; deterministic per seed."""
    t = require_t(t)
    idx = monte_carlo(_atom_masses(d, t), t, 1, seed, lambda idx: idx)[0]
    counts = np.bincount(idx, minlength=d.n)
    return SampleCounts(
        t=t,
        counts=tuple(int(c) for c in counts),
        source=f"{type(d).__name__}(n={d.n})",
        seed=seed,
    )


def empirical_missing_mass(d: ProbVector | BlockVector, sc: SampleCounts) -> float:
    """Total mass of the atoms that the sample never hit."""
    if len(sc.counts) != d.n:
        raise InvalidInputError(
            f"counts cover {len(sc.counts)} atoms but the distribution has {d.n}"
        )
    return exact_sum(_atom_masses(d, sc.t)[np.asarray(sc.counts) == 0])


def good_turing(sc: SampleCounts) -> float:
    """Good-Turing missing-mass estimate: fraction of the sample seen once."""
    require_t(sc.t)
    return sum(1 for c in sc.counts if c == 1) / sc.t


def is_violation(excess: float, se: float, estimate: float, reference: float) -> bool:
    """The one verdict rule: excess beyond three standard errors plus a
    relative rounding slack RHO.  A deterministic comparison of a value with
    its bound (``mml bounds``, the covering report) passes se = 0."""
    scale = max(abs(estimate), abs(reference), sys.float_info.min)
    return bool(excess > 3.0 * se + RHO * scale)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    r = len(values)
    mean = exact_sum(values) / r
    if r < 2:
        return mean, 0.0
    var = exact_sum((values - mean) ** 2) / (r - 1)
    return mean, math.sqrt(var / r)


def mean_report(values: np.ndarray, closed: float, seed: int) -> McReport:
    """Report of a Monte Carlo mean checked against its closed form."""
    mean, se = _mean_se(values)
    return McReport(
        replicates=len(values),
        estimate=mean,
        std_error=se,
        seed=seed,
        bound=closed,
        violated=is_violation(abs(mean - closed), se, mean, closed),
    )


def verify_bias(d: ProbVector | BlockVector, t: int, replicates: int, seed: int) -> McReport:
    """Monte Carlo check of the bias identity for the Good-Turing estimate.

    Estimates E[GT estimate - missing mass] and compares it against the
    closed form; the report flags a violation when the closed form falls
    outside three standard errors of the estimate (see is_violation).

    That rule needs a near-normal mean, which this one is not on a large
    support at small t: the bias sum p^2 (1-p)^(t-1) is carried by the rare
    replicates in which some atom is drawn twice, about replicates * C(t, 2)
    * sum p^2 of them.  Unless that count is well above 1, a run usually
    holds none, its standard error misses the bias, and the report can flag
    a violation that is not there (2*10^5 random atoms, t = 10, 1000
    replicates).
    """
    require_int(replicates, "bias verification replicates", 1000)
    t = require_t(t)
    masses = _atom_masses(d, t)
    values = monte_carlo(masses, t, replicates, seed, _BlockStats(masses).bias)
    return mean_report(values, gt_bias(d, t), seed)


def verify_concentration(
    d: ProbVector | BlockVector, t: int, eps: float, replicates: int, seed: int
) -> McReport:
    """Empirical tail frequency of |U_t - E U_t| >= eps against 2 exp(-t eps^2).

    The report's ``violated`` flag fires only when the empirical frequency
    exceeds the bound by more than three binomial standard errors (see
    is_violation).
    """
    require_int(replicates, "concentration verification replicates", 10_000)
    require_real(eps, "deviation eps", 0.0, 1.0, "(]")
    t = require_t(t)
    masses = _atom_masses(d, t)
    missing = monte_carlo(masses, t, replicates, seed, _BlockStats(masses).missing)
    mean, se = _mean_se(missing)
    freq = np.count_nonzero(np.abs(missing - expected_missing_mass(d, t)) >= eps) / replicates
    freq_se = math.sqrt(freq * (1.0 - freq) / replicates)
    bound = 2.0 * math.exp(-t * eps * eps)
    return McReport(
        replicates=replicates,
        estimate=mean,
        std_error=se,
        seed=seed,
        exceed_freq=freq,
        bound=bound,
        violated=is_violation(freq - bound, freq_se, freq, bound),
    )
