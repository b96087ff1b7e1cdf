"""Seeded i.i.d. sampling and Monte Carlo verification.

Reproducibility contract: replicates run in blocks of BLOCK, and block b
draws from its own substream, derived from the master seed by a
counter-based split (block index -> spawn key).  Every seeded report is
therefore bit-for-bit reproducible, a shorter run is a prefix of a longer
one, and aggregation uses exactly rounded summation.

Uniforms map to atoms by inverse CDF through a guide table (Chen & Asau,
1974; Devroye 1986, III.2.4), which returns exactly the index of
``searchsorted(cum, u, side="right")`` at a fraction of its cost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import ProbVector
from .errors import InvalidInputError, require_int, require_real, require_t
from .mass import expected_missing_mass, gt_bias
from .numerics import exact_sum

BLOCK = 64  # replicates per substream; part of the seeded layout, so a constant
# Uniforms drawn per call: a block at large t is drawn in consecutive row
# slices, which continue the same stream, so memory stays bounded and the
# values are unchanged.
DRAWS_PER_CALL = 1 << 16
# Relative slack of a verdict: a mean that matches its closed form up to a few
# ulps is no violation, even when the standard error is 0.
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
    CDF; stat turns that index block (or a slice of its rows, at large t)
    into one value or one row of values per replicate.  Results are
    concatenated in replicate order.
    """
    t, replicates = require_t(t), require_int(replicates, "replicates", 1)
    cum = np.cumsum(masses)
    cum[-1] = 1.0  # guard: float cumsum may land a hair under 1
    lo = _guide_table(cum)
    step = max(1, DRAWS_PER_CALL // t)
    out = []
    for b, start in enumerate(range(0, replicates, BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        rows = min(BLOCK, replicates - start)
        for r in range(0, rows, step):
            u = rng.random((min(step, rows - r), t))
            out.append(stat(_inverse_cdf(cum, lo, u)))
    return np.concatenate(out)


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """lo[k] = searchsorted(cum, k/K, side="right") for K buckets, K a power of
    two: the next one >= 4n, capped at GUIDE_CELLS."""
    buckets = min(1 << (4 * len(cum) - 1).bit_length(), GUIDE_CELLS)
    return np.searchsorted(cum, np.arange(buckets) / buckets, side="right")


def _inverse_cdf(cum: np.ndarray, lo: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(cum, u, side="right") for uniforms u in [0, 1), by guide table.

    K = len(lo) is a power of two, so u*K and k/K are exact: the bucket
    start lo[floor(u*K)] never passes the answer, and stepping while
    cum[j] <= u stops at the first cum[j] > u, which is the answer by
    definition; cum[-1] = 1 > u bounds every walk.
    """
    j = lo[(u * len(lo)).astype(np.intp)]
    flat_j, flat_u = j.reshape(-1), u.reshape(-1)
    short = np.flatnonzero(cum[flat_j] <= flat_u)  # draws not yet at their atom
    for _ in range(GUIDE_PASSES):
        if not len(short):
            return j
        flat_j[short] += 1
        short = short[cum[flat_j[short]] <= flat_u[short]]
    if len(short):
        flat_j[short] = np.searchsorted(cum, flat_u[short], side="right")
    return j


def _counts(idx: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) occurrence counts of a (rows, t) index block, by one bincount."""
    rows = idx.shape[0]
    flat = (idx + n * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, minlength=rows * n).reshape(rows, n)


def _missing_rows(counts: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Missing mass of each row of a (rows, n) count block."""
    return ((counts == 0) * masses).sum(axis=1)


def _bias_rows(idx: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Good-Turing estimate minus missing mass of each row of an index block."""
    counts = _counts(idx, len(masses))
    return np.count_nonzero(counts == 1, axis=1) / idx.shape[1] - _missing_rows(counts, masses)


def draw_sample(d: ProbVector, t: int, seed: int) -> SampleCounts:
    """t i.i.d. draws from d, aggregated to per-atom counts; deterministic per seed."""
    counts = monte_carlo(d.masses, t, 1, seed, lambda idx: _counts(idx, d.n))[0]
    return SampleCounts(
        t=t,
        counts=tuple(int(c) for c in counts),
        source=f"ProbVector(n={d.n})",
        seed=seed,
    )


def empirical_missing_mass(d: ProbVector, sc: SampleCounts) -> float:
    """Total mass of the atoms that the sample never hit."""
    if len(sc.counts) != d.n:
        raise InvalidInputError(
            f"counts cover {len(sc.counts)} atoms but the distribution has {d.n}"
        )
    return exact_sum(np.repeat(d.m, d.c)[np.asarray(sc.counts) == 0])


def good_turing(sc: SampleCounts) -> float:
    """Good-Turing missing-mass estimate: fraction of the sample seen once."""
    require_t(sc.t)
    return sum(1 for c in sc.counts if c == 1) / sc.t


def is_violation(excess: float, se: float, estimate: float, reference: float) -> bool:
    """The verdict rule of every Monte Carlo check: excess beyond three standard
    errors plus a relative rounding slack RHO."""
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


def verify_bias(d: ProbVector, t: int, replicates: int, seed: int) -> McReport:
    """Monte Carlo check of the bias identity for the Good-Turing estimate.

    Estimates E[GT estimate - missing mass] and compares it against the
    closed form; the report flags a violation when the closed form falls
    outside three standard errors of the estimate (see is_violation).
    """
    require_int(replicates, "bias verification replicates", 1000)
    masses = np.asarray(d.masses)
    values = monte_carlo(masses, t, replicates, seed, lambda idx: _bias_rows(idx, masses))
    return mean_report(values, gt_bias(d, t), seed)


def verify_concentration(
    d: ProbVector, t: int, eps: float, replicates: int, seed: int
) -> McReport:
    """Empirical tail frequency of |U_t - E U_t| >= eps against 2 exp(-t eps^2).

    The report's ``violated`` flag fires only when the empirical frequency
    exceeds the bound by more than three binomial standard errors (see
    is_violation).
    """
    require_int(replicates, "concentration verification replicates", 10_000)
    require_real(eps, "deviation eps", 0.0, 1.0, "(]")
    masses = np.asarray(d.masses)
    missing = monte_carlo(
        masses, t, replicates, seed, lambda idx: _missing_rows(_counts(idx, len(masses)), masses)
    )
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
