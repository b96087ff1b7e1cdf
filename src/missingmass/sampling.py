"""Seeded i.i.d. sampling and Monte Carlo verification.

Reproducibility contract: replicates run in blocks of BLOCK, and block b
draws from its own substream, derived from the master seed by a
counter-based split (block index -> spawn key).  Every seeded report is
therefore bit-for-bit reproducible, a shorter run is a prefix of a longer
one, and aggregation uses exactly rounded summation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import ProbVector
from .errors import InvalidInputError, require_t
from .mass import expected_missing_mass, gt_bias

BLOCK = 64  # replicates per substream; part of the seeded layout, so a constant
# Uniforms drawn per call: a block at large t is drawn in consecutive row
# slices, which continue the same stream, so memory stays bounded and the
# values are unchanged.
DRAWS_PER_CALL = 1 << 16
# Relative slack of a verdict: a mean that matches its closed form up to a few
# ulps is no violation, even when the standard error is 0.
RHO = 1e-12


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
    require_t(t)
    if not isinstance(replicates, int) or replicates < 1:
        raise InvalidInputError(f"replicates must be a positive integer, got {replicates!r}")
    cum = np.cumsum(masses)
    cum[-1] = 1.0  # guard: float cumsum may land a hair under 1
    step = max(1, DRAWS_PER_CALL // t)
    out = []
    for b, start in enumerate(range(0, replicates, BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        rows = min(BLOCK, replicates - start)
        for r in range(0, rows, step):
            u = rng.random((min(step, rows - r), t))
            out.append(stat(np.searchsorted(cum, u, side="right")))
    return np.concatenate(out)


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


def draw_sample(d: ProbVector, t: int, seed: int, source: str | None = None) -> SampleCounts:
    """t i.i.d. draws from d, aggregated to per-atom counts; deterministic per seed."""
    counts = monte_carlo(d.masses, t, 1, seed, lambda idx: _counts(idx, d.n))[0]
    return SampleCounts(
        t=t,
        counts=tuple(int(c) for c in counts),
        source=source if source is not None else f"ProbVector(n={d.n})",
        seed=seed,
    )


def empirical_missing_mass(d: ProbVector, sc: SampleCounts) -> float:
    """Total mass of the atoms that the sample never hit."""
    if len(sc.counts) != d.n:
        raise InvalidInputError(
            f"counts cover {len(sc.counts)} atoms but the distribution has {d.n}"
        )
    return math.fsum(m for m, c in zip(d.masses, sc.counts) if c == 0)


def good_turing(sc: SampleCounts) -> float:
    """Good-Turing missing-mass estimate: fraction of the sample seen once."""
    if sc.t < 1:
        raise InvalidInputError("sample must contain at least one draw")
    return sum(1 for c in sc.counts if c == 1) / sc.t


def is_violation(excess: float, se: float, estimate: float, reference: float) -> bool:
    """The verdict rule of every Monte Carlo check: excess beyond three standard
    errors plus a relative rounding slack RHO."""
    scale = max(abs(estimate), abs(reference), sys.float_info.min)
    return bool(excess > 3.0 * se + RHO * scale)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    r = len(values)
    mean = math.fsum(values.tolist()) / r
    if r < 2:
        return mean, 0.0
    var = math.fsum(((values - mean) ** 2).tolist()) / (r - 1)
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
    if replicates < 1000:
        raise InvalidInputError("bias verification needs at least 1000 replicates")
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
    if replicates < 10_000:
        raise InvalidInputError("concentration verification needs at least 10^4 replicates")
    if not (0.0 < eps <= 1.0):
        raise InvalidInputError(f"deviation eps must lie in (0, 1], got {eps}")
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
