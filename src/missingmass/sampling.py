"""Seeded i.i.d. sampling and Monte Carlo verification.

Reproducibility contract: each Monte Carlo call draws from one generator,
np.random.default_rng(seed), and replicate r takes the uniforms r*t ...
(r+1)*t - 1 of its stream.  Every seeded report is therefore bit-for-bit
reproducible, a shorter run is a prefix of a longer one, and aggregation
uses exactly rounded summation.

Rows run in slices sized by the one memory budget, numerics.SLICE_BYTES:
rows_per_slice(8 * 3t) rows, so a row's three draw buffers (its 64-bit
outputs, its buckets and its atom indices) fit in it, whatever n.  A
slice's outputs are one read of the bit generator's raw stream
(random_raw), then the inverse CDF and the statistic run once on the whole
slice.  A float64 uniform is one 64-bit output x, (x >> 11) 2^-53, as
Generator.random makes it, so no value depends on the slicing and the
stream is Generator.random's.

Uniforms map to atoms by inverse CDF through a guide table (Chen & Asau,
1974; Devroye 1986, III.2.4) of K = 2^b buckets, K the next power of two
>= 64n, at most GUIDE_CELLS.  The bucket of u = (x >> 11) 2^-53 is x's top
b bits, so a draw needs no float until it lands in a flagged bucket.  A
bucket that no cumulative mass falls strictly inside is exact: every u in
[k/K, (k+1)/K) has as many cumulative masses <= u as k/K has, so one table
lookup resolves the draw.  The table flags the other buckets, 1-3 % of
draws at 64 buckets an atom, and only their draws form their uniform and
step or search.  The result is exactly the index of
``searchsorted(cum, u, side="right")`` at a fraction of its cost.  The
table and the indices are of the narrowest signed integer type that holds
+-n: int16 up to 32,767 atoms, int32 past that.

Each call allocates its slice buffers once (random_raw returns each
slice's outputs in a new array): the buckets, the atom indices, and for
the statistics that keep n cells a row one (chunk, n) float buffer.  Those
statistics share one walk, _BlockStats.rows, which takes a slice in row
chunks of rows_per_slice(8 n) rows and hands each chunk the buffer: the
missing mass and the Good-Turing bias here, and cover's eps-missing mass.
A chunk's missing masses are a fill of the buffer with the masses, a
scatter of 0.0 at the drawn atoms and a row sum, which add the same
summands in the same order as the dense count form they replaced, so no
value changed, and no row's sum depends on its chunk.  The Good-Turing
singletons are counted exactly: from t = n up by a bincount, whose zero
counts times the masses, written into the buffer, also give the missing
masses; below t = n by sorting each row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import BlockVector, ProbVector
from .errors import InvalidInputError, require_int, require_real, require_t
from .mass import _require_distribution, expected_missing_mass, gt_bias
from .numerics import exact_sum, rows_per_slice

# A row holds max(t, n) cells for t draws from n atoms (its draws, and its
# masses in the statistics' row chunks).  Rows run in slices and chunks
# within numerics.SLICE_BYTES, which continue the call's one stream, so no
# value depends on them; a row cannot be split, so past this it is refused.
MAX_ROW_CELLS = 2_000_000
# The most replicates one Monte Carlo call takes: it keeps one value per
# replicate (80 MB at the cap) and its mean and variance read them twice.
# A count past it is refused before anything is allocated.
MAX_REPLICATES = 10_000_000
# Relative slack of a verdict: a value that matches its closed form or bound
# up to a few ulps is no violation, even when the standard error is 0.
RHO = 1e-12
# Guide table: K buckets, K the next power of two >= 64n, at most GUIDE_CELLS
# (128 KiB of int16, or 256 KiB of int32 past 32,767 atoms).  K is a power
# of two, so u*K and the edges k/K are exact, a draw's bucket is the top
# bits of its 64-bit output, and a bucket that no cumulative mass falls
# strictly inside resolves its draws by one lookup.  At 64 buckets an atom
# 1-3 % of draws land in the other, flagged buckets; past GUIDE_CELLS atoms
# nearly all of them do.
GUIDE_CELLS = 1 << 16


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

    One generator, np.random.default_rng(seed), serves the call: replicate r
    takes uniforms r*t ... (r+1)*t - 1 of its stream, row after row, and maps
    them to atom indices by inverse CDF.  A uniform is one 64-bit output x of
    the bit generator, (x >> 11) 2^-53, as Generator.random makes it, so the
    draws read x itself through random_raw: x's top bits are its guide-table
    bucket, and only a draw in a flagged bucket forms its uniform.  Rows run
    in slices of rows_per_slice(8 * 3t) rows, at most replicates, so a row's
    draw buffers (the raw outputs, the buckets and the indices, 3t cells of
    at most 8 bytes) fit in numerics.SLICE_BYTES; an output is consumed
    whole by one draw, so filling a slice at once equals filling its rows
    one by one, and no value depends on the slicing.

    stat turns the slice's (rows, t) index array into one value or one row
    of values per replicate.  The indices are of the narrowest signed type
    that holds +-n (index_dtype: int16 up to 32,767 atoms, int32 past that),
    so stat must not assume intp.  A statistic that keeps n cells a row is a
    chunk function given to _BlockStats.rows, which owns the row chunks and
    their buffer within SLICE_BYTES.  The index buffer is allocated once
    per call, so stat must not keep its argument, and its results are
    copied out in replicate order.  The arguments are checked by
    require_run before anything is allocated.
    """
    t, replicates, seed = require_run(t, replicates, seed, len(masses))
    cum = np.cumsum(masses)
    cum[-1] = 1.0  # guard: float cumsum may land a hair under 1
    table = _guide_table(cum)
    step = min(replicates, rows_per_slice(8 * 3 * t))
    idx = np.empty((step, t), table.dtype)
    bucket = np.empty((step, t), np.intp)
    bits = np.random.default_rng(seed).bit_generator
    out = None
    for start in range(0, replicates, step):
        k = min(step, replicates - start)
        raw = bits.random_raw((k, t))
        values = stat(_inverse_cdf(cum, table, raw, idx[:k], bucket[:k]))
        if out is None:
            out = np.empty((replicates,) + values.shape[1:], values.dtype)
        out[start:start + k] = values
    return out


def require_run(t, replicates, seed, n: int, name: str = "replicates",
                least: int = 1) -> tuple[int, int, int]:
    """Check the arguments of a Monte Carlo run of t draws from n atoms and
    return t, replicates and seed as ints: replicates an integer >= least
    (``name`` in its message) and at most MAX_REPLICATES, t a sample count,
    the seed an integer >= 0, and a row of max(t, n) cells within
    MAX_ROW_CELLS.  Every Monte Carlo entry point runs it first, so a bad
    argument is refused before anything of its size is expanded or
    allocated."""
    replicates = require_int(replicates, name, least)
    if replicates > MAX_REPLICATES:
        raise InvalidInputError(f"replicates={replicates} exceeds MAX_REPLICATES={MAX_REPLICATES}")
    t, seed = require_t(t), require_int(seed, "seed", 0)
    if max(t, n) > MAX_ROW_CELLS:
        raise InvalidInputError(
            f"a Monte Carlo row of max(t={t}, n={n}) cells exceeds MAX_ROW_CELLS={MAX_ROW_CELLS}"
        )
    return t, replicates, seed


def index_dtype(n: int) -> type:
    """The atom indices' dtype for n atoms: the narrowest signed integer type
    that holds +-n, int16 up to 32,767 atoms and int32 past that (a row is
    at most MAX_ROW_CELLS atoms)."""
    return np.int16 if n <= np.iinfo(np.int16).max else np.int32


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """Exact-bucket guide table over K buckets, K a power of two: the next one
    >= 64n, capped at GUIDE_CELLS, of dtype index_dtype(n).

    lo[k] = searchsorted(cum, k/K, side="right") counts the cum values <=
    k/K.  Bucket k is exact when no cum value lies strictly inside (k/K,
    (k+1)/K); it stores lo[k], and any other bucket stores -1 - lo[k].  Both
    come from the n values e[i] = ceil(cum[i]*K), cum clipped to 1 and cum*K
    exact: lo[k] = i on the run of buckets e[i-1] <= k < e[i], and a
    cum[i]*K that is no integer lies strictly inside bucket e[i] - 1.  So the
    table costs O(n + K), with no search.
    """
    n = len(cum)
    buckets = min(1 << (64 * n - 1).bit_length(), GUIDE_CELLS)
    scaled = np.minimum(cum, 1.0) * buckets  # a float cumsum may pass 1 by a hair
    ends = np.ceil(scaled)
    lo = np.repeat(np.arange(n, dtype=index_dtype(n)), np.diff(ends, prepend=0.0).astype(np.intp))
    flagged = ends[ends != scaled].astype(np.intp) - 1
    lo[flagged] = -1 - lo[flagged]
    return lo


def _inverse_cdf(cum: np.ndarray, table: np.ndarray, raw: np.ndarray, out: np.ndarray,
                 bucket: np.ndarray) -> np.ndarray:
    """searchsorted(cum, u, side="right") for the uniforms u = (x >> 11) 2^-53
    of the 64-bit outputs x in raw (uint64), by the exact-bucket guide table,
    written to out, an array of raw's shape and table's dtype; bucket is an
    intp array of raw's shape.

    K = len(table) = 2^b is a power of two, so u*K and k/K are exact, and
    the bucket of u, floor(u*K), is x's top b bits, x >> (64 - b).  In an
    exact bucket no cum value lies in (k/K, u], so the count of cum <= u is
    the count of cum <= k/K, the stored lo[k]: one lookup, and the uniform
    is never formed.  A flagged draw forms its uniform, starts at lo[k] and
    steps once if cum[lo[k]] <= u; the draws still short (two or more
    boundaries at or below u in their bucket) go through searchsorted, in
    ascending order of u, which numpy resolves several times faster on a
    large support.
    """
    shift = np.uint64(65 - len(table).bit_length())
    np.right_shift(raw, shift, out=bucket.view(np.uint64))
    # Every bucket index is in range; mode="clip" lets take write to out unbuffered.
    j = table.take(bucket, out=out, mode="clip")
    flat_j = j.reshape(-1)
    flagged = np.flatnonzero(flat_j < 0)
    at, at_u = -1 - flat_j[flagged], _uniforms(raw.reshape(-1)[flagged])
    at += cum[at] <= at_u  # cum[at] <= u < 1 = cum[-1], so at + 1 < n
    short = np.flatnonzero(cum[at] <= at_u)
    short = short[np.argsort(at_u[short])]
    at[short] = np.searchsorted(cum, at_u[short], side="right")
    flat_j[flagged] = at
    return j


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The float64 uniforms (x >> 11) 2^-53 of 64-bit outputs x, exactly those
    Generator.random makes of them."""
    return np.right_shift(raw, np.uint64(11)) * 2.0 ** -53


class _BlockStats:
    """Per-replicate statistics of the (rows, n) kind on the (rows, t) index
    slices of one monte_carlo call: missing mass, Good-Turing bias, and any
    statistic given to rows as a chunk function, such as cover's eps-missing
    mass.

    rows is the one walk: it takes a slice in row chunks of
    rows_per_slice(8 n) rows, so a chunk's (chunk, n) float buffer stays
    within numerics.SLICE_BYTES, and that buffer is allocated once for the
    call, at its first chunk, the call's largest; so is the flat index, at
    the first chunk that asks for it.

    A chunk's missing masses are a fill, a scatter and a row sum: the masses
    are copied into every row, the drawn atoms are set to 0.0 through the
    flat index idx + n*row, and each row is summed.  The summands are those
    of the dense form, each count == 0 times its mass (m, or +0.0 for a
    drawn atom), in the same order, so numpy's pairwise sum returns the same
    value without a (rows, n) count array, and a row's sum does not depend
    on its chunk.
    """

    def __init__(self, masses: np.ndarray):
        self.masses = masses
        # kept (chunk, n): the chunk functions' float buffer; flat (chunk, t):
        # the chunk's flat index; offsets (chunk, 1): n*row
        self.kept = self.flat = self.offsets = None

    def rows(self, idx: np.ndarray, chunk_stat) -> np.ndarray:
        """One value per row of a (rows, t) index slice: chunk_stat(chunk,
        kept, out) writes the values of each row chunk to out, with kept a
        (chunk, n) float buffer it may overwrite."""
        n = len(self.masses)
        step = rows_per_slice(8 * n)
        out = np.empty(len(idx))
        for r in range(0, len(idx), step):
            chunk = idx[r:r + step]
            if self.kept is None:  # the first chunk is the call's largest
                self.kept = np.empty((len(chunk), n))
            chunk_stat(chunk, self.kept[:len(chunk)], out[r:r + len(chunk)])
        return out

    def _flat_index(self, chunk: np.ndarray) -> np.ndarray:
        """idx + n*row, the index of each draw in the flattened (chunk, n)
        buffer.  Its buffer and the row offsets are allocated at the first
        call, on the call's first and largest chunk, so a chunk function
        that never asks (cover's eps-missing mass) allocates neither."""
        if self.flat is None:
            self.flat = np.empty(chunk.shape, np.intp)
            self.offsets = len(self.masses) * np.arange(len(chunk))[:, None]
        return np.add(chunk, self.offsets[:len(chunk)], out=self.flat[:len(chunk)])

    def _missing(self, chunk: np.ndarray, kept: np.ndarray, out: np.ndarray) -> None:
        kept[...] = self.masses
        kept.reshape(-1)[self._flat_index(chunk).reshape(-1)] = 0.0
        kept.sum(axis=1, out=out)

    def missing(self, idx: np.ndarray) -> np.ndarray:
        """Mass of the atoms each row never drew."""
        return self.rows(idx, self._missing)

    def bias(self, idx: np.ndarray) -> np.ndarray:
        """Good-Turing estimate minus missing mass.

        The singletons (atoms drawn exactly once) are counted exactly, from
        t = n up by a bincount and below it by sorting each row.  Each is
        the faster on its side: on one slice of draws the bincount took 4x
        the sort's time on 2000 atoms at t = 100, and the sort 1.35x and
        1.9x the bincount's on 50 atoms at t = 100 and on 5 atoms at t = 10.
        """
        return self.rows(idx, self._counted_bias if idx.shape[1] >= len(self.masses)
                         else self._sorted_bias)

    def _counted_bias(self, chunk: np.ndarray, kept: np.ndarray, out: np.ndarray) -> None:
        """From t = n up, a bincount of the chunk's flat index is no larger
        than its draws; its zero counts times the masses, written into kept,
        are the missing-mass summands, so no scatter is needed."""
        counts = np.bincount(self._flat_index(chunk).reshape(-1), minlength=kept.size)
        counts = counts.reshape(kept.shape)
        np.multiply(counts == 0, self.masses, out=kept).sum(axis=1, out=out)
        singles = np.add.reduce(counts == 1, axis=1, dtype=np.intp)
        np.subtract(singles / chunk.shape[1], out, out=out)

    def _sorted_bias(self, chunk: np.ndarray, kept: np.ndarray, out: np.ndarray) -> None:
        """Below t = n the counts would outgrow the draws, so the chunk is
        scattered for the missing mass and its rows are sorted.  A draw is
        repeated when it equals a neighbour: with same marking each sorted
        value equal to its right neighbour, an inner draw is repeated where
        same | (same shifted by one) holds, the first draw where same[0]
        does and the last where same[-1] does (both the one pair at t = 2).
        """
        self._missing(chunk, kept, out)
        t = chunk.shape[1]
        singles = 1  # t = 1 < n: the one draw
        if t > 1:
            drawn = np.sort(chunk, axis=1)
            same = drawn[:, 1:] == drawn[:, :-1]
            inner = np.add.reduce(same[:, 1:] | same[:, :-1], axis=1, dtype=np.intp)
            singles = t - (inner + same[:, 0] + same[:, -1])
        np.subtract(singles / t, out, out=out)


def is_violation(excess: float, se: float, estimate: float, reference: float) -> bool:
    """The one verdict rule: excess beyond three standard errors plus a
    relative rounding slack RHO.  A deterministic comparison of a value with
    its bound (``mml bounds``, the covering report) passes se = 0."""
    scale = max(abs(estimate), abs(reference), sys.float_info.min)
    return bool(excess > 3.0 * se + RHO * scale)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    r = len(values)
    mean = exact_sum(values) / r
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
    _require_distribution(d)
    t, replicates, seed = require_run(t, replicates, seed, d.n, "bias verification replicates", 1000)
    masses = np.repeat(d.m, d.c)
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
    _require_distribution(d)
    t, replicates, seed = require_run(t, replicates, seed, d.n,
                                      "concentration verification replicates", 10_000)
    require_real(eps, "deviation eps", 0.0, 1.0, "(]")
    masses = np.repeat(d.m, d.c)
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
