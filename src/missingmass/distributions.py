"""Finite and countable discrete distributions and their band structure.

Every finite distribution is stored in one run-length form: the sorted
distinct masses ``m`` and their multiplicities ``c``, both read-only numpy
arrays, built and validated by one function.  ``ProbVector`` (a probability
vector given atom by atom), ``BlockVector`` (equal-mass blocks, for supports
blown up by factors of 2^k) and ``Truncation`` (a finite prefix of a
countable family plus its tail bound) are thin front doors onto that form:
they differ in how they are built and serialized, not in how they are
evaluated.  ``CountableFamily`` covers the built-in infinite families
through an exact term function plus an analytic tail bound, so every
downstream expectation can be reported as an interval rather than a silently
truncated number.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientTruncationError, InvalidInputError

# |sum(masses) - 1| beyond this rejects the input instead of renormalizing.
SUM_TOLERANCE = 1e-12

MassBlocks = tuple[tuple[float, int], ...]


def _runs(masses, counts=None, *, normalize: bool = False, tail: float | None = None):
    """Validate atom masses (each repeated counts[i] times, default once) and
    return the read-only run form (m, c): sorted distinct masses, positive counts.

    The masses lie in (0, 1] and sum to 1 within SUM_TOLERANCE, or, with a
    ``tail``, to at most 1 and at least 1 once the tail is added (a truncation
    prefix).  ``normalize`` first rescales them to total 1.
    """
    try:
        m = np.fromiter(masses, dtype=float)
        c = np.ones(m.size, np.int64) if counts is None else np.array(counts, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"masses and counts must be numbers: {exc}") from None
    if m.size == 0:
        raise InvalidInputError("distribution must have at least one atom")
    if not (c >= 1).all() or sum(c.tolist()) >= 2 ** 63:
        raise InvalidInputError("block counts must be positive integers totalling below 2^63")
    if normalize:
        total = math.fsum((m * c).tolist())
        if not (0.0 < total < math.inf):
            raise InvalidInputError("cannot normalize: total mass not positive")
        m = m / total
    bad = ~((m > 0.0) & (m <= 1.0))
    if bad.any():
        raise InvalidInputError(f"masses must lie in (0, 1], got {m[bad][0]}")
    order = np.argsort(m)
    m, c = m[order], c[order]
    starts = np.flatnonzero(np.concatenate(([True], m[1:] != m[:-1])))
    m, c = m[starts], np.add.reduceat(c, starts)
    total = math.fsum((m * c).tolist())
    if tail is None:
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise InvalidInputError(
                f"masses sum to {total!r}, off by more than {SUM_TOLERANCE}; "
                "pass normalize=True to rescale explicitly"
            )
    elif not (tail >= 0.0):
        raise InvalidInputError("tail bound must be nonnegative")
    elif total > 1.0 + SUM_TOLERANCE or total + tail < 1.0 - SUM_TOLERANCE:
        raise InvalidInputError(
            f"prefix mass {total!r} with tail bound {tail!r} does not bracket total mass 1"
        )
    m.setflags(write=False)
    c.setflags(write=False)
    return m, c


class _Runs:
    """The run-length core every finite distribution type shares."""

    __slots__ = ("m", "c")

    @classmethod
    def _of_runs(cls, m, c, tail: float | None = None):
        out = object.__new__(cls)
        out.m, out.c = _runs(m, c, tail=tail)
        return out

    @property
    def n(self) -> int:
        return sum(self.c.tolist())

    @property
    def min_mass(self) -> float:
        return float(self.m[0])

    @property
    def masses(self) -> tuple[float, ...]:
        """Every atom's mass, sorted nondecreasing."""
        return tuple(np.repeat(self.m, self.c).tolist())

    @property
    def blocks(self) -> MassBlocks:
        return tuple(zip(self.m.tolist(), self.c.tolist()))

    def mass_blocks(self) -> MassBlocks:
        return self.blocks

    def _key(self) -> tuple:
        return self.blocks

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key()!r}"


class ProbVector(_Runs):
    """A fully supported finite distribution, given atom by atom."""

    __slots__ = ()

    def __init__(self, masses, *, normalize: bool = False):
        self.m, self.c = _runs(masses, normalize=normalize)

    @staticmethod
    def uniform(n: int) -> "ProbVector":
        if n < 1:
            raise InvalidInputError("uniform distribution needs n >= 1")
        return ProbVector([1.0 / n] * n)

    # -- serialization (CSV: one mass per line; JSON: array of numbers) --

    def to_json_obj(self) -> list[float]:
        return list(self.masses)

    @staticmethod
    def from_json_obj(obj, *, normalize: bool = False) -> "ProbVector":
        if not isinstance(obj, list):
            raise InvalidInputError("ProbVector JSON must be an array of numbers")
        return ProbVector(obj, normalize=normalize)

    def to_csv_text(self) -> str:
        return "\n".join(repr(m) for m in self.masses) + "\n"

    @staticmethod
    def from_csv_text(text: str, *, normalize: bool = False) -> "ProbVector":
        vals = [float(row[0]) for row in csv.reader(io.StringIO(text)) if row]
        return ProbVector(vals, normalize=normalize)


class BlockVector(_Runs):
    """Run-length encoded distribution: equal-mass blocks of (mass, count).

    Doubling a BlockVector k times costs O(1) per block, so supports of size
    count * 2^k stay representable long after a dense vector would not.
    """

    __slots__ = ()

    def __init__(self, blocks):
        pairs = [(m, c) for m, c in blocks]
        self.m, self.c = _runs([m for m, _ in pairs], [c for _, c in pairs])

    def to_prob_vector(self, max_atoms: int = 2_000_000) -> ProbVector:
        if self.n > max_atoms:
            raise InvalidInputError(
                f"support size {self.n} exceeds max_atoms={max_atoms}"
            )
        return ProbVector._of_runs(self.m, self.c)

    def to_json_obj(self) -> dict:
        return {"blocks": [[m, c] for m, c in self.blocks]}

    @staticmethod
    def from_json_obj(obj) -> "BlockVector":
        if not isinstance(obj, dict) or "blocks" not in obj:
            raise InvalidInputError('BlockVector JSON must be {"blocks": [[mass, count], ...]}')
        return BlockVector([(float(m), int(c)) for m, c in obj["blocks"]])


class Truncation(_Runs):
    """A finite prefix of a countable family plus its analytic tail bound.

    The prefix masses sum to at most 1; ``tail`` bounds everything omitted.
    ``plateau_adequate`` records whether the prefix provably realizes the
    family's plateau structure; when unset it falls back to the conservative
    rule tail <= smallest retained mass.
    """

    __slots__ = ("tail", "source", "plateau_adequate")

    def __init__(self, masses, tail: float, source: str = "", plateau_adequate: bool | None = None):
        self.m, self.c = _runs(masses, tail=tail)
        self.tail, self.source = tail, source
        self.plateau_adequate = (
            tail <= self.min_mass if plateau_adequate is None else plateau_adequate
        )

    def _key(self) -> tuple:
        return (self.blocks, self.tail, self.source, self.plateau_adequate)


@dataclass(frozen=True)
class CountableFamily:
    """A built-in countably supported family with an exact tail bound.

    Only closed-form families are admitted (arbitrary user term functions
    cannot guarantee a valid tail bound): ``geometric``, ``dyadic-blocks``,
    and an ``explicit`` list-plus-tail-bound variant.
    """

    kind: str
    params: dict = field(default_factory=dict)
    truncation_tol: float = 1e-9

    KINDS = ("geometric", "dyadic-blocks", "explicit")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidInputError(f"unknown family kind {self.kind!r}")
        if self.kind == "geometric":
            r = self.params.get("ratio")
            if r is None or not (0.0 < r < 1.0):
                raise InvalidInputError("geometric family needs ratio in (0, 1)")
        elif self.kind == "dyadic-blocks":
            a = self.params.get("a")
            if not isinstance(a, int) or a < 2:
                raise InvalidInputError("dyadic-blocks family needs integer a >= 2")
        else:
            # the listed masses are a truncation prefix, the tail bound its tail
            _runs(self.params.get("masses") or (), tail=self.params.get("tail_bound", 0.0))

    # -- constructors --

    @staticmethod
    def geometric(ratio: float = 0.5, truncation_tol: float = 1e-9) -> "CountableFamily":
        return CountableFamily("geometric", {"ratio": float(ratio)}, truncation_tol)

    @staticmethod
    def dyadic_blocks(a: int, truncation_tol: float = 1e-9) -> "CountableFamily":
        return CountableFamily("dyadic-blocks", {"a": int(a)}, truncation_tol)

    @staticmethod
    def explicit(masses, tail_bound: float = 0.0, truncation_tol: float = 1e-9) -> "CountableFamily":
        return CountableFamily(
            "explicit",
            {"masses": tuple(float(m) for m in masses), "tail_bound": float(tail_bound)},
            truncation_tol,
        )

    # -- the defining functions --

    def term(self, i: int) -> float:
        """Mass of atom i (1-indexed, in the family's canonical enumeration)."""
        if i < 1:
            raise InvalidInputError("atom index must be >= 1")
        if self.kind == "geometric":
            r = self.params["ratio"]
            return (1.0 - r) * r ** (i - 1)
        if self.kind == "dyadic-blocks":
            a = self.params["a"]
            k = (i - 1) // a + 1
            return 0.5 ** k / a
        masses = self.params["masses"]
        if i > len(masses):
            raise InvalidInputError(
                f"explicit family lists {len(masses)} atoms, atom {i} is unknown"
            )
        return masses[i - 1]

    def tail_mass(self, n_kept: int) -> float:
        """Upper bound on the total mass of atoms beyond the first ``n_kept``."""
        if n_kept < 0:
            raise InvalidInputError("truncation index must be >= 0")
        if self.kind == "geometric":
            return self.params["ratio"] ** n_kept
        if self.kind == "dyadic-blocks":
            a = self.params["a"]
            full, part = divmod(n_kept, a)
            # remaining atoms of block full+1, then the 2^-(full+1) geometric tail
            return (a - part) * 0.5 ** (full + 1) / a + 0.5 ** (full + 1)
        masses = self.params["masses"]
        bound = self.params["tail_bound"]
        return math.fsum(masses[n_kept:]) + bound

    @property
    def descriptor(self) -> str:
        if self.kind == "geometric":
            return f"geometric(ratio={self.params['ratio']})"
        if self.kind == "dyadic-blocks":
            return f"dyadic-blocks(a={self.params['a']})"
        return f"explicit({len(self.params['masses'])} atoms)"

    # -- serialization --

    def to_json_obj(self) -> dict:
        params = dict(self.params)
        if self.kind == "explicit":
            params["masses"] = list(params["masses"])
        return {"family": self.kind, "params": params, "truncation_tol": self.truncation_tol}

    @staticmethod
    def from_json_obj(obj) -> "CountableFamily":
        if not isinstance(obj, dict) or "family" not in obj:
            raise InvalidInputError("CountableFamily JSON must carry a 'family' key")
        params = dict(obj.get("params", {}))
        if "masses" in params:
            params["masses"] = tuple(float(m) for m in params["masses"])
        if "a" in params:
            params["a"] = int(params["a"])
        return CountableFamily(obj["family"], params, float(obj.get("truncation_tol", 1e-9)))

    @staticmethod
    def from_json_text(text: str) -> "CountableFamily":
        return CountableFamily.from_json_obj(json.loads(text))


def truncate(family: CountableFamily, tol: float, max_atoms: int = 10_000_000) -> Truncation:
    """Smallest prefix of ``family`` whose tail bound drops to at most ``tol``.

    The retained atoms plus the reported tail sandwich every downstream
    expectation: tail atoms contribute at most their total mass because
    p(1-p)^t <= p.
    """
    if not (0.0 < tol < 1.0):
        raise InvalidInputError("truncation tolerance must lie in (0, 1)")
    if family.tail_mass(max_atoms) > tol:
        raise InsufficientTruncationError(
            f"{family.descriptor}: tail does not reach {tol} within {max_atoms} atoms"
        )
    lo, hi = 0, 1
    while family.tail_mass(hi) > tol:
        hi *= 2
    while lo < hi:  # smallest N with tail_mass(N) <= tol
        mid = (lo + hi) // 2
        if family.tail_mass(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    n_kept = max(hi, 1)
    # one run per block of equal atoms: a dyadic-blocks prefix is a few dozen
    # runs however many atoms it holds
    step = family.params["a"] if family.kind == "dyadic-blocks" else 1
    starts = range(1, n_kept + 1, step)
    m = [family.term(i) for i in starts]
    tail = family.tail_mass(n_kept)
    trunc = Truncation._of_runs(m, [min(step, n_kept + 1 - i) for i in starts], tail)
    if family.kind == "geometric":
        # a prefix this long realizes the family's densest factor-2 band
        ratio = family.params["ratio"]
        adequate = n_kept >= math.ceil(math.log(2.0) / math.log(1.0 / ratio)) + 1
    elif family.kind == "dyadic-blocks":
        adequate = n_kept >= family.params["a"]  # first block fully retained
    else:
        adequate = tail <= trunc.min_mass
    trunc.tail, trunc.source, trunc.plateau_adequate = tail, family.descriptor, adequate
    return trunc


def plateau_length(d: ProbVector | BlockVector | Truncation) -> int:
    """Largest number of atoms sharing one dyadic band [alpha/2, alpha).

    The count as a function of alpha is a sum of indicators of the half-open
    intervals (p_i, 2 p_i], so its supremum is attained at some alpha = 2 p_j;
    only those candidates are evaluated (exact, O(n log n)).
    """
    if isinstance(d, Truncation) and not d.plateau_adequate:
        raise InsufficientTruncationError(
            "truncation too coarse: the retained prefix does not provably "
            "realize the family's plateau structure"
        )
    prefix = np.concatenate(([0], np.cumsum(d.c)))
    hi = np.searchsorted(d.m, 2.0 * d.m, side="left")
    return int((prefix[hi] - prefix[:-1]).max())


def doubling_operator(d: ProbVector | BlockVector) -> ProbVector | BlockVector:
    """Split every atom of mass p into two atoms of mass p/2."""
    if not isinstance(d, (ProbVector, BlockVector)):
        raise InvalidInputError(f"cannot double a {type(d).__name__}")
    return type(d)._of_runs(d.m / 2.0, 2 * d.c)
