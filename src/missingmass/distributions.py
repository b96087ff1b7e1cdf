"""Finite and countable discrete distributions and their band structure.

Every finite distribution is stored in one run-length form: the sorted
distinct masses ``m`` and their multiplicities ``c``, both read-only numpy
arrays, built by one function from masses checked by one validator
(``validate_masses``, which ``cover.PointCloud`` shares).  ``ProbVector`` (a probability
vector given atom by atom), ``BlockVector`` (equal-mass blocks, for supports
blown up by factors of 2^k) and ``Truncation`` (listed atoms plus a bound on
the mass of the atoms not listed: a prefix ``truncate`` cut from a countable
family, or an explicit list given directly or in a JSON file) are thin front
doors onto that form: they differ in how they are built and serialized, not
in how they are evaluated.  ``CountableFamily`` covers the built-in infinite
families (geometric, dyadic-blocks) through an exact term function plus an
analytic tail bound, so every downstream expectation can be reported as an
interval rather than a silently truncated number.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientTruncationError,
    InvalidInputError,
    require_int,
    require_real,
    require_reals,
)
from .numerics import KernelTerms, exact_sum

# |sum(masses) - 1| beyond this rejects the input instead of renormalizing.
SUM_TOLERANCE = 1e-12
TRUNCATE_MAX_ATOMS = 10_000_000  # longest prefix truncate will keep


class MassSumError(InvalidInputError):
    """Masses that do not sum to 1: the one mass error that normalize=True
    fixes, so the constructors that take normalize name it."""

    def hinted(self) -> InvalidInputError:
        return InvalidInputError(f"{self}; pass normalize=True to rescale explicitly")

MassBlocks = tuple[tuple[float, int], ...]


def csv_floats(cells: list[str], row: str) -> list[float]:
    """The cells of one CSV row as floats; a cell that float() cannot read
    is an InvalidInputError naming the row and the cell."""
    out = []
    for v in cells:
        try:
            out.append(float(v))
        except ValueError:
            raise InvalidInputError(f"{row}: {v!r} is not a number") from None
    return out


def validate_masses(masses, counts=None, *, normalize: bool = False, tail: float | None = None):
    """Validate atom masses, each repeated counts[i] times (default once), and
    return them in the order given as float and int64 arrays (m, c).

    Each mass is a real number (a float array passes by its dtype; "0.5" and
    true are errors, never coerced); the masses lie in (0, 1] and sum to 1
    within SUM_TOLERANCE, or, with a ``tail``, to at most 1 and at least 1
    once the tail is added (a truncation prefix).  ``normalize`` first
    rescales them to total 1.  Counts must be integers >= 1 (an int64 array
    passes by its dtype) totalling below 2^63.
    """
    if counts is not None and not (isinstance(counts, np.ndarray) and counts.dtype == np.int64):
        counts = [require_int(k, "block count", 1) for k in counts]  # 2.5 is an error, not 2
    if not (isinstance(masses, np.ndarray) and masses.dtype.kind == "f"):
        try:
            masses = list(masses)
        except TypeError:
            raise InvalidInputError(f"masses must be a list of numbers, got {masses!r}") from None
        require_reals(masses, "masses")
    if tail is not None:
        require_real(tail, "tail bound", 0.0, math.inf)
    try:
        m = np.fromiter(masses, dtype=float)
        c = np.ones(m.size, np.int64) if counts is None else np.asarray(counts, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"masses and counts must be numbers: {exc}") from None
    if m.size == 0:
        raise InvalidInputError("distribution must have at least one atom")
    if not (c >= 1).all() or sum(c.tolist()) >= 2 ** 63:
        raise InvalidInputError("block counts must be positive integers totalling below 2^63")
    if normalize:
        total = exact_sum(m * c)
        if not (0.0 < total < math.inf):
            raise InvalidInputError("cannot normalize: total mass not positive")
        m = m / total
    bad = ~((m > 0.0) & (m <= 1.0))
    if bad.any():
        raise InvalidInputError(f"masses must lie in (0, 1], got {m[bad][0]}")
    total = exact_sum(m * c)
    if tail is None:
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise MassSumError(f"masses sum to {total!r}, off by more than {SUM_TOLERANCE}")
    elif total > 1.0 + SUM_TOLERANCE or total + tail < 1.0 - SUM_TOLERANCE:
        raise InvalidInputError(
            f"prefix mass {total!r} with tail bound {tail!r} does not bracket total mass 1"
        )
    return m, c


def _runs(masses, counts=None, *, normalize: bool = False, tail: float | None = None):
    """validate_masses, then the read-only run form (m, c): sorted distinct
    masses and their positive counts."""
    m, c = validate_masses(masses, counts, normalize=normalize, tail=tail)
    order = np.argsort(m)
    m, c = m[order], c[order]
    starts = np.flatnonzero(np.concatenate(([True], m[1:] != m[:-1])))
    m, c = m[starts], np.add.reduceat(c, starts)
    m.setflags(write=False)
    c.setflags(write=False)
    return m, c


class _Runs:
    """The run-length core every finite distribution type shares: the runs
    ``m`` and ``c``, ``n``, the cached ``kernel_terms``, ``masses``,
    ``blocks``, equality, hash and repr."""

    __slots__ = ("m", "c", "_kernel_terms")

    @classmethod
    def _of_runs(cls, m, c, tail: float | None = None):
        out = object.__new__(cls)
        out.m, out.c = _runs(m, c, tail=tail)
        return out

    @property
    def n(self) -> int:
        return sum(self.c.tolist())

    @property
    def kernel_terms(self) -> KernelTerms:
        """The terms c m^k (1 - m)^e of every closed form, built on first use
        and kept: m and c are read-only, so the cache never goes stale."""
        try:
            return self._kernel_terms
        except AttributeError:  # an unset slot: the first use
            terms = self._kernel_terms = KernelTerms(self.m, self.c)
            return terms

    @property
    def masses(self) -> tuple[float, ...]:
        """Every atom's mass, sorted nondecreasing."""
        return tuple(np.repeat(self.m, self.c).tolist())

    @property
    def blocks(self) -> MassBlocks:
        return tuple(zip(self.m.tolist(), self.c.tolist()))

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
        try:
            self.m, self.c = _runs(masses, normalize=normalize)
        except MassSumError as exc:
            raise exc.hinted() from None

    @staticmethod
    def uniform(n: int) -> "ProbVector":
        n = require_int(n, "support size n", 1)
        return ProbVector._of_runs([1.0 / n], [n])

    # -- serialization (CSV: one mass per line; JSON: array of numbers) --

    def to_json_obj(self) -> list[float]:
        return list(self.masses)

    @staticmethod
    def from_json_obj(obj) -> "ProbVector":
        if not isinstance(obj, list):
            raise InvalidInputError("ProbVector JSON must be an array of numbers")
        return ProbVector._of_runs(obj, None)

    def to_csv_text(self) -> str:
        return "\n".join(repr(m) for m in self.masses) + "\n"

    @staticmethod
    def from_csv_text(text: str) -> "ProbVector":
        """One mass per row, blank rows skipped; a row of any other number of
        cells, or a cell that is not a number, is refused by its row."""
        vals = []
        for i, row in enumerate((r for r in csv.reader(io.StringIO(text)) if r), 1):
            if len(row) != 1:
                raise InvalidInputError(
                    f"ProbVector CSV row {i} must hold one mass, got {len(row)} cells")
            vals += csv_floats(row, f"ProbVector CSV row {i}")
        return ProbVector._of_runs(vals, None)


class BlockVector(_Runs):
    """Run-length encoded distribution: equal-mass blocks of (mass, count).

    Doubling a BlockVector k times costs O(1) per block, so supports of size
    count * 2^k stay representable long after a dense vector would not.
    """

    __slots__ = ()

    def __init__(self, blocks):
        try:
            pairs = [(m, c) for m, c in blocks]
        except (TypeError, ValueError):
            raise InvalidInputError("blocks must be a list of [mass, count] pairs") from None
        self.m, self.c = _runs([m for m, _ in pairs], [c for _, c in pairs])

    def to_json_obj(self) -> dict:
        return {"blocks": [[m, c] for m, c in self.blocks]}

    @staticmethod
    def from_json_obj(obj) -> "BlockVector":
        if not isinstance(obj, dict) or "blocks" not in obj:
            raise InvalidInputError('BlockVector JSON must be {"blocks": [[mass, count], ...]}')
        return BlockVector(obj["blocks"])


class Truncation(_Runs):
    """Listed atoms plus a bound ``tail`` on the total mass of the rest.

    The listed masses sum to at most 1, and to at least 1 with the tail.
    ``plateau_adequate`` records whether the listed atoms provably realize
    the plateau length of the whole support.  ``truncate`` proves it for a
    closed-form family's prefix.  Built directly, a Truncation is adequate
    only when its tail is 0: atoms that are not listed, however little mass
    they carry, can put any number of atoms into one band.
    """

    __slots__ = ("tail", "plateau_adequate")

    def __init__(self, masses, tail: float):
        self.m, self.c = _runs(masses, tail=tail)
        self.tail, self.plateau_adequate = tail, tail == 0

    def _key(self) -> tuple:
        return (self.blocks, self.tail, self.plateau_adequate)

    @staticmethod
    def from_json_obj(obj) -> "Truncation":
        """Every atom of ``{"family": "explicit", "params": {"masses": [...],
        "tail_bound": b}}`` (``tail_bound`` 0 when not given)."""
        if not isinstance(obj, dict) or obj.get("family") != "explicit":
            raise InvalidInputError('Truncation JSON must carry "family": "explicit"')
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise InvalidInputError("explicit 'params' must be a JSON object")
        masses = params.get("masses")
        if not isinstance(masses, list):
            raise InvalidInputError("explicit 'masses' must be a JSON array of numbers")
        return Truncation(masses, params.get("tail_bound", 0.0))


@dataclass(frozen=True)
class CountableFamily:
    """A built-in countably supported family with an exact tail bound.

    Only closed-form families are admitted (arbitrary user term functions
    cannot guarantee a valid tail bound): ``geometric`` and ``dyadic-blocks``.
    Listed atoms with a tail bound are a ``Truncation``.  A truncation
    tolerance is passed with each call, not held.
    Families are equal and hash alike by kind and canonical params.
    """

    kind: str
    params: dict = field(default_factory=dict)

    KINDS = ("geometric", "dyadic-blocks")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidInputError(f"unknown family kind {self.kind!r}")
        # validate once, then keep only the canonical params the family reads
        if self.kind == "geometric":
            ratio = require_real(self.params.get("ratio"), "geometric ratio", 0.0, 1.0, "()")
            params = {"ratio": float(ratio)}
        else:
            params = {"a": require_int(self.params.get("a"), "dyadic-blocks width a", 2)}
        object.__setattr__(self, "params", params)

    def __hash__(self) -> int:
        # params is a dict, but canonical: one key, a float or an int
        return hash((self.kind, tuple(self.params.items())))

    # -- constructors --

    @staticmethod
    def geometric(ratio: float = 0.5) -> "CountableFamily":
        return CountableFamily("geometric", {"ratio": ratio})

    @staticmethod
    def dyadic_blocks(a: int) -> "CountableFamily":
        return CountableFamily("dyadic-blocks", {"a": a})

    # -- the defining functions --

    def term(self, i: int) -> float:
        """Mass of atom i (1-indexed, in the family's canonical enumeration)."""
        i = require_int(i, "atom index", 1)
        if self.kind == "geometric":
            r = self.params["ratio"]
            return (1.0 - r) * r ** (i - 1)
        a = self.params["a"]
        k = (i - 1) // a + 1
        return 0.5 ** k / a

    def tail_mass(self, n_kept: int) -> float:
        """Upper bound on the total mass of atoms beyond the first ``n_kept``."""
        n_kept = require_int(n_kept, "truncation index", 0)
        if self.kind == "geometric":
            return self.params["ratio"] ** n_kept
        a = self.params["a"]
        full, part = divmod(n_kept, a)
        # remaining atoms of block full+1, then the 2^-(full+1) geometric tail
        return (a - part) * 0.5 ** (full + 1) / a + 0.5 ** (full + 1)

    @property
    def descriptor(self) -> str:
        if self.kind == "geometric":
            return f"geometric(ratio={self.params['ratio']})"
        return f"dyadic-blocks(a={self.params['a']})"

    # -- serialization --

    def to_json_obj(self) -> dict:
        return {"family": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_json_obj(obj) -> "CountableFamily":
        """The family of a JSON object; keys it does not read are ignored."""
        if not isinstance(obj, dict) or "family" not in obj:
            raise InvalidInputError("CountableFamily JSON must carry a 'family' key")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise InvalidInputError("family 'params' must be a JSON object")
        return CountableFamily(obj["family"], params)


def truncate(family: CountableFamily, tol: float) -> Truncation:
    """Smallest prefix of ``family`` whose tail bound drops to at most ``tol``.

    The retained atoms plus the reported tail sandwich every downstream
    expectation: tail atoms contribute at most their total mass because
    p(1-p)^t <= p.
    """
    require_real(tol, "truncation tolerance", 0.0, 1.0, "()")
    if family.tail_mass(TRUNCATE_MAX_ATOMS) > tol:
        raise InsufficientTruncationError(
            f"{family.descriptor}: tail does not reach {tol} within {TRUNCATE_MAX_ATOMS} atoms"
        )
    lo, n_kept = 1, 1  # tail_mass(0) is 1, above every tol
    while family.tail_mass(n_kept) > tol:
        n_kept *= 2
    while lo < n_kept:  # smallest N with tail_mass(N) <= tol
        mid = (lo + n_kept) // 2
        if family.tail_mass(mid) <= tol:
            n_kept = mid
        else:
            lo = mid + 1
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
    else:
        adequate = n_kept >= family.params["a"]  # first block fully retained
    trunc.tail, trunc.plateau_adequate = tail, adequate
    return trunc


def plateau_length(d: ProbVector | BlockVector | Truncation) -> int:
    """Largest number of atoms sharing one dyadic band [alpha/2, alpha).

    The count as a function of alpha is a sum of indicators of the half-open
    intervals (p_i, 2 p_i], so its supremum is attained at some alpha = 2 p_j;
    only those candidates are evaluated (exact, O(n log n)).
    """
    if isinstance(d, Truncation) and not d.plateau_adequate:
        raise InsufficientTruncationError(
            f"plateau length unproven: the atoms not listed (mass up to {d.tail!r}) "
            "can put any number of atoms into one band"
        )
    prefix = np.concatenate(([0], np.cumsum(d.c)))
    hi = np.searchsorted(d.m, 2.0 * d.m, side="left")
    return int((prefix[hi] - prefix[:-1]).max())


def doubling_operator(d: ProbVector | BlockVector) -> ProbVector | BlockVector:
    """Split every atom of mass p into two atoms of mass p/2."""
    if not isinstance(d, (ProbVector, BlockVector)):
        raise InvalidInputError(f"cannot double a {type(d).__name__}")
    return type(d)._of_runs(d.m / 2.0, 2 * d.c)
