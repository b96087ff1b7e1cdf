"""Finite and countable discrete distributions and their band structure.

The two workhorse representations are ``ProbVector`` (a dense probability
vector, masses sorted nondecreasing) and ``BlockVector`` (run-length encoded
equal-mass blocks, needed when constructions blow the support up by factors
of 2^k).  ``CountableFamily`` covers the built-in infinite families through
an exact term function plus an analytic tail bound, so every downstream
expectation can be reported as an interval rather than a silently truncated
number.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from dataclasses import dataclass, field

from .errors import InsufficientTruncationError, InvalidInputError
from .numerics import fsum

# |sum(masses) - 1| beyond this rejects the input instead of renormalizing.
SUM_TOLERANCE = 1e-12

MassBlocks = tuple[tuple[float, int], ...]


def _group_sorted(masses) -> MassBlocks:
    """Collapse a nondecreasing mass sequence into (mass, count) runs."""
    blocks: list[tuple[float, int]] = []
    for m in masses:
        if blocks and blocks[-1][0] == m:
            blocks[-1] = (m, blocks[-1][1] + 1)
        else:
            blocks.append((m, 1))
    return tuple(blocks)


@dataclass(frozen=True)
class ProbVector:
    """A fully supported finite distribution, masses sorted nondecreasing."""

    masses: tuple[float, ...]

    def __init__(self, masses, *, normalize: bool = False):
        vals = [float(m) for m in masses]
        if not vals:
            raise InvalidInputError("distribution must have at least one atom")
        if normalize:
            total = fsum(vals)
            if total <= 0.0 or not math.isfinite(total):
                raise InvalidInputError("cannot normalize: total mass not positive")
            vals = [v / total for v in vals]
        for v in vals:
            if not (v > 0.0):
                raise InvalidInputError(f"masses must be strictly positive, got {v}")
            if v > 1.0:
                raise InvalidInputError(f"masses must lie in (0, 1], got {v}")
        total = fsum(vals)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise InvalidInputError(
                f"masses sum to {total!r}, off by more than {SUM_TOLERANCE}; "
                "pass normalize=True to rescale explicitly"
            )
        object.__setattr__(self, "masses", tuple(sorted(vals)))

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def min_mass(self) -> float:
        return self.masses[0]

    def mass_blocks(self) -> MassBlocks:
        return _group_sorted(self.masses)

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


@dataclass(frozen=True)
class BlockVector:
    """Run-length encoded distribution: equal-mass blocks of (mass, count).

    Doubling a BlockVector k times costs O(1) per block, so supports of size
    count * 2^k stay representable long after a dense vector would not.
    """

    blocks: MassBlocks

    def __init__(self, blocks):
        merged: dict[float, int] = {}
        for m, c in blocks:
            m = float(m)
            c = int(c)
            if not (m > 0.0) or m > 1.0:
                raise InvalidInputError(f"block mass must be in (0, 1], got {m}")
            if c < 1:
                raise InvalidInputError(f"block count must be positive, got {c}")
            merged[m] = merged.get(m, 0) + c
        if not merged:
            raise InvalidInputError("distribution must have at least one block")
        total = fsum(m * c for m, c in merged.items())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise InvalidInputError(
                f"block masses sum to {total!r}, off by more than {SUM_TOLERANCE}"
            )
        object.__setattr__(self, "blocks", tuple(sorted(merged.items())))

    @property
    def n(self) -> int:
        return sum(c for _, c in self.blocks)

    @property
    def min_mass(self) -> float:
        return self.blocks[0][0]

    def mass_blocks(self) -> MassBlocks:
        return self.blocks

    def to_prob_vector(self, max_atoms: int = 2_000_000) -> ProbVector:
        if self.n > max_atoms:
            raise InvalidInputError(
                f"support size {self.n} exceeds max_atoms={max_atoms}"
            )
        dense: list[float] = []
        for m, c in self.blocks:
            dense.extend([m] * c)
        return ProbVector(dense)

    def to_json_obj(self) -> dict:
        return {"blocks": [[m, c] for m, c in self.blocks]}

    @staticmethod
    def from_json_obj(obj) -> "BlockVector":
        if not isinstance(obj, dict) or "blocks" not in obj:
            raise InvalidInputError('BlockVector JSON must be {"blocks": [[mass, count], ...]}')
        return BlockVector([(float(m), int(c)) for m, c in obj["blocks"]])


@dataclass(frozen=True)
class Truncation:
    """A finite prefix of a countable family plus its analytic tail bound.

    The prefix masses sum to at most 1; ``tail`` bounds everything omitted.
    ``plateau_adequate`` records whether the prefix provably realizes the
    family's plateau structure; when unset it falls back to the conservative
    rule tail <= smallest retained mass.
    """

    masses: tuple[float, ...]
    tail: float
    source: str = ""
    plateau_adequate: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(sorted(float(m) for m in self.masses)))
        if not self.masses:
            raise InvalidInputError("truncation retained no atoms")
        if self.tail < 0.0:
            raise InvalidInputError("tail bound must be nonnegative")
        if self.plateau_adequate is None:
            object.__setattr__(self, "plateau_adequate", self.tail <= self.masses[0])

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def min_mass(self) -> float:
        return self.masses[0]

    def mass_blocks(self) -> MassBlocks:
        return _group_sorted(self.masses)


Distribution = ProbVector | BlockVector
Truncatable = ProbVector | BlockVector | Truncation


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
            masses = self.params.get("masses")
            bound = self.params.get("tail_bound", 0.0)
            if not masses:
                raise InvalidInputError("explicit family needs a nonempty mass list")
            if any(not (m > 0.0) for m in masses):
                raise InvalidInputError("explicit masses must be strictly positive")
            if bound < 0.0:
                raise InvalidInputError("explicit tail bound must be nonnegative")
            listed = fsum(masses)
            if listed > 1.0 + SUM_TOLERANCE:
                raise InvalidInputError("explicit masses exceed total mass 1")
            if listed + bound < 1.0 - SUM_TOLERANCE:
                raise InvalidInputError(
                    "explicit masses + tail bound fall short of total mass 1"
                )

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
        return fsum(masses[n_kept:]) + bound

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
    masses = [family.term(i) for i in range(1, n_kept + 1)]
    tail = family.tail_mass(n_kept)
    if family.kind == "geometric":
        # a prefix this long realizes the family's densest factor-2 band
        ratio = family.params["ratio"]
        adequate = n_kept >= math.ceil(math.log(2.0) / math.log(1.0 / ratio)) + 1
    elif family.kind == "dyadic-blocks":
        adequate = n_kept >= family.params["a"]  # first block fully retained
    else:
        adequate = tail <= min(masses)
    return Truncation(tuple(masses), tail, family.descriptor, adequate)


def plateau_length(d: Truncatable) -> int:
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
    blocks = d.mass_blocks()
    values = [m for m, _ in blocks]
    prefix = [0]
    for _, c in blocks:
        prefix.append(prefix[-1] + c)
    best = 0
    for j, v in enumerate(values):
        hi = bisect.bisect_left(values, 2.0 * v)
        best = max(best, prefix[hi] - prefix[j])
    return best


def doubling_operator(d: Distribution) -> Distribution:
    """Split every atom of mass p into two atoms of mass p/2."""
    if isinstance(d, BlockVector):
        return BlockVector([(m / 2.0, 2 * c) for m, c in d.blocks])
    if isinstance(d, ProbVector):
        halves: list[float] = []
        for m in d.masses:
            halves.append(m / 2.0)
            halves.append(m / 2.0)
        return ProbVector(halves)
    raise InvalidInputError(f"cannot double a {type(d).__name__}")
