"""numerics.exact_sum and its row form against math.fsum, bit for bit, and
KernelTerms' blocks of exponents against its one-exponent path.

exact_sum promises fsum's value (and its special values and errors) for
every input; from EXACT_SUM_MIN terms on it gets there without fsum's
per-term loop, and it must not quietly fall back to that loop on the sums
the package makes.  Its three exits (certified after one extraction, after
a second one, or fsum's) each give fsum's bits.  exact_row_sums promises
the same for every row or column of a 2-D array, and a block's sums are
the one-exponent sums, whatever order the requests come in.
"""

import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from missingmass import (ProbVector, dyadic_bands, expected_missing_mass, gt_bias,
                         gt_expected_estimate, missing_mass_curve)
from missingmass import numerics
from missingmass.numerics import (EXACT_ROWS_MIN, EXACT_SUM_MIN, KernelTerms, exact_row_sums,
                                  exact_sum)

# sizes on both sides of the switch to the extraction
sizes = st.integers(EXACT_SUM_MIN - 4, EXACT_SUM_MIN + 700)
# arrays of that size with every element drawn on its own are large inputs
# by design, and slow to draw: fewer of them
large_inputs = settings(max_examples=30,
                        suppress_health_check=[HealthCheck.large_base_example,
                                               HealthCheck.data_too_large])


def outcome(fn, x):
    """fn(x) as its float's hex (a list of them for a list of floats), or the
    type and message of what it raised."""
    try:
        got = fn(x)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return [v.hex() for v in got] if isinstance(got, list) else got.hex()


def fsum_rows(block: np.ndarray) -> list[float]:
    return [math.fsum(row) for row in block.tolist()]


def cancelling(x: np.ndarray) -> np.ndarray:
    """x's cancelling mixture: x (scaled down by a power of two where its
    largest term is above 2^940) with its first two terms replaced by
    +-2^j, 2^60 times its largest term or more (and 2^-880 at least).  The
    pair cancels exactly, but it sets sigma, so the level-1 bound lies far
    above the spacing of the sum: every such sum whose sigma is in range
    takes the second extraction."""
    top = float(np.max(np.abs(x)))
    j = math.frexp(top)[1] + 60 if math.isfinite(top) else 0
    y = np.ldexp(x, -max(0, j - 1000))
    j = max(-880, min(j, 1000))
    y[:2] = [2.0 ** j, -2.0 ** j]
    return y


def rows_around(x: np.ndarray) -> np.ndarray:
    """x as the first row of a block whose other rows take the fallback, or
    lie next to it: a tie (2^j pairs [1, 2^-53] sum to halfway between 2^j
    and the float above), an all-zero row, negative zeros, x scaled toward
    the subnormals, -x, and x's cancelling mixture."""
    n = x.size
    ties = np.zeros(n)
    k = 1 << ((n // 2).bit_length() - 1)
    ties[:2 * k] = np.tile([1.0, 2.0 ** -53], k)
    return np.stack([x, ties, np.zeros(n), np.full(n, -0.0), x * 2.0 ** -1000, -x,
                     cancelling(x)])


def same_as_fsum(x: np.ndarray) -> None:
    for v in (x, cancelling(x)):
        assert outcome(exact_sum, v) == outcome(lambda v: math.fsum(v.tolist()), v)
    # the row form, by one extraction over a block of rows
    block = rows_around(x)
    assert block.size >= EXACT_ROWS_MIN
    assert outcome(exact_row_sums, block) == outcome(fsum_rows, block)
    # the column form: the same sums down the columns of the transposed block
    columns = np.ascontiguousarray(block.T)
    assert outcome(lambda b: exact_row_sums(b, axis=0), columns) == outcome(fsum_rows, block)


@st.composite
def structured_arrays(draw, exponents=st.integers(-1074, 1000)):
    """Seeded arrays of the shapes that stress a filtered sum: binary
    exponents spread over up to 200 from a drawn lowest one (so into the
    subnormals, and up to about 1e+-300), mixed signs, and whole or partial
    cancellation of a copy."""
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(exponents)
    hi = draw(st.integers(lo, min(lo + 200, 1000)))
    x = np.ldexp(rng.random(n) + 0.5, rng.integers(lo, hi + 1, n))
    if draw(st.booleans()):
        x *= rng.choice([-1.0, 1.0], n)
    cancel = draw(st.sampled_from([0.0, 0.5, 1.0]))
    if cancel:
        k = int(cancel * (n // 2))
        x[n // 2:n // 2 + k] = -x[:k]
    return rng.permutation(x)


class TestExactSum:
    @large_inputs
    @given(x=hnp.arrays(np.float64, sizes,
                        elements=st.floats(allow_nan=False, allow_infinity=False),
                        fill=st.nothing()))
    def test_any_finite_floats(self, x):
        same_as_fsum(x)

    @given(x=structured_arrays())
    def test_spread_cancelling_and_subnormal_terms(self, x):
        same_as_fsum(x)

    # exponents within 200 of the subnormals, or up to 2^1000 = 1e301
    @given(x=structured_arrays(st.integers(-1074, -874) | st.integers(800, 1000)))
    @example(x=np.full(EXACT_SUM_MIN, 1e300))
    @example(x=np.full(EXACT_SUM_MIN, 5e-324))
    def test_near_overflow_and_underflow(self, x):
        same_as_fsum(x)

    # fixed sizes in this class: from EXACT_SUM_MIN (256) on, and below it
    # (1 and 3 terms), which go to fsum whole
    @pytest.mark.parametrize("n", [256, 512, 2048])
    def test_ties_fall_back(self, n, monkeypatch):
        """n/2 = 2^k pairs [1, 2^-53] sum to 2^k + 2^(k-53), exactly halfway
        between 2^k and the float above it: the filter cannot decide that
        tie, so math.fsum does, and rounds it to the even 2^k."""
        x = np.tile([1.0, 2.0 ** -53], n // 2)
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(numerics.math, "fsum", lambda v: calls.append(1) or fsum(v))
        assert exact_sum(x) == n // 2
        assert len(calls) == 1
        monkeypatch.undo()
        same_as_fsum(x)

    @pytest.mark.parametrize("n", [1, 512, 1536])
    def test_negative_zeros_sum_to_positive_zero(self, n):
        got = exact_sum(np.full(n, -0.0))
        assert got.hex() == math.fsum([-0.0] * n).hex() == "0x0.0p+0"
        assert math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("n", [3, 513])
    def test_special_values_and_errors(self, n):
        x = np.ones(n)
        x[1] = math.inf
        assert exact_sum(x) == math.inf
        x[2] = -math.inf
        with pytest.raises(ValueError, match="-inf \\+ inf"):
            exact_sum(x)
        x[1:3] = math.nan
        assert math.isnan(exact_sum(x))
        x[:] = 1.0
        x[:3] = [1e308, 1e308, -1e308]  # finite sum, overflowing partial sum
        with pytest.raises(OverflowError):
            exact_sum(x)

    def test_no_fallback_on_a_large_curve(self, monkeypatch):
        """The 500-point curve of a 10^4-atom distribution is certified by the
        filter at every t: none of its sums reaches math.fsum."""
        rng = np.random.default_rng(8)
        d = ProbVector(rng.exponential(size=10 ** 4), normalize=True)
        ts = range(200, 100001, 200)
        want = [math.fsum(d.kernel_terms(t).tolist()) for t in ts]
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(numerics.math, "fsum", lambda v: calls.append(1) or fsum(v))
        values = missing_mass_curve(d, ts).values
        assert calls == []
        assert [v.hex() for v in values] == [w.hex() for w in want]


EXIT_TERMS = 1024  # above EXACT_SUM_MIN; three sums of them above EXACT_ROWS_MIN


def exit_sums(kind: str, seed: int) -> np.ndarray:
    """EXIT_TERMS terms whose exact sum leaves exact_sum by the given exit:
    "one" (positive terms, certified after one extraction), "two" (terms of
    either sign next to a cancelling pair +-2^40, whose sigma puts the
    level-1 bound far above the sum's spacing, certified after the second
    extraction) or "fsum" (pairs [1, 2^-53], whose sum is a tie)."""
    rng = np.random.default_rng([seed, 7])
    if kind == "one":
        return rng.random(EXIT_TERMS) ** 4 * 1e-3
    if kind == "two":
        x = rng.random(EXIT_TERMS) * rng.choice([-1.0, 1.0], EXIT_TERMS)
        x[:2] = 2.0 ** 40, -2.0 ** 40
        return rng.permutation(x)
    return rng.permutation(np.tile([1.0, 2.0 ** -53], EXIT_TERMS // 2))


class TestExits:
    """exact_sum and exact_row_sums (both axes) leave by the first exit that
    certifies a sum: the extractions and fsum calls are counted, and every
    sum is fsum's, by float.hex."""

    # (extractions, fsum calls) per sum: only a sum the level-1 filter cannot
    # certify takes the second extraction, and only one neither filter can
    # certify takes fsum
    EXITS = {"one": (1, 0), "two": (2, 0), "fsum": (2, 1)}

    @pytest.fixture
    def counted(self, monkeypatch):
        """The shapes of the arrays _extract was called on, and the lengths
        of the sequences fsum was called on."""
        calls = {"extract": [], "fsum": []}
        extract, fsum = numerics._extract, math.fsum
        monkeypatch.setattr(numerics, "_extract",
                            lambda x, *a: calls["extract"].append(x.shape) or extract(x, *a))
        monkeypatch.setattr(numerics.math, "fsum",
                            lambda v: calls["fsum"].append(len(v)) or fsum(v))
        return calls

    @pytest.mark.parametrize("kind", EXITS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_sum(self, kind, seed, counted):
        x = exit_sums(kind, seed)
        want = math.fsum(x.tolist()).hex()
        del counted["fsum"][:]  # the reference's own call
        assert exact_sum(x).hex() == want
        extractions, fsums = self.EXITS[kind]
        assert counted["extract"] == [(EXIT_TERMS,)] * extractions
        assert counted["fsum"] == [EXIT_TERMS] * fsums

    @pytest.mark.parametrize("kind", EXITS)
    @pytest.mark.parametrize("axis", [1, 0])
    def test_exact_row_sums(self, kind, axis, counted):
        rows = np.stack([exit_sums(kind, seed) for seed in range(3)])
        want = [math.fsum(v).hex() for v in rows.tolist()]
        del counted["fsum"][:]
        block = rows if axis else np.ascontiguousarray(rows.T)
        assert [v.hex() for v in exact_row_sums(block, axis=axis)] == want
        extractions, fsums = self.EXITS[kind]
        assert counted["extract"] == [block.shape] * extractions
        assert counted["fsum"] == [EXIT_TERMS] * (3 * fsums)

    @pytest.mark.parametrize("axis", [1, 0])
    def test_mixed_rows_take_their_own_exits(self, axis, counted):
        """In one block, the second extraction runs on the two sums the
        first cannot certify, and fsum on the tie alone."""
        rows = np.stack([exit_sums(kind, 3) for kind in self.EXITS])
        want = [math.fsum(v).hex() for v in rows.tolist()]
        del counted["fsum"][:]
        block = rows if axis else np.ascontiguousarray(rows.T)
        assert [v.hex() for v in exact_row_sums(block, axis=axis)] == want
        second = (2, EXIT_TERMS) if axis else (EXIT_TERMS, 2)
        assert counted["extract"] == [block.shape, second]
        assert counted["fsum"] == [EXIT_TERMS]

    @pytest.mark.parametrize("zeros", [[0.0], [-0.0], [0.0, -0.0]], ids=["+0", "-0", "mixed"])
    def test_zeros_go_to_fsum_at_once(self, zeros, counted):
        """1000 zeros (the variance sum of a constant run) take no
        extraction, and their sum has fsum's sign of zero.  In a block, zero
        sums ride along the block's first extraction and then go to fsum
        without a second."""
        x = np.resize(np.array(zeros), 1000)
        want = math.fsum(x.tolist()).hex()
        del counted["fsum"][:]
        assert exact_sum(x).hex() == want
        assert counted == {"extract": [], "fsum": [1000]}
        del counted["fsum"][:]
        block = np.stack([x] * 4)
        assert [v.hex() for v in exact_row_sums(block)] == [want] * 4
        assert counted == {"extract": [block.shape], "fsum": [1000] * 4}
        del counted["extract"][:], counted["fsum"][:]
        rows = np.stack([x, exit_sums("one", 0)[:1000]])
        want = [math.fsum(v).hex() for v in rows.tolist()]
        del counted["fsum"][:]
        for axis, block in ((1, rows), (0, np.ascontiguousarray(rows.T))):
            assert [v.hex() for v in exact_row_sums(block, axis=axis)] == want
            assert counted == {"extract": [block.shape], "fsum": [1000]}
            del counted["extract"][:], counted["fsum"][:]


def seeded_terms(runs: int, seed: int) -> KernelTerms:
    """KernelTerms over runs sorted masses spread down to 1e-300 (a mass of 1
    on one run), with counts up to 2^40."""
    rng = np.random.default_rng([runs, seed])
    m = np.sort(10.0 ** rng.uniform(-300, 0, runs))
    m[-1] = 1.0 if runs % 3 == 1 else m[-1]
    return KernelTerms(m, rng.integers(1, 2 ** 40, runs, endpoint=True))


class TestExponentBlocks:
    """KernelTerms.totals and the scans of KernelTerms.total against the
    one-exponent sum exact_sum(terms(e, k)), by float.hex."""

    # windows across the switch at 64, across 1024 (a scan then reads from
    # two consecutive blocks of 512), back across 512, and near 10^6 and
    # 10^9; no window starts inside the block its predecessor's scan kept
    WINDOWS = [range(131), range(1000, 1050), range(490, 530), range(10 ** 6 - 70, 10 ** 6 + 70),
               range(10 ** 9 - 3, 10 ** 9 + 66)]
    EXPONENTS = [e for window in WINDOWS for e in window]

    # both layouts: fewer runs than exponents a block up to 255 runs (columns),
    # and from 256 on (rows)
    @pytest.mark.parametrize("runs", [1, 2, 7, 50, 127, 128, 255, 256, 300, 511, 512, 513, 2000])
    @pytest.mark.parametrize("k", [1, 2])
    def test_blocks_equal_one_exponent_sums(self, runs, k, monkeypatch):
        terms = seeded_terms(runs, 0)
        want = [exact_sum(terms(e, k)).hex() for e in self.EXPONENTS]
        assert [v.hex() for v in terms.totals(self.EXPONENTS, k)] == want
        # a scan: its first two exponents in each window take the one-exponent
        # path, and the rest are read from aligned blocks
        scan = seeded_terms(runs, 0)
        alone = []
        monkeypatch.setattr(numerics, "exact_sum", lambda x: alone.append(1) or exact_sum(x))
        assert [scan.total(e, k).hex() for e in self.EXPONENTS] == want
        assert len(alone) == 2 * len(self.WINDOWS)

    @pytest.fixture
    def alone(self, monkeypatch):
        """The count of one-exponent sums (exact_sum calls) and of blocks
        (totals calls)."""
        calls = {"sums": 0, "blocks": 0}
        totals = KernelTerms.totals

        def sum_alone(x):
            calls["sums"] += 1
            return exact_sum(x)

        def block(self, es, k=1):
            calls["blocks"] += 1
            return totals(self, es, k)

        monkeypatch.setattr(numerics, "exact_sum", sum_alone)
        monkeypatch.setattr(KernelTerms, "totals", block)
        return calls

    @pytest.mark.parametrize("runs", [2, 50])
    @pytest.mark.parametrize("k", [1, 2])
    def test_backward_scan_inside_a_kept_block(self, runs, k, alone):
        """After a forward scan has kept the block of 0..511, a backward scan
        over it takes no one-exponent sum and builds no block."""
        terms = seeded_terms(runs, 2)
        assert terms.width == 512
        want = [exact_sum(terms(e, k)).hex() for e in range(512)]
        assert [terms.total(e, k).hex() for e in (100, 101, 102)] == want[100:103]
        alone.update(sums=0, blocks=0)
        assert [terms.total(e, k).hex() for e in range(511, -1, -1)] == want[::-1]
        assert alone == {"sums": 0, "blocks": 0}

    @pytest.mark.parametrize("runs", [2, 50])
    @pytest.mark.parametrize("k", [1, 2])
    def test_forward_scan_across_512_and_1024(self, runs, k, alone):
        """A forward scan over 500..1099 takes exactly two one-exponent sums
        (500 and 501); then 502 builds the block of 0..511, and 512 and 1024,
        each just past the kept block's end, build the next two."""
        terms = seeded_terms(runs, 3)
        want = [exact_sum(terms(e, k)).hex() for e in range(500, 1100)]
        alone.update(sums=0, blocks=0)
        assert [terms.total(e, k).hex() for e in range(500, 1100)] == want
        assert alone == {"sums": 2, "blocks": 3}

    @pytest.mark.parametrize("runs", [1, 2, 7, 50, 128, 129, 300, 2000, 10 ** 4, 10 ** 5])
    def test_block_width(self, runs):
        """A power of two up to 512 exponents whose cells fit in a slice
        buffer (or one exponent), and the widest such."""
        width = seeded_terms(runs, 1).width
        assert 1 <= width <= 512 and width & (width - 1) == 0
        assert width == 1 or 8 * width * runs <= numerics.SLICE_BYTES
        assert width == 512 or 16 * width * runs > numerics.SLICE_BYTES  # the widest that fits

    def test_no_block_leaks_across_requests(self):
        """Scans of one form after another over the same exponents, scans
        that jump back, and scans that alternate between two distributions
        read no sum of another exponent, k or distribution."""
        rng = np.random.default_rng(4)
        dists = [ProbVector(rng.exponential(size=n), normalize=True) for n in (30, 31)]
        forms = [(expected_missing_mass, 1, 0), (gt_expected_estimate, 1, 1), (gt_bias, 2, 1)]
        scans = [(0, range(1, 80)), (2, range(60, 90)), (1, range(60, 90)), (0, range(90, 60, -1)),
                 (2, range(1, 140)), (0, range(5, 140)), (1, range(10 ** 6, 10 ** 6 + 80))]
        for alternate in (False, True):
            for form, ts in scans:
                f, k, s = forms[form]
                for i, t in enumerate(ts):
                    d = dists[i // 7 % 2 if alternate else 0]  # runs of seven on each
                    want = exact_sum(d.kernel_terms(t - s, k))
                    assert f(d, t).hex() == want.hex(), (f.__name__, t, alternate)
        # one distribution, the three forms interleaved at each t
        d = dists[1]
        for t in [*range(1, 140), 70, 71, 72, *range(30, 0, -1)]:
            got = [f(d, t).hex() for f, _, _ in forms]
            assert got == [exact_sum(d.kernel_terms(t - s, k)).hex() for _, k, s in forms], t


def test_large_closed_forms_match_fsum():
    """E[U_t] and every band of a 10^4-atom distribution, against fsum over
    the same terms and bands taken by boolean masks."""
    rng = np.random.default_rng(11)
    d = ProbVector(rng.random(10 ** 4) ** 4, normalize=True)
    for t in (1, 2, 63, 64, 1000, 10 ** 5):
        terms = d.kernel_terms(t)
        assert expected_missing_mass(d, t).hex() == math.fsum(terms.tolist()).hex()
        j = np.maximum(np.frexp(d.m * (t + 1))[1] - 1, 0)
        j[d.m < 1.0 / (t + 1)] = -1
        want = [(int(b), int(d.c[j == b].sum()), math.fsum(terms[j == b].tolist()).hex())
                for b in np.unique(j)]
        assert [(b, c, v.hex()) for b, c, v in dyadic_bands(d, t)] == want
