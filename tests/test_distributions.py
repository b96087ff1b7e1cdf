import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from missingmass import (
    BlockVector,
    CountableFamily,
    InsufficientTruncationError,
    InvalidInputError,
    PointCloud,
    ProbVector,
    Truncation,
    doubling_operator,
    expected_missing_mass_interval,
    plateau_length,
    truncate,
    verify_bias,
)
from missingmass.distributions import validate_masses

from conftest import prob_vectors


def plateau_dense_scan(masses, points=20001):
    """Independent oracle: count the band occupancy on a dense alpha grid."""
    best = 0
    for k in range(1, points):
        alpha = 2.0 * k / points
        best = max(best, sum(1 for m in masses if alpha / 2 <= m < alpha))
    return best


class TestProbVector:
    def test_sorts_and_validates(self):
        d = ProbVector([0.5, 0.2, 0.3])
        assert d.masses == (0.2, 0.3, 0.5)
        assert d.n == 3

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            ProbVector([])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            ProbVector([0.0, 1.0])
        with pytest.raises(InvalidInputError):
            ProbVector([-0.5, 1.5])

    def test_rejects_bad_sum_without_normalize(self):
        with pytest.raises(InvalidInputError):
            ProbVector([0.5, 0.6])
        d = ProbVector([0.5, 0.6], normalize=True)
        assert math.isclose(sum(d.masses), 1.0, abs_tol=1e-12)

    def test_sum_error_names_normalize_only_where_it_exists(self):
        # the constructors take normalize=True and say so; file loaders and
        # block lists do not take it, so their message states the sum alone
        for build in (lambda: ProbVector([0.5, 0.4]),
                      lambda: PointCloud([0.5, 0.4], coords=[[0.0], [1.0]])):
            with pytest.raises(InvalidInputError, match="pass normalize=True"):
                build()
        for load in (lambda: ProbVector.from_json_obj([0.5, 0.4]),
                     lambda: ProbVector.from_csv_text("0.5\n0.4\n"),
                     lambda: BlockVector([(0.5, 1), (0.4, 1)]),
                     lambda: PointCloud.from_json_obj({"points": [[0], [1]], "masses": [0.5, 0.4]}),
                     lambda: PointCloud.from_csv_text("id,mass,x1\na,0.5,0\nb,0.4,1\n")):
            with pytest.raises(InvalidInputError, match="masses sum to 0.9") as exc:
                load()
            assert "normalize" not in str(exc.value)

    def test_uniform(self):
        d = ProbVector.uniform(7)
        assert d.n == 7
        assert all(m == d.masses[0] for m in d.masses)
        with pytest.raises(InvalidInputError):
            ProbVector.uniform(0)

    def test_csv_json_roundtrip(self):
        d = ProbVector([0.125, 0.375, 0.5])
        assert ProbVector.from_csv_text(d.to_csv_text()) == d
        assert ProbVector.from_json_obj(json.loads(json.dumps(d.to_json_obj()))) == d

    @pytest.mark.parametrize("text, message", [
        ("0.5,0.9\n0.5,0.1\n", "row 1 must hold one mass, got 2 cells"),
        ("0.5\n\n0.25,\n0.25\n", "row 2 must hold one mass, got 2 cells"),
        ("mass\n0.5\n0.5\n", "row 1: 'mass' is not a number"),
        ("0.5\nhalf\n", "row 2: 'half' is not a number"),
    ], ids=["two-cells", "trailing-comma", "header-row", "word"])
    def test_csv_row_not_one_number_rejected(self, text, message):
        # each row is exactly one mass: nothing is dropped or coerced
        with pytest.raises(InvalidInputError, match=f"ProbVector CSV {message}"):
            ProbVector.from_csv_text(text)

    def test_mass_blocks_groups_ties(self):
        d = ProbVector([0.25, 0.25, 0.5])
        assert d.blocks == ((0.25, 2), (0.5, 1))


class TestBlockVector:
    def test_merges_equal_masses(self):
        b = BlockVector([(0.25, 1), (0.25, 1), (0.5, 1)])
        assert b.blocks == ((0.25, 2), (0.5, 1))
        assert b.n == 3

    def test_expansion_matches(self):
        b = BlockVector([(0.125, 4), (0.5, 1)])
        assert b.masses == (0.125, 0.125, 0.125, 0.125, 0.5)

    def test_expansion_cap(self):
        b = BlockVector([(2.0 ** -21, 2 ** 21)])  # past sampling.MAX_ROW_CELLS atoms
        with pytest.raises(InvalidInputError):
            verify_bias(b, 10, 1000, 0)

    def test_json_roundtrip(self):
        b = BlockVector([(0.25, 2), (0.5, 1)])
        assert BlockVector.from_json_obj(b.to_json_obj()) == b

    def test_rejects_bad_total(self):
        with pytest.raises(InvalidInputError):
            BlockVector([(0.25, 3)])


class TestRunLengthCore:
    def test_front_doors_share_one_form(self):
        dense = ProbVector([0.5, 0.125, 0.25, 0.125])
        blocks = BlockVector([(0.25, 1), (0.125, 2), (0.5, 1)])
        trunc = Truncation((0.125, 0.25, 0.125), 0.5)
        for d in (dense, blocks, trunc):
            assert d.m.tolist() == [0.125, 0.25, 0.5][: len(d.m)]
            assert d.c.tolist() == [2, 1, 1][: len(d.c)]
            assert not d.m.flags.writeable and not d.c.flags.writeable
        assert dense.blocks == blocks.blocks
        assert dense.masses == blocks.masses == (0.125, 0.125, 0.25, 0.5)
        assert dense != blocks and dense == ProbVector(list(reversed(dense.masses)))

    def test_dyadic_prefix_is_one_run_per_block(self):
        trunc = truncate(CountableFamily.dyadic_blocks(64), 1e-12)
        assert len(trunc.blocks) == 40
        assert [c for _, c in trunc.blocks[1:]] == [64] * 39  # smallest mass: the partial block
        assert trunc.n == 39 * 64 + trunc.blocks[0][1]
        assert trunc.masses[-64:] == (1 / 128,) * 64

    def test_truncation_must_bracket_total_mass(self):
        with pytest.raises(InvalidInputError):
            Truncation((0.75, 0.5), 0.0)  # prefix above 1
        with pytest.raises(InvalidInputError):
            Truncation((0.5, 0.25), 0.125)  # prefix + tail short of 1
        with pytest.raises(InvalidInputError):
            Truncation((0.5,), -0.5)

    def test_rejects_non_numbers(self):
        with pytest.raises(InvalidInputError):
            ProbVector([0.5, None])
        with pytest.raises(InvalidInputError):
            ProbVector([[0.5], [0.5]])

    def test_count_beyond_int64_is_clean_error(self):
        with pytest.raises(InvalidInputError):
            BlockVector([(2.0 ** -64, 2 ** 64)])
        with pytest.raises(InvalidInputError):  # two runs that merge past the cap
            BlockVector([(2.0 ** -64, 2 ** 62), (2.0 ** -64, 2 ** 62), (0.5, 1)])
        near_cap = BlockVector([(2.0 ** -62, 2 ** 62)])
        with pytest.raises(InvalidInputError):
            doubling_operator(near_cap)

    def test_non_iterable_masses(self):
        with pytest.raises(InvalidInputError, match="list of numbers"):
            validate_masses(0.5)
        with pytest.raises(InvalidInputError, match="list of numbers"):
            ProbVector(None)

    def test_normalize_all_zero(self):
        with pytest.raises(InvalidInputError, match="not positive"):
            validate_masses([0.0, 0.0], normalize=True)
        with pytest.raises(InvalidInputError, match="not positive"):
            ProbVector([0.0, 0.0, 0.0], normalize=True)

    def test_hash_follows_equality(self):
        dense = ProbVector([0.5, 0.25, 0.25])
        assert hash(dense) == hash(ProbVector([0.25, 0.5, 0.25]))
        assert len({dense, ProbVector([0.25, 0.25, 0.5])}) == 1
        blocks = BlockVector([(0.25, 2), (0.5, 1)])
        assert hash(blocks) == hash(BlockVector([(0.5, 1), (0.25, 2)]))
        assert len({dense, blocks}) == 2  # equal runs, different types
        trunc = Truncation((0.5, 0.25), 0.25)
        assert hash(trunc) == hash(Truncation((0.25, 0.5), 0.25))
        assert len({trunc, Truncation((0.5, 0.25), 0.25)}) == 1

    def test_truncation_equality_reads_every_field(self):
        trunc = Truncation((0.5, 0.25), 0.25)
        assert trunc == Truncation((0.5, 0.25), 0.25)
        assert trunc != Truncation((0.5, 0.25, 0.125), 0.125)  # other atoms
        assert trunc != Truncation((0.5, 0.25), 0.5)  # same atoms, other tail
        assert trunc != ProbVector([0.5, 0.25, 0.25])
        from_family = truncate(CountableFamily.geometric(0.5), 0.25)
        assert from_family.blocks == ((0.25, 1), (0.5, 1)) and from_family.tail == 0.25
        assert from_family.plateau_adequate and not trunc.plateau_adequate
        assert from_family != trunc  # only the plateau flag differs
        assert from_family._key() == (trunc.blocks, 0.25, True)

    @pytest.mark.parametrize("loader, obj, message", [
        (ProbVector.from_json_obj, {"masses": [1.0]}, "array of numbers"),
        (ProbVector.from_json_obj, 1.0, "array of numbers"),
        (BlockVector.from_json_obj, {"atoms": [[1.0, 1]]}, "blocks"),
        (BlockVector.from_json_obj, [[1.0, 1]], "blocks"),
        (CountableFamily.from_json_obj, {"params": {"ratio": 0.5}}, "'family' key"),
        (CountableFamily.from_json_obj, ["geometric"], "'family' key"),
        (Truncation.from_json_obj, [0.5, 0.5], '"family": "explicit"'),
        (Truncation.from_json_obj, {"family": "geometric", "params": {"ratio": 0.5}},
         '"family": "explicit"'),
        (Truncation.from_json_obj, {"family": "explicit", "params": [0.5, 0.5]},
         "explicit 'params' must be a JSON object"),
        (Truncation.from_json_obj, {"family": "explicit", "params": {}},
         "explicit 'masses' must be a JSON array"),
        (Truncation.from_json_obj, {"family": "explicit", "params": {"masses": 0.5}},
         "explicit 'masses' must be a JSON array"),
    ], ids=["prob-object", "prob-number", "block-no-key", "block-list", "family-no-key",
            "family-list", "explicit-list", "explicit-other-family", "explicit-params-list",
            "explicit-no-masses", "explicit-masses-number"])
    def test_json_shape_rejected(self, loader, obj, message):
        with pytest.raises(InvalidInputError, match=message):
            loader(obj)


class TestPlateauLength:
    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_uniform_is_n(self, n):
        assert plateau_length(ProbVector.uniform(n)) == n

    def test_spec_examples(self):
        # halving masses never share a band
        trunc = truncate(CountableFamily.geometric(0.5), 2.0 ** -40)
        assert plateau_length(trunc) == 1
        assert plateau_dense_scan(trunc.masses) == 1
        # dyadic-block family has plateau length exactly a
        assert plateau_length(truncate(CountableFamily.dyadic_blocks(3), 1e-7)) == 3

    @given(prob_vectors())
    def test_matches_dense_scan_lower_bound(self, d):
        # the dense scan can only see alphas on its grid, so it never exceeds
        assert plateau_length(d) >= plateau_dense_scan(d.masses, points=2001)

    @given(prob_vectors(), st.randoms())
    def test_permutation_invariant(self, d, rnd):
        shuffled = list(d.masses)
        rnd.shuffle(shuffled)
        assert plateau_length(ProbVector(shuffled)) == plateau_length(d)

    @given(prob_vectors(max_n=12))
    def test_doubling_never_shrinks_plateau(self, d):
        assert plateau_length(doubling_operator(d)) >= plateau_length(d)

    def test_inadequate_truncation_rejected(self):
        t = Truncation((0.5, 0.25), 0.26)
        assert not t.plateau_adequate
        with pytest.raises(InsufficientTruncationError):
            plateau_length(t)

    def test_listed_atoms_are_all_counted(self):
        # 1000 atoms of 1e-15 share one band; all of them are listed
        trunc = Truncation.from_json_obj(
            {"family": "explicit", "params": {"masses": [0.999999999999] + [1e-15] * 1000}})
        assert trunc.n == 1001 and trunc.tail == 0.0 and trunc.plateau_adequate
        assert plateau_length(trunc) == 1000

    def test_direct_truncation_with_a_tail_is_refused(self):
        # the unlisted 1e-13 could be any number of atoms in one band
        trunc = Truncation((0.5, 0.5 - 1e-13), 1e-13)
        assert not trunc.plateau_adequate
        with pytest.raises(InsufficientTruncationError, match="plateau length unproven"):
            plateau_length(trunc)


class TestDoubling:
    def test_examples(self):
        assert doubling_operator(ProbVector([1.0])).masses == (0.5, 0.5)
        assert doubling_operator(ProbVector([0.5, 0.5])).masses == (0.25,) * 4
        assert doubling_operator(ProbVector([0.25, 0.75])).masses == (
            0.125,
            0.125,
            0.375,
            0.375,
        )

    @given(prob_vectors())
    def test_preserves_total_mass(self, d):
        doubled = doubling_operator(d)
        assert doubled.n == 2 * d.n
        assert abs(math.fsum(doubled.masses) - math.fsum(d.masses)) <= 1e-15

    def test_block_vector_doubling(self):
        b = BlockVector([(0.5, 2)])
        assert doubling_operator(b).blocks == ((0.25, 4),)

    def test_truncation_rejected(self):
        trunc = truncate(CountableFamily.geometric(0.5), 1e-3)
        with pytest.raises(InvalidInputError, match="cannot double a Truncation"):
            doubling_operator(trunc)


class TestCountableFamily:
    def test_geometric_terms_and_tail(self):
        f = CountableFamily.geometric(0.5)
        assert f.term(1) == 0.5
        assert f.term(20) == 2.0 ** -20
        assert f.tail_mass(20) == 2.0 ** -20

    def test_dyadic_terms_and_tail(self):
        f = CountableFamily.dyadic_blocks(2)
        assert [f.term(i) for i in range(1, 7)] == [
            0.25,
            0.25,
            0.125,
            0.125,
            0.0625,
            0.0625,
        ]
        assert f.tail_mass(2 * 10) == 2.0 ** -10  # block boundary

    @pytest.mark.parametrize(
        "f",
        [
            CountableFamily.geometric(0.3),
            CountableFamily.geometric(0.5),
            CountableFamily.dyadic_blocks(5),
        ],
    )
    def test_consistency_invariants(self, f):
        prev = math.inf
        for n in [0, 1, 2, 5, 10, 40, 100]:
            tail = f.tail_mass(n)
            assert tail <= prev + 1e-15
            prev = tail
            listed = math.fsum(f.term(i) for i in range(1, n + 1))
            assert listed <= 1.0 + 1e-12
            assert listed + tail >= 1.0 - 1e-12

    def test_explicit_family(self):
        # listed atoms with a tail bound load as a Truncation, every atom kept
        obj = {"family": "explicit", "params": {"masses": [0.5, 0.25, 0.125], "tail_bound": 0.125}}
        trunc = Truncation.from_json_obj(obj)
        assert trunc == Truncation([0.5, 0.25, 0.125], 0.125)
        assert trunc.masses == (0.125, 0.25, 0.5) and trunc.tail == 0.125
        with pytest.raises(InvalidInputError, match="unknown family kind 'explicit'"):
            CountableFamily("explicit", obj["params"])
        with pytest.raises(InvalidInputError, match="bracket"):  # short of mass 1
            Truncation.from_json_obj({"family": "explicit",
                                      "params": {"masses": [0.5], "tail_bound": 0.25}})

    def test_json_roundtrip(self):
        for f in [
            CountableFamily.geometric(0.5),
            CountableFamily.dyadic_blocks(4),
            CountableFamily.geometric(0.75),
        ]:
            assert CountableFamily.from_json_obj(json.loads(json.dumps(f.to_json_obj()))) == f

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            CountableFamily("zeta", {"s": 2.0})

    def test_hash_and_equality_by_canonical_params(self):
        geo = CountableFamily.geometric(0.5)
        assert hash(geo) == hash(CountableFamily("geometric", {"ratio": 0.5, "unread": 1}))
        assert geo == CountableFamily.from_json_obj(json.loads(json.dumps(geo.to_json_obj())))
        dyadic = CountableFamily.dyadic_blocks(3)
        assert dyadic == CountableFamily("dyadic-blocks", {"a": 3, "unread": [1]})
        assert hash(dyadic) == hash(CountableFamily("dyadic-blocks", {"a": 3, "unread": [1]}))
        assert geo != CountableFamily.geometric(0.25)
        assert dyadic != CountableFamily.dyadic_blocks(4)
        families = {geo, CountableFamily.geometric(0.5), CountableFamily.geometric(0.25),
                    CountableFamily.dyadic_blocks(4), CountableFamily.dyadic_blocks(4),
                    dyadic, CountableFamily.dyadic_blocks(3)}
        assert len(families) == 4
        assert CountableFamily.dyadic_blocks(4) in families
        assert CountableFamily.dyadic_blocks(5) not in families


class TestTruncate:
    def test_geometric_tolerance(self):
        trunc = truncate(CountableFamily.geometric(0.5), 1e-6)
        assert trunc.n == 20
        assert trunc.tail == 2.0 ** -20

    def test_single_atom_family(self):
        trunc = truncate(CountableFamily.geometric(0.5), 0.5)
        assert trunc.masses == (0.5,)
        assert trunc.tail == 0.5
        assert not trunc.plateau_adequate  # a band of geometric(0.5) holds up to 2 atoms

    def test_dyadic_prefix(self):
        trunc = truncate(CountableFamily.dyadic_blocks(2), 2.0 ** -10)
        assert trunc.n == 20  # 10 blocks of 2
        assert trunc.tail == 2.0 ** -10

    def test_tol_validation(self):
        with pytest.raises(InvalidInputError):
            truncate(CountableFamily.geometric(0.5), 0.0)
        with pytest.raises(InvalidInputError):
            truncate(CountableFamily.geometric(0.5), -1e-3)

    def test_unreachable_tolerance(self):
        f = CountableFamily.geometric(1.0 - 1e-9)  # tail 0.99 after 10^7 atoms
        with pytest.raises(InsufficientTruncationError, match="within 10000000 atoms"):
            truncate(f, 1e-3)

    @pytest.mark.parametrize("t", [1, 3, 7, 20])
    def test_interval_contains_exact_geometric_value(self, t):
        # exact rational evaluation of the halving family, 60 atoms deep;
        # the neglected remainder is below 2^-60 and cannot move the check
        exact = sum(
            Fraction(1, 2 ** i) * (1 - Fraction(1, 2 ** i)) ** t for i in range(1, 61)
        )
        lo, hi = expected_missing_mass_interval(CountableFamily.geometric(0.5), t, tol=1e-6)
        assert lo - 1e-15 <= float(exact) <= hi + 2.0 ** -59
        assert hi - lo <= 1e-6
