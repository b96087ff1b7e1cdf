import hashlib
import math
import tracemalloc

import pytest

from missingmass import (
    BlockVector,
    ConstructionFailedError,
    InvalidInputError,
    ProbVector,
    doubling_operator,
    expected_missing_mass,
    expected_missing_mass_interval,
    geometric_targets,
    inverse_log_targets,
    maximize_missing_mass,
    plateau_length,
    rate_lb,
    tight_countable,
    tight_finite,
    truncate,
)
from missingmass import constructions


class TestTightFinite:
    def test_three_five(self):
        d = tight_finite(3, 5)
        assert d.masses[:2] == (1 / 6, 1 / 6)
        assert d.masses[2] == pytest.approx(2 / 3, rel=1e-15)
        value = expected_missing_mass(d, 5)
        assert value == pytest.approx(0.1367026748971194, abs=1e-14)
        assert value >= 8 * (3 - 1) / (27 * 5)

    def test_two_three(self):
        d = tight_finite(2, 3)
        assert d.masses == (0.25, 0.75)
        value = expected_missing_mass(d, 3)
        assert value == pytest.approx(0.1171875, abs=1e-15)
        assert value >= 8 / 81

    def test_sums_to_one(self):
        for n, t in [(2, 5), (10, 31), (60, 200)]:
            d = tight_finite(n, t)
            assert math.fsum(d.masses) == pytest.approx(1.0, abs=1e-12)

    def test_exactly_two_levels(self):
        d = tight_finite(9, 40)
        assert len(set(d.masses)) == 2
        assert d.blocks[0][1] == 8

    def test_huge_support_is_built_as_runs(self):
        tracemalloc.start()
        try:
            d = tight_finite(2 ** 40, 2 ** 40 + 1)
            e = maximize_missing_mass(2 ** 40, 2 ** 41).to_prob_vector()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert d.n == e.n == 2 ** 40
        assert d.blocks[0] == (1.0 / (2 ** 40 + 2), 2 ** 40 - 1)
        assert [c for _, c in e.blocks] == [2 ** 40 - 1, 1]

    def test_requires_t_above_n(self):
        with pytest.raises(InvalidInputError):
            tight_finite(5, 5)
        with pytest.raises(InvalidInputError):
            tight_finite(1, 10)

    @pytest.mark.parametrize("n", [2, 7, 25, 60])
    def test_lower_bound_on_subgrid(self, n):
        for t in range(n + 1, 10 * n + 1, max(1, n // 2)):
            value = expected_missing_mass(tight_finite(n, t), t)
            assert value >= 8 * (n - 1) / (27 * t)


class TestTightCountable:
    def test_block_structure_a2(self):
        trunc = truncate(tight_countable(2), 2.0 ** -6)
        assert trunc.masses[-4:] == (0.125, 0.125, 0.25, 0.25)
        # total mass telescopes to 1: prefix + exact tail
        assert math.fsum(trunc.masses) + trunc.tail == pytest.approx(1.0, abs=1e-15)

    def test_lower_bound_example(self):
        lo, _ = expected_missing_mass_interval(tight_countable(3), 30, tol=1e-10)
        assert lo >= 4 * 3 / (27 * 30)

    @pytest.mark.parametrize("a", [2, 5, 10])
    def test_plateau_is_a(self, a):
        trunc = truncate(tight_countable(a), 2.0 ** -20)
        assert plateau_length(trunc) == a

    def test_rejects_small_a(self):
        with pytest.raises(InvalidInputError):
            tight_countable(1)


class TestRateTargets:
    @pytest.mark.parametrize("targets", [inverse_log_targets, geometric_targets])
    def test_horizon_cap(self, targets):
        assert len(targets(constructions.MAX_HORIZON)) == constructions.MAX_HORIZON
        with pytest.raises(InvalidInputError, match=r"t_max=1048577 exceeds MAX_HORIZON=1048576"):
            targets(constructions.MAX_HORIZON + 1)

    def test_inverse_log(self):
        r = inverse_log_targets(5)
        assert r[0] == pytest.approx(1 / math.log(3))
        assert all(a > b for a, b in zip(r, r[1:]))

    def test_geometric(self):
        r = geometric_targets(4)
        assert r == pytest.approx([0.45, 0.225, 0.1125, 0.05625])


class TestRateLb:
    def test_rejects_empty_targets(self):
        with pytest.raises(InvalidInputError, match="nonempty"):
            rate_lb([])

    def test_dominates_inverse_log_horizon_sixty(self):
        targets = inverse_log_targets(60)
        d = rate_lb(targets)
        for t in range(1, 61):
            assert expected_missing_mass(d, t) > targets[t - 1]

    def test_dominates_geometric_targets(self):
        targets = geometric_targets(40)
        d = rate_lb(targets)
        for t in range(1, 41):
            assert expected_missing_mass(d, t) > targets[t - 1]

    def test_block_caps_hold(self):
        # every block except the heavy atom stays below its per-t mass cap;
        # doubling only shrinks masses, so the cap survives the final answer
        targets = inverse_log_targets(50)
        d = rate_lb(targets)
        tau = 11
        cap = 1.0 / (tau + 2) ** 2  # loosest cap across the per-t blocks
        non_heavy = [m for m, _ in d.blocks[:-1]]
        assert all(m < cap for m in non_heavy)

    def test_doubling_raises_missing_mass_everywhere(self):
        d = rate_lb(inverse_log_targets(30))
        doubled = doubling_operator(d)
        for t in [1, 5, 17, 30]:
            assert expected_missing_mass(doubled, t) > expected_missing_mass(d, t)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            rate_lb([0.5, 0.5, 0.4])  # not strictly decreasing
        with pytest.raises(InvalidInputError):
            rate_lb([1.0, 0.5])
        with pytest.raises(InvalidInputError):
            rate_lb([0.5, 0.4, 0.3])  # horizon never passes t=10

    def test_doubling_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(constructions, "MAX_DOUBLINGS", 0)
        with pytest.raises(ConstructionFailedError, match="within 0 doublings"):
            rate_lb(inverse_log_targets(30))

    def test_atoms_that_halve_to_zero_are_refused(self):
        # the last target 0.9 * 2^-1074 rounds to 2^-1074, the final block's one
        # atom, which has no positive half
        with pytest.raises(ConstructionFailedError, match="cannot be halved again"):
            rate_lb(geometric_targets(1074))

    def test_geometric_horizons_below_the_halving_limit_are_pinned(self):
        # sha256 over m.tobytes() and c.tobytes() of T = 1000..1073 in turn, as
        # built before the halving check existed
        h = hashlib.sha256()
        for t_max in range(1000, 1074):
            d = rate_lb(geometric_targets(t_max))
            h.update(d.m.tobytes())
            h.update(d.c.tobytes())
        assert h.hexdigest() == "9913ff242c6261241ed1803ef334971b2b0d34ed7d8dccfb0add5957c6cca101"

    def test_run_length_encoding_survives_scale(self):
        # the doubled support would be enormous dense, tiny as blocks
        base = rate_lb(inverse_log_targets(100))
        big = base
        for _ in range(20):
            big = doubling_operator(big)
        assert big.n == base.n * 2 ** 20
        assert len(big.blocks) == len(base.blocks)
        assert expected_missing_mass(big, 1) > expected_missing_mass(base, 1)


# sha256 of m.tobytes() and c.tobytes() of rate_lb's result, as computed by the
# per-t scan that checked every t = 1..T after each doubling
RATE_LB_DIGESTS = {
    ("inverse-log", 200): (
        "d1c87c245e2019083666eaf50ee9b9d6ee6962c46abb183a6e19dad3e8d1259b",
        "bc8d3c1b284eeec5e0c23d3759372a4d2b242ac2dc786c286b41f5b89a64bbf9"),
    ("inverse-log", 1000): (
        "0be7a0825783612cddf7f574e3c0ef12e816dd4db4555bd650744f285df69054",
        "a7871d18f26ab0b198b6f5458cffe17c9d3a077a71c9a55983824bb2242ad6f2"),
    ("inverse-log", 10_000): (
        "2b64c0e0ab606dbf68aac9860548d1e33ca1bef70ed600fa187dc4f3c0da2176",
        "2a8bae0f3004772719b6551123a1e0aadb7390d36e6b349deb9bf784ec6d0ecd"),
    ("inverse-log", 30_000): (
        "0ef2b876ad66923242b6fe13e9e6e4d757f9a48dbe0bb4d51e3d7bcb7bf1c995",
        "a6c7d5bfc8eaf4539c3f6ab2308761f1211e45eb58a4e42af4a3d432c45723d3"),
    ("geometric", 20): (
        "c4b900c20cda08529134da5be7b09df724156ce97328034705e58333ff530c34",
        "a83a694105f6ff8df3d4f68b0e5d59432804aba2640274cebc3ff81ad589ed08"),
    ("geometric", 60): (
        "859109b4d847069331e9939ec3e58100e638fb06021190d9a42b49ecc1984e49",
        "2bbf88c43c0b792539c77363ffb716d6ce54cd170649422190224af15569c247"),
}


class TestRateLbIntervalCheck:
    """rate_lb checks each doubling by intervals of t; its verdicts, and so its
    result, are those of the per-t scan."""

    @pytest.mark.parametrize("kind, t_max", sorted(RATE_LB_DIGESTS))
    def test_result_is_pinned(self, kind, t_max):
        targets = {"inverse-log": inverse_log_targets, "geometric": geometric_targets}[kind]
        d = rate_lb(targets(t_max))
        assert d.m.dtype == "float64" and d.c.dtype == "int64"
        digests = (hashlib.sha256(d.m.tobytes()).hexdigest(),
                   hashlib.sha256(d.c.tobytes()).hexdigest())
        assert digests == RATE_LB_DIGESTS[kind, t_max]

    @pytest.mark.parametrize("d, t_max", [
        (BlockVector([(0.25, 1), (0.05, 5), (0.001, 500)]), 300),
        # E[U_t] = 2^-t reaches the subnormal range, where only the absolute
        # floor of the radius is left
        (BlockVector([(0.5, 2)]), 1070),
    ], ids=["three-runs", "subnormal"])
    @pytest.mark.parametrize("where", ["none", "first", "middle", "last", "every"])
    @pytest.mark.parametrize("step", [-1, 0, 1], ids=["ulp-below", "equal", "ulp-above"])
    def test_near_ties_match_the_scan(self, d, t_max, where, step):
        values = [expected_missing_mass(d, t) for t in range(1, t_max + 1)]
        below = [math.nextafter(e, 0.0) for e in values]
        tie = [e if step == 0 else math.nextafter(e, step) for e in values]
        at = {"none": [], "first": [0], "middle": [t_max // 2], "last": [t_max - 1],
              "every": range(t_max)}[where]
        targets = [tie[i] if i in at else below[i] for i in range(t_max)]
        assert all(a > b for a, b in zip(targets, targets[1:]))
        scan = all(e > r for e, r in zip(values, targets))
        assert scan == (where == "none" or step == -1)
        assert constructions._dominated(d, targets) is scan

    @pytest.mark.parametrize("dip", [1, 37, 64, 100])
    def test_a_dip_inside_the_rounding_radius_is_found(self, monkeypatch, dip):
        # float E[U_t] may dip below its later values by rounding; the radius
        # keeps an endpoint that clears r_a by less than it from vouching for t
        values = [0.5] * 100
        values[dip - 1] = 0.5 - 2.0 ** -46
        targets = [0.5 - 2.0 ** -47 - t * 2.0 ** -54 for t in range(1, 101)]
        assert all(a > b > values[dip - 1] for a, b in zip(targets, targets[1:]))
        monkeypatch.setattr(constructions, "expected_missing_mass",
                            lambda d, t: values[t - 1])
        assert not constructions._dominated(BlockVector([(0.5, 2)]), targets)
        values[dip - 1] = 0.5
        assert constructions._dominated(BlockVector([(0.5, 2)]), targets)

    def test_few_kernel_sums(self, monkeypatch):
        sums = []

        def counted(d, t):
            sums.append(t)
            return expected_missing_mass(d, t)

        monkeypatch.setattr(constructions, "expected_missing_mass", counted)
        rate_lb(inverse_log_targets(10_000))
        assert len(sums) < 200

    def test_horizon_cap_comes_first(self, monkeypatch):
        monkeypatch.setattr(constructions, "MAX_HORIZON", 20)
        assert rate_lb(inverse_log_targets(20)).n > 0
        # the count is refused before a single target is read
        with pytest.raises(InvalidInputError, match="horizon t_max=21 exceeds MAX_HORIZON=20"):
            rate_lb(["0.5"] * 21)


class TestCrossChecks:
    def test_tight_finite_matches_bivalent_family(self):
        from missingmass import bivalent_missing_mass

        n, t = 12, 50
        d = tight_finite(n, t)
        assert expected_missing_mass(d, t) == pytest.approx(
            bivalent_missing_mass(n, t, 1.0 / (t + 1)), abs=1e-14
        )

    def test_countable_ratio_band(self):
        # t * E / a stays inside the calibration band on a small probe grid
        from missingmass import DEFAULT_COUNTABLE_C

        cap = 1.0 / DEFAULT_COUNTABLE_C
        for a in (2, 8, 32):
            trunc = truncate(tight_countable(a), 1e-12)
            for t in (a + 1, 2 * a, 10 * a, 100 * a):
                lo, hi = expected_missing_mass_interval(trunc, t)
                assert t * lo / a >= 4 / 27
                assert t * hi / a <= cap
