import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from missingmass import (
    BlockVector,
    InvalidInputError,
    PointCloud,
    ProbVector,
    SampleCounts,
    draw_sample,
    empirical_missing_mass,
    eps_missing_mass,
    expected_missing_mass,
    good_turing,
    gt_bias,
    gt_expected_estimate,
    mc_eps_missing_mass,
    monte_carlo,
    verify_bias,
    verify_concentration,
)
from missingmass import numerics, sampling
from missingmass.cover import _eps_missing_rows
from missingmass.sampling import (
    BLOCK,
    GUIDE_CELLS,
    MAX_ROW_CELLS,
    _BlockStats,
    _guide_table,
    _inverse_cdf,
)


class TestDrawSample:
    def test_point_mass(self):
        sc = draw_sample(ProbVector([1.0]), 7, seed=3)
        assert sc.counts == (7,)
        assert sc.t == 7

    def test_deterministic(self):
        d = ProbVector([0.2, 0.3, 0.5])
        assert draw_sample(d, 50, seed=11) == draw_sample(d, 50, seed=11)
        assert draw_sample(d, 50, seed=11) != draw_sample(d, 50, seed=12)

    def test_binomial_scale_at_large_t(self):
        t = 10 ** 6
        sc = draw_sample(ProbVector.uniform(2), t, seed=0)
        sd = math.sqrt(t * 0.25)
        for c in sc.counts:
            assert abs(c - t / 2) <= 5 * sd

    def test_counts_cover_all_atoms(self):
        sc = draw_sample(ProbVector.uniform(5), 9, seed=1)
        assert len(sc.counts) == 5
        assert sum(sc.counts) == 9

    def test_rejects_bad_t(self):
        with pytest.raises(InvalidInputError):
            draw_sample(ProbVector.uniform(2), 0, seed=0)

    def test_source_names_the_input_type(self):
        assert draw_sample(ProbVector.uniform(3), 5, seed=0).source == "ProbVector(n=3)"
        sc = draw_sample(BlockVector([(0.25, 2), (0.125, 4)]), 5, seed=0)
        assert sc.source == "BlockVector(n=6)"
        assert len(sc.counts) == 6


class TestEmpiricalMissingMass:
    def test_all_observed(self):
        d = ProbVector([0.5, 0.5])
        sc = SampleCounts(2, (1, 1), "d", 0)
        assert empirical_missing_mass(d, sc) == 0.0

    def test_unseen_atom(self):
        d = ProbVector([0.5, 0.5])
        sc = SampleCounts(3, (3, 0), "d", 0)
        assert empirical_missing_mass(d, sc) == 0.5

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            empirical_missing_mass(ProbVector.uniform(3), SampleCounts(2, (1, 1), "d", 0))

    def test_mc_mean_matches_closed_form(self):
        d = ProbVector([0.1, 0.2, 0.3, 0.4])
        t, reps = 6, 4000
        vals = []
        for i in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(i,)))
            u = rng.random(t)
            idx = np.searchsorted(np.cumsum(d.masses), u, side="right")
            counts = tuple(np.bincount(idx, minlength=4))
            vals.append(empirical_missing_mass(d, SampleCounts(t, counts, "d", 99)))
        mean = sum(vals) / reps
        se = np.std(vals, ddof=1) / math.sqrt(reps)
        assert abs(mean - expected_missing_mass(d, t)) <= 5 * se


class TestGoodTuring:
    def test_examples(self):
        assert good_turing(SampleCounts(4, (1, 1, 2), "d", 0)) == 0.5
        assert good_turing(SampleCounts(3, (3,), "d", 0)) == 0.0
        assert good_turing(SampleCounts(3, (1, 1, 1), "d", 0)) == 1.0

    def test_mc_mean_matches_expectation(self):
        d = ProbVector.uniform(6)
        t, reps = 4, 4000
        cum = np.cumsum(d.masses)
        vals = []
        for i in range(reps):
            u = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(i,))).random(t)
            counts = np.bincount(np.searchsorted(cum, u, side="right"), minlength=6)
            vals.append(np.count_nonzero(counts == 1) / t)
        mean = sum(vals) / reps
        se = np.std(vals, ddof=1) / math.sqrt(reps)
        assert abs(mean - gt_expected_estimate(d, t)) <= 5 * se


class TestVerifyBias:
    def test_uniform_two(self):
        rep = verify_bias(ProbVector.uniform(2), 2, replicates=20_000, seed=1)
        assert rep.bound == pytest.approx(gt_bias(ProbVector.uniform(2), 2))
        assert abs(rep.estimate - 0.25) <= 3 * rep.std_error
        assert rep.violated is False

    def test_point_mass_degenerate(self):
        rep = verify_bias(ProbVector([1.0]), 4, replicates=1000, seed=0)
        assert rep.estimate == 0.0
        assert rep.std_error == 0.0
        assert rep.bound == 0.0
        assert rep.violated is False

    def test_replicate_floor(self):
        with pytest.raises(InvalidInputError):
            verify_bias(ProbVector.uniform(2), 2, replicates=10, seed=0)

    @pytest.mark.parametrize("n", [3, 6, 7, 11, 13])
    def test_no_false_violation_at_t1(self, n):
        # at t=1 every replicate is 1 - (n-1)/n: the standard error is 0 and
        # the mean may sit an ulp or two off the closed form
        rep = verify_bias(ProbVector.uniform(n), 1, replicates=1000, seed=0)
        assert abs(rep.estimate - rep.bound) <= 1e-12
        assert rep.violated is False

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the 3-SE rule misses a bias carried by rare replicates; "
        "replicates * C(t, 2) * sum p^2 is about 0.3 here"))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_false_violation_on_a_large_support_at_small_t(self, seed):
        """About 1 replicate in 3300 draws an atom twice and lowers the
        Good-Turing estimate by 2/t, and those replicates carry the bias: a
        1000-replicate run usually holds none, so its mean sits near
        t sum p^2, ten times the closed form, with a standard error that
        misses the rare term."""
        d = ProbVector(np.random.default_rng(0).random(200_000), normalize=True)
        rep = verify_bias(d, 10, replicates=1000, seed=seed)
        assert rep.violated is False


class TestMonteCarlo:
    D = ProbVector([0.05, 0.1, 0.15, 0.2, 0.5])

    def _missing(self, replicates, seed):
        masses = np.asarray(self.D.masses)
        return monte_carlo(masses, 6, replicates, seed, _BlockStats(masses).missing)

    def test_deterministic_at_partial_block(self):
        assert 1000 % BLOCK != 0
        a = verify_bias(self.D, 5, replicates=1000, seed=42)
        b = verify_bias(self.D, 5, replicates=1000, seed=42)
        assert a == b
        assert np.array_equal(self._missing(1000, 42), self._missing(1000, 42))

    @pytest.mark.parametrize("t, replicates", [(0, 10), (2.0, 10), (3, 0)])
    def test_rejects_bad_sizes(self, t, replicates):
        with pytest.raises(InvalidInputError):
            monte_carlo(self.D.masses, t, replicates, 0, lambda idx: idx[:, 0])

    def test_reports_independent_of_blas_threads(self):
        code = ("import json; import missingmass as mm; "
                "d = mm.ProbVector([0.05, 0.1, 0.15, 0.2, 0.5]); "
                "c = mm.PointCloud([0.25] * 4, coords=[[0.0], [0.3], [1.0], [1.2]]); "
                "print(json.dumps([mm.verify_bias(d, 9, 1000, 3).to_json_obj(), "
                "mm.mc_eps_missing_mass(c, 3, 0.35, 1000, 4).to_json_obj()]))")
        package_root = os.path.dirname(os.path.dirname(sampling.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True)
            outs.append(run.stdout)
        assert outs[0] == outs[1]

    def test_shorter_run_is_prefix(self):
        assert np.array_equal(self._missing(128, 4), self._missing(1000, 4)[:128])

    def test_row_slices_continue_the_block_stream(self, monkeypatch):
        whole = self._missing(200, 8)
        monkeypatch.setattr(numerics, "SLICE_BYTES", 8 * 20)  # 3 rows of t=6 per call
        assert np.array_equal(self._missing(200, 8), whole)

    def test_rows_match_per_sample_functions(self):
        t, seed = 7, 11
        masses = np.asarray(self.D.masses)
        idx = monte_carlo(masses, t, BLOCK, seed, lambda idx: idx)
        stats = _BlockStats(masses)
        missing = stats.missing(idx)
        bias = stats.bias(idx)
        coords = [[0.0], [0.3], [0.5], [1.1], [1.2]]
        cloud = PointCloud(masses, coords=coords)
        near = cloud.distances() <= 0.25
        eps_missing = _eps_missing_rows(near, cloud.masses, idx)
        for i, row in enumerate(idx):
            sc = SampleCounts(t, tuple(np.bincount(row, minlength=self.D.n).tolist()), "d", seed)
            assert abs(missing[i] - empirical_missing_mass(self.D, sc)) <= 1e-15
            assert abs(bias[i] - (good_turing(sc) - empirical_missing_mass(self.D, sc))) <= 1e-15
            assert abs(eps_missing[i] - eps_missing_mass(cloud, row, 0.25)) <= 1e-15

    def test_eps_rows_do_not_depend_on_column_chunks(self, monkeypatch):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.exponential(size=40), coords=rng.random((40, 2)), normalize=True)
        near = cloud.distances() <= 0.1
        idx = monte_carlo(cloud.masses, 30, BLOCK, 5, lambda idx: idx.copy())
        whole = _eps_missing_rows(near, cloud.masses, idx)
        for budget in (1, BLOCK * 40 * 7):  # one draw column per gather, then seven
            monkeypatch.setattr(numerics, "SLICE_BYTES", budget)
            assert _eps_missing_rows(near, cloud.masses, idx).tolist() == whole.tolist()


UNIFORM_50 = ProbVector.uniform(50)
HUGE_SUPPORT = BlockVector([(2.0 ** -21, 2 ** 21)])


class TestRowCap:
    """A Monte Carlo row of max(t, n) cells past MAX_ROW_CELLS is refused
    before the engine allocates a buffer or a sampler expands the runs."""

    @pytest.mark.parametrize("d, t", [
        (UNIFORM_50, MAX_ROW_CELLS + 1), (HUGE_SUPPORT, 10),
    ], ids=["t", "n"])
    @pytest.mark.parametrize("entry", [
        "verify_bias", "verify_concentration", "draw_sample", "monte_carlo",
    ])
    def test_refused_before_allocating(self, d, t, entry):
        masses = np.repeat(d.m, d.c) if entry == "monte_carlo" else None  # the input
        calls = {
            "verify_bias": lambda: verify_bias(d, t, 1000, 0),
            "verify_concentration": lambda: verify_concentration(d, t, 0.1, 10_000, 0),
            "draw_sample": lambda: draw_sample(d, t, 0),
            "monte_carlo": lambda: monte_carlo(masses, t, 1000, 0, lambda idx: idx),
        }
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="MAX_ROW_CELLS"):
                calls[entry]()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_largest_row_is_accepted(self):
        sc = draw_sample(ProbVector.uniform(2), MAX_ROW_CELLS, seed=0)
        assert sc.t == MAX_ROW_CELLS


def _random_support(n, seed=0):
    w = np.random.default_rng(seed).random(n) + 0.01
    return ProbVector(w / w.sum(), normalize=True)


# 2^-1, ..., 2^-59 and a second 2^-59: the tiny atoms share one bucket
GEOMETRIC = ProbVector([0.5 ** k for k in range(1, 60)] + [0.5 ** 59])


def _reference_indices(masses, t, replicates, seed):
    """The plain inverse CDF: searchsorted on the same substream uniforms."""
    cum = np.cumsum(masses)
    cum[-1] = 1.0
    blocks = []
    for b, start in enumerate(range(0, replicates, BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        u = rng.random((min(BLOCK, replicates - start), t))
        blocks.append(np.searchsorted(cum, u, side="right"))
    return np.concatenate(blocks)


def _search(cum, lo, u):
    """_inverse_cdf into fresh buffers."""
    out, scratch = np.empty((2,) + u.shape, np.intp)
    return _inverse_cdf(cum, lo, u, out, scratch)


def _adversarial_uniforms(cum, buckets):
    """Every bucket edge k/K and every cum value, with their float neighbours."""
    edges = np.concatenate([np.arange(buckets) / buckets, cum, [0.0, 1.0]])
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


class TestGuideTable:
    """The guide-table search returns exactly searchsorted(cum, u, side="right")."""

    def _check_engine(self, d, t=50, replicates=100, seed=5):
        idx = monte_carlo(d.masses, t, replicates, seed, lambda idx: idx)
        ref = _reference_indices(d.masses, t, replicates, seed)
        assert idx.dtype == ref.dtype
        assert np.array_equal(idx, ref)

    @pytest.mark.parametrize("n", [1, 2, 5, 50, 2000])
    def test_engine_on_random_supports(self, n):
        self._check_engine(_random_support(n, seed=n))

    @pytest.mark.parametrize("n", [4, 64])
    def test_engine_on_bucket_edges(self, n):
        # every cumulative sum i/n is exact and lands on a bucket edge k/K
        cum = np.cumsum(ProbVector.uniform(n).masses)
        buckets = len(_guide_table(cum))
        assert np.isin(cum, np.arange(buckets + 1) / buckets).all()
        self._check_engine(ProbVector.uniform(n))

    def test_engine_on_skewed_support_uses_fallback(self):
        cum = np.cumsum(GEOMETRIC.masses)
        lo = _guide_table(cum)
        u = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(0,))).random((BLOCK, 1000))
        steps = np.searchsorted(cum, u, side="right") - lo[(u * len(lo)).astype(np.intp)]
        assert steps.max() > sampling.GUIDE_PASSES  # some draws reach searchsorted
        self._check_engine(GEOMETRIC, t=1000)

    @pytest.mark.parametrize("passes", [0, 1, 64])
    def test_any_pass_count(self, monkeypatch, passes):
        monkeypatch.setattr(sampling, "GUIDE_PASSES", passes)
        self._check_engine(GEOMETRIC, t=200)
        self._check_engine(_random_support(50), t=200)

    def test_capped_table(self, monkeypatch):
        monkeypatch.setattr(sampling, "GUIDE_CELLS", 4)  # 500 atoms per bucket
        cum = np.cumsum(_random_support(2000).masses)
        assert len(_guide_table(cum)) == 4
        self._check_engine(_random_support(2000))

    @pytest.mark.parametrize("n, buckets", [
        (1, 4), (2, 8), (3, 16), (1000, 4096), (16_384, GUIDE_CELLS), (20_000, GUIDE_CELLS),
    ])
    def test_table_size(self, n, buckets):
        # the next power of two >= 4n, capped
        assert len(_guide_table(np.linspace(1.0 / n, 1.0, n))) == buckets

    @pytest.mark.parametrize("d", [
        ProbVector([1.0]), ProbVector.uniform(4), ProbVector.uniform(64),
        _random_support(50), _random_support(2000), GEOMETRIC,
    ], ids=["point", "uniform4", "uniform64", "random50", "random2000", "geometric"])
    def test_search_on_adversarial_uniforms(self, d):
        cum = np.cumsum(d.masses)
        cum[-1] = 1.0
        lo = _guide_table(cum)
        u = _adversarial_uniforms(cum, len(lo))
        assert u.max() == np.nextafter(1.0, 0.0)
        ref = np.searchsorted(cum, u, side="right")
        assert np.array_equal(_search(cum, lo, u), ref)
        rows = u[: len(u) // 3 * 3].reshape(3, -1)
        assert np.array_equal(_search(cum, lo, rows), np.searchsorted(cum, rows, side="right"))


def _dense_rows(idx, masses):
    """The dense count forms the block statistics replaced: missing mass and
    singletons of each row of an index block."""
    rows, n = len(idx), len(masses)
    flat = (idx + n * np.arange(rows)[:, None]).ravel()
    counts = np.bincount(flat, minlength=rows * n).reshape(rows, n)
    return ((counts == 0) * masses).sum(axis=1), np.count_nonzero(counts == 1, axis=1)


class TestBlockStats:
    """The fill-scatter-sum missing mass and the bias equal the dense count
    forms bit for bit, on every block and row slice of a run."""

    @pytest.mark.parametrize("d, t, replicates, draws", [
        (_random_support(2000, seed=3), 100, 70, None),  # t < n, rows sliced by n
        (GEOMETRIC, 30, 130, None),  # t < n, many repeats
        (_random_support(5, seed=4), 40, 130, None),  # t > n
        (_random_support(50, seed=5), 50, 100, None),  # t = n
        (_random_support(50, seed=6), 1, 100, None),  # t = 1
        (_random_support(20, seed=7), 120, 70, 500),  # t > n, 4 rows per call
        (_random_support(300, seed=8), 120, 70, 1000),  # t < n, 3 rows per call
    ], ids=["t<n-2000", "t<n-geometric", "t>n", "t=n", "t=1", "t>n-sliced", "t<n-sliced"])
    def test_rows_match_dense_reference(self, monkeypatch, d, t, replicates, draws):
        if draws is not None:
            monkeypatch.setattr(numerics, "SLICE_BYTES", 8 * draws)
        masses = np.repeat(d.m, d.c)
        stats = _BlockStats(masses)
        slices = []

        def stat(idx):
            slices.append(len(idx))
            missing, singletons = _dense_rows(idx, masses)
            return np.column_stack(
                [stats.missing(idx), missing, stats.bias(idx), singletons / t - missing])

        rows = monte_carlo(masses, t, replicates, 9, stat)
        assert min(slices) < max(slices)  # a partial block or row slice
        assert [x.hex() for x in rows[:, 0]] == [x.hex() for x in rows[:, 1]]
        assert [x.hex() for x in rows[:, 2]] == [x.hex() for x in rows[:, 3]]

    def test_reports_do_not_read_the_masses_tuple(self, monkeypatch):
        def refuse(self):
            raise AssertionError("ProbVector.masses builds a Python tuple of every atom")

        d = _random_support(40)
        expected = [verify_bias(d, 30, 1000, 1), verify_concentration(d, 30, 0.1, 10_000, 2),
                    draw_sample(d, 30, 3)]
        monkeypatch.setattr(ProbVector, "masses", property(refuse))
        assert [verify_bias(d, 30, 1000, 1), verify_concentration(d, 30, 0.1, 10_000, 2),
                draw_sample(d, 30, 3)] == expected

    def test_concentration_memory_bounded(self):
        # a dense (rows, n) int64 count array and its float product would
        # take 2 MB per block here; the buffers are allocated once per call
        d = _random_support(2000, seed=9)
        tracemalloc.start()
        try:
            verify_concentration(d, 500, 0.1, 10_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2e6


class TestPinnedValues:
    """Seeded values recorded under the plain searchsorted sampler; any change
    to the sampler that moves a draw moves one of them."""

    def test_verify_bias(self):
        w = np.random.default_rng(2024).random(2000)
        rep = verify_bias(ProbVector(w / w.sum(), normalize=True), 500, 1000, 17)
        assert json.dumps(rep.to_json_obj()) == (
            '{"estimate": 0.0002647216180160227, "std_error": 0.0008911429979292482, '
            '"replicates": 1000, "seed": 17, "bound": 0.00045873017100606095, '
            '"violated": false}')

    def test_verify_concentration(self):
        rep = verify_concentration(GEOMETRIC, 100, 0.05, 10_000, 23)
        assert json.dumps(rep.to_json_obj()) == (
            '{"estimate": 0.014276977908611297, "std_error": 0.00010269657216745863, '
            '"replicates": 10000, "seed": 23, "exceed_freq": 0.0022, '
            '"bound": 1.5576015661428098, "violated": false}')

    def test_mc_eps_missing_mass(self):
        coords = np.random.default_rng(5).random((300, 2))
        rep = mc_eps_missing_mass(PointCloud([1 / 300] * 300, coords=coords), 100, 0.08, 1000, 31)
        assert json.dumps(rep.to_json_obj()) == (
            '{"estimate": 0.14261333333333334, "std_error": 0.0009254814388584188, '
            '"replicates": 1000, "seed": 31, "bound": 0.14205957414632403, '
            '"violated": false}')

    def test_draw_sample(self):
        counts = draw_sample(GEOMETRIC, 1000, 43).counts
        assert counts == (0,) * 44 + (1, 0, 0, 1, 0, 0, 0, 2, 8, 5, 11, 37, 70, 126, 230, 509)


class TestVerifyConcentration:
    def test_impossible_event(self):
        rep = verify_concentration(ProbVector.uniform(5), 10, 1.0, replicates=10_000, seed=0)
        assert rep.exceed_freq == 0.0
        assert rep.violated is False

    def test_loose_bound_regime(self):
        rep = verify_concentration(ProbVector.uniform(20), 100, 0.1, replicates=10_000, seed=0)
        assert rep.bound == pytest.approx(2 * math.exp(-1.0))
        assert rep.exceed_freq <= rep.bound
        assert rep.violated is False

    def test_tight_bound_regime(self):
        rep = verify_concentration(ProbVector.uniform(20), 100, 0.3, replicates=10_000, seed=0)
        assert rep.bound == pytest.approx(2 * math.exp(-9.0))
        assert rep.violated is False

    def test_estimate_tracks_expectation(self):
        d = ProbVector.uniform(20)
        rep = verify_concentration(d, 50, 0.2, replicates=10_000, seed=3)
        assert abs(rep.estimate - expected_missing_mass(d, 50)) <= 4 * rep.std_error

    def test_replicate_floor(self):
        with pytest.raises(InvalidInputError):
            verify_concentration(ProbVector.uniform(2), 5, 0.1, replicates=100, seed=0)

    def test_eps_validation(self):
        with pytest.raises(InvalidInputError):
            verify_concentration(ProbVector.uniform(2), 5, 0.0, replicates=10_000, seed=0)

    def test_deterministic(self):
        d = ProbVector.uniform(7)
        a = verify_concentration(d, 20, 0.2, replicates=10_000, seed=9)
        b = verify_concentration(d, 20, 0.2, replicates=10_000, seed=9)
        assert a == b


class TestSampleCounts:
    def test_sum_invariant(self):
        with pytest.raises(InvalidInputError):
            SampleCounts(5, (1, 1), "d", 0)


class TestMcReportJson:
    def test_optional_fields_elided(self):
        rep = verify_bias(ProbVector([1.0]), 2, replicates=1000, seed=0)
        obj = rep.to_json_obj()
        assert "exceed_freq" not in obj
        assert {"estimate", "std_error", "replicates", "seed"} <= set(obj)
