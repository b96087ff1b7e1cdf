import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

from missingmass import (
    BlockVector,
    CountableFamily,
    InvalidInputError,
    PointCloud,
    ProbVector,
    Truncation,
    expected_missing_mass,
    gt_bias,
    gt_expected_estimate,
    mc_eps_missing_mass,
    monte_carlo,
    verify_bias,
    verify_concentration,
)
from missingmass import numerics, sampling
from missingmass.cover import _eps_missing_chunk, _near_words
from missingmass.sampling import (
    GUIDE_CELLS,
    MAX_ROW_CELLS,
    _BlockStats,
    _guide_table,
    _inverse_cdf,
    _uniforms,
    index_dtype,
)


class TestEmpiricalMissingMass:
    def test_mc_mean_matches_closed_form(self):
        d = ProbVector([0.1, 0.2, 0.3, 0.4])
        t, reps = 6, 4000
        masses = np.asarray(d.masses)
        vals = []
        for i in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(i,)))
            u = rng.random(t)
            idx = np.searchsorted(np.cumsum(masses), u, side="right")
            vals.append(math.fsum(masses[np.bincount(idx, minlength=4) == 0]))
        mean = sum(vals) / reps
        se = np.std(vals, ddof=1) / math.sqrt(reps)
        assert abs(mean - expected_missing_mass(d, t)) <= 5 * se


class TestGoodTuring:
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

    def test_indices_do_not_depend_on_the_slicing(self, monkeypatch):
        d, t, replicates = _random_support(50, seed=3), 40, 100
        runs = []
        # one row a slice, 7 rows a slice (a partial last slice), one slice
        for rows in (1, 7, replicates):
            monkeypatch.setattr(numerics, "SLICE_BYTES", 8 * 3 * t * rows)
            seen = []

            def stat(idx):
                seen.append(len(idx))
                return idx.copy()

            runs.append(monte_carlo(d.masses, t, replicates, 6, stat))
            assert seen[0] == rows
        assert all(np.array_equal(run, runs[0]) for run in runs)
        assert np.array_equal(runs[0], _reference_indices(d.masses, t, replicates, 6))

    @pytest.mark.parametrize("n", [1, 50, 2000])
    @pytest.mark.parametrize("rows", [1, 7, 100])
    def test_raw_outputs_are_the_generators_uniforms(self, monkeypatch, n, rows):
        """The 64-bit outputs the engine reads, slice after slice, are the
        stream Generator.random draws from: their uniforms equal its
        uniforms bit for bit, and their top bits are the buckets floor(u*K).
        Each slice's draw buffers fit in SLICE_BYTES."""
        d, t, replicates, seed = _random_support(n, seed=3), 40, 100, 6
        monkeypatch.setattr(numerics, "SLICE_BYTES", 8 * 3 * t * rows)
        seen = []

        def spy(cum, table, raw, out, bucket):
            seen.append((raw.copy(), len(table)))
            assert raw.nbytes + out.nbytes + bucket.nbytes <= numerics.SLICE_BYTES
            return _inverse_cdf(cum, table, raw, out, bucket)

        monkeypatch.setattr(sampling, "_inverse_cdf", spy)
        monte_carlo(d.masses, t, replicates, seed, lambda idx: idx[:, 0])
        assert len(seen[0][0]) == rows
        raw, buckets = np.concatenate([raw for raw, _ in seen]), seen[0][1]
        u = np.random.default_rng(seed).random((replicates, t))
        assert raw.dtype == np.uint64 and _uniforms(raw).tobytes() == u.tobytes()
        top = raw >> np.uint64(65 - buckets.bit_length())
        assert np.array_equal(top, (u * buckets).astype(np.uint64))

    @pytest.mark.parametrize("n, dtype", [(32_767, np.int16), (32_768, np.int32)])
    def test_indices_at_the_int16_edge(self, n, dtype):
        """Up to 2^15 - 1 atoms the table and the indices are int16, past
        that int32; either way the draws are the plain inverse CDF's and the
        statistics, the sort branch's included, are the dense forms'."""
        assert index_dtype(n) is dtype
        d = _random_support(n, seed=n)
        masses = np.repeat(d.m, d.c)
        cum = np.cumsum(masses)
        cum[-1] = 1.0
        table = _guide_table(cum)
        assert table.dtype == dtype and table.min() < 0  # flagged buckets
        idx = monte_carlo(masses, 300, 20, 7, lambda idx: idx)
        assert idx.dtype == dtype
        assert np.array_equal(idx, _reference_indices(masses, 300, 20, 7))
        missing, singletons = _dense_rows(idx, masses)
        assert _BlockStats(masses).missing(idx).tolist() == missing.tolist()
        assert _BlockStats(masses).bias(idx).tolist() == (singletons / 300 - missing).tolist()

    def test_shorter_run_is_prefix(self):
        assert np.array_equal(self._missing(128, 4), self._missing(1000, 4)[:128])

    def test_row_slices_continue_the_block_stream(self, monkeypatch):
        whole = self._missing(200, 8)
        monkeypatch.setattr(numerics, "SLICE_BYTES", 8 * 18 * 3)  # 3 rows of 3t = 18 cells
        assert np.array_equal(self._missing(200, 8), whole)

    @pytest.mark.parametrize("n, t, replicates, slices", [
        (50, 20, 1000, [1000]),  # one slice of 1000 rows
        (2000, 500, 100, [43, 43, 14]),  # 8 * 3t = 12000 bytes a row, whatever n
        (5, 40_000, 3, [1, 1, 1]),  # a row's 3t cells pass the budget: a row a slice
        (2000, 100, 500, [218, 218, 64]),  # 2400 bytes a row: a slice spans 7 chunks of n
    ])
    def test_slices_span_blocks(self, n, t, replicates, slices):
        seen = []

        def stat(idx):
            seen.append(len(idx))
            return idx[:, 0]

        monte_carlo(np.full(n, 1.0 / n), t, replicates, 0, stat)
        assert seen == slices

    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "3"])
    @pytest.mark.parametrize("entry", ["verify_bias", "mc_eps_missing_mass", "monte_carlo"])
    def test_rejects_bad_seed(self, entry, seed):
        cloud = PointCloud([0.5, 0.5], coords=[[0.0], [1.0]])
        calls = {
            "verify_bias": lambda: verify_bias(self.D, 10, 1000, seed),
            "mc_eps_missing_mass": lambda: mc_eps_missing_mass(cloud, 3, 0.5, 1000, seed),
            "monte_carlo": lambda: monte_carlo(self.D.masses, 10, 100, seed, lambda idx: idx),
        }
        with pytest.raises(InvalidInputError, match=f"seed must be an integer >= 0, got {seed!r}"):
            calls[entry]()

    def test_eps_rows_do_not_depend_on_column_chunks(self, monkeypatch):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.exponential(size=40), coords=rng.random((40, 2)), normalize=True)
        words = _near_words(cloud.distances(), 0.1)
        idx = monte_carlo(cloud.masses, 30, 64, 5, lambda idx: idx.copy())
        whole = _eps_rows(words, cloud.masses, idx)
        for budget in (1, 64 * 8 * 7):  # one draw column per gather, then seven
            monkeypatch.setattr(numerics, "SLICE_BYTES", budget)
            assert _eps_rows(words, cloud.masses, idx).tolist() == whole.tolist()

    @pytest.mark.parametrize("budget", [1, 64, None], ids=["1", "64", "default"])
    @pytest.mark.parametrize("t", [1, 3, 30])
    @pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 127, 128, 129, 200])
    def test_eps_rows_match_bool_mask_reference(self, monkeypatch, n, t, budget):
        # bit rows across byte and word edges give the bool mask's sums bit for bit
        rng = np.random.default_rng(n)
        cloud = PointCloud(rng.exponential(size=n), coords=rng.random((n, 2)), normalize=True)
        near = cloud.distances() <= 0.3
        idx = monte_carlo(cloud.masses, t, 50, 3, lambda idx: idx.copy())
        reference = (~near[idx].any(axis=1) * cloud.masses).sum(axis=1)
        if budget is not None:
            monkeypatch.setattr(numerics, "SLICE_BYTES", budget)
        rows = _eps_rows(_near_words(cloud.distances(), 0.3), cloud.masses, idx)
        assert rows.tolist() == reference.tolist()


class TestTypeCheck:
    """Every sampling front door refuses a countable family or a truncation
    with InvalidInputError before it draws."""

    @pytest.mark.parametrize("d", [
        CountableFamily.geometric(0.5), Truncation((0.5, 0.25), 0.25),
    ], ids=["family", "truncation"])
    @pytest.mark.parametrize("entry", [
        "verify_bias", "verify_concentration",
    ])
    def test_refused_before_drawing(self, monkeypatch, d, entry):
        def refuse(*args):
            raise AssertionError("sampled before the type check")

        monkeypatch.setattr(sampling, "monte_carlo", refuse)
        calls = {
            "verify_bias": lambda: verify_bias(d, 10, 1000, 0),
            "verify_concentration": lambda: verify_concentration(d, 10, 0.1, 10_000, 0),
        }
        with pytest.raises(InvalidInputError, match="expected a ProbVector or BlockVector"):
            calls[entry]()


UNIFORM_50 = ProbVector.uniform(50)
HUGE_SUPPORT = BlockVector([(2.0 ** -21, 2 ** 21)])


class TestRowCap:
    """A Monte Carlo row of max(t, n) cells past MAX_ROW_CELLS, and every
    other bad argument, is refused before the engine allocates a buffer or a
    sampler expands the runs."""

    # a cloud cannot have the 2^21 points of the n case, so eps-mass has a t case only
    @pytest.mark.parametrize("entry, case", [
        pytest.param(entry, case, id=f"{entry}-{case}")
        for entry in ("verify_bias", "verify_concentration", "monte_carlo", "mc_eps_missing_mass")
        for case in ("t", "n") if (entry, case) != ("mc_eps_missing_mass", "n")
    ])
    def test_refused_before_allocating(self, entry, case):
        d, t = {"t": (UNIFORM_50, MAX_ROW_CELLS + 1), "n": (HUGE_SUPPORT, 10)}[case]
        masses = np.repeat(d.m, d.c) if entry == "monte_carlo" else None  # the input
        cloud = None
        if entry == "mc_eps_missing_mass":
            # 1500 points: a 2.25 MB eps-ball mask, if it were built
            cloud = PointCloud([1 / 1500] * 1500, coords=np.random.default_rng(0).random((1500, 2)))
            cloud.distances()  # cached before tracing: the matrix is the input
        calls = {
            "verify_bias": lambda: verify_bias(d, t, 1000, 0),
            "verify_concentration": lambda: verify_concentration(d, t, 0.1, 10_000, 0),
            "monte_carlo": lambda: monte_carlo(masses, t, 1000, 0, lambda idx: idx),
            "mc_eps_missing_mass": lambda: mc_eps_missing_mass(cloud, t, 0.5, 1000, 0),
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
        counts = monte_carlo([0.5, 0.5], MAX_ROW_CELLS, 1, 0,
                             lambda idx: np.bincount(idx[0], minlength=2)[None])
        assert counts.sum() == MAX_ROW_CELLS

    @pytest.mark.parametrize("entry", ["verify_bias", "verify_concentration"])
    def test_other_arguments_refused_before_expanding(self, entry):
        # 2^20 atoms in one run: 8 MB of atom masses, if they were expanded
        d = BlockVector([(2.0 ** -20, 2 ** 20)])
        call, message = {
            "verify_bias": (lambda: verify_bias(d, 10, 1000, -1), "seed must be"),
            "verify_concentration": (lambda: verify_concentration(d, 10, 0.1, 10 ** 12, 0),
                                     "exceeds MAX_REPLICATES"),
        }[entry]
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=message):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def _random_support(n, seed=0):
    w = np.random.default_rng(seed).random(n) + 0.01
    return ProbVector(w / w.sum(), normalize=True)


# 2^-1, ..., 2^-59 and a second 2^-59: the tiny atoms share one bucket
GEOMETRIC = ProbVector([0.5 ** k for k in range(1, 60)] + [0.5 ** 59])
# 300 atoms of 10^-9: hundreds of cumulative boundaries in the first bucket
TINY = ProbVector([1e-9] * 300 + [1.0 - 3e-7])


def _reference_indices(masses, t, replicates, seed):
    """The plain inverse CDF: searchsorted on the call's one stream of uniforms."""
    cum = np.cumsum(masses)
    cum[-1] = 1.0
    return np.searchsorted(cum, np.random.default_rng(seed).random((replicates, t)), "right")


def _eps_rows(words, masses, idx, stats=None):
    """eps-missing mass of each row of idx, through the block statistics' one walk."""
    stats = _BlockStats(masses) if stats is None else stats
    return stats.rows(idx, partial(_eps_missing_chunk, words, masses))


def _raw(u, seed=0):
    """64-bit outputs x whose uniforms (x >> 11) 2^-53 are u, uniforms on the
    generator's grid of 2^-53, with seeded low 11 bits, which no draw reads."""
    x = (u * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    return x | np.random.default_rng(seed).integers(0, 2 ** 11, u.shape, dtype=np.uint64)


def _search(cum, lo, u):
    """_inverse_cdf of the outputs whose uniforms are u, into fresh buffers."""
    return _inverse_cdf(cum, lo, _raw(u), np.empty(u.shape, lo.dtype), np.empty(u.shape, np.intp))


def _steps(cum, table, u):
    """Each draw's table entry, and how many atoms its answer lies past the
    first atom of its bucket."""
    entry = table[(u * len(table)).astype(np.intp)]
    return entry, np.searchsorted(cum, u, side="right") - np.where(entry < 0, -1 - entry, entry)


def _adversarial_uniforms(cum, buckets):
    """Every bucket edge k/K and every cum value, rounded down to the grid of
    2^-53 that every uniform of the generator lies on, with their neighbours
    on it: the uniforms nearest each boundary that a draw can take."""
    edges = np.floor(np.concatenate([np.arange(buckets) / buckets, cum, [0.0, 1.0]]) * 2.0 ** 53)
    grid = np.concatenate([edges, edges - 1.0, edges + 1.0])
    return np.unique(grid[(grid >= 0.0) & (grid < 2.0 ** 53)]) * 2.0 ** -53


class TestGuideTable:
    """The guide-table search returns exactly searchsorted(cum, u, side="right")."""

    def _check_engine(self, d, t=50, replicates=100, seed=5):
        idx = monte_carlo(d.masses, t, replicates, seed, lambda idx: idx)
        ref = _reference_indices(d.masses, t, replicates, seed)
        assert idx.dtype == np.int16  # every support here has under 2^15 atoms
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
        cum[-1] = 1.0
        table = _guide_table(cum)
        u = np.random.default_rng(5).random((100, 1000))  # the engine's uniforms below
        entry, steps = _steps(cum, table, u)
        assert (steps[entry >= 0] == 0).all()  # an exact bucket is one lookup
        assert steps[entry < 0].max() > 1  # some flagged draws reach searchsorted
        self._check_engine(GEOMETRIC, t=1000)

    @pytest.mark.parametrize("passes", [0, 1, 64])
    def test_any_pass_count(self, passes):
        # draws `passes` atoms past their bucket's first atom: resolved by the
        # lookup (0), by the one step (1), and by searchsorted (64 and more)
        cum = np.cumsum(TINY.masses)
        cum[-1] = 1.0
        table = _guide_table(cum)
        u = _adversarial_uniforms(cum, len(table))
        steps = _steps(cum, table, u)[1]
        u = u[steps == passes] if passes < 64 else u[steps >= passes]
        assert len(u)
        assert np.array_equal(_search(cum, table, u), np.searchsorted(cum, u, side="right"))
        self._check_engine(GEOMETRIC, t=200)
        self._check_engine(_random_support(50), t=200)

    def test_capped_table(self, monkeypatch):
        monkeypatch.setattr(sampling, "GUIDE_CELLS", 4)  # 500 atoms per bucket
        cum = np.cumsum(_random_support(2000).masses)
        assert len(_guide_table(cum)) == 4
        self._check_engine(_random_support(2000))

    def test_cumsum_past_one_before_the_last_atom(self):
        # the masses sum to 1 within the tolerance, and the cumsum passes 1
        # one atom early; the last atom then has no draws
        cloud = PointCloud([0.5, 0.5 + 1e-13, 1e-20], coords=[[0.0], [1.0], [2.0]])
        assert np.cumsum(cloud.masses)[1] > 1.0
        self._check_engine(cloud)

    @pytest.mark.parametrize("n, buckets", [
        (1, 64), (2, 128), (3, 256), (100, 8192), (1000, GUIDE_CELLS), (16_384, GUIDE_CELLS),
        (20_000, GUIDE_CELLS),
    ])
    def test_table_size(self, n, buckets):
        # the next power of two >= 64n, capped
        assert len(_guide_table(np.linspace(1.0 / n, 1.0, n))) == buckets

    @pytest.mark.parametrize("d, cells, on_edges", [
        (_random_support(5), GUIDE_CELLS, False), (_random_support(2000), GUIDE_CELLS, False),
        (ProbVector.uniform(4), GUIDE_CELLS, True), (ProbVector.uniform(64), GUIDE_CELLS, True),
        (TINY, GUIDE_CELLS, False), (GEOMETRIC, GUIDE_CELLS, False),
        (_random_support(50), 16, False), (ProbVector.uniform(64), 16, False),
    ], ids=["random5", "random2000", "uniform4", "uniform64", "tiny", "geometric",
            "random50-cap16", "uniform64-cap16"])
    def test_entries_follow_the_definition(self, monkeypatch, d, cells, on_edges):
        # lo and hi count the cum values <= k/K and < (k+1)/K; the bucket is
        # exact when they agree, that is when no cum value lies inside it
        monkeypatch.setattr(sampling, "GUIDE_CELLS", cells)
        cum = np.cumsum(d.masses)
        cum[-1] = 1.0
        table = _guide_table(cum)
        buckets = len(table)
        assert buckets == min(1 << (64 * len(cum) - 1).bit_length(), cells)
        lo = np.searchsorted(cum, np.arange(buckets) / buckets, side="right")
        hi = np.searchsorted(cum, np.arange(1, buckets + 1) / buckets, side="left")
        assert table.dtype == np.int16
        assert np.array_equal(table, np.where(lo == hi, lo, -1 - lo))
        # dyadic masses put every cum value on an edge k/K: no bucket is flagged
        assert np.isin(cum, np.arange(buckets + 1) / buckets).all() == on_edges
        assert (table >= 0).all() == on_edges

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
    forms, and the eps-missing mass the bool mask's, bit for bit, on every
    slice of a run, full or partial."""

    @pytest.mark.parametrize("d, t, replicates, rows", [
        (_random_support(2000, seed=3), 100, 70, 24),  # t < n, slices in chunks of 3 rows
        (GEOMETRIC, 30, 130, 24),  # t < n, many repeats
        (_random_support(5, seed=4), 40, 130, 40),  # t > n
        (_random_support(50, seed=5), 50, 100, 30),  # t = n
        (_random_support(50, seed=6), 1, 100, 30),  # t = 1, chunks of one row
        (_random_support(20, seed=7), 120, 70, 6),  # t > n, one chunk a slice
        (_random_support(300, seed=8), 120, 70, 3),  # t < n, one chunk a slice
    ], ids=["t<n-2000", "t<n-geometric", "t>n", "t=n", "t=1", "t>n-sliced", "t<n-sliced"])
    def test_rows_match_dense_reference(self, monkeypatch, d, t, replicates, rows):
        masses = np.repeat(d.m, d.c)
        dist = np.random.default_rng(t).random((len(masses), len(masses)))
        near, words = dist <= 0.05, _near_words(dist, 0.05)
        monkeypatch.setattr(numerics, "SLICE_BYTES", 8 * 3 * t * rows)  # slices of rows rows
        stats, eps_stats = _BlockStats(masses), _BlockStats(masses)
        slices, buffers = [], []

        def stat(idx):
            slices.append(len(idx))
            missing, singletons = _dense_rows(idx, masses)
            values = np.column_stack(
                [stats.missing(idx), missing, stats.bias(idx), singletons / t - missing,
                 _eps_rows(words, masses, idx, eps_stats),
                 (~near[idx].any(axis=1) * masses).sum(axis=1)])
            buffers.append((stats.kept, eps_stats.kept))
            return values

        values = monte_carlo(masses, t, replicates, 9, stat)
        assert len(slices) >= 2 and slices[0] == rows > slices[-1]  # a partial last slice
        for kept in zip(*buffers):  # one buffer a call, its row chunks within the budget
            assert all(b is kept[0] for b in kept) and kept[0].nbytes <= numerics.SLICE_BYTES
        for col in (0, 2, 4):
            assert [x.hex() for x in values[:, col]] == [x.hex() for x in values[:, col + 1]]

    @pytest.mark.parametrize("n, t", [(2000, 100), (300, 1), (60, 200)],
                             ids=["t<n", "t=1", "t>n"])
    def test_values_do_not_depend_on_row_chunks(self, monkeypatch, n, t):
        """Each statistic that keeps n cells a row gives the same bits in
        chunks of one row and of seven rows (a partial last chunk) as in its
        default chunks."""
        d = _random_support(n, seed=n)
        masses = np.repeat(d.m, d.c)
        coords = np.random.default_rng(n).random((n, 2))
        cloud = PointCloud(masses, coords=coords)
        words = _near_words(cloud.distances(), 0.05)
        idx = monte_carlo(masses, t, 50, 4, lambda idx: idx.copy())

        def rows():
            return [[x.hex() for x in f(idx)] for f in (
                _BlockStats(masses).missing, _BlockStats(masses).bias,
                lambda idx: _eps_rows(words, masses, idx))]

        whole = rows()
        for budget in (1, 8 * n * 7):
            monkeypatch.setattr(numerics, "SLICE_BYTES", budget)
            assert rows() == whole

    def test_reports_do_not_read_the_masses_tuple(self, monkeypatch):
        def refuse(self):
            raise AssertionError("ProbVector.masses builds a Python tuple of every atom")

        d = _random_support(40)
        expected = [verify_bias(d, 30, 1000, 1), verify_concentration(d, 30, 0.1, 10_000, 2)]
        monkeypatch.setattr(ProbVector, "masses", property(refuse))
        assert [verify_bias(d, 30, 1000, 1), verify_concentration(d, 30, 0.1, 10_000, 2)] == expected

    def test_concentration_memory_bounded(self):
        # a dense (rows, n) int64 count array and its float product would
        # take 2 MB per 64 rows here; the buffers are allocated once per call
        d = _random_support(2000, seed=9)
        tracemalloc.start()
        try:
            verify_concentration(d, 500, 0.1, 10_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2e6


def test_eps_rows_memory_bounded():
    # 400 rows of 2000 points: one (rows, n) float array would take 6.4 MB;
    # the row chunks share one buffer within SLICE_BYTES
    rng = np.random.default_rng(3)
    words = _near_words(rng.random((2000, 2000)), 0.01)
    masses = np.full(2000, 1 / 2000)
    idx = rng.integers(0, 2000, (400, 10)).astype(np.int16)
    tracemalloc.start()
    try:
        _eps_rows(words, masses, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * numerics.SLICE_BYTES


def test_eps_rows_allocate_no_flat_index():
    # at t > n a slice's flat draw index, (21, 1000) intp here (168 KB), is
    # larger than its (21, 400) float buffer; the eps statistic never reads
    # it, so the walk never allocates it: the peak is the gather of bit rows
    # (its indices as intp too) and the float buffer, with 96 KB to spare
    rng = np.random.default_rng(5)
    n, t = 400, 1000
    words = _near_words(rng.random((n, n)), 0.01)
    masses = np.full(n, 1 / n)
    idx = rng.integers(0, n, (numerics.rows_per_slice(8 * 3 * t), t)).astype(np.int16)
    row_bytes = len(idx) * words.shape[1] * words.itemsize
    cols = numerics.rows_per_slice(row_bytes)
    budget = cols * (row_bytes + 8 * len(idx)) + 8 * len(idx) * n + 96 * 1024
    assert 8 * idx.size > 96 * 1024
    tracemalloc.start()
    try:
        _eps_rows(words, masses, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget, (peak, budget)


class TestPinnedValues:
    """Seeded values of the one-stream engine, whose indices equal plain
    searchsorted ones (TestGuideTable) and whose row statistics equal the
    dense reference forms (TestBlockStats); any change to the sampler that
    moves a draw moves one of them."""

    def test_verify_bias(self):
        w = np.random.default_rng(2024).random(2000)
        rep = verify_bias(ProbVector(w / w.sum(), normalize=True), 500, 1000, 17)
        assert json.dumps(rep.to_json_obj()) == (
            '{"estimate": 0.0006328452758564241, "std_error": 0.0009343727903423329, '
            '"replicates": 1000, "seed": 17, "bound": 0.0004587301710060102, '
            '"violated": false}')

    def test_verify_concentration(self):
        rep = verify_concentration(GEOMETRIC, 100, 0.05, 10_000, 23)
        assert json.dumps(rep.to_json_obj()) == (
            '{"estimate": 0.014297691535949708, "std_error": 0.00010052917361609696, '
            '"replicates": 10000, "seed": 23, "exceed_freq": 0.0014, '
            '"bound": 1.5576015661428098, "violated": false}')

    def test_mc_eps_missing_mass(self):
        coords = np.random.default_rng(5).random((300, 2))
        rep = mc_eps_missing_mass(PointCloud([1 / 300] * 300, coords=coords), 100, 0.08, 1000, 31)
        assert json.dumps(rep.to_json_obj()) == (
            '{"estimate": 0.14266, "std_error": 0.0009174054171226768, '
            '"replicates": 1000, "seed": 31, "bound": 0.14205957414632403, '
            '"violated": false}')

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


class TestMcReportJson:
    def test_optional_fields_elided(self):
        rep = verify_bias(ProbVector([1.0]), 2, replicates=1000, seed=0)
        obj = rep.to_json_obj()
        assert "exceed_freq" not in obj
        assert {"estimate", "std_error", "replicates", "seed"} <= set(obj)


# The README's CLI tour, run in process by the import guard below.
README_TOUR = [
    "emm --family uniform --n 10 --t 10",
    "emm --family dyadic-blocks --a 3 --t-grid 1:100:10 --format csv",
    "bounds --family uniform --n 20 --t-grid 5,20,80",
    "extremal --n 10 --t 1000",
    "tau --n 3,10,100",
    "construct --kind tight-finite --n 3 --t 5",
    "construct --kind rate-lb --target inverse-log --t-max 200",
    "gt --family uniform --n 2 --t 2",
    "simulate --mode bias --family uniform --n 50 --t 100 --replicates 100000 --seed 1",
    "simulate --mode concentration --family uniform --n 20 --t 100 --eps 0.3",
    "cover --cloud cloud.json --eps 0.5 --t 10 --exact",
    "oracle --t 40 --grid-step 0.001",
]


def test_no_lazy_numpy_ma_import(tmp_path):
    # some numpy functions (np.unique among them) import numpy.ma on their
    # first call, which costs every process milliseconds and memory
    code = f"""
import contextlib, io, sys
import missingmass as mm
from missingmass import cli
d = mm.ProbVector([0.05, 0.1, 0.15, 0.2, 0.5])
c = mm.PointCloud([0.25] * 4, coords=[[0.0], [0.3], [1.0], [1.2]])
mm.verify_bias(d, 9, 1000, 3)
mm.verify_concentration(d, 9, 0.3, 10000, 3)
mm.mc_eps_missing_mass(c, 3, 0.35, 1000, 4)
with open("cloud.json", "w") as f:
    f.write('{{"points": [[0], [0.3], [1], [1.2]], "masses": [0.25, 0.25, 0.25, 0.25]}}')
for argv in {README_TOUR!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv.split()) == 0, argv
print("numpy.ma" in sys.modules)
"""
    package_root = os.path.dirname(os.path.dirname(sampling.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         cwd=tmp_path, check=True, capture_output=True, text=True)
    assert run.stdout == "False\n"
