import math
import os
import subprocess
import sys

import numpy as np
import pytest

from missingmass import (
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
    monte_carlo,
    verify_bias,
    verify_concentration,
)
from missingmass import sampling
from missingmass.cover import _eps_missing_rows
from missingmass.sampling import BLOCK, _bias_rows, _counts, _missing_rows


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


class TestMonteCarlo:
    D = ProbVector([0.05, 0.1, 0.15, 0.2, 0.5])

    def _missing(self, replicates, seed):
        masses = np.asarray(self.D.masses)
        stat = lambda idx: _missing_rows(_counts(idx, self.D.n), masses)  # noqa: E731
        return monte_carlo(masses, 6, replicates, seed, stat)

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
        monkeypatch.setattr(sampling, "DRAWS_PER_CALL", 20)  # 3 rows of t=6 per call
        assert np.array_equal(self._missing(200, 8), whole)

    def test_rows_match_per_sample_functions(self):
        t, seed = 7, 11
        masses = np.asarray(self.D.masses)
        idx = monte_carlo(masses, t, BLOCK, seed, lambda idx: idx)
        missing = _missing_rows(_counts(idx, self.D.n), masses)
        bias = _bias_rows(idx, masses)
        coords = [[0.0], [0.3], [0.5], [1.1], [1.2]]
        cloud = PointCloud(masses, coords=coords)
        near = cloud.distances() <= 0.25
        eps_missing = _eps_missing_rows(near, cloud.masses, idx)
        for i, row in enumerate(idx):
            sc = SampleCounts(t, tuple(np.bincount(row, minlength=self.D.n).tolist()), "d", seed)
            assert abs(missing[i] - empirical_missing_mass(self.D, sc)) <= 1e-15
            assert abs(bias[i] - (good_turing(sc) - empirical_missing_mass(self.D, sc))) <= 1e-15
            assert abs(eps_missing[i] - eps_missing_mass(cloud, row, 0.25)) <= 1e-15


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
