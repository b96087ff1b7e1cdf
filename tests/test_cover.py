import itertools
import math
import tracemalloc

import numpy as np
import pytest

from missingmass import (
    InvalidInputError,
    PointCloud,
    ProbVector,
    bound_finite,
    covering_bound_report,
    exact_covering_number,
    expected_eps_missing_mass,
    expected_missing_mass,
    greedy_eps_net,
    mc_eps_missing_mass,
)
from missingmass import cover, numerics
from missingmass.cover import ball_masses


@pytest.fixture
def line3():
    return PointCloud([0.5, 0.25, 0.25], coords=[[0.0], [1.0], [2.0]])


def brute_min_cover(cloud, eps):
    """Oracle: try every subset of centers in increasing size order."""
    d = cloud.distances()
    for k in range(1, cloud.n + 1):
        for centers in itertools.combinations(range(cloud.n), k):
            if np.all(d[list(centers)].min(axis=0) <= eps):
                return k
    return cloud.n


def random_cloud(rng, n, dim, skewed=False):
    coords = rng.random((n, dim))
    if skewed:
        masses = rng.exponential(size=n)
        return PointCloud(masses, coords=coords, normalize=True)
    return PointCloud([1.0 / n] * n, coords=coords)


class TestPointCloud:
    def test_masses_validated(self):
        with pytest.raises(InvalidInputError):
            PointCloud([0.5, 0.6], coords=[[0.0], [1.0]])
        with pytest.raises(InvalidInputError):
            PointCloud([0.5, 0.5], coords=[[0.0]])

    @pytest.mark.parametrize("geometry", [
        {"matrix": [[0.0, math.nan], [math.nan, 0.0]]},
        {"matrix": [[0.0, math.inf], [math.inf, 0.0]]},
        {"coords": [[0.0], [math.nan]]},
        {"coords": [[0.0, math.inf], [1.0, 1.0]]},
    ], ids=["nan-matrix", "inf-matrix", "nan-coords", "inf-coords"])
    def test_non_finite_geometry_rejected(self, geometry):
        with pytest.raises(InvalidInputError, match="finite"):
            PointCloud([0.5, 0.5], **geometry)

    def test_needs_exactly_one_geometry(self):
        with pytest.raises(InvalidInputError):
            PointCloud([1.0])
        with pytest.raises(InvalidInputError):
            PointCloud([1.0], coords=[[0.0]], matrix=[[0.0]])

    def test_euclidean_distances(self, line3):
        d = line3.distances()
        assert d[0, 2] == pytest.approx(2.0)
        assert d[0, 1] == pytest.approx(1.0)

    def test_explicit_matrix_roundtrip(self):
        m = [[0.0, 1.0], [1.0, 0.0]]
        cloud = PointCloud([0.5, 0.5], matrix=m)
        assert cloud.metric == "matrix"
        again = PointCloud.from_json_obj(cloud.to_json_obj())
        assert np.allclose(again.distances(), m)

    def test_matrix_validation(self):
        with pytest.raises(InvalidInputError):
            PointCloud([0.5, 0.5], matrix=[[0.0, 1.0], [2.0, 0.0]])  # asymmetric
        with pytest.raises(InvalidInputError):
            PointCloud([0.5, 0.5], matrix=[[0.5, 1.0], [1.0, 0.0]])  # diagonal
        with pytest.raises(InvalidInputError):
            PointCloud([0.5, 0.5], matrix=[[0.0, -1.0], [-1.0, 0.0]])  # negative
        bad_triangle = [
            [0.0, 1.0, 3.0],
            [1.0, 0.0, 1.0],
            [3.0, 1.0, 0.0],
        ]
        with pytest.raises(InvalidInputError):
            PointCloud([1 / 3] * 3, matrix=bad_triangle, normalize=True)

    def test_size_cap(self, monkeypatch):
        # both geometries are refused by their point count, before the
        # matrix or the coordinates are read
        monkeypatch.setattr(cover, "MAX_CLOUD_POINTS", 4)
        assert PointCloud([0.25] * 4, coords=np.arange(4.0)).distances().shape == (4, 4)
        assert PointCloud([0.25] * 4, matrix=np.zeros((4, 4))).n == 4
        message = "cloud of 5 points exceeds MAX_CLOUD_POINTS=4"
        for geometry in ({"coords": "not read"}, {"matrix": "not read"}):
            with pytest.raises(InvalidInputError, match=message):
                PointCloud([0.2] * 5, **geometry)
        with pytest.raises(InvalidInputError, match=message):
            PointCloud.from_csv_text("id,mass,x1\n" + "p,0.2,0.0\n" * 5)

    def test_matrix_cap(self, monkeypatch):
        # a matrix input is refused by its point count before it is read;
        # coordinates of the same count are not
        monkeypatch.setattr(cover, "MAX_MATRIX_POINTS", 3)
        assert PointCloud([0.25] * 3 + [0.25], coords=np.arange(4.0)).n == 4
        assert PointCloud([1 / 3] * 3, matrix=np.zeros((3, 3))).n == 3
        with pytest.raises(InvalidInputError,
                           match="distance matrix of 4 points exceeds MAX_MATRIX_POINTS=3"):
            PointCloud([0.25] * 4, matrix="not read")

    def test_csv_roundtrip(self, line3):
        text = "id,mass,x1\np0,0.5,0.0\np1,0.25,1.0\np2,0.25,2.0\n"
        cloud = PointCloud.from_csv_text(text)
        assert np.allclose(cloud.masses, line3.masses)
        assert np.allclose(cloud.distances(), line3.distances())

    def test_one_dimensional_coords(self, line3):
        cloud = PointCloud([0.5, 0.25, 0.25], coords=[0.0, 1.0, 2.0])
        assert cloud.coords.shape == (3, 1)
        assert cloud.distances().tolist() == line3.distances().tolist()

    def test_wrong_shapes_rejected(self):
        with pytest.raises(InvalidInputError, match="matrix must be"):
            PointCloud([0.5, 0.5], matrix=[[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        with pytest.raises(InvalidInputError, match="coords must be"):
            PointCloud([0.5, 0.5], coords=[[[0.0]], [[1.0]]])

    def test_coordinate_json_roundtrip(self, line3):
        obj = line3.to_json_obj()
        assert obj == {"masses": [0.5, 0.25, 0.25], "points": [[0.0], [1.0], [2.0]]}
        again = PointCloud.from_json_obj(obj)
        assert again.metric == "euclidean"
        assert again.distances().tolist() == line3.distances().tolist()

    @pytest.mark.parametrize("obj, message", [
        ({"points": [[0.0], [1.0]]}, "masses"),
        ([0.5, 0.5], "masses"),
        ({"masses": [0.5, 0.5]}, "'points' or 'matrix'"),
        ({"masses": 0.5, "points": [[0.0]]}, "list of numbers"),
        ({"masses": [0.5, 0.5], "points": [[], []]}, "coords must be"),
    ], ids=["no-masses", "not-an-object", "no-geometry", "masses-number", "no-coordinates"])
    def test_json_object_rejected(self, obj, message):
        with pytest.raises(InvalidInputError, match=message):
            PointCloud.from_json_obj(obj)

    @pytest.mark.parametrize("text, message", [
        ("id,mass,x1\n", "header and data rows"),
        ("", "header and data rows"),
        ("name,mass,x1\na,1.0,0\n", "must start id,mass"),
        ("id,mass\na,0.5\nb,0.5\n", "coords must be"),
    ], ids=["header-only", "empty", "bad-header", "no-coordinates"])
    def test_csv_text_rejected(self, text, message):
        with pytest.raises(InvalidInputError, match=message):
            PointCloud.from_csv_text(text)


class TestDistances:
    """distances() fills the matrix in row slices through one buffer
    allocated once: one coordinate column at a time below 8 coordinates,
    by np.sum over each slice's (rows, n, dim) squared differences from 8
    on; each entry is bit for bit that of one (n, n, dim) difference array
    summed by np.sum."""

    @staticmethod
    def one_shot(coords):
        diff = coords[:, None, :] - coords[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=2))
        np.fill_diagonal(d, 0.0)
        return d

    @pytest.mark.parametrize("dim", range(1, 12))
    def test_matches_one_shot_reference(self, dim):
        # 512 points fill whole slices for dim 1, 2, 4 and 8; the other sizes
        # end in a partial slice or fit in one
        rng = np.random.default_rng(dim)
        for n in (1, 2, 5, 64, 257, 512, 700):
            coords = rng.random((n, dim)) * 10.0 ** rng.integers(-3, 4)
            if n > 2 and n % 2:
                coords[rng.integers(0, n, n // 3)] = coords[n // 2]  # duplicate points
            d = PointCloud([1.0 / n] * n, coords=coords).distances()
            assert d.tobytes() == self.one_shot(coords).tobytes(), (n, dim)

    @pytest.mark.parametrize("dim", [15, 16, 17, 23, 64, 127, 128, 129, 136, 200, 257, 300])
    def test_matches_one_shot_reference_across_blocks(self, dim):
        # numpy adds 8 to 128 terms in eight lanes and splits more in halves;
        # these dims cross both edges and end in leftover terms
        rng = np.random.default_rng(dim)
        for n in (1, 2, 5, 33, 97):
            coords = rng.random((n, dim)) * 10.0 ** rng.integers(-3, 4)
            if n > 2 and n % 2:
                coords[rng.integers(0, n, n // 3)] = coords[n // 2]  # duplicate points
            d = PointCloud([1.0 / n] * n, coords=coords).distances()
            assert d.tobytes() == self.one_shot(coords).tobytes(), (n, dim)

    def test_duplicate_points(self):
        coords = np.repeat([[0.5, 0.25], [1.5, -2.0]], [3, 2], axis=0)
        d = PointCloud([0.2] * 5, coords=coords).distances()
        assert d.tobytes() == self.one_shot(coords).tobytes()
        assert (d[:3, :3] == 0.0).all() and (d[3:, 3:] == 0.0).all()
        assert d[0, 4] == math.sqrt(1.0 + 2.25 * 2.25)

    def test_independent_of_the_slicing(self, monkeypatch):
        # the in-order column sum at dim 3 and np.sum over (rows, n, dim)
        # slices at dim 12; the 31,040-byte budget gives 40-row slices at
        # dim 3 and 3-row slices at dim 12, each ending in a partial slice
        for dim in (3, 12):
            coords = np.random.default_rng(11).random((97, dim))
            results = set()
            for budget in (8, 8 * 8 * 97 * 5, numerics.SLICE_BYTES):
                monkeypatch.setattr(numerics, "SLICE_BYTES", budget)
                results.add(PointCloud([1.0 / 97] * 97, coords=coords).distances().tobytes())
            monkeypatch.undo()
            assert results == {self.one_shot(coords).tobytes()}, dim

    def test_memory_near_the_matrix(self):
        # the 8 MB matrix, one slice buffer within SLICE_BYTES (at 130-D a
        # single (1, 1000, 130) row of squared differences, 1.04 MB) and
        # about 128 KiB of numpy's own buffers for the broadcast subtraction;
        # peaks 8.27 MiB in 2-D and 8.69 MiB at 130-D.  A (n, n, dim)
        # difference array and its square would add 32 MB in 2-D
        n = 1000
        for dim in (2, 12, 130):
            cloud = random_cloud(np.random.default_rng(7), n, dim)
            tracemalloc.start()
            try:
                cloud.distances()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            one_slice = max(numerics.SLICE_BYTES, 8 * n * dim)
            assert peak < 8 * n * n + one_slice + 2 ** 18, dim


class TestGreedyNet:
    def test_covers(self, line3):
        net = greedy_eps_net(line3, 1.0)
        d = line3.distances()
        assert np.all(d[list(net.center_indices)].min(axis=0) <= 1.0)
        # optimal cover is a single center (the midpoint); greedy certifies 2
        assert brute_min_cover(line3, 1.0) == 1
        assert exact_covering_number(line3, 1.0) == 1
        assert net.size >= 1

    def test_huge_radius_single_center(self, line3):
        assert greedy_eps_net(line3, 2.5).size == 1

    def test_tiny_radius_all_points(self, line3):
        assert greedy_eps_net(line3, 0.5).size == 3

    def test_seeds_largest_mass(self, line3):
        assert greedy_eps_net(line3, 2.5).center_indices == (0,)

    def test_eps_validation(self, line3):
        with pytest.raises(InvalidInputError):
            greedy_eps_net(line3, 0.0)

    def test_size_monotone_in_eps(self, rng):
        cloud = random_cloud(rng, 60, 2)
        dists = cloud.distances()[np.triu_indices(60, k=1)]
        sizes = [
            greedy_eps_net(cloud, float(q)).size
            for q in np.quantile(dists, [0.9, 0.5, 0.25, 0.1])
        ]
        assert sizes == sorted(sizes)

    def test_covering_invariant_random(self, rng):
        for _ in range(5):
            cloud = random_cloud(rng, 40, 3, skewed=True)
            eps = float(np.quantile(cloud.distances(), 0.3))
            net = greedy_eps_net(cloud, max(eps, 1e-6))
            assert np.all(
                cloud.distances()[list(net.center_indices)].min(axis=0) <= net.eps
            )


def restart_per_eps_net(cloud, eps):
    """The farthest-point net walked from the start for one eps."""
    d = cloud.distances()
    centers = [int(np.argmax(cloud.masses))]
    min_dist = d[centers[0]].copy()
    while float(min_dist.max()) > eps:
        centers.append(int(np.argmax(min_dist)))
        np.minimum(min_dist, d[centers[-1]], out=min_dist)
    return tuple(centers)


def traversal_clouds(rng):
    """Seeded clouds: coordinates in 1-3 dimensions, one with duplicate
    points, one as a distance matrix, and small ones for the exact cover."""
    clouds = [random_cloud(rng, n, dim, skewed=dim != 2)
              for n, dim in ((60, 1), (90, 2), (45, 3), (8, 2), (11, 3))]
    coords = rng.random((40, 2))
    coords[20:] = coords[:20]
    clouds.append(PointCloud(rng.exponential(size=40), coords=coords, normalize=True))
    base = random_cloud(rng, 50, 3, skewed=True)
    clouds.append(PointCloud(base.masses, matrix=base.distances().tolist()))
    return clouds


class TestFarthestPointTraversal:
    """The cloud keeps one farthest-point traversal; every net is a prefix of
    it, equal to the net walked from the start for that eps alone."""

    def test_nets_match_restart_per_eps(self, rng):
        for cloud in traversal_clouds(rng):
            d = cloud.distances()
            radii = np.quantile(d[d > 0], np.linspace(0.0, 1.0, 25)).tolist()
            radii += [1e-300, 2 * float(d.max()), math.inf]
            for eps in rng.permutation(radii).tolist():
                query = rng.integers(3)
                if query == 0:
                    assert greedy_eps_net(cloud, eps).center_indices \
                        == restart_per_eps_net(cloud, eps)
                elif query == 1 and eps < math.inf:
                    cells = covering_bound_report(cloud, 10, eps)["cells"]
                    assert cells == len(restart_per_eps_net(cloud, eps / 2))
                elif query == 2 and cloud.n <= 11:
                    exact = exact_covering_number(cloud, eps)
                    assert exact == brute_min_cover(cloud, eps)
            for eps in radii:  # every radius again, after the traversal grew
                assert greedy_eps_net(cloud, eps).center_indices \
                    == restart_per_eps_net(cloud, eps)

    def test_one_call_walks_only_its_net(self, rng):
        cloud = random_cloud(rng, 200, 2)
        net = greedy_eps_net(cloud, float(np.quantile(cloud.distances(), 0.5)))
        assert 1 < net.size < cloud.n
        assert len(cloud._far.centers) <= net.size
        # a larger eps is a shorter prefix, read without walking further
        assert greedy_eps_net(cloud, 2 * net.eps).size <= net.size
        assert len(cloud._far.centers) <= net.size


class TestExpectedEpsMissingMass:
    def test_hand_computed_examples(self, line3):
        assert expected_eps_missing_mass(line3, 1, 1.0) == pytest.approx(0.25, abs=1e-15)
        assert expected_eps_missing_mass(line3, 1, 0.5) == pytest.approx(0.625, abs=1e-15)

    def test_huge_radius_vanishes(self, line3):
        for t in [1, 5, 50]:
            assert expected_eps_missing_mass(line3, t, 2.0) == 0.0

    def test_reduces_to_discrete_missing_mass(self, rng):
        # all pairwise distances above eps: balls are singletons
        cloud = PointCloud(
            [0.2, 0.3, 0.5], coords=[[0.0], [10.0], [20.0]]
        )
        d = ProbVector([0.2, 0.3, 0.5])
        for t in [1, 4, 9]:
            assert expected_eps_missing_mass(cloud, t, 0.5) == pytest.approx(
                expected_missing_mass(d, t), abs=1e-12
            )

    def test_monotone_in_t_and_eps(self, rng):
        cloud = random_cloud(rng, 50, 2, skewed=True)
        qs = np.quantile(cloud.distances()[np.triu_indices(50, k=1)], [0.2, 0.5, 0.8])
        for eps in qs:
            vals = [expected_eps_missing_mass(cloud, t, float(eps)) for t in (1, 5, 25)]
            assert vals == sorted(vals, reverse=True)
        for t in (1, 5, 25):
            vals = [expected_eps_missing_mass(cloud, t, float(eps)) for eps in qs]
            assert vals == sorted(vals, reverse=True)


class TestBallMasses:
    def test_row_sums_independent_of_slicing(self, rng):
        cloud = random_cloud(rng, 300, 2, skewed=True)
        d, eps = cloud.distances(), 0.2
        balls = ball_masses(cloud, eps)
        assert balls.tolist() == [float(np.sum(np.where(row <= eps, cloud.masses, 0.0)))
                                  for row in d]
        assert np.allclose(balls, [math.fsum(cloud.masses[row <= eps]) for row in d],
                           rtol=1e-15, atol=0.0)

    def test_kept_for_the_last_eps(self, rng):
        """The cloud keeps one read-only array, for the last eps; another eps
        recomputes, and the values never depend on the cache."""
        cloud = random_cloud(rng, 60, 2)
        d = cloud.distances()

        def fresh(eps):
            return [float(np.sum(np.where(row <= eps, cloud.masses, 0.0))) for row in d]

        first = ball_masses(cloud, 0.2)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert ball_masses(cloud, 0.2) is first
        expected_eps_missing_mass(cloud, 3, 0.2)
        assert ball_masses(cloud, 0.2) is first
        second = ball_masses(cloud, 0.35)
        assert second is not first and not second.flags.writeable
        assert second.tolist() == fresh(0.35) != first.tolist()
        again = ball_masses(cloud, 0.2)
        assert again is not first and again.tolist() == first.tolist() == fresh(0.2)

    def test_memory_bounded(self):
        # a dense float copy of the ball matrix would be 8 MB here
        cloud = random_cloud(np.random.default_rng(7), 1000, 2)
        cloud.distances()  # cached before tracing: the matrix is the input
        tracemalloc.start()
        try:
            ball_masses(cloud, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


@pytest.fixture
def two_clusters():
    """Two heavy points 2 apart and a light one between them: one closed
    ball of radius 1 covers all three, but the heavy points are not within
    1 of each other."""
    return PointCloud([0.49, 0.02, 0.49], coords=[[-1.0], [0.0], [1.0]])


class TestCoveringBound:
    def test_line_example(self, line3):
        report = covering_bound_report(line3, 1, 1.0)
        assert set(report) == {"t", "eps", "expected", "cells", "bound", "ok"}
        assert report["expected"] == pytest.approx(0.25)
        assert report["cells"] == 3  # radius-1/2 net: no two points share a cell
        assert report["bound"] == bound_finite(3, 1) == pytest.approx(math.exp(-1 / 3))
        assert report["ok"]

    def test_ok_takes_the_relative_verdict_rule(self, line3, monkeypatch):
        """An expected mass 1e-13 above a bound near 1e-3 is a violation: the
        slack is relative (sampling.is_violation with a standard error of
        0), not an absolute 1e-12."""
        from missingmass import cover

        t = 1104  # bound = 3/(e t) = 1.0e-3 with the 3 cells of the line
        bound = bound_finite(3, t)
        assert bound == pytest.approx(1e-3, rel=1e-3)
        monkeypatch.setattr(cover, "expected_eps_missing_mass", lambda *a: bound + 1e-13)
        report = covering_bound_report(line3, t, 1.0)
        assert report["bound"] == bound
        assert report["ok"] is False
        monkeypatch.setattr(cover, "expected_eps_missing_mass", lambda *a: bound)
        assert covering_bound_report(line3, t, 1.0)["ok"] is True

    def test_random_grid(self, rng):
        for _ in range(10):
            cloud = random_cloud(rng, int(rng.integers(5, 80)), int(rng.integers(1, 4)),
                                 skewed=bool(rng.integers(0, 2)))
            dists = cloud.distances()[np.triu_indices(cloud.n, k=1)]
            for q in (0.25, 0.5, 0.75):
                eps = float(np.quantile(dists, q))
                if eps <= 0:
                    continue
                for t in (1, 10, 100):
                    cells = greedy_eps_net(cloud, eps / 2).size
                    value = expected_eps_missing_mass(cloud, t, eps)
                    assert value <= bound_finite(cells, t)

    @pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, True, "1"])
    def test_rejects_bad_eps_as_given(self, line3, eps):
        with pytest.raises(InvalidInputError, match=f"radius eps .* got {eps!r}"):
            covering_bound_report(line3, 1, eps)

    @pytest.mark.parametrize("eps", [5e-324, 3 * 5e-324])
    def test_rejects_eps_without_an_exact_half(self, line3, eps):
        """5e-324 halves to 0.0, and 3 * 2^-1074 halves to 2 * 2^-1074 (ties
        to even), whose cells could be eps + 2^-1074 wide."""
        with pytest.raises(InvalidInputError, match=f"radius eps .* got {eps!r}"):
            covering_bound_report(line3, 1, eps)
        assert covering_bound_report(line3, 1, 2 * 5e-324)["cells"] == 3

    def test_two_clusters_under_one_ball(self, two_clusters):
        """The radius-eps comparison E <= N(eps)/(e t) fails here, and the
        eps/2 cells bound it."""
        value = expected_eps_missing_mass(two_clusters, 1, 1.0)
        assert value == pytest.approx(0.4802)
        assert exact_covering_number(two_clusters, 1.0) == 1
        assert value > exact_covering_number(two_clusters, 1.0) / math.e
        report = covering_bound_report(two_clusters, 1, 1.0)
        assert report["cells"] == 3
        assert report["bound"] == pytest.approx(math.exp(-1 / 3))
        assert report["ok"] is True

    def test_seed_sweep_of_small_clouds(self):
        """300 small clouds like those of C10, 5 eps quantiles, t in
        {1, 10, 100}: ok on every cell."""
        failures = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            cloud = random_cloud(rng, int(rng.integers(5, 21)), int(rng.integers(1, 6)),
                                 skewed=bool(rng.integers(0, 2)))
            dists = cloud.distances()[np.triu_indices(cloud.n, k=1)]
            for eps in np.quantile(dists, [0.1, 0.25, 0.5, 0.75, 0.9]).tolist():
                for t in (1, 10, 100):
                    if eps > 0 and not covering_bound_report(cloud, t, eps)["ok"]:
                        failures.append((seed, eps, t))
        assert failures == []


class TestExactCover:
    def test_matches_brute_force(self, rng):
        for _ in range(8):
            n = int(rng.integers(3, 9))
            cloud = random_cloud(rng, n, 2)
            eps = float(np.quantile(cloud.distances(), 0.4))
            if eps <= 0:
                continue
            assert exact_covering_number(cloud, eps) == brute_min_cover(cloud, eps)

    def test_never_exceeds_greedy(self, rng):
        for _ in range(5):
            cloud = random_cloud(rng, 15, 3)
            eps = float(np.quantile(cloud.distances(), 0.5))
            assert exact_covering_number(cloud, eps) <= greedy_eps_net(cloud, eps).size

    def test_size_limit(self, rng):
        cloud = random_cloud(rng, 25, 2)
        with pytest.raises(InvalidInputError):
            exact_covering_number(cloud, 0.5)


class TestMcEpsMissingMass:
    def test_line_example_contains_closed_form(self, line3):
        rep = mc_eps_missing_mass(line3, 1, 1.0, replicates=4000, seed=0)
        assert rep.bound == pytest.approx(0.25)
        assert abs(rep.estimate - 0.25) <= 3 * rep.std_error
        assert rep.violated is False

    def test_huge_radius_degenerate(self, line3):
        rep = mc_eps_missing_mass(line3, 2, 2.0, replicates=1000, seed=0)
        assert rep.estimate == 0.0
        assert rep.std_error == 0.0

    def test_single_point_cloud(self):
        cloud = PointCloud([1.0], coords=[[0.0]])
        rep = mc_eps_missing_mass(cloud, 3, 0.1, replicates=1000, seed=0)
        assert rep.estimate == 0.0

    def test_replicate_floor(self, line3):
        with pytest.raises(InvalidInputError):
            mc_eps_missing_mass(line3, 1, 1.0, replicates=10, seed=0)

    def test_deterministic(self, line3):
        a = mc_eps_missing_mass(line3, 2, 0.5, replicates=2000, seed=5)
        b = mc_eps_missing_mass(line3, 2, 0.5, replicates=2000, seed=5)
        assert a == b

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the 3-SE rule misses an eps-missing mass carried by rare "
        "replicates; every replicate reads 0, so the estimate and its SE are 0"))
    def test_no_false_violation_when_every_replicate_reads_zero(self):
        """The values audit's 700-point 2-D cloud (seeded by (2, 700)), eps
        its distances' 0.3 quantile: at t = 100 the closed form is about
        1.3e-7, far below one replicate in 2000, so a run of 2000 reads an
        eps-missing mass of 0 in every replicate, with a standard error of 0
        that cannot cover the closed form."""
        rng = np.random.default_rng([2, 700])
        coords = rng.random((700, 2)) * 10.0 ** rng.integers(-3, 4)
        cloud = PointCloud([1.0 / 700] * 700, coords=coords)
        eps = float(np.quantile(cloud.distances(), 0.3))
        rep = mc_eps_missing_mass(cloud, 100, eps, replicates=2000, seed=6)
        assert 0.0 < rep.bound < 1e-6
        assert rep.violated is False

    def test_memory_bounded_on_large_cloud(self):
        # a whole block's (rows, t, n) gather of ball hits would be 32 MB
        # here; 128 KB of bit rows, packed in slices, and 512 KB gathers
        # fit in 2 MB
        cloud = random_cloud(np.random.default_rng(5), 1000, 2)
        cloud.distances()  # cached before tracing: the 8 MB matrix is the input
        tracemalloc.start()
        try:
            rep = mc_eps_missing_mass(cloud, 500, 0.02, replicates=1000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert rep.violated is False

    def test_bit_rows_packed_in_slices(self):
        # the (n, n) bool ball mask alone would be 9 MB here; the bit rows
        # (1.1 MB) are packed from one bool slice buffer within SLICE_BYTES
        cloud = random_cloud(np.random.default_rng(6), 3000, 2)
        cloud.distances()  # cached before tracing: the 72 MB matrix is the input
        tracemalloc.start()
        try:
            rep = mc_eps_missing_mass(cloud, 10, 0.02, replicates=1000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6
        assert rep.violated is False


class TestNearWords:
    @pytest.mark.parametrize("budget", [1, 200, None], ids=["1", "200", "default"])
    @pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 129, 200])
    def test_bit_rows_of_the_ball_mask(self, monkeypatch, n, budget):
        """Packed one row, one 200-byte slice or one default slice at a time,
        the words hold the bool mask d <= eps bit for bit, in np.packbits'
        little bit order, with zero padding past n."""
        d = random_cloud(np.random.default_rng(n), n, 2).distances()
        if budget is not None:
            monkeypatch.setattr(numerics, "SLICE_BYTES", budget)
        words = cover._near_words(d, 0.3)
        assert words.shape == (n, -(-n // 64)) and words.dtype == np.uint64
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        assert np.array_equal(bits[:, :n], d <= 0.3) and not bits[:, n:].any()
