"""Missing mass in finite metric spaces: eps-balls, greedy nets, and the
covering bound.

A point is eps-missed by a sample when no draw lands within distance eps of
it (closed balls, so boundary points count as covered).  The expected
eps-missing mass is bounded by the finite theorem, mass.bound_finite(K, t),
where K is the size of a greedy radius-eps/2 net: its nearest-center cells
have diameter at most eps (covering_bound_report gives the argument).  A
farthest-point greedy net certifies N_hat(eps) >= N(eps), and an exact
set-cover search gives the covering number N(eps) on small clouds.

The Monte Carlo check and the exact cover read the eps-ball mask d <= eps
as bit rows (_near_words): point j is bit j % 8 of byte j // 8 of a row of
64-bit words, 8x smaller than the bool mask, which is packed a slice of
rows at a time within numerics.SLICE_BYTES and never built whole.  A
sample's hit mask is the OR of its draws' rows, one word per 64 points;
the eps-missing mass is a chunk function of sampling._BlockStats.rows,
which unpacks the missed points into the walk's shared float buffer.

The distance matrix and the ball masses are computed in row slices within
numerics.SLICE_BYTES, through slice buffers allocated once per call.  A
coordinate cloud's matrix is bit for bit the matrix np.sum gives over an
(n, n, dim) difference array: below 8 coordinates it is filled one
coordinate column at a time, each entry's squared differences added in
order, which is np.sum's order for so few terms; from 8 on, np.sum itself
adds each row slice's squared differences.
A cloud of more than MAX_CLOUD_POINTS points is refused before its n x n
matrix is allocated, and a distance matrix input of more than
MAX_MATRIX_POINTS points before it is read.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import MassSumError, csv_floats, validate_masses
from .errors import InvalidInputError, require_real, require_reals, require_t
from .mass import bound_finite
from .numerics import exact_sum, pow_one_minus, rows_per_slice
from .sampling import _BlockStats, McReport, is_violation, mean_report, monte_carlo, require_run

MATRIX_TOL = 1e-9
# Largest cloud a PointCloud accepts: its n x n distance matrix is 512 MiB.
MAX_CLOUD_POINTS = 1 << 13
# Largest distance matrix a PointCloud accepts as input.  Its triangle check
# takes one pass over two n x n temporaries per point, so its time grows as
# n^3: 2.35 s at this cap (0.28 s at 512 points; 2-vCPU Xeon, numpy 2.4),
# and about 20 minutes it would take at MAX_CLOUD_POINTS.
MAX_MATRIX_POINTS = 1 << 10
# Largest cloud that exact_covering_number's branch-and-bound accepts.
EXACT_COVER_LIMIT = 20


class PointCloud:
    """Finite metric probability space: points, masses, and a distance oracle.

    Either Euclidean coordinates or an explicit distance matrix, every entry
    a finite real number (a float array passes by its dtype; "0" and true are
    errors, never coerced); explicit matrices are validated (symmetry, zero
    diagonal, nonnegativity, triangle inequality within 1e-9) on
    construction.  The masses, kept in point order, pass the distributions'
    mass validator.  A cloud of more than MAX_CLOUD_POINTS points is
    refused before anything n x n is built, and a matrix of more than
    MAX_MATRIX_POINTS points, whose triangle check takes time n^3, before
    it is read.

    The cloud caches what its queries share: the distance matrix, built
    once; the ball masses for the last eps they were asked for; and the
    farthest-point traversal that greedy_eps_net reads its nets from.  The
    traversal's order of centers does not depend on eps, so it is walked
    once per cloud, and only as far as the smallest eps asked for so far.
    """

    def __init__(self, masses, *, coords=None, matrix=None, normalize: bool = False):
        if (coords is None) == (matrix is None):
            raise InvalidInputError("give exactly one of coords or matrix")
        try:
            self.masses = validate_masses(masses, normalize=normalize)[0]
        except MassSumError as exc:
            raise exc.hinted() from None
        self.n = len(self.masses)
        if self.n > MAX_CLOUD_POINTS:
            raise InvalidInputError(
                f"cloud of {self.n} points exceeds MAX_CLOUD_POINTS={MAX_CLOUD_POINTS}")
        if matrix is not None and self.n > MAX_MATRIX_POINTS:
            raise InvalidInputError(f"distance matrix of {self.n} points exceeds "
                                    f"MAX_MATRIX_POINTS={MAX_MATRIX_POINTS}")
        if coords is not None:
            pts = _real_array(coords, "coordinates")
            if pts.ndim == 1:
                pts = pts[:, None]
            if pts.ndim != 2 or pts.shape[0] != self.n or pts.shape[1] == 0:
                raise InvalidInputError(
                    f"coords must be (n, d) with n={self.n}, got shape {pts.shape}"
                )
            if not np.isfinite(pts).all():
                raise InvalidInputError("coordinates must be finite")
            self.coords = pts
            self.metric = "euclidean"
            self._dist = None
        else:
            d = _real_array(matrix, "distance matrix entries")
            if d.shape != (self.n, self.n):
                raise InvalidInputError(
                    f"matrix must be ({self.n}, {self.n}), got shape {d.shape}"
                )
            self._validate_matrix(d)
            self.coords = None
            self.metric = "matrix"
            self._dist = d
        self._balls = None  # (eps, read-only ball_masses(self, eps))
        self._far = None  # _FarthestPoints, built by the first greedy_eps_net

    @staticmethod
    def _validate_matrix(d: np.ndarray) -> None:
        if not np.isfinite(d).all():
            raise InvalidInputError("distance matrix entries must be finite")
        if np.any(d < -MATRIX_TOL):
            raise InvalidInputError("distance matrix has negative entries")
        if np.max(np.abs(np.diagonal(d))) > MATRIX_TOL:
            raise InvalidInputError("distance matrix diagonal must be zero")
        if np.max(np.abs(d - d.T)) > MATRIX_TOL:
            raise InvalidInputError("distance matrix must be symmetric")
        for k in range(d.shape[0]):
            if np.any(d > d[:, k, None] + d[None, k, :] + MATRIX_TOL):
                raise InvalidInputError(
                    f"triangle inequality violated through point {k}"
                )

    def distances(self) -> np.ndarray:
        """The (n, n) distance matrix, built once, in row slices of the matrix
        itself.

        np.sum adds fewer than 8 terms in order, so a cloud of fewer than 8
        coordinates is summed one coordinate at a time, from contiguous
        coordinate columns (coords.T, copied once), each column's squared
        differences added to the slice in order.  A cloud of 8 or more
        coordinates writes a slice's squared differences into one
        (rows, n, dim) buffer and sums it with np.sum along its last axis,
        so numpy itself decides the order.  Either way every distance is bit
        for bit the square root of np.sum over one (n, n, dim) difference
        array.  The slice buffer, allocated once per call, fits in
        SLICE_BYTES (at least one row), so the build holds little more than
        the matrix."""
        if self._dist is None:
            n, dim = self.coords.shape
            in_order = dim < 8  # np.sum adds fewer than 8 terms in order
            cols = np.ascontiguousarray(self.coords.T) if in_order else None
            step = min(rows_per_slice(8 * n * (1 if in_order else dim)), n)
            buffer = np.empty((step, n) if in_order else (step, n, dim))
            d = np.empty((n, n))
            for r in range(0, n, step):
                k = min(step, n - r)
                rows, sq = d[r:r + k], buffer[:k]
                if in_order:
                    for c in range(dim):  # (x_c - y_c)^2 for the slice's pairs
                        out = sq if c else rows
                        np.subtract(cols[c, r:r + k, None], cols[c], out=out)
                        np.multiply(out, out, out=out)
                        if c:
                            rows += sq
                else:
                    np.subtract(self.coords[r:r + k, None], self.coords, out=sq)
                    np.sum(np.multiply(sq, sq, out=sq), axis=2, out=rows)
                np.sqrt(rows, out=rows)
            np.fill_diagonal(d, 0.0)
            self._dist = d
        return self._dist

    # -- serialization --

    def to_json_obj(self) -> dict:
        obj = {"masses": self.masses.tolist()}
        if self.metric == "euclidean":
            obj["points"] = self.coords.tolist()
        else:
            obj["matrix"] = self.distances().tolist()
        return obj

    @staticmethod
    def from_json_obj(obj) -> "PointCloud":
        if not isinstance(obj, dict) or "masses" not in obj:
            raise InvalidInputError("PointCloud JSON needs a 'masses' key")
        matrix = obj.get("matrix")
        if matrix is None and "points" not in obj:
            raise InvalidInputError("PointCloud JSON needs 'points' or 'matrix'")
        # a file has no normalize option, so its sum error must not name one
        masses = validate_masses(obj["masses"])[0]
        if matrix is not None:
            return PointCloud(masses, matrix=matrix)
        return PointCloud(masses, coords=obj["points"])

    @staticmethod
    def from_csv_text(text: str) -> "PointCloud":
        """CSV with header id,mass,x1,...,xd; a data row without an id and a
        mass, or with a mass or coordinate that is not a number, is refused
        by its row."""
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        if len(rows) < 2:
            raise InvalidInputError("point cloud CSV needs a header and data rows")
        header = [h.strip().lower() for h in rows[0]]
        if header[:2] != ["id", "mass"]:
            raise InvalidInputError("point cloud CSV header must start id,mass")
        values = []  # per data row: its mass, then its coordinates
        for i, r in enumerate(rows[1:], 1):
            if len(r) < 2:
                raise InvalidInputError(f"point cloud CSV data row {i} needs an id and a mass")
            values.append(csv_floats(r[1:], f"point cloud CSV data row {i}"))
        masses = validate_masses([v[0] for v in values])[0]  # as in from_json_obj
        return PointCloud(masses, coords=[v[1:] for v in values])


def _real_array(values, name: str) -> np.ndarray:
    """values (numbers, or rows of numbers) as a float array, each item a real
    number by require_real's rule; a float array passes by its dtype."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return values.astype(float, copy=False)
    items = np.array(values, dtype=object)
    require_reals(items.ravel().tolist(), name)
    return items.astype(float)


@dataclass(frozen=True)
class EpsNet:
    """Centers covering every cloud point within radius eps."""

    eps: float
    center_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.center_indices)


class _FarthestPoints:
    """Gonzalez's farthest-point traversal of a cloud ("Clustering to minimize
    the maximum intercluster distance", TCS 38, 1985), extended on demand.

    centers[k] is the traversal's (k+1)-th point and radii[k] the covering
    radius of centers[:k + 1], the largest distance from a cloud point to
    its nearest one of them; min_dist holds those nearest distances for
    the centers so far, and nxt the first point at radii[-1], the next
    center.  The radii do not increase, as min_dist only falls.
    """

    def __init__(self, cloud: PointCloud):
        self.dist = cloud.distances()
        start = int(np.argmax(cloud.masses))
        self.min_dist = self.dist[start].copy()
        self.nxt = int(np.argmax(self.min_dist))
        self.centers = [start]
        self.radii = [float(self.min_dist[self.nxt])]

    def prefix(self, eps: float) -> tuple[int, ...]:
        """The shortest prefix of the centers whose covering radius is <= eps."""
        while self.radii[-1] > eps:  # one argmax and one minimum per center
            self.centers.append(self.nxt)
            np.minimum(self.min_dist, self.dist[self.nxt], out=self.min_dist)
            self.nxt = int(np.argmax(self.min_dist))
            self.radii.append(float(self.min_dist[self.nxt]))
        # the first radius <= eps, by bisection of the nonincreasing radii
        return tuple(self.centers[:bisect_left(self.radii, -eps, key=operator.neg) + 1])


def greedy_eps_net(cloud: PointCloud, eps: float) -> EpsNet:
    """Farthest-point greedy net: certified cover, size N_hat(eps) >= N(eps).

    Deterministic: starts at the largest-mass point (ties to the lowest
    index) and repeatedly adds the point farthest from the current net
    (ties to the lowest index), until every point is within eps of it.
    That order does not depend on eps, so the net for eps is the shortest
    prefix of one traversal whose covering radius is <= eps; the cloud
    keeps the traversal, and a later eps extends or bisects it instead of
    walking it again.
    """
    require_real(eps, "radius eps", 0.0, math.inf, "(]")
    if cloud._far is None:
        cloud._far = _FarthestPoints(cloud)
    return EpsNet(eps=eps, center_indices=cloud._far.prefix(eps))


def ball_masses(cloud: PointCloud, eps: float) -> np.ndarray:
    """Mass of the closed eps-ball around each point, as a read-only array
    that the cloud keeps until it is asked for another eps.

    Each row's masses are summed over its hits (numpy's pairwise sum), in
    slices of whole rows within SLICE_BYTES, so the value of a row depends on
    neither the slicing nor the BLAS build or its thread count.  The slices'
    hit mask and products are buffers allocated once per call.
    """
    require_real(eps, "radius eps", 0.0, math.inf, "(]")
    if cloud._balls is not None and cloud._balls[0] == eps:
        return cloud._balls[1]
    d, n = cloud.distances(), cloud.n
    step = min(rows_per_slice(8 * n), n)
    hits, terms = np.empty((step, n), bool), np.empty((step, n))
    balls = np.empty(n)
    for r in range(0, n, step):
        k = min(step, n - r)
        np.multiply(np.less_equal(d[r:r + k], eps, out=hits[:k]), cloud.masses,
                    out=terms[:k]).sum(axis=1, out=balls[r:r + k])
    balls.setflags(write=False)
    cloud._balls = (eps, balls)
    return balls


def expected_eps_missing_mass(cloud: PointCloud, t: int, eps: float) -> float:
    """Exact expected eps-missing mass of t i.i.d. draws from the cloud.

    A point is eps-missed exactly when no draw lands in its closed ball, so
    the expectation is sum_x m(x) (1 - P(ball(x)))^t.
    """
    require_t(t)
    balls = np.minimum(ball_masses(cloud, eps), 1.0)
    return exact_sum(cloud.masses * pow_one_minus(balls, t))


def covering_bound_report(cloud: PointCloud, t: int, eps: float) -> dict:
    """Expected eps-missing mass against bound_finite(K, t), K the size of a
    greedy radius-eps/2 net (``cells``).  ``ok`` is the package's one verdict
    rule, sampling.is_violation, with no standard error; it is False only on
    a bug.

    Why the bound holds, for a sample of t i.i.d. draws from the cloud:

    1. Assign each point to its nearest eps/2-net center.  That gives K
       cells of diameter <= eps, by the triangle inequality.
    2. A draw in x's cell is within eps of x, so for every sample the
       eps-missing mass is at most the missing mass of the cell
       distribution q (each cell's total mass), pointwise, not only in
       expectation.
    3. E[U_t(q)] <= bound_finite(K, t): exp(-t/K) for t <= K, K/(e t) after.

    The argument assumes the distances form an exact metric.  A distance
    matrix is accepted within MATRIX_TOL of the triangle inequality, and
    step 1 inherits that slack.  Step 1 also needs eps / 2 exactly, so an
    eps whose half is not an exact positive float (an odd multiple of
    2^-1074, which only an eps below 2^-1021 can be) is refused.
    """
    expected = expected_eps_missing_mass(cloud, t, eps)  # checks t and eps
    half = eps / 2
    if not (half > 0.0 and 2 * half == eps):
        raise InvalidInputError(
            f"radius eps must halve to an exact positive float for the eps/2 net, got {eps!r}")
    cells = greedy_eps_net(cloud, half).size
    bound = bound_finite(cells, t)
    return {
        "t": t,
        "eps": eps,
        "expected": expected,
        "cells": cells,
        "bound": bound,
        "ok": not is_violation(expected - bound, 0.0, expected, bound),
    }


def _near_words(d: np.ndarray, eps: float) -> np.ndarray:
    """The eps-ball mask d <= eps of an (n, n) distance matrix as bit rows:
    an (n, ceil(n/64)) uint64 array.

    Point j of a row is bit j % 8 of the row's byte j // 8 (np.packbits'
    little bit order), and the padding bits past n are 0.  The words are
    written and read through their bytes, so byte order does not matter.
    The mask is packed in row slices through one bool buffer within
    SLICE_BYTES, so the (n, n) bool mask is never built.
    """
    n = d.shape[0]
    words = np.zeros((n, -(-n // 64)), np.uint64)
    row_bytes = words.view(np.uint8)[:, :-(-n // 8)]
    step = min(rows_per_slice(n), n)
    near = np.empty((step, n), bool)
    for r in range(0, n, step):
        k = min(step, n - r)
        row_bytes[r:r + k] = np.packbits(np.less_equal(d[r:r + k], eps, out=near[:k]),
                                         axis=1, bitorder="little")
    return words


def _eps_missing_chunk(words: np.ndarray, masses: np.ndarray, chunk: np.ndarray,
                       kept: np.ndarray, out: np.ndarray) -> None:
    """eps-missing mass of each row of a (rows, t) index chunk, written to
    out; words = _near_words(d, eps), and kept is a (rows, n) float buffer
    (a chunk function of sampling._BlockStats.rows).

    The draws' bit rows are gathered by take in chunks of columns, each a
    (columns, rows, words) array within SLICE_BYTES (at least one column),
    and OR-ed into one (rows, words) hit mask, which does not depend on the
    chunking.  OR and NOT act on each byte alone, so the missed points
    unpacked from the mask's bytes do not depend on byte order.  They are
    unpacked straight into kept, and each row then sums, in point order, m
    for a missed point and +0.0 for a hit one: the summands, and their
    order, of a bool (rows, n) mask times the masses, so the values are
    those of the bool mask bit for bit, whatever the chunks.
    """
    t, n = chunk.shape[1], len(masses)
    cols = rows_per_slice(len(chunk) * words.shape[1] * words.itemsize)
    hit = np.bitwise_or.reduce(words.take(chunk[:, :cols].T, axis=0), axis=0)
    for c in range(cols, t, cols):
        hit |= np.bitwise_or.reduce(words.take(chunk[:, c:c + cols].T, axis=0), axis=0)
    kept[...] = np.unpackbits(~hit.view(np.uint8), axis=1, count=n, bitorder="little")
    kept *= masses
    kept.sum(axis=1, out=out)


def mc_eps_missing_mass(
    cloud: PointCloud, t: int, eps: float, replicates: int, seed: int
) -> McReport:
    """Monte Carlo mean eps-missing mass, checked against the closed form.

    The arguments (sampling.require_run) are refused before the eps-ball
    bit rows are built.
    """
    t, replicates, seed = require_run(t, replicates, seed, cloud.n,
                                      "eps-missing-mass replicates", 1000)
    require_real(eps, "radius eps", 0.0, math.inf, "(]")
    eps_missing = partial(_eps_missing_chunk, _near_words(cloud.distances(), eps), cloud.masses)
    stat = partial(_BlockStats(cloud.masses).rows, chunk_stat=eps_missing)
    values = monte_carlo(cloud.masses, t, replicates, seed, stat)
    return mean_report(values, expected_eps_missing_mass(cloud, t, eps), seed)


def exact_covering_number(cloud: PointCloud, eps: float) -> int:
    """Minimum number of closed eps-balls (centered at cloud points) covering
    the cloud, by exact branch-and-bound set cover; clouds of at most
    EXACT_COVER_LIMIT points only."""
    if cloud.n > EXACT_COVER_LIMIT:
        raise InvalidInputError(
            f"exact cover is limited to {EXACT_COVER_LIMIT} points, cloud has {cloud.n}"
        )
    best = greedy_eps_net(cloud, eps).size  # valid upper bound to prune against
    sets = [int.from_bytes(row.tobytes(), "little") for row in _near_words(cloud.distances(), eps)]
    full = (1 << cloud.n) - 1

    def search(uncovered: int, depth: int) -> None:
        nonlocal best
        if uncovered == 0:
            best = min(best, depth)
            return
        if depth + 1 >= best:
            return
        lowest = (uncovered & -uncovered).bit_length() - 1
        for i in range(cloud.n):
            if sets[i] >> lowest & 1:
                search(uncovered & ~sets[i], depth + 1)

    search(full, 0)
    return best
