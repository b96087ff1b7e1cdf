"""Missing mass in finite metric spaces: eps-balls, greedy nets, and the
covering bound.

A point is eps-missed by a sample when no draw lands within distance eps of
it (closed balls, so boundary points count as covered).  The expected
eps-missing mass is bounded by the finite theorem, mass.bound_finite(K, t),
where K is the size of a greedy radius-eps/2 net: its nearest-center cells
have diameter at most eps (covering_bound_report gives the argument).  A
farthest-point greedy net certifies N_hat(eps) >= N(eps), and an exact
set-cover search gives the covering number N(eps) on small clouds.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .distributions import MassSumError, validate_masses
from .errors import InvalidInputError, require_int, require_real, require_reals, require_t
from .mass import bound_finite
from .numerics import exact_sum, pow_one_minus, rows_per_slice
from .sampling import McReport, is_violation, mean_report, monte_carlo

MATRIX_TOL = 1e-9
# Largest cloud that exact_covering_number's branch-and-bound accepts.
EXACT_COVER_LIMIT = 20


class PointCloud:
    """Finite metric probability space: points, masses, and a distance oracle.

    Either Euclidean coordinates or an explicit distance matrix, every entry
    a finite real number (a float array passes by its dtype; "0" and true are
    errors, never coerced); explicit matrices are validated (symmetry, zero
    diagonal, nonnegativity, triangle inequality within 1e-9) on
    construction.  The masses, kept in point order, pass the distributions'
    mass validator.  The distance matrix is built once, and the ball masses
    are kept for the last eps they were asked for.
    """

    def __init__(self, masses, *, coords=None, matrix=None, normalize: bool = False):
        if (coords is None) == (matrix is None):
            raise InvalidInputError("give exactly one of coords or matrix")
        try:
            self.masses = validate_masses(masses, normalize=normalize)[0]
        except MassSumError as exc:
            raise exc.hinted() from None
        self.n = len(self.masses)
        if coords is not None:
            pts = _real_array(coords, "coordinates")
            if pts.ndim == 1:
                pts = pts[:, None]
            if pts.ndim != 2 or pts.shape[0] != self.n:
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
        if self._dist is None:
            diff = self.coords[:, None, :] - self.coords[None, :, :]
            d = np.sqrt(np.sum(diff * diff, axis=2))
            np.fill_diagonal(d, 0.0)
            self._dist = d
        return self._dist

    def diameter(self) -> float:
        return float(self.distances().max())

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
        """CSV with header id,mass,x1,...,xd."""
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        if len(rows) < 2:
            raise InvalidInputError("point cloud CSV needs a header and data rows")
        header = [h.strip().lower() for h in rows[0]]
        if header[:2] != ["id", "mass"]:
            raise InvalidInputError("point cloud CSV header must start id,mass")
        short = next((i for i, r in enumerate(rows[1:], 1) if len(r) < 2), None)
        if short is not None:
            raise InvalidInputError(f"point cloud CSV data row {short} needs an id and a mass")
        masses = validate_masses([float(r[1]) for r in rows[1:]])[0]  # as in from_json_obj
        coords = [[float(v) for v in r[2:]] for r in rows[1:]]
        return PointCloud(masses, coords=coords)


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

    def to_json_obj(self) -> dict:
        return {"eps": self.eps, "centers": list(self.center_indices), "size": self.size}


def greedy_eps_net(cloud: PointCloud, eps: float) -> EpsNet:
    """Farthest-point greedy net: certified cover, size N_hat(eps) >= N(eps).

    Deterministic: starts at the largest-mass point (ties to the lowest
    index) and repeatedly adds the point farthest from the current net.
    """
    require_real(eps, "radius eps", 0.0, math.inf, "(]")
    d = cloud.distances()
    start = int(np.argmax(cloud.masses))
    centers = [start]
    min_dist = d[start].copy()
    while float(min_dist.max()) > eps:
        nxt = int(np.argmax(min_dist))
        centers.append(nxt)
        np.minimum(min_dist, d[nxt], out=min_dist)
    return EpsNet(eps=eps, center_indices=tuple(centers))


def eps_missing_mass(cloud: PointCloud, sample_indices, eps: float) -> float:
    """Mass of the points left outside every closed eps-ball of the sample."""
    require_real(eps, "radius eps", 0.0, math.inf, "(]")
    idx = [require_int(i, "sample index", 0) for i in sample_indices]
    if not idx:
        raise InvalidInputError("sample must contain at least one point")
    if max(idx) >= cloud.n:
        raise InvalidInputError("sample index out of range")
    # a running minimum over slices of sample rows, each within SLICE_BYTES
    d, step = cloud.distances(), rows_per_slice(8 * cloud.n)
    min_dist = d[idx[:step]].min(axis=0)
    for r in range(step, len(idx), step):
        np.minimum(min_dist, d[idx[r:r + step]].min(axis=0), out=min_dist)
    return exact_sum(cloud.masses[min_dist > eps])


def ball_masses(cloud: PointCloud, eps: float) -> np.ndarray:
    """Mass of the closed eps-ball around each point, as a read-only array
    that the cloud keeps until it is asked for another eps.

    Each row's masses are summed over its hits (numpy's pairwise sum), in
    slices of whole rows within SLICE_BYTES, so the value of a row depends on
    neither the slicing nor the BLAS build or its thread count.
    """
    require_real(eps, "radius eps", 0.0, math.inf, "(]")
    if cloud._balls is not None and cloud._balls[0] == eps:
        return cloud._balls[1]
    d = cloud.distances()
    step = rows_per_slice(8 * cloud.n)
    balls = np.concatenate([np.where(d[r:r + step] <= eps, cloud.masses, 0.0).sum(axis=1)
                            for r in range(0, cloud.n, step)])
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
    step 1 inherits that slack (as it does the rounding of eps / 2, which
    is exact unless eps is below 2^-1021).
    """
    expected = expected_eps_missing_mass(cloud, t, eps)  # checks t and eps
    cells = greedy_eps_net(cloud, eps / 2).size
    bound = bound_finite(cells, t)
    return {
        "t": t,
        "eps": eps,
        "expected": expected,
        "cells": cells,
        "bound": bound,
        "ok": not is_violation(expected - bound, 0.0, expected, bound),
    }


def _eps_missing_rows(near: np.ndarray, masses: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """eps-missing mass of each row of a (rows, t) index block; near = d <= eps.

    The draws are gathered in chunks of columns, each a (rows, columns, n)
    bool array within SLICE_BYTES (at least one column), and OR-ed into one
    (rows, n) hit mask, which does not depend on the chunking.
    """
    step = rows_per_slice(idx.shape[0] * near.shape[0])
    hit = near[idx[:, :step]].any(axis=1)
    for c in range(step, idx.shape[1], step):
        hit |= near[idx[:, c:c + step]].any(axis=1)
    return (~hit * masses).sum(axis=1)


def mc_eps_missing_mass(
    cloud: PointCloud, t: int, eps: float, replicates: int, seed: int
) -> McReport:
    """Monte Carlo mean eps-missing mass, checked against the closed form."""
    require_int(replicates, "eps-missing-mass replicates", 1000)
    require_real(eps, "radius eps", 0.0, math.inf, "(]")
    near = cloud.distances() <= eps
    values = monte_carlo(
        cloud.masses, t, replicates, seed, lambda idx: _eps_missing_rows(near, cloud.masses, idx)
    )
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
    d = cloud.distances()
    sets = []
    for i in range(cloud.n):
        mask = 0
        for j in np.flatnonzero(d[i] <= eps):
            mask |= 1 << int(j)
        sets.append(mask)
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
