"""Missing mass in finite metric spaces: eps-balls, greedy nets, and the
covering-number bound.

A point is eps-missed by a sample when no draw lands within distance eps of
it (closed balls, so boundary points count as covered).  The expected
eps-missing mass is controlled by N(eps)/(e t) where N(eps) is the covering
number; a greedy farthest-point net gives the certified upper bound
N_hat(eps) >= N(eps), and an exact set-cover search is available for small
clouds.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .distributions import ProbVector
from .errors import InvalidInputError, require_t
from .numerics import pow_one_minus
from .sampling import McReport, mean_report, monte_carlo

MATRIX_TOL = 1e-9
# Cap on the cells of one (rows, t, n) gather of eps-ball hits: a block's rows
# are reduced in chunks of at most this many cells, so memory stays bounded
# at any cloud size and t, and the values do not depend on the chunking.
GATHER_CELLS = 1 << 22


class PointCloud:
    """Finite metric probability space: points, masses, and a distance oracle.

    Either Euclidean coordinates or an explicit distance matrix; explicit
    matrices are validated (symmetry, zero diagonal, nonnegativity, triangle
    inequality within 1e-9) on construction.
    """

    def __init__(self, masses, *, coords=None, matrix=None, normalize: bool = False):
        if (coords is None) == (matrix is None):
            raise InvalidInputError("give exactly one of coords or matrix")
        ProbVector(masses, normalize=normalize)  # runs the distribution invariants
        self.masses = np.array([float(m) for m in masses])
        if normalize:
            self.masses /= math.fsum(self.masses.tolist())
        self.n = len(self.masses)
        if coords is not None:
            pts = np.asarray(coords, dtype=float)
            if pts.ndim == 1:
                pts = pts[:, None]
            if pts.ndim != 2 or pts.shape[0] != self.n:
                raise InvalidInputError(
                    f"coords must be (n, d) with n={self.n}, got shape {pts.shape}"
                )
            self.coords = pts
            self.metric = "euclidean"
            self._dist = None
        else:
            d = np.asarray(matrix, dtype=float)
            if d.shape != (self.n, self.n):
                raise InvalidInputError(
                    f"matrix must be ({self.n}, {self.n}), got shape {d.shape}"
                )
            self._validate_matrix(d)
            self.coords = None
            self.metric = "matrix"
            self._dist = d

    @staticmethod
    def _validate_matrix(d: np.ndarray) -> None:
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
    def from_json_obj(obj, *, normalize: bool = False) -> "PointCloud":
        if not isinstance(obj, dict) or "masses" not in obj:
            raise InvalidInputError("PointCloud JSON needs a 'masses' key")
        if "matrix" in obj and obj["matrix"] is not None:
            return PointCloud(obj["masses"], matrix=obj["matrix"], normalize=normalize)
        if "points" not in obj:
            raise InvalidInputError("PointCloud JSON needs 'points' or 'matrix'")
        return PointCloud(obj["masses"], coords=obj["points"], normalize=normalize)

    @staticmethod
    def from_csv_text(text: str, *, normalize: bool = False) -> "PointCloud":
        """CSV with header id,mass,x1,...,xd."""
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        if len(rows) < 2:
            raise InvalidInputError("point cloud CSV needs a header and data rows")
        header = [h.strip().lower() for h in rows[0]]
        if header[:2] != ["id", "mass"]:
            raise InvalidInputError("point cloud CSV header must start id,mass")
        masses = [float(r[1]) for r in rows[1:]]
        coords = [[float(v) for v in r[2:]] for r in rows[1:]]
        return PointCloud(masses, coords=coords, normalize=normalize)


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
    if not (eps > 0.0):
        raise InvalidInputError(f"radius eps must be positive, got {eps}")
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
    if not (eps > 0.0):
        raise InvalidInputError(f"radius eps must be positive, got {eps}")
    idx = [int(i) for i in sample_indices]
    if not idx:
        raise InvalidInputError("sample must contain at least one point")
    if any(i < 0 or i >= cloud.n for i in idx):
        raise InvalidInputError("sample index out of range")
    min_dist = cloud.distances()[idx].min(axis=0)
    return math.fsum(cloud.masses[min_dist > eps])


def ball_masses(cloud: PointCloud, eps: float) -> np.ndarray:
    """Mass of the closed eps-ball around each point."""
    if not (eps > 0.0):
        raise InvalidInputError(f"radius eps must be positive, got {eps}")
    return (cloud.distances() <= eps).astype(float) @ cloud.masses


def expected_eps_missing_mass(cloud: PointCloud, t: int, eps: float) -> float:
    """Exact expected eps-missing mass of t i.i.d. draws from the cloud.

    A point is eps-missed exactly when no draw lands in its closed ball, so
    the expectation is sum_x m(x) (1 - P(ball(x)))^t.
    """
    require_t(t)
    balls = ball_masses(cloud, eps)
    return math.fsum(m * pow_one_minus(b, t) for m, b in zip(cloud.masses, balls))


EXACT_COVER_LIMIT = 20


def covering_bound_report(cloud: PointCloud, t: int, eps: float) -> dict:
    """Bound check record: expected eps-missing mass against net_size/(e t).

    The greedy net certifies N_hat(eps) >= N(eps) on any cloud; on clouds
    small enough for exhaustive set cover the exact covering number replaces
    it, tightening the bound all the way to N(eps)/(e t).
    """
    net = greedy_eps_net(cloud, eps)
    size = net.size
    if cloud.n <= EXACT_COVER_LIMIT:
        size = exact_covering_number(cloud, eps)
    expected = expected_eps_missing_mass(cloud, t, eps)
    bound = size / (math.e * t)
    return {
        "t": t,
        "eps": eps,
        "expected": expected,
        "net_size": size,
        "greedy_size": net.size,
        "bound": bound,
        "ok": bool(expected <= bound + 1e-12),
    }


def _eps_missing_rows(near: np.ndarray, masses: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """eps-missing mass of each row of a (rows, t) index block; near = d <= eps."""
    step = max(1, GATHER_CELLS // (idx.shape[1] * near.shape[0]))
    hit = np.concatenate([near[idx[r:r + step]].any(axis=1) for r in range(0, len(idx), step)])
    return (~hit * masses).sum(axis=1)


def mc_eps_missing_mass(
    cloud: PointCloud, t: int, eps: float, replicates: int, seed: int
) -> McReport:
    """Monte Carlo mean eps-missing mass, checked against the closed form."""
    if replicates < 1000:
        raise InvalidInputError("eps-missing-mass MC needs at least 1000 replicates")
    if not (eps > 0.0):
        raise InvalidInputError(f"radius eps must be positive, got {eps}")
    near = cloud.distances() <= eps
    values = monte_carlo(
        cloud.masses, t, replicates, seed, lambda idx: _eps_missing_rows(near, cloud.masses, idx)
    )
    return mean_report(values, expected_eps_missing_mass(cloud, t, eps), seed)


def exact_covering_number(cloud: PointCloud, eps: float, max_points: int = 20) -> int:
    """Minimum number of closed eps-balls (centered at cloud points) covering
    the cloud, by exact branch-and-bound set cover.  Small clouds only."""
    if cloud.n > max_points:
        raise InvalidInputError(
            f"exact cover is limited to {max_points} points, cloud has {cloud.n}"
        )
    if not (eps > 0.0):
        raise InvalidInputError(f"radius eps must be positive, got {eps}")
    d = cloud.distances()
    sets = []
    for i in range(cloud.n):
        mask = 0
        for j in np.flatnonzero(d[i] <= eps):
            mask |= 1 << int(j)
        sets.append(mask)
    full = (1 << cloud.n) - 1
    best = greedy_eps_net(cloud, eps).size  # valid upper bound to prune against

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
