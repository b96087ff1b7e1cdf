#!/usr/bin/env python3
"""Values audit: one ``key value`` line per value the package computes, so
that two checkouts can be compared bit for bit.

A float prints as ``float.hex``, an array (or a tuple of indices) as its
dtype, shape and the SHA-256 of its ``tobytes()``, an int or a bool as
itself.  Only the cloud section exists so far:

- ``distances()`` on seeded coordinate clouds of dims 1-12 and 130, odd
  sizes with duplicate points, every other cloud with skewed masses, plus
  one matrix input;
- at three eps per cloud (quantiles of its pairwise distances): the greedy
  net, ``ball_masses``, ``covering_bound_report``, the expected
  eps-missing mass at t = 1 and 1000, and, up to EXACT_COVER_LIMIT points,
  ``exact_covering_number``;
- seeded ``mc_eps_missing_mass`` reports.

Usage::

    PYTHONPATH=src python scripts/values_audit.py [--quick]
    python scripts/values_audit.py --compare OTHER_CHECKOUT [--quick]

``--compare DIR`` runs this script twice in fresh interpreters, once with
this checkout's ``src`` and once with ``DIR/src`` on PYTHONPATH, and prints
only the keys whose values differ (``key this other``; ``-`` for a key one
side lacks).  A count goes to stderr, and the exit status is 1 if any key
differs.  ``--quick`` runs a small subset in a second or two.

The values depend on the platform's libm and SIMD paths, so compare two
checkouts on one machine; the full audit is not a test gate.
"""

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
QUANTILES = (0.1, 0.3, 0.6)


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, tuple):
        value = np.asarray(value, np.int64)
    if isinstance(value, np.ndarray):
        shape = "x".join(map(str, value.shape))
        return f"{value.dtype}[{shape}]:{hashlib.sha256(value.tobytes()).hexdigest()}"
    raise TypeError(f"no audit format for {type(value).__name__}")


def seeded_cloud(cover, dim: int, n: int):
    """The audit's cloud of n points in dim coordinates, from seed (dim, n)."""
    rng = np.random.default_rng([dim, n])
    coords = rng.random((n, dim)) * 10.0 ** rng.integers(-3, 4)
    if n > 2 and n % 2:
        coords[rng.integers(0, n, n // 3)] = coords[n // 2]  # duplicate points
    if (dim + n) % 2:
        return cover.PointCloud(rng.exponential(size=n), coords=coords, normalize=True)
    return cover.PointCloud([1.0 / n] * n, coords=coords)


def cloud_values(cover, key: str, cloud):
    """Every value the audit reads off one cloud."""
    d = cloud.distances()
    yield f"{key}/distances", d
    upper = d[np.triu_indices(cloud.n, k=1)]
    eps_list = np.quantile(upper, QUANTILES) if upper.size else [1.0]
    for i, eps in enumerate(eps_list):
        eps = float(eps) if eps > 0.0 else 1.0
        at = f"{key}/eps{i}"
        yield at, eps
        yield f"{at}/net", cover.greedy_eps_net(cloud, eps).center_indices
        yield f"{at}/balls", cover.ball_masses(cloud, eps)
        for field, value in cover.covering_bound_report(cloud, 10, eps).items():
            if field not in ("t", "eps"):
                yield f"{at}/report/{field}", value
        for t in (1, 1000):
            yield f"{at}/expected/t{t}", cover.expected_eps_missing_mass(cloud, t, eps)
        if cloud.n <= cover.EXACT_COVER_LIMIT:
            yield f"{at}/exact", cover.exact_covering_number(cloud, eps)


def cloud_section(cover, quick: bool):
    dims = (1, 2, 12, 130) if quick else (*range(1, 13), 130)
    sizes = (5, 64) if quick else (1, 2, 5, 20, 64, 257, 700)
    for dim in dims:
        for n in sizes:
            yield from cloud_values(cover, f"cloud/d{dim}/n{n}", seeded_cloud(cover, dim, n))
    matrix = seeded_cloud(cover, 3, 19).distances()
    yield from cloud_values(cover, "cloud/matrix/n19",
                            cover.PointCloud(seeded_cloud(cover, 2, 19).masses, matrix=matrix))
    runs = ((2, 64, 0), (12, 20, 1)) if quick else ((1, 64, 0), (2, 64, 1), (3, 257, 2),
                                                     (12, 20, 3), (130, 64, 4))
    for dim, n, seed in runs:
        cloud = seeded_cloud(cover, dim, n)
        eps = float(np.quantile(cloud.distances(), 0.3))
        report = cover.mc_eps_missing_mass(cloud, 10, eps, 2000, seed)
        for field in dataclasses.fields(report):
            value = getattr(report, field.name)
            if value is not None:
                yield f"mc/d{dim}/n{n}/s{seed}/{field.name}", value


def audit(quick: bool) -> None:
    from missingmass import cover

    for key, value in cloud_section(cover, quick):
        print(key, fmt(value))


def run_with(src: Path, quick: bool) -> dict[str, str]:
    argv = [sys.executable, str(Path(__file__).resolve())] + (["--quick"] if quick else [])
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout
    return dict(line.split(" ", 1) for line in out.splitlines())


def compare(other: Path, quick: bool) -> int:
    mine, theirs = run_with(ROOT / "src", quick), run_with(other / "src", quick)
    keys = list(mine) + [k for k in theirs if k not in mine]
    differ = [k for k in keys if mine.get(k) != theirs.get(k)]
    for k in differ:
        print(k, mine.get(k, "-"), theirs.get(k, "-"))
    print(f"{len(keys)} keys, {len(differ)} differ", file=sys.stderr)
    return 1 if differ else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true", help="a small subset")
    ap.add_argument("--compare", type=Path, metavar="DIR",
                    help="print only the keys whose values differ from DIR's src")
    args = ap.parse_args()
    if args.compare is not None:
        return compare(args.compare, args.quick)
    audit(args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
