#!/usr/bin/env python3
"""Values audit: one ``key value`` line per value the package computes, so
that two checkouts can be compared bit for bit.

A float prints as ``float.hex``, an array (or a tuple of indices) as its
dtype, shape and the SHA-256 of its ``tobytes()``, an int or a bool as
itself.  Five sections.

The closed-form section (keys ``closed/...``), on seeded distributions of
1-2000 runs (masses down to 1e-300), BlockVectors with counts up to 2^40,
uniforms and truncated countable families:

- sequential scans of ``expected_missing_mass``, ``gt_expected_estimate``
  and ``gt_bias``, each form on its own, from t = 1, from t = 60 (across
  the exponent switch at 64), and near 10^6 and 10^9, and on supports of
  1-50 runs from t = 500 and 1000 too (across the blocks of 512 exponents
  at 512 and 1024);
- sorted random sparse t-grids, with the three forms interleaved at each t;
- ``missing_mass_curve`` on the same distributions, on supports just below
  and above 256 runs, where a full block of exponents turns from columns to
  rows, and on truncated geometric and dyadic-block families,
  over a scan from t = 1, a sparse grid, a grid across t = 512 and 1024 and
  grids near 10^6 and 10^9;
- ``dyadic_bands`` at a few t.

The cloud section (keys ``cloud/...`` and ``mc/...``):

- ``distances()`` on seeded coordinate clouds of dims 1-12 and 130, odd
  sizes with duplicate points, every other cloud with skewed masses, plus
  one matrix input;
- at three eps per cloud (quantiles of its pairwise distances): the greedy
  net, ``ball_masses``, ``covering_bound_report``, the expected
  eps-missing mass at t = 1 and 1000, and, up to EXACT_COVER_LIMIT points,
  ``exact_covering_number``;
- seeded ``mc_eps_missing_mass`` reports at t = 10, and on a 700-point
  cloud at t = 1 and 100, whose slices span several row chunks.

The Monte Carlo section (keys ``mc/bias/...``, ``mc/concentration/...``,
``mc/rows/...`` and ``mc/index/...``), on seeded supports of 1-2000
atoms, a BlockVector with counts above 1, 300 atoms of 10^-6 (flagged
guide-table buckets, which reach searchsorted) and a BlockVector of
40,000 atoms (past 2^15):

- seeded ``verify_bias`` and ``verify_concentration`` reports, every field,
  at t = 1, t below n, t = n and t above n (the sort and the bincount
  branch of the bias statistic), and the SHA-256 of the per-replicate
  missing masses and bias values behind them;
- the index stream of ``monte_carlo`` at the same t, cast to int64 and
  flattened, as its SHA-256, over enough replicates to span several slices.

The extremal section (keys ``extremal/...``), which reads every branch of
the power policy, ``pow_unit``'s included:

- ``find_threshold``'s tau and ``margin_at_tau`` for n = 2..119 and 41
  log-spaced n from 120 to 10^6;
- ``maximize_missing_mass`` on acceptance cell C7's grid and at t = 1..63
  for n = 2, 10 and 100;
- ``simplex_grid_oracle``'s value and point (its three coordinates as one
  array) at t = 1..60, 100, 500 and 1000, each at grid steps 1e-3, 3e-3
  and 1e-2;
- ``pow_one_minus`` and ``pow_unit`` on seeded bases (down to 1e-300, near
  1, and 0, 2^-54, 1/2 and 1) at exponents 0..130, 10^6 and 10^9, each
  given as a scalar (to the bases as an array, with and without ``out=``,
  and to each base alone), and as a column of exponents below the switch,
  above it and on both sides, with and without ``out=``.

The numerics section (keys ``numerics/...``), the sums behind every value
above:

- ``exact_sum`` on seeded arrays of lengths just below, at and above
  EXACT_SUM_MIN (and 512, its value before) and up to 10^5: positive
  terms, mixed signs, a cancelling pair, a cancelled copy, a tie,
  subnormals, and sigma at 2^-901..2^-899 and 2^1020..2^1022 (both ends of
  the range the extraction takes);
- ``exact_row_sums`` along axis 1 and axis 0 on blocks of those rows, just
  below, at and above EXACT_ROWS_MIN cells (and 1536, its value before) and
  up to 10^5.

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
import math
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
    # (dim, n, t, quantile of the distances that is eps, seed); 700 points take
    # several row chunks a slice, and at t = 100 two column gathers a chunk; a
    # smaller eps there leaves a missing mass near 0.39 at t = 100, not 0
    runs = ((2, 64, 10, 0.3, 0), (12, 20, 10, 0.3, 1), (2, 700, 100, 0.01, 6)) if quick else (
        (1, 64, 10, 0.3, 0), (2, 64, 10, 0.3, 1), (3, 257, 10, 0.3, 2), (12, 20, 10, 0.3, 3),
        (130, 64, 10, 0.3, 4), (2, 700, 1, 0.01, 5), (2, 700, 100, 0.01, 6))
    for dim, n, t, quantile, seed in runs:
        cloud = seeded_cloud(cover, dim, n)
        eps = float(np.quantile(cloud.distances(), quantile))
        report = cover.mc_eps_missing_mass(cloud, t, eps, 2000, seed)
        for field in dataclasses.fields(report):
            value = getattr(report, field.name)
            if value is not None:
                yield f"mc/d{dim}/n{n}/t{t}/s{seed}/{field.name}", value


def mc_supports(mm, quick: bool):
    """(name, distribution) pairs of the Monte Carlo section."""
    for n in (50,) if quick else (1, 2, 5, 50, 300, 2000):
        rng = np.random.default_rng([n, 4])
        yield f"exp{n}", mm.ProbVector(rng.exponential(size=n), normalize=True)
    if quick:
        return
    yield "blocks56", mm.BlockVector([(0.125, 2), (0.0625, 4), (0.01, 50)])
    yield "tiny301", mm.BlockVector([(1e-06, 300), (0.9997, 1)])
    yield "blocks40000", mm.BlockVector([(1 / 80000, 20000), (3 / 80000, 20000)])


def mc_section(mm, quick: bool):
    from missingmass.sampling import _BlockStats

    for i, (name, d) in enumerate(mc_supports(mm, quick)):
        n = int(d.n)
        ts = (10,) if quick else sorted({1, max(1, n // 4), n, n + 1, 2 * n + 3}
                                        if n <= 2000 else {1, 1000})
        masses = np.repeat(d.m, d.c)
        for t in ts:
            seed = 1000 * i + t
            reports = (("bias", mm.verify_bias(d, t, 1000, seed)),
                       ("concentration", mm.verify_concentration(d, t, 0.1, 10_000, seed)))
            for kind, report in reports:
                for field in dataclasses.fields(report):
                    value = getattr(report, field.name)
                    if value is not None:
                        yield f"mc/{kind}/{name}/t{t}/s{seed}/{field.name}", value
            for kind in ("missing", "bias"):
                rows = mm.monte_carlo(masses, t, 1000, seed, getattr(_BlockStats(masses), kind))
                yield f"mc/rows/{kind}/{name}/t{t}/s{seed}", rows
            replicates = max(100, 200_000 // t)
            idx = mm.monte_carlo(masses, t, replicates, seed, lambda idx: idx)
            yield f"mc/index/{name}/t{t}/r{replicates}/s{seed}", idx.astype(np.int64).ravel()


SCAN_STARTS = (1, 60, 10 ** 6 - 5, 10 ** 9 - 5)
# supports of up to SMALL_RUNS runs also scan across the blocks of 512 exponents
SMALL_SCAN_STARTS = (500, 1000)
SMALL_RUNS = 50


def seeded_distributions(mm, quick: bool):
    """(name, distribution) pairs of the closed-form section."""
    for n in (1, 5, 50) if quick else (1, 2, 5, 50, 300, 2000):
        rng = np.random.default_rng([n, 1])
        yield f"exp{n}", mm.ProbVector(rng.exponential(size=n), normalize=True)
        yield f"tiny{n}", mm.ProbVector(10.0 ** rng.uniform(-300, 0, n), normalize=True)
    for blocks in (3, 12) if quick else (3, 12, 40):
        rng = np.random.default_rng([blocks, 2])
        w, c = rng.exponential(size=blocks), rng.integers(1, 2 ** 40, blocks, endpoint=True)
        total = math.fsum((w * c).tolist())
        yield f"blocks{blocks}", mm.BlockVector(list(zip((w / total).tolist(), c.tolist())))
    for n in (1, 10, 2 ** 40):
        yield f"uniform{n}", mm.ProbVector.uniform(n)


def closed_form_section(mm, quick: bool):
    forms = (("emm", mm.expected_missing_mass), ("gt", mm.gt_expected_estimate),
             ("bias", mm.gt_bias))
    length = 70 if quick else 150
    for name, d in seeded_distributions(mm, quick):
        key = f"closed/{name}"
        for start in SCAN_STARTS + (SMALL_SCAN_STARTS if d.m.size <= SMALL_RUNS else ()):
            for form, f in forms:
                for t in range(start, start + length):
                    yield f"{key}/scan{start}/{form}/t{t}", f(d, t)
        rng = np.random.default_rng(list(key.encode()))
        for i, t in enumerate(sorted(rng.integers(1, 3000, 40).tolist())):  # with repeats
            for form, f in forms:
                yield f"{key}/sparse/{i}/{form}/t{t}", f(d, t)
        for t in (1, 7, 64, 1000, 10 ** 6):
            for band, atoms, value in mm.dyadic_bands(d, t):
                yield f"{key}/bands/t{t}/j{band}/atoms", atoms
                yield f"{key}/bands/t{t}/j{band}/mass", value
    curves = list(seeded_distributions(mm, quick))
    for n in (255, 256) if quick else (254, 255, 256, 257):  # the layout switch
        rng = np.random.default_rng([n, 3])
        curves.append((f"layout{n}", mm.ProbVector(rng.exponential(size=n), normalize=True)))
    for ratio in (0.3, 0.5, 0.9):
        curves.append((f"geometric{ratio}", mm.truncate(mm.CountableFamily.geometric(ratio), 1e-12)))
    for a in (2, 3, 17):
        curves.append((f"dyadic{a}", mm.truncate(mm.CountableFamily.dyadic_blocks(a), 1e-12)))
    rng = np.random.default_rng(3)
    grids = {"scan": range(1, 200), "sparse": sorted(rng.integers(1, 10 ** 5, 60).tolist()),
             "1e3": range(1000, 1050) if quick else range(490, 1050),
             "1e6": range(10 ** 6 - 70, 10 ** 6 + 70), "1e9": range(10 ** 9 - 70, 10 ** 9 + 70)}
    for name, d in curves:
        for grid, ts in grids.items():
            curve = mm.missing_mass_curve(d, ts)
            for i, t in enumerate(curve.t_values):
                for field in ("values", "lower", "upper"):
                    yield f"closed/curve/{name}/{grid}/{i}/{field}/t{t}", getattr(curve, field)[i]


# the kinds of sums of the numerics section, each drawn by audit_terms
SUM_KINDS = ("positive", "signed", "cancel", "copy", "tie", "subnormal",
             "e-901", "e-900", "e-899", "e1020", "e1021", "e1022")


def audit_terms(kind: str, n: int, seed: int) -> np.ndarray:
    """n seeded terms of one kind: positive, of either sign, next to a
    cancelling pair +-2^40, half of them cancelled by a copy, a tie (pairs
    [1, 2^-53], so a sum halfway between two floats), subnormal, or
    positive with sigma = 2^e for the e in the name (e = -900 and 1021 are
    the ends of the range the extraction takes)."""
    rng = np.random.default_rng([SUM_KINDS.index(kind), n, seed])
    x = rng.random(n) ** 4 + 2.0 ** -30
    if kind == "signed":
        x *= rng.choice([-1.0, 1.0], n)
    elif kind == "cancel":
        x = (x - 0.5) * 1e-3
        x[:2] = 2.0 ** 40, -2.0 ** 40
    elif kind == "copy":
        x[n // 2:n // 2 + n // 4] = -x[:n // 4]
    elif kind == "tie":
        x = np.zeros(n)
        k = 1 << ((n // 2).bit_length() - 1)
        x[:2 * k] = np.tile([1.0, 2.0 ** -53], k)
    elif kind == "subnormal":
        x = np.ldexp(x, -1060)
    elif kind.startswith("e"):
        m = (n + 1).bit_length()  # sigma = 2^(frexp(max)[1] + m)
        x = np.ldexp(0.75 * x / x.max(), int(kind[1:]) - m)
    return rng.permutation(x)


def numerics_section(quick: bool):
    from missingmass.numerics import exact_row_sums, exact_sum

    # around EXACT_SUM_MIN (256) and its value before (512); fixed, so that
    # two checkouts with other thresholds print the same keys
    lengths = (255, 256, 512, 10 ** 4) if quick else (
        255, 256, 257, 511, 512, 513, 2000, 10 ** 4, 10 ** 5)
    for kind in SUM_KINDS:
        for n in lengths:
            for seed in (0, 1):
                yield f"numerics/sum/{kind}/n{n}/s{seed}", exact_sum(audit_terms(kind, n, seed))
    # blocks just below, at and above EXACT_ROWS_MIN cells (1024) and its
    # value before (1536), and up to 10^5
    shapes = ((4, 256), (3, 512), (64, 24)) if quick else (
        (3, 341), (4, 256), (64, 16), (3, 511), (3, 512), (4, 400), (12, 128), (64, 24),
        (2, 10 ** 4), (10, 10 ** 4))
    for rows, cols in shapes:
        block = np.stack([audit_terms(SUM_KINDS[i % len(SUM_KINDS)], cols, i // len(SUM_KINDS))
                          for i in range(rows)])
        for axis, x in ((1, block), (0, np.ascontiguousarray(block.T))):
            for i, value in enumerate(exact_row_sums(x, axis=axis)):
                yield f"numerics/rows/{rows}x{cols}/axis{axis}/{i}", value


# C7's seed in tests/test_acceptance.py, so the grid below is that cell's
C7_SEED = 20260808 + 3
POW_TOPS = (10 ** 6, 10 ** 9)
ORACLE_STEPS = (1e-3, 3e-3, 1e-2)


def c7_grid():
    """(n, t) pairs of acceptance cell C7, drawn as the cell draws them."""
    rng = np.random.default_rng(C7_SEED)
    for n in (10, 100, 1000):
        t_lo = math.ceil(n + math.sqrt(2 * n))
        ts = {t_lo, t_lo + 1, 5 * n}
        ts.update(int(v) for v in rng.integers(t_lo, 5 * n + 1, size=20))
        for t in sorted(ts):
            yield n, t


def pow_bases() -> np.ndarray:
    """Seeded bases in [0, 1]: uniform, spread down to 1e-300, near 1, and
    the edges 0, 2^-54, 1/2 and 1."""
    rng = np.random.default_rng(4)
    return np.concatenate((rng.random(40), 10.0 ** rng.uniform(-300, 0, 40),
                           1.0 - 10.0 ** rng.uniform(-16, -1, 20), [0.0, 2.0 ** -54, 0.5, 1.0]))


def extremal_section(mm, quick: bool):
    from missingmass.numerics import pow_one_minus, pow_unit

    ns = (2, 3, 10, 64, 10 ** 4) if quick else (
        *range(2, 120), *sorted(set(np.geomspace(120, 10 ** 6, 41).round().astype(int).tolist())))
    for n in ns:
        res = mm.find_threshold(n)
        yield f"extremal/tau/n{n}/tau", res.tau
        yield f"extremal/tau/n{n}/margin", res.margin_at_tau
    grid = {(n, t) for n, t in c7_grid() if not quick or n == 10}
    grid.update((n, t) for n in ((2, 10) if quick else (2, 10, 100)) for t in range(1, 64))
    for n, t in sorted(grid):
        for field, value in mm.maximize_missing_mass(n, t).to_json_obj().items():
            if field not in ("n", "t"):
                yield f"extremal/max/n{n}/t{t}/{field}", value
    oracle_ts = (5, 40) if quick else (*range(1, 61), 100, 500, 1000)
    for t in oracle_ts:
        for step in (1e-3,) if quick else ORACLE_STEPS:
            value, point = mm.simplex_grid_oracle(t, step)
            yield f"extremal/oracle/t{t}/s{step}/value", value
            yield f"extremal/oracle/t{t}/s{step}/point", np.array(point)
    bases = pow_bases()
    below = list(range(64))
    above = [*range(64, 131), *POW_TOPS]
    if quick:
        below, above = [0, 1, 2, 3, 63], [64, 65, 130, *POW_TOPS]
    for name, f in (("one_minus", pow_one_minus), ("unit", pow_unit)):
        key = f"extremal/pow/{name}"
        for t in below + above:
            yield f"{key}/scalar/t{t}", f(bases, t)
            yield f"{key}/each/t{t}", np.array([float(f(b, t)) for b in bases.tolist()])
            yield f"{key}/out/t{t}", f(bases, t, out=np.empty(bases.size))
        for side, ts in (("below", below), ("above", above), ("mixed", below + above)):
            col = np.array(ts)[:, None]
            yield f"{key}/{side}", f(bases, col)
            yield f"{key}/{side}/out", f(bases, col, out=np.empty((col.size, bases.size)))


def audit(quick: bool) -> None:
    import missingmass as mm
    from missingmass import cover

    for key, value in closed_form_section(mm, quick):
        print(key, fmt(value))
    for key, value in cloud_section(cover, quick):
        print(key, fmt(value))
    for key, value in mc_section(mm, quick):
        print(key, fmt(value))
    for key, value in extremal_section(mm, quick):
        print(key, fmt(value))
    for key, value in numerics_section(quick):
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
