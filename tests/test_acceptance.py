"""Acceptance suite: every shipped guarantee, at its stated tolerance.

Each test prints one `[acceptance] ...: PASS/FAIL` line (run with -s to see
them inline).  Tolerances and grid sizes are pinned here, not configurable:
they are the package's exit criteria.
"""

import math
import time

import numpy as np
import pytest

import missingmass as mm

SEED = 20260808


def _finish(name: str, failures: list, detail: str = ""):
    ok = not failures
    extra = detail
    if failures:
        shown = "; ".join(str(f) for f in failures[:3])
        extra = f"{detail + '; ' if detail else ''}first failures: {shown}"
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}" + (f" ({extra})" if extra else "")
    print(line)
    assert ok, line


def _random_simplex(rng, n):
    return mm.ProbVector(rng.exponential(size=n), normalize=True)


def test_c01_uniform_exactness():
    """E[U_t] on the uniform distribution equals (1-1/n)^t to 1e-12 relative."""
    rng = np.random.default_rng(SEED)
    pairs = {(2, 1), (2, 2000), (1000, 1), (1000, 2000), (10, 10)}
    while len(pairs) < 520:
        pairs.add((int(rng.integers(2, 1001)), int(rng.integers(1, 2001))))
    start = time.perf_counter()
    failures = []
    cache = {}
    for n, t in sorted(pairs):
        if n not in cache:
            cache[n] = mm.ProbVector.uniform(n)
        value = mm.expected_missing_mass(cache[n], t)
        ref = (1.0 - 1.0 / n) ** t
        if abs(value - ref) > 1e-12 * max(abs(ref), abs(value), 1e-300):
            failures.append((n, t, value, ref))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _finish("C1 uniform-exactness", failures,
            f"{len(pairs)} pairs, {elapsed:.2f}s")


def test_c02_finite_support_bound():
    """E[U_t] <= exp(-t/n) for t <= n and n/(e t) for t > n, zero violations."""
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    failures = []
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        d = _random_simplex(rng, n)
        for t in range(1, 501):
            value = mm.expected_missing_mass(d, t)
            if value > mm.bound_finite(n, t) + 1e-12:
                failures.append((n, t, value))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _finish("C2 finite-support-bound", failures,
            f"1000 distributions x 500 sample sizes, {elapsed:.1f}s")


def test_c03_tight_finite_lower_bound():
    """The two-level construction achieves E[U_t] >= 8(n-1)/(27 t) on the full grid."""
    failures = []
    for n in range(2, 101):
        for t in range(n + 1, 10 * n + 1):
            value = mm.expected_missing_mass(mm.tight_finite(n, t), t)
            if value < 8 * (n - 1) / (27 * t):
                failures.append((n, t, value))
    _finish("C3 tight-finite-lower-bound", failures, "n in 2..100, t in n+1..10n")


def test_c04_tight_countable_lower_bound():
    """Dyadic blocks: truncated-lower E[U_t] >= 4a/(27 t), plateau exactly a."""
    rng = np.random.default_rng(SEED + 2)
    failures = []
    for a in range(2, 65):
        trunc = mm.truncate(mm.tight_countable(a), 1e-12)
        if mm.plateau_length(trunc) != a:
            failures.append((a, "plateau"))
        ts = {a + 1, 2 * a, 5 * a, 20 * a, 100 * a}
        ts.update(int(v) for v in rng.integers(a + 1, 100 * a + 1, size=8))
        for t in sorted(ts):
            lo, _ = mm.expected_missing_mass_interval(trunc, t)
            if lo < 4 * a / (27 * t):
                failures.append((a, t, lo))
    _finish("C4 tight-countable-lower-bound", failures,
            "a in 2..64, sampled t in (a, 100a]")


def test_c05_three_atom_oracle():
    """Exhaustive 3-simplex search: two smallest coordinates tie, and the max
    matches the one-variable family within 1e-4."""
    start = time.perf_counter()
    failures = []
    for t in range(2, 41):
        value, point = mm.simplex_grid_oracle(t, 1e-3)
        if abs(point[0] - point[1]) > 1e-3:
            failures.append((t, "asymmetric", point))
        family = mm.maximize_missing_mass(3, t).value
        if abs(value - family) > 1e-4:
            failures.append((t, "value-gap", value, family))
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _finish("C5 three-atom-oracle", failures, f"t in 2..40, {elapsed:.1f}s")


def test_c06_threshold_behavior():
    """tau(n) > n, the win is monotone over the scan, and at n = 10^4 the
    offset lands in the loose asymptotic band [0.6, 1.4] x sqrt(2n)."""
    failures = []
    for n in (3, 10, 100, 1000):
        res = mm.find_threshold(n)  # raises if the win flickers over the scan
        if not res.tau > n:
            failures.append((n, res.tau))
        if not res.margin_at_tau > 0:
            failures.append((n, "margin", res.margin_at_tau))
    res = mm.find_threshold(10_000)
    ratio = (res.tau - 10_000) / math.sqrt(2 * 10_000)
    if not (0.6 <= ratio <= 1.4):
        failures.append((10_000, "ratio", ratio))
    _finish("C6 threshold-behavior", failures,
            f"tau(10^4)={res.tau}, offset ratio {ratio:.3f}")


def test_c07_maximizer_localization():
    """Past n + sqrt(2n) the winning light mass sits strictly inside
    (1/(t+1), 1/t) and below 1/(t+1) + exp(-sqrt(n/2)).  Zero violations."""
    rng = np.random.default_rng(SEED + 3)
    failures = []
    for n in (10, 100, 1000):
        t_lo = math.ceil(n + math.sqrt(2 * n))
        ts = {t_lo, t_lo + 1, 5 * n}
        ts.update(int(v) for v in rng.integers(t_lo, 5 * n + 1, size=20))
        lo_gap = math.exp(-math.sqrt(n / 2))
        for t in sorted(ts):
            sol = mm.maximize_missing_mass(n, t)
            if sol.is_uniform:
                failures.append((n, t, "uniform"))
                continue
            if not (1.0 / (t + 1) < sol.x_star < 1.0 / t):
                failures.append((n, t, "bracket", sol.x_star))
            if not sol.x_star < 1.0 / (t + 1) + lo_gap:
                failures.append((n, t, "localization", sol.x_star))
    _finish("C7 maximizer-localization", failures,
            "n in {10,100,1000}, t from ceil(n+sqrt(2n)) to 5n")


def test_c08_good_turing_bias():
    """Closed-form bias identity at 1e-12 on 200 random distributions, and
    Monte Carlo agreement (1e5 replicates, 3 sigma) on 10 representative cases."""
    rng = np.random.default_rng(SEED + 4)
    failures = []
    for _ in range(200):
        d = _random_simplex(rng, int(rng.integers(2, 41)))
        t = int(rng.integers(1, 301))
        if abs(mm.gt_bias(d, t) - mm.singleton_mass_expectation(d, t) / t) > 1e-12:
            failures.append((d.n, t))
    cases = [
        (mm.ProbVector.uniform(2), 2),
        (mm.ProbVector([1.0]), 3),
        (mm.ProbVector.uniform(50), 100),
        (mm.ProbVector.uniform(5), 10),
        (mm.ProbVector.uniform(20), 40),
        (mm.tight_finite(10, 50), 50),
        (mm.tight_finite(5, 12), 30),
        (_random_simplex(rng, 8), 16),
        (_random_simplex(rng, 30), 5),
        (_random_simplex(rng, 12), 120),
    ]
    for i, (d, t) in enumerate(cases):
        rep = mm.verify_bias(d, t, replicates=100_000, seed=SEED + i)
        if rep.violated:
            failures.append(("mc", i, rep.estimate, rep.bound))
    _finish("C8 good-turing-bias", failures,
            "identity on 200 draws, MC on 10 cases")


def test_c09_concentration():
    """Empirical tails never beat 2 exp(-t eps^2) by more than 3 sigma."""
    start = time.perf_counter()
    failures = []
    grid_d = [
        ("uniform5", mm.ProbVector.uniform(5)),
        ("uniform50", mm.ProbVector.uniform(50)),
        ("tight_finite(10,50)", mm.tight_finite(10, 50)),
    ]
    for name, d in grid_d:
        for t in (20, 100):
            for eps in (0.05, 0.1, 0.2, 0.3):
                rep = mm.verify_concentration(d, t, eps, replicates=100_000,
                                              seed=SEED)
                if rep.violated:
                    failures.append((name, t, eps, rep.exceed_freq, rep.bound))
    elapsed = time.perf_counter() - start
    if elapsed >= 180.0:
        failures.append(f"runtime {elapsed:.1f}s >= 180s")
    _finish("C9 concentration", failures, f"24 cells x 1e5 replicates, {elapsed:.0f}s")


def test_c10_metric_covering_bound():
    """Expected eps-missing mass <= bound_finite(K, t), K the size of a
    radius-eps/2 net (greedy, and exact on small clouds), across random
    clouds, with Monte Carlo cross-checks."""
    rng = np.random.default_rng(SEED + 5)
    failures = []
    exact_checked = 0
    mc_checked = 0
    for cloud_idx in range(100):
        if cloud_idx % 7 == 0:
            n = int(rng.integers(5, 21))  # small enough for exact set cover
        else:
            n = int(rng.integers(21, 501))
        dim = int(rng.integers(1, 6))
        coords = rng.random((n, dim))
        if rng.integers(0, 2):
            cloud = mm.PointCloud(rng.exponential(size=n), coords=coords, normalize=True)
        else:
            cloud = mm.PointCloud([1.0 / n] * n, coords=coords)
        pair_dists = cloud.distances()[np.triu_indices(n, k=1)]
        eps_grid = np.quantile(pair_dists, [0.1, 0.25, 0.5, 0.75, 0.9])
        for eps in (float(e) for e in eps_grid):
            if eps <= 0.0:
                continue
            cells = mm.greedy_eps_net(cloud, eps / 2).size
            exact = None
            if n <= 20:
                # exact eps/2 centers give cells of diameter eps too
                exact = mm.exact_covering_number(cloud, eps / 2)
                exact_checked += 1
                if exact > cells:
                    failures.append((cloud_idx, eps, "exact>greedy"))
            for t in (1, 10, 100):
                value = mm.expected_eps_missing_mass(cloud, t, eps)
                if value > mm.bound_finite(cells, t):
                    failures.append((cloud_idx, eps, t, "greedy-bound"))
                if exact is not None and value > mm.bound_finite(exact, t):
                    failures.append((cloud_idx, eps, t, "exact-bound"))
        if cloud_idx % 10 == 0:
            eps = float(eps_grid[2])
            if eps > 0:
                # 2e4 replicates: at 1e3 the skewed per-replicate law makes
                # the 3-sigma normal band unreliable
                rep = mm.mc_eps_missing_mass(cloud, 10, eps, replicates=20_000,
                                             seed=SEED + cloud_idx)
                mc_checked += 1
                if rep.violated:
                    failures.append((cloud_idx, "mc", rep.estimate, rep.bound))
    _finish("C10 metric-covering-bound", failures,
            f"100 clouds, {exact_checked} exact covers, {mc_checked} MC cells")


def test_c11_rate_lower_bound():
    """The constructed distribution dominates r_t = 1/ln(t+2) up to T = 200."""
    targets = mm.inverse_log_targets(200)
    d = mm.rate_lb(targets)
    failures = [
        (t, mm.expected_missing_mass(d, t), targets[t - 1])
        for t in range(1, 201)
        if not mm.expected_missing_mass(d, t) > targets[t - 1]
    ]
    _finish("C11 rate-lower-bound", failures,
            f"horizon 200, support {d.n} atoms in {len(d.blocks)} blocks")


def test_c12_numerical_hygiene():
    """Analytic derivatives match central differences at 1e-6 relative, and
    dyadic band contributions re-sum to E[U_t] at 1e-12."""
    failures = []
    h = 1e-7
    # 1e-8 absolute floor: central differences carry ~ulp(f)/h ~ 5e-10 of
    # roundoff, which swamps any relative test right at a zero crossing
    for t in (1, 10, 100):
        for x in np.linspace(0.01, 0.99, 99):
            fd = (mm.kernel(x + h, t) - mm.kernel(x - h, t)) / (2 * h)
            an = mm.kernel_prime(float(x), t)
            if abs(an - fd) > max(1e-6 * max(abs(an), abs(fd)), 1e-8):
                failures.append(("kernel", t, float(x)))
    for n, t in ((5, 12), (50, 120), (200, 500)):
        lo, hi = 1.0 / (t + 1), 1.0 / n
        for x in np.linspace(lo * 1.05, hi * 0.95, 40):
            step = min(h, float(x) * 1e-3)
            fd = (mm.bivalent_missing_mass(n, t, float(x) + step)
                  - mm.bivalent_missing_mass(n, t, float(x) - step)) / (2 * step)
            an = mm.bivalent_missing_mass_prime(n, t, float(x))
            if abs(an - fd) > max(1e-6 * max(abs(an), abs(fd)), 1e-8 * n):
                failures.append(("bivalent", n, t, float(x)))
    rng = np.random.default_rng(SEED + 6)
    for _ in range(50):
        d = _random_simplex(rng, int(rng.integers(2, 60)))
        t = int(rng.integers(1, 201))
        resum = math.fsum(c for _, _, c in mm.dyadic_bands(d, t))
        if abs(resum - mm.expected_missing_mass(d, t)) > 1e-12:
            failures.append(("bands", d.n, t))
    _finish("C12 numerical-hygiene", failures,
            "derivative grids + 50 band decompositions")
