import math
import mmap
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from missingmass import (
    InvalidInputError,
    MissingMassError,
    ProbVector,
    ThresholdNotFoundError,
    bivalent_missing_mass,
    bivalent_missing_mass_prime,
    expected_missing_mass,
    find_threshold,
    maximize_missing_mass,
    simplex_grid_oracle,
)
from missingmass import extremal, numerics
from missingmass.extremal import _axis_blocks, _block_bounds, _grid_max, _prime, _prime_second, _solve
from missingmass.numerics import pow_one_minus


class TestBivalentValue:
    @pytest.mark.parametrize("n,t", [(5, 3), (10, 20)])
    def test_uniform_point_collapses(self, n, t):
        assert bivalent_missing_mass(n, t, 1.0 / n) == pytest.approx(
            (1 - 1 / n) ** t, rel=1e-12
        )

    def test_zero_light_mass(self):
        assert bivalent_missing_mass(7, 4, 0.0) == 0.0

    def test_frozen_rational_value(self):
        # 2*(1/6)*(5/6)^5 + (2/3)*(1/3)^5 evaluated exactly
        exact = 2 * Fraction(1, 6) * Fraction(5, 6) ** 5 + Fraction(2, 3) * Fraction(1, 3) ** 5
        assert float(exact) == pytest.approx(0.1367026748971194, abs=1e-15)
        assert bivalent_missing_mass(3, 5, 1 / 6) == pytest.approx(float(exact), rel=1e-13)

    def test_domain_validation(self):
        with pytest.raises(InvalidInputError):
            bivalent_missing_mass(5, 3, 0.3)  # above 1/n
        with pytest.raises(InvalidInputError):
            bivalent_missing_mass(1, 3, 0.5)

    def test_matches_expected_missing_mass(self):
        n, t, x = 6, 17, 0.11
        d = ProbVector([x] * (n - 1) + [1 - (n - 1) * x])
        assert bivalent_missing_mass(n, t, x) == pytest.approx(
            expected_missing_mass(d, t), abs=1e-12
        )


class TestBivalentPrime:
    @pytest.mark.parametrize("n,t", [(3, 5), (10, 30), (50, 200)])
    def test_matches_finite_differences(self, n, t):
        h = 1e-9
        for frac in [0.1, 0.3, 0.5, 0.7, 0.9]:
            x = frac / n
            fd = (
                bivalent_missing_mass(n, t, x + h) - bivalent_missing_mass(n, t, x - h)
            ) / (2 * h)
            assert bivalent_missing_mass_prime(n, t, x) == pytest.approx(
                fd, rel=1e-5, abs=1e-9
            )

    def test_uniform_is_critical(self):
        for n, t in [(4, 9), (25, 60)]:
            assert bivalent_missing_mass_prime(n, t, 1.0 / n) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_positive_at_kernel_peak(self):
        # below the kernel peak the family value is still climbing
        for n, t in [(5, 12), (100, 150)]:
            assert bivalent_missing_mass_prime(n, t, 1.0 / (t + 1)) > 0.0

    @pytest.mark.parametrize("n,t", [(2, 3), (3, 5), (10, 30), (50, 200), (1000, 1100),
                                     (10 ** 4, 10142), (10, 10 ** 6), (10 ** 4, 10 ** 9)])
    def test_second_derivative_matches_finite_differences(self, n, t):
        # across the solver's bracket (1/(t+1), min(2/(t+1), 1/n)); the first
        # derivative shares the second's powers and matches the plain one
        lo, hi = 1.0 / (t + 1), min(2.0 / (t + 1), 1.0 / n)
        x = lo + (hi - lo) * np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        h = 1e-7 * x
        t_arr = np.full(x.size, t)
        fd = (_prime(n, t_arr, x + h) - _prime(n, t_arr, x - h)) / (2 * h)
        prime, second = _prime_second(n, t_arr, x)
        assert second == pytest.approx(fd, rel=1e-7)
        scale = np.abs(second * x).max()
        assert prime == pytest.approx(_prime(n, t_arr, x), rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.parametrize("ts", [[3, 10, 40], [65, 66, 1000], [3, 63, 64, 65, 10 ** 6]],
                             ids=["below", "above", "mixed"])
    def test_work_buffers_change_no_bit(self, ts):
        """_prime in its work buffers, as the threshold scan calls it, returns
        the second buffer holding the bits of _prime without them, with the
        powers' exponents t - 1 below the switch, above it and on both sides."""
        n = 50
        x = np.random.default_rng(len(ts)).random((len(ts), 65)) / n
        t = np.array(ts)[:, None]
        work = np.full((3, *x.shape), np.nan)
        got = _prime(n, t, x, work)
        assert np.shares_memory(got, work[1])
        assert got.tobytes() == _prime(n, t, x).tobytes()


class TestMaximize:
    def test_uniform_regime(self):
        sol = maximize_missing_mass(10, 9)
        assert sol.is_uniform
        assert sol.x_star == 0.1
        assert sol.value == pytest.approx(0.9 ** 9, rel=1e-12)

    def test_deep_bivalent_regime(self):
        sol = maximize_missing_mass(10, 1000)
        assert not sol.is_uniform
        assert 1 / 1001 < sol.x_star < 1 / 1000
        assert sol.heavy == pytest.approx(1 - 9 * sol.x_star, abs=1e-14)

    def test_matches_simplex_oracle_n3(self):
        oracle_val, _ = simplex_grid_oracle(40, 1e-3)
        sol = maximize_missing_mass(3, 40)
        assert sol.value == pytest.approx(oracle_val, abs=1e-6)

    @pytest.mark.parametrize("n", [4, 10, 40])
    def test_uniform_for_all_t_up_to_n(self, n):
        for t in range(1, n + 1):
            assert maximize_missing_mass(n, t).is_uniform

    def test_solution_invariants(self):
        for n, t in [(10, 20), (100, 130), (1000, 1100)]:
            sol = maximize_missing_mass(n, t)
            assert (n - 1) * sol.x_star + sol.heavy == pytest.approx(1.0, abs=1e-14)
            assert sol.x_star <= 1.0 / n <= sol.heavy
            assert sol.value >= pow_one_minus(1.0 / n, t)

    def test_value_consistent_with_expected_missing_mass(self):
        for n, t in [(10, 20), (50, 80)]:
            sol = maximize_missing_mass(n, t)
            d = sol.to_prob_vector()
            assert expected_missing_mass(d, t) == pytest.approx(sol.value, abs=1e-12)

    @pytest.mark.parametrize("t", [10 ** 6, 10 ** 9])
    def test_strict_bracket_at_huge_t(self, t):
        sol = maximize_missing_mass(10, t)
        assert not sol.is_uniform
        assert 1.0 / (t + 1) < sol.x_star < 1.0 / t

    def test_interior_derivative_small(self):
        for n, t in [(10, 20), (100, 130), (1000, 1100)]:
            sol = maximize_missing_mass(n, t)
            if sol.is_uniform:
                continue
            scale = max(1.0, abs(bivalent_missing_mass_prime(n, t, 1.0 / (t + 1))))
            assert abs(bivalent_missing_mass_prime(n, t, sol.x_star)) <= 1e-10 * scale


def _mp_interior_maximum(n: int, t: int):
    """The first root of the derivative inside (1/(t+1), min(2/(t+1), 1/n))
    at 50 digits, with the family value and the second derivative there, or
    None when the derivative stays positive (the uniform point wins)."""
    import mpmath

    with mpmath.workdps(50):
        def terms(x):
            u = (n - 1) * x
            return u, (1 - x) ** (t - 2), u ** (t - 2)

        def prime(x):
            u, light, heavy = terms(x)
            return light * (1 - x) * (1 - (t + 1) * x) + heavy * u * (t - (t + 1) * u)

        lo = mpmath.mpf(1) / (t + 1)
        # a hair below 1/n, where the uniform point is a critical point
        hi = min(2 * lo, (1 - mpmath.mpf(10) ** -20) / n)
        # the derivative at 1/(t+1) is the heavy part alone, so positive
        a = lo
        for k in range(1, 65):
            b = lo + (hi - lo) * k / 64
            if prime(b) <= 0:
                break
            a = b
        else:
            return None
        for _ in range(80):
            mid = (a + b) / 2
            a, b = (mid, b) if prime(mid) > 0 else (a, mid)
        r = (a + b) / 2
        u, light, heavy = terms(r)
        value = u * light * (1 - r) ** 2 + (1 - u) * heavy * u * u
        second = (n - 1) * t * (light * ((t + 1) * r - 2)
                                + (n - 1) * heavy * ((t - 1) - (t + 1) * u))
        return r, value, second


class TestSolver:
    def test_slice_independence(self):
        # a t's answer is bit for bit the same alone as in a slice of 800
        for n in (10, 100, 1000, 5000):
            t = np.arange(n + 1, n + 801)
            x, v = _solve(n, t)
            for k in range(0, 800, 7):
                xk, vk = _solve(n, t[k:k + 1])
                assert (x[k].hex(), v[k].hex()) == (xk[0].hex(), vk[0].hex()), (n, int(t[k]))

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 10 ** 4])
    def test_matches_mpmath_maximum(self, n):
        import mpmath

        tau = find_threshold(n).tau
        ts = {n + 1, n + 2, tau - 1, tau, tau + 1, 2 * n, 10 * n, 100 * n, 10 ** 6, 10 ** 9}
        for t in sorted(t for t in ts if t > n):
            sol = maximize_missing_mass(n, t)
            best = _mp_interior_maximum(n, t)
            if best is None:
                assert sol.is_uniform, t
                continue
            r, value, second = best
            ulp = math.ulp(float(value))
            with mpmath.workdps(50):
                x = mpmath.mpf(sol.x_star)
                exact = (n - 1) * x * (1 - x) ** t + (1 - (n - 1) * x) * ((n - 1) * x) ** t
                # the returned distribution is no more than 4 ulps below the
                # maximum, and its value is its own, up to the rounding of
                # (1-x)^t (about t/2 ulps below the log-space switch)
                assert exact >= value - 4 * ulp, t
                assert abs(sol.value - exact) <= 1e-13 * exact, t
                if not sol.is_uniform:
                    # flat-maximum tolerance: the distance over which a
                    # quadratic maximum drops by 4 ulps
                    flat = mpmath.sqrt(8 * ulp / abs(second))
                    peak = math.nextafter(1.0 / (t + 1), 1.0)
                    assert sol.x_star == peak or abs(x - r) <= flat, t


class TestThreshold:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 37])
    def test_exceeds_support_size(self, n):
        res = find_threshold(n)
        assert res.tau > n
        assert res.margin_at_tau > 0.0

    @pytest.mark.parametrize("n,tau", [(2, 4), (3, 5), (5, 8), (10, 15), (37, 46), (100, 114),
                                       (1000, 1045), (10000, 10142)])
    def test_pinned_table(self, n, tau):
        assert find_threshold(n).tau == tau

    def test_memory_flat_at_a_million_atoms(self):
        # one unsliced solve over the 10^4 scanned t would peak near 35 MB
        tracemalloc.start()
        try:
            res = find_threshold(10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert res.tau == 1001414

    def test_scan_budget_validation(self):
        with pytest.raises(InvalidInputError):
            find_threshold(100, t_max=120)

    def test_not_found_error_carries_evidence(self):
        # the mandated scan budget always covers the crossing, so the error
        # is defensive; it must still carry the scan evidence when raised
        err = ThresholdNotFoundError(7, 99)
        assert err.n == 7 and err.t_max == 99
        assert "n=7" in str(err)

    def test_scan_without_a_win_raises(self, monkeypatch):
        # a solver whose best value never beats the uniform one
        monkeypatch.setattr(extremal, "_solve", lambda n, t, work: (t * 0.0, t * 0.0))
        with pytest.raises(ThresholdNotFoundError, match="n=10 scanning t up to 60") as exc:
            find_threshold(10, t_max=60)
        assert exc.value.n == 10 and exc.value.t_max == 60

    @pytest.mark.parametrize("rows", [None, 7], ids=["one-slice", "slices-of-7"])
    def test_loss_after_a_win_raises(self, monkeypatch, rows):
        # wins from t = 20 on, except at t = 30
        def solve(n, t, work):
            return t * 0.0, np.where((t >= 20) & (t != 30), 1.0, 0.0)

        monkeypatch.setattr(extremal, "_solve", solve)
        if rows is not None:
            monkeypatch.setattr(extremal, "rows_per_slice", lambda row_bytes: rows)
        with pytest.raises(MissingMassError, match="win indicator not monotone: "
                                                   "n=10 wins at t=20 but loses at t=30"):
            find_threshold(10, t_max=60)

    def test_scan_cap(self, monkeypatch):
        # refused before the workspace is allocated or a slice is solved
        over = extremal.MAX_SCAN + 1
        with pytest.raises(InvalidInputError, match=(
                rf"^threshold scan of {over} values of t \(n=10, t_max={10 + over}\) "
                rf"exceeds MAX_SCAN={extremal.MAX_SCAN}$")):
            find_threshold(10, t_max=10 + over)
        with pytest.raises(InvalidInputError, match="MAX_SCAN"):
            find_threshold(2 * 10 ** 11)  # the default budget: 4.47e6 values of t

        class Reached(Exception):
            pass

        def solve(n, t, work):
            raise Reached

        # the default budget of n = 1.7e11 (4.12e6 values of t) is under the cap
        monkeypatch.setattr(extremal, "_solve", solve)
        with pytest.raises(Reached):
            find_threshold(17 * 10 ** 10)
        monkeypatch.undo()
        monkeypatch.setattr(extremal, "MAX_SCAN", 50)
        assert find_threshold(10, t_max=60).tau == 15
        with pytest.raises(InvalidInputError, match="^threshold scan of 51 values of t"):
            find_threshold(10, t_max=61)

    def test_wins_monotone_past_tau(self):
        """maximize_missing_mass agrees with the scan at every scanned t: its
        scalar uniform value is the scan's array one, bit for bit."""
        for n in (2, 3, 5, 10, 17, 30, 37, 63):
            res = find_threshold(n)
            ts = np.arange(n + 1, res.scan_range[1] + 1)
            uval = pow_one_minus(1.0 / n, ts)
            for t, u in zip(ts.tolist(), uval.tolist()):
                sol = maximize_missing_mass(n, t)
                assert sol.is_uniform == (t < res.tau), (n, t)
                if sol.is_uniform:
                    assert sol.value == u, (n, t)

    @pytest.mark.parametrize("n", [3, 17, 64, 200])
    def test_strict_bracket_past_tau_up_to_50n(self, n):
        tau = find_threshold(n).tau
        ts = sorted({tau, tau + 1, 2 * n, 5 * n, 10 * n, 25 * n, 50 * n})
        for t in ts:
            if t < tau:
                continue
            sol = maximize_missing_mass(n, t)
            assert not sol.is_uniform
            assert 1.0 / (t + 1) < sol.x_star < 1.0 / t


class TestSimplexOracle:
    def test_small_t_prefers_uniform(self):
        _, point = simplex_grid_oracle(2, 5e-3)
        assert all(abs(p - 1 / 3) <= 5e-3 for p in point)

    def test_large_t_prefers_bivalent(self):
        _, point = simplex_grid_oracle(40, 1e-3)
        assert abs(point[0] - point[1]) <= 1e-3
        assert point[2] > point[1]

    def test_dominates_one_parameter_family(self):
        t = 11
        val, _ = simplex_grid_oracle(t, 5e-3)
        for k in range(0, 34):
            x = k / 100.0
            assert val >= bivalent_missing_mass(3, t, min(x, 1 / 3)) - 1e-9

    def test_grid_step_validation(self):
        with pytest.raises(InvalidInputError):
            simplex_grid_oracle(5, 0.5)

    def test_a_lower_bound_resolved_while_t_times_step_is_at_most_one(self):
        # the value is a grid point's, so it never passes the maximum but by
        # rounding; the grid resolves light atoms near 1/t only while
        # t * step <= 1 (at t * step = 10 it is about 50 % short)
        for step in (1e-3, 3e-3, 1e-2):
            for t in (*range(1, 61), 100, 500, 1000, 3000, 10 ** 4, 10 ** 5):
                value, _ = simplex_grid_oracle(t, step)
                best = maximize_missing_mass(3, t).value
                assert value <= best * (1 + 2 ** -40), (t, step)
                if t * step <= 1:
                    assert value >= best * (1 - 1e-4), (t, step)

    @staticmethod
    def reference_sweep(t, p1_vals, p2_vals):
        """Every cell of the grid by the oracle's definition: p3 = (1 - p1) - p2,
        a cell with p3 < -1e-12 worth -1, any other worth
        (p1 (1-p1)^t + p2 (1-p2)^t) + p3 (1-p3)^t with p3 clipped to [0, 1].
        Returns the cell values and (value, i, j) of the first maximum in
        row-major order."""
        p1, p2 = p1_vals[:, None], p2_vals[None, :]
        p3 = (1.0 - p1) - p2
        p3c = np.clip(p3, 0.0, 1.0)
        f = (p1 * (1.0 - p1) ** t + p2 * (1.0 - p2) ** t) + p3c * (1.0 - p3c) ** t
        f = np.where(p3 >= -1e-12, f, -1.0)
        i, j = np.unravel_index(int(np.argmax(f)), f.shape)
        return f, (float(f[i, j]), int(i), int(j))

    @classmethod
    def full_square_oracle(cls, t, grid_step):
        """The oracle with both sweeps over the whole square, exhaustively."""
        def sweep(p1_vals, p2_vals):
            _, (value, i, j) = cls.reference_sweep(t, p1_vals, p2_vals)
            return value, float(p1_vals[i]), float(p2_vals[j])

        m = int(round(1.0 / grid_step))
        coarse = np.linspace(0.0, 1.0, m + 1)
        val, b1, b2 = sweep(coarse, coarse)
        offsets = np.arange(-50, 51) * (grid_step / 50.0)
        rval, r1, r2 = sweep(np.clip(b1 + offsets, 0.0, 1.0), np.clip(b2 + offsets, 0.0, 1.0))
        if rval > val:
            val, b1, b2 = rval, r1, r2
        return val, tuple(sorted((b1, b2, max(0.0, 1.0 - b1 - b2))))

    @pytest.mark.parametrize("grid_step", [1e-2, 5e-3])
    def test_matches_full_square_sweep(self, grid_step):
        for t in range(1, 41):
            val, point = simplex_grid_oracle(t, grid_step)
            ref_val, ref_point = self.full_square_oracle(t, grid_step)
            assert [x.hex() for x in (val, *point)] == [x.hex() for x in (ref_val, *ref_point)]

    # t = 2^62: every term underflows but those of the p3 left by rounding
    # near 0, of order 2^-54, whose y = 1 - p3 rounds to 1
    @pytest.mark.parametrize("grid_step", [1e-2, 3e-3, 1e-3])
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 8, 40, 1000, 2 ** 62])
    def test_matches_exhaustive_reference(self, t, grid_step):
        val, point = simplex_grid_oracle(t, grid_step)
        ref_val, ref_point = self.full_square_oracle(t, grid_step)
        assert [x.hex() for x in (val, *point)] == [x.hex() for x in (ref_val, *ref_point)]

    # hand-built axes: dyadic points (exact sums, so the maximum ties with the
    # permutations of its point, in other blocks), one point repeated down 40
    # rows (each row ties with the first),
    # a refinement axis clipped at 0 (51 zeros), a descending axis, axes of
    # 37 and 23 points (partial blocks), and the coarse axis at step 1e-2,
    # some of whose p3 are left by rounding near 0 (2^-54 at p1 = 0.58,
    # p2 = 0.42): at t = 2^62 only those terms are above 0
    DYADIC = np.arange(65) / 64
    HAND_BUILT = {
        "dyadic": (DYADIC, DYADIC),
        "repeated": (np.full(40, 0.25), DYADIC),
        "clipped": (np.clip(np.arange(-50, 51) * 2e-5, 0.0, 1.0),) * 2,
        "descending": (DYADIC[::-1], DYADIC[::-1]),
        "ragged": (np.linspace(0.0, 1.0, 37), np.linspace(0.0, 1.0, 23)),
        "coarse": (np.linspace(0.0, 1.0, 101),) * 2,
    }

    @pytest.mark.parametrize("batch", ["one block", "default"])
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 40])
    @pytest.mark.parametrize("grid", list(HAND_BUILT))
    def test_sweep_matches_reference_on_hand_built_grids(self, monkeypatch, grid, t, batch):
        # batches of one block put tied maxima in different batches
        if batch == "one block":
            monkeypatch.setattr(numerics, "SLICE_BYTES", 8 * extremal.ORACLE_BLOCK ** 2)
        p1_vals, p2_vals = self.HAND_BUILT[grid]
        f, (value, i, j) = self.reference_sweep(t, p1_vals, p2_vals)
        if grid == "repeated":  # the first of 40 tied maxima
            assert np.count_nonzero(f == value) >= 40
        got = _grid_max(t, p1_vals, p2_vals)
        assert (got[0].hex(), *got[1:]) == (value.hex(), i, j)

    @pytest.mark.parametrize("t", [1, 2, 5, 40, 1000, 2 ** 62])
    @pytest.mark.parametrize("grid", list(HAND_BUILT))
    def test_bound_exceeds_every_cell_by_its_margin(self, grid, t):
        """Each block's bound is above every computed value of its cells by
        the relative margin (up to one rounding), and strictly above, 0
        included; a block with no cell in the simplex is bounded by -inf."""
        p1_vals, p2_vals = self.HAND_BUILT[grid]
        f, _ = self.reference_sweep(t, p1_vals, p2_vals)
        bound = _block_bounds(t, _axis_blocks(p1_vals, t)[2], _axis_blocks(p2_vals, t)[2])
        b = extremal.ORACLE_BLOCK
        for (bi, bj), value in np.ndenumerate(bound):
            cells = f[bi * b:(bi + 1) * b, bj * b:(bj + 1) * b]
            top = cells.max()
            if top < 0.0:
                assert value == -math.inf
            else:
                assert value > top and value >= top * (1.0 + 2.0 ** -41), (bi, bj)

    def test_blocks_bounded_at_the_incumbent_are_evaluated(self, monkeypatch):
        """A block whose bound equals the incumbent is evaluated, and may hold
        an earlier tie.  The margins make such a bound exceed every cell, so
        they are set to 0 here: every cell of the first block row is worth
        the maximum, its exact bound, and so are the second block's rows but
        the one at 5/16, whose larger row term lifts that block's bound above
        the first's, so the second block is evaluated first."""
        monkeypatch.setattr(extremal, "ORACLE_MARGIN_REL", 0.0)
        monkeypatch.setattr(extremal, "ORACLE_MARGIN_ABS", 0.0)
        p1_vals = np.full(32, 0.375)
        p1_vals[16] = 0.3125
        p2_vals = np.array([0.125])
        f, (value, i, j) = self.reference_sweep(2, p1_vals, p2_vals)
        bound = _block_bounds(2, _axis_blocks(p1_vals, 2)[2], _axis_blocks(p2_vals, 2)[2])
        assert bound[0, 0] == value < bound[1, 0] and f[16, 0] < value == f[17, 0]
        got = _grid_max(2, p1_vals, p2_vals)
        assert (got[0].hex(), *got[1:]) == (value.hex(), 0, 0)

    def test_bands_do_not_change_the_argmax(self, monkeypatch):
        # batches of one block and of three, and bounds in slices of one
        # block row, against the default's; t = 5 evaluates many blocks
        for t in (2, 5):
            results = set()
            for budget in (8, 3 * 8 * extremal.ORACLE_BLOCK ** 2, numerics.SLICE_BYTES):
                monkeypatch.setattr(numerics, "SLICE_BYTES", budget)
                val, point = simplex_grid_oracle(t, 1e-2)
                results.add(tuple(x.hex() for x in (val, *point)))
            assert len(results) == 1

    def test_memory_bounded(self):
        # one unsliced sweep of the 1001 x 1001 grid holds several 8 MB temporaries
        tracemalloc.start()
        try:
            simplex_grid_oracle(40, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def _minor_faults(call: str) -> int:
    """Minor page faults of one call in a fresh interpreter, after one small
    call of each solver; a fresh allocator maps every buffer of SLICE_BYTES
    anew, so a buffer allocated per slice shows up as its pages per slice."""
    code = ("import resource; import missingmass as mm\n"
            "mm.find_threshold(10); mm.simplex_grid_oracle(2, 1e-2)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"{call}\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    package_root = os.path.dirname(os.path.dirname(extremal.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         check=True, capture_output=True, text=True)
    return int(run.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
class TestSliceBuffers:
    """The sliced solvers allocate their slice buffers once per call, so
    their page faults do not grow with the number of slices."""

    def test_threshold_scan(self):
        # 10 slices of t against 1 (about 8 000 faults against 900 when each
        # slice allocated its own derivative samples)
        many = _minor_faults("mm.find_threshold(10 ** 6)")
        one = _minor_faults("mm.find_threshold(10 ** 4)")
        assert many <= 1.5 * one + 256, (many, one)

    def test_oracle(self):
        # three float batch buffers and one bool, each within SLICE_BYTES
        pages = (3 * numerics.SLICE_BYTES + numerics.SLICE_BYTES // 8) // mmap.PAGESIZE
        faults = _minor_faults("mm.simplex_grid_oracle(40, 1e-3)")
        assert faults <= pages + 256, (faults, pages)
