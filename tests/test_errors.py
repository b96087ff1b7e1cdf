"""The argument rules in missingmass.errors, and checks that go through them."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from missingmass import (
    BlockVector,
    CountableFamily,
    InvalidInputError,
    PointCloud,
    ProbVector,
    Truncation,
    bound_finite,
    doubling_operator,
    maximize_missing_mass,
    rate_lb,
    verify_bias,
)
from missingmass import cover, distributions
from missingmass.errors import require_int, require_real, require_reals


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
def test_require_int_returns_a_python_int(value):
    out = require_int(value, "x", 1)
    assert out == 3 and type(out) is int


@pytest.mark.parametrize("value", [True, 3.0, 2.5, np.float64(3.0), "3", None, 0])
def test_require_int_rejects(value):
    with pytest.raises(InvalidInputError, match=r"^x must be an integer >= 1, got "):
        require_int(value, "x", 1)


@pytest.mark.parametrize("bounds, inside, outside", [
    ("[]", [0.0, 1.0], [-0.5, 1.5]),
    ("(]", [1.0, 1e-300], [0.0]),
    ("[)", [0.0], [1.0]),
    ("()", [0.5], [0.0, 1.0]),
])
def test_require_real_ends(bounds, inside, outside):
    for v in inside:
        assert require_real(v, "y", 0.0, 1.0, bounds) is v
    for v in outside:
        with pytest.raises(InvalidInputError, match=r"^y must lie in "):
            require_real(v, "y", 0.0, 1.0, bounds)


@pytest.mark.parametrize("value", [math.nan, True, "0.5", None])
def test_require_real_rejects_nan_bool_and_non_numbers(value):
    with pytest.raises(InvalidInputError):
        require_real(value, "y", -math.inf, math.inf)


@pytest.mark.parametrize("value", [10 ** 400, 2 ** 1024])
@pytest.mark.parametrize("entry", [
    "covering_bound_report", "ball_masses", "mc_eps_missing_mass",
])
def test_radius_past_the_float_range_is_refused(entry, value):
    # 10**400 <= inf holds, so the range check alone lets it through
    cloud = PointCloud([0.5, 0.5], coords=[[0.0], [1.0]])
    calls = {
        "covering_bound_report": lambda eps: cover.covering_bound_report(cloud, 3, eps),
        "ball_masses": lambda eps: cover.ball_masses(cloud, eps),
        "mc_eps_missing_mass": lambda eps: cover.mc_eps_missing_mass(cloud, 3, eps, 1000, 0),
    }
    with pytest.raises(InvalidInputError, match="radius eps must fit in a float"):
        calls[entry](value)
    calls[entry](math.inf)  # the bound allows inf itself


HUGE = -10 ** 5000


@pytest.mark.parametrize("entry, name, shown", [
    ("require_int", "x", f"-<int of {HUGE.bit_length()} bits>"),
    ("require_real", "x", f"-<int of {HUGE.bit_length()} bits>"),
    ("require_real-fraction", "x", "<Fraction too long to print>"),
    ("bound_finite", "support size n", f"-<int of {HUGE.bit_length()} bits>"),
    ("verify_bias", "seed", f"-<int of {HUGE.bit_length()} bits>"),
], ids=["require_int", "require_real", "require_real-fraction", "bound_finite", "verify_bias"])
def test_int_too_long_to_print_is_refused(entry, name, shown):
    # Python refuses to print an int of more than 4300 digits; the message
    # names its sign and bit length instead
    calls = {
        "require_int": lambda: require_int(HUGE, "x", 1),
        "require_real": lambda: require_real(HUGE, "x", 0.0, 1.0),
        "require_real-fraction": lambda: require_real(Fraction(HUGE, 3), "x", 0.0, 1.0),
        "bound_finite": lambda: bound_finite(HUGE, 3),
        "verify_bias": lambda: verify_bias(ProbVector.uniform(3), 10, 1000, HUGE),
    }
    with pytest.raises(InvalidInputError, match=f"^{name} must ") as err:
        calls[entry]()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if 0 < limit <= 5000:  # the int has 5001 digits
        assert str(err.value).endswith(f"got {shown}")


def test_require_reals_applies_the_real_type_rule_to_each_item():
    items = [0.5, 1, np.float64(0.25), np.int64(2), math.inf]
    assert require_reals(items, "z") is items
    for bad in ["0.5", True, np.bool_(True), None, [0.5]]:
        with pytest.raises(InvalidInputError, match=r"^z must be real numbers, got "):
            require_reals([0.5, bad], "z")


def test_bool_is_no_support_size():
    with pytest.raises(InvalidInputError):
        bound_finite(True, 3)


def test_numpy_integers_come_back_as_ints():
    sol = maximize_missing_mass(np.int64(10), np.int64(1000))
    assert json.loads(json.dumps(sol.to_json_obj()))["t"] == 1000
    fam = CountableFamily.dyadic_blocks(np.int64(3))
    assert json.dumps(fam.to_json_obj())


class TestLoadersDoNotCoerce:
    @pytest.mark.parametrize("count", [2.5, 2.0, "2", True])
    def test_block_count(self, count):
        with pytest.raises(InvalidInputError, match="block count"):
            BlockVector.from_json_obj({"blocks": [[0.25, count], [0.5, 1]]})

    @pytest.mark.parametrize("a", [2.7, 3.0, "3"])
    def test_dyadic_width(self, a):
        with pytest.raises(InvalidInputError, match="width a"):
            CountableFamily.from_json_obj({"family": "dyadic-blocks", "params": {"a": a}})
        with pytest.raises(InvalidInputError, match="width a"):
            CountableFamily.dyadic_blocks(a)

    @pytest.mark.parametrize("mass", ["0.5", True])
    def test_masses(self, mass):
        with pytest.raises(InvalidInputError, match="masses must be real numbers"):
            ProbVector.from_json_obj([mass, 0.5])
        with pytest.raises(InvalidInputError, match="masses must be real numbers"):
            BlockVector.from_json_obj({"blocks": [[mass, 1], [0.5, 1]]})
        with pytest.raises(InvalidInputError, match="masses must be real numbers"):
            Truncation.from_json_obj({"family": "explicit", "params": {"masses": [mass, 0.5]}})
        with pytest.raises(InvalidInputError, match="masses must be real numbers"):
            PointCloud.from_json_obj({"points": [[0], [1]], "masses": [mass, 0.5]})

    @pytest.mark.parametrize("tail", ["0.25", True])
    def test_tail_bound(self, tail):
        with pytest.raises(InvalidInputError, match="tail bound must lie in"):
            Truncation.from_json_obj(
                {"family": "explicit", "params": {"masses": [0.5, 0.25], "tail_bound": tail}})

    @pytest.mark.parametrize("value", ["0", True])
    def test_cloud_coordinates_and_matrix(self, value):
        with pytest.raises(InvalidInputError, match="coordinates must be real numbers"):
            PointCloud.from_json_obj({"points": [[value], [1]], "masses": [0.5, 0.5]})
        with pytest.raises(InvalidInputError, match="distance matrix entries must be real"):
            PointCloud.from_json_obj({"matrix": [[0, value], [1, 0]], "masses": [0.5, 0.5]})

    @pytest.mark.parametrize("rate", ["0.125", True])
    def test_target_rates(self, rate):
        with pytest.raises(InvalidInputError, match="target rates must be real numbers"):
            rate_lb([0.5, 0.25, rate] + [0.5 ** t for t in range(4, 31)])

    def test_float_arrays_pass_by_dtype(self, monkeypatch):
        def per_element(*args):
            raise AssertionError("a float array went through the per-item rule")

        monkeypatch.setattr(distributions, "require_reals", per_element)
        monkeypatch.setattr(cover, "require_reals", per_element)
        assert doubling_operator(ProbVector(np.full(4, 0.25))).n == 8
        cloud = PointCloud(np.full(2, 0.5), coords=np.array([[0.0], [1.0]]))
        assert PointCloud(cloud.masses, matrix=cloud.distances()).distances().max() == 1.0

    def test_int64_counts_pass_by_dtype(self, monkeypatch):
        d = BlockVector([(2.0 ** -40, 2 ** 40)])

        def per_element(*args):
            raise AssertionError("an int64 count array went through the per-element rule")

        monkeypatch.setattr(distributions, "require_int", per_element)
        assert doubling_operator(d).blocks == ((2.0 ** -41, 2 ** 41),)
        assert ProbVector._of_runs(d.m, d.c).n == 2 ** 40


def test_point_cloud_masses_keep_point_order():
    cloud = PointCloud([3.0, 1.0, 4.0], coords=[[0.0], [1.0], [2.0]], normalize=True)
    assert cloud.masses.tolist() == [0.375, 0.125, 0.5]
