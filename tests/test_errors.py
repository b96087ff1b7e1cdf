"""The two argument rules in missingmass.errors, and checks that go through them."""

import json
import math

import numpy as np
import pytest

from missingmass import (
    BlockVector,
    CountableFamily,
    InvalidInputError,
    PointCloud,
    bound_finite,
    doubling_operator,
    eps_missing_mass,
    maximize_missing_mass,
)
from missingmass import distributions
from missingmass.errors import require_int, require_real


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

    @pytest.mark.parametrize("index", [0.0, True, -1])
    def test_sample_index(self, index):
        cloud = PointCloud([0.5, 0.5], coords=[[0.0], [2.0]])
        with pytest.raises(InvalidInputError, match="sample index"):
            eps_missing_mass(cloud, [1, index], 1.0)

    def test_int64_counts_pass_by_dtype(self, monkeypatch):
        d = BlockVector([(2.0 ** -40, 2 ** 40)])

        def per_element(*args):
            raise AssertionError("an int64 count array went through the per-element rule")

        monkeypatch.setattr(distributions, "require_int", per_element)
        assert doubling_operator(d).blocks == ((2.0 ** -41, 2 ** 41),)
        assert d.to_prob_vector(max_atoms=2 ** 40).n == 2 ** 40


def test_point_cloud_masses_keep_point_order():
    cloud = PointCloud([3.0, 1.0, 4.0], coords=[[0.0], [1.0], [2.0]], normalize=True)
    assert cloud.masses.tolist() == [0.375, 0.125, 0.5]
