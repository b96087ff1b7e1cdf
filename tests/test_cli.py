import argparse
import csv
import io
import json
import math
import tracemalloc

import pytest

from missingmass import CountableFamily, McReport, PointCloud, mc_eps_missing_mass
from missingmass import cli, cover, extremal, sampling
from missingmass.cli import _dict_to_csv, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEmm:
    def test_uniform_single_t(self, capsys):
        code, out, _ = run_cli(capsys, "emm", "--family", "uniform", "--n", "10", "--t", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["t"] == 10
        assert obj["value"] == pytest.approx(0.3486784401, rel=1e-12)

    def test_family_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "emm", "--family", "geometric", "--t", "5", "--tol", "1e-8"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] <= obj["value"] <= obj["upper"]
        assert obj["upper"] - obj["lower"] <= 1e-8

    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "emm", "--family", "uniform", "--n", "4", "--t-grid", "1:3",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,value,lower,upper"
        assert len(lines) == 4

    def test_missing_distribution_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "emm", "--t", "3")
        assert code == 2
        assert "dist" in err or "family" in err

    def test_dist_file_json(self, tmp_path, capsys):
        f = tmp_path / "d.json"
        f.write_text("[0.25, 0.75]")
        code, out, _ = run_cli(capsys, "emm", "--dist", str(f), "--t", "3")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(
            0.25 * 0.75 ** 3 + 0.75 * 0.25 ** 3, rel=1e-12
        )

    @pytest.mark.parametrize("command", ["emm", "bounds"])
    @pytest.mark.parametrize("grid", ["5:1", "1:5:-1"])
    def test_empty_grid_is_usage_error(self, capsys, command, grid):
        code, out, err = run_cli(capsys, command, "--family", "uniform", "--n", "5",
                                 "--t-grid", grid)
        assert code == 2
        assert out == ""
        assert "empty" in err

    @pytest.mark.parametrize("command", ["emm", "bounds"])
    def test_negative_step_includes_stop(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--family", "uniform", "--n", "5",
                               "--t-grid", "5:1:-1")
        assert code == 0
        obj = json.loads(out)
        ts = [row["t"] for row in obj] if command == "bounds" else obj["t"]
        assert ts == [5, 4, 3, 2, 1]

    @pytest.mark.parametrize("grid", ["1:5:0", "", "1:2:3:4"])
    def test_malformed_grid_is_usage_error(self, capsys, grid):
        code, out, err = run_cli(capsys, "emm", "--family", "uniform", "--n", "5",
                                 "--t-grid", grid)
        assert code == 2
        assert out == ""
        assert err.startswith(f"mml emm: t grid {grid!r}")

    def test_explicit_family_without_tail_bound(self, tmp_path, capsys):
        # the tail bound defaults to 0: the listed masses are the whole family
        f = tmp_path / "explicit.json"
        f.write_text('{"family": "explicit", "params": {"masses": [0.5, 0.5]}}')
        code, out, _ = run_cli(capsys, "emm", "--dist", str(f), "--t", "3")
        assert code == 0
        assert json.loads(out) == {"t": 3, "value": 0.125}
        code, out, _ = run_cli(capsys, "bounds", "--dist", str(f), "--t", "3")
        assert code == 0
        assert json.loads(out)["upper"] == 0.125

    def test_dist_file_csv(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("0.5\n0.5\n")
        code, out, _ = run_cli(capsys, "emm", "--dist", str(f), "--t", "1")
        assert code == 0
        assert json.loads(out)["value"] == 0.5


class TestListedAtoms:
    """An explicit file loads as a Truncation: every listed atom is kept and
    --tol is not applied; ell is claimed only when nothing is left unlisted."""

    TINY = {"masses": [0.999999999999] + [1e-15] * 1000}  # 1000 atoms in one band
    TAIL = {"masses": [0.5, 0.25], "tail_bound": 0.25}

    @staticmethod
    def _file(tmp_path, params):
        f = tmp_path / "explicit.json"
        f.write_text(json.dumps({"family": "explicit", "params": params}))
        return str(f)

    @pytest.mark.parametrize("tol", [[], ["--tol", "0.5"]], ids=["default-tol", "tol-0.5"])
    def test_every_tiny_atom_counts(self, tmp_path, capsys, tol):
        f = self._file(tmp_path, self.TINY)
        code, out, _ = run_cli(capsys, "bounds", "--dist", f, "--t", str(10 ** 15), *tol)
        assert code == 0
        row = json.loads(out)
        assert row["ell"] == 1000
        assert row["bound_countable"] == 1000 / (0.69 * 10 ** 15)
        # the 1000 atoms of 1e-15 are each missed with probability about 1/e
        assert row["lower"] == row["upper"] == pytest.approx(1e-12 / math.e, rel=1e-9)
        assert row["lower"] > 250 * row["bound_countable"] / 1000  # 250x what ell = 1 claims
        code, out, _ = run_cli(capsys, "emm", "--dist", f, "--t", str(10 ** 15), *tol)
        assert code == 0
        assert json.loads(out) == {"t": 10 ** 15, "value": row["lower"]}

    def test_tail_bound_gives_an_enclosure(self, tmp_path, capsys):
        f = self._file(tmp_path, self.TAIL)
        code, out, _ = run_cli(capsys, "emm", "--dist", f, "--t", "3")
        assert code == 0
        assert json.loads(out) == {"t": 3, "value": 0.29296875, "lower": 0.16796875,
                                   "upper": 0.41796875}

    def test_tail_bound_leaves_ell_unproven(self, tmp_path, capsys):
        f = self._file(tmp_path, self.TAIL)
        code, out, err = run_cli(capsys, "bounds", "--dist", f, "--t", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("mml bounds: plateau length unproven")


class TestExtremalAndTau:
    def test_uniform_regime(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--n", "10", "--t", "9")
        assert code == 0
        obj = json.loads(out)
        assert obj["is_uniform"] is True
        assert obj["x_star"] == 0.1

    def test_tau_single(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--n", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["tau"] > 10
        assert obj["margin_at_tau"] > 0

    def test_tau_list(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--n", "3,5")
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [3, 5]


class TestConstruct:
    def test_tight_finite(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--kind", "tight-finite",
                               "--n", "3", "--t", "5")
        assert code == 0
        masses = json.loads(out)
        assert masses[0] == pytest.approx(1 / 6)

    def test_tight_finite_invalid(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--kind", "tight-finite",
                               "--n", "5", "--t", "3")
        assert code == 2
        assert "t > n" in err or "integer" in err

    def test_tight_countable(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--kind", "tight-countable", "--a", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["family"] == "dyadic-blocks"
        assert obj["params"]["a"] == 3

    def test_rate_lb_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--kind", "rate-lb",
                               "--target", "geometric", "--t-max", "30")
        assert code == 0
        obj = json.loads(out)
        assert "blocks" in obj
        assert all(len(pair) == 2 for pair in obj["blocks"])

    def test_rate_lb_r_file(self, tmp_path, capsys):
        f = tmp_path / "r.json"
        f.write_text(json.dumps([0.9 * 0.5 ** t for t in range(1, 31)]))
        code, out, _ = run_cli(capsys, "construct", "--kind", "rate-lb",
                               "--r-file", str(f))
        assert code == 0
        assert "blocks" in json.loads(out)

    def test_rate_lb_past_the_doubling_cap(self, tmp_path, capsys):
        f = tmp_path / "r.json"
        f.write_text(json.dumps([1 - 1e-15 * t for t in range(1, 11)] + [0.8, 0.7]))
        code, out, err = run_cli(capsys, "construct", "--kind", "rate-lb",
                                 "--r-file", str(f))
        assert code == 2
        assert out == ""
        assert err == "mml construct: targets not dominated within 40 doublings\n"

    def test_rate_lb_atoms_that_halve_to_zero(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--kind", "rate-lb",
                                 "--target", "geometric", "--t-max", "1074")
        assert code == 2
        assert out == ""
        assert err == ("mml construct: targets not dominated after 0 doublings, and the atoms "
                       "cannot be halved again: the smallest mass 5e-324 halves to 0\n")


class TestGt:
    def test_identity_in_output(self, capsys):
        code, out, _ = run_cli(capsys, "gt", "--family", "uniform", "--n", "2", "--t", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["bias"] == pytest.approx(obj["singleton_over_t"], abs=1e-12)
        assert obj["bias"] == pytest.approx(0.25)


class TestSimulate:
    def test_bias_mode(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--mode", "bias",
                               "--family", "uniform", "--n", "2", "--t", "2",
                               "--replicates", "2000", "--seed", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["replicates"] == 2000
        assert obj["violated"] is False

    def test_concentration_mode(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--mode", "concentration",
                               "--family", "uniform", "--n", "5", "--t", "10",
                               "--eps", "1.0", "--replicates", "10000")
        assert code == 0
        obj = json.loads(out)
        assert obj["exceed_freq"] == 0.0

    def test_deterministic_output(self, capsys):
        args = ("simulate", "--mode", "bias", "--family", "uniform", "--n", "3",
                "--t", "4", "--replicates", "1500", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_no_false_violation_at_t1(self, capsys):
        # the standard error is 0 at t=1; an ulp of rounding is no violation
        code, out, _ = run_cli(capsys, "simulate", "--mode", "bias", "--family", "uniform",
                               "--n", "3", "--t", "1", "--replicates", "1000")
        assert code == 0
        assert json.loads(out)["violated"] is False

    def test_violation_exit_code(self, capsys, monkeypatch):
        # honest bound violations are (by design) all but impossible to
        # produce, so the exit-code plumbing is exercised with a stub report
        from missingmass import cli as climod

        stub = McReport(replicates=1000, estimate=0.9, std_error=0.001,
                        seed=0, bound=0.1, violated=True)
        monkeypatch.setattr(climod.sampling, "verify_bias",
                            lambda *a, **k: stub)
        code, out, _ = run_cli(capsys, "simulate", "--mode", "bias",
                               "--family", "uniform", "--n", "2", "--t", "2",
                               "--replicates", "1000")
        assert code == 3
        assert json.loads(out)["violated"] is True


class TestCover:
    def test_line_cloud(self, tmp_path, capsys):
        f = tmp_path / "line3.json"
        f.write_text(json.dumps({"points": [[0], [1], [2]], "masses": [0.5, 0.25, 0.25]}))
        code, out, _ = run_cli(capsys, "cover", "--cloud", str(f), "--eps", "1", "--t", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["expected"] == pytest.approx(0.25)
        assert obj["cells"] == 3
        assert obj["bound"] == pytest.approx(math.exp(-1 / 3))
        assert obj["ok"] is True
        assert obj["centers"] == [0, 2]  # the radius-eps greedy net

    def test_two_clusters_under_one_ball(self, tmp_path, capsys):
        """E = 0.4802 is above N(1)/e = 0.3679 here, so the radius-eps
        comparison would report a violation; the eps/2 cells bound holds."""
        f = tmp_path / "two_clusters.json"
        f.write_text(json.dumps({"points": [[-1], [0], [1]], "masses": [0.49, 0.02, 0.49]}))
        code, out, _ = run_cli(capsys, "cover", "--cloud", str(f), "--eps", "1", "--t", "1",
                               "--exact")
        assert code == 0
        obj = json.loads(out)
        assert obj["expected"] == pytest.approx(0.4802)
        assert obj["exact_cover"] == 1 and obj["expected"] > 1 / math.e
        assert obj["cells"] == 3
        assert obj["ok"] is True

    def test_one_dimensional_points(self, tmp_path, capsys):
        f = tmp_path / "flat.json"
        f.write_text(json.dumps({"points": [0, 1, 2], "masses": [0.5, 0.25, 0.25]}))
        code, out, _ = run_cli(capsys, "cover", "--cloud", str(f), "--eps", "1", "--t", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["expected"] == pytest.approx(0.25)
        assert obj["cells"] == 3 and obj["centers"] == [0, 2]

    def test_csv_cloud_and_exact(self, tmp_path, capsys):
        f = tmp_path / "cloud.csv"
        f.write_text("id,mass,x1,x2\na,0.5,0,0\nb,0.5,3,4\n")
        code, out, _ = run_cli(capsys, "cover", "--cloud", str(f), "--eps", "5",
                               "--exact")
        assert code == 0
        obj = json.loads(out)
        assert obj["exact_cover"] == 1


class TestInvalidFiles:
    """Inputs that once gave a silently wrong answer or a traceback: each is
    now exit 2 with one message line, naming the bad field, and no output."""

    @pytest.mark.parametrize("name, text, argv, field", [
        ("frac.json", '{"blocks": [[0.25, 2.5], [0.5, 1]]}', ["emm", "--t", "3"], "count"),
        ("a.json", '{"family": "dyadic-blocks", "params": {"a": 2.7}}', ["emm", "--t", "3"],
         "width a"),
        ("nan.csv", "id,mass,x1,x2\na,0.5,0,0\nb,0.25,nan,1\nc,0.25,3,4\n",
         ["cover", "--eps", "1", "--t", "1"], "coordinates"),
        ("inf.csv", "id,mass,x1,x2\na,0.5,0,0\nb,0.25,inf,1\nc,0.25,3,4\n",
         ["cover", "--eps", "1", "--t", "1"], "coordinates"),
        ("flat.json", '{"blocks": [0.5, 0.5]}', ["emm", "--t", "3"], "blocks"),
        ("short.csv", "id,mass,x1\na,0.5,0\nb\n", ["cover", "--eps", "1", "--t", "1"],
         "data row 2"),
        ("params.json", '{"family": "geometric", "params": [1, 2]}', ["emm", "--t", "3"],
         "params"),
        ("masses.json", '{"family": "explicit", "params": {"masses": 0.5}}',
         ["emm", "--t", "3"], "masses"),
        ("strings.json", '["0.5", "0.5"]', ["emm", "--t", "3"], "masses"),
        ("blockstr.json", '{"blocks": [["0.5", 2]]}', ["emm", "--t", "3"], "masses"),
        ("explicit.json", '{"family": "explicit", "params": {"masses": ["0.5", "0.5"]}}',
         ["emm", "--t", "3"], "masses"),
        ("points.json", '{"points": [["0"], [true]], "masses": [0.5, 0.5]}',
         ["cover", "--eps", "1", "--t", "1"], "coordinates"),
        ("cloudmass.json", '{"points": [[0], [1]], "masses": ["0.5", 0.5]}',
         ["cover", "--eps", "1", "--t", "1"], "masses"),
        ("rates.json", json.dumps([0.5, 0.25, "0.125"] + [0.5 ** t for t in range(4, 31)]),
         ["construct", "--kind", "rate-lb"], "target rates"),
        ("norates.json", "[]", ["construct", "--kind", "rate-lb"], "nonempty"),
        ("number.json", "0.5", ["emm", "--t", "3"], "array of numbers"),
        ("nomass.json", '{"points": [[0], [1]]}', ["cover", "--eps", "1", "--t", "1"],
         "'masses'"),
        ("nogeometry.json", '{"masses": [0.5, 0.5]}', ["cover", "--eps", "1", "--t", "1"],
         "'points' or 'matrix'"),
        ("cloudmassnum.json", '{"points": [[0]], "masses": 1.0}',
         ["cover", "--eps", "1", "--t", "1"], "masses"),
        ("shape.json", '{"masses": [0.5, 0.5], "matrix": [[0, 1, 1], [1, 0, 1]]}',
         ["cover", "--eps", "1", "--t", "1"], "matrix must be (2, 2)"),
        ("header.csv", "id,mass,x1\n", ["cover", "--eps", "1", "--t", "1"],
         "header and data rows"),
        ("badheader.csv", "name,mass,x1\na,1.0,0\n", ["cover", "--eps", "1", "--t", "1"],
         "id,mass"),
        ("two.csv", "0.5,0.9\n0.5,0.1\n", ["emm", "--t", "1"], "CSV row 1 must hold one mass"),
        ("mass.csv", "mass\n0.5\n0.5\n", ["emm", "--t", "1"], "row 1: 'mass' is not a number"),
        ("word.csv", "id,mass,x1\na,0.5,0\nb,abc,1\n", ["cover", "--eps", "1", "--t", "1"],
         "data row 2: 'abc' is not a number"),
    ], ids=["fractional-count", "fractional-a", "nan-coordinate", "inf-coordinate",
            "unpaired-blocks", "one-cell-row", "params-array", "masses-number",
            "string-masses", "string-block-mass", "string-family-masses", "string-bool-points",
            "string-cloud-mass", "string-rate", "empty-rates", "dist-number",
            "cloud-no-masses", "cloud-no-geometry", "cloud-masses-number",
            "cloud-matrix-shape", "cloud-csv-header-only", "cloud-csv-bad-header",
            "dist-csv-two-cells", "dist-csv-header-row", "cloud-csv-word-mass"])
    def test_rejected(self, tmp_path, capsys, name, text, argv, field):
        f = tmp_path / name
        f.write_text(text)
        flag = {"cover": "--cloud", "construct": "--r-file"}.get(argv[0], "--dist")
        code, out, err = run_cli(capsys, *argv, flag, str(f))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"mml {argv[0]}: ")
        assert field in err


    @pytest.mark.parametrize("name, text, argv", [
        ("short.json", "[0.5, 0.4]", ["emm", "--t", "3"]),
        ("short.csv", "0.5\n0.4\n", ["emm", "--t", "3"]),
        ("cloud.json", '{"points": [[0], [1]], "masses": [0.5, 0.4]}',
         ["cover", "--eps", "1", "--t", "1"]),
    ], ids=["dist-json", "dist-csv", "cloud-json"])
    def test_sum_error_names_no_library_option(self, tmp_path, capsys, name, text, argv):
        # normalize=True is a constructor option: no file or flag can pass it
        f = tmp_path / name
        f.write_text(text)
        flag = "--cloud" if argv[0] == "cover" else "--dist"
        code, out, err = run_cli(capsys, *argv, flag, str(f))
        assert code == 2
        assert out == ""
        assert err.startswith(f"mml {argv[0]}: masses sum to 0.9")
        assert "normalize" not in err


class TestHugeUniform:
    N = str(2 ** 40)

    @pytest.mark.parametrize("command, key", [
        ("emm", "value"), ("bounds", "value"), ("gt", "expected_missing_mass"),
    ])
    def test_closed_forms_in_run_form(self, capsys, command, key):
        code, out, _ = run_cli(capsys, command, "--family", "uniform", "--n", self.N,
                               "--t", "10")
        assert code == 0
        assert json.loads(out)[key] == 0.999999999990905

    def test_simulate_caps_the_support(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--mode", "bias", "--family", "uniform",
                                 "--n", self.N, "--t", "10", "--replicates", "1000")
        assert code == 2
        assert out == ""
        assert err == (f"mml simulate: a Monte Carlo row of max(t=10, n={self.N}) cells "
                       "exceeds MAX_ROW_CELLS=2000000\n")


class TestOracle:
    def test_uniform_argmax(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--t", "2", "--grid-step", "0.005")
        assert code == 0
        obj = json.loads(out)
        assert all(abs(p - 1 / 3) <= 0.005 for p in obj["point"])


class TestOptions:
    """Every subcommand takes exactly the flags its handler reads."""

    DESTS = {
        "emm": "a dist family format n out ratio t t_grid tol",
        "bounds": "a dist family format n out ratio t t_grid tol",
        "extremal": "format n out t",
        "tau": "format n out",
        "construct": "a format kind n out r_file t t_max target",
        "gt": "dist family format n out t",
        "simulate": "cloud dist eps family format mode n out replicates seed t",
        "cover": "cloud eps exact format out t",
        "oracle": "format grid_step out t",
    }

    def test_option_sets(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: sorted(a.dest for a in p._actions if not isinstance(a, argparse._HelpAction))
               for name, p in sub.choices.items()}
        assert got == {name: dests.split() for name, dests in self.DESTS.items()}
        assert sum(len(dests) for dests in got.values()) == 63

    @pytest.mark.parametrize("argv,message", [
        (["tau", "--n", "3", "--seed", "1"], "unrecognized arguments"),
        (["tau", "--n", "10", "--t-max", "60"], "unrecognized arguments"),
        (["emm", "--family", "uniform", "--n", "3", "--t", "1", "--seed", "1"],
         "unrecognized arguments"),
        (["construct", "--kind", "tight-countable", "--a", "3", "--tol", "1e-9"],
         "unrecognized arguments"),
        (["bounds", "--family", "geometric", "--t", "5", "--c", "0.5"], "unrecognized arguments"),
        (["gt", "--family", "geometric", "--t", "3"], "invalid choice: 'geometric'"),
        (["simulate", "--mode", "bias", "--family", "uniform", "--n", "3", "--t", "3",
          "--ratio", "0.3"], "unrecognized arguments"),
    ], ids=["tau-seed", "tau-t-max", "emm-seed", "construct-tol", "bounds-c", "gt-geometric", "simulate-ratio"])
    def test_removed_flag_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, bound_fn, key", [
        (["--family", "uniform", "--n", "10", "--t", "66"], "bound_finite", "value"),
        (["--family", "geometric", "--t", "700"], "bound_countable", "lower"),
    ], ids=["finite", "countable"])
    def test_bounds_verdict_is_relative(self, capsys, monkeypatch, argv, bound_fn, key):
        """A bound 1e-13 below its value (for a countable family, the lower
        end of its enclosure) is a violation (exit 3) where the value is far
        below 1: the verdict is sampling.is_violation with a standard error
        of 0, not value <= bound + 1e-12."""
        from missingmass import cli as climod

        _, out, _ = run_cli(capsys, "bounds", *argv)
        value = json.loads(out)[key]
        assert value < 0.003
        monkeypatch.setattr(climod.mass, bound_fn, lambda *a, **k: value - 1e-13)
        code, out, _ = run_cli(capsys, "bounds", *argv)
        assert code == 3
        assert json.loads(out)["ok"] is False
        monkeypatch.setattr(climod.mass, bound_fn, lambda *a, **k: value)
        code, out, _ = run_cli(capsys, "bounds", *argv)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_countable_truncation_tail_is_no_violation(self, capsys):
        """At the default tol the geometric(1/2) truncation keeps a tail of
        about 9e-13; at t = 2e11 that lifts the enclosure's upper end above
        ell/(0.69 t), which still holds since 0.69 < c*.  Only a lower end
        above the bound is a violation."""
        code, out, _ = run_cli(capsys, "bounds", "--family", "geometric",
                               "--t", "200000000000")
        row = json.loads(out)
        assert row["lower"] <= row["bound_countable"] < row["upper"]
        assert row["ok"] is True
        assert code == 0

    def test_countable_rows_keep_the_proven_constant(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "geometric", "--t", "5")
        assert code == 0
        assert json.loads(out)["c"] == 0.69


class TestOutput:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "res.json"
        code, out, _ = run_cli(capsys, "emm", "--family", "uniform", "--n", "2",
                               "--t", "1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["value"] == 0.5

    def test_json_floats_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "extremal", "--n", "10", "--t", "1000")
        obj = json.loads(out)
        _, out2, _ = run_cli(capsys, "extremal", "--n", "10", "--t", "1000")
        assert json.loads(out2) == obj


LINE3 = {"points": [[0], [1], [2]], "masses": [0.5, 0.25, 0.25]}
GEOMETRIC_FAMILY = {"family": "geometric", "params": {"ratio": 0.5}}


@pytest.fixture
def files(tmp_path):
    """A three-point cloud, a family file, an explicit file and a rate file that
    is no array."""
    paths = {"cloud": tmp_path / "line3.json", "family": tmp_path / "family.json",
             "explicit": tmp_path / "explicit.json", "rates": tmp_path / "rates.json"}
    paths["cloud"].write_text(json.dumps(LINE3))
    paths["family"].write_text(json.dumps(GEOMETRIC_FAMILY))
    paths["explicit"].write_text('{"family": "explicit", "params": {"masses": [0.5, 0.5]}}')
    paths["rates"].write_text('{"rates": [0.5, 0.25]}')
    return {k: str(v) for k, v in paths.items()}


class TestCaps:
    """Each user-sized count past its cap, and a report that strict JSON
    cannot hold, is exit 2 with one line on stderr, refused before anything
    of its size is allocated."""

    @pytest.mark.parametrize("argv, message", [
        ("emm --family uniform --n 10 --t-grid 1:10000000000",
         "mml emm: t grid of 10000000000 values exceeds MAX_T_GRID=1048576"),
        ("bounds --family uniform --n 10 --t-grid 1:100000000000000000000000:3",
         "mml bounds: t grid of 33333333333333333333334 values exceeds MAX_T_GRID=1048576"),
        ("emm --family uniform --n 10 --t-grid 1:1048577",
         "mml emm: t grid of 1048577 values exceeds MAX_T_GRID=1048576"),
        ("simulate --mode bias --family uniform --n 5 --t 10 --replicates 1000000000000",
         "mml simulate: replicates=1000000000000 exceeds MAX_REPLICATES=10000000"),
        ("simulate --mode concentration --family uniform --n 5 --t 10 --eps 0.1 "
         "--replicates 10000001",
         "mml simulate: replicates=10000001 exceeds MAX_REPLICATES=10000000"),
        ("simulate --mode eps-mass --cloud {cloud} --eps 0.5 --t 3 --replicates 1000000000000",
         "mml simulate: replicates=1000000000000 exceeds MAX_REPLICATES=10000000"),
        ("construct --kind rate-lb --target inverse-log --t-max 100000000",
         "mml construct: horizon t_max=100000000 exceeds MAX_HORIZON=1048576"),
        ("construct --kind rate-lb --target geometric --t-max 1048577",
         "mml construct: horizon t_max=1048577 exceeds MAX_HORIZON=1048576"),
        ("tau --n 100000000000",
         "mml tau: support size n=100000000000 exceeds MAX_THRESHOLD_N=10000000000"),
        ("oracle --t 5 --grid-step 1e-9",
         "mml oracle: grid step 1e-09 gives more than MAX_GRID_POINTS=100001 points per axis"),
        # strict JSON (RFC 8259) has no Infinity, so a report holding one is refused
        ("cover --cloud {cloud} --eps inf --t 3",
         "mml cover: Out of range float values are not JSON compliant: inf"),
    ])
    def test_refused(self, capsys, files, argv, message):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv.format(**files).split())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", message + "\n")
        assert peak < 2 ** 20

    @pytest.mark.parametrize("grid, count", [
        ("1:4", 4), ("4:1:-1", 4), ("1:10:3", 4), ("1,2,3,4", 4),
        ("1:5", 5), ("5:1:-1", 5), ("1:13:3", 5), ("1,2,3,4,5", 5),
    ])
    def test_t_grid_at_the_cap(self, capsys, monkeypatch, grid, count):
        monkeypatch.setattr(cli, "MAX_T_GRID", 4)
        code, out, err = run_cli(capsys, "emm", "--family", "uniform", "--n", "4",
                                 "--t-grid", grid)
        if count <= 4:
            assert code == 0 and len(json.loads(out)["t"]) == count
        else:
            assert (code, err) == (2, "mml emm: t grid of 5 values exceeds MAX_T_GRID=4\n")

    @pytest.mark.parametrize("step, points", [
        ("0.005", 201), ("0.00499", 201), ("0.0049", 205), ("5e-324", None),
    ])
    def test_oracle_grid_at_the_cap(self, capsys, monkeypatch, step, points):
        monkeypatch.setattr(extremal, "MAX_GRID_POINTS", 201)
        code, out, err = run_cli(capsys, "oracle", "--t", "3", "--grid-step", step)
        if points == 201:
            assert code == 0 and json.loads(out)["t"] == 3
        else:
            assert (code, out, err) == (2, "", f"mml oracle: grid step {float(step)!r} gives "
                                               "more than MAX_GRID_POINTS=201 points per axis\n")

    @pytest.mark.parametrize("argv", [
        "cover --cloud {cloud} --eps 0.5 --t 3",
        "simulate --mode eps-mass --cloud {cloud} --eps 0.5 --t 3 --replicates 1000",
    ])
    def test_cloud_past_the_cap(self, capsys, monkeypatch, files, argv):
        argv = argv.format(**files).split()
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cover, "MAX_CLOUD_POINTS", 2)
        assert run_cli(capsys, *argv) == (
            2, "", f"mml {argv[0]}: cloud of 3 points exceeds MAX_CLOUD_POINTS=2\n")

    @pytest.mark.parametrize("argv", [
        "cover --cloud {matrix} --eps 0.5 --t 3",
        "simulate --mode eps-mass --cloud {matrix} --eps 0.5 --t 3 --replicates 1000",
    ])
    def test_matrix_past_the_cap(self, capsys, monkeypatch, tmp_path, files, argv):
        matrix = tmp_path / "line3-matrix.json"
        matrix.write_text(json.dumps({"masses": LINE3["masses"],
                                      "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
        argv = argv.format(matrix=matrix).split()
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cover, "MAX_MATRIX_POINTS", 2)
        assert run_cli(capsys, *argv) == (
            2, "", f"mml {argv[0]}: distance matrix of 3 points exceeds MAX_MATRIX_POINTS=2\n")
        # a coordinate cloud of as many points is no matrix input
        coords = [files["cloud"] if a == str(matrix) else a for a in argv]
        assert run_cli(capsys, *coords)[0] == 0

    def test_replicates_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(sampling, "MAX_REPLICATES", 1000)
        argv = "simulate --mode bias --family uniform --n 5 --t 10 --seed 1 --replicates".split()
        assert run_cli(capsys, *argv, "1000")[0] == 0
        assert run_cli(capsys, *argv, "1001")[1:] == (
            "", "mml simulate: replicates=1001 exceeds MAX_REPLICATES=1000\n")


class TestUsageBranches:
    """Each invalid combination of flags is exit 2 with one line on stderr."""

    @pytest.mark.parametrize("argv, message", [
        ("emm --family uniform --t 3", "mml emm: --family uniform needs --n"),
        ("emm --family dyadic-blocks --t 3", "mml emm: --family dyadic-blocks needs --a"),
        ("emm --family uniform --n 4", "mml emm: give --t or --t-grid"),
        ("construct --kind tight-finite --n 3", "mml construct: tight-finite needs --n and --t"),
        ("construct --kind tight-finite --t 5", "mml construct: tight-finite needs --n and --t"),
        ("construct --kind tight-countable", "mml construct: tight-countable needs --a"),
        ("construct --kind rate-lb", "mml construct: rate-lb needs --t-max (or --r-file)"),
        ("construct --kind rate-lb --r-file {rates}",
         "mml construct: --r-file must hold a JSON array of rates"),
        ("gt --dist {family} --t 3", "mml gt: gt needs a finite distribution"),
        ("simulate --mode bias --dist {family} --t 3 --replicates 1000",
         "mml simulate: simulation needs a finite distribution"),
        ("gt --dist {explicit} --t 3", "mml gt: gt needs a finite distribution"),
        ("simulate --mode bias --dist {explicit} --t 3 --replicates 1000",
         "mml simulate: simulation needs a finite distribution"),
        ("simulate --mode concentration --family uniform --n 5 --t 3 --replicates 10000",
         "mml simulate: concentration needs --eps"),
        ("simulate --mode eps-mass --cloud {cloud} --t 3 --replicates 1000",
         "mml simulate: eps-mass needs --cloud and --eps"),
        ("simulate --mode eps-mass --eps 0.5 --t 3 --replicates 1000",
         "mml simulate: eps-mass needs --cloud and --eps"),
        ("simulate --mode bias --family uniform --n 50 --t 1000000000 --replicates 1000",
         "mml simulate: a Monte Carlo row of max(t=1000000000, n=50) cells "
         "exceeds MAX_ROW_CELLS=2000000"),
        ("simulate --mode bias --family uniform --n 5 --t 10 --replicates 1000 --seed -1",
         "mml simulate: seed must be an integer >= 0, got -1"),
    ])
    def test_usage_error(self, capsys, files, argv, message):
        code, out, err = run_cli(capsys, *argv.format(**files).split())
        assert code == 2
        assert out == ""
        assert err == message + "\n"

    def test_dyadic_blocks_with_a(self, capsys):
        code, out, _ = run_cli(capsys, "emm", "--family", "dyadic-blocks", "--a", "3",
                               "--t", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] <= obj["value"] <= obj["upper"]

    def test_comma_grid(self, capsys):
        code, out, _ = run_cli(capsys, "emm", "--family", "uniform", "--n", "4",
                               "--t-grid", "3,1,2")
        assert code == 0
        assert json.loads(out)["t"] == [3, 1, 2]

    def test_eps_mass_is_the_library_report(self, capsys, files):
        code, out, _ = run_cli(capsys, "simulate", "--mode", "eps-mass", "--cloud",
                               files["cloud"], "--eps", "0.5", "--t", "2",
                               "--replicates", "1000", "--seed", "4")
        report = mc_eps_missing_mass(PointCloud.from_json_obj(LINE3), 2, 0.5, 1000, 4)
        assert code == 0
        assert json.loads(out) == report.to_json_obj()


class TestCsvOutput:
    """Every subcommand's --format csv output parses with csv.reader: a
    JSON object as key,value pairs, anything else as rows of one width."""

    @pytest.mark.parametrize("argv", [
        "emm --family uniform --n 10 --t 10",
        "emm --family dyadic-blocks --a 3 --t-grid 1:100:10",
        "bounds --family uniform --n 20 --t 5",
        "bounds --family uniform --n 20 --t-grid 5,20,80",
        "bounds --dist {family} --t-grid 1,10",
        "extremal --n 10 --t 1000",
        "tau --n 3",
        "tau --n 3,10",
        "construct --kind tight-finite --n 3 --t 5",
        "construct --kind tight-countable --a 3",
        "construct --kind rate-lb --t-max 20",
        "gt --family uniform --n 2 --t 2",
        "simulate --mode bias --family uniform --n 5 --t 10 --replicates 1000",
        "simulate --mode concentration --family uniform --n 5 --t 10 --eps 0.3"
        " --replicates 10000",
        "simulate --mode eps-mass --cloud {cloud} --eps 0.5 --t 2 --replicates 1000",
        "cover --cloud {cloud} --eps 1 --t 1 --exact",
        "oracle --t 4 --grid-step 0.01",
    ])
    def test_parses(self, capsys, files, argv):
        argv = argv.format(**files).split()
        _, out, _ = run_cli(capsys, *argv)
        obj = json.loads(out)
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code in (0, 3)
        rows = list(csv.reader(io.StringIO(out)))
        if isinstance(obj, dict) and [row[0] for row in rows] == list(obj):
            assert all(len(row) == 2 for row in rows)
        else:
            assert rows and {len(row) for row in rows} == {len(rows[0])}

    def test_list_cells_are_quoted(self, capsys):
        argv = ("construct", "--kind", "rate-lb", "--t-max", "20")
        _, out, _ = run_cli(capsys, *argv)
        _, text, _ = run_cli(capsys, *argv, "--format", "csv")
        assert text.startswith('blocks,"[')
        [[key, cell]] = list(csv.reader(io.StringIO(text)))
        assert key == "blocks"
        assert cell == " ".join(repr(pair) for pair in json.loads(out)["blocks"])

    def test_explicit_family_params(self):
        fam = CountableFamily("dyadic-blocks", {"a": 5})
        rows = list(csv.reader(io.StringIO(_dict_to_csv(fam.to_json_obj()))))
        assert rows == [["family", "dyadic-blocks"],
                        ["params", json.dumps(fam.to_json_obj()["params"])]]
        assert json.loads(rows[1][1]) == {"a": 5}

    def test_dict_cells_are_json(self, capsys):
        _, text, _ = run_cli(capsys, "construct", "--kind", "tight-countable", "--a", "3",
                             "--format", "csv")
        assert 'params,"{""a"": 3}"' in text.splitlines()
        params = dict(csv.reader(io.StringIO(text)))["params"]
        assert json.loads(params) == {"a": 3}

    def test_cells_without_commas_are_unquoted(self, capsys):
        _, out, _ = run_cli(capsys, "oracle", "--t", "4", "--grid-step", "0.01",
                            "--format", "csv")
        assert out == ("t,4\nvalue,0.197530856293135\n"
                       "point,0.3332 0.33340000000000003 0.33340000000000003\n")
