import json

import pytest

from missingmass import McReport
from missingmass.cli import main


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

    def test_dist_file_csv(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("0.5\n0.5\n")
        code, out, _ = run_cli(capsys, "emm", "--dist", str(f), "--t", "1")
        assert code == 0
        assert json.loads(out)["value"] == 0.5


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
        assert obj["net_size"] == 1
        assert obj["bound"] == pytest.approx(0.36787944117144233)
        assert obj["ok"] is True

    def test_csv_cloud_and_exact(self, tmp_path, capsys):
        f = tmp_path / "cloud.csv"
        f.write_text("id,mass,x1,x2\na,0.5,0,0\nb,0.5,3,4\n")
        code, out, _ = run_cli(capsys, "cover", "--cloud", str(f), "--eps", "5",
                               "--exact")
        assert code == 0
        obj = json.loads(out)
        assert obj["exact_cover"] == 1


class TestOracle:
    def test_uniform_argmax(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--t", "2", "--grid-step", "0.005")
        assert code == 0
        obj = json.loads(out)
        assert all(abs(p - 1 / 3) <= 0.005 for p in obj["point"])


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
