import json
import subprocess
import sys

import numpy as np
import pytest

import splitep as sp
from splitep.cli import TRACE_HEADER, main
from splitep.problems import problem_to_dict


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITEP_OUTPUT_DIR", str(tmp_path))
    return tmp_path


def generate(outdir, seed=7, n=5, m=4):
    path = outdir / f"problem-{seed}.json"
    assert run_cli("generate", "--seed", seed, "--n", n, "--m", m, "-o", path) == 0
    return path


class TestGenerate:
    def test_writes_loadable_problem(self, outdir):
        path = generate(outdir)
        problem = sp.load(path)
        assert problem.n == 5 and problem.m == 4

    def test_default_path_uses_output_dir(self, outdir):
        assert run_cli("generate", "--seed", 3, "--n", 2, "--m", 2) == 0
        assert (outdir / "problem-seed3-n2-m2.json").exists()


class TestSolve:
    def test_weak_solve_exit_zero_and_trace_contract(self, outdir):
        path = generate(outdir)
        trace = outdir / "trace.csv"
        report = outdir / "report.json"
        code = run_cli(
            "solve", "--problem", path, "--algorithm", "weak",
            "--trace", trace, "--report", report,
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "k,res_xy,res_yz,res_Sz,res_uAt,res_Tu,step,dist_xstar"
        payload = json.loads(report.read_text())
        assert payload["status"] == "Converged"
        assert len(lines) - 1 == payload["iterations"] + 1
        assert payload["distance_to_planted"] <= 1e-4

    def test_trace_rows_are_numeric(self, outdir):
        path = generate(outdir, seed=5, n=2, m=2)
        trace = outdir / "t.csv"
        run_cli("solve", "--problem", path, "--trace", trace, "--report", outdir / "r.json")
        data = np.genfromtxt(trace, delimiter=",", names=True)
        assert data["dist_xstar"][-1] <= 1e-4
        assert data["k"][0] == 0

    def test_mu_fraction_must_be_a_fraction(self, outdir, capsys):
        path = generate(outdir)
        code = run_cli("solve", "--problem", path, "--mu-fraction", 1.5)
        assert code == 2
        assert "mu-fraction" in capsys.readouterr().err

    def test_strong_solve(self, outdir):
        path = generate(outdir, seed=2, n=2, m=2)
        report = outdir / "strong.json"
        code = run_cli(
            "solve", "--problem", path, "--algorithm", "strong",
            "--report", report, "--trace", outdir / "strong.csv",
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["status"] == "Converged"
        assert payload["distance_to_planted"] <= 1e-4

    def test_parameter_overrides_are_applied(self, outdir):
        path = generate(outdir, seed=4, n=2, m=2)
        report = outdir / "o.json"
        code = run_cli(
            "solve", "--problem", path, "--alpha", 0.3, "--alpha-k", 2.0,
            "--lambda", 0.1, "--tol", 1e-5, "--max-iter", 9000,
            "--report", report, "--trace", outdir / "o.csv",
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["alpha"] == 0.3
        assert payload["tol"] == 1e-5
        assert payload["max_iter"] == 9000

    def test_invalid_override_rejected_with_named_violation(self, outdir, capsys):
        path = generate(outdir, seed=4, n=2, m=2)
        assert run_cli("solve", "--problem", path, "--lambda", 50.0) == 2
        assert "LambdaOutOfRange" in capsys.readouterr().err

    def test_missing_problem_file(self, outdir, capsys):
        assert run_cli("solve", "--problem", outdir / "nope.json") == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_problem_file(self, outdir, capsys):
        path = outdir / "broken.json"
        path.write_text("{not json")
        assert run_cli("solve", "--problem", path) == 3
        assert "parse" in capsys.readouterr().err

    def test_unparseable_problem_content(self, outdir, capsys):
        path = outdir / "unknown.json"
        data = problem_to_dict(sp.generate_planted(2, 2, seed=1))
        data["C"] = {"type": "torus"}
        path.write_text(json.dumps(data))
        assert run_cli("solve", "--problem", path) == 3

    def test_inner_failure_exit_code(self, outdir, capsys):
        # a bifunction declared monotone but actually expansive diverges
        path = outdir / "divergent.json"
        base = problem_to_dict(sp.generate_planted(1, 1, seed=1))
        base["C"] = {"type": "whole", "dim": 1}
        base["Q"] = {"type": "whole", "dim": 1}
        base["A"] = [[1.0]]
        base["f"] = {
            "type": "vi_affine", "M": [[-1.0]], "q": [0.0],
            "c1": 0.5, "c2": 0.5, "monotonicity": "monotone",
        }
        base["g"] = {
            "type": "vi_affine", "M": [[0.0]], "q": [0.0],
            "c1": 0.5, "c2": 0.5, "monotonicity": "monotone",
        }
        base["S"] = {"type": "identity", "dim": 1}
        base["T"] = {"type": "identity", "dim": 1}
        base["x1"] = [1.0]
        base["planted_solution"] = None
        path.write_text(json.dumps(base))
        code = run_cli("solve", "--problem", path, "--lambda", 0.4)
        assert code == 4
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["weak", "strong"])
    def test_diverging_resolvent_exit_code(self, outdir, capsys, algorithm):
        # g is monotone but skew, and its resolvent iteration blows up
        skew = {
            "type": "vi_affine", "M": [[0.0, 10.0], [-10.0, 0.0]], "q": [0.0, 0.0],
            "c1": 5.0, "c2": 5.0, "monotonicity": "monotone",
        }
        data = {
            "C": {"type": "whole", "dim": 2}, "Q": {"type": "whole", "dim": 2},
            "A": [[1.0, 0.0], [0.0, 1.0]], "f": skew, "g": skew,
            "S": {"type": "identity", "dim": 2}, "T": {"type": "identity", "dim": 2},
            "x1": [1.0, 2.0], "planted_solution": None,
        }
        path = outdir / "skew.json"
        path.write_text(json.dumps(data))
        assert run_cli("solve", "--problem", path, "--algorithm", algorithm) == 4
        assert "resolvent" in capsys.readouterr().err

    def test_unplanted_trace_has_nan_distance(self, outdir):
        path = outdir / "anon.json"
        data = problem_to_dict(sp.generate_planted(2, 2, seed=9))
        data["planted_solution"] = None
        path.write_text(json.dumps(data))
        trace = outdir / "anon.csv"
        assert run_cli("solve", "--problem", path, "--trace", trace, "--report", outdir / "anon-r.json") == 0
        last = trace.read_text().splitlines()[-1]
        assert last.endswith("nan")


class TestDeterminism:
    def test_identical_requests_give_byte_identical_traces(self, outdir):
        path = generate(outdir, seed=11, n=3, m=3)
        t1, t2 = outdir / "a.csv", outdir / "b.csv"
        for t in (t1, t2):
            assert run_cli(
                "solve", "--problem", path, "--trace", t, "--report", outdir / f"{t.stem}.json"
            ) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_sep_algorithms_match_explicit_identity_maps(self, outdir):
        seed_path = generate(outdir, seed=12, n=3, m=2)
        problem = sp.load(seed_path)
        identity_path = outdir / "identity.json"
        sp.save(problem.with_identity_maps(), identity_path)
        for sep_algo, plain_algo in (("sep-weak", "weak"), ("sep-strong", "strong")):
            sep_trace = outdir / f"{sep_algo}.csv"
            plain_trace = outdir / f"{plain_algo}.csv"
            assert run_cli(
                "solve", "--problem", seed_path, "--algorithm", sep_algo,
                "--trace", sep_trace, "--report", outdir / f"{sep_algo}.json",
            ) == 0
            assert run_cli(
                "solve", "--problem", identity_path, "--algorithm", plain_algo,
                "--trace", plain_trace, "--report", outdir / f"{plain_algo}.json",
            ) == 0
            assert sep_trace.read_bytes() == plain_trace.read_bytes()


class TestVerify:
    def test_clean_problem_passes(self, outdir, capsys):
        path = generate(outdir, seed=13, n=3, m=3)
        assert run_cli("verify", "--problem", path) == 0
        assert "passed" in capsys.readouterr().out

    def test_broken_certificate_fails(self, outdir, capsys):
        path = outdir / "broken.json"
        data = problem_to_dict(sp.generate_planted(2, 2, seed=14))
        data["planted_solution"] = [30.0, 30.0]
        path.write_text(json.dumps(data))
        assert run_cli("verify", "--problem", path) == 2
        assert "failed" in capsys.readouterr().err


class TestBench:
    def test_summary_table(self, outdir, capsys):
        assert run_cli("bench", "--seeds", "1..3", "--n", 2, "--m", 2) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert "seed" in lines[0] and "dist_xstar" in lines[0]
        assert len(lines) == 4  # header + 3 seeds
        assert all("Converged" in row for row in lines[1:])

    def test_comma_separated_seeds(self, outdir, capsys):
        assert run_cli("bench", "--seeds", "2,4", "--n", 2, "--m", 2) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


class TestUnsafeMu:
    def test_unsafe_flag_bypasses_validation(self, outdir):
        path = generate(outdir, seed=15, n=2, m=2)
        code = run_cli(
            "solve", "--problem", path, "--unsafe-mu", 2.0,
            "--trace", outdir / "u.csv", "--report", outdir / "u.json",
        )
        assert code in (0, 4)
        payload = json.loads((outdir / "u.json").read_text())
        assert payload["mu"] > 0

    def test_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        assert "unsafe" not in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "splitep", "generate", "--seed", "1", "--n", "2", "--m", "2",
         "-o", str(tmp_path / "p.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "p.json").exists()
