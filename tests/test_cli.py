import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splitep as sp
from splitep.cli import TRACE_HEADER, main
from splitep.problems import problem_to_dict
from splitep.sets import Ball, ProjectionOnto

from oracles import box_fixed_point_problem, tangential_ball_problem


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

    @pytest.mark.parametrize("tangential", [False, True], ids=["ball", "tangential-ball"])
    def test_strong_solve_with_ball_constraint(self, outdir, tangential):
        # a ball has no inequality rows, so the projection adds its supporting
        # halfspaces to the cut rows; on the tangential ball alternating
        # projections between the rows and C once ran out of sweeps (exit 4)
        if tangential:
            problem = tangential_ball_problem()
        else:
            problem = dataclasses.replace(sp.generate_planted(2, 2, seed=34), C=Ball([0.0, 0.0], 8.0))
        path = outdir / "ball.json"
        path.write_text(json.dumps(problem_to_dict(problem)))
        report = outdir / "ball-report.json"
        code = run_cli("solve", "--problem", path, "--algorithm", "strong", "--report", report)
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["status"] == "Converged"
        assert payload["distance_to_planted"] <= 1e-5

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
        err = capsys.readouterr().err
        assert "LambdaOutOfRange" in err and "lambda_schedule(0) = 50.0" in err
        assert run_cli("solve", "--problem", path, "--alpha-k", 0) == 2
        assert "AlphaKNotPositive: alpha_k_schedule(0) = 0.0" in capsys.readouterr().err

    def test_missing_problem_file(self, outdir, capsys):
        assert run_cli("solve", "--problem", outdir / "nope.json") == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_problem_path_that_is_a_directory(self, outdir, capsys, command):
        # IsADirectoryError once ended the run with a traceback and exit code 1
        assert run_cli(command, "--problem", outdir) == 3
        assert "error" in capsys.readouterr().err

    def test_unreadable_problem_file(self, outdir, capsys, monkeypatch):
        # a file the user may not read, whose permission bits root would ignore
        def refused(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("splitep.cli.load", refused)
        assert run_cli("solve", "--problem", generate(outdir)) == 3
        assert "Permission denied" in capsys.readouterr().err

    def test_problem_file_that_is_not_utf8(self, outdir, capsys):
        # the UnicodeDecodeError, a ValueError, once exited 2 as a validation error
        path = outdir / "latin1.json"
        path.write_bytes('{"C": "café"}'.encode("latin-1"))
        assert run_cli("solve", "--problem", path) == 3
        assert "cannot parse problem file: byte 10: the file is not UTF-8 text" in capsys.readouterr().err

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

    def test_non_finite_constant_in_file(self, outdir, capsys):
        path = outdir / "nan_c1.json"
        data = problem_to_dict(sp.generate_planted(2, 2, seed=1))
        data["f"]["c1"] = float("nan")
        path.write_text(json.dumps(data))
        assert run_cli("solve", "--problem", path) == 3
        assert "f: Lipschitz-type constants" in capsys.readouterr().err

    def test_bifunction_of_the_wrong_dimension_in_file(self, outdir, capsys):
        path = outdir / "wide_g.json"
        data = problem_to_dict(sp.generate_planted(3, 2, seed=1))
        data["g"].update(M=np.eye(5).tolist(), q=[0.0] * 5)
        path.write_text(json.dumps(data))
        assert run_cli("solve", "--problem", path) == 3
        assert "bifunctions must act on their own spaces" in capsys.readouterr().err

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
        # g is declared monotone but M = -2I is not, and on a halfspace Q its
        # resolvent iteration blows up
        skew = {
            "type": "vi_affine", "M": [[0.0, 10.0], [-10.0, 0.0]], "q": [0.0, 0.0],
            "c1": 5.0, "c2": 5.0, "monotonicity": "monotone",
        }
        expanding = {
            "type": "vi_affine", "M": [[-2.0, 0.0], [0.0, -2.0]], "q": [0.0, 0.0],
            "c1": 1.0, "c2": 1.0, "monotonicity": "monotone",
        }
        data = {
            "C": {"type": "whole", "dim": 2},
            "Q": {"type": "halfspace", "normal": [1.0, 0.0], "offset": 100.0},
            "A": [[1.0, 0.0], [0.0, 1.0]], "f": skew, "g": expanding,
            "S": {"type": "identity", "dim": 2}, "T": {"type": "identity", "dim": 2},
            "x1": [1.0, 2.0], "planted_solution": None,
        }
        path = outdir / "skew.json"
        path.write_text(json.dumps(data))
        assert run_cli("solve", "--problem", path, "--algorithm", algorithm) == 4
        assert "resolvent" in capsys.readouterr().err

    def test_empty_shrinking_set_exit_code(self, outdir, capsys):
        # the fixed points of S miss C, so the cuts and C have no common point
        planted = sp.generate_planted(2, 2, seed=1)
        problem = dataclasses.replace(planted, S=ProjectionOnto(Ball([20.0, 20.0], 1.0)))
        path = outdir / "empty.json"
        path.write_text(json.dumps(problem_to_dict(problem)))
        report, trace = outdir / "empty-report.json", outdir / "empty-trace.csv"
        code = run_cli(
            "solve", "--problem", path, "--algorithm", "strong", "--report", report, "--trace", trace
        )
        assert code == 4
        assert "shrinking set is empty" in capsys.readouterr().err
        assert json.loads(report.read_text())["status"] == "InnerFailure"
        assert trace.read_text().startswith(TRACE_HEADER)

    def test_stalled_strong_run_exit_code(self, outdir, capsys):
        # at tol 1e-10 the shrinking-set projection halts the iterate short of
        # the tolerance, and every later step would repeat the last
        problem, _ = box_fixed_point_problem(5, 3, 1)
        path = outdir / "stall.json"
        sp.save(problem, path)
        report = outdir / "stall-report.json"
        code = run_cli(
            "solve", "--problem", path, "--algorithm", "strong", "--tol", 1e-10, "--max-iter", 50_000,
            "--report", report, "--trace", outdir / "stall.csv",
        )
        assert code == 4
        assert "1e-12 (1 + ||x1||)" in capsys.readouterr().err
        assert json.loads(report.read_text())["status"] == "InnerFailure"

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

    @pytest.mark.parametrize("planted", [True, False])
    @pytest.mark.parametrize("samples", [-3, 0])
    def test_no_samples_is_a_validation_error(self, outdir, capsys, planted, samples):
        # with no sample the probes checked nothing, yet the run once passed
        path = generate(outdir, seed=13, n=3, m=3)
        if not planted:
            data = json.loads(path.read_text())
            data["planted_solution"] = None
            path.write_text(json.dumps(data))
        assert run_cli("verify", "--problem", path, "--samples", samples) == 2
        captured = capsys.readouterr()
        assert f"samples must be at least 1, got {samples}" in captured.err
        assert "passed" not in captured.out


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

    @pytest.mark.parametrize("seeds", ["x", "5..1"])
    def test_seeds_naming_no_seed_are_a_usage_error(self, outdir, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--seeds", seeds)
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_sep_algorithm_solves_identity_maps(self, outdir, capsys):
        assert run_cli("bench", "--seeds", "1,2", "--n", 2, "--m", 3,
                       "--algorithm", "sep-strong", "--max-iter", 50) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        for seed, row in zip((1, 2), rows):
            problem = sp.generate_planted(2, 3, seed).with_identity_maps()
            report = sp.strong_solve(problem, sp.default_config(problem, mode="strong", max_iter=50))
            dist = np.linalg.norm(report.final_x - problem.planted_solution)
            assert row.split()[2:5] == [
                str(report.iterations), f"{report.final_residual:.3e}", f"{dist:.3e}"
            ]

    def test_wall_time_column(self, outdir, capsys):
        assert run_cli("bench", "--seeds", "1,2", "--n", 2, "--m", 2) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split()[-1] == "wall_s"
        assert len(rows) == 2
        assert all(float(row.split()[-1]) > 0.0 for row in rows)


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
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "splitep", "generate", "--seed", "1", "--n", "2", "--m", "2",
         "-o", str(tmp_path / "p.json")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "p.json").exists()
