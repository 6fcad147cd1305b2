"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 1-4 and 9 share the ten planted instances defined in
``conftest.py`` (seeds 1..10 with dimensions cycling through {2, 5, 10, 20}).
"""

import numpy as np
import pytest

import splitep as sp
from oracles import grid_resolvent, random_two_halfspaces, two_halfspace_projection_oracle
from splitep.cli import main as cli_main
from splitep.equilibrium import AffineVIBifunction, resolvent
from splitep.sets import Ball, Box, Halfspace, WholeSpace, project_intersection
from splitep.solver import SolveStatus, default_config, fejer_audit, weak_solve


def report_line(number, description, ok):
    print(f"\nACCEPTANCE criterion {number} ({description}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_planted_weak_convergence(weak_runs):
    runs, elapsed = weak_runs
    ok = True
    for seed, problem, report in runs:
        distance = np.linalg.norm(report.final_x - problem.planted_solution)
        ok &= report.status is SolveStatus.CONVERGED
        ok &= report.iterations <= 50_000
        ok &= report.final_residual <= 1e-6
        ok &= distance <= 1e-4
    ok &= elapsed <= 60.0
    print(f"\n  10 weak runs: {elapsed:.1f}s total")
    assert report_line(1, "planted weak convergence", ok)


def test_criterion_2_planted_strong_convergence(strong_runs):
    ok = True
    for seed, problem, report in strong_runs:
        x_star = problem.planted_solution
        distance = np.linalg.norm(report.final_x - x_star)
        cut_violation = max(cut.membership_violation(x_star) for cut in report.cuts)
        anchor = [np.linalg.norm(r.x - problem.x1) for r in report.history]
        min_increment = float(np.min(np.diff(anchor))) if len(anchor) > 1 else 0.0
        ok &= report.status is SolveStatus.CONVERGED
        ok &= distance <= 1e-4
        ok &= cut_violation <= 1e-8
        ok &= min_increment >= -1e-10
    assert report_line(2, "planted strong convergence", ok)


def test_criterion_3_distance_chain_audit(weak_runs):
    runs, _ = weak_runs
    worst = max(
        fejer_audit(report.history, problem.planted_solution) for _, problem, report in runs
    )
    ok = worst <= 1e-8
    print(f"\n  worst audit over 10 runs: {worst:.3e}")
    assert report_line(3, "per-iteration distance chain", ok)


def test_criterion_4_proximal_decrease_inequality(weak_runs):
    runs, _ = weak_runs
    worst_slack = 0.0
    for _, problem, report in runs:
        x_star = problem.planted_solution
        c1, c2 = problem.f.c1, problem.f.c2
        for record in report.history:
            lam = record.lambda_k
            slack = (
                np.linalg.norm(record.x - x_star) ** 2
                - (1.0 - 2.0 * lam * c1) * np.linalg.norm(record.x - record.y) ** 2
                - (1.0 - 2.0 * lam * c2) * np.linalg.norm(record.y - record.z) ** 2
                - np.linalg.norm(record.z - x_star) ** 2
            )
            worst_slack = min(worst_slack, slack)
    ok = worst_slack >= -1e-8
    print(f"\n  worst slack: {worst_slack:.3e}")
    assert report_line(4, "proximal decrease inequality", ok)


def test_criterion_5_resolvent_properties():
    rng = np.random.default_rng(100)
    worst_firm = 0.0
    worst_two_parameter = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        center = rng.uniform(-2.0, 2.0, dim)
        box = Box(center - rng.uniform(1.0, 3.0, dim), center + rng.uniform(1.0, 3.0, dim))
        B = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        g = AffineVIBifunction.with_default_constants(B.T @ B, rng.standard_normal(dim))
        for _ in range(50):
            u = center + 3.0 * rng.standard_normal(dim)
            v = center + 3.0 * rng.standard_normal(dim)
            alpha = rng.uniform(0.5, 3.0)
            beta = rng.uniform(0.5, 3.0)
            Ta_u = resolvent(g, box, alpha, u)
            Ta_v = resolvent(g, box, alpha, v)
            Tb_v = resolvent(g, box, beta, v)
            firm = np.linalg.norm(Ta_u - Ta_v) ** 2 - float((Ta_u - Ta_v) @ (u - v))
            worst_firm = max(worst_firm, firm)
            two_parameter = np.linalg.norm(Ta_u - Tb_v) - (
                np.linalg.norm(v - u) + abs(beta - alpha) / beta * np.linalg.norm(Tb_v - v)
            )
            worst_two_parameter = max(worst_two_parameter, two_parameter)

    worst_oracle_gap = 0.0
    grid_points = 2001
    for _ in range(50):
        lo = rng.uniform(-3.0, -0.5)
        hi = rng.uniform(0.5, 3.0)
        box = Box([lo], [hi])
        g = AffineVIBifunction.with_default_constants(
            np.array([[rng.uniform(0.0, 2.0)]]), rng.standard_normal(1)
        )
        alpha = rng.uniform(0.5, 3.0)
        u = rng.uniform(lo - 2.0, hi + 2.0, 1)
        w = resolvent(g, box, alpha, u, tol=1e-12)
        oracle = grid_resolvent(g, box, alpha, u, grid_points=grid_points)
        spacing = (hi - lo) / (grid_points - 1)
        worst_oracle_gap = max(worst_oracle_gap, abs(float(w[0] - oracle[0])) / spacing)

    ok = worst_firm <= 1e-6 and worst_two_parameter <= 1e-6 and worst_oracle_gap <= 1.0
    print(
        f"\n  firm violation {worst_firm:.3e}, two-parameter violation "
        f"{worst_two_parameter:.3e}, oracle gap {worst_oracle_gap:.2f} grid cells"
    )
    assert report_line(5, "resolvent properties", ok)


def test_criterion_6_projection_properties():
    rng = np.random.default_rng(200)
    sets = [
        Box(rng.uniform(-3, 0, 4), rng.uniform(0.5, 3, 4)),
        Ball(rng.standard_normal(4), rng.uniform(0.5, 2.0)),
        Halfspace(rng.standard_normal(4), rng.uniform(-1, 1)),
        WholeSpace(4),
    ]
    worst = 0.0
    for s in sets:
        for _ in range(100):
            x = 4.0 * rng.standard_normal(4)
            y = 4.0 * rng.standard_normal(4)
            px, py = s.project(x), s.project(y)
            member = s.project(4.0 * rng.standard_normal(4))
            characterization = float((x - px) @ (member - px))
            firm = np.linalg.norm(px - py) ** 2 - float((px - py) @ (x - y))
            decomposition = (
                np.linalg.norm(px - py) ** 2
                - np.linalg.norm(x - y) ** 2
                + np.linalg.norm(x - px - y + py) ** 2
            )
            worst = max(worst, characterization, firm, decomposition)

    worst_gap = 0.0
    for _ in range(100):
        h1, h2 = random_two_halfspaces(rng)
        x = 3.0 * rng.standard_normal(3)
        got = project_intersection([h1, h2], x)
        expected = two_halfspace_projection_oracle(h1.normal, h1.offset, h2.normal, h2.offset, x)
        worst_gap = max(worst_gap, float(np.linalg.norm(got - expected)))

    ok = worst <= 1e-10 and worst_gap <= 1e-6
    print(f"\n  worst projection-property violation {worst:.3e}, worst sweep-vs-oracle gap {worst_gap:.3e}")
    assert report_line(6, "projection properties", ok)


def test_criterion_7_reduced_problem_equivalence(tmp_path):
    problem = sp.generate_planted(3, 2, seed=12)
    seed_path = tmp_path / "problem.json"
    identity_path = tmp_path / "identity.json"
    sp.save(problem, seed_path)
    sp.save(problem.with_identity_maps(), identity_path)
    ok = True
    for sep_algorithm, plain_algorithm in (("sep-weak", "weak"), ("sep-strong", "strong")):
        sep_trace = tmp_path / f"{sep_algorithm}.csv"
        plain_trace = tmp_path / f"{plain_algorithm}.csv"
        code_sep = cli_main(
            ["solve", "--problem", str(seed_path), "--algorithm", sep_algorithm,
             "--trace", str(sep_trace), "--report", str(tmp_path / f"{sep_algorithm}.json")]
        )
        code_plain = cli_main(
            ["solve", "--problem", str(identity_path), "--algorithm", plain_algorithm,
             "--trace", str(plain_trace), "--report", str(tmp_path / f"{plain_algorithm}.json")]
        )
        ok &= code_sep == 0 and code_plain == 0
        ok &= sep_trace.read_bytes() == plain_trace.read_bytes()
    assert report_line(7, "reduced-problem trace equivalence", ok)


def test_criterion_8_negative_controls():
    # With the dual step forced to 2/U (validation bypassed), each seed must
    # either fail to converge within the budget or show a positive audit.
    ok = True
    for seed, n, m in [(1, 2, 2), (2, 2, 5), (3, 5, 2)]:
        problem = sp.generate_planted(n, m, seed=seed)
        config = default_config(problem, mu_fraction=2.0, validate_mu=False)
        report = weak_solve(problem, config)
        audit = fejer_audit(report.history, problem.planted_solution)
        nonconverged = report.status is not SolveStatus.CONVERGED
        print(
            f"\n  seed {seed}: status={report.status.value}, iterations={report.iterations}, "
            f"audit={audit:.3e}"
        )
        ok &= nonconverged or audit > 0.0
    assert report_line(8, "negative controls at mu = 2/U", ok)


def test_criterion_9_determinism(tmp_path):
    from conftest import ACCEPTANCE_CASES
    from splitep.cli import write_trace

    ok = True
    for seed, n, m in ACCEPTANCE_CASES:
        traces = []
        for run in range(2):
            problem = sp.generate_planted(n, m, seed=seed)
            report = weak_solve(problem)
            path = tmp_path / f"trace-{seed}-{run}.csv"
            write_trace(report, problem, path)
            traces.append(path.read_bytes())
        ok &= traces[0] == traces[1]
    assert report_line(9, "byte-identical re-runs", ok)


def test_criterion_9_strong_determinism(tmp_path):
    # two passes over the grid, so another instance is solved between the two
    # runs of each one: nothing a solve carries may leak into the next
    from conftest import ACCEPTANCE_CASES
    from splitep.cli import write_trace

    traces = {}
    for run in range(2):
        for seed, n, m in ACCEPTANCE_CASES:
            problem = sp.generate_planted(n, m, seed=seed)
            report = sp.strong_solve(problem, default_config(problem, mode="strong", max_iter=300))
            path = tmp_path / f"trace-{seed}-{run}.csv"
            write_trace(report, problem, path)
            traces.setdefault(seed, []).append(path.read_bytes())
    ok = all(first == second for first, second in traces.values())
    assert report_line(9, "byte-identical strong re-runs", ok)
