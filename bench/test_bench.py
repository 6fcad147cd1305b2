"""Tests of the benchmark itself: span arithmetic, the gate and the output format.

Run from the repository root with ``python3 -m pytest bench``.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import splitep.solver  # noqa: E402
from workloads import SMOKE_WORKLOADS, build  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent, note=None):
    return [name, start, end, parent, note]


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),  # overlaps a: [3, 4] must count once
        span("c", 8.0, 12.0, 0),  # ends after its parent: clipped at 10
        span("a.child", 2.0, 3.0, 1),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_tracer_records_parents_and_self_time():
    tracer = spans.Tracer(clock=itertools.count().__next__)
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    with tracer.span("root"):
        assert outer(1) == 4
    recorded = tracer.take()
    assert [(s[spans.NAME], s[spans.PARENT]) for s in recorded] == [("root", -1), ("outer", 0), ("inner", 1)]
    assert spans.self_times(recorded) == [2, 2, 1]
    assert tracer.spans == []


def test_summarize_counts_resolvent_inner_iterations():
    tree = [
        span(spans.ROOT_SPAN, 0.0, 10.0, -1),
        span(spans.RESOLVENT_SPAN, 1.0, 5.0, 0),
        span(spans.Q_PROJECT_SPAN, 1.0, 2.0, 1),
        span(spans.Q_PROJECT_SPAN, 2.0, 3.0, 1),
        span(spans.Q_PROJECT_SPAN, 3.0, 4.0, 1),
        span(spans.Q_PROJECT_SPAN, 6.0, 7.0, 0),  # outside the resolvent
        span(spans.POLYHEDRON_SPAN, 7.0, 9.0, 0, (12, 3)),
    ]
    summary = spans.summarize(tree)
    assert summary["resolvent_inner"] == 3 - 1
    assert summary["polyhedron_rows"] == [12]
    assert summary["polyhedron_active"] == [3]
    assert summary["layers"][spans.RESOLVENT_SPAN] == {"s": 4.0, "self_s": 1.0, "calls": 1}


def test_traced_solve_matches_untraced_and_restores_every_wrapper():
    workload = SMOKE_WORKLOADS["strong-grid"]
    originals = {name: getattr(splitep.solver, name) for name in spans.SOLVER_LOOKUPS}
    instance = build(workload, seed=0)[0]
    plain = measure.solve_once(workload, instance)
    traced = measure.solve_once(workload, instance, spans.Tracer())
    assert traced.steps == plain.steps
    assert np.array_equal(traced.final_x, plain.final_x)
    assert traced.trace["layers"][spans.POLYHEDRON_SPAN]["calls"] == plain.steps
    assert {name: getattr(splitep.solver, name) for name in originals} == originals
    assert "project" not in vars(instance.problem.Q)


def report(status, iterations, final_x, cuts=(), history=()):
    return SimpleNamespace(status=status, iterations=iterations, final_x=np.asarray(final_x), cuts=list(cuts), history=list(history), message="")


@pytest.mark.parametrize(
    "workload, status, iterations, final_x, expected",
    [
        ("weak-grid", "Converged", 10, [0.0, 0.0], None),
        ("weak-grid", "Converged", 10, [1e-3, 0.0], "away from the planted solution"),
        ("weak-grid", "MaxIterReached", 50_000, [0.0, 0.0], "ended MaxIterReached"),
        ("weak-grid", "InnerFailure", 3, [0.0, 0.0], "InnerFailure"),
        ("strong-grid", "MaxIterReached", 20, [0.5, 0.5], None),
        ("strong-grid", "MaxIterReached", 19, [0.5, 0.5], "ended MaxIterReached"),
    ],
)
def test_gate(workload, status, iterations, final_x, expected):
    instance = SimpleNamespace(problem=SimpleNamespace(planted_solution=np.zeros(2), x1=np.ones(2)))
    outcome = report(splitep.solver.SolveStatus(status), iterations, final_x)
    reason = measure.failure_of(SMOKE_WORKLOADS[workload], instance, outcome)
    assert reason is None if expected is None else expected in reason


def test_gate_checks_cuts_and_anchor_distance_on_strong_runs():
    instance = SimpleNamespace(problem=SimpleNamespace(planted_solution=np.zeros(2), x1=np.zeros(2)))
    strong = SMOKE_WORKLOADS["strong-grid"]
    converged = splitep.solver.SolveStatus.CONVERGED
    cut = splitep.Halfspace([1.0, 0.0], -1.0)  # excludes the planted solution
    assert "violates a cut" in measure.failure_of(strong, instance, report(converged, 2, [0.0, 0.0], cuts=[cut]))
    walk = [SimpleNamespace(x=np.array([d, 0.0])) for d in (0.0, 2.0, 1.0)]
    assert "anchor" in measure.failure_of(strong, instance, report(converged, 2, [0.0, 0.0], history=walk))


def test_tail_is_the_sample_with_ten_above_it():
    assert measure.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert measure.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)
    assert measure.tail([float(i) for i in range(20)]) == (50.0, 9.5)


def test_scale_uses_the_mean_kernel_time_around_the_solve():
    assert reference.scale(0.02, 0.03) == pytest.approx(reference.NOMINAL_S / 0.025)


def test_every_solve_of_a_pass_is_scaled():
    workload = SMOKE_WORKLOADS["weak-grid"]
    solves = measure.run_pass(workload, build(workload, seed=0))
    assert all(solve.scale > 0 and solve.scaled_s == solve.seconds * solve.scale for solve in solves)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for metric in expected:
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"]) for line in lines)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "weak-grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
