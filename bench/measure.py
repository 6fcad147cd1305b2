"""Measurement loop, correctness gate and metrics of the benchmark.

Times are in scaled seconds: each solve is paired with the reference kernel
of ``reference.py``, which takes out the host's drift in speed.

``run.py`` imports this module only after it has set the BLAS thread count,
because importing numpy fixes the thread pool.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
import spans
import splitep as sp
from splitep.solver import SolveStatus
from workloads import SMOKE_WORKLOADS, WORKLOADS, Workload, build

BENCH_DIR = Path(__file__).resolve().parent

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

# Untraced runs make at least this many passes. strong-grid's pass takes
# about 12 s, and a run that stopped after two or three would switch
# solve_s_tail between the median of 20 solves and the 20th of 30.
MIN_PASSES = 3

# solve_s_tail is the sample with exactly TAIL_BEYOND samples above it: the
# highest percentile that still has that many beyond it.
TAIL_BEYOND = 10

# Correctness gate, as in acceptance criteria 1 and 2.
DISTANCE_TOL = 1e-4
CUT_TOL = 1e-8
ANCHOR_TOL = 1e-10

SOLVERS = {"weak": sp.weak_solve, "strong": sp.strong_solve}

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("iters_per_s", "1/s"),
    ("solve_s_p50", "s"),
    ("solve_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)

# Per pass unless noted. The two strong-only layer times are shares of the
# traced solve time: in seconds they would read exactly 0 on every run of
# the weak workloads, which never call them.
PER_LAYER = (
    ("solver.outer_iters", "count"),
    ("solver.step_ms_p50", "ms"),
    ("solver.step_ms_p99", "ms"),
    ("solver.self_s", "s"),
    ("solver.validate_s", "s"),
    ("solver.cuts", "count"),
    ("equilibrium.resolvent.s", "s"),
    ("equilibrium.resolvent.self_s", "s"),
    ("equilibrium.resolvent.calls", "count"),
    ("equilibrium.resolvent.inner_iters", "count"),
    ("equilibrium.prox_step.s", "s"),
    ("equilibrium.prox_step.calls", "count"),
    ("sets.project_polyhedron.pct", "%"),
    ("sets.project_polyhedron.calls", "count"),
    ("sets.project_polyhedron.rows_mean", "count"),
    ("sets.project_polyhedron.rows_max", "count"),
    ("sets.project_polyhedron.active_mean", "count"),
    ("sets.project_intersection.calls", "count"),
    ("sets.halfspace_dominates.pct", "%"),
    ("sets.Q.project.s", "s"),
    ("sets.Q.project.calls", "count"),
    ("sets.C.project.s", "s"),
    ("sets.S.apply.s", "s"),
    ("sets.T.apply.s", "s"),
    ("linalg.as_vector.s", "s"),
    ("linalg.as_vector.calls", "count"),
    ("linalg.A.apply.s", "s"),
    ("linalg.A.adjoint_apply.s", "s"),
    ("linalg.operator_norm_sq_upper.s", "s"),
    ("linalg.operator_norm_sq_upper.calls", "count"),
    ("problems.generate_planted.s", "s"),  # one set-up, not per pass
    ("trace.overhead_frac", "frac"),  # traced pass_s / untraced pass_s - 1
)


@dataclass
class Solve:
    """One timed solve, reduced to what the gate and the metrics need."""

    case: tuple
    seconds: float
    steps: int
    status: str
    cuts: int
    final_x: np.ndarray
    failure: str | None
    trace: dict | None = None
    scale: float = 1.0  # from raw to scaled seconds; see reference.py

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


def failure_of(workload: Workload, instance, report) -> str | None:
    """Why a solve counts as failed, or None when it passes the gate."""
    if report.status is SolveStatus.INNER_FAILURE:
        return f"InnerFailure: {report.message}"
    if report.status is SolveStatus.MAX_ITER_REACHED:
        if workload.budget is None or report.iterations != workload.budget:
            return f"ended {report.status.value} after {report.iterations} iterations"
    x_star = instance.problem.planted_solution
    if report.status is SolveStatus.CONVERGED:
        distance = float(np.linalg.norm(report.final_x - x_star))
        if distance > DISTANCE_TOL:
            return f"converged {distance:.3e} away from the planted solution"
    if workload.mode == "strong":
        violation = max((cut.membership_violation(x_star) for cut in report.cuts), default=0.0)
        if violation > CUT_TOL:
            return f"planted solution violates a cut by {violation:.3e}"
        anchor = [np.linalg.norm(r.x - instance.problem.x1) for r in report.history]
        if len(anchor) > 1 and float(np.min(np.diff(anchor))) < -ANCHOR_TOL:
            return "distance from the anchor decreased"
    return None


def solve_once(workload: Workload, instance, tracer: spans.Tracer | None = None) -> Solve:
    """Time one solve; the gate runs after the clock stops."""
    solve = SOLVERS[workload.mode]
    summary = None
    if tracer is None:
        started = time.perf_counter()
        report = solve(instance.problem, instance.config)
        seconds = time.perf_counter() - started
    else:
        with spans.installed(tracer, instance.problem):
            started = time.perf_counter()
            with tracer.span(spans.ROOT_SPAN):
                report = solve(instance.problem, instance.config)
            seconds = time.perf_counter() - started
        summary = spans.summarize(tracer.take())
    return Solve(
        case=instance.case,
        seconds=seconds,
        steps=len(report.history),
        status=report.status.value,
        cuts=len(report.cuts),
        final_x=report.final_x,
        failure=failure_of(workload, instance, report),
        trace=summary,
    )


def run_pass(workload: Workload, instances, tracer=None) -> list[Solve]:
    """Solve each instance once, timing the reference kernel before and after each solve."""
    solves, kernel = [], [reference.kernel_s()]
    for instance in instances:
        solves.append(solve_once(workload, instance, tracer))
        kernel.append(reference.kernel_s())
    for solve, before, after in zip(solves, kernel, kernel[1:]):
        solve.scale = reference.scale(before, after)
    return solves


def measure(workload: Workload, instances, seconds: float, traced: bool):
    """Run whole passes while one more would likely end less than half a pass after ``seconds``.

    The window so ends within about half a pass of ``seconds`` on either side.

    With ``traced`` each untraced pass is followed by a traced one, so both
    see the same machine conditions, and at least one pair runs; untraced
    runs make at least MIN_PASSES passes.
    """
    min_passes = 1 if traced else MIN_PASSES
    gc.collect()
    untraced, traced_passes = [], []
    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        untraced.append(run_pass(workload, instances))
        if traced:
            traced_passes.append(run_pass(workload, instances, spans.Tracer()))
        now = time.perf_counter()
        if len(untraced) >= min_passes and now - started + (now - cycle_start) / 2 > seconds:
            return untraced, traced_passes


def mark_irreproducible(first: list[Solve], passes: list[list[Solve]], what: str) -> None:
    """Fail every solve whose iterations or final point differ from the ``first`` pass."""
    for solves in passes:
        for solve, ref in zip(solves, first):
            if solve.failure is None and (
                solve.steps != ref.steps or not np.array_equal(solve.final_x, ref.final_x)
            ):
                solve.failure = f"{what} differs from the first untraced solve"


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the sample with TAIL_BEYOND samples above it.

    With ``2 * TAIL_BEYOND`` samples or fewer that sample would lie at or
    below the median, and the median is returned instead.
    """
    ordered = sorted(times)
    count = len(ordered)
    if count <= 2 * TAIL_BEYOND:
        return 50.0, float(np.percentile(ordered, 50))
    return 100.0 * (count - TAIL_BEYOND) / count, ordered[count - TAIL_BEYOND - 1]


def pass_seconds(solves: list[Solve]) -> float:
    return sum(solve.scaled_s for solve in solves)


def end_to_end(passes: list[list[Solve]], setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes in scaled seconds, and how the tail was taken."""
    solves = [solve for solves in passes for solve in solves]
    times = [solve.scaled_s for solve in solves]
    tail_pct, tail_s = tail(times)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "pass_s": statistics.median(pass_seconds(p) for p in passes),
        "iters_per_s": sum(solve.steps for solve in solves) / sum(times),
        "solve_s_p50": float(np.percentile(times, 50)),
        "solve_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_info = {
        "percentile": tail_pct,
        "samples": len(times),
        "beyond": sum(t > tail_s for t in times),
    }
    return metrics, tail_info


def layer_values(solves: list[Solve]) -> dict:
    """Per-layer metrics of one traced pass."""
    totals: dict[str, dict] = {}
    step_s, rows, active = [], [], []
    inner = 0
    for solve in solves:
        for name, entry in solve.trace["layers"].items():
            total = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in total:
                total[key] += entry[key]
        step_s += solve.trace["step_s"]
        rows += solve.trace["polyhedron_rows"]
        active += solve.trace["polyhedron_active"]
        inner += solve.trace["resolvent_inner"]

    def get(name, key):
        return totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})[key]

    solve_s = get(spans.ROOT_SPAN, "s")
    return {
        "solver.outer_iters": len(step_s),
        "solver.step_ms_p50": 1e3 * float(np.percentile(step_s, 50)),
        "solver.step_ms_p99": 1e3 * float(np.percentile(step_s, 99)),
        "solver.self_s": sum(get(name, "self_s") for name in (spans.ROOT_SPAN, *spans.STEP_SPANS)),
        "solver.validate_s": get("solver.validate", "s"),
        "solver.cuts": sum(solve.cuts for solve in solves),
        "equilibrium.resolvent.s": get(spans.RESOLVENT_SPAN, "s"),
        "equilibrium.resolvent.self_s": get(spans.RESOLVENT_SPAN, "self_s"),
        "equilibrium.resolvent.calls": get(spans.RESOLVENT_SPAN, "calls"),
        "equilibrium.resolvent.inner_iters": inner,
        "equilibrium.prox_step.s": get("equilibrium.prox_step", "s"),
        "equilibrium.prox_step.calls": get("equilibrium.prox_step", "calls"),
        "sets.project_polyhedron.pct": 100.0 * get(spans.POLYHEDRON_SPAN, "s") / solve_s,
        "sets.project_polyhedron.calls": get(spans.POLYHEDRON_SPAN, "calls"),
        "sets.project_polyhedron.rows_mean": float(np.mean(rows)) if rows else 0.0,
        "sets.project_polyhedron.rows_max": max(rows, default=0),
        "sets.project_polyhedron.active_mean": float(np.mean(active)) if active else 0.0,
        "sets.project_intersection.calls": get("sets.project_intersection", "calls"),
        "sets.halfspace_dominates.pct": 100.0 * get("sets.halfspace_dominates", "s") / solve_s,
        "sets.Q.project.s": get(spans.Q_PROJECT_SPAN, "s"),
        "sets.Q.project.calls": get(spans.Q_PROJECT_SPAN, "calls"),
        "sets.C.project.s": get("sets.C.project", "s"),
        "sets.S.apply.s": get("sets.S.apply", "s"),
        "sets.T.apply.s": get("sets.T.apply", "s"),
        "linalg.as_vector.s": get("linalg.as_vector", "s"),
        "linalg.as_vector.calls": get("linalg.as_vector", "calls"),
        "linalg.A.apply.s": get("linalg.A.apply", "s"),
        "linalg.A.adjoint_apply.s": get("linalg.A.adjoint_apply", "s"),
        "linalg.operator_norm_sq_upper.s": get("linalg.operator_norm_sq_upper", "s"),
        "linalg.operator_norm_sq_upper.calls": get("linalg.operator_norm_sq_upper", "calls"),
    }


def per_layer(traced: list[list[Solve]], untraced: list[list[Solve]], generate_s: float) -> dict:
    """Medians over the traced passes; counts repeat exactly from pass to pass."""
    values = [layer_values(solves) for solves in traced]
    metrics = {name: statistics.median(v[name] for v in values) for name in values[0]}
    metrics["problems.generate_planted.s"] = generate_s
    metrics["trace.overhead_frac"] = (
        statistics.median(pass_seconds(p) for p in traced)
        / statistics.median(pass_seconds(p) for p in untraced)
        - 1.0
    )
    return metrics


def instance_counts(untraced: list[Solve], traced: list[Solve] | None) -> list[dict]:
    """Exact per-instance counts; they repeat from run to run for one seed."""
    rows = []
    for index, solve in sorted(enumerate(untraced), key=lambda item: item[1].case):
        seed, n, m = solve.case
        row = {"seed": seed, "n": n, "m": m, "status": solve.status, "outer_iters": solve.steps, "cuts": solve.cuts}
        if traced is not None:
            trace = traced[index].trace
            row["resolvent_inner_iters"] = trace["resolvent_inner"]
            row["polyhedron_calls"] = len(trace["polyhedron_rows"])
            row["polyhedron_rows_max"] = max(trace["polyhedron_rows"], default=0)
            row["polyhedron_rows_total"] = sum(trace["polyhedron_rows"])
        rows.append(row)
    return rows


def setup_samples(workload_name: str, seed: int, smoke: bool) -> list[tuple[float, float]]:
    """Cold set-up times from fresh interpreters (import, generation, configs).

    Each sample is (raw seconds, scaled seconds); the probe times the
    reference kernel right after its set-up.
    """
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name, str(seed), "1" if smoke else "0"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        seconds, kernel = map(float, done.stdout.split()[-2:])
        samples.append((seconds, seconds * reference.NOMINAL_S / kernel))
    return samples


def machine_block(blas_threads: int, loadavg_start) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "thread_env": {var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "loadavg_start": list(loadavg_start),
        "loadavg_end": list(os.getloadavg()),
    }


def run(workload_name: str, seed: int, seconds: float, traced: bool, smoke: bool, blas_threads: int, loadavg_start):
    """One benchmark run; returns (result line dict, detail dict, failure messages)."""
    workload = (SMOKE_WORKLOADS if smoke else WORKLOADS)[workload_name]
    setup = [] if traced else setup_samples(workload_name, seed, smoke)
    tracer = spans.Tracer()
    instances = build(workload, seed, generate=tracer.wrap("problems.generate_planted", sp.generate_planted))
    generate_s = sum(span[spans.END] - span[spans.START] for span in tracer.take())

    untraced, traced_passes = measure(workload, instances, seconds, traced)
    first = untraced[0]
    mark_irreproducible(first, untraced[1:], "a later pass")
    mark_irreproducible(first, traced_passes, "a traced solve")

    every = [solve for p in (*untraced, *traced_passes) for solve in p]
    failures = [f"seed {s.case[0]} (n={s.case[1]}, m={s.case[2]}): {s.failure}" for s in every if s.failure]
    if traced:
        metrics = per_layer(traced_passes, untraced, generate_s)
        order = PER_LAYER
        tail_info = None
    else:
        metrics, tail_info = end_to_end(untraced, setup)
        order = END_TO_END
    result = {
        "correct": not failures,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in order},
    }
    detail = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "smoke": smoke,
        "passes": len(untraced),
        "traced_passes": len(traced_passes),
        "fail_frac": len(failures) / len(every),
        "solve_s_tail": tail_info,
        "setup_samples_s": setup,
        "raw_pass_s": statistics.median(sum(solve.seconds for solve in p) for p in untraced),
        "reference_kernel_s": statistics.median(
            reference.NOMINAL_S / solve.scale for p in (*untraced, *traced_passes) for solve in p
        ),
        "instances": instance_counts(first, traced_passes[0] if traced else None),
        "machine": machine_block(blas_threads, loadavg_start),
    }
    return result, detail, failures
