"""Command-line interface: generate instances, solve, verify, benchmark.

Exit codes: 0 success, 2 validation error, 3 parse or file error, 4 inner failure.
Traces are CSV (one row per outer iteration, including iteration 0), reports
are JSON. When an output path is not given explicitly, files are written
under the directory named by ``SPLITEP_OUTPUT_DIR`` (default: the current
directory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from splitep.equilibrium import check_assumptions
from splitep.linalg import norm
from splitep.problems import ParseError, ProblemSpec, generate_planted, load, save, verify_planted
from splitep.solver import (
    ConfigError,
    SolveReport,
    SolveStatus,
    SolverConfig,
    constant_schedule,
    default_config,
    strong_solve,
    weak_solve,
)

__all__ = ["main", "run", "write_trace"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_INNER_FAILURE = 4

OUTPUT_DIR_ENV = "SPLITEP_OUTPUT_DIR"

# The record fields a trace row holds between k and dist_xstar, in column order.
TRACE_FIELDS = ("res_xy", "res_yz", "res_Sz", "res_uAt", "res_Tu", "step")
TRACE_HEADER = ",".join(("k", *TRACE_FIELDS, "dist_xstar"))

ALGORITHMS = ("weak", "strong", "sep-weak", "sep-strong")


def _output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _default_path(name: str) -> Path:
    directory = _output_dir()
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def _fmt(value: float) -> str:
    return repr(float(value))


def write_trace(report: SolveReport, problem: ProblemSpec, path) -> None:
    """Write the per-iteration residual trace as CSV (byte-deterministic)."""
    x_star = problem.planted_solution
    lines = [TRACE_HEADER]
    for record in report.history:
        dist = norm(record.x - x_star) if x_star is not None else float("nan")
        parts = ",".join(_fmt(getattr(record, name)) for name in TRACE_FIELDS)
        lines.append(f"{record.k},{parts},{_fmt(dist)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _report_payload(
    report: SolveReport, problem: ProblemSpec, args: argparse.Namespace, config: SolverConfig
) -> dict:
    x_star = problem.planted_solution
    return {
        "command": args.command,
        "problem": args.problem,
        "algorithm": args.algorithm,
        "tol": config.tol,
        "max_iter": config.max_iter,
        "mu": config.mu,
        "alpha": config.alpha,
        "status": report.status.value,
        "iterations": report.iterations,
        "final_residual": report.final_residual,
        "final_x": [float(v) for v in report.final_x],
        "final_u": None if report.final_u is None else [float(v) for v in report.final_u],
        "distance_to_planted": (
            None if x_star is None else norm(report.final_x - x_star)
        ),
        "message": report.message,
    }


def _solve(problem: ProblemSpec, args: argparse.Namespace):
    """Run ``args.algorithm`` on ``problem`` with the override flags applied.

    A ``sep-*`` algorithm solves ``problem.with_identity_maps()``, the split
    equilibrium problem without fixed-point constraints. Returns the problem
    actually solved, its config and the report.
    """
    if args.algorithm.startswith("sep-"):
        problem = problem.with_identity_maps()
    overrides: dict = {"mu_fraction": args.mu_fraction}
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.max_iter is not None:
        overrides["max_iter"] = args.max_iter
    if args.lam is not None:
        overrides["lambda_schedule"] = constant_schedule(args.lam)
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.alpha_k is not None:
        overrides["alpha_k_schedule"] = constant_schedule(args.alpha_k)
    if args.unsafe_mu is not None:
        overrides.update(mu_fraction=args.unsafe_mu, validate_mu=False)
    strong = args.algorithm.endswith("strong")
    config = default_config(problem, mode="strong" if strong else "weak", **overrides)
    return problem, config, (strong_solve if strong else weak_solve)(problem, config)


def _cmd_generate(args: argparse.Namespace) -> int:
    problem = generate_planted(args.n, args.m, args.seed)
    path = args.output or _default_path(f"problem-seed{args.seed}-n{args.n}-m{args.m}.json")
    save(problem, path)
    print(path)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    problem, config, report = _solve(load(args.problem), args)

    stem = Path(args.problem).stem
    report_path = args.report or _default_path(f"{stem}-{args.algorithm}-report.json")
    trace_path = args.trace or _default_path(f"{stem}-{args.algorithm}-trace.csv")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(_report_payload(report, problem, args, config), handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_trace(report, problem, trace_path)

    print(
        f"{report.status.value}: {report.iterations} iterations, "
        f"final residual {report.final_residual:.3e}"
    )
    if report.status is SolveStatus.INNER_FAILURE:
        print(f"inner failure: {report.message}", file=sys.stderr)
        return EXIT_INNER_FAILURE
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    problem = load(args.problem)
    worst = 0.0
    if problem.planted_solution is not None:
        planted = verify_planted(problem, samples=args.samples, seed=args.seed)
        print("planted-solution certificates (violations):")
        for name, value in vars(planted).items():
            print(f"  {name:24s} {value:.3e}")
        worst = planted.worst()
    else:
        print("no planted solution recorded; skipping certificate checks")

    for label, bifunction, domain in (("f on C", problem.f, problem.C), ("g on Q", problem.g, problem.Q)):
        rep = check_assumptions(bifunction, domain, samples=args.samples, seed=args.seed)
        declared = (
            rep.monotonicity if bifunction.monotonicity == "monotone" else rep.pseudomonotonicity
        )
        print(f"assumption probes for {label} (declared {bifunction.monotonicity}):")
        print(f"  diagonal               {rep.diagonal:.3e}")
        print(f"  declared monotonicity  {declared:.3e}")
        print(f"  lipschitz_type         {rep.lipschitz_type:.3e}")
        worst = max(worst, rep.diagonal, declared, rep.lipschitz_type)

    if worst > 1e-8:
        print(f"verification failed: worst violation {worst:.3e}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"verification passed: worst violation {worst:.3e}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = []
    exit_code = EXIT_OK
    for seed in args.seeds:
        planted = generate_planted(args.n, args.m, seed)
        started = time.perf_counter()
        problem, _, report = _solve(planted, args)
        wall = time.perf_counter() - started
        dist = norm(report.final_x - problem.planted_solution)
        rows.append((seed, report.status.value, report.iterations, report.final_residual, dist, wall))
        if report.status is SolveStatus.INNER_FAILURE:
            exit_code = EXIT_INNER_FAILURE
    print(f"{'seed':>6s} {'status':>16s} {'iterations':>10s} {'residual':>12s} {'dist_xstar':>12s} {'wall_s':>10s}")
    for seed, status, iterations, residual, dist, wall in rows:
        print(f"{seed:6d} {status:>16s} {iterations:10d} {residual:12.3e} {dist:12.3e} {wall:10.3e}")
    return exit_code


COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def _parse_seeds(text: str) -> list[int]:
    try:
        if ".." in text:
            first, last = text.split("..", 1)
            seeds = list(range(int(first), int(last) + 1))
        else:
            seeds = [int(part) for part in text.split(",") if part]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(
            f"expected at least one seed as a range '1..10' or a list '1,4,9', got {text!r}"
        )
    return seeds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitep",
        description="Solvers for split equilibrium problems with nonexpansive mappings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded planted problem instance")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", type=int, required=True, help="dimension of the first space")
    gen.add_argument("--m", type=int, required=True, help="dimension of the second space")
    gen.add_argument("-o", "--output", help="output path (default under SPLITEP_OUTPUT_DIR)")

    solve = sub.add_parser("solve", help="run a solver on a problem file")
    solve.add_argument("--problem", required=True)
    solve.add_argument("--algorithm", choices=ALGORITHMS, default="weak")
    solve.add_argument("--tol", type=float)
    solve.add_argument("--max-iter", type=int)
    solve.add_argument("--lambda", dest="lam", type=float, help="constant proximal step size")
    solve.add_argument("--alpha", type=float)
    solve.add_argument(
        "--mu-fraction",
        type=float,
        default=0.5,
        help="dual step as a fraction in (0, 1) of the certified bound 1/U",
    )
    solve.add_argument("--alpha-k", type=float, help="constant resolvent parameter")
    solve.add_argument("--unsafe-mu", type=float, help=argparse.SUPPRESS)
    solve.add_argument("--report", help="JSON report path")
    solve.add_argument("--trace", help="CSV trace path")

    verify = sub.add_parser("verify", help="check planted certificates and bifunction assumptions")
    verify.add_argument("--problem", required=True)
    verify.add_argument("--samples", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("bench", help="run a seed range and print a summary table")
    bench.add_argument(
        "--seeds", type=_parse_seeds, required=True, help="range '1..10' or comma list '1,4,9'"
    )
    bench.add_argument("--n", type=int, default=5)
    bench.add_argument("--m", type=int, default=4)
    bench.add_argument("--algorithm", choices=ALGORITHMS, default="weak")
    bench.add_argument("--tol", type=float)
    bench.add_argument("--max-iter", type=int)
    bench.add_argument("--mu-fraction", type=float, default=0.5)
    # solve's overrides that bench does not offer
    bench.set_defaults(lam=None, alpha=None, alpha_k=None, unsafe_mu=None)
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute parsed arguments, mapping failures to the documented exit codes."""
    # mu is only ever specified as a fraction of the certified bound, so the
    # step-size hypothesis cannot be violated from the command line (the
    # hidden unsafe flag exists solely for negative-control experiments).
    if args.command in ("solve", "bench") and args.unsafe_mu is None:
        if not (0.0 < args.mu_fraction < 1.0):
            print(
                f"error: --mu-fraction must lie in (0, 1), got {args.mu_fraction}",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
    try:
        return COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: cannot parse problem file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # a file that is missing, a directory or not readable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
