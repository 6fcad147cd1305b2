"""Span tracing for the benchmark's traced passes.

Nothing under ``src/`` knows about tracing. Instead the wrappers here replace,
for the duration of one traced solve, the names that ``splitep.solver`` looks
up when it calls them, ``as_vector`` in every ``splitep.*`` namespace, and
the ``project``/``apply``/``adjoint_apply`` methods of one problem's ``C``,
``Q``, ``S``, ``T`` and ``A``. Each call records a span: name, start, end and
the index of the span that was open when it started (its parent).

Spans stay in memory until the solve ends; :func:`summarize` then folds them
into per-layer totals and the raw spans are dropped, so memory stays bounded
on long traced passes.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Names that splitep.solver resolves at call time, with the layer each
# belongs to. Replacing them in the solver's namespace intercepts every call
# the solve loop makes into them.
SOLVER_LOOKUPS = {
    "prox_step": "equilibrium",
    "resolvent": "equilibrium",
    "project_polyhedron": "sets",
    "project_intersection": "sets",
    "halfspace_dominates": "sets",
    "weak_step": "solver",
    "strong_step": "solver",
    "validate": "solver",
    "operator_norm_sq_upper": "linalg",
}

# Problem members and the methods of each that the solve loop calls.
PROBLEM_METHODS = (
    ("C", "project", "sets"),
    ("Q", "project", "sets"),
    ("S", "apply", "sets"),
    ("T", "apply", "sets"),
    ("A", "apply", "linalg"),
    ("A", "adjoint_apply", "linalg"),
)

ROOT_SPAN = "solver.solve"
STEP_SPANS = ("solver.weak_step", "solver.strong_step")
POLYHEDRON_SPAN = "sets.project_polyhedron"
RESOLVENT_SPAN = "equilibrium.resolvent"
Q_PROJECT_SPAN = "sets.Q.project"

# Span fields, stored as lists for cheap appends in the hot path.
NAME, START, END, PARENT, NOTE = range(5)

_MISSING = object()


class Tracer:
    """Collects spans from wrapped callables in one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` recording a span per call; ``note(args, result)`` annotates it."""
        spans, open_spans, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_spans.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = self.clock()
        try:
            yield
        finally:
            span[END] = self.clock()
            self._open.pop()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        if self._open:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def _polyhedron_note(args, result):
    # project_polyhedron(x0, G, h, ...) -> (point, active rows)
    return (len(args[2]), len(result[1]))


@contextmanager
def installed(tracer: Tracer, problem):
    """Wrap the solve loop's call targets for ``problem`` while the block runs."""
    import splitep.linalg
    import splitep.solver

    restore = []

    def replace(owner, attr, wrapped):
        restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapped)

    try:
        for attr, layer in SOLVER_LOOKUPS.items():
            original = getattr(splitep.solver, attr)
            note = _polyhedron_note if attr == "project_polyhedron" else None
            replace(splitep.solver, attr, tracer.wrap(f"{layer}.{attr}", original, note))
        as_vector = splitep.linalg.as_vector
        wrapped_as_vector = tracer.wrap("linalg.as_vector", as_vector)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "splitep" and getattr(module, "as_vector", None) is as_vector:
                replace(module, "as_vector", wrapped_as_vector)
        for member, method, layer in PROBLEM_METHODS:
            target = getattr(problem, member)
            replace(target, method, tracer.wrap(f"{layer}.{member}.{method}", getattr(target, method)))
        yield
    finally:
        for owner, attr, previous in reversed(restore):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover.

    Child intervals are clipped to the parent's and merged first, so
    overlapping children are not subtracted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def summarize(spans: list[list]) -> dict:
    """Fold one solve's spans into per-name totals and the exact counts.

    Returns ``{"layers": {name: {"s", "self_s", "calls"}}, "step_s": [...],
    "resolvent_inner": int, "polyhedron_rows": [...], "polyhedron_active": [...]}``.
    ``resolvent_inner`` counts projections onto ``Q`` made directly inside a
    resolvent span, less one initial projection per resolvent call.
    """
    layers: dict[str, dict] = {}
    selfs = self_times(spans)
    step_s = []
    rows, active = [], []
    q_in_resolvent = 0
    for span, own in zip(spans, selfs):
        name = span[NAME]
        entry = layers.get(name)
        if entry is None:
            entry = layers[name] = {"s": 0.0, "self_s": 0.0, "calls": 0}
        duration = span[END] - span[START]
        entry["s"] += duration
        entry["self_s"] += own
        entry["calls"] += 1
        if name in STEP_SPANS:
            step_s.append(duration)
        elif name == POLYHEDRON_SPAN and span[NOTE] is not None:
            rows.append(span[NOTE][0])
            active.append(span[NOTE][1])
        elif name == Q_PROJECT_SPAN and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == RESOLVENT_SPAN:
            q_in_resolvent += 1
    resolvent_calls = layers.get(RESOLVENT_SPAN, {"calls": 0})["calls"]
    return {
        "layers": layers,
        "step_s": step_s,
        "resolvent_inner": q_in_resolvent - resolvent_calls,
        "polyhedron_rows": rows,
        "polyhedron_active": active,
    }
