"""Span tracing from outside the program, by wrapping module and class names.

Each wrap point replaces one name that swarmwalk code looks up at call time
(a module global, an imported name or a class attribute) with a wrapper that
times the call.  Spans nest through a stack, so a span's self time is its
total time minus the time of the spans it caused.  Spans are aggregated per
name in memory (one evaluate call is ~12-21 us, so a per-call record would
cost more than the work it describes) and written out when the run ends.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Aggregated spans plus counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self._child_time: list[float] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """Time `fn` as span `name`.

        `before(args)` runs ahead of the span and `after(args, result)` after
        it; both count towards the enclosing span, never towards `name`.
        """
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._child_time

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "spans": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for name, s in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


@contextmanager
def patched(replacements):
    """Swap (owner, attribute, new value) triples in, and restore them after.

    `owner` is a module path or a class.  An attribute the owner lacks is
    skipped, so a refactor that drops a wrap point reads as zero calls.
    """
    undo = []
    try:
        for owner, attribute, make in replacements:
            if isinstance(owner, str):
                owner = importlib.import_module(owner)
            if attribute not in vars(owner):
                continue
            original = vars(owner)[attribute]
            undo.append((owner, attribute, original))
            setattr(owner, attribute, make(original))
        yield
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


def run_timer_points(times: dict[str, dict[int, float]]):
    """Wrap points that time each optimizer run, always on.

    Each run stores its seconds in `times[algorithm][run seed]`, so the runs
    must be made in this process (workers=1).
    """
    def timed(algorithm):
        def make(fn):
            def run(objective, config, *args, **kwargs):
                start = perf_counter()
                result = fn(objective, config, *args, **kwargs)
                times[algorithm][config.seed] = perf_counter() - start
                return result
            return run
        return make

    return [
        ("swarmwalk.harness", "rwpso_run", timed("rwpso")),
        ("swarmwalk.harness", "pso_run", timed("pso")),
    ]


def layer_points(tracer: Tracer):
    """Wrap points of the traced pass, following how swarmwalk looks names up."""
    from swarmwalk.objectives import ObjectiveSpec, SearchDomain

    def span(name, **hooks):
        return lambda fn: tracer.wrap(name, fn, **hooks)

    def distance_bytes(args):
        n, d = np.shape(args[0])
        tracer.count("graph.build_distance_matrix.temp_bytes", n * n * d * 8)

    def walker_init(args, state):
        tracer.count("rwpso.evaluations", len(state.positions))
        tracer.count("rwpso.useful_evaluations", len(state.positions))

    def walker_moved(args, state):
        moved = np.any(state.positions != args[0].positions, axis=1)
        tracer.count("rwpso.evaluations", moved.size)
        tracer.count("rwpso.useful_evaluations", int(moved.sum()))

    return [
        ("swarmwalk.cli", "run_experiment", span("harness.run_experiment")),
        ("swarmwalk.cli", "write_results", span("harness.write_results")),
        ("swarmwalk.harness", "run_single", span("harness.run_single")),
        ("swarmwalk.harness", "make_objective", span("harness.make_objective")),
        ("swarmwalk.harness", "derive_seed", span("harness.derive_seed")),
        ("swarmwalk.harness", "rwpso_run", span("rwpso.rwpso_run")),
        ("swarmwalk.harness", "pso_run", span("pso.pso_run")),
        ("swarmwalk.rwpso", "init_state", span("rwpso.init_state", after=walker_init)),
        ("swarmwalk.rwpso", "rwpso_step", span("rwpso.rwpso_step", after=walker_moved)),
        ("swarmwalk.rwpso", "build_swarm_graph", span("graph.build_swarm_graph")),
        ("swarmwalk.rwpso", "resolve_sigma", span("rwpso.resolve_sigma")),
        ("swarmwalk.rwpso", "mean_best_fitness", span("results.mean_best_fitness")),
        ("swarmwalk.pso", "init_state", span("pso.init_state")),
        ("swarmwalk.pso", "pso_step", span("pso.pso_step")),
        ("swarmwalk.pso", "mean_best_fitness", span("results.mean_best_fitness")),
        ("swarmwalk.graph", "build_distance_matrix",
         span("graph.build_distance_matrix", before=distance_bytes)),
        ("swarmwalk.graph", "compute_ranks", span("graph.compute_ranks")),
        (ObjectiveSpec, "evaluate", span("objectives.evaluate")),
        (SearchDomain, "clamp", span("objectives.clamp")),
    ]
