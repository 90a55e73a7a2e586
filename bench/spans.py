"""Span recording from outside the program, and the per-layer table.

The benchmark never edits ``src/``. It replaces public functions of the
``tiercast`` modules with thin wrappers for the length of a run, at the name
the caller looks up: a module that did ``from .problem import objective``
calls its own global, so ``objective`` is wrapped in ``tiercast.solvers`` and
in ``tiercast.cli``, not in ``tiercast.problem``.

Every wrapper does the benchmark's bookkeeping (it hands results to the
output checks). It records a span only while ``Tracer.enabled`` is set, so an
untraced pass pays one extra Python call per wrapped call and nothing else.
Spans stay in memory; self time and counts are derived once the run ends.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import tiercast.cli
import tiercast.experiments
import tiercast.metrics
import tiercast.problem
import tiercast.scenario
import tiercast.serialize
import tiercast.solvers

# (module, attribute, span name). A span name is "<layer>.<what>", and the
# layer is the tiercast module whose code runs inside the span. ``None``
# records no span: run_solver only dispatches, the solver spans time it.
WRAPPED = (
    (tiercast.experiments, "run_solver", None),
    (tiercast.experiments, "build_experiment_instance", "experiments.build_experiment_instance"),
    (tiercast.cli, "build_experiment_instance", "experiments.build_experiment_instance"),
    (tiercast.experiments, "generate_topology", "scenario.topology"),
    (tiercast.experiments, "generate_demands", "scenario.demands"),
    (tiercast.experiments, "place_caches", "scenario.caches"),
    (tiercast.experiments, "generate_sharing_groups", "scenario.sharing"),
    (tiercast.experiments, "build_instance", "scenario.build_instance"),
    (tiercast.scenario, "build_rb_tables", "channel.rb_tables"),
    (tiercast.solvers, "solve_elva", "solvers.elva"),
    (tiercast.solvers, "solve_eva", "solvers.eva"),
    (tiercast.solvers, "solve_sinr", "solvers.sinr"),
    (tiercast.solvers, "solve_bb", "solvers.bb"),
    (tiercast.solvers, "solve_cell_subproblem", "solvers.cell_subproblem"),
    (tiercast.solvers, "solve_cell_subproblem_multicast", "solvers.cell_subproblem_multicast"),
    (tiercast.solvers, "objective", "problem.objective"),
    (tiercast.cli, "objective", "problem.objective"),
    (tiercast.problem, "is_feasible", "problem.is_feasible"),
    (tiercast.cli, "is_feasible", "problem.is_feasible"),
    (tiercast.problem, "rb_usage", "problem.rb_usage"),
    (tiercast.metrics, "rb_usage", "problem.rb_usage"),
    (tiercast.metrics, "summarize", "metrics.summarize"),
    (tiercast.serialize, "save_instance", "serialize.save_instance"),
    (tiercast.serialize, "load_instance", "serialize.load_instance"),
    (tiercast.serialize, "save_solution", "serialize.save_solution"),
    (tiercast.serialize, "load_solution", "serialize.load_solution"),
)

# Spans the harness opens itself, around its own calls into the program.
RUN_SWEEP = "experiments.run_sweep"
CLI_SPANS = ("cli.generate", "cli.solve", "cli.verify")

SPAN_NAMES = tuple(
    dict.fromkeys([name for _, _, name in WRAPPED if name] + [RUN_SWEEP, *CLI_SPANS])
)

# Counts taken at the span boundaries, with their units.
COUNTERS = {
    "scenario.instances": "count",
    "channel.links": "count",
    "solvers.elva_tie_breaks": "count",
    "solvers.eva_tie_breaks": "count",
    "solvers.bb_nodes": "count",
    "solvers.bb_pruned": "count",
    "solvers.bb_limit_hits": "count",
    "solvers.cells_solved": "count",
    "problem.alloc_entries": "count",
    "problem.violations": "count",
    "serialize.instance_bytes": "B",
    "cli.nonzero_exits": "count",
    "experiments.points": "count",
}

# Metric names that differ from "<span>_ms": run_sweep's span covers the
# whole generator, so only its self time is a layer figure.
_MS_NAME = {RUN_SWEEP: "experiments.run_sweep_self_ms"}


def ms_metric(span: str) -> str:
    return _MS_NAME.get(span, span + "_ms")


def calls_metric(span: str) -> str:
    return ms_metric(span)[: -len("_ms")] + "_calls"


def _count(counters, span, args, result):
    """Add the counts one finished call contributes."""
    if span == "scenario.build_instance":
        counters["scenario.instances"] += 1
    elif span == "channel.rb_tables":
        counters["channel.links"] += len(args[0]) * len(args[1])
    elif span in ("solvers.cell_subproblem", "solvers.cell_subproblem_multicast"):
        counters["solvers.cells_solved"] += 1
    elif span in ("solvers.elva", "solvers.eva"):
        counters[f"{span}_tie_breaks"] += result[1].tie_breaks or 0
    elif span == "solvers.bb":
        report = result[1]
        counters["solvers.bb_nodes"] += report.nodes_explored
        counters["solvers.bb_pruned"] += report.nodes_pruned
        counters["solvers.bb_limit_hits"] += int(bool(report.node_budget_hit))
    elif span in ("problem.objective", "problem.rb_usage", "problem.is_feasible"):
        counters["problem.alloc_entries"] += len(args[1].alloc)
        if span == "problem.is_feasible":
            counters["problem.violations"] += len(result.violations)
    elif span == "serialize.save_instance":
        counters["serialize.instance_bytes"] += os.path.getsize(args[1])
    elif span == "serialize.load_instance":
        counters["serialize.instance_bytes"] += os.path.getsize(args[0])


class Tracer:
    """In-memory spans ``[name, parent index, start ns, end ns]`` and counts."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, perf_counter_ns(), 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][3] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording program spans."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Span name -> (self time in ns, call count)."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        table: dict[str, list[int]] = {}
        for (name, _, start, end), inner in zip(self.spans, child_ns):
            entry = table.setdefault(name, [0, 0])
            entry[0] += end - start - inner
            entry[1] += 1
        return {name: (ns, calls) for name, (ns, calls) in table.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": index, "name": name, "parent": parent, "start_ns": start, "end_ns": end})
                    + "\n"
                )


@contextmanager
def instrumented(tracer: Tracer, observe):
    """Wrap every entry of ``WRAPPED`` for the length of the block.

    ``observe(attr, args, result)`` sees every call's result, traced or not;
    the harness uses it to collect instances, solutions and summaries.
    """
    saved = []

    def wrap(fn, attr, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None or not tracer.enabled:
                result = fn(*args, **kwargs)
            else:
                index = tracer.open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                _count(tracer.counters, span, args, result)
            observe(attr, args, result)
            return result

        return wrapper

    try:
        for module, attr, span in WRAPPED:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original, attr, span))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
