"""Spans around fogweaver's public calls, recorded from outside ``src/``.

``Tracer.installed()`` swaps each traced function for a wrapper in every
fogweaver module that holds it, so the CLI, the pipeline and the
benchmark's own ops are all seen, and restores the originals on exit.
Spans (name, start, end, parent, op) are kept in memory; self time is a
span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass

import fogweaver  # noqa: F401  loads every module named in TRACED
from fogweaver import extensibility
from fogweaver.errors import InfeasibleError
from workloads import gave_up

# (module, function, span name); synthesize_gcl gets its name per call
TRACED = (
    ("dsl", "parse_scenario", "dsl.parse"),
    ("scenario", "validate", "scenario.validate"),
    ("gclsched", "synthesize_gcl", None),
    ("gclsched", "verify_net_schedule", "gclsched.verify"),
    ("gclsched", "gcl_export", "gclsched.export"),
    ("teslasec", "apply_tesla", "teslasec.apply"),
    ("nodesched", "map_to_cores", "nodesched.map"),
    ("nodesched", "synthesize_node_schedule", "nodesched.edf"),
    ("nodesched", "verify_node_schedule", "nodesched.verify"),
    ("extensibility", "optimize_extensibility", "extensibility.optimize"),
    ("extensibility", "ext_metric", "extensibility.metric"),
    ("gantt", "emit_gantt", "gantt.emit"),
    ("pipeline", "run_pipeline", "pipeline.report"),
)

# time metrics are self time per op; "pipeline.report" is run_pipeline's own
# work: report assembly, summaries and file writes
TIME_METRICS = {
    "dsl.parse_s": "dsl.parse",
    "scenario.validate_s": "scenario.validate",
    "gclsched.synth_s": "gclsched.synth",
    "gclsched.synth_gaveup_s": "gclsched.synth_gaveup",
    "gclsched.verify_s": "gclsched.verify",
    "gclsched.export_s": "gclsched.export",
    "teslasec.apply_s": "teslasec.apply",
    "teslasec.resynth_s": "teslasec.resynth",
    "nodesched.map_s": "nodesched.map",
    "nodesched.edf_s": "nodesched.edf",
    "nodesched.verify_s": "nodesched.verify",
    "extensibility.optimize_s": "extensibility.optimize",
    "extensibility.metric_s": "extensibility.metric",
    "gantt.emit_s": "gantt.emit",
    "pipeline.report_s": "pipeline.report",
}
COUNTS = ("gclsched.windows", "gclsched.gave_up", "teslasec.security_tasks",
          "nodesched.slices", "extensibility.moved_slices",
          "extensibility.cores_tried")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.improved_cores = 0
        self.op = -1
        self.op_spans_from = 0
        self._stack: list[int] = []
        self._patches = []
        for module_name, fn_name, span_name in TRACED:
            original = getattr(sys.modules[f"fogweaver.{module_name}"], fn_name)
            wrapper = self._wrap(original, span_name)
            self._patches += [
                (mod, fn_name, original, wrapper)
                for mod_name, mod in sys.modules.items()
                if mod_name.split(".")[0] == "fogweaver"
                and getattr(mod, fn_name, None) is original]

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_spans_from = len(self.spans)

    def _seen_in_op(self, name: str) -> bool:
        return any(sp.name == name for sp in self.spans[self.op_spans_from:])

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name or "gclsched.synth", time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except InfeasibleError as exc:
                if name is None and gave_up(exc):
                    span.name = "gclsched.synth_gaveup"
                    self.counts["gclsched.gave_up"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name is None and self._seen_in_op("teslasec.apply"):
                span.name = "teslasec.resynth"
            self._count(fn.__name__, args, result)
            return result
        return traced

    def _count(self, fn_name: str, args, result) -> None:
        c = self.counts
        if fn_name == "synthesize_gcl":
            c["gclsched.windows"] += len(result.windows)
        elif fn_name == "apply_tesla":
            c["teslasec.security_tasks"] += len(result[0].tasks)
        elif fn_name == "synthesize_node_schedule":
            c["nodesched.slices"] += len(result.slices)
        elif fn_name == "optimize_extensibility":
            before = {(s.task, s.job_index, s.start_us) for s in args[0].slices}
            after = {(s.task, s.job_index, s.start_us) for s in result.slices}
            c["extensibility.moved_slices"] += len(after - before)
            for core in range(result.cores):
                if args[0].core_slices(core):
                    c["extensibility.cores_tried"] += 1
                    self.improved_cores += (
                        _ext_metric(result, core) < _ext_metric(args[0], core))

    @contextlib.contextmanager
    def installed(self):
        for mod, fn_name, _, wrapper in self._patches:
            setattr(mod, fn_name, wrapper)
        try:
            yield
        finally:
            for mod, fn_name, original, _ in self._patches:
                setattr(mod, fn_name, original)

    def self_times(self) -> dict[str, float]:
        own = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.end - sp.start
        totals: dict[str, float] = {}
        for sp, t in zip(self.spans, own):
            totals[sp.name] = totals.get(sp.name, 0.0) + t
        return totals

    def covered(self) -> float:
        """Time of the current op inside top-level spans."""
        return sum(sp.end - sp.start for sp in self.spans[self.op_spans_from:]
                   if sp.parent is None)

    def to_json(self) -> list[dict]:
        return [{"name": sp.name, "start": sp.start, "end": sp.end,
                 "parent": sp.parent, "op": sp.op} for sp in self.spans]


_ext_metric = extensibility.ext_metric  # the original, never wrapped
