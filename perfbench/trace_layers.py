"""Per-layer tracing for the pipeline benchmark's traced run.

Only ``bench.py --trace 1`` imports this file.  :class:`Tracer` wraps the
public names the pipelines call *at their import sites* (the module
attribute each pipeline looks up), so nothing under ``src/`` changes and
the untraced run executes the program untouched.  Each wrapped call
records a span -- name, start, end, parent span, job id -- kept in
memory and written as JSON lines when the run ends.  Calls made tens of
thousands of times per job (``canonicalize``, streaming expansions) are
aggregated into ``(parent span, name)`` call counts and seconds instead
of one span each.

Counts and the reduce/refinement seconds nested inside
``branching_partition`` come from the :class:`~repro.util.metrics.Stats`
sink each traced job passes to its pipeline.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.util.metrics import Stats

SPAN, HOT, CLASS = "span", "hot", "class"

#: (module, attribute, kind, span name).  ``None`` as module means the
#: benchmark's own module (the calls it makes itself).  For ``CLASS``
#: sites the name is a tuple of (method, kind, span name) wrappers.
SITES: List[Tuple[Optional[str], str, str, Any]] = [
    ("repro.lang.client", "canonicalize", HOT, "canonicalize"),
    ("repro.verify.linearizability", "maybe_parallel_explore", SPAN, "explore"),
    ("repro.verify.linearizability", "spec_lts", SPAN, "spec"),
    ("repro.verify.linearizability", "branching_partition", SPAN, "partition"),
    ("repro.verify.linearizability", "quotient_lts", SPAN, "quotient"),
    ("repro.verify.linearizability", "trace_refines", SPAN, "check"),
    ("repro.verify.linearizability", "StreamingExplorer", CLASS, (
        ("__init__", SPAN, "explorer.init"),
        ("expand_next", HOT, "onthefly.stream"),
    )),
    ("repro.verify.linearizability", "PartialProductChecker", CLASS, (
        ("__init__", SPAN, "onthefly.init"),
        ("feed_events", HOT, "onthefly.stream"),
    )),
    ("repro.verify.lockfree", "maybe_parallel_explore", SPAN, "explore"),
    ("repro.verify.lockfree", "branching_partition", SPAN, "partition"),
    ("repro.verify.lockfree", "quotient_lts", SPAN, "quotient"),
    ("repro.verify.lockfree", "compare_branching", SPAN, "lockfree.check"),
    ("repro.verify.lockfree", "tau_cycle_states", SPAN, "lockfree.check"),
    ("repro.verify.lockfree", "find_divergence_lasso", SPAN, "lockfree.check"),
    ("repro.verify.reachability", "maybe_parallel_explore", SPAN, "explore"),
    ("repro.verify.reachability", "reachability_search", SPAN, "reach"),
    ("repro.verify.reachability", "reachability_search_streaming", SPAN, "reach"),
    ("repro.verify.reachability", "StreamingExplorer", CLASS, (
        ("__init__", SPAN, "explorer.init"),
    )),
    (None, "explore", SPAN, "explore"),
    (None, "parallel_explore", SPAN, "parallel.explore"),
    (None, "dumps_aut", SPAN, "aut.dump"),
]

#: Sites skipped per workload.  Forked ``repro.parallel`` workers inherit
#: a wrapped ``canonicalize`` but their spans never reach this process,
#: so wrapping it there would only inflate worker busy time.
SKIP = {"explore-par2": {("repro.lang.client", "canonicalize")}}

#: Span names whose time counts as the onthefly fallback after a drain.
FALLBACK_SPANS = ("partition", "quotient", "check")


class Tracer:
    """In-memory spans and hot-call aggregates for one traced run."""

    def __init__(self, bench_module: Any, workload: str) -> None:
        self.bench_module = bench_module
        self.skip = SKIP.get(workload, set())
        #: (span id, name, start, end, parent span id, job id)
        self.spans: List[Tuple[int, str, float, float, int, str]] = []
        #: (parent span id, name, nested in another hot call) -> [calls, s]
        self.hot: Dict[Tuple[int, str, bool], List[float]] = {}
        #: job id -> (root span id, Stats sink)
        self.jobs: Dict[str, Tuple[int, Stats]] = {}
        #: job id -> (verdict, counts), filled in by the benchmark
        self.outcomes: Dict[str, Tuple[Optional[bool], Dict[str, Any]]] = {}
        self._stack: List[int] = [0]
        self._hot_depth = 0
        self._next_id = 1
        self._job = ""

    # -- wrappers ------------------------------------------------------

    def span(self, name: str, fn: Any) -> Any:
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self._job))
        return traced

    def hot_call(self, name: str, fn: Any) -> Any:
        def traced(*args: Any, **kwargs: Any) -> Any:
            depth = self._hot_depth
            self._hot_depth = depth + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._hot_depth = depth
                key = (self._stack[-1], name, depth > 0)
                acc = self.hot.get(key)
                if acc is None:
                    self.hot[key] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed
        return traced

    def _wrap(self, kind: str, name: Any, original: Any) -> Any:
        if kind == SPAN:
            return self.span(name, original)
        if kind == HOT:
            return self.hot_call(name, original)
        methods = {
            method: self._wrap(mkind, mname, getattr(original, method))
            for method, mkind, mname in name
        }
        return type(original.__name__, (original,), methods)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every site for the duration of the block."""
        undo = []
        try:
            for module_name, attr, kind, name in SITES:
                if (module_name, attr) in self.skip:
                    continue
                module = (self.bench_module if module_name is None
                          else importlib.import_module(module_name))
                original = getattr(module, attr)
                undo.append((module, attr, original))
                setattr(module, attr, self._wrap(kind, name, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    @contextmanager
    def job(self, job_id: str) -> Iterator[Stats]:
        """The root span of one job; yields the job's Stats sink."""
        stats = Stats()
        sid = self._next_id
        self._next_id += 1
        self.jobs[job_id] = (sid, stats)
        self._job = job_id
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield stats
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, "job", start, end, 0, job_id))
            self._job = ""

    # -- reporting -----------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")
            for (parent, name, nested), (calls, seconds) in self.hot.items():
                fh.write(json.dumps({"name": name, "parent": parent, "nested": nested,
                                     "calls": calls, "seconds": seconds}) + "\n")

    def report(self, untraced_pass_s: List[float], traced_pass_s: float,
               serial_s: float, workers: int,
               full_states: Dict[str, int]) -> Dict[str, Any]:
        """Per-layer metrics plus the per-job reconciliation rows."""
        duration = {sid: end - start for sid, _n, start, end, _p, _j in self.spans}
        span_s: Dict[str, float] = {}
        child_s: Dict[int, float] = {}
        for sid, name, _s, _e, parent, _j in self.spans:
            span_s[name] = span_s.get(name, 0.0) + duration[sid]
            child_s[parent] = child_s.get(parent, 0.0) + duration[sid]
        hot_s: Dict[str, float] = {}
        for (_parent, name, nested), (_calls, seconds) in self.hot.items():
            if not nested:
                hot_s[name] = hot_s.get(name, 0.0) + seconds
        canon_calls = sum(int(c) for (_p, n, _x), (c, _s) in self.hot.items()
                          if n == "canonicalize")
        canon_s = sum(s for (_p, n, _x), (_c, s) in self.hot.items()
                      if n == "canonicalize")

        rows = []
        unaccounted = 0.0
        for job_id, (root, _stats) in self.jobs.items():
            top: Dict[str, float] = {}
            for sid, name, _s, _e, parent, _j in self.spans:
                if parent == root:
                    top[name] = top.get(name, 0.0) + duration[sid]
            for (parent, name, nested), (_c, seconds) in self.hot.items():
                if parent == root and not nested:
                    top[name] = top.get(name, 0.0) + seconds
            rest = duration[root] - sum(top.values())
            unaccounted += rest
            rows.append({"job": job_id, "wall_s": duration[root], "spans": top,
                         "unaccounted_s": rest})

        pipeline, parallel = Stats(), Stats()
        fallback_s = 0.0
        expanded = full = 0
        for job_id, (root, stats) in self.jobs.items():
            (parallel if job_id.startswith("par2:") else pipeline).merge(stats)
            verdict, counts = self.outcomes.get(job_id, (None, {}))
            if job_id.startswith("otf-lin:") and "quotient" in stats.stage_seconds:
                fallback_s += sum(
                    duration[sid] for sid, name, _s, _e, parent, _j in self.spans
                    if parent == root and name in FALLBACK_SPANS)
            instance = job_id.split(":", 1)[1]
            if job_id.startswith("otf-") and verdict is False and instance in full_states:
                expanded += counts["states_expanded"]
                full += full_states[instance]

        def stage_s(last: str) -> float:
            return sum(s for path, s in pipeline.stage_seconds.items()
                       if path.rsplit("/", 1)[-1] == last)

        def counter(suffix: str, sink: Stats = pipeline) -> int:
            return sum(v for k, v in sink.counters.items()
                       if k == suffix or k.endswith("/" + suffix))

        explore_s = span_s.get("explore", 0.0)
        explore_states = counter("explore.states")
        par_s = span_s.get("parallel.explore", 0.0)
        busy_s = counter("explore.worker_busy_us", parallel) / 1e6
        metrics = {
            "explore.s": explore_s,
            "explore.canonicalize_s": canon_s,
            "explore.canonicalize_calls": canon_calls,
            "explore.states_per_s": explore_states / explore_s if explore_s else 0.0,
            "explore.states": explore_states,
            "explore.transitions": counter("explore.transitions"),
            "spec.s": span_s.get("spec", 0.0),
            "spec.states": counter("spec.states"),
            "reduce.s": stage_s("reduce"),
            "reduce.states_removed": counter("reduce.states_removed"),
            "refine.s": stage_s("refinement"),
            "refine.splits": counter("refinement.splits"),
            "quotient.self_s": sum(duration[sid] - child_s.get(sid, 0.0)
                                   for sid, name, _s, _e, _p, _j in self.spans
                                   if name == "quotient"),
            "check.s": span_s.get("check", 0.0),
            "check.visited_pairs": counter("check.visited_pairs"),
            "lockfree.check_s": span_s.get("lockfree.check", 0.0),
            "reach.s": span_s.get("reach", 0.0),
            "reach.product_states": counter("reachability.product_states"),
            "onthefly.init_s": span_s.get("onthefly.init", 0.0),
            "onthefly.stream_s": hot_s.get("onthefly.stream", 0.0),
            "onthefly.fallback_s": fallback_s,
            "onthefly.expanded_frac": expanded / full if full else 0.0,
            "onthefly.expanded_states": expanded,
            "onthefly.full_states": full,
            "parallel.explore_s": par_s,
            "parallel.worker_busy_s": busy_s,
            "parallel.supervisor_s": par_s - busy_s / workers if par_s else 0.0,
            "parallel.busy_frac": busy_s / (workers * par_s) if par_s else 0.0,
            "parallel.shards": counter("explore.shards", parallel),
            "parallel.requeues": counter("explore.requeues", parallel),
            "parallel.serial_s": serial_s,
            "parallel.speedup": serial_s / par_s if par_s else 0.0,
            "aut.dump_s": span_s.get("aut.dump", 0.0),
            "trace.overhead_s": traced_pass_s - statistics.median(untraced_pass_s),
            "trace.unaccounted_s": unaccounted,
        }
        return {"metrics": metrics, "jobs": rows}
