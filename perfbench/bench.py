"""The measuring process of the pipeline benchmark.

``run.py`` starts this file in a fresh interpreter with ``PYTHONHASHSEED``
fixed to the workload seed and ``src`` on ``PYTHONPATH``.  It builds the
inputs of one workload (registry programs, specifications, client
workloads and, for ``quotient-big``, the pre-explored object systems),
runs passes over the job list until ``--seconds`` have elapsed, checks
every verdict, state count and ``.aut`` digest, and prints one JSON
object on its last stdout line.  ``--probe`` stops after building the
inputs; ``run.py`` times such probes for ``setup_s``.

The jobs call only the public entry points of ``repro.verify``,
``repro.lang``, ``repro.core`` and ``repro.parallel``.  The names this
module calls itself (``explore``, ``parallel_explore``, ``dumps_aut``)
are looked up at call time, so the traced run can wrap them here too.
The untraced run never imports ``trace_layers.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core import dumps_aut
from repro.lang import ClientConfig, explore
from repro.objects import get
from repro.parallel import ParallelConfig, parallel_explore
from repro.verify.linearizability import check_linearizability
from repro.verify.lockfree import check_lock_freedom_auto
from repro.verify.reachability import check_linearizability_reachability

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
PAR_WORKERS = 2


@dataclass(frozen=True)
class Job:
    """One verdict (or one exploration) on one registry object."""

    kind: str      # lin | lockfree | reach | otf-lin | otf-reach | par2
    key: str       # registry key
    threads: int
    ops: int
    values: int

    @property
    def id(self) -> str:
        return f"{self.kind}:{self.key}:{self.threads}x{self.ops}/v{self.values}"

    @property
    def instance(self) -> Tuple[str, int, int, int]:
        return (self.key, self.threads, self.ops, self.values)


def _jobs(kinds: Tuple[str, ...], *instances: Tuple[str, int, int, int]) -> List[Job]:
    return [Job(kind, *inst) for inst in instances for kind in kinds]


#: profile -> workload -> (pre-explore the object systems in setup?, jobs).
#: ``full`` is what the benchmark measures; ``tiny`` is the self-test size.
WORKLOADS: Dict[str, Dict[str, Tuple[bool, List[Job]]]] = {
    "full": {
        "lin-serial": (False, _jobs(
            ("lin",), ("hm_list", 2, 2, 2), ("ms_queue", 2, 2, 2),
            ("treiber", 2, 2, 2), ("hm_list_buggy", 2, 2, 2),
        ) + _jobs(
            ("lockfree",), ("treiber_hp_buggy", 2, 2, 2), ("hw_queue", 2, 2, 2),
        )),
        "explore-par2": (False, _jobs(
            ("par2",), ("hm_list", 2, 2, 2), ("ms_queue", 2, 2, 2),
        )),
        "quotient-big": (True, _jobs(
            ("lin", "lockfree", "reach"), ("treiber", 2, 3, 2), ("ms_queue", 3, 1, 2),
        )),
        "bughunt-otf": (False, _jobs(
            ("otf-lin", "otf-reach"),
            ("hm_list_buggy", 2, 3, 2), ("hm_list_buggy", 3, 2, 2),
            ("hm_list_buggy", 2, 2, 3), ("treiber", 2, 2, 2), ("hw_queue", 2, 2, 2),
        )),
    },
    "tiny": {
        "lin-serial": (False, _jobs(
            ("lin",), ("treiber", 2, 1, 2), ("hm_list_buggy", 2, 2, 1),
        ) + _jobs(("lockfree",), ("hw_queue", 2, 1, 2))),
        "explore-par2": (False, _jobs(
            ("par2",), ("treiber", 2, 1, 2), ("ms_queue", 2, 1, 2),
        )),
        "quotient-big": (True, _jobs(
            ("lin", "lockfree", "reach"), ("treiber", 2, 1, 2), ("ms_queue", 2, 1, 2),
        )),
        "bughunt-otf": (False, _jobs(
            ("otf-lin", "otf-reach"), ("hm_list_buggy", 2, 2, 1), ("treiber", 2, 1, 2),
        )),
    },
}


@dataclass
class Inputs:
    """What one job receives: registry objects and bounds, nothing else."""

    bench: Any
    program: Any
    spec: Any
    workload: Any


def build_inputs(jobs: List[Job]) -> Dict[Tuple[str, int, int, int], Inputs]:
    """Build each program with its own thread count, once per instance."""
    inputs: Dict[Tuple[str, int, int, int], Inputs] = {}
    for job in jobs:
        if job.instance not in inputs:
            bench = get(job.key)
            inputs[job.instance] = Inputs(
                bench, bench.build(job.threads), bench.spec(),
                bench.default_workload(job.values),
            )
    return inputs


def preexplore(jobs: List[Job], inputs, tracer=None) -> Dict[Tuple, Any]:
    """Explore each instance once (``quotient-big`` setup)."""
    systems = {}
    for job in jobs:
        if job.instance in systems:
            continue
        inp = inputs[job.instance]
        config = ClientConfig(job.threads, job.ops, inp.workload)
        name = "setup:" + job.id.split(":", 1)[1]
        with tracer.job(name) if tracer else nullcontext() as stats:
            systems[job.instance] = explore(inp.program, config, stats=stats)
    return systems


def expected_verdict(job: Job, bench: Any) -> Optional[bool]:
    """The registry's expectation; ``None`` for a plain exploration."""
    if job.kind == "par2":
        return None
    if job.kind == "lockfree":
        return bench.expect_lock_free
    return bench.expect_linearizable


def aut_counts(lts: Any) -> Dict[str, Any]:
    """What an exploration job is checked on: sizes and the dump's sha256."""
    digest = hashlib.sha256(dumps_aut(lts).encode("utf-8")).hexdigest()
    return {"impl_states": lts.num_states, "transitions": lts.num_transitions,
            "aut_sha256": digest}


def run_job(job: Job, inp: Inputs, impl: Any, stats: Any) -> Tuple[Optional[bool], Dict[str, Any]]:
    """Run one job; returns its verdict and the counts the gate checks."""
    t, o, w = job.threads, job.ops, inp.workload
    if job.kind == "par2":
        lts = parallel_explore(
            inp.program, ClientConfig(t, o, w), ParallelConfig(workers=PAR_WORKERS),
            stats=stats,
        )
        return None, aut_counts(lts)
    if job.kind in ("lin", "otf-lin"):
        r = check_linearizability(
            inp.program, inp.spec, t, o, workload=w, stats=stats,
            on_the_fly=job.kind == "otf-lin", impl_system=impl,
        )
        counts = {"impl_states": r.impl_states, "spec_states": r.spec_states,
                  "impl_quotient_states": r.impl_quotient_states,
                  "spec_quotient_states": r.spec_quotient_states}
        if r.on_the_fly:
            counts["states_expanded"] = r.states_expanded
        return r.linearizable, counts
    if job.kind == "lockfree":
        r = check_lock_freedom_auto(
            inp.program, t, o, workload=w, stats=stats, impl_system=impl,
        )
        return r.lock_free, {"impl_states": r.impl_states,
                             "quotient_states": r.quotient_states}
    if job.kind in ("reach", "otf-reach"):
        r = check_linearizability_reachability(
            inp.program, inp.spec, t, o, workload=w, stats=stats,
            on_the_fly=job.kind == "otf-reach", impl_system=impl,
        )
        counts = {"impl_states": r.impl_states, "product_states": r.product_states}
        if r.on_the_fly:
            counts["states_expanded"] = r.states_expanded
        return r.linearizable, counts
    raise ValueError(f"unknown job kind {job.kind!r}")


def verdict_name(value: Optional[bool]) -> str:
    return {True: "TRUE", False: "FALSE", None: "UNKNOWN"}[value]


class Gate:
    """Checks each job's outcome against the registry and ``expected.json``."""

    def __init__(self, profile: str, flip_expect: bool) -> None:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            committed = json.load(fh)
        self.expected = committed["profiles"][profile]["jobs"]
        #: Full object-system sizes, the base of ``onthefly.expanded_frac``.
        self.full_states = committed["profiles"][profile]["full_states"]
        self.flip_expect = flip_expect

    def check(self, job: Job, bench: Any, verdict: Optional[bool],
              counts: Dict[str, Any]) -> Optional[str]:
        """``None`` when the job is correct, else why it failed."""
        want = expected_verdict(job, bench)
        if want is not None:
            if self.flip_expect:
                want = not want
            if verdict != want:
                return f"verdict {verdict_name(verdict)}, expected {verdict_name(want)}"
        want_counts = self.expected.get(job.id)
        if want_counts is None:
            return "no committed expected counts"
        if counts != want_counts:
            diff = {k: (counts.get(k), v) for k, v in want_counts.items()
                    if counts.get(k) != v}
            diff.update({k: (v, None) for k, v in counts.items() if k not in want_counts})
            return f"counts differ (got, expected): {diff}"
        return None


def timed_pass(jobs: List[Job], inputs, systems, gate: Gate,
               rng: random.Random, tracer=None) -> Dict[str, Any]:
    """One pass over the job list in a seed-permuted order."""
    order = list(jobs)
    rng.shuffle(order)
    records = []
    wall = 0.0
    for job in order:
        inp = inputs[job.instance]
        impl = systems.get(job.instance)
        gc.collect()
        error = None
        verdict, counts = None, {}
        start = time.perf_counter()
        with tracer.job(job.id) if tracer else nullcontext() as stats:
            try:
                verdict, counts = run_job(job, inp, impl, stats)
            except Exception as exc:  # a raising job is a failed job
                error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer:
            tracer.outcomes[job.id] = (verdict, counts)
        wall += seconds
        if error is None:
            error = gate.check(job, inp.bench, verdict, counts)
        if error is not None:
            print(f"FAILED {job.id}: {error}", file=sys.stderr, flush=True)
        records.append({"id": job.id, "seconds": seconds, "ok": error is None})
    return {"wall_s": wall, "jobs": records}


def peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(own, children))


def serial_reference(jobs: List[Job], inputs) -> float:
    """Serial explore seconds of the ``par2`` instances (speedup base)."""
    total = 0.0
    for job in jobs:
        inp = inputs[job.instance]
        gc.collect()
        start = time.perf_counter()
        explore(inp.program, ClientConfig(job.threads, job.ops, inp.workload))
        total += time.perf_counter() - start
    return total


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(WORKLOADS), default="full")
    parser.add_argument("--flip-expect", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    needs_systems, jobs = WORKLOADS[args.size][args.workload]
    inputs = build_inputs(jobs)
    if args.probe:
        return 0
    gate = Gate(args.size, args.flip_expect)
    rng = random.Random(args.seed)

    tracer = None
    if args.trace:
        from trace_layers import Tracer  # only the traced run loads wrappers

        tracer = Tracer(sys.modules[__name__], args.workload)

    preexplore_s = 0.0
    systems: Dict[Tuple, Any] = {}
    if needs_systems:
        start = time.perf_counter()
        with tracer.installed() if tracer else nullcontext():
            systems = preexplore(jobs, inputs, tracer)
        preexplore_s = time.perf_counter() - start

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(timed_pass(jobs, inputs, systems, gate, rng))
        if time.perf_counter() - start >= args.seconds:
            break

    result: Dict[str, Any] = {"preexplore_s": preexplore_s, "passes": passes}
    if tracer is not None:
        serial_s = serial_reference([job for job in jobs if job.kind == "par2"], inputs)
        with tracer.installed():
            traced = timed_pass(jobs, inputs, systems, gate, rng, tracer=tracer)
        result["traced_pass"] = traced
        result["trace"] = tracer.report(
            untraced_pass_s=[p["wall_s"] for p in passes],
            traced_pass_s=traced["wall_s"],
            serial_s=serial_s,
            workers=PAR_WORKERS,
            full_states=gate.full_states,
        )
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    result["peak_rss_kb"] = peak_rss_kb()
    result["tracer_loaded"] = "trace_layers" in sys.modules
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
