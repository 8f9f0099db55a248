#!/usr/bin/env python
"""CSR construction and the core stages that build on it, per stage.

Two parts:

* ``big`` -- treiber 2x3 and ms_queue 3x1 (the pipeline benchmark's
  ``quotient-big`` instances), explored once each, then the median wall
  seconds over ``--reps`` runs of every stage that builds a
  ``FrozenLTS`` or consumes one, on the pre-explored system:

  - ``freeze`` -- ``LTS.freeze()`` of the explorer's own builder;
  - ``reduce`` -- ``reduce_lts(impl, divergence=True)``;
  - ``partition`` -- divergence-sensitive branching partition of the
    reduced system (``reduce=False``; no construction inside, so it is
    the stage that should not move);
  - ``quotient`` -- ``quotient_lts`` of the branching partition;
  - ``disjoint_union`` -- ``disjoint_union(impl, quotient)``, the pair
    the lock-freedom check compares;
  - ``lin`` / ``lockfree`` -- ``check_linearizability`` and
    ``check_lock_freedom_auto`` with ``impl_system=`` (what a
    ``quotient-big`` pass runs);

  plus, from one extra untimed ``lin`` and ``lockfree`` check each,
  the number of ``LTS._append`` calls (per-edge builder appends) in
  total and inside ``disjoint_union`` / ``reduce_lts``.
* ``explore_freeze`` -- the six ``lin-serial`` objects at 2x2: median
  seconds of ``LTS.freeze()`` on the explorer's builder.

The script uses only names present on both sides of the change, so one
script measures both::

    PYTHONPATH=src python scripts/bench_lts.py --label after \\
        --out BENCH_lts.json

``--out`` merges the run into the file under ``--label`` (other labels
are kept).
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

from repro.core import (
    LTS,
    branching_partition,
    disjoint_union,
    quotient_lts,
    reduce_lts,
)
from repro.lang import ClientConfig
from repro.lang.client import StreamingExplorer
from repro.objects import get
from repro.verify.linearizability import check_linearizability
from repro.verify.lockfree import check_lock_freedom_auto

#: ``(object, threads, ops)`` of the pipeline benchmark's ``quotient-big``.
BIG = (("treiber", 2, 3), ("ms_queue", 3, 1))

#: The objects of the pipeline benchmark's ``lin-serial`` workload (2x2).
LIN_SERIAL = "hm_list,ms_queue,treiber,hm_list_buggy,treiber_hp_buggy,hw_queue"


def _builder(key, threads, ops):
    """The explorer's mutable system (what ``explore`` freezes)."""
    bench = get(key)
    config = ClientConfig(threads, ops, bench.default_workload())
    explorer = StreamingExplorer(bench.build(threads), config)
    explorer.drain()
    return explorer.builder.lts


def _median(fn, reps):
    seconds = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - started)
    return round(statistics.median(seconds), 3)


def count_appends(fn):
    """``fn()`` with ``LTS._append`` counted: ``(total, inside)`` where
    ``inside`` counts the calls made under ``disjoint_union`` or
    ``reduce_lts``."""
    targets = {disjoint_union.__code__, reduce_lts.__code__}
    original = LTS._append
    total = inside = 0

    def counted(self, *args):
        nonlocal total, inside
        total += 1
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in targets:
                inside += 1
                break
            frame = frame.f_back
        return original(self, *args)

    LTS._append = counted
    try:
        fn()
    finally:
        LTS._append = original
    return total, inside


def measure_big(key, threads, ops, reps):
    bench = get(key)
    builder = _builder(key, threads, ops)
    impl = builder.freeze()
    program = bench.build(threads)
    spec = bench.spec()
    workload = bench.default_workload()
    reduced = reduce_lts(impl, divergence=True)
    quotient = quotient_lts(impl, branching_partition(impl, reduce=True))

    def lin():
        result = check_linearizability(
            program, spec, threads, ops, workload=workload, impl_system=impl,
        )
        assert result.linearizable == bench.expect_linearizable

    def lockfree():
        result = check_lock_freedom_auto(
            program, threads, ops, workload=workload, impl_system=impl,
        )
        assert result.lock_free == bench.expect_lock_free

    row = {
        "states": impl.num_states,
        "transitions": impl.num_transitions,
        "freeze_s": _median(builder.freeze, reps),
        "reduce_s": _median(lambda: reduce_lts(impl, divergence=True), reps),
        "partition_s": _median(
            lambda: branching_partition(reduced.lts, divergence=True), reps
        ),
        "quotient_s": _median(
            lambda: quotient_lts(impl, branching_partition(impl, reduce=True)), reps
        ),
        "disjoint_union_s": _median(lambda: disjoint_union(impl, quotient.lts), reps),
        "lin_s": _median(lin, reps),
        "lockfree_s": _median(lockfree, reps),
    }
    for name, fn in (("lin", lin), ("lockfree", lockfree)):
        total, inside = count_appends(fn)
        row[f"{name}_appends"] = total
        row[f"{name}_appends_in_union_reduce"] = inside
    return row


def measure(reps):
    big = {}
    for key, threads, ops in BIG:
        row = measure_big(key, threads, ops, reps)
        big[f"{key}:{threads}x{ops}"] = row
        print(key, json.dumps(row), flush=True)
    explore_freeze = {}
    for key in LIN_SERIAL.split(","):
        builder = _builder(key, 2, 2)
        explore_freeze[key] = {
            "transitions": builder.num_transitions,
            "freeze_s": _median(builder.freeze, reps),
        }
        print(key, json.dumps(explore_freeze[key]), flush=True)
    return {
        "reps": reps,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "big": big,
        "explore_freeze": explore_freeze,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", help="merge the run into this JSON file")
    args = parser.parse_args(argv)
    result = measure(args.reps)
    if args.out:
        merged = {}
        if os.path.exists(args.out):
            with open(args.out) as handle:
                merged = json.load(handle)
        merged[args.label] = result
        with open(args.out, "w") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        json.dump(result, sys.stdout, indent=2)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
