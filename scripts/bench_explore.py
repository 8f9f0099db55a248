#!/usr/bin/env python
"""Serial exploration of the lin-serial objects, per object.

Explores each object at 2x2 (default workload) serially and records:

* ``explore_s`` -- median wall seconds over ``--reps`` runs;
* ``canonicalize_calls`` -- calls through ``canonicalize`` as bound in
  ``repro.lang.client`` (one per generated edge, plus the initial
  state), from one extra, untimed run;
* ``step_misses`` -- the ``explore.step_misses`` counter (thread steps
  executed rather than served by the step memo); ``null`` on a source
  tree without the memo;
* ``states`` and ``transitions``.

The script uses only public names, so one script measures both sides of
a change::

    PYTHONPATH=src python scripts/bench_explore.py --label after \\
        --out BENCH_explore.json

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

import repro.lang.client as client
from repro.lang import ClientConfig, explore
from repro.objects import get
from repro.util.metrics import Stats

#: The objects of the pipeline benchmark's ``lin-serial`` workload.
OBJECTS = "hm_list,ms_queue,treiber,hm_list_buggy,treiber_hp_buggy,hw_queue"


def _counted_run(program, config):
    calls = 0
    original = client.canonicalize

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    client.canonicalize = counted
    try:
        stats = Stats()
        lts = explore(program, config, stats=stats)
    finally:
        client.canonicalize = original
    return {
        "canonicalize_calls": calls,
        "step_misses": stats.counters.get("explore.step_misses"),
        "states": lts.num_states,
        "transitions": lts.num_transitions,
    }


def measure(keys, reps):
    objects = {}
    for key in keys:
        bench = get(key)
        program = bench.build(2)
        config = ClientConfig(2, 2, bench.default_workload())
        seconds = []
        for _ in range(reps):
            started = time.perf_counter()
            explore(program, config)
            seconds.append(time.perf_counter() - started)
        row = {"explore_s": round(statistics.median(seconds), 3)}
        row.update(_counted_run(program, config))
        objects[key] = row
        print(key, json.dumps(row), flush=True)
    return {
        "reps": reps,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "objects": objects,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", default=OBJECTS)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", help="merge the run into this JSON file")
    args = parser.parse_args(argv)
    result = measure(args.objects.split(","), args.reps)
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
