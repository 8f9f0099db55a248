#!/usr/bin/env python
"""Serial vs sharded exploration, end to end and per supervisor layer.

Explores each object at 2x2 (default workload) serially, then with 1
and 2 local-fork workers, and records the median over ``--reps`` runs
of:

* ``explore_s`` -- wall seconds of the exploration;
* ``worker_busy_s`` -- summed worker expansion time;
* ``replay_s`` -- supervisor serial-order replay plus LTS build;
* ``decode_s`` -- supervisor result-frame decoding (unpickling);
* ``encode_s`` -- supervisor shard encoding (pickling).

The last three come from the supervisor's ``explore.replay_us`` /
``decode_us`` / ``encode_us`` counters.  On a source tree without those
counters the script times the same regions by wrapping
``Supervisor._replay``, ``FrameDecoder.feed`` and the supervisor's
``encode_frame`` instead (``"layers": "wrapped"``), so one script
measures both sides of a change::

    PYTHONPATH=src python scripts/bench_parallel.py --label after \\
        --out BENCH_parallel.json

``--out`` merges the run into the file under ``--label`` (other labels
are kept).  Every parallel ``.aut`` dump is checked byte-for-byte
against serial; a mismatch exits 1.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

from repro.core.aut import dumps_aut
from repro.lang import ClientConfig, explore
from repro.objects import get
from repro.parallel import ParallelConfig, parallel_explore
from repro.parallel import protocol, supervisor
from repro.util.metrics import Stats

LAYERS = ("replay", "decode", "encode")


class _Wrapped:
    """Times the supervisor layers by wrapping them (older trees)."""

    def __init__(self):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self._originals = []

    def _wrap(self, owner, name, layer):
        original = getattr(owner, name)

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds[layer] += time.perf_counter() - started

        setattr(owner, name, timed)
        self._originals.append((owner, name, original))

    def __enter__(self):
        self._wrap(supervisor.Supervisor, "_replay", "replay")
        self._wrap(protocol.FrameDecoder, "feed", "decode")
        self._wrap(supervisor, "encode_frame", "encode")
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)


def _config(bench):
    return ClientConfig(
        num_threads=2, ops_per_thread=2, workload=bench.default_workload()
    )


def _parallel_run(bench, workers, serial_aut, has_counters):
    stats = Stats()
    program = bench.build(2)
    parallel = ParallelConfig(workers=workers)
    if has_counters:
        lts = parallel_explore(program, _config(bench), parallel, stats=stats)
        layers = {
            f"{layer}_s": stats.counters[f"explore.{layer}_us"] / 1e6
            for layer in LAYERS
        }
    else:
        with _Wrapped() as wrapped:
            lts = parallel_explore(
                program, _config(bench), parallel, stats=stats
            )
        layers = {f"{k}_s": v for k, v in wrapped.seconds.items()}
    if dumps_aut(lts) != serial_aut:
        raise SystemExit(f"{bench.key}: {workers} workers differ from serial")
    return {
        "explore_s": stats.stage_seconds["explore"],
        "worker_busy_s": stats.counters.get("explore.worker_busy_us", 0) / 1e6,
        **layers,
    }


def _median(runs):
    return {
        key: round(statistics.median(run[key] for run in runs), 3)
        for key in runs[0]
    }


def measure(keys, reps):
    probe = Stats()
    bench = get(keys[0])
    parallel_explore(
        bench.build(2), ClientConfig(2, 1, bench.default_workload()),
        ParallelConfig(workers=1), stats=probe,
    )
    has_counters = "explore.replay_us" in probe.counters
    objects = {}
    for key in keys:
        bench = get(key)
        serial_aut = None
        serial = []
        for _ in range(reps):
            started = time.perf_counter()
            lts = explore(bench.build(2), _config(bench))
            serial.append({"explore_s": time.perf_counter() - started})
            serial_aut = dumps_aut(lts)
        row = {"serial": _median(serial)}
        for workers in (1, 2):
            row[f"workers{workers}"] = _median([
                _parallel_run(bench, workers, serial_aut, has_counters)
                for _ in range(reps)
            ])
        row["speedup2"] = round(
            row["serial"]["explore_s"] / row["workers2"]["explore_s"], 2
        )
        objects[key] = row
        print(key, json.dumps(row), flush=True)
    return {
        "layers": "counters" if has_counters else "wrapped",
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
    parser.add_argument("--objects", default="hm_list,ms_queue")
    parser.add_argument("--reps", type=int, default=3)
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
