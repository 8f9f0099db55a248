"""Record ``expected.json``: the state counts and digests the gate checks.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    PYTHONPATH=src python3 perfbench/record.py

Each job of each profile runs once, untraced.  ``par2`` jobs record the
counts and the ``.aut`` sha256 of the *serial* ``explore`` of the same
instance, so the parallel run is checked against serial output.  The
verdicts are not recorded: the gate takes them from the registry's
``expect_linearizable`` / ``expect_lock_free``.  ``full_states`` holds
the full object-system size of each on-the-fly FALSE instance that
explores within ``FULL_STATES_CAP`` states (the base of
``onthefly.expanded_frac``).
"""

from __future__ import annotations

import json
import sys

import bench
from repro.lang import ClientConfig, StateExplosion, explore

FULL_STATES_CAP = 300_000


def record_profile(profile: str) -> dict:
    jobs_out, full_states, too_big = {}, {}, set()
    for workload, (needs_systems, jobs) in bench.WORKLOADS[profile].items():
        inputs = bench.build_inputs(jobs)
        systems = bench.preexplore(jobs, inputs) if needs_systems else {}
        for job in jobs:
            inp = inputs[job.instance]
            instance = job.id.split(":", 1)[1]
            if job.kind == "par2":
                counts = bench.aut_counts(explore(
                    inp.program, ClientConfig(job.threads, job.ops, inp.workload)))
            else:
                verdict, counts = bench.run_job(job, inp, systems.get(job.instance), None)
                if verdict is False and job.kind.startswith("otf-") \
                        and instance not in full_states and instance not in too_big:
                    config = ClientConfig(job.threads, job.ops, inp.workload,
                                          max_states=FULL_STATES_CAP)
                    try:
                        full_states[instance] = explore(inp.program, config).num_states
                    except StateExplosion:
                        print(f"{instance}: more than {FULL_STATES_CAP} states",
                              file=sys.stderr)
                        too_big.add(instance)
            jobs_out[job.id] = counts
            print(f"{profile} {workload} {job.id} {counts}", file=sys.stderr, flush=True)
    return {"jobs": jobs_out, "full_states": full_states}


def main() -> int:
    expected = {
        "comment": "Written by perfbench/record.py; checked on every pass.",
        "profiles": {profile: record_profile(profile) for profile in ("tiny", "full")},
    }
    with open(bench.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
