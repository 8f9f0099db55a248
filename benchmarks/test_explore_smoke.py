"""Bench smoke: serial exploration and its step memo.

``hm_list`` 2x2, serial.  Two gates, both counts, so host load cannot
move them:

* the ``.aut`` dump's sha256 equals the digest the pipeline benchmark
  records for the same instance (``perfbench/expected.json``, read
  only) -- the memo must not change a single byte;
* the step memo serves at least **80%** of the per-thread expansions:
  ``1 - step_misses / (states * threads)``.  Every state expands every
  thread slot once, and a thread's steps depend only on the globals,
  the heap and its own record, which recur across states.

Before/after explore seconds per object live in ``BENCH_explore.json``.
"""

import hashlib
import json
import pathlib

from repro.core.aut import dumps_aut
from repro.lang import ClientConfig, explore
from repro.objects import get
from repro.util.metrics import Stats

EXPECTED = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"

#: Gated share of per-thread expansions served by the step memo.
MIN_HIT_RATE = 0.80


def test_serial_explore_is_byte_identical_and_memo_served():
    bench = get("hm_list")
    threads = 2
    config = ClientConfig(threads, 2, bench.default_workload())
    stats = Stats()
    lts = explore(bench.build(threads), config, stats=stats)

    expected = json.loads(EXPECTED.read_text())
    job = expected["profiles"]["full"]["jobs"]["par2:hm_list:2x2/v2"]
    digest = hashlib.sha256(dumps_aut(lts).encode()).hexdigest()
    assert digest == job["aut_sha256"]

    misses = stats.counters["explore.step_misses"]
    hit_rate = 1 - misses / (lts.num_states * threads)
    assert hit_rate >= MIN_HIT_RATE, (
        f"step memo served {hit_rate:.1%} of {lts.num_states * threads} "
        f"per-thread expansions (< {MIN_HIT_RATE:.0%})"
    )
