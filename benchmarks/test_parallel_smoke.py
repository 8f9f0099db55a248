"""Bench smoke: sharded exploration, byte-identical and replay-light.

``hm_list`` 2x2 with two forked workers.  Two gates, both
machine-independent:

* the ``.aut`` dump is byte-identical to serial exploration (the
  parallel determinism contract);
* supervisor replay -- the serial-order DFS over the interned integer
  successor lists plus building the LTS from them -- takes at most
  **10%** of the parallel explore wall time.  Replay is the part of the
  supervisor that cannot be sharded, so this ratio bounds how much the
  worker pool can ever gain; it was about 25% when replay re-hashed
  every state key.

Absolute timings (serial vs 1 vs 2 workers) live in
``BENCH_parallel.json``, written by ``scripts/bench_parallel.py``.
"""

from repro.core.aut import dumps_aut
from repro.lang import ClientConfig, explore
from repro.objects import get
from repro.parallel import ParallelConfig, parallel_explore
from repro.util.metrics import Stats

#: Gated share of replay in the parallel explore wall time.
MAX_REPLAY_SHARE = 0.10


def test_parallel_explore_matches_serial_with_light_replay():
    bench = get("hm_list")
    program = bench.build(2)
    config = ClientConfig(
        num_threads=2, ops_per_thread=2, workload=bench.default_workload()
    )
    serial = dumps_aut(explore(program, config))

    stats = Stats()
    lts = parallel_explore(
        program, config, ParallelConfig(workers=2), stats=stats
    )
    assert dumps_aut(lts) == serial

    wall = stats.stage_seconds["explore"]
    replay = stats.counters["explore.replay_us"] / 1e6
    assert replay <= MAX_REPLAY_SHARE * wall, (
        f"replay took {replay:.3f}s of {wall:.3f}s parallel explore "
        f"({replay / wall:.0%} > {MAX_REPLAY_SHARE:.0%})"
    )
