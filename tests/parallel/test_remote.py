"""Remote worker pool: sharding over sockets with the network-fault model.

Workers here run as *threads* inside the test process (``WorkerRuntime``
is synchronous and socket-driven, so a daemon thread serves exactly like
a separate host would).  That keeps the suite hermetic -- but it also
means the process-level fault kinds (``kill``, ``exit``) must never be
injected into these runtimes: they would take the test process down.
Process-level faults are covered by ``scripts/remote_smoke.py``, which
spawns real worker processes.
"""

import socket
import threading
import time

import pytest

from repro.core.aut import dumps_aut
from repro.lang import ClientConfig, explore
from repro.lang.checkpoint import CheckpointSink, load_checkpoint
from repro.objects import get
from repro.parallel import FaultPlan, ParallelConfig, parallel_explore
from repro.parallel import remote, supervisor
from repro.parallel.codec import WIRE_PYTHON, dumps_program
from repro.parallel.protocol import (
    MSG_ERROR,
    MSG_INIT,
    WIRE_PROTOCOL,
    FrameDecoder,
    encode_frame,
)
from repro.parallel.remote import WorkerRuntime
from repro.util.metrics import Stats
from repro.util.retry import BackoffPolicy


def _bench_config(key="treiber", threads=2, ops=1):
    # ops=1 keeps systems small: worker threads share the GIL with the
    # supervisor here, so big state spaces explore far slower than the
    # separate-process runs in scripts/remote_smoke.py.
    bench = get(key)
    program = bench.build(threads)
    config = ClientConfig(
        num_threads=threads,
        ops_per_thread=ops,
        workload=bench.default_workload(),
    )
    return program, config


class _WorkerThread:
    """A WorkerRuntime served from a daemon thread, with cleanup."""

    def __init__(self, fault_plan=None):
        self.runtime = WorkerRuntime(
            listen="127.0.0.1:0", fault_plan=FaultPlan.parse(fault_plan),
        )
        self.address = self.runtime.bind()
        self.thread = threading.Thread(
            target=self.runtime.serve_forever, daemon=True
        )
        self.thread.start()

    def stop(self):
        self.runtime.stop()
        self.thread.join(timeout=10.0)


@pytest.fixture
def worker():
    worker = _WorkerThread()
    yield worker
    worker.stop()


def _remote_parallel(*addresses, workers=0, **kwargs):
    return ParallelConfig(
        workers=workers, shard_states=16,
        remote=tuple(addresses), **kwargs,
    )


# ----------------------------------------------------------------------
# fault-free remote pool
# ----------------------------------------------------------------------

def test_remote_pool_matches_serial(worker):
    program, config = _bench_config()
    serial = dumps_aut(explore(program, config))
    stats = Stats()
    lts = parallel_explore(
        program, config, _remote_parallel(worker.address), stats=stats,
    )
    assert dumps_aut(lts) == serial
    assert stats.counters["explore.shard_acks"] > 0


def test_one_worker_serves_sequential_runs(worker):
    # Sessions are serial per worker; a finished run must leave the
    # worker accepting the next supervisor.
    program, config = _bench_config()
    serial = dumps_aut(explore(program, config))
    for _ in range(2):
        lts = parallel_explore(
            program, config, _remote_parallel(worker.address),
        )
        assert dumps_aut(lts) == serial
    # The session counter ticks when the worker side finishes its
    # teardown, slightly after the supervisor returns: poll briefly.
    deadline = time.monotonic() + 5.0
    while worker.runtime.sessions_served < 2 \
            and time.monotonic() < deadline:
        time.sleep(0.02)
    assert worker.runtime.sessions_served == 2


# ----------------------------------------------------------------------
# network faults: drop-conn / corrupt-frame recover byte-identically
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec,counter", [
    ("drop-conn:*@20", "explore.remote_disconnects"),
    ("corrupt-frame:*@10", "explore.corrupt_frames"),
])
def test_network_fault_recovery_is_byte_identical(spec, counter):
    program, config = _bench_config()
    serial = dumps_aut(explore(program, config))
    worker = _WorkerThread(fault_plan=spec)  # local injection wins
    try:
        stats = Stats()
        lts = parallel_explore(
            program, config, _remote_parallel(worker.address), stats=stats,
        )
        assert dumps_aut(lts) == serial
        assert stats.counters[counter] >= 1
        assert stats.counters["explore.remote_redials"] >= 1
    finally:
        worker.stop()


# ----------------------------------------------------------------------
# degradation ladder and partition salvage
# ----------------------------------------------------------------------

def test_dead_remotes_degrade_to_local_forks(monkeypatch):
    program, config = _bench_config()
    serial = dumps_aut(explore(program, config))
    stats = Stats()
    # Nothing listens on these; a tiny redial budget and short backoff
    # keep it quick.
    monkeypatch.setattr(remote, "REDIAL_BUDGET", 1)
    monkeypatch.setattr(remote, "REDIAL_POLICY", BackoffPolicy(
        base=0.01, cap=0.05, decorrelated=True,
    ))
    monkeypatch.setattr(supervisor, "REQUEUE_POLICY", BackoffPolicy(
        base=0.01, cap=0.05,
    ))
    parallel = ParallelConfig(
        workers=2, shard_states=16,
        remote=("127.0.0.1:9", "127.0.0.1:10"),
    )
    lts = parallel_explore(program, config, parallel, stats=stats)
    assert dumps_aut(lts) == serial
    assert stats.counters["explore.remote_slots_dead"] == 2
    assert stats.counters["explore.remote_outages"] == 1
    assert stats.counters["explore.degraded_to_local"] == 1


def test_forced_partition_salvages_checkpoint_and_degrades(tmp_path, worker):
    program, config = _bench_config()
    serial = dumps_aut(explore(program, config))
    path = tmp_path / "salvage.ckpt"
    stats = Stats()
    parallel = _remote_parallel(
        worker.address, fault_plan=FaultPlan.parse("partition@2"),
    )
    lts = parallel_explore(
        program, config, parallel, stats=stats,
        checkpoint=CheckpointSink(str(path)),
    )
    # The run still completes (local-fork rung) and stays exact.
    assert dumps_aut(lts) == serial
    assert stats.counters["explore.partitions"] == 1
    assert stats.counters["explore.remote_outages"] == 1
    assert stats.counters["explore.degraded_to_local"] == 1
    # The salvage checkpoint left at the partition is serial-loadable.
    assert path.exists()
    assert load_checkpoint(str(path)) is not None


# ----------------------------------------------------------------------
# handshake: the wire protocol version must match
# ----------------------------------------------------------------------

def _refusal(address, init):
    """Send one ``init`` to a worker and return its one reply frame."""
    host, _, port = address.rpartition(":")
    decoder = FrameDecoder()
    with socket.create_connection((host, int(port)), timeout=10.0) as sock:
        sock.sendall(encode_frame(init))
        frames = []
        while not frames:
            data = sock.recv(1 << 16)
            assert data, "worker closed without replying"
            frames.extend(decoder.feed(data))
    return frames[0]


@pytest.mark.parametrize("protocol", [WIRE_PROTOCOL + 1, None])
def test_worker_refuses_another_wire_protocol(worker, protocol):
    # A supervisor speaking another payload version (or protocol 1,
    # whose init carried no version) is refused with one clear line
    # instead of a session that misreads result frames.
    program, config = _bench_config()
    init = (MSG_INIT, 0, WIRE_PYTHON, protocol,
            dumps_program(program, config), 0.25, None)
    if protocol is None:
        init = init[:3] + init[4:]
    reply = _refusal(worker.address, init)
    assert reply[0] == MSG_ERROR
    assert reply[3].startswith("wire protocol mismatch: supervisor speaks "
                               f"{protocol or 1}, worker speaks "
                               f"{WIRE_PROTOCOL}")
    assert "\n" not in reply[3]
    # The refusal does not take the worker down.
    serial = dumps_aut(explore(program, config))
    lts = parallel_explore(program, config, _remote_parallel(worker.address))
    assert dumps_aut(lts) == serial

