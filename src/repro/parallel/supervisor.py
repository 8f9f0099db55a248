"""Supervisor side of fault-tolerant sharded exploration.

The parallel layer splits exploration into two halves with very
different costs:

* **expansion** -- computing the successor edges of a state by running
  the interpreter.  Expensive, embarrassingly parallel, and order-free:
  the edges of a state do not depend on when (or where) any other state
  was expanded.  This half is shipped to worker processes.
* **interning** -- assigning dense state ids in discovery order.
  Cheap, but *order-defining*: the ``.aut`` output is a function of the
  interning order.  This half never leaves the supervisor.

The supervisor explores in **waves**: the current frontier is chunked
into shards and farmed out; workers return each shard's edge lists in
shard key order.  The supervisor *interns* every state key exactly
once, when it first arrives, under a dense provisional id (*pid*), and
stores each expansion as compact integer records -- an edge-kind id
(label + annotation, from a small table) and a destination pid.  The
pids discovered in one wave are the next wave's frontier.  When the
table covers the reachable closure, the supervisor *replays* a serial
DFS from the initial pid over the integer successor lists -- pop, push
unseen destinations in recorded order -- which yields the serial
exploration's interning order; the frozen system is then built
straight from integers (no key hashing, no per-edge label interning).
Its ``.aut`` dump is byte-identical to a serial run, no matter how
shards were scheduled, retried or reassigned.  State keys are
type-exact (:func:`repro.lang.values.tag`), so ``==`` on keys is
content identity and any representative of a key renders the same.

Failure model (see ``docs/ROBUSTNESS.md``):

crash
    EOF / broken pipe on a worker's result pipe (SIGKILL, OOM-kill,
    ``os._exit``).  The worker's in-flight shard is requeued.
hang
    No frame (result, progress heartbeat, hello) from a busy worker
    within ``heartbeat_timeout``.  The worker is killed and its shard
    requeued.
corruption
    A result frame failing the CRC check (:class:`ProtocolError`).
    Treated as a crash: kill, respawn, requeue.

Requeues use capped exponential backoff (:data:`REQUEUE_POLICY`); a
shard failing more than :data:`MAX_SHARD_RETRIES` times triggers
*degradation* -- the worker target drops by one, and at zero the
supervisor finishes the remaining expansions in-process (plain serial
code under the global budget).  On budget exhaustion or SIGINT every
completed expansion is salvaged into a resumable checkpoint: the
serial-prefix replay stops at the first state with no recorded
expansion (exactly a serial safe point, so a *serial* ``--resume``
works unchanged) and the not-yet-replayed expansions ride along in
``Checkpoint.expansions`` so a *parallel* resume loses no finished work
either.  Keys and edge tuples exist only at that boundary: salvage
converts pids back to keys, resume interns the checkpoint's keys into
fresh pids.

Workers come from one of two transports, chosen by the input: with no
``remote`` addresses :class:`LocalForkTransport` forks children over
pipes; with them :class:`repro.parallel.remote.RemoteTransport` dials
``repro worker --listen`` processes over TCP/Unix sockets.  Both
produce endpoints with the same ``fileno``/``send_frame``/``read_chunk``
surface, so dispatch, acks, hang detection and the whole failure model
above are shared verbatim.  The network adds its own failure kinds on
top -- connection loss (redialed under a decorrelated-jitter backoff
with a retry budget), silent sockets (the existing heartbeat grace
window), corrupted frames (the existing CRC rejection), and
wave-boundary *partitions* that sever every remote at once -- and one
extra degradation rung: when the whole remote pool is written off, the
supervisor salvages a checkpoint and falls back to local forks before
the final in-process-serial rung.  ``remote`` is imported lazily (only
when remote addresses are given): it pulls in
:mod:`repro.service.channel`, whose package ``__init__`` imports the
daemon, which imports this module back.
"""

from __future__ import annotations

import heapq
import os
import selectors
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.lts import LTS, LTSBuilder
from ..lang.checkpoint import Checkpoint, CheckpointSink, fingerprint
from ..lang.client import ExpansionContext, StateExplosion
from ..util.budget import (
    REASON_DEADLINE,
    BudgetExhausted,
    RunBudget,
    child_allowance,
)
from ..util.metrics import Stats
from ..util.retry import BackoffPolicy
from .faults import FaultPlan
from .protocol import (
    MSG_ACK,
    MSG_ERROR,
    MSG_EXHAUSTED,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_PROGRESS,
    MSG_RESULT,
    MSG_SHARD,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from .worker import HEARTBEAT_SECONDS, kind_key, pack_edges, worker_main

#: Upper bound on one ``select`` wait, so SIGINT tokens, backoff expiry
#: and hang deadlines are observed promptly.
_POLL_SECONDS = 0.25

#: Requeues a single shard may consume before the supervisor degrades
#: (drops the worker target by one).
MAX_SHARD_RETRIES = 3

#: Delay before the n-th requeue of a shard: ``min(0.05 * 2**(n-1),
#: 2.0)`` seconds, without jitter -- shard requeues are serialized
#: through one supervisor, so there is no herd to de-synchronize and
#: determinism matters more.  :data:`repro.parallel.remote.REDIAL_POLICY`
#: is the same schedule with decorrelated jitter.
REQUEUE_POLICY = BackoffPolicy(base=0.05, cap=2.0)


@dataclass
class ParallelConfig:
    """What a command line sets for sharded exploration.

    Validated on construction (``ValueError``), so a bad worker count or
    heartbeat window is refused before any worker is provisioned -- the
    CLI reports it as a usage error.  Everything else (heartbeat
    interval, retry and redial budgets, backoff, socket timeouts) is a
    module constant: :data:`repro.parallel.worker.HEARTBEAT_SECONDS`,
    :data:`MAX_SHARD_RETRIES`, :data:`REQUEUE_POLICY` and the
    ``REDIAL_*``/``*_TIMEOUT`` constants of :mod:`repro.parallel.remote`.
    """

    #: Worker process target.  ``1`` still exercises the full protocol
    #: (one child); the CLI maps ``--workers 0`` to plain serial explore
    #: before a supervisor is ever built.
    workers: int = 2
    #: Frontier keys per shard message.
    shard_states: int = 128
    #: Seconds without any frame from a busy worker before it is
    #: declared hung, killed, and its shard requeued.  Workers heartbeat
    #: *between* state expansions, every ``HEARTBEAT_SECONDS``, so this
    #: must exceed both that interval and the slowest single
    #: ``expand()`` call -- a state that legitimately takes longer is
    #: indistinguishable from a stall by silence alone and would be
    #: killed (and requeued, and killed again) on every retry until the
    #: pool degrades to serial.
    heartbeat_timeout: float = 10.0
    #: Injected failures (``kill:1@40,stall:*@10`` ...); see
    #: :mod:`repro.parallel.faults`.
    fault_plan: Optional[FaultPlan] = None
    #: Remote worker addresses (``host:port`` or Unix socket paths) of
    #: ``repro worker --listen`` processes; non-empty selects the remote
    #: transport.  Address ``i`` owns the stable worker index ``i``
    #: across redials, so fault plans can target a specific machine.
    remote: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1 and not self.remote:
            raise ValueError("ParallelConfig.workers must be >= 1")
        if self.heartbeat_timeout <= HEARTBEAT_SECONDS:
            # A hang deadline at (or below) the heartbeat interval would
            # make every busy worker look stalled; refuse the config
            # instead of silently kill-looping (see docs/ROBUSTNESS.md).
            raise ValueError(
                f"ParallelConfig.heartbeat_timeout ({self.heartbeat_timeout}) "
                f"must exceed the {HEARTBEAT_SECONDS}s heartbeat interval"
            )


@dataclass
class _Worker:
    """A forked pipe worker, presenting the shared endpoint surface.

    :class:`repro.parallel.remote.RemoteEndpoint` duck-types the same
    ``fileno``/``send_frame``/``read_chunk``/``close`` methods over a
    socket, which is what lets the supervisor's event loop treat forked
    and remote workers identically.
    """

    index: int
    pid: int
    cmd: Any                     # buffered writer over the command pipe
    res_fd: int
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    shard: Optional[Tuple[int, List[Any]]] = None
    last_frame: float = 0.0
    acked: bool = False          # pipe workers never ack; stays False

    is_remote = False            # class attr, not a dataclass field

    def fileno(self) -> int:
        return self.res_fd

    def send_frame(self, data: bytes) -> None:
        self.cmd.write(data)
        self.cmd.flush()

    def read_chunk(self) -> bytes:
        return os.read(self.res_fd, 1 << 16)

    def close(self, kill: bool = True) -> None:
        if kill:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.cmd.close()
        except Exception:
            pass
        try:
            os.close(self.res_fd)
        except Exception:
            pass
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass

    def close_in_child(self) -> None:
        """Drop a forked child's inherited copies of this worker's fds."""
        try:
            self.cmd.close()
        except Exception:
            pass
        try:
            os.close(self.res_fd)
        except Exception:
            pass


class LocalForkTransport:
    """Default provisioning: fork a pipe worker per provision call."""

    def provision(self, sup: "Supervisor") -> Optional[_Worker]:
        return sup._spawn()

    def on_lost(self, sup: "Supervisor", endpoint: Any, kind: str) -> None:
        pass

    def partition(self, sup: "Supervisor") -> None:
        pass  # no network to sever

    def capacity_wait(self, sup: "Supervisor") -> Optional[float]:
        return None


class Supervisor:
    """One parallel exploration run (see module docstring)."""

    def __init__(
        self,
        program: Any,
        config: Any,
        parallel: ParallelConfig,
        budget: Optional[RunBudget] = None,
        stats: Optional[Stats] = None,
    ) -> None:
        self.program = program
        self.config = config
        self.parallel = parallel
        self.budget = budget
        self.stats = stats
        self.context = ExpansionContext(program, config)
        self.init_key = self.context.initial_key()
        self.run_id: Optional[Dict[str, Any]] = None

        # Interning: each state key is hashed once, on first arrival.
        self.pids: Dict[Any, int] = {}          # key -> pid
        self.keys: List[Any] = []               # pid -> key
        # pid -> flat [kind, dst_pid, kind, dst_pid, ...] in expansion
        # order, or None while the state is unexpanded.
        self.succ: List[Optional[List[int]]] = []
        self.kinds: List[Tuple[Any, Any]] = []  # kind -> (label, annotation)
        self.kind_ids: Dict[Any, int] = {}      # kind_key(...) -> kind
        self.trans_count = 0
        self.init_pid = self._intern(self.init_key)

        # scheduling state
        self.target = max(parallel.workers, len(parallel.remote), 1)
        self.workers: Dict[int, Any] = {}       # index -> endpoint
        self.selector = selectors.DefaultSelector()
        self.pending: deque = deque()           # (shard_id, pids)
        self.backoff: List[Tuple[float, int, List[int]]] = []  # heap
        self.retries: Dict[int, int] = {}
        self.next_shard_id = 0
        # Remote address slots own the stable indices 0..R-1; forked
        # workers allocate above them, so a redialed slot never collides
        # with a fork's index.
        self.next_worker_index = len(parallel.remote)
        self.wave = 0
        self._checkpoint_sink: Optional[CheckpointSink] = None
        if parallel.remote:
            # Lazy import: remote pulls in repro.service.channel, whose
            # package __init__ imports the daemon, which imports this
            # module back (see module docstring).
            from .remote import RemoteTransport

            self.transport: Any = RemoteTransport(tuple(parallel.remote))
        else:
            self.transport = LocalForkTransport()

    # ------------------------------------------------------------------
    # counters (None-safe)
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.stats is not None and amount:
            self.stats.count(name, amount)

    def _clock(self) -> float:
        """Start of a timed sub-stage; no clock read without a sink."""
        return time.perf_counter() if self.stats is not None else 0.0

    def _count_us(self, name: str, started: float) -> None:
        if self.stats is not None:
            self.stats.count(
                name, int((time.perf_counter() - started) * 1_000_000)
            )

    # ------------------------------------------------------------------
    # the interned expansion table
    # ------------------------------------------------------------------
    def _intern(self, key: Any) -> int:
        pid = self.pids.get(key)
        if pid is None:
            pid = self.pids[key] = len(self.keys)
            self.keys.append(key)
            self.succ.append(None)
        return pid

    def _kind_id(self, label: Any, annotation: Any) -> int:
        key = kind_key(label, annotation)
        kid = self.kind_ids.get(key)
        if kid is None:
            kid = self.kind_ids[key] = len(self.kinds)
            self.kinds.append((label, annotation))
        return kid

    def _record(self, pids: List[int], body: Tuple[Any, ...]) -> None:
        """Store a :func:`pack_edges` body for ``pids`` (same order),
        interning each destination key on first sight."""
        kinds, dsts, counts, edges = body
        kind_ids = [self._kind_id(label, ann) for label, ann in kinds]
        dst_ids = [self._intern(key) for key in dsts]
        succ = self.succ
        at = 0
        for pid, count in zip(pids, counts):
            end = at + 2 * count
            if succ[pid] is None:
                flat: List[int] = []
                for j in range(at, end, 2):
                    flat.append(kind_ids[edges[j]])
                    flat.append(dst_ids[edges[j + 1]])
                succ[pid] = flat
                self.trans_count += count
            at = end

    def _edges(self, pid: int) -> List[Any]:
        """Expanded ``pid``'s edges as ``(label, dst_key, annotation)``."""
        flat = self.succ[pid]
        return [
            (self.kinds[k][0], self.keys[d], self.kinds[k][1])
            for k, d in zip(flat[0::2], flat[1::2])
        ]

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> Optional[_Worker]:
        index = self.next_worker_index
        try:
            cmd_r, cmd_w = os.pipe()
            res_r, res_w = os.pipe()
            pid = os.fork()
        except OSError:
            # Cannot create processes/pipes: degrade all the way down and
            # let the in-process fallback finish the run.
            self.target = 0
            return None
        if pid == 0:  # child
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(cmd_w)
                os.close(res_r)
                # Close the parent-side pipe fds of every sibling
                # inherited through fork, or their EOFs would be delayed
                # until this child exits too.  (Forks never coexist with
                # remote endpoints: a remote pool forks only once every
                # slot is dead.)
                for sibling in self.workers.values():
                    try:
                        sibling.close_in_child()
                    except Exception:
                        pass
                worker_main(
                    index, self.context, cmd_r, res_w,
                    fault_plan=self.parallel.fault_plan,
                )
            finally:
                os._exit(1)
        os.close(cmd_r)
        os.close(res_w)
        os.set_blocking(res_r, False)
        worker = _Worker(
            index=index, pid=pid, cmd=os.fdopen(cmd_w, "wb"),
            res_fd=res_r, last_frame=time.monotonic(),
        )
        self.next_worker_index += 1
        return self._register(worker)

    def _register(self, worker: Any) -> Any:
        """Adopt an endpoint (forked or remote) into the event loop."""
        self.workers[worker.index] = worker
        self.selector.register(worker.fileno(), selectors.EVENT_READ, worker)
        # A remote handshake may have decoded frames beyond hello
        # (heartbeats from an eager worker); feed them through now so
        # last_frame bookkeeping starts correct.
        pop = getattr(worker, "pop_initial_frames", None)
        if pop is not None:
            for frame in pop():
                self._handle_frame(worker, frame)
        return worker

    def _reap(self, worker: Any, kill: bool = True) -> None:
        """Tear one endpoint down (kill/close, unregister, wait)."""
        self.workers.pop(worker.index, None)
        try:
            self.selector.unregister(worker.fileno())
        except (KeyError, ValueError, OSError):
            pass
        worker.close(kill=kill)

    _FAIL_COUNTERS = {
        "crash": "worker_crashes",
        "hang": "worker_hangs",
        "corrupt": "corrupt_frames",
        "partition": "partition_drops",
    }

    def _fail_worker(self, worker: Any, kind: str) -> None:
        """Recover from a crashed / hung / corrupting / severed worker."""
        self._count(self._FAIL_COUNTERS[kind])
        if getattr(worker, "is_remote", False) and kind != "partition":
            self._count("remote_disconnects")
        self._reap(worker)
        if kind != "partition" and self.parallel.fault_plan is not None:
            # A fired injected fault must not re-arm in the respawned
            # replacement (forked from this, the supervisor's, copy --
            # or redialed with the current plan shipped in init).  A
            # partition is supervisor-side and not attributable to any
            # one worker, so it retires nothing here.
            self.parallel.fault_plan.mark_fired(worker.index)
        self.transport.on_lost(self, worker, kind)
        if worker.shard is not None:
            if getattr(worker, "is_remote", False) and not worker.acked:
                # The shard frame never reached the worker (no ack):
                # this is a delivery failure, not a shard that keeps
                # killing its host -- replay it immediately without
                # charging a retry.  The redial backoff already paces
                # reconnection, so this cannot hot-loop.
                self._count("unacked_requeues")
                self.pending.appendleft(worker.shard)
            else:
                self._requeue(worker.shard)
            worker.shard = None

    def _shutdown(self) -> None:
        for worker in list(self.workers.values()):
            self._reap(worker)

    # ------------------------------------------------------------------
    # shard scheduling
    # ------------------------------------------------------------------
    def _make_shards(self, frontier: List[int]) -> None:
        """Chunk a wave's frontier pids into shards and queue them."""
        size = max(1, self.parallel.shard_states)
        for lo in range(0, len(frontier), size):
            self.pending.append((self.next_shard_id, frontier[lo:lo + size]))
            self.next_shard_id += 1
            self._count("shards")

    def _requeue(self, shard: Tuple[int, List[int]]) -> None:
        shard_id, _pids = shard
        attempts = self.retries.get(shard_id, 0) + 1
        self.retries[shard_id] = attempts
        self._count("requeues")
        if attempts > MAX_SHARD_RETRIES:
            # This shard keeps killing whoever runs it: shrink the pool.
            self.target = max(0, self.target - 1)
            self.retries[shard_id] = 0
            self._count("degraded_workers")
        delay = REQUEUE_POLICY.delay(attempts)
        heapq.heappush(self.backoff, (time.monotonic() + delay, *shard))

    def _promote_backoff(self) -> None:
        now = time.monotonic()
        while self.backoff and self.backoff[0][0] <= now:
            _ready, shard_id, pids = heapq.heappop(self.backoff)
            self.pending.append((shard_id, pids))

    def _dispatch(self) -> None:
        """Hand pending shards to idle workers, provisioning up to target."""
        while self.pending:
            worker = next(
                (w for w in self.workers.values() if w.shard is None), None
            )
            if worker is None:
                if len(self.workers) >= self.target:
                    return
                worker = self.transport.provision(self)
                if worker is None:
                    return
            shard = self.pending.popleft()
            allowance = child_allowance(self.budget)
            started = self._clock()
            keys = self.keys
            frame = encode_frame((
                MSG_SHARD, shard[0], [keys[pid] for pid in shard[1]],
                allowance,
            ))
            self._count_us("encode_us", started)
            try:
                worker.send_frame(frame)
            except (BrokenPipeError, OSError):
                self.pending.appendleft(shard)
                self._fail_worker(worker, "crash")
                continue
            worker.shard = shard
            worker.acked = False
            worker.last_frame = time.monotonic()

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def _record_result(
        self, worker: Any, shard_id: int, body: Tuple[Any, ...]
    ) -> None:
        if worker.shard is None or worker.shard[0] != shard_id:
            # Stale frame from a reassigned shard (e.g. a worker that
            # was declared hung but finished anyway): dropping it here
            # is what makes reassignment exactly-once -- only the
            # current assignee's result is recorded.
            self._count("stale_results")
            return
        self._record(worker.shard[1], body)
        worker.shard = None

    def _handle_frame(self, worker: Any, frame: Tuple[Any, ...]) -> None:
        worker.last_frame = time.monotonic()
        kind = frame[0]
        if kind in (MSG_HELLO, MSG_PROGRESS, MSG_HEARTBEAT):
            return
        if kind == MSG_ACK:
            # Remote shard receipt: on a later connection loss this is
            # how "died mid-shard" (retry charged) is told apart from
            # "shard never arrived" (requeued for free).
            if worker.shard is not None and worker.shard[0] == frame[2]:
                worker.acked = True
                self._count("shard_acks")
            return
        if kind == MSG_RESULT:
            _k, _idx, shard_id, body, busy_us = frame
            self._record_result(worker, shard_id, body)
            self._count(f"worker{worker.index}_busy_us", busy_us)
            self._count("worker_busy_us", busy_us)
            return
        if kind == MSG_EXHAUSTED:
            # The shard outran its budget slice (the remaining global
            # deadline or the RSS cap).  Worker is healthy; the shard goes back with a retry
            # charged -- repeated exhaustion degrades towards serial,
            # where only the global budget applies.
            self._count("shard_exhaustions")
            if worker.shard is not None and worker.shard[0] == frame[2]:
                self._requeue(worker.shard)
                worker.shard = None
            return
        if kind == MSG_ERROR:
            self._count("shard_errors")
            if worker.shard is not None:
                self._requeue(worker.shard)
                worker.shard = None
            return

    def _poll(self, timeout: float) -> None:
        for key, _events in self.selector.select(timeout):
            worker: Any = key.data
            while True:  # drain until EAGAIN so big results land fast
                try:
                    data = worker.read_chunk()
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    self._fail_worker(worker, "crash")
                    break
                if not data:
                    self._fail_worker(worker, "crash")
                    break
                started = self._clock()
                try:
                    frames = worker.decoder.feed(data)
                except ProtocolError:
                    self._fail_worker(worker, "corrupt")
                    break
                self._count_us("decode_us", started)
                for frame in frames:
                    self._handle_frame(worker, frame)

    def _check_hangs(self) -> None:
        deadline = self.parallel.heartbeat_timeout
        now = time.monotonic()
        for worker in list(self.workers.values()):
            if worker.shard is not None and now - worker.last_frame > deadline:
                self._fail_worker(worker, "hang")

    # ------------------------------------------------------------------
    # budget / caps
    # ------------------------------------------------------------------
    def _check_budget(self, backlog: int) -> None:
        budget = self.budget
        if budget is not None:
            budget.check(
                "explore",
                states=len(self.keys),
                transitions=self.trans_count,
                frontier=backlog,
            )
            # RunBudget strides its clock probe for tight loops; this
            # loop ticks every _POLL_SECONDS, so probe the deadline
            # unconditionally for prompt salvage.
            remaining = budget.remaining_seconds()
            if remaining is not None and remaining < 0:
                budget.exhaust(
                    REASON_DEADLINE, "explore",
                    f"deadline={budget.deadline_seconds:.2f}s",
                    states=len(self.keys),
                    transitions=self.trans_count,
                    frontier=backlog,
                )
        max_states = self.config.effective_max_states()
        if max_states is not None and len(self.keys) > max_states:
            raise StateExplosion(
                f"{self.program.name}: more than {max_states} states",
                states=len(self.keys),
                transitions=self.trans_count,
                frontier=backlog,
            )

    # ------------------------------------------------------------------
    # deterministic replay
    # ------------------------------------------------------------------
    def _replay(
        self, stop_on_missing: bool
    ) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Serial-DFS replay over the integer successor lists.

        Returns ``(order, serial, popped, stack)``: the pids in serial
        interning order, the serial id of every pid (``-1`` when the
        replay never reached it), the pids expanded in serial pop order,
        and the pids left on the DFS stack.  With ``stop_on_missing``
        the replay halts at the first popped pid without a recorded
        expansion (that pid is pushed back, so ``stack`` is exactly a
        serial frontier at a safe point).  Without it, a missing
        expansion is a bug -- the wave loop guarantees closure.
        """
        succ = self.succ
        init = self.init_pid
        serial = [-1] * len(succ)
        serial[init] = 0
        order = [init]
        popped: List[int] = []
        stack = [init]
        while stack:
            pid = stack.pop()
            flat = succ[pid]
            if flat is None:
                if stop_on_missing:
                    stack.append(pid)
                    break
                raise AssertionError(
                    "expansion table does not cover the reachable closure"
                )
            popped.append(pid)
            for dst in flat[1::2]:
                if serial[dst] < 0:
                    serial[dst] = len(order)
                    order.append(dst)
                    stack.append(dst)
        return order, serial, popped, stack

    def _build(
        self, order: List[int], serial: List[int], popped: List[int]
    ) -> LTS:
        """The serial run's LTS, straight from the integer table:
        ``order`` states, the edges of ``popped`` in pop order, actions
        interned on first use in that order (as serial interns them)."""
        lts = LTS()
        lts.add_states(len(order))
        lts.init = 0
        succ, kinds = self.succ, self.kinds
        action = [-1] * len(kinds)
        srcs: List[int] = []
        aids: List[int] = []
        dsts: List[int] = []
        anns: List[Any] = []
        for pid in popped:
            src = serial[pid]
            flat = succ[pid]
            for at in range(0, len(flat), 2):
                kind = flat[at]
                aid = action[kind]
                if aid < 0:
                    aid = action[kind] = lts.action_id(kinds[kind][0])
                srcs.append(src)
                aids.append(aid)
                dsts.append(serial[flat[at + 1]])
                anns.append(kinds[kind][1])
        lts.extend_by_id(srcs, aids, dsts, anns)
        return lts

    def _salvage_checkpoint(self) -> Checkpoint:
        started = self._clock()
        order, serial, popped, stack = self._replay(stop_on_missing=True)
        lts = self._build(order, serial, popped)
        self._count_us("replay_us", started)
        keys = self.keys
        replayed = set(popped)
        leftover = {
            keys[pid]: self._edges(pid)
            for pid, flat in enumerate(self.succ)
            if flat is not None and pid not in replayed
        }
        return Checkpoint(
            fingerprint=self.run_id,
            builder=LTSBuilder.from_states(lts, [keys[p] for p in order]),
            frontier=[serial[pid] for pid in stack],
            expansions=leftover or None,
        )

    # ------------------------------------------------------------------
    # resume
    # ------------------------------------------------------------------
    def _load_resume(self, resume: Checkpoint) -> List[int]:
        """Rebuild the expansion table from a checkpoint (serial or
        parallel) and return the initial frontier."""
        resume.validate(self.run_id)
        builder = resume.builder
        keys = builder.state_keys
        labels = builder.lts.action_labels
        pids = [self._intern(key) for key in keys]
        frontier_ids = set(resume.frontier)
        # A checkpoint's builder holds edges only for expanded states --
        # every state off the frontier -- each expanded exactly once with
        # its edges in insertion order, so grouping by source
        # reconstructs expand() output.
        edges: Dict[int, List[Any]] = {
            sid: [] for sid in range(len(keys)) if sid not in frontier_ids
        }
        for src, aid, dst, ann in builder.lts.transitions_with_annotations():
            if src in edges:
                edges[src].append((labels[aid], keys[dst], ann))
        for sid, sid_edges in edges.items():
            self._record([pids[sid]], pack_edges([sid_edges]))
        for key, key_edges in resume.salvaged_expansions().items():
            self._record([self._intern(key)], pack_edges([key_edges]))
        # Frontier = every discovered-but-unexpanded pid: the checkpoint
        # frontier plus destinations only reachable through salvaged
        # (never replayed) expansions.
        return [pid for pid, flat in enumerate(self.succ) if flat is None]

    # ------------------------------------------------------------------
    # in-process fallback
    # ------------------------------------------------------------------
    def _expand_serial(self, pids: List[int]) -> None:
        for done, pid in enumerate(pids):
            if self.succ[pid] is not None:
                continue
            self._check_budget(backlog=len(pids) - done)
            edges = self.context.expand(self.keys[pid])
            self._record([pid], pack_edges([edges]))

    def _drain_serial(self) -> None:
        """Finish all queued shards in-process (fully degraded mode)."""
        # A still-busy worker's in-flight shard must be requeued before
        # the pool is torn down (_reap only dismantles the process), or
        # its keys would never be expanded and the final replay could
        # not cover the reachable closure.  Degrading to target == 0
        # while another worker is mid-shard is exactly the recovery
        # path where this matters.
        for worker in self.workers.values():
            if worker.shard is not None:
                self.pending.append(worker.shard)
                worker.shard = None
        self._shutdown()
        while self.backoff:
            _ready, shard_id, pids = heapq.heappop(self.backoff)
            self.pending.append((shard_id, pids))
        while self.pending:
            _shard_id, pids = self.pending.popleft()
            self._expand_serial(pids)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(
        self,
        checkpoint: Optional[CheckpointSink] = None,
        resume: Optional[Checkpoint] = None,
    ) -> Any:
        """Explore to closure and return the frozen LTS.

        Raises :class:`BudgetExhausted` (after salvaging a checkpoint
        into ``checkpoint``, when given) exactly like serial
        :func:`repro.lang.client.explore`.
        """
        if checkpoint is not None or resume is not None:
            self.run_id = fingerprint(self.program, self.config)
        self._checkpoint_sink = checkpoint
        if resume is not None:
            frontier = self._load_resume(resume)
        else:
            frontier = [self.init_pid]
        try:
            try:
                self._run_waves(frontier, checkpoint)
            except BudgetExhausted:
                if checkpoint is not None:
                    checkpoint.save(self._salvage_checkpoint())
                raise
        finally:
            self._shutdown()
        started = self._clock()
        order, serial, popped, _stack = self._replay(stop_on_missing=False)
        lts = self._build(order, serial, popped)
        self._count_us("replay_us", started)
        return lts.freeze()

    def _force_partition(self) -> None:
        """Sever every remote connection at once (injected ``partition``).

        The transport writes its whole remote pool off, which triggers
        the outage path below -- exactly what a real network partition
        at a wave boundary would do, minus the waiting.
        """
        self._count("partitions")
        for worker in [
            w for w in self.workers.values()
            if getattr(w, "is_remote", False)
        ]:
            self._fail_worker(worker, "partition")
        self.transport.partition(self)

    def _on_remote_outage(self) -> None:
        """Every remote slot is dead: salvage before degrading locally.

        Called (once) by the transport.  The run continues -- provision
        falls back to local forks, and failing that to in-process
        serial -- but the checkpoint guarantees no completed expansion
        is lost even if the degraded continuation is later killed.
        """
        self._count("remote_outages")
        sink = self._checkpoint_sink
        if sink is not None:
            try:
                sink.save(self._salvage_checkpoint())
            except Exception:
                pass  # salvage here is best-effort; exhaustion re-saves

    def _run_waves(
        self, frontier: List[int], checkpoint: Optional[CheckpointSink]
    ) -> None:
        wave = list(frontier)
        while True:
            # Pids interned from here on are this wave's discoveries.
            discovered = len(self.keys)
            self.wave += 1
            plan = self.parallel.fault_plan
            if plan is not None:
                fault = plan.next_supervisor_fault(self.wave)
                if fault is not None:
                    fault.fired = True
                    self._force_partition()
            if wave:
                self._make_shards(wave)
            # drain the current wave
            while self.pending or self.backoff or any(
                w.shard is not None for w in self.workers.values()
            ):
                backlog = len(self.pending) + len(self.backoff) + sum(
                    1 for w in self.workers.values() if w.shard is not None
                )
                self._check_budget(backlog)
                if checkpoint is not None and checkpoint.due():
                    checkpoint.save(self._salvage_checkpoint())
                self._promote_backoff()
                if self.target == 0:
                    self._drain_serial()
                    continue
                self._dispatch()
                busy = any(
                    w.shard is not None for w in self.workers.values()
                )
                if busy:
                    timeout = _POLL_SECONDS
                    if self.backoff:
                        timeout = min(
                            timeout,
                            max(0.0, self.backoff[0][0] - time.monotonic()),
                        )
                    self._poll(timeout)
                    self._check_hangs()
                elif self.backoff:
                    time.sleep(
                        min(
                            _POLL_SECONDS,
                            max(0.0, self.backoff[0][0] - time.monotonic()),
                        )
                    )
                elif self.pending:
                    # Shards are queued but no capacity exists *yet*:
                    # remote slots are between redial attempts.  Wait
                    # out the shorter of one poll tick and the next due
                    # redial.
                    wait = _POLL_SECONDS
                    due = self.transport.capacity_wait(self)
                    if due is not None:
                        wait = min(wait, max(0.01, due))
                    time.sleep(wait)
            missing = [pid for pid in wave if self.succ[pid] is None]
            if missing:
                # Shards can complete without covering every pid only
                # through a logic error; expand directly rather than
                # looping forever.
                self._expand_serial(missing)
            wave = list(range(discovered, len(self.keys)))
            if not wave:
                return


#: Why the on-the-fly (streaming) pipelines run serial exploration even
#: when ``--workers`` is given.  The sharded supervisor reproduces the
#: serial interning order only at *wave* granularity: inside a wave,
#: shard results arrive in nondeterministic order and are replayed into
#: the builder at the merge barrier.  A fused verdict engine consumes
#: expansions mid-wave in its own search order, so a violation could be
#: observed before the supervisor has established the serial prefix the
#: witness reconstruction (and checkpoint compatibility) rely on.
#: Rather than report witnesses against an unstable interning, streaming
#: mode degrades to in-process serial exploration; pipelines count the
#: degrade in their stats sink (``onthefly_serial_degradations``) and
#: the CLI prints this reason once.
STREAMING_SERIAL_REASON = (
    "on-the-fly verification consumes expansions in search order, which "
    "the sharded supervisor only reproduces at wave granularity; "
    "streaming runs degrade to serial in-process exploration"
)


def maybe_parallel_explore(
    program: Any,
    config: Any,
    parallel: Optional[ParallelConfig] = None,
    stats: Optional[Stats] = None,
    budget: Optional[RunBudget] = None,
    checkpoint: Optional[CheckpointSink] = None,
    resume: Optional[Checkpoint] = None,
) -> Any:
    """Serial or sharded exploration behind one signature.

    ``parallel=None`` is plain in-process
    :func:`repro.lang.client.explore`; a :class:`ParallelConfig` shards
    the exploration through a supervisor.  The verification pipelines
    call this so one ``parallel=`` argument reaches ``lin`` /
    ``lockfree`` unchanged.
    """
    if parallel is None:
        from ..lang.client import explore

        return explore(
            program, config, stats=stats, budget=budget,
            checkpoint=checkpoint, resume=resume,
        )
    return parallel_explore(
        program, config, parallel, stats=stats, budget=budget,
        checkpoint=checkpoint, resume=resume,
    )


def parallel_explore(
    program: Any,
    config: Any,
    parallel: ParallelConfig,
    stats: Optional[Stats] = None,
    budget: Optional[RunBudget] = None,
    checkpoint: Optional[CheckpointSink] = None,
    resume: Optional[Checkpoint] = None,
) -> Any:
    """Sharded :func:`repro.lang.client.explore` (same contract).

    The returned frozen system is byte-identical (as a ``.aut`` dump) to
    the serial function's result; on exhaustion the salvaged checkpoint
    is serial-compatible.  ``stats`` gains supervisor counters (shards,
    requeues, worker crashes/hangs, corrupt frames, degradations,
    per-worker busy time) under the ``explore`` stage.
    """
    supervisor = Supervisor(
        program, config, parallel, budget=budget, stats=stats
    )
    if stats is None:
        return supervisor.run(checkpoint=checkpoint, resume=resume)
    with stats.stage("explore"):
        lts = supervisor.run(checkpoint=checkpoint, resume=resume)
        stats.count("states", lts.num_states)
        stats.count("transitions", lts.num_transitions)
    return lts
