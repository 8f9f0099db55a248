"""Remote worker pool: sharded exploration over RPX1 sockets.

The forked supervisor of :mod:`repro.parallel.supervisor` speaks the
same wave protocol over sockets through this module.  Three pieces:

* :class:`WorkerRuntime` -- the worker side (``repro worker --listen``).
  It accepts supervisor connections on a TCP/Unix socket and serves
  one exploration session per connection: receive ``init`` (program +
  config + heartbeat cadence + fault plan), rebuild the
  :class:`~repro.lang.client.ExpansionContext` locally, answer
  ``hello``, then loop shards through the exact
  :func:`repro.parallel.worker.run_shard` core the forked workers use
  -- acking each shard on receipt and heartbeating while idle so
  silence always means trouble.

* :class:`RemoteEndpoint` -- the supervisor-side view of one connected
  remote session, presenting the same duck-typed surface as a forked
  ``_Worker`` (``fileno``/``send_frame``/``read_chunk``) so the
  supervisor's selector loop, hang detection and requeue logic need no
  transport branches.

* :class:`RemoteTransport` -- the socket pool, plugging into the same
  slot as the supervisor's default
  :class:`~repro.parallel.supervisor.LocalForkTransport`; the
  supervisor uses it exactly when ``ParallelConfig.remote`` names
  addresses.  The supervisor delegates worker *provisioning* to its
  transport; everything after an endpoint exists (dispatch, acks,
  results, failure recovery) is transport-agnostic.

Failure model on top of the forked pool's (see docs/ROBUSTNESS.md):
connection loss requeues the in-flight shard exactly once (stale late
results are dropped by shard-id, as before) and schedules a redial
under :data:`REDIAL_POLICY` with a per-address budget of
:data:`REDIAL_BUDGET` failures; a stalled socket is caught by the same
heartbeat grace window as a stalled pipe; a corrupted frame kills the
connection via the CRC check; and when every remote address is spent
the supervisor salvages a checkpoint and walks the degradation ladder:
remote -> local forks -> in-process serial.  Byte-identical output is
preserved throughout because interning never leaves the supervisor.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import time
import traceback
from typing import Any, List, Optional, Tuple

from ..lang.client import ExpansionContext
from ..service.channel import (
    ServiceError,
    ServiceTimeout,
    SocketFrameChannel,
    listen_socket,
    parse_address,
)
from ..util.retry import BackoffPolicy
from .codec import WIRE_PYTHON, dumps_program, loads_program
from .faults import STALL_SECONDS, FaultPlan
from .protocol import (
    MAX_FRAME_BYTES,
    MSG_ACK,
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_INIT,
    MSG_SHARD,
    MSG_STOP,
    WIRE_PROTOCOL,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from .worker import HEARTBEAT_SECONDS, run_shard

#: Ceiling on consecutive failed (re)dials of one remote address
#: before the supervisor writes it off; a successful handshake resets
#: the count.
REDIAL_BUDGET = 3

#: Per-connect (dial + init/hello handshake) deadline, seconds.
CONNECT_TIMEOUT = 5.0

#: Bound on how long one frame send to a remote worker may block the
#: supervisor before the connection is declared lost, seconds.
SEND_TIMEOUT = 30.0

#: Redial schedule: the supervisor's requeue base/cap
#: (:data:`repro.parallel.supervisor.REQUEUE_POLICY`), but with
#: decorrelated jitter -- several supervisors (or one supervisor with
#: several slots) redialing one recovered host must not stampede it.
REDIAL_POLICY = BackoffPolicy(base=0.05, cap=2.0, decorrelated=True)


class SessionDrop(Exception):
    """Injected ``drop-conn``: abort the session's socket abruptly."""


def _dial(spec: str, timeout: float) -> socket.socket:
    family, address = parse_address(spec)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(address)
    except BaseException:
        sock.close()
        raise
    return sock


# ----------------------------------------------------------------------
# supervisor side: endpoint + transports
# ----------------------------------------------------------------------
class RemoteEndpoint:
    """One connected remote worker session, as the supervisor sees it.

    Duck-type compatible with the forked ``_Worker``: the supervisor
    polls :meth:`fileno` through its selector, drains bytes with
    :meth:`read_chunk` (non-blocking; ``b""`` means the connection
    died), and ships frames with :meth:`send_frame` (bounded by
    :data:`SEND_TIMEOUT` -- a peer that stops draining its socket is a
    connection loss, not a supervisor hang).
    """

    is_remote = True

    def __init__(
        self,
        index: int,
        sock: socket.socket,
        decoder: FrameDecoder,
        address: str,
        initial_frames: Optional[List[Any]] = None,
    ) -> None:
        self.index = index
        self.sock = sock
        self.decoder = decoder
        self.address = address
        self._initial_frames = list(initial_frames or ())
        self.shard: Optional[Tuple[int, List[Any]]] = None
        self.acked = False
        self.last_frame = time.monotonic()

    def fileno(self) -> int:
        return self.sock.fileno()

    def pop_initial_frames(self) -> List[Any]:
        """Frames decoded during the handshake, after ``hello``."""
        frames, self._initial_frames = self._initial_frames, []
        return frames

    def send_frame(self, data: bytes) -> None:
        deadline = time.monotonic() + SEND_TIMEOUT
        view = memoryview(data)
        while view:
            try:
                sent = self.sock.send(view)
            except (BlockingIOError, InterruptedError):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"send to {self.address} timed out "
                        f"({SEND_TIMEOUT}s)"
                    ) from None
                select.select([], [self.sock], [], min(remaining, 0.25))
                continue
            view = view[sent:]

    def read_chunk(self) -> bytes:
        return self.sock.recv(1 << 16)

    def close(self, kill: bool = True) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _handshake(
    sock: socket.socket,
    index: int,
    address: str,
    program: Any,
    config: Any,
    fault_plan: Optional[FaultPlan],
) -> RemoteEndpoint:
    """``init``/``hello`` over a fresh socket -> a ready endpoint.

    The fault plan shipped is the supervisor's *current* copy: faults
    already retired by :meth:`FaultPlan.mark_fired` stay retired, so a
    redialed session does not re-arm a fault that already killed a
    predecessor (exactly the fork-respawn semantics).
    """
    sock.settimeout(CONNECT_TIMEOUT)
    sock.sendall(encode_frame((
        MSG_INIT, index, WIRE_PYTHON, WIRE_PROTOCOL,
        dumps_program(program, config), HEARTBEAT_SECONDS, fault_plan,
    )))
    decoder = FrameDecoder(max_frame_bytes=MAX_FRAME_BYTES)
    frames: List[Any] = []
    while not frames:
        data = sock.recv(1 << 16)
        if not data:
            raise ConnectionError(f"{address}: closed during handshake")
        frames.extend(decoder.feed(data))
    hello = frames.pop(0)
    if isinstance(hello, tuple) and len(hello) == 4 and hello[0] == MSG_ERROR:
        raise ConnectionError(f"{address}: worker refused: {hello[3]}")
    if not (isinstance(hello, tuple) and hello and hello[0] == MSG_HELLO):
        raise ConnectionError(f"{address}: expected hello, got {hello!r}")
    sock.setblocking(False)
    return RemoteEndpoint(index, sock, decoder, address, frames)


def _handshake_refusal(wire_python: Tuple[int, ...], protocol: Any) -> Optional[str]:
    """Why a worker must refuse this supervisor's ``init``, if it must."""
    if wire_python != WIRE_PYTHON:
        return (
            f"python mismatch: supervisor runs "
            f"{wire_python[0]}.{wire_python[1]}, worker runs "
            f"{WIRE_PYTHON[0]}.{WIRE_PYTHON[1]} (programs ship "
            f"as marshal'd bytecode, so major.minor must agree)"
        )
    if protocol != WIRE_PROTOCOL:
        return (
            f"wire protocol mismatch: supervisor speaks {protocol}, worker "
            f"speaks {WIRE_PROTOCOL} (run the same repro version on both "
            f"sides)"
        )
    return None


class _RemoteSlot:
    """One configured remote address and its connection lifecycle."""

    __slots__ = (
        "address", "index", "schedule", "failures", "next_attempt",
        "endpoint", "dead", "ever_connected",
    )

    def __init__(self, address: str, index: int, schedule) -> None:
        self.address = address
        self.index = index            # stable across redials, so fault
        self.schedule = schedule      # plans can target an address
        self.failures = 0
        self.next_attempt = 0.0
        self.endpoint: Optional[RemoteEndpoint] = None
        self.dead = False
        self.ever_connected = False


class RemoteTransport:
    """Socket-backed worker pool over fixed ``--remote`` addresses.

    ``addresses`` get stable worker indices ``0..len-1`` (redials
    reuse the index, so ``--fault-plan 'drop-conn:1@50'`` keeps naming
    the second ``--remote`` address).

    Degradation: local forks are provisioned only once *every* address
    slot is dead (redial budget exhausted or partitioned), at which
    point the supervisor has already salvaged a checkpoint -- the
    ladder's last rung (in-process serial) is the supervisor's
    pre-existing target==0 fallback.
    """

    def __init__(self, addresses: Tuple[str, ...]) -> None:
        self.slots = [
            _RemoteSlot(address, idx, REDIAL_POLICY.session())
            for idx, address in enumerate(addresses)
        ]
        self._outage_reported = False
        self._fell_back_to_forks = False

    # -- provisioning --------------------------------------------------
    def provision(self, sup) -> Optional[Any]:
        now = time.monotonic()
        for slot in self.slots:
            if slot.endpoint is not None or slot.dead:
                continue
            if slot.next_attempt > now:
                continue
            endpoint = self._connect_slot(sup, slot)
            if endpoint is not None:
                sup._register(endpoint)
                return endpoint
        if all(s.dead for s in self.slots):
            if not self._fell_back_to_forks:
                self._fell_back_to_forks = True
                sup._count("degraded_to_local")
            return sup._spawn()
        # Remote capacity is (re)connecting; the supervisor waits
        # instead of forking prematurely.
        return None

    def _connect_slot(self, sup, slot: _RemoteSlot) -> Optional[RemoteEndpoint]:
        try:
            sock = _dial(slot.address, CONNECT_TIMEOUT)
            endpoint = _handshake(
                sock, slot.index, slot.address,
                sup.context.program, sup.context.config,
                sup.parallel.fault_plan,
            )
        except (OSError, ProtocolError, ConnectionError):
            self._redial_failed(sup, slot)
            return None
        slot.failures = 0
        slot.schedule = REDIAL_POLICY.session()
        slot.endpoint = endpoint
        if slot.ever_connected:
            sup._count("remote_redials")
        slot.ever_connected = True
        return endpoint

    def _redial_failed(self, sup, slot: _RemoteSlot) -> None:
        slot.failures += 1
        sup._count("remote_redial_failures")
        if slot.failures > REDIAL_BUDGET:
            slot.dead = True
            sup._count("remote_slots_dead")
            self._note_outage(sup)
        else:
            slot.next_attempt = time.monotonic() + slot.schedule.next_delay()

    def _note_outage(self, sup) -> None:
        if all(s.dead for s in self.slots) and not self._outage_reported:
            self._outage_reported = True
            sup._on_remote_outage()

    # -- loss / partition ----------------------------------------------
    def on_lost(self, sup, endpoint, kind: str) -> None:
        if not getattr(endpoint, "is_remote", False):
            return
        slot = self.slots[endpoint.index]
        slot.endpoint = None
        if kind == "partition":
            slot.dead = True  # outage accounting runs in partition()
            return
        self._redial_failed(sup, slot)

    def partition(self, sup) -> None:
        for slot in self.slots:
            slot.dead = True
            slot.endpoint = None
        self._note_outage(sup)

    def capacity_wait(self, sup) -> Optional[float]:
        """Seconds until the next slot redial is due (None = no slot)."""
        waits = [
            max(0.0, slot.next_attempt - time.monotonic())
            for slot in self.slots
            if slot.endpoint is None and not slot.dead
        ]
        return min(waits) if waits else None


# ----------------------------------------------------------------------
# worker side: the remote runtime behind ``repro worker``
# ----------------------------------------------------------------------
class WorkerRuntime:
    """A remote exploration worker serving supervisors that dial ``listen``.

    ``fault_plan`` injects failures locally, overriding whatever plan
    the supervisor ships -- the knob CI uses to wound a specific worker
    process no matter which supervisor reaches it first.

    The runtime is single-threaded and serves sessions sequentially;
    scale-out is more worker processes, not threads (expansion is
    CPU-bound).  :meth:`stop` is safe from another thread: it closes
    the live sockets, which breaks any blocking accept/recv.
    """

    def __init__(
        self,
        listen: str,
        fault_plan: Optional[FaultPlan] = None,
        max_sessions: Optional[int] = None,
        init_timeout: float = 30.0,
    ) -> None:
        self.listen = listen
        self.fault_plan = fault_plan if fault_plan else None
        self.max_sessions = max_sessions
        self.init_timeout = init_timeout
        self.sessions_served = 0
        self.address: Optional[str] = None
        self._sock: Optional[socket.socket] = None
        self._active: Optional[SocketFrameChannel] = None
        self._stopped = False

    # -- lifecycle -----------------------------------------------------
    def bind(self) -> str:
        """Bind the listen socket; returns the *bound* address.

        TCP specs may use port 0 -- the kernel-assigned port is
        resolved into the returned address (and ``self.address``), so
        tests and scripts can start workers without picking ports.
        """
        self._sock = listen_socket(self.listen)
        family, _addr = parse_address(self.listen)
        if family == "tcp":
            host, port = self._sock.getsockname()[:2]
            self.address = f"{host}:{port}"
        else:
            self.address = self.listen
        return self.address

    def stop(self) -> None:
        self._stopped = True
        for closeable in (self._sock, self._active):
            if closeable is not None:
                try:
                    closeable.close()
                except OSError:
                    pass

    def serve_forever(self) -> int:
        """Serve sessions until stopped; returns sessions served."""
        if self._sock is None:
            self.bind()
        # A bounded accept timeout, not a blocking accept: closing a
        # listen socket does not reliably wake a thread already blocked
        # in accept(), so stop() from another thread (tests, signal
        # handlers) must be noticed by polling _stopped.
        self._sock.settimeout(0.2)
        try:
            while not self._stopped:
                if self.max_sessions is not None \
                        and self.sessions_served >= self.max_sessions:
                    break
                try:
                    conn, _peer = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # stop() closed the listen socket
                conn.settimeout(None)
                channel = SocketFrameChannel(
                    conn, max_frame_bytes=MAX_FRAME_BYTES
                )
                if self._run_session(channel):
                    self.sessions_served += 1
        finally:
            self.stop()
        return self.sessions_served

    # -- one session ---------------------------------------------------
    def _run_session(self, channel: SocketFrameChannel) -> bool:
        """Serve one supervisor connection; True once init was seen."""
        self._active = channel
        try:
            try:
                message = channel.recv(timeout=self.init_timeout)
            except ServiceError:  # includes ServiceTimeout
                return False
            if not (isinstance(message, tuple) and message
                    and message[0] == MSG_INIT):
                return False
            if len(message) == 6:  # protocol-1 supervisors sent no version
                message = message[:3] + (1,) + message[3:]
            _, index, wire_python, protocol, blob, heartbeat_seconds, plan = (
                message
            )
            refusal = _handshake_refusal(tuple(wire_python), protocol)
            if refusal is not None:
                try:
                    channel.send((MSG_ERROR, index, None, refusal))
                except ServiceError:
                    pass
                return False
            if self.fault_plan is not None:
                plan = self.fault_plan  # local injection wins
            elif plan is not None and not plan:
                plan = None
            try:
                program, config = loads_program(blob)
                context = ExpansionContext(program, config)
            except Exception:
                try:
                    channel.send((MSG_ERROR, index, None,
                                  traceback.format_exc()))
                except ServiceError:
                    pass
                return False
            channel.send((MSG_HELLO, index, os.getpid()))
            self._session_loop(
                channel, index, context, heartbeat_seconds, plan
            )
            return True
        except ServiceError:
            return True
        finally:
            self._active = None
            channel.close()

    def _session_loop(
        self,
        channel: SocketFrameChannel,
        index: int,
        context: ExpansionContext,
        heartbeat_seconds: float,
        plan: Optional[FaultPlan],
    ) -> None:
        states_expanded = 0
        corrupt_next = False

        def send(message: Any, corrupt: bool = False) -> None:
            channel.send(message, corrupt=corrupt)

        def apply_fault(fault) -> bool:
            return self._apply_fault(fault)

        heartbeat = max(heartbeat_seconds or HEARTBEAT_SECONDS, 0.05)
        while not self._stopped:
            try:
                message = channel.recv(timeout=heartbeat)
            except ServiceTimeout:
                # Idle between shards: heartbeat so supervisor-side
                # silence detection never fires on an idle worker.
                try:
                    channel.send((MSG_HEARTBEAT, index))
                except ServiceError:
                    return
                continue
            except ServiceError:
                return
            if message is None or message[0] == MSG_STOP:
                return
            if message[0] != MSG_SHARD:
                return
            _, shard_id, keys, allowance = message
            try:
                channel.send((MSG_ACK, index, shard_id))
                corrupt_next = run_shard(
                    send, apply_fault, index, context, shard_id, keys,
                    allowance, plan, corrupt_next,
                    states_counter=states_expanded,
                    heartbeat_seconds=heartbeat,
                    passthrough=(ServiceError, SessionDrop),
                )
            except SessionDrop:
                return  # injected drop-conn: die abruptly, mid-shard
            except ServiceError:
                return
            states_expanded += len(keys)

    def _apply_fault(self, fault) -> bool:
        """Remote analogue of the pipe worker's fault application."""
        fault.fired = True
        kind = fault.kind
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "exit":
            os._exit(0)
        elif kind in ("stall", "stall-socket"):
            self._stall()
        elif kind in ("corrupt", "corrupt-frame"):
            return True
        elif kind == "drop-conn":
            raise SessionDrop()
        return False

    def _stall(self) -> None:
        # Sleep in small slices so stop() (tests, SIGTERM handlers) can
        # reclaim a deliberately-stalled worker without waiting out the
        # full fault duration.  Also watch the session socket: when the
        # supervisor gives up on the stalled session and hangs up, abort
        # the stall so this worker returns to accepting -- otherwise one
        # injected stall-socket wedges the worker for STALL_SECONDS and
        # every redial from the supervisor times out against it.
        deadline = time.monotonic() + STALL_SECONDS
        while not self._stopped and time.monotonic() < deadline:
            time.sleep(0.1)
            channel = self._active
            if channel is None:
                continue
            try:
                readable, _, _ = select.select([channel.sock], [], [], 0)
                if readable and not channel.sock.recv(1, socket.MSG_PEEK):
                    raise SessionDrop()  # peer hung up mid-stall
            except OSError:
                raise SessionDrop()
