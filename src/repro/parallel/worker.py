"""Worker-side loop of the sharded exploration subsystem.

A worker is forked by the supervisor with two pipe ends (commands in,
frames out) and runs :func:`worker_main`: block on the command pipe,
expand every state key in the received shard with the same
:class:`repro.lang.client.ExpansionContext` the serial loop uses, and
send the ordered edge lists back in shard key order (:func:`pack_edges`
says how).  Workers never intern states -- the supervisor interns every
destination key once and replays the recorded integer successor lists
in serial DFS order, which is what makes the merged system
bit-identical to a serial run.

The shard-expansion core itself (:func:`run_shard`) is
transport-agnostic: it reports through a ``send(message)`` callable
and delegates fault injection to an ``apply_fault`` callback, so the
same loop drives a forked pipe worker here and a remote socket session
in :mod:`repro.parallel.remote`.

Failure discipline: anything that goes wrong inside a shard is reported
as an ``error`` frame (with the traceback) so the supervisor can log it
and requeue; a budget exhaustion is reported as an ``exhausted`` frame
(carrying the structured :class:`repro.util.budget.Exhaustion` record)
so the supervisor can distinguish "this shard is too big for its slice
of the deadline" from a genuine crash.  Injected faults from a
:class:`repro.parallel.faults.FaultPlan` trigger between state
expansions -- ``kill`` raises SIGKILL against the worker itself, which
is exactly the signature of an OOM-killed or externally killed child.
Network fault kinds delivered to a *pipe* worker map to their nearest
process-level analogue (``drop-conn`` -> ``exit``, ``stall-socket`` ->
``stall``, ``corrupt-frame`` -> ``corrupt``) so one plan drives both
transports.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..lang.client import ExpansionContext
from ..util.budget import BudgetExhausted, ChildAllowance
from .faults import FaultPlan, STALL_SECONDS
from .protocol import (
    MSG_ERROR,
    MSG_EXHAUSTED,
    MSG_HELLO,
    MSG_PROGRESS,
    MSG_RESULT,
    MSG_SHARD,
    MSG_STOP,
    read_frame,
    write_frame,
)

#: Spacing of progress heartbeats while inside a shard (a remote
#: session also beats this often while idle; the supervisor ships the
#: value in ``init``).  Heartbeats are emitted *between* state
#: expansions (there is no timer thread or SIGALRM in the child), so a
#: single ``expand()`` call longer than the supervisor's
#: ``heartbeat_timeout`` looks like a stall; see
#: ``ParallelConfig.heartbeat_timeout`` for the supervisor-side slack,
#: which must exceed this interval.
HEARTBEAT_SECONDS = 0.25


def kind_key(label: Any, annotation: Any) -> Tuple[Any, Any, str]:
    """Identity of an edge *kind* (label plus annotation).

    ``==`` alone would merge ``("ret", 1, "m", False)`` with ``("ret",
    1, "m", 0)``; the serial LTS does merge them into one action, but it
    renders the label met first *in serial order*.  Keeping kinds apart
    whenever their labels render differently lets the supervisor intern
    actions in that order and reproduce the serial rendering.
    """
    return (label, annotation, repr(label))


def pack_edges(
    edge_lists: Sequence[List[Any]],
) -> Tuple[List[Tuple[Any, Any]], List[Any], List[int], List[int]]:
    """The ``MSG_RESULT`` body for per-key edge lists (shard key order).

    Returns ``(kinds, dsts, counts, edges)``: the distinct ``(label,
    annotation)`` kinds and the distinct destination keys, each in
    first-use order; the edge count of each key; and one flat list
    holding, per edge, its kind's and its destination's index into
    those tables.  A label, annotation or key crosses the wire once per
    frame however many edges share it (sibling states in a shard share
    about a third of their successors).
    """
    kinds: List[Tuple[Any, Any]] = []
    kind_index: Dict[Any, int] = {}
    dsts: List[Any] = []
    dst_index: Dict[Any, int] = {}
    counts: List[int] = []
    flat: List[int] = []
    for edges in edge_lists:
        counts.append(len(edges))
        for label, dst, annotation in edges:
            key = kind_key(label, annotation)
            kid = kind_index.get(key)
            if kid is None:
                kid = kind_index[key] = len(kinds)
                kinds.append((label, annotation))
            did = dst_index.get(dst)
            if did is None:
                did = dst_index[dst] = len(dsts)
                dsts.append(dst)
            flat.append(kid)
            flat.append(did)
    return kinds, dsts, counts, flat


def _apply_fault(fault, out) -> bool:
    """Act on an injected fault in a *pipe* worker; returns ``True`` if
    the next result frame should be corrupted (the ``corrupt`` kinds).
    """
    fault.fired = True
    kind = fault.kind
    if kind == "kill":
        out.flush()
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind in ("exit", "drop-conn"):
        out.flush()
        os._exit(0)
    elif kind in ("stall", "stall-socket"):
        time.sleep(STALL_SECONDS)
    elif kind in ("corrupt", "corrupt-frame"):
        return True
    return False


def worker_main(
    worker_index: int,
    context: ExpansionContext,
    command_fd: int,
    result_fd: int,
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    """Run the worker loop; never returns (ends in ``os._exit``).

    Called in the child immediately after ``os.fork``: ``context`` and
    ``fault_plan`` arrive via fork memory inheritance, so the fault
    plan's fired-flags are this child's private copies.
    """
    commands = os.fdopen(command_fd, "rb", buffering=0)
    out = os.fdopen(result_fd, "wb")
    plan = fault_plan if fault_plan else None
    states_expanded = 0
    corrupt_next = False

    def send(message: Any, corrupt: bool = False) -> None:
        write_frame(out, message, corrupt=corrupt)

    def apply_fault(fault) -> bool:
        return _apply_fault(fault, out)

    try:
        write_frame(out, (MSG_HELLO, worker_index, os.getpid()))
        while True:
            message = read_frame(commands)
            if message is None or message[0] == MSG_STOP:
                break
            if message[0] != MSG_SHARD:
                raise RuntimeError(f"unexpected command {message[0]!r}")
            _, shard_id, keys, allowance = message
            corrupt_next = run_shard(
                send, apply_fault, worker_index, context, shard_id, keys,
                allowance, plan, corrupt_next,
                states_counter=states_expanded,
            )
            states_expanded += len(keys)
    except BrokenPipeError:
        pass  # supervisor went away; nothing left to report to
    except Exception:
        try:
            write_frame(out, (MSG_ERROR, worker_index, None,
                              traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            out.flush()
        except Exception:
            pass
        os._exit(0)


def run_shard(
    send: Callable[..., None],
    apply_fault: Callable[[Any], bool],
    worker_index: int,
    context: ExpansionContext,
    shard_id: int,
    keys: List[Any],
    allowance: Optional[ChildAllowance],
    plan: Optional[FaultPlan],
    corrupt_next: bool,
    states_counter: int,
    heartbeat_seconds: float = HEARTBEAT_SECONDS,
    passthrough: Tuple[Type[BaseException], ...] = (BrokenPipeError,),
) -> bool:
    """Expand one shard and send the result (or exhaustion/error) frame.

    Transport-agnostic: frames go through ``send(message,
    corrupt=...)`` and injected faults through ``apply_fault(fault) ->
    corrupt_next``.  Exceptions whose type is in ``passthrough``
    (transport failures, injected connection drops) propagate to the
    caller instead of being reported as shard errors -- there is no
    healthy channel left to report on.  Returns the updated
    corrupt-next-frame flag.
    """
    budget = allowance.to_budget() if allowance is not None else None
    started = time.monotonic()
    last_beat = started
    expansions: List[List[Any]] = []
    try:
        for done, key in enumerate(keys):
            if budget is not None:
                budget.check("explore-shard", states=done)
            expansions.append(context.expand(key))
            if plan is not None:
                fault = plan.next_for(worker_index, states_counter + done + 1)
                if fault is not None:
                    corrupt_next = apply_fault(fault) or corrupt_next
            now = time.monotonic()
            if now - last_beat >= heartbeat_seconds:
                send((MSG_PROGRESS, worker_index, shard_id, done + 1))
                last_beat = now
    except BudgetExhausted as exc:
        send((MSG_EXHAUSTED, worker_index, shard_id,
              exc.exhaustion.to_dict()))
        return corrupt_next
    except passthrough:
        raise
    except Exception:
        send((MSG_ERROR, worker_index, shard_id, traceback.format_exc()))
        return corrupt_next
    busy_us = int((time.monotonic() - started) * 1_000_000)
    send(
        (MSG_RESULT, worker_index, shard_id, pack_edges(expansions), busy_us),
        corrupt=corrupt_next,
    )
    return False
