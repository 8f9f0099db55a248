"""State representation and canonicalization.

A state of the composed system is ``(globals, heap, threads)``:

* ``globals`` -- tuple of values in program declaration order,
* ``heap`` -- tuple of nodes; a node is ``(free_flag, field0, ...)``,
* ``threads`` -- tuple of ``(method_index, pc, locals, budget)`` with
  ``method_index == -1`` for idle threads.

After every step the heap is *canonicalized*: nodes are renumbered in
BFS order from the roots (globals, then thread locals), and nodes that
no root can reach are dropped.  This is a symmetry reduction: two
states that differ only in allocation order collapse, which is one of
the mitigations for running the paper's experiments at CPython speed.
Dropping unreachable nodes models garbage collection; nodes freed
explicitly but still referenced (dangling pointers) survive and remain
candidates for reallocation, keeping ABA scenarios observable.

Values inside globals, locals and node fields may be nested tuples
(e.g. a pointer-with-mark-bit word, or an array of slots); references
are located and rewritten at any nesting depth.  Bools among them are
stored tagged (:func:`repro.lang.values.tag`), which makes keys
type-exact: two keys are ``==`` only when their contents are identical,
never because ``False == 0``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .values import Ref, tag

Node = Tuple[Any, ...]          # (free_flag, field values...)
Heap = Tuple[Node, ...]
ThreadRecord = Tuple[int, int, Tuple[Any, ...], int]
StateKey = Tuple[Tuple[Any, ...], Heap, Tuple[ThreadRecord, ...]]
#: Reference indices of a state (see :func:`ref_indices`): those of the
#: globals, one tuple per heap node, and one tuple per thread's locals.
StateRefs = Tuple[
    Tuple[int, ...], Sequence[Tuple[int, ...]], Sequence[Tuple[int, ...]]
]


def _scan(value: Any, found: List[int]) -> None:
    """Append the index of every reference nested inside ``value``."""
    if type(value) is Ref:
        found.append(value[1])
    elif type(value) is tuple:
        for item in value:
            _scan(item, found)


def ref_indices(value: Any) -> Tuple[int, ...]:
    """Heap indices of the references nested in ``value``, in scan order.

    Applied to a whole heap node this gives the node's out-edges: slot 0
    (the free flag) is a bool, never a reference.
    """
    if type(value) is not tuple:
        return (value[1],) if type(value) is Ref else ()
    found: List[int] = []
    for item in value:  # flat values are the common case: no recursion
        kind = type(item)
        if kind is Ref:
            found.append(item[1])
        elif kind is tuple:
            _scan(item, found)
    return tuple(found)


def state_refs(
    globals_: Tuple[Any, ...],
    heap: Heap,
    threads: Tuple[ThreadRecord, ...],
) -> StateRefs:
    """The reference indices :func:`canonicalize` walks, from scratch."""
    return (
        ref_indices(globals_),
        tuple(map(ref_indices, heap)),
        tuple(ref_indices(record[2]) for record in threads),
    )


def _rewrite(value: Any, remap: Dict[int, int]) -> Any:
    """Rewrite every nested reference through ``remap``.

    Returns the *same* object when nothing inside it changes, so
    unchanged tuples are shared rather than copied.
    """
    kind = type(value)
    if kind is Ref:
        new_index = remap[value[1]]
        return value if new_index == value[1] else Ref(new_index)
    if kind is tuple:
        rewritten = [_rewrite(item, remap) for item in value]
        if all(new is old for new, old in zip(rewritten, value)):
            return value
        return tuple(rewritten)
    return value


def canonicalize(
    globals_: Tuple[Any, ...],
    heap: Heap,
    threads: Tuple[ThreadRecord, ...],
    refs: Optional[StateRefs] = None,
) -> StateKey:
    """Canonical renaming + garbage collection of the heap (see module doc).

    ``refs``, when given, must equal ``state_refs(globals_, heap,
    threads)``; callers that already hold those indices (the explorer's
    step memo) pass them so that the search below runs over ints only.
    """
    if refs is None:
        refs = state_refs(globals_, heap, threads)
    global_refs, adjacency, locals_refs = refs
    # BFS from the roots (globals, then thread locals); ``queue`` holds
    # index tuples and grows by each newly reached node's out-edges.
    remap: Dict[int, int] = {}
    order: List[int] = []
    queue = [global_refs, *locals_refs]
    for indices in queue:
        for index in indices:
            if index not in remap:
                remap[index] = len(order)
                order.append(index)
                queue.append(adjacency[index])

    if len(order) == len(heap) and order == list(range(len(order))):
        # Fast path: the reachability order already matches the heap
        # layout, so the state is canonical as-is.
        return (globals_, heap, threads)

    new_heap = tuple(
        heap[old][:1] + tuple(_rewrite(v, remap) for v in heap[old][1:])
        for old in order
    )
    new_globals = tuple(_rewrite(v, remap) for v in globals_)
    new_threads = tuple(
        (mi, pc, _rewrite(locals_, remap), budget)
        for (mi, pc, locals_, budget) in threads
    )
    return (new_globals, new_heap, new_threads)


def tag_key(key: StateKey) -> StateKey:
    """``key`` with every stored value in type-exact form (idempotent).

    The DSL semantics store values through :func:`repro.lang.values.tag`
    already; this re-derives that form for keys built before it did
    (old checkpoints).  Node free flags (slot 0) are always bools and
    stay plain.
    """
    globals_, heap, threads = key
    return (
        tag(globals_),
        tuple(node[:1] + tag(node[1:]) for node in heap),
        tuple((mi, pc, tag(locals_), budget)
              for mi, pc, locals_, budget in threads),
    )


def free_node_indices(heap: Heap) -> List[int]:
    """Indices of nodes marked free (candidates for reallocation)."""
    return [index for index, node in enumerate(heap) if node[0]]


class ModelError(Exception):
    """A modeling bug: null dereference, unknown field/global, etc."""
