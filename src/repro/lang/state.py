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

from typing import Any, Dict, List, Tuple

from .values import Ref, tag

Node = Tuple[Any, ...]          # (free_flag, field values...)
Heap = Tuple[Node, ...]
ThreadRecord = Tuple[int, int, Tuple[Any, ...], int]
StateKey = Tuple[Tuple[Any, ...], Heap, Tuple[ThreadRecord, ...]]


def _scan(value: Any, visit) -> None:
    """Call ``visit`` on every reference nested inside ``value``."""
    if type(value) is Ref:
        visit(value)
    elif type(value) is tuple:
        for item in value:
            _scan(item, visit)


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
) -> StateKey:
    """Canonical renaming + garbage collection of the heap (see module doc)."""
    remap: Dict[int, int] = {}
    order: List[int] = []

    def visit(ref: Ref) -> None:
        index = ref[1]
        if index not in remap:
            remap[index] = len(order)
            order.append(index)

    for value in globals_:
        _scan(value, visit)
    for record in threads:
        _scan(record[2], visit)
    cursor = 0
    while cursor < len(order):
        node = heap[order[cursor]]
        cursor += 1
        for value in node[1:]:
            _scan(value, visit)

    count = len(order)
    if count == len(heap):
        # Fast path: the reachability order already matches the heap
        # layout, so the state is canonical as-is.
        identity = True
        for index in range(count):
            if order[index] != index:
                identity = False
                break
        if identity:
            return (globals_, heap, threads)
    elif not count and not heap:
        return (globals_, (), threads)

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
