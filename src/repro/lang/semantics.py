"""Small-step operational semantics of the instruction set.

``execute`` runs one instruction of one thread against the shared state
and the thread's local environment, returning every possible outcome
(allocation is nondeterministic; blocked operations return none).  Each
outcome is either

* ``("step", globals, heap, env, target)`` -- an internal step; the
  next pc is ``target`` or, when ``target == -1``, the fall-through, or
* ``("ret", globals, heap, value)`` -- the method finished.

Values enter ``globals`` and the heap through
:func:`repro.lang.values.tag` and leave them through
:func:`~repro.lang.values.untag`, so stored bools never compare equal to
ints while local environments and return values stay plain.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from . import ops as O
from .ops import evaluate
from .program import ObjectProgram
from .state import Heap, ModelError, free_node_indices
from .values import KEY_FALSE, KEY_TRUE, Ref, tag, untag

Outcome = Tuple  # ("step", g, h, env, target) | ("ret", g, h, value)

#: Step budget for one atomic block (guards against unbounded loops
#: inside what must be a terminating sequential computation).
ATOMIC_FUEL = 10_000


def _node(heap: Heap, ptr: Any) -> Tuple[Any, ...]:
    if type(ptr) is not Ref:
        raise ModelError(f"dereference of non-pointer {ptr!r}")
    index = ptr.index
    if index >= len(heap):
        raise ModelError(f"dangling reference {ptr!r}")
    return heap[index]


def _with_field(heap: Heap, ptr: Ref, field_pos: int, value: Any) -> Heap:
    node = list(heap[ptr.index])
    node[field_pos] = value
    return heap[: ptr.index] + (tuple(node),) + heap[ptr.index + 1:]


def _field_pos(program: ObjectProgram, name: str) -> int:
    try:
        return program.field_index[name]
    except KeyError:
        raise ModelError(f"unknown node field {name!r}") from None


def _global_pos(program: ObjectProgram, name: str) -> int:
    try:
        return program.global_index[name]
    except KeyError:
        raise ModelError(f"unknown global {name!r}") from None


def _set_global(g: Tuple[Any, ...], pos: int, value: Any) -> Tuple[Any, ...]:
    return g[:pos] + (value,) + g[pos + 1:]


def _indexed(value: Any, index: Any) -> Any:
    if type(value) is not tuple:
        raise ModelError(f"indexing into non-array value {value!r}")
    if not isinstance(index, int) or not (0 <= index < len(value)):
        raise ModelError(f"array index {index!r} out of range")
    return value[index]


def _set_indexed(value: Any, index: Any, item: Any) -> Any:
    if type(value) is not tuple:
        raise ModelError(f"indexing into non-array value {value!r}")
    if not isinstance(index, int) or not (0 <= index < len(value)):
        raise ModelError(f"array index {index!r} out of range")
    return value[:index] + (item,) + value[index + 1:]


def execute(
    program: ObjectProgram,
    op: O.Op,
    g: Tuple[Any, ...],
    heap: Heap,
    env: Dict[str, Any],
) -> List[Outcome]:
    """All outcomes of executing ``op`` (see module docstring)."""
    kind = type(op)

    if kind is O.LocalAssign:
        new_env = dict(env)
        for name, expr in op.assigns:
            new_env[name] = evaluate(expr, env)
        return [("step", g, heap, new_env, -1)]

    if kind is O.Branch:
        target = op.on_true if evaluate(op.cond, env) else op.on_false
        return [("step", g, heap, env, target)]

    if kind is O.Jump:
        return [("step", g, heap, env, op.target)]

    if kind is O.Assume:
        if evaluate(op.cond, env):
            return [("step", g, heap, env, -1)]
        return []

    if kind is O.ReadGlobal:
        value = g[_global_pos(program, op.name)]
        if op.index is not None:
            value = _indexed(value, evaluate(op.index, env))
        new_env = dict(env)
        new_env[op.dst] = untag(value)
        return [("step", g, heap, new_env, -1)]

    if kind is O.WriteGlobal:
        pos = _global_pos(program, op.name)
        value = tag(evaluate(op.value, env))
        if op.index is not None:
            value = _set_indexed(g[pos], evaluate(op.index, env), value)
        return [("step", _set_global(g, pos, value), heap, env, -1)]

    if kind is O.CasGlobal:
        pos = _global_pos(program, op.name)
        current = g[pos]
        if op.index is not None:
            index = evaluate(op.index, env)
            slot = _indexed(current, index)
        else:
            index = None
            slot = current
        expected = evaluate(op.expected, env)
        success = untag(slot) == expected
        new_g = g
        if success:
            new_value = tag(evaluate(op.new, env))
            if index is not None:
                new_value = _set_indexed(current, index, new_value)
            new_g = _set_global(g, pos, new_value)
        if op.dst is None:
            return [("step", new_g, heap, env, -1)]
        new_env = dict(env)
        new_env[op.dst] = success
        return [("step", new_g, heap, new_env, -1)]

    if kind is O.FetchAddGlobal:
        pos = _global_pos(program, op.name)
        current = g[pos]
        if not isinstance(current, int) or isinstance(current, bool):
            raise ModelError(f"fetch-add on non-integer global {op.name!r}")
        new_g = _set_global(g, pos, current + evaluate(op.delta, env))
        if op.dst is None:
            return [("step", new_g, heap, env, -1)]
        new_env = dict(env)
        new_env[op.dst] = current
        return [("step", new_g, heap, new_env, -1)]

    if kind is O.ReadField:
        node = _node(heap, evaluate(op.ptr, env))
        new_env = dict(env)
        new_env[op.dst] = untag(node[_field_pos(program, op.fieldname)])
        return [("step", g, heap, new_env, -1)]

    if kind is O.WriteField:
        ptr = evaluate(op.ptr, env)
        _node(heap, ptr)
        pos = _field_pos(program, op.fieldname)
        value = tag(evaluate(op.value, env))
        return [("step", g, _with_field(heap, ptr, pos, value), env, -1)]

    if kind is O.CasField:
        ptr = evaluate(op.ptr, env)
        node = _node(heap, ptr)
        pos = _field_pos(program, op.fieldname)
        expected = evaluate(op.expected, env)
        success = untag(node[pos]) == expected
        new_heap = heap
        if success:
            new_heap = _with_field(heap, ptr, pos, tag(evaluate(op.new, env)))
        if op.dst is None:
            return [("step", g, new_heap, env, -1)]
        new_env = dict(env)
        new_env[op.dst] = success
        return [("step", g, new_heap, new_env, -1)]

    if kind is O.SwapField:
        ptr = evaluate(op.ptr, env)
        node = _node(heap, ptr)
        pos = _field_pos(program, op.fieldname)
        old = untag(node[pos])
        new_heap = _with_field(heap, ptr, pos, tag(evaluate(op.value, env)))
        if op.dst is None:
            return [("step", g, new_heap, env, -1)]
        new_env = dict(env)
        new_env[op.dst] = old
        return [("step", g, new_heap, new_env, -1)]

    if kind is O.Alloc:
        values = {name: evaluate(expr, env) for name, expr in op.fields}
        unknown = set(values) - set(program.node_fields)
        if unknown:
            raise ModelError(f"unknown node fields {sorted(unknown)}")
        node = tuple([False] + [tag(values.get(f)) for f in program.node_fields])
        outcomes: List[Outcome] = []
        # Fresh allocation.
        fresh_env = dict(env)
        fresh_env[op.dst] = Ref(len(heap))
        outcomes.append(("step", g, heap + (node,), fresh_env, -1))
        # Reuse of freed-but-still-referenced nodes (ABA candidates).
        for index in free_node_indices(heap):
            reuse_env = dict(env)
            reuse_env[op.dst] = Ref(index)
            reuse_heap = heap[:index] + (node,) + heap[index + 1:]
            outcomes.append(("step", g, reuse_heap, reuse_env, -1))
        return outcomes

    if kind is O.Free:
        ptr = evaluate(op.ptr, env)
        node = _node(heap, ptr)
        if node[0]:
            raise ModelError(f"double free of {ptr!r}")
        freed = (True,) + node[1:]
        new_heap = heap[: ptr.index] + (freed,) + heap[ptr.index + 1:]
        return [("step", g, new_heap, env, -1)]

    if kind is O.Lock:
        pos = _global_pos(program, op.name)
        if untag(g[pos]) is not False:
            return []
        return [("step", _set_global(g, pos, KEY_TRUE), heap, env, -1)]

    if kind is O.Unlock:
        pos = _global_pos(program, op.name)
        if untag(g[pos]) is not True:
            raise ModelError(f"unlock of free lock {op.name!r}")
        return [("step", _set_global(g, pos, KEY_FALSE), heap, env, -1)]

    if kind is O.LockField:
        ptr = evaluate(op.ptr, env)
        node = _node(heap, ptr)
        pos = _field_pos(program, op.fieldname)
        if untag(node[pos]) is not False:
            return []
        return [("step", g, _with_field(heap, ptr, pos, KEY_TRUE), env, -1)]

    if kind is O.UnlockField:
        ptr = evaluate(op.ptr, env)
        node = _node(heap, ptr)
        pos = _field_pos(program, op.fieldname)
        if untag(node[pos]) is not True:
            raise ModelError(f"unlock of free node lock {op.fieldname!r}")
        return [("step", g, _with_field(heap, ptr, pos, KEY_FALSE), env, -1)]

    if kind is O.AtomicBlock:
        return _run_atomic(program, op, g, heap, env)

    if kind is O.Return:
        value = None if op.value is None else evaluate(op.value, env)
        return [("ret", g, heap, value)]

    raise ModelError(f"unknown instruction {op!r}")


def _run_atomic(
    program: ObjectProgram,
    block: O.AtomicBlock,
    g: Tuple[Any, ...],
    heap: Heap,
    env: Dict[str, Any],
) -> List[Outcome]:
    """Run an atomic block to completion as a single step."""
    body = getattr(block, "_compiled", None)
    if body is None:
        from .stmts import compile_body

        body = tuple(compile_body(list(block.body)))
        block._compiled = body
    results: List[Outcome] = []
    stack: List[Tuple[Any, Heap, Dict[str, Any], int]] = [(g, heap, env, 0)]
    fuel = ATOMIC_FUEL
    while stack:
        fuel -= 1
        if fuel < 0:
            raise ModelError("atomic block exceeded its step budget")
        cg, cheap, cenv, pc = stack.pop()
        if pc >= len(body):
            results.append(("step", cg, cheap, cenv, -1))
            continue
        for outcome in execute(program, body[pc], cg, cheap, cenv):
            if outcome[0] in ("ret", "retpend"):
                # A return decided inside an atomic block ends the block
                # but must NOT be fused with the visible return action:
                # the method moves to a pending-return state and the
                # return happens as a separate (visible) step.
                results.append(("retpend",) + tuple(outcome[1:]))
            else:
                _kind, ng, nheap, nenv, target = outcome
                stack.append((ng, nheap, nenv, pc + 1 if target < 0 else target))
    return results
