"""Operational semantics of the instruction set, op by op."""

import pytest

from repro.lang import (
    Alloc,
    Assume,
    AtomicBlock,
    CasField,
    CasGlobal,
    FetchAddGlobal,
    Free,
    If,
    LocalAssign,
    Lock,
    LockField,
    Method,
    ModelError,
    ObjectProgram,
    ReadField,
    ReadGlobal,
    Return,
    SwapField,
    Unlock,
    UnlockField,
    WriteField,
    WriteGlobal,
)
from repro.lang.semantics import execute
from repro.lang.values import KEY_FALSE, KEY_TRUE, Ref


def make_program(**globals_):
    return ObjectProgram(
        "test",
        methods=[Method("noop", body=[Return(None)])],
        globals_=globals_ or {"X": 0, "Arr": (1, 2, 3), "L": False},
        node_fields=["val", "next"],
    )


PROG = make_program()
G = PROG.initial_globals()           # (X, Arr, L)
HEAP = ((False, 10, None), (True, 20, None))
ENV = {"p": Ref(0), "q": Ref(1), "i": 1, "v": 42}


def only(outcomes):
    assert len(outcomes) == 1
    return outcomes[0]


def test_local_assign():
    kind, g, h, env, target = only(execute(PROG, LocalAssign(x=5, y="v"), G, HEAP, ENV))
    assert env["x"] == 5 and env["y"] == 42
    assert g is G and h is HEAP and target == -1
    assert "x" not in ENV  # no mutation of the input env


def test_read_write_global():
    kind, g, h, env, _ = only(execute(PROG, ReadGlobal("x", "X"), G, HEAP, ENV))
    assert env["x"] == 0
    kind, g, h, env, _ = only(execute(PROG, WriteGlobal("X", "v"), G, HEAP, ENV))
    assert g[0] == 42


def test_indexed_global():
    op = ReadGlobal("x", "Arr", index="i")
    _, g, h, env, _ = only(execute(PROG, op, G, HEAP, ENV))
    assert env["x"] == 2
    op = WriteGlobal("Arr", 99, index="i")
    _, g, h, env, _ = only(execute(PROG, op, G, HEAP, ENV))
    assert g[1] == (1, 99, 3)


def test_indexed_global_out_of_range():
    with pytest.raises(ModelError):
        execute(PROG, ReadGlobal("x", "Arr", index=7), G, HEAP, ENV)


def test_cas_global_success_and_failure():
    _, g, _h, env, _ = only(execute(PROG, CasGlobal("b", "X", 0, 5), G, HEAP, ENV))
    assert env["b"] is True and g[0] == 5
    _, g, _h, env, _ = only(execute(PROG, CasGlobal("b", "X", 1, 5), G, HEAP, ENV))
    assert env["b"] is False and g[0] == 0


def test_cas_global_indexed():
    op = CasGlobal("b", "Arr", 2, 7, index="i")
    _, g, _h, env, _ = only(execute(PROG, op, G, HEAP, ENV))
    assert env["b"] is True and g[1] == (1, 7, 3)


def test_fetch_add():
    _, g, _h, env, _ = only(execute(PROG, FetchAddGlobal("old", "X", 3), G, HEAP, ENV))
    assert env["old"] == 0 and g[0] == 3


def test_fetch_add_non_integer():
    with pytest.raises(ModelError):
        execute(PROG, FetchAddGlobal("old", "L", 1), G, HEAP, ENV)


def test_read_write_field():
    _, _g, h, env, _ = only(execute(PROG, ReadField("x", "p", "val"), G, HEAP, ENV))
    assert env["x"] == 10
    _, _g, h, env, _ = only(execute(PROG, WriteField("p", "val", 77), G, HEAP, ENV))
    assert h[0][1] == 77
    assert HEAP[0][1] == 10  # persistent heap untouched


def test_field_ops_reject_null_and_unknown():
    with pytest.raises(ModelError):
        execute(PROG, ReadField("x", None, "val"), G, HEAP, ENV)
    with pytest.raises(ModelError):
        execute(PROG, ReadField("x", "p", "nope"), G, HEAP, ENV)


def test_cas_field():
    _, _g, h, env, _ = only(
        execute(PROG, CasField("b", "p", "val", 10, 11), G, HEAP, ENV)
    )
    assert env["b"] is True and h[0][1] == 11
    _, _g, h, env, _ = only(
        execute(PROG, CasField("b", "p", "val", 999, 11), G, HEAP, ENV)
    )
    assert env["b"] is False and h[0][1] == 10


def test_swap_field():
    _, _g, h, env, _ = only(
        execute(PROG, SwapField("old", "p", "val", 0), G, HEAP, ENV)
    )
    assert env["old"] == 10 and h[0][1] == 0


def test_alloc_fresh_and_reuse():
    outcomes = execute(PROG, Alloc("n", val=1), G, HEAP, ENV)
    # One fresh allocation + one reuse (node 1 is free).
    assert len(outcomes) == 2
    fresh = outcomes[0]
    assert fresh[4] == -1
    assert fresh[3]["n"] == Ref(2)
    assert len(fresh[2]) == 3
    reuse = outcomes[1]
    assert reuse[3]["n"] == Ref(1)
    assert reuse[2][1] == (False, 1, None)


def test_alloc_unknown_field():
    with pytest.raises(ModelError):
        execute(PROG, Alloc("n", bogus=1), G, HEAP, ENV)


def test_free_and_double_free():
    _, _g, h, _env, _ = only(execute(PROG, Free("p"), G, HEAP, ENV))
    assert h[0][0] is True
    with pytest.raises(ModelError):
        execute(PROG, Free("q"), G, HEAP, ENV)  # q already free


def test_lock_blocks_and_acquires():
    _, g, _h, _env, _ = only(execute(PROG, Lock("L"), G, HEAP, ENV))
    assert g[2] is KEY_TRUE  # state slots store bools tagged
    assert execute(PROG, Lock("L"), g, HEAP, ENV) == []  # held: blocked
    _, g2, _h, _env, _ = only(execute(PROG, Unlock("L"), g, HEAP, ENV))
    assert g2[2] is KEY_FALSE
    with pytest.raises(ModelError):
        execute(PROG, Unlock("L"), G, HEAP, ENV)  # unlock of free lock


def test_lock_field():
    prog = ObjectProgram(
        "t", methods=[Method("m", body=[Return(None)])],
        node_fields=["lock"], globals_={},
    )
    heap = ((False, False),)
    env = {"p": Ref(0)}
    _, _g, h, _env, _ = only(execute(prog, LockField("p", "lock"), (), heap, env))
    assert h[0][1] is KEY_TRUE
    assert execute(prog, LockField("p", "lock"), (), h, env) == []
    _, _g, h2, _env, _ = only(execute(prog, UnlockField("p", "lock"), (), h, env))
    assert h2[0][1] is KEY_FALSE


def test_assume():
    assert execute(PROG, Assume(lambda L: False), G, HEAP, ENV) == []
    outcome = only(execute(PROG, Assume(lambda L: L["v"] == 42), G, HEAP, ENV))
    assert outcome[0] == "step"


def test_return():
    kind, g, h, value = only(execute(PROG, Return("v"), G, HEAP, ENV))
    assert kind == "ret" and value == 42
    kind, _g, _h, value = only(execute(PROG, Return(None), G, HEAP, ENV))
    assert value is None


def test_atomic_block_runs_to_completion():
    block = AtomicBlock([
        ReadGlobal("x", "X"),
        WriteGlobal("X", lambda L: L["x"] + 1),
        WriteGlobal("X", lambda L: L["x"] + 2),
    ])
    _, g, _h, env, _ = only(execute(PROG, block, G, HEAP, ENV))
    assert g[0] == 2


def test_atomic_block_with_control_flow_and_return():
    block = AtomicBlock([
        ReadGlobal("x", "X"),
        If(lambda L: L["x"] == 0, [Return("x")]),
        WriteGlobal("X", 9),
    ])
    outcome = only(execute(PROG, block, G, HEAP, ENV))
    assert outcome[0] == "retpend" and outcome[3] == 0


def test_atomic_block_guarded_by_lock():
    block = AtomicBlock([Lock("L"), WriteGlobal("X", 1)])
    outcome = only(execute(PROG, block, G, HEAP, ENV))
    assert outcome[1][0] == 1 and outcome[1][2] is KEY_TRUE
    held = (0, (1, 2, 3), True)
    assert execute(PROG, block, held, HEAP, ENV) == []  # whole block blocked


def test_atomic_block_nondeterminism_via_alloc():
    block = AtomicBlock([Alloc("n", val=5)])
    outcomes = execute(PROG, block, G, HEAP, ENV)
    assert len(outcomes) == 2  # fresh + reuse branch through the block


def test_atomic_block_fuel():
    from repro.lang import While

    block = AtomicBlock([While(True, [LocalAssign(x=1)])])
    with pytest.raises(ModelError):
        execute(PROG, block, G, HEAP, ENV)
