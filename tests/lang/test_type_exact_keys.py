"""Type-exact state keys: ``False`` and ``0`` never share a state.

Python's ``False == 0`` (with equal hashes) used to let two states that
differ only in a bool-vs-int slot collapse in every ``==``-keyed table.
Exploration then kept whichever representative it met first, so a
``Lock`` (which tests ``is not False``) could block or fire depending on
the workload order.  These programs put a CAS result and the constant
``0`` -- or a lock's ``False`` and ``0`` -- in the same slot on two
paths that otherwise reach the same state.
"""

import pickle

import pytest

from repro.core.aut import dumps_aut
from repro.core.lts import LTSBuilder
from repro.lang import (
    CasGlobal,
    Checkpoint,
    ClientConfig,
    If,
    LocalAssign,
    Lock,
    Method,
    ObjectProgram,
    ReadGlobal,
    Return,
    StreamingExplorer,
    WriteGlobal,
    explore,
    load_checkpoint,
)
from repro.lang.checkpoint import CheckpointSink, save_checkpoint
from repro.lang.values import KEY_FALSE, KEY_TRUE, tag, untag
from repro.parallel import ParallelConfig, parallel_explore
from repro.util.budget import BudgetExhausted


def cas_or_zero_program():
    """``m(a)`` leaves ``y`` holding a failed CAS's ``False`` (``a``
    truthy) or the constant ``0`` (``a`` falsy), then pauses at ``P``
    with every other slot equal on both paths."""
    method = Method(
        "m",
        params=["a"],
        locals_={"y": 1, "z": 0},
        body=[
            If("a", [
                CasGlobal("y", "g", 1, 1).at("C"),   # g == 0: y := False
            ], [
                WriteGlobal("h", 0).at("W"),          # h stays 0
                LocalAssign(y=0),
            ]),
            LocalAssign(a=0),
            ReadGlobal("z", "g").at("P"),
            Return("y").at("R"),
        ],
    )
    return ObjectProgram("cas_or_zero", [method], globals_={"g": 0, "h": 0})


def lock_program():
    """``m(v)`` stores ``v`` into the lock word, then takes the lock: it
    returns when ``v`` is ``False`` and blocks forever on ``0``."""
    method = Method(
        "m",
        params=["v"],
        body=[
            WriteGlobal("L", "v").at("W"),
            LocalAssign(v=None),
            Lock("L").at("K"),
            Return(None).at("R"),
        ],
    )
    return ObjectProgram("lock_word", [method], globals_={"L": False})


def _config(workload, threads=1):
    return ClientConfig(num_threads=threads, ops_per_thread=1,
                        workload=workload)


LOCK_ORDERS = [
    [("m", (False,)), ("m", (0,))],
    [("m", (0,)), ("m", (False,))],
]


def test_tags_round_trip_and_never_equal_ints():
    value = (1, (True, 0), False, None)
    tagged = tag(value)
    assert tagged == (1, (KEY_TRUE, 0), KEY_FALSE, None)
    assert untag(tagged) == value and type(untag(tagged)[2]) is bool
    assert tag(tagged) == tagged  # idempotent
    assert KEY_FALSE != 0 and KEY_TRUE != 1
    assert (KEY_FALSE,) != (0,) and (KEY_FALSE,) != (False,)
    assert repr(KEY_FALSE) == "False"
    assert pickle.loads(pickle.dumps(tagged)) == tagged
    assert pickle.loads(pickle.dumps(KEY_TRUE)) is KEY_TRUE


def test_cas_result_and_zero_stay_distinct_states():
    program = cas_or_zero_program()
    config = _config([("m", (1,)), ("m", (0,))])
    explorer = StreamingExplorer(program, config)
    explorer.drain()
    method = program.methods[0]
    y_at = method.local_names.index("y")
    pause = next(i for i, op in enumerate(method.ops) if op.line == "P")
    ys = [
        record[2][y_at]
        for _g, _heap, threads in explorer.builder.state_keys
        for record in threads
        if record[1] == pause
    ]
    # Both representations survive interning, and both render as
    # written when unpacked.
    assert sorted(map(repr, ys)) == ["0", "False"]
    assert {type(untag(y)) for y in ys} == {bool, int}


@pytest.mark.parametrize("order", [0, 1])
def test_lock_word_false_and_zero_behave_independently_of_order(order):
    program = lock_program()
    lts = explore(program, _config(LOCK_ORDERS[order]))
    labels = {lts.action_labels[aid] for _s, aid, _d in lts.transitions()}
    # The False path takes the lock and returns, whichever call the
    # client issued first.  (With merged keys, listing m(0) first hid
    # the False path and the return.)
    assert ("ret", 1, "m", None) in labels
    # init, m(False) and m(0) called, the lock word written either way,
    # lock held, returned: 7 states in either order (merged keys gave 5
    # or 3).
    other = explore(program, _config(LOCK_ORDERS[1 - order]))
    assert lts.num_states == other.num_states == 7


@pytest.mark.parametrize("build,workload,threads", [
    (cas_or_zero_program, [("m", (1,)), ("m", (0,))], 2),
    (cas_or_zero_program, [("m", (0,)), ("m", (1,))], 2),
    (lock_program, LOCK_ORDERS[0], 2),
    (lock_program, LOCK_ORDERS[1], 2),
])
def test_parallel_matches_serial_on_aliasing_programs(build, workload,
                                                      threads):
    program = build()
    config = _config(workload, threads)
    serial = dumps_aut(explore(program, config))
    lts = parallel_explore(
        program, config, ParallelConfig(workers=2, shard_states=2)
    )
    assert dumps_aut(lts) == serial


def test_checkpoint_with_plain_bool_keys_resumes_identically(tmp_path):
    # A checkpoint written before keys were type-exact stores plain
    # bools and has no ``keys_tagged`` attribute; loading tags its keys
    # so the resumed run meets the same states as an uninterrupted one.
    program = cas_or_zero_program()
    config = _config([("m", (1,)), ("m", (0,))], threads=2)
    serial = dumps_aut(explore(program, config))
    capped = ClientConfig(num_threads=2, ops_per_thread=1,
                          workload=config.workload, max_states=12)
    path = str(tmp_path / "new.ckpt")
    with pytest.raises(BudgetExhausted):
        explore(program, capped,
                checkpoint=CheckpointSink(path, interval_seconds=0.0))
    fresh = load_checkpoint(path)
    builder = fresh.builder
    old = Checkpoint(
        fingerprint=fresh.fingerprint,
        builder=LTSBuilder.from_states(
            builder.lts, [untag(key) for key in builder.state_keys]
        ),
        frontier=list(fresh.frontier),
    )
    del old.keys_tagged  # as unpickled from a file without the field
    old_path = str(tmp_path / "old.ckpt")
    save_checkpoint(old_path, old)
    resumed = explore(program, config, resume=load_checkpoint(old_path))
    assert dumps_aut(resumed) == serial
    resumed = parallel_explore(
        program, config, ParallelConfig(workers=2, shard_states=2),
        resume=load_checkpoint(old_path),
    )
    assert dumps_aut(resumed) == serial
