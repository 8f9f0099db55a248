"""The explorer's step memo (:class:`repro.lang.client.ExpansionContext`).

A thread's steps are memoized per thread slot under the exact
``(globals, heap, thread record)`` triple.  These tests pin down that a
warm memo changes nothing: edges, their order and their types match a
cold context's, eviction leaves the ``.aut`` bytes alone, hits share
structure with their source key, and failing steps are never cached.
"""

import pickle

import pytest
from hypothesis import given, settings

from repro.core.aut import dumps_aut
from repro.lang import (
    ClientConfig,
    LocalAssign,
    Method,
    ModelError,
    ObjectProgram,
    ReadGlobal,
    Return,
    StreamingExplorer,
    Unlock,
    explore,
)
from repro.lang import client as client_module
from repro.lang.client import ExpansionContext
from repro.lang.state import canonicalize, state_refs
from repro.objects import get
from repro.testing.generators import ProgramShape, program_strategy
from repro.util.budget import BudgetExhausted
from tests.helpers import typed


def _drained(program, config):
    explorer = StreamingExplorer(program, config)
    explorer.drain()
    return explorer


def _assert_warm_equals_cold(program, config):
    explorer = _drained(program, config)
    warm = explorer.context
    for key in explorer.builder.state_keys:
        cold = ExpansionContext(program, config)
        assert typed(warm.expand(key)) == typed(cold.expand(key))


@pytest.mark.parametrize("name", ["treiber", "ms_queue", "hm_list", "hw_queue"])
def test_warm_memo_expands_like_a_cold_context(name):
    bench = get(name)
    _assert_warm_equals_cold(
        bench.build(2), ClientConfig(2, 1, bench.default_workload())
    )


@settings(max_examples=20, deadline=None)
@given(instance=program_strategy(shape=ProgramShape(max_body_ops=4)))
def test_warm_memo_expands_like_a_cold_context_on_random_programs(instance):
    program, workload = instance
    config = ClientConfig(2, 1, workload, max_states=4000)
    try:
        _assert_warm_equals_cold(program, config)
    except BudgetExhausted:
        return  # state cap hit; nothing to compare


@pytest.mark.parametrize("name", ["treiber", "treiber_hp_buggy", "ms_queue", "hm_list"])
def test_cached_reference_indices_match_a_fresh_scan(monkeypatch, name):
    """Every ``canonicalize`` call an expansion makes gets exactly the
    indices a from-scratch scan of its arguments finds."""
    calls = []

    def checking(g, heap, threads, refs=None):
        if refs is not None:
            assert refs == state_refs(g, heap, threads)
            calls.append(refs)
        return canonicalize(g, heap, threads, refs)

    monkeypatch.setattr(client_module, "canonicalize", checking)
    bench = get(name)
    lts = explore(bench.build(2), ClientConfig(2, 1, bench.default_workload()))
    assert len(calls) == lts.num_transitions


def test_eviction_keeps_the_aut_bytes(monkeypatch):
    bench = get("hm_list")
    config = ClientConfig(2, 1, bench.default_workload())
    expected = dumps_aut(explore(bench.build(2), config))

    monkeypatch.setattr(client_module, "STEP_MEMO_SIZE", 2)
    explorer = _drained(bench.build(2), config)
    assert dumps_aut(explorer.freeze()) == expected
    context = explorer.context
    held = sum(
        len(slot) for _grefs, _adjacency, slots in context.memo.values()
        for slot in slots
    )
    # Checked before each expansion, which adds at most one per thread.
    assert held == context.entries <= 2 - 1 + config.num_threads
    assert context.misses > 100 * held


def test_hits_reuse_the_source_keys_shared_state():
    """Calls write no shared state: served from the memo for an equal
    but distinct key, the successor holds *that* key's objects."""
    bench = get("treiber")
    explorer = _drained(bench.build(2), ClientConfig(2, 1, bench.default_workload()))
    context = explorer.context
    misses = context.misses
    checked = 0
    for key in explorer.builder.state_keys:
        copy = pickle.loads(pickle.dumps(key))
        assert copy == key
        for label, dst, _annotation in context.expand(copy):
            if label[0] == "call":
                assert dst[0] is copy[0] and dst[1] is copy[1]
                checked += 1
    assert context.misses == misses  # every expansion above was a hit
    assert checked


def _failing_programs():
    falls_off = ObjectProgram(
        "falls_off", [Method("m", body=[LocalAssign(x=1)])], globals_={},
    )
    unlocks_free = ObjectProgram(
        "unlocks_free",
        [Method("m", locals_={"x": 0}, body=[
            ReadGlobal("x", "L").at("R"),
            Unlock("L").at("U"),
            Return("x"),
        ])],
        globals_={"L": False},
    )
    return [falls_off, unlocks_free]


@pytest.mark.parametrize("program", _failing_programs(), ids=lambda p: p.name)
def test_failing_steps_are_not_cached(program):
    context = ExpansionContext(program, ClientConfig(1, 1, [("m", ())]))
    key = context.initial_key()
    while True:  # walk the single-thread path up to the failing step
        try:
            edges = context.expand(key)
        except ModelError as exc:
            first = str(exc)
            break
        (_label, key, _annotation), = edges
    misses = context.misses
    with pytest.raises(ModelError) as second:
        context.expand(key)
    assert str(second.value) == first
    assert context.misses == misses
    _grefs, _adjacency, slots = context.memo[key[0], key[1]]
    assert key[2][0] not in slots[0]
