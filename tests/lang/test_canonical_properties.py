"""Property tests for state canonicalization (hypothesis)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang.state import canonicalize, state_refs
from repro.lang.values import Ref
from tests.helpers import typed

COMMON = settings(max_examples=100, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def value_strategy(num_nodes):
    base = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.booleans(),
        st.none(),
        st.builds(Ref, st.integers(min_value=0, max_value=max(0, num_nodes - 1)))
        if num_nodes else st.none(),
    )
    return st.one_of(base, st.tuples(base, base))


@st.composite
def state_strategy(draw):
    num_nodes = draw(st.integers(min_value=0, max_value=5))
    values = value_strategy(num_nodes)
    heap = tuple(
        tuple([draw(st.booleans())] + draw(st.lists(values, min_size=2, max_size=2)))
        for _ in range(num_nodes)
    )
    globals_ = tuple(draw(st.lists(values, min_size=0, max_size=3)))
    num_threads = draw(st.integers(min_value=1, max_value=2))
    threads = tuple(
        (draw(st.integers(min_value=-1, max_value=1)),
         draw(st.integers(min_value=-1, max_value=3)),
         tuple(draw(st.lists(values, min_size=0, max_size=2))),
         draw(st.integers(min_value=0, max_value=2)))
        for _ in range(num_threads)
    )
    return globals_, heap, threads


def all_refs(value, acc):
    if type(value) is Ref:
        acc.append(value)
    elif type(value) is tuple:
        for item in value:
            all_refs(item, acc)
    return acc


@COMMON
@given(state_strategy())
def test_canonicalize_idempotent(state):
    once = canonicalize(*state)
    twice = canonicalize(*once)
    assert once == twice


@COMMON
@given(state_strategy())
def test_canonicalize_refs_are_dense_and_valid(state):
    globals_, heap, threads = canonicalize(*state)
    refs = []
    for value in globals_:
        all_refs(value, refs)
    for record in threads:
        all_refs(record[2], refs)
    for node in heap:
        for value in node[1:]:
            all_refs(value, refs)
    for ref in refs:
        assert 0 <= ref.index < len(heap)
    # Every retained node is reachable from a root -> referenced.
    reachable = set()
    frontier = []
    for value in globals_:
        all_refs(value, frontier)
    for record in threads:
        all_refs(record[2], frontier)
    while frontier:
        ref = frontier.pop()
        if ref.index in reachable:
            continue
        reachable.add(ref.index)
        for value in heap[ref.index][1:]:
            all_refs(value, frontier)
    assert reachable == set(range(len(heap)))


@COMMON
@given(state_strategy())
def test_canonicalize_preserves_thread_scalars(state):
    _globals, _heap, threads = canonicalize(*state)
    for original, result in zip(state[2], threads):
        assert result[0] == original[0]
        assert result[1] == original[1]
        assert result[3] == original[3]


def indices(value):
    return tuple(ref.index for ref in all_refs(value, []))


@COMMON
@given(state_strategy())
def test_canonicalize_with_precomputed_refs_matches_a_fresh_scan(state):
    globals_, heap, threads = state
    refs = (
        indices(globals_),
        [indices(node[1:]) for node in heap],
        [indices(record[2]) for record in threads],
    )
    assert state_refs(*state) == (refs[0], tuple(refs[1]), tuple(refs[2]))
    assert typed(canonicalize(*state, refs)) == typed(canonicalize(*state))
