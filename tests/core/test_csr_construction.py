"""The array-native CSR constructor and the producers built on it.

Every ``FrozenLTS`` is built from sorted, duplicate-free columns, by
``LTS.freeze`` (NumPy ``lexsort`` or a Python sort, by size),
``disjoint_union`` (concatenated columns) and the reduction (decoded
codes).  Two kinds of checks pin them:

* **structural equality with a per-edge reference** -- the system the
  old construction built: every transition added with
  ``LTS.add_transition`` to a fresh builder, then frozen;
* **parity of the NumPy and pure-Python branches** on the same inputs,
  with the size threshold lowered to 0 so that small Hypothesis
  systems take the NumPy branch too.
"""

from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import LTS, TAU, FrozenLTS, disjoint_union, make_lts, reduce_lts
from repro.core import lts as lts_module
from repro.core import reduce as reduce_module
from repro.lang import ClientConfig, explore
from repro.objects import get
from repro.testing.generators import lts_strategy, tau_heavy_lts_strategy

#: Registry objects the NumPy/Python parity runs on (2x1, both modes).
PARITY_OBJECTS = ("treiber", "ms_queue", "hm_list", "hw_queue", "treiber_hp_buggy")


def snapshot(frozen):
    """Every field of a frozen system, as plain comparable values."""
    return {
        "init": frozen.init,
        "num_states": frozen.num_states,
        "action_labels": list(frozen.action_labels),
        "action_ids": dict(frozen._action_ids),
        "columns": [list(c) for c in frozen.edge_arrays()],
        "eann": frozen._eann,
        "ptr": list(frozen._ptr),
        "mirror": [list(frozen._pact), list(frozen._psrc), list(frozen._pptr)],
        "tau": [list(c) for c in frozen.tau_edges()],
    }


def per_edge_union(a, b):
    """Reference union: add every transition of ``a`` then ``b``."""
    out = LTS()
    out.add_states(a.num_states + b.num_states)
    offset = a.num_states
    for src, aid, dst, ann in a.transitions_with_annotations():
        out.add_transition(src, a.action_labels[aid], dst, ann)
    for src, aid, dst, ann in b.transitions_with_annotations():
        out.add_transition(src + offset, b.action_labels[aid], dst + offset, ann)
    out.init = a.init
    return out.freeze()


def per_edge_copy(frozen):
    """Reference rebuild of a frozen system: same alphabet and states,
    its edges re-added one by one (in reverse) and frozen again."""
    out = LTS()
    for label in frozen.action_labels[1:]:
        out.action_id(label)
    out.add_states(frozen.num_states)
    out.init = frozen.init
    for src, aid, dst, ann in reversed(list(frozen.transitions_with_annotations())):
        out.add_transition_by_id(src, aid, dst, ann)
    return out.freeze()


try:
    import numpy
except ImportError:  # the fallback-only CI lane runs without NumPy
    numpy = None

needs_numpy = pytest.mark.skipif(numpy is None, reason="NumPy branch not installed")


@contextmanager
def construction_threshold(edges):
    """Set the edge count from which ``repro.core.lts`` builds with
    NumPy: 0 forces the NumPy branch, ``inf`` the Python one."""
    saved = lts_module._NUMPY_MIN_EDGES
    lts_module._NUMPY_MIN_EDGES = edges
    try:
        yield
    finally:
        lts_module._NUMPY_MIN_EDGES = saved


def both_branches(fn, *args):
    """``fn(*args)`` on the Python branch, and on the NumPy branch when
    it is installed; the results as a list."""
    with construction_threshold(float("inf")):
        results = [fn(*args)]
    if numpy is not None:
        with construction_threshold(0):
            results.append(fn(*args))
    return results


@st.composite
def annotated_lts(draw, max_states=5, max_transitions=14):
    """Small builders with repeated edges and annotations (some
    ``None``, some repeated), so freezing has runs to merge."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    out = LTS()
    out.add_states(n)
    out.init = draw(st.integers(min_value=0, max_value=n - 1))
    for label in draw(st.lists(st.sampled_from(["x", "y", "z"]), max_size=2)):
        out.action_id(label)  # interned, possibly unused
    for _ in range(draw(st.integers(min_value=0, max_value=max_transitions))):
        out.add_transition(
            draw(st.integers(min_value=0, max_value=min(n - 1, 2))),
            draw(st.sampled_from([TAU, "a", "b"])),
            draw(st.integers(min_value=0, max_value=min(n - 1, 2))),
            draw(st.sampled_from([None, None, "t1.L3", "t2.L5"])),
        )
    return out


# ----------------------------------------------------------------------
# the constructor
# ----------------------------------------------------------------------

def test_constructor_adopts_sorted_columns():
    frozen = FrozenLTS(
        1, [TAU, "a"], 3,
        array("q", [0, 0, 1]), array("q", [0, 1, 1]), array("q", [2, 1, 2]),
    )
    assert frozen.init == 1
    assert frozen.lookup_action("a") == 1
    assert frozen.successors(0) == [(0, 2), (1, 1)]
    assert frozen.predecessors(2) == [(0, 0), (1, 1)]
    assert frozen.tau_successors(0) == [2]
    assert list(frozen.tau_edges()[0]) == [0]
    assert frozen.has_transition(1, 1, 2)
    assert snapshot(frozen) == snapshot(per_edge_copy(frozen))


# ----------------------------------------------------------------------
# freeze: NumPy vs Python
# ----------------------------------------------------------------------

@needs_numpy
@given(annotated_lts(max_states=6, max_transitions=24))
def test_freeze_numpy_matches_python(lts):
    python, fast = both_branches(lambda: snapshot(lts.freeze()))
    assert fast == python


def test_freeze_merges_duplicate_annotations_in_insertion_order():
    lts = LTS()
    lts.add_transition(0, TAU, 1, "t2.L5")
    lts.add_transition(0, "a", 1)
    lts.add_transition(0, TAU, 1, None)
    lts.add_transition(0, TAU, 1, "t1.L3")
    lts.add_transition(0, TAU, 1, "t2.L5")
    for frozen in both_branches(lts.freeze):
        assert list(frozen.transitions()) == [(0, 0, 1), (0, 1, 1)]
        assert frozen._eann == [("t2.L5", "t1.L3"), None]


# ----------------------------------------------------------------------
# disjoint union: equal to the per-edge reference on both branches
# ----------------------------------------------------------------------

def _union_cases():
    plain = make_lts(3, 1, [(1, "x", 0), (0, "tau", 2), (1, "x", 0)])
    annotated = LTS()
    annotated.add_transition(0, TAU, 1, "t1.L2")
    annotated.add_transition(0, TAU, 1, "t2.L2")
    annotated.add_transition(1, "b", 0, "t1.L9")
    unused = make_lts(2, 0, [(0, "a", 1)])
    unused.action_id("never")
    empty = LTS()
    no_edges = make_lts(2, 1, [])
    # a_first interns "a" first but uses "b" first in CSR order, so once
    # frozen its remap into the union is not monotone.
    a_first = make_lts(2, 0, [(1, "a", 0), (0, "b", 1)])
    b_first = make_lts(2, 0, [(0, "b", 1), (1, "a", 0)])
    return {
        "plain+annotated": (plain, annotated),
        "annotated+plain": (annotated, plain),
        "unused-labels": (unused, unused),
        "empty+plain": (empty, plain),
        "plain+empty": (plain, empty),
        "empty+empty": (empty, empty),
        "no-edges+annotated": (no_edges, annotated),
        "non-monotone-b": (b_first, a_first),
        "non-monotone-a": (a_first, b_first),
    }


@pytest.mark.parametrize("frozen_inputs", [False, True])
@pytest.mark.parametrize("case", sorted(_union_cases()))
def test_union_equals_per_edge_reference(case, frozen_inputs):
    a, b = _union_cases()[case]
    if frozen_inputs:
        a, b = a.freeze(), b.freeze()
    expected = snapshot(per_edge_union(a, b))
    for union, init_a, init_b in both_branches(disjoint_union, a, b):
        assert snapshot(union) == expected
        assert (init_a, init_b) == (a.init, b.init + a.num_states)


def test_non_monotone_remap_is_resorted():
    a = make_lts(2, 0, [(1, "a", 0), (0, "b", 1), (1, "b", 1)]).freeze()
    assert a.action_labels == [TAU, "a", "b"]
    for union, _, _ in both_branches(disjoint_union, a, a):
        assert union.action_labels == [TAU, "b", "a"]
        assert list(union.transitions())[:3] == [(0, 1, 1), (1, 1, 1), (1, 2, 0)]
        assert snapshot(union) == snapshot(per_edge_union(a, a))


@given(annotated_lts(), annotated_lts(), st.booleans(), st.booleans())
def test_union_property(a, b, freeze_a, freeze_b):
    a = a.freeze() if freeze_a else a
    b = b.freeze() if freeze_b else b
    expected = snapshot(per_edge_union(a, b))
    for union, _, _ in both_branches(disjoint_union, a, b):
        assert snapshot(union) == expected


# ----------------------------------------------------------------------
# reduce: _reduce_np vs _reduce_py, and the per-edge reference
# ----------------------------------------------------------------------

def assert_reductions_agree(frozen, divergence):
    fast = reduce_module._reduce_np(frozen, divergence)
    slow = reduce_module._reduce_py(frozen, divergence)
    assert snapshot(fast.lts) == snapshot(slow.lts)
    assert fast.state_of == slow.state_of
    assert fast.representative == slow.representative
    assert fast.divergent == slow.divergent
    assert (fast.states_removed, fast.transitions_removed) == (
        slow.states_removed, slow.transitions_removed,
    )
    for reduced in (fast, slow):
        assert snapshot(reduced.lts) == snapshot(per_edge_copy(reduced.lts))
        assert reduced.lts.action_labels == frozen.action_labels


@needs_numpy
@given(tau_heavy_lts_strategy(max_states=7, max_transitions=16), st.booleans())
def test_reduce_numpy_matches_python_tau_heavy(lts, divergence):
    assert_reductions_agree(lts.freeze(), divergence)


@needs_numpy
@given(lts_strategy(max_states=7, max_transitions=16), st.booleans())
def test_reduce_numpy_matches_python(lts, divergence):
    lts.action_id("unused")
    assert_reductions_agree(lts.freeze(), divergence)


@needs_numpy
@pytest.mark.parametrize("key", PARITY_OBJECTS)
def test_numpy_matches_python_on_registry(key):
    bench = get(key)
    impl = explore(bench.build(2), ClientConfig(2, 1, bench.default_workload()))
    assert impl.num_transitions >= reduce_module._NUMPY_MIN_EDGES
    for divergence in (False, True):
        assert_reductions_agree(impl, divergence)
    reduced = reduce_lts(impl, divergence=True).lts
    expected = snapshot(per_edge_union(impl, reduced))
    for union, _, _ in both_branches(disjoint_union, impl, reduced):
        assert snapshot(union) == expected
    python, fast = both_branches(lambda: snapshot(impl.thaw().freeze()))
    assert fast == python == snapshot(impl)


@pytest.mark.parametrize("divergence", [False, True])
def test_reduce_keeps_alphabet_verbatim(divergence):
    lts = make_lts(3, 0, [(0, "tau", 1), (1, "a", 2)])
    lts.action_id("unused-label")
    frozen = lts.freeze()
    reduced = reduce_module._reduce_py(frozen, divergence)
    assert reduced.lts.action_labels == [TAU, "a", "unused-label"]
    assert snapshot(reduced.lts) == snapshot(per_edge_copy(reduced.lts))
    if numpy is not None:
        assert_reductions_agree(frozen, divergence)
