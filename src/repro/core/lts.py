"""Labelled transition systems (LTSs) for concurrent object verification.

This module implements Definition 2.1 of the paper: an object system is a
labelled transition system whose visible actions are method invocations
``(t, call, m(n))`` and method responses ``(t, ret(n'), m)``, and whose
internal computation steps are the silent action ``tau``.

States are dense integers, actions are interned to dense integers with
action id ``0`` reserved for ``tau``.  Transitions may carry an optional
*annotation* (e.g. the thread and source-code line that produced an
internal step); annotations are kept for diagnostics only and never
contribute to action identity, so all internal steps are a single
``tau`` action exactly as the paper requires.

The container comes in two forms:

* :class:`LTS` -- the mutable *builder*: append transitions, intern
  actions, grow the state space.  Adjacency is materialized lazily and
  invalidated on every mutation, so it is the right shape for
  construction (state-space exploration, ``.aut`` parsing, tests) and
  the wrong shape for analysis.
* :class:`FrozenLTS` -- the immutable analysis form produced by
  :meth:`LTS.freeze`: transitions live in dense CSR (compressed sparse
  row) ``array('q')`` index/offset layouts, sorted by ``(src, action,
  dst)`` with duplicates merged, plus a mirrored predecessor CSR and a
  cached silent-edge slice.  Membership tests are binary searches, the
  per-source successor slice is contiguous, and every equivalence
  engine in :mod:`repro.core` runs on this form.

Both forms answer the same read-only query API, so code that only
inspects a system accepts either; :func:`ensure_frozen` is the cheap
normalization used at every analysis entry point.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple, Union

try:  # optional accelerator -- bulk sorting and CSR construction
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is not a hard dependency
    _np = None

#: Below this many transitions the pure-Python construction wins (array
#: setup overhead dominates); both build the same CSR columns.
_NUMPY_MIN_EDGES = 512

#: The canonical label of the silent action.
TAU: Tuple[str, ...] = ("tau",)

#: The action id of the silent action in every :class:`LTS`.
TAU_ID: int = 0


class LTS:
    """A finite labelled transition system (the mutable builder form).

    Attributes
    ----------
    init:
        The initial state (an integer).
    action_labels:
        Interned action labels; ``action_labels[0] is TAU``.
    """

    __slots__ = (
        "init",
        "action_labels",
        "_action_ids",
        "_src",
        "_act",
        "_dst",
        "_ann",
        "_num_states",
        "_succ",
        "_pred",
        "_trans_set",
    )

    def __init__(self) -> None:
        self.init: int = 0
        self.action_labels: List[Hashable] = [TAU]
        self._action_ids: Dict[Hashable, int] = {TAU: TAU_ID}
        self._src: List[int] = []
        self._act: List[int] = []
        self._dst: List[int] = []
        self._ann: List[Any] = []
        self._num_states: int = 0
        self._succ: Optional[List[List[Tuple[int, int]]]] = None
        self._pred: Optional[List[List[Tuple[int, int]]]] = None
        self._trans_set: Optional[set] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_state(self) -> int:
        """Create a fresh state and return its id."""
        self._num_states += 1
        self._invalidate()
        return self._num_states - 1

    def add_states(self, count: int) -> None:
        """Create ``count`` fresh states."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._num_states += count
        self._invalidate()

    def action_id(self, label: Hashable) -> int:
        """Intern ``label`` and return its dense action id."""
        aid = self._action_ids.get(label)
        if aid is None:
            aid = len(self.action_labels)
            self.action_labels.append(label)
            self._action_ids[label] = aid
        return aid

    def lookup_action(self, label: Hashable) -> Optional[int]:
        """Return the action id of ``label`` or ``None`` if never used."""
        return self._action_ids.get(label)

    def add_transition(
        self,
        src: int,
        label: Hashable,
        dst: int,
        annotation: Any = None,
    ) -> None:
        """Add the transition ``src --label--> dst``.

        ``label`` is always interned verbatim -- an ``int`` label is an
        integer-valued *action label*, never an action id (use
        :meth:`add_transition_by_id` for already-interned ids).
        """
        self._append(src, self.action_id(label), dst, annotation)

    def add_transition_by_id(
        self,
        src: int,
        aid: int,
        dst: int,
        annotation: Any = None,
    ) -> None:
        """Add ``src --aid--> dst`` for an already-interned action id."""
        if not 0 <= aid < len(self.action_labels):
            raise ValueError(
                f"action id {aid} is not interned "
                f"(have {len(self.action_labels)} actions)"
            )
        self._append(src, aid, dst, annotation)

    def extend_by_id(
        self,
        srcs: List[int],
        aids: List[int],
        dsts: List[int],
        annotations: List[Any],
    ) -> None:
        """Append already-interned transitions in bulk, given as four
        equally long columns (states must already exist)."""
        if not len(srcs) == len(aids) == len(dsts) == len(annotations):
            raise ValueError("transition columns differ in length")
        self._src.extend(srcs)
        self._act.extend(aids)
        self._dst.extend(dsts)
        self._ann.extend(annotations)
        self._invalidate()

    def _append(self, src: int, aid: int, dst: int, annotation: Any) -> None:
        needed = max(src, dst) + 1
        if needed > self._num_states:
            self._num_states = needed
        self._src.append(src)
        self._act.append(aid)
        self._dst.append(dst)
        self._ann.append(annotation)
        self._invalidate()

    def _invalidate(self) -> None:
        self._succ = None
        self._pred = None
        self._trans_set = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self._num_states

    @property
    def num_transitions(self) -> int:
        return len(self._src)

    @property
    def num_actions(self) -> int:
        return len(self.action_labels)

    def transitions(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over all transitions as ``(src, action_id, dst)``."""
        return zip(self._src, self._act, self._dst)

    def transitions_with_annotations(self) -> Iterator[Tuple[int, int, int, Any]]:
        """Iterate over ``(src, action_id, dst, annotation)`` tuples."""
        return zip(self._src, self._act, self._dst, self._ann)

    def annotation(self, index: int) -> Any:
        """Return the annotation of the ``index``-th transition."""
        return self._ann[index]

    def has_transition(self, src: int, aid: int, dst: int) -> bool:
        """Return whether ``src --aid--> dst`` is a transition."""
        if self._trans_set is None:
            self._trans_set = set(zip(self._src, self._act, self._dst))
        return (src, aid, dst) in self._trans_set

    def successors(self, state: int) -> List[Tuple[int, int]]:
        """All ``(action_id, dst)`` pairs leaving ``state``."""
        if self._succ is None:
            self._build_succ()
        assert self._succ is not None
        return self._succ[state]

    def predecessors(self, state: int) -> List[Tuple[int, int]]:
        """All ``(action_id, src)`` pairs entering ``state``."""
        if self._pred is None:
            self._build_pred()
        assert self._pred is not None
        return self._pred[state]

    def tau_successors(self, state: int) -> List[int]:
        """Targets of tau transitions leaving ``state``."""
        return [dst for aid, dst in self.successors(state) if aid == TAU_ID]

    def visible_successors(self, state: int) -> List[Tuple[int, int]]:
        """Non-tau ``(action_id, dst)`` pairs leaving ``state``."""
        return [(aid, dst) for aid, dst in self.successors(state) if aid != TAU_ID]

    def enabled_actions(self, state: int) -> frozenset:
        """The set of action ids enabled in ``state``."""
        return frozenset(aid for aid, _ in self.successors(state))

    def _build_succ(self) -> None:
        succ: List[List[Tuple[int, int]]] = [[] for _ in range(self._num_states)]
        for src, act, dst in zip(self._src, self._act, self._dst):
            succ[src].append((act, dst))
        self._succ = succ

    def _build_pred(self) -> None:
        pred: List[List[Tuple[int, int]]] = [[] for _ in range(self._num_states)]
        for src, act, dst in zip(self._src, self._act, self._dst):
            pred[dst].append((act, src))
        self._pred = pred

    # ------------------------------------------------------------------
    # derived systems
    # ------------------------------------------------------------------
    def reachable_states(self) -> List[int]:
        """States reachable from the initial state, in BFS order."""
        return _reachable_states(self)

    def restrict_reachable(self) -> "LTS":
        """Return a copy restricted to the states reachable from ``init``."""
        return _restrict_reachable(self, LTS)

    def relabel(self, mapping: Callable[[Hashable], Hashable]) -> "LTS":
        """Return a copy with every action label passed through ``mapping``."""
        return _relabel(self, mapping, LTS)

    def copy(self) -> "LTS":
        """Return a structural copy."""
        return self.relabel(lambda label: label)

    def thaw(self) -> "LTS":
        """Return a mutable copy (symmetric with :meth:`FrozenLTS.thaw`)."""
        return self.copy()

    def freeze(self) -> "FrozenLTS":
        """Build the immutable CSR form of this system.

        Transitions are sorted by ``(src, action, dst)`` and duplicates
        are merged; annotations of merged duplicates are kept as a
        tuple of the distinct non-``None`` values, in insertion order.
        """
        if _np is not None and len(self._src) >= _NUMPY_MIN_EDGES:
            columns = _sort_dedup_np(self._src, self._act, self._dst, self._ann)
        else:
            columns = _sort_dedup_py(self._src, self._act, self._dst, self._ann)
        return FrozenLTS(self.init, list(self.action_labels), self._num_states, *columns)


class FrozenLTS:
    """Immutable CSR form of an LTS (the analysis form).

    Layout: the deduplicated transitions sorted by ``(src, action,
    dst)`` live in three parallel ``array('q')`` columns with an
    ``n+1``-entry row-offset array per source state, and the mirror
    (sorted by ``(dst, action, src)``) backs the predecessor queries.
    Within a source's slice the silent action (id 0) sorts first, so
    the tau out-edges of a state are a prefix of its slice and the
    silent sub-relation is available as two flat arrays without any
    per-query filtering.

    The read-only query API is identical to :class:`LTS`; mutation
    methods do not exist, and :meth:`action_id` refuses to intern new
    labels.
    """

    __slots__ = (
        "init",
        "action_labels",
        "_action_ids",
        "_num_states",
        "_esrc",
        "_eact",
        "_edst",
        "_ptr",
        "_pact",
        "_psrc",
        "_pptr",
        "_eann",
        "_tau_src",
        "_tau_dst",
        "_tau_adj",
    )

    def __init__(
        self,
        init: int,
        action_labels: List[Hashable],
        num_states: int,
        esrc: array,
        eact: array,
        edst: array,
        eann: Optional[List[Optional[Tuple[Any, ...]]]] = None,
    ) -> None:
        """Adopt already sorted, duplicate-free ``(src, act, dst)``
        columns (``array('q')``, sorted by ``(src, act, dst)``) and
        build the row offsets, the mirrored predecessor CSR and the
        silent-edge arrays from them in bulk.

        ``action_labels`` is adopted as the interning table (label
        ``i`` has action id ``i``; ``action_labels[0]`` is ``TAU``).
        ``eann``, when given, holds per edge the tuple of distinct
        merged annotations or ``None``.  Every producer --
        :meth:`LTS.freeze`, :func:`disjoint_union`, the reduction --
        constructs through here.
        """
        self.init: int = init
        self.action_labels: List[Hashable] = action_labels
        self._action_ids: Dict[Hashable, int] = {
            label: aid for aid, label in enumerate(action_labels)
        }
        self._num_states: int = num_states
        self._esrc = esrc
        self._eact = eact
        self._edst = edst
        self._eann = eann
        self._tau_adj: Optional[List[List[int]]] = None

        if _np is not None and len(esrc) >= _NUMPY_MIN_EDGES:
            np = _np
            src = np.frombuffer(esrc, dtype=np.int64)
            act = np.frombuffer(eact, dtype=np.int64)
            dst = np.frombuffer(edst, dtype=np.int64)
            states = np.arange(num_states + 1, dtype=np.int64)
            self._ptr = _to_array(np.searchsorted(src, states))
            mirror = np.lexsort((src, act, dst))
            self._pact = _to_array(act[mirror])
            self._psrc = _to_array(src[mirror])
            self._pptr = _to_array(np.searchsorted(dst[mirror], states))
            tau = act == TAU_ID
            self._tau_src = _to_array(src[tau])
            self._tau_dst = _to_array(dst[tau])
            return

        self._ptr = _offsets(num_states, esrc)
        pdst = array("q")
        pact = array("q")
        psrc = array("q")
        for dst, act, src in sorted(zip(edst, eact, esrc)):
            pdst.append(dst)
            pact.append(act)
            psrc.append(src)
        self._pact = pact
        self._psrc = psrc
        self._pptr = _offsets(num_states, pdst)
        tau_src = array("q")
        tau_dst = array("q")
        for src, act, dst in zip(esrc, eact, edst):
            if act == TAU_ID:
                tau_src.append(src)
                tau_dst.append(dst)
        self._tau_src = tau_src
        self._tau_dst = tau_dst

    # ------------------------------------------------------------------
    # basic queries (same API as the builder)
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self._num_states

    @property
    def num_transitions(self) -> int:
        return len(self._esrc)

    @property
    def num_actions(self) -> int:
        return len(self.action_labels)

    def action_id(self, label: Hashable) -> int:
        """Look up an already-interned label (frozen systems cannot intern)."""
        aid = self._action_ids.get(label)
        if aid is None:
            raise ValueError(
                f"frozen LTS cannot intern new action label {label!r}; "
                "thaw() first"
            )
        return aid

    def lookup_action(self, label: Hashable) -> Optional[int]:
        """Return the action id of ``label`` or ``None`` if never used."""
        return self._action_ids.get(label)

    def transitions(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over all transitions as ``(src, action_id, dst)``."""
        return zip(self._esrc, self._eact, self._edst)

    def transitions_with_annotations(self) -> Iterator[Tuple[int, int, int, Any]]:
        """Iterate over ``(src, action_id, dst, annotation)`` tuples.

        A merged duplicate edge that collapsed several distinct
        annotations is yielded once per annotation, so diagnostic
        consumers (thread recovery, essential internal steps) see every
        annotation that existed before deduplication.
        """
        eann = self._eann
        if eann is None:
            for src, act, dst in zip(self._esrc, self._eact, self._edst):
                yield src, act, dst, None
            return
        for index, (src, act, dst) in enumerate(
            zip(self._esrc, self._eact, self._edst)
        ):
            anns = eann[index]
            if anns is None:
                yield src, act, dst, None
            else:
                for ann in anns:
                    yield src, act, dst, ann

    def edge_annotations(self, index: int) -> Tuple[Any, ...]:
        """Distinct annotations merged into the ``index``-th CSR edge."""
        if self._eann is None or self._eann[index] is None:
            return ()
        return self._eann[index]

    def has_transition(self, src: int, aid: int, dst: int) -> bool:
        """Binary search for ``src --aid--> dst`` in the sorted slice."""
        if not 0 <= src < self._num_states:
            return False
        lo, hi = self._ptr[src], self._ptr[src + 1]
        lo = bisect_left(self._eact, aid, lo, hi)
        hi = bisect_right(self._eact, aid, lo, hi)
        index = bisect_left(self._edst, dst, lo, hi)
        return index < hi and self._edst[index] == dst

    def successor_slice(self, state: int) -> Tuple[int, int]:
        """CSR bounds ``(lo, hi)`` of the out-edges of ``state``."""
        return self._ptr[state], self._ptr[state + 1]

    def successors(self, state: int) -> List[Tuple[int, int]]:
        """All ``(action_id, dst)`` pairs leaving ``state``."""
        lo, hi = self._ptr[state], self._ptr[state + 1]
        eact, edst = self._eact, self._edst
        return [(eact[i], edst[i]) for i in range(lo, hi)]

    def predecessors(self, state: int) -> List[Tuple[int, int]]:
        """All ``(action_id, src)`` pairs entering ``state``."""
        lo, hi = self._pptr[state], self._pptr[state + 1]
        pact, psrc = self._pact, self._psrc
        return [(pact[i], psrc[i]) for i in range(lo, hi)]

    def successors_by_action(self, state: int, aid: int) -> List[int]:
        """Targets of ``state --aid--> .`` (a contiguous CSR sub-slice)."""
        lo, hi = self._ptr[state], self._ptr[state + 1]
        lo = bisect_left(self._eact, aid, lo, hi)
        hi = bisect_right(self._eact, aid, lo, hi)
        return list(self._edst[lo:hi])

    def tau_successors(self, state: int) -> List[int]:
        """Targets of tau transitions leaving ``state`` (slice prefix)."""
        lo, hi = self._ptr[state], self._ptr[state + 1]
        hi = bisect_right(self._eact, TAU_ID, lo, hi)
        return list(self._edst[lo:hi])

    def visible_successors(self, state: int) -> List[Tuple[int, int]]:
        """Non-tau ``(action_id, dst)`` pairs leaving ``state``."""
        lo, hi = self._ptr[state], self._ptr[state + 1]
        lo = bisect_right(self._eact, TAU_ID, lo, hi)
        eact, edst = self._eact, self._edst
        return [(eact[i], edst[i]) for i in range(lo, hi)]

    def enabled_actions(self, state: int) -> frozenset:
        """The set of action ids enabled in ``state``."""
        lo, hi = self._ptr[state], self._ptr[state + 1]
        return frozenset(self._eact[lo:hi])

    # ------------------------------------------------------------------
    # cached silent sub-relation (shared by every tau-analysis consumer)
    # ------------------------------------------------------------------
    def tau_edges(self) -> Tuple[array, array]:
        """The silent edges as flat ``(sources, targets)`` arrays."""
        return self._tau_src, self._tau_dst

    def edge_arrays(self) -> Tuple[array, array, array]:
        """The raw CSR columns ``(sources, action_ids, targets)``.

        Sorted by ``(source, action, target)`` and duplicate-free; the
        arrays are the frozen system's own storage -- callers must not
        mutate them.
        """
        return self._esrc, self._eact, self._edst

    def tau_adjacency(self) -> List[List[int]]:
        """Per-state tau successor lists (built once, then cached)."""
        if self._tau_adj is None:
            adj: List[List[int]] = [[] for _ in range(self._num_states)]
            for src, dst in zip(self._tau_src, self._tau_dst):
                adj[src].append(dst)
            self._tau_adj = adj
        return self._tau_adj

    # ------------------------------------------------------------------
    # derived systems
    # ------------------------------------------------------------------
    def reachable_states(self) -> List[int]:
        """States reachable from the initial state, in BFS order."""
        return _reachable_states(self)

    def restrict_reachable(self) -> "FrozenLTS":
        """Restriction to the states reachable from ``init`` (frozen)."""
        return _restrict_reachable(self, LTS).freeze()

    def relabel(self, mapping: Callable[[Hashable], Hashable]) -> "FrozenLTS":
        """Copy with every action label passed through ``mapping``."""
        return _relabel(self, mapping, LTS).freeze()

    def copy(self) -> "FrozenLTS":
        """Frozen systems are immutable: a copy is the system itself."""
        return self

    def freeze(self) -> "FrozenLTS":
        """Already frozen: the identity."""
        return self

    def thaw(self) -> LTS:
        """Return a mutable builder copy of this system."""
        return _relabel(self, lambda label: label, LTS)


#: Either form of the container; analysis code accepts both.
AnyLTS = Union[LTS, FrozenLTS]


def ensure_frozen(lts: AnyLTS) -> FrozenLTS:
    """Normalize to the CSR form (the identity on frozen inputs)."""
    if isinstance(lts, FrozenLTS):
        return lts
    return lts.freeze()


def _offsets(num_states: int, sorted_column: array) -> array:
    """Row-offset array of a CSR layout from its sorted leading column."""
    counts = [0] * (num_states + 1)
    for value in sorted_column:
        counts[value + 1] += 1
    total = 0
    ptr = array("q", [0] * (num_states + 1))
    for index in range(num_states + 1):
        total += counts[index]
        ptr[index] = total
    return ptr


def _to_array(values: Any) -> array:
    """Copy an int64 NumPy vector into an ``array('q')`` column."""
    out = array("q")
    out.frombytes(_np.ascontiguousarray(values, dtype=_np.int64).tobytes())
    return out


Columns = Tuple[array, array, array, Optional[List[Optional[Tuple[Any, ...]]]]]


def _sort_dedup_py(
    src: List[int], act: List[int], dst: List[int], anns: List[Any]
) -> Columns:
    """Sorted, duplicate-free CSR columns plus merged annotations
    (``None`` when no transition is annotated)."""
    esrc = array("q")
    eact = array("q")
    edst = array("q")
    any_ann = any(a is not None for a in anns)
    eann: Optional[List[Optional[Tuple[Any, ...]]]] = [] if any_ann else None
    last: Optional[Tuple[int, int, int]] = None
    for s, a, d, index in sorted(zip(src, act, dst, range(len(src)))):
        key = (s, a, d)
        if key == last:
            if eann is not None:
                ann = anns[index]
                if ann is not None:
                    merged = eann[-1] or ()
                    if ann not in merged:
                        eann[-1] = merged + (ann,)
            continue
        last = key
        esrc.append(s)
        eact.append(a)
        edst.append(d)
        if eann is not None:
            ann = anns[index]
            eann.append((ann,) if ann is not None else None)
    return esrc, eact, edst, eann


def _sort_dedup_np(
    src: List[int], act: List[int], dst: List[int], anns: List[Any]
) -> Columns:
    """:func:`_sort_dedup_py` by one stable ``lexsort`` and a
    run-boundary mask; only duplicate runs merge annotations in Python."""
    np = _np
    s = np.array(src, dtype=np.int64)
    a = np.array(act, dtype=np.int64)
    d = np.array(dst, dtype=np.int64)
    order = np.lexsort((d, a, s))  # stable: repeats keep insertion order
    s, a, d = s[order], a[order], d[order]
    first = np.ones(len(s), dtype=bool)
    first[1:] = (s[1:] != s[:-1]) | (a[1:] != a[:-1]) | (d[1:] != d[:-1])
    eann: Optional[List[Optional[Tuple[Any, ...]]]] = None
    if any(ann is not None for ann in anns):
        eann = [
            None if ann is None else (ann,)
            for ann in map(anns.__getitem__, order[first].tolist())
        ]
        repeats = np.nonzero(~first)[0]
        slots = (np.cumsum(first) - 1)[repeats].tolist()
        for slot, index in zip(slots, order[repeats].tolist()):
            ann = anns[index]
            if ann is not None:
                merged = eann[slot] or ()
                if ann not in merged:
                    eann[slot] = merged + (ann,)
    return _to_array(s[first]), _to_array(a[first]), _to_array(d[first]), eann


def _reachable_states(lts: AnyLTS) -> List[int]:
    if lts.num_states == 0:
        return []
    seen = [False] * lts.num_states
    seen[lts.init] = True
    order = [lts.init]
    queue = deque(order)
    while queue:
        s = queue.popleft()
        for _aid, dst in lts.successors(s):
            if not seen[dst]:
                seen[dst] = True
                order.append(dst)
                queue.append(dst)
    return order


def _restrict_reachable(lts: AnyLTS, cls: type) -> LTS:
    order = _reachable_states(lts)
    remap = {old: new for new, old in enumerate(order)}
    out = cls()
    out.add_states(len(order))
    out.init = remap[lts.init]
    for src, aid, dst, ann in lts.transitions_with_annotations():
        if src in remap and dst in remap:
            out.add_transition(remap[src], lts.action_labels[aid], remap[dst], ann)
    return out


def _relabel(lts: AnyLTS, mapping: Callable[[Hashable], Hashable], cls: type) -> LTS:
    out = cls()
    out.add_states(lts.num_states)
    out.init = lts.init
    for src, aid, dst, ann in lts.transitions_with_annotations():
        out.add_transition(src, mapping(lts.action_labels[aid]), dst, ann)
    return out


def disjoint_union(a: AnyLTS, b: AnyLTS) -> Tuple[FrozenLTS, int, int]:
    """Combine ``a`` and ``b`` into one frozen LTS with disjoint states.

    Returns ``(union, init_a, init_b)`` where ``init_a`` / ``init_b``
    are the images of the two initial states.  The union's own ``init``
    is ``init_a``.  This is the construction used when two object
    systems are compared for (divergence-sensitive) branching
    bisimilarity (Section V of the paper).

    The union's action labels are those *used* by ``a`` and then by
    ``b``, each in first-occurrence order over the side's transitions
    (CSR order for a frozen side, insertion order for a builder), so
    the result equals adding every transition of ``a`` then of ``b``
    to a fresh builder and freezing it -- which is what the pure-Python
    fallback does, minus the builder.  With NumPy the sides' CSR
    columns are concatenated instead.
    """
    labels: List[Hashable] = [TAU]
    ids: Dict[Hashable, int] = {TAU: TAU_ID}
    sides = []
    for side, shift in ((a, 0), (b, a.num_states)):
        used = dict.fromkeys(side._eact if isinstance(side, FrozenLTS) else side._act)
        remap = list(range(len(side.action_labels)))
        for old in used:
            label = side.action_labels[old]
            new = ids.get(label)
            if new is None:
                new = ids[label] = len(labels)
                labels.append(label)
            remap[old] = new
        new_ids = [remap[old] for old in sorted(used)]
        sides.append((side, shift, remap, new_ids != sorted(new_ids)))

    if _np is None or a.num_transitions + b.num_transitions < _NUMPY_MIN_EDGES:
        src: List[int] = []
        act: List[int] = []
        dst: List[int] = []
        anns: List[Any] = []
        for side, shift, remap, _ in sides:
            for s, aid, d, ann in side.transitions_with_annotations():
                src.append(s + shift)
                act.append(remap[aid])
                dst.append(d + shift)
                anns.append(ann)
        columns = _sort_dedup_py(src, act, dst, anns)
    else:
        columns = _concat_sides_np(sides)
    union = FrozenLTS(a.init, labels, a.num_states + b.num_states, *columns)
    return union, a.init, b.init + a.num_states


def _concat_sides_np(sides: List[Tuple[AnyLTS, int, List[int], bool]]) -> Columns:
    """The union's columns from each side's own CSR columns: action ids
    remapped, states shifted, a side re-sorted only when its remap is
    not monotone; annotation lists padded with ``None``."""
    np = _np
    parts = []
    for side, shift, remap, resort in sides:
        frozen = ensure_frozen(side)
        src, act, dst = (np.frombuffer(c, dtype=np.int64) for c in frozen.edge_arrays())
        src, act, dst = src + shift, np.asarray(remap, dtype=np.int64)[act], dst + shift
        eann = frozen._eann
        if resort:
            order = np.lexsort((dst, act, src))
            src, act, dst = src[order], act[order], dst[order]
            if eann is not None:
                eann = list(map(eann.__getitem__, order.tolist()))
        parts.append((src, act, dst, eann))
    (sa, aa, da, ann_a), (sb, ab, db, ann_b) = parts
    union_ann = None
    if ann_a is not None or ann_b is not None:
        union_ann = (ann_a or [None] * len(sa)) + (ann_b or [None] * len(sb))
    return (
        _to_array(np.concatenate((sa, sb))),
        _to_array(np.concatenate((aa, ab))),
        _to_array(np.concatenate((da, db))),
        union_ann,
    )


class LTSBuilder:
    """Incremental LTS construction over arbitrary hashable state keys.

    State-space explorers produce states as rich hashable values (tuples
    of shared memory, heaps and thread records); the builder interns
    them into dense integers.
    """

    __slots__ = ("lts", "_state_ids", "state_keys")

    def __init__(self) -> None:
        self.lts = LTS()
        self._state_ids: Dict[Hashable, int] = {}
        self.state_keys: List[Hashable] = []

    def state(self, key: Hashable) -> int:
        """Intern ``key`` and return its state id."""
        sid = self._state_ids.get(key)
        if sid is None:
            sid = self.lts.add_state()
            self._state_ids[key] = sid
            self.state_keys.append(key)
        return sid

    def known(self, key: Hashable) -> bool:
        """Return whether ``key`` has already been interned."""
        return key in self._state_ids

    def transition(
        self, src_key: Hashable, label: Hashable, dst_key: Hashable, annotation: Any = None
    ) -> Tuple[int, bool]:
        """Add a transition between (possibly new) keyed states.

        Returns ``(dst_id, dst_is_new)`` so explorers can drive their
        work-list from the builder.
        """
        src = self.state(src_key)
        new = dst_key not in self._state_ids
        dst = self.state(dst_key)
        self.lts.add_transition(src, label, dst, annotation)
        return dst, new

    def set_init(self, key: Hashable) -> None:
        self.lts.init = self.state(key)

    @classmethod
    def from_states(cls, lts: LTS, keys: List[Hashable]) -> "LTSBuilder":
        """A builder over an existing ``lts`` whose state ``i`` is
        ``keys[i]`` (for code that interns states by other means)."""
        if len(keys) != lts.num_states:
            raise ValueError("one key per state required")
        builder = cls()
        builder.lts = lts
        builder.state_keys = list(keys)
        builder._state_ids = {key: sid for sid, key in enumerate(keys)}
        return builder


def make_lts(
    num_states: int,
    init: int,
    transitions: Iterable[Tuple[int, Hashable, int]],
) -> LTS:
    """Convenience constructor used heavily by the tests.

    ``transitions`` is an iterable of ``(src, label, dst)`` where a
    label of ``"tau"`` or :data:`TAU` denotes the silent action.  The
    result is the mutable builder form; call ``.freeze()`` for CSR.
    """
    lts = LTS()
    lts.add_states(num_states)
    lts.init = init
    for src, label, dst in transitions:
        if label == "tau":
            label = TAU
        lts.add_transition(src, label, dst)
    return lts


def _dot_escape(text: str) -> str:
    """Escape a label for a double-quoted DOT string."""
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\r\n", "\\n")
        .replace("\n", "\\n")
        .replace("\r", "\\n")
    )


def to_dot(lts: AnyLTS, name: str = "lts", max_states: int = 2000) -> str:
    """Render an LTS in GraphViz DOT format (for small systems)."""
    if lts.num_states > max_states:
        raise ValueError(
            f"refusing to render {lts.num_states} states (max {max_states})"
        )
    lines = [f"digraph {name} {{", "  rankdir=LR;", f'  init [shape=point]; init -> {lts.init};']
    for s in range(lts.num_states):
        lines.append(f'  {s} [shape=circle,label="{s}"];')
    for src, aid, dst in lts.transitions():
        label = lts.action_labels[aid]
        text = "tau" if aid == TAU_ID else str(label)
        lines.append(f'  {src} -> {dst} [label="{_dot_escape(text)}"];')
    lines.append("}")
    return "\n".join(lines)
