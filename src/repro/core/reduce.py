"""Silent-structure compression: tau-SCC condensation + strong tau-confluence.

This is a *pre-minimization*: :func:`reduce_lts` shrinks an object
system to a branching-bisimilar one before the expensive signature
refinement runs, in two layers.

1.  **Inert tau-SCC condensation.**  All states of a silent strongly
    connected component are branching bisimilar (each can silently reach
    every behaviour of the others; van Glabbeek-Luttik-Trcka), so each
    tau-SCC collapses to one state and intra-component silent steps
    disappear.  Components that contained a silent cycle (size > 1, or
    a tau self-loop) are *marked*: in the divergence-sensitive variant
    the mark is exactly a fresh-visible-self-loop in the cycle-marked
    system, which is how the reference oracles decide DSBB.

2.  **Strong tau-confluence compression** (after Groote & van de Pol).
    On the condensed system -- whose silent edges now form a DAG -- we
    compute the greatest set ``T`` of silent edges ``s --tau--> t``
    such that every other edge ``s --b--> u`` closes a diamond:

    * ``t --b--> u``                     (the step commutes on the nose),
    * ``t --b--> v`` and ``u --tau--> v`` in ``T``   (one confluent step
      closes it), or
    * ``b = tau`` and ``u --tau--> t`` in ``T``      (both silent steps
      converge on ``t``).

    In divergence mode an edge additionally requires
    ``marked(s) => marked(t)``: this is precisely the diamond condition
    for the divergence self-loop of the cycle-marked system, so marks
    only ever flow onto states that carry them too.  ``T`` is computed
    by iterated deletion (a greatest fixpoint), starting from all
    condensed silent edges.

    A ``T``-edge is inert -- its endpoints are branching bisimilar (in
    divergence mode: divergence-sensitively, because marks propagate) --
    so every state is replaced by the ``T``-terminal state reached by
    following ``T`` edges.  The reduced system keeps only the terminals
    and their own out-edges, with targets mapped through the same
    replacement; in divergence mode a marked terminal keeps an explicit
    tau self-loop so downstream DSBB refinement re-derives the
    divergence.  No spurious silent cycle can appear: the replacement
    map follows the condensed silent DAG forward, so a cycle in the
    reduced system would lift to a cycle in that DAG.

The pass is only sound for the *coarsest* (divergence-sensitive)
branching bisimulation: a caller-supplied seed partition may separate
states that the reduction merges, so the refinement entry points apply
it only when no initial partition is given.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from .graphs import tarjan_scc
from .lts import TAU_ID, AnyLTS, FrozenLTS, _to_array, ensure_frozen
from .partition import BlockMap

try:  # optional accelerator -- vectorizes the confluence fixpoint
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is not a hard dependency
    _np = None

#: Below this many transitions the pure-Python path wins (array setup
#: overhead dominates); both paths compute the same greatest fixpoint.
_NUMPY_MIN_EDGES = 512

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats


@dataclass
class ReducedLTS:
    """A compressed system plus the maps back to the original.

    Attributes
    ----------
    lts:
        The reduced system (frozen).
    state_of:
        For every original state, its image in the reduced system.
    representative:
        For every reduced state, one original state that maps to it.
    divergent:
        For every reduced state, whether its class contained a silent
        cycle (meaningful when the pass ran divergence-sensitively).
    states_removed, transitions_removed:
        Size deltas against the (frozen, deduplicated) input.
    """

    lts: FrozenLTS
    state_of: List[int]
    representative: List[int]
    divergent: List[bool]
    states_removed: int
    transitions_removed: int


def lift_partition(reduced: ReducedLTS, block_of: BlockMap) -> BlockMap:
    """Pull a partition of the reduced system back to the original states."""
    state_of = reduced.state_of
    return [block_of[state_of[s]] for s in range(len(state_of))]


def reduce_lts(
    lts: AnyLTS,
    divergence: bool = False,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
) -> ReducedLTS:
    """Compress ``lts`` to a (divergence-sensitive) branching-bisimilar system.

    ``budget``, when given, is checked during the confluence fixpoint
    under phase ``"reduce"``.
    """
    if stats is None:
        return _reduce(ensure_frozen(lts), divergence, budget)
    with stats.stage("reduce"):
        reduced = _reduce(ensure_frozen(lts), divergence, budget)
        stats.count("states_removed", reduced.states_removed)
        stats.count("transitions_removed", reduced.transitions_removed)
    return reduced


def _reduce(
    frozen: FrozenLTS,
    divergence: bool,
    budget: Optional["RunBudget"] = None,
) -> ReducedLTS:
    if _np is not None and frozen.num_transitions >= _NUMPY_MIN_EDGES:
        return _reduce_np(frozen, divergence, budget)
    return _reduce_py(frozen, divergence, budget)


def _reduce_py(
    frozen: FrozenLTS,
    divergence: bool,
    budget: Optional["RunBudget"] = None,
) -> ReducedLTS:
    n = frozen.num_states
    if n == 0:
        empty = FrozenLTS(0, list(frozen.action_labels), 0, array("q"), array("q"), array("q"))
        return ReducedLTS(empty, [], [], [], 0, 0)

    # -- layer 1: condense inert tau-SCCs ------------------------------
    tau_adj = frozen.tau_adjacency()
    comp_of, num_comps = tarjan_scc(n, lambda s: tau_adj[s])

    comp_size = [0] * num_comps
    for state in range(n):
        comp_size[comp_of[state]] += 1

    marked = [size > 1 for size in comp_size]
    tau_src, tau_dst = frozen.tau_edges()
    for src, dst in zip(tau_src, tau_dst):
        if comp_of[src] == comp_of[dst]:
            marked[comp_of[src]] = True

    # Condensed edges are packed into single ints -- with ``A`` actions
    # and ``C`` components, ``(csrc, aid, cdst)`` becomes
    # ``csrc*A*C + aid*C + cdst``.  Since ``TAU_ID == 0``, the tau edges
    # of a component are exactly the codes whose per-source remainder is
    # below ``C``, and the remainder itself doubles as the
    # ``aid*C + cdst`` co-edge code.  Int sets make the fixpoint's
    # membership tests several times cheaper than tuple sets.
    A = len(frozen.action_labels)
    C = num_comps
    AC = A * C
    edges: Set[int] = set()
    add_edge = edges.add
    for src, aid, dst in zip(*frozen.edge_arrays()):
        csrc, cdst = comp_of[src], comp_of[dst]
        if aid == TAU_ID and csrc == cdst:
            continue
        add_edge(csrc * AC + aid * C + cdst)

    sorted_edges = sorted(edges)
    csucc: List[List[int]] = [[] for _ in range(C)]  # aid*C + cdst codes
    succ_by_act: List[Dict[int, List[int]]] = [{} for _ in range(C)]
    candidates: List[Tuple[int, int]] = []  # condensed tau edges, sorted
    confluent: Set[int] = set()  # s*C + t codes
    for code in sorted_edges:
        csrc, rem = divmod(code, AC)
        aid, cdst = divmod(rem, C)
        csucc[csrc].append(rem)
        succ_by_act[csrc].setdefault(aid, []).append(cdst)
        if aid == TAU_ID and (
            not divergence or not marked[csrc] or marked[cdst]
        ):
            candidates.append((csrc, cdst))
            confluent.add(csrc * C + cdst)

    # -- layer 2: greatest confluent set T over the condensed tau DAG --
    # Worklist greatest fixpoint: verify each candidate once, recording
    # which still-confluent edges its diamonds relied on; when an edge
    # is deleted only its recorded dependents are re-verified, instead
    # of re-scanning every candidate until a full pass stays quiet.
    # Candidates are sorted and Tarjan numbers successors first, so the
    # initial sweep resolves most diamonds bottom-up.
    has_edge = edges.__contains__
    in_t = confluent.__contains__
    dependents: Dict[int, List[Tuple[int, int]]] = {}
    queue = list(candidates)
    head = 0
    while head < len(queue):
        if budget is not None:
            budget.check("reduce", states=n, worklist=len(queue) - head)
        s, t = queue[head]
        head += 1
        st = s * C + t
        if st not in confluent:
            continue
        by_act_t = succ_by_act[t]
        t_base = t * AC
        used: List[int] = []
        closes = True
        for rem in csucc[s]:
            b, u = divmod(rem, C)
            if b == TAU_ID and u == t:
                continue
            if has_edge(t_base + rem):  # t --b--> u
                continue
            if b == TAU_ID and in_t(u * C + t):
                used.append(u * C + t)
                continue
            u_base = u * C
            for v in by_act_t.get(b, ()):
                if in_t(u_base + v):
                    used.append(u_base + v)
                    break
            else:
                closes = False
                break
        if closes:
            for code in used:
                dependents.setdefault(code, []).append((s, t))
        else:
            confluent.discard(st)
            queue.extend(dependents.pop(st, ()))

    # Deterministic replacement: follow the smallest confluent successor
    # until a T-terminal component is reached (the T-graph is acyclic).
    # ``candidates`` is sorted, so the first surviving edge per source
    # has the smallest target.
    step: Dict[int, int] = {}
    for s, t in candidates:
        if s not in step and (s * C + t) in confluent:
            step[s] = t
    rep = list(range(num_comps))
    for comp in range(num_comps):  # increasing id = successors resolved first
        nxt = step.get(comp)
        if nxt is not None:
            rep[comp] = rep[nxt]

    # -- build the reduced system --------------------------------------
    terminals = sorted({rep[comp] for comp in range(num_comps)})
    new_id = {comp: index for index, comp in enumerate(terminals)}

    emitted: Set[Tuple[int, int, int]] = set()
    for comp in terminals:
        src = new_id[comp]
        for rem in csucc[comp]:
            aid, cdst = divmod(rem, C)
            emitted.add((src, aid, new_id[rep[cdst]]))
        if divergence and marked[comp]:
            emitted.add((src, TAU_ID, src))
    edges = sorted(emitted)
    reduced = FrozenLTS(
        new_id[rep[comp_of[frozen.init]]],
        list(frozen.action_labels),
        len(terminals),
        *(array("q", [edge[k] for edge in edges]) for k in range(3)),
    )

    state_of = [new_id[rep[comp_of[state]]] for state in range(n)]
    representative = [-1] * len(terminals)
    for state in range(n):
        comp = comp_of[state]
        if comp in new_id and representative[new_id[comp]] < 0:
            representative[new_id[comp]] = state
    divergent = [marked[comp] for comp in terminals]

    return ReducedLTS(
        lts=reduced,
        state_of=state_of,
        representative=representative,
        divergent=divergent,
        states_removed=n - reduced.num_states,
        transitions_removed=frozen.num_transitions - reduced.num_transitions,
    )


def _ragged_arange(np, starts, counts):
    """Concatenation of ``arange(starts[i], starts[i]+counts[i])``."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    group_start = np.cumsum(counts) - counts
    return np.repeat(starts, counts) + (
        np.arange(total, dtype=np.int64) - np.repeat(group_start, counts)
    )


def _reduce_np(
    frozen: FrozenLTS,
    divergence: bool,
    budget: Optional["RunBudget"] = None,
) -> ReducedLTS:
    """Vectorized :func:`_reduce_py` -- the same two layers and the same
    greatest fixpoint (which is unique, so the two paths agree edge for
    edge), with the per-candidate diamond checks batched into array
    operations.  Static facts (a co-edge closed by an existing
    ``t --b--> u`` edge) are resolved once; only the diamonds that
    depend on the evolving confluent set ``T`` are re-evaluated per
    Jacobi sweep."""
    np = _np
    n = frozen.num_states

    # -- layer 1: condense inert tau-SCCs ------------------------------
    tau_adj = frozen.tau_adjacency()
    comp_list, C = tarjan_scc(n, lambda s: tau_adj[s])
    comp_of = np.asarray(comp_list, dtype=np.int64)
    A = len(frozen.action_labels)
    AC = A * C

    esrc_a, eact_a, edst_a = frozen.edge_arrays()
    esrc = np.frombuffer(esrc_a, dtype=np.int64)
    eact = np.frombuffer(eact_a, dtype=np.int64)
    edst = np.frombuffer(edst_a, dtype=np.int64)
    csrc_all = comp_of[esrc]
    cdst_all = comp_of[edst]

    marked = np.bincount(comp_of, minlength=C) > 1
    intra = (eact == TAU_ID) & (csrc_all == cdst_all)
    marked[csrc_all[intra]] = True

    E = np.unique(csrc_all[~intra] * AC + eact[~intra] * C + cdst_all[~intra])
    M = len(E)
    srcs = E // AC
    rems = E - srcs * AC
    acts = rems // C
    dsts = rems - acts * C

    # -- layer 2: greatest confluent set T over the condensed tau DAG --
    cand_mask = acts == TAU_ID
    if divergence:
        cand_mask &= ~marked[srcs] | marked[dsts]
    cand_idx = np.nonzero(cand_mask)[0]
    cand_codes = E[cand_idx]  # sorted: source-major, then target
    cand_s = srcs[cand_idx]
    cand_t = dsts[cand_idx]
    K = len(cand_idx)

    # Pair every candidate with the co-edges of its source.
    ptr = np.searchsorted(srcs, np.arange(C + 1, dtype=np.int64))
    counts = ptr[cand_s + 1] - ptr[cand_s]
    pair_cand = np.repeat(np.arange(K, dtype=np.int64), counts)
    pair_edge = _ragged_arange(np, ptr[cand_s], counts)
    pair_b = acts[pair_edge]
    pair_u = dsts[pair_edge]
    pair_t = cand_t[pair_cand]
    not_self = (pair_b != TAU_ID) | (pair_u != pair_t)

    # Static closure: t --b--> u is an edge of the condensed system.
    code1 = pair_t * AC + pair_b * C + pair_u
    i1 = np.minimum(np.searchsorted(E, code1), max(M - 1, 0))
    closed1 = (E[i1] == code1) if M else np.zeros(len(code1), dtype=bool)

    dyn = not_self & ~closed1
    pair_cand = pair_cand[dyn]
    pair_b = pair_b[dyn]
    pair_u = pair_u[dyn]
    pair_t = pair_t[dyn]
    P = len(pair_cand)

    # Dynamic closure (silent co-edge converging back): (u, t) in T.
    code3 = pair_u * AC + pair_t
    j3 = np.minimum(np.searchsorted(cand_codes, code3), max(K - 1, 0))
    has3 = (
        (pair_b == TAU_ID) & (cand_codes[j3] == code3)
        if K
        else np.zeros(P, dtype=bool)
    )

    # Dynamic closure via a witness: v in succ(t, b) with (u, v) in T.
    wbase = pair_t * AC + pair_b * C
    wlo = np.searchsorted(E, wbase)
    wcounts = np.searchsorted(E, wbase + C) - wlo
    wit_pair = np.repeat(np.arange(P, dtype=np.int64), wcounts)
    wit_edge = _ragged_arange(np, wlo, wcounts)
    wit_code = np.repeat(pair_u, wcounts) * AC + dsts[wit_edge]
    jw = np.minimum(np.searchsorted(cand_codes, wit_code), max(K - 1, 0))
    wvalid = (cand_codes[jw] == wit_code) if K else np.zeros(0, dtype=bool)
    wit_pair = wit_pair[wvalid]
    wit_cand = jw[wvalid]

    in_t = np.ones(K, dtype=bool)
    while True:
        if budget is not None:
            budget.check("reduce", states=n, candidates=int(in_t.sum()))
        closed3 = has3 & in_t[j3]
        closed2 = (
            np.bincount(wit_pair[in_t[wit_cand]], minlength=P) > 0
            if len(wit_pair)
            else np.zeros(P, dtype=bool)
        )
        failing = ~(closed3 | closed2) & in_t[pair_cand]
        kill = np.bincount(pair_cand[failing], minlength=K) > 0
        if not kill.any():
            break
        in_t &= ~kill

    # Deterministic replacement: smallest confluent successor, resolved
    # to the T-terminal by pointer doubling over the acyclic T-graph.
    sel = np.nonzero(in_t)[0]
    rep = np.arange(C, dtype=np.int64)
    if len(sel):
        sel_s = cand_s[sel]
        first_s, first_pos = np.unique(sel_s, return_index=True)
        rep[first_s] = cand_t[sel][first_pos]
        while True:
            hop = rep[rep]
            if np.array_equal(hop, rep):
                break
            rep = hop

    # -- build the reduced system --------------------------------------
    terminal_mask = rep == np.arange(C, dtype=np.int64)
    terminals = np.nonzero(terminal_mask)[0]
    num_terminals = len(terminals)
    new_id = np.full(C, -1, dtype=np.int64)
    new_id[terminals] = np.arange(num_terminals, dtype=np.int64)

    own = terminal_mask[srcs]
    out_codes = (new_id[srcs[own]] * A + acts[own]) * num_terminals + new_id[
        rep[dsts[own]]
    ]
    if divergence:
        loops = new_id[terminals[marked[terminals]]]
        out_codes = np.concatenate(
            [out_codes, (loops * A + TAU_ID) * num_terminals + loops]
        )
    # Sorted and unique, so decoding yields the CSR columns directly.
    out_codes = np.unique(out_codes)
    out_src = out_codes // (A * num_terminals)
    out_rem = out_codes - out_src * (A * num_terminals)
    out_act = out_rem // num_terminals
    reduced = FrozenLTS(
        int(new_id[rep[comp_of[frozen.init]]]),
        list(frozen.action_labels),
        num_terminals,
        _to_array(out_src),
        _to_array(out_act),
        _to_array(out_rem - out_act * num_terminals),
    )

    first_state = np.full(C, n, dtype=np.int64)
    np.minimum.at(first_state, comp_of, np.arange(n, dtype=np.int64))

    return ReducedLTS(
        lts=reduced,
        state_of=new_id[rep[comp_of]].tolist(),
        representative=first_state[terminals].tolist(),
        divergent=marked[terminals].tolist(),
        states_removed=n - reduced.num_states,
        transitions_removed=frozen.num_transitions - reduced.num_transitions,
    )
