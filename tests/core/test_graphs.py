"""Graph utility tests: Tarjan SCC and reachability closures."""

from repro.core.graphs import reachability_closure, tarjan_scc


def succ_fn(adjacency):
    return lambda node: adjacency.get(node, ())


def test_single_node_no_edges():
    comp_of, count = tarjan_scc(1, succ_fn({}))
    assert count == 1
    assert comp_of == [0]


def test_chain_is_one_component_per_node():
    comp_of, count = tarjan_scc(3, succ_fn({0: [1], 1: [2]}))
    assert count == 3
    # Reverse topological numbering: successors get smaller ids.
    assert comp_of[2] < comp_of[1] < comp_of[0]


def test_cycle_collapses():
    comp_of, count = tarjan_scc(3, succ_fn({0: [1], 1: [2], 2: [0]}))
    assert count == 1
    assert comp_of == [0, 0, 0]


def test_two_components_with_bridge():
    adjacency = {0: [1], 1: [0, 2], 2: [3], 3: [2]}
    comp_of, count = tarjan_scc(4, succ_fn(adjacency))
    assert count == 2
    assert comp_of[0] == comp_of[1]
    assert comp_of[2] == comp_of[3]
    assert comp_of[2] < comp_of[0]  # downstream component numbered first


def test_disconnected_nodes():
    comp_of, count = tarjan_scc(4, succ_fn({1: [2]}))
    assert count == 4
    assert len(set(comp_of)) == 4


def test_self_loop_is_singleton_component():
    comp_of, count = tarjan_scc(2, succ_fn({0: [0], 1: []}))
    assert count == 2


def test_reachability_closure_chain():
    closures = reachability_closure(3, [[1], [2], []])
    assert closures[0] == frozenset({0, 1, 2})
    assert closures[1] == frozenset({1, 2})
    assert closures[2] == frozenset({2})


def test_reachability_closure_cycle_shares_sets():
    closures = reachability_closure(3, [[1], [0], []])
    assert closures[0] == closures[1] == frozenset({0, 1})
    assert closures[2] == frozenset({2})


def test_reachability_closure_diamond():
    closures = reachability_closure(4, [[1, 2], [3], [3], []])
    assert closures[0] == frozenset({0, 1, 2, 3})
    assert closures[1] == frozenset({1, 3})


def test_deep_graph_no_recursion_limit():
    # Iterative Tarjan must handle chains far deeper than Python's
    # default recursion limit.
    n = 50_000
    adjacency = {i: [i + 1] for i in range(n - 1)}
    comp_of, count = tarjan_scc(n, succ_fn(adjacency))
    assert count == n
