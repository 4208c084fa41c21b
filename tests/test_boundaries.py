"""Every argument check at the package boundary raises its own error.

One row per check: the call, and a pattern that only that check's message
matches, so a row cannot pass on an earlier check of the same function.
"""

from __future__ import annotations

import pytest

from factorcrit import (
    Graph, Graph6Error, GraphError, add_edge, all_graphs, check_connectivity_properties, classify,
    core_graph, find_barrier_witnesses, graph_from_edges, is_k_connected, is_k_edge_connected, min_degree,
    parse_graph6, random_graph,
)
from factorcrit.graphs import normalize_edge
from conftest import disjoint_cliques
from oracles import complete_graph, cycle_graph

C5 = cycle_graph(5)

CHECKS = {
    "normalize_edge self-loop": (lambda: normalize_edge(2, 2), GraphError, r"self-loop at vertex 2"),
    "Graph order": (lambda: Graph(65, (0,) * 65), GraphError, r"vertex count 65 outside 0\.\.64"),
    "Graph order of type float": (lambda: Graph(2.0, (2, 1)), GraphError, r"vertex count 2\.0 is a float, not an int"),
    "Graph order of type str": (lambda: Graph("2", (2, 1)), GraphError, r"vertex count '2' is a str, not an int"),
    "Graph order of type bool": (lambda: Graph(True, (0,)), GraphError, r"vertex count True is a bool, not an int"),
    "Graph row count": (lambda: Graph(3, (0, 0)), GraphError, r"adjacency length does not match"),
    "Graph self-loop": (lambda: Graph(2, (0b01, 0b00)), GraphError, r"self-loop at vertex 0"),
    "Graph row type": (lambda: Graph(2, (2.0, 1)), GraphError, r"adjacency of 0 is a float, not an int"),
    "graph6 8-byte prefix": (lambda: parse_graph6("~~????"), Graph6Error, r"8-byte size prefix"),
    "min_degree of the empty graph": (lambda: min_degree(Graph(0, ())), GraphError, r"empty graph"),
    "graph_from_edges order of type float": (
        lambda: graph_from_edges(2.0, []), GraphError, r"vertex count 2\.0 is a float, not an int"
    ),
    "graph_from_edges order of type bool": (
        lambda: graph_from_edges(True, []), GraphError, r"vertex count True is a bool, not an int"
    ),
    "graph_from_edges endpoint of type float": (
        lambda: graph_from_edges(3, [(0, 1.0)]), GraphError, r"edge \(0,1\.0\) has endpoint outside 0\.\.2"
    ),
    "add_edge endpoint": (lambda: add_edge(C5, (0, 5)), GraphError, r"edge \(0,5\) has endpoint outside 0\.\.4"),
    "negative vertex connectivity": (lambda: is_k_connected(C5, -1), GraphError, r"must be nonnegative"),
    "negative edge connectivity": (lambda: is_k_edge_connected(C5, -1), GraphError, r"must be nonnegative"),
    "barrier search above 12": (
        lambda: find_barrier_witnesses(complete_graph(13), 4), GraphError, r"limited to n <= 12"
    ),
    "classify edge endpoint": (
        lambda: classify(disjoint_cliques([3, 7]), (0, 10)), GraphError, r"invalid designated edge \(0,10\)"
    ),
    "classify edge endpoint of type float": (
        lambda: classify(disjoint_cliques([3, 7]), (0, 1.0)), GraphError, r"invalid designated edge \(0,1\.0\)"
    ),
    "classify edge self-loop": (
        lambda: classify(disjoint_cliques([3, 7]), (3, 3)), GraphError, r"invalid designated edge \(3,3\)"
    ),
    "core_graph host order 9": (
        lambda: core_graph(complete_graph(9), (0, 1)), GraphError, r"host order 9 below 10"
    ),
    "all_graphs(0)": (lambda: all_graphs(0), GraphError, r"generation starts at order 1"),
    "random_graph order 0": (lambda: random_graph(0, 0.5, 0), GraphError, r"vertex count 0 outside 1\.\.64"),
    "random_graph order 65": (lambda: random_graph(65, 0.5, 0), GraphError, r"vertex count 65 outside 1\.\.64"),
    "random_graph order of type float": (
        lambda: random_graph(3.0, 0.5, 0), GraphError, r"vertex count 3\.0 is a float, not an int"
    ),
    "random_graph order of type bool": (
        lambda: random_graph(True, 0.5, 0), GraphError, r"vertex count True is a bool, not an int"
    ),
    "connectivity consequences k = 0": (
        lambda: check_connectivity_properties(C5, 0), GraphError, r"k=0 outside 1\.\.4"
    ),
    "connectivity consequences k = n": (
        lambda: check_connectivity_properties(C5, 5), GraphError, r"k=5 outside 1\.\.4"
    ),
}


@pytest.mark.parametrize("call, error, message", CHECKS.values(), ids=CHECKS.keys())
def test_boundary_check(call, error, message):
    with pytest.raises(error, match=message):
        call()
