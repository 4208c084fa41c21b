"""Every argument check at the package boundary raises its own error.

One row per check: the call, and a pattern that only that check's message
matches, so a row cannot pass on an earlier check of the same function.
Then the argument contract: every public entry refuses an int argument of
another type, a bool included, or outside its range, a graph argument that
is not a Graph, and a label, an edge probability or an edge of the wrong
kind or shape, with GraphError.
"""

from __future__ import annotations

import pytest

from factorcrit import (
    ConfigLabel, Graph, Graph6Error, GraphError, SplitMix64, add_edge, all_graphs, build_instance, canonical_form,
    check_connectivity_properties, check_intersection_bounds, classify, common_nonneighborhood, core_graph,
    deficiency, delete_edge, delete_vertices, find_barrier_witnesses, gallai_edmonds, graph6_lines,
    graph_from_edges, has_perfect_matching, intersection_bounds, is_factor_critical, is_k_connected,
    is_k_edge_connected, is_k_factor_critical, is_minimal_kfc, kfc_and_minimal, kfc_and_minimal_batch,
    max_matching, min_degree, minimality_certificate, minimalize, parse_graph6, random_graph, read_graph6_stream,
    to_graph6,
)
from factorcrit.graphs import normalize_edge
from conftest import disjoint_cliques
from oracles import complete_graph, cycle_graph

C5 = cycle_graph(5)
K3K7 = disjoint_cliques([3, 7])

CHECKS = {
    "normalize_edge self-loop": (lambda: normalize_edge(3, (2, 2)), GraphError, r"self-loop at vertex 2"),
    "normalize_edge triple": (
        lambda: normalize_edge(3, (0, 1, 2)), GraphError, r"edge \(0, 1, 2\) is not a pair of vertices"
    ),
    "normalize_edge of type int": (lambda: normalize_edge(3, 3), GraphError, r"edge 3 is not a pair of vertices"),
    "Graph order": (lambda: Graph(65, (0,) * 65), GraphError, r"vertex count 65 outside 0\.\.64"),
    "Graph order of type float": (lambda: Graph(2.0, (2, 1)), GraphError, r"vertex count 2\.0 is a float, not an int"),
    "Graph order of type str": (lambda: Graph("2", (2, 1)), GraphError, r"vertex count '2' is a str, not an int"),
    "Graph order of type bool": (lambda: Graph(True, (0,)), GraphError, r"vertex count True is a bool, not an int"),
    "Graph row count": (lambda: Graph(3, (0, 0)), GraphError, r"adjacency length does not match"),
    "Graph self-loop": (lambda: Graph(2, (0b01, 0b00)), GraphError, r"self-loop at vertex 0"),
    "Graph row type": (lambda: Graph(2, (2.0, 1)), GraphError, r"adjacency of 0 is a float, not an int"),
    "graph6 8-byte prefix": (lambda: parse_graph6("~~????"), Graph6Error, r"8-byte size prefix"),
    "graph6 input None": (
        lambda: parse_graph6(None), Graph6Error, r"graph6 input is a NoneType, not str or bytes"
    ),
    "graph6 input of type int": (lambda: parse_graph6(5), Graph6Error, r"graph6 input is a int, not str or bytes"),
    "graph6 stream line None": (
        lambda: list(read_graph6_stream([None])), Graph6Error, r"line 1: graph6 input is a NoneType"
    ),
    "graph6 stream second line None": (
        lambda: list(read_graph6_stream(["C~\n", None])), Graph6Error, r"line 2: graph6 input is a NoneType"
    ),
    "graph6 stream of one str": (
        lambda: list(read_graph6_stream("C~\n")), Graph6Error, r"^graph6 stream is one str, not an iterable of lines$"
    ),
    "graph6 stream of one bytes": (
        lambda: list(read_graph6_stream(b"C~\n")), Graph6Error, r"^graph6 stream is one bytes, not an iterable"
    ),
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
    "negative vertex connectivity": (
        lambda: is_k_connected(C5, -1), GraphError, r"connectivity order -1 outside 0\.\.inf"
    ),
    "negative edge connectivity": (
        lambda: is_k_edge_connected(C5, -1), GraphError, r"connectivity order -1 outside 0\.\.inf"
    ),
    "delete_vertices set above the graph": (
        lambda: delete_vertices(C5, 1 << 5), GraphError, r"deletion set 32 outside 0\.\.31"
    ),
    "barrier search above 12": (
        lambda: find_barrier_witnesses(complete_graph(13), 4), GraphError, r"barrier search order 13 outside 0\.\.12"
    ),
    "canonical form above 16": (
        lambda: canonical_form(graph_from_edges(17, [])), GraphError, r"canonical form order 17 outside 0\.\.16"
    ),
    "bit-sliced batch above 16": (
        lambda: kfc_and_minimal_batch([complete_graph(17)], 2), GraphError, r"batch order 17 outside 0\.\.16"
    ),
    "classify order 9": (
        lambda: classify(complete_graph(9), (0, 1)), GraphError, r"classification order 9 outside 10\.\.10"
    ),
    "classify order 11": (
        lambda: classify(complete_graph(11), (0, 1)), GraphError, r"classification order 11 outside 10\.\.10"
    ),
    "classify edge endpoint": (
        lambda: classify(disjoint_cliques([3, 7]), (0, 10)), GraphError, r"edge \(0,10\) has endpoint outside 0\.\.9"
    ),
    "classify edge endpoint of type float": (
        lambda: classify(disjoint_cliques([3, 7]), (0, 1.0)), GraphError, r"edge \(0,1\.0\) has endpoint outside 0\.\.9"
    ),
    "classify edge self-loop": (
        lambda: classify(disjoint_cliques([3, 7]), (3, 3)), GraphError, r"self-loop at vertex 3"
    ),
    "core_graph host order 9": (
        lambda: core_graph(complete_graph(9), (0, 1)), GraphError, r"vertex count 9 outside 10\.\.64"
    ),
    "all_graphs(0)": (lambda: all_graphs(0), GraphError, r"exhaustive generation order 0 outside 1\.\.9"),
    "all_graphs(10)": (lambda: all_graphs(10), GraphError, r"exhaustive generation order 10 outside 1\.\.9"),
    "random_graph order 0": (lambda: random_graph(0, 0.5, 0), GraphError, r"vertex count 0 outside 1\.\.64"),
    "random_graph order 65": (lambda: random_graph(65, 0.5, 0), GraphError, r"vertex count 65 outside 1\.\.64"),
    "random_graph order of type float": (
        lambda: random_graph(3.0, 0.5, 0), GraphError, r"vertex count 3\.0 is a float, not an int"
    ),
    "random_graph order of type bool": (
        lambda: random_graph(True, 0.5, 0), GraphError, r"vertex count True is a bool, not an int"
    ),
    "random_graph probability of type str": (
        lambda: random_graph(5, "0.5", 0), GraphError, r"edge probability '0\.5' is a str, not an int or a float"
    ),
    "random_graph probability of type bool": (
        lambda: random_graph(5, True, 0), GraphError, r"edge probability True is a bool, not an int or a float"
    ),
    "random_graph probability nan": (
        lambda: random_graph(5, float("nan"), 0), GraphError, r"edge probability nan outside \[0, 1\]"
    ),
    "build_instance label of type str": (
        lambda: build_instance("C1", 12), GraphError, r"label 'C1' is not a ConfigLabel"
    ),
    "connectivity consequences k = 0": (
        lambda: check_connectivity_properties(C5, 0), GraphError, r"k 0 outside 1\.\.4"
    ),
    "connectivity consequences k = n": (
        lambda: check_connectivity_properties(C5, 5), GraphError, r"k 5 outside 1\.\.4"
    ),
}


@pytest.mark.parametrize("call, error, message", CHECKS.values(), ids=CHECKS.keys())
def test_boundary_check(call, error, message):
    with pytest.raises(error, match=message):
        call()


# The argument contract. Each row is one int argument of one public entry:
# a call that takes the argument, and the values outside its range (an
# argument whose every int is valid, a seed, has none). Every row is called
# with each value of another type too.
HOST = build_instance(ConfigLabel.C1, 12)
OTHER_TYPES = (1.0, 2.5, True, "1", None)
ARGUMENTS = {
    "Graph order": (lambda x: Graph(x, ()), (-1, 65)),
    "Graph row": (lambda x: Graph(2, (x, 1)), (-1, 4)),
    "graph_from_edges order": (lambda x: graph_from_edges(x, []), (-1, 65)),
    "graph_from_edges endpoint": (lambda x: graph_from_edges(3, [(0, x)]), (-1, 3)),
    "add_edge endpoint": (lambda x: add_edge(C5, (0, x)), (-1, 5)),
    "delete_edge endpoint": (lambda x: delete_edge(C5, (0, x)), (-1, 5)),
    "common_nonneighborhood u": (lambda x: common_nonneighborhood(C5, x, 0), (-1, 5)),
    "common_nonneighborhood v": (lambda x: common_nonneighborhood(C5, 0, x), (-1, 5)),
    "delete_vertices set": (lambda x: delete_vertices(C5, x), (-1, 1 << 5)),
    "is_k_connected k": (lambda x: is_k_connected(C5, x), (-1,)),
    "is_k_edge_connected k": (lambda x: is_k_edge_connected(C5, x), (-1,)),
    "find_barrier_witnesses max_x": (lambda x: find_barrier_witnesses(K3K7, x), (-1, 11)),
    "is_k_factor_critical k": (lambda x: is_k_factor_critical(C5, x), (-1, 5)),
    "is_minimal_kfc k": (lambda x: is_minimal_kfc(C5, x), (-1, 5)),
    "kfc_and_minimal k": (lambda x: kfc_and_minimal(C5, x), (-1, 5)),
    "kfc_and_minimal_batch k": (lambda x: kfc_and_minimal_batch([C5], x), (-1, 5)),
    "kfc_and_minimal_batch k of an empty batch": (lambda x: kfc_and_minimal_batch([], x), (-1, 16)),
    "minimality_certificate k": (lambda x: minimality_certificate(C5, x, (0, 1)), (-1, 5)),
    "minimality_certificate endpoint": (lambda x: minimality_certificate(C5, 1, (0, x)), (-1, 5)),
    "minimalize k": (lambda x: minimalize(C5, x, 0), (-1, 5)),
    "minimalize seed": (lambda x: minimalize(C5, 1, x), ()),
    "check_connectivity_properties k": (lambda x: check_connectivity_properties(C5, x), (-1, 5)),
    "classify endpoint": (lambda x: classify(K3K7, (0, x)), (-1, 10)),
    "core_graph endpoint": (lambda x: core_graph(HOST.graph, (0, x)), (-1, 10)),
    "check_intersection_bounds endpoint": (
        lambda x: check_intersection_bounds(HOST.graph, (0, x), ConfigLabel.C1), (-1, 12)
    ),
    "build_instance order": (lambda x: build_instance(ConfigLabel.C1, x), (-1, 65)),
    "all_graphs order": (lambda x: all_graphs(x), (-1, 10)),
    "random_graph order": (lambda x: random_graph(x, 0.5, 0), (-1, 65)),
    "random_graph seed": (lambda x: random_graph(5, 0.5, x), ()),
    "SplitMix64 seed": (lambda x: SplitMix64(x), ()),
}
# The other argument kinds: each row is one argument that is not an int, and
# the values it refuses.
LABELS = ("C1", 1, None)
EDGE_SHAPES = ((0,), (0, 1, 2), 3, None)
KINDS = {
    "build_instance label": (lambda x: build_instance(x, 12), LABELS),
    "intersection_bounds label": (lambda x: intersection_bounds(x), LABELS),
    "check_intersection_bounds label": (lambda x: check_intersection_bounds(HOST.graph, HOST.edge, x), LABELS),
    "random_graph probability": (lambda x: random_graph(5, x, 0), ("0.5", None, True, -0.1, 1.5, float("nan"))),
    "graph_from_edges edge": (lambda x: graph_from_edges(3, [x]), EDGE_SHAPES),
    "add_edge edge": (lambda x: add_edge(C5, x), EDGE_SHAPES),
    "delete_edge edge": (lambda x: delete_edge(C5, x), EDGE_SHAPES),
    "minimality_certificate edge": (lambda x: minimality_certificate(C5, 1, x), EDGE_SHAPES),
    "classify edge": (lambda x: classify(K3K7, x), EDGE_SHAPES),
    "core_graph edge": (lambda x: core_graph(HOST.graph, x), EDGE_SHAPES),
    "check_intersection_bounds edge": (
        lambda x: check_intersection_bounds(HOST.graph, x, ConfigLabel.C1), EDGE_SHAPES
    ),
}
REFUSED = {name: (call, OTHER_TYPES + out_of_range) for name, (call, out_of_range) in ARGUMENTS.items()} | KINDS
CONTRACT = {
    f"{name} {value!r}": (lambda call=call, value=value: call(value))
    for name, (call, refused) in REFUSED.items()
    for value in refused
} | {"graph6_lines of mixed orders": lambda: graph6_lines([C5, complete_graph(4)])}


@pytest.mark.parametrize("call", CONTRACT.values(), ids=CONTRACT.keys())
def test_argument_contract(call):
    with pytest.raises(GraphError):
        call()


# The graph argument: each row is one public entry that takes a graph, with
# valid other arguments. Every value in place of the graph, and a batch that
# holds one, is refused by the graph check, whose message no other check writes.
NOT_GRAPHS = (None, [], (5, C5.adj), "DqK")
GRAPH_ENTRIES = {
    "to_graph6": to_graph6,
    "common_nonneighborhood": lambda g: common_nonneighborhood(g, 0, 2),
    "min_degree": min_degree,
    "delete_vertices": lambda g: delete_vertices(g, 1),
    "delete_edge": lambda g: delete_edge(g, (0, 1)),
    "add_edge": lambda g: add_edge(g, (0, 2)),
    "is_k_connected": lambda g: is_k_connected(g, 2),
    "is_k_edge_connected": lambda g: is_k_edge_connected(g, 2),
    "max_matching": max_matching,
    "has_perfect_matching": has_perfect_matching,
    "deficiency": deficiency,
    "is_factor_critical": is_factor_critical,
    "gallai_edmonds": gallai_edmonds,
    "find_barrier_witnesses": lambda g: find_barrier_witnesses(g, 1),
    "is_k_factor_critical": lambda g: is_k_factor_critical(g, 1),
    "minimality_certificate": lambda g: minimality_certificate(g, 1, (0, 1)),
    "is_minimal_kfc": lambda g: is_minimal_kfc(g, 1),
    "kfc_and_minimal": lambda g: kfc_and_minimal(g, 1),
    "minimalize": lambda g: minimalize(g, 1, 0),
    "check_connectivity_properties": lambda g: check_connectivity_properties(g, 1),
    "classify": lambda g: classify(g, (0, 3)),
    "core_graph": lambda g: core_graph(g, (0, 1)),
    "check_intersection_bounds": lambda g: check_intersection_bounds(g, (0, 1), ConfigLabel.C1),
    "canonical_form": canonical_form,
}
BATCH_ENTRIES = {"graph6_lines": graph6_lines, "kfc_and_minimal_batch": lambda b: kfc_and_minimal_batch(b, 1)}
GRAPH_CONTRACT = {
    f"{name} {value!r}": (lambda call=call, value=value: call(value))
    for name, call in GRAPH_ENTRIES.items()
    for value in NOT_GRAPHS
} | {
    f"{name} {label}": (lambda call=call, batch=batch: call(batch))
    for name, call in BATCH_ENTRIES.items()
    for label, batch in (("[None]", [None]), ("[C5, None]", [C5, None]))
}


@pytest.mark.parametrize("call", GRAPH_CONTRACT.values(), ids=GRAPH_CONTRACT.keys())
def test_graph_argument_contract(call):
    with pytest.raises(GraphError, match=r"^graph argument is a \w+, not a Graph$"):
        call()


# Calls the contract leaves alone: every int is a seed, an int probability
# is the float of the same value, a connectivity order above n only makes
# the answer False, and a query checks nothing.
ANSWERS = {
    "random_graph seed -1": (lambda: random_graph(5, 0.5, -1), random_graph(5, 0.5, (1 << 64) - 1)),
    "random_graph seed 99": (lambda: random_graph(5, 0.5, 99).n, 5),
    "random_graph probability 1 is 1.0": (lambda: random_graph(5, 1, 7), random_graph(5, 1.0, 7)),
    "random_graph probability 0 is 0.0": (lambda: random_graph(5, 0, 7), random_graph(5, 0.0, 7)),
    "minimalize seed -1": (lambda: minimalize(C5, 1, -1), C5),
    "minimalize seed 99": (lambda: minimalize(C5, 1, 99), C5),
    "is_k_connected k = 99": (lambda: is_k_connected(C5, 99), False),
    "is_k_edge_connected k = 99": (lambda: is_k_edge_connected(C5, 99), False),
    "has_edge reads the last row at -1": (lambda: C5.has_edge(-1, 0), True),
}


@pytest.mark.parametrize("call, answer", ANSWERS.values(), ids=ANSWERS.keys())
def test_calls_outside_the_contract(call, answer):
    assert call() == answer
