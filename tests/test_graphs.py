from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcrit import (
    Graph,
    Graph6Error,
    GraphError,
    add_edge,
    all_graphs,
    bits,
    common_nonneighborhood,
    delete_edge,
    delete_vertices,
    graph6_lines,
    graph_from_edges,
    is_k_connected,
    is_k_edge_connected,
    mask_of,
    min_degree,
    parse_graph6,
    random_graph,
    to_graph6,
)
from factorcrit.cli import SWEEP_CHUNK
from factorcrit.graphs import _pack_rows, _rows_min_degrees
from conftest import disjoint_cliques, petersen
from oracles import complete_graph, cycle_graph


def random_graph_strategy(max_n=64):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=min(n * 3, 120),
            ),
        )
    )


class TestConstruction:
    def test_k4(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert g == complete_graph(4)
        assert g.edge_count() == 6

    def test_single_vertex(self):
        g = graph_from_edges(1, [])
        assert g.n == 1 and g.edge_count() == 0

    def test_c5_degrees(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert all(g.degree(v) == 2 for v in range(5))
        assert g == cycle_graph(5)

    def test_duplicate_edges_collapse(self):
        g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    @pytest.mark.parametrize("n", [0, 65, -2])
    def test_rejects_bad_order(self, n):
        with pytest.raises(GraphError):
            graph_from_edges(n, [])

    def test_rejects_endpoint_out_of_range(self):
        with pytest.raises(GraphError):
            graph_from_edges(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            graph_from_edges(3, [(1, 1)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))

    def test_rejects_high_bits(self):
        with pytest.raises(GraphError):
            Graph(2, (0b100, 0b000))

    def test_list_rows_are_copied_to_a_tuple(self):
        rows = [0b10, 0b01]
        g = Graph(2, rows)
        assert g == Graph(2, (0b10, 0b01)) and hash(g) == hash(Graph(2, (0b10, 0b01)))
        rows[0] = 0
        assert g.adj == (0b10, 0b01) and g.has_edge(0, 1)


class TestGraph6:
    def test_empty_five(self):
        g = parse_graph6("D??")
        assert g.n == 5 and g.edge_count() == 0
        assert to_graph6(g) == "D??"

    def test_k4(self):
        assert parse_graph6("C~") == complete_graph(4)
        assert to_graph6(complete_graph(4)) == "C~"

    def test_c5_bit_packing(self):
        g = parse_graph6("Dhc")
        assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<C~") == complete_graph(4)

    def test_bytes_input(self):
        assert parse_graph6(b"C~\n") == complete_graph(4)

    @pytest.mark.parametrize("bad", ["", "C~~", "D", "C!", "~??"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(Graph6Error):
            parse_graph6(bad)

    def test_rejects_oversize(self):
        # 65 vertices via the extended prefix: 0 << 12 | 1 << 6 | 1
        with pytest.raises(Graph6Error, match="graph order 65 exceeds 64"):
            parse_graph6("~?@@")

    def test_rejects_nonzero_padding(self):
        # 2-vertex non-edge graph has 1 payload bit; flip a padding bit
        with pytest.raises(Graph6Error):
            parse_graph6("A" + chr(63 + 0b000001))

    def test_extended_prefix_round_trip(self):
        for n in (63, 64):
            g = graph_from_edges(n, [(0, n - 1), (1, 2)])
            line = to_graph6(g)
            assert line.startswith("~")
            assert parse_graph6(line) == g

    @settings(max_examples=200, deadline=None)
    @given(random_graph_strategy())
    def test_round_trip_identity(self, spec):
        n, pairs = spec
        g = graph_from_edges(n, list(pairs))
        assert parse_graph6(to_graph6(g)) == g

    def test_round_trip_thousand_seeded_graphs(self):
        for i in range(1000):
            g = random_graph(2 + i % 63, (0.1, 0.3, 0.5, 0.9)[i % 4], i)
            assert parse_graph6(to_graph6(g)) == g


def _oracle_graphs():
    """Every class of order <= 8, seeded G(n, p) on both sides of the
    extended size prefix (n >= 63), and the orders 0 and 1."""
    yield Graph(0, ())
    for n in range(1, 9):
        yield from all_graphs(n)
    for n in (9, 16, 33, 62, 63, 64):
        for i, p in enumerate((0.0, 0.1, 0.5, 0.9, 1.0)):
            yield random_graph(n, p, 1000 * n + i)


def _networkx_line(g: Graph) -> bytes:
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return nx.to_graph6_bytes(ng, nodes=range(g.n), header=False)


class TestGraph6Oracle:
    """The codec against networkx's graph6 reader and writer, which share no
    code with it."""

    def test_against_networkx(self):
        for g in _oracle_graphs():
            line = _networkx_line(g)
            assert to_graph6(g) + "\n" == line.decode("ascii")
            assert parse_graph6(line) == g
            back = nx.from_graph6_bytes(to_graph6(g).encode("ascii"))
            assert back.number_of_nodes() == g.n
            assert sorted(tuple(sorted(e)) for e in back.edges()) == g.edges()


# packed rows of 1, 2, 4 and 8 bytes (two from n = 9), and both sides of the
# 4-byte size prefix (n >= 63)
BATCH_ORDERS = (*range(17), 30, 62, 63, 64)
# around one SWEEP_CHUNK of verify
BATCH_SIZES = (0, 1, 2, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1)


def _pool(n: int) -> list[Graph]:
    """37 graphs of order n, drawn in turn into batches: a prime count, so
    each graph meets shifting neighbours and slots."""
    if n == 0:
        return [Graph(0, ())]
    return [random_graph(n, (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)[i % 7], 1000 * n + i) for i in range(37)]


class TestGraph6Lines:
    """The batch encoder against networkx's writer and its one-graph call,
    and the batch minimum degrees against :func:`min_degree`."""

    @pytest.mark.parametrize("n", BATCH_ORDERS)
    def test_against_networkx(self, n):
        pool = _pool(n)
        want = [_networkx_line(g) for g in pool]
        ones = [to_graph6(g).encode() + b"\n" for g in pool]
        for size in BATCH_SIZES:
            picks = [i % len(pool) for i in range(size)]
            lines = graph6_lines([pool[i] for i in picks])
            assert lines == b"".join(want[i] for i in picks), size
            assert lines == b"".join(ones[i] for i in picks), size

    @pytest.mark.parametrize("n", BATCH_ORDERS[1:])
    def test_min_degrees(self, n):
        pool = _pool(n)
        for size in BATCH_SIZES:
            batch = [pool[i % len(pool)] for i in range(size)]
            got = _rows_min_degrees(_pack_rows(batch, n), n, size)
            assert list(got) == [min_degree(g) for g in batch], size


class TestNeighborhoods:
    def test_complete_graph_empty(self):
        g = complete_graph(4)
        assert all(common_nonneighborhood(g, u, v) == 0 for u in range(4) for v in range(4) if u != v)

    def test_cycle(self):
        assert common_nonneighborhood(cycle_graph(6), 0, 1) == mask_of([3, 4])

    def test_single_vertex(self):
        # with no edges every third vertex misses both
        assert common_nonneighborhood(graph_from_edges(3, []), 0, 2) == mask_of([1])

    def test_out_of_range(self):
        for u, v in ((5, 0), (0, 5)):
            with pytest.raises(GraphError, match=rf"edge \({u},{v}\) has endpoint outside 0\.\.4"):
                common_nonneighborhood(cycle_graph(5), u, v)

    def test_common_cycle(self):
        assert common_nonneighborhood(cycle_graph(5), 0, 1) == mask_of([3])

    def test_common_complete(self):
        assert common_nonneighborhood(complete_graph(4), 1, 2) == 0

    def test_common_across_cliques(self):
        g = disjoint_cliques([3, 7])
        assert common_nonneighborhood(g, 0, 3) == 0

    def test_common_rejects_equal_vertices(self):
        with pytest.raises(GraphError):
            common_nonneighborhood(cycle_graph(5), 2, 2)

    @settings(max_examples=100, deadline=None)
    @given(random_graph_strategy(max_n=16))
    def test_size_identity(self, spec):
        n, pairs = spec
        g = graph_from_edges(n, list(pairs))
        for u in range(n):
            for v in range(u + 1, n):
                # a vertex counts unless it is u or v or adjacent to either
                got = common_nonneighborhood(g, u, v)
                assert got == common_nonneighborhood(g, v, u)
                assert got.bit_count() == n - 2 - sum(
                    g.has_edge(u, w) or g.has_edge(v, w) for w in range(n) if w not in (u, v)
                )


class TestMutation:
    def test_delete_vertex_from_k4(self):
        assert delete_vertices(complete_graph(4), mask_of([0])) == complete_graph(3)

    def test_delete_edge_gives_path(self):
        g = delete_edge(cycle_graph(5), (0, 1))
        degs = sorted(g.degree(v) for v in range(5))
        assert degs == [1, 1, 2, 2, 2]

    def test_delete_then_add_is_identity(self):
        g = cycle_graph(5)
        assert add_edge(delete_edge(g, (0, 1)), (0, 1)) == g

    def test_delete_empty_set_is_identity(self):
        g = petersen()
        assert delete_vertices(g, 0) == g

    def test_deletion_composes(self):
        g = petersen()
        s, t = mask_of([1, 4]), mask_of([7])
        step = delete_vertices(g, s)
        remap = {o: i for i, o in enumerate(bits(g.vertex_mask & ~s))}
        t_mapped = mask_of([remap[v] for v in bits(t)])
        assert delete_vertices(step, t_mapped) == delete_vertices(g, s | t)

    def test_relabel_map_ascending(self):
        # survivors 0, 2, 4 become 0, 1, 2: the edges 0-4 and 2-4 become 0-2 and 1-2
        g = graph_from_edges(5, [(0, 4), (2, 4)])
        assert delete_vertices(g, mask_of([1, 3])) == graph_from_edges(3, [(0, 2), (1, 2)])

    @given(random_graph_strategy(max_n=16), st.data())
    @settings(max_examples=200, deadline=None)
    def test_deletion_matches_remap_oracle(self, spec, data):
        n, edges = spec
        g = graph_from_edges(n, edges)
        s = data.draw(st.integers(0, g.vertex_mask))
        got = delete_vertices(g, s)
        # oracle: relabel each surviving neighbour through the old->new map
        keep = g.vertex_mask & ~s
        old = list(bits(keep))
        remap = {o: i for i, o in enumerate(old)}
        rows = []
        for o in old:
            row = 0
            for w in bits(g.adj[o] & keep):
                row |= 1 << remap[w]
            rows.append(row)
        assert got == Graph(len(old), tuple(rows))

    def test_delete_nonedge_rejected(self):
        with pytest.raises(GraphError):
            delete_edge(cycle_graph(5), (0, 2))

    def test_add_existing_edge_rejected(self):
        with pytest.raises(GraphError):
            add_edge(cycle_graph(5), (0, 1))

    def test_delete_outside_vertices_rejected(self):
        with pytest.raises(GraphError):
            delete_vertices(complete_graph(3), mask_of([3]))


def bipartition_edge_connected(g: Graph, k: int) -> bool:
    """Oracle for ``is_k_edge_connected``: the minimum edge cut is the
    smallest boundary e(S, V - S) over the 2^(n-1) bipartitions that put
    vertex 0 in S."""
    n = g.n
    if n <= k:
        return False
    for half in range(1 << (n - 1)):
        side = half << 1 | 1
        if side == g.vertex_mask:
            continue
        if sum((g.adj[v] & ~side).bit_count() for v in bits(side)) < k:
            return False
    return True


class TestDegreesAndConnectivity:
    def test_min_degree(self):
        assert min_degree(complete_graph(4)) == 3
        assert min_degree(cycle_graph(5)) == 2
        assert min_degree(graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])) == 1

    def test_cycle_connectivity(self):
        assert is_k_connected(cycle_graph(5), 2)
        assert not is_k_connected(cycle_graph(5), 3)

    def test_petersen_three_connected(self):
        g = petersen()
        assert is_k_connected(g, 3)
        assert not is_k_connected(g, 4)
        assert is_k_edge_connected(g, 3)
        assert not is_k_edge_connected(g, 4)

    def test_complete_graph_convention(self):
        assert is_k_connected(complete_graph(5), 4)
        assert not is_k_connected(complete_graph(5), 5)
        assert is_k_edge_connected(complete_graph(5), 4)

    def test_disconnected(self):
        g = disjoint_cliques([3, 3])
        assert not is_k_connected(g, 1)
        assert not is_k_edge_connected(g, 1)
        assert is_k_connected(g, 0)

    def test_single_vertex_conventions(self):
        g = graph_from_edges(1, [])
        assert is_k_connected(g, 0)
        assert not is_k_connected(g, 1)
        assert not is_k_edge_connected(g, 1)

    @settings(max_examples=200, deadline=None)
    @given(random_graph_strategy(max_n=12), st.integers(0, 12))
    def test_edge_connectivity_matches_bipartitions(self, spec, k):
        n, edges = spec
        g = graph_from_edges(n, edges)
        assert is_k_edge_connected(g, k) == bipartition_edge_connected(g, k)

    def test_edge_connectivity_of_dense_graphs(self):
        # random_graph_strategy draws sparse graphs; these reach k = 5 and more
        for g in (complete_graph(9), delete_edge(complete_graph(10), (0, 1)), petersen(),
                  disjoint_cliques([5, 6])):
            for k in range(g.n + 1):
                assert is_k_edge_connected(g, k) == bipartition_edge_connected(g, k)

    def test_cut_vertex(self):
        g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 2)])
        assert is_k_connected(g, 1)
        assert not is_k_connected(g, 2)
        assert is_k_edge_connected(g, 2)
