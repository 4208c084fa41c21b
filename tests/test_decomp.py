from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcrit import decomp
from factorcrit import (
    Graph,
    GraphError,
    all_graphs,
    deficiency,
    delete_vertices,
    find_barrier_witnesses,
    gallai_edmonds,
    graph_from_edges,
    has_perfect_matching,
    is_factor_critical,
    mask_of,
    min_degree,
    random_graph,
)
from factorcrit.graphs import _components_masked, bits
from conftest import bowtie, disjoint_cliques
from oracles import (
    brute_force_max_matching, complete_graph, cycle_graph, is_connected, odd_components,
)

STAR = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
P4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])


def exposable_vertices(g) -> int:
    """Oracle for the D set: brute-force matching sizes after deletion."""
    base = brute_force_max_matching(g)
    d = 0
    for v in range(g.n):
        if brute_force_max_matching(delete_vertices(g, 1 << v)) == base:
            d |= 1 << v
    return d


class TestFactorCritical:
    def test_examples(self):
        assert is_factor_critical(cycle_graph(5))
        assert not is_factor_critical(complete_graph(4))
        assert is_factor_critical(graph_from_edges(1, []))

    def test_bowtie_by_deletion_oracle(self):
        g = bowtie()
        assert is_factor_critical(g)
        for v in range(5):
            h = delete_vertices(g, 1 << v)
            assert brute_force_max_matching(h) * 2 == h.n

    @staticmethod
    def factor_critical_by_definition(g) -> bool:
        """Odd order and every G - v has a matching of size (n - 1) / 2."""
        return g.n % 2 == 1 and all(
            brute_force_max_matching(delete_vertices(g, 1 << v)) == (g.n - 1) // 2
            for v in range(g.n)
        )

    def test_matches_definition_on_every_class(self, graphs_by_order):
        for n, graphs in graphs_by_order.items():
            for g in graphs:
                assert is_factor_critical(g) == self.factor_critical_by_definition(g), (n, g.adj)

    def test_matches_definition_on_random_graphs(self):
        for seed in range(200):
            n = 1 + seed % 11
            g = random_graph(n, (0.2, 0.4, 0.6, 0.8)[seed % 4], seed)
            assert is_factor_critical(g) == self.factor_critical_by_definition(g), seed
        # the vertex-set form, on seeded sets that include the empty set and
        # singletons, against the definition on the induced subgraph
        rng = random.Random(0)
        for seed in range(300):
            g = random_graph(1 + seed % 12, (0.2, 0.4, 0.6, 0.8)[seed % 4], seed)
            subs = (0, 1 << rng.randrange(g.n), rng.getrandbits(g.n), rng.getrandbits(g.n) | rng.getrandbits(g.n))
            for sub in subs:
                keep = delete_vertices(g, g.vertex_mask & ~sub)
                assert decomp._factor_critical(g.n, g.adj, sub) == self.factor_critical_by_definition(keep), (seed, sub)

    def test_empty_graph_is_not_factor_critical(self):
        assert not is_factor_critical(Graph(0, ()))

    def test_structural_consequences(self, graphs_by_order):
        # factor-critical implies connected, odd order, min degree >= 2 (n >= 3)
        for n in (3, 5, 7):
            for g in graphs_by_order[n]:
                if is_factor_critical(g):
                    assert is_connected(g)
                    assert g.n % 2 == 1
                    assert min_degree(g) >= 2


class TestGallaiEdmonds:
    def test_star(self):
        ge = gallai_edmonds(STAR)
        assert ge.d == mask_of([1, 2, 3]) and ge.a == mask_of([0]) and ge.c == 0

    def test_factor_critical_graph(self):
        ge = gallai_edmonds(cycle_graph(5))
        assert ge.d == cycle_graph(5).vertex_mask and ge.a == 0 and ge.c == 0

    def test_perfectly_matchable(self):
        ge = gallai_edmonds(P4)
        assert ge.d == 0 and ge.a == 0 and ge.c == P4.vertex_mask

    def test_d_matches_oracle_exhaustive(self, graphs_by_order):
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                assert gallai_edmonds(g).d == exposable_vertices(g)

    def test_d_matches_oracle_order_eight(self):
        for g in all_graphs(8):
            assert gallai_edmonds(g).d == exposable_vertices(g)

    @staticmethod
    def assert_structure(g, ge):
        """The Gallai-Edmonds structure theorem's consequences for (D, A, C)."""
        assert ge.d | ge.a | ge.c == g.vertex_mask
        assert ge.d & ge.a == 0 and (ge.d | ge.a) & ge.c == 0
        # components of G[D] are factor-critical; G[C] has a perfect matching
        d_comps = odd_components(g, g.vertex_mask & ~ge.d)[1]
        for comp in d_comps:
            keep = delete_vertices(g, g.vertex_mask & ~comp)
            assert is_factor_critical(keep)
        c_graph = delete_vertices(g, g.vertex_mask & ~ge.c)
        assert has_perfect_matching(c_graph)
        # matching size formula via component count of G[D]
        c_d = len(_components_masked(g.adj, ge.d))
        size = (g.n - deficiency(g)) // 2
        assert size == (g.n - c_d + ge.a.bit_count()) // 2

    def test_structure_random(self):
        for i in range(50):
            g = random_graph(10, (0.15, 0.3)[i % 2], i)
            self.assert_structure(g, gallai_edmonds(g))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 16), st.sampled_from((0.1, 0.15, 0.2, 0.3, 0.5)), st.integers(0, 2**32), st.data())
    def test_matches_oracle_relabeled(self, n, p, seed, data):
        base = random_graph(n, p, seed)
        perm = data.draw(st.permutations(range(n)))
        g = graph_from_edges(n, [(perm[a], perm[b]) for a, b in base.edges()])
        ge = gallai_edmonds(g)
        assert ge.d == exposable_vertices(g)
        self.assert_structure(g, ge)

    def test_one_matching_one_search_per_exposed_vertex(self, monkeypatch):
        calls = {"match": 0, "search": 0}

        def counting_match(*args):
            calls["match"] += 1
            return match_array(*args)

        def counting_search(*args):
            calls["search"] += 1
            return find_augmenting(*args)

        match_array, find_augmenting = decomp._match_array, decomp._find_augmenting
        monkeypatch.setattr(decomp, "_match_array", counting_match)
        monkeypatch.setattr(decomp, "_find_augmenting", counting_search)
        for i in range(200):
            g = random_graph(1 + i % 16, (0.1, 0.2, 0.4)[i % 3], i)
            calls.update(match=0, search=0)
            gallai_edmonds(g)
            assert calls == {"match": 1, "search": deficiency(g)}


class TestBarrierWitnesses:
    def test_star_center(self):
        ws = find_barrier_witnesses(STAR, 4)
        assert any(w.x == mask_of([0]) and len(w.components) == 3 for w in ws)

    def test_two_odd_cliques(self):
        ws = find_barrier_witnesses(disjoint_cliques([3, 7]), 2)
        assert ws[0].x == 0
        assert sorted(c.vertices.bit_count() for c in ws[0].components) == [3, 7]

    def test_two_odd_cycles(self):
        g = graph_from_edges(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 1) % 5) for i in range(5)],
        )
        ws = find_barrier_witnesses(g, 1)
        assert ws[0].x == 0

    def test_rejects_perfectly_matchable(self):
        with pytest.raises(GraphError):
            find_barrier_witnesses(complete_graph(4), 2)

    @pytest.mark.parametrize("max_x", [-1, 11])
    def test_rejects_max_x_out_of_range(self, max_x):
        g = disjoint_cliques([3, 7])
        with pytest.raises(GraphError, match=f"max_x {max_x} outside 0..10"):
            find_barrier_witnesses(g, max_x)

    def test_ordering_and_flags(self):
        g = random_graph(9, 0.25, 11)
        assert not has_perfect_matching(g)
        ws = find_barrier_witnesses(g, 9)
        keys = [(w.x.bit_count(), w.x) for w in ws]
        assert keys == sorted(keys)
        for w in ws:
            count, comps = odd_components(g, w.x)
            assert count == len(w.components) >= w.x.bit_count() + 2
            for info in w.components:
                assert info.vertices.bit_count() % 2 == 1
                sub = delete_vertices(g, g.vertex_mask & ~info.vertices)
                assert is_factor_critical(sub)

    def test_component_takes_one_test_per_vertex(self, monkeypatch):
        """Vertex 0 joined to K1, a triangle and C5: G - {0} has components of
        orders 1, 3 and 5, and each is tested on its own vertices alone."""
        g = graph_from_edges(
            10,
            [(0, v) for v in range(1, 10)] + [(2, 3), (3, 4), (2, 4)]
            + [(5 + i, 5 + (i + 1) % 5) for i in range(5)],
        )
        tested = []

        def counting(n, adj, sub):
            tested.append(sub)
            return has_pm(n, adj, sub)

        has_pm = decomp._has_pm
        monkeypatch.setattr(decomp, "_has_pm", counting)
        ws = find_barrier_witnesses(g, 1)
        comps = [mask_of([1]), mask_of([2, 3, 4]), mask_of(range(5, 10))]
        assert [(w.x, [c.vertices for c in w.components]) for w in ws] == [(1, comps)]
        # one whole-graph test, then |C| tests per component, each of C - v
        assert tested == [g.vertex_mask] + [c ^ 1 << v for c in comps for v in bits(c)]

    def test_deficiency_achieving_witness_exists(self, graphs_by_order):
        # some returned witness attains C_o - |X| = deficiency whenever the
        # deficiency is at least 2; deficiency-1 graphs cannot meet the +2
        # margin and come back empty
        for n in range(2, 8):
            for g in graphs_by_order[n]:
                d = deficiency(g)
                if d == 0:
                    continue
                ws = find_barrier_witnesses(g, n)
                if d == 1:
                    assert ws == []
                else:
                    assert ws, "no witness for a deficiency >= 2 graph"
                    assert any(len(w.components) - w.x.bit_count() == d for w in ws)
