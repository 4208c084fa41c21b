from __future__ import annotations

import hashlib
import pickle
from collections import Counter

import pytest

from factorcrit import (
    ClassificationError,
    ConfigLabel,
    GraphError,
    add_edge,
    bits,
    build_instance,
    check_intersection_bounds,
    classify,
    common_nonneighborhood,
    core_graph,
    deficiency,
    delete_edge,
    delete_vertices,
    find_barrier_witnesses,
    graph_from_edges,
    has_perfect_matching,
    intersection_bounds,
    is_factor_critical,
    mask_of,
    min_degree,
    parse_graph6,
    random_graph,
)
from factorcrit import configurations
from conftest import disjoint_cliques, petersen
from oracles import complete_graph, configuration_rows, odd_components

ALL_LABELS = list(ConfigLabel)

# SHA-256 of every host build_instance lays out, one line per (label, n) in
# loop order: repr((adj, edge, s_e))
HOSTS_SHA256 = "89307daf3a1bbcbe4c823683c4b7c6c8d37a8888dbe57333c1a606e974abc8be"

# deficient cores (graph6, designated edge, label) of hosts shaped otherwise
# than build_instance's: odd-cycle components, X joined to the core only as
# degree and matchability force, or both; C6 has no host of the second kind,
# and as a 3-cycle is a triangle, nine cores equal build_instance's own
OTHER_SHAPE_CORES = (
    ("IwCGGC@CG", (0, 3), "C1"), ("IwCWw{^Fw", (0, 3), "C1"),
    ("Ihc?GC@@G", (0, 5), "C2"), ("I~{?GKF@w", (0, 5), "C2"),
    ("I@CGGC`~w", (0, 1), "C3"), ("I@Kxx{~w?", (0, 1), "C3"), ("I@CGGC`w?", (0, 1), "C3"),
    ("IHDG?CB~w", (0, 1), "C4"), ("IJ\\w?CB__", (0, 1), "C4"), ("IHDG?CB__", (0, 1), "C4"),
    ("IJ?GGCH~w", (0, 1), "C5"), ("IJ?GW[Na?", (0, 1), "C5"), ("IJ?GGCHa?", (0, 1), "C5"),
    ("IwCW?CB~w", (0, 3), "C6"),
    ("IHDG?B~~w", (0, 1), "C7"), ("IJ\\w?AB?w", (0, 1), "C7"), ("IHDG?AB?w", (0, 1), "C7"),
    ("I@CHGB~~w", (0, 1), "C8"), ("I@KxwB`?W", (0, 1), "C8"), ("I@CHGB`?W", (0, 1), "C8"),
    ("IwCW?B~~w", (0, 3), "C9"), ("IwCW??B?w", (0, 3), "C9"),
    ("IJ?GWB~~w", (0, 1), "C10"), ("IJ?GWAH?W", (0, 1), "C10"),
    ("I@K?GN~~w", (0, 1), "C11"), ("I@K?GN_@G", (0, 1), "C11"),
    ("I@K?F~~~w", (0, 1), "C12"), ("I@K?FCD@w", (0, 1), "C12"),
    ("IJ??F~~~w", (0, 1), "C13"), ("IJ??CSL@w", (0, 1), "C13"),
    ("I??F~~~~w", (0, 1), "C14"), ("I??FHcZBw", (0, 1), "C14"),
)


def two_cliques_with_gap(a: int, b: int):
    """Disjoint K_a + K_b with the designated edge joining them."""
    return disjoint_cliques([a, b]), (0, a)


class TestSignatureTable:
    def test_fourteen_distinct_rows(self):
        rows = list(configurations._TABLE.items())
        assert len(rows) == 14
        assert len({label for label, _ in rows}) == 14
        keys = {(s.x_size, s.component_sizes, s.ends) for _, s in rows}
        assert len(keys) == 14

    def test_row_structure(self):
        for sig in configurations._TABLE.values():
            assert len(sig.component_sizes) == sig.x_size + 2
            assert sum(sig.component_sizes) == 10 - sig.x_size
            assert all(s % 2 == 1 for s in sig.component_sizes)

    def test_ends_are_two_component_sizes(self):
        # build_instance removes both ends from the component sizes, so they
        # are a sub-multiset of them; with X empty the edge joins the only two
        for sig in configurations._TABLE.values():
            assert sig.ends == tuple(sorted(sig.ends))
            assert not Counter(sig.ends) - Counter(sig.component_sizes)
            if sig.x_size == 0:
                assert sig.ends == sig.component_sizes

    def test_rows_follow_from_the_rule(self):
        # configuration_rows derives signatures and bounds without the table
        table = {
            (sig.x_size, sig.component_sizes, sig.ends): intersection_bounds(label)
            for label, sig in configurations._TABLE.items()
        }
        assert configuration_rows(10) == table
        # at core order 12 the rule gives 24 signatures, by |X| = 0..5
        assert Counter(x for x, _, _ in configuration_rows(12)) == Counter({0: 2, 1: 6, 2: 8, 3: 5, 4: 2, 5: 1})

    def test_last_row(self):
        sig = configurations._TABLE[ConfigLabel.C14]
        assert sig.x_size == 4
        assert sig.component_sizes == (1,) * 6
        assert sig.ends == (1, 1)

    def test_labels_keep_their_public_face(self):
        # labels come from row positions, but read as the fourteen members
        # C1..C14 did: bench/worker.py writes .value, and results pickle
        assert [label.name for label in ConfigLabel] == [f"C{i}" for i in range(1, 15)]
        assert all(label.value == label.name for label in ConfigLabel)
        assert repr(ConfigLabel.C3) == "<ConfigLabel.C3: 'C3'>"
        assert all(pickle.loads(pickle.dumps(label)) is label for label in ConfigLabel)
        assert list(configurations._TABLE) == list(ConfigLabel)


class TestClassify:
    def test_k3_k7(self):
        h, e = two_cliques_with_gap(3, 7)
        res = classify(h, e)
        assert res.labels() == [ConfigLabel.C1]
        assert res.canonical.witness.x == 0
        assert res.canonical.u_component == mask_of([0, 1, 2])

    def test_k5_k5(self):
        h, e = two_cliques_with_gap(5, 5)
        assert classify(h, e).labels() == [ConfigLabel.C2]

    def test_c14_shape(self):
        # four-clique joined completely to six independent vertices
        edges = [(a, b) for a in range(6, 10) for b in range(a + 1, 10)]
        edges += [(x, t) for x in range(6, 10) for t in range(6)]
        h = graph_from_edges(10, edges)
        res = classify(h, (0, 1))
        assert ConfigLabel.C14 in res.labels()
        assert res.canonical.witness.x == mask_of([6, 7, 8, 9])

    def test_precondition_has_pm(self):
        with pytest.raises(ClassificationError) as err:
            classify(petersen(), (0, 2))
        assert err.value.reason == "has_perfect_matching"

    def test_precondition_edge_useless(self):
        # deficiency 4: a single added edge cannot create a perfect matching
        h = disjoint_cliques([3, 3, 3, 1])
        with pytest.raises(ClassificationError) as err:
            classify(h, (0, 9))
        assert err.value.reason == "edge_gives_no_perfect_matching"

    def test_precondition_pendant(self):
        # K3 + K5 + one matched pair of degree-1 vertices: deficient, the
        # designated edge restores a perfect matching, pendants remain
        edges = [(a, b) for a in range(3) for b in range(a + 1, 3)]
        edges += [(a, b) for a in range(3, 8) for b in range(a + 1, 8)]
        edges += [(8, 9)]
        h = graph_from_edges(10, edges)
        with pytest.raises(ClassificationError) as err:
            classify(h, (0, 3))
        assert err.value.reason == "pendant_vertex"

    def test_rejects_wrong_order(self):
        with pytest.raises(GraphError):
            classify(complete_graph(4), (0, 1))

    def test_rejects_existing_edge(self):
        h, _ = two_cliques_with_gap(3, 7)
        with pytest.raises(GraphError):
            classify(h, (0, 1))

    def test_soundness_on_random_pairs(self):
        found = 0
        seed = 0
        while found < 40:
            h = random_graph(10, 0.3, 900_000 + seed)
            seed += 1
            if deficiency(h) != 2:
                continue
            for u in range(10):
                for v in range(u + 1, 10):
                    if h.has_edge(u, v):
                        continue
                    plus = add_edge(h, (u, v))
                    if min_degree(plus) < 2 or not has_perfect_matching(plus):
                        continue
                    res = classify(h, (u, v))
                    found += 1
                    for entry in res.entries:
                        w = entry.witness
                        count, comps = odd_components(h, w.x)
                        assert count == w.x.bit_count() + 2
                        assert sorted(c.vertices for c in w.components) == sorted(comps)
                        for comp in comps:
                            sub = delete_vertices(h, h.vertex_mask & ~comp)
                            assert is_factor_critical(sub)
                        assert entry.u_component != entry.v_component
                        assert entry.u_component & (1 << u)
                        assert entry.v_component & (1 << v)

    def test_other_host_shapes(self):
        assert len(set(OTHER_SHAPE_CORES)) == 32
        for g6, e, label in OTHER_SHAPE_CORES:
            assert ConfigLabel(label) in classify(parse_graph6(g6), e).labels()

    def test_entries_are_every_witness(self):
        # the preconditions force deficiency 2, so every witness with
        # |X| <= 4 qualifies: the entries are all of them, in search order
        pairs = 0
        for seed in range(4000):
            h = random_graph(10, (0.2, 0.25, 0.3, 0.35)[seed % 4], seed)
            if has_perfect_matching(h):
                continue
            witnesses = None
            for u in range(10):
                for v in range(u + 1, 10):
                    if h.has_edge(u, v):
                        continue
                    plus = add_edge(h, (u, v))
                    if min_degree(plus) < 2 or not has_perfect_matching(plus):
                        continue
                    if witnesses is None:
                        witnesses = find_barrier_witnesses(h, 4)
                    assert [entry.witness for entry in classify(h, (u, v)).entries] == witnesses
                    pairs += 1
        assert pairs >= 300, pairs


class TestBuildInstance:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_round_trip_complete(self, label):
        inst = build_instance(label, 12)
        core = core_graph(inst.graph, inst.edge)
        assert label in classify(core, inst.edge).labels()
        assert min_degree(inst.graph) >= 12 - 8
        assert deficiency(core) == 2

    def test_padding_layout(self):
        inst = build_instance(ConfigLabel.C3, 14)
        assert inst.s_e == mask_of(range(10, 14))
        for s in bits(inst.s_e):
            assert inst.graph.degree(s) == 13

    def test_core_graph_rejects_host_without_edge(self):
        inst = build_instance(ConfigLabel.C3, 12)
        u, v = inst.edge
        without = delete_edge(inst.graph, inst.edge)
        with pytest.raises(GraphError, match=f"edge \\({u},{v}\\) not present"):
            core_graph(without, inst.edge)

    def test_host_digest(self):
        lines = []
        for label in ALL_LABELS:
            for n in (12, 14, 16):
                inst = build_instance(label, n)
                lines.append(repr((inst.graph.adj, inst.edge, inst.s_e)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == HOSTS_SHA256

    def test_rejects_small_host(self):
        with pytest.raises(GraphError):
            build_instance(ConfigLabel.C1, 11)

    def test_failed_degree_check_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(configurations, "min_degree", lambda g: 0)
        with pytest.raises(RuntimeError, match="minimum degree 0 < 4"):
            build_instance(ConfigLabel.C1, 12)

    def test_failed_self_check_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(configurations, "has_perfect_matching", lambda g: True)
        with pytest.raises(RuntimeError, match="has_perfect_matching"):
            build_instance(ConfigLabel.C1, 12)


class TestIntersectionBounds:
    def test_table_values(self):
        expected = {
            ConfigLabel.C1: (0, 5), ConfigLabel.C2: (0, 5), ConfigLabel.C3: (7, 7),
            ConfigLabel.C4: (3, 5), ConfigLabel.C5: (5, 5), ConfigLabel.C6: (3, 5),
            ConfigLabel.C7: (2, 5), ConfigLabel.C8: (6, 7), ConfigLabel.C9: (2, 5),
            ConfigLabel.C10: (4, 5), ConfigLabel.C11: (6, 7), ConfigLabel.C12: (5, 7),
            ConfigLabel.C13: (3, 5), ConfigLabel.C14: (4, 7),
        }
        for label, (lo, hi) in expected.items():
            assert intersection_bounds(label) == (lo, hi)

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_built_hosts_conform(self, label):
        inst = build_instance(label, 12)
        assert check_intersection_bounds(inst.graph, inst.edge, label)

    def test_exact_values(self):
        for label, exact in ((ConfigLabel.C3, 7), (ConfigLabel.C5, 5)):
            inst = build_instance(label, 12)
            got = common_nonneighborhood(inst.graph, *inst.edge).bit_count()
            assert got == exact

    def test_upper_bound_reached(self):
        # cutting the first a + |X| - 2 vertices of S_e from u and v leaves u
        # at degree 5 = n - 8 and puts them in the common non-neighborhood:
        # 8 - b vertices, which is hi when b <= 3; for b >= 5 hi stays open
        for label in ALL_LABELS:
            inst = build_instance(label, 13)
            (x_size, _, (a, b)), (u, v) = configurations._TABLE[label], inst.edge
            host = inst.graph
            for s in list(bits(inst.s_e))[:a + x_size - 2]:
                host = delete_edge(delete_edge(host, (u, s)), (v, s))
            core = core_graph(host, inst.edge)
            assert core == core_graph(inst.graph, inst.edge)
            assert label in classify(core, inst.edge).labels()
            assert min_degree(host) == 5
            count = common_nonneighborhood(host, u, v).bit_count()
            assert count == 8 - b
            assert (count == intersection_bounds(label)[1]) == (b <= 3)
            assert check_intersection_bounds(host, inst.edge, label)

    def test_degree_hypothesis_guard(self):
        inst = build_instance(ConfigLabel.C1, 12)
        # drop a padding vertex's edge to push its degree below n - 8
        weak = inst.graph
        target = 10  # first padding vertex
        for w in list(bits(weak.adj[target]))[:5]:
            weak = delete_edge(weak, (min(target, w), max(target, w)))
        with pytest.raises(ClassificationError, match=r"minimum degree 3 below n-8 = 4") as exc:
            check_intersection_bounds(weak, inst.edge, ConfigLabel.C1)
        assert exc.value.reason == "degree_hypothesis"
