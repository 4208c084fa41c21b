from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcrit import (
    Graph,
    GraphError,
    NotKFactorCriticalError,
    SplitMix64,
    check_connectivity_properties,
    delete_edge,
    delete_vertices,
    graph_from_edges,
    is_k_connected,
    is_k_edge_connected,
    is_k_factor_critical,
    is_minimal_kfc,
    kfc_and_minimal,
    kfc_and_minimal_batch,
    mask_of,
    min_degree,
    minimality_certificate,
    minimalize,
    random_graph,
    to_graph6,
)
from factorcrit import criticality
from factorcrit.cli import main
from factorcrit.criticality import _edge_deletable, _first_failing_subset, _Witnesses
from factorcrit.matching import _augment
from conftest import disjoint_cliques, petersen
from oracles import (
    all_perfect_matchings, brute_force_max_matching, complete_graph, cycle_graph,
    is_k_factor_critical_via_odd_components,
)


class TestKFactorCritical:
    def test_parity_short_circuit(self):
        ok, witness = is_k_factor_critical(cycle_graph(6), 1)
        assert not ok and witness is None

    def test_examples(self):
        assert is_k_factor_critical(complete_graph(6), 4)[0]
        assert is_k_factor_critical(cycle_graph(5), 1)[0]

    def test_petersen_bicritical_with_oracle(self):
        g = petersen()
        assert is_k_factor_critical(g, 2)[0]
        # oracle: every pair deletion leaves a perfect matching by brute force
        for u in range(10):
            for v in range(u + 1, 10):
                h = delete_vertices(g, mask_of([u, v]))
                assert brute_force_max_matching(h) == 4

    def test_failing_set_is_colex_first(self):
        # C6 is not bicritical: removing two adjacent vertices of the cycle
        # leaves P4 (matchable), but removing {0, 2} isolates vertex 1
        ok, witness = is_k_factor_critical(cycle_graph(6), 2)
        assert not ok and witness == mask_of([0, 2])

    def test_k_out_of_range(self):
        with pytest.raises(GraphError):
            is_k_factor_critical(cycle_graph(5), 5)


class TestSweepPrefilter:
    """``kfc_and_minimal`` rejects min degree <= k before sweeping; the
    reporting paths still sweep and name the lowest failing k-set."""

    def test_agrees_with_full_reports(self, graphs_by_order):
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                for k in range(n):
                    want = (is_k_factor_critical(g, k)[0], is_minimal_kfc(g, k).is_minimal)
                    assert kfc_and_minimal(g, k) == want

    def test_k_out_of_range_still_raises(self):
        g = graph_from_edges(4, [(0, 1), (1, 2)])  # vertex 3 is isolated
        with pytest.raises(GraphError):
            kfc_and_minimal(g, 4)

    def test_analyze_reports_lowest_failing_set(self, capsys):
        g = cycle_graph(6)
        assert min_degree(g) <= 2
        assert main(["analyze", "--graph", to_graph6(g), "--k", "2"]) == 0
        assert "failing set: [0, 2]\n" in capsys.readouterr().out


def _per_graph_lanes(graphs: list[Graph], k: int) -> tuple[int, int]:
    """The batch kernel's two lanes, built from the per-graph path."""
    kfc = minimal = 0
    for i, g in enumerate(graphs):
        is_kfc, is_minimal = kfc_and_minimal(g, k)
        kfc |= is_kfc << i
        minimal |= is_minimal << i
    return kfc, minimal


@st.composite
def random_batches(draw) -> tuple[list[Graph], int]:
    """(graphs, k): 1..300 graphs G(n, p) of one order n <= 12 with p from
    0.4 to 0.95, some of them drawn twice, then a minimalized copy of each
    of the first drawn k-FC graphs, and any k in 0..n-1."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n - 1))
    size = draw(st.integers(1, 300))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=size, max_size=size))
    repeats = draw(st.lists(st.integers(0, size - 1), max_size=size))
    seeds += [seeds[i] for i in repeats]
    ps = (0.4, 0.6, 0.8, 0.9, 0.95)
    graphs = [random_graph(n, ps[seed % len(ps)], seed) for seed in seeds]
    return graphs + _minimalized(graphs[:draw(st.integers(0, 10))], k), k


def _minimalized(graphs: list[Graph], k: int) -> list[Graph]:
    """A minimal k-FC spanning subgraph of each k-FC graph of ``graphs``."""
    return [minimalize(g, k, seed) for seed, g in enumerate(graphs) if kfc_and_minimal(g, k)[0]]


class TestBatchKernel:
    """``kfc_and_minimal_batch`` against the per-graph path, bit for bit."""

    def test_every_class_of_order_at_most_8(self, reps8):
        for n, graphs in reps8.items():
            graphs = list(graphs)
            for k in range(n):
                assert kfc_and_minimal_batch(graphs, k) == _per_graph_lanes(graphs, k), (n, k)

    @settings(max_examples=80, deadline=None)
    @given(random_batches())
    def test_random_batches(self, case):
        graphs, k = case
        assert kfc_and_minimal_batch(graphs, k) == _per_graph_lanes(graphs, k)

    @pytest.mark.parametrize("n, k", [(9, 1), (9, 3), (9, 5), (9, 7), (10, 2), (12, 4)])
    def test_two_byte_rows(self, n, k):
        # rows of n >= 9 take two bytes; lanes uv with u >= 8 (n >= 10) come
        # from the second byte plane
        graphs = [random_graph(n, 0.75 + 0.05 * (seed % 5), seed) for seed in range(300)]
        graphs += _minimalized(graphs[:40], k)
        kfc, minimal = want = _per_graph_lanes(graphs, k)
        assert kfc and minimal and kfc_and_minimal_batch(graphs, k) == want

    def test_batch_longer_than_the_decimal_digit_limit(self):
        # int(s, 10) refuses strings of more than 4,300 digits on Python
        # 3.11+; the lanes are parsed in base 2, which is exempt
        graphs = [random_graph(9, 0.85, seed) for seed in range(4400)]
        graphs += _minimalized(graphs[:100], 1)
        kfc, minimal = want = _per_graph_lanes(graphs, 1)
        assert minimal >> 4400 and kfc_and_minimal_batch(graphs, 1) == want

    def test_every_edge_of_a_minimal_graph_is_tested(self):
        # C_9 is minimal 1-FC; one chord makes it not minimal
        graphs = [cycle_graph(9), graph_from_edges(9, cycle_graph(9).edges() + [(0, 4)])]
        assert kfc_and_minimal_batch(graphs * 3, 1) == (0b111111, 0b010101)

    def test_bad_batches(self):
        assert kfc_and_minimal_batch([], 2) == (0, 0)
        with pytest.raises(GraphError):
            kfc_and_minimal_batch([complete_graph(4), complete_graph(5)], 1)
        with pytest.raises(GraphError):
            kfc_and_minimal_batch([complete_graph(4)], 4)
        with pytest.raises(GraphError):
            kfc_and_minimal_batch([complete_graph(17)], 1)


class TestOddComponentEquivalence:
    def test_examples(self):
        assert is_k_factor_critical_via_odd_components(cycle_graph(5), 1)
        assert not is_k_factor_critical_via_odd_components(disjoint_cliques([3, 3]), 0)

    def test_rejects_large(self):
        with pytest.raises(GraphError):
            is_k_factor_critical_via_odd_components(graph_from_edges(11, []), 1)

    def test_equivalence_exhaustive_small(self, graphs_by_order):
        # both parities: for n + k odd both sides must agree on False
        for n in range(2, 7):
            for g in graphs_by_order[n]:
                for k in range(n - 1):
                    assert (
                        is_k_factor_critical(g, k)[0]
                        == is_k_factor_critical_via_odd_components(g, k)
                    )


class TestMinimality:
    def test_k4_minimal(self):
        rep = is_minimal_kfc(complete_graph(4), 2)
        assert rep.is_kfc and rep.is_minimal
        assert len(rep.certificates) == 6
        for cert in rep.certificates:
            u, v = cert.edge
            assert cert.s_e == complete_graph(4).vertex_mask ^ mask_of([u, v])

    def test_k6_not_minimal(self):
        rep = is_minimal_kfc(complete_graph(6), 2)
        assert rep.is_kfc and not rep.is_minimal
        assert len(rep.deletable_edges) == 15 and not rep.certificates

    def test_c7_minimal(self):
        rep = is_minimal_kfc(cycle_graph(7), 1)
        assert rep.is_minimal and len(rep.certificates) == 7

    def test_non_kfc_report(self):
        rep = is_minimal_kfc(cycle_graph(6), 2)
        assert not rep.is_kfc and not rep.is_minimal
        assert rep.failing_set is not None and not rep.certificates


class TestCertificates:
    def test_cycle_certificate(self):
        cert = minimality_certificate(cycle_graph(5), 1, (0, 1))
        assert cert.s_e == mask_of([2])

    def test_k6_absent(self):
        assert minimality_certificate(complete_graph(6), 2, (0, 1)) is None

    def test_missing_edge_rejected(self):
        with pytest.raises(GraphError):
            minimality_certificate(cycle_graph(5), 1, (0, 2))

    @pytest.mark.parametrize("k, e", [(1, (0, 1)), (1, (2, 3)), (2, (0, 1))])
    def test_non_kfc_rejected(self, k, e):
        # C6 is neither 1-FC (parity) nor 2-FC; a set failing in G proves nothing about e
        with pytest.raises(NotKFactorCriticalError):
            minimality_certificate(cycle_graph(6), k, e)

    def test_soundness_against_enumeration(self):
        rep = is_minimal_kfc(complete_graph(4), 2)
        for cert in rep.certificates + (minimality_certificate(cycle_graph(5), 1, (1, 2)),):
            g = complete_graph(4) if cert.s_e.bit_count() == 2 else cycle_graph(5)
            u, v = cert.edge
            assert cert.s_e & mask_of([u, v]) == 0
            sub = delete_vertices(g, cert.s_e)
            # endpoints keep their relative order after dense relabeling
            survivors = [w for w in range(g.n) if not cert.s_e >> w & 1]
            eu, ev = survivors.index(u), survivors.index(v)
            pms = all_perfect_matchings(sub)
            assert pms and all((eu, ev) in m.edges for m in pms)

    def test_completeness_exhaustive(self, graphs_by_order):
        # a certificate exists iff the edge cannot be deleted; the deleted
        # side is decided by the independent odd-component sweep
        for n in (4, 6):
            for g in graphs_by_order[n]:
                for k in (0, 2):
                    if not is_k_factor_critical(g, k)[0]:
                        continue
                    for e in g.edges():
                        cert = minimality_certificate(g, k, e)
                        still = is_k_factor_critical_via_odd_components(
                            delete_edge(g, e), k
                        )
                        assert (cert is None) == still


class TestMinimalize:
    def test_k4_fixpoint(self):
        for seed in (0, 1, 7):
            assert minimalize(complete_graph(4), 2, seed) == complete_graph(4)

    def test_k6(self):
        m = minimalize(complete_graph(6), 2, 0)
        rep = is_minimal_kfc(m, 2)
        assert rep.is_kfc and rep.is_minimal
        assert min_degree(m) == 3

    def test_k12(self):
        m = minimalize(complete_graph(12), 2, 0)
        assert is_minimal_kfc(m, 2).is_minimal
        assert min_degree(m) == 3

    def test_subgraph_and_determinism(self):
        g = random_graph(10, 0.8, 5)
        assert is_k_factor_critical(g, 2)[0]
        m1 = minimalize(g, 2, 3)
        m2 = minimalize(g, 2, 3)
        assert m1 == m2
        assert m1.n == g.n
        for u, v in m1.edges():
            assert g.has_edge(u, v)

    def test_rejects_non_kfc(self):
        with pytest.raises(NotKFactorCriticalError, match="requires a k-factor-critical input"):
            minimalize(cycle_graph(6), 2, 0)

    def test_rejects_k_out_of_range(self):
        with pytest.raises(GraphError) as info:
            minimalize(cycle_graph(6), 6, 0)
        assert not isinstance(info.value, NotKFactorCriticalError)

    def test_error_paths_keep_their_order(self, monkeypatch):
        """A k out of range is a GraphError before any sweep. An odd n + k,
        or a graph that is not k-FC, fails the listed graph's sweep and then
        the witness table's, which raises NotKFactorCriticalError."""
        sweeps = []

        def sweeping(n, adj, k, *witnesses):
            sweeps.append(k)
            return _first_failing_subset(n, adj, k, *witnesses)

        monkeypatch.setattr(criticality, "_first_failing_subset", sweeping)
        for k in (-1, 6, 7):
            with pytest.raises(GraphError) as info:
                minimalize(cycle_graph(6), k, 0)
            assert not isinstance(info.value, NotKFactorCriticalError)
        assert not sweeps
        # C6 has no edge to list, and is not bicritical
        for g, k in ((complete_graph(7), 2), (complete_graph(6), 1), (cycle_graph(6), 2)):
            with pytest.raises(NotKFactorCriticalError, match="requires a k-factor-critical input"):
                minimalize(g, k, 0)
        assert sweeps == [2, 2, 1, 1, 2, 2]


# ---------------------------------------------------------------------------
# witness repair against recomputation by brute force
# ---------------------------------------------------------------------------


def _oracle_failing(g: Graph, k: int) -> int | None:
    """Lowest k-set S (ascending mask) such that g - S has no perfect
    matching, by brute-force matching on every g - S."""
    for s in sorted(mask_of(c) for c in combinations(range(g.n), k)):
        if 2 * brute_force_max_matching(delete_vertices(g, s)) != g.n - k:
            return s
    return None


def _oracle_minimalize(g: Graph, k: int, seed: int) -> Graph:
    """One pass over the shuffled edges, each deletion decided by brute force."""
    order = g.edges()
    SplitMix64(seed).shuffle(order)
    current = g
    for e in order:
        smaller = delete_edge(current, e)
        if _oracle_failing(smaller, k) is None:
            current = smaller
    return current


def _assert_minimalize_matches_oracle(g: Graph, k: int, seed: int) -> None:
    if _oracle_failing(g, k) is not None:
        with pytest.raises(NotKFactorCriticalError):
            minimalize(g, k, seed)
    else:
        assert minimalize(g, k, seed) == _oracle_minimalize(g, k, seed)


def _edge_by_edge_minimalize(g: Graph, k: int, seed: int) -> Graph:
    """minimalize without the listed graph's sweep: every edge of the seeded
    order is tested on the witness table."""
    w = _Witnesses(g, k)
    if w.failing is not None:
        raise NotKFactorCriticalError("minimalize requires a k-factor-critical input")
    order = g.edges()
    SplitMix64(seed).shuffle(order)
    for e in order:
        _edge_deletable(w, e)
    return w.graph()


@st.composite
def dense_cases(draw) -> tuple[Graph, int]:
    """(g, k) with n <= 12, k <= 4 and n + k even; g is K_n minus a drawn
    set of edges, so many cases are k-FC and shrinking moves towards K_n."""
    n = draw(st.integers(2, 12))
    k = draw(st.sampled_from([k for k in range(5) if k < n and (n + k) % 2 == 0]))
    pairs = list(combinations(range(n), 2))
    missing = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs) // 2))
    return graph_from_edges(n, [e for e in pairs if e not in missing]), k


@st.composite
def sparse_cases(draw) -> tuple[Graph, int]:
    """(g, k) with n <= 12, k <= 4, n + k even and g = G(n, p) for p from
    0.45 to 0.95. At the low end the three-edge repair path is often
    missing, and the blossom search then both repairs and fails."""
    n = draw(st.integers(2, 12))
    k = draw(st.sampled_from([k for k in range(5) if k < n and (n + k) % 2 == 0]))
    p = draw(st.sampled_from((0.45, 0.5, 0.55, 0.6, 0.65, 0.8, 0.95)))
    return random_graph(n, p, draw(st.integers(0, 2**32 - 1))), k


def _forced_set(g: Graph, k: int, u: int, v: int) -> int | None:
    """The lower of N(u) - v and N(v) - u that has exactly k vertices."""
    sets = [g.adj[x] & ~(1 << y) for x, y in ((u, v), (v, u)) if g.degree(x) == k + 1]
    return min(sets, default=None)


def _assert_table_perfect(w: _Witnesses) -> None:
    """Every kept match array is a perfect matching of the current G - S."""
    current = w.graph()
    for s, match in w.table:
        for v in range(current.n):
            if s >> v & 1:
                assert match[v] == -1
            else:
                u = match[v]
                assert u != -1 and not s >> u & 1
                assert match[u] == v and current.has_edge(u, v)


SEEDS = st.integers(0, 2**32 - 1)


class TestWitnessRepair:
    @settings(max_examples=60, deadline=None)
    @given(dense_cases(), SEEDS)
    def test_minimalize_matches_oracle(self, case, seed):
        _assert_minimalize_matches_oracle(*case, seed)

    @settings(max_examples=60, deadline=None)
    @given(sparse_cases(), SEEDS)
    def test_minimalize_matches_oracle_on_sparse_cases(self, case, seed):
        # near the threshold the listed graph often fails and the loop decides
        _assert_minimalize_matches_oracle(*case, seed)

    def test_minimalize_matches_edge_by_edge_loop(self, monkeypatch):
        """On seeded starts of order up to 16, minimalize equals the loop on
        the witness table, and both of its paths occur: the listed graph's
        sweep alone, with no table, and the loop after it fails."""
        counts = Counter()

        class Counted(_Witnesses):
            def __init__(self, g: Graph, k: int) -> None:
                counts["tables"] += 1
                super().__init__(g, k)

        monkeypatch.setattr(criticality, "_Witnesses", Counted)

        @settings(max_examples=250, deadline=None, derandomize=True)
        @given(st.integers(4, 16), st.sampled_from((0.5, 0.65, 0.8, 0.95)), SEEDS, st.data())
        def check(n, p, seed, data):
            k = data.draw(st.sampled_from([k for k in range(5) if k < n and (n + k) % 2 == 0]))
            g = random_graph(n, p, seed)
            before = counts["tables"]
            try:
                want = _edge_by_edge_minimalize(g, k, seed)
            except NotKFactorCriticalError:
                with pytest.raises(NotKFactorCriticalError):
                    minimalize(g, k, seed)
                counts["rejected"] += 1
            else:
                assert minimalize(g, k, seed) == want
                counts["listed graph" if counts["tables"] == before else "loop"] += 1
            assert counts["tables"] - before <= 1

        check()
        assert counts["listed graph"] >= 60 and counts["loop"] >= 30 and counts["rejected"]

    @settings(max_examples=60, deadline=None)
    @given(dense_cases(), SEEDS)
    def test_certificates_are_lowest_failing_sets(self, case, seed):
        g, k = case
        rep = is_minimal_kfc(g, k)
        assert rep.failing_set == _oracle_failing(g, k)
        if not rep.is_kfc:
            return
        # dense inputs have few certificates; their minimalizations have one per edge
        m = minimalize(g, k, seed)
        for h, report in ((g, rep), (m, is_minimal_kfc(m, k))):
            for cert in report.certificates:
                assert cert.s_e == _oracle_failing(delete_edge(h, cert.edge), k)
                assert minimality_certificate(h, k, cert.edge) == cert

    @settings(max_examples=60, deadline=None)
    @given(dense_cases())
    def test_deletable_edges_are_exact(self, case):
        g, k = case
        rep = is_minimal_kfc(g, k)
        if not rep.is_kfc:
            assert not rep.deletable_edges and kfc_and_minimal(g, k) == (False, False)
            return
        expected = tuple(e for e in g.edges() if _oracle_failing(delete_edge(g, e), k) is None)
        assert rep.deletable_edges == expected
        assert len(rep.certificates) + len(expected) == len(g.edges())
        assert kfc_and_minimal(g, k) == (True, not expected)

    @settings(max_examples=60, deadline=None)
    @given(dense_cases(), SEEDS)
    def test_kept_matchings_stay_perfect(self, case, seed):
        g, k = case
        w = _Witnesses(g, k)
        if w.failing is not None:
            return
        every_k_set = sorted(mask_of(c) for c in combinations(range(g.n), k))
        order = g.edges()
        SplitMix64(seed).shuffle(order)
        for e in order:
            if _edge_deletable(w, e):
                assert [s for s, _ in w.table] == every_k_set
                _assert_table_perfect(w)

    def test_repairs_match_scratch_sweep(self, monkeypatch):
        """Every edge test of a committed deletion pass equals a sweep of
        G - e from scratch, and every repair occurs: the three-edge path,
        the five-edge path when there is none, and the blossom search when
        neither exists, which succeeds or fails. A repair is told by how
        many mates it changes: 4, 6, or 8 and more for a search."""
        counts = Counter()
        kinds = {4: "three-edge repairs", 6: "five-edge repairs"}

        def counting(n, adj, sub, match, v, targets):
            before = match.copy()
            found = _augment(n, adj, sub, match, v, targets)
            changed = sum(x != y for x, y in zip(before, match))
            counts[kinds.get(changed, "search found") if found else "search failed"] += 1
            return found

        monkeypatch.setattr(criticality, "_augment", counting)

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(sparse_cases(), SEEDS)
        def check(case, seed):
            g, k = case
            w = _Witnesses(g, k)
            if w.failing is not None:
                return
            counts["k-FC graphs"] += 1
            order = g.edges()
            SplitMix64(seed).shuffle(order)
            for u, v in order:
                current = w.graph()
                want = _first_failing_subset(g.n, delete_edge(current, (u, v)).adj, k)
                broken = [s for s, match in w.table if match[u] == v]
                before = counts.copy()
                got = w.failing_without(u, v, commit=True)
                assert got == want
                # every returned set is the first whose repair fails
                assert counts["search failed"] - before["search failed"] == (got is not None)
                repaired = sum(counts[kind] - before[kind] for kind in (*kinds.values(), "search found"))
                assert repaired == sum(got is None or s < got for s in broken)
                if got is None:
                    _assert_table_perfect(w)

        check()
        assert counts["k-FC graphs"] >= 50
        for kind in ("three-edge repairs", "five-edge repairs", "search found", "search failed"):
            assert counts[kind], kind

    def test_degree_forced_edges(self):
        """An edge with an endpoint of degree k + 1 leaves G - e without
        k-factor-criticality, and its certificate is still the lowest
        failing k-set by brute force: sometimes the forced set, sometimes
        a lower one."""
        counts = Counter()

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(sparse_cases())
        def check(case):
            g, k = case
            kfc = is_k_factor_critical(g, k)[0]
            for u, v in g.edges():
                forced = _forced_set(g, k, u, v)
                if forced is None:
                    continue
                want = _oracle_failing(delete_edge(g, (u, v)), k)
                assert want is not None
                counts["forced edges"] += 1
                if kfc:
                    assert minimality_certificate(g, k, (u, v)).s_e == want
                    counts["forced set" if want == forced else "lower set"] += 1

        check()
        assert counts["forced edges"] >= 100
        assert counts["forced set"] and counts["lower set"]

    def test_forced_edges_search_nothing(self, monkeypatch):
        """minimalize and kfc_and_minimal refuse an edge with an endpoint of
        degree k + 1 without scanning the table or repairing a matching."""
        counts = Counter()

        def repairing(*args):
            counts["repairs"] += 1
            return _augment(*args)

        failing_without = _Witnesses.failing_without

        def scanning(w, *args, **kwargs):
            counts["scans"] += 1
            return failing_without(w, *args, **kwargs)

        def deletable(w, e):
            forced = _forced_set(w.graph(), w.k, *e)
            before = counts.copy()
            got = _edge_deletable(w, e)
            if forced is not None:
                assert not got
                assert counts["repairs"] == before["repairs"] and counts["scans"] == before["scans"]
                counts["forced edges"] += 1
            return got

        monkeypatch.setattr(criticality, "_augment", repairing)
        monkeypatch.setattr(_Witnesses, "failing_without", scanning)
        monkeypatch.setattr(criticality, "_edge_deletable", deletable)
        for seed in range(30):
            g = random_graph(12, 0.8, seed)
            try:
                m = minimalize(g, 2, seed)
            except NotKFactorCriticalError:
                continue
            for h in (g, m):
                before = counts["forced edges"]
                # minimal exactly when minimalize deleted nothing from it
                assert kfc_and_minimal(h, 2) == (True, len(h.edges()) == len(m.edges()))
                counts["sweep forced edges"] += counts["forced edges"] - before
        assert counts["forced edges"] >= 100 and counts["repairs"] and counts["scans"]
        assert counts["sweep forced edges"] >= 300


def _few_degree_three(graphs: list[Graph]) -> list[Graph]:
    """The 3-connected graphs of ``graphs`` with fewer than three vertices of
    degree 3."""
    return [g for g in graphs if is_k_connected(g, 3) and sum(g.degree(v) == 3 for v in range(g.n)) < 3]


class TestMinimalBricks:
    """A 3-connected minimal bicritical graph is a minimal brick, and every
    minimal brick has at least three vertices of degree 3 (Norine & Thomas,
    "Minimal bricks", J. Combin. Theory Ser. B 96, 2006)."""

    def test_sampled_outputs(self):
        outputs = []
        for seed in range(200):
            try:
                outputs.append(minimalize(random_graph(12, 0.8, seed), 2, seed))
            except NotKFactorCriticalError:
                continue
        bricks = [m for m in outputs if is_k_connected(m, 3)]
        assert len(bricks) >= 150
        assert not _few_degree_three(bricks)

    def test_minimal_records_of_orders_6_and_8(self, reps8):
        for n, bricks in ((6, 2), (8, 13)):
            graphs = list(reps8[n])
            _, minimal = kfc_and_minimal_batch(graphs, 2)
            records = [g for i, g in enumerate(graphs) if minimal >> i & 1]
            assert sum(is_k_connected(g, 3) for g in records) == bricks
            assert not _few_degree_three(records)

    def test_check_fires(self):
        # K6 is a brick, but not minimal: all six degrees are 5
        assert _few_degree_three([complete_graph(6)]) == [complete_graph(6)]


class TestConnectivityProperties:
    def test_examples(self):
        assert check_connectivity_properties(cycle_graph(5), 1)
        assert check_connectivity_properties(complete_graph(6), 4)

    def test_exhaustive_small(self, graphs_by_order):
        for n in (4, 5, 6):
            for g in graphs_by_order[n]:
                for k in range(2 - n % 2, n, 2):
                    if is_k_factor_critical(g, k)[0]:
                        assert check_connectivity_properties(g, k)
                        assert min_degree(g) >= k + 1

    def test_parity_precondition(self):
        with pytest.raises(GraphError):
            check_connectivity_properties(cycle_graph(6), 1)

    def test_each_failing_consequence(self):
        # K1 + K2 is not connected; P5 is connected but has a bridge; K_{3,5}
        # is 3-connected and 3-edge-connected but has no perfect matching
        path = graph_from_edges(5, [(i, i + 1) for i in range(4)])
        k35 = graph_from_edges(8, [(a, b) for a in range(3) for b in range(3, 8)])
        assert is_k_connected(path, 1)
        assert is_k_connected(k35, 3) and is_k_edge_connected(k35, 3)
        assert not check_connectivity_properties(disjoint_cliques([1, 2]), 1)
        assert not check_connectivity_properties(path, 1)
        assert not check_connectivity_properties(k35, 2)


class TestSplitMix64:
    def test_reference_vector(self):
        # published first outputs for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_shuffle_deterministic(self):
        a = list(range(20))
        b = list(range(20))
        SplitMix64(9).shuffle(a)
        SplitMix64(9).shuffle(b)
        assert a == b and sorted(a) == list(range(20))
