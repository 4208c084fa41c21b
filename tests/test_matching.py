from __future__ import annotations

import signal
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcrit import (
    Graph,
    GraphError,
    bits,
    deficiency,
    delete_edge,
    gallai_edmonds,
    graph_from_edges,
    has_perfect_matching,
    mask_of,
    max_matching,
    parse_graph6,
    random_graph,
)
from factorcrit import matching
from factorcrit.matching import _augment, _find_augmenting, _match_array
from conftest import disjoint_cliques, petersen
from oracles import (
    all_perfect_matchings, brute_force_max_matching, complete_graph, cycle_graph, odd_components,
)

P4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])


def berge_deficiency(g) -> int:
    """Independent oracle: max over all X of C_o(G-X) - |X|."""
    best = 0
    for x in range(1 << g.n):
        count, _ = odd_components(g, x)
        best = max(best, count - x.bit_count())
    return best


class TestMaxMatching:
    def test_odd_cycle(self):
        assert max_matching(cycle_graph(5)).size() == 2

    def test_k4_perfect(self):
        m = max_matching(complete_graph(4))
        assert m.size() == 2 and m.covered == 0b1111

    def test_petersen(self):
        g = petersen()
        assert max_matching(g).size() == 5
        assert brute_force_max_matching(g) == 5

    def test_matching_invariants(self):
        for i in range(40):
            g = random_graph(9, 0.4, i)
            m = max_matching(g)
            seen = 0
            for u, v in m.edges:
                assert u < v and g.has_edge(u, v)
                assert not (seen & mask_of([u, v]))
                seen |= mask_of([u, v])
            assert seen == m.covered

    def test_deterministic(self):
        g = random_graph(10, 0.5, 3)
        assert max_matching(g) == max_matching(g)


class TestPerfectMatching:
    def test_examples(self):
        assert has_perfect_matching(complete_graph(4))
        assert not has_perfect_matching(cycle_graph(5))
        assert not has_perfect_matching(disjoint_cliques([3, 7]))

    def test_empty_graph_vacuous(self):
        assert has_perfect_matching(graph_from_edges(2, [(0, 1)]))
        assert not has_perfect_matching(graph_from_edges(2, []))


class TestBruteForceOracle:
    def test_examples(self):
        assert brute_force_max_matching(cycle_graph(5)) == 2
        assert brute_force_max_matching(graph_from_edges(6, [])) == 0

    def test_rejects_large(self):
        with pytest.raises(GraphError):
            brute_force_max_matching(graph_from_edges(17, []))

    def test_agrees_on_all_small_graphs(self, graphs_by_order):
        for n in range(1, 7):
            for g in graphs_by_order[n]:
                assert max_matching(g).size() == brute_force_max_matching(g)

    def test_agrees_on_random_graphs(self):
        for i in range(300):
            g = random_graph(8 + i % 7, (0.2, 0.5, 0.8)[i % 3], i)
            assert max_matching(g).size() == brute_force_max_matching(g)


class TestOddComponents:
    def test_star_center(self):
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        count, comps = odd_components(star, mask_of([0]))
        assert count == 3 and comps == [mask_of([1]), mask_of([2]), mask_of([3])]

    def test_two_cliques(self):
        count, comps = odd_components(disjoint_cliques([3, 7]), 0)
        assert count == 2
        assert [c.bit_count() for c in comps] == [3, 7]

    def test_k4_none(self):
        assert odd_components(complete_graph(4), 0) == (0, [])

    def test_ordered_by_min_label(self):
        g = disjoint_cliques([3, 1, 5])
        _, comps = odd_components(g, 0)
        assert [min(bits(c)) for c in comps] == [0, 3, 4]


class TestDeficiency:
    def test_examples(self):
        assert deficiency(cycle_graph(5)) == 1
        assert deficiency(graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])) == 2
        assert deficiency(complete_graph(4)) == 0

    def test_berge_identity_exhaustive(self, graphs_by_order):
        for n in range(1, 7):
            for g in graphs_by_order[n]:
                assert deficiency(g) == berge_deficiency(g)

    def test_berge_identity_random(self):
        for i in range(60):
            g = random_graph(10, (0.15, 0.3, 0.5)[i % 3], i)
            assert deficiency(g) == berge_deficiency(g)

    def test_tutte_consistency_exhaustive(self, graphs_by_order):
        # perfect matching exists iff no X has more than |X| odd components
        for n in range(1, 7):
            for g in graphs_by_order[n]:
                violated = any(
                    odd_components(g, x)[0] > x.bit_count() for x in range(1 << n)
                )
                assert has_perfect_matching(g) == (not violated)


class TestEnumeration:
    def test_counts(self):
        assert len(all_perfect_matchings(complete_graph(4))) == 3
        assert len(all_perfect_matchings(cycle_graph(6))) == 2
        assert len(all_perfect_matchings(P4)) == 1

    def test_rejects_odd_or_large(self):
        with pytest.raises(GraphError):
            all_perfect_matchings(cycle_graph(5))
        with pytest.raises(GraphError):
            all_perfect_matchings(graph_from_edges(16, []))

    def test_matchings_are_perfect_and_distinct(self):
        g = random_graph(8, 0.6, 1)
        pms = all_perfect_matchings(g)
        assert len({m.edges for m in pms}) == len(pms)
        for m in pms:
            covered = 0
            for u, v in m.edges:
                assert g.has_edge(u, v)
                covered |= mask_of([u, v])
            assert covered == g.vertex_mask


def forced(g, e) -> bool:
    """Whether every perfect matching of g uses the edge e: g has one, and
    g - e has none."""
    without = delete_edge(g, e)
    return has_perfect_matching(g) and not has_perfect_matching(without)


class TestForcedEdges:
    def test_single_edge(self):
        assert forced(graph_from_edges(2, [(0, 1)]), (0, 1))

    def test_k4_none_forced(self):
        assert not forced(complete_graph(4), (0, 1))

    def test_path_middle_edge(self):
        assert not forced(P4, (1, 2))
        assert forced(P4, (0, 1))

    def test_missing_edge_rejected(self):
        with pytest.raises(GraphError):
            forced(P4, (0, 3))

    def test_matches_enumeration(self):
        for i in range(40):
            g = random_graph(8, 0.45, 100 + i)
            pms = all_perfect_matchings(g)
            for e in g.edges():
                expect = bool(pms) and all(e in m.edges for m in pms)
                assert forced(g, e) == expect


# ---------------------------------------------------------------------------
# engine identity: the mask-based blossom search against the list-based one
# ---------------------------------------------------------------------------


def reference_find_augmenting(n, adj, sub, match, root):
    """The blossom search with per-call ``seen`` / ``in_blossom`` lists and a
    contraction that walks every vertex of ``sub``."""
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = [root]
    head = 0

    def lca(a, b):
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v, b, child, in_blossom):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while head < len(queue):
        v = queue[head]
        head += 1
        for to in bits(adj[v] & sub):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                cur = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur, to, in_blossom)
                mark_path(to, cur, v, in_blossom)
                for i in bits(sub):
                    if in_blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    while to != -1:
                        prev = parent[to]
                        nxt = match[prev]
                        match[prev] = to
                        match[to] = prev
                        to = nxt
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def reference_short_path(adj, sub, match, v, targets):
    """The first augmenting path from v to a vertex of ``targets`` with three
    edges, (v, a, b, w), else the first with five, (v, a, b, c, d, w), in
    ascending order of a, then c, then w; None when there is neither."""
    for a in bits(adj[v] & sub):
        for w in bits(adj[match[a]] & targets):
            return v, a, match[a], w
    for a in bits(adj[v] & sub):
        b = match[a]
        for c in bits(adj[b] & sub):
            if c != a and match[c] != -1:
                for w in bits(adj[match[c]] & targets):
                    return v, a, b, c, match[c], w
    return None


def flip(match, path):
    """Augment ``match`` along ``path``, a tuple of vertices from one exposed
    end to the other."""
    for x, y in zip(path[::2], path[1::2]):
        match[x], match[y] = y, x


def reference_match_array(n, adj, sub, stop_on_exposed=False):
    """Greedy pass and exposed-vertex pass over ``bits(sub)``: each exposed
    vertex takes the short path to an exposed vertex above it, else runs the
    reference blossom search."""
    match = [-1] * n
    for v in bits(sub):
        if match[v] == -1:
            for u in bits(adj[v] & sub):
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in bits(sub):
        if match[v] == -1:
            targets = mask_of(w for w in bits(sub) if w > v and match[w] == -1)
            path = reference_short_path(adj, sub, match, v, targets)
            if path is not None:
                flip(match, path)
            elif not reference_find_augmenting(n, adj, sub, match, v) and stop_on_exposed:
                return None
    return match


def even_alternating_reach(adj, sub, match, root):
    """Oracle for a stuck search: the ends of every even alternating simple
    path from ``root`` inside ``sub`` (first edge unmatched), found by
    depth-first search over the paths, and whether any path augments."""
    reach = 1 << root
    augments = False

    def walk(v, visited):
        nonlocal reach, augments
        for to in bits(adj[v] & sub & ~visited):
            mate = match[to]
            if mate == -1:
                augments = True
            elif not visited >> mate & 1:
                reach |= 1 << mate
                walk(mate, visited | (1 << to) | (1 << mate))

    walk(root, 1 << root)
    return reach, augments


@contextmanager
def watchdog(seconds: float = 1.0):
    """Turn a search that never ends into a failure: a broken contraction
    can leave a cycle in ``parent`` that the augmenting walk follows forever."""

    def expire(signum, frame):
        raise TimeoutError("blossom search did not finish")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 14))
    return random_graph(n, draw(st.sampled_from((0.2, 0.3, 0.45, 0.6, 0.8))), draw(st.integers(0, 2**32)))


class TestEngineIdentity:
    @settings(max_examples=600, deadline=None)
    @given(random_graphs(), st.data(), st.booleans())
    def test_match_array(self, g, data, stop_on_exposed):
        sub = data.draw(st.integers(0, g.vertex_mask))
        with watchdog():
            got = _match_array(g.n, g.adj, sub, stop_on_exposed)
        assert got == reference_match_array(g.n, g.adj, sub, stop_on_exposed)

    def test_match_array_five_edge_choice(self):
        # random_graph(12, 0.25, 19): one of its five-edge steps has two
        # choices of c, and taking the highest gives another maximum matching
        g = parse_graph6("KO__?Wr__DcG")
        assert g == random_graph(12, 0.25, 19)
        want = [4, -1, 5, 8, 0, 2, 9, 11, 3, 6, -1, 7]
        assert reference_match_array(g.n, g.adj, g.vertex_mask) == want
        with watchdog():
            assert _match_array(g.n, g.adj, g.vertex_mask) == want

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(), st.sets(st.integers(0, 13), max_size=2))
    def test_single_repairs(self, g, removed):
        # delete each edge of a maximum matching of G - S in turn and search
        # again from either endpoint, as a witness repair does
        sub = g.vertex_mask & ~mask_of(removed)
        match = reference_match_array(g.n, g.adj, sub)
        for u in bits(sub):
            v = match[u]
            if v < u:
                continue
            adj = list(g.adj)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            for root in (u, v):
                got = match.copy()
                got[u] = got[v] = -1
                want = got.copy()
                with watchdog():
                    outer = _find_augmenting(g.n, adj, sub, got, root)
                assert (outer == 0) == reference_find_augmenting(g.n, adj, sub, want, root)
                assert got == want
                if outer:  # stuck: the outer vertices, root among them, inside sub
                    assert outer >> root & 1 and outer & ~sub == 0

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(), st.data())
    def test_stuck_search_returns_even_reach(self, g, data):
        # from every exposed root of a matching that is maximum, or maximum
        # less one edge, against the path oracle on induced subgraphs, n <= 10
        sub = data.draw(st.integers(0, g.vertex_mask)) & 0x3FF
        match = reference_match_array(g.n, g.adj, sub)
        matched = [u for u in bits(sub) if match[u] > u]
        if matched and data.draw(st.booleans()):
            u = data.draw(st.sampled_from(matched))
            match[match[u]] = match[u] = -1
        for root in bits(sub):
            if match[root] != -1:
                continue
            got = match.copy()
            with watchdog():
                outer = _find_augmenting(g.n, g.adj, sub, got, root)
            reach, augments = even_alternating_reach(g.adj, sub, match, root)
            assert (outer == 0) == augments
            if outer:
                assert outer == reach and got == match


class TestThreeEdgePath:
    @settings(max_examples=400, deadline=None)
    @given(random_graphs(), st.sets(st.integers(0, 13), max_size=2), st.data(), st.booleans())
    def test_agrees_with_blossom_search(self, g, removed, data, drop_edge):
        # a maximum matching of G - S less one edge xy, which stays in the
        # graph or is deleted from it as in a witness repair, from every
        # exposed root whose neighbours are all matched and that has a
        # three-edge path to another exposed vertex
        sub = g.vertex_mask & ~mask_of(removed)
        match = reference_match_array(g.n, g.adj, sub)
        matched = [u for u in bits(sub) if match[u] > u]
        if not matched:
            return
        x = data.draw(st.sampled_from(matched))
        y = match[x]
        match[x] = match[y] = -1
        adj = list(g.adj)
        if drop_edge:
            adj[x] &= ~(1 << y)
            adj[y] &= ~(1 << x)
        exposed = mask_of(v for v in bits(sub) if match[v] == -1)
        for root in bits(exposed):
            if adj[root] & exposed:
                continue
            targets = exposed & ~(1 << root)
            paths = [(a, t) for a in bits(adj[root] & sub) for t in bits(adj[match[a]] & targets)]
            if not paths:
                continue
            got = match.copy()
            assert _augment(g.n, adj, sub, got, root, targets)
            want = match.copy()
            with watchdog():
                assert _find_augmenting(g.n, adj, sub, want, root) == 0
            assert got == want

    def test_far_end_of_a_search_is_no_target(self):
        """A blossom search matches some exposed vertex above its root; a
        later three-edge path must not end there. This graph reaches that
        case. It is G - (5, 6) at the step where the k = 1 deletion pass with
        seed 0 over Graph(n=11, adj=(72, 1004, 578, 179, 904, 1610, 167,
        1882, 146, 182, 160)) tests the edge (5, 6)."""
        g = Graph(n=11, adj=(72, 360, 576, 35, 384, 1034, 7, 1552, 18, 132, 160))
        for sub in range(1 << g.n):
            for stop_on_exposed in (False, True):
                got = _match_array(g.n, g.adj, sub, stop_on_exposed)
                assert got == reference_match_array(g.n, g.adj, sub, stop_on_exposed)


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestFiveEdgePath:
    def test_augments_along_p6(self):
        # v - a = b - c = d - w with v, a, b, c, d, w = 0..5
        g = path_graph(6)
        match = [-1, 2, 1, 4, 3, -1]
        assert _augment(g.n, g.adj, g.vertex_mask, match, 0, 1 << 5)
        assert match == [1, 0, 3, 2, 5, 4]

    def test_no_path_on_p8(self):
        # the only augmenting path from 0 to 7 has seven edges: the search takes it
        g = path_graph(8)
        match = [-1, 2, 1, 4, 3, 6, 5, -1]
        assert _augment(g.n, g.adj, g.vertex_mask, match, 0, 1 << 7)
        assert match == [1, 0, 3, 2, 5, 4, 7, 6]

    def test_repairs_a_dropped_edge(self):
        """With uv dropped from a perfect matching of G - S and deleted from
        G, the step takes the first three-edge path from u to v in its scan
        order, else the first five-edge path; with neither it augments as
        the search does. Its result is a perfect matching of G - uv - S, or the
        unchanged match array when no augmenting path exists."""
        counts = Counter()

        @settings(max_examples=2000, deadline=None, derandomize=True)
        @given(st.integers(2, 14), st.sampled_from((0.3, 0.45, 0.6, 0.8)), st.integers(0, 2**32),
               st.sets(st.integers(0, 13), max_size=4), st.data())
        def check(n, p, seed, removed, data):
            g = random_graph(n, p, seed)
            sub = g.vertex_mask & ~mask_of(removed)
            match = reference_match_array(g.n, g.adj, sub)
            if not sub or any(match[x] == -1 for x in bits(sub)):
                return
            u = data.draw(st.sampled_from([x for x in bits(sub) if match[x] > x]))
            v = match[u]
            match[u] = match[v] = -1
            adj = list(g.adj)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            three = [a for a in bits(adj[u] & sub) if adj[match[a]] >> v & 1]
            paths = [
                (a, c)
                for a in bits(adj[u] & sub)
                for c in bits(adj[match[a]] & sub & ~(1 << a))
                if match[c] != -1 and adj[v] >> match[c] & 1
            ]
            got = match.copy()
            found = _augment(g.n, adj, sub, got, u, 1 << v)
            if three:
                a = three[0]
                b = match[a]
                want = match.copy()
                want[u], want[a], want[b], want[v] = a, u, v, b
                assert found
                counts["three"] += 1
            elif paths:
                a, c = paths[0]
                b, d = match[a], match[c]
                want = match.copy()
                want[u], want[a], want[b], want[c], want[d], want[v] = a, u, c, b, v, d
                assert found
                counts["repaired"] += 1
            else:
                want = match.copy()
                with watchdog():
                    assert found == (_find_augmenting(g.n, adj, sub, want, u) == 0)
                counts["none"] += 1
            assert got == want
            for x in range(n):
                y = got[x]
                if found and sub >> x & 1:
                    assert y != x and sub >> y & 1 and got[y] == x and adj[x] >> y & 1
                elif not sub >> x & 1:
                    assert y == -1

        check()
        assert counts["three"] >= 20 and counts["repaired"] >= 20 and counts["none"] >= 20, counts


class TestAugment:
    def test_short_paths_then_search(self):
        """From each exposed vertex of a maximum matching of G - S less up to
        three edges, deleted from G, with every other exposed vertex a
        target: where a three-edge path exists the step is the blossom
        search's, else where a five-edge path exists it is the first one in
        scan order, else it is the search's; a step that finds nothing
        leaves the match array unchanged. G is a sparse random graph plus a
        Hamiltonian path, so that long augmenting paths occur."""
        counts = Counter()

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(st.integers(6, 14), st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.6)), st.integers(0, 2**32),
               st.sets(st.integers(0, 13), max_size=4), st.integers(1, 3), st.data())
        def check(n, p, seed, removed, drops, data):
            order = data.draw(st.permutations(range(n)))
            g = graph_from_edges(n, random_graph(n, p, seed).edges() + list(zip(order, order[1:])))
            sub = g.vertex_mask & ~mask_of(removed)
            match = reference_match_array(g.n, g.adj, sub)
            adj = list(g.adj)
            for _ in range(drops):
                matched = [x for x in bits(sub) if match[x] > x]
                if not matched:
                    return
                x = data.draw(st.sampled_from(matched))
                y = match[x]
                match[x] = match[y] = -1
                adj[x] &= ~(1 << y)
                adj[y] &= ~(1 << x)
            for x in bits(sub):  # as the greedy pass: no two exposed vertices adjacent
                for y in bits(adj[x] & sub):
                    if match[x] == match[y] == -1:
                        match[x], match[y] = y, x
            exposed = mask_of(x for x in bits(sub) if match[x] == -1)
            for root in bits(exposed):
                targets = exposed & ~(1 << root)
                got, want = match.copy(), match.copy()
                found = _augment(g.n, adj, sub, got, root, targets)
                with watchdog():
                    assert found == (_find_augmenting(g.n, adj, sub, want, root) == 0)
                path = reference_short_path(adj, sub, match, root, targets)
                if path is not None and len(path) == 6:
                    want = match.copy()
                    flip(want, path)
                assert got == want
                for x in bits(sub):
                    assert got[x] == -1 or (got[got[x]] == x and adj[x] >> got[x] & 1 and sub >> got[x] & 1)
                counts[len(path) - 1 if path else "search found" if found else "search failed"] += 1

        check()
        assert all(counts[kind] >= 10 for kind in (3, 5, "search found", "search failed")), counts

    def test_match_array_steps_only_towards_targets(self, monkeypatch):
        # the last exposed vertex has no exposed vertex above it to reach,
        # so _match_array leaves it exposed without trying a step from it
        targets = []

        def spy(n, adj, sub, match, v, to):
            targets.append(to)
            return _augment(n, adj, sub, match, v, to)

        monkeypatch.setattr(matching, "_augment", spy)
        deficient = 0
        for seed in range(200):
            g = random_graph(10, (0.2, 0.25, 0.3, 0.35)[seed % 4], seed)
            if deficiency(g):
                deficient += 1
                max_matching(g)
                gallai_edmonds(g)
        assert deficient >= 100 and len(targets) >= 100
        assert 0 not in targets
