from __future__ import annotations

import hashlib
import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcrit import (
    Graph,
    Graph6Error,
    GraphError,
    all_graphs,
    bits,
    canonical_form,
    delete_edge,
    graph6_lines,
    graph_from_edges,
    kfc_and_minimal,
    parse_graph6,
    random_graph,
    read_graph6_stream,
    to_graph6,
)
from factorcrit.cli import _sweep_batches, main
from factorcrit.enumeration import (
    _attachment_codes,
    _canonical_bytes,
    _class_key,
    _minimal_columns,
    _representatives,
)
from factorcrit.graphs import _delete_vertex_rows, _trusted
from oracles import complete_graph, cycle_graph

# SHA-256 of the graph6 stream of all_graphs(n), one line per graph, as the
# generator emitted it before the filters ahead of dedupe were added
GRAPH6_STREAM_SHA256 = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "aefbaa12a956ed1f415fa897c455185134275a89a57ce1ef7d38f771c0d9129e",
    4: "b809c405cd3b8fb3cc836a9e7471658a8cf02cbc258029bddbecc9f2caf2ea32",
    5: "4bc0fb93a5c083a0a1fa10ab2e1614ff979715d4b476e4ccbad737cf8a169f22",
    6: "e3675dcf4dc6d481eb143f21b09fc23186f2cbbc7a66ace53267a37f4fecffa1",
    7: "adbfb0cf959a374a61a226d8839085f317684de29698ae1f8c34e60256b43c90",
    8: "f09886b7e5a4215526268a89c1cced3c9b04a70f661add7dab289b27f2a693a7",
}
# the same for n = 9, recorded with the order cap raised and nothing else
# changed
ORDER_9_SHA256 = "c10e34212e8fa440dd1841b425b5d649d1e038ddca53a9faa836589a920b3ec7"
# SHA-256 of the stdout of `verify --n 9 --k K --source all`, human format, by
# K, as recorded in BENCH_20.json
ORDER_9_SWEEP_SHA256 = {
    1: "845872aec841be15d382cfe285809e53d44fbd56de1deb79af79bac53ecb0411",
    3: "84e63253d4e4c2863e898d42c4639e3a5b6e4a291062ea733106457f498ecaf8",
    5: "104a177240a34bc46921be88935d9c9361709af8f597a9b2ab9d6b766fa5ccd9",
    7: "ca9010be79b07c4e72bf082d4fd88bae221718ac43dd8514a7ea77dabc08b499",
}
# SHA-256 of b"\n".join of the canonical forms of every class of orders 1..7,
# then of random_graph(8 + s % 3, (0.2, 0.5, 0.8)[s % 3], s) for s = 0..299,
# recorded while canonical forms had an encoder of their own
CANONICAL_FORMS_SHA256 = "7f5bf853d491ebe9730dbc11cd64bd22392b473176e88780e1821b3727c125c8"


def _degree_sequence(adj: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(row.bit_count() for row in adj))


def _refinement_key(adj: tuple[int, ...]) -> tuple:
    """One refinement round from scratch: sorted (degree, sorted neighbor
    degrees). Oracle for the bucket key built from vertex codes."""
    degs = [row.bit_count() for row in adj]
    out = []
    for v, row in enumerate(adj):
        nb = []
        while row:
            b = row & -row
            row ^= b
            nb.append(degs[b.bit_length() - 1])
        nb.sort()
        out.append((degs[v], tuple(nb)))
    out.sort()
    return tuple(out)


def scratch_codes(adj: tuple[int, ...]) -> list[int]:
    """Vertex codes by their definition: 16 * change(v) + deg v, where
    change(v) = 15 * (sum of digit(deg w) over w ~ v) - digit(deg v) and
    digit(d) = 16 ** (n - 1 - d)."""
    n = len(adj)
    degs = [row.bit_count() for row in adj]
    digit = [16 ** (n - 1 - d) for d in range(n)]
    return [
        16 * (15 * sum(digit[degs[w]] for w in bits(row)) - digit[degs[v]]) + degs[v]
        for v, row in enumerate(adj)
    ]


def child_rows(parent: tuple[int, ...], attach: int) -> tuple[int, ...]:
    m = len(parent)
    return tuple(row | ((attach >> v & 1) << m) for v, row in enumerate(parent)) + (attach,)


def class_key(adj: tuple[int, ...]) -> tuple[int, ...]:
    return _class_key(adj, scratch_codes(adj))


def burnside_edge_counts(n: int) -> list[int]:
    """Graphs of order n by edge count (OEIS A008406 row n), by Burnside's
    lemma: each permutation of cycle type (c_1, c_2, ...) fixes the edge
    sets that are unions of its cycles on vertex pairs, and a class of that
    type holds n! / prod(i ** a_i * a_i!) permutations."""

    def partitions(rest: int, largest: int):
        if rest == 0:
            yield []
        for part in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - part, part):
                yield [part] + tail

    pairs = n * (n - 1) // 2
    total = [0] * (pairs + 1)
    for cycles in partitions(n, n):
        lengths = []
        for idx, i in enumerate(cycles):
            # pairs inside one i-cycle; an even cycle also swaps its antipodes
            lengths += [i] * ((i - 1) // 2) + ([i // 2] if i % 2 == 0 else [])
            for j in cycles[idx + 1:]:
                lengths += [math.lcm(i, j)] * math.gcd(i, j)
        poly = [1] + [0] * pairs
        for length in lengths:
            poly = [c + (poly[m - length] if m >= length else 0) for m, c in enumerate(poly)]
        size = math.factorial(n)
        for i in set(cycles):
            a = cycles.count(i)
            size //= i**a * math.factorial(a)
        total = [t + size * c for t, c in zip(total, poly)]
    return [t // math.factorial(n) for t in total]


def edge_histogram(n: int, graphs) -> list[int]:
    hist = [0] * (n * (n - 1) // 2 + 1)
    for g in graphs:
        hist[g.edge_count()] += 1
    return hist


def dedupe_oracle(n: int) -> int:
    """Count isomorphism classes by canonical-form dedupe of all labeled graphs."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for i, (a, b) in enumerate(pairs):
            if mask >> i & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        seen.add(_canonical_bytes(n, tuple(rows)))
    return len(seen)


def reference_parent_is_canonical(
    n: int, child: tuple[int, ...], pdeg: tuple[int, ...], pform: bytes
) -> bool:
    """Whether the parent (with invariants pdeg/pform) is the child's
    canonical parent: no single-vertex deletion reaches a class with a
    smaller (degree sequence, canonical form) key."""
    deletions = [_delete_vertex_rows(n, child, v) for v in range(n)]
    degseqs = [_degree_sequence(rows) for rows in deletions]
    if min(degseqs) < pdeg:
        return False
    for rows, ds in zip(deletions, degseqs):
        if ds == pdeg and _canonical_bytes(n - 1, rows) < pform:
            return False
    return True


@lru_cache(maxsize=None)
def reference_representatives(n: int) -> tuple[Graph, ...]:
    """Slow oracle for ``_representatives``: every child of every parent is
    deduped by canonical form, then each class is checked against every
    one-vertex deletion."""
    if n == 1:
        return (_trusted(1, (0,)),)

    out: list[Graph] = []
    for parent in reference_representatives(n - 1):
        pdeg = _degree_sequence(parent.adj)
        pform = _canonical_bytes(n - 1, parent.adj)
        # bucket the children of this parent by a cheap invariant, then
        # dedupe exact isomorphism duplicates inside colliding buckets only
        buckets: dict[tuple, list[tuple[int, ...]]] = {}
        for attach in range(1 << (n - 1)):
            rows = tuple(
                row | ((attach >> v & 1) << (n - 1)) for v, row in enumerate(parent.adj)
            ) + (attach,)
            buckets.setdefault(_refinement_key(rows), []).append(rows)
        child_reps: list[tuple[int, ...]] = []
        for members in buckets.values():
            if len(members) == 1:
                child_reps.append(members[0])
                continue
            seen: dict[bytes, tuple[int, ...]] = {}
            for rows in members:
                form = _canonical_bytes(n, rows)
                if form not in seen:
                    seen[form] = rows
            child_reps.extend(seen.values())
        for rows in child_reps:
            if reference_parent_is_canonical(n, rows, pdeg, pform):
                out.append(_trusted(n, rows))
    return tuple(out)


def permute(g: Graph, perm: list[int]) -> Graph:
    rows = [0] * g.n
    for u in range(g.n):
        for v in bits(g.adj[u]):
            rows[perm[u]] |= 1 << perm[v]
    return Graph(g.n, tuple(rows))


class TestCanonicalForm:
    def test_invariance_small(self):
        g = cycle_graph(5)
        base = canonical_form(g)
        for perm in ([1, 2, 3, 4, 0], [4, 2, 0, 3, 1], [2, 0, 3, 1, 4]):
            assert canonical_form(permute(g, perm)) == base

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.permutations(list(range(8))))
    def test_invariance_random(self, seed, perm):
        g = random_graph(8, 0.5, seed)
        assert canonical_form(permute(g, perm)) == canonical_form(g)

    def test_distinguishes(self):
        k4 = complete_graph(4)
        assert canonical_form(k4) != canonical_form(delete_edge(k4, (0, 1)))

    def test_encoding_is_valid_graph6(self):
        g = random_graph(9, 0.4, 17)
        cg = parse_graph6(canonical_form(g))
        assert canonical_form(cg) == canonical_form(g)
        assert parse_graph6(canonical_form(g)).n == 9
        # networkx's reader shares no code with the codec
        for h in [g] + [random_graph(1 + s % 10, 0.4, s) for s in range(40)]:
            want = nx.Graph(h.edges())
            want.add_nodes_from(range(h.n))
            assert nx.is_isomorphic(nx.from_graph6_bytes(canonical_form(h)), want)

    def test_canonical_forms_digest(self, graphs_by_order):
        graphs = [g for n in range(1, 8) for g in graphs_by_order[n]]
        graphs += [random_graph(8 + s % 3, (0.2, 0.5, 0.8)[s % 3], s) for s in range(300)]
        forms = b"\n".join(canonical_form(g) for g in graphs)
        assert len(graphs) == 1552
        assert hashlib.sha256(forms).hexdigest() == CANONICAL_FORMS_SHA256

    @settings(max_examples=12, deadline=None)
    @given(st.integers(11, 16), st.integers(0, 10_000), st.sampled_from((0.3, 0.5, 0.8)), st.data())
    def test_invariance_above_ten(self, n, seed, p, data):
        g = random_graph(n, p, seed)
        perm = data.draw(st.permutations(list(range(n))))
        assert canonical_form(permute(g, perm)) == canonical_form(g)

    def test_agrees_with_networkx_above_ten(self):
        """Equal forms exactly for isomorphic pairs at orders 11..13: a graph
        against a relabelling of itself, and against a double-edge swap of
        itself, which keeps every degree."""
        rng = random.Random(13)
        verdicts = []
        for i in range(24):
            n = 11 + i % 3
            g = random_graph(n, (0.3, 0.5)[i % 2], 500 + i)
            want = nx.Graph(g.edges())
            want.add_nodes_from(range(n))
            swapped = nx.double_edge_swap(want.copy(), nswap=1 + i % 2, seed=i)
            perm = list(range(n))
            rng.shuffle(perm)
            for h, other in ((permute(g, perm), want), (graph_from_edges(n, swapped.edges()), swapped)):
                assert sorted(d for _, d in other.degree()) == sorted(map(int.bit_count, g.adj))
                verdicts.append(nx.is_isomorphic(want, other))
                assert (canonical_form(h) == canonical_form(g)) == verdicts[-1]
        assert False in verdicts  # some pairs of equal degrees are not isomorphic

    def test_vertex_transitive_at_sixteen(self):
        """The slow path: circulants C16(1, 3) and C16(1, 5) are isomorphic
        (multiply by 5), and C16(3, 5) is isomorphic to neither."""
        forms = [canonical_form(graph_from_edges(16, {(i, (i + j) % 16) for i in range(16) for j in jumps}))
                 for jumps in ((1, 3), (1, 5), (3, 5))]
        assert forms[0] == forms[1] != forms[2]

    def test_rejects_large(self):
        with pytest.raises(GraphError):
            canonical_form(graph_from_edges(17, []))


class TestAllGraphs:
    def test_counts(self):
        assert [len(list(all_graphs(n))) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]

    def test_matches_dedupe_oracle(self):
        for n in (4, 5):
            assert len(list(all_graphs(n))) == dedupe_oracle(n)

    def test_no_duplicate_forms(self, graphs_by_order):
        for n in (5, 6, 7):
            forms = [canonical_form(g) for g in graphs_by_order[n]]
            assert len(forms) == len(set(forms))

    def test_deterministic_order(self):
        first = [to_graph6(g) for g in all_graphs(5)]
        second = [to_graph6(g) for g in all_graphs(5)]
        assert first == second

    def test_rejects_large(self):
        with pytest.raises(GraphError):
            all_graphs(10)  # on the call, before the first next

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_reference_generator(self, n):
        assert [g.adj for g in _representatives(n)] == [g.adj for g in reference_representatives(n)]

    def test_graph6_stream_digests(self, reps8):
        for n, digest in GRAPH6_STREAM_SHA256.items():
            stream = graph6_lines(reps8[n])
            assert hashlib.sha256(stream).hexdigest() == digest, f"n={n}"

    def test_edge_histograms_match_burnside(self, reps8):
        for n, graphs in reps8.items():
            assert edge_histogram(n, graphs) == burnside_edge_counts(n), f"n={n}"

    def test_order_9(self):
        try:
            reps = tuple(all_graphs(9))
            assert len(reps) == 274_668
            assert edge_histogram(9, reps) == burnside_edge_counts(9)
            assert hashlib.sha256(graph6_lines(reps)).hexdigest() == ORDER_9_SHA256
            # the four order-9 sweeps on the classes generated above
            records = {}
            for k, kfc, minimal in ((1, 184_036, 17), (3, 13_484, 74), (5, 51, 6), (7, 1, 1)):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(["verify", "--n", "9", "--k", str(k), "--source", "all"])
                assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ORDER_9_SWEEP_SHA256[k], k
                lines = out.getvalue().splitlines()
                assert code == 0 and err.getvalue() == ""
                assert lines.pop() == f"scanned=274668 kfc={kfc} minimal={minimal} failures=0"
                # the same bytes from --jobs 2, which decides `all` in this process too
                out2, err2 = io.StringIO(), io.StringIO()
                with redirect_stdout(out2), redirect_stderr(err2):
                    code2 = main(["verify", "--n", "9", "--k", str(k), "--source", "all", "--jobs", "2"])
                assert (code2, out2.getvalue(), err2.getvalue()) == (code, out.getvalue(), "")
                # a k-factor-critical graph is (k - 2)-factor-critical (Favaron 1996)
                records[k] = {line.split()[0] for line in lines}
                assert len(records[k]) == kfc
                if k > 1:
                    assert records[k] <= records[k - 2], k
                if k >= 5:
                    # few records: check each one against the per-graph path
                    want = []
                    for g in reps:
                        is_kfc, is_minimal = kfc_and_minimal(g, k)
                        if is_kfc:
                            want.append([to_graph6(g), f"minimal={is_minimal}"])
                    assert [line.split()[:2] for line in lines] == want
        finally:
            _representatives.cache_clear()  # the order-9 classes hold about 105 MB of RSS
            _sweep_batches.cache_clear()  # and their sweeps' batches about 3.3 MB


def ordering_columns(adj: tuple[int, ...], order: tuple[int, ...]) -> list[int]:
    """Columns 1..n-1 of ``adj`` relabelled by ``order`` (order[i] placed at
    position i): column j has bit j - 1 - i set when order[i] ~ order[j]."""
    return [
        sum((adj[order[i]] >> order[j] & 1) << (j - 1 - i) for i in range(j)) for j in range(1, len(order))
    ]


def brute_columns(adj: tuple[int, ...], cells: list[int] | None = None) -> list[list[int]]:
    """The columns of every ordering, or of every ordering that places the
    ``cells`` one after another in the given order."""
    n = len(adj)
    cell_of = [next(i for i, c in enumerate(cells) if c >> v & 1) for v in range(n)] if cells else [0] * n
    return [
        ordering_columns(adj, order)
        for order in permutations(range(n))
        if all(cell_of[a] <= cell_of[b] for a, b in zip(order, order[1:]))
    ]


def twin_respecting_cells(adj: tuple[int, ...], colour: list[int], names: list[int]) -> list[int]:
    """Cells from a vertex colouring, recoloured so that twins share a cell,
    in the order in which ``names`` lists the colours."""
    n = len(adj)
    twin_of = [
        min(w for w in range(n) if (adj[u] ^ adj[w]) & ~(1 << u | 1 << w) == 0) for u in range(n)
    ]
    cells = [sum(1 << v for v in range(n) if colour[twin_of[v]] == c) for c in names]
    return [c for c in cells if c]


class TestGenerationPredicates:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.sampled_from((0.2, 0.5, 0.8)),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 14),
        st.data(),
    )
    def test_minimal_columns_match_brute_force(self, n, p, seed, other_seed, pair, data):
        # every ordering tried: the unbounded minimum, the bounded search
        # against minima of other graphs, and the cell-ordered minimum
        adj = random_graph(n, p, seed).adj
        columns = brute_columns(adj)
        least = min(columns)
        assert _minimal_columns(n, adj) == least
        toggled = list(adj)
        if n > 1:
            a, b = list(combinations(range(n), 2))[pair % (n * (n - 1) // 2)]
            toggled[a] ^= 1 << b
            toggled[b] ^= 1 << a
        for other in (random_graph(n, p, other_seed).adj, adj, tuple(toggled)):
            bound = min(brute_columns(other))
            below = _minimal_columns(n, adj, bound)
            assert (below is None) == (least >= bound)
            if below is not None:
                assert below < bound and below in columns
        colour = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        cells = twin_respecting_cells(adj, colour, data.draw(st.permutations([0, 1, 2])))
        assert _minimal_columns(n, adj, cells=cells) == min(brute_columns(adj, cells))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 8),
        st.sampled_from((0.2, 0.5, 0.8)),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 27),
    )
    def test_bounded_search_matches_full_search(self, n, p, seed, other_seed, pair):
        adj = random_graph(n, p, seed).adj
        least = _minimal_columns(n, adj)
        # bounds from an unrelated graph, from the graph itself and from the
        # graph with one pair toggled
        toggled = list(adj)
        if n > 1:
            a, b = list(combinations(range(n), 2))[pair % (n * (n - 1) // 2)]
            toggled[a] ^= 1 << b
            toggled[b] ^= 1 << a
        for other in (random_graph(n, p, other_seed).adj, adj, tuple(toggled)):
            bound = _minimal_columns(n, other)
            below = _minimal_columns(n, adj, bound)
            assert (below is not None) == (least < bound)
            if below is not None:
                assert least <= below < bound

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.sampled_from((0.2, 0.5, 0.8)), st.integers(0, 10**6))
    def test_bucket_degree_test_matches_deletions(self, m, p, seed):
        # an attachment is rejected exactly when some deletion of the child
        # has a smaller degree sequence than the parent
        parent = random_graph(m, p, seed).adj
        pdeg = _degree_sequence(parent)
        n = m + 1
        codes_of = _attachment_codes(n, parent)
        for attach in range(1 << m):
            rows = child_rows(parent, attach)
            degseqs = [_degree_sequence(_delete_vertex_rows(n, rows, v)) for v in range(n)]
            assert (codes_of(attach) is None) == (min(degseqs) < pdeg)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.sampled_from((0.2, 0.5, 0.8)), st.integers(0, 10**6))
    def test_incremental_codes_match_scratch(self, m, p, seed):
        # every attachment that is kept gets the codes by their definition
        parent = random_graph(m, p, seed).adj
        codes_of = _attachment_codes(m + 1, parent)
        for attach in range(1 << m):
            codes = codes_of(attach)
            if codes is not None:
                assert codes == scratch_codes(child_rows(parent, attach))

    def test_bucket_key_partition_matches_oracle(self, graphs_by_order):
        # every kept attachment of every parent of one order: the sorted codes
        # and the from-scratch refinement key must split them the same way
        for m in range(1, 7):
            pairs = set()
            for parent in graphs_by_order[m]:
                codes_of = _attachment_codes(m + 1, parent.adj)
                for attach in range(1 << m):
                    codes = codes_of(attach)
                    if codes is not None:
                        pairs.add((tuple(sorted(codes)), _refinement_key(child_rows(parent.adj, attach))))
            assert len({new for new, _ in pairs}) == len(pairs) == len({old for _, old in pairs}), f"m={m}"


def complete_bipartite(a: int, b: int) -> Graph:
    return graph_from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def cube() -> Graph:
    return graph_from_edges(8, [(u, u ^ 1 << i) for u in range(8) for i in range(3) if u < u ^ 1 << i])


class TestClassKey:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 9), st.sampled_from((0.2, 0.5, 0.8)), st.integers(0, 10**6))
    def test_invariant_under_relabeling(self, data, n, p, seed):
        g = random_graph(n, p, seed)
        perm = data.draw(st.permutations(list(range(n))))
        assert class_key(permute(g, perm).adj) == class_key(g.adj)

    def test_equal_exactly_when_canonical_forms_equal(self, graphs_by_order, reps8):
        # refinement splits none of the regular graphs of order 8, so their
        # keys rest on the cell-ordered search alone
        regular8 = [g for g in reps8[8] if len({row.bit_count() for row in g.adj}) == 1]
        named = (complete_bipartite(4, 4), cube(), cycle_graph(8))
        assert {canonical_form(g) for g in named} <= {canonical_form(g) for g in regular8}
        assert sum(1 for g in regular8 if g.adj[0].bit_count() == 3) == 6
        rng = random.Random(8)
        graphs = []
        for g in [g for n in range(1, 8) for g in graphs_by_order[n]] + regular8 + list(named):
            graphs.append(g)
            for _ in range(2):
                perm = list(range(g.n))
                rng.shuffle(perm)
                graphs.append(permute(g, perm))
        pairs = {(class_key(g.adj), _canonical_bytes(g.n, g.adj)) for g in graphs}
        assert len({key for key, _ in pairs}) == len(pairs) == len({form for _, form in pairs})


class TestRandomGraph:
    def test_extreme_probabilities(self):
        assert random_graph(8, 0.0, 3).edge_count() == 0
        assert random_graph(8, 1.0, 3) == complete_graph(8)

    def test_deterministic(self):
        assert random_graph(12, 0.37, 99) == random_graph(12, 0.37, 99)
        assert random_graph(12, 0.37, 99) != random_graph(12, 0.37, 100)

    def test_edge_concentration(self):
        n, p = 24, 0.35
        trials = 40
        pair_count = n * (n - 1) // 2
        total = sum(random_graph(n, p, 5000 + i).edge_count() for i in range(trials))
        mean = pair_count * p
        sigma = math.sqrt(pair_count * p * (1 - p) / trials)
        assert abs(total / trials - mean) < 5 * sigma

    def test_rejects_bad_probability(self):
        with pytest.raises(GraphError):
            random_graph(5, 1.5, 0)


class TestStream:
    def test_basic(self):
        got = list(read_graph6_stream(["D??\n", "C~\n"]))
        assert got[0].n == 5 and got[0].edge_count() == 0
        assert got[1] == complete_graph(4)

    def test_empty_input(self):
        assert list(read_graph6_stream([])) == []

    def test_blank_lines_skipped(self):
        assert len(list(read_graph6_stream(["\n", "C~\n", "  \n"]))) == 1

    def test_strict_raises_with_line_number(self):
        with pytest.raises(Graph6Error, match="line 1"):
            list(read_graph6_stream(["!\n"]))
        with pytest.raises(Graph6Error, match="line 2"):
            list(read_graph6_stream(["C~\n", "!\n"]))
