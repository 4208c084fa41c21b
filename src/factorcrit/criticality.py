"""k-factor-criticality, edge-minimality, and deletion certificates.

A graph is k-factor-critical (k-FC) when every k-subset of vertices can be
deleted leaving a perfect matching, and minimal when no single edge deletion
preserves that. For each undeletable edge e = uv there is a certificate: a
k-set S_e avoiding u and v such that every perfect matching of G - S_e uses
e. All subset sweeps run in ascending-bitmask (colexicographic) order so
reported witnesses are canonical.

Edge tests do not sweep G - e again. One sweep of G keeps a perfect
matching of G - S for every k-set S (:class:`_Witnesses`). Deleting uv
breaks only the matchings that use uv, and with uv dropped u and v are the
only exposed vertices. Any augmenting path repairs such a matching (Berge's
theorem), so the three-edge path u - a = b - v is tried first: a is the
lowest neighbour of u whose mate b is adjacent to v. Only when no such a
exists does one blossom search from u run, which either repairs the matching
or proves that G - uv - S has none. Every other S keeps its matching. The
broken matchings are repaired in ascending order of S, so the first one that
cannot be repaired is the lowest failing k-set of G - uv: the certificate a
full sweep of G - uv would report.

Most edges that minimalization refuses are refused by degree alone. Every
k-FC graph has minimum degree at least k + 1 (Favaron, "On k-factor-critical
graphs", Discuss. Math. Graph Theory 16, 1996): deleting N(x) isolates x.
So when u or v has degree k in G - uv, its neighbourhood there is a failing
k-set of G - uv, the forced set (the lower mask when both endpoints have
one). An edge with a forced set is undeletable without any repair, and its
lowest failing k-set is the lowest S below the forced set whose matching
cannot be repaired, or the forced set itself.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

from .enumeration import SplitMix64
from .graphs import (
    Edge,
    Graph,
    GraphError,
    VertexSet,
    _components_masked,
    _trusted,
    is_k_connected,
    is_k_edge_connected,
    min_degree,
    normalize_edge,
)
from .matching import _augment_three, _find_augmenting, _first_failing_subset


class NotKFactorCriticalError(GraphError):
    """The input graph is not k-factor-critical, as minimalization and
    minimality certificates require."""


def _check_k(g: Graph, k: int) -> None:
    if not 0 <= k < g.n:
        raise GraphError(f"k={k} outside 0..{g.n - 1}")


class _Witnesses:
    """A graph under edge deletion with one perfect matching of G - S per
    k-set S. ``failing`` is the input's first failing k-set; the edge tests
    are valid only when it is None, and then the table holds every k-set."""

    def __init__(self, g: Graph, k: int) -> None:
        _check_k(g, k)
        self.n, self.k, self.full, self.adj = g.n, k, g.vertex_mask, list(g.adj)
        self.table: list[tuple[int, list[int]]] = []
        self.failing = _first_failing_subset(g.n, g.adj, g.vertex_mask, k, self.table)

    def forced(self, u: int, v: int) -> int | None:
        """The lower of N(u) and N(v) in G - uv that has k vertices, or None.
        Deleting it isolates its endpoint, so G - uv is not k-FC."""
        nu, nv = self.adj[u] & ~(1 << v), self.adj[v] & ~(1 << u)
        return min((a for a in (nu, nv) if a.bit_count() == self.k), default=None)

    def failing_without(self, u: int, v: int, commit: bool = False) -> int | None:
        """Lowest k-set S such that G - uv - S has no perfect matching, or
        None when G - uv is still k-FC.

        Only the matchings that use uv are searched again, in ascending order
        of S, and only below the forced set when there is one. With
        ``commit``, a None result deletes uv and keeps the repaired matchings.
        """
        n, full = self.n, self.full
        forced = self.forced(u, v)
        adj = self.adj.copy()
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        repaired = []
        table = self.table
        end = len(table) if forced is None else bisect_left(table, forced, key=itemgetter(0))
        for i, (s, match) in enumerate(islice(table, end)):
            if match[u] != v:
                continue
            m = match.copy()
            m[u] = m[v] = -1
            sub = full & ~s
            if _augment_three(adj, sub, m, u, 1 << v) < 0 and _find_augmenting(n, adj, sub, m, u):
                return s
            repaired.append((i, s, m))
        if forced is not None:
            return forced
        if commit:
            self.adj = adj
            for i, s, m in repaired:
                self.table[i] = (s, m)
        return None

    def graph(self) -> Graph:
        return _trusted(self.n, tuple(self.adj))


def is_k_factor_critical(g: Graph, k: int) -> tuple[bool, VertexSet | None]:
    """Test k-factor-criticality; on failure return the first failing k-set.

    False immediately when n + k is odd.
    """
    _check_k(g, k)
    if (g.n + k) % 2:
        return False, None
    failing = _first_failing_subset(g.n, g.adj, g.vertex_mask, k)
    return (failing is None), failing


def is_k_factor_critical_via_odd_components(g: Graph, k: int) -> bool:
    """Oracle path: C_o(G-B) <= |B| - k for every B with |B| >= k (n <= 10)."""
    if g.n > 10:
        raise GraphError("odd-component sweep limited to n <= 10")
    _check_k(g, k)
    adj = g.adj
    full = g.vertex_mask
    for b in range(1 << g.n):
        size = b.bit_count()
        if size < k:
            continue
        comps = _components_masked(adj, full & ~b)
        if sum(c.bit_count() & 1 for c in comps) > size - k:
            return False
    return True


@dataclass(frozen=True)
class MinimalityCertificate:
    """A k-set avoiding e's endpoints forcing e into every perfect matching
    of G - s_e."""

    edge: Edge
    s_e: VertexSet


@dataclass(frozen=True)
class CriticalityReport:
    k: int
    is_kfc: bool
    is_minimal: bool
    failing_set: VertexSet | None
    certificates: tuple[MinimalityCertificate, ...]
    deletable_edges: tuple[Edge, ...]


def minimality_certificate(g: Graph, k: int, e: tuple[int, int]) -> MinimalityCertificate | None:
    """First certificate for edge ``e`` of a k-factor-critical graph.

    Returns the lowest k-set S (ascending mask) with no perfect matching in
    (G - e) - S; such an S automatically avoids both endpoints, and since G
    itself is k-FC, G - S has a perfect matching that must use e. Absent
    exactly when G - e is still k-factor-critical. When an endpoint of e has
    degree k + 1, its other neighbours form a failing k-set (the forced set),
    and only the kept matchings below it are searched again: the certificate
    is the first of them that cannot be repaired, else the forced set.

    Raises :class:`NotKFactorCriticalError` when g is not k-FC.
    """
    u, v = normalize_edge(*e)
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not present")
    w = _Witnesses(g, k)
    if w.failing is not None:
        raise NotKFactorCriticalError("minimality certificates require a k-factor-critical graph")
    failing = w.failing_without(u, v)
    if failing is None:
        return None
    assert failing & ((1 << u) | (1 << v)) == 0
    return MinimalityCertificate(edge=(u, v), s_e=failing)


def is_minimal_kfc(g: Graph, k: int) -> CriticalityReport:
    """Full minimality report: k-FC test plus one certificate per edge.

    Edges without a certificate are exactly the deletable ones (G - e stays
    k-FC); the graph is minimal iff there are none. One sweep serves the
    k-FC test and every edge.
    """
    w = _Witnesses(g, k)
    if w.failing is not None:
        return CriticalityReport(
            k=k, is_kfc=False, is_minimal=False,
            failing_set=None if (g.n + k) % 2 else w.failing,
            certificates=(), deletable_edges=(),
        )
    certs = []
    deletable = []
    for e in g.edges():
        s_e = w.failing_without(*e)
        if s_e is None:
            deletable.append(e)
        else:
            certs.append(MinimalityCertificate(edge=e, s_e=s_e))
    return CriticalityReport(
        k=k, is_kfc=True, is_minimal=not deletable, failing_set=None,
        certificates=tuple(certs), deletable_edges=tuple(deletable),
    )


def kfc_and_minimal(g: Graph, k: int) -> tuple[bool, bool]:
    """(k-factor-critical, minimal) from one sweep, without certificates:
    the edge tests stop at the first deletable edge. Minimum degree <= k
    fails before the sweep: deleting a k-set holding N(v) isolates v. For
    the same reason an edge with an endpoint of degree k + 1 is undeletable
    without a test."""
    _check_k(g, k)
    if min_degree(g) <= k:
        return False, False
    w = _Witnesses(g, k)
    if w.failing is not None:
        return False, False
    return True, all(
        w.forced(*e) is not None or w.failing_without(*e) is not None for e in g.edges()
    )


# ---------------------------------------------------------------------------
# minimalization
# ---------------------------------------------------------------------------


def _edge_deletable(w: _Witnesses, e: Edge) -> bool:
    """Delete ``e`` from ``w`` when the graph stays k-FC without it. An edge
    with a forced set is refused before any matching is searched again."""
    return w.forced(*e) is None and w.failing_without(*e, commit=True) is None


def minimalize(g: Graph, k: int, seed: int) -> Graph:
    """Delete deletable edges until none remain; the result is minimal k-FC.

    Edges are tried once each, in a seed-determined shuffle of the input's
    edge list. One pass suffices because deletability is monotone: when
    G - e is not k-FC, no spanning subgraph of it is, so an edge refused
    once stays undeletable after later deletions. Each test repairs, in
    ascending order of S, only the kept perfect matchings of G - S that use
    the edge: by a three-edge alternating path between its endpoints when
    one exists, else by a blossom search (see the module docstring). Which
    path repairs a matching does not change whether G - e - S has a perfect
    matching, and the first S that cannot be repaired is the lowest failing
    k-set of G - e, so the test decides exactly what a full sweep of G - e
    decides, and certificates stay canonical. A deletion and its repaired
    matchings are committed only when every repair succeeds. An edge with an
    endpoint of degree k + 1 is refused at once, with no repair: deleting
    that endpoint's other k neighbours from G - e isolates it. Deterministic
    given (g, k, seed).

    Raises :class:`NotKFactorCriticalError` when g is not k-FC.
    """
    w = _Witnesses(g, k)
    if w.failing is not None:
        raise NotKFactorCriticalError("minimalize requires a k-factor-critical input")
    order = g.edges()
    SplitMix64(seed).shuffle(order)
    for e in order:
        _edge_deletable(w, e)
    return w.graph()


# ---------------------------------------------------------------------------
# connectivity consequences
# ---------------------------------------------------------------------------


def check_connectivity_properties(g: Graph, k: int) -> bool:
    """Connectivity facts every k-factor-critical graph must satisfy:
    k-connected, (k+1)-edge-connected, and (k-2)-factor-critical for k >= 2.

    The caller vouches that g is k-FC; only parity and range are re-checked.
    """
    if not 1 <= k < g.n:
        raise GraphError(f"k={k} outside 1..{g.n - 1}")
    if (g.n + k) % 2:
        raise GraphError("n + k must be even for a k-factor-critical graph")
    if not is_k_connected(g, k):
        return False
    if not is_k_edge_connected(g, k + 1):
        return False
    if k >= 2:
        ok, _ = is_k_factor_critical(g, k - 2)
        if not ok:
            return False
    return True
