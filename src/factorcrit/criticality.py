"""k-factor-criticality, edge-minimality, and deletion certificates.

A graph is k-factor-critical (k-FC) when every k-subset of vertices can be
deleted leaving a perfect matching, and minimal when no single edge deletion
preserves that. For each undeletable edge e = uv there is a certificate: a
k-set S_e avoiding u and v such that every perfect matching of G - S_e uses
e. All subset sweeps run in ascending-bitmask (colexicographic) order so
reported witnesses are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import SplitMix64
from .graphs import (
    Edge,
    Graph,
    GraphError,
    VertexSet,
    _components_masked,
    _k_subsets_ascending,
    delete_edge,
    is_k_connected,
    is_k_edge_connected,
    normalize_edge,
)
from .matching import _has_pm


def _first_failing_subset(g: Graph, k: int) -> int | None:
    """First k-subset (ascending mask) whose removal leaves no perfect
    matching, or None when the graph is k-factor-critical."""
    n, adj, full = g.n, g.adj, g.vertex_mask
    for s in _k_subsets_ascending(n, k):
        if not _has_pm(n, adj, full & ~s):
            return s
    return None


def is_k_factor_critical(g: Graph, k: int) -> tuple[bool, VertexSet | None]:
    """Test k-factor-criticality; on failure return the first failing k-set.

    False immediately when n + k is odd.
    """
    if not 0 <= k < g.n:
        raise GraphError(f"k={k} outside 0..{g.n - 1}")
    if (g.n + k) % 2:
        return False, None
    failing = _first_failing_subset(g, k)
    return (failing is None), failing


def is_k_factor_critical_via_odd_components(g: Graph, k: int) -> bool:
    """Oracle path: C_o(G-B) <= |B| - k for every B with |B| >= k (n <= 10)."""
    if g.n > 10:
        raise GraphError("odd-component sweep limited to n <= 10")
    if not 0 <= k < g.n:
        raise GraphError(f"k={k} outside 0..{g.n - 1}")
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
    exactly when G - e is still k-factor-critical.
    """
    u, v = normalize_edge(*e)
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not present")
    failing = _first_failing_subset(delete_edge(g, (u, v)), k)
    if failing is None:
        return None
    assert failing & ((1 << u) | (1 << v)) == 0
    return MinimalityCertificate(edge=(u, v), s_e=failing)


def is_minimal_kfc(g: Graph, k: int) -> CriticalityReport:
    """Full minimality report: k-FC test plus one certificate per edge.

    Edges without a certificate are exactly the deletable ones (G - e stays
    k-FC); the graph is minimal iff there are none.
    """
    ok, failing = is_k_factor_critical(g, k)
    if not ok:
        return CriticalityReport(
            k=k, is_kfc=False, is_minimal=False, failing_set=failing,
            certificates=(), deletable_edges=(),
        )
    certs = []
    deletable = []
    for e in g.edges():
        cert = minimality_certificate(g, k, e)
        if cert is None:
            deletable.append(e)
        else:
            certs.append(cert)
    return CriticalityReport(
        k=k, is_kfc=True, is_minimal=not deletable, failing_set=None,
        certificates=tuple(certs), deletable_edges=tuple(deletable),
    )


# ---------------------------------------------------------------------------
# minimalization
# ---------------------------------------------------------------------------


def _edge_deletable(g: Graph, k: int, e: Edge) -> bool:
    return _first_failing_subset(delete_edge(g, e), k) is None


def minimalize(g: Graph, k: int, seed: int) -> Graph:
    """Delete deletable edges until none remain; the result is minimal k-FC.

    Edges are tried once each, in a seed-determined shuffle of the input's
    edge list. One pass suffices because deletability is monotone: when
    G - e is not k-FC, no spanning subgraph of it is, so an edge refused
    once stays undeletable after later deletions. Deterministic given
    (g, k, seed).
    """
    ok, _ = is_k_factor_critical(g, k)
    if not ok:
        raise GraphError("minimalize requires a k-factor-critical input")
    order = g.edges()
    SplitMix64(seed).shuffle(order)
    current = g
    for e in order:
        if _edge_deletable(current, k, e):
            current = delete_edge(current, e)
    return current


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
