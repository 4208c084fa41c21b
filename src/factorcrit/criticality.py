"""k-factor-criticality, edge-minimality, and deletion certificates.

A graph is k-factor-critical (k-FC) when every k-subset of vertices can be
deleted leaving a perfect matching, and minimal when no single edge deletion
preserves that. For each undeletable edge e = uv there is a certificate: a
k-set S_e avoiding u and v such that every perfect matching of G - S_e uses
e. Every k-set sweep, the blossom one of a whole graph
(:func:`_first_failing_subset`) included, runs in ascending-bitmask
(colexicographic) order, so reported witnesses are canonical.

Edge tests do not sweep G - e again. One sweep of G keeps a perfect
matching of G - S for every k-set S (:class:`_Witnesses`). Deleting uv
breaks only the matchings that use uv, and with uv dropped u and v are the
only exposed vertices. Any augmenting path repairs such a matching (Berge's
theorem), so the repair is the augmenting step of ``matching`` from u with
v as its only target: the three-edge path u - a = b - v, else the
five-edge path u - a = b - c = d - v, else one blossom search from u,
which either repairs the matching or proves that G - uv - S has none. Each
S is decided exactly, so which repair is found changes no deletion or
certificate. Every other S keeps its matching. The broken matchings are
repaired in ascending order of S, so the first one that cannot be repaired
is the lowest failing k-set of G - uv: the certificate a full sweep of
G - uv would report.

Most edges that minimalization refuses are refused by degree alone. Every
k-FC graph has minimum degree at least k + 1 (Favaron, "On k-factor-critical
graphs", Discuss. Math. Graph Theory 16, 1996): deleting N(x) isolates x.
So when an endpoint x of uv has degree k + 1 and y is the other endpoint,
G - uv is not k-FC, and :func:`_edge_deletable` refuses uv without any
repair. A certificate needs no such case: S_f = N(x) - y is a k-set, in
G - S_f the only neighbour of x is y, so the kept matching of G - S_f uses
uv, and its repair fails because x is isolated in G - uv - S_f. The
ascending scan therefore stops at S_f at the latest. :func:`minimalize`
first sweeps G - L once, L the edges that the degree rule passes in one walk
of its order, degrees lowered as each is listed. A spanning supergraph of a
k-FC graph is k-FC, so if G - L is k-FC every test of L passes, the loop sees
those degrees, and it deletes exactly L.

Exhaustive sweeps decide many graphs of one order at once
(:func:`kfc_and_minimal_batch`), bit-sliced after Biham ("A fast new DES
implementation in software", FSE 1997): a lane is an int whose bit i belongs
to graph i, so one int operation evaluates the same boolean recursion on
every graph of the batch. With lane(u, v) the graphs that have the edge uv,
PM[T], the graphs in which the vertex set T has a perfect matching, is

    PM[{}] = all ones,  PM[T] = OR over v in T - t of lane(t, v) & PM[T - t - v]

where t = min T. It is exact: a perfect matching of T matches t to some
neighbour v in T and the rest of T perfectly, and every such choice gives
one. A singleton gets the empty OR, so odd sets have none. PM is memoised
on T; the graphs that are k-FC are the AND of PM[V - S] over the k-sets S.
The edge test of ab (a < b) ANDs PM of G - ab over T = V - S for the k-sets
S that avoid a and b (the others keep their matchings). A perfect matching
can be grown from any vertex, not only the lowest (Lovász and Plummer,
"Matching Theory", 1986), so it is grown from a: a is matched to some w in
T - a - b, and T - a - w no longer holds a, so ab plays no part in it:

    PM_{G - ab}[T] = OR over w in T - a - b of lane(a, w) & PM[T - a - w]

with PM the memo of G itself, which the edge tests only extend.

The edge lanes of a batch (:func:`_edge_lanes`) are its whole input:
:func:`_batch_kernel` decides a batch from them alone. An exhaustive sweep
builds the lanes of an order's cached classes at that order's first sweep
and reuses them for every later k; the kernel only reads them.

The memo holds up to 2^(n-1) sets, each an int as long as the batch, so
the per-graph path above stays for single graphs, sampled starts and graph
files of any order up to 64; it is also the batch kernel's test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .enumeration import SplitMix64
from .graphs import (
    Edge,
    Graph,
    GraphError,
    VertexSet,
    _check_int,
    _k_subsets_ascending,
    _one_order,
    _order_of,
    _pack_rows,
    _row_bytes,
    _trusted,
    is_k_connected,
    is_k_edge_connected,
    min_degree,
    normalize_edge,
)
from .matching import _augment, _match_array


class NotKFactorCriticalError(GraphError):
    """The input graph is not k-factor-critical, as minimalization and
    minimality certificates require."""


def _first_failing_subset(
    n: int, adj: tuple[int, ...], k: int, witnesses: list[tuple[int, list[int]]] | None = None,
) -> int | None:
    """First k-set S (ascending mask) such that G - S has no perfect matching,
    or None when G is k-FC. ``witnesses``, when given, receives (S, match
    array) with a perfect matching of G - S for every k-set S below the first
    failing one."""
    full = (1 << n) - 1
    for s in _k_subsets_ascending(n, k):
        match = None if (n - k) % 2 else _match_array(n, adj, full ^ s, stop_on_exposed=True)
        if match is None:
            return s
        if witnesses is not None:
            witnesses.append((s, match))
    return None


class _Witnesses:
    """A graph under edge deletion with one perfect matching of G - S per
    k-set S, k checked by the caller. ``failing`` is the input's first failing
    k-set; the edge tests are valid only when it is None, and then the table
    holds every k-set."""

    def __init__(self, g: Graph, k: int) -> None:
        self.n, self.k, self.full, self.adj = g.n, k, g.vertex_mask, list(g.adj)
        self.table: list[tuple[int, list[int]]] = []
        self.failing = _first_failing_subset(g.n, g.adj, k, self.table)

    def failing_without(self, u: int, v: int, commit: bool = False) -> int | None:
        """Lowest k-set S such that G - uv - S has no perfect matching, or
        None when G - uv is still k-FC.

        Only the matchings that use uv are searched again, in ascending order
        of S. With ``commit``, a None result deletes uv and keeps the repaired
        matchings.
        """
        n, full = self.n, self.full
        adj = self.adj.copy()
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        repaired = []
        for i, (s, match) in enumerate(self.table):
            if match[u] != v:
                continue
            m = match.copy()
            m[u] = m[v] = -1
            if not _augment(n, adj, full & ~s, m, u, 1 << v):
                return s
            repaired.append((i, s, m))
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
    _check_int("k", k, 0, _order_of(g) - 1)
    if (g.n + k) % 2:
        return False, None
    failing = _first_failing_subset(g.n, g.adj, k)
    return (failing is None), failing


@dataclass(frozen=True)
class MinimalityCertificate:
    """A k-set avoiding e's endpoints forcing e into every perfect matching
    of G - s_e."""

    edge: Edge
    s_e: VertexSet


@dataclass(frozen=True)
class CriticalityReport:
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

    Raises :class:`NotKFactorCriticalError` when g is not k-FC.
    """
    u, v = normalize_edge(_order_of(g), e)
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not present")
    _check_int("k", k, 0, g.n - 1)
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
    _check_int("k", k, 0, _order_of(g) - 1)
    w = _Witnesses(g, k)
    if w.failing is not None:
        return CriticalityReport(
            is_kfc=False, is_minimal=False,
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
        is_kfc=True, is_minimal=not deletable, failing_set=None,
        certificates=tuple(certs), deletable_edges=tuple(deletable),
    )


def kfc_and_minimal(g: Graph, k: int) -> tuple[bool, bool]:
    """(k-factor-critical, minimal) from one sweep, without certificates:
    the edge tests stop at the first deletable edge. Minimum degree <= k
    fails before the sweep (see the module docstring)."""
    _check_int("k", k, 0, _order_of(g) - 1)
    if min_degree(g) <= k:
        return False, False
    w = _Witnesses(g, k)
    if w.failing is not None:
        return False, False
    return True, not any(_edge_deletable(w, e) for e in g.edges())


# ---------------------------------------------------------------------------
# bit-sliced batches
# ---------------------------------------------------------------------------

# _BIT_CHARS[j] maps a byte to b"1" when its bit j is set and to b"0" otherwise
_BIT_CHARS = [bytes(48 + (b >> j & 1) for b in range(256)) for j in range(8)]


def _edge_lanes(graphs: Sequence[Graph], n: int) -> list[list[int]]:
    """Symmetric edge lanes, 0 on the diagonal: bit i of ``lanes[u][v]`` and of
    ``lanes[v][u]`` is set when ``graphs[i]`` has the edge uv.

    The rows are packed by :func:`_pack_rows`, last graph first, so that
    graph i lands at bit i of a base-2 parse. Byte j of row v, taken from
    every graph, is one strided slice of the packing, and bit u of that
    plane (8j <= u < 8j + 8) becomes lane uv by a translate to ASCII digits
    and a base-2 parse, all at C speed.
    """
    raw = _pack_rows(graphs[::-1], n)
    width = _row_bytes(n)
    lanes = [[0] * n for _ in range(n)]
    for v in range(1, n):
        planes = [raw[width * v + j::width * n] for j in range(width)]
        for u in range(v):
            lanes[u][v] = lanes[v][u] = int(planes[u >> 3].translate(_BIT_CHARS[u & 7]), 2)
    return lanes


def _pm_lane(t: int, lanes: list[list[int]], memo: dict[int, int]) -> int:
    """The lane of the graphs in which the vertex set ``t`` has a perfect
    matching: its lowest vertex is matched to some v of t, and the rest of t
    has a perfect matching. ``memo`` must hold the all-ones lane at 0."""
    x = memo.get(t)
    if x is None:
        low = t & -t
        x = memo[t] = _matched_lane(t ^ low, t ^ low, lanes[low.bit_length() - 1], lanes, memo)
    return x


def _matched_lane(rest: int, mates: int, row: list[int], lanes: list[list[int]], memo: dict[int, int]) -> int:
    """OR over v in ``mates`` of row[v] & PM[rest - v]: the graphs in which
    the vertex whose edge lanes are ``row`` is matched to some v of ``mates``
    and ``rest`` - v has a perfect matching."""
    x = 0
    while mates:
        b = mates & -mates
        lane = row[b.bit_length() - 1]
        if lane:
            x |= lane & _pm_lane(rest ^ b, lanes, memo)
        mates ^= b
    return x


def kfc_and_minimal_batch(graphs: Sequence[Graph], k: int) -> tuple[int, int]:
    """:func:`kfc_and_minimal` of many graphs of one order n <= 16 at once, as
    two lanes: bit i of the first is set when ``graphs[i]`` is k-FC, and of
    the second when it is also minimal (see the module docstring)."""
    n = _one_order(graphs) if graphs else 16  # an empty batch takes every k an order-16 batch takes
    _check_int("batch order", n, 0, 16)
    _check_int("k", k, 0, n - 1)
    if not graphs:
        return 0, 0
    return _batch_kernel(_edge_lanes(graphs, n), n, k, len(graphs))


def _batch_kernel(lanes: list[list[int]], n: int, k: int, count: int) -> tuple[int, int]:
    """The two lanes of :func:`kfc_and_minimal_batch` from the edge lanes of
    ``count`` graphs of order n, with 0 <= k < n. ``lanes`` is only read."""
    full = (1 << n) - 1
    ksets = list(_k_subsets_ascending(n, k))
    memo = {0: (1 << count) - 1}
    kfc = memo[0]
    for s in ksets:
        kfc &= _pm_lane(full ^ s, lanes, memo)
        if not kfc:
            return 0, 0
    deletable = 0
    for a in range(n - 1):
        col = lanes[a]
        for b in range(a + 1, n):
            todo = col[b] & kfc & ~deletable
            if not todo:
                continue
            # in G - ab, a is matched to some w other than b, and T - a - w
            # holds no a: PM of G serves it
            ab = 1 << a | 1 << b
            for s in ksets:
                if not s & ab:
                    rest = full ^ s ^ 1 << a
                    todo &= _matched_lane(rest, rest ^ 1 << b, col, lanes, memo)
                    if not todo:
                        break
            deletable |= todo
    return kfc, kfc & ~deletable


# ---------------------------------------------------------------------------
# minimalization
# ---------------------------------------------------------------------------


def _edge_deletable(w: _Witnesses, e: Edge) -> bool:
    """Delete ``e`` from ``w`` when the graph stays k-FC without it. An edge
    with an endpoint of degree k + 1 is refused before any matching is
    searched again."""
    u, v = e
    forced = w.k + 1 in (w.adj[u].bit_count(), w.adj[v].bit_count())
    return not forced and w.failing_without(u, v, commit=True) is None


def minimalize(g: Graph, k: int, seed: int) -> Graph:
    """Delete deletable edges until none remain; the result is minimal k-FC.

    Edges are tried once each, in a seed-determined shuffle of the input's
    edge list. One pass suffices because deletability is monotone: when
    G - e is not k-FC, no spanning subgraph of it is, so an edge refused
    once stays undeletable after later deletions. Each test is the edge test
    of the module docstring, so it decides exactly what a full sweep of G - e
    decides. Deterministic given (g, k, seed).

    When G minus the edges the degree rule alone would pass is k-FC, it is
    the result (module docstring), and no witness table is built.

    Raises :class:`NotKFactorCriticalError` when g is not k-FC.
    """
    _check_int("k", k, 0, _order_of(g) - 1)
    order = g.edges()
    SplitMix64(seed).shuffle(order)
    adj = list(g.adj)
    for u, v in order:
        if adj[u].bit_count() > k + 1 < adj[v].bit_count():
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    if _first_failing_subset(g.n, adj, k) is None:
        return _trusted(g.n, tuple(adj))
    w = _Witnesses(g, k)
    if w.failing is not None:
        raise NotKFactorCriticalError("minimalize requires a k-factor-critical input")
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
    _check_int("k", k, 1, _order_of(g) - 1)
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
