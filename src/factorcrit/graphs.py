"""Immutable bitset-backed simple graphs on at most 64 vertices.

A graph stores one 64-bit adjacency mask per vertex, so set-valued queries
(neighborhoods, non-neighborhoods, cuts) are single integer operations.
Vertex sets throughout the package are plain ``int`` bitmasks: bit ``v`` is
set iff vertex ``v`` belongs to the set.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64

VertexSet = int
Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph construction or mutation."""


class Graph6Error(GraphError):
    """Malformed graph6 input."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> VertexSet:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _k_subsets_ascending(n: int, k: int) -> Iterator[int]:
    """All k-subsets of 0..n-1 as bitmasks, in ascending numeric order."""
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        yield m
        low = m & -m
        ripple = m + low
        m = (((ripple ^ m) >> 2) // low) | ripple


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with adjacency bitmasks.

    ``adj[v]`` holds the neighbor set of ``v``. Instances are immutable.
    Direct construction validates: adjacency must be symmetric, irreflexive,
    and confined to bits below ``n``. :func:`parse_graph6` and
    :func:`graph_from_edges` check their own input instead; every graph the
    package derives from a valid one (deletions, additions, generators) is
    symmetric by construction and skips the check. The empty graph
    (``n == 0``) is permitted so that vertex deletion stays total.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != n:
            raise GraphError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"adjacency of {v} has bits at or above {n}")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @property
    def vertex_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, ascending lexicographic order."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()})"


def _trusted(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph from adjacency that is valid by construction; no checks."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    if not 1 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _trusted(n, tuple(rows))


def complete_graph(n: int) -> Graph:
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    full = (1 << n) - 1
    return _trusted(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# graph6 codec
#
# Size prefix: one byte n+63 for n <= 62; for 63 <= n the prefix is '~'
# followed by three bytes holding n in 18 bits, 6 bits per byte, high group
# first. Payload: upper-triangle bits x(0,1), x(0,2), x(1,2), x(0,3), ... in
# column order, packed into 6-bit groups (high bit first), each group +63,
# zero-padded to a byte boundary.
#
# The 6-bit groups are base64 digits in another alphabet, and payload bit
# j(j-1)/2 + i is bit i of row j (i < j): an int holding each bit there,
# written little-endian with each byte's bits reversed, is the payload.
# ---------------------------------------------------------------------------

_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6 = bytes(range(63, 127))
_TO_GRAPH6 = bytes.maketrans(_BASE64, _GRAPH6)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6, _BASE64)


def parse_graph6(text: str | bytes) -> Graph:
    """Decode a single graph6 line (optional ``>>graph6<<`` header)."""
    try:
        line = (text.decode("ascii") if isinstance(text, bytes) else text).strip()
    except UnicodeDecodeError as exc:
        raise Graph6Error(f"non-ASCII graph6 input: {exc}") from None
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise Graph6Error("empty graph6 line")
    data = line.encode("utf-8", "surrogatepass")  # any non-ASCII text gives bytes >= 128
    if data.translate(None, _GRAPH6):
        raise Graph6Error("byte outside 63..126 in graph6 line")

    if data[0] <= 125:
        n = data[0] - 63
        body = data[1:]
    else:
        if len(data) < 4:
            raise Graph6Error("truncated extended size prefix")
        if data[1] == 126:
            raise Graph6Error("8-byte size prefix exceeds supported order")
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | data[3] - 63
        body = data[4:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph order {n} exceeds {MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        kind = "truncated" if len(body) < nbytes else "oversized"
        raise Graph6Error(f"{kind} graph6 payload: {len(body)} bytes, expected {nbytes}")

    # zero digits ("A") complete the last base64 quantum
    payload = binascii.a2b_base64(body.translate(_FROM_GRAPH6) + b"A" * (-nbytes % 4))
    acc = int.from_bytes(payload.translate(_REV8), "little")
    if acc >> nbits:
        raise Graph6Error("nonzero padding bits in graph6 payload")
    rows = [0] * n
    for j in range(1, n):
        rows[j] = low = acc >> (j * (j - 1) >> 1) & ((1 << j) - 1)
        while low:
            b = low & -low
            low ^= b
            rows[b.bit_length() - 1] |= 1 << j
    return _trusted(n, tuple(rows))


def _graph6_line(n: int, payload: bytes) -> bytes:
    """graph6 line of order ``n`` whose payload bits, high bit first, are
    ``payload``: a multiple of 3 bytes, zero past bit n(n-1)/2."""
    prefix = bytes((n + 63,) if n <= 62 else (126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63))
    digits = binascii.b2a_base64(payload, newline=False)[:(n * (n - 1) // 2 + 5) // 6]
    return prefix + digits.translate(_TO_GRAPH6)


def _encode_columns(n: int, cols: list[int]) -> bytes:
    """graph6 line for the upper-triangle columns 1..n-1.

    Column j holds x(0,j), ..., x(j-1,j) in j bits, x(0,j) in the highest.
    """
    acc = 0
    for j, col in enumerate(cols, start=1):
        acc = acc << j | col
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 23) // 24 * 3
    return _graph6_line(n, (acc << (8 * nbytes - nbits)).to_bytes(nbytes, "big"))


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 line (no trailing newline)."""
    acc = 0
    for j, row in enumerate(g.adj):
        acc |= (row & ((1 << j) - 1)) << (j * (j - 1) >> 1)
    nbytes = (g.n * (g.n - 1) // 2 + 23) // 24 * 3
    return _graph6_line(g.n, acc.to_bytes(nbytes, "little").translate(_REV8)).decode("ascii")


# ---------------------------------------------------------------------------
# neighborhood queries
# ---------------------------------------------------------------------------


def closed_nonneighborhood(g: Graph, x: int) -> VertexSet:
    """Vertices that are neither ``x`` nor adjacent to it."""
    if not 0 <= x < g.n:
        raise GraphError(f"vertex {x} outside 0..{g.n - 1}")
    return g.vertex_mask & ~(g.adj[x] | (1 << x))


def common_nonneighborhood(g: Graph, u: int, v: int) -> VertexSet:
    """Intersection of the closed non-neighborhoods of ``u`` and ``v``."""
    if u == v:
        raise GraphError("common non-neighborhood needs two distinct vertices")
    return closed_nonneighborhood(g, u) & closed_nonneighborhood(g, v)


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise GraphError("minimum degree of the empty graph is undefined")
    return min(map(int.bit_count, g.adj))


# ---------------------------------------------------------------------------
# mutation by copy
# ---------------------------------------------------------------------------


def delete_vertices(g: Graph, s: VertexSet) -> Graph:
    """Induced subgraph on V minus ``s``; survivors relabeled densely."""
    return delete_vertices_with_map(g, s)[0]


def _delete_vertex_rows(n: int, adj: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The rows of the n-vertex adjacency ``adj`` with vertex ``v`` deleted;
    the vertices above ``v`` move down one label."""
    low = (1 << v) - 1
    rows = []
    for w in range(n):
        if w == v:
            continue
        row = adj[w]
        rows.append((row & low) | (row >> (v + 1) << v))
    return tuple(rows)


def delete_vertices_with_map(g: Graph, s: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Like :func:`delete_vertices`, also returning the old->new index map."""
    if s & ~g.vertex_mask:
        raise GraphError("deletion set contains vertices outside the graph")
    n, rows = g.n, g.adj
    # highest label first, so the labels still to delete stay put
    for v in reversed(list(bits(s))):
        rows = _delete_vertex_rows(n, rows, v)
        n -= 1
    return _trusted(n, rows), {o: i for i, o in enumerate(bits(g.vertex_mask & ~s))}


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    u, v = normalize_edge(*e)
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not present")
    rows = list(g.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return _trusted(g.n, tuple(rows))


def add_edge(g: Graph, e: tuple[int, int]) -> Graph:
    u, v = normalize_edge(*e)
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"edge ({u},{v}) has endpoint outside 0..{g.n - 1}")
    if g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) already present")
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return _trusted(g.n, tuple(rows))


# ---------------------------------------------------------------------------
# connectivity: vertex cuts by enumeration, edge cuts by augmenting paths
# ---------------------------------------------------------------------------


def _components_masked(adj: tuple[int, ...], sub: int) -> list[int]:
    """Connected components of the induced subgraph on ``sub``.

    Ordered by smallest contained vertex.
    """
    comps = []
    rem = sub
    while rem:
        start = rem & -rem
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & rem & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return len(_components_masked(g.adj, g.vertex_mask)) <= 1


def is_k_connected(g: Graph, k: int) -> bool:
    """No vertex cut of size < k disconnects the graph, and n > k.

    Follows the usual convention that the complete graph K_n is
    (n-1)-connected.
    """
    if k < 0:
        raise GraphError("connectivity order must be nonnegative")
    n = g.n
    if n <= k:
        return False
    full = g.vertex_mask
    for size in range(k):
        for cut in _k_subsets_ascending(n, size):
            if len(_components_masked(g.adj, full & ~cut)) > 1:
                return False
    return True


def is_k_edge_connected(g: Graph, k: int) -> bool:
    """No edge cut of size < k disconnects the graph, and n > k.

    By Menger's theorem: every cut separates vertex 0 from some vertex t, so
    the graph is k-edge-connected exactly when k edge-disjoint paths join 0
    to every other t. Each t takes at most k augmenting paths of unit
    capacity, found by BFS in the residual graph.
    """
    if k < 0:
        raise GraphError("connectivity order must be nonnegative")
    n = g.n
    if n <= k:
        return False
    adj = g.adj
    for t in range(1, n):
        # flow[u]: the vertices that u sends one unit to
        flow = [0] * n
        for _ in range(k):
            parent = {0: 0}
            frontier = [0]
            while frontier and t not in parent:
                nxt = []
                for u in frontier:
                    # an edge has spare capacity from u unless u already
                    # sends along it; cancelling an opposite unit counts
                    free = adj[u] & ~flow[u]
                    while free:
                        b = free & -free
                        free ^= b
                        v = b.bit_length() - 1
                        if v not in parent:
                            parent[v] = u
                            nxt.append(v)
                frontier = nxt
            if t not in parent:
                return False
            v = t
            while v:
                u = parent[v]
                if flow[v] >> u & 1:
                    flow[v] ^= 1 << u
                else:
                    flow[u] |= 1 << v
                v = u
    return True
