"""Immutable bitset-backed simple graphs on at most 64 vertices.

A graph stores one 64-bit adjacency mask per vertex, so set-valued queries
(neighborhoods, non-neighborhoods, cuts) are single integer operations.
Vertex sets throughout the package are plain ``int`` bitmasks: bit ``v`` is
set iff vertex ``v`` belongs to the set.
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass
from itertools import chain
from math import inf
from typing import Iterable, Iterator, Sequence

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


def _check_int(name: str, value: int, least: float = -inf, most: float = inf) -> None:
    """Refuse a value of the int argument ``name`` that is not an int (a bool is none) or lies outside least..most."""
    if type(value) is not int:
        raise GraphError(f"{name} {value!r} is a {type(value).__name__}, not an int")
    if not least <= value <= most:
        raise GraphError(f"{name} {value} outside {least}..{most}")


def normalize_edge(n: int, e: tuple[int, int]) -> Edge:
    """``e`` as (u, v) with u < v: a pair of distinct ints (a bool is none) in 0..n-1."""
    try:
        u, v = e
    except (TypeError, ValueError):
        raise GraphError(f"edge {e!r} is not a pair of vertices") from None
    if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u!r},{v!r}) has endpoint outside 0..{n - 1}")
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _one_order(graphs: Sequence[Graph]) -> int:
    """The order of a nonempty batch; a batch of mixed orders is refused."""
    orders = {_order_of(g) for g in graphs}
    if len(orders) > 1:
        raise GraphError(f"batch mixes graphs of orders {sorted(orders)}")
    return graphs[0].n


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
    Direct construction stores ``adj`` as a tuple and validates it: one int
    row per vertex, symmetric, irreflexive, and confined to bits below
    ``n``. :func:`parse_graph6` and :func:`graph_from_edges` check their own
    input instead; every graph the package derives from a valid one
    (deletions, additions, generators) is symmetric by construction and
    skips the check. The empty graph (``n == 0``) is permitted so that
    vertex deletion stays total. The queries, run inside loops, check
    nothing: their vertices must be vertices of the graph.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        adj = tuple(self.adj)  # a caller's list would leave the graph mutable and unhashable
        object.__setattr__(self, "adj", adj)
        n = self.n
        _check_int("vertex count", n, 0, MAX_VERTICES)
        if len(adj) != n:
            raise GraphError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if type(row) is not int:
                raise GraphError(f"adjacency of {v} is a {type(row).__name__}, not an int")
            if row & ~full:
                raise GraphError(f"adjacency of {v} has bits at or above {n}")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v, row in enumerate(adj):
            for u in bits(row):
                if not adj[u] >> v & 1:
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


def _order_of(g: Graph) -> int:
    """The order of the graph argument ``g``; anything but a Graph is refused."""
    if not isinstance(g, Graph):
        raise GraphError(f"graph argument is a {type(g).__name__}, not a Graph")
    return g.n


def _trusted(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph from adjacency that is valid by construction; no checks."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    _check_int("vertex count", n, 1, MAX_VERTICES)
    rows = [0] * n
    for e in edges:
        u, v = normalize_edge(n, e)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _trusted(n, tuple(rows))


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
    if not isinstance(text, (str, bytes)):
        raise Graph6Error(f"graph6 input is a {type(text).__name__}, not str or bytes")
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


def _payload_bytes(n: int) -> int:
    """Bytes of one order-n payload, padded to whole base64 quanta, so that
    the digits of payloads laid end to end split evenly between them."""
    return (n * (n - 1) // 2 + 23) // 24 * 3


def _graph6_text(n: int, payloads: bytes, count: int) -> bytes:
    """``count`` graph6 lines of order n, each ending in ``\\n``, from their
    payloads laid end to end: ``_payload_bytes(n)`` bytes each, high bit
    first, zero past bit n(n-1)/2.

    One base64 pass writes every digit; digit d of every line is then one
    strided slice of it, as are the prefix bytes and the newlines.
    """
    prefix = bytes((n + 63,) if n <= 62 else (126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63))
    digits = binascii.b2a_base64(payloads, newline=False).translate(_TO_GRAPH6)
    per_line = _payload_bytes(n) // 3 * 4
    used = (n * (n - 1) // 2 + 5) // 6
    if count == 1:  # to_graph6 and every one-record batch: concatenation is cheaper
        return prefix + digits[:used] + b"\n"
    width = len(prefix) + used + 1
    out = bytearray(width * count)
    for i, byte in enumerate(prefix):
        out[i::width] = bytes((byte,)) * count
    for d in range(used):
        out[len(prefix) + d::width] = digits[d::per_line]
    out[width - 1::width] = b"\n" * count
    return bytes(out)


def _row_bytes(n: int) -> int:
    """Bytes per packed row of an order-n graph: 1 up to n = 8, then 2, 4, 8."""
    return 1 if n <= 8 else 2 if n <= 16 else 4 if n <= 32 else 8


def _pack_rows(graphs: Sequence[Graph], n: int) -> bytes:
    """The rows of ``graphs``, all of order n, in order and laid end to end,
    each in ``_row_bytes(n)`` little-endian bytes. Byte j of row v, taken
    from every graph, is then one strided slice."""
    rows = chain.from_iterable([g.adj for g in graphs])
    width = _row_bytes(n)
    if width == 1:
        return bytes(rows)
    return struct.pack(f"<{n * len(graphs)}{' HI Q'[width >> 1]}", *rows)


# _LOW_BITS[r] keeps the r lowest bits of a byte; _POPCOUNT counts its bits
_LOW_BITS = [bytes(b & ((1 << r) - 1) for b in range(256)) for r in range(9)]
_POPCOUNT = bytes(b.bit_count() for b in range(256))


def _rows_graph6(packed: bytes, n: int, count: int) -> bytes:
    """:func:`graph6_lines` of the ``count`` graphs whose rows are ``packed``.

    Payload bit v(v-1)/2 + u is bit u of row v (u < v). The payloads of the
    batch are one int, graph i's in bytes i*P .. (i+1)*P - 1 (P the payload
    size): each row v is laid into every graph's slot by strided
    assignment, masked to its bits below v, shifted into place and ORed in.
    """
    width, slot = _row_bytes(n), _payload_bytes(n)
    stride = width * n
    slots = bytearray(slot * count)
    acc = 0
    for v in range(1, n):
        # bytes 0..top hold the bits below v; rows only grow, so every slot
        # byte the last row wrote is written again
        top = (v - 1) >> 3
        for j in range(top):
            slots[j::slot] = packed[width * v + j::stride]
        slots[top::slot] = packed[width * v + top::stride].translate(_LOW_BITS[v - 8 * top])
        acc |= int.from_bytes(slots, "little") << (v * (v - 1) >> 1)
    return _graph6_text(n, acc.to_bytes(slot * count, "little").translate(_REV8), count)


def _rows_min_degrees(packed: bytes, n: int, count: int) -> bytes:
    """The minimum degree of each of the ``count`` graphs whose rows are
    ``packed``, one byte each; n >= 1.

    A vertex's degrees over the batch are one int with a byte per graph
    (the popcounts of its row bytes, summed). Degrees are below 128, so
    ``(a | high) - b`` has the high bit of a byte set exactly where a >= b,
    and that bit selects b there: a bytewise minimum with no carry between
    bytes.
    """
    width = _row_bytes(n)
    stride = width * n
    counts = packed.translate(_POPCOUNT)
    high = int.from_bytes(b"\x80" * count, "little")
    low = high - (high >> 7)  # 127 in every byte, above any degree
    for v in range(n):
        deg = int.from_bytes(counts[width * v::stride], "little")
        for j in range(1, width):
            deg += int.from_bytes(counts[width * v + j::stride], "little")
        ge = ((low | high) - deg) & high
        low ^= (low ^ deg) & ((ge << 1) - (ge >> 7))
    return low.to_bytes(count, "little")


def graph6_lines(graphs: Sequence[Graph]) -> bytes:
    """The graph6 lines of ``graphs``, all of one order, each ending in ``\\n``."""
    n = _one_order(graphs) if graphs else 0  # no graph, no line
    return _rows_graph6(_pack_rows(graphs, n), n, len(graphs))


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 line (no trailing newline)."""
    return graph6_lines((g,))[:-1].decode("ascii")


# ---------------------------------------------------------------------------
# neighborhood queries
# ---------------------------------------------------------------------------


def common_nonneighborhood(g: Graph, u: int, v: int) -> VertexSet:
    """Vertices that are neither ``u`` nor ``v`` nor adjacent to either: the
    intersection of their closed non-neighborhoods."""
    u, v = normalize_edge(_order_of(g), (u, v))
    return g.vertex_mask & ~(g.adj[u] | g.adj[v] | 1 << u | 1 << v)


def min_degree(g: Graph) -> int:
    if _order_of(g) == 0:
        raise GraphError("minimum degree of the empty graph is undefined")
    return min(map(int.bit_count, g.adj))


# ---------------------------------------------------------------------------
# mutation by copy
# ---------------------------------------------------------------------------


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


def delete_vertices(g: Graph, s: VertexSet) -> Graph:
    """Induced subgraph on V minus ``s``; survivors relabeled densely, in
    ascending order."""
    n, rows = _order_of(g), g.adj
    _check_int("deletion set", s, 0, g.vertex_mask)
    # highest label first, so the labels still to delete stay put
    for v in reversed(list(bits(s))):
        rows = _delete_vertex_rows(n, rows, v)
        n -= 1
    return _trusted(n, rows)


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    u, v = normalize_edge(_order_of(g), e)
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not present")
    rows = list(g.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return _trusted(g.n, tuple(rows))


def add_edge(g: Graph, e: tuple[int, int]) -> Graph:
    u, v = normalize_edge(_order_of(g), e)
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


def is_k_connected(g: Graph, k: int) -> bool:
    """No vertex cut of size < k disconnects the graph, and n > k.

    Follows the usual convention that the complete graph K_n is
    (n-1)-connected.
    """
    n = _order_of(g)
    _check_int("connectivity order", k, 0)
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
    n = _order_of(g)
    _check_int("connectivity order", k, 0)
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
