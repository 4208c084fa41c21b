"""Isomorph-free generation, canonical forms, and graph sources.

Canonical forms come from a pruned search for the lexicographically minimal
graph6 encoding over all relabelings. Exhaustive generation extends each
representative of order n-1, in order, by a new vertex n-1 attached to each
subset of its vertices, and keeps a child exactly when the parent it was
built from is its canonical parent: no one-vertex deletion of the child has
a smaller (degree sequence, canonical form) key than that parent.

Children are bucketed by one round of colour refinement, their sorted
vertex codes. Inside a bucket, isomorphic children are told apart by a
class key that is complete but only tested for equality: the minimal
columns over the orderings that place the cells of equal code in ascending
code order. ``all_graphs`` states the resulting order, which neither the
filters applied before dedupe nor the choice of dedupe key change."""

from __future__ import annotations

from functools import cache, lru_cache, partial
from typing import Callable, Iterable, Iterator

from .graphs import (
    MAX_VERTICES,
    Graph,
    Graph6Error,
    GraphError,
    _check_int,
    _delete_vertex_rows,
    _order_of,
    _trusted,
    graph6_lines,
    parse_graph6,
)


# _SPREAD[byte] moves bit w of a byte to vertex w's 16-bit column field
_SPREAD = [0]
for _w in range(8):
    _SPREAD += [s | 1 << 16 * _w for s in _SPREAD]


def _minimal_columns(
    n: int, adj: tuple[int, ...], bound: list[int] | None = None, cells: list[int] | None = None
) -> list[int] | None:
    """Minimal upper-triangle column values over all vertex orderings.

    Column j packs adjacency to the already-placed vertices, earliest
    placement in the highest bit, matching graph6 bit order. Branches are
    pruned against the best ordering found so far; candidates that are twins
    of an explored sibling are skipped (swapping twins is an automorphism).

    With ``bound`` (the minimal columns of some graph H of order n), return
    the columns of the first ordering found below it, or None if there is
    none; an ordering equal to ``bound`` ends the search, since it shows
    that the graph is isomorphic to H.

    With ``cells`` (vertex masks that partition the vertices), only the
    orderings that place the cells one after another, in the given order,
    are searched. The twin skip stays valid when twins share a cell.
    """
    best = bound
    degs = [row.bit_count() for row in adj]
    spread = [_SPREAD[row & 255] | _SPREAD[row >> 8] << 128 for row in adj]
    # the vertices that may be placed at each depth
    cell_at = [c for c in cells for _ in range(c.bit_count())] if cells else [(1 << n) - 1] * n

    # tight: the column prefix equals best's prefix (pruning applies);
    # otherwise it is strictly smaller, or best does not exist yet, and the
    # leftmost completion below will replace best. Returns True to stop.
    def dfs(depth: int, tight: bool, cols: list[int], colv: int, unplaced: int) -> bool:
        nonlocal best
        if not unplaced:
            if not tight:
                best = cols.copy()
            return bound is not None
        # candidates above best's column are pruned; a non-tight child lowers it, so it is re-read
        ref = best[depth - 1] if tight and depth else 0xFFFF
        avail = unplaced & cell_at[depth]
        cands = []
        while avail:
            b = avail & -avail
            avail ^= b
            u = b.bit_length() - 1
            col = colv >> 16 * u & 0xFFFF
            if col <= ref:
                cands.append((col, degs[u], u))
        cands.sort()
        explored = 0
        for col, _, u in cands:
            if tight and depth:
                if col > ref:
                    break
                child_tight = col == ref
            else:
                child_tight = tight
            ub = 1 << u
            rest = explored
            while rest:
                wb = rest & -rest
                rest ^= wb
                if (adj[u] ^ adj[wb.bit_length() - 1]) & ~(ub | wb) == 0:
                    break
            else:
                explored |= ub
                if depth:
                    cols.append(col)
                nxt = (colv & ~(0xFFFF << 16 * u)) << 1 | spread[u]
                if dfs(depth + 1, child_tight, cols, nxt, unplaced ^ ub):
                    return True
                if depth:
                    cols.pop()
                    ref = best[depth - 1]
                tight = True  # best now extends this node's prefix
        return False

    dfs(0, bound is not None, [], 0, (1 << n) - 1)
    return None if best is bound else best


def _canonical_bytes(n: int, adj: tuple[int, ...]) -> bytes:
    """graph6 line of the relabelling whose columns are minimal. Column j
    holds x(0, j) ... x(j - 1, j), x(0, j) in its highest bit."""
    rows = [0] * n
    for j, col in enumerate(_minimal_columns(n, adj), start=1):
        for i in range(j):
            if col >> (j - 1 - i) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return graph6_lines((_trusted(n, tuple(rows)),))[:-1]


def canonical_form(g: Graph) -> bytes:
    """Lexicographically minimal graph6 encoding over all relabelings
    (n <= 16), as bytes: two graphs share it iff they are isomorphic. The
    search is exponential, worst on sparse graphs: every order of an independent
    set gives the same zero columns, so none is pruned. At n = 16 (one core,
    Python 3.11), G(16, 0.5) and minimal 2-factor-critical graphs take ms to
    0.5 s, the vertex-transitive C16(1, 3) 1 s, C16 3 s, G(16, 0.1) 8 to 30+ s."""
    _check_int("canonical form order", _order_of(g), 0, 16)
    return _canonical_bytes(g.n, g.adj)


# ---------------------------------------------------------------------------
# exhaustive generation
# ---------------------------------------------------------------------------


# Vertex codes. A degree sequence is packed as a count of vertices per
# degree, 4 bits a count, degree d at digit(d) = 16 ** (n - 1 - d); for
# sequences of equal length, sorted A < sorted B exactly when packed(A) >
# packed(B). Deleting v changes the packed sequence of G by
#     change(v) = 15 * nsum(v) - digit(deg v),  nsum(v) = sum of digit(deg w) over w ~ v,
# since v's count goes and each neighbour w moves from digit(deg w) to
# digit(deg w - 1) = 16 * digit(deg w). The code of v is 16 * change(v) + deg v.
# It gives deg v and then nsum(v), which counts v's neighbours by degree; a
# count is at most n - 1, so no digit carries while n <= 16. Two vertices
# share a code exactly when they share (degree, multiset of neighbour
# degrees), so the sorted codes of a graph are one round of colour
# refinement: the bucket key.


def _digit(n: int, d: int) -> int:
    return 1 << 4 * (n - 1 - d)


def _attachment_codes(n: int, padj: tuple[int, ...]) -> Callable[[int], list[int] | None]:
    """Vertex codes of the child that joins vertex n - 1 to the vertex set
    ``attach`` of the parent ``padj``, from per-parent tables; None when
    deleting some vertex gives a smaller degree sequence than the parent.

    Joining raises the degree of each w in ``attach`` by one, from the digit
    16 * up(w) to up(w), where up(w) = digit(deg w + 1). Each vertex's nsum
    thus loses 15 * up(w) per joined neighbour w, a joined vertex gains the
    new neighbour's digit and its own digit drops by 15 * up(v), and the new
    vertex has nsum = sum of up(w) over w in ``attach``.
    """
    degs = [row.bit_count() for row in padj]
    # raised[mask]: the sum of up(w) over w in mask
    raised = [0]
    for d in degs:
        up = _digit(n, d + 1)
        raised += [t + up for t in raised]
    # a unit of nsum weighs 16 * 15 in a code, a unit of change 16
    base = [16 * (15 * 16 * raised[row] - _digit(n, d)) + d for d, row in zip(degs, padj)]
    drop = [16 * 15 * 15 * t for t in raised]
    table = [(v, b, row, 16 * 15 * raised[1 << v] + 1) for v, (b, row) in enumerate(zip(base, padj))]

    def codes(attach: int) -> list[int] | None:
        size = attach.bit_count()
        own = 16 * (15 * raised[attach] - _digit(n, size)) + size
        # the least code whose change exceeds the new vertex's
        limit = ((own >> 4) + 1) << 4
        gained = 16 * 15 * _digit(n, size)
        out = []
        for v, b, row, joined in table:
            code = b - drop[row & attach]
            if attach >> v & 1:
                code += gained + joined
            if code >= limit:
                return None
            out.append(code)
        return out + [own]

    return codes


def _class_key(adj: tuple[int, ...], codes: list[int]) -> tuple[int, ...]:
    """A complete isomorphism invariant of graphs of one order: the minimal
    columns over the orderings that place the cells of equal vertex code in
    ascending code order.

    Equal columns make the two orderings an isomorphism. A code depends only
    on a vertex's degree and its neighbours' degrees, so isomorphic graphs
    have the same cells in the same order, hence the same orderings up to
    relabeling and the same minimum. Twins share a code, so the twin skip
    holds. Only equality is meaningful; ``_canonical_bytes`` gives the order.
    """
    cells: dict[int, int] = {}
    for v, code in enumerate(codes):
        cells[code] = cells.get(code, 0) | 1 << v
    return tuple(_minimal_columns(len(adj), adj, cells=[cells[c] for c in sorted(cells)]))


def _parent_is_canonical(
    n: int, child: tuple[int, ...], codes: list[int], below: Callable[[tuple[int, ...]], bool]
) -> bool:
    """Whether the parent that ``child`` (with vertex codes ``codes``) was
    built from by adding vertex n - 1 is the child's canonical parent: no
    single-vertex deletion reaches a class with a smaller (degree sequence,
    canonical form) key; ``below(rows)`` tells whether a deletion with the
    parent's degree sequence has a smaller canonical form. Deleting n - 1,
    or a twin of it, gives the parent back, so it is not tried; a deletion
    with a larger change than that one has a smaller degree sequence, and
    ``_attachment_codes`` has already refused every child with such a
    deletion, so only the deletions with the same change are tried."""
    last = n - 1
    own = codes[last] >> 4
    for v in range(last):
        if codes[v] >> 4 == own:
            pair = 1 << v | 1 << last
            if child[v] & ~pair == child[last] & ~pair:
                continue
            if below(_delete_vertex_rows(n, child, v)):
                return False
    return True


@lru_cache(maxsize=None, typed=True)  # typed: 5.0 and True are checked, not served 5's and 1's classes
def _representatives(n: int) -> tuple[Graph, ...]:
    _check_int("exhaustive generation order", n, 1, 9)
    if n == 1:
        return (_trusted(1, (0,)),)

    out: list[Graph] = []
    new = n - 1
    for parent in _representatives(n - 1):
        padj = parent.adj
        pcols = cache(partial(_minimal_columns, new, padj))
        # attachments a and a ^ (1 << v) leave the same rows when v is deleted
        below = cache(lambda rows: _minimal_columns(new, rows, pcols()) is not None)
        codes_of = _attachment_codes(n, padj)
        # swapping twins u < w of the parent is an automorphism, so a child
        # attached to w and not u is isomorphic to a smaller attachment in the
        # same bucket; skipping it keeps the first-seen member of every class
        attaches: Iterable[int] = range(1 << new)
        for u in range(new):
            for w in range(u + 1, new):
                if padj[u] & ~(1 << u | 1 << w) == padj[w] & ~(1 << u | 1 << w):
                    attaches = [a for a in attaches if not a >> w & 1 or a >> u & 1]
        # bucket the children of this parent by their sorted vertex codes; the
        # buckets' first-seen order is the output order. The degree test is
        # an isomorphism invariant and the same on a whole bucket, so testing
        # each child before bucketing drops whole buckets and keeps the
        # first-seen order of the others
        buckets: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {}
        for attach in attaches:
            codes = codes_of(attach)
            if codes is not None:
                buckets.setdefault(tuple(sorted(codes)), []).append((attach, codes))
        for members in buckets.values():
            children = [
                (tuple(row | (attach >> v & 1) << new for v, row in enumerate(padj)) + (attach,), codes)
                for attach, codes in members
            ]
            if len(children) > 1:
                seen: dict[tuple[int, ...], tuple[tuple[int, ...], list[int]]] = {}
                for rows, codes in children:
                    seen.setdefault(_class_key(rows, codes), (rows, codes))
                children = list(seen.values())
            out.extend(
                _trusted(n, rows) for rows, codes in children if _parent_is_canonical(n, rows, codes, below)
            )
    return tuple(out)


def all_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of order n (n <= 9).

    Deterministic stream order: parents in generation order; each parent's
    children in the first-seen order of their refinement-key buckets over
    attachments 0 .. 2^(n-1) - 1; within a bucket, classes in the order of
    their first-seen member, which is the representative. Members of a
    bucket are compared by ``_class_key``, which is equal exactly for
    isomorphic graphs. A class is kept under the parent whose (degree
    sequence, canonical form) key is the smallest over the child's
    one-vertex deletions. An order outside 1..9 raises :class:`GraphError`
    on the call itself, before the first ``next``.
    """
    return iter(_representatives(n))


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


class SplitMix64:
    """Tiny named PRNG; bit-reproducible from its 64-bit seed."""

    def __init__(self, seed: int) -> None:
        _check_int("seed", seed)
        self._state = seed & _M64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # rejection sampling keeps the draw unbiased
        limit = _M64 - (_M64 + 1) % bound
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _check_probability(p: float) -> None:
    """Refuse an edge probability that is not an int or a float (a bool is neither) or lies outside [0, 1]."""
    if type(p) not in (float, int):
        raise GraphError(f"edge probability {p!r} is a {type(p).__name__}, not an int or a float")
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability {p} outside [0, 1]")


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) from a SplitMix64 stream.

    Pairs (i, j), i < j, are visited in lexicographic order; each consumes
    one 64-bit draw and the edge is present iff draw < floor(p * 2**64).
    Bit-reproducible from (n, p, seed).
    """
    _check_probability(p)
    _check_int("vertex count", n, 1, MAX_VERTICES)
    threshold = int(p * (1 << 64))
    rng = SplitMix64(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_u64() < threshold:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return _trusted(n, tuple(rows))


# ---------------------------------------------------------------------------
# graph6 streams
# ---------------------------------------------------------------------------


def read_graph6_stream(lines: Iterable[str | bytes]) -> Iterator[Graph]:
    """Parse newline-delimited graph6 lines, str or bytes, in input order.

    Blank lines are skipped; as for ``str.strip``, the ASCII separators
    ``\\x1c``..``\\x1f`` count as blank. A malformed or non-ASCII line, or
    one that is neither str nor bytes, raises :class:`Graph6Error` naming its
    1-based line number. One str or bytes in place of the lines is refused.
    """
    if isinstance(lines, (str, bytes)):
        raise Graph6Error(f"graph6 stream is one {type(lines).__name__}, not an iterable of lines")
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes) and line.isascii():
            line = line.decode("ascii")  # bytes.strip would keep \x1c..\x1f
        if isinstance(line, (str, bytes)) and not (line := line.strip()):
            continue  # blank; parse_graph6 refuses a line that is neither str nor bytes
        try:
            yield parse_graph6(line)
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from None
