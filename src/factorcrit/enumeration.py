"""Isomorph-free generation, canonical forms, and graph sources.

Canonical forms come from a pruned search for the lexicographically minimal
graph6 encoding over all relabelings. Exhaustive generation extends each
representative of order n-1, in order, by a new vertex n-1 attached to each
subset of its vertices, and keeps a child exactly when the parent it was
built from is its canonical parent: no one-vertex deletion of the child has
a smaller (degree sequence, canonical form) key than that parent.
``all_graphs`` states the resulting order, which the filters applied before
dedupe do not change."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    _delete_vertex_rows,
    _encode_columns,
    _trusted,
    parse_graph6,
)


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant encoding: two graphs share it iff isomorphic."""

    encoding: bytes


def _minimal_columns(n: int, adj: tuple[int, ...], bound: list[int] | None = None) -> list[int] | None:
    """Minimal upper-triangle column values over all vertex orderings.

    Column j packs adjacency to the already-placed vertices, earliest
    placement in the highest bit, matching graph6 bit order. Branches are
    pruned against the best ordering found so far; candidates that are twins
    of an explored sibling are skipped (swapping twins is an automorphism).

    With ``bound`` (the minimal columns of some graph H of order n), return
    the columns of the first ordering found below it, or None if there is
    none; an ordering equal to ``bound`` ends the search, since it shows
    that the graph is isomorphic to H.
    """
    best = bound
    degs = [row.bit_count() for row in adj]

    # tight: the column prefix equals best's prefix (pruning applies);
    # otherwise it is strictly smaller, or best does not exist yet, and the
    # leftmost completion below will replace best. Returns True to stop.
    def dfs(depth: int, tight: bool, cols: list[int], colv: list[int], unplaced: list[int]) -> bool:
        nonlocal best
        if not unplaced:
            if not tight:
                best = cols.copy()
            return bound is not None
        cands = sorted(((colv[u], degs[u], u) for u in unplaced))
        explored: list[int] = []
        for col, _, u in cands:
            if tight and depth:
                ref = best[depth - 1]
                if col > ref:
                    break
                child_tight = col == ref
            else:
                child_tight = tight
            ub = 1 << u
            skip = False
            for w in explored:
                wb = 1 << w
                if adj[u] & ~ub & ~wb == adj[w] & ~ub & ~wb:
                    skip = True
                    break
            if skip:
                continue
            explored.append(u)
            rest = [w for w in unplaced if w != u]
            row = adj[u]
            nxt = colv.copy()
            for w in rest:
                nxt[w] = (nxt[w] << 1) | (row >> w & 1)
            if depth:
                cols.append(col)
            if dfs(depth + 1, child_tight, cols, nxt, rest):
                return True
            if depth:
                cols.pop()
            if not tight:
                tight = True  # best now extends this node's prefix
        return False

    dfs(0, bound is not None, [], [0] * n, list(range(n)))
    return None if best is bound else best


def _canonical_bytes(n: int, adj: tuple[int, ...]) -> bytes:
    return _encode_columns(n, _minimal_columns(n, adj))


def canonical_form(g: Graph) -> CanonicalForm:
    """Lexicographically minimal graph6 encoding over all relabelings (n <= 10)."""
    if g.n > 10:
        raise GraphError("canonical form search limited to n <= 10")
    return CanonicalForm(_canonical_bytes(g.n, g.adj))


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of ``g``."""
    return parse_graph6(canonical_form(g).encoding)


# ---------------------------------------------------------------------------
# exhaustive generation
# ---------------------------------------------------------------------------


def _degree_sequence(adj: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(row.bit_count() for row in adj))


def _refinement_key(adj: tuple[int, ...]) -> tuple:
    """One refinement round: sorted (degree, sorted neighbor degrees).

    Isomorphism-invariant; used to bucket candidates before exact forms.
    """
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


def _deletion_below(key: tuple, pdeg: tuple[int, ...]) -> bool:
    """Whether a one-vertex deletion of a graph with refinement key ``key``
    has a degree sequence below ``pdeg``: degseq(G - v) is the degree
    multiset less v's degree, with v's neighbours' degrees one lower."""
    degs = [d for d, _ in key]
    for d, nb in set(key):
        rest = degs.copy()
        for x in (d,) + nb:
            rest.remove(x)
        if tuple(sorted(rest + [x - 1 for x in nb])) < pdeg:
            return True
    return False


def _parent_is_canonical(n: int, child: tuple[int, ...], pdeg: tuple[int, ...], pcols: list[int]) -> bool:
    """Whether the parent (with degree sequence pdeg and minimal columns
    pcols) that ``child`` was built from by adding vertex n - 1 is the
    child's canonical parent: no single-vertex deletion reaches a class with
    a smaller (degree sequence, canonical form) key. Deleting n - 1 gives
    the parent back, so it is not tried."""
    degs = [row.bit_count() for row in child]
    for v in range(n - 1):
        row = child[v]
        ds = tuple(sorted(degs[w] - (row >> w & 1) for w in range(n) if w != v))
        smaller = ds == pdeg and _minimal_columns(n - 1, _delete_vertex_rows(n, child, v), pcols) is not None
        if ds < pdeg or smaller:
            return False
    return True


@lru_cache(maxsize=None)
def _representatives(n: int) -> tuple[Graph, ...]:
    if n > 8:
        raise GraphError("exhaustive generation limited to n <= 8")
    if n < 1:
        raise GraphError("generation starts at order 1")
    if n == 1:
        return (_trusted(1, (0,)),)

    out: list[Graph] = []
    for parent in _representatives(n - 1):
        pdeg = _degree_sequence(parent.adj)
        pcols = _minimal_columns(n - 1, parent.adj)
        # swapping twins u < w of the parent is an automorphism, so a child
        # attached to w and not u is isomorphic to a smaller attachment in the
        # same bucket; skipping it keeps the first-seen member of every class
        twins = [(1 << u, 1 << w) for u in range(n - 1) for w in range(u + 1, n - 1)
                 if parent.adj[u] & ~(1 << u | 1 << w) == parent.adj[w] & ~(1 << u | 1 << w)]
        # bucket the children of this parent by a cheap invariant; the
        # buckets' first-seen order is the output order
        buckets: dict[tuple, list[tuple[int, ...]]] = {}
        for attach in range(1 << (n - 1)):
            if any(attach & wb and not attach & ub for ub, wb in twins):
                continue
            rows = tuple(
                row | ((attach >> v & 1) << (n - 1)) for v, row in enumerate(parent.adj)
            ) + (attach,)
            buckets.setdefault(_refinement_key(rows), []).append(rows)
        for key, members in buckets.items():
            # the degree test and the key are isomorphism invariants, so
            # dropping a bucket keeps the first-seen member of every class
            if _deletion_below(key, pdeg):
                continue
            if len(members) > 1:
                seen: dict[bytes, tuple[int, ...]] = {}
                for rows in members:
                    seen.setdefault(_canonical_bytes(n, rows), rows)
                members = list(seen.values())
            out.extend(
                _trusted(n, rows) for rows in members if _parent_is_canonical(n, rows, pdeg, pcols)
            )
    return tuple(out)


def all_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of order n (n <= 8).

    Deterministic stream order: parents in generation order; each parent's
    children in the first-seen order of their refinement-key buckets over
    attachments 0 .. 2^(n-1) - 1; within a bucket, classes in the order of
    their first-seen member, which is the representative. A class is kept
    under the parent whose (degree sequence, canonical form) key is the
    smallest over the child's one-vertex deletions.
    """
    yield from _representatives(n)


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


class SplitMix64:
    """Tiny named PRNG; bit-reproducible from its 64-bit seed."""

    def __init__(self, seed: int) -> None:
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


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) from a SplitMix64 stream.

    Pairs (i, j), i < j, are visited in lexicographic order; each consumes
    one 64-bit draw and the edge is present iff draw < floor(p * 2**64).
    Bit-reproducible from (n, p, seed).
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability {p} outside [0, 1]")
    if not 1 <= n <= 64:
        raise GraphError(f"vertex count {n} outside 1..64")
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


def read_graph6_stream(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse newline-delimited graph6 lines, in input order.

    Blank lines are skipped. A malformed line raises :class:`Graph6Error`
    naming its 1-based line number.
    """
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield parse_graph6(stripped)
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from None
