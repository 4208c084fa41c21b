"""Isomorph-free generation, canonical forms, and graph sources.

Canonical forms come from a pruned search for the lexicographically minimal
graph6 encoding over all relabelings; exhaustive generation extends the
representatives of order n-1 by one vertex and keeps a child exactly when
the parent it was built from is the child's canonical parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .graphs import Graph, Graph6Error, GraphError, _encode_columns, _trusted, parse_graph6


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant encoding: two graphs share it iff isomorphic."""

    encoding: bytes


def _minimal_columns(n: int, adj: tuple[int, ...]) -> list[int]:
    """Minimal upper-triangle column values over all vertex orderings.

    Column j packs adjacency to the already-placed vertices, earliest
    placement in the highest bit, matching graph6 bit order. Branches are
    pruned against the best ordering found so far; candidates that are twins
    of an explored sibling are skipped (swapping twins is an automorphism).
    """
    best: list[int] | None = None
    degs = [row.bit_count() for row in adj]

    # tight: the column prefix equals best's prefix (pruning applies);
    # otherwise it is strictly smaller, or best does not exist yet, and the
    # leftmost completion below will replace best.
    def dfs(depth: int, tight: bool, cols: list[int], colv: list[int], unplaced: list[int]) -> None:
        nonlocal best
        if not unplaced:
            if not tight:
                best = cols.copy()
            return
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
            dfs(depth + 1, child_tight, cols, nxt, rest)
            if depth:
                cols.pop()
            if not tight:
                tight = True  # best now extends this node's prefix

    dfs(0, False, [], [0] * n, list(range(n)))
    assert best is not None
    return best


def _canonical_bytes(n: int, adj: tuple[int, ...]) -> bytes:
    if n <= 1:
        return _encode_columns(n, [])
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


def _delete_vertex_rows(n: int, adj: tuple[int, ...], v: int) -> tuple[int, ...]:
    low = (1 << v) - 1
    rows = []
    for w in range(n):
        if w == v:
            continue
        row = adj[w]
        rows.append((row & low) | (row >> (v + 1) << v))
    return tuple(rows)


def _parent_is_canonical(n: int, child: tuple[int, ...], pdeg: tuple[int, ...], pform: bytes) -> bool:
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
            if _parent_is_canonical(n, rows, pdeg, pform):
                out.append(_trusted(n, rows))
    return tuple(out)


def all_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of order n (n <= 8).

    Deterministic stream order: parents in generation order, then children
    grouped by invariant bucket in first-seen order.
    """
    for g in _representatives(n):
        yield g


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


def read_graph6_stream(
    lines: Iterable[str],
    strict: bool = True,
    on_error: Callable[[int, Graph6Error], None] | None = None,
) -> Iterator[Graph]:
    """Parse newline-delimited graph6 lines, in input order.

    Blank lines are skipped. A malformed line raises (``strict=True``) or is
    reported to ``on_error`` with its 1-based line number and skipped.
    """
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield parse_graph6(stripped)
        except Graph6Error as exc:
            err = Graph6Error(f"line {lineno}: {exc}")
            if strict:
                raise err from None
            if on_error is not None:
                on_error(lineno, err)
