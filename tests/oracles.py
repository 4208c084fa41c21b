"""Independent oracles and test-only constructors.

Each oracle answers its question by exhaustive search over the adjacency
rows, so it shares no code with the decider it checks. This module imports
only from ``factorcrit.graphs``, plus the ``Matching`` record type that
:func:`all_perfect_matchings` returns; ``tests/test_oracles.py`` holds it to
that rule.
"""

from __future__ import annotations

from factorcrit.graphs import (
    MAX_VERTICES, Edge, Graph, GraphError, VertexSet, _components_masked, _trusted, graph_from_edges,
)
from factorcrit.matching import Matching


def complete_graph(n: int) -> Graph:
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    full = (1 << n) - 1
    return _trusted(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def is_connected(g: Graph) -> bool:
    return len(_components_masked(g.adj, g.vertex_mask)) <= 1


def brute_force_max_matching(g: Graph) -> int:
    """Maximum matching size by pruned exhaustive recursion (n <= 16)."""
    if g.n > 16:
        raise GraphError("brute-force matching limited to n <= 16")
    adj = g.adj
    best = 0

    def rec(mask: int, acc: int) -> None:
        nonlocal best
        if acc > best:
            best = acc
        if acc + mask.bit_count() // 2 <= best:
            return
        # drop vertices with no available partner
        while mask:
            bit = mask & -mask
            if adj[bit.bit_length() - 1] & mask & ~bit:
                break
            mask ^= bit
        if not mask:
            return
        if acc + mask.bit_count() // 2 <= best:
            return
        vbit = mask & -mask
        rest = mask ^ vbit
        row = adj[vbit.bit_length() - 1] & rest
        while row:
            ubit = row & -row
            row ^= ubit
            rec(rest ^ ubit, acc + 1)
        rec(rest, acc)  # leave the lowest vertex unmatched

    rec(g.vertex_mask, 0)
    return best


def all_perfect_matchings(g: Graph) -> list[Matching]:
    """Every perfect matching, enumerated deterministically (n <= 14, even)."""
    if g.n > 14:
        raise GraphError("perfect-matching enumeration limited to n <= 14")
    if g.n % 2:
        raise GraphError("odd-order graph has no perfect matching")
    adj = g.adj
    out: list[Matching] = []
    acc: list[Edge] = []
    full = g.vertex_mask

    def rec(mask: int) -> None:
        if not mask:
            out.append(Matching(tuple(acc), full))
            return
        vbit = mask & -mask
        v = vbit.bit_length() - 1
        row = adj[v] & mask & ~vbit
        while row:
            ubit = row & -row
            row ^= ubit
            acc.append((v, ubit.bit_length() - 1))
            rec(mask ^ vbit ^ ubit)
            acc.pop()

    rec(full)
    return out


def odd_components(g: Graph, x: VertexSet) -> tuple[int, list[VertexSet]]:
    """Odd-order components of g - x, ordered by smallest original label."""
    if x & ~g.vertex_mask:
        raise GraphError("removal set contains vertices outside the graph")
    comps = [c for c in _components_masked(g.adj, g.vertex_mask & ~x) if c.bit_count() % 2]
    return len(comps), comps


def is_k_factor_critical_via_odd_components(g: Graph, k: int) -> bool:
    """C_o(G-B) <= |B| - k for every B with |B| >= k (n <= 10)."""
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


def _odd_partitions(total: int, parts: int, least: int = 1) -> list[tuple[int, ...]]:
    """Ascending tuples of ``parts`` odd sizes, each at least ``least``,
    that sum to ``total``."""
    if parts == 0:
        return [()] if total == 0 else []
    return [
        (size,) + rest
        for size in range(least, total + 1, 2)
        for rest in _odd_partitions(total - size, parts - 1, size)
    ]


def configuration_rows(m: int) -> dict[tuple[int, tuple[int, ...], tuple[int, int]], tuple[int, int]]:
    """Every configuration of a deficient core of order m, derived from the
    rule alone: signature (|X|, component sizes, ends) -> bounds (lo, hi)
    on |N̄[u] ∩ N̄[v]| when every host degree is at least n - m + 2.

    A witness X leaves |X| + 2 factor-critical, hence odd, components of
    m - |X| vertices in all, so |X| <= (m - 2) / 2. u and v lie in two of
    them, the ends, of sizes a <= b. A singleton end needs |X| >= 1; a
    singleton non-end has all its neighbours in X, so it needs |X| >= 2.
    u and v miss every vertex of the other components: lo = m - |X| - a - b.
    u has at most m - 3 non-neighbours besides itself, and when b >= 3 the
    larger end gives v two neighbours that u misses: hi = m - 3 when
    a = b = 1, else m - 5.
    """
    rows = {}
    for x in range((m - 2) // 2 + 1):
        for sizes in _odd_partitions(m - x, x + 2):
            for i in range(len(sizes)):
                for j in range(i + 1, len(sizes)):
                    a, b = sizes[i], sizes[j]
                    others = sizes[:i] + sizes[i + 1:j] + sizes[j + 1:]
                    if (a == 1 and x < 1) or (1 in others and x < 2):
                        continue
                    rows[x, sizes, (a, b)] = (m - x - a - b, m - 3 if a == b == 1 else m - 5)
    return rows
