"""Maximum matching, perfect-matching predicates, and deficiency.

The engine is an array-based blossom algorithm working directly on vertex
bitmasks, so induced subgraphs never need relabeling; each search keeps its
alternating tree in a vertex mask and contracts blossoms in it alone. Every
augmenting step (:func:`_augment`), in a maximum matching and in the
witness repairs of ``criticality``, first tries a three-edge path, then a
five-edge path, each found with a few bit operations, and runs the blossom
search only when neither exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph, VertexSet, _order_of


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges plus the covered vertex set."""

    edges: tuple[Edge, ...]
    covered: VertexSet

    def size(self) -> int:
        return len(self.edges)


# ---------------------------------------------------------------------------
# blossom algorithm (deterministic: vertices and neighbors scanned ascending)
# ---------------------------------------------------------------------------


def _find_augmenting(n: int, adj: tuple[int, ...], sub: int, match: list[int], root: int) -> int:
    """Grow an alternating tree from ``root``; augment on success.

    Returns 0 after augmenting; a stuck search leaves ``match`` unchanged and
    returns the mask of its outer vertices, the ends of the even alternating
    paths from ``root`` (``root`` among them, so never 0).

    Classic array-based search with blossom contraction tracked through a
    ``base`` array. Only vertices inside ``sub`` participate. A vertex
    outside the ``tree`` mask keeps ``base[i] == i`` and is never in a
    blossom, so a contraction walks only ``tree``, in ascending order.
    """
    parent = [-1] * n
    base = list(range(n))
    outer = tree = 1 << root
    queue = [root]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        row = adj[v] & sub
        while row:
            bit = row & -row
            row ^= bit
            to = bit.bit_length() - 1
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # odd cycle: contract the blossom at the lowest common ancestor
                a = base[v]
                seen = 1 << a
                while match[a] != -1:
                    a = base[parent[match[a]]]
                    seen |= 1 << a
                cur = base[to]
                while not seen >> cur & 1:
                    cur = base[parent[match[cur]]]
                blossom = 0
                for x, child in ((v, to), (to, v)):
                    while base[x] != cur:
                        mx = match[x]
                        blossom |= (1 << base[x]) | (1 << base[mx])
                        parent[x] = child
                        child = mx
                        x = parent[mx]
                rest = tree
                while rest:
                    ibit = rest & -rest
                    rest ^= ibit
                    i = ibit.bit_length() - 1
                    if blossom >> base[i] & 1:
                        base[i] = cur
                        if not outer & ibit:
                            outer |= ibit
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    while to != -1:
                        prev = parent[to]
                        nxt = match[prev]
                        match[prev] = to
                        match[to] = prev
                        to = nxt
                    return 0
                mate = match[to]
                tree |= bit | (1 << mate)
                outer |= 1 << mate
                queue.append(mate)
    return outer


def _augment(n: int, adj: tuple[int, ...], sub: int, match: list[int], v: int, targets: int) -> bool:
    """Augment from the exposed vertex v to a vertex of ``targets``: along
    the first three-edge path, else the first five-edge path, else by one
    :func:`_find_augmenting` search. Returns False, with ``match``
    unchanged, when no augmenting path from v exists.

    The three-edge path is v - a = b - w: a ascending in the neighbours of v
    in ``sub``, b = match[a], w the lowest target adjacent to b. The
    five-edge path is v - a = b - c = d - w: c the lowest neighbour of b but
    a whose mate d is adjacent to a target, and w the lowest target adjacent
    to d. Requires ``targets`` to be exposed vertices of ``sub`` other than
    v, and every neighbour in ``sub`` of v and of each target to be matched.
    The search may end at any exposed vertex of ``sub``.
    """
    near = row = adj[v] & sub
    while row:
        bit = row & -row
        row ^= bit
        a = bit.bit_length() - 1
        b = match[a]
        ends = adj[b] & targets
        if ends:
            w = (ends & -ends).bit_length() - 1
            match[v], match[a], match[b], match[w] = a, v, w, b
            return True
    nbrs = 0
    row = targets
    while row:
        bit = row & -row
        row ^= bit
        nbrs |= adj[bit.bit_length() - 1]
    row, mates = nbrs & sub, 0  # the mates of the targets' neighbours
    while row:
        bit = row & -row
        row ^= bit
        mates |= 1 << match[bit.bit_length() - 1]
    row = near
    while row:
        bit = row & -row
        row ^= bit
        a = bit.bit_length() - 1
        b = match[a]
        ends = adj[b] & mates & ~bit
        if ends:
            c = (ends & -ends).bit_length() - 1
            d = match[c]
            ends = adj[d] & targets
            w = (ends & -ends).bit_length() - 1
            match[v], match[a], match[b], match[c], match[d], match[w] = a, v, c, b, w, d
            return True
    return not _find_augmenting(n, adj, sub, match, v)


def _match_array(n: int, adj: tuple[int, ...], sub: int, stop_on_exposed: bool = False) -> list[int] | None:
    """Maximum matching on the vertices of ``sub`` as a match array.

    With ``stop_on_exposed`` the search aborts (returning ``None``) as soon
    as one vertex is certain to stay exposed, which makes perfect-matching
    tests fail fast.
    """
    match = [-1] * n
    free = sub
    exposed = 0
    while free:  # greedy: each vertex takes its lowest unmatched neighbour
        bit = free & -free
        free ^= bit
        v = bit.bit_length() - 1
        row = adj[v] & free
        if row:
            u = (row & -row).bit_length() - 1
            free ^= 1 << u
            match[v] = u
            match[u] = v
        else:
            exposed |= bit
    # exposed vertices are independent after the greedy pass and stay so, and
    # a vertex left exposed by a stuck search is never the end of an
    # augmenting path later, so the targets are the exposed vertices above v;
    # the last exposed vertex has none and stays exposed without a search
    while exposed:
        bit = exposed & -exposed
        exposed ^= bit
        if exposed and _augment(n, adj, sub, match, bit.bit_length() - 1, exposed):
            rest = exposed  # one exposed w above v is matched now: drop it
            while match[(rest & -rest).bit_length() - 1] == -1:
                rest &= rest - 1
            exposed ^= rest & -rest
        elif stop_on_exposed:
            return None
    return match


def _matching_size(n: int, adj: tuple[int, ...], sub: int) -> int:
    match = _match_array(n, adj, sub)
    assert match is not None
    return (n - match.count(-1)) // 2


def _has_pm(n: int, adj: tuple[int, ...], sub: int) -> bool:
    if sub.bit_count() % 2:
        return False
    return _match_array(n, adj, sub, stop_on_exposed=True) is not None


def max_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching; deterministic for a fixed labeling."""
    match = _match_array(_order_of(g), g.adj, g.vertex_mask)
    assert match is not None
    edges = []
    covered = 0
    for v in range(g.n):
        u = match[v]
        if u > v:
            edges.append((v, u))
            covered |= (1 << v) | (1 << u)
    return Matching(tuple(edges), covered)


def has_perfect_matching(g: Graph) -> bool:
    return _has_pm(_order_of(g), g.adj, g.vertex_mask)


def deficiency(g: Graph) -> int:
    """Number of vertices missed by a maximum matching."""
    return (n := _order_of(g)) - 2 * _matching_size(n, g.adj, g.vertex_mask)

