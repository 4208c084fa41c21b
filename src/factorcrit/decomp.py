"""Factor-criticality, Gallai-Edmonds decomposition, and barrier witnesses.

A graph is factor-critical when it is 1-factor-critical: it has odd order
and deleting any one vertex leaves a perfect matching. That definition is
stated once, for a vertex set, so a component C of G - X is tested in place
with |C| perfect-matching tests. The Gallai-Edmonds decomposition comes from
one maximum matching and the stuck blossom searches from its exposed
vertices.

A barrier witness is a vertex set X whose removal leaves only factor-critical
components, at least |X| + 2 of them; one exists in every graph of deficiency
at least two (in particular in every even-order graph without a perfect
matching). At the orders this package targets (n <= 12) exhaustive subset
search finds all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, VertexSet, _check_int, _components_masked, _k_subsets_ascending, _order_of, bits
from .matching import _find_augmenting, _has_pm, _match_array


def _factor_critical(n: int, adj: tuple[int, ...], sub: int) -> bool:
    """The subgraph induced on ``sub`` has odd order, and deleting any one of
    its vertices leaves a perfect matching."""
    return sub.bit_count() % 2 == 1 and all(_has_pm(n, adj, sub ^ 1 << v) for v in bits(sub))


def is_factor_critical(g: Graph) -> bool:
    """Odd order, and deleting any single vertex leaves a perfect matching.

    The single-vertex graph qualifies: removing its vertex leaves the empty
    graph, whose perfect matching is vacuous. The empty graph has even order
    and does not.
    """
    return _factor_critical(_order_of(g), g.adj, g.vertex_mask)


@dataclass(frozen=True)
class GEDecomposition:
    """Partition of the vertices by maximum-matching structure.

    ``d``: vertices missed by some maximum matching; ``a``: their neighbors
    outside ``d``; ``c``: everything else.
    """

    d: VertexSet
    a: VertexSet
    c: VertexSet


def gallai_edmonds(g: Graph) -> GEDecomposition:
    """Read the decomposition off one maximum matching: the search from each
    exposed vertex gets stuck, and D is the union of the outer vertices of
    these trees, the ends of even alternating paths from exposed vertices
    (Lovasz & Plummer, Matching Theory, 3.2). A and C follow from D."""
    n, adj, full = _order_of(g), g.adj, g.vertex_mask
    match = _match_array(n, adj, full)
    d = 0
    for v in range(n):
        if match[v] == -1:
            d |= _find_augmenting(n, adj, full, match, v)
    a = 0
    for v in bits(d):
        a |= adj[v]
    a &= ~d
    return GEDecomposition(d=d, a=a, c=full & ~d & ~a)


@dataclass(frozen=True)
class ComponentInfo:
    """One component of G - X; in a witness it is odd and factor-critical."""

    vertices: VertexSet


@dataclass(frozen=True)
class BarrierWitness:
    """A set X with every component of G - X factor-critical."""

    x: VertexSet
    components: tuple[ComponentInfo, ...]


def _witness_for(
    n: int,
    adj: tuple[int, ...],
    full: int,
    x: int,
    fc_cache: dict[int, bool],
) -> BarrierWitness | None:
    """Build the witness for X if all components of G - X are factor-critical
    and there are at least |X| + 2 of them; otherwise None."""
    comps = _components_masked(adj, full & ~x)
    if len(comps) < x.bit_count() + 2:
        return None
    infos = []
    for comp in comps:
        if comp.bit_count() % 2 == 0:
            return None
        fc = fc_cache.get(comp)
        if fc is None:
            fc = fc_cache[comp] = _factor_critical(n, adj, comp)
        if not fc:
            return None
        infos.append(ComponentInfo(vertices=comp))
    return BarrierWitness(x=x, components=tuple(infos))


def find_barrier_witnesses(g: Graph, max_x: int) -> list[BarrierWitness]:
    """All X with |X| <= max_x leaving only factor-critical components and at
    least |X| + 2 of them, ordered by (|X|, bitmask value).

    Requires a graph without a perfect matching. Whenever the deficiency is
    at least 2 (always true for even order), some witness attains
    C_o(G-X) - |X| = deficiency; it satisfies |X| <= (n - 2) / 2, so any
    ``max_x`` of at least that bound guarantees a nonempty result. A graph
    of deficiency 1 has no set meeting the +2 margin and yields [].
    """
    n, adj, full = _order_of(g), g.adj, g.vertex_mask
    _check_int("barrier search order", n, 0, 12)
    _check_int("max_x", max_x, 0, n)
    if _has_pm(n, adj, full):
        raise GraphError("graph has a perfect matching; no barrier witness exists")
    fc_cache: dict[int, bool] = {}
    out = []
    for size in range(max_x + 1):
        for x in _k_subsets_ascending(n, size):
            w = _witness_for(n, adj, full, x, fc_cache)
            if w is not None:
                out.append(w)
    return out
