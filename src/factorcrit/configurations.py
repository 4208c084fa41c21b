"""The fourteen-configuration taxonomy of deficient 10-vertex graphs.

A 10-vertex graph h with no perfect matching, together with a designated
non-edge e = uv such that h + e has a perfect matching and no vertex of
degree <= 1, always admits a barrier witness X with |X| <= 4 whose removal
leaves exactly |X| + 2 factor-critical components with u and v in distinct
ones. The triple (|X|, component-size multiset, sizes of the components of
u and v, which say where e sits) then lands in a fixed fourteen-row table,
labeled C1..C14.

Each row holds a label's signature and its bounds on |N̄[u] ∩ N̄[v]|. The
one table is read by the classifier, by the builder of host graphs of order
n >= 12 realizing each label, and by the intersection-bounds check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .decomp import BarrierWitness, find_barrier_witnesses
from .graphs import (
    Edge,
    Graph,
    GraphError,
    VertexSet,
    add_edge,
    common_nonneighborhood,
    delete_edge,
    delete_vertices,
    graph_from_edges,
    mask_of,
    min_degree,
)
from .matching import has_perfect_matching


class ConfigLabel(Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    C6 = "C6"
    C7 = "C7"
    C8 = "C8"
    C9 = "C9"
    C10 = "C10"
    C11 = "C11"
    C12 = "C12"
    C13 = "C13"
    C14 = "C14"


@dataclass(frozen=True)
class ConfigSignature:
    x_size: int
    component_sizes: tuple[int, ...]  # ascending multiset, sums to 10 - x_size
    # sizes of the components of u and v, smaller first: where the edge sits
    ends: tuple[int, int]


# the paper's table, one row per label in label order: the signature, then
# the bounds (lo, hi) on |N̄[u] ∩ N̄[v]| when every degree is at least n - 8;
# with X empty the edge joins the only two components, so ends equals them
_TABLE: dict[ConfigLabel, tuple[ConfigSignature, tuple[int, int]]] = {
    ConfigLabel.C1: (ConfigSignature(0, (3, 7), (3, 7)), (0, 5)),
    ConfigLabel.C2: (ConfigSignature(0, (5, 5), (5, 5)), (0, 5)),
    ConfigLabel.C3: (ConfigSignature(1, (1, 1, 7), (1, 1)), (7, 7)),
    ConfigLabel.C4: (ConfigSignature(1, (1, 3, 5), (1, 5)), (3, 5)),
    ConfigLabel.C5: (ConfigSignature(1, (1, 3, 5), (1, 3)), (5, 5)),
    ConfigLabel.C6: (ConfigSignature(1, (3, 3, 3), (3, 3)), (3, 5)),
    ConfigLabel.C7: (ConfigSignature(2, (1, 1, 1, 5), (1, 5)), (2, 5)),
    ConfigLabel.C8: (ConfigSignature(2, (1, 1, 1, 5), (1, 1)), (6, 7)),
    ConfigLabel.C9: (ConfigSignature(2, (1, 1, 3, 3), (3, 3)), (2, 5)),
    ConfigLabel.C10: (ConfigSignature(2, (1, 1, 3, 3), (1, 3)), (4, 5)),
    ConfigLabel.C11: (ConfigSignature(2, (1, 1, 3, 3), (1, 1)), (6, 7)),
    ConfigLabel.C12: (ConfigSignature(3, (1, 1, 1, 1, 3), (1, 1)), (5, 7)),
    ConfigLabel.C13: (ConfigSignature(3, (1, 1, 1, 1, 3), (1, 3)), (3, 5)),
    ConfigLabel.C14: (ConfigSignature(4, (1, 1, 1, 1, 1, 1), (1, 1)), (4, 7)),
}
_BY_SIGNATURE = {
    (sig.x_size, sig.component_sizes, sig.ends): label for label, (sig, _) in _TABLE.items()
}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class ClassificationError(ValueError):
    """A classification precondition failed; ``reason`` states which one."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class ClassifiedWitness:
    label: ConfigLabel
    witness: BarrierWitness
    u_component: VertexSet
    v_component: VertexSet


@dataclass(frozen=True)
class ClassificationResult:
    entries: tuple[ClassifiedWitness, ...]

    @property
    def canonical(self) -> ClassifiedWitness:
        """The entry with smallest |X|, ties broken by bitmask value."""
        return self.entries[0]

    def labels(self) -> list[ConfigLabel]:
        """The distinct labels, in entry order."""
        return list(dict.fromkeys(entry.label for entry in self.entries))


def _check_preconditions(h: Graph, e: Edge) -> None:
    """Raise :class:`ClassificationError` naming the first precondition of
    :func:`classify` that ``h`` with the missing edge ``e`` fails."""
    if has_perfect_matching(h):
        raise ClassificationError("has_perfect_matching", "graph already has a perfect matching")
    plus = add_edge(h, e)
    if not has_perfect_matching(plus):
        raise ClassificationError(
            "edge_gives_no_perfect_matching",
            "adding the designated edge does not create a perfect matching",
        )
    if min_degree(plus) <= 1:
        raise ClassificationError(
            "pendant_vertex",
            "graph plus designated edge has a vertex of degree <= 1",
        )


def classify(h: Graph, e: tuple[int, int]) -> ClassificationResult:
    """Classify a deficient 10-vertex graph with designated missing edge.

    Every barrier witness X with |X| <= 4 is mapped to its table row: the
    preconditions force deficiency 2, so each one qualifies. Entries keep
    the (|X|, bitmask) search order, so the first one is canonical.
    """
    if h.n != 10:
        raise GraphError(f"classification needs order 10, got {h.n}")
    u, v = e if e[0] < e[1] else (e[1], e[0])
    if not (0 <= u < 10 and 0 <= v < 10) or u == v:
        raise GraphError(f"invalid designated edge ({u},{v})")
    if h.has_edge(u, v):
        raise GraphError(f"designated edge ({u},{v}) must be a non-edge")

    _check_preconditions(h, (u, v))

    # h + uv has a perfect matching, so h has deficiency 2: by Tutte-Berge each
    # witness leaves exactly |X| + 2 components, with u and v in two distinct
    # ones (otherwise they would still block every perfect matching of h + uv)
    entries = []
    for w in find_barrier_witnesses(h, 4):
        u_comp = next(c.vertices for c in w.components if c.vertices >> u & 1)
        v_comp = next(c.vertices for c in w.components if c.vertices >> v & 1)
        x_size = w.x.bit_count()
        sizes = tuple(sorted(c.vertices.bit_count() for c in w.components))
        ends = tuple(sorted((u_comp.bit_count(), v_comp.bit_count())))
        label = _BY_SIGNATURE.get((x_size, sizes, ends))
        if label is None:
            raise RuntimeError(
                f"witness ({x_size}, {sizes}, endpoint sizes {ends}) missing from the table"
            )
        entries.append(
            ClassifiedWitness(label=label, witness=w, u_component=u_comp, v_component=v_comp)
        )
    if not entries:
        raise RuntimeError("no qualifying barrier witness found despite preconditions")
    return ClassificationResult(entries=tuple(entries))


# ---------------------------------------------------------------------------
# host construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltInstance:
    graph: Graph
    edge: Edge
    s_e: VertexSet


def build_instance(label: ConfigLabel, n: int) -> BuiltInstance:
    """Embed a configuration into a host of order n >= 12.

    Vertex layout: u's component first (u = 0), then v's component, then the
    leftover components by descending size, then X, then the n - 10 padding
    vertices S_e. Components and X are cliques, X is joined to every core
    vertex and S_e is complete to everything, so every degree is at least
    n - 8.
    """
    if n < 12:
        raise GraphError(f"host order {n} below 12")
    sig = _TABLE[label][0]
    u_size, v_size = sig.ends
    leftover_sizes = list(sig.component_sizes)
    leftover_sizes.remove(u_size)
    leftover_sizes.remove(v_size)

    # consecutive vertex blocks in the documented layout order
    blocks, start = [], 0
    for size in (u_size, v_size, *sorted(leftover_sizes, reverse=True), sig.x_size, n - 10):
        blocks.append(range(start, start + size))
        start += size
    assert start == n
    u_block, v_block, *leftovers, x_block, s_block = blocks

    u, v = u_block[0], v_block[0]
    edges: list[Edge] = [(u, v)]
    for block in [u_block, v_block, *leftovers, x_block]:
        edges.extend((a, b) for i, a in enumerate(block) for b in block[i + 1:])
    edges.extend((x, w) for x in x_block for w in range(x_block.start))
    for s in s_block:
        edges.extend((s, w) for w in range(s))
    host = graph_from_edges(n, edges)

    if min_degree(host) < n - 8:
        raise RuntimeError(f"built host has minimum degree {min_degree(host)} < {n - 8}")
    try:
        _check_preconditions(core_graph(host, (u, v)), (u, v))
    except ClassificationError as exc:
        raise RuntimeError(f"built core fails precondition {exc.reason}: {exc}") from None
    return BuiltInstance(graph=host, edge=(u, v), s_e=mask_of(s_block))


def core_graph(host: Graph, e: Edge) -> Graph:
    """The order-10 deficient core: host minus e minus S_e, which is every
    vertex from 10 up.

    Valid for hosts laid out by :func:`build_instance` (S_e occupies the top
    indices, so core labels are unchanged). Raises :class:`GraphError` when
    the host has order below 10 or lacks e.
    """
    if host.n < 10:
        raise GraphError(f"host order {host.n} below 10")
    return delete_edge(delete_vertices(host, host.vertex_mask >> 10 << 10), e)


# ---------------------------------------------------------------------------
# non-neighborhood intersection bounds
# ---------------------------------------------------------------------------


def intersection_bounds(label: ConfigLabel) -> tuple[int, int]:
    """Bounds (lo, hi) on |N̄[u] ∩ N̄[v]| when every degree is at least
    n - 8; unstated sides are the universal 0 and 7."""
    return _TABLE[label][1]


class DegreeHypothesisError(ValueError):
    """The host violates the minimum-degree hypothesis the bounds assume."""


def check_intersection_bounds(host: Graph, e: Edge, label: ConfigLabel) -> bool:
    """Whether |N̄[u] ∩ N̄[v]| in the host falls inside the label's bounds.

    Only valid under the standing hypothesis delta(host) >= n - 8; callers
    vouch that the core of host and e classifies as ``label``.
    """
    n = host.n
    if min_degree(host) < n - 8:
        raise DegreeHypothesisError(
            f"minimum degree {min_degree(host)} below n-8 = {n - 8}"
        )
    u, v = e
    count = common_nonneighborhood(host, u, v).bit_count()
    lo, hi = intersection_bounds(label)
    return lo <= count <= hi
