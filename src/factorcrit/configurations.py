"""The fourteen-configuration taxonomy of deficient 10-vertex graphs.

A 10-vertex graph h with no perfect matching, together with a designated
non-edge e = uv such that h + e has a perfect matching and no vertex of
degree <= 1, always admits a barrier witness X with |X| <= 4 whose removal
leaves exactly |X| + 2 factor-critical components with u and v in distinct
ones. The triple (|X|, component-size multiset, sizes of the components of
u and v, which say where e sits) then lands in a fixed fourteen-row table,
labeled C1..C14.

The table states the signatures in label order: a label is its row's
position, and its bounds on |N̄[u] ∩ N̄[v]| follow by a rule. It is read by
the classifier, the host builder and the intersection-bounds check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .decomp import BarrierWitness, find_barrier_witnesses
from .graphs import (
    Edge,
    Graph,
    GraphError,
    MAX_VERTICES,
    VertexSet,
    _check_int,
    _order_of,
    add_edge,
    common_nonneighborhood,
    delete_edge,
    delete_vertices,
    graph_from_edges,
    mask_of,
    min_degree,
    normalize_edge,
)
from .matching import has_perfect_matching

# m = n - k, the order of the deficient core G - S_e - e
_CORE_ORDER = 10


class ConfigSignature(NamedTuple):
    x_size: int
    component_sizes: tuple[int, ...]  # ascending multiset, sums to m - x_size
    ends: tuple[int, int]  # sizes of the components of u and v, smaller first: where e sits


# C1..C14 in the paper's order, which no sort gives: C4's ends (1, 5) precede C5's (1, 3),
# C12's (1, 1) precede C13's (1, 3). With X empty, e joins the only two components.
_SIGNATURES = (
    ConfigSignature(0, (3, 7), (3, 7)),
    ConfigSignature(0, (5, 5), (5, 5)),
    ConfigSignature(1, (1, 1, 7), (1, 1)),
    ConfigSignature(1, (1, 3, 5), (1, 5)),
    ConfigSignature(1, (1, 3, 5), (1, 3)),
    ConfigSignature(1, (3, 3, 3), (3, 3)),
    ConfigSignature(2, (1, 1, 1, 5), (1, 5)),
    ConfigSignature(2, (1, 1, 1, 5), (1, 1)),
    ConfigSignature(2, (1, 1, 3, 3), (3, 3)),
    ConfigSignature(2, (1, 1, 3, 3), (1, 3)),
    ConfigSignature(2, (1, 1, 3, 3), (1, 1)),
    ConfigSignature(3, (1, 1, 1, 1, 3), (1, 1)),
    ConfigSignature(3, (1, 1, 1, 1, 3), (1, 3)),
    ConfigSignature(4, (1, 1, 1, 1, 1, 1), (1, 1)),
)
ConfigLabel = Enum("ConfigLabel", {f"C{i}": f"C{i}" for i in range(1, len(_SIGNATURES) + 1)}, module=__name__)
_TABLE: dict[ConfigLabel, ConfigSignature] = dict(zip(ConfigLabel, _SIGNATURES))
_BY_SIGNATURE = {sig: label for label, sig in _TABLE.items()}


def _signature(label: ConfigLabel) -> ConfigSignature:
    """The table row of ``label``; anything but a :class:`ConfigLabel` is refused."""
    if not isinstance(label, ConfigLabel):
        raise GraphError(f"label {label!r} is not a ConfigLabel")
    return _TABLE[label]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class ClassificationError(ValueError):
    """A precondition of the configuration layer failed; ``reason`` states which one."""

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
    m = _CORE_ORDER
    _check_int("classification order", _order_of(h), m, m)
    u, v = normalize_edge(m, e)
    if h.has_edge(u, v):
        raise GraphError(f"designated edge ({u},{v}) must be a non-edge")

    _check_preconditions(h, (u, v))

    # h + uv has a perfect matching, so h has deficiency 2: by Tutte-Berge each
    # witness leaves exactly |X| + 2 components, with u and v in two distinct
    # ones (otherwise they would still block every perfect matching of h + uv)
    entries = []
    for w in find_barrier_witnesses(h, (m - 2) // 2):
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
        entries.append(ClassifiedWitness(label=label, witness=w, u_component=u_comp, v_component=v_comp))
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
    """Embed a configuration into a host of order 12 <= n <= 64.

    Vertex layout: u's component first (u = 0), then v's component, then the
    leftover components by descending size, then X, then the n - 10 padding
    vertices S_e. Components and X are cliques, X is joined to every core
    vertex and S_e is complete to everything, so every degree is at least
    n - 8.
    """
    m = _CORE_ORDER
    _check_int("vertex count", n, m + 2, MAX_VERTICES)
    sig = _signature(label)
    u_size, v_size = sig.ends
    leftover_sizes = list(sig.component_sizes)
    leftover_sizes.remove(u_size)
    leftover_sizes.remove(v_size)

    # consecutive vertex blocks in the documented layout order
    blocks, start = [], 0
    for size in (u_size, v_size, *sorted(leftover_sizes, reverse=True), sig.x_size, n - m):
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

    if min_degree(host) < n - m + 2:
        raise RuntimeError(f"built host has minimum degree {min_degree(host)} < {n - m + 2}")
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
    _check_int("vertex count", _order_of(host), _CORE_ORDER, MAX_VERTICES)
    return delete_edge(delete_vertices(host, host.vertex_mask >> _CORE_ORDER << _CORE_ORDER), e)


# ---------------------------------------------------------------------------
# non-neighborhood intersection bounds
# ---------------------------------------------------------------------------


def intersection_bounds(label: ConfigLabel) -> tuple[int, int]:
    """Bounds (lo, hi) on |N̄[u] ∩ N̄[v]| when every host degree is at least
    n - m + 2 (n - 8 at the core order m = 10), for ends of sizes a <= b.

    u and v miss every vertex of the other components: lo = m - |X| - a - b.
    u has at most m - 3 non-neighbours besides itself, and when b >= 3 the
    larger end, factor-critical, gives its end vertex two neighbours that
    the other end vertex misses: hi = m - 3 when a = b = 1, else m - 5.
    """
    (x_size, _, (a, b)), m = _signature(label), _CORE_ORDER
    return m - x_size - a - b, m - 3 if a == b == 1 else m - 5


def check_intersection_bounds(host: Graph, e: Edge, label: ConfigLabel) -> bool:
    """Whether |N̄[u] ∩ N̄[v]| in the host falls inside the label's bounds.

    Only valid under the standing hypothesis delta(host) >= n - 8, whose
    failure is the precondition ``degree_hypothesis``; callers vouch that
    the core of host and e classifies as ``label``.
    """
    n, m = _order_of(host), _CORE_ORDER
    lo, hi = intersection_bounds(label)
    u, v = normalize_edge(n, e)
    delta = min_degree(host)
    if delta < n - m + 2:
        raise ClassificationError("degree_hypothesis", f"minimum degree {delta} below n-{m - 2} = {n - m + 2}")
    return lo <= common_nonneighborhood(host, u, v).bit_count() <= hi
