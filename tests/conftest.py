from __future__ import annotations

import time

import pytest

from factorcrit import Graph, all_graphs, graph_from_edges


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return graph_from_edges(10, outer + inner + spokes)


def bowtie() -> Graph:
    return graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def disjoint_cliques(sizes: list[int]) -> Graph:
    n = sum(sizes)
    edges = []
    start = 0
    for s in sizes:
        block = range(start, start + s)
        edges.extend((a, b) for a in block for b in block if a < b)
        start += s
    return graph_from_edges(n, edges)


@pytest.fixture(scope="session")
def graphs_by_order():
    """Isomorphism-class representatives for n = 1..7 (session cached)."""
    return {n: tuple(all_graphs(n)) for n in range(1, 8)}


@pytest.fixture(scope="session")
def build_seconds() -> dict[str, float]:
    """Seconds each expensive session fixture took to build, by fixture name.

    The first acceptance criterion that needs the artifact adds them to its
    elapsed time.
    """
    return {}


@pytest.fixture(scope="session")
def reps8(graphs_by_order, build_seconds):
    """Representatives for n = 1..8; the order-8 build time is recorded."""
    t0 = time.monotonic()
    reps = graphs_by_order | {8: tuple(all_graphs(8))}
    build_seconds["reps8"] = time.monotonic() - t0
    return reps
