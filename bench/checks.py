"""Independent checks of factorcrit's outputs.

Nothing in this module imports factorcrit. Perfect matchings, components,
graph6 decoding, the seeded G(n, p) stream and the configuration table are
written out again from their definitions, so a fault in the program cannot
hide inside the check that judges it. Pairwise non-isomorphism is decided by
networkx. Every ``check_*`` function returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import re
from itertools import combinations

# Number of isomorphism classes of graphs on n vertices (OEIS A000088).
A000088 = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

_SUMMARY = re.compile(r"scanned=(\d+) kfc=(\d+) minimal=(\d+) failures=(\d+)")


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


# ---------------------------------------------------------------------------
# graphs: decoding and validity
# ---------------------------------------------------------------------------


def decode_graph6(line: str) -> tuple[int, tuple[int, ...]]:
    """Adjacency rows of a graph6 line with n <= 62 (upper triangle, column
    order, six bits per byte, high bit first)."""
    data = [ord(c) - 63 for c in line.strip()]
    n = data[0]
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if data[1 + idx // 6] >> (5 - idx % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    if len(data) != 1 + (idx + 5) // 6:
        raise ValueError(f"graph6 line {line!r} has the wrong length")
    return n, tuple(rows)


def rows_valid(n: int, rows) -> bool:
    """Symmetric, irreflexive and confined to vertices 0..n-1."""
    if len(rows) != n:
        return False
    for v, row in enumerate(rows):
        if row >> n or row >> v & 1:
            return False
        for u in bits(row):
            if not rows[u] >> v & 1:
                return False
    return True


def edges(rows) -> list[tuple[int, int]]:
    return [(u, v) for u, row in enumerate(rows) for v in bits(row) if u < v]


def min_degree(rows) -> int:
    return min(row.bit_count() for row in rows)


def without_edge(rows, u: int, v: int) -> tuple[int, ...]:
    out = list(rows)
    out[u] &= ~(1 << v)
    out[v] &= ~(1 << u)
    return tuple(out)


def with_edge(rows, u: int, v: int) -> tuple[int, ...]:
    out = list(rows)
    out[u] |= 1 << v
    out[v] |= 1 << u
    return tuple(out)


# ---------------------------------------------------------------------------
# brute-force matching and components
# ---------------------------------------------------------------------------


class Matcher:
    """Perfect-matching existence on induced subgraphs of one graph, by
    exhaustive recursion on the lowest vertex, memoised by vertex mask."""

    def __init__(self, rows) -> None:
        self.rows = rows
        self.memo: dict[int, bool] = {0: True}

    def has_pm(self, mask: int) -> bool:
        hit = self.memo.get(mask)
        if hit is not None:
            return hit
        ok = False
        if not mask.bit_count() & 1:
            low = mask & -mask
            rest = mask ^ low
            cand = self.rows[low.bit_length() - 1] & rest
            while cand and not ok:
                ubit = cand & -cand
                cand ^= ubit
                ok = self.has_pm(rest ^ ubit)
        self.memo[mask] = ok
        return ok

    def max_matching(self, mask: int) -> int:
        """Maximum matching size on ``mask`` (lowest vertex matched to each
        neighbour in turn, or left exposed)."""
        if mask.bit_count() < 2:
            return 0
        low = mask & -mask
        rest = mask ^ low
        best = self.max_matching(rest)
        cand = self.rows[low.bit_length() - 1] & rest
        while cand:
            ubit = cand & -cand
            cand ^= ubit
            best = max(best, 1 + self.max_matching(rest ^ ubit))
        return best


def components(rows, mask: int) -> list[int]:
    """Connected components of the subgraph induced on ``mask`` (BFS)."""
    out = []
    while mask:
        seen = mask & -mask
        todo = [seen.bit_length() - 1]
        while todo:
            v = todo.pop()
            new = rows[v] & mask & ~seen
            seen |= new
            todo.extend(bits(new))
        out.append(seen)
        mask &= ~seen
    return out


def is_kfc(n: int, rows, k: int) -> bool:
    """Every k-set of vertices leaves a graph with a perfect matching."""
    if (n + k) % 2:
        return False
    matcher = Matcher(rows)
    full = (1 << n) - 1
    return all(matcher.has_pm(full & ~mask_of(s)) for s in combinations(range(n), k))


def is_minimal_kfc(n: int, rows, k: int) -> bool:
    """k-factor-critical, and no single edge deletion keeps it so."""
    return is_kfc(n, rows, k) and not any(
        is_kfc(n, without_edge(rows, u, v), k) for u, v in edges(rows)
    )


def is_factor_critical(matcher: Matcher, comp: int) -> bool:
    return comp.bit_count() % 2 == 1 and all(matcher.has_pm(comp ^ (1 << w)) for w in bits(comp))


# ---------------------------------------------------------------------------
# the documented random-graph contract
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def splitmix64(seed: int):
    state = seed & _M64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def gnp(n: int, p: float, seed: int) -> tuple[int, ...]:
    """G(n, p): pairs i < j in lexicographic order, one 64-bit SplitMix64
    draw each, edge iff draw < floor(p * 2**64)."""
    threshold = int(p * (1 << 64))
    draws = splitmix64(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if next(draws) < threshold:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def _invariant(n: int, rows) -> tuple:
    """Colour refinement from (degree, triangles through v); the sequence of
    sorted signature lists is invariant under relabelling."""
    tri = [sum((rows[u] & row).bit_count() for u in bits(row)) // 2 for row in rows]
    sigs = [(row.bit_count(), t) for row, t in zip(rows, tri)]
    history = []
    for _ in range(n):
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colour = [ranks[s] for s in sigs]
        sigs = [(colour[v], tuple(sorted(colour[u] for u in bits(rows[v])))) for v in range(n)]
        history.append(tuple(sorted(sigs)))
        if len(set(sigs)) == len(ranks):
            break
    return tuple(history)


def isomorphic_pairs(n: int, graphs) -> list[tuple[int, int]]:
    """Index pairs of graphs that networkx finds isomorphic. Graphs are
    bucketed by a refinement invariant first; only bucket-mates are compared."""
    import networkx as nx

    buckets: dict[tuple, list[int]] = {}
    for i, rows in enumerate(graphs):
        buckets.setdefault(_invariant(n, rows), []).append(i)
    found = []
    for members in buckets.values():
        if len(members) < 2:
            continue
        nxg = {}
        for i in members:
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(edges(graphs[i]))
            nxg[i] = g
        for a, b in combinations(members, 2):
            if nx.is_isomorphic(nxg[a], nxg[b]):
                found.append((a, b))
    return found


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def _summary(err: str) -> tuple[int, int, int, int] | None:
    m = _SUMMARY.search(err)
    return tuple(int(x) for x in m.groups()) if m else None


def check_classes(classes: dict[int, list]) -> list[str]:
    """Class counts match A000088 and the classes are pairwise non-isomorphic."""
    problems = []
    for n, graphs in classes.items():
        if len(graphs) != A000088[n]:
            problems.append(f"order {n}: {len(graphs)} classes, A000088 says {A000088[n]}")
        bad = [i for i, rows in enumerate(graphs) if not rows_valid(n, rows)]
        if bad:
            problems.append(f"order {n}: class {bad[0]} is not a simple graph")
            continue
        iso = isomorphic_pairs(n, graphs)
        if iso:
            problems.append(f"order {n}: classes {iso[0]} are isomorphic ({len(iso)} pairs)")
    return problems


def check_sweep(n: int, k: int, classes, sweep: dict) -> list[str]:
    """One ``verify --source all`` sweep against brute force over the classes."""
    where = f"sweep ({n},{k})"
    problems = []
    if sweep["code"] != 0:
        problems.append(f"{where}: exit code {sweep['code']}")
    summary = _summary(sweep["err"])
    records = [json.loads(line) for line in sweep["out"].splitlines()]
    expected = {rows for rows in classes if is_kfc(n, rows, k)}
    if summary is None:
        return problems + [f"{where}: no summary line"]
    scanned, kfc, minimal, failures = summary
    if scanned != len(classes) or kfc != len(records) or failures:
        problems.append(f"{where}: summary {summary} for {len(classes)} classes")
    if minimal != sum(1 for r in records if r["is_minimal"]):
        problems.append(f"{where}: summary minimal={minimal} disagrees with the records")
    got = set()
    for rec in records:
        order, rows = decode_graph6(rec["graph6"])
        got.add(rows)
        tag = f"{where} {rec['graph6']}"
        if order != n or rec["n"] != n or rec["k"] != k or not rec["is_kfc"]:
            problems.append(f"{tag}: wrong header fields")
        if rows not in expected:
            problems.append(f"{tag}: not a k-factor-critical class")
            continue
        minimal = not any(is_kfc(n, without_edge(rows, u, v), k) for u, v in edges(rows))
        if rec["is_minimal"] != minimal:
            problems.append(f"{tag}: is_minimal={rec['is_minimal']}, single deletions say {minimal}")
        if rec["min_degree"] != min_degree(rows):
            problems.append(f"{tag}: min_degree {rec['min_degree']} is wrong")
        if minimal and (min_degree(rows) != k + 1 or rec["verdict"] != "pass"):
            problems.append(f"{tag}: minimal with minimum degree {min_degree(rows)}")
    if len(got) != len(records) or got != expected:
        problems.append(
            f"{where}: {len(got)} distinct records, brute force finds {len(expected)} k-factor-critical classes"
        )
    return problems


def check_exhaustive(classes: dict[int, list], sweeps: list[dict]) -> list[str]:
    """Classes and sweeps; a repeated sweep must repeat its output byte for
    byte, and only its first run is brute-forced."""
    problems = check_classes(classes)
    first = {}
    for sweep in sweeps:
        n, k = sweep["n"], sweep["k"]
        if (n, k) in first:
            if sweep != first[n, k]:
                problems.append(f"sweep ({n},{k}): a repeated run gave other output")
            continue
        first[n, k] = sweep
        problems += check_sweep(n, k, classes[n], sweep)
    return problems


def check_sample(starts: list[dict], n: int, k: int, p: float) -> list[str]:
    """Sampled minimalizations: each result is a brute-force minimal
    k-factor-critical spanning subgraph of its regenerated start with
    minimum degree k + 1."""
    problems = []
    for start in starts:
        seed = start["seed"]
        where = f"start {seed}"
        if start["code"] != 0:
            problems.append(f"{where}: exit code {start['code']}")
        records = [json.loads(line) for line in start["out"].splitlines()]
        source = gnp(n, p, seed)
        want = 1 if is_kfc(n, source, k) else 0
        if len(records) != want or _summary(start["err"]) != (1, want, want, 0):
            problems.append(f"{where}: {len(records)} records for a start with kfc={want}")
            continue
        for rec in records:
            order, rows = decode_graph6(rec["graph6"])
            if order != n or not rows_valid(n, rows):
                problems.append(f"{where}: result is not a graph of order {n}")
                continue
            if any(row & ~src for row, src in zip(rows, source)):
                problems.append(f"{where}: result is not a spanning subgraph of the start")
            if min_degree(rows) != k + 1 or rec["min_degree"] != k + 1 or rec["verdict"] != "pass":
                problems.append(f"{where}: minimum degree {min_degree(rows)}")
            if not (rec["is_kfc"] and rec["is_minimal"]):
                problems.append(f"{where}: record does not claim a minimal k-factor-critical result")
            if not is_minimal_kfc(n, rows, k):
                problems.append(f"{where}: result is not minimal k-factor-critical")
    return problems


# The paper's fourteen configurations: (|X|, component sizes, placement of
# the designated edge) -> label. Placement names the endpoint component
# sizes; with X empty the edge joins the two components.
PAPER_TABLE = {
    (0, (3, 7), "between"): "C1",
    (0, (5, 5), "between"): "C2",
    (1, (1, 1, 7), (1, 1)): "C3",
    (1, (1, 3, 5), (1, 5)): "C4",
    (1, (1, 3, 5), (1, 3)): "C5",
    (1, (3, 3, 3), (3, 3)): "C6",
    (2, (1, 1, 1, 5), (1, 5)): "C7",
    (2, (1, 1, 1, 5), (1, 1)): "C8",
    (2, (1, 1, 3, 3), (3, 3)): "C9",
    (2, (1, 1, 3, 3), (1, 3)): "C10",
    (2, (1, 1, 3, 3), (1, 1)): "C11",
    (3, (1, 1, 1, 1, 3), (1, 1)): "C12",
    (3, (1, 1, 1, 1, 3), (1, 3)): "C13",
    (4, (1, 1, 1, 1, 1, 1), (1, 1)): "C14",
}


def check_classified(pairs: list[dict]) -> list[str]:
    """Each classified pair meets the preconditions, its canonical witness is
    a barrier with |X| + 2 factor-critical components separating u and v,
    and its label is the paper's row for the witness."""
    problems = []
    for pair in pairs:
        rows = tuple(pair["h"])
        u, v = pair["e"]
        where = f"graph seed {pair['seed']} edge ({u},{v})"
        n = len(rows)
        full = (1 << n) - 1
        if n != 10 or not rows_valid(n, rows) or rows[u] >> v & 1 or u == v:
            problems.append(f"{where}: input is not a 10-vertex graph with a non-edge")
            continue
        matcher = Matcher(rows)
        plus = with_edge(rows, u, v)
        if matcher.max_matching(full) != 4:
            problems.append(f"{where}: deficiency is not 2")
        if not Matcher(plus).has_pm(full) or min_degree(plus) < 2:
            problems.append(f"{where}: h + e has no perfect matching or a vertex of degree < 2")
        x = mask_of(pair["x"])
        comps = components(rows, full & ~x)
        reported = sorted(mask_of(c) for c in pair["components"])
        if sorted(comps) != reported:
            problems.append(f"{where}: reported components are not those of h - X")
            continue
        if x.bit_count() > 4 or len(comps) != x.bit_count() + 2:
            problems.append(f"{where}: |X| = {x.bit_count()} with {len(comps)} components")
        if not all(is_factor_critical(matcher, c) for c in comps):
            problems.append(f"{where}: a component of h - X is not factor-critical")
        cu = next((c for c in comps if c >> u & 1), 0)
        cv = next((c for c in comps if c >> v & 1), 0)
        if not cu or not cv or cu == cv:
            problems.append(f"{where}: u and v are not in different components")
            continue
        if mask_of(pair["u_component"]) != cu or mask_of(pair["v_component"]) != cv:
            problems.append(f"{where}: endpoint components misreported")
        sizes = tuple(sorted(c.bit_count() for c in comps))
        ends = "between" if not x else tuple(sorted((cu.bit_count(), cv.bit_count())))
        want = PAPER_TABLE.get((x.bit_count(), sizes, ends))
        if pair["label"] != want:
            problems.append(f"{where}: label {pair['label']}, the table row says {want}")
    return problems
