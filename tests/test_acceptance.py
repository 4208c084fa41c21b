"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <nn> <name>: PASS/FAIL`` line. Expensive
exhaustive scans are shared through session fixtures, so wall-clock budgets
are attributed to the first criterion that needs each artifact.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest

from factorcrit import (
    ConfigLabel,
    add_edge,
    bits,
    build_instance,
    canonical_form,
    check_connectivity_properties,
    check_intersection_bounds,
    classify,
    common_nonneighborhood,
    core_graph,
    deficiency,
    delete_vertices,
    has_perfect_matching,
    is_k_factor_critical,
    is_minimal_kfc,
    max_matching,
    min_degree,
    minimality_certificate,
    parse_graph6,
    random_graph,
    to_graph6,
)
from factorcrit.cli import main
from factorcrit.enumeration import _canonical_bytes
from oracles import (
    all_perfect_matchings, brute_force_max_matching, is_k_factor_critical_via_odd_components,
    odd_components,
)

SWEEP_PAIRS = [(4, 2), (5, 1), (6, 2), (6, 4), (7, 1), (7, 3), (8, 2), (8, 4), (8, 6)]
SAMPLE_COUNT = 1050
HOST_ORDERS = (12, 14, 16)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def sweep_runs(reps8, build_seconds):
    """Criterion 3 CLI runs, shared with criteria 8 and 9."""
    t0 = time.monotonic()
    runs = {}
    for n, k in SWEEP_PAIRS:
        code, out, err = run_cli(
            "verify", "--n", str(n), "--k", str(k), "--source", "all", "--format", "json"
        )
        records = [json.loads(line) for line in out.splitlines()]
        runs[(n, k)] = (code, records, err)
    build_seconds["sweep_runs"] = time.monotonic() - t0
    return runs


@pytest.fixture(scope="session")
def sample_run(build_seconds):
    """Criterion 4 CLI run, shared with criterion 9."""
    t0 = time.monotonic()
    code, out, err = run_cli(
        "verify", "--n", "12", "--k", "2", "--source", "sample",
        "--samples", str(SAMPLE_COUNT), "--seed", "0", "--format", "json",
    )
    records = [json.loads(line) for line in out.splitlines()]
    build_seconds["sample_run"] = time.monotonic() - t0
    return code, records, err


def test_criterion_01_matching_oracle(graphs_by_order):
    """Blossom equals the exhaustive oracle on all 1044 order-7 classes and
    10^4 seeded random graphs with 8 <= n <= 14; zero mismatches; < 60 s."""
    t0 = time.monotonic()
    mismatches = 0
    seven = graphs_by_order[7]
    assert len(seven) == 1044
    for g in seven:
        if max_matching(g).size() != brute_force_max_matching(g):
            mismatches += 1
    probs = (0.2, 0.5, 0.8)
    for i in range(10_000):
        g = random_graph(8 + i % 7, probs[i % 3], i)
        if max_matching(g).size() != brute_force_max_matching(g):
            mismatches += 1
    elapsed = time.monotonic() - t0
    report(
        1, "matching-oracle-equivalence",
        mismatches == 0 and elapsed < 60,
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_criterion_02_odd_component_equivalence(reps8, build_seconds):
    """Subset-sweep test agrees with the definition-level k-factor-critical
    test for every graph with n <= 8 and every k of matching parity; < 10 min."""
    t0 = time.monotonic()
    mismatches = 0
    checked = 0
    for n in range(1, 9):
        for g in reps8[n]:
            for k in range(n % 2, n, 2):
                checked += 1
                direct, _ = is_k_factor_critical(g, k)
                if direct != is_k_factor_critical_via_odd_components(g, k):
                    mismatches += 1
    elapsed = time.monotonic() - t0 + build_seconds["reps8"]
    report(
        2, "odd-component-sweep-equivalence",
        mismatches == 0 and elapsed < 600,
        f"{checked} pairs, mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_criterion_03_exhaustive_minimum_degree(sweep_runs, build_seconds):
    """Exhaustive sweeps find zero counterexamples to minimum degree k+1
    among minimal k-factor-critical graphs for the nine (n, k) pairs,
    exit code 0 each; < 15 min total."""
    t0 = time.monotonic()
    problems = []
    for (n, k), (code, records, err) in sweep_runs.items():
        if code != 0:
            problems.append(f"({n},{k}) exit={code}")
        for rec in records:
            if rec["is_minimal"] and rec["min_degree"] != k + 1:
                problems.append(f"({n},{k}) counterexample {rec['graph6']}")
        if "failures=0" not in err:
            problems.append(f"({n},{k}) summary reported failures")
    elapsed = time.monotonic() - t0 + build_seconds["sweep_runs"]
    report(
        3, "exhaustive-minimum-degree-sweeps",
        not problems and elapsed < 900,
        "; ".join(problems) or f"9 sweeps clean, {elapsed:.1f}s",
    )


def test_criterion_04_sampled_order_12(sample_run, build_seconds):
    """At n = 12, k = 2: at least 1000 seeded dense starts minimalized, every
    minimal instance has minimum degree 3; zero counterexamples; < 30 min."""
    t0 = time.monotonic()
    code, records, err = sample_run
    minimal_count = sum(1 for r in records if r["is_minimal"])
    bad = [r for r in records if r["min_degree"] != 3 or r["verdict"] != "pass"]
    spot_checked = 0
    for rec in records[::50]:
        g = parse_graph6(rec["graph6"])
        rep = is_minimal_kfc(g, 2)
        spot_checked += 1
        if not (rep.is_kfc and rep.is_minimal):
            bad.append(rec)
    elapsed = time.monotonic() - t0 + build_seconds["sample_run"]
    report(
        4, "sampled-order-12-minimum-degree",
        code == 0 and minimal_count >= 1000 and not bad and elapsed < 1800,
        f"minimal={minimal_count}, spot_checked={spot_checked}, bad={len(bad)}, {elapsed:.1f}s",
    )


def _qualifying_pairs(target: int):
    """Deterministic stream of (graph, missing edge) classification inputs."""
    pairs = []
    seed = 0
    probs = (0.2, 0.25, 0.3, 0.35)
    while len(pairs) < target:
        h = random_graph(10, probs[seed % 4], seed)
        seed += 1
        if deficiency(h) != 2:
            continue
        for u in range(10):
            for v in range(u + 1, 10):
                if h.has_edge(u, v):
                    continue
                plus = add_edge(h, (u, v))
                if min_degree(plus) >= 2 and has_perfect_matching(plus):
                    pairs.append((h, (u, v)))
    return pairs[:target]


def test_criterion_05_classification_completeness():
    """Over 10^4 seeded random inputs meeting the preconditions, classification
    always returns a label with an independently verified witness; < 5 min."""
    t0 = time.monotonic()
    failures = 0
    pairs = _qualifying_pairs(10_000)
    for h, (u, v) in pairs:
        res = classify(h, (u, v))
        ent = res.canonical
        ok = ent.label in set(ConfigLabel)
        x = ent.witness.x
        count, comps = odd_components(h, x)
        ok &= count == x.bit_count() + 2 == len(ent.witness.components)
        u_comp = v_comp = 0
        for comp in comps:
            # factor-critical via the exhaustive matching oracle
            size = comp.bit_count()
            ok &= size % 2 == 1
            for w in bits(comp):
                sub = delete_vertices(h, h.vertex_mask & ~comp | (1 << w))
                ok &= brute_force_max_matching(sub) * 2 == size - 1
            if comp & (1 << u):
                u_comp = comp
            if comp & (1 << v):
                v_comp = comp
        ok &= bool(u_comp) and bool(v_comp) and u_comp != v_comp
        if not ok:
            failures += 1
    elapsed = time.monotonic() - t0
    report(
        5, "classification-completeness",
        failures == 0 and elapsed < 300,
        f"{len(pairs)} pairs, failures={failures}, {elapsed:.1f}s",
    )


def test_criterion_06_label_round_trip():
    """Every label is recovered by classifying the deficient core of a built
    host for at least one order in {12, 14, 16}; 14/14."""
    recovered = []
    for label in ConfigLabel:
        hit = False
        for n in HOST_ORDERS:
            inst = build_instance(label, n)
            core = core_graph(inst.graph, inst.edge)
            if label in classify(core, inst.edge).labels():
                hit = True
        recovered.append(hit)
    report(6, "label-round-trip", all(recovered), f"{sum(recovered)}/14")


def test_criterion_07_intersection_bounds():
    """Non-neighborhood intersection bounds hold on every built host; the
    exact values 7 (C3) and 5 (C5) are reproduced."""
    problems = []
    for label in ConfigLabel:
        for n in HOST_ORDERS:
            inst = build_instance(label, n)
            if not check_intersection_bounds(inst.graph, inst.edge, label):
                problems.append(f"{label.value}@{n}")
    for label, expected in ((ConfigLabel.C3, 7), (ConfigLabel.C5, 5)):
        for n in HOST_ORDERS:
            inst = build_instance(label, n)
            got = common_nonneighborhood(inst.graph, *inst.edge).bit_count()
            if got != expected:
                problems.append(f"{label.value}@{n}: {got} != {expected}")
    report(7, "intersection-bounds", not problems, "; ".join(problems) or "42 hosts")


def test_criterion_08_certificate_biconditional(sweep_runs):
    """On every minimal graph from criterion 3 each edge carries a
    certificate verified against enumerated perfect matchings; on every
    non-minimal k-factor-critical graph some edge has none."""
    t0 = time.monotonic()
    violations = 0
    minimal_seen = 0
    nonminimal_seen = 0
    for (n, k), (_, records, _) in sweep_runs.items():
        for rec in records:
            g = parse_graph6(rec["graph6"])
            if rec["is_minimal"]:
                minimal_seen += 1
                rep = is_minimal_kfc(g, k)
                if not (rep.is_minimal and len(rep.certificates) == g.edge_count()):
                    violations += 1
                    continue
                for cert in rep.certificates:
                    u, v = cert.edge
                    survivors = [w for w in range(n) if not cert.s_e >> w & 1]
                    sub = delete_vertices(g, cert.s_e)
                    eu, ev = survivors.index(u), survivors.index(v)
                    pms = all_perfect_matchings(sub)
                    if not pms or any((eu, ev) not in m.edges for m in pms):
                        violations += 1
            else:
                nonminimal_seen += 1
                if all(
                    minimality_certificate(g, k, e) is not None for e in g.edges()
                ):
                    violations += 1
    elapsed = time.monotonic() - t0
    report(
        8, "certificate-biconditional",
        violations == 0,
        f"minimal={minimal_seen}, non-minimal={nonminimal_seen}, "
        f"violations={violations}, {elapsed:.1f}s",
    )


def test_criterion_09_connectivity_consequences(sweep_runs, sample_run):
    """Every k-factor-critical graph encountered in criteria 3 and 4 is
    k-connected, (k+1)-edge-connected, and (k-2)-factor-critical for k >= 2,
    which also certifies minimum degree at least k+1."""
    t0 = time.monotonic()
    violations = 0
    checked = 0
    for (n, k), (_, records, _) in sweep_runs.items():
        if k == 0:
            continue
        for rec in records:
            g = parse_graph6(rec["graph6"])
            checked += 1
            if not check_connectivity_properties(g, k) or min_degree(g) < k + 1:
                violations += 1
    _, records, _ = sample_run
    for rec in records:
        g = parse_graph6(rec["graph6"])
        checked += 1
        if not check_connectivity_properties(g, 2) or min_degree(g) < 3:
            violations += 1
    # the sampled dense starts were also tested for 2-factor-criticality
    for i in range(0, SAMPLE_COUNT, 10):
        g = random_graph(12, 0.8, i)
        if is_k_factor_critical(g, 2)[0]:
            checked += 1
            if not check_connectivity_properties(g, 2) or min_degree(g) < 3:
                violations += 1
    elapsed = time.monotonic() - t0
    report(
        9, "connectivity-consequences",
        violations == 0,
        f"checked={checked}, violations={violations}, {elapsed:.1f}s",
    )


def test_criterion_10_enumeration_counts(graphs_by_order):
    """Exhaustive generation emits exactly 11, 34, 156, 1044 classes for
    n = 4..7 (dedupe oracle live for n <= 6, frozen oracle value at n = 7),
    with graph6 round-trip identity on every emitted graph."""
    t0 = time.monotonic()
    problems = []
    expected = {4: 11, 5: 34, 6: 156, 7: 1044}
    for n, want in expected.items():
        got = len(graphs_by_order[n])
        if got != want:
            problems.append(f"n={n}: {got} != {want}")
    # live labeled-enumeration dedupe oracle for n <= 6; the n = 7 value was
    # computed once with the same oracle (2^21 labeled graphs) and frozen
    for n in (4, 5, 6):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            for i, (a, b) in enumerate(pairs):
                if mask >> i & 1:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
            seen.add(_canonical_bytes(n, tuple(rows)))
        if len(seen) != expected[n]:
            problems.append(f"dedupe oracle n={n}: {len(seen)}")
    dup = 0
    for n in range(4, 8):
        forms = {canonical_form(g) for g in graphs_by_order[n]}
        if len(forms) != len(graphs_by_order[n]):
            dup += 1
        for g in graphs_by_order[n]:
            if parse_graph6(to_graph6(g)) != g:
                problems.append(f"round-trip failure at n={n}")
                break
    if dup:
        problems.append("duplicate canonical forms emitted")
    elapsed = time.monotonic() - t0
    report(
        10, "enumeration-counts",
        not problems,
        "; ".join(problems) or f"counts exact, {elapsed:.1f}s",
    )
