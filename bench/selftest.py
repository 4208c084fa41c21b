"""Shows that every independent check rejects a corrupted output.

    python3 bench/selftest.py

Small real outputs are produced in-process (classes of order <= 6 and four
sweeps, eight sampled starts, classified pairs from 600 screened graphs).
Each must pass its check; then each corruption below is applied to a copy
and must be rejected. Exits 1 if a clean output fails or a corruption passes.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import factorcrit  # noqa: E402
from factorcrit.cli import main as cli_main  # noqa: E402
from worker import CLASSIFY_PROBS, _bits  # noqa: E402

SWEEPS = ((4, 2), (5, 1), (6, 2), (6, 4))


def cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def exhaustive_output() -> tuple[dict, list]:
    classes = {n: [g.adj for g in factorcrit.all_graphs(n)] for n in range(1, 7)}
    sweeps = [
        {"n": n, "k": k, **cli(["verify", "--n", str(n), "--k", str(k), "--source", "all", "--format", "json"])}
        for n, k in SWEEPS
    ]
    return classes, sweeps


def sample_output() -> list:
    return [
        {"seed": s, **cli(["verify", "--n", "12", "--k", "2", "--source", "sample",
                           "--p", "0.8", "--samples", "1", "--seed", str(s), "--format", "json"])}
        for s in range(8)
    ]


def classify_output() -> list:
    pairs = []
    for gs in range(600):
        h = factorcrit.random_graph(10, CLASSIFY_PROBS[gs % 4], gs)
        if factorcrit.deficiency(h) != 2:
            continue
        for u in range(10):
            for v in range(u + 1, 10):
                if h.has_edge(u, v):
                    continue
                plus = factorcrit.add_edge(h, (u, v))
                if factorcrit.min_degree(plus) < 2 or not factorcrit.has_perfect_matching(plus):
                    continue
                ent = factorcrit.classify(h, (u, v)).canonical
                pairs.append({
                    "seed": gs, "h": list(h.adj), "e": [u, v], "label": ent.label.value,
                    "x": _bits(ent.witness.x),
                    "components": [_bits(c.vertices) for c in ent.witness.components],
                    "u_component": _bits(ent.u_component), "v_component": _bits(ent.v_component),
                })
    return pairs


def _graph6(rows) -> str:
    n = len(rows)
    bitstr = "".join(str(rows[j] >> i & 1) for j in range(1, n) for i in range(j))
    bitstr += "0" * (-len(bitstr) % 6)
    return chr(n + 63) + "".join(chr(int(bitstr[i:i + 6], 2) + 63) for i in range(0, len(bitstr), 6))


def _relabel(rows, perm) -> tuple[int, ...]:
    out = [0] * len(rows)
    for u, row in enumerate(rows):
        for v in checks.bits(row):
            out[perm[u]] |= 1 << perm[v]
    return tuple(out)


def _records(sweep) -> list[dict]:
    return [json.loads(line) for line in sweep["out"].splitlines()]


def _set_records(sweep, records) -> None:
    sweep["out"] = "".join(json.dumps(r) + "\n" for r in records)


# --- corruptions: each edits a deep copy in place --------------------------

def drop_class(classes, sweeps):
    classes[6].pop()


def duplicate_class(classes, sweeps):
    # an isomorphic copy replaces a class, so the count stays right
    classes[6][-1] = _relabel(classes[6][0], [5, 4, 3, 2, 1, 0])


def drop_record(classes, sweeps):
    recs = _records(sweeps[2])
    _set_records(sweeps[2], recs[1:])


def non_kfc_record(classes, sweeps):
    recs = _records(sweeps[2])
    recs[0]["graph6"] = _graph6(classes[6][0])  # the empty graph
    _set_records(sweeps[2], recs)


def flip_minimal(classes, sweeps):
    recs = _records(sweeps[2])
    recs[0]["is_minimal"] = not recs[0]["is_minimal"]
    _set_records(sweeps[2], recs)


def wrong_min_degree(classes, sweeps):
    recs = _records(sweeps[2])
    recs[0]["min_degree"] += 1
    _set_records(sweeps[2], recs)


def sweep_exit_code(classes, sweeps):
    sweeps[0]["code"] = 1


def _first_result(starts):
    start = next(s for s in starts if s["out"])
    rec = json.loads(start["out"])
    return start, rec, checks.decode_graph6(rec["graph6"])[1]


def _put(start, rec, rows):
    rec["graph6"] = _graph6(rows)
    start["out"] = json.dumps(rec) + "\n"


def edge_outside_start(starts):
    start, rec, rows = _first_result(starts)
    src = checks.gnp(12, 0.8, start["seed"])
    u, v = next((u, v) for u in range(12) for v in range(u + 1, 12) if not src[u] >> v & 1)
    _put(start, rec, checks.with_edge(rows, u, v))


def edge_put_back(starts):
    start, rec, rows = _first_result(starts)
    src = checks.gnp(12, 0.8, start["seed"])
    u, v = next((u, v) for u, v in checks.edges(src) if not rows[u] >> v & 1)
    _put(start, rec, checks.with_edge(rows, u, v))


def edge_removed(starts):
    start, rec, rows = _first_result(starts)
    _put(start, rec, checks.without_edge(rows, *checks.edges(rows)[0]))


def wrong_start_seed(starts):
    start, _, _ = _first_result(starts)
    start["seed"] += 10_000


def dropped_result(starts):
    start, _, _ = _first_result(starts)
    start["out"] = ""


def wrong_label(pairs):
    pairs[0]["label"] = "C1" if pairs[0]["label"] != "C1" else "C2"


def shrunk_x(pairs):
    pair = next(p for p in pairs if p["x"])
    pair["x"] = pair["x"][1:]


def merged_components(pairs):
    pair = pairs[0]
    first, second, *rest = pair["components"]
    pair["components"] = [sorted(first + second), *rest]


def swapped_endpoints(pairs):
    pairs[0]["u_component"], pairs[0]["v_component"] = pairs[0]["v_component"], pairs[0]["u_component"]


def matchable_input(pairs):
    # K10 minus the designated edge has a perfect matching
    u, v = pairs[0]["e"]
    rows = [((1 << 10) - 1) ^ (1 << w) for w in range(10)]
    pairs[0]["h"] = list(checks.without_edge(rows, u, v))


def main() -> int:
    classes, sweeps = exhaustive_output()
    starts = sample_output()
    pairs = classify_output()
    cases = [
        ("exhaustive", checks.check_exhaustive, (classes, sweeps),
         [drop_class, duplicate_class, drop_record, non_kfc_record, flip_minimal,
          wrong_min_degree, sweep_exit_code]),
        ("sample", lambda st: checks.check_sample(st, 12, 2, 0.8), (starts,),
         [edge_outside_start, edge_put_back, edge_removed, wrong_start_seed, dropped_result]),
        ("classify", checks.check_classified, (pairs,),
         [wrong_label, shrunk_x, merged_components, swapped_endpoints, matchable_input]),
    ]
    bad = 0
    for name, check, clean, corruptions in cases:
        problems = check(*clean)
        print(f"{name}: clean output {'passes' if not problems else 'FAILS: ' + problems[0]}")
        bad += bool(problems)
        for corrupt in corruptions:
            data = copy.deepcopy(clean)
            corrupt(*data)
            problems = check(*data)
            verdict = "rejected:" if problems else "NOT REJECTED"
            print(f"{name}: {corrupt.__name__}: {verdict}")
            for line in problems:
                print(f"    {line}")
            bad += not problems
    print("selftest passed" if not bad else f"selftest failed: {bad} case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
