"""Command-line front end and report layer.

Subcommands: ``analyze`` (per-graph criticality report), ``classify``
(fourteen-configuration taxonomy), ``verify`` (minimum-degree sweeps over
exhaustive, file, or sampled sources), ``minimalize``, and ``certify``.

Graph files (a ``--graph`` path or ``-`` for stdin, a ``verify --source
file:`` input) have one reader, so a non-ASCII byte is malformed input like
any other bad line.

Exit codes: 0 all checks passed, 1 mathematical counterexample or failed
check precondition, 2 malformed input, 3 internal invariant failure (a
``RuntimeError``, reported on one ``internal error:`` line). Primary output
is byte-deterministic for fixed (command, flags, seed, input); wall-clock
timestamps appear only in the optional append-only run log.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import chain, islice
from typing import Iterable, Iterator

from .configurations import ClassificationError, classify
from .criticality import (
    NotKFactorCriticalError,
    check_connectivity_properties,
    is_minimal_kfc,
    kfc_and_minimal,
    kfc_and_minimal_batch,
    minimalize,
)
from .decomp import gallai_edmonds
from .enumeration import all_graphs, random_graph, read_graph6_stream
from .graphs import Graph, Graph6Error, GraphError, bits, min_degree, parse_graph6, to_graph6
from .matching import deficiency

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

DEFAULT_SAMPLE_P = 0.8
# graphs per bit-sliced batch of an exhaustive sweep, and per --jobs task
SWEEP_CHUNK = 1024


def _vertices(mask: int) -> list[int]:
    return list(bits(mask))


# ---------------------------------------------------------------------------
# verify machinery
# ---------------------------------------------------------------------------

# a verify record as a worker returns it: (graph6, is_minimal, min_degree) of
# a k-factor-critical graph; non-k-factor-critical graphs give None
Record = tuple[str, bool, int]


def _scan_worker(task: tuple[Graph, int]) -> Record | None:
    g, k = task
    kfc, minimal = kfc_and_minimal(g, k)
    return (to_graph6(g), minimal, min_degree(g)) if kfc else None


def _batch_worker(task: tuple[tuple[Graph, ...], int]) -> list[Record | None]:
    """:func:`_scan_worker` of every graph of one batch, from one call of the
    bit-sliced kernel."""
    graphs, k = task
    kfc, minimal = kfc_and_minimal_batch(graphs, k)
    # bit i at index i; the lanes are read once, never shifted per graph
    kfc_bits = format(kfc, "b")[::-1]
    minimal_bits = format(minimal, f"0{len(kfc_bits)}b")[::-1]
    out: list[Record | None] = [None] * len(graphs)
    i = kfc_bits.find("1")
    while i >= 0:
        g = graphs[i]
        out[i] = (to_graph6(g), minimal_bits[i] == "1", min_degree(g))
        i = kfc_bits.find("1", i + 1)
    return out


def _batches(graphs: Iterable[Graph], k: int) -> Iterator[tuple[tuple[Graph, ...], int]]:
    it = iter(graphs)
    while batch := tuple(islice(it, SWEEP_CHUNK)):
        yield batch, k


def _sample_worker(task: tuple[int, float, int, int]) -> Record | None:
    n, p, k, seed = task
    g = random_graph(n, p, seed)
    try:
        m = minimalize(g, k, seed)
    except NotKFactorCriticalError:
        return None
    return to_graph6(m), True, min_degree(m)


def _format_record(rec: Record, failed: bool, n: int, k: int, fmt: str) -> str:
    g6, minimal, dmin = rec
    verdict = "fail" if failed else "pass"
    # the bytes json.dumps writes, with its key order and separators
    witness = f'{{"min_degree": {dmin}, "expected": {k + 1}}}' if failed else ""
    if fmt == "json":
        g6 = g6.replace("\\", "\\\\")  # the only byte in 63..126 that JSON escapes
        return (f'{{"graph6": "{g6}", "n": {n}, "k": {k}, "is_kfc": true, "is_minimal": '
                f'{"true" if minimal else "false"}, "min_degree": {dmin}, "verdict": "{verdict}", '
                f'"witness": {witness or "null"}}}\n')
    if fmt == "tsv":
        return f"{g6}\t{n}\t{k}\tTrue\t{minimal}\t{dmin}\t{verdict}\t{witness}\n"
    # every record has order n, so its graph6 string has one fixed length
    return f"{g6}  minimal={str(minimal):<5}  min_degree={dmin}  verdict={verdict}\n"


def verify_scan(args: argparse.Namespace) -> int:
    """The ``verify`` subcommand: a minimum-degree sweep over a graph source.

    ``--source`` is ``all``, ``file:PATH``, or ``sample``. Sampling draws
    graph i from seed + i and minimalizes the k-factor-critical ones with
    the same per-sample seed; a minimal graph whose minimum degree is not
    k + 1 is a counterexample.

    Every input check (the flags, the source, the n <= 9 cap of exhaustive
    generation, the 1..64 range of sampled orders, and the order of every
    graph in a ``file:`` source) comes before the first byte is written.
    Records are then written to stdout as they arrive, in input order, also
    under ``--jobs`` > 1 workers; only counts and the counterexamples'
    graph6 strings are kept, and for a ``file:`` source the bytes that were
    read, so that the run log hashes exactly what was scanned. ``all`` is
    decided in batches of ``SWEEP_CHUNK`` classes by the bit-sliced kernel,
    ``file:`` and ``sample`` one graph at a time; the records are the same
    either way.
    Returns the exit code.
    """
    n, k, source, fmt, jobs = args.n, args.k, args.source, args.format, args.jobs
    if (n + k) % 2:
        raise GraphError(f"n + k must be even, got n={n}, k={k}")
    if not 0 <= k < n:
        raise GraphError(f"k={k} outside 0..{n - 1}")
    if args.samples < 1:
        raise GraphError(f"samples={args.samples} must be at least 1")
    if jobs < 1:
        raise GraphError(f"jobs={jobs} must be at least 1")
    if not 0.0 <= args.p <= 1.0:
        raise GraphError(f"edge probability {args.p} outside [0, 1]")

    data = None
    if source == "sample":
        if not 1 <= n <= 64:  # random_graph's range, checked before the tsv header
            raise GraphError(f"vertex count {n} outside 1..64")
        worker, chunk = _sample_worker, max(1, args.samples // (jobs * 8))
        tasks: Iterable = ((n, args.p, k, args.seed + i) for i in range(args.samples))
    elif source == "all":
        # a task is a batch, and its result is a list of per-graph results
        worker, chunk = _batch_worker, 1
        tasks = _batches(all_graphs(n), k)
    elif source.startswith("file:"):
        data, stream = _read_graph6_file(source[len("file:"):])
        graphs = list(stream)
        bad = [g.n for g in graphs if g.n != n]
        if bad:
            raise GraphError(f"input file contains graphs of order {bad[0]}, expected {n}")
        worker, chunk = _scan_worker, 256
        tasks = ((g, k) for g in graphs)
    else:
        raise GraphError(f"unknown source {source!r}")

    pool = None
    if jobs > 1:
        from multiprocessing import Pool  # about 0.6 MB of RSS; only --jobs > 1 needs it

        # forked before the first write, so no worker inherits buffered output
        pool = Pool(jobs)
    out = sys.stdout
    scanned = kfc = minimal = 0
    counterexamples = []
    # leaving the block terminates the workers, also when a record raises
    with pool or nullcontext():
        if fmt == "tsv":
            out.write("graph6\tn\tk\tis_kfc\tis_minimal\tmin_degree\tverdict\twitness\n")
        results = pool.imap(worker, tasks, chunk) if pool else map(worker, tasks)
        if worker is _batch_worker:
            results = chain.from_iterable(results)
        for rec in results:
            scanned += 1
            if rec is None:
                continue
            g6, is_minimal, dmin = rec
            failed = is_minimal and dmin != k + 1
            out.write(_format_record(rec, failed, n, k, fmt))
            kfc += 1
            minimal += is_minimal
            if failed:
                counterexamples.append(g6)

    summary = f"scanned={scanned} kfc={kfc} minimal={minimal} failures={len(counterexamples)}"
    print(summary, file=out if fmt == "human" else sys.stderr)
    for g6 in counterexamples:
        print(f"counterexample: {g6}", file=sys.stderr)
    if args.log:
        import hashlib  # loads OpenSSL (about 3.7 MB of RSS); only the run log needs it
        from datetime import datetime, timezone  # only the run log needs a clock

        if data is None:  # not a file: hash what defines the scanned graphs
            data = f"{source}:n={n}:k={k}:samples={args.samples}:p={args.p}:seed={args.seed}".encode()
        entry = {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "command": " ".join(["factorcrit", *args.argv]),
            "input_digest": hashlib.sha256(data).hexdigest(),
            "seed": args.seed,
            "counts": {"scanned": scanned, "kfc": kfc, "minimal": minimal},
            "verdict": "fail" if counterexamples else "pass",
        }
        with open(args.log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
    return EXIT_COUNTEREXAMPLE if counterexamples else EXIT_OK


# ---------------------------------------------------------------------------
# graph input
# ---------------------------------------------------------------------------


def _read_graph6_file(path: str) -> tuple[bytes, Iterator[Graph]]:
    """The bytes of a graph6 file and a lazy stream of its graphs, split at
    ``\\n``, ``\\r\\n`` and ``\\r`` as by a text-mode open."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, read_graph6_stream(data.splitlines())


def _load_graph(arg: str) -> Graph:
    if arg == "-":
        stream = read_graph6_stream(sys.stdin.buffer.read().splitlines())
    elif os.path.exists(arg):
        stream = _read_graph6_file(arg)[1]
    else:
        return parse_graph6(arg)
    g = next(stream, None)
    if g is None:
        raise Graph6Error(f"no graph6 line in {arg}")
    return g


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    k = args.k
    parity_ok = (g.n + k) % 2 == 0
    report = is_minimal_kfc(g, k)
    ge = gallai_edmonds(g)
    conn_ok = check_connectivity_properties(g, k) if report.is_kfc and k >= 1 else None
    dmin = min_degree(g)
    verdict = "pass"
    if report.is_kfc and report.is_minimal and dmin != k + 1:
        verdict = "fail"
    if conn_ok is False:
        verdict = "fail"
    payload = {
        "graph6": to_graph6(g),
        "n": g.n,
        "k": k,
        "parity_ok": parity_ok,
        "is_kfc": report.is_kfc,
        "failing_set": _vertices(report.failing_set) if report.failing_set is not None else None,
        "is_minimal": report.is_minimal,
        "certificates": [
            {"edge": list(c.edge), "s_e": _vertices(c.s_e)} for c in report.certificates
        ],
        "deletable_edges": [list(e) for e in report.deletable_edges],
        "gallai_edmonds": {"d": _vertices(ge.d), "a": _vertices(ge.a), "c": _vertices(ge.c)},
        "deficiency": deficiency(g),
        "min_degree": dmin,
        "connectivity_ok": conn_ok,
        "verdict": verdict,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"graph: {payload['graph6']}  (n={g.n}, k={k})")
        if not parity_ok:
            print("note: n + k is odd, so the graph cannot be k-factor-critical")
        print(f"k-factor-critical: {report.is_kfc}")
        if report.failing_set is not None:
            print(f"failing set: {_vertices(report.failing_set)}")
        print(f"minimal: {report.is_minimal}")
        if report.deletable_edges:
            print(f"deletable edges: {[list(e) for e in report.deletable_edges]}")
        if report.certificates and report.is_minimal:
            for c in report.certificates:
                print(f"certificate: edge {list(c.edge)} forced by S_e={_vertices(c.s_e)}")
        print(f"gallai-edmonds: D={_vertices(ge.d)} A={_vertices(ge.a)} C={_vertices(ge.c)}")
        print(f"deficiency: {payload['deficiency']}")
        print(f"min degree: {dmin}")
        print(f"connectivity consequences: {conn_ok}")
        print(f"verdict: {verdict}")
    return EXIT_OK if verdict == "pass" else EXIT_COUNTEREXAMPLE


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    try:
        u_s, v_s = args.edge.split(",")
        e = (int(u_s), int(v_s))
    except ValueError:
        raise GraphError(f"--edge expects U,V with integers, got {args.edge!r}") from None
    try:
        result = classify(g, e)
    except ClassificationError as exc:
        print(f"precondition failed ({exc.reason}): {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    entries = [
        {
            "label": ent.label.value,
            "x": _vertices(ent.witness.x),
            "components": [_vertices(c.vertices) for c in ent.witness.components],
            "u_component": _vertices(ent.u_component),
            "v_component": _vertices(ent.v_component),
        }
        for ent in result.entries
    ]
    payload = {
        "graph6": to_graph6(g),
        "edge": [min(e), max(e)],
        "labels": [lab.value for lab in result.labels()],
        "canonical": entries[0],
        "entries": entries,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"graph: {payload['graph6']}  missing edge {payload['edge']}")
        print(f"labels: {', '.join(payload['labels'])}")
        can = entries[0]
        print(
            f"canonical: {can['label']} with X={can['x']}, "
            f"components {can['components']}"
        )
    return EXIT_OK


def _cmd_minimalize(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    try:
        m = minimalize(g, args.k, args.seed)
    except NotKFactorCriticalError:
        print("input graph is not k-factor-critical", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    print(to_graph6(m))
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    report = is_minimal_kfc(g, args.k)
    if not report.is_kfc:
        print("input graph is not k-factor-critical", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    if not report.is_minimal:
        print(
            "not minimal; certificate-free edges: "
            + " ".join(f"({u},{v})" for u, v in report.deletable_edges),
            file=sys.stderr,
        )
        return EXIT_COUNTEREXAMPLE
    if args.format == "json":
        for c in report.certificates:
            print(json.dumps({"edge": list(c.edge), "s_e": _vertices(c.s_e)}))
    else:
        for c in report.certificates:
            print(f"edge ({c.edge[0]},{c.edge[1]}): S_e = {_vertices(c.s_e)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorcrit",
        description="verification toolkit for factor-criticality of small graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="criticality report for one graph")
    an.add_argument("--graph", required=True, help="graph6 string, file path, or - for stdin")
    an.add_argument("--k", type=int, required=True)
    an.add_argument("--format", choices=["human", "json"], default="human")
    an.set_defaults(func=_cmd_analyze)

    cl = sub.add_parser("classify", help="configuration label for a 10-vertex graph")
    cl.add_argument("--graph", required=True)
    cl.add_argument("--edge", required=True, metavar="U,V", help="designated missing edge")
    cl.add_argument("--format", choices=["human", "json"], default="human")
    cl.set_defaults(func=_cmd_classify)

    ve = sub.add_parser("verify", help="minimum-degree sweep over a graph source")
    ve.add_argument("--n", type=int, required=True)
    ve.add_argument("--k", type=int, required=True)
    ve.add_argument("--source", required=True, help="all | file:PATH | sample")
    ve.add_argument("--samples", type=int, default=1000)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--p", type=float, default=DEFAULT_SAMPLE_P,
                    help="edge probability for sampled starts")
    ve.add_argument("--jobs", type=int, default=1)
    ve.add_argument("--format", choices=["human", "json", "tsv"], default="human")
    ve.add_argument("--log", default=None, help="append-only NDJSON run log path")
    ve.set_defaults(func=verify_scan)

    mi = sub.add_parser("minimalize", help="delete edges until minimal k-factor-critical")
    mi.add_argument("--graph", required=True)
    mi.add_argument("--k", type=int, required=True)
    mi.add_argument("--seed", type=int, default=0)
    mi.set_defaults(func=_cmd_minimalize)

    ce = sub.add_parser("certify", help="per-edge certificates of a minimal graph")
    ce.add_argument("--graph", required=True)
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--format", choices=["human", "json"], default="human")
    ce.set_defaults(func=_cmd_certify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv  # for the run log
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
