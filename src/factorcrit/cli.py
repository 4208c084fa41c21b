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
from contextlib import ExitStack
from functools import cache, partial
from itertools import chain, compress, islice, repeat
from typing import Iterable, Iterator

from .configurations import ClassificationError, classify
from .criticality import (
    NotKFactorCriticalError,
    _batch_kernel,
    _edge_lanes,
    check_connectivity_properties,
    is_minimal_kfc,
    kfc_and_minimal,
    minimalize,
)
from .decomp import gallai_edmonds
from .enumeration import _check_probability, _representatives, random_graph, read_graph6_stream
from .graphs import (
    MAX_VERTICES, Graph, Graph6Error, GraphError, _check_int, _pack_rows, _rows_graph6, _rows_min_degrees, bits,
    min_degree, parse_graph6, to_graph6,
)
from .matching import deficiency

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

DEFAULT_SAMPLE_P = 0.8
# classes per bit-sliced batch of an exhaustive sweep, and results per batch
# of records of a per-graph source
SWEEP_CHUNK = 4096


def _vertices(mask: int) -> list[int]:
    return list(bits(mask))


# ---------------------------------------------------------------------------
# verify machinery
# ---------------------------------------------------------------------------


def _sample_worker(task: tuple[int, float, int, int]) -> Graph | None:
    n, p, k, seed = task
    try:
        return minimalize(random_graph(n, p, seed), k, seed)
    except NotKFactorCriticalError:
        return None


@cache
def _sweep_batches(n: int) -> tuple[tuple[tuple[Graph, ...], list[list[int]]], ...]:
    """Each ``SWEEP_CHUNK`` slice of the order-n classes with its edge lanes,
    built at the order's first sweep and shared by every later one. The
    kernel only reads them."""
    graphs = _representatives(n)
    chunks = [graphs[i:i + SWEEP_CHUNK] for i in range(0, len(graphs), SWEEP_CHUNK)]
    return tuple((chunk, _edge_lanes(chunk, n)) for chunk in chunks)


_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _lane_flags(lane: int, count: int) -> bytes:
    """Byte i is bit i of ``lane``, for i < count."""
    return format(lane, f"0{count}b")[::-1].encode("ascii").translate(_DIGIT_VALUES)


def _kernel_batches(n: int, k: int) -> Iterator[tuple[list[Graph], bytes]]:
    """The k-factor-critical order-n classes of each ``SWEEP_CHUNK`` batch, in
    order, and their minimal flags, decided in this process by the kernel."""
    for classes, lanes in _sweep_batches(n):
        kfc, minimal = _batch_kernel(lanes, n, k, len(classes))
        if not kfc:  # most batches of a large k, and nothing to write
            continue
        selected = _lane_flags(kfc, len(classes))
        yield list(compress(classes, selected)), bytes(compress(_lane_flags(minimal, len(classes)), selected))


def _graph_batches(results: Iterable[tuple[Graph | None, bool]]) -> Iterator[tuple[list[Graph], bytes]]:
    """The graphs and minimal flags of each run of ``SWEEP_CHUNK`` per-graph
    results, without the results whose graph is ``None``."""
    results = iter(results)
    while chunk := list(islice(results, SWEEP_CHUNK)):
        kept = [(g, m) for g, m in chunk if g is not None]
        yield [g for g, _ in kept], bytes(m for _, m in kept)


@cache
def _record_parts(n: int, k: int, fmt: str) -> tuple[str, tuple[str, ...], bytes]:
    """The text of an order-n record before its graph6 string, the text
    after it for each key 2 * min_degree + is_minimal, and which keys fail:
    a minimal graph whose minimum degree is not k + 1."""
    head = '{"graph6": "' if fmt == "json" else ""
    tails, failed = [], bytearray(256)
    for key in range(2 * n):
        dmin, minimal = key >> 1, bool(key & 1)
        failed[key] = fail = minimal and dmin != k + 1
        verdict = "fail" if fail else "pass"
        # the bytes json.dumps writes, with its key order and separators
        witness = f'{{"min_degree": {dmin}, "expected": {k + 1}}}' if fail else ""
        if fmt == "json":
            tails.append(f'", "n": {n}, "k": {k}, "is_kfc": true, "is_minimal": {"true" if minimal else "false"}, '
                         f'"min_degree": {dmin}, "verdict": "{verdict}", "witness": {witness or "null"}}}\n')
        elif fmt == "tsv":
            tails.append(f"\t{n}\t{k}\tTrue\t{minimal}\t{dmin}\t{verdict}\t{witness}\n")
        else:
            # every record has order n, so its graph6 string has one fixed length
            tails.append(f"  minimal={str(minimal):<5}  min_degree={dmin}  verdict={verdict}\n")
    return head, tuple(tails), bytes(failed)


def _format_records(g6s: list[str], minimal: bytes, dmins: bytes, n: int, k: int, fmt: str) -> tuple[str, list[str]]:
    """The records of k-factor-critical graphs of order n, given their graph6
    strings, minimal flags and minimum degrees, and the graph6 strings of
    the counterexamples among them."""
    head, tails, failed = _record_parts(n, k, fmt)
    keys = (int.from_bytes(dmins, "little") << 1 | int.from_bytes(minimal, "little")).to_bytes(len(g6s), "little")
    hits = keys.translate(failed)
    counterexamples = list(compress(g6s, hits)) if 1 in hits else []
    if fmt == "json":
        # the only byte in 63..126 that JSON escapes, escaped once per batch
        g6s = "\n".join(g6s).replace("\\", "\\\\").split("\n")
    # head, graph6 and tail of each record, joined with no string per record
    return "".join(chain.from_iterable(zip(repeat(head), g6s, map(tails.__getitem__, keys)))), counterexamples


def _records(graphs: list[Graph], minimal: bytes, n: int, k: int, fmt: str) -> tuple[str, list[str]]:
    """:func:`_format_records` of a batch of k-factor-critical graphs of order
    n: graph6 strings and minimum degrees come from one packing of its rows.

    Every k-factor-critical graph has minimum degree at least k + 1
    (deleting k vertices that hold the neighbours of a vertex of degree at
    most k isolates it), so a batch with a smaller minimum degree holds a
    wrong verdict: ``RuntimeError``."""
    packed = _pack_rows(graphs, n)
    g6s = _rows_graph6(packed, n, len(graphs)).decode("ascii").split("\n")[:-1]
    dmins = _rows_min_degrees(packed, n, len(graphs))
    low = min(dmins, default=k + 1)
    if low <= k:
        raise RuntimeError(f"{g6s[dmins.index(low)]} was decided {k}-factor-critical with minimum degree {low}")
    return _format_records(g6s, minimal, dmins, n, k, fmt)


def verify_scan(args: argparse.Namespace) -> int:
    """The ``verify`` subcommand: a minimum-degree sweep over a graph source.

    ``--source`` is ``all``, ``file:PATH``, or ``sample``. Sampling draws
    graph i from seed + i and minimalizes the k-factor-critical ones with
    the same per-sample seed; a minimal graph whose minimum degree is not
    k + 1 is a counterexample.

    Every input check (the flags, the edge probability, the source, the
    n <= 9 cap of exhaustive generation, the 1..64 range of sampled orders,
    the order of every graph in a ``file:`` source, and opening the run log
    for append) comes before the first byte is written; the log entry is
    written after the sweep.
    Each source yields its k-factor-critical graphs and their minimal flags
    in batches, in input order, and the parent alone writes each batch's
    records to stdout with one write: graph6 strings and minimum degrees
    from one packing of the batch's rows, the rest from cached templates.
    Only counts and the counterexamples' graph6 strings are kept, and for a
    ``file:`` source the bytes that were read, so that the run log hashes
    exactly what was scanned. ``all`` is decided in this process, in
    batches of ``SWEEP_CHUNK`` classes by the bit-sliced kernel, on edge
    lanes built at an order's first sweep in the process and never written,
    and each is a batch of records; ``file:`` and ``sample`` are decided one
    graph at a time, each result a graph or ``None`` and a minimal flag, and
    each ``SWEEP_CHUNK`` results are a batch of records. The records are the
    same either way.

    ``--jobs`` > 1 fans ``file:`` and ``sample`` out over at most
    min(jobs, ``os.cpu_count()``, inputs) workers, in a pool only from two
    inputs up; the output does not depend on their number. Tasks carry all
    they need, so any start method works. ``all`` starts no worker: a whole
    order-9 kernel sweep takes less time than starting one. Returns the exit code.
    """
    n, k, source, fmt, jobs = args.n, args.k, args.source, args.format, args.jobs
    if (n + k) % 2:
        raise GraphError(f"n + k must be even, got n={n}, k={k}")
    _check_int("k", k, 0, n - 1)
    _check_int("samples", args.samples, 1)
    _check_int("jobs", jobs, 1)
    _check_probability(args.p)

    data, worker = None, None
    if source == "sample":
        _check_int("vertex count", n, 1, MAX_VERTICES)  # random_graph's check, before the tsv header
        scanned = args.samples
        worker, tasks = _sample_worker, ((n, args.p, k, args.seed + i) for i in range(scanned))
        # a sampled graph is minimal by construction
        shaped = lambda results: zip(results, repeat(True))
    elif source == "all":
        scanned = len(_representatives(n))  # refuses n > 9 before the first byte
    elif source.startswith("file:"):
        data, stream = _read_graph6_file(source[len("file:"):])
        graphs = list(stream)
        bad = [g.n for g in graphs if g.n != n]
        if bad:
            raise GraphError(f"input file contains graphs of order {bad[0]}, expected {n}")
        scanned = len(graphs)
        worker, tasks = partial(kfc_and_minimal, k=k), graphs
        # a result is two flags: no graph is pickled back
        shaped = lambda results: ((g if is_kfc else None, m) for g, (is_kfc, m) in zip(graphs, results))
    else:
        raise GraphError(f"unknown source {source!r}")

    workers = min(jobs, os.cpu_count() or 1, scanned) if worker and jobs > 1 and scanned > 1 else 1
    out = sys.stdout
    kfc = minimal = 0
    counterexamples = []
    # leaving the block closes the log and terminates the workers, also when a record raises
    with ExitStack() as stack:
        # opened before the first byte, so that a log that cannot be opened writes nothing
        log = stack.enter_context(open(args.log, "a", encoding="utf-8")) if args.log else None
        pool = None
        if workers > 1:
            from multiprocessing import Pool  # about 0.6 MB of RSS; only --jobs > 1 needs it

            # forked before the first write, so no worker inherits buffered output
            pool = stack.enter_context(Pool(workers))
        if fmt == "tsv":
            out.write("graph6\tn\tk\tis_kfc\tis_minimal\tmin_degree\tverdict\twitness\n")
        if worker is None:
            batches = _kernel_batches(n, k)
        else:
            # imap builds each chunk as one tuple first: at most one record batch
            chunk = max(1, min(SWEEP_CHUNK, scanned // (workers * 8)))
            results = pool.imap(worker, tasks, chunk) if pool else map(worker, tasks)
            batches = _graph_batches(shaped(results))
        for graphs, flags in batches:
            text, failed = _records(graphs, flags, n, k, fmt)
            out.write(text)
            kfc += len(graphs)
            minimal += flags.count(1)
            counterexamples += failed
        if log:
            import hashlib  # loads OpenSSL (about 3.7 MB of RSS); only the run log needs it
            import shlex  # only the run log needs a shell-quoted command line
            from datetime import datetime, timezone  # only the run log needs a clock

            if data is None:  # not a file: hash what defines the scanned graphs
                data = f"{source}:n={n}:k={k}:samples={args.samples}:p={args.p}:seed={args.seed}".encode()
            entry = {
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "command": shlex.join(["factorcrit", *args.argv]),
                "input_digest": hashlib.sha256(data).hexdigest(),
                "seed": args.seed,
                "counts": {"scanned": scanned, "kfc": kfc, "minimal": minimal},
                "verdict": "fail" if counterexamples else "pass",
            }
            log.write(json.dumps(entry) + "\n")

    summary = f"scanned={scanned} kfc={kfc} minimal={minimal} failures={len(counterexamples)}"
    print(summary, file=out if fmt == "human" else sys.stderr)
    for g6 in counterexamples:
        print(f"counterexample: {g6}", file=sys.stderr)
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
    if conn_ok is False:  # theorems about k-FC graphs: the decider is wrong
        raise RuntimeError(f"{to_graph6(g)} was decided {k}-factor-critical but fails its connectivity consequences")
    dmin = min_degree(g)
    verdict = "fail" if report.is_kfc and report.is_minimal and dmin != k + 1 else "pass"
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built at the first :func:`main` call
    and reused by every later one in the process.

    Reuse carries no state from one call to the next: no argument appends
    to a default, and ``parse_args`` returns a fresh ``Namespace`` each
    time. A subcommand's default ``func`` is the name of its function, which
    ``main`` looks up in this module on each call, so a function replaced
    after the first call (a test's patch, a tracing hook) is the one that
    runs."""
    parser = argparse.ArgumentParser(
        prog="factorcrit",
        description="verification toolkit for factor-criticality of small graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="criticality report for one graph")
    an.add_argument("--graph", required=True, help="graph6 string, file path, or - for stdin")
    an.add_argument("--k", type=int, required=True)
    an.add_argument("--format", choices=["human", "json"], default="human")
    an.set_defaults(func="_cmd_analyze")

    cl = sub.add_parser("classify", help="configuration label for a 10-vertex graph")
    cl.add_argument("--graph", required=True)
    cl.add_argument("--edge", required=True, metavar="U,V", help="designated missing edge")
    cl.add_argument("--format", choices=["human", "json"], default="human")
    cl.set_defaults(func="_cmd_classify")

    ve = sub.add_parser("verify", help="minimum-degree sweep over a graph source")
    ve.add_argument("--n", type=int, required=True)
    ve.add_argument("--k", type=int, required=True)
    ve.add_argument("--source", required=True, help="all | file:PATH | sample")
    ve.add_argument("--samples", type=int, default=1000)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--p", type=float, default=DEFAULT_SAMPLE_P,
                    help="edge probability for sampled starts")
    ve.add_argument("--jobs", type=int, default=1,
                    help="workers for file: and sample; all is decided in this process")
    ve.add_argument("--format", choices=["human", "json", "tsv"], default="human")
    ve.add_argument("--log", default=None, help="append-only NDJSON run log path")
    ve.set_defaults(func="verify_scan")

    mi = sub.add_parser("minimalize", help="delete edges until minimal k-factor-critical")
    mi.add_argument("--graph", required=True)
    mi.add_argument("--k", type=int, required=True)
    mi.add_argument("--seed", type=int, default=0)
    mi.set_defaults(func="_cmd_minimalize")

    ce = sub.add_parser("certify", help="per-edge certificates of a minimal graph")
    ce.add_argument("--graph", required=True)
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--format", choices=["human", "json"], default="human")
    ce.set_defaults(func="_cmd_certify")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv  # for the run log
    try:
        return globals()[args.func](args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
