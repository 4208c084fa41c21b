"""Runs one workload of the benchmark in a fresh process.

    python3 bench/worker.py --workload NAME --seed N (--seconds T | --rounds R)
                            [--trace-out PATH] [--setup-only]

The worker imports factorcrit from ``src/`` of the checkout it sits in,
prints ``ready`` once it can start work, runs whole rounds of the workload
until ``--seconds`` have passed (or exactly ``--rounds`` rounds), and prints
one JSON line with its timings, peak RSS and the program's outputs. It runs
single-threaded and never passes ``--jobs``. ``bench/run.py`` spawns it.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import factorcrit  # noqa: E402
from factorcrit import cli  # noqa: E402
from speed import Speedometer, probe  # noqa: E402

if not Path(factorcrit.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"factorcrit was imported from {factorcrit.__file__}, not from {ROOT / 'src'}")

WORKLOADS = ("exhaustive8", "sample12", "classify10")

# criterion-3 sweeps; together they scan 39,483 graphs
SWEEP_PAIRS = ((4, 2), (5, 1), (6, 2), (6, 4), (7, 1), (7, 3), (8, 2), (8, 4), (8, 6))
# the sweep phase is short, so it runs three times for steadier latencies
SWEEP_PASSES = 3
SAMPLE_N, SAMPLE_K, SAMPLE_P = 12, 2, 0.8
STARTS_PER_ROUND = 16
CLASSIFY_PROBS = (0.2, 0.25, 0.3, 0.35)
GRAPHS_PER_ROUND = 256
# consecutive input seeds start at workload seed * stride, so the windows of
# different workload seeds never overlap
SAMPLE_STRIDE = 1 << 20
CLASSIFY_STRIDE = 1 << 24

clock = time.perf_counter


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


class Run:
    """Timings and outputs of one worker run."""

    def __init__(self) -> None:
        # (start, end) clock readings
        self.calls: list[tuple[float, float]] = []
        self.rounds: list[tuple[float, float]] = []
        self.item_spans: list[tuple[float, float]] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outputs: dict = {}

    def cli(self, argv: list[str]) -> dict:
        """One in-process ``factorcrit`` invocation with its output captured."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = clock()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        self.calls.append((t0, clock()))
        if code != 0:
            self.failed += 1
            self.failures.append(f"{' '.join(argv)}: exit {code}")
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def exhaustive8(run: Run, seed: int, round_no: int) -> None:
    """Enumerate every class of order 1..8, then run the nine sweeps three
    times on the cached classes. The inputs are exhaustive, so the seed is
    not used."""
    del seed, round_no
    classes = {}
    for n in range(1, 9):
        run.attempted += 1
        classes[n] = [g.adj for g in factorcrit.all_graphs(n)]
    sweeps = []
    t0 = clock()
    for n, k in SWEEP_PAIRS * SWEEP_PASSES:
        res = run.cli(["verify", "--n", str(n), "--k", str(k), "--source", "all", "--format", "json"])
        sweeps.append({"n": n, "k": k, **res})
        run.items += len(classes[n])
    run.item_spans.append((t0, clock()))
    run.outputs = {"classes": classes, "sweeps": sweeps}


def sample12(run: Run, seed: int, round_no: int) -> None:
    """Minimalize sampled dense starts at n = 12, k = 2, one verify call each."""
    t0 = clock()
    run.outputs.setdefault("params", {"n": SAMPLE_N, "k": SAMPLE_K, "p": SAMPLE_P})
    starts = run.outputs.setdefault("starts", [])
    first = seed * SAMPLE_STRIDE + round_no * STARTS_PER_ROUND
    for s in range(first, first + STARTS_PER_ROUND):
        res = run.cli([
            "verify", "--n", str(SAMPLE_N), "--k", str(SAMPLE_K), "--source", "sample",
            "--p", str(SAMPLE_P), "--samples", "1", "--seed", str(s), "--format", "json",
        ])
        starts.append({"seed": s, **res})
        run.items += 1
    run.item_spans.append((t0, clock()))


def classify10(run: Run, seed: int, round_no: int) -> None:
    """Screen seeded G(10, p) for deficiency exactly 2, keep the non-edges e
    with h + e perfectly matchable and min degree >= 2, classify each pair."""
    t0 = clock()
    pairs = run.outputs.setdefault("pairs", [])
    first = seed * CLASSIFY_STRIDE + round_no * GRAPHS_PER_ROUND
    for i in range(GRAPHS_PER_ROUND):
        gs = first + i
        h = factorcrit.random_graph(10, CLASSIFY_PROBS[i % 4], gs)
        run.items += 1
        if factorcrit.deficiency(h) != 2:
            continue
        qualifying = []
        for u in range(10):
            for v in range(u + 1, 10):
                if h.has_edge(u, v):
                    continue
                plus = factorcrit.add_edge(h, (u, v))
                if factorcrit.min_degree(plus) >= 2 and factorcrit.has_perfect_matching(plus):
                    qualifying.append((u, v))
        for e in qualifying:
            run.attempted += 1
            c0 = clock()
            try:
                entry = factorcrit.classify(h, e).canonical
            except Exception as exc:  # a failed call is counted, the run goes on
                run.calls.append((c0, clock()))
                run.failed += 1
                run.failures.append(f"classify seed {gs} edge {e}: {exc!r}")
                continue
            run.calls.append((c0, clock()))
            pairs.append({
                "seed": gs, "h": list(h.adj), "e": list(e), "label": entry.label.value,
                "x": _bits(entry.witness.x),
                "components": [_bits(c.vertices) for c in entry.witness.components],
                "u_component": _bits(entry.u_component), "v_component": _bits(entry.v_component),
            })
    run.item_spans.append((t0, clock()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    step = globals()[args.workload]
    print("ready", flush=True)
    # the reference kernel right after set-up, to normalise the set-up time by
    ready_probe_s = statistics.median(probe() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"ready_probe_s": ready_probe_s}))
        return 0
    if (args.seconds is None) == (args.rounds is None):
        ap.error("give exactly one of --seconds and --rounds")

    tracer = speedometer = None
    if args.trace_out:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        speedometer = Speedometer()
        speedometer.start()
    run = Run()
    t0 = clock()
    rounds = 0
    while True:
        r0 = clock()
        step(run, args.seed, rounds)
        rounds += 1
        run.rounds.append((r0, clock()))
        if args.workload == "exhaustive8" or rounds == args.rounds:
            break
        if args.seconds is not None and clock() - t0 >= args.seconds:
            break
    wall_s = clock() - t0
    probes = speedometer.stop() if speedometer is not None else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "wall_s": wall_s, "ready_probe_s": ready_probe_s, "rounds": run.rounds, "calls": run.calls,
        "item_spans": run.item_spans, "items": run.items, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures, "rss_mb": rss_mb, "outputs": run.outputs,
    }
    if probes is not None:
        result["probes"] = probes
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(wall_s)
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
