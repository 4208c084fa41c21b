"""Benchmark of factorcrit: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {exhaustive8,sample12,classify10}
                         --seed N --seconds T --trace {0,1}

Run it from anywhere inside a checkout; it needs ``src/factorcrit`` next to
``bench/``. Each workload runs in a fresh worker process (bench/worker.py)
that drives factorcrit through ``factorcrit.cli.main`` and the public
functions. The outputs are then checked by independent code (bench/checks.py).

With ``--trace 0`` the last line holds the end-to-end metrics: the median
set-up time of five fresh workers, and the worker's peak RSS, round time,
throughput and call latencies. With ``--trace 1`` a fixed number of rounds
runs in two workers side by side, one untraced and one traced
(bench/tracing.py), and the last line holds the per-layer metrics, the
traced wall time and the tracing overhead.
Results and spans are also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import REFERENCE_S, Normaliser

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("exhaustive8", "sample12", "classify10")
# everything, checks included, ends this long after the start
LIMIT_S = 170.0
SETUP_SAMPLES = 5
# a traced run makes this many rounds per requested second (about the
# untraced pace), so its counts depend only on workload, seed and seconds;
# exhaustive8 always makes one round
TRACE_ROUNDS_PER_S = {"exhaustive8": 0.0, "sample12": 1.0, "classify10": 8.0}


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process (bench/worker.py), killed at the deadline."""

    def __init__(self, args: list[str], deadline: float) -> None:
        self.args = args
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def result(self) -> tuple[float, dict]:
        """Seconds from the start until the worker reported ready, and its
        result."""
        try:
            ready = self.proc.stdout.readline()
            ready_s = time.perf_counter() - self.t0
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.close()
        if ready.strip() != "ready" or self.proc.returncode != 0:
            raise WorkerError(f"worker {' '.join(self.args)} exited with {self.proc.returncode}")
        return ready_s, json.loads(rest.splitlines()[-1])

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def check(workload: str, outputs: dict) -> list[str]:
    import checks

    if workload == "exhaustive8":
        classes = {int(n): [tuple(r) for r in rows] for n, rows in outputs["classes"].items()}
        return checks.check_exhaustive(classes, outputs["sweeps"])
    if workload == "sample12":
        return checks.check_sample(outputs["starts"], **outputs["params"])
    return checks.check_classified(outputs["pairs"])


def end_to_end(run: dict, setup: list[tuple[float, float]]) -> dict:
    """Speed-normalised end-to-end metrics (see bench/speed.py); ``setup``
    holds (seconds to ready, reference duration right after) per worker."""
    norm = Normaliser(run["probes"])
    calls_ms = [norm.seconds(a, b) * 1000 for a, b in run["calls"]]
    items_s = sum(norm.seconds(a, b) for a, b in run["item_spans"])
    return {
        "setup_s": (statistics.median(s * REFERENCE_S / r for s, r in setup), "s"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
        "round_s": (statistics.mean(norm.seconds(a, b) for a, b in run["rounds"]), "s"),
        "items_per_s": (run["items"] / items_s, "1/s"),
        "call_p50_ms": (statistics.median(calls_ms), "ms"),
        "call_p90_ms": (statistics.quantiles(calls_ms, n=10, method="inclusive")[8], "ms"),
    }


def per_layer(plain: dict, traced: dict) -> tuple[dict, list[str]]:
    from tracing import PER_LAYER, TRACE_METRICS, UNITS

    trace = traced["trace"]
    values = dict(trace["metrics"])
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    problems = []
    if plain["outputs"] != traced["outputs"]:
        problems.append("the traced run produced other outputs than the untraced run")
    total = trace["self_total_s"] + values["trace.outside_spans_s"]
    if not math.isclose(total, values["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"self times and outside time sum to {total}, not {values['trace.wall_s']}")
    units = {name: UNITS[field] for name, (_, field) in PER_LAYER.items()} | TRACE_METRICS
    return {name: (values[name], unit) for name, unit in units.items()}, problems


def main() -> int:
    ap = argparse.ArgumentParser(description="factorcrit benchmark: one workload run")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "factorcrit" / "__init__.py").is_file():
        print(f"error: no factorcrit sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.trace:
            rounds = max(1, round(args.seconds * TRACE_ROUNDS_PER_S[args.workload]))
            fixed = base + ["--rounds", str(rounds)]
            spans = RESULTS / f"spans-{args.workload}.bin"
            # side by side, one per core: the same rounds untraced and traced
            workers = [Worker(fixed, deadline), Worker(fixed + ["--trace-out", str(spans)], deadline)]
            try:
                (_, plain), (_, run) = [w.result() for w in workers]
            finally:
                for w in workers:
                    w.close()
            metrics, problems = per_layer(plain, run)
            for name in run["trace"]["missing"]:
                print(f"trace hook missing: {name}", file=sys.stderr)
        else:
            setup = []
            for _ in range(SETUP_SAMPLES - 1):
                ready_s, probe = Worker(base + ["--setup-only"], deadline).result()
                setup.append((ready_s, probe["ready_probe_s"]))
            ready_s, run = Worker(base + ["--seconds", str(args.seconds)], deadline).result()
            metrics = end_to_end(run, setup + [(ready_s, run["ready_probe_s"])])
            problems = []
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in run["failures"]:
        print(f"operation failed: {line}", file=sys.stderr)
    problems += check(args.workload, run["outputs"])
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "problems": problems}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
