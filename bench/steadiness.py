"""Runs one workload repeatedly and reports how steady each metric is.

    python3 bench/steadiness.py --workload NAME [--seeds 0 1 ... 9]
                                [--trace] [--against FILE]

Each run is ``bench/run.py`` with one of the seeds and the ``run_seconds``
of BENCHMARK.json, one after another. Per metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, beside the metric's bound. With ``--against`` it
also prints how far each median moved from an earlier set. With ``--trace``
it runs the traced mode and, for a seed given twice, reports whether every
count repeated exactly. The set is saved to
bench/results/steadiness-NAME[-trace]-FIRSTSEED.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--against", help="an earlier steadiness file of the same workload")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in kinds}

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "1" if args.trace else "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    earlier = {}
    if args.against:
        earlier = json.loads(Path(args.against).read_text())["summary"]
    summary = {}
    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": values, "bound": bounds[name]}
        bound = f"{bounds[name]:.2f}" if bounds[name] is not None else "-"
        line = f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {bound:>6}"
        if name in earlier and earlier[name]["median"]:
            line += f"  median moved {med / earlier[name]['median'] - 1:+.2%}"
        print(line)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"\nfailed share per run: {sorted(shares)}")
    print(f"all runs correct: {all(r['correct'] for r in runs)}")
    if args.trace:
        counts = [n for n, m in runs[0]["metrics"].items() if m["unit"] == "count"]
        for seed in sorted({s for s in args.seeds if args.seeds.count(s) > 1}):
            same = [r for r in runs if r["seed"] == seed]
            differ = [n for n in counts if len({r["metrics"][n]["value"] for r in same}) > 1]
            print(f"seed {seed}, {len(same)} traced runs: "
                  f"{len(counts) - len(differ)} of {len(counts)} counts identical {differ or ''}")
    tag = "-trace" if args.trace else ""
    out = BENCH / "results" / f"steadiness-{args.workload}{tag}-{args.seeds[0]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    print(f"saved {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
