#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 bench/steadiness.py --runs 10 [--record bench/baseline.json]

Runs `bench/run.py` once per seed and workload of BENCHMARK.json (workloads
interleaved, seeds 0 .. runs-1, run length from BENCHMARK.json) and prints,
for every end-to-end metric, the sample count, median, quartiles and the
spread (q3 - q1) / median as `statistics.quantiles(values, n=4)` gives
them, beside the metric's bound.  --record appends the same table, as one
set of runs, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", type=Path, help="write the table as JSON")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.runs))
    samples = {w: [] for w in workloads}
    all_correct = True
    for seed in seeds:
        for w in workloads:
            result = run_once(w, seed, seconds)
            all_correct &= result["correct"]
            samples[w].append(result["metrics"])
            print(f"seed {seed} {w}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)

    table = {}
    print(f"{'workload':12} {'metric':12} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10}"
          f" {'spread':>7} {'bound':>6}")
    for w in workloads:
        table[w] = {}
        for m in spec["end_to_end"]:
            stats = summarize([s[m["name"]]["value"] for s in samples[w]], m["bound"])
            table[w][m["name"]] = stats
            flag = "" if stats["spread"] <= m["bound"] / 3 else "  > bound/3"
            print(f"{w:12} {m['name']:12} {stats['n']:3} {stats['median']:10.4g} "
                  f"{stats['q1']:10.4g} {stats['q3']:10.4g} {stats['spread']:7.3f} "
                  f"{m['bound']:6.2f}{flag}")
    print(f"all runs correct: {all_correct}")
    if args.record:
        record = {"run_seconds": seconds, "seeds": seeds, "all_correct": all_correct,
                  "python": platform.python_version(), "machine": platform.machine(),
                  "cpus": os.cpu_count(), "workloads": table}
        sets = json.loads(args.record.read_text())["sets"] if args.record.exists() else []
        args.record.write_text(json.dumps({"sets": sets + [record]}, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
