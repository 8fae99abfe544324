"""Steadiness mode: repeat the benchmark and report each metric's spread.

    python3 perfbench/steady.py [--workloads dir-fleet exact-lab] [--first-seed 1]

Runs `run.py` ten times, one seed per run and one run at a time, for each
workload, at the run length of BENCHMARK.json. For
every end-to-end metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the interquartile range
as a share of the median, next to the metric's bound in BENCHMARK.json, and
it prints the failed share of each run. A metric whose spread is not below
a third of its bound is marked WIDE, and the exit code is then 1. The
figures go to perfbench/results/steady-<workload>.json as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (HERE / "results").mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        summary = {"workload": workload, "seconds": spec["run_seconds"], "runs": runs,
                   "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                        "iqr_share": share, "bound": bound}
            # the benchmark is steady when every spread stays below a third of
            # its bound
            ok = share < bound / 3
            steady &= ok and all(r["correct"] for r in runs)
            print(f"  {name:12s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"iqr/median {share:6.3f}  bound {bound:.2f}  {'ok' if ok else 'WIDE'}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share per run: {sorted(shares)}")
        (HERE / "results" / f"steady-{workload}.json").write_text(
            json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
