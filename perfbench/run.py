"""Benchmark for longrates: one workload, one seed, one run.

    python3 perfbench/run.py --workload dir-fleet --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations for about --seconds seconds
(at least one round), checks every output against an independent
computation, and prints one JSON line last: `correct`, `attempted`,
`failed` and the metrics. --trace 0 measures the end-to-end metrics of
BENCHMARK.json with the program untouched. --trace 1 runs one untraced and
one traced round instead, prints the per-layer metrics and writes them to
perfbench/results/.

The package is imported from src/ of the checkout that holds this file; the
run fails when that is missing.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy or longrates load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one process, no worker threads: BLAS pools stay at one thread, for the
# CLI processes too
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "longrates" / "__init__.py").is_file():
        print(f"no longrates package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    seed = args.seed % 2**63
    try:
        setup_s = workload.build(seed, T0)
        workload.warm_up()
        tally = workloads.Tally()
        if args.trace:
            figures = trace(workload, tally)
            kind = "per_layer"
        else:
            start = time.perf_counter()
            last = 0.0
            rounds = 0
            while rounds < workload.min_rounds or time.perf_counter() - start + last <= args.seconds:
                t = time.perf_counter()
                workload.round(tally)
                last = time.perf_counter() - t
                rounds += 1
            print(f"{rounds} rounds in {time.perf_counter() - start:.1f} s; one round took "
                  f"{tally.round_s(scaled=False):.3f} s of wall time, with the reference "
                  f"at {statistics.median(tally.reference) * 1e3:.2f} ms", file=sys.stderr)
            figures = dict(workload.metrics(tally), setup_s=setup_s)
            kind = "end_to_end"
    finally:
        workload.close()

    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    if set(figures) != set(wanted):
        raise RuntimeError(f"metrics {sorted(figures)} do not match {kind} {sorted(wanted)}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(figures[name]), "unit": unit}
                    for name, unit in wanted.items()},
    }
    if args.trace:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        path = results / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def trace(workload, tally) -> dict:
    import tracer

    rec = tracer.Recorder()
    figures = workload.trace(rec, tally)
    figures.update(tracer.layer_metrics(rec))
    figures.update(tracer.import_times(dict(os.environ, PYTHONPATH=str(ROOT / "src")), ROOT))
    return figures


if __name__ == "__main__":
    sys.exit(main())
