"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/baseline.py --workloads studies closed_loop design_scaling \
        --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seed 1 \
        --out bench/BASELINE.json

Run from the root of a checkout. For every workload it runs bench/run.py
for the run_seconds of BENCHMARK.json, once per seed with tracing off and,
with --traced-seed, once more with tracing on. For each end-to-end metric
it reports the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread: the distance between the quartiles as a share of the
median. Raw results go to bench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")


def run_once(workload, seed, seconds, trace):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", out,
    ]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "n": len(values),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": {},
        }
        for name in runs[0]["table"]:
            values = [r["table"][name][0] for r in runs]
            if min(values) > 0:
                entry["end_to_end"][name] = {"unit": runs[0]["table"][name][1], **spread(values)}
        for name, stats in entry["end_to_end"].items():
            print(
                f"{workload:<15} {name:<12} median {stats['median']:10.4f} "
                f"spread {stats['spread']:.4f}"
            )
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, seconds, 1)
            entry["traced_seed"] = args.traced_seed
            entry["per_layer"] = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in traced["table"].items()
                if name not in runs[0]["table"]
            }
        entry["manifest"] = runs[0]["manifest"]
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
