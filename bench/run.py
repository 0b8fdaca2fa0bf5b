"""cubicobs benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload studies --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Every process is a fresh single-threaded interpreter (BLAS pinned to one
thread). Set-up is timed in SETUP_PROBES extra processes and in the
measuring one, and reported as the median. The measuring process runs
passes of the workload for --seconds and at least two. A pass time is the
sum over its operations of each operation's median over passes, which
damps machine noise better than the median of whole passes. Outputs are
checked on every pass (see workloads.py).

Standard output: a table of every metric with its unit, a ``manifest``
line, and as the last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. --out FILE also writes everything,
including each pass and the full per-layer table, as JSON.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("studies", "closed_loop", "design_scaling")
SETUP_PROBES = 6
# whole-run budget; the driver allows 180 s
DEADLINE_S = 170.0
SINGLE_THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END = {"wall_s": "s", "compute_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# reported on every workload, so only counts and times that are never zero
PER_LAYER = (
    "sim.runs",
    "sim.steps",
    "sim.divergences",
    "sim.field_calls",
    "sim.field_us",
    "sim.rk4_loop_us_per_step",
    "sim.metrics_calls",
    "sysmodel.evaluate_input_calls",
    "serialize.rows_written",
    "serialize.bytes_written",
    "design.certify_s",
    "design.eq_roots_found",
    "numlin.solve_lyapunov_calls",
    "numlin.solve_lyapunov_ms.n8",
    "numlin.solve_lyapunov_ms.n16",
    "numlin.solve_lyapunov_ms.n24",
    "numlin.solve_lyapunov_ms.n32",
    "trace.overhead_pct",
)


class BenchError(Exception):
    pass


def _spawn(role, args, work_dir, deadline):
    """Run one child process; returns (seconds from start to ready, result)."""
    result_path = os.path.join(work_dir, f"{role}.json")
    env = {**os.environ, **SINGLE_THREAD_ENV, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "child.py"),
        role,
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
        work_dir,
        result_path,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    start = time.time()
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    with open(result_path) as fh:
        doc = json.load(fh)
    return doc["ready"] - start, doc


def _git_commit(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def measure(args, root):
    deadline = time.monotonic() + DEADLINE_S
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        setups = [_spawn("setup", args, work_dir, deadline)[0] for _ in range(SETUP_PROBES)]
        ready, doc = _spawn("run", args, work_dir, deadline)
        setups.append(ready)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    doc["setup_samples_s"] = setups
    return doc


def summarize(args, root, doc):
    passes = doc["passes"]
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # each operation's median over passes, summed over the operations
    table = {
        name: (sum(statistics.median(op) for op in zip(*(p[f"op_{name}"] for p in plain))), "s")
        for name in ("wall_s", "compute_s", "write_s")
    }
    table["setup_s"] = (statistics.median(doc["setup_samples_s"]), "s")
    table["peak_rss_mb"] = (doc["peak_rss_mb"], "MB")
    table["fail_frac"] = (failed / attempted, "1")
    if args.trace:
        table.update({name: tuple(entry) for name, entry in doc["layers"].items()})
        chosen = PER_LAYER
    else:
        chosen = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": table[name][0], "unit": table[name][1]} for name in chosen},
    }
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "cores": os.cpu_count(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src", "cubicobs")),
        **doc["environment"],
    }
    failures = [f for p in passes for f in p["failures"]]
    return table, manifest, result, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here as JSON")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cubicobs", "__init__.py")):
        sys.stderr.write("error: run from the root of a cubicobs checkout (no src/cubicobs)\n")
        return 2
    try:
        doc = measure(args, root)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    table, manifest, result, failures = summarize(args, root, doc)

    for failure in failures:
        sys.stderr.write(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}\n")
    width = max(len(name) for name in table)
    for name, (value, unit) in table.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {"manifest": manifest, "result": result, "table": table, "child": doc},
                fh,
                indent=1,
                sort_keys=True,
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
