"""One benchmark process: set up a workload, then run timed passes.

run.py starts this in a fresh single-threaded interpreter, from the root of
the checkout:

    python3 bench/child.py ROLE WORKLOAD SEED SECONDS TRACE WORK_DIR RESULT

ROLE ``setup`` only imports the package and generates the inputs, so that
the parent can time set-up more than once. ROLE ``run`` then runs passes up
to the pass boundary nearest SECONDS, and at least two. With TRACE 1 the
passes alternate untraced and traced, and the layer probes run at the end.
The result is written as JSON to RESULT.
"""

import json
import os
import resource
import statistics
import sys
import time


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cubicobs

    if not os.path.abspath(cubicobs.__file__).startswith(src + os.sep):
        raise SystemExit(f"cubicobs was imported from {cubicobs.__file__}, not {src}")
    return cubicobs


def measure(inputs, seconds, trace):
    import layers
    import workloads

    expected = workloads.load_expected()
    tracer = layers.Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    # stop at the pass boundary nearest to the time budget
    while len(passes) < 2 or (
        time.perf_counter() - start + passes[-1]["wall_s"] / 2 < seconds
    ):
        traced = trace and len(passes) % 2 == 1
        if traced:
            steps_before = tracer.counts["sim.steps"]
            problems_before = len(tracer.problems)
            with tracer.installed():
                result = workloads.run_pass(inputs, expected)
            problems = tracer.problems[problems_before:]
            steps = tracer.counts["sim.steps"] - steps_before
            if steps != inputs.steps_per_pass:
                problems.append(f"{steps} simulator steps, expected {inputs.steps_per_pass}")
            if problems:
                result.failures.append({"op": "trace", "problems": problems})
                result.failed = min(result.attempted, result.failed + 1)
        else:
            result = workloads.run_pass(inputs, expected)
        passes.append({"traced": traced, "wall_s": sum(result.op_wall_s), **vars(result)})

    doc = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        plain_walls = [p["wall_s"] for p in passes if not p["traced"]]
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        base = statistics.median(plain_walls)
        overhead = (statistics.median(traced_walls) - base) / base * 100.0
        probes = {**layers.probe_rk4(), **layers.probe_lyapunov()}
        table = layers.layer_table(tracer, len(traced_walls), probes, overhead)
        doc["layers"] = {name: list(entry) for name, entry in table.items()}
    return doc


def main(argv):
    role, workload, seed, seconds, trace, work_dir, result_path = argv
    cubicobs = _import_package(os.getcwd())
    import numpy as np

    import workloads

    inputs = workloads.generate(workload, int(seed), os.path.join(work_dir, "inputs"))
    doc = {"ready": time.time()}
    if role == "run":
        doc.update(measure(inputs, float(seconds), trace == "1"))
        doc["environment"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cubicobs": cubicobs.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "ops_per_pass": len(inputs.ops),
            "steps_per_pass": inputs.steps_per_pass,
        }
    with open(result_path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
