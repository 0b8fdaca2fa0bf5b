"""Record the outputs the benchmark checks against, into expected.json.

    python3 bench/record_expected.py

Run from the root of a checkout. It stores the sha256 of every file of the
example 1, 2 and 3 bundles and the sweep-gamma row of every gamma on the
grid the studies workload draws from. Re-record only in a change that is
meant to alter bundle bytes, and say so in that change.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from cubicobs import cli, examples  # noqa: E402

import workloads  # noqa: E402


def main():
    doc = {"bundles": {}}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for number in (1, 2, 3):
            out_dir = os.path.join(tmp, f"example{number}")
            cli.write_bundle(examples.compute_bundle(number), out_dir)
            doc["bundles"][str(number)] = workloads.file_digests(out_dir)
        cfg = os.path.join(tmp, "sweep_config.json")
        with open(cfg, "w") as fh:
            json.dump(workloads.SWEEP_CONFIG, fh)
        table = os.path.join(tmp, "sweep.csv")
        gammas = ",".join(workloads.gamma_text(k) for k in range(workloads.GAMMA_GRID))
        code = cli.main(["sweep-gamma", cfg, "--gammas", gammas, "--out", table])
        if code != 0:
            raise SystemExit(f"sweep-gamma exited with {code}")
        with open(table, newline="") as fh:
            lines = fh.read().split("\n")
    doc["sweep_header"] = lines[0]
    doc["sweep_rows"] = lines[1 : 1 + workloads.GAMMA_GRID]
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
