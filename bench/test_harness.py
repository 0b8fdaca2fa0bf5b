"""Tests of the benchmark harness itself (not of the package).

    python3 -m pytest bench/test_harness.py -q

Run from the root of a checkout.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cubicobs import cli  # noqa: E402


def _tree(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = workloads.generate("design_scaling", 7, str(tmp_path / "a"))
    second = workloads.generate("design_scaling", 7, str(tmp_path / "b"))
    other = workloads.generate("design_scaling", 8, str(tmp_path / "c"))
    assert _tree(first.work_dir) == _tree(second.work_dir)
    assert _tree(first.work_dir) != _tree(other.work_dir)
    assert len(first.ops) == workloads.N_DESIGNS

    a = workloads.generate("studies", 7, str(tmp_path / "d"))
    b = workloads.generate("studies", 7, str(tmp_path / "e"))
    assert _tree(a.work_dir) == _tree(b.work_dir)
    assert a.ops[-1].args["ks"] == b.ops[-1].args["ks"]
    assert len(set(a.ops[-1].args["ks"])) == workloads.N_GAMMAS


def test_sweep_config_is_the_shipped_example_config():
    with open(os.path.join(ROOT, "docs", "example_config.json")) as fh:
        assert json.load(fh) == workloads.SWEEP_CONFIG


def test_span_wrappers_restore_the_originals():
    originals = [(m, attr, getattr(m, attr)) for m, attr, _, _ in layers.SPANS]
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for module, attr, original in originals:
                assert getattr(module, attr) is not original
            raise RuntimeError("leave the block early")
    for module, attr, original in originals:
        assert getattr(module, attr) is original


def test_spans_count_calls_and_work(tmp_path):
    inputs = workloads.generate("design_scaling", 3, str(tmp_path))
    op = inputs.ops[0]
    tracer = layers.Tracer()
    with tracer.installed():
        code = cli.main(["design", op.args["config"], "--out", str(tmp_path / "d.json")])
    assert code == 0
    assert tracer.calls["cli.cmd_design"] == 1
    assert tracer.calls["cli.parse"] == 3
    assert tracer.calls["numlin.solve_lyapunov"] == 2
    assert tracer.seconds["design.feedback_certificate"] > 0.0


def test_reference_lyapunov_solves_the_equation():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((2, 12))
    f = workloads.skew(rng, 12) - c.T @ c / 12
    q = np.eye(12)
    p = workloads.lyapunov_by_eig(f, q)
    assert np.max(np.abs(f.T @ p + p @ f + q)) < 1e-10


def test_corrupted_design_output_is_counted_as_failed(tmp_path):
    inputs = workloads.generate("design_scaling", 3, str(tmp_path / "in"))
    inputs.ops = inputs.ops[:2]
    good = workloads.run_pass(inputs, expected=None)
    assert (good.attempted, good.failed) == (2, 0)

    out = str(tmp_path / "d.json")
    op = inputs.ops[0]
    assert cli.main(["design", op.args["config"], "--out", out]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert workloads.check_design(doc, op.args["ref"]) == []
    doc["design"]["p"][0][0] *= 1.0 + 1e-6
    assert workloads.check_design(doc, op.args["ref"])
    doc = json.loads(json.dumps(doc).replace('"uniqueness_ok": true', '"uniqueness_ok": false'))
    assert any("uniqueness_ok" in p for p in workloads.check_design(doc, op.args["ref"]))

    op.args["ref"]["p"] = op.args["ref"]["p"] * (1.0 + 1e-6)
    with open(inputs.ops[1].args["config"], "w") as fh:
        fh.write("{ not json")
    bad = workloads.run_pass(inputs, expected=None)
    assert (bad.attempted, bad.failed) == (2, 2)


def test_corrupted_bundle_and_sweep_are_counted_as_failed(tmp_path):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "report.json").write_text("{}\n")
    expected = {"bundles": {"1": workloads.file_digests(str(bundle))}}
    assert workloads.check_bundle(str(bundle), 1, expected) == []
    (bundle / "report.json").write_text("{ }\n")
    assert workloads.check_bundle(str(bundle), 1, expected) == ["report.json differs"]
    (bundle / "extra.csv").write_text("t\n")
    assert "unexpected extra.csv" in workloads.check_bundle(str(bundle), 1, expected)

    recorded = workloads.load_expected()
    table = tmp_path / "sweep.csv"
    rows = [recorded["sweep_header"], recorded["sweep_rows"][3], recorded["sweep_rows"][20]]
    table.write_text("\n".join(rows) + "\n")
    assert workloads.check_sweep(str(table), [20, 3], recorded) == []
    table.write_text("\n".join(rows[:2]) + "\n")
    assert workloads.check_sweep(str(table), [20, 3], recorded)


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "studies",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
