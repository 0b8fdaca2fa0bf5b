"""The benchmark in bench/ wraps package functions by name and checks bytes.

bench/layers.py lists each (module, attribute) it wraps in SPANS. A
refactor that renames or stops importing one of those attributes would
break the traced run, which the tier-1 suite does not otherwise execute.
The benchmark also compares written bundles with the sha256 digests in
bench/expected.json; the tier-1 suite checks examples 1, 2 and 3 (the
closed-loop bundle) the same way, so a change of output bytes shows here
before it fails the benchmark.
"""

import ast
import inspect
import os
import sys

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import workloads  # noqa: E402

from cubicobs import cli  # noqa: E402

# spans whose hook reads the run config from the last positional argument
SIMULATE_SPAN = "sim.simulate"


def test_every_span_target_resolves():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in layers.SPANS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_every_cli_import_is_used_or_wrapped_by_a_span():
    # cli keeps some imports only so that spans on cli resolve; any other
    # import that nothing in cli reads is dead
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped = {attr for module, attr, _, _ in layers.SPANS if module is cli}
    assert sorted(imported - used - wrapped) == []


def test_simulate_spans_take_the_config_last():
    for module, attr, span, _ in layers.SPANS:
        if span == SIMULATE_SPAN:
            params = list(inspect.signature(getattr(module, attr)).parameters)
            assert params[-1] == "cfg", f"{module.__name__}.{attr}{params}"


def test_bundles_match_the_benchmark_digests(bundle1, bundle2, bundle3, tmp_path):
    expected = workloads.load_expected()["bundles"]
    for number, bundle in ((1, bundle1), (2, bundle2), (3, bundle3)):
        out_dir = tmp_path / f"example{number}"
        cli.write_bundle(bundle, str(out_dir))
        assert workloads.file_digests(str(out_dir)) == expected[str(number)]
