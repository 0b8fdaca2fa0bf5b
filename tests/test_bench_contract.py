"""The traced benchmark in bench/ wraps package functions by name.

bench/layers.py lists each (module, attribute) it wraps in SPANS. A
refactor that renames or stops importing one of those attributes would
break the traced run, which the tier-1 suite does not otherwise execute.
"""

import inspect
import os
import sys

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402

# spans whose hook reads the run config from the last positional argument
SIMULATE_SPAN = "sim.simulate"


def test_every_span_target_resolves():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in layers.SPANS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_simulate_spans_take_the_config_last():
    for module, attr, span, _ in layers.SPANS:
        if span == SIMULATE_SPAN:
            params = list(inspect.signature(getattr(module, attr)).parameters)
            assert params[-1] == "cfg", f"{module.__name__}.{attr}{params}"
