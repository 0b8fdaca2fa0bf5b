"""End-to-end tests of the command line front end.

These drive cli.main() in process, asserting exit codes, document shapes,
file layouts, and byte-level determinism of the emitted artifacts. The
JSON documents are additionally validated against docs/schema.json.
"""

import argparse
import ast
import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubicobs import cli, examples
from cubicobs.design import place_poles_single_output
from cubicobs.errors import ContractError

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO_ROOT / "docs" / "schema.json").read_text())
EXAMPLE_CONFIG = json.loads((REPO_ROOT / "docs" / "example_config.json").read_text())


# The schema is checked once here, and each $defs entry gets one prebuilt
# validator: jsonschema.validate would check the whole schema again per call.
jsonschema.Draft202012Validator.check_schema(SCHEMA)
VALIDATORS = {
    name: jsonschema.Draft202012Validator({"$ref": f"#/$defs/{name}", "$defs": SCHEMA["$defs"]})
    for name in SCHEMA["$defs"]
}


def validate(instance, def_name):
    VALIDATORS[def_name].validate(instance)


def base_config():
    """Double-integrator observer study, the worked example in docs/."""
    return {
        "system": {
            "a": [[0.0, 1.0], [0.0, 0.0]],
            "b": [[0.0], [1.0]],
            "c": [[1.0, 0.0]],
        },
        "observer": {
            "type": "cubic",
            "poles": [-2.0, -5.0],
            "q": 10.0,
            "theta": 10.0,
            "gamma": 2.0,
        },
        "sim": {
            "horizon": 4.0,
            "dt": 1e-3,
            "x0": [-3.0, -3.0],
            "input": {
                "kind": "sinusoid",
                "amplitude": [1.0],
                "angular_frequency": 1.0,
            },
        },
    }


@pytest.fixture()
def write_config(tmp_path):
    def _write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# design


def test_design_prints_document_and_succeeds(write_config, capsys):
    code, out, err = run_cli(capsys, "design", write_config(base_config()))
    assert code == 0
    doc = json.loads(out)
    validate(doc, "design_document")
    assert doc["observer_type"] == "cubic"
    assert np.allclose(doc["design"]["gain_lc"], [[7.0], [10.0]], atol=1e-9)
    assert doc["design"]["gamma"] == 2.0
    assert doc["certificate"]["all_ok"] is True
    assert doc["certificate"]["robustness_eps_max"] > 0.0


def test_design_writes_file_with_out_flag(write_config, capsys, tmp_path):
    out_path = tmp_path / "design.json"
    code, out, _ = run_cli(
        capsys, "design", write_config(base_config()), "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    validate(doc, "design_document")


def test_design_out_under_a_file_is_an_io_error(write_config, capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, out, err = run_cli(
        capsys, "design", write_config(base_config()), "--out", str(blocker / "design.json")
    )
    assert (code, out) == (1, "")
    assert err.startswith("io error: ")


def test_design_flat_csv_format(write_config, capsys):
    code, out, _ = run_cli(
        capsys, "design", write_config(base_config()), "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "design.gamma" in keys
    assert "certificate.all_ok" in keys
    # a - b k unstable: the feedback certificate fails, with no beta
    cfg = base_config()
    cfg["feedback"] = {"k": [[-1.0, -1.0]]}
    code, out, _ = run_cli(capsys, "design", write_config(cfg), "--format", "csv")
    assert code == 1
    assert "certificate.feedback_beta," in out.splitlines()
    assert "certificate.feedback_ok,false" in out.splitlines()


def test_design_gamma_defaults_to_one(write_config, capsys):
    cfg = base_config()
    del cfg["observer"]["gamma"]
    code, out, _ = run_cli(capsys, "design", write_config(cfg))
    assert code == 0
    assert json.loads(out)["design"]["gamma"] == 1.0


def test_design_places_complex_poles_given_as_re_im_pairs(write_config, capsys):
    cfg = base_config()
    cfg["observer"]["poles"] = [[-2.0, 1.0], [-2.0, -1.0]]
    code, out, err = run_cli(capsys, "design", write_config(cfg))
    assert (code, err) == (0, "")
    system = cli.build_system(cfg)
    gain = place_poles_single_output(system, [-2.0 + 1.0j, -2.0 - 1.0j])
    assert json.loads(out)["design"]["gain_lc"] == gain.tolist()


def test_design_failing_certificate_exits_one(write_config, capsys):
    # flipping the sign of the synthesized cubic gain breaks the damping
    # and uniqueness conditions; the document is still printed
    cfg = base_config()
    cfg["observer"] = {
        "type": "cubic_explicit",
        "poles": [-2.0, -5.0],
        "gain_nc": [9.882352941176471, 11.529411764705884],
        "q": 10.0,
        "theta": 10.0,
        "gamma": 2.0,
    }
    code, out, err = run_cli(capsys, "design", write_config(cfg))
    assert code == 1
    doc = json.loads(out)
    validate(doc, "design_document")
    assert doc["certificate"]["damping_ok"] is False
    assert "certificate failed" in err
    assert "margin" in err


def test_design_non_hurwitz_gain_exits_one(write_config, capsys):
    cfg = base_config()
    cfg["observer"] = {"type": "linear", "gain_l": [0.0, 0.0]}
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert code == 1
    assert "hurwitz" in err


def test_design_reports_a_non_hurwitz_gain_before_an_indefinite_theta(write_config, capsys):
    cfg = base_config()
    cfg["observer"].update({"theta": -1.0})
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert (code, err) == (1, "error: theta must be symmetric positive semidefinite\n")
    del cfg["observer"]["poles"]
    cfg["observer"]["gain_lc"] = [-1.0, 0.0]
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert code == 1
    assert err.startswith("error: hurwitz condition violated")


TOO_LARGE_THETA = {
    "placed poles": {"theta": 1e308},
    "placed poles, negative": {"theta": -1e308},
    "explicit": {
        "type": "cubic_explicit",
        "gain_nc": [9.882352941176471, 11.529411764705884],
        "theta": 1e308,
    },
    "two outputs": {
        "poles": None,
        "gain_lc": [[2.0, 0.0], [0.0, 2.0]],
        "theta": [[1.0, 1.5e308], [1.5e308, 1.0]],
    },
}


@pytest.mark.parametrize("case", sorted(TOO_LARGE_THETA))
def test_design_refuses_a_theta_too_large_to_symmetrize(write_config, capsys, case):
    # theta + theta' overflows: one line, the exit code of any invalid theta,
    # and no RuntimeWarning
    cfg = base_config()
    cfg["observer"].update(TOO_LARGE_THETA[case])
    if cfg["observer"]["poles"] is None:
        del cfg["observer"]["poles"]
        cfg["system"]["c"] = [[1.0, 0.0], [0.0, 1.0]]
    code, out, err = run_cli(capsys, "design", write_config(cfg))
    assert (code, out) == (1, "")
    assert err == "error: theta is too large: theta + theta' overflows\n"


# A config value so extreme that a product overflows: (config changes,
# subcommand and flags, exit code, the words the one stderr line must hold).
# Each must end in that one line, with no RuntimeWarning and no traceback.
EXTREME_VALUES = {
    "design, gamma 1e308": (
        {"observer": {"gamma": 1e308}}, ["design"], 1, "constructive gain overflows"
    ),
    "simulate, gamma 1e308": (
        {"observer": {"gamma": 1e308}}, ["simulate"], 1, "constructive gain overflows"
    ),
    "sweep-gamma, gamma 1e308": (
        {}, ["sweep-gamma", "--gammas", "1e308"], 1, "constructive gain overflows"
    ),
    "design, c 1e200": (
        {"system": {"c": [[1e200, 0.0]]}}, ["design"], 1, "constructive gain overflows"
    ),
    "design, gain_lc 1e300": (
        {"observer": {"poles": None, "gain_lc": [1e300, 1e300]},
         "system": {"c": [[1e10, 0.0]]}},
        ["design"], 1, "a - gain_lc c overflows",
    ),
    "design, theta 1e200": (
        {"observer": {"theta": 1e200}}, ["design"], 1, "uniqueness test overflows"
    ),
    "design, theta 1e307": (
        {"observer": {"theta": 1e307}}, ["design"], 1, "uniqueness test overflows"
    ),
    "design, poles 1e200": (
        {"observer": {"poles": [-1e200, -2e200]}},
        ["design"], 1, "desired polynomial overflows",
    ),
    "design, c 1e-308": (
        {"system": {"c": [[1e-308, 0.0]]}}, ["design"], 1, "pole placement overflows"
    ),
    "simulate, x0 1e200": (
        {"sim": {"x0": [1e200, 2e200]}}, ["simulate"], 1, "trajectory diverged"
    ),
    "simulate, xhat0 1e200": (
        {"sim": {"xhat0": [1e200, 2e200]}}, ["simulate"], 1, "trajectory diverged"
    ),
    "simulate, --dt 5e-324": (
        {}, ["simulate", "--dt", "5e-324"], 2, "sim: dt is too small for the horizon"
    ),
    "simulate, sim.dt 1e-308": (
        {"sim": {"dt": 1e-308, "horizon": 0.5}},
        ["simulate"], 2, "sim: dt is too small for the horizon",
    ),
    "sweep-gamma, --dt 5e-324": (
        {}, ["sweep-gamma", "--gammas", "1", "--dt", "5e-324"],
        2, "sim: dt is too small for the horizon",
    ),
    "sweep-gamma, c 1e308": (
        {"system": {"c": [[1e308, 0.0]]}},
        ["sweep-gamma", "--gammas", "0"], 1, "plant output c x overflows",
    ),
    "sweep-gamma, c -1e308": (
        {"system": {"c": [[-1e308, 0.0]]}},
        ["sweep-gamma", "--gammas", "0"], 1, "plant output c x overflows",
    ),
    "simulate, x0 1e308 against xhat0 -1e308": (
        {"sim": {"x0": [1e308, 1e308], "xhat0": [-1e308, -1e308]}},
        ["simulate"], 1, "simulation overflows",
    ),
    "simulate, x0 -1e308 against xhat0 1e308": (
        {"sim": {"x0": [-1e308, -1e308], "xhat0": [1e308, 1e308]}},
        ["simulate"], 1, "simulation overflows",
    ),
    "design, cubic_explicit c 1e200": (
        {"observer": {"type": "cubic_explicit", "gain_nc": [9.88, 11.5]},
         "system": {"c": [[1e200, 0.0]]}},
        ["design"], 1, "certificate overflows",
    ),
    "simulate, q 1e290 against x0 1e10": (
        {"observer": {"q": 1e290}, "sim": {"x0": [1e10, 1e10], "horizon": 0.1}},
        ["simulate"], 1, "Lyapunov function V = e'Pe overflows",
    ),
    # 1e15 steps, 8 PB a column: beyond any address space, refused at once
    "simulate, horizon 1e12": (
        {"sim": {"horizon": 1e12}}, ["simulate"], 1, "out of memory: Unable to allocate"
    ),
    "sweep-gamma, horizon 1e12": (
        {"sim": {"horizon": 1e12}},
        ["sweep-gamma", "--gammas", "1"], 1, "out of memory: Unable to allocate",
    ),
}


@pytest.mark.parametrize("case", sorted(EXTREME_VALUES))
def test_extreme_values_give_one_error_line(write_config, capsys, tmp_path, case):
    changes, argv, want, words = EXTREME_VALUES[case]
    cfg = base_config()
    for section, fields in changes.items():
        cfg[section].update(fields)
    if cfg["observer"]["poles"] is None:
        del cfg["observer"]["poles"]
    command, *flags = argv
    if command == "simulate":
        flags += ["--out", str(tmp_path / "trace.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_cli(capsys, command, write_config(cfg), *flags)
    prefix = "config error: " if want == 2 else "error: "
    assert code == want
    assert err.count("\n") == 1 and err.startswith(prefix) and words in err, err


# Designs with an extreme but valid value: the equilibrium search's closed
# form, or the search itself, must neither warn nor hand on a non-finite number.
EXTREME_BUT_VALID = {
    "c 1e-300": {"system": {"c": [[1e-300, 0.0]]}},
    "q 1e300": {"observer": {"q": 1e300}},
    "q 1e-300": {"observer": {"q": 1e-300}},
    "q 1e-11": {"observer": {"q": 1e-11}},
    "linear, c 1e200": {
        "observer": {"type": "linear", "poles": [-2.0, -5.0]},
        "system": {"c": [[1e200, 0.0]]},
    },
    "theta 1e-300": {"observer": {"theta": 1e-300}},
    "theta 5e-324": {"observer": {"theta": 5e-324}},
    "theta 1e154": {"observer": {"theta": 1e154}},
    "gamma 1e154": {"observer": {"gamma": 1e154}},
}


@pytest.mark.parametrize("case", sorted(EXTREME_BUT_VALID))
def test_extreme_but_valid_designs_exit_zero_without_a_warning(write_config, capsys, case):
    cfg = base_config()
    for section, fields in EXTREME_BUT_VALID[case].items():
        if fields.get("type") == "linear":
            cfg[section] = fields
        else:
            cfg[section].update(fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "design", write_config(cfg), "--equilibrium-search")
    assert (code, err) == (0, "")
    margins = json.loads(out, parse_constant=reject_constant)["certificate"]["margins"]
    assert 0.0 <= margins["equilibrium_exclusion_radius"] <= 1e12


@pytest.mark.parametrize("q", [1e-310, 1e-320])
def test_a_subnormal_q_is_refused_in_one_line(write_config, capsys, q):
    # the definiteness verdict is scale-free; the solver refuses what lies
    # below the least normal float, before it overflows or underflows
    cfg = base_config()
    cfg["observer"]["q"] = q
    code, out, err = run_cli(capsys, "design", write_config(cfg))
    assert (code, out) == (1, "")
    assert err == (
        f"error: q must be symmetric positive definite: its smallest eigenvalue {q:.3e} "
        "is subnormal\n"
    )


def test_a_diverged_run_whose_certificate_fails_prints_one_line(write_config, capsys):
    # the closed loop diverges at once, and its certificate then fails: the
    # failure that ends the command is its one line
    cfg = base_config()
    cfg.update(feedback={"k": [[1e10, 2.0]]}, outputs=["metrics", "certificate"])
    code, out, err = run_cli(capsys, "simulate", write_config(cfg))
    assert (code, out) == (1, "")
    assert err == "error: Lyapunov solution is not positive definite\n"


def test_design_equilibrium_search_flag(write_config, capsys):
    code, out, _ = run_cli(
        capsys, "design", write_config(base_config()), "--equilibrium-search"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["margins"]["nonzero_equilibria_found"] == 0.0


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_design_equilibrium_search_on_a_linear_observer(write_config, capsys):
    # the linear observer's exclusion radius is infinite; the document caps it
    cfg = base_config()
    cfg["observer"] = {"type": "linear", "poles": [-2.0, -5.0]}
    code, out, _ = run_cli(capsys, "design", write_config(cfg), "--equilibrium-search")
    assert code == 0
    doc = json.loads(out, parse_constant=reject_constant)
    validate(doc, "design_document")
    margins = doc["certificate"]["margins"]
    assert margins["equilibrium_exclusion_radius"] == 1e12
    assert margins["nonzero_equilibria_found"] == 0.0


def test_design_equilibrium_search_flag_with_feedback(write_config, capsys):
    cfg = json.loads((REPO_ROOT / "docs" / "example_config.json").read_text())
    cfg["feedback"] = {"k": [[1.0, 2.0]]}
    path = write_config(cfg)
    code, out, _ = run_cli(capsys, "design", path)
    assert code == 0
    margins = json.loads(out)["certificate"]["margins"]
    assert "nonzero_equilibria_found" not in margins
    code, out, _ = run_cli(capsys, "design", path, "--equilibrium-search", "--seed", "3")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert "feedback_ok" in cert
    assert cert["margins"]["nonzero_equilibria_found"] == 0.0


# ---------------------------------------------------------------------------
# configuration errors all exit 2 and name the offending field


def test_missing_config_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "design", "/no/such/file.json")
    assert code == 2
    assert "config error" in err


def test_json_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"system": }')
    code, _, err = run_cli(capsys, "design", str(path))
    assert code == 2
    assert "line 1" in err
    assert "column" in err


def test_unknown_top_level_field_exits_two(write_config, capsys):
    cfg = base_config()
    cfg["extras"] = 1
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert code == 2
    assert "extras" in err


@pytest.mark.parametrize("text", ["[]", "[1]", "5", "null", '"abc"'])
@pytest.mark.parametrize(
    "argv", [("design",), ("simulate",), ("sweep-gamma", "--gammas", "1")], ids=lambda a: a[0]
)
def test_a_config_that_is_not_an_object_exits_two(tmp_path, capsys, text, argv):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "config error: config: expected an object\n"


def test_unknown_observer_field_names_allowed_set(write_config, capsys):
    cfg = base_config()
    cfg["observer"]["qq"] = 1.0
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert code == 2
    assert "qq" in err
    assert "allowed" in err


def test_bad_observer_type_exits_two(write_config, capsys):
    cfg = base_config()
    cfg["observer"]["type"] = "quartic"
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert code == 2
    assert "observer.type" in err


def test_gain_and_poles_together_exit_two(write_config, capsys):
    cfg = base_config()
    cfg["observer"]["gain_lc"] = [7.0, 10.0]
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert code == 2
    assert "exactly one" in err


def test_negative_gamma_exits_two(write_config, capsys):
    cfg = base_config()
    cfg["observer"]["gamma"] = -0.5
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert code == 2
    assert "observer.gamma" in err


def test_explicit_observer_zero_gamma_exits_two(write_config, capsys):
    # gain_nc alone sets the cubic term; a positive gamma is reported as given
    cfg = base_config()
    cfg["observer"] = {
        "type": "cubic_explicit",
        "poles": [-2.0, -5.0],
        "gain_nc": [-9.882352941176471, -11.529411764705884],
        "gamma": 0.0,
    }
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert code == 2
    assert "observer.gamma" in err
    cfg["observer"]["gamma"] = 0.5
    code, out, _ = run_cli(capsys, "design", write_config(cfg))
    assert json.loads(out)["design"]["gamma"] == 0.5


def test_lqr_without_feedback_exits_two(write_config, capsys, tmp_path):
    cfg = json.loads((REPO_ROOT / "docs" / "example_config.json").read_text())
    cfg["lqr"] = {"q": 1, "r": 1}
    code, out, err = run_cli(
        capsys, "simulate", write_config(cfg), "--out", str(tmp_path / "t.csv")
    )
    assert code == 2
    assert out == ""
    assert "lqr" in err


def at_path(doc, path):
    """The part of doc that a sequence of keys and indices leads to."""
    for key in path:
        doc = doc[key]
    return doc


# The example config's observer without its poles, to be given a gain_lc.
GAIN_OBSERVER = {"type": "cubic", "q": 10.0, "theta": 10.0, "gamma": 2.0}


# Each file is malformed in one section; every subcommand that reads a config
# parses all sections, so each gives the same verdict and the same line.
@pytest.mark.parametrize(
    "fields, message",
    [
        (
            {"lqr": {"q": 1, "r": 1}},
            "lqr: needs a feedback section, which supplies the control",
        ),
        (
            {"lqr": {"bogus": 1}, "feedback": {"k": [[1.0, 2.0]]}},
            "lqr: unknown field(s) bogus; allowed: q, r",
        ),
        ({"sim.x0": [1.0]}, "sim.x0: expected 2 entries, got 1"),
        (
            {"sim.bogus": 1},
            "sim: unknown field(s) bogus; allowed: dt, eps, horizon, input, x0, xhat0",
        ),
        (
            {"sim.horizon": 1e-6},
            "sim: horizon must cover at least one step: horizon=1e-06, dt=0.001",
        ),
        ({"sim": {"dt": -1.0}}, "sim: dt must be a positive real, got -1.0"),
        (
            {"outputs": ["trace", "plots"]},
            "outputs: unknown artifact(s) plots; "
            "allowed: trace, metrics, certificate, lyapunov",
        ),
        ({"outputs": "trace"}, "outputs: expected an array of artifact names"),
        (
            {"system.a": [[0.0, 1.0], [0.0]]},
            "system.a: rows have inconsistent lengths",
        ),
        (
            {"observer.poles": [[-2.0, 1.0, 0.0], -5.0]},
            "observer.poles[0]: complex pole must be a [re, im] pair",
        ),
        (
            {"observer.type": "cubic_explicit"},
            "observer.gain_nc: required for cubic_explicit",
        ),
        (
            {"observer.damping_mode": "loose"},
            "observer: unknown field(s) damping_mode; "
            "allowed: gain_lc, gamma, poles, q, theta, type",
        ),
        (
            {"observer.damping_mode": "semidefinite"},
            "observer: unknown field(s) damping_mode; "
            "allowed: gain_lc, gamma, poles, q, theta, type",
        ),
        (
            {"sim.input": {"kind": "constant"}},
            "sim.input.level: required for constant input",
        ),
        ({"feedback": {}}, "feedback.k: required"),
        ({"feedback": {"k": [[1.0]]}}, "feedback.k: expected shape (1, 2), got (1, 1)"),
        ({"system.c": 5}, "system.c: expected an array of row arrays"),
        ({"observer.poles": [-2.0]}, "observer.poles: expected 2 poles, got 1"),
        ({"observer.q": [[1.0]]}, "observer.q: expected shape (2, 2), got (1, 1)"),
        ({"sim.input.amplitude": "x"}, "sim.input.amplitude: expected a number"),
        (
            {"sim.input": {"kind": "sampled", "times": [1.0, 0.0], "values": [[1.0], [2.0]]}},
            "sim.input: sample times must be strictly increasing",
        ),
        (
            {"sim.input.angular_frequency": float("inf")},
            "sim.input: angular_frequency must be finite, got inf",
        ),
        ({"sim.input.phase": float("nan")}, "sim.input: phase must be finite, got nan"),
        (
            {"observer": {**GAIN_OBSERVER, "gain_lc": [1, 2, 3]}},
            "observer.gain_lc: expected shape (2, 1), got (3, 1)",
        ),
        ({"observer": {**GAIN_OBSERVER, "gain_lc": 5}}, "observer.gain_lc: expected an array"),
        ({"observer.poles": 5}, "observer.poles: expected an array of poles"),
        ({"sim.x0": 5}, "sim.x0: expected a nonempty array of numbers"),
    ],
    ids=[
        "without-feedback",
        "unknown-field",
        "sim-x0-length",
        "sim-unknown-field",
        "sim-horizon-below-dt",
        "sim-dt-without-horizon",
        "unknown-output",
        "outputs-not-a-list",
        "ragged-system-a",
        "malformed-complex-pole",
        "explicit-without-gain-nc",
        "bad-damping-mode",
        "damping-mode-semidefinite",
        "constant-without-level",
        "feedback-without-k",
        "feedback-k-shape",
        "system-c-not-a-matrix",
        "pole-count",
        "observer-q-shape",
        "input-amplitude-not-a-number",
        "sampled-times-decreasing",
        "sinusoid-frequency-infinite",
        "sinusoid-phase-nan",
        "gain-lc-shape",
        "gain-lc-not-an-array",
        "poles-not-an-array",
        "sim-x0-not-an-array",
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("design",),
        ("design", "--equilibrium-search"),
        ("simulate",),
        ("sweep-gamma", "--gammas", "1"),
    ],
    ids=["design", "design-search", "simulate", "sweep-gamma"],
)
def test_bad_lqr_section_exits_two_in_every_subcommand(
    write_config, capsys, monkeypatch, tmp_path, fields, message, argv
):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    cfg = json.loads((REPO_ROOT / "docs" / "example_config.json").read_text())
    for dotted, value in fields.items():
        *parents, last = dotted.split(".")
        at_path(cfg, parents)[last] = value
    code, out, err = run_cli(capsys, argv[0], write_config(cfg), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"


CONFIG_SCHEMA = SCHEMA["$defs"]["config"]
INPUT_SCHEMAS = {
    kind["properties"]["kind"]["const"]: kind for kind in SCHEMA["$defs"]["input_signal"]["oneOf"]
}


def accepted_fields(capsys, write_config, path, doc=None):
    """The field names the parser accepts in the config object at path
    (replaced by doc when given), read from the allowed list of the
    unknown-field error that a field zz there draws."""
    cfg = copy.deepcopy(EXAMPLE_CONFIG)
    cfg.update(feedback={"k": [[1.0, 2.0]]}, lqr={})
    if doc is not None:
        at_path(cfg, path[:-1])[path[-1]] = doc
    at_path(cfg, path)["zz"] = 1
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert code == 2
    prefix = f"config error: {'.'.join(path) or 'config'}: unknown field(s) zz; allowed: "
    assert err.startswith(prefix)
    return set(err[len(prefix) :].rstrip("\n").split(", "))


# every config object the schema describes but observer: where the test
# puts its unknown field, the object put there first (None keeps the
# example config's), and the object's schema
SCHEMA_OBJECTS = {
    "config": ((), None, CONFIG_SCHEMA),
    **{
        name: ((name,), None, CONFIG_SCHEMA["properties"][name])
        for name in ("system", "sim", "feedback", "lqr")
    },
    **{
        f"input-{kind}": (("sim", "input"), {"kind": kind}, schema)
        for kind, schema in INPUT_SCHEMAS.items()
    },
}


@pytest.mark.parametrize("case", sorted(SCHEMA_OBJECTS))
def test_the_schema_lists_the_fields_the_parser_accepts(write_config, capsys, case):
    path, doc, schema = SCHEMA_OBJECTS[case]
    assert accepted_fields(capsys, write_config, path, doc) == set(schema["properties"])


def test_the_schema_lists_the_observer_fields_the_parser_accepts(write_config, capsys):
    accepted = set()
    for kind in CONFIG_SCHEMA["properties"]["observer"]["properties"]["type"]["enum"]:
        accepted |= accepted_fields(capsys, write_config, ("observer",), {"type": kind})
    assert accepted == set(CONFIG_SCHEMA["properties"]["observer"]["properties"])


def config_paths(doc, path=()):
    """(objects, numbers): the key paths of every object and number in doc."""
    if isinstance(doc, (bool, str)):
        return [], []
    if isinstance(doc, (int, float)):
        return [], [path]
    objects = [path] if isinstance(doc, dict) else []
    numbers = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        more_objects, more_numbers = config_paths(value, path + (key,))
        objects += more_objects
        numbers += more_numbers
    return objects, numbers


CONFIG_VALIDATOR = VALIDATORS["config"]
CONFIG_OBJECTS, CONFIG_NUMBERS = config_paths(EXAMPLE_CONFIG)
# the fields docs/schema.json requires that the example config sets
CONFIG_REQUIRED = [
    ("system",),
    ("observer",),
    ("system", "a"),
    ("system", "c"),
    ("observer", "type"),
    ("sim", "input", "kind"),
]


@st.composite
def broken_configs(draw):
    """The example config with one schema violation: an unknown field in
    any object, a string where a number goes, or a required field left out."""
    cfg = copy.deepcopy(EXAMPLE_CONFIG)
    kind = draw(st.sampled_from(["unknown-field", "string-for-number", "missing"]))
    if kind == "unknown-field":
        name = "zz_" + draw(st.text("abcdefghijklmnopqrstuvwxyz_0123456789", max_size=8))
        value = draw(st.none() | st.booleans() | st.integers() | st.text(max_size=4))
        at_path(cfg, draw(st.sampled_from(CONFIG_OBJECTS)))[name] = value
    elif kind == "string-for-number":
        *parents, last = draw(st.sampled_from(CONFIG_NUMBERS))
        at_path(cfg, parents)[last] = draw(st.text(max_size=6))
    else:
        *parents, last = draw(st.sampled_from(CONFIG_REQUIRED))
        del at_path(cfg, parents)[last]
    return cfg


def test_config_paths_cover_every_section():
    assert {path[0] for path in CONFIG_OBJECTS[1:]} == {"system", "observer", "sim"}
    assert ("sim", "input") in CONFIG_OBJECTS
    assert ("sim", "x0", 1) in CONFIG_NUMBERS
    assert len(CONFIG_NUMBERS) == 19


@settings(
    max_examples=120,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cfg=broken_configs())
def test_schema_violations_exit_two_in_every_subcommand(
    write_config, capsys, monkeypatch, tmp_path, cfg
):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert not CONFIG_VALIDATOR.is_valid(cfg)
    path = write_config(cfg)
    errors = set()
    for argv in (["design"], ["simulate"], ["sweep-gamma", "--gammas", "1"]):
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (2, ""), argv
        assert err.startswith("config error: ")
        errors.add(err)
    assert len(errors) == 1


EXTREME_OBSERVERS = [
    EXAMPLE_CONFIG["observer"],
    {"type": "cubic_explicit", "gain_lc": [7.0, 10.0], "gain_nc": [9.88, 11.5],
     "q": 10.0, "theta": 10.0, "gamma": 2.0},
    {"type": "linear", "poles": [-2.0, -5.0], "q": 10.0},
]


@st.composite
def extreme_configs(draw):
    """A valid config, open or closed loop, with one to three of its numbers
    set to +-10^u for u in [-320, 308], and at most 100 steps to run."""
    cfg = copy.deepcopy(EXAMPLE_CONFIG)
    cfg["observer"] = copy.deepcopy(draw(st.sampled_from(EXTREME_OBSERVERS)))
    cfg["sim"].update(horizon=0.1, xhat0=[0.0, 0.0], eps=0.0)
    cfg["sim"]["input"]["phase"] = 0.0
    cfg["outputs"] = ["trace", "metrics", "certificate", "lyapunov"]
    if draw(st.booleans()):
        cfg.update(feedback={"k": [[1.0, 2.0]]}, lqr={"q": 1.0, "r": 1.0})
    numbers = config_paths(cfg)[1]
    for *parents, last in draw(st.lists(st.sampled_from(numbers), min_size=1, max_size=3)):
        sign = draw(st.sampled_from([1.0, -1.0]))
        at_path(cfg, parents)[last] = sign * 10.0 ** draw(st.floats(-320.0, 308.0))
    sim = cfg["sim"]
    # a grid of 100 to 1e19 steps is cut to 100; a longer one is refused unrun
    if sim["dt"] > 0.0 and 100.0 < sim["horizon"] / sim["dt"] < 1e19:
        sim["horizon"] = 100.0 * sim["dt"]
    return cfg


@settings(
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cfg=extreme_configs())
def test_any_magnitude_of_a_config_number_ends_cleanly(
    write_config, capsys, monkeypatch, tmp_path, cfg
):
    # an exit code, at most one stderr line (or design's certificate report),
    # finite JSON, and neither a RuntimeWarning nor a traceback
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    path = write_config(cfg)
    for argv in (["design", "--equilibrium-search"], ["simulate", "--format", "json"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert code in (0, 1, 2)
        assert err.count("\n") <= 1 or err.startswith("certificate failed: "), err
        if out:
            json.loads(out, parse_constant=reject_constant)


@pytest.mark.parametrize(
    "bad, message",
    [
        (("system", "a", 1, 0), "system.a[1][0]: expected a number"),
        (("sim", "x0", 1), "sim.x0[1]: expected a number"),
    ],
    ids=["matrix-entry", "vector-entry"],
)
def test_a_bad_number_is_named_by_its_full_path(write_config, capsys, bad, message):
    *parents, last = bad
    cfg = base_config()
    at_path(cfg, parents)[last] = "x"
    for command in ("design", "simulate"):
        code, out, err = run_cli(capsys, command, write_config(cfg))
        assert (code, out, err) == (2, "", f"config error: {message}\n")
    cfg = base_config()
    at_path(cfg, parents)[last] = True
    code, _, err = run_cli(capsys, "design", write_config(cfg))
    assert (code, err) == (2, f"config error: {message}\n")


@pytest.mark.parametrize(
    "bad",
    [
        ("observer", "gamma"),
        ("sim", "dt"),
        ("sim", "x0", 1),
        ("observer", "poles", 0),
        ("system", "a", 0, 1),
    ],
    ids=["gamma", "dt", "x0-entry", "pole", "matrix-entry"],
)
def test_an_integer_too_large_for_a_float_is_a_config_error(
    write_config, capsys, monkeypatch, tmp_path, bad
):
    # JSON integers are exact: 10**400 parses, but has no float value
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    *parents, last = bad
    cfg = base_config()
    at_path(cfg, parents)[last] = 10**400
    where = parents[0] + "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" for key in (*parents[1:], last)
    )
    path = write_config(cfg)
    for argv in (["design"], ["simulate"], ["sweep-gamma", "--gammas", "1"]):
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (2, ""), argv
        assert err == f"config error: {where}: number too large for a float\n"


# Python's json reads NaN, Infinity and -Infinity. Every number of the shipped
# config, with a feedback and an lqr section, is refused at parse time when it
# is one of them; the scalars below keep the refusals their checks write.
NON_FINITE_CONFIG = {
    **copy.deepcopy(EXAMPLE_CONFIG), "feedback": {"k": [[1.0, 2.0]]}, "lqr": {"q": 1.0, "r": 1.0}
}
NON_FINITE_PINNED = {
    ("sim", "horizon"): "sim: horizon must cover at least one step: horizon={}, dt=0.001",
    ("sim", "dt"): "sim: dt must be a positive real, got {}",
    ("sim", "input", "angular_frequency"): "sim.input: angular_frequency must be finite, got {}",
    ("observer", "gamma"): "observer.gamma: must be a finite nonnegative number",
}


@pytest.mark.parametrize("token", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize(
    "bad", config_paths(NON_FINITE_CONFIG)[1], ids=lambda path: ".".join(map(str, path))
)
def test_a_non_finite_config_number_is_a_config_error(
    write_config, capsys, monkeypatch, tmp_path, bad, token
):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    *parents, last = bad
    cfg = copy.deepcopy(NON_FINITE_CONFIG)
    at_path(cfg, parents)[last] = token
    where = parents[0] + "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" for key in (*parents[1:], last)
    )
    pinned = NON_FINITE_PINNED.get(tuple(bad), "{where}: expected a finite number")
    message = pinned.format(token, where=where)
    path = write_config(cfg)
    for argv in (["design"], ["simulate"], ["sweep-gamma", "--gammas", "1"]):
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert (code, out, err) == (2, "", f"config error: {message}\n"), argv


# The command-line value overrides the file's, and a non-finite file value
# is refused all the same; without the override the pinned texts above stand.
SIM_OVERRIDES = {"horizon": "0.01", "dt": "0.001", "eps": "0"}


@pytest.mark.parametrize("token", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("key", sorted(SIM_OVERRIDES))
@pytest.mark.parametrize(
    "argv", [["simulate"], ["sweep-gamma", "--gammas", "1"]], ids=lambda argv: argv[0]
)
def test_a_non_finite_sim_number_is_refused_under_its_override(
    write_config, capsys, monkeypatch, tmp_path, argv, key, token
):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    cfg = copy.deepcopy(EXAMPLE_CONFIG)
    cfg["sim"][key] = token
    path = write_config(cfg)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:], f"--{key}", SIM_OVERRIDES[key])
    assert (code, out, err) == (2, "", f"config error: sim.{key}: expected a finite number\n")


def test_an_integer_past_the_digit_limit_is_a_config_error(write_config, capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config()).replace("2.0", "1" + "0" * 5000, 1))
    code, out, err = run_cli(capsys, "design", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1


def test_design_negative_seed_exits_two(write_config, capsys):
    path = write_config(base_config())
    code, out, err = run_cli(
        capsys, "design", path, "--equilibrium-search", "--seed", "-1"
    )
    assert code == 2
    assert out == ""
    assert "--seed" in err
    code, _, _ = run_cli(capsys, "design", path, "--equilibrium-search", "--seed", "0")
    assert code == 0


def test_missing_horizon_is_an_error_only_for_a_run_without_horizon(
    write_config, capsys, monkeypatch, tmp_path
):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    cfg = base_config()
    del cfg["sim"]["horizon"]
    path = write_config(cfg)
    assert run_cli(capsys, "design", path)[0] == 0
    for argv in (["simulate"], ["sweep-gamma", "--gammas", "1"]):
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert (code, out) == (2, "")
        assert err == "config error: sim.horizon: required (or pass --horizon)\n"
        assert run_cli(capsys, argv[0], path, *argv[1:], "--horizon", "0.01")[0] == 0


def test_horizon_shorter_than_dt_exits_two(write_config, capsys):
    cfg = base_config()
    cfg["sim"]["horizon"] = 1e-6
    code, _, err = run_cli(capsys, "simulate", write_config(cfg))
    assert code == 2
    assert "horizon" in err


def test_wrong_x0_length_exits_two(write_config, capsys):
    cfg = base_config()
    cfg["sim"]["x0"] = [1.0]
    code, _, err = run_cli(capsys, "simulate", write_config(cfg))
    assert code == 2
    assert "sim.x0" in err


@pytest.mark.parametrize(
    "argv", [["simulate"], ["sweep-gamma", "--gammas", "1"]], ids=["simulate", "sweep"]
)
@pytest.mark.parametrize(
    "signal",
    [
        {"kind": "sinusoid", "amplitude": [1.0, 2.0], "angular_frequency": 1.0},
        {"kind": "sampled", "times": [0.0, 1.0], "values": [[1.0, 2.0], [3.0, 4.0]]},
    ],
    ids=["sinusoid", "sampled"],
)
def test_input_dimension_mismatch_exits_two(write_config, capsys, argv, signal):
    cfg = json.loads((REPO_ROOT / "docs" / "example_config.json").read_text())
    cfg["sim"]["input"] = signal
    code, out, err = run_cli(capsys, argv[0], write_config(cfg), *argv[1:])
    assert code == 2
    assert out == ""
    assert "sim.input" in err
    assert "dimension 2, plant expects 1" in err


def test_missing_subcommand_argument_exits_two(capsys):
    assert cli.main(["design"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# command-line surface: options, choices and defaults stay as documented

# (flags or positional name, choices, default, required, type, help)
CLI_SURFACE = {
    "design": [
        ("config", None, None, True, None, "JSON config file with system and observer sections"),
        ("--out", None, None, False, None, "write the design document here instead of stdout"),
        ("--format", ("json", "csv"), "json", False, None, None),
        ("--seed", None, 0, False, "int", "unused: the search draws no numbers"),
        (
            "--equilibrium-search",
            None,
            False,
            False,
            None,
            "also count the nonzero equilibria of the error dynamics",
        ),
    ],
    "simulate": [
        ("config", None, None, True, None, None),
        ("--out", None, None, False, None, "trace CSV path (default trace.csv)"),
        ("--dt", None, None, False, "float", "override sim.dt"),
        ("--horizon", None, None, False, "float", "override sim.horizon"),
        ("--eps", None, None, False, "float", "override sim.eps (model perturbation)"),
        ("--format", ("json", "csv"), "json", False, None, None),
    ],
    "example": [
        ("number", (1, 2, 3), None, True, "int", None),
        ("--out", None, None, False, None, "bundle directory (default example<n>)"),
    ],
    "sweep-gamma": [
        ("config", None, None, True, None, None),
        ("--gammas", None, None, True, None, "comma-separated nonnegative values"),
        ("--out", None, None, False, None, "table path (default stdout)"),
        ("--dt", None, None, False, "float", None),
        ("--horizon", None, None, False, "float", None),
        ("--eps", None, None, False, "float", None),
        ("--format", ("csv", "json"), "csv", False, None, None),
    ],
}
SUBCOMMAND_HELP = {
    "design": "build an observer and print its certificate",
    "simulate": "run the observer and write a trace CSV",
    "example": "reproduce a bundled example end to end",
    "sweep-gamma": "tabulate metrics across cubic gain intensities",
}


def parser_surface(parser):
    """The rows of CLI_SURFACE for one parser, leaving out -h/--help."""
    return [
        (
            " ".join(a.option_strings) or a.dest,
            a.choices,
            a.default,
            a.required,
            getattr(a.type, "__name__", None),
            a.help,
        )
        for a in parser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]


def test_command_line_surface_is_pinned():
    parser = cli.build_parser()
    assert parser.prog == "cubicobs"
    assert parser.description == (
        "design, certify, and simulate cubic observers for LTI systems"
    )
    assert parser_surface(parser) == []
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    assert {a.dest: a.help for a in sub._choices_actions} == SUBCOMMAND_HELP
    assert list(sub.choices) == list(CLI_SURFACE)
    for name, subparser in sub.choices.items():
        assert parser_surface(subparser) == CLI_SURFACE[name], name


def test_main_reuses_its_parser_and_finds_the_handler_when_it_runs(
    write_config, capsys, monkeypatch
):
    path = write_config(base_config())
    assert run_cli(capsys, "design", path)[0] == 0
    assert cli._parser() is cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_design", lambda args: seen.append(args.config) or 7)
    assert run_cli(capsys, "design", path)[0] == 7
    assert seen == [path]


@pytest.mark.parametrize("argv", [[], ["design"], ["simulate"], ["example"], ["sweep-gamma"]])
def test_help_from_the_reused_parser_matches_a_fresh_one(capsys, argv):
    fresh = cli.build_parser()
    with pytest.raises(SystemExit):
        fresh.parse_args(argv + ["--help"])
    want = capsys.readouterr().out
    for _ in range(2):
        code, out, err = run_cli(capsys, *argv, "--help")
        assert (code, out, err) == (0, want, "")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trace_with_exact_header(write_config, capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "simulate", write_config(base_config()), "--out", str(out_csv)
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,xhat1,xhat2,e1,e2,y1,u1"
    # horizon 4.0 at dt 1e-3: 4000 steps, 4001 samples
    assert len(lines) == 4002
    assert lines[-1].startswith("4,")
    doc = json.loads(out)
    validate(doc, "simulate_document")
    assert doc["trace_path"] == str(out_csv)
    assert doc["metrics"]["j_total"] > 0.0


def test_simulate_lyapunov_columns_are_opt_in(write_config, capsys, tmp_path):
    cfg = base_config()
    cfg["outputs"] = ["trace", "lyapunov"]
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "simulate", write_config(cfg), "--out", str(out_csv)
    )
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "t,x1,x2,xhat1,xhat2,e1,e2,y1,u1,V,V_cz"


@pytest.mark.parametrize(
    "q, x0", [(10.0, [1e200, 2e200]), (1e290, [1e50, 1e50]), (1e250, [1e50, 1e50])]
)
def test_a_start_beyond_the_limit_keeps_v_infinite_in_the_trace(
    write_config, capsys, tmp_path, q, x0
):
    # e'Pe of such a start overflows inside einsum, whose NaN is written as
    # its true value inf (V_cz = 1); the run then diverges on its first step
    cfg = copy.deepcopy(EXAMPLE_CONFIG)
    cfg["observer"]["q"] = q
    cfg["sim"].update(horizon=0.1, x0=x0)
    cfg["outputs"] = ["trace", "metrics", "lyapunov"]
    out_csv = tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_cli(capsys, "simulate", write_config(cfg), "--out", str(out_csv))
    assert (code, err) == (1, "error: trajectory diverged between t=0 and t=0.001\n")
    header, row = out_csv.read_text().splitlines()
    assert header.endswith(",V,V_cz")
    assert row.endswith(",inf,1") and "nan" not in row


@pytest.mark.parametrize(
    "signal, u1",
    [({"kind": "zero"}, "0"), ({"kind": "constant", "level": 0.5}, "0.5")],
    ids=["zero", "constant"],
)
def test_simulate_zero_and_constant_inputs(write_config, capsys, tmp_path, signal, u1):
    cfg = base_config()
    cfg["sim"].update(horizon=0.01, input=signal)
    out_csv = tmp_path / "trace.csv"
    code, _, err = run_cli(capsys, "simulate", write_config(cfg), "--out", str(out_csv))
    assert (code, err) == (0, "")
    header, *rows = out_csv.read_text().splitlines()
    assert header.split(",")[-1] == "u1" and len(rows) == 11
    assert {row.split(",")[-1] for row in rows} == {u1}


def test_simulate_metrics_only(write_config, capsys):
    cfg = base_config()
    cfg["outputs"] = ["metrics"]
    code, out, _ = run_cli(capsys, "simulate", write_config(cfg))
    assert code == 0
    doc = json.loads(out)
    validate(doc, "simulate_document")
    assert "trace_path" not in doc
    validate(doc["metrics"], "metrics_document")


def test_simulate_certificate_output(write_config, capsys):
    cfg = base_config()
    cfg["outputs"] = ["metrics", "certificate"]
    code, out, _ = run_cli(capsys, "simulate", write_config(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["all_ok"] is True
    validate(doc["certificate"], "certificate")


def test_unknown_output_kind_exits_two(write_config, capsys):
    cfg = base_config()
    cfg["outputs"] = ["plots"]
    code, _, err = run_cli(capsys, "simulate", write_config(cfg))
    assert code == 2
    assert "plots" in err


def test_simulate_closed_loop_adds_control_columns(write_config, capsys, tmp_path):
    cfg = {
        "system": {
            "a": [[0.1, -2.0, 0.0], [0.3, 0.0, -1.0], [0.1, 0.2, 3.0]],
            "b": [[1.0, 2.0], [2.0, 0.0], [0.0, 1.0]],
            "c": [[1.0, 1.0, 2.0]],
        },
        "observer": {
            "type": "cubic_explicit",
            "gain_lc": [0.267, -1.429, 3.904],
            "gain_nc": [-2.67, 14.29, -39.04],
            "theta": 10.0,
            "gamma": 1.0,
        },
        "feedback": {"k": [[-0.597, 2.004, 2.511], [-0.197, 0.757, 7.510]]},
        "lqr": {"q": 1.0, "r": 1.0},
        "sim": {"horizon": 1.0, "dt": 1e-3, "x0": [0.2, 0.2, 0.2]},
    }
    out_csv = tmp_path / "loop.csv"
    code, out, _ = run_cli(
        capsys, "simulate", write_config(cfg), "--out", str(out_csv)
    )
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == (
        "t,x1,x2,x3,xhat1,xhat2,xhat3,e1,e2,e3,y1,u1,u2,uc1,uc2"
    )
    doc = json.loads(out)
    assert doc["metrics"]["lqr_cost"] > 0.0


def test_simulate_divergence_exits_one_with_partial_trace(
    write_config, capsys, tmp_path
):
    cfg = {
        "system": {"a": [[5.0]], "c": [[1.0]]},
        "observer": {"type": "linear", "gain_l": [6.0]},
        "sim": {"horizon": 10.0, "dt": 1e-3, "x0": [1.0]},
    }
    out_csv = tmp_path / "partial.csv"
    code, out, err = run_cli(
        capsys, "simulate", write_config(cfg), "--out", str(out_csv)
    )
    assert code == 1
    assert "diverged" in err
    doc = json.loads(out)
    assert doc["metrics"]["diverged_at"] == pytest.approx(5.53, abs=0.1)
    lines = out_csv.read_text().splitlines()
    assert 5000 < len(lines) < 6000  # partial rows up to the divergence time


def test_simulate_cli_overrides(write_config, capsys, tmp_path):
    # a linear observer tolerates the coarse override step; the cubic
    # correction at this initial error would be too stiff for dt = 0.01
    cfg = base_config()
    cfg["observer"] = {"type": "linear", "poles": [-2.0, -5.0]}
    f1 = tmp_path / "a.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        write_config(cfg),
        "--horizon",
        "1.0",
        "--dt",
        "0.01",
        "--out",
        str(f1),
    )
    assert code == 0
    lines = f1.read_text().splitlines()
    assert len(lines) == 102  # 100 steps plus sample at t=0, plus header


def test_simulate_eps_flag_matches_config_eps(write_config, capsys, tmp_path):
    cfg = base_config()
    cfg["sim"]["horizon"] = 1.0
    f1, f2 = tmp_path / "flag.csv", tmp_path / "cfg.csv"
    code1, _, _ = run_cli(
        capsys, "simulate", write_config(cfg, "c1.json"), "--eps", "0.02",
        "--out", str(f1),
    )
    cfg["sim"]["eps"] = 0.02
    code2, _, _ = run_cli(
        capsys, "simulate", write_config(cfg, "c2.json"), "--out", str(f2)
    )
    assert code1 == code2 == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_simulate_repeat_runs_are_byte_identical(write_config, capsys, tmp_path):
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for path in (f1, f2):
        code, _, _ = run_cli(
            capsys, "simulate", write_config(base_config()), "--out", str(path)
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_out_dir_env_rebases_relative_outputs(
    write_config, capsys, tmp_path, monkeypatch
):
    base = tmp_path / "rebased"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(base))
    code, out, _ = run_cli(
        capsys, "simulate", write_config(base_config()), "--out", "sub/trace.csv"
    )
    assert code == 0
    assert (base / "sub" / "trace.csv").exists()
    assert json.loads(out)["trace_path"] == str(base / "sub" / "trace.csv")
    # absolute paths are left alone
    absolute = tmp_path / "abs.csv"
    code, _, _ = run_cli(
        capsys, "simulate", write_config(base_config()), "--out", str(absolute)
    )
    assert code == 0
    assert absolute.exists()


# ---------------------------------------------------------------------------
# sweep-gamma


def test_sweep_gamma_table_sorted_with_degenerate_row(
    write_config, capsys
):
    code, out, _ = run_cli(
        capsys,
        "sweep-gamma",
        write_config(base_config()),
        "--gammas",
        "2,0,0.5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,degenerate,peak,overshoot,settling,j_total"
    gammas = [float(line.split(",")[0]) for line in lines[1:]]
    assert gammas == [0.0, 0.5, 2.0]
    flags = [line.split(",")[1] for line in lines[1:]]
    assert flags == ["1", "0", "0"]


def test_sweep_gamma_zero_row_equals_linear_observer_metrics(
    write_config, capsys
):
    code, sweep_out, _ = run_cli(
        capsys, "sweep-gamma", write_config(base_config()), "--gammas", "0"
    )
    assert code == 0
    row = sweep_out.splitlines()[1].split(",")

    cfg = base_config()
    cfg["observer"] = {"type": "linear", "poles": [-2.0, -5.0], "q": 10.0}
    cfg["outputs"] = ["metrics"]
    code, sim_out, _ = run_cli(capsys, "simulate", write_config(cfg, "lin.json"))
    assert code == 0
    met = json.loads(sim_out)["metrics"]
    assert float(row[2]) == max(met["peak_error"])
    assert float(row[5]) == met["j_total"]


def test_sweep_gamma_single_value_matches_simulate(write_config, capsys):
    code, sweep_out, _ = run_cli(
        capsys, "sweep-gamma", write_config(base_config()), "--gammas", "2"
    )
    assert code == 0
    row = sweep_out.splitlines()[1].split(",")
    cfg = base_config()
    cfg["outputs"] = ["metrics"]
    code, sim_out, _ = run_cli(capsys, "simulate", write_config(cfg, "cub.json"))
    assert code == 0
    met = json.loads(sim_out)["metrics"]
    assert float(row[0]) == 2.0
    assert float(row[2]) == max(met["peak_error"])
    assert float(row[5]) == met["j_total"]


def test_sweep_gamma_json_format(write_config, capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep-gamma",
        write_config(base_config()),
        "--gammas",
        "0.5,1",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "sweep_document")
    assert [row["gamma"] for row in doc["sweep"]] == [0.5, 1.0]


def test_sweep_gamma_rejects_bad_values(write_config, capsys):
    code, _, err = run_cli(
        capsys, "sweep-gamma", write_config(base_config()), "--gammas=-1,2"
    )
    assert code == 2
    assert "nonnegative" in err
    fx = examples.get_example(1)
    with pytest.raises(ContractError, match="^gamma values must be nonnegative, got -1.0$"):
        examples.gamma_sweep(fx.system, fx.gain_lc, fx.q, fx.theta, [1.0, -1.0], fx.sim)
    code, _, err = run_cli(
        capsys, "sweep-gamma", write_config(base_config()), "--gammas", "a,b"
    )
    assert code == 2
    for empty in ("", " , "):
        code, out, err = run_cli(
            capsys, "sweep-gamma", write_config(base_config()), f"--gammas={empty}"
        )
        assert (code, out) == (2, "")
        assert err == "config error: --gammas: expected a comma-separated list of values\n"


def test_sweep_gamma_negative_zero_is_the_zero_row(write_config, capsys):
    path = write_config(base_config())
    tables = []
    for gammas in ("0", "-0", "0,-0", "-0,0"):
        code, out, _ = run_cli(
            capsys, "sweep-gamma", path, f"--gammas={gammas}", "--horizon", "0.1"
        )
        assert code == 0
        tables.append(out)
    assert tables[1:] == tables[:1] * 3
    assert tables[0].splitlines()[1].startswith("0,1,")


@pytest.mark.parametrize("gammas", ["nan", "inf", "-inf", "1,inf", "0.5,nan"])
def test_sweep_gamma_rejects_non_finite_values(write_config, capsys, gammas):
    code, out, err = run_cli(
        capsys, "sweep-gamma", write_config(base_config()), f"--gammas={gammas}"
    )
    assert (code, out) == (2, "")
    assert err.startswith("config error: --gammas: values must be ")
    assert err.count("\n") == 1


def test_sweep_gamma_requires_synthesizable_observer(write_config, capsys):
    cfg = base_config()
    cfg["observer"] = {"type": "linear", "poles": [-2.0, -5.0]}
    code, _, err = run_cli(
        capsys, "sweep-gamma", write_config(cfg), "--gammas", "1"
    )
    assert code == 2
    assert "cubic" in err


# ---------------------------------------------------------------------------
# example bundles


def test_example_bundle_layout_and_report(capsys, tmp_path):
    out_dir = tmp_path / "bundle"
    code, out, _ = run_cli(capsys, "example", "1", "--out", str(out_dir))
    assert code == 0
    listing = json.loads(out)
    validate(listing, "example_listing")
    assert listing["out_dir"] == str(out_dir)
    expected = [
        "cubic_trace.csv",
        "cumulative_cubic.csv",
        "cumulative_linear.csv",
        "design.json",
        "linear_trace.csv",
        "report.json",
        "sweep_gamma.csv",
    ]
    assert listing["files"] == expected
    assert sorted(os.listdir(out_dir)) == expected

    report = json.loads((out_dir / "report.json").read_text())
    validate(report, "report_document")
    assert report["example"] == 1
    assert report["comparison"]["j_total_cubic"] < report["comparison"]["j_total_linear"]
    assert report["certificate"]["all_ok"] is True

    design = json.loads((out_dir / "design.json").read_text())
    validate(design, "design_document")

    # bundle traces carry the Lyapunov energy columns for plotting
    header = (out_dir / "cubic_trace.csv").read_text().splitlines()[0]
    assert header.endswith("V,V_cz")
    cum_header = (out_dir / "cumulative_cubic.csv").read_text().splitlines()[0]
    assert cum_header == "t,J1,J2,J"


@pytest.mark.parametrize("number", [2.7, True, "3", 0, 4, None])
def test_get_example_refuses_anything_but_an_example_number(number):
    # the command line parses the number with int before it gets here
    with pytest.raises(ContractError) as info:
        examples.get_example(number)
    assert str(info.value) == f"no example numbered {number!r}; choose 1, 2, or 3"


def test_get_example_takes_a_numpy_integer():
    assert examples.get_example(np.int64(2)).name == "example2"


def test_shipped_example_config_is_valid_and_runs(capsys):
    cfg_path = REPO_ROOT / "docs" / "example_config.json"
    validate(json.loads(cfg_path.read_text()), "config")
    code, out, _ = run_cli(capsys, "design", str(cfg_path))
    assert code == 0
    assert json.loads(out)["certificate"]["all_ok"] is True


def test_module_entry_point_runs(write_config, tmp_path):
    # python -m cubicobs mirrors the installed console script
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    proc = subprocess.run(
        [sys.executable, "-m", "cubicobs", "design", str(cfg_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certificate"]["all_ok"] is True


IMPORT_PROBE = """
import sys
start = {name.partition(".")[0] for name in sys.modules}
import cubicobs, cubicobs.cli
added = {name.partition(".")[0] for name in sys.modules} - start
print(sorted(added - sys.stdlib_module_names - {"numpy", "cubicobs"}))
"""


def test_the_package_imports_only_numpy_and_the_standard_library():
    # measured against the interpreter's own start-up modules, since site
    # may load third-party ones (certifi, _distutils_hack) before any import
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def imported_or_reached_names(node):
    """The module path parts an import names, or the attribute a node reads."""
    if isinstance(node, ast.Import):
        return [part for alias in node.names for part in alias.name.split(".")]
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".") + [alias.name for alias in node.names]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def test_the_package_draws_no_random_numbers():
    # every result is a function of the inputs alone: no module imports
    # random or numpy.random, or reads a .random attribute such as np.random
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert "random" not in imported_or_reached_names(node), (path.name, node.lineno)
