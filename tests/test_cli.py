"""End-to-end tests of the command line front end.

These drive cli.main() in process, asserting exit codes, document shapes,
file layouts, and byte-level determinism of the emitted artifacts. The
JSON documents are additionally validated against docs/schema.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cubicobs import cli

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO_ROOT / "docs" / "schema.json").read_text())


def validate(instance, def_name):
    jsonschema.validate(
        instance, {"$ref": f"#/$defs/{def_name}", "$defs": SCHEMA["$defs"]}
    )


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


def test_design_gamma_defaults_to_one(write_config, capsys):
    cfg = base_config()
    del cfg["observer"]["gamma"]
    code, out, _ = run_cli(capsys, "design", write_config(cfg))
    assert code == 0
    assert json.loads(out)["design"]["gamma"] == 1.0


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


def test_design_equilibrium_search_flag(write_config, capsys):
    code, out, _ = run_cli(
        capsys, "design", write_config(base_config()), "--equilibrium-search"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["margins"]["nonzero_equilibria_found"] == 0.0


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


@pytest.mark.parametrize(
    "lqr, feedback",
    [({"q": 1, "r": 1}, None), ({"bogus": 1}, [[1.0, 2.0]])],
    ids=["without-feedback", "unknown-field"],
)
@pytest.mark.parametrize(
    "argv",
    [("design",), ("design", "--equilibrium-search"), ("sweep-gamma", "--gammas", "1")],
    ids=["design", "design-search", "sweep-gamma"],
)
def test_bad_lqr_section_exits_two_in_every_subcommand(
    write_config, capsys, lqr, feedback, argv
):
    cfg = json.loads((REPO_ROOT / "docs" / "example_config.json").read_text())
    cfg["lqr"] = lqr
    if feedback is not None:
        cfg["feedback"] = {"k": feedback}
    code, out, err = run_cli(capsys, argv[0], write_config(cfg), *argv[1:])
    assert code == 2
    assert out == ""
    assert "lqr" in err


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


def test_missing_subcommand_argument_exits_two(capsys):
    assert cli.main(["design"]) == 2
    capsys.readouterr()


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
    code, _, err = run_cli(
        capsys, "sweep-gamma", write_config(base_config()), "--gammas", "a,b"
    )
    assert code == 2


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
