"""Command line front end for observer design, certification, and runs.

Subcommands:

  design       read a JSON config, build the observer, print the design and
               its certificate as JSON (exit 1 when certification fails)
  simulate     run the configured observer and write a plot-ready trace CSV
               plus a metrics document on standard output
  example      reproduce one of the three bundled examples into a directory
  sweep-gamma  run the same observer across several cubic gain intensities
               and tabulate the metrics per gamma

Config files are JSON with three sections: "system" (matrices a, c and
optionally b as arrays of row arrays), "observer" (variant plus gains or
poles), and "sim" (horizon, dt, initial conditions, input signal). See
docs/schema.json for the full shape and docs/example_config.json for a
worked file.

Exit codes: 0 success, 1 domain failure (failed certificate, infeasible
design, divergence), 2 unusable configuration or command line. The
CUBIC_OBS_OUT_DIR environment variable rebases every relative output path.
"""

import argparse
import dataclasses
import json
import os
import sys as _sys

import numpy as np

from . import serialize
from .design import (
    certify_stability,
    degenerate_linear,
    explicit_cubic_design,
    feedback_certificate,
    place_poles_single_output,
    synthesize_cubic_gain,
)
from .errors import ConfigError, DivergenceError, ObserverToolkitError
from .examples import compute_bundle, gamma_sweep
from .sim import (
    SimConfig,
    compute_metrics,
    simulate_closed_loop,
    simulate_cubic_observer,
)
from .sysmodel import (
    ConstantInput,
    LinearSystem,
    SampledInput,
    SinusoidInput,
    ZeroInput,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

OUT_DIR_ENV = "CUBIC_OBS_OUT_DIR"

_TOP_LEVEL_FIELDS = ("system", "observer", "sim", "feedback", "lqr", "outputs")
_OBSERVER_TYPES = ("linear", "cubic", "cubic_explicit")
_OUTPUT_KINDS = ("trace", "metrics", "certificate", "lyapunov")


# ---------------------------------------------------------------------------
# config parsing; every complaint names the offending field


def _load_config(path):
    """Read a JSON config file and reject unknown top-level fields.

    Returns the raw document with its parsed system and observer sections,
    which every subcommand that reads a config needs, and the lqr weights
    (None without an lqr section), which only simulate uses but every
    subcommand validates.
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    _reject_unknown(cfg, _TOP_LEVEL_FIELDS, "config")
    system = build_system(cfg)
    obs = parse_observer(cfg, system)
    return cfg, system, obs, parse_lqr(cfg, system)


def _as_dict(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _as_number_list(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty array of numbers")
    return [_as_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_matrix(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected an array of row arrays")
    rows = []
    width = None
    for i, row in enumerate(value):
        entries = _as_number_list(row, f"{path}[{i}]")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ConfigError(f"{path}: rows have inconsistent lengths")
        rows.append(entries)
    return np.array(rows, dtype=float)


def _as_gain(value, path, n, n_y):
    """A gain column: flat array of n numbers, or n rows of n_y numbers."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected an array")
    if isinstance(value[0], list):
        gain = _as_matrix(value, path)
    else:
        gain = np.array(_as_number_list(value, path), dtype=float)[:, None]
    if gain.shape != (n, n_y):
        raise ConfigError(f"{path}: expected shape ({n}, {n_y}), got {gain.shape}")
    return gain


def _scalar_or_matrix(value, path, size):
    if isinstance(value, list):
        m = _as_matrix(value, path)
        if m.shape != (size, size):
            raise ConfigError(f"{path}: expected a {size}x{size} matrix")
        return m
    return _as_number(value, path) * np.eye(size)


def _parse_poles(value, path, n):
    """Pole entries are numbers or [re, im] pairs; must count n in total."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected an array of poles")
    poles = []
    for i, entry in enumerate(value):
        where = f"{path}[{i}]"
        if isinstance(entry, list):
            if len(entry) != 2:
                raise ConfigError(f"{where}: complex pole must be a [re, im] pair")
            re = _as_number(entry[0], f"{where}[0]")
            im = _as_number(entry[1], f"{where}[1]")
            poles.append(complex(re, im))
        else:
            poles.append(complex(_as_number(entry, where), 0.0))
    if len(poles) != n:
        raise ConfigError(f"{path}: expected {n} poles, got {len(poles)}")
    return poles


def _reject_unknown(doc, allowed, path):
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{path}: unknown field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def build_system(cfg):
    doc = _as_dict(cfg.get("system"), "system")
    _reject_unknown(doc, ("a", "b", "c"), "system")
    if "a" not in doc or "c" not in doc:
        raise ConfigError("system: fields a and c are required")
    a = _as_matrix(doc["a"], "system.a")
    c = _as_matrix(doc["c"], "system.c")
    if "b" in doc:
        b = _as_matrix(doc["b"], "system.b")
    else:
        b = np.zeros((a.shape[0], 1))
    try:
        return LinearSystem(a=a, b=b, c=c)
    except ObserverToolkitError as exc:
        raise ConfigError(f"system: {exc}")


_OBSERVER_FIELDS = {
    "linear": ("type", "gain_l", "poles", "q"),
    "cubic": ("type", "gain_lc", "poles", "q", "theta", "gamma", "damping_mode"),
    "cubic_explicit": (
        "type",
        "gain_lc",
        "poles",
        "gain_nc",
        "q",
        "theta",
        "gamma",
        "damping_mode",
    ),
}


def parse_observer(cfg, system):
    """Structural read of the observer section; no linear algebra yet."""
    doc = _as_dict(cfg.get("observer"), "observer")
    kind = doc.get("type")
    if kind not in _OBSERVER_TYPES:
        raise ConfigError(
            f"observer.type: expected one of {', '.join(_OBSERVER_TYPES)}, got {kind!r}"
        )
    _reject_unknown(doc, _OBSERVER_FIELDS[kind], "observer")
    n, n_y = system.n, system.n_outputs

    gain_key = "gain_l" if kind == "linear" else "gain_lc"
    has_gain = gain_key in doc
    has_poles = "poles" in doc
    if has_gain == has_poles:
        raise ConfigError(
            f"observer: exactly one of {gain_key} or poles must be given"
        )

    parsed = {"type": kind, "poles": None, "gain_lc": None, "gain_nc": None}
    if has_gain:
        parsed["gain_lc"] = _as_gain(doc[gain_key], f"observer.{gain_key}", n, n_y)
    else:
        parsed["poles"] = _parse_poles(doc["poles"], "observer.poles", n)

    if kind == "cubic_explicit":
        if "gain_nc" not in doc:
            raise ConfigError("observer.gain_nc: required for cubic_explicit")
        parsed["gain_nc"] = _as_gain(doc["gain_nc"], "observer.gain_nc", n, n_y)

    parsed["q"] = (
        _scalar_or_matrix(doc["q"], "observer.q", n) if "q" in doc else np.eye(n)
    )
    parsed["theta"] = (
        _scalar_or_matrix(doc["theta"], "observer.theta", n_y)
        if "theta" in doc
        else np.eye(n_y)
    )
    gamma = _as_number(doc.get("gamma", 1.0), "observer.gamma")
    if not np.isfinite(gamma) or gamma < 0.0:
        raise ConfigError("observer.gamma: must be a finite nonnegative number")
    if kind == "cubic_explicit" and gamma == 0.0:
        raise ConfigError(
            "observer.gamma: must be positive for cubic_explicit, whose gain_nc "
            "sets the cubic term; the zero-gain observer is type linear"
        )
    parsed["gamma"] = gamma

    mode = doc.get("damping_mode")
    if mode is not None and mode not in ("strict", "semidefinite"):
        raise ConfigError(
            f"observer.damping_mode: expected strict or semidefinite, got {mode!r}"
        )
    parsed["strict_damping"] = None if mode is None else (mode == "strict")
    return parsed


def _observer_gain(system, obs):
    """The configured gain_lc, or else the gain placing the configured poles."""
    if obs["gain_lc"] is not None:
        return obs["gain_lc"]
    return place_poles_single_output(system, obs["poles"])


def realize_design(system, obs):
    """Turn parsed observer parameters into a concrete design (may fail)."""
    gain_lc = _observer_gain(system, obs)
    kind = obs["type"]
    if kind == "linear" or (kind == "cubic" and obs["gamma"] == 0.0):
        return degenerate_linear(system, gain_lc, obs["q"])
    if kind == "cubic":
        return synthesize_cubic_gain(
            system, gain_lc, obs["q"], obs["theta"], obs["gamma"]
        )
    return explicit_cubic_design(
        system,
        gain_lc,
        obs["gain_nc"],
        obs["theta"],
        q=obs["q"],
        gamma=obs["gamma"],
    )


def _build_signal(doc, path, n_u):
    if doc is None:
        return None
    doc = _as_dict(doc, path)
    kind = doc.get("kind")
    try:
        if kind == "zero":
            _reject_unknown(doc, ("kind",), path)
            return ZeroInput(dimension=n_u)
        if kind == "sinusoid":
            _reject_unknown(
                doc, ("kind", "amplitude", "angular_frequency", "phase"), path
            )
            amp = doc.get("amplitude", [1.0] * n_u)
            if not isinstance(amp, list):
                amp = [_as_number(amp, f"{path}.amplitude")] * n_u
            return SinusoidInput(
                amplitude=_as_number_list(amp, f"{path}.amplitude"),
                angular_frequency=_as_number(
                    doc.get("angular_frequency", 1.0), f"{path}.angular_frequency"
                ),
                phase=_as_number(doc.get("phase", 0.0), f"{path}.phase"),
            )
        if kind == "constant":
            _reject_unknown(doc, ("kind", "level"), path)
            level = doc.get("level")
            if level is None:
                raise ConfigError(f"{path}.level: required for constant input")
            if not isinstance(level, list):
                level = [_as_number(level, f"{path}.level")] * n_u
            return ConstantInput(level=_as_number_list(level, f"{path}.level"))
        if kind == "sampled":
            _reject_unknown(doc, ("kind", "times", "values"), path)
            times = _as_number_list(doc.get("times"), f"{path}.times")
            values = _as_matrix(doc.get("values"), f"{path}.values")
            return SampledInput(times=times, values=values)
    except ObserverToolkitError as exc:
        raise ConfigError(f"{path}: {exc}")
    raise ConfigError(
        f"{path}.kind: expected zero, sinusoid, constant, or sampled, got {kind!r}"
    )


def _initial_state(doc, key, n):
    value = doc.get(key)
    if value is None:
        return None
    value = _as_number_list(value, f"sim.{key}")
    if len(value) != n:
        raise ConfigError(f"sim.{key}: expected {n} entries, got {len(value)}")
    return value


def build_sim_config(cfg, system, dt=None, horizon=None, eps=None):
    doc = _as_dict(cfg.get("sim", {}), "sim")
    _reject_unknown(
        doc, ("horizon", "dt", "x0", "xhat0", "eps", "input"), "sim"
    )
    if horizon is None:
        if "horizon" not in doc:
            raise ConfigError("sim.horizon: required (or pass --horizon)")
        horizon = _as_number(doc["horizon"], "sim.horizon")
    if dt is None:
        dt = _as_number(doc.get("dt", 1e-3), "sim.dt")
    if eps is None and "eps" in doc:
        eps = _as_number(doc["eps"], "sim.eps")
    x0 = _initial_state(doc, "x0", system.n)
    xhat0 = _initial_state(doc, "xhat0", system.n)
    signal = _build_signal(doc.get("input"), "sim.input", system.n_inputs)
    try:
        return SimConfig(
            horizon=horizon, dt=dt, x0=x0, xhat0=xhat0, input=signal, eps=eps
        )
    except ObserverToolkitError as exc:
        raise ConfigError(f"sim: {exc}")


def parse_feedback(cfg, system):
    if "feedback" not in cfg:
        return None
    doc = _as_dict(cfg["feedback"], "feedback")
    _reject_unknown(doc, ("k",), "feedback")
    if "k" not in doc:
        raise ConfigError("feedback.k: required")
    k = _as_matrix(doc["k"], "feedback.k")
    if k.shape != (system.n_inputs, system.n):
        raise ConfigError(
            f"feedback.k: expected shape ({system.n_inputs}, {system.n}), "
            f"got {k.shape}"
        )
    return k


def parse_lqr(cfg, system):
    if "lqr" not in cfg:
        return None
    if "feedback" not in cfg:
        raise ConfigError("lqr: needs a feedback section, which supplies the control")
    doc = _as_dict(cfg["lqr"], "lqr")
    _reject_unknown(doc, ("q", "r"), "lqr")
    q = _scalar_or_matrix(doc.get("q", 1.0), "lqr.q", system.n)
    r = _scalar_or_matrix(doc.get("r", 1.0), "lqr.r", system.n_inputs)
    return (q, r)


def parse_outputs(cfg):
    value = cfg.get("outputs", ["trace", "metrics"])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError("outputs: expected an array of artifact names")
    unknown = sorted(set(value) - set(_OUTPUT_KINDS))
    if unknown:
        raise ConfigError(
            f"outputs: unknown artifact(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(_OUTPUT_KINDS)}"
        )
    return value


# ---------------------------------------------------------------------------
# output plumbing


def _out_base():
    return os.environ.get(OUT_DIR_ENV) or "."


def _resolve_out(path, default_name):
    p = path if path else default_name
    if not os.path.isabs(p):
        p = os.path.join(_out_base(), p)
    return p


def _write_text(path, text):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _emit(text, out):
    """Write to the resolved --out file when one was given, else to stdout."""
    if out:
        _write_text(_resolve_out(out, None), text)
    else:
        _sys.stdout.write(text)


def _render_doc(doc, fmt):
    if fmt == "csv":
        return serialize.dumps_flat_csv(doc)
    return serialize.dumps_json(doc)


def _print_certificate_failure(cert):
    flags = [
        f"hurwitz_ok={cert.hurwitz_ok}",
        f"damping_ok={cert.damping_ok} ({cert.damping_mode})",
        f"uniqueness_ok={cert.uniqueness_ok}",
    ]
    if cert.feedback_ok is not None:
        flags.append(f"feedback_ok={cert.feedback_ok}")
    _sys.stderr.write("certificate failed: " + ", ".join(flags) + "\n")
    for key in sorted(cert.margins):
        _sys.stderr.write(f"  margin {key} = {cert.margins[key]:.6g}\n")


def _certify(system, design, obs, feedback_k, **search):
    """Certificate for the configured run.

    The loop certificate when feedback is configured, else the observer
    certificate; search options go to either.
    """
    if feedback_k is not None:
        return feedback_certificate(
            system, design, feedback_k, strict_damping=obs["strict_damping"], **search
        )
    return certify_stability(
        system, design, strict_damping=obs["strict_damping"], **search
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_design(args):
    if args.seed < 0:
        raise ConfigError(f"--seed: must be a nonnegative integer, got {args.seed}")
    cfg, system, obs, _ = _load_config(args.config)
    feedback_k = parse_feedback(cfg, system)

    design = realize_design(system, obs)
    search = {"equilibrium_search": args.equilibrium_search, "seed": args.seed}
    cert = _certify(system, design, obs, feedback_k, **search)

    doc = {
        "observer_type": "linear" if design.is_degenerate else "cubic",
        "design": serialize.design_to_jsonable(design),
        "certificate": serialize.certificate_to_jsonable(cert),
    }
    _emit(_render_doc(doc, args.format), args.out)
    if not cert.all_ok:
        _print_certificate_failure(cert)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_simulate(args):
    cfg, system, obs, lqr_weights = _load_config(args.config)
    sim_cfg = build_sim_config(
        cfg, system, dt=args.dt, horizon=args.horizon, eps=args.eps
    )
    feedback_k = parse_feedback(cfg, system)
    outputs = parse_outputs(cfg)

    design = realize_design(system, obs)

    diverged_at = None
    try:
        if feedback_k is not None:
            trace = simulate_closed_loop(system, design, feedback_k, sim_cfg)
        else:
            trace = simulate_cubic_observer(system, design, sim_cfg)
    except DivergenceError as exc:
        trace = exc.trace
        diverged_at = exc.last_time
        _sys.stderr.write(f"error: {exc}\n")

    metrics = compute_metrics(trace, lqr_weights=lqr_weights)
    if diverged_at is not None:
        metrics = dataclasses.replace(metrics, diverged_at=diverged_at)

    doc = {}
    if "trace" in outputs:
        trace_out = trace
        if "lyapunov" not in outputs:
            trace_out = dataclasses.replace(trace, lyapunov=None, lyapunov_zubov=None)
        path = _resolve_out(args.out, "trace.csv")
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        serialize.write_trace_csv(trace_out, path)
        doc["trace_path"] = path
    if "metrics" in outputs:
        doc["metrics"] = serialize.metrics_to_jsonable(metrics)
    if "certificate" in outputs:
        cert = _certify(system, design, obs, feedback_k)
        doc["certificate"] = serialize.certificate_to_jsonable(cert)
    _sys.stdout.write(_render_doc(doc, args.format))
    return EXIT_RUNTIME if diverged_at is not None else EXIT_OK


def _aggregate(metrics):
    """Collapse per-state metrics to the scalars a sweep row reports."""
    peak = max(metrics.peak_error)
    shoots = [v for v in metrics.overshoot_peak if v is not None]
    overshoot = max(shoots) if shoots else None
    if any(v is None for v in metrics.settling_time):
        settling = None
    else:
        settling = max(metrics.settling_time)
    return peak, overshoot, settling


def _sweep_csv(rows):
    lines = ["gamma,degenerate,peak,overshoot,settling,j_total"]
    for row in rows:
        met = row["metrics"]
        peak, overshoot, settling = _aggregate(met)
        cells = [
            serialize.format_float(row["gamma"]),
            "1" if row["degenerate"] else "0",
            serialize.format_float(peak),
            "" if overshoot is None else serialize.format_float(overshoot),
            "" if settling is None else serialize.format_float(settling),
            serialize.format_float(met.j_total),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _sweep_jsonable(rows):
    out = []
    for row in rows:
        out.append(
            {
                "gamma": float(row["gamma"]),
                "degenerate": bool(row["degenerate"]),
                "metrics": serialize.metrics_to_jsonable(row["metrics"]),
            }
        )
    return {"sweep": out}


def cmd_sweep_gamma(args):
    cfg, system, obs, _ = _load_config(args.config)
    if obs["type"] != "cubic":
        raise ConfigError(
            "observer.type: sweep-gamma needs a synthesizable cubic observer"
        )
    sim_cfg = build_sim_config(
        cfg, system, dt=args.dt, horizon=args.horizon, eps=args.eps
    )
    feedback_k = parse_feedback(cfg, system)

    gammas = []
    for piece in args.gammas.split(","):
        piece = piece.strip()
        if piece:
            try:
                gammas.append(float(piece))
            except ValueError:
                raise ConfigError(f"--gammas: {piece!r} is not a number")
    if not gammas:
        raise ConfigError("--gammas: expected a comma-separated list of values")
    if min(gammas) < 0.0:
        raise ConfigError(f"--gammas: values must be nonnegative, got {min(gammas)}")

    gain_lc = _observer_gain(system, obs)
    rows = gamma_sweep(
        system, gain_lc, obs["q"], obs["theta"], gammas, sim_cfg, feedback_k
    )

    if args.format == "json":
        _emit(serialize.dumps_json(_sweep_jsonable(rows)), args.out)
    else:
        _emit(_sweep_csv(rows), args.out)
    return EXIT_OK


def _comparison_block(metrics_linear, metrics_cubic):
    doc = {}
    for label, met in (("linear", metrics_linear), ("cubic", metrics_cubic)):
        peak, overshoot, settling = _aggregate(met)
        doc[f"peak_error_{label}"] = peak
        doc[f"overshoot_peak_{label}"] = overshoot
        doc[f"settling_time_{label}"] = settling
        doc[f"j_total_{label}"] = float(met.j_total)
    return doc


def _build_report(bundle):
    fx = bundle["fixture"]
    mets = bundle["metrics"]
    report = {
        "example": bundle["number"],
        "name": fx.name,
        "description": fx.description,
        "gamma": float(fx.gamma),
        "certificate": serialize.certificate_to_jsonable(bundle["certificate"]),
        "metrics": {
            key: serialize.metrics_to_jsonable(met) for key, met in sorted(mets.items())
        },
        "comparison": _comparison_block(mets["linear"], mets["cubic"]),
    }
    report["robustness_eps_max"] = float(bundle["certificate"].robustness_eps_max)
    if fx.eps_study is not None:
        report["eps_study"] = float(fx.eps_study)
    if mets["linear"].lqr_cost is not None:
        report["lqr_cost_linear"] = float(mets["linear"].lqr_cost)
        report["lqr_cost_cubic"] = float(mets["cubic"].lqr_cost)
        traces = bundle["traces"]
        for label in ("linear", "cubic"):
            tr = traces[f"{label}_trace"]
            report[f"final_state_norm_{label}"] = float(
                np.linalg.norm(tr.plant_states[-1])
            )
            report[f"final_error_norm_{label}"] = float(np.linalg.norm(tr.errors[-1]))
    return report


def write_bundle(bundle, out_dir):
    """Serialize a computed example bundle into out_dir; returns file names."""
    os.makedirs(out_dir, exist_ok=True)
    files = []

    design_doc = {
        "observer_type": "cubic",
        "design": serialize.design_to_jsonable(bundle["cubic_design"]),
        "certificate": serialize.certificate_to_jsonable(bundle["certificate"]),
    }
    _write_text(os.path.join(out_dir, "design.json"), serialize.dumps_json(design_doc))
    files.append("design.json")

    for name in sorted(bundle["traces"]):
        fname = f"{name}.csv"
        serialize.write_trace_csv(bundle["traces"][name], os.path.join(out_dir, fname))
        files.append(fname)

    for key in sorted(bundle["metrics"]):
        met = bundle["metrics"][key]
        trace = bundle["traces"][f"{key}_trace"]
        n = trace.n
        cols = ["t"] + [f"J{i + 1}" for i in range(n)] + ["J"]
        arrays = [trace.times]
        arrays += [met.cumulative_squared[:, i] for i in range(n)]
        arrays += [met.cumulative_total]
        fname = f"cumulative_{key}.csv"
        serialize.write_series_csv(os.path.join(out_dir, fname), cols, arrays)
        files.append(fname)
        if met.lqr_cost_series is not None:
            fname = f"cost_{key}.csv"
            serialize.write_series_csv(
                os.path.join(out_dir, fname),
                ["t", "cost"],
                [trace.times, met.lqr_cost_series],
            )
            files.append(fname)

    if bundle["sweep"] is not None:
        _write_text(os.path.join(out_dir, "sweep_gamma.csv"), _sweep_csv(bundle["sweep"]))
        files.append("sweep_gamma.csv")

    _write_text(
        os.path.join(out_dir, "report.json"),
        serialize.dumps_json(_build_report(bundle)),
    )
    files.append("report.json")
    return sorted(files)


def cmd_example(args):
    bundle = compute_bundle(args.number)
    out_dir = _resolve_out(args.out, f"example{args.number}")
    files = write_bundle(bundle, out_dir)
    _sys.stdout.write(
        serialize.dumps_json({"example": args.number, "out_dir": out_dir, "files": files})
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubicobs",
        description="design, certify, and simulate cubic observers for LTI systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="build an observer and print its certificate")
    p.add_argument("config", help="JSON config file with system and observer sections")
    p.add_argument("--out", help="write the design document here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0, help="seed for the equilibrium search")
    p.add_argument(
        "--equilibrium-search",
        action="store_true",
        help="also run the randomized nonzero-equilibrium falsifier",
    )
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="run the observer and write a trace CSV")
    p.add_argument("config")
    p.add_argument("--out", help="trace CSV path (default trace.csv)")
    p.add_argument("--dt", type=float, help="override sim.dt")
    p.add_argument("--horizon", type=float, help="override sim.horizon")
    p.add_argument("--eps", type=float, help="override sim.eps (model perturbation)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("example", help="reproduce a bundled example end to end")
    p.add_argument("number", type=int, choices=(1, 2, 3))
    p.add_argument("--out", help="bundle directory (default example<n>)")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser(
        "sweep-gamma", help="tabulate metrics across cubic gain intensities"
    )
    p.add_argument("config")
    p.add_argument("--gammas", required=True, help="comma-separated nonnegative values")
    p.add_argument("--out", help="table path (default stdout)")
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep_gamma)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        _sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ObserverToolkitError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME
    except OSError as exc:
        _sys.stderr.write(f"io error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
