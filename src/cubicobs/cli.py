"""Command line front end for observer design, certification, and runs.

Subcommands:

  design       read a JSON config, build the observer, print the design and
               its certificate as JSON (exit 1 when certification fails)
  simulate     run the configured observer and write a plot-ready trace CSV
               plus a metrics document on standard output
  example      reproduce one of the three bundled examples into a directory
  sweep-gamma  run the same observer across several cubic gain intensities
               and tabulate the metrics per gamma

Config files are JSON with six sections: "system" (matrices a, c and
optionally b as arrays of row arrays), "observer" (variant plus gains or
poles), "sim" (horizon, dt, initial conditions, input signal), "feedback"
(the gain k of u = -k xhat), "lqr" (regulation cost weights) and "outputs"
(the artifacts simulate writes). Every subcommand that reads a config
parses and checks all six, so a malformed section gets the same exit 2
from each; only a missing sim.horizon is left to the subcommands that run
a simulation. See docs/schema.json for the full shape and
docs/example_config.json for a worked file.

Exit codes: 0 success, 1 domain failure (failed certificate, infeasible
design, divergence), 2 unusable configuration or command line. The
CUBIC_OBS_OUT_DIR environment variable rebases every relative output path.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys as _sys

import numpy as np

from . import serialize
from .design import place_poles_single_output
from .errors import ConfigError, DivergenceError, ObserverToolkitError
from .examples import build_design, certify, compute_bundle, gamma_sweep, simulate
from .sim import SimConfig, compute_metrics
from .sysmodel import (
    ConstantInput,
    LinearSystem,
    SampledInput,
    SinusoidInput,
    ZeroInput,
)

# Not called here: the benchmark's SPANS (bench/layers.py) wrap these names
# on this module, so they must keep resolving until those spans move.
from .design import certify_stability, feedback_certificate  # noqa: F401
from .design import synthesize_cubic_gain  # noqa: F401
from .sim import simulate_closed_loop, simulate_cubic_observer  # noqa: F401

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

OUT_DIR_ENV = "CUBIC_OBS_OUT_DIR"

_TOP_LEVEL_FIELDS = ("system", "observer", "sim", "feedback", "lqr", "outputs")
_OBSERVER_TYPES = ("linear", "cubic", "cubic_explicit")
_OUTPUT_KINDS = ("trace", "metrics", "certificate", "lyapunov")


# ---------------------------------------------------------------------------
# config parsing; every complaint names the offending field


@dataclasses.dataclass(frozen=True)
class Config:
    """Every section of a config file, parsed and checked.

    observer is the dict parse_observer returns. sim is None when the
    subcommand runs no simulation and the file sets no horizon;
    feedback_k and lqr_weights are None without their sections.
    """

    system: LinearSystem
    observer: dict
    sim: SimConfig | None
    feedback_k: np.ndarray | None
    lqr_weights: tuple | None
    outputs: list

    def gain_lc(self):
        """The configured gain_lc, or else the gain placing the configured poles."""
        if self.observer["gain_lc"] is not None:
            return self.observer["gain_lc"]
        return place_poles_single_output(self.system, self.observer["poles"])

    def design(self):
        """The configured observer design (may fail)."""
        obs = self.observer
        q, theta, gamma, nc = obs["q"], obs["theta"], obs["gamma"], obs["gain_nc"]
        return build_design(self.system, self.gain_lc(), q, theta, gamma, nc)

    def certificate(self, design, **search):
        """The configured run's certificate; search options pass through."""
        strict = self.observer["strict_damping"]
        return certify(self.system, design, self.feedback_k, strict, **search)


def _load_config(args, run=False):
    """Read the config file args.config names and parse every section once.

    run is set by the subcommands that simulate: they need a horizon, and
    their --dt, --horizon and --eps override the sim section's. The others
    check a sim section when there is one and skip it when there is none.
    """
    path = args.config
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:  # bytes that are not text, or an integer too long
        raise ConfigError(f"{path}: {exc}")
    _reject_unknown(cfg, _TOP_LEVEL_FIELDS, "config")
    system = build_system(cfg)
    observer = parse_observer(cfg, system)
    sim = None
    if run or "sim" in cfg:
        overrides = (args.dt, args.horizon, args.eps) if run else ()
        sim = build_sim_config(cfg, system, *overrides, run=run)
    return Config(
        system=system,
        observer=observer,
        sim=sim,
        feedback_k=parse_feedback(cfg, system),
        lqr_weights=parse_lqr(cfg, system),
        outputs=parse_outputs(cfg),
    )


def _as_dict(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(value, path):
    if not _is_number(value):
        raise ConfigError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(f"{path}: number too large for a float") from None


def _as_number_list(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty array of numbers")
    if all(map(_is_number, value)):
        try:
            return [float(v) for v in value]
        except OverflowError:
            pass
    # raises, naming the first bad entry: its path is built only here,
    # since matrices hold many
    return [_as_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _repeated(value, path, n):
    """A nonempty array of numbers, or one number repeated n times."""
    if isinstance(value, list):
        return _as_number_list(value, path)
    return [_as_number(value, path)] * n


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
    b = _as_matrix(doc["b"], "system.b") if "b" in doc else np.zeros((len(a), 1))
    try:
        return LinearSystem(a=a, b=b, c=c)
    except ObserverToolkitError as exc:
        raise ConfigError(f"system: {exc}")


_CUBIC_FIELDS = ("type", "gain_lc", "poles", "q", "theta", "gamma", "damping_mode")
_OBSERVER_FIELDS = {
    "linear": ("type", "gain_l", "poles", "q"),
    "cubic": _CUBIC_FIELDS,
    "cubic_explicit": _CUBIC_FIELDS + ("gain_nc",),
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

    parsed["q"] = _scalar_or_matrix(doc.get("q", 1.0), "observer.q", n)
    parsed["theta"] = _scalar_or_matrix(doc.get("theta", 1.0), "observer.theta", n_y)
    default_gamma = 0.0 if kind == "linear" else 1.0  # linear: no cubic term
    gamma = _as_number(doc.get("gamma", default_gamma), "observer.gamma")
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
            amp = doc.get("amplitude", 1.0)
            return SinusoidInput(
                amplitude=_repeated(amp, f"{path}.amplitude", n_u),
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
            return ConstantInput(level=_repeated(level, f"{path}.level", n_u))
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


def _sim_number(doc, key, override, default=None):
    """The override when given, else the file's value; the file's is checked."""
    value = _as_number(doc[key], f"sim.{key}") if key in doc else default
    return value if override is None else override


def build_sim_config(cfg, system, dt=None, horizon=None, eps=None, run=True):
    """The run settings of the sim section under the command-line overrides.

    Every field is checked. Without a horizon the result is None, which is
    an error only when run is set.
    """
    doc = _as_dict(cfg.get("sim", {}), "sim")
    _reject_unknown(
        doc, ("horizon", "dt", "x0", "xhat0", "eps", "input"), "sim"
    )
    horizon = _sim_number(doc, "horizon", horizon)
    dt = _sim_number(doc, "dt", dt, 1e-3)
    eps = _sim_number(doc, "eps", eps)
    x0 = _initial_state(doc, "x0", system.n)
    xhat0 = _initial_state(doc, "xhat0", system.n)
    signal = _build_signal(doc.get("input"), "sim.input", system.n_inputs)
    if signal is not None and signal.dimension != system.n_inputs:
        raise ConfigError(
            f"sim.input: signal has dimension {signal.dimension}, plant expects "
            f"{system.n_inputs}"
        )
    try:
        # a one-step stand-in horizon lets SimConfig check dt and eps alone
        sim = SimConfig(
            horizon=dt if horizon is None else horizon,
            dt=dt,
            x0=x0,
            xhat0=xhat0,
            input=signal,
            eps=eps,
        )
    except ObserverToolkitError as exc:
        raise ConfigError(f"sim: {exc}")
    if horizon is not None:
        return sim
    if run:
        raise ConfigError("sim.horizon: required (or pass --horizon)")
    return None


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


def _resolve_out(path, default_name):
    """path, or default_name without one, rebased on $CUBIC_OBS_OUT_DIR."""
    p = path if path else default_name
    return os.path.join(os.environ.get(OUT_DIR_ENV) or ".", p)


def _write_text(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
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


# ---------------------------------------------------------------------------
# subcommands


def cmd_design(args):
    if args.seed < 0:
        raise ConfigError(f"--seed: must be a nonnegative integer, got {args.seed}")
    config = _load_config(args)
    design = config.design()
    cert = config.certificate(
        design, equilibrium_search=args.equilibrium_search, seed=args.seed
    )

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
    config = _load_config(args, run=True)
    outputs = config.outputs
    design = config.design()

    diverged_at = None
    try:
        trace = simulate(config.system, design, config.sim, config.feedback_k)
    except DivergenceError as exc:
        trace = exc.trace
        diverged_at = exc.last_time
        _sys.stderr.write(f"error: {exc}\n")

    metrics = compute_metrics(trace, lqr_weights=config.lqr_weights)
    if diverged_at is not None:
        metrics = dataclasses.replace(metrics, diverged_at=diverged_at)

    doc = {}
    if "trace" in outputs:
        trace_out = trace
        if "lyapunov" not in outputs:
            trace_out = dataclasses.replace(trace, lyapunov=None, lyapunov_zubov=None)
        path = _resolve_out(args.out, "trace.csv")
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        serialize.write_trace_csv(trace_out, path)
        doc["trace_path"] = path
    if "metrics" in outputs:
        doc["metrics"] = serialize.metrics_to_jsonable(metrics)
    if "certificate" in outputs:
        cert = config.certificate(design)
        doc["certificate"] = serialize.certificate_to_jsonable(cert)
    _sys.stdout.write(_render_doc(doc, args.format))
    return EXIT_RUNTIME if diverged_at is not None else EXIT_OK


def _aggregate(metrics):
    """Collapse per-state metrics to the scalars a sweep row reports."""
    peak = max(metrics.peak_error)
    shoots = [v for v in metrics.overshoot_peak if v is not None]
    overshoot = max(shoots) if shoots else None
    settling = None if None in metrics.settling_time else max(metrics.settling_time)
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
    config = _load_config(args, run=True)
    obs = config.observer
    if obs["type"] != "cubic":
        raise ConfigError(
            "observer.type: sweep-gamma needs a synthesizable cubic observer"
        )

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
    bad = [g for g in gammas if not np.isfinite(g)]
    if bad:
        raise ConfigError(f"--gammas: values must be finite, got {bad[0]}")

    rows = gamma_sweep(
        config.system,
        config.gain_lc(),
        obs["q"],
        obs["theta"],
        gammas,
        config.sim,
        config.feedback_k,
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
    p.set_defaults(handler="cmd_design")

    p = sub.add_parser("simulate", help="run the observer and write a trace CSV")
    p.add_argument("config")
    p.add_argument("--out", help="trace CSV path (default trace.csv)")
    p.add_argument("--dt", type=float, help="override sim.dt")
    p.add_argument("--horizon", type=float, help="override sim.horizon")
    p.add_argument("--eps", type=float, help="override sim.eps (model perturbation)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler="cmd_simulate")

    p = sub.add_parser("example", help="reproduce a bundled example end to end")
    p.add_argument("number", type=int, choices=(1, 2, 3))
    p.add_argument("--out", help="bundle directory (default example<n>)")
    p.set_defaults(handler="cmd_example")

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
    p.set_defaults(handler="cmd_sweep_gamma")

    return parser


@functools.cache
def _parser():
    """The parser, built on first use and reused by every later main call:
    building it takes about a millisecond, which callers that run many
    commands in one process would otherwise pay each time."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # looked up now, not when the parser was built, so that a handler
        # replaced on this module after the first call is the one that runs
        return globals()[args.handler](args)
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
