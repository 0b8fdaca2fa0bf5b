"""Plot-ready trace files and JSON views of designs and measurements.

Trace CSVs carry one row per time sample with the column layout

    t, x1..xn, xhat1..xn, e1..en, y1..y{ny}, u1..u{nu}

followed by lyapunov columns V, V_cz when the trace carries them and by
the applied feedback columns uc1..uc{nu} for closed-loop runs. Floats are
written with shortest round-trip formatting (%.17g) and LF line endings,
so repeated runs produce byte-identical files.
"""

import json

import numpy as np

from .sim import Metrics, Trace


def format_float(value):
    """Shortest decimal string that round-trips the float64 exactly."""
    return format(float(value), ".17g")


def trace_columns(trace):
    n, ny, nu = trace.n, trace.n_outputs, trace.n_inputs
    names = ["t"]
    names += [f"x{i + 1}" for i in range(n)]
    names += [f"xhat{i + 1}" for i in range(n)]
    names += [f"e{i + 1}" for i in range(n)]
    names += [f"y{i + 1}" for i in range(ny)]
    names += [f"u{i + 1}" for i in range(nu)]
    if trace.lyapunov is not None:
        names += ["V", "V_cz"]
    if trace.control is not None:
        names += [f"uc{i + 1}" for i in range(nu)]
    return names


def trace_rows(trace):
    """The trace as one dense float matrix, columns as in trace_columns."""
    blocks = [
        trace.times[:, None],
        trace.plant_states,
        trace.estimates,
        trace.errors,
        trace.outputs,
        trace.inputs,
    ]
    if trace.lyapunov is not None:
        blocks.append(trace.lyapunov[:, None])
        blocks.append(trace.lyapunov_zubov[:, None])
    if trace.control is not None:
        blocks.append(trace.control)
    return np.hstack(blocks)


def _write_csv(path, columns, rows):
    # one %-format per row gives the same text as format_float per value;
    # converting row by row keeps memory flat, unlike rows.tolist()
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(fmt % tuple(row.tolist()))


def write_trace_csv(trace, path):
    if not isinstance(trace, Trace):
        raise TypeError(f"expected a Trace, got {type(trace).__name__}")
    _write_csv(path, trace_columns(trace), trace_rows(trace))


def write_series_csv(path, columns, arrays):
    """Small helper for auxiliary per-time series (cumulative error, cost)."""
    mat = np.column_stack([np.asarray(a, dtype=float) for a in arrays])
    if len(columns) != mat.shape[1]:
        raise ValueError("column names do not match the number of series")
    _write_csv(path, columns, mat)


def _array_to_lists(values):
    arr = np.asarray(values, dtype=float)
    return arr.tolist()


def design_to_jsonable(design):
    """JSON view of an observer design (linear designs have null cubic data)."""
    doc = {"n": int(design.gain_lc.shape[0])}
    doc["gain_lc"] = _array_to_lists(design.gain_lc)
    doc["gain_nc"] = _array_to_lists(design.gain_nc)
    doc["theta"] = _array_to_lists(design.theta)
    doc["gamma"] = float(design.gamma)
    doc["p"] = _array_to_lists(design.lyapunov_p)
    doc["q"] = _array_to_lists(design.lyapunov_q)
    doc["synthesized"] = bool(design.synthesized)
    return doc


def certificate_to_jsonable(cert):
    doc = {
        "hurwitz_ok": bool(cert.hurwitz_ok),
        "damping_ok": bool(cert.damping_ok),
        "damping_strict": bool(cert.damping_strict),
        "damping_mode": cert.damping_mode,
        "uniqueness_ok": bool(cert.uniqueness_ok),
        "stability_ok": bool(cert.stability_ok),
        "all_ok": bool(cert.all_ok),
        "margins": {k: float(v) for k, v in cert.margins.items()},
    }
    if cert.robustness_eps_max is not None:
        doc["robustness_eps_max"] = float(cert.robustness_eps_max)
    if cert.feedback_ok is not None:
        doc["feedback_ok"] = bool(cert.feedback_ok)
        doc["feedback_beta"] = None if cert.feedback_beta is None else float(cert.feedback_beta)
        doc["feedback_unscaled_ok"] = bool(cert.feedback_unscaled_ok)
    return doc


def _optional_list(values):
    if values is None:
        return None
    return [None if v is None else float(v) for v in values]


def metrics_to_jsonable(metrics):
    if not isinstance(metrics, Metrics):
        raise TypeError(f"expected Metrics, got {type(metrics).__name__}")
    doc = {
        "peak_error": [float(v) for v in metrics.peak_error],
        "overshoot_peak": _optional_list(metrics.overshoot_peak),
        "settling_time": _optional_list(metrics.settling_time),
        "j_final": [float(v) for v in metrics.j_final],
        "j_total": float(metrics.j_total),
        "diverged_at": None if metrics.diverged_at is None else float(metrics.diverged_at),
    }
    if metrics.lqr_cost is not None:
        doc["lqr_cost"] = float(metrics.lqr_cost)
    return doc


_ESCAPE = json.encoder.encode_basestring_ascii
_FLOAT_TEXT = float.__repr__


class _Unsupported(Exception):
    """A value the direct writer leaves to json.dumps."""


def _float_text(value):
    text = _FLOAT_TEXT(value)
    if text in ("nan", "inf", "-inf"):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return text


def _encode(value, pad):
    """value as JSON text, pad being the newline and indent of its level."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = "," + inner
        try:  # a list of floats, the bulk of every document, in one pass
            text = sep.join(map(_FLOAT_TEXT, value))
        except TypeError:
            text = sep.join([_encode(v, inner) for v in value])
        else:
            # finite float reprs hold no letter n; nan, inf and -inf do
            if "n" in text:
                for v in value:  # raises at the first, as json does
                    _float_text(v)
        return "[" + inner + text + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise _Unsupported
        inner = pad + "  "
        items = [_ESCAPE(k) + ": " + _encode(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise _Unsupported


def dumps_json(doc):
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The text is json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    plus a newline, byte for byte, and a NaN or infinity raises ValueError
    as there. It is written directly, float lists by one float.__repr__
    map: json's indenting encoder is pure Python and visits every float on
    its own. Dicts with keys other than strings and values of other types
    go to json.dumps, which formats or refuses them itself. doc must be a
    tree, since a container inside itself is not detected.
    """
    try:
        return _encode(doc, "\n") + "\n"
    except _Unsupported:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def flatten_doc(doc, prefix=""):
    """Flatten nested dicts to dotted keys for the csv output format."""
    items = []
    for key in sorted(doc):
        value = doc[key]
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            items.extend(flatten_doc(value, path))
        else:
            items.append((path, value))
    return items


def dumps_flat_csv(doc):
    lines = ["key,value"]
    for path, value in flatten_doc(doc):
        if isinstance(value, (list, tuple)):
            text = json.dumps(value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif value is None:
            text = ""
        elif isinstance(value, float):
            text = format_float(value)
        else:
            text = str(value)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{path},{text}")
    return "\n".join(lines) + "\n"
