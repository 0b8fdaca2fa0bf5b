"""Plot-ready trace files and JSON views of designs and measurements.

Trace CSVs carry one row per time sample with the column layout

    t, x1..xn, xhat1..xn, e1..en, y1..y{ny}, u1..u{nu}

followed by lyapunov columns V, V_cz when the trace carries them and by
the feedback columns uc1..uc{nu} for closed-loop runs. Under feedback, u
and uc are both -(xhat k'), formed by one product over all rows after the
run: the input the loop applied, except in the last bits. Floats are
written with 17 significant digits (%.17g), which round-trips every
float64 but is not the shortest such string, and LF line endings, so
repeated runs produce byte-identical files.
"""

import json

import numpy as np

from .sim import Metrics, Trace


def format_float(value):
    """Decimal string with 17 significant digits (%.17g): it round-trips
    the float64 exactly, though a shorter string often would too."""
    return format(float(value), ".17g")


def _trace_blocks(trace):
    """(name, values) of each block of CSV columns, in order: a 1-D series
    is one column of that name, a matrix one numbered column per column."""
    blocks = [
        ("t", trace.times),
        ("x", trace.plant_states),
        ("xhat", trace.estimates),
        ("e", trace.errors),
        ("y", trace.outputs),
        ("u", trace.inputs),
    ]
    if trace.lyapunov is not None:
        blocks += [("V", trace.lyapunov), ("V_cz", trace.lyapunov_zubov)]
    if trace.control is not None:
        blocks.append(("uc", trace.control))
    return blocks


def trace_columns(trace):
    names = []
    for name, values in _trace_blocks(trace):
        if values.ndim == 1:
            names.append(name)
        else:
            names += [f"{name}{i + 1}" for i in range(values.shape[1])]
    return names


def trace_rows(trace):
    """The trace as one dense float matrix, columns as in trace_columns."""
    return np.column_stack([values for _, values in _trace_blocks(trace)])


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
            raise TypeError("JSON object keys must be strings")
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
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps_json(doc):
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    doc is a tree of dicts with string keys, lists, tuples, strings, ints,
    floats, bools and None. Its text is json.dumps(doc, indent=2,
    sort_keys=True, allow_nan=False) plus a newline, byte for byte, and a
    NaN or infinity raises ValueError as there. It is written directly,
    float lists by one float.__repr__ map: json's indenting encoder is pure
    Python and visits every float on its own. A key that is not a string or
    a value of any other type raises TypeError. A container inside itself
    is not detected.
    """
    return _encode(doc, "\n") + "\n"


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
