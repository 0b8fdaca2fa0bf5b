"""Per-layer measurement for the traced benchmark run: spans and probes.

Spans wrap a public function of the package at the name its caller looks it
up by (``examples.simulate_cubic_observer``, ``serialize.write_trace_csv``,
``numlin.solve_lyapunov`` ...). They are installed from here, only for the
traced passes, and ``Tracer.restore`` puts every original back. Each span
keeps a call count and total seconds; hooks derive work counts (simulator
steps, rows and bytes written, equilibria found) from the arguments and
results at the same boundary.

Probes time one layer on fixed inputs, the same on every workload:
``integrate_rk4`` with a counted, timed derivative splits field cost from
RK4 loop overhead, and ``solve_lyapunov`` is timed at n = 8, 16, 24, 32.
"""

import functools
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from cubicobs import cli, design, examples, numlin, serialize, sim
from cubicobs.errors import DivergenceError

import workloads

LYAPUNOV_SIZES = (8, 16, 24, 32)
LYAPUNOV_REPEATS = 5
RK4_PROBE_HORIZON = 2.0
RK4_PROBE_REPEATS = 3


class Tracer:
    """Call counts, busy seconds and work counts per span name."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.durations = defaultdict(list)
        self.counts = Counter()
        self.problems = []
        self._installed = []

    def wrap(self, module, attr, span, hook=None):
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self._record(span, t0)
                if hook is not None:
                    hook(self, args, None, exc)
                raise
            self._record(span, t0)
            if hook is not None:
                hook(self, args, result, None)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def _record(self, span, t0):
        elapsed = time.perf_counter() - t0
        self.calls[span] += 1
        self.seconds[span] += elapsed
        self.durations[span].append(elapsed)

    def restore(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        for module, attr, span, hook in SPANS:
            self.wrap(module, attr, span, hook)
        try:
            yield self
        finally:
            self.restore()


def _count_run(tracer, args, trace, exc):
    """Simulator runs: steps taken, checked against the configured grid."""
    tracer.counts["sim.runs"] += 1
    if isinstance(exc, DivergenceError):
        tracer.counts["sim.divergences"] += 1
        trace = exc.trace
    if trace is None:
        return
    steps = len(trace.times) - 1
    tracer.counts["sim.steps"] += steps
    cfg = args[-1]
    want = workloads.grid_steps(cfg.horizon, cfg.dt)
    if exc is None and steps != want:
        tracer.problems.append(f"a run returned {steps} steps, its grid has {want}")


def _count_trace_csv(tracer, args, result, exc):
    if exc is None:
        tracer.counts["serialize.rows_written"] += len(args[0].times)
        tracer.counts["serialize.bytes_written"] += os.path.getsize(args[1])


def _count_series_csv(tracer, args, result, exc):
    if exc is None:
        tracer.counts["serialize.rows_written"] += len(args[2][0])
        tracer.counts["serialize.bytes_written"] += os.path.getsize(args[0])


def _count_roots(tracer, args, result, exc):
    if exc is None:
        tracer.counts["design.eq_roots_found"] += len(result)


# (module, attribute its callers look up, span name, hook)
SPANS = (
    (examples, "compute_bundle", "examples.compute_bundle", None),
    (examples, "gamma_sweep", "examples.gamma_sweep", None),
    (cli, "gamma_sweep", "examples.gamma_sweep", None),
    (examples, "simulate_cubic_observer", "sim.simulate", _count_run),
    (examples, "simulate_closed_loop", "sim.simulate", _count_run),
    (examples, "simulate_perturbed", "sim.simulate", _count_run),
    (cli, "simulate_cubic_observer", "sim.simulate", _count_run),
    (cli, "simulate_closed_loop", "sim.simulate", _count_run),
    (examples, "compute_metrics", "sim.compute_metrics", None),
    (cli, "compute_metrics", "sim.compute_metrics", None),
    (sim, "evaluate_input", "sysmodel.evaluate_input", None),
    (serialize, "write_trace_csv", "serialize.write_trace_csv", _count_trace_csv),
    (serialize, "write_series_csv", "serialize.write_series_csv", _count_series_csv),
    (cli, "write_bundle", "cli.write_bundle", None),
    (cli, "build_system", "cli.parse", None),
    (cli, "parse_observer", "cli.parse", None),
    (cli, "build_sim_config", "cli.parse", None),
    (cli, "parse_feedback", "cli.parse", None),
    (cli, "cmd_design", "cli.cmd_design", None),
    (examples, "synthesize_cubic_gain", "design.synthesize_cubic_gain", None),
    (cli, "synthesize_cubic_gain", "design.synthesize_cubic_gain", None),
    (examples, "certify_stability", "design.certify_stability", None),
    (cli, "certify_stability", "design.certify_stability", None),
    (design, "certify_stability", "design.certify_stability", None),
    (examples, "feedback_certificate", "design.feedback_certificate", None),
    (cli, "feedback_certificate", "design.feedback_certificate", None),
    (design, "search_nonzero_equilibria", "design.search_nonzero_equilibria", _count_roots),
    (numlin, "solve_lyapunov", "numlin.solve_lyapunov", None),
)


# ---------------------------------------------------------------------------
# probes


def _example1_field():
    """The joint (x, xhat) field of example 1's cubic observer, as the
    simulator builds it, from the design's public gains."""
    fx = examples.get_example(1)
    _, cubic = examples.build_designs(fx)
    a, b, c = fx.system.a, fx.system.b, fx.system.c
    n = fx.system.n
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = a
    m[n:, :n] = cubic.gain_lc @ c
    m[n:, n:] = a - cubic.gain_lc @ c
    bstack = np.vstack([b, b])
    c_res = np.hstack([c, -c])
    theta, nc, signal = cubic.theta, cubic.gain_nc, fx.sim.input

    def field(t, z):
        out = m @ z + bstack @ signal.sample(t)
        r = c_res @ z
        out[n:] -= float(r @ theta @ r) * (nc @ r)
        return out

    z0 = np.concatenate([fx.sim.x0, np.zeros(n)])
    return field, z0, fx.sim.dt


def probe_rk4():
    """Field cost and RK4 loop overhead of ``sim.integrate_rk4``."""
    field, z0, dt = _example1_field()
    cfg = sim.SimConfig(horizon=RK4_PROBE_HORIZON, dt=dt)
    steps = workloads.grid_steps(RK4_PROBE_HORIZON, dt)
    field_us, loop_us = [], []
    for _ in range(RK4_PROBE_REPEATS):
        calls = 0
        busy = 0.0

        def timed(t, z):
            nonlocal calls, busy
            t0 = time.perf_counter()
            out = field(t, z)
            busy += time.perf_counter() - t0
            calls += 1
            return out

        t0 = time.perf_counter()
        sim.integrate_rk4(timed, z0, cfg)
        total = time.perf_counter() - t0
        field_us.append(busy / calls * 1e6)
        loop_us.append((total - busy) / steps * 1e6)
    return {
        "sim.field_calls": calls,
        "sim.field_us": statistics.median(field_us),
        "sim.rk4_loop_us_per_step": statistics.median(loop_us),
    }


def probe_lyapunov():
    """Median ``numlin.solve_lyapunov`` time per size on fixed Hurwitz f."""
    rng = np.random.default_rng(0)
    out = {}
    for n in LYAPUNOV_SIZES:
        while True:
            c = rng.standard_normal((workloads.N_OUTPUTS, n))
            f = workloads.skew(rng, n) - c.T @ c / n
            if workloads.abscissa(f) < -workloads.MIN_DECAY:
                break
        q = np.eye(n)
        times = []
        for _ in range(LYAPUNOV_REPEATS):
            t0 = time.perf_counter()
            numlin.solve_lyapunov(f, q)
            times.append(time.perf_counter() - t0)
        out[f"numlin.solve_lyapunov_ms.n{n}"] = statistics.median(times) * 1e3
    return out


# ---------------------------------------------------------------------------
# the per-layer table


def layer_table(tracer, passes, probes, overhead_pct):
    """Every per-layer number, per traced pass: name -> (value, unit)."""
    sec = Counter({k: v / passes for k, v in tracer.seconds.items()})
    cnt = Counter({k: v / passes for k, v in tracer.counts.items()})
    calls = Counter({k: v / passes for k, v in tracer.calls.items()})
    steps = cnt["sim.steps"]
    write_s = sec["serialize.write_trace_csv"] + sec["serialize.write_series_csv"]
    design_ms = tracer.durations["cli.cmd_design"]
    table = {
        "sim.runs": (cnt["sim.runs"], "count"),
        "sim.steps": (steps, "count"),
        "sim.divergences": (cnt["sim.divergences"], "count"),
        "sim.simulate_s": (sec["sim.simulate"], "s"),
        "sim.us_per_step": (sec["sim.simulate"] / steps * 1e6 if steps else 0.0, "us"),
        "sim.field_calls": (probes["sim.field_calls"], "count"),
        "sim.field_us": (probes["sim.field_us"], "us"),
        "sim.rk4_loop_us_per_step": (probes["sim.rk4_loop_us_per_step"], "us"),
        "sim.metrics_s": (sec["sim.compute_metrics"], "s"),
        "sim.metrics_calls": (calls["sim.compute_metrics"], "count"),
        "sysmodel.evaluate_input_calls": (calls["sysmodel.evaluate_input"], "count"),
        "sysmodel.evaluate_input_s": (sec["sysmodel.evaluate_input"], "s"),
        "examples.compute_bundle_s": (sec["examples.compute_bundle"], "s"),
        "examples.gamma_sweep_s": (sec["examples.gamma_sweep"], "s"),
        "serialize.write_trace_csv_s": (sec["serialize.write_trace_csv"], "s"),
        "serialize.write_series_csv_s": (sec["serialize.write_series_csv"], "s"),
        "serialize.bytes_written": (cnt["serialize.bytes_written"], "bytes"),
        "serialize.rows_written": (cnt["serialize.rows_written"], "count"),
        "serialize.mb_per_s": (
            cnt["serialize.bytes_written"] / 1e6 / write_s if write_s else 0.0,
            "MB/s",
        ),
        "cli.write_bundle_s": (sec["cli.write_bundle"], "s"),
        "cli.parse_s": (sec["cli.parse"], "s"),
        "cli.design_ms_p50": (
            statistics.median(design_ms) * 1e3 if design_ms else 0.0,
            "ms",
        ),
        "design.synthesize_s": (sec["design.synthesize_cubic_gain"], "s"),
        "design.certify_s": (sec["design.certify_stability"], "s"),
        "design.feedback_certificate_s": (sec["design.feedback_certificate"], "s"),
        "design.eq_search_s": (sec["design.search_nonzero_equilibria"], "s"),
        "design.eq_roots_found": (cnt["design.eq_roots_found"], "count"),
        "numlin.solve_lyapunov_calls": (calls["numlin.solve_lyapunov"], "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for n in LYAPUNOV_SIZES:
        key = f"numlin.solve_lyapunov_ms.n{n}"
        table[key] = (probes[key], "ms")
    return table
