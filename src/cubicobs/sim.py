"""Fixed-step simulation of plants with linear and cubic observers.

The integrator is classical fourth-order Runge-Kutta on a uniform grid;
the final step is shortened so the last sample lands exactly on the
horizon. Everything is deterministic: the same configuration produces the
same floating-point trace, bit for bit.

The cubic observer correction is always evaluated from the output residual
r = y - c xhat, never from the unmeasurable state error, so the simulated
observer only uses quantities it could measure. The linear observer is
the zero-gain cubic design from design.degenerate_linear, so it runs
through the identical code path and the gamma -> 0 limit is exact. A run
matches its design to the plant with design.check_pairing.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import numlin
from .errors import ContractError, DimensionError, DivergenceError
from .design import STATE_NORM_LIMIT, check_pairing
# evaluate_input is not called here (a trace's inputs are the loop's own
# samples); the benchmark counts calls to it as sim.evaluate_input
from .sysmodel import ZeroInput, evaluate_input  # noqa: F401

# trajectory norm beyond which integration is declared divergent
DIVERGENCE_LIMIT = STATE_NORM_LIMIT
# band for settling-time detection (absolute)
SETTLE_THRESHOLD = 0.05


@dataclass(frozen=True)
class SimConfig:
    """Grid and initial data for a simulation run.

    x0 is the plant initial state; xhat0 defaults to zero. input defaults to the
    zero signal of the plant's input dimension, which like any zero or constant
    input is a SampledInput with one sample at t = 0. A signal has a dimension and a
    sample(t) that takes a float, giving shape (dimension,), or a 1-D array of
    times, giving one such row per time: runs sample a block of stage times per
    call. eps, when set, shifts the dynamics matrix to a + eps*I for both the
    plant and the observer's internal model (the gains stay fixed), so the
    estimation error follows the perturbed error dynamics the robustness bound
    talks about. This is the only way a perturbed plant enters a run; eps = 0 or
    None reproduces the nominal run bit for bit. horizon, dt and eps are read
    by numlin.as_real, which refuses a bool, a non-number and a non-finite
    value; a grid of more horizon / dt steps than a float64 array holds is
    rejected too.
    """

    horizon: float
    dt: float = 1e-3
    x0: object = None
    xhat0: object = None
    input: object = None
    eps: float | None = None

    def __post_init__(self):
        horizon = numlin.as_real(self.horizon, "horizon")
        dt = numlin.as_real(self.dt, "dt")
        if dt <= 0.0:
            raise ContractError(f"dt must be a positive real, got {dt}")
        if horizon < dt:
            raise ContractError(
                f"horizon must cover at least one step: horizon={horizon}, dt={dt}"
            )
        # the most points a float64 array can address; inf fails too
        if not horizon / dt < np.iinfo(np.intp).max // 8:
            raise ContractError(
                f"dt is too small for the horizon: horizon / dt = {horizon / dt:g} steps"
            )
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "dt", dt)
        if self.eps is not None:
            object.__setattr__(self, "eps", numlin.as_real(self.eps, "eps"))


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
    """The run's RK4 stage times: grid time k at 2k, the midpoint of step k
    at 2k + 1; the last, shortened step lands exactly on horizon."""
    n_steps = int(np.ceil(horizon / dt - 1e-9))
    stages = np.empty(2 * n_steps + 1)
    grid = stages[0::2]
    grid[:n_steps] = np.arange(n_steps) * dt
    grid[n_steps] = horizon
    stages[1::2] = grid[:-1] + 0.5 * (grid[1:] - grid[:-1])
    return stages


# steps per block of the RK4 loop: the unit of the divergence test and of
# an open-loop run's drive table
_BLOCK = 128


def _rk4(field, y0, stages):
    """The RK4 loop: integrate y0 over _time_grid's stages to (times, states).

    field(lo, hi) gives the derivative for steps lo .. hi-1 as
    into(y, out, j), which writes dy/dt into out and must not write y; j is
    the stage index, 2(k - lo) at the start of step k, one more at its
    midpoint, two more at its end, so the stage time is stages[2 lo + j].
    k1..k4 and the stage are kept buffers, and each new state is written
    into its row of states by the textbook step's operations, in its order:
    y + (h/6) (((k1 + 2 k2) + 2 k3) + k4). Divergence is tested after each
    block, and on the rows written before a field raises.
    """
    times = stages[0::2].copy()
    steps = times.size - 1
    states = np.empty((steps + 1, y0.size))
    states[0] = y0
    k1, k2, k3, k4 = ks = np.empty((4, y0.size))
    k23 = ks[1:3]
    twice_k2, twice_k3 = twice = np.empty((2, y0.size))
    stage = np.empty(y0.size)
    add, mul = np.add, np.multiply
    # ignored, not raised: an overflowing state is a divergence, tested per block
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, _BLOCK):
            hi = min(lo + _BLOCK, steps)
            into = field(lo, hi)
            # h/2, h and h/6 per step, as rows shaped like y: numpy multiplies
            # by an array of its own shape faster than by a Python float
            h = np.diff(times[lo : hi + 1])[:, None]
            scale = np.repeat([0.5 * h, h, h / 6.0], y0.size, axis=2)
            y = states[lo]
            try:
                for k, row, half, step, sixth in zip(
                    range(lo, hi), states[lo + 1 : hi + 1], *scale
                ):
                    j = 2 * (k - lo)
                    into(y, k1, j)
                    mul(k1, half, stage)
                    add(stage, y, stage)
                    into(stage, k2, j + 1)
                    mul(k2, half, stage)
                    add(stage, y, stage)
                    into(stage, k3, j + 1)
                    mul(k3, step, stage)
                    add(stage, y, stage)
                    into(stage, k4, j + 2)
                    add(k23, k23, twice)  # 2 k2 and 2 k3, exactly
                    add(twice_k2, k1, row)
                    add(row, twice_k3, row)
                    add(row, k4, row)
                    mul(row, sixth, row)
                    add(row, y, row)
                    y = row
            except Exception:
                _check_rows(times, states, lo, k)
                raise
            _check_rows(times, states, lo, hi)
    return times, states


def _check_rows(times, states, lo, hi):
    """Raise DivergenceError at the first of rows lo+1 .. hi of states with
    an entry that is non-finite or above DIVERGENCE_LIMIT in magnitude."""
    block = np.abs(states[lo + 1 : hi + 1])
    if block.max(initial=0.0) <= DIVERGENCE_LIMIT:  # NaN fails
        return
    k = lo + int(np.argmin((block <= DIVERGENCE_LIMIT).all(axis=1)))
    t0, t1 = times[k : k + 2].tolist()
    raise DivergenceError(
        f"trajectory diverged between t={t0:g} and t={t1:g}",
        last_time=t0,
        trace=(times[: k + 1].copy(), states[: k + 1].copy()),
    )


def integrate_rk4(derivative, x0, cfg):
    """Integrate dy/dt = derivative(t, y) over the grid described by cfg.

    Returns (times, states) with states[k] the solution at times[k]. The
    grid is uniform with step cfg.dt except for a shortened final step
    landing exactly on cfg.horizon. derivative receives t as a Python
    float and a fresh copy of the stage, and returns dy/dt as a float64
    array shaped like y; the loop copies it, so it may return its argument
    or one shared array. A step whose new state has any entry that is
    non-finite or above DIVERGENCE_LIMIT (1e12) in absolute value raises
    DivergenceError carrying the arrays before it; an entry of exactly 1e12
    passes. The test runs per block of _BLOCK steps, so derivative may
    also see the rest of that block, non-finite stages included. Overflow
    raises only that error, not also a numpy RuntimeWarning.
    """

    stages = _time_grid(cfg.dt, cfg.horizon)

    def field(lo, hi):
        block = stages[2 * lo : 2 * hi + 1].tolist()

        def into(y, out, j):
            out[...] = derivative(block[j], y.copy())

        return into

    return _rk4(field, numlin.as_vector(x0, "x0"), stages)


def _bind_config(sys, cfg):
    n = sys.n
    x0 = np.zeros(n) if cfg.x0 is None else numlin.as_vector(cfg.x0, "x0", n)
    xhat0 = np.zeros(n) if cfg.xhat0 is None else numlin.as_vector(cfg.xhat0, "xhat0", n)
    signal = ZeroInput(sys.n_inputs) if cfg.input is None else cfg.input
    if signal.dimension != sys.n_inputs:
        raise DimensionError(
            f"input signal has dimension {signal.dimension}, plant expects "
            f"{sys.n_inputs}"
        )
    return x0, xhat0, signal


@numlin.refusing("simulation")
def _run_joint(sys, design, cfg, feedback_k=None):
    """Run the joint (x, xhat) field m z + bstack u - [0; w gain_nc r], with
    r = y - c xhat, w = r' theta r and, under feedback, u = -feedback_k xhat,
    through _rk4. Its cost is numpy call overhead, so calls and allocations
    are cut while the trace stays the textbook loop's, zero signs included:
    - m z, c_res z, gain_nc r and feedback_k xhat are the bound ndarray.dot
      into kept buffers; with one output, w is a product of Python floats in
      @'s order. Their zeros may be -0.0 where @ gives +0.0, but m z is a
      gemv summed from +0.0 and the drive only adds or subtracts, so no
      stage derivative holds -0.0 before the correction: x - (+-0.0) is x.
    - The open-loop drive is read from a table of the input at every stage
      time: per block of steps, one signal.sample call fills the block's new
      stage times and one stacked matmul runs the gemv of bstack @ u per
      row. The trace's inputs are the grid-time rows.
    - The closed-loop drive bstack (feedback_k xhat) is subtracted: a sum of
      negated products is the negated sum. The correction goes into the lower
      half of a buffer whose upper half stays +0.0; a zero gain_nc skips it.
    """
    n = sys.n
    x0, xhat0, signal = _bind_config(sys, cfg)
    a = sys.a if not cfg.eps else sys.a + cfg.eps * np.eye(n)  # None or a float
    c, b, lc = sys.c, sys.b, design.gain_lc
    gain_nc, theta = design.gain_nc, design.theta

    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = a
    m[n:, :n] = lc @ c
    m[n:, n:] = a - lc @ c
    bstack = np.vstack([b, b])
    c_res = np.hstack([c, -c])  # r = y - c xhat
    add, mul, sub, matmul = np.add, np.multiply, np.subtract, np.matmul
    m_dot, res_dot, gain_dot = m.dot, c_res.dot, gain_nc.dot

    stages = _time_grid(cfg.dt, cfg.horizon)
    if feedback_k is None:
        table = np.empty((stages.size, sys.n_inputs, 1))
        table[:1, :, 0] = signal.sample(stages[:1])
        inputs = table[0::2, :, 0]
    else:
        inputs, k_dot = None, feedback_k.dot
        u, drive = np.empty(sys.n_inputs), np.empty(2 * n)

    cubic = bool(np.any(gain_nc))
    r, w, corr = np.empty(theta.shape[0]), np.empty(()), np.zeros(2 * n)
    corr_low = corr[n:]
    theta11 = float(theta[0, 0]) if theta.shape == (1, 1) else None

    def field(lo, hi):
        if inputs is not None:
            new = slice(2 * lo + 1, 2 * hi + 1)  # stage times after the block's first
            table[new, :, 0] = signal.sample(stages[new])
            rows = list(matmul(bstack, table[2 * lo : new.stop])[:, :, 0])

        def into(z, out, j):
            m_dot(z, out)
            if inputs is not None:
                add(out, rows[j], out)
            else:
                k_dot(z[n:], u)
                sub(out, matmul(bstack, u, drive), out)
            if not cubic:
                return
            res_dot(z, r)
            if theta11 is None:
                w[()] = float(r @ theta @ r)
            else:
                r0 = r.item()
                w[()] = r0 * theta11 * r0
            gain_dot(r, corr_low)
            mul(corr_low, w, corr_low)
            sub(out, corr, out)

        return into

    lyapunov_p = design.lyapunov_p
    try:
        times, states = _rk4(field, np.concatenate([x0, xhat0]), stages)
    except DivergenceError as exc:
        exc.trace = _assemble_trace(sys, *exc.trace, inputs, feedback_k, lyapunov_p)
        raise
    return _assemble_trace(sys, times, states, inputs, feedback_k, lyapunov_p)


def _assemble_trace(sys, times, states, inputs, feedback_k, lyapunov_p):
    """Assemble the trace of a run. inputs holds the open-loop input the
    drive recorded at each grid time (a partial run uses its first rows).
    Under feedback it is None, and inputs and control are -(xhat k'), one
    product over all rows: the loop's per-row k xhat up to the last bits."""
    n = sys.n
    x = states[:, :n]
    xhat = states[:, n:]
    errors = x - xhat
    with numlin.refusing("plant output c x"):  # a huge c on a finite state
        outputs = x @ sys.c.T
    if feedback_k is None:
        inputs = inputs[: times.size].copy()  # out of the drive table
        control = None
    else:
        inputs = -(xhat @ np.asarray(feedback_k).T)
        control = inputs
    lyap = np.einsum("ij,jk,ik->i", errors, lyapunov_p, errors)
    if not np.isfinite(lyap).all():  # einsum raises no flag
        # p > 0, so a NaN is inf - inf: V is +inf, refused within the limit
        # and kept only on the unchecked first row of a start beyond it
        lyap[np.isnan(lyap)] = np.inf
        within = (np.abs(states) <= DIVERGENCE_LIMIT).all(axis=1)
        numlin.finite(lyap[within], "Lyapunov function V = e'Pe")
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
    check_pairing(sys, design)
    return _run_joint(sys, design, cfg)


def simulate_closed_loop(sys, design, k, cfg):
    """Simulate observer-based state feedback u = -k xhat.

    design is a CubicObserverDesign; pass degenerate_linear() for the
    linear observer in the loop. The trace's inputs and control are
    -(xhat k'), formed by one product over all rows after the run; they
    match the input the loop applied except in the last bits.
    """
    k = numlin.as_matrix(k, "k", (sys.n_inputs, sys.n))
    check_pairing(sys, design)
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


@numlin.refusing("metrics")
def compute_metrics(trace, lqr_weights=None):
    """Evaluate peak, overshoot, settling, and cumulative squared error.

    Settling is judged against the absolute band SETTLE_THRESHOLD: the
    settling time of a state is the first sample time after the last
    excursion |e_i| >= SETTLE_THRESHOLD, None if the error is still outside
    the band at the end, and the first sample time when it never leaves
    the band. lqr_weights, a (q, r) pair sized to the states and inputs,
    adds the cumulative regulation cost integral of x^T q x + u^T r u; this
    requires a closed-loop trace with a control series.
    """
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
        outside = np.nonzero(np.abs(errors[:, i]) >= SETTLE_THRESHOLD)[0]
        if outside.size == 0:
            settling.append(float(times[0]))
        elif outside[-1] == times.size - 1:
            settling.append(None)
        else:
            settling.append(float(times[outside[-1] + 1]))

    # ignored, not raised: an initial error above ~1e154 squares to inf, and
    # its run diverged, which the metrics must still report
    with np.errstate(over="ignore"):
        squared = errors**2
    cum = _cumulative_trapezoid(times, squared)
    cum_total = np.sum(cum, axis=1)

    lqr_cost = None
    lqr_series = None
    if lqr_weights is not None:
        if trace.control is None:
            raise ContractError(
                "lqr cost requires a closed-loop trace with a control series"
            )
        x, u = trace.plant_states, trace.control
        q_lqr, r_lqr = lqr_weights
        q_lqr = numlin.symmetrize(q_lqr, "q_lqr", (x.shape[1],) * 2)
        r_lqr = numlin.symmetrize(r_lqr, "r_lqr", (u.shape[1],) * 2)
        integrand = np.einsum("ij,jk,ik->i", x, q_lqr, x) + np.einsum(
            "ij,jk,ik->i", u, r_lqr, u
        )
        lqr_series = _cumulative_trapezoid(times, integrand)
        lqr_cost = float(numlin.finite(lqr_series[-1], "lqr cost"))  # einsum raises no flag

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

