"""Unit tests for the integrator, observer runs, and error metrics."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicobs as co
from cubicobs import sim
from conftest import redraw_until_accepted


def double_integrator():
    return co.LinearSystem(
        a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]], c=[[1.0, 0.0]]
    )


def make_trace(times, errors, control=None):
    """Minimal trace for exercising compute_metrics on crafted data."""
    times = np.asarray(times, dtype=float)
    errors = np.asarray(errors, dtype=float)
    return co.Trace(
        times=times,
        plant_states=errors.copy(),
        estimates=np.zeros_like(errors),
        errors=errors,
        outputs=errors[:, :1].copy(),
        inputs=np.zeros((times.size, 1)),
        control=None if control is None else np.asarray(control, dtype=float),
    )


# ---------------------------------------------------------------------------
# integrator


def test_time_grid_lands_exactly_on_horizon():
    zero = lambda t, y: np.zeros_like(y)
    times, states = co.integrate_rk4(zero, [1.0], co.SimConfig(horizon=0.35, dt=0.1))
    assert times.size == 5
    assert times[-1] == 0.35
    assert np.allclose(np.diff(times), [0.1, 0.1, 0.1, 0.05])
    assert np.all(states == 1.0)


def test_time_grid_exact_multiple_has_no_stub_step():
    zero = lambda t, y: np.zeros_like(y)
    times, _ = co.integrate_rk4(zero, [0.0], co.SimConfig(horizon=0.4, dt=0.1))
    assert times.size == 5
    assert times[-1] == 0.4
    assert np.diff(times).max() == pytest.approx(0.1, rel=1e-12)


def bernoulli_exact(t, x0):
    # dx/dt = -x - x^3 solved through v = 1/x^2
    e2 = np.exp(-2.0 * t)
    return np.sqrt(x0 * x0 * e2 / (1.0 + x0 * x0 * (1.0 - e2)))


def test_rk4_bernoulli_accuracy():
    field = lambda t, x: -x - x**3
    _, states = co.integrate_rk4(field, [0.5], co.SimConfig(horizon=1.0, dt=1e-3))
    assert abs(states[-1, 0] - bernoulli_exact(1.0, 0.5)) <= 1e-8


def test_rk4_fourth_order_convergence():
    # halving the step on a smooth contracting flow divides the global
    # error by about 16
    field = lambda t, x: -x - x**3
    errs = []
    for dt in (0.05, 0.025):
        _, states = co.integrate_rk4(field, [0.5], co.SimConfig(horizon=1.0, dt=dt))
        errs.append(abs(states[-1, 0] - bernoulli_exact(1.0, 0.5)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_divergence_raises_without_a_numpy_warning(fx1, designs1):
    # example 1 overflows on the way out at five times its step
    _, cubic = designs1
    cfg = replace(fx1.sim, dt=5e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(co.DivergenceError):
            co.simulate_cubic_observer(fx1.system, cubic, cfg)


def test_rk4_divergence_carries_partial_trajectory():
    field = lambda t, x: x  # e^t passes 1e12 near t = 27.6
    with pytest.raises(co.DivergenceError) as info:
        co.integrate_rk4(field, [1.0], co.SimConfig(horizon=40.0, dt=0.01))
    exc = info.value
    times, states = exc.trace
    assert times[-1] == pytest.approx(exc.last_time)
    assert np.all(np.isfinite(states))
    assert 27.0 < exc.last_time < 28.0


def test_divergence_boundary_is_1e12_in_absolute_value():
    zero = lambda t, y: np.zeros_like(y)
    cfg = co.SimConfig(horizon=0.2, dt=0.1)
    for edge in (1e12, -1e12):
        _, states = co.integrate_rk4(zero, [0.0, edge], cfg)
        assert np.all(states[:, 1] == edge)
    beyond = np.nextafter(1e12, np.inf)
    for start in (beyond, -beyond):
        with pytest.raises(co.DivergenceError):
            co.integrate_rk4(zero, [0.0, start], cfg)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_derivative_diverges(value):
    field = lambda t, y: np.array([0.0, value])
    with pytest.raises(co.DivergenceError) as info:
        co.integrate_rk4(field, [0.0, 0.0], co.SimConfig(horizon=0.2, dt=0.1))
    assert info.value.last_time == 0.0


def test_sim_config_validation():
    with pytest.raises(co.ContractError):
        co.SimConfig(horizon=1.0, dt=0.0)
    with pytest.raises(co.ContractError):
        co.SimConfig(horizon=0.5, dt=1.0)
    with pytest.raises(co.ContractError):
        co.SimConfig(horizon=1.0, dt=0.1, eps=np.nan)


# ---------------------------------------------------------------------------
# observer runs


def test_estimation_error_ignores_the_driving_input(fx1, designs1):
    # the error dynamics do not involve u, so the recorded error must not
    # depend on the input signal beyond accumulated roundoff
    _, cubic = designs1
    trace_driven = co.simulate_cubic_observer(fx1.system, cubic, fx1.sim)
    quiet = replace(fx1.sim, input=None)
    trace_quiet = co.simulate_cubic_observer(fx1.system, cubic, quiet)
    gap = np.max(np.abs(trace_driven.errors - trace_quiet.errors))
    assert gap <= 1e-8
    # while the states themselves of course differ
    assert np.max(np.abs(trace_driven.plant_states - trace_quiet.plant_states)) > 0.1


def test_trace_columns_are_consistent(fx1, designs1):
    _, cubic = designs1
    trace = co.simulate_cubic_observer(fx1.system, cubic, fx1.sim)
    assert np.array_equal(trace.errors, trace.plant_states - trace.estimates)
    assert np.allclose(trace.outputs, trace.plant_states @ fx1.system.c.T)
    expected_u = np.array(
        [co.evaluate_input(fx1.sim.input, t) for t in trace.times]
    )
    assert np.array_equal(trace.inputs, expected_u)


def test_lyapunov_columns_match_quadratic_form(fx1, designs1):
    _, cubic = designs1
    trace = co.simulate_cubic_observer(fx1.system, cubic, fx1.sim)
    v = np.einsum("ij,jk,ik->i", trace.errors, cubic.lyapunov_p, trace.errors)
    assert np.array_equal(trace.lyapunov, v)
    assert np.array_equal(trace.lyapunov_zubov, -np.expm1(-v))
    assert np.all(trace.lyapunov_zubov >= 0.0)
    assert np.all(trace.lyapunov_zubov < 1.0)


def test_a_lyapunov_function_that_overflows_is_refused_or_saturated(fx1, designs1):
    # p is positive definite, so einsum's NaN for e'Pe is inf - inf, whose
    # true value is +inf: refused on a row within DIVERGENCE_LIMIT, kept as
    # V = inf, V_cz = 1 on the unchecked first row of a start beyond it
    _, cubic = designs1
    huge = co.synthesize_cubic_gain(
        fx1.system, cubic.gain_lc, 1e290 * np.eye(2), cubic.theta, cubic.gamma
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = co.SimConfig(horizon=0.1, x0=[1e10, 1e10])
        with pytest.raises(co.NumericalError, match=r"^Lyapunov function V = e'Pe overflows$"):
            co.simulate_cubic_observer(fx1.system, huge, cfg)
        for design, x0 in ((cubic, [1e200, 2e200]), (huge, [1e50, 1e50])):
            cfg = co.SimConfig(horizon=0.1, x0=x0)
            with pytest.raises(co.DivergenceError, match="between t=0 and") as info:
                co.simulate_cubic_observer(fx1.system, design, cfg)
            trace = info.value.trace
            assert trace.lyapunov.tolist() == [np.inf]
            assert trace.lyapunov_zubov.tolist() == [1.0]


class CountingInput:
    """Wraps an input signal and counts the times it is sampled at, one per
    float and one per entry of an array of times."""

    def __init__(self, signal):
        self.signal = signal
        self.dimension = signal.dimension
        self.samples = 0

    def sample(self, t):
        self.samples += np.size(t)
        return self.signal.sample(t)


def test_drive_is_sampled_once_per_distinct_time(fx1, designs1):
    # the open-loop drive is cached across RK4 stages that share a time:
    # 2 sampled times per step and one at t = 0; the trace's inputs are the
    # samples the loop took at the grid times, not fresh ones
    _, cubic = designs1
    counting = CountingInput(fx1.sim.input)
    cfg = replace(fx1.sim, horizon=0.5)
    trace = co.simulate_cubic_observer(fx1.system, cubic, replace(cfg, input=counting))
    steps = trace.times.size - 1
    assert counting.samples == 2 * steps + 1
    plain = co.simulate_cubic_observer(fx1.system, cubic, cfg)
    assert np.array_equal(trace.plant_states, plain.plant_states)
    assert np.array_equal(trace.estimates, plain.estimates)


def test_zero_cubic_gain_runs_the_linear_field(fx1, designs1):
    # with gain_nc = 0 the cubic term is skipped whatever theta is
    linear, _ = designs1
    assert not np.any(linear.theta)
    theta_only = replace(linear, theta=np.full_like(linear.theta, 10.0))
    got = co.simulate_cubic_observer(fx1.system, theta_only, fx1.sim)
    want = co.simulate_cubic_observer(fx1.system, linear, fx1.sim)
    for name in (
        "times",
        "plant_states",
        "estimates",
        "errors",
        "outputs",
        "inputs",
        "lyapunov",
        "lyapunov_zubov",
    ):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_closed_loop_control_is_minus_k_xhat_over_all_rows(fx3):
    design = co.explicit_cubic_design(
        fx3.system, fx3.gain_lc, fx3.gain_nc, fx3.theta, q=fx3.q, gamma=fx3.gamma
    )
    cfg = replace(fx3.sim, horizon=2.0)
    trace = co.simulate_closed_loop(fx3.system, design, fx3.feedback_k, cfg)
    assert trace.control is not None
    assert np.array_equal(trace.control, -(trace.estimates @ fx3.feedback_k.T))
    assert np.array_equal(trace.inputs, trace.control)


def test_closed_loop_accepts_linear_design(fx3):
    linear = co.degenerate_linear(fx3.system, fx3.gain_lc, fx3.q)
    cfg = replace(fx3.sim, horizon=1.0)
    trace = co.simulate_closed_loop(fx3.system, linear, fx3.feedback_k, cfg)
    assert trace.control is not None
    with pytest.raises(co.ContractError):
        co.simulate_closed_loop(fx3.system, object(), fx3.feedback_k, cfg)


def test_simulate_rejects_mismatched_dimensions(fx1, designs1):
    _, cubic = designs1
    other = co.LinearSystem(
        a=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -3.0, -3.0]],
        b=np.zeros((3, 1)),
        c=[[1.0, 0.0, 0.0]],
    )
    with pytest.raises(co.DimensionError):
        co.simulate_cubic_observer(other, cubic, co.SimConfig(horizon=1.0))
    bad_x0 = co.SimConfig(horizon=1.0, x0=[1.0, 2.0, 3.0])
    with pytest.raises(co.DimensionError, match=r"^x0 must have 2 entries, got 3$"):
        co.simulate_cubic_observer(fx1.system, cubic, bad_x0)
    bad_xhat0 = co.SimConfig(horizon=1.0, xhat0=[1.0])
    with pytest.raises(co.DimensionError, match=r"^xhat0 must have 2 entries, got 1$"):
        co.simulate_cubic_observer(fx1.system, cubic, bad_xhat0)
    with pytest.raises(co.DimensionError, match=r"^k must have shape \(1, 2\), got \(2, 1\)$"):
        co.simulate_closed_loop(fx1.system, cubic, [[1.0], [2.0]], co.SimConfig(horizon=1.0))
    bad_u = co.SimConfig(horizon=1.0, input=co.ZeroInput(dimension=2))
    with pytest.raises(co.DimensionError):
        co.simulate_cubic_observer(fx1.system, cubic, bad_u)


def assert_traces_equal(got, want):
    """Every trace array equal bit for bit, signs of zeros included."""
    for name in ("times", "plant_states", "estimates", "errors", "outputs",
                 "inputs", "lyapunov", "lyapunov_zubov", "control"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if g is not None:
            assert np.array_equal(g, w), name
            assert np.array_equal(np.signbit(g), np.signbit(w)), name


def test_perturbed_run_equals_direct_eps_run(fx2, designs2):
    _, cubic = designs2
    cfg = replace(fx2.sim, horizon=1.0)
    via_helper = co.simulate_perturbed(fx2.system, cubic, 0.02, cfg)
    direct = co.simulate_cubic_observer(fx2.system, cubic, replace(cfg, eps=0.02))
    assert_traces_equal(via_helper, direct)


def test_eps_zero_reproduces_the_nominal_run(fx1, designs1):
    _, cubic = designs1
    cfg = replace(fx1.sim, horizon=1.0)
    nominal = co.simulate_cubic_observer(fx1.system, cubic, cfg)
    for eps in (0.0, -0.0):
        run = co.simulate_cubic_observer(fx1.system, cubic, replace(cfg, eps=eps))
        assert_traces_equal(run, nominal)
    assert_traces_equal(co.simulate_perturbed(fx1.system, cubic, 0.0, cfg), nominal)


def test_eps_run_equals_run_on_the_shifted_plant(fx1, designs1, fx3):
    # eps shifts a only: b, c and the designed gains stay nominal, in open
    # loop (driven plant) and under feedback alike
    _, cubic = designs1
    sys = fx1.system
    shifted = co.LinearSystem(sys.a + 0.05 * np.eye(sys.n), sys.b, sys.c)
    cfg = replace(fx1.sim, horizon=1.0)
    assert_traces_equal(
        co.simulate_cubic_observer(sys, cubic, replace(cfg, eps=0.05)),
        co.simulate_cubic_observer(shifted, cubic, cfg),
    )

    _, cubic3 = co.build_designs(fx3)
    sys = fx3.system
    shifted = co.LinearSystem(sys.a - 0.05 * np.eye(sys.n), sys.b, sys.c)
    cfg = replace(fx3.sim, horizon=1.0)
    assert_traces_equal(
        co.simulate_closed_loop(sys, cubic3, fx3.feedback_k, replace(cfg, eps=-0.05)),
        co.simulate_closed_loop(shifted, cubic3, fx3.feedback_k, cfg),
    )


def test_non_finite_eps_is_rejected(fx1, designs1):
    _, cubic = designs1
    cfg = replace(fx1.sim, horizon=1.0)
    for eps in (np.inf, -np.inf, np.nan):
        with pytest.raises(co.ContractError, match="^eps must be a finite real number, got "):
            co.SimConfig(horizon=1.0, eps=eps)
        with pytest.raises(co.ContractError, match="^eps must be a finite real number, got "):
            co.simulate_perturbed(fx1.system, cubic, eps, cfg)


@pytest.mark.parametrize(
    "name, bad",
    [
        (name, bad)
        for name in ("horizon", "dt", "eps")
        for bad in (True, "1", None, [1.0], np.array(1.0), np.nan, 10**400)
        if not (name == "eps" and bad is None)  # eps = None means unperturbed
    ],
)
def test_sim_config_numbers_must_be_finite_real_numbers(name, bad):
    # a bool or a string is not coerced to a number
    args = {"horizon": 1.0, "dt": 1e-3, name: bad}
    with pytest.raises(co.ContractError, match=f"^{name} must be a finite real number, got "):
        co.SimConfig(**args)


def test_divergence_during_observer_run_is_reported(fx1):
    # an unstable plant with a perfectly fine observer still blows up
    sys = co.LinearSystem(a=[[5.0]], b=[[0.0]], c=[[1.0]])
    design = co.degenerate_linear(sys, [[6.0]], np.eye(1))
    cfg = co.SimConfig(horizon=10.0, dt=1e-3, x0=[1.0])
    with pytest.raises(co.DivergenceError) as info:
        co.simulate_cubic_observer(sys, design, cfg)
    exc = info.value
    assert isinstance(exc.trace, co.Trace)
    assert exc.trace.times[-1] == pytest.approx(exc.last_time)
    assert 5.4 < exc.last_time < 5.6  # e^{5t} reaches 1e12 near t = 5.53
    met = co.compute_metrics(exc.trace)
    assert np.isfinite(met.j_total)


# ---------------------------------------------------------------------------
# the lean RK4 hot path against the textbook one


def reference_rk4(derivative, x0, cfg):
    """integrate_rk4 written as the textbook step, kept as the reference:
    one fresh array per operation and the divergence rule as a numpy
    reduction."""
    times = sim._time_grid(cfg.dt, cfg.horizon)[0::2]
    grid = times.tolist()
    y = np.array(x0, dtype=float)
    states = np.empty((times.size, y.size))
    states[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(times.size - 1):
            t0 = grid[k]
            t1 = grid[k + 1]
            h = t1 - t0
            half = 0.5 * h
            k1 = derivative(t0, y)
            k2 = derivative(t0 + half, y + half * k1)
            k3 = derivative(t0 + half, y + half * k2)
            k4 = derivative(t1, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.abs(y).max() <= sim.DIVERGENCE_LIMIT:
                raise co.DivergenceError(
                    f"trajectory diverged between t={t0:g} and t={t1:g}",
                    last_time=t0,
                    trace=(times[: k + 1].copy(), states[: k + 1].copy()),
                )
            states[k + 1] = y
    return times, states


def reference_run(sys, design, cfg, feedback_k=None):
    """The joint (x, xhat) run with every product written as @, the drive
    sampled at every stage and the inputs sampled again for the trace."""
    n = sys.n
    x0, xhat0, signal = sim._bind_config(sys, cfg)
    eps = 0.0 if cfg.eps is None else float(cfg.eps)
    a = sys.a if eps == 0.0 else sys.a + eps * np.eye(n)
    c, b, lc = sys.c, sys.b, design.gain_lc
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = a
    m[n:, :n] = lc @ c
    m[n:, n:] = a - lc @ c
    bstack = np.vstack([b, b])
    c_res = np.hstack([c, -c])

    def field(t, z):
        if feedback_k is None:
            out = m @ z + bstack @ signal.sample(t)
        else:
            out = m @ z + bstack @ (-(feedback_k @ z[n:]))
        if np.any(design.gain_nc):
            r = c_res @ z
            out[n:] -= float(r @ design.theta @ r) * (design.gain_nc @ r)
        return out

    def assemble(times, states):
        x, xhat = states[:, :n], states[:, n:]
        errors = x - xhat
        if feedback_k is None:
            inputs = np.array([co.evaluate_input(signal, t) for t in times])
            control = None
        else:
            inputs = -(xhat @ feedback_k.T)
            control = inputs
        lyap = np.einsum("ij,jk,ik->i", errors, design.lyapunov_p, errors)
        return co.Trace(
            times=times,
            plant_states=x,
            estimates=xhat,
            errors=errors,
            outputs=x @ c.T,
            inputs=inputs,
            lyapunov=lyap,
            lyapunov_zubov=-np.expm1(-lyap),
            control=control,
        )

    try:
        times, states = reference_rk4(field, np.concatenate([x0, xhat0]), cfg)
    except co.DivergenceError as exc:
        exc.trace = assemble(*exc.trace)
        raise
    return assemble(times, states)


def with_zeros(rng, values, share):
    """values with about share of its entries set to +0.0 or -0.0."""
    values = np.array(values, dtype=float)
    hit = rng.random(values.shape) < share
    values[hit] = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)[hit]
    return values


def random_signal(rng, kind, n_inputs, horizon):
    if kind == "zero":
        return co.ZeroInput(n_inputs)
    if kind == "sinusoid":
        return co.SinusoidInput(
            with_zeros(rng, rng.standard_normal(n_inputs), 0.3),
            float(rng.uniform(0.5, 20.0)),
            float(rng.uniform(-3.0, 3.0)),
        )
    if kind == "constant":
        return co.ConstantInput(with_zeros(rng, rng.standard_normal(n_inputs), 0.3))
    times = np.sort(rng.uniform(0.0, horizon, size=5))
    values = with_zeros(rng, rng.standard_normal((5, n_inputs)), 0.3)
    return co.SampledInput(times, values)


@st.composite
def joint_runs(draw):
    """A random plant, design and grid; some runs diverge on purpose."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    n_outputs = draw(st.integers(1, 2))
    n_inputs = draw(st.integers(1, 2))
    # every draw is made on every path, so each case takes the same number of
    # choices: Hypothesis rejects a mutated case that needs more than its parent
    unstable, shift = draw(st.booleans()), draw(st.sampled_from([40.0, 9.0]))
    cubic, tiny_weight = draw(st.booleans()), draw(st.booleans())
    weight, fortran = draw(st.sampled_from([-0.0, 1e-300])), draw(st.booleans())

    def plant():
        a = rng.standard_normal((n, n))
        if unstable:
            # e^(40 t) passes 1e12 before t = 0.7, in the first block of
            # steps; e^(9 t) near t = 3, a few blocks on
            a += shift * np.eye(n)
        c = with_zeros(rng, rng.standard_normal((n_outputs, n)), 0.2)
        return co.LinearSystem(a, with_zeros(rng, rng.standard_normal((n, n_inputs)), 0.2), c)

    system = redraw_until_accepted(plant)
    gain_nc = np.zeros((n, n_outputs))
    theta = np.zeros((n_outputs, n_outputs))
    if cubic:
        gain_nc = with_zeros(rng, rng.standard_normal((n, n_outputs)), 0.1)
        gain_nc[rng.random(n) < 0.3] = 0.0  # exact zero rows
        g = rng.standard_normal((n_outputs, n_outputs))
        theta = g @ g.T
        if n_outputs == 1 and tiny_weight:
            # a signed zero or tiny weight: r' theta r is -0.0, or may
            # underflow to +0.0
            theta = np.array([[weight]])
        if fortran:
            gain_nc = np.asfortranarray(gain_nc)  # as a caller may pass it
    h = rng.standard_normal((n, n))
    design = co.CubicObserverDesign(
        gain_lc=rng.standard_normal((n, n_outputs)),
        gain_nc=gain_nc,
        theta=theta,
        gamma=1.0 if np.any(gain_nc) else 0.0,
        lyapunov_p=h @ h.T + n * np.eye(n),
        lyapunov_q=np.eye(n),
    )
    start = draw(st.sampled_from(["random", "zeros", "equal"]))
    x0 = with_zeros(rng, rng.standard_normal(n), 0.3)
    xhat0 = with_zeros(rng, rng.standard_normal(n), 0.3)
    if start == "zeros":
        x0, xhat0 = with_zeros(rng, np.zeros(n), 0.5), np.zeros(n)
    elif start == "equal":
        xhat0 = x0.copy()
    # up to 400 steps: several divergence-test blocks of sim._BLOCK steps
    horizon = draw(st.floats(0.05, 4.0))
    cfg = co.SimConfig(
        horizon=horizon,
        dt=draw(st.sampled_from([0.01, 0.013, 0.02])),
        x0=x0,
        xhat0=xhat0,
        input=random_signal(
            rng,
            draw(st.sampled_from(["zero", "sinusoid", "constant", "sampled"])),
            n_inputs,
            horizon,
        ),
        eps=draw(st.sampled_from([None, 0.0, 0.3, -0.7])),
    )
    feedback_k = None
    if draw(st.booleans()):
        feedback_k = with_zeros(rng, rng.standard_normal((n_inputs, n)), 0.2)
    return system, design, cfg, feedback_k


def run_or_divergence(run):
    try:
        return run(), None
    except co.DivergenceError as exc:
        return exc.trace, exc


def assert_matches_reference(system, design, cfg, feedback_k):
    """The run, or its divergence, equals reference_run's bit for bit."""
    if feedback_k is None:
        got, got_exc = run_or_divergence(
            lambda: co.simulate_cubic_observer(system, design, cfg)
        )
    else:
        got, got_exc = run_or_divergence(
            lambda: co.simulate_closed_loop(system, design, feedback_k, cfg)
        )
    want, want_exc = run_or_divergence(
        lambda: reference_run(system, design, cfg, feedback_k)
    )
    assert (got_exc is None) == (want_exc is None)
    if got_exc is not None:
        assert got_exc.last_time == want_exc.last_time
        assert str(got_exc) == str(want_exc)
    assert_traces_equal(got, want)


@settings(max_examples=200)
@given(case=joint_runs())
def test_lean_hot_path_is_bit_identical_to_the_reference(case):
    assert_matches_reference(*case)


# zero starts stay zero in the lower half; a nonzero one makes r nonzero
PINNED_STARTS = {"zero": (0.0, 0.0), "signed_zero": (-0.0, -0.0), "one": (1.0, -0.0)}


@pytest.mark.parametrize("start", sorted(PINNED_STARTS))
@pytest.mark.parametrize("theta", [-0.0, 1e-300])
@pytest.mark.parametrize("loop", ["open", "closed"])
def test_one_state_zero_sign_cases_are_bit_identical_to_the_reference(loop, theta, start):
    # n = 1 with one output and one input: gain_nc r and k xhat are bare
    # products whose zeros keep their sign where @ gives +0.0, and the one-
    # output weight r0 theta r0 is -0.0 at theta = -0.0 where @ gives +0.0,
    # or underflows at theta = 1e-300; none of these zeros may reach a state
    system = co.LinearSystem(a=[[-1.0]], b=[[0.5]], c=[[1.0]])
    design = co.CubicObserverDesign(
        gain_lc=np.array([[2.0]]),
        gain_nc=np.array([[-0.7]]),
        theta=np.array([[theta]]),
        gamma=1.0,
        lyapunov_p=np.eye(1),
        lyapunov_q=np.eye(1),
    )
    x0, xhat0 = PINNED_STARTS[start]
    cfg = co.SimConfig(
        horizon=0.3, dt=0.01, x0=[x0], xhat0=[xhat0], input=co.ConstantInput([-0.0])
    )
    feedback_k = None if loop == "open" else np.array([[1.5]])
    assert_matches_reference(system, design, cfg, feedback_k)


def test_rk4_never_writes_to_derivative_results_or_states():
    # a derivative may return one shared array (here read-only, so any
    # write would raise) or its own argument; neither it nor x0 nor any
    # state handed to it is written, and the result is the fresh-array one
    cfg = co.SimConfig(horizon=0.35, dt=0.1)
    shared = np.array([1.0, -2.0, 0.0])
    shared.setflags(write=False)
    x0 = np.array([0.5, -0.25, 3.0])
    seen = []

    def constant(t, y):
        seen.append((y, y.copy()))
        return shared

    times, states = co.integrate_rk4(constant, x0, cfg)
    assert np.array_equal(shared, [1.0, -2.0, 0.0])
    assert np.array_equal(x0, [0.5, -0.25, 3.0])
    assert all(np.array_equal(y, copy) for y, copy in seen)
    fresh_times, fresh = co.integrate_rk4(lambda t, y: shared.copy(), x0, cfg)
    assert np.array_equal(times, fresh_times)
    assert np.array_equal(states, fresh)

    _, states = co.integrate_rk4(lambda t, y: y, x0, cfg)
    _, fresh = co.integrate_rk4(lambda t, y: y.copy(), x0, cfg)
    assert np.array_equal(states, fresh)
    assert np.array_equal(x0, [0.5, -0.25, 3.0])


def assert_bits_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# steps of a grid of 2 blocks and a shortened final step, and the step each
# case diverges on: the first, the last of a block, the first of the next
# block, the shortened final one
EDGE_STEPS = 2 * sim._BLOCK + 1
DIVERGE_ON = {
    "first": 0,
    "block_end": sim._BLOCK - 1,
    "next_block": sim._BLOCK,
    "final": EDGE_STEPS - 1,
}


def edge_config(dt, **fields):
    cfg = co.SimConfig(horizon=(EDGE_STEPS - 0.5) * dt, dt=dt, **fields)
    times = sim._time_grid(cfg.dt, cfg.horizon)[0::2]
    assert times.size == EDGE_STEPS + 1 and times[-1] - times[-2] < 0.75 * dt
    return cfg, times


@pytest.mark.parametrize("where", sorted(DIVERGE_ON))
def test_rk4_divergence_at_block_edges_matches_the_reference(where):
    # the derivative explodes from the midpoint of the chosen step on, and
    # overflows to inf and nan after it; the blocked test reports that step
    # as the per-step one did, and numpy never warns
    cfg, times = edge_config(0.01)
    step = DIVERGE_ON[where]
    calls = 0

    def field(t, y):
        nonlocal calls
        calls += 1
        return y * 1e300 if t > times[step] else -0.5 * y

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(co.DivergenceError) as got:
            co.integrate_rk4(field, [1.0, -0.0], cfg)
        lean_calls = calls
        with pytest.raises(co.DivergenceError) as want:
            reference_rk4(field, [1.0, -0.0], cfg)
    got, want = got.value, want.value
    assert got.last_time == want.last_time == times[step]
    assert str(got) == str(want)
    for g, w in zip(got.trace, want.trace):
        assert_bits_equal(g, w)
    assert got.trace[0].size == step + 1
    if where == "first":
        assert lean_calls <= 4 * sim._BLOCK  # one block, not the whole run


@pytest.mark.parametrize("where", sorted(DIVERGE_ON))
def test_observer_divergence_at_block_edges_matches_the_reference(fx1, designs1, where):
    # the input jumps to 1e300 just after the chosen step's start, so the
    # drive blows that step up and the cubic weight overflows after it
    _, cubic = designs1
    dt = fx1.sim.dt
    step = DIVERGE_ON[where]
    _, times = edge_config(dt)
    jump = co.SampledInput([0.0, times[step] + dt / 8], [[0.5], [1e300]])
    counting = CountingInput(jump)
    cfg, _ = edge_config(dt, x0=fx1.sim.x0, input=counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(co.DivergenceError) as got:
            co.simulate_cubic_observer(fx1.system, cubic, cfg)
        with pytest.raises(co.DivergenceError) as want:
            reference_run(fx1.system, cubic, replace(cfg, input=jump))
    got, want = got.value, want.value
    assert got.last_time == want.last_time == times[step]
    assert str(got) == str(want)
    assert_traces_equal(got.trace, want.trace)
    assert got.trace.times.size == step + 1
    if where == "first":
        # the input was sampled for the first block only: its grid times
        # and midpoints, not the whole horizon
        assert counting.samples == 2 * sim._BLOCK + 1


def test_integrate_rk4_hands_each_step_its_start_midpoint_twice_and_end():
    # over two blocks and a shortened final step, the derivative sees t_k,
    # the midpoint twice and t_{k+1}, as Python floats equal to the stages
    cfg, _ = edge_config(0.01)
    seen = []

    def field(t, y):
        seen.append(t)
        return -y

    co.integrate_rk4(field, [1.0], cfg)
    assert {type(t) for t in seen} == {float}
    stages = sim._time_grid(cfg.dt, cfg.horizon)
    start, mid, end = stages[0:-1:2], stages[1::2], stages[2::2]
    want = np.column_stack([start, mid, mid, end])
    assert np.array_equal(np.reshape(seen, (-1, 4)), want)


def test_a_field_that_raises_after_a_divergence_reports_the_divergence():
    # step 30 diverges; a derivative that refuses the diverged state in the
    # next step, still in that block, does not hide the divergence, and one
    # that raises before any divergence still raises
    cfg = co.SimConfig(horizon=1.0, dt=0.01)
    times = sim._time_grid(cfg.dt, cfg.horizon)[0::2]

    def refusing(t, y):
        if t > times[31] and np.abs(y).max() > 1e12:
            raise ValueError("diverged state")
        return np.full_like(y, 1e20 if t > times[30] else 1.0)

    with pytest.raises(co.DivergenceError) as info:
        co.integrate_rk4(refusing, [0.0], cfg)
    assert info.value.last_time == times[30]

    def broken(t, y):
        if t > 0.5:
            raise ValueError("broken field")
        return -y

    with pytest.raises(ValueError, match="broken field"):
        co.integrate_rk4(broken, [1.0], cfg)


@pytest.mark.parametrize("kind", ["zero", "sinusoid", "constant", "sampled"])
def test_trace_inputs_are_the_signal_at_every_grid_time(fx2, designs2, kind):
    # horizon 0.3005 ends in a shortened step; the unstable run stops early
    _, cubic = designs2
    rng = np.random.default_rng(7)
    signal = random_signal(rng, kind, fx2.system.n_inputs, 0.3)
    cfg = replace(fx2.sim, horizon=0.3005, input=signal)
    trace = co.simulate_cubic_observer(fx2.system, cubic, cfg)
    assert trace.times[-1] - trace.times[-2] < cfg.dt
    want = np.array([co.evaluate_input(signal, t) for t in trace.times])
    assert np.array_equal(trace.inputs, want)
    assert np.array_equal(np.signbit(trace.inputs), np.signbit(want))

    sys = co.LinearSystem(a=[[5.0]], b=[[1.0]], c=[[1.0]])
    design = co.degenerate_linear(sys, [[6.0]], np.eye(1))
    cfg = co.SimConfig(horizon=10.0, x0=[1.0], input=random_signal(rng, kind, 1, 6.0))
    with pytest.raises(co.DivergenceError) as info:
        co.simulate_cubic_observer(sys, design, cfg)
    partial = info.value.trace
    want = np.array([co.evaluate_input(cfg.input, t) for t in partial.times])
    assert np.array_equal(partial.inputs, want)


# ---------------------------------------------------------------------------
# metrics


def test_peak_error_is_the_global_maximum():
    trace = make_trace([0.0, 1.0, 2.0, 3.0], [[-2.0], [-0.5], [0.3], [-0.1]])
    met = co.compute_metrics(trace)
    assert met.peak_error[0] == 2.0


def test_overshoot_is_the_peak_after_the_first_sign_change():
    trace = make_trace([0.0, 1.0, 2.0, 3.0], [[-2.0], [-0.5], [0.3], [-0.1]])
    met = co.compute_metrics(trace)
    assert met.overshoot_peak[0] == pytest.approx(0.3)


def test_overshoot_none_when_error_never_crosses_zero():
    trace = make_trace([0.0, 1.0, 2.0, 3.0], [[2.0], [1.0], [0.5], [0.1]])
    met = co.compute_metrics(trace)
    assert met.overshoot_peak[0] is None


def test_overshoot_zero_for_identically_zero_error():
    trace = make_trace([0.0, 1.0], [[0.0], [0.0]])
    met = co.compute_metrics(trace)
    assert met.overshoot_peak[0] == 0.0


def test_settling_time_uses_the_last_band_entry():
    # re-entering the band at t = 1 does not count because the error
    # leaves again at t = 2; the last entry is at t = 3
    errors = [[0.2], [0.04], [0.06], [0.03], [0.02]]
    trace = make_trace([0.0, 1.0, 2.0, 3.0, 4.0], errors)
    met = co.compute_metrics(trace)
    assert met.settling_time[0] == 3.0


def test_settling_time_edge_cases():
    inside = make_trace([0.0, 1.0], [[0.01], [0.02]])
    assert co.compute_metrics(inside).settling_time[0] == 0.0
    never = make_trace([0.0, 1.0, 2.0], [[0.2], [0.2], [0.2]])
    assert co.compute_metrics(never).settling_time[0] is None


def test_cumulative_error_exact_for_constant_error():
    # the trapezoid rule integrates constants exactly, even on a
    # non-uniform grid
    trace = make_trace([0.0, 0.5, 1.0, 2.0], [[1.0], [1.0], [1.0], [1.0]])
    met = co.compute_metrics(trace)
    assert np.allclose(met.cumulative_squared[:, 0], [0.0, 0.5, 1.0, 2.0], atol=1e-15)
    assert met.j_final[0] == pytest.approx(2.0)
    assert met.j_total == pytest.approx(2.0)
    assert np.array_equal(met.cumulative_total, met.cumulative_squared[:, 0])


def test_cumulative_series_shapes(fx1, designs1):
    _, cubic = designs1
    trace = co.simulate_cubic_observer(fx1.system, cubic, fx1.sim)
    met = co.compute_metrics(trace)
    assert met.cumulative_squared.shape == trace.errors.shape
    assert met.cumulative_total.shape == trace.times.shape
    assert np.array_equal(met.j_final, met.cumulative_squared[-1])
    assert met.j_total == pytest.approx(float(met.cumulative_total[-1]))
    # cumulative integrals of nonnegative integrands never decrease
    assert np.all(np.diff(met.cumulative_total) >= 0.0)


def test_lqr_cost_requires_control_series():
    trace = make_trace([0.0, 1.0], [[1.0], [1.0]])
    with pytest.raises(co.ContractError, match="closed-loop"):
        co.compute_metrics(trace, lqr_weights=(np.eye(1), np.eye(1)))


@pytest.mark.parametrize(
    "q, r, message",
    [
        (np.eye(2), np.eye(1), r"^q_lqr must have shape \(3, 3\), got \(2, 2\)$"),
        (np.eye(3), np.eye(2), r"^r_lqr must have shape \(1, 1\), got \(2, 2\)$"),
    ],
    ids=["q", "r"],
)
def test_lqr_weights_of_the_wrong_shape_are_refused(q, r, message):
    # a 3-state trace with one input takes a 3 x 3 q and a 1 x 1 r
    trace = make_trace([0.0, 1.0], [[1.0, 2.0, 3.0]] * 2, control=[[2.0], [2.0]])
    with pytest.raises(co.DimensionError, match=message):
        co.compute_metrics(trace, lqr_weights=(q, r))


def test_lqr_weights_too_large_to_symmetrize_are_refused():
    trace = make_trace([0.0, 1.0], [[1.0], [1.0]], control=[[2.0], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(co.ContractError, match=r"^q_lqr is too large"):
            co.compute_metrics(trace, lqr_weights=(np.eye(1) * 1e308, np.eye(1)))
        with pytest.raises(co.ContractError, match=r"^r_lqr is too large"):
            co.compute_metrics(trace, lqr_weights=(np.eye(1), [[-1e308]]))


def test_metrics_that_overflow_are_refused_without_a_warning():
    trace = make_trace([0.0, 1.0], [[3.0], [3.0]], control=[[2.0], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # x' q x is inf inside einsum, which raises no flag
        with pytest.raises(co.NumericalError, match=r"^lqr cost overflows$"):
            co.compute_metrics(trace, lqr_weights=(np.eye(1) * 5e307, np.eye(1)))
        # 9e307 twice overflows in the trapezoid's sum, which does
        with pytest.raises(co.NumericalError, match=r"^metrics overflows$"):
            co.compute_metrics(trace, lqr_weights=(np.eye(1) * 1e307, np.eye(1)))


def test_lqr_cost_hand_value():
    trace = make_trace([0.0, 1.0], [[1.0], [1.0]], control=[[2.0], [2.0]])
    met = co.compute_metrics(trace, lqr_weights=(np.eye(1), np.eye(1)))
    # integrand x^2 + u^2 = 5 throughout, over unit time
    assert met.lqr_cost == pytest.approx(5.0)
    assert np.allclose(met.lqr_cost_series, [0.0, 5.0])


# ---------------------------------------------------------------------------
# pointwise Lyapunov derivative


def test_lyapunov_derivative_decomposition(fx1, designs1):
    _, cubic = designs1
    sys = fx1.system
    f = sys.a - cubic.gain_lc @ sys.c
    s = sys.c.T @ cubic.theta @ sys.c
    d = cubic.lyapunov_p @ cubic.gain_nc @ sys.c
    d = d + d.T
    rng = np.random.default_rng(11)
    for _ in range(50):
        e = rng.normal(size=2)
        vdot_cubic, vdot_linear = co.lyapunov_derivative_at(sys, cubic, e)
        w = f.T @ cubic.lyapunov_p + cubic.lyapunov_p @ f
        assert vdot_linear == pytest.approx(float(e @ w @ e), rel=1e-12, abs=1e-12)
        expected = vdot_linear + float(e @ s @ e) * float(e @ d @ e)
        assert vdot_cubic == pytest.approx(expected, rel=1e-12, abs=1e-12)
        # for the synthesized design the quadratic part is exactly -e^T q e
        assert vdot_linear == pytest.approx(
            -float(e @ cubic.lyapunov_q @ e), rel=1e-6
        )


def test_lyapunov_derivative_input_validation(fx1, designs1):
    _, cubic = designs1
    with pytest.raises(co.DimensionError, match=r"^e must have 2 entries, got 3$"):
        co.lyapunov_derivative_at(fx1.system, cubic, [1.0, 2.0, 3.0])
