"""Unit tests for the integrator, observer runs, and error metrics."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import cubicobs as co


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


class CountingInput:
    """Wraps an input signal and counts its samples."""

    def __init__(self, signal):
        self.signal = signal
        self.dimension = signal.dimension
        self.samples = 0

    def sample(self, t):
        self.samples += 1
        return self.signal.sample(t)


def test_drive_is_sampled_once_per_distinct_time(fx1, designs1):
    # the open-loop drive is cached across RK4 stages that share a time:
    # 2 samples per step and one at t = 0, plus one per row of the trace
    _, cubic = designs1
    counting = CountingInput(fx1.sim.input)
    cfg = replace(fx1.sim, horizon=0.5)
    trace = co.simulate_cubic_observer(fx1.system, cubic, replace(cfg, input=counting))
    steps = trace.times.size - 1
    assert counting.samples <= 3 * steps + 2
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


def test_closed_loop_records_applied_control(fx3):
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
    with pytest.raises(co.DimensionError):
        co.simulate_cubic_observer(fx1.system, cubic, bad_x0)
    bad_u = co.SimConfig(horizon=1.0, input=co.ZeroInput(dimension=2))
    with pytest.raises(co.DimensionError):
        co.simulate_cubic_observer(fx1.system, cubic, bad_u)


def test_perturbed_run_equals_direct_eps_run(fx2, designs2):
    _, cubic = designs2
    family = co.PerturbedFamily(fx2.system, *fx2.eps_range)
    cfg = replace(fx2.sim, horizon=1.0)
    via_family = co.simulate_perturbed(family, cubic, 0.02, cfg)
    direct = co.simulate_cubic_observer(fx2.system, cubic, replace(cfg, eps=0.02))
    assert np.array_equal(via_family.plant_states, direct.plant_states)
    assert np.array_equal(via_family.estimates, direct.estimates)


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
# metrics


def test_peak_error_is_the_global_maximum():
    trace = make_trace([0.0, 1.0, 2.0, 3.0], [[-2.0], [-0.5], [0.3], [-0.1]])
    met = co.compute_metrics(trace, settle_threshold=0.05)
    assert met.peak_error[0] == 2.0


def test_overshoot_is_the_peak_after_the_first_sign_change():
    trace = make_trace([0.0, 1.0, 2.0, 3.0], [[-2.0], [-0.5], [0.3], [-0.1]])
    met = co.compute_metrics(trace, settle_threshold=0.05)
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
    met = co.compute_metrics(trace, settle_threshold=0.05)
    assert met.settling_time[0] == 3.0


def test_settling_time_edge_cases():
    inside = make_trace([0.0, 1.0], [[0.01], [0.02]])
    assert co.compute_metrics(inside).settling_time[0] == 0.0
    never = make_trace([0.0, 1.0, 2.0], [[0.2], [0.2], [0.2]])
    assert co.compute_metrics(never).settling_time[0] is None
    with pytest.raises(co.ContractError):
        co.compute_metrics(inside, settle_threshold=0.0)


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
    with pytest.raises(co.DimensionError):
        co.lyapunov_derivative_at(fx1.system, cubic, [1.0, 2.0, 3.0])
