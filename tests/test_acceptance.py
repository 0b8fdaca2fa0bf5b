"""Acceptance gate: frozen benchmark values and global guarantees.

Every test here pins behavior the package promises: the bundled example
designs reproduce their frozen reference numbers, the constructive gain
identity holds on random systems, the pointwise Lyapunov decay bound is
respected, degenerate runs reduce exactly to the linear observer, the
integrator delivers fourth-order accuracy, certified perturbations decay,
and the CLI bundles are byte-reproducible.
"""

import filecmp
import os
from dataclasses import replace

import numpy as np
import pytest

import cubicobs as co
from cubicobs import cli, numlin
from conftest import random_observable_system, separated_stable_poles


# ---------------------------------------------------------------------------
# example 1: double integrator


def test_double_integrator_gain_and_lyapunov_solution(fx1, designs1):
    """Placement gives l = (7, 10) and q = 10 I yields the frozen p."""
    assert np.allclose(fx1.gain_lc[:, 0], [7.0, 10.0], rtol=0.0, atol=1e-9)

    _, cubic = designs1
    p_expected = np.array([[7.8571, -5.0], [-5.0, 4.2857]])
    assert np.allclose(cubic.lyapunov_p, p_expected, rtol=0.0, atol=5e-4)

    f = fx1.system.a - fx1.gain_lc @ fx1.system.c
    residual = numlin.max_abs(
        f.T @ cubic.lyapunov_p + cubic.lyapunov_p @ f + 10.0 * np.eye(2)
    )
    assert residual <= 1e-8


def test_double_integrator_cubic_gain_values(fx1, designs1):
    """nc = -gamma p^{-1} c^T theta lands on the frozen vector."""
    _, cubic = designs1
    nc_expected = np.array([[-9.8824], [-11.5294]])
    assert np.allclose(cubic.gain_nc, nc_expected, rtol=0.0, atol=5e-4)
    # exact rational values for this design: -168/17 and -196/17
    assert cubic.gain_nc[0, 0] == pytest.approx(-168.0 / 17.0, abs=1e-9)
    assert cubic.gain_nc[1, 0] == pytest.approx(-196.0 / 17.0, abs=1e-9)

    cert = co.certify_stability(fx1.system, cubic)
    assert cert.stability_ok
    assert co.robustness_bound(cubic) == pytest.approx(0.43933878731677817, rel=1e-9)


def test_double_integrator_transient_comparison(bundle1):
    """The cubic observer reshapes the velocity-error transient.

    Frozen windows for the second state: the linear observer overshoots to
    about 1.19 and settles into the 0.05 band near t = 2.3, the cubic one
    overshoots to about 0.48 and settles near t = 1.65.
    """
    ml = bundle1["metrics"]["linear"]
    mc = bundle1["metrics"]["cubic"]

    assert 1.08 <= ml.overshoot_peak[1] <= 1.28
    assert 2.1 <= ml.settling_time[1] <= 2.5
    assert 0.38 <= mc.overshoot_peak[1] <= 0.58
    assert 1.5 <= mc.settling_time[1] <= 1.9

    assert mc.overshoot_peak[1] < ml.overshoot_peak[1]
    assert mc.settling_time[1] < ml.settling_time[1]


# ---------------------------------------------------------------------------
# example 2: three-state plant


def test_three_state_design_chain_values(fx2, designs2):
    """Placement for {-30, -10, -5} and the frozen Lyapunov data.

    The gain vector is pinned by the rest of the chain: it must place the
    poles exactly and it must produce this p, whose entries, largest
    eigenvalue, correction direction, and perturbation radius are all
    frozen here.
    """
    l = fx2.gain_lc[:, 0]
    l_expected = [1156.8298882681563, -1074.303631284916, -20.313128491620102]
    assert np.allclose(l, l_expected, rtol=0.0, atol=1e-3)

    f = fx2.system.a - fx2.gain_lc @ fx2.system.c
    achieved = np.sort(numlin.eigenvalues(f).real)
    assert numlin.max_abs(numlin.eigenvalues(f).imag) < 1e-8
    assert np.allclose(achieved, [-30.0, -10.0, -5.0], rtol=0.0, atol=3e-7)

    _, cubic = designs2
    p_expected = np.array(
        [
            [750.5346, 785.9444, 1162.5966],
            [785.9444, 823.3524, 1210.2306],
            [1162.5966, 1210.2306, 2379.6621],
        ]
    )
    assert np.allclose(cubic.lyapunov_p, p_expected, rtol=0.0, atol=1e-2)

    p_max = float(np.linalg.eigvalsh(cubic.lyapunov_p)[-1])
    assert p_max == pytest.approx(3702.5756, abs=1e-1)

    # correction direction p^{-1} c^T theta, i.e. nc / (-gamma)
    direction = cubic.gain_nc[:, 0] / (-cubic.gamma)
    assert np.allclose(direction, [0.1866, -0.1748, -0.0014], rtol=0.0, atol=1e-3)

    assert co.robustness_bound(cubic) == pytest.approx(0.00135, abs=1e-4)


def test_perturbed_error_energy_ordering(bundle2):
    """With the plant drifted inside the certified radius the cubic
    observer accumulates strictly less squared error than the linear one."""
    ml = bundle2["metrics"]["perturbed_linear"]
    mc = bundle2["metrics"]["perturbed_cubic"]
    assert mc.j_total < ml.j_total
    assert mc.j_total == pytest.approx(1030.5728515006, rel=1e-6)
    assert ml.j_total == pytest.approx(1030.6010040409, rel=1e-6)


def test_perturbed_decay_within_certified_radius(fx2, designs2):
    """Halfway inside the certified radius the error energy decays
    monotonically until it reaches numerical zero, and the radius itself
    is exactly invariant under scaling q by four."""
    _, cubic = designs2
    bound = co.robustness_bound(cubic)
    assert bound == pytest.approx(0.001350411303205404, rel=1e-9)

    cfg = co.SimConfig(horizon=6.0, dt=1e-3, x0=[1.0, 1.0, 1.0], eps=bound / 2.0)
    trace = co.simulate_cubic_observer(fx2.system, cubic, cfg)
    v = trace.lyapunov
    floor = 1e-12
    assert v[0] > floor
    assert np.min(v) < floor  # the run is long enough to reach the floor
    alive = v >= floor
    last_alive = int(np.nonzero(alive)[0][-1])
    for k in range(last_alive + 1):
        assert v[k + 1] < v[k]

    scaled = co.synthesize_cubic_gain(
        fx2.system, fx2.gain_lc, 4.0 * np.asarray(fx2.q), fx2.theta, fx2.gamma
    )
    assert co.robustness_bound(scaled) == bound


# ---------------------------------------------------------------------------
# example 3: observer-based feedback


def test_feedback_regulation_comparison(bundle3):
    """Both loops regulate the unstable plant to numerical zero and the
    cubic observer does it at lower quadratic cost."""
    traces = bundle3["traces"]
    for label in ("linear", "cubic"):
        tr = traces[f"{label}_trace"]
        assert float(np.linalg.norm(tr.plant_states[-1])) < 1e-3
        assert float(np.linalg.norm(tr.errors[-1])) < 1e-3

    ml = bundle3["metrics"]["linear"]
    mc = bundle3["metrics"]["cubic"]
    assert mc.lqr_cost <= ml.lqr_cost
    assert mc.lqr_cost == pytest.approx(36.876859, rel=1e-4)
    assert ml.lqr_cost == pytest.approx(45.007637, rel=1e-4)


def test_feedback_certificate_flags(bundle3):
    """The composite certificate needs the observer block scaled up, and
    the hand-chosen cubic gain honestly fails the strict damping test."""
    cert = bundle3["certificate"]
    assert cert.hurwitz_ok
    assert cert.uniqueness_ok
    assert cert.feedback_ok
    assert cert.feedback_beta == 1000.0
    assert cert.feedback_unscaled_ok is False
    assert cert.damping_mode == "strict"
    assert cert.damping_ok is False


# ---------------------------------------------------------------------------
# global guarantees on random systems


def test_gain_identity_on_random_systems():
    """p nc c + c^T nc^T p = -2 gamma c^T theta c to tight tolerance on one
    hundred random observable systems, with certificates passing."""
    rng = np.random.default_rng(2)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 500, "generator kept producing refused draws"
        sys = random_observable_system(rng)
        poles = separated_stable_poles(rng, sys.n)
        gamma = float(rng.uniform(0.1, 5.0))
        theta = float(rng.uniform(0.1, 10.0))
        try:
            lc = co.place_poles_single_output(sys, poles)
            design = co.synthesize_cubic_gain(
                sys, lc, np.eye(sys.n), [[theta]], gamma
            )
        except co.NumericalError:
            continue

        s = sys.c.T @ design.theta @ sys.c
        lhs = design.lyapunov_p @ design.gain_nc @ sys.c
        lhs = lhs + lhs.T
        rel = numlin.max_abs(lhs + 2.0 * gamma * s) / (
            1.0 + 2.0 * gamma * numlin.max_abs(s)
        )
        assert rel <= 1e-10

        cert = co.certify_stability(sys, design)
        assert cert.hurwitz_ok
        assert cert.damping_ok
        assert cert.uniqueness_ok
        checked += 1


def test_pointwise_decay_bound():
    """dV/dt along the cubic error dynamics is at most -e^T q e everywhere,
    strictly below it whenever the output error is nonzero."""
    fixtures = []
    fx1 = co.get_example(1)
    fx2 = co.get_example(2)
    for rho in (1.0, 10.0):
        fixtures.append(
            (
                fx1.system,
                co.synthesize_cubic_gain(
                    fx1.system, fx1.gain_lc, rho * np.eye(2), fx1.theta, fx1.gamma
                ),
                rho,
            )
        )
        fixtures.append(
            (
                fx2.system,
                co.synthesize_cubic_gain(
                    fx2.system, fx2.gain_lc, rho * np.eye(3), fx2.theta, fx2.gamma
                ),
                rho,
            )
        )

    rng = np.random.default_rng(8)
    for sys, design, rho in fixtures:
        for _ in range(1000):
            e = rng.normal(size=sys.n)
            vdot_cubic, _ = co.lyapunov_derivative_at(sys, design, e)
            quad = rho * float(e @ e)
            assert vdot_cubic <= -quad + 1e-9 * max(1.0, quad)
            output_error = float(np.abs(sys.c @ e)[0])
            if output_error >= 1e-2 * np.linalg.norm(e):
                assert vdot_cubic < -quad


# ---------------------------------------------------------------------------
# degenerate limit and continuity in gamma


def test_degenerate_run_is_bit_identical_to_linear_observer(fx1, designs1):
    """The zero-gain cubic design reproduces, bit for bit, the textbook
    linear observer integrated directly:

        d/dt [x; xhat] = [a, 0; l c, a - l c] [x; xhat] + [b; b] u.

    The field is applied as one block matrix; summing l c x and
    (a - l c) xhat as separate products rounds differently.
    """
    linear_design, _ = designs1
    sys, cfg = fx1.system, fx1.sim
    n, l = sys.n, fx1.gain_lc
    m = np.block([[sys.a, np.zeros((n, n))], [l @ sys.c, sys.a - l @ sys.c]])
    bstack = np.vstack([sys.b, sys.b])
    z0 = np.concatenate([cfg.x0, np.zeros(n)])
    times, states = co.integrate_rk4(
        lambda t, z: m @ z + bstack @ cfg.input.sample(t), z0, cfg
    )
    x, xhat = states[:, :n], states[:, n:]
    errors = x - xhat
    outputs = x @ sys.c.T
    inputs = np.array([co.evaluate_input(cfg.input, t) for t in times])
    lyapunov = np.einsum("ij,jk,ik->i", errors, linear_design.lyapunov_p, errors)

    tr_deg = co.simulate_cubic_observer(sys, linear_design, cfg)
    assert np.array_equal(times, tr_deg.times)
    assert np.array_equal(x, tr_deg.plant_states)
    assert np.array_equal(xhat, tr_deg.estimates)
    assert np.array_equal(errors, tr_deg.errors)
    assert np.array_equal(outputs, tr_deg.outputs)
    assert np.array_equal(inputs, tr_deg.inputs)
    assert np.array_equal(lyapunov, tr_deg.lyapunov)


def test_gamma_continuity_toward_the_linear_observer(fx1, designs1):
    """Shrinking gamma shrinks the sup-norm gap to the linear run."""
    linear_design, _ = designs1
    tr_lin = co.simulate_cubic_observer(fx1.system, linear_design, fx1.sim)
    gaps = []
    for gamma in (1.0, 0.1, 0.01):
        design = co.synthesize_cubic_gain(
            fx1.system, fx1.gain_lc, fx1.q, fx1.theta, gamma
        )
        tr = co.simulate_cubic_observer(fx1.system, design, fx1.sim)
        gaps.append(float(np.max(np.abs(tr.errors - tr_lin.errors))))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] == pytest.approx(2.246577934884486, rel=1e-6)
    assert gaps[1] == pytest.approx(1.2371465307476752, rel=1e-6)
    assert gaps[2] == pytest.approx(0.32264585389248346, rel=1e-6)


# ---------------------------------------------------------------------------
# integrator order


def test_integrator_fourth_order_oracle():
    """Against the closed-form solution of dx/dt = -x - x^3: the default
    step is near machine accuracy at t = 1, and halving the step divides
    the global error by roughly sixteen."""

    def exact(t, x0):
        e2 = np.exp(-2.0 * t)
        return np.sqrt(x0 * x0 * e2 / (1.0 + x0 * x0 * (1.0 - e2)))

    field = lambda t, x: -x - x**3
    _, states = co.integrate_rk4(field, [0.5], co.SimConfig(horizon=1.0, dt=1e-3))
    assert abs(states[-1, 0] - exact(1.0, 0.5)) <= 1e-8

    errs = []
    for dt in (0.05, 0.025):
        _, states = co.integrate_rk4(field, [0.5], co.SimConfig(horizon=1.0, dt=dt))
        errs.append(abs(states[-1, 0] - exact(1.0, 0.5)))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


# ---------------------------------------------------------------------------
# CLI reproducibility


def test_example_bundle_is_byte_reproducible(tmp_path, capsys):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    assert cli.main(["example", "1", "--out", str(d1)]) == 0
    assert cli.main(["example", "1", "--out", str(d2)]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert mismatch == []
    assert errors == []
    assert match == names
