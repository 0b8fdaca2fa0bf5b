"""Unit tests for gain synthesis and the stability certificates."""

import numpy as np
import pytest

import cubicobs as co
from cubicobs import numlin
from conftest import random_observable_system, separated_stable_poles


def double_integrator():
    return co.LinearSystem(
        a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]], c=[[1.0, 0.0]]
    )


def scalar_plant():
    return co.LinearSystem(a=[[-1.0]], b=[[0.0]], c=[[1.0]])


# ---------------------------------------------------------------------------
# pole placement


def test_placement_double_integrator_each_pole_sets_a_gain_entry():
    # char poly of a - l c is s^2 + l1 s + l2, so {-2, -5} means l = (7, 10)
    sys = double_integrator()
    l = co.place_poles_single_output(sys, [-2.0, -5.0])
    assert l.shape == (2, 1)
    assert np.allclose(l[:, 0], [7.0, 10.0], atol=1e-9)


def test_placement_repeated_poles():
    sys = double_integrator()
    l = co.place_poles_single_output(sys, [-1.0, -1.0])
    assert np.allclose(l[:, 0], [2.0, 1.0], atol=1e-9)


def test_placement_conjugate_pair():
    # s^2 + 2 s + 5 for poles -1 +/- 2j
    sys = double_integrator()
    l = co.place_poles_single_output(sys, [complex(-1, 2), complex(-1, -2)])
    assert np.allclose(l[:, 0], [2.0, 5.0], atol=1e-9)


def test_placement_matches_characteristic_polynomial():
    # coefficient-space oracle, independent of the eigensolve inside
    rng = np.random.default_rng(7)
    for _ in range(25):
        sys = random_observable_system(rng)
        poles = separated_stable_poles(rng, sys.n)
        try:
            l = co.place_poles_single_output(sys, poles)
        except co.NumericalError:
            continue  # ill-conditioned draw, the routine refused it
        f = sys.a - l @ sys.c
        achieved = np.poly(f).real
        target = np.poly(poles).real
        assert np.allclose(achieved, target, rtol=0.0, atol=1e-6 * max(np.abs(target)))


def test_placement_rejects_bad_pole_sets():
    sys = double_integrator()
    with pytest.raises(co.DimensionError):
        co.place_poles_single_output(sys, [-1.0])
    with pytest.raises(co.ContractError):
        co.place_poles_single_output(sys, [complex(-1, 2), complex(-1, 3)])
    with pytest.raises(co.ContractError):
        co.place_poles_single_output(sys, [-1.0, np.inf])


def test_placement_rejects_multi_output():
    sys = co.LinearSystem(a=-np.eye(2), b=np.zeros((2, 1)), c=np.eye(2))
    with pytest.raises(co.ContractError, match="single-output"):
        co.place_poles_single_output(sys, [-1.0, -2.0])


# ---------------------------------------------------------------------------
# cubic gain synthesis


def test_synthesize_scalar_plant_by_hand():
    # f = -1, q = 2 gives p = 1, and nc = -gamma p^{-1} c theta = -1
    design = co.synthesize_cubic_gain(
        scalar_plant(), [[0.0]], q=[[2.0]], theta=[[1.0]], gamma=1.0
    )
    assert design.lyapunov_p[0, 0] == pytest.approx(1.0, rel=1e-14)
    assert design.gain_nc[0, 0] == pytest.approx(-1.0, rel=1e-14)
    assert design.synthesized


def test_synthesize_satisfies_defining_identity(fx1, fx2):
    for fx in (fx1, fx2):
        design = co.synthesize_cubic_gain(
            fx.system, fx.gain_lc, fx.q, fx.theta, fx.gamma
        )
        c = fx.system.c
        s = c.T @ design.theta @ c
        lhs = design.lyapunov_p @ design.gain_nc @ c
        lhs = lhs + lhs.T
        residual = numlin.max_abs(lhs + 2.0 * design.gamma * s)
        assert residual <= 1e-10 * (1.0 + 2.0 * design.gamma * numlin.max_abs(s))


def test_synthesize_gain_scales_linearly_in_gamma(fx1):
    d1 = co.synthesize_cubic_gain(fx1.system, fx1.gain_lc, fx1.q, fx1.theta, 1.0)
    d2 = co.synthesize_cubic_gain(fx1.system, fx1.gain_lc, fx1.q, fx1.theta, 2.0)
    assert np.allclose(d2.gain_nc, 2.0 * d1.gain_nc, rtol=1e-12)


def test_synthesize_rejects_nonpositive_gamma(fx1):
    for gamma in (0.0, -1.0):
        with pytest.raises(co.ContractError):
            co.synthesize_cubic_gain(fx1.system, fx1.gain_lc, fx1.q, fx1.theta, gamma)


def test_synthesize_rejects_indefinite_theta(fx1):
    with pytest.raises(co.ContractError):
        co.synthesize_cubic_gain(fx1.system, fx1.gain_lc, fx1.q, [[-1.0]], 1.0)


def test_synthesize_rejects_non_hurwitz_gain():
    sys = double_integrator()
    with pytest.raises(co.DesignError, match="hurwitz"):
        co.synthesize_cubic_gain(sys, [[0.0], [0.0]], np.eye(2), [[1.0]], 1.0)


def test_degenerate_linear_is_the_zero_gamma_design(fx1):
    design = co.degenerate_linear(fx1.system, fx1.gain_lc, fx1.q)
    assert design.is_degenerate
    assert design.gamma == 0.0
    assert numlin.max_abs(design.gain_nc) == 0.0
    assert numlin.max_abs(design.theta) == 0.0
    assert design.synthesized


def test_explicit_design_validation(fx1):
    sys = fx1.system
    with pytest.raises(co.DimensionError):
        co.explicit_cubic_design(sys, fx1.gain_lc, [[1.0], [2.0], [3.0]], [[1.0]])
    # the packaged dataclass enforces that gamma = 0 means no cubic action
    with pytest.raises(co.ContractError):
        co.CubicObserverDesign(
            gain_lc=fx1.gain_lc,
            gain_nc=np.ones((2, 1)),
            theta=[[1.0]],
            gamma=0.0,
            lyapunov_p=np.eye(2),
            lyapunov_q=np.eye(2),
        )


# ---------------------------------------------------------------------------
# certificates


def test_certificate_flags_for_synthesized_design(fx1, designs1):
    _, cubic = designs1
    cert = co.certify_stability(fx1.system, cubic)
    assert cert.hurwitz_ok
    assert cert.damping_ok
    assert cert.damping_mode == "semidefinite"
    assert not cert.damping_strict  # rank-one damping matrix, n = 2
    assert cert.uniqueness_ok
    assert cert.stability_ok
    assert cert.all_ok
    for key in (
        "q_min_eig",
        "spectral_abscissa",
        "hurwitz_margin",
        "damping_margin",
        "damping_min_eig",
        "uniqueness_min_eig",
    ):
        assert key in cert.margins
        assert np.isfinite(cert.margins[key])
    assert cert.margins["hurwitz_margin"] > 0.0
    assert cert.margins["spectral_abscissa"] < 0.0


def test_certificate_strict_mode_fails_rank_deficient_damping(fx1, designs1):
    _, cubic = designs1
    cert = co.certify_stability(fx1.system, cubic, strict_damping=True)
    assert cert.damping_mode == "strict"
    assert not cert.damping_ok
    assert not cert.stability_ok


def test_certificate_on_degenerate_design(fx1, designs1):
    linear, _ = designs1
    cert = co.certify_stability(fx1.system, linear)
    assert cert.hurwitz_ok
    assert cert.damping_ok  # zero damping matrix is semidefinite
    assert cert.uniqueness_ok
    assert cert.margins["damping_margin"] == pytest.approx(0.0, abs=1e-15)


def test_certificate_rejects_wrong_sign_cubic_gain(fx1, designs1):
    # flipping nc makes the cubic term pump energy into the error
    _, cubic = designs1
    flipped = co.explicit_cubic_design(
        fx1.system,
        fx1.gain_lc,
        -cubic.gain_nc,
        cubic.theta,
        q=fx1.q,
        gamma=cubic.gamma,
    )
    cert = co.certify_stability(fx1.system, flipped)
    assert cert.hurwitz_ok
    assert not cert.damping_ok
    assert not cert.uniqueness_ok
    assert not cert.stability_ok
    assert cert.damping_mode == "strict"  # explicit gains get the strict test


def test_robustness_bound_scalar_hand_value():
    design = co.synthesize_cubic_gain(
        scalar_plant(), [[0.0]], q=[[2.0]], theta=[[1.0]], gamma=1.0
    )
    # lambda_min(q) / (2 lambda_max(p)) = 2 / 2
    assert co.robustness_bound(design) == pytest.approx(1.0, rel=1e-14)


def test_robustness_bound_invariant_under_q_scaling(fx1):
    d1 = co.synthesize_cubic_gain(fx1.system, fx1.gain_lc, fx1.q, fx1.theta, fx1.gamma)
    d4 = co.synthesize_cubic_gain(
        fx1.system, fx1.gain_lc, 4.0 * np.asarray(fx1.q), fx1.theta, fx1.gamma
    )
    assert co.robustness_bound(d1) == co.robustness_bound(d4)


def test_certificates_carry_the_robustness_bound(fx1, designs1):
    # both feedback_certificate exits (stable and destabilizing k) inherit it
    for design in designs1:
        bound = co.robustness_bound(design)
        assert co.certify_stability(fx1.system, design).robustness_eps_max == bound
        for k in ([[1.0, 2.0]], [[-10.0, 0.0]]):
            cert = co.feedback_certificate(fx1.system, design, k)
            assert cert.robustness_eps_max == bound


def test_feedback_certificate_decoupled_case_passes_at_beta_one():
    # b = 0 and k = 0 leave plant and observer decoupled; the composite
    # form is block diagonal and already negative definite unscaled
    sys = co.LinearSystem(a=np.diag([-1.0, -2.0]), b=np.zeros((2, 1)), c=[[1.0, 0.5]])
    design = co.synthesize_cubic_gain(sys, np.zeros((2, 1)), np.eye(2), [[1.0]], 1.0)
    cert = co.feedback_certificate(sys, design, np.zeros((1, 2)))
    assert cert.feedback_ok
    assert cert.feedback_beta == 1.0
    assert cert.feedback_unscaled_ok
    assert cert.all_ok


def test_feedback_certificate_destabilizing_gain_fails(fx1, designs1):
    _, cubic = designs1
    cert = co.feedback_certificate(fx1.system, cubic, [[-10.0, 0.0]])
    assert cert.feedback_ok is False
    assert cert.feedback_beta is None
    assert cert.feedback_unscaled_ok is False
    assert cert.stability_ok  # the observer alone is still fine
    assert not cert.all_ok
    assert cert.margins["feedback_spectral_abscissa"] >= 0.0


def test_feedback_certificate_rejects_wrong_k_shape(fx1, designs1):
    _, cubic = designs1
    with pytest.raises(co.DimensionError):
        co.feedback_certificate(fx1.system, cubic, [[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# error field and the equilibrium falsifier


def test_error_field_vanishes_at_origin(fx1, designs1):
    _, cubic = designs1
    rhs = co.error_field(fx1.system, cubic)
    assert np.array_equal(rhs(np.zeros(2)), np.zeros(2))


def test_error_field_degenerate_is_linear(fx1, designs1):
    linear, _ = designs1
    rhs = co.error_field(fx1.system, linear)
    f = fx1.system.a - linear.gain_lc @ fx1.system.c
    e = np.array([0.3, -1.2])
    assert np.allclose(rhs(e), f @ e, rtol=1e-14)


def test_equilibrium_search_empty_for_certified_design(fx1, designs1):
    _, cubic = designs1
    roots = co.search_nonzero_equilibria(fx1.system, cubic, n_starts=40, seed=0)
    assert roots == []


def test_equilibrium_search_finds_roots_of_flipped_design(fx1, designs1):
    _, cubic = designs1
    flipped = co.explicit_cubic_design(
        fx1.system,
        fx1.gain_lc,
        -cubic.gain_nc,
        cubic.theta,
        q=fx1.q,
        gamma=cubic.gamma,
    )
    roots = co.search_nonzero_equilibria(fx1.system, flipped, n_starts=40, seed=0)
    assert roots
    rhs = co.error_field(fx1.system, flipped)
    for root in roots:
        assert np.linalg.norm(root) > 1e-6
        assert np.linalg.norm(rhs(root)) < 1e-6
    # deterministic: the same seed reproduces the same root list
    again = co.search_nonzero_equilibria(fx1.system, flipped, n_starts=40, seed=0)
    assert len(again) == len(roots)
    for a, b in zip(roots, again):
        assert np.array_equal(a, b)


def test_certify_with_equilibrium_search_records_margin(fx1, designs1):
    _, cubic = designs1
    cert = co.certify_stability(
        fx1.system, cubic, equilibrium_search=True, n_starts=20, seed=0
    )
    assert cert.margins["nonzero_equilibria_found"] == 0.0
