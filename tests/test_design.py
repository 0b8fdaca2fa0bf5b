"""Unit tests for gain synthesis and the stability certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicobs as co
from cubicobs import design as design_mod
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


def flipped_design(system, design):
    """The design with its cubic gain negated, which pumps the error outward."""
    return co.explicit_cubic_design(
        system,
        design.gain_lc,
        -design.gain_nc,
        design.theta,
        q=design.lyapunov_q,
        gamma=design.gamma,
    )


def sequential_search(sys, design, n_starts=100, seed=0, tol=1e-10):
    """The one-start-at-a-time damped-Newton search, kept as the reference.

    Same starts, limits and deduplication as search_nonzero_equilibria, with
    each start run alone through BLAS matrix-vector products.
    """
    dyn = design_mod.ErrorDynamics(sys, design)
    f, s = dyn.f, dyn.s
    nc = design.gain_nc
    c = sys.c

    def rhs(e):
        return f @ e + float(e @ s @ e) * (nc @ (c @ e))

    def jac(e):
        ce = c @ e
        return f + np.outer(nc @ ce, 2.0 * (s @ e)) + float(e @ s @ e) * (nc @ c)

    rng = np.random.default_rng(seed)
    found = []
    scale = max(1.0, numlin.max_abs(f))
    for _ in range(n_starts):
        radius = 10.0 ** rng.uniform(-1.0, 1.0)
        e = radius * rng.standard_normal(sys.n)
        value = rhs(e)
        for _ in range(60):
            norm = float(np.linalg.norm(value))
            if norm < tol * scale:
                break
            try:
                step = np.linalg.solve(jac(e), -value)
            except np.linalg.LinAlgError:
                break
            alpha = 1.0
            for _ in range(40):
                trial = e + alpha * step
                trial_value = rhs(trial)
                if float(np.linalg.norm(trial_value)) < norm:
                    e, value = trial, trial_value
                    break
                alpha *= 0.5
            else:
                break
        if float(np.linalg.norm(value)) < tol * scale and float(
            np.linalg.norm(e)
        ) > 1e-6:
            if not any(np.linalg.norm(e - r) < 1e-6 for r in found):
                found.append(e.copy())
    return found


def scaling_design(seed, n):
    """A certified cubic design built like the benchmark's design_scaling
    configs: unit-norm skew a, two outputs (one when n = 2), lc = c^T / n,
    q = I, theta = I, gamma in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    while True:
        g = rng.standard_normal((n, n))
        a = (g - g.T) / np.linalg.norm(g - g.T, 2)
        c = rng.standard_normal((min(2, n - 1), n))
        gamma = float(rng.uniform(0.5, 2.0))
        try:
            system = co.LinearSystem(a=a, b=np.zeros((n, 1)), c=c)
            design = co.synthesize_cubic_gain(
                system, c.T / n, np.eye(n), np.eye(c.shape[0]), gamma
            )
        except co.ObserverToolkitError:
            continue
        return system, design


def assert_same_roots(roots, ref):
    """Equal counts, and every root within 1e-9 relative of a reference root.

    Not in order: a damped-Newton path that wanders near a singular Jacobian
    amplifies last-bit differences, so now and then one start reaches
    another root of the same set than it does in the reference.
    """
    assert len(roots) == len(ref)
    for root in roots:
        assert min(np.linalg.norm(root - want) / np.linalg.norm(want) for want in ref) <= 1e-9


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 6),
    flipped=st.booleans(),
    k=st.integers(1, 99),
)
def test_batched_search_matches_the_sequential_reference(seed, n, flipped, k):
    system, design = scaling_design(seed, n)
    if flipped:
        design = flipped_design(system, design)
    roots = co.search_nonzero_equilibria(system, design, seed=seed)
    assert_same_roots(roots, sequential_search(system, design, seed=seed))
    # a start's root does not depend on how many other starts share its batch
    fewer = co.search_nonzero_equilibria(system, design, n_starts=k, seed=seed)
    assert len(fewer) <= len(roots)
    for root, want in zip(fewer, roots):
        assert np.array_equal(root, want)
    again = co.search_nonzero_equilibria(system, design, seed=seed)
    assert len(again) == len(roots)
    assert all(np.array_equal(a, b) for a, b in zip(again, roots))


def test_batched_search_matches_the_reference_on_the_flipped_example(fx1, designs1):
    flipped = flipped_design(fx1.system, designs1[1])
    for seed in range(5):
        roots = co.search_nonzero_equilibria(fx1.system, flipped, seed=seed)
        assert len(roots) == 2
        assert_same_roots(roots, sequential_search(fx1.system, flipped, seed=seed))


def full_jacobian(sys, design, e):
    """J(e) = f + nc c e (2 s e)^T + (e^T s e) nc c at one point, built densely."""
    dyn = design_mod.ErrorDynamics(sys, design)
    f, s = dyn.f, dyn.s
    nc, c = design.gain_nc, sys.c
    return f + np.outer(nc @ (c @ e), 2.0 * (s @ e)) + float(e @ s @ e) * (nc @ c)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    flipped=st.booleans(),
    row_seed=st.integers(0, 2**16),
)
def test_low_rank_newton_step_matches_the_full_jacobian_solve(seed, n, flipped, row_seed):
    # where cond(J) <= 1e6 the Woodbury step agrees with the LU solve of the
    # dense Jacobian to 1e-8 relative (worst seen on 24000 rows: 1.3e-10)
    system, design = scaling_design(seed, n)
    if flipped:
        design = flipped_design(system, design)
    dyn = design_mod.ErrorDynamics(system, design)
    f, s = dyn.f, dyn.s
    nc, c = design.gain_nc, system.c
    rng = np.random.default_rng(row_seed)
    e = 10.0 ** rng.uniform(-1.0, 1.0, (8, 1)) * rng.standard_normal((8, n))
    value = design_mod._error_rows(f, s, nc, c, e)
    step, ok = design_mod._low_rank_newton(f, s, nc, c)(e, value)
    assert step.shape == e.shape
    for row, v, got, good in zip(e, value, step, ok):
        jac = full_jacobian(system, design, row)
        if np.linalg.cond(jac) > 1e6:
            continue
        assert good
        want = np.linalg.solve(jac, -v)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_low_rank_newton_step_flags_a_singular_jacobian():
    # scalar field -3 e + e^3: J(e) = -3 + 3 e^2 is singular at e = 1, where
    # I_p + m g = 1 + 3 e^2 (-1/3) rounds to exactly 0 as well
    f, s, nc, c = -3.0 * np.eye(1), np.eye(1), np.eye(1), np.eye(1)
    e = np.array([[1.0], [2.0]])
    value = design_mod._error_rows(f, s, nc, c, e)
    step, ok = design_mod._low_rank_newton(f, s, nc, c)(e, value)
    assert ok.tolist() == [False, True]
    # at e = 2: value 2, J = 9
    assert step[1, 0] == pytest.approx(-2.0 / 9.0, rel=1e-15)


def test_low_rank_newton_refuses_a_singular_linear_part():
    with pytest.raises(co.NumericalError):
        design_mod._low_rank_newton(np.zeros((2, 2)), np.eye(2), np.ones((2, 1)), np.ones((1, 2)))


def full_jacobian_steps(jacobian):
    """The Newton-step callable _damped_newton takes, from a builder of
    (S, n, n) Jacobians, by the stacked full solve."""
    return lambda e, value: design_mod._newton_steps(jacobian(e), value)


def test_damped_newton_stops_only_the_row_with_a_singular_jacobian():
    # e_i^2 = 1 per entry; the Jacobian diag(2 e) is singular at e_0 = 0
    def rhs(e):
        return e * e - 1.0

    def jacobian(e):
        return 2.0 * e[:, :, None] * np.eye(e.shape[1])

    step = full_jacobian_steps(jacobian)
    starts = np.array([[2.0, 3.0], [0.0, 0.5], [-0.5, 0.7]])
    e, value = design_mod._damped_newton(rhs, step, starts, 1e-12)
    assert np.array_equal(e[1], starts[1])
    assert np.array_equal(value[1], rhs(starts[1]))
    assert np.allclose(e[[0, 2]], [[1.0, 1.0], [-1.0, 1.0]], rtol=0, atol=1e-12)
    alone, _ = design_mod._damped_newton(rhs, step, starts[[0, 2]], 1e-12)
    assert np.array_equal(e[[0, 2]], alone)


def test_damped_newton_step_and_halving_limits():
    # residual e - 1 with a Jacobian scaled down by 2**k: the Newton step
    # overshoots by 2**k, so only the k-th halving (alpha = 2**-k) reduces
    # the residual, landing exactly on the root; 40 trials reach k = 39
    def rhs(e):
        return e - 1.0

    for k, reached in ((39, True), (40, False)):
        def jacobian(e):
            return np.full((len(e), 1, 1), 2.0 ** -k)

        step = full_jacobian_steps(jacobian)
        e, _ = design_mod._damped_newton(rhs, step, np.array([[0.0]]), 1e-12)
        assert e[0, 0] == (1.0 if reached else 0.0)

    # residual e with the Jacobian 2 I: each accepted step halves e, and a
    # zero threshold is never met, so e ends after exactly 60 steps
    def halving_jacobian(e):
        return np.full((len(e), 1, 1), 2.0)

    step = full_jacobian_steps(halving_jacobian)
    e, _ = design_mod._damped_newton(lambda e: e, step, np.array([[3.0]]), 0.0)
    assert e[0, 0] == 3.0 * 2.0 ** -60


def test_error_field_rows_match_single_points(fx1, designs1):
    rhs = co.error_field(fx1.system, designs1[1])
    points = np.array([[0.3, -1.2], [2.0, 0.5], [-4.0, 1.0]])
    stacked = rhs(points)
    assert stacked.shape == points.shape
    for point, row in zip(points, stacked):
        assert np.array_equal(rhs(point), row)


@pytest.mark.parametrize("n_starts", [0, -3, 2.7, 20.0, True, "20", None])
def test_n_starts_must_be_a_positive_integer(fx1, designs1, n_starts):
    _, cubic = designs1
    with pytest.raises(co.ContractError, match="n_starts"):
        co.search_nonzero_equilibria(fx1.system, cubic, n_starts=n_starts)
    with pytest.raises(co.ContractError, match="n_starts"):
        co.certify_stability(
            fx1.system, cubic, equilibrium_search=True, n_starts=n_starts
        )
    with pytest.raises(co.ContractError, match="n_starts"):
        co.feedback_certificate(
            fx1.system, cubic, [[1.0, 2.0]], equilibrium_search=True, n_starts=n_starts
        )


@pytest.mark.parametrize("seed", [-1, 1.5, 3.0, True, None, "0"])
def test_seed_must_be_a_nonnegative_integer(fx1, designs1, seed):
    _, cubic = designs1
    with pytest.raises(co.ContractError, match="seed"):
        co.search_nonzero_equilibria(fx1.system, cubic, seed=seed)
    with pytest.raises(co.ContractError, match="seed"):
        co.certify_stability(fx1.system, cubic, equilibrium_search=True, seed=seed)
    with pytest.raises(co.ContractError, match="seed"):
        co.feedback_certificate(
            fx1.system, cubic, [[1.0, 2.0]], equilibrium_search=True, seed=seed
        )


def test_feedback_certificate_passes_n_starts_to_the_search(fx1, designs1):
    # from seed 0 the first start alone finds one of the flipped design's two roots
    flipped = flipped_design(fx1.system, designs1[1])
    k = [[1.0, 2.0]]
    for n_starts, want in ((1, 1.0), (100, 2.0)):
        cert = co.feedback_certificate(
            fx1.system, flipped, k, equilibrium_search=True, n_starts=n_starts, seed=0
        )
        assert cert.margins["nonzero_equilibria_found"] == want


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), True, "1e-10", None])
def test_tol_must_be_a_finite_positive_real(fx1, designs1, tol):
    # a meaningless tol once made the flipped design's two roots disappear
    # (nan, -1, 0) or turned every start into a "root" (inf)
    flipped = flipped_design(fx1.system, designs1[1])
    with pytest.raises(co.ContractError, match="tol"):
        co.search_nonzero_equilibria(fx1.system, flipped, tol=tol)


# ---------------------------------------------------------------------------
# the closed-form exclusion radius


def exclusion_radius(system, design):
    return design_mod._exclusion_radius(design_mod.ErrorDynamics(system, design))


def random_design(kind, seed, n, n_y, gamma):
    """A synthesized, explicit or flipped design on a stable plant built
    like scaling_design's, with n_y outputs and the given gamma."""
    rng = np.random.default_rng(seed)
    while True:
        g = rng.standard_normal((n, n))
        a = (g - g.T) / np.linalg.norm(g - g.T, 2) - 0.1 * np.eye(n)
        c = rng.standard_normal((n_y, n))
        try:
            system = co.LinearSystem(a=a, b=np.zeros((n, 1)), c=c)
            if kind == "explicit":
                root = rng.standard_normal((n_y, n_y))
                nc = rng.standard_normal((n, n_y))
                return system, co.explicit_cubic_design(
                    system, c.T / n, nc, root @ root.T, gamma=gamma
                )
            design = co.synthesize_cubic_gain(system, c.T / n, np.eye(n), np.eye(n_y), gamma)
        except co.ObserverToolkitError:
            continue
        if kind == "flipped":
            design = flipped_design(system, design)
        return system, design


def lyapunov_rate(system, design, e):
    """e^T p g(e) along the error dynamics, evaluated in np.longdouble."""
    ld = np.longdouble
    a, lc, c = (np.asarray(m, dtype=ld) for m in (system.a, design.gain_lc, system.c))
    nc, theta, p = (
        np.asarray(m, dtype=ld) for m in (design.gain_nc, design.theta, design.lyapunov_p)
    )
    e = np.asarray(e, dtype=ld)
    ce = c @ e
    g = (a - lc @ c) @ e + (ce @ theta @ ce) * (nc @ ce)
    return e @ p @ g


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["synthesized", "explicit", "flipped"]),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    n_y=st.integers(1, 2),
    gamma=st.floats(0.05, 20.0),
)
def test_no_equilibrium_lies_inside_the_exclusion_radius(kind, seed, n, n_y, gamma):
    system, design = random_design(kind, seed, n, n_y, gamma)
    radius = exclusion_radius(system, design)
    assert radius > 0.0
    for root in co.search_nonzero_equilibria(system, design, seed=seed):
        assert np.linalg.norm(root) >= radius
    if not np.isfinite(radius):
        return
    # the Lyapunov derivative is negative everywhere inside, so g(e) != 0:
    # random directions and the extreme eigenvectors of S and W, at radii
    # spread logarithmically from 1e-6 and crowding towards R
    dyn = design_mod.ErrorDynamics(system, design)
    s, w = dyn.s, dyn.w
    directions = [np.linalg.eigh(0.5 * (m + m.T))[1].T[[0, -1]] for m in (s, w)]
    rng = np.random.default_rng(seed)
    directions.append(rng.standard_normal((16, n)))
    directions = np.concatenate(directions)
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    fractions = np.concatenate([rng.uniform(0.5, 1.0, 8), [1.0 - 1e-9]])
    radii = np.concatenate([np.geomspace(1e-6, radius, 12, endpoint=False), radius * fractions])
    for r in radii[radii >= 1e-6]:
        for direction in directions:
            assert lyapunov_rate(system, design, r * direction) < 0.0


@pytest.fixture
def search_calls(monkeypatch):
    """The designs certify_stability hands to the equilibrium search."""
    calls = []
    search = design_mod.search_nonzero_equilibria

    def counting(sys, design, **kwargs):
        calls.append(design)
        return search(sys, design, **kwargs)

    monkeypatch.setattr(design_mod, "search_nonzero_equilibria", counting)
    return calls


def test_certified_designs_skip_the_search(fx1, fx2, designs1, designs2, search_calls):
    system32, design32 = scaling_design(0, 32)
    for system, design in (
        (fx1.system, designs1[0]),
        (fx1.system, designs1[1]),
        (fx2.system, designs2[1]),
        (system32, design32),
    ):
        cert = co.certify_stability(system, design, equilibrium_search=True)
        assert cert.margins["nonzero_equilibria_found"] == 0.0
        assert cert.margins["equilibrium_exclusion_radius"] == design_mod.STATE_NORM_LIMIT
    assert designs1[0].is_degenerate
    assert system32.n_outputs == 2
    assert search_calls == []


def test_explicit_and_flipped_designs_are_still_searched(
    fx1, fx2, fx3, designs1, designs2, search_calls
):
    cubic3 = co.build_designs(fx3)[1]
    assert not cubic3.synthesized
    cert = co.certify_stability(fx3.system, cubic3, equilibrium_search=True)
    assert cert.margins["nonzero_equilibria_found"] == 0.0
    assert 0.05 < cert.margins["equilibrium_exclusion_radius"] < 0.06
    assert search_calls == [cubic3]

    search_calls.clear()
    flipped2 = flipped_design(fx2.system, designs2[1])
    cert = co.certify_stability(fx2.system, flipped2, equilibrium_search=True)
    assert cert.margins["equilibrium_exclusion_radius"] < 2.0
    assert search_calls == [flipped2]

    flipped = flipped_design(fx1.system, designs1[1])
    for n_starts, want in ((100, 2.0), (1, 1.0)):
        search_calls.clear()
        cert = co.certify_stability(
            fx1.system, flipped, equilibrium_search=True, n_starts=n_starts
        )
        assert cert.margins["nonzero_equilibria_found"] == want
        assert search_calls == [flipped]
    search_calls.clear()
    cert = co.feedback_certificate(fx1.system, flipped, [[1.0, 2.0]], equilibrium_search=True)
    assert cert.margins["nonzero_equilibria_found"] == 2.0
    assert search_calls == [flipped]
    # the two roots lie at |e| = 0.549, outside the radius of 0.158
    assert 0.15 < cert.margins["equilibrium_exclusion_radius"] < 0.16


def test_exclusion_radius_margin_only_with_the_search(fx1, designs1):
    cert = co.certify_stability(fx1.system, designs1[1])
    assert "equilibrium_exclusion_radius" not in cert.margins
    assert "nonzero_equilibria_found" not in cert.margins


def test_exclusion_radius_edge_cases(fx1, designs1):
    linear, cubic = designs1
    assert exclusion_radius(fx1.system, linear) == np.inf
    # no proof without a decaying quadratic part: p = I does not certify f
    unproved = design_mod.replace(cubic, lyapunov_p=np.eye(2))
    assert exclusion_radius(fx1.system, unproved) == 0.0


# ---------------------------------------------------------------------------
# one spectrum per matrix


def near_boundary_form(rng, n, kind):
    """A symmetric matrix that is indefinite ("random"), semidefinite and
    singular at rounding level ("low-rank"), or whose smallest eigenvalue
    lies within a few definiteness tolerances of 0 on either side."""
    g = rng.standard_normal((n, n))
    h = 0.5 * (g + g.T)
    if kind == "low-rank":
        u = rng.standard_normal((n, max(1, n // 3)))
        return u @ u.T
    if kind == "boundary":
        spectrum = np.linalg.eigvalsh(h)
        scale = np.abs(spectrum).max()
        offset = rng.choice([-3.0, -0.5, 0.5, 3.0]) * numlin.DEFINITENESS_TOL * scale
        h -= (spectrum[0] - offset) * np.eye(n)
    return h


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 39),
    exponent=st.floats(-6.0, 6.0),
    kind=st.sampled_from(["random", "low-rank", "boundary"]),
)
def test_verdicts_from_the_kept_spectrum_equal_the_numlin_tests(seed, n, exponent, kind):
    rng = np.random.default_rng(seed)
    h = 10.0**exponent * near_boundary_form(rng, n, kind)
    skew = rng.standard_normal((n, n))
    skew = 10.0**exponent * (skew - skew.T)
    # m, whose quadratic form is negative definite about when h is positive
    m = skew - h
    spectrum = design_mod._sym_spectrum(m)
    # the spectrum is_negative_definite_quadform takes, -(m + m^T), is this
    # one scaled by -2, up to the eigensolver's rounding
    scaled = -2.0 * spectrum[::-1]
    gap = np.abs(np.linalg.eigvalsh(-(m + m.T)) - scaled).max()
    assert gap <= n * np.finfo(float).eps * np.abs(scaled).max()
    assert design_mod._negative_quadform(spectrum) == numlin.is_negative_definite_quadform(m)
    # d, symmetric up to rounding as p nc c + c^T nc^T p is, with -d near h
    d = -h + 1e-13 * np.abs(h).max() * rng.standard_normal((n, n))
    minus_d = -design_mod._sym_spectrum(d)[::-1]
    assert numlin.is_positive_spectrum(minus_d) == numlin.is_positive_definite(-d)
    assert numlin.is_positive_spectrum(minus_d, semidefinite=True) == (
        numlin.is_positive_semidefinite(-d)
    )
    # the uniqueness test's m: h plus a skew part
    spectrum = design_mod._sym_spectrum(h + skew)
    assert numlin.is_positive_spectrum(spectrum, semidefinite=True) == (
        numlin.is_positive_semidefinite(0.5 * ((h + skew) + (h + skew).T))
    )


def feedback_scaling_design(seed=0, n=32):
    """scaling_design's plant and design with two inputs and a feedback gain
    k = b^T / n, so that a - b k is Hurwitz, as the benchmark draws them."""
    system, design = scaling_design(seed, n)
    b = np.random.default_rng(seed).standard_normal((n, 2))
    return co.LinearSystem(a=system.a, b=b, c=system.c), design, b.T / n


@pytest.fixture
def eigen_calls(monkeypatch):
    """Copies of every matrix handed to np.linalg.eigvalsh and eigvals."""
    calls = {"eigvalsh": [], "eigvals": []}
    for name, seen in calls.items():
        original = getattr(np.linalg, name)

        def recording(m, *args, _original=original, _seen=seen, **kwargs):
            _seen.append(np.array(m))
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def times_decomposed(seen, want):
    return sum(m.shape == want.shape and np.array_equal(m, want) for m in seen)


def test_each_certificate_spectrum_is_computed_once(eigen_calls):
    system, design, k = feedback_scaling_design()
    assert (system.n, system.n_outputs) == (32, 2)
    sym = lambda m: 0.5 * (m + m.T)  # noqa: E731
    dyn = design_mod.ErrorDynamics(system, design)
    m = dyn.s @ np.linalg.solve(dyn.f, design.gain_nc @ system.c)
    acl = system.a - system.b @ k
    p1 = numlin.solve_lyapunov(acl, np.eye(32))
    top_left, off = acl.T @ p1 + p1 @ acl, p1 @ system.b @ k
    zeros = np.zeros((32, 32))
    aa = np.block([[acl, system.b @ k], [zeros, dyn.f]])
    pa = np.block([[p1, zeros], [zeros, design.lyapunov_p]])
    observer_forms = [sym(dyn.w), sym(dyn.d), sym(m)]
    for calls in eigen_calls.values():
        calls.clear()

    cert = co.certify_stability(system, design)
    assert cert.stability_ok
    for form in observer_forms:
        assert times_decomposed(eigen_calls["eigvalsh"], form) == 1
    assert times_decomposed(eigen_calls["eigvals"], dyn.f) == 1
    # the fourth is c^T theta c, whose rank picks the damping mode
    assert len(eigen_calls["eigvalsh"]) == 4
    assert len(eigen_calls["eigvals"]) == 1

    for calls in eigen_calls.values():
        calls.clear()
    cert = co.feedback_certificate(system, design, k)
    assert cert.feedback_ok
    betas = design_mod.FEEDBACK_BETA_GRID
    tried = betas[: betas.index(cert.feedback_beta) + 1]
    psis = [np.block([[top_left, off], [off.T, beta * dyn.w]]) for beta in tried]
    loop_forms = [sym(psi) for psi in psis] + [sym(aa.T @ pa + pa @ aa)]
    for form in observer_forms + loop_forms:
        assert times_decomposed(eigen_calls["eigvalsh"], form) == 1
    assert times_decomposed(eigen_calls["eigvals"], dyn.f) == 1
    assert sum(m.shape == (64, 64) for m in eigen_calls["eigvalsh"]) == len(loop_forms)
