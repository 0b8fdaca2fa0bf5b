"""Unit tests for gain synthesis and the stability certificates."""

import inspect
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cubicobs as co
from cubicobs import cli, examples, numlin
from cubicobs import design as design_mod
from conftest import random_observable_system, redraw_until_accepted, separated_stable_poles


EXAMPLE_CONFIG = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "example_config.json").read_text()
)


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


ONE_ULP_APART = (-0.3333333333333333, -0.33333333333333337)


@pytest.mark.parametrize("upper, lower", [ONE_ULP_APART, ONE_ULP_APART[::-1]])
def test_placement_pairs_a_conjugate_pair_one_ulp_apart_in_either_order(upper, lower):
    # the pair's real parts differ in the last bit, so pairing by sort order
    # matches each pole with the wrong conjugate, or, when the real part of
    # +1.2j is the smaller, the achieved -1.2j with the desired +1.2j
    pair = [complex(upper, 1.2), complex(lower, -1.2)]
    sys = co.LinearSystem(
        a=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -3.0]],
        b=[[0.0], [0.0], [1.0]],
        c=[[1.0, 0.0, 0.0]],
    )
    l = co.place_poles_single_output(sys, pair + [-3.0])
    # (s + 3)(s^2 + 2/3 s + 1/9 + 1.44), compared in coefficient space
    assert np.allclose(np.poly(sys.a - l @ sys.c), np.poly(pair + [-3.0]).real)


def test_placement_refuses_a_pole_set_that_is_not_closed_under_conjugation():
    sys = co.LinearSystem(a=np.diag([-1.0, -2.0, -3.0]), b=np.zeros((3, 1)), c=[[1.0, 1.0, 1.0]])
    with pytest.raises(co.ContractError, match=r"conjugation \(unmatched pole -1\+2j\)$"):
        co.place_poles_single_output(sys, [complex(-1, 2), complex(-1, 3), -3.0])


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
    # a bool, a string or a non-finite number is no gamma, for either builder
    for gamma in (True, "2", np.nan, np.inf):
        message = f"^gamma must be a finite real number, got {gamma!r}$"
        with pytest.raises(co.ContractError, match=message):
            co.synthesize_cubic_gain(fx1.system, fx1.gain_lc, fx1.q, fx1.theta, gamma)
        with pytest.raises(co.ContractError, match=message):
            co.explicit_cubic_design(fx1.system, fx1.gain_lc, [[1.0], [2.0]], [[1.0]], gamma=gamma)


def test_synthesize_rejects_indefinite_theta(fx1):
    with pytest.raises(co.ContractError):
        co.synthesize_cubic_gain(fx1.system, fx1.gain_lc, fx1.q, [[-1.0]], 1.0)


def test_synthesize_rejects_non_hurwitz_gain():
    sys = double_integrator()
    with pytest.raises(co.DesignError, match="hurwitz"):
        co.synthesize_cubic_gain(sys, [[0.0], [0.0]], np.eye(2), [[1.0]], 1.0)


def test_constructors_report_the_first_fault_in_their_order():
    # synthesize checks gain_lc, gamma > 0, theta, then p; explicit checks
    # gain_lc, gain_nc, theta, then p. Each call holds the named fault and
    # every later one: a wrong shape, gamma = 0, an asymmetric theta, and a
    # zero gain_lc, which leaves a - gain_lc c non-Hurwitz.
    one = double_integrator()
    two = co.LinearSystem(a=one.a, b=one.b, c=np.eye(2))
    q, asym, zero = np.eye(2), [[1.0, 0.0], [2.0, 1.0]], np.zeros((2, 2))
    synthesize, explicit = co.synthesize_cubic_gain, co.explicit_cubic_design
    cases = [
        (co.DimensionError, "gain_lc", synthesize, (two, [[1.0]], q, asym, 0.0)),
        (co.ContractError, "gamma", synthesize, (two, zero, q, asym, 0.0)),
        (co.ContractError, "theta", synthesize, (two, zero, q, asym, 1.0)),
        (co.DesignError, "hurwitz", synthesize, (two, zero, q, np.eye(2), 1.0)),
        (co.DimensionError, "gain_lc", explicit, (two, [[1.0]], [[1.0]], asym)),
        (co.DimensionError, "gain_nc", explicit, (two, zero, [[1.0]], asym)),
        (co.ContractError, "theta", explicit, (two, zero, zero, asym)),
        (co.DesignError, "hurwitz", explicit, (two, zero, zero, np.eye(2))),
        (co.DimensionError, "gain_lc", co.degenerate_linear, (two, [[1.0]], q)),
        (co.DesignError, "hurwitz", co.degenerate_linear, (two, zero, q)),
    ]
    for error, words, build, args in cases:
        with pytest.raises(error, match=words):
            build(*args)


def test_degenerate_linear_is_the_zero_gamma_design(fx1):
    design = co.degenerate_linear(fx1.system, fx1.gain_lc, fx1.q)
    assert design.is_degenerate
    assert design.gamma == 0.0
    assert numlin.max_abs(design.gain_nc) == 0.0
    assert numlin.max_abs(design.theta) == 0.0
    assert design.synthesized


def test_explicit_design_validation(fx1):
    sys = fx1.system
    with pytest.raises(co.DimensionError, match=r"^gain_nc must have shape \(2, 1\), got \(3, 1\)$"):
        co.explicit_cubic_design(sys, fx1.gain_lc, [[1.0], [2.0], [3.0]], [[1.0]])
    with pytest.raises(co.DimensionError, match=r"^gain_nc must have shape \(2, 1\), got \(1, 2\)$"):
        co.CubicObserverDesign(fx1.gain_lc, [[1.0, 2.0]], [[1.0]], 1.0, np.eye(2), np.eye(2))
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
    # replace runs the same checks on the new parts
    design = co.explicit_cubic_design(sys, fx1.gain_lc, [[1.0], [2.0]], [[1.0]])
    for change, message in [
        ({"gamma": -1.0}, "^gamma must be a nonnegative real, got -1.0$"),
        ({"gamma": "2"}, "^gamma must be a finite real number, got '2'$"),
        ({"gamma": True}, "^gamma must be a finite real number, got True$"),
        ({"gamma": np.inf}, "^gamma must be a finite real number, got inf$"),
        ({"lyapunov_p": -np.eye(2)}, "^lyapunov_p must be positive definite$"),
        ({"lyapunov_q": -np.eye(2)}, "^lyapunov_q must be positive definite$"),
    ]:
        with pytest.raises(co.ContractError, match=message):
            design_mod.replace(design, **change)


@pytest.mark.parametrize("name", ["lyapunov_p", "lyapunov_q"])
def test_a_subnormal_lyapunov_pair_is_refused_by_the_design(fx1, name):
    # definite by the scale-free verdict, but without the digits for a
    # margin: P = 1e-310 I would certify robustness to any eps
    cubic = co.build_designs(fx1)[1]
    with pytest.raises(
        co.ContractError,
        match=rf"^{name} must be positive definite: its smallest eigenvalue "
        r"1\.000e-310 is subnormal$",
    ):
        design_mod.replace(cubic, **{name: 1e-310 * np.eye(2)})
    # the least normal float is still a spectrum
    design_mod.replace(cubic, **{name: np.finfo(float).tiny * np.eye(2)})


def test_design_parts_of_the_wrong_shape_are_refused_in_numlins_words(fx1):
    with pytest.raises(co.DimensionError, match=r"^theta must have shape \(1, 1\), got \(2, 2\)$"):
        co.synthesize_cubic_gain(fx1.system, fx1.gain_lc, fx1.q, theta=np.eye(2))
    parts = dict(
        gain_lc=fx1.gain_lc, gain_nc=np.zeros((2, 1)), theta=[[1.0]], gamma=1.0,
        lyapunov_p=np.eye(2), lyapunov_q=np.eye(2),
    )
    for name, value, message in [
        ("theta", np.eye(2), r"^theta must have shape \(1, 1\), got \(2, 2\)$"),
        ("lyapunov_p", np.eye(3), r"^lyapunov_p must have shape \(2, 2\), got \(3, 3\)$"),
        ("lyapunov_q", [[1.0]], r"^lyapunov_q must have shape \(2, 2\), got \(1, 1\)$"),
    ]:
        with pytest.raises(co.DimensionError, match=message):
            co.CubicObserverDesign(**{**parts, name: value})
    rhs = co.error_field(fx1.system, co.CubicObserverDesign(**parts))
    with pytest.raises(co.DimensionError, match=r"^e must have 2 entries, got 3$"):
        rhs([1.0, 2.0, 3.0])


# Every public call that reads a design on a plant, given example 1's design
# (n = 2) on example 2's plant (n = 3), each with its other arguments shaped
# for the plant: one DimensionError from the one pairing check.
PAIRING_CALLS = {
    "certify_stability": lambda sys, d: co.certify_stability(sys, d),
    "feedback_certificate": lambda sys, d: co.feedback_certificate(sys, d, np.ones((1, sys.n))),
    "error_field": lambda sys, d: co.error_field(sys, d),
    "lyapunov_derivative_at": lambda sys, d: co.lyapunov_derivative_at(sys, d, np.ones(sys.n)),
    "search_nonzero_equilibria": lambda sys, d: co.search_nonzero_equilibria(
        co.ErrorDynamics(sys, d)
    ),
    "simulate_cubic_observer": lambda sys, d: co.simulate_cubic_observer(
        sys, d, co.SimConfig(horizon=0.1)
    ),
    "simulate_closed_loop": lambda sys, d: co.simulate_closed_loop(
        sys, d, np.ones((1, sys.n)), co.SimConfig(horizon=0.1)
    ),
}


@pytest.mark.parametrize("call", sorted(PAIRING_CALLS))
def test_a_design_for_another_plant_is_refused_by_the_one_pairing_check(
    fx1, fx2, designs1, call
):
    with pytest.raises(co.DimensionError, match=r"^gain_lc must have shape \(3, 1\), got \(2, 1\)$"):
        PAIRING_CALLS[call](fx2.system, designs1[1])
    with pytest.raises(co.ContractError, match="^unsupported design type object$"):
        PAIRING_CALLS[call](fx1.system, object())


# Ragged or non-numeric arguments, each read through numlin.as_array: one
# ContractError naming the argument, never numpy's ValueError or TypeError.
RAGGED = [[1.0, 2.0], [3.0]]
UNREADABLE_CALLS = {
    "system-a": ("a", lambda fx, d: co.LinearSystem(RAGGED, [[0.0], [1.0]], [[1.0, 0.0]])),
    "system-c": ("c", lambda fx, d: co.LinearSystem(np.eye(2), [[0.0], [1.0]], RAGGED)),
    "gain-lc": ("gain_lc", lambda fx, d: co.synthesize_cubic_gain(fx.system, RAGGED, fx.q)),
    "gain-nc": ("gain_nc", lambda fx, d: co.explicit_cubic_design(
        fx.system, fx.gain_lc, [["x"], [1.0]], [[1.0]])),
    "theta": ("theta", lambda fx, d: co.synthesize_cubic_gain(
        fx.system, fx.gain_lc, fx.q, RAGGED)),
    "q": ("q", lambda fx, d: co.degenerate_linear(fx.system, fx.gain_lc, RAGGED)),
    "poles": ("desired poles", lambda fx, d: co.place_poles_single_output(fx.system, RAGGED)),
    "k": ("k", lambda fx, d: co.simulate_closed_loop(
        fx.system, d, RAGGED, co.SimConfig(horizon=0.1))),
    "e": ("e", lambda fx, d: co.lyapunov_derivative_at(fx.system, d, RAGGED)),
    "field-e": ("e", lambda fx, d: co.error_field(fx.system, d)(RAGGED)),
    "x0": ("x0", lambda fx, d: co.simulate_cubic_observer(
        fx.system, d, co.SimConfig(horizon=0.1, x0=RAGGED))),
    "amplitude": ("amplitude", lambda fx, d: co.SinusoidInput(RAGGED, 1.0)),
    "sampled-values": ("values", lambda fx, d: co.SampledInput([0.0, 1.0], RAGGED)),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_CALLS))
def test_unreadable_arguments_are_one_contract_error(fx1, designs1, case):
    name, call = UNREADABLE_CALLS[case]
    with pytest.raises(co.ContractError, match=f"^{name} is not a numeric array$"):
        call(fx1, designs1[1])


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


def test_a_rank_deficient_synthesized_damping_certifies_in_semidefinite_mode(fx1, designs1):
    # the damping matrix -2 gamma c^T theta c of example 1 has rank one, so
    # the strict verdict fails, and the design decides the semidefinite test
    _, cubic = designs1
    cert = co.certify_stability(fx1.system, cubic)
    assert cert.damping_strict is False
    assert cert.damping_mode == "semidefinite"
    assert cert.stability_ok


@pytest.mark.parametrize(
    "entry", [co.certify_stability, co.feedback_certificate, co.examples.certify]
)
def test_no_certificate_takes_a_damping_argument(entry):
    assert not any("damping" in name for name in inspect.signature(entry).parameters)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["synthesized", "explicit", "flipped", "zero-gain"]),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 6),
    n_y=st.integers(1, 3),
    gamma=st.floats(0.05, 20.0),
)
def test_the_design_decides_the_damping_mode(kind, seed, n, n_y, gamma):
    if kind == "zero-gain":
        system, design = random_design("explicit", seed, n, n_y, gamma)
        design = design_mod.replace(design, gain_nc=np.zeros_like(design.gain_nc))
    else:
        system, design = random_design(kind, seed, n, n_y, gamma)
    cert = co.certify_stability(system, design)
    strict = cert.damping_strict or not design.synthesized
    assert cert.damping_mode == ("strict" if strict else "semidefinite")
    d = design_mod.ErrorDynamics(system, design).d
    reference = np.linalg.eigvalsh(-0.5 * (d + d.T))
    assert cert.damping_strict == numlin.is_positive_spectrum(reference)
    assert cert.damping_ok == numlin.is_positive_spectrum(reference, semidefinite=not strict)
    # random_design's plants have b = 0, so k = 0 leaves the Hurwitz a - b k = a
    loop = co.feedback_certificate(system, design, np.zeros((1, n)))
    assert (loop.damping_mode, loop.damping_ok) == (cert.damping_mode, cert.damping_ok)


@pytest.mark.parametrize("digits, mode", [(5, "strict"), (5.5, "semidefinite"), (6, "semidefinite")])
def test_a_synthesized_design_takes_the_strict_test_when_it_passes_it(digits, mode):
    # c = diag(1, 10^-digits): the damping form -2 c^T c, of full rank, has
    # the eigenvalue ratio 10^(-2 digits), below DEFINITENESS_TOL = 1e-10
    # past 5 digits
    system = co.LinearSystem(
        a=[[0.0, 1.0], [-1.0, -0.5]], b=[[0.0], [1.0]], c=np.diag([1.0, 10.0**-digits])
    )
    design = co.synthesize_cubic_gain(system, [[1.0, 0.0], [0.0, 0.0]], np.eye(2), np.eye(2))
    cert = co.certify_stability(system, design)
    assert cert.damping_mode == mode
    assert cert.damping_strict == (mode == "strict")
    assert cert.all_ok


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


def largest_certified_eps(q, p):
    """The largest float eps at which q - 2 eps p passes the semidefinite
    verdict, by bisection over the floats from [0, lambda_max(q) /
    lambda_min(p)], whose upper end makes q - 2 eps p negative definite."""

    def passes(eps):
        return numlin.is_positive_spectrum(numlin.sym_spectrum(q - 2.0 * eps * p), True)

    lo, hi = 0.0, float(numlin.sym_spectrum(q)[-1] / numlin.sym_spectrum(p)[0])
    assert passes(lo) and not passes(hi)
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["synthesized", "explicit"]),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    n_y=st.integers(1, 2),
    q_decades=st.floats(0.0, 6.0),
)
def test_the_robustness_radius_is_certified_by_a_bisection(kind, seed, n, n_y, q_decades):
    # eps_hat = lambda_min(q) / (2 lambda_max(p)) lies below the exact
    # radius, the least eigenvalue of p^{-1} q over 2: q - 2 eps_hat p >= 0,
    # and every eps up to eps_hat passes, for q of any conditioning
    system, design = random_design(kind, seed, n, n_y, 1.0)
    u, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    q = u @ np.diag(np.logspace(0.0, q_decades, n)) @ u.T
    q = 0.5 * (q + q.T)
    if kind == "synthesized":
        design = co.synthesize_cubic_gain(system, design.gain_lc, q, design.theta, design.gamma)
    else:
        design = co.explicit_cubic_design(
            system, design.gain_lc, design.gain_nc, design.theta, q=q, gamma=design.gamma
        )
    q, p = design.lyapunov_q, design.lyapunov_p
    eps_hat = numlin.sym_spectrum(q)[0] / (2.0 * numlin.sym_spectrum(p)[-1])
    assert co.certify_stability(system, design).robustness_eps_max == eps_hat
    assert numlin.is_positive_spectrum(numlin.sym_spectrum(q - 2.0 * eps_hat * p), True)
    assert largest_certified_eps(q, p) >= eps_hat


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


def psi_forms(system, design, k, betas):
    """psi(beta) = [[t, off], [off^T, beta w]] of feedback_certificate at
    each beta of betas, built by its expressions."""
    acl = system.a - system.b @ k
    p1 = numlin.solve_lyapunov(acl, np.eye(system.n))
    off = p1 @ system.b @ k
    w = design_mod.ErrorDynamics(system, design).w
    return [np.block([[acl.T @ p1 + p1 @ acl, off], [off.T, beta * w]]) for beta in betas]


def test_feedback_certificate_fails_when_no_beta_of_the_grid_certifies(fx1, designs1):
    # a tiny q makes the observer block beta * w tiny, so the smallest
    # certifying beta, lambda_max((-w)^-1 off' off), lies past 1e8; the
    # margin is then psi(1e8)'s, the last power of the grid
    _, cubic = designs1
    sys, k = fx1.system, np.array([[1.0, 2.0]])
    design = co.synthesize_cubic_gain(
        sys, cubic.gain_lc, 1e-8 * np.eye(2), cubic.theta, cubic.gamma
    )
    cert = co.feedback_certificate(sys, design, k)
    assert cert.stability_ok
    assert cert.feedback_ok is False
    assert cert.feedback_beta is None
    assert not cert.all_ok
    (psi,) = psi_forms(sys, design, k, [design_mod.FEEDBACK_BETA_GRID[-1]])
    assert cert.margins["feedback_psi_max_eig"] == numlin.sym_spectrum(psi)[-1] > 0.0


def test_feedback_certificate_without_a_cholesky_factor_reports_psi_at_beta_one(fx1, designs1):
    # p = diag(1, 1e4) leaves w = f^T p + p f indefinite: -w has no Cholesky
    # factor, no beta certifies, and the margin is psi(1)'s
    _, cubic = designs1
    sys, k = fx1.system, np.array([[1.0, 2.0]])
    design = design_mod.replace(cubic, lyapunov_p=np.diag([1.0, 1e4]))
    assert not co.certify_stability(sys, design).hurwitz_ok
    cert = co.feedback_certificate(sys, design, k)
    assert cert.feedback_ok is False
    assert cert.feedback_beta is None
    assert cert.margins["feedback_psi_max_eig"] == 99992.00024750312
    (psi,) = psi_forms(sys, design, k, [1.0])
    assert cert.margins["feedback_psi_max_eig"] == numlin.sym_spectrum(psi)[-1]


def test_a_beta_min_past_the_float_range_takes_the_last_power(fx1, designs1):
    # q = 1e-305 I and a large k make y y^T overflow, which stands for
    # beta_min = inf: no beta passes, and the margin is psi(1e8)'s
    _, cubic = designs1
    sys, k = fx1.system, np.array([[1e8, 1e4]])
    design = co.synthesize_cubic_gain(
        sys, cubic.gain_lc, 1e-305 * np.eye(2), cubic.theta, cubic.gamma
    )
    cert = co.feedback_certificate(sys, design, k)
    got = (cert.feedback_ok, cert.feedback_beta, cert.margins["feedback_psi_max_eig"])
    assert got == grid_search_feedback(sys, design, k) == (False, None, 4999.500124999999)


def test_feedback_certificate_rejects_wrong_k_shape(fx1, designs1):
    _, cubic = designs1
    with pytest.raises(co.DimensionError, match=r"^k must have shape \(1, 2\), got \(1, 3\)$"):
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


@settings(max_examples=100)
@given(
    kind=st.sampled_from(["explicit", "flipped"]),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 32),
    n_y=st.integers(1, 4),
    exponent=st.floats(-5.0, 5.0),
)
def test_the_error_field_is_odd_bit_for_bit(kind, seed, n, n_y, exponent):
    # the search tests e alone and keeps -e with it; one-output plants of
    # random_design's fail the observability test from n of about 19
    assume(n_y > 1 or n <= 12)
    system, design = random_design(kind, seed, n, n_y, 1.0)
    rhs = co.error_field(system, design)
    e = 10.0**exponent * np.random.default_rng(seed).standard_normal(n)
    assert np.array_equal(rhs(-e), -rhs(e))
    assert np.array_equal(np.signbit(rhs(-e)), np.signbit(-rhs(e)))


def test_equilibrium_search_empty_for_certified_design(fx1, designs1):
    # M = -gamma c f^{-1} p^{-1} c^T theta for a synthesized gain, and the
    # Lyapunov equation makes f^{-1} p^{-1} negative definite in the
    # symmetric sense, so no eigenvalue of M is real and negative
    assert co.search_nonzero_equilibria(co.ErrorDynamics(fx1.system, designs1[1])) == []
    for n in (2, 4, 8, 16, 32):
        # no one-output plant of random_design's passes the observability test at n = 32
        for n_y in (1, 2, 4) if n < 32 else (2, 4):
            system, design = random_design("synthesized", 100 * n + n_y, n, n_y, 1.0)
            assert co.search_nonzero_equilibria(co.ErrorDynamics(system, design)) == []
        system, design = scaling_design(n, n)
        assert co.search_nonzero_equilibria(co.ErrorDynamics(system, design)) == []
        linear = co.degenerate_linear(system, design.gain_lc, design.lyapunov_q)
        assert co.search_nonzero_equilibria(co.ErrorDynamics(system, linear)) == []


def test_equilibrium_search_finds_roots_of_flipped_design():
    # each flipped example has one pair of roots, example 2's far from the
    # origin, at |e| = 8744
    for number, norm in ((1, 0.548558), (2, 8744.44), (3, 0.0469581)):
        fx = co.get_example(number)
        cubic = co.build_designs(fx)[1]
        flipped = flipped_design(fx.system, cubic)
        roots = co.search_nonzero_equilibria(co.ErrorDynamics(fx.system, flipped))
        assert len(roots) == 2
        assert np.array_equal(roots[1], -roots[0])
        for root in roots:
            assert np.linalg.norm(root) == pytest.approx(norm, rel=1e-5)
            assert root_rule_holds(fx.system, flipped, root)
        again = co.search_nonzero_equilibria(co.ErrorDynamics(fx.system, flipped))
        assert all(np.array_equal(a, b) for a, b in zip(again, roots))
        # with one output M is the number m, and roots exist iff m theta < 0,
        # which is where the paper's uniqueness test fails
        for design in (cubic, flipped):
            dyn = design_mod.ErrorDynamics(fx.system, design)
            m = (fx.system.c @ np.linalg.solve(dyn.f, design.gain_nc)).item()
            found = len(co.search_nonzero_equilibria(dyn))
            assert found == (2 if m * design.theta.item() < 0.0 else 0)
            assert co.certify_stability(fx.system, design).uniqueness_ok == (found == 0)


def test_the_exact_set_matches_the_newton_reference_on_the_flipped_example(fx1, designs1):
    # the Newton reference finds the same two roots on example 1, from any seed
    flipped = flipped_design(fx1.system, designs1[1])
    roots = co.search_nonzero_equilibria(co.ErrorDynamics(fx1.system, flipped))
    assert len(roots) == 2
    for seed in range(5):
        refs = sequential_search(fx1.system, flipped, seed=seed)
        assert len(refs) == 2
        for ref in refs:
            assert min(np.linalg.norm(root - ref) for root in roots) <= 1e-9


def test_certify_with_equilibrium_search_records_margin(fx1, designs1):
    cert = co.certify_stability(fx1.system, designs1[1], equilibrium_search=True)
    assert cert.margins["nonzero_equilibria_found"] == 0.0
    assert "nonzero_equilibria_continuum" not in cert.margins


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

    def draw():
        g = rng.standard_normal((n, n))
        a = (g - g.T) / np.linalg.norm(g - g.T, 2)
        c = rng.standard_normal((min(2, n - 1), n))
        gamma = float(rng.uniform(0.5, 2.0))
        system = co.LinearSystem(a=a, b=np.zeros((n, 1)), c=c)
        return system, co.synthesize_cubic_gain(
            system, c.T / n, np.eye(n), np.eye(c.shape[0]), gamma
        )

    return redraw_until_accepted(draw)


def root_rule_holds(system, design, root):
    """search_nonzero_equilibria's root rule: the field at root is at most
    EQUILIBRIUM_TOL max(|f| |e|)."""
    f = design_mod.ErrorDynamics(system, design).f
    value = co.error_field(system, design)(root)
    return np.abs(value).max() <= design_mod.EQUILIBRIUM_TOL * (np.abs(f) @ np.abs(root)).max()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["explicit", "flipped"]),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    n_y=st.integers(1, 4),
    gamma=st.floats(0.05, 20.0),
)
def test_the_exact_set_holds_every_root_the_newton_reference_finds(kind, seed, n, n_y, gamma):
    system, design = random_design(kind, seed, n, n_y, gamma)
    roots = co.search_nonzero_equilibria(co.ErrorDynamics(system, design))
    for ref in sequential_search(system, design, seed=seed):
        gap = min((np.linalg.norm(root - ref) for root in roots), default=np.inf)
        assert gap <= 1e-6 * np.linalg.norm(ref)
    radius = exclusion_radius(system, design)
    for root in roots:
        assert root_rule_holds(system, design, root)
        assert np.linalg.norm(root) >= radius


def m_design(m, theta=1.0):
    """An explicit design whose M = c f^{-1} nc is the square matrix m: the
    plant a = -I with c = I, and lc = 0, so f = -I and nc = -m."""
    n = len(m)
    system = co.LinearSystem(a=-np.eye(n), b=np.zeros((n, 1)), c=np.eye(n))
    return system, co.explicit_cubic_design(system, np.zeros((n, n)), -np.asarray(m), theta)


@pytest.mark.parametrize("m", [-1.0, -1e-6, -1e-12, 1e-12, 1.0])
def test_a_one_output_certificate_holds_exactly_when_no_root_exists(m):
    # M = m: roots exist iff m < 0, at |e| = 1 / sqrt(-m), however small m is.
    # The explicit design takes the strict damping test, which D = -2 p m,
    # with p = 1/2, passes for every m > 0
    system, design = m_design([[m]])
    cert = co.certify_stability(system, design, equilibrium_search=True)
    assert cert.damping_mode == "strict"
    assert cert.damping_ok == (m > 0)
    assert cert.uniqueness_ok == cert.all_ok == (cert.margins["nonzero_equilibria_found"] == 0)


def equilibria_margins(system, design):
    cert = co.certify_stability(system, design, equilibrium_search=True)
    return {k: v for k, v in cert.margins.items() if k.startswith("nonzero")}


@pytest.mark.parametrize(
    "b, found",
    # M = [[-1, -b], [b, -1]] has the eigenvalues -1 +- i b: a complex pair
    # gives no root, one within EQUILIBRIUM_TOL of the real axis counts as
    # the real -1, whose eigenspace is then the whole plane
    [(0.5, 0), (1e-5, 0), (1e-7, 2), (0.0, 4)],
)
def test_an_eigenvalue_of_m_counts_as_real_within_the_tolerance(b, found):
    system, design = m_design([[-1.0, -b], [b, -1.0]])
    roots = co.search_nonzero_equilibria(co.ErrorDynamics(system, design))
    assert len(roots) == found
    want = {"nonzero_equilibria_found": float(found)}
    if found:
        want["nonzero_equilibria_continuum"] = 2.0
    assert equilibria_margins(system, design) == want
    for root in roots:
        assert root_rule_holds(system, design, root)
        assert np.linalg.norm(root) == pytest.approx(1.0, rel=1e-6)


def test_a_repeated_eigenvalue_is_a_continuum_only_when_its_eigenspace_is():
    # M = -I: every e with |e| = 1 is an equilibrium; eig's two eigenvectors
    # give the representatives
    system, design = m_design(-np.eye(2))
    assert len(co.search_nonzero_equilibria(co.ErrorDynamics(system, design))) == 4
    rhs = co.error_field(system, design)
    assert np.abs(rhs([np.cos(0.3), np.sin(0.3)])).max() < 1e-15
    assert equilibria_margins(system, design) == {
        "nonzero_equilibria_found": 4.0,
        "nonzero_equilibria_continuum": 2.0,
    }
    # theta vanishing on one eigenvector: that one gives no representative,
    # but the lines e_0 = +-1 are equilibria and the eigenspace is still 2-D
    system, design = m_design(-np.eye(2), np.diag([1.0, 0.0]))
    assert np.abs(co.error_field(system, design)([1.0, 7.0])).max() == 0.0
    assert equilibria_margins(system, design) == {
        "nonzero_equilibria_found": 2.0,
        "nonzero_equilibria_continuum": 2.0,
    }
    # a 2-D eigenspace of a rotated M next to a simple eigenvalue
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    system, design = m_design(q @ np.diag([-1.0, -1.0, -4.0]) @ q.T)
    assert equilibria_margins(system, design) == {
        "nonzero_equilibria_found": 6.0,
        "nonzero_equilibria_continuum": 2.0,
    }
    # a defective -1 has one eigenvector, so one pair and no continuum: eig's
    # second eigenvector is the first to rounding, and gives the same pair
    system, design = m_design([[-1.0, 1.0], [0.0, -1.0]])
    roots = co.search_nonzero_equilibria(co.ErrorDynamics(system, design))
    assert len(roots) == 2
    assert np.allclose(roots[0], [1.0, 0.0], rtol=0.0, atol=1e-15)
    assert equilibria_margins(system, design) == {"nonzero_equilibria_found": 2.0}
    # distinct eigenvalues: one pair each, no continuum
    system, design = m_design(np.diag([-1.0, -4.0]))
    assert equilibria_margins(system, design) == {"nonzero_equilibria_found": 4.0}


def test_a_failing_eigensolve_refuses_the_equilibrium_search(fx1, designs1, monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("eig forced to fail")

    monkeypatch.setattr(np.linalg, "eig", failing)
    with pytest.raises(co.NumericalError, match="^equilibrium search failed: eig forced to fail$"):
        co.certify_stability(fx1.system, designs1[1], equilibrium_search=True)


def test_the_search_refuses_a_singular_linear_part():
    # lc = 0 leaves f = a, the singular double integrator
    plant = double_integrator()
    design = co.CubicObserverDesign(
        np.zeros((2, 1)), np.ones((2, 1)), [[1.0]], 1.0, np.eye(2), np.eye(2)
    )
    with pytest.raises(co.NumericalError, match="^equilibrium search failed: Singular matrix$"):
        co.search_nonzero_equilibria(co.ErrorDynamics(plant, design))
    with pytest.raises(co.NumericalError, match="^uniqueness test failed: Singular matrix$"):
        co.certify_stability(plant, design)
    # nearly singular: LAPACK returns an infinite f^{-1} nc without raising
    plant = co.LinearSystem(a=[[1e-300, 0.0], [1.0, -1.0]], b=[[0.0], [1.0]], c=[[1.0, 1.0]])
    design = co.CubicObserverDesign(
        np.zeros((2, 1)), [[1e300], [0.0]], [[1.0]], 1.0, np.eye(2), np.eye(2)
    )
    with pytest.raises(co.NumericalError, match="^equilibrium search overflows$"):
        co.search_nonzero_equilibria(co.ErrorDynamics(plant, design))


# ---------------------------------------------------------------------------
# the closed-form exclusion radius


def exclusion_radius(system, design):
    return design_mod._exclusion_radius(design_mod.ErrorDynamics(system, design))


def random_design(kind, seed, n, n_y, gamma):
    """A synthesized, explicit or flipped design on a stable plant built
    like scaling_design's, with n_y outputs and the given gamma."""
    rng = np.random.default_rng(seed)

    def draw():
        g = rng.standard_normal((n, n))
        a = (g - g.T) / np.linalg.norm(g - g.T, 2) - 0.1 * np.eye(n)
        c = rng.standard_normal((n_y, n))
        system = co.LinearSystem(a=a, b=np.zeros((n, 1)), c=c)
        if kind == "explicit":
            root = rng.standard_normal((n_y, n_y))
            nc = rng.standard_normal((n, n_y))
            return system, co.explicit_cubic_design(system, c.T / n, nc, root @ root.T, gamma=gamma)
        return system, co.synthesize_cubic_gain(system, c.T / n, np.eye(n), np.eye(n_y), gamma)

    system, design = redraw_until_accepted(draw)
    if kind == "flipped":
        design = flipped_design(system, design)
    return system, design


def test_a_draw_no_plant_can_pass_fails_with_the_last_refusal():
    # no one-output plant of random_design's passes the observability test
    # at n = 32: the draw stops after DRAW_ATTEMPTS tries instead of hanging
    with pytest.raises(pytest.fail.Exception, match=r"refused: \(a, c\) pair is not observable"):
        random_design("synthesized", 0, 32, 1, 1.0)


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
    for root in co.search_nonzero_equilibria(co.ErrorDynamics(system, design)):
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
    """The error dynamics certify_stability hands to the equilibrium search."""
    calls = []
    search = design_mod.search_nonzero_equilibria

    def counting(dyn):
        calls.append(dyn)
        return search(dyn)

    monkeypatch.setattr(design_mod, "search_nonzero_equilibria", counting)
    return calls


def test_certified_designs_are_searched_too(fx1, fx2, designs1, designs2, search_calls):
    # an exclusion radius beyond STATE_NORM_LIMIT does not stand in for the
    # search: each design reaches it, and it finds no root
    system32, design32 = scaling_design(0, 32)
    designs = [
        (fx1.system, designs1[0]),
        (fx1.system, designs1[1]),
        (fx2.system, designs2[1]),
        (system32, design32),
    ]
    for system, design in designs:
        cert = co.certify_stability(system, design, equilibrium_search=True)
        assert cert.margins["nonzero_equilibria_found"] == 0.0
        assert cert.margins["equilibrium_exclusion_radius"] == design_mod.STATE_NORM_LIMIT
    assert designs1[0].is_degenerate
    assert system32.n_outputs == 2
    assert [dyn.design for dyn in search_calls] == [design for _, design in designs]


def test_explicit_and_flipped_designs_are_still_searched(
    fx1, fx2, fx3, designs1, designs2, search_calls
):
    cubic3 = co.build_designs(fx3)[1]
    assert not cubic3.synthesized
    cert = co.certify_stability(fx3.system, cubic3, equilibrium_search=True)
    assert cert.margins["nonzero_equilibria_found"] == 0.0
    assert 0.05 < cert.margins["equilibrium_exclusion_radius"] < 0.06
    assert [dyn.design for dyn in search_calls] == [cubic3]

    search_calls.clear()
    flipped2 = flipped_design(fx2.system, designs2[1])
    cert = co.certify_stability(fx2.system, flipped2, equilibrium_search=True)
    assert cert.margins["equilibrium_exclusion_radius"] < 2.0
    # the pair at |e| = 8744 that a search from radii 0.1 to 10 missed
    assert cert.margins["nonzero_equilibria_found"] == 2.0
    assert [dyn.design for dyn in search_calls] == [flipped2]

    flipped = flipped_design(fx1.system, designs1[1])
    search_calls.clear()
    cert = co.certify_stability(fx1.system, flipped, equilibrium_search=True)
    assert cert.margins["nonzero_equilibria_found"] == 2.0
    (searched,) = search_calls
    assert searched is cert.dynamics and searched.design is flipped


def test_feedback_certificate_hands_the_design_to_the_search(fx1, designs1, search_calls):
    # the certificate hands the search the dynamics of the design alone, the
    # observer certificate's own, and it reports both of the flipped design's roots
    flipped = flipped_design(fx1.system, designs1[1])
    cert = co.feedback_certificate(fx1.system, flipped, [[1.0, 2.0]], equilibrium_search=True)
    assert cert.margins["nonzero_equilibria_found"] == 2.0
    (searched,) = search_calls
    assert searched is cert.dynamics and searched.design is flipped
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


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    exponent=st.floats(-100.0, 100.0),
)
def test_the_scaled_frobenius_norm_keeps_the_bits_of_np_norm(seed, shape, exponent):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape) * 10.0**exponent
    assert design_mod._frob(m) == np.linalg.norm(m)


def test_the_scaled_frobenius_norm_neither_overflows_nor_underflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert design_mod._frob(np.full((3, 3), 1e300)) == 3e300
        assert design_mod._frob(np.full((4, 1), -1e-300)) == 2e-300
        assert design_mod._frob(np.zeros((2, 2))) == 0.0


def test_certifying_an_explicit_design_whose_forms_overflow_is_refused():
    # c' theta c overflows although the builder's products do not: the
    # ErrorDynamics every certificate, search and field reads refuses that
    # with one NumericalError, not a warning and an inf
    plant = co.LinearSystem(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]], c=[[1e200, 0.0]])
    lc = co.place_poles_single_output(plant, [-2.0, -5.0])
    design = co.explicit_cubic_design(plant, lc, [[9.88], [11.5]], 10.0, gamma=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (
            lambda: co.certify_stability(plant, design),
            lambda: co.feedback_certificate(plant, design, [[1.0, 2.0]]),
            lambda: co.lyapunov_derivative_at(plant, design, [1.0, 1.0]),
            lambda: co.error_field(plant, design),
            lambda: co.search_nonzero_equilibria(co.ErrorDynamics(plant, design)),
        ):
            with pytest.raises(co.NumericalError, match="^error dynamics overflows$"):
                call()


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
    spectrum = numlin.sym_spectrum(m)
    # the reference decomposes -(m + m^T) itself; its spectrum is this one
    # scaled by -2, up to the eigensolver's rounding
    reference = np.linalg.eigvalsh(-(m + m.T))
    scaled = -2.0 * spectrum[::-1]
    gap = np.abs(reference - scaled).max()
    assert gap <= n * np.finfo(float).eps * np.abs(scaled).max()
    assert numlin.is_negative_spectrum(spectrum) == numlin.is_positive_spectrum(reference)
    # d, symmetric up to rounding as p nc c + c^T nc^T p is, with -d near h
    d = -h + 1e-13 * np.abs(h).max() * rng.standard_normal((n, n))
    minus_d = -numlin.sym_spectrum(d)[::-1]
    reference = np.linalg.eigvalsh(-0.5 * (d + d.T))
    assert numlin.is_positive_spectrum(minus_d) == numlin.is_positive_spectrum(reference)
    assert numlin.is_positive_spectrum(minus_d, semidefinite=True) == (
        numlin.is_positive_spectrum(reference, semidefinite=True)
    )
    # the uniqueness test's m: h plus a skew part
    spectrum = numlin.sym_spectrum(h + skew)
    reference = np.linalg.eigvalsh(0.5 * ((h + skew) + (h + skew).T))
    assert numlin.is_positive_spectrum(spectrum, semidefinite=True) == (
        numlin.is_positive_spectrum(reference, semidefinite=True)
    )


def feedback_scaling_design(seed=0, n=32):
    """scaling_design's plant and design with two inputs and a feedback gain
    k = b^T / n, so that a - b k is Hurwitz, as the benchmark draws them."""
    system, design = scaling_design(seed, n)
    b = np.random.default_rng(seed).standard_normal((n, 2))
    return co.LinearSystem(a=system.a, b=b, c=system.c), design, b.T / n


@pytest.fixture
def eigen_calls(monkeypatch):
    """Copies of every matrix handed to np.linalg.eigvalsh, eigvals and svd."""
    calls = {"eigvalsh": [], "eigvals": [], "svd": []}
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
    # nothing else is decomposed: the damping mode reads the strict verdict
    assert len(eigen_calls["eigvalsh"]) == 3
    assert len(eigen_calls["eigvals"]) == 1
    assert eigen_calls["svd"] == []

    for calls in eigen_calls.values():
        calls.clear()
    cert = co.feedback_certificate(system, design, k)
    assert cert.feedback_ok and cert.feedback_beta > 1.0
    # psi(beta) at the closed-form beta alone, whatever beta is, and G
    psi = np.block([[top_left, off], [off.T, cert.feedback_beta * dyn.w]])
    loop_forms = [sym(psi), sym(aa.T @ pa + pa @ aa)]
    for form in observer_forms + loop_forms:
        assert times_decomposed(eigen_calls["eigvalsh"], form) == 1
    assert times_decomposed(eigen_calls["eigvals"], dyn.f) == 1
    assert sum(m.shape == (64, 64) for m in eigen_calls["eigvalsh"]) == 2


def design_config(system, design, k):
    """The cubicobs design config of a synthesized design with q = I and
    theta = I, closed through u = -k xhat."""
    return {
        "system": {"a": system.a.tolist(), "b": system.b.tolist(), "c": system.c.tolist()},
        "observer": {
            "type": "cubic",
            "gain_lc": design.gain_lc.tolist(),
            "q": 1.0,
            "theta": 1.0,
            "gamma": design.gamma,
        },
        "feedback": {"k": k.tolist()},
    }


# eigvalsh and eigvals calls of one design command: theta is decomposed
# once, by CubicObserverDesign, and the feedback certificate takes psi(beta),
# G and the n x n Gram matrix of its closed-form beta_min
DESIGN_COMMAND_EIGEN_CALLS = {"feedback": (13, 4), "search": (8, 3)}


@pytest.mark.parametrize("case", ["feedback", "search"])
def test_the_design_command_decomposes_theta_once(eigen_calls, tmp_path, case):
    config, out = tmp_path / "config.json", tmp_path / "design.json"
    if case == "feedback":
        config.write_text(json.dumps(design_config(*feedback_scaling_design(n=8))))
        argv = ["design", str(config), "--out", str(out)]
    else:
        config.write_text(json.dumps(EXAMPLE_CONFIG))
        argv = ["design", str(config), "--out", str(out), "--equilibrium-search"]
    for calls in eigen_calls.values():
        calls.clear()
    assert cli.main(argv) == 0
    theta = np.array(json.loads(out.read_text())["design"]["theta"])
    assert times_decomposed(eigen_calls["eigvalsh"], theta) == 1
    counts = (len(eigen_calls["eigvalsh"]), len(eigen_calls["eigvals"]))
    assert counts == DESIGN_COMMAND_EIGEN_CALLS[case]


def recorded_calls(monkeypatch, owner, name):
    """The first argument of every call to owner.name from now on."""
    seen = []
    original = getattr(owner, name)

    def recording(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return seen


@pytest.mark.parametrize("search", [False, True])
@pytest.mark.parametrize("number", [1, 2, 3])
def test_a_certificate_builds_one_error_dynamics(monkeypatch, number, search):
    # the observer certificate's dynamics is the one the loop certificate
    # (example 3) and the equilibrium search read
    fx = co.get_example(number)
    cubic = co.build_designs(fx)[1]
    built = recorded_calls(monkeypatch, design_mod.ErrorDynamics, "__post_init__")
    cert = examples.certify(fx.system, cubic, fx.feedback_k, search)
    assert (fx.feedback_k is not None) == (cert.feedback_ok is not None)
    assert len(built) == 1 and built[0] is cert.dynamics
    assert cert.dynamics.design is cubic


def test_a_searched_certificate_solves_with_f_twice(monkeypatch, fx1, designs1):
    # the uniqueness test's solve(f, nc c) and G = f^{-1} nc, which the
    # search and the continuum test both read, through M = c G
    flipped = flipped_design(fx1.system, designs1[1])
    solved = recorded_calls(monkeypatch, np.linalg, "solve")
    cert = examples.certify(fx1.system, flipped, None, True)
    assert cert.margins["nonzero_equilibria_found"] == 2.0
    assert len(solved) == 2
    assert all(a is cert.dynamics.f for a in solved)


def stabilized_loop(kind, seed, n, n_y, n_u, gain):
    """random_design's plant and design with n_u inputs and k = gain b^T:
    a - b k has the negative definite symmetric part -0.1 I - gain b b^T,
    so it is Hurwitz."""
    system, design = random_design(kind, seed, n, n_y, 1.0)
    b = np.random.default_rng(seed).standard_normal((n, n_u))
    return co.LinearSystem(a=system.a, b=b, c=system.c), design, gain * b.T


def grid_search_feedback(system, design, k):
    """(feedback_ok, feedback_beta, feedback_psi_max_eig) by the grid search
    the closed form replaced: psi(beta) decomposed at each power of
    FEEDBACK_BETA_GRID in turn until one is negative definite, the margin
    being that spectrum's largest eigenvalue, or the least over the grid
    when none is."""
    best = np.inf
    betas = design_mod.FEEDBACK_BETA_GRID
    for beta, psi in zip(betas, psi_forms(system, design, k, betas)):
        spectrum = numlin.sym_spectrum(psi)
        best = min(best, float(spectrum[-1]))
        if numlin.is_negative_spectrum(spectrum):
            return True, beta, float(spectrum[-1])
    return False, None, best


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["synthesized", "explicit"]),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    n_y=st.integers(1, 2),
    n_u=st.integers(1, 2),
    gain=st.floats(0.0, 2.0),
    q_exponent=st.floats(-14.0, 2.0),
)
def test_the_closed_form_beta_matches_the_grid_search(kind, seed, n, n_y, n_u, gain, q_exponent):
    # q = 10^q_exponent I scales w down until beta_min lies past 1e8, and
    # below about 1e-10 until w is too small beside t for the relative
    # verdict at beta_min, which the closed form's threshold accounts for
    system, design, k = stabilized_loop(kind, seed, n, n_y, n_u, gain)
    q = 10.0**q_exponent * np.eye(n)
    if kind == "synthesized":
        design = co.synthesize_cubic_gain(system, design.gain_lc, q, design.theta, design.gamma)
    else:
        design = co.explicit_cubic_design(
            system, design.gain_lc, design.gain_nc, design.theta, q=q, gamma=design.gamma
        )
    cert = co.feedback_certificate(system, design, k)
    got = (cert.feedback_ok, cert.feedback_beta, cert.margins["feedback_psi_max_eig"])
    ok, beta, margin = grid_search_feedback(system, design, k)
    if ok:
        (psi,) = psi_forms(system, design, k, [beta])
        if -margin <= 1.002 * numlin.DEFINITENESS_TOL * np.abs(numlin.sym_spectrum(psi)).max():
            # a tie: the grid's verdict passed within the 0.1% by which the
            # closed form raises its threshold, which may take the next power
            assert cert.feedback_ok and cert.feedback_beta in (beta, 10.0 * beta)
            return
    assert got == (ok, beta, margin)
    if ok and beta > 1.0:
        (below,) = psi_forms(system, design, k, [beta / 10.0])
        assert not numlin.is_negative_spectrum(numlin.sym_spectrum(below))


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["synthesized", "explicit"]),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    n_y=st.integers(1, 2),
    n_u=st.integers(1, 2),
    gain=st.floats(0.0, 2.0),
)
def test_the_unscaled_feedback_form_is_psi_at_beta_one(kind, seed, n, n_y, n_u, gain):
    # G = AA^T PA + PA AA equals psi(1) block by block, so its verdict and
    # largest eigenvalue are psi(1)'s up to rounding
    system, design, k = stabilized_loop(kind, seed, n, n_y, n_u, gain)
    cert = co.feedback_certificate(system, design, k)
    (psi,) = psi_forms(system, design, k, [1.0])
    spectrum = numlin.sym_spectrum(psi)
    assert cert.feedback_unscaled_ok == numlin.is_negative_spectrum(spectrum)
    gap = abs(cert.margins["feedback_unscaled_max_eig"] - spectrum[-1])
    assert gap <= 1e-12 * np.abs(spectrum).max()
