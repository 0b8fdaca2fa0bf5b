"""Observer gain synthesis and stability certificates.

The observers handled here estimate the state of an observable LTI plant.
The cubic observer adds an odd cubic output-residual correction to the
classical output-injection design

    d(xhat)/dt = (a - lc c) xhat + lc y + b u - (r^T theta r) nc r,
    r = y - c xhat,

so its error e = x - xhat obeys

    de/dt = (a - lc c) e + (e^T c^T theta c e) nc c e.

With p solving (a - lc c)^T p + p (a - lc c) = -q, the constructive choice

    nc = -gamma p^{-1} c^T theta        (gamma > 0)

makes p nc c + c^T nc^T p = -2 gamma c^T theta c, which both damps the
quadratic Lyapunov derivative by an extra quartic term and guarantees the
origin is the only equilibrium of the error dynamics. The linear observer
d(xhat)/dt = (a - lc c) xhat + lc y + b u is the same design with nc = 0
and gamma = 0, built by degenerate_linear().

certify_stability evaluates three conditions against a candidate design:

  hurwitz_ok     the quadratic part decays: (a - lc c)^T p + p (a - lc c) < 0
  damping_ok     the cubic term never helps the error grow:
                 p nc c + c^T nc^T p negative (semi)definite
  uniqueness_ok  the origin is the unique equilibrium, via positive
                 semidefiniteness of c^T theta c (a - lc c)^{-1} nc c in the
                 symmetrized quadratic-form sense

For synthesized gains with fewer outputs than states the damping matrix is
-2 gamma c^T theta c, which is rank deficient, so only the semidefinite
verdict can hold; the strict verdict is reported alongside. Every boolean in
a certificate is backed by a named numerical margin.
"""

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import numlin, sysmodel
from .errors import ContractError, DesignError, DimensionError, NumericalError

# tolerance for the conjugate-closure check on requested pole sets
POLE_CONJUGACY_TOL = 1e-9
# accepted relative residual of the constructive-gain identity
GAIN_IDENTITY_RTOL = 1e-10
# accepted eigenvalue error after pole placement
PLACEMENT_TOL = 1e-8
# scaling grid searched by feedback_certificate
FEEDBACK_BETA_GRID = tuple(10.0 ** k for k in range(9))


@dataclass(frozen=True)
class CubicObserverDesign:
    """Cubic observer parameters together with their Lyapunov certificate data.

    gamma > 0 unless the design is the degenerate linear case (gain_nc = 0,
    gamma = 0), which is only produced by degenerate_linear(). synthesized
    records whether gain_nc came from the constructive rule, which controls
    the default strictness of the damping verdict.
    """

    gain_lc: np.ndarray
    gain_nc: np.ndarray
    theta: np.ndarray
    gamma: float
    lyapunov_p: np.ndarray
    lyapunov_q: np.ndarray
    synthesized: bool = False

    def __post_init__(self):
        lc = numlin.as_matrix(self.gain_lc, "gain_lc")
        nc = numlin.as_matrix(self.gain_nc, "gain_nc")
        if nc.shape != lc.shape:
            raise DimensionError(
                f"gain_nc shape {nc.shape} must match gain_lc shape {lc.shape}"
            )
        theta = numlin.symmetrize(self.theta, "theta")
        if theta.shape[0] != lc.shape[1]:
            raise DimensionError(
                f"theta must be {lc.shape[1]}x{lc.shape[1]}, got {theta.shape}"
            )
        if not numlin.is_positive_semidefinite(theta):
            raise ContractError("theta must be symmetric positive semidefinite")
        gamma = float(self.gamma)
        if gamma < 0.0 or not np.isfinite(gamma):
            raise ContractError(f"gamma must be a nonnegative real, got {gamma}")
        if gamma == 0.0 and numlin.max_abs(nc) != 0.0:
            raise ContractError("gamma = 0 requires gain_nc = 0 (degenerate design)")
        p = numlin.symmetrize(self.lyapunov_p, "lyapunov_p")
        q = numlin.symmetrize(self.lyapunov_q, "lyapunov_q")
        n = lc.shape[0]
        if p.shape != (n, n) or q.shape != (n, n):
            raise DimensionError("lyapunov_p and lyapunov_q must be n x n")
        if not numlin.is_positive_definite(p):
            raise ContractError("lyapunov_p must be positive definite")
        if not numlin.is_positive_definite(q):
            raise ContractError("lyapunov_q must be positive definite")
        for name, arr in (
            ("gain_lc", lc),
            ("gain_nc", nc),
            ("theta", theta),
            ("lyapunov_p", p),
            ("lyapunov_q", q),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "synthesized", bool(self.synthesized))

    @property
    def n(self):
        return self.gain_lc.shape[0]

    @property
    def is_degenerate(self):
        return self.gamma == 0.0


@dataclass(frozen=True)
class Certificate:
    """Stability verdicts with the numerical margins that back them.

    damping_ok reflects the mode actually used ("strict" or "semidefinite");
    damping_strict reports whether the strict verdict holds regardless.
    certify_stability sets robustness_eps_max to robustness_bound(design).
    The feedback fields stay None unless feedback_certificate filled them.
    """

    hurwitz_ok: bool
    damping_ok: bool
    damping_strict: bool
    damping_mode: str
    uniqueness_ok: bool
    margins: dict = field(default_factory=dict)
    robustness_eps_max: float | None = None
    feedback_ok: bool | None = None
    feedback_beta: float | None = None
    feedback_unscaled_ok: bool | None = None

    @property
    def stability_ok(self):
        return self.hurwitz_ok and self.damping_ok and self.uniqueness_ok

    @property
    def all_ok(self):
        if not self.stability_ok:
            return False
        return self.feedback_ok is not False


def _as_gain(gain, n, n_y, name):
    g = np.array(gain, dtype=float)
    if g.ndim == 1:
        g = g.reshape(-1, 1)
    g = numlin.as_matrix(g, name)
    if g.shape != (n, n_y):
        raise DimensionError(
            f"{name} must have shape ({n}, {n_y}), got {g.shape}"
        )
    return g


def _check_conjugate_closed(poles):
    by_key = sorted(poles, key=lambda z: (z.real, z.imag))
    conj = sorted(np.conj(poles), key=lambda z: (z.real, z.imag))
    for a, b in zip(by_key, conj):
        if abs(a - b) > POLE_CONJUGACY_TOL * max(1.0, abs(a)):
            raise ContractError(
                "desired pole set must be closed under conjugation "
                f"(unmatched pole {a:g})"
            )


def place_poles_single_output(sys, desired):
    """Observer pole placement for single-output systems.

    Returns the (n, 1) gain l with eig(a - l c) equal to the desired
    multiset, computed via the
    characteristic-polynomial (Ackermann) formula

        l = phi(a) O^{-1} e_n,

    where phi is the desired polynomial and O the observability matrix.
    Repeated poles are fine. Complex poles must come in conjugate pairs.
    Multi-output systems are not supported here; supply gains directly.
    """
    if sys.n_outputs != 1:
        raise ContractError(
            "pole placement is implemented for single-output systems only; "
            "supply the observer gain directly for multi-output plants"
        )
    desired = np.atleast_1d(np.asarray(desired, dtype=complex))
    if desired.size != sys.n:
        raise DimensionError(
            f"need exactly {sys.n} desired poles, got {desired.size}"
        )
    if not np.all(np.isfinite(desired)):
        raise ContractError("desired poles must be finite")
    _check_conjugate_closed(desired)

    coeffs = np.poly(desired)
    if numlin.max_abs(coeffs.imag) > POLE_CONJUGACY_TOL * max(
        1.0, numlin.max_abs(coeffs.real)
    ):
        raise NumericalError("desired polynomial has a non-real coefficient")
    coeffs = coeffs.real

    a = sys.a
    n = sys.n
    phi = np.zeros((n, n))
    for ck in coeffs:  # Horner on the matrix argument
        phi = phi @ a + ck * np.eye(n)

    obs = sysmodel.observability_matrix(sys)
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    try:
        l = phi @ np.linalg.solve(obs, e_n)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"observability matrix is singular: {exc}") from exc

    achieved = numlin.eigenvalues(a - l.reshape(n, 1) @ sys.c)
    target = np.sort_complex(desired)
    scale = max(1.0, float(np.max(np.abs(target))))
    err = float(np.max(np.abs(np.sort_complex(achieved) - target)))
    if err > PLACEMENT_TOL * scale:
        raise NumericalError(
            f"pole placement achieved eigenvalues off by {err:.3e}; "
            "the observability matrix is probably too ill-conditioned"
        )
    return l.reshape(n, 1)


def _as_theta(theta, n_y):
    t = np.asarray(theta, dtype=float)
    if t.ndim == 0:
        t = float(t) * np.eye(n_y)
    return numlin.symmetrize(t, "theta")


def _lyapunov_pair(sys, lc, q):
    """Check a - lc c is Hurwitz, then solve its Lyapunov equation for q.

    Returns (p, q) with q symmetrized, as a design stores them.
    """
    f = sys.a - lc @ sys.c
    if not numlin.is_hurwitz(f):
        raise DesignError(
            "hurwitz condition violated: a - gain_lc c has spectral abscissa "
            f"{numlin.spectral_abscissa(f):.6g} >= 0"
        )
    return numlin.solve_lyapunov(f, q), numlin.symmetrize(q, "q")


def synthesize_cubic_gain(sys, gain_lc, q, theta=None, gamma=1.0):
    """Build a cubic observer design with the constructive residual gain.

    Solves (a - lc c)^T p + p (a - lc c) = -q, then sets
    nc = -gamma p^{-1} c^T theta. theta may be a scalar (meaning
    theta * I) or an n_y x n_y symmetric positive semidefinite matrix;
    it defaults to the identity. gamma must be strictly positive; the
    zero-gain observer is available through degenerate_linear().
    The defining identity p nc c + c^T nc^T p = -2 gamma c^T theta c is
    verified to tight relative tolerance before the design is returned.
    """
    lc = _as_gain(gain_lc, sys.n, sys.n_outputs, "gain_lc")
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise ContractError(
            f"gamma must be strictly positive, got {gamma}; "
            "use degenerate_linear() for the zero-gain observer"
        )
    theta = _as_theta(np.eye(sys.n_outputs) if theta is None else theta, sys.n_outputs)
    if not numlin.is_positive_semidefinite(theta):
        raise ContractError("theta must be symmetric positive semidefinite")

    p, q = _lyapunov_pair(sys, lc, q)
    nc = -gamma * np.linalg.solve(p, sys.c.T @ theta)

    s = sys.c.T @ theta @ sys.c
    identity_residual = numlin.max_abs(
        p @ nc @ sys.c + sys.c.T @ nc.T @ p + 2.0 * gamma * s
    )
    scale = 1.0 + 2.0 * gamma * numlin.max_abs(s)
    if identity_residual > GAIN_IDENTITY_RTOL * scale:
        raise NumericalError(
            f"constructive-gain identity residual {identity_residual:.3e} "
            f"exceeds {GAIN_IDENTITY_RTOL:.1e} relative tolerance"
        )
    return CubicObserverDesign(
        gain_lc=lc,
        gain_nc=nc,
        theta=theta,
        gamma=gamma,
        lyapunov_p=p,
        lyapunov_q=q,
        synthesized=True,
    )


def degenerate_linear(sys, gain_lc, q):
    """The gamma -> 0 limit: a linear observer packaged as a cubic design.

    gain_nc and theta are zero, so simulation reproduces the linear
    observer bit for bit while the Lyapunov data (p, q) stays available
    for certificates and energy traces.
    """
    lc = _as_gain(gain_lc, sys.n, sys.n_outputs, "gain_lc")
    p, q = _lyapunov_pair(sys, lc, q)
    ny = sys.n_outputs
    return CubicObserverDesign(
        gain_lc=lc,
        gain_nc=np.zeros((sys.n, ny)),
        theta=np.zeros((ny, ny)),
        gamma=0.0,
        lyapunov_p=p,
        lyapunov_q=q,
        synthesized=True,
    )


def explicit_cubic_design(sys, gain_lc, gain_nc, theta, q=None, gamma=1.0):
    """Package externally chosen gains (lc, nc) as a cubic design.

    p is solved from the Lyapunov equation with the given q (identity by
    default) so certificates and energy traces are available. No identity
    ties nc to p here, so certify_stability holds such designs to the
    strict damping test unless told otherwise.
    """
    lc = _as_gain(gain_lc, sys.n, sys.n_outputs, "gain_lc")
    nc = _as_gain(gain_nc, sys.n, sys.n_outputs, "gain_nc")
    theta = _as_theta(theta, sys.n_outputs)
    if q is None:
        q = np.eye(sys.n)
    p, q = _lyapunov_pair(sys, lc, q)
    return CubicObserverDesign(
        gain_lc=lc,
        gain_nc=nc,
        theta=theta,
        gamma=float(gamma),
        lyapunov_p=p,
        lyapunov_q=q,
        synthesized=False,
    )


def _error_terms(sys, design):
    """The terms of the error dynamics that every certificate reads.

    Returns (f, s, w, d): f = a - lc c, s = c^T theta c, the quadratic
    Lyapunov form w = f^T p + p f and the damping form
    d = p nc c + c^T nc^T p.
    """
    c = sys.c
    p = design.lyapunov_p
    nc = design.gain_nc
    f = sys.a - design.gain_lc @ c
    s = c.T @ design.theta @ c
    w = f.T @ p + p @ f
    d = p @ nc @ c + c.T @ nc.T @ p
    return f, s, w, d


def _sym_extremes(m):
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(w[0]), float(w[-1])


def certify_stability(
    sys,
    design,
    strict_damping=None,
    equilibrium_search=False,
    n_starts=100,
    seed=0,
):
    """Evaluate the stability conditions for a cubic observer design.

    strict_damping selects the damping verdict mode: True forces the strict
    negative-definite test, False the semidefinite one, and None (default)
    picks strict exactly when the design was not synthesized by the
    constructive rule or c^T theta c has full rank. With
    equilibrium_search=True a seeded damped-Newton search for nonzero
    equilibria of the error dynamics runs as an extra falsifier from
    n_starts starts drawn from seed (a positive and a nonnegative integer,
    both checked even when the search is off); any root found is counted
    in the margins. The certificate carries the design's robustness
    radius, robustness_bound(design), as robustness_eps_max.
    """
    _check_search_args(n_starts, seed)
    f, s, w, d = _error_terms(sys, design)
    w_min, w_max = _sym_extremes(w)
    hurwitz_ok = numlin.is_negative_definite_quadform(w)

    d_min, d_max = _sym_extremes(d)
    damping_strict = numlin.is_positive_definite(-d)
    damping_semi = numlin.is_positive_semidefinite(-d)

    if strict_damping is None:
        full_rank_s = _rank_of_sym(s) == sys.n
        mode = "strict" if (not design.synthesized or full_rank_s) else "semidefinite"
    else:
        mode = "strict" if strict_damping else "semidefinite"
    damping_ok = damping_strict if mode == "strict" else damping_semi

    margins = {
        "q_min_eig": float(np.linalg.eigvalsh(design.lyapunov_q)[0]),
        "spectral_abscissa": numlin.spectral_abscissa(f),
        "hurwitz_margin": -w_max,
        "damping_margin": -d_max,
        "damping_min_eig": d_min,
    }

    try:
        m = s @ np.linalg.solve(f, design.gain_nc @ sys.c)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"a - gain_lc c is singular, uniqueness test impossible: {exc}"
        ) from exc
    m_min, _ = _sym_extremes(m)
    uniqueness_ok = numlin.is_positive_semidefinite(0.5 * (m + m.T))
    margins["uniqueness_min_eig"] = m_min

    if equilibrium_search:
        roots = search_nonzero_equilibria(
            sys, design, n_starts=n_starts, seed=seed
        )
        margins["nonzero_equilibria_found"] = float(len(roots))

    return Certificate(
        hurwitz_ok=hurwitz_ok,
        damping_ok=damping_ok,
        damping_strict=damping_strict,
        damping_mode=mode,
        uniqueness_ok=uniqueness_ok,
        margins=margins,
        robustness_eps_max=robustness_bound(design),
    )


def _rank_of_sym(s):
    w = np.abs(np.linalg.eigvalsh(0.5 * (s + s.T)))
    if w.size == 0 or w[-1] == 0.0:
        return 0
    return int(np.count_nonzero(w > 1e-12 * w[-1]))


def robustness_bound(design):
    """Largest certified perturbation radius for a(eps) = a + eps*I.

    Equals lambda_min(q) / (2 lambda_max(p)). Scaling q (and hence p) by
    a positive constant leaves the bound unchanged.
    """
    q_min = float(np.linalg.eigvalsh(design.lyapunov_q)[0])
    p_max = float(np.linalg.eigvalsh(design.lyapunov_p)[-1])
    return q_min / (2.0 * p_max)


def feedback_certificate(
    sys,
    design,
    k,
    strict_damping=None,
    equilibrium_search=False,
    n_starts=100,
    seed=0,
):
    """Certify observer-based state feedback u = -k xhat around the design.

    Builds the composite quadratic form for the stacked (x, e) dynamics,

        [ (a-bk)^T p1 + p1 (a-bk)    p1 b k                       ]
        [ (b k)^T p1                 beta ((a-lc c)^T p + p (a-lc c)) ]

    with p1 solving (a-bk)^T p1 + p1 (a-bk) = -I and the observer block
    scaled by beta swept over {1, 10, ..., 1e8}; the first beta making the
    form negative definite certifies the loop (feedback_ok, feedback_beta).
    feedback_unscaled_ok records the unscaled (beta = 1) verdict, i.e. the
    same test expressed through the block-triangular composite matrix of
    the linear-observer loop. A False here only means this particular
    composite Lyapunov candidate failed, not that the loop is unstable.
    strict_damping, equilibrium_search, n_starts and seed go to the
    observer certificate from certify_stability.
    """
    k = numlin.as_matrix(k, "k")
    if k.shape != (sys.n_inputs, sys.n):
        raise DimensionError(
            f"k must have shape ({sys.n_inputs}, {sys.n}), got {k.shape}"
        )
    base = certify_stability(
        sys,
        design,
        strict_damping=strict_damping,
        equilibrium_search=equilibrium_search,
        n_starts=n_starts,
        seed=seed,
    )
    margins = dict(base.margins)

    acl = sys.a - sys.b @ k
    abscissa = numlin.spectral_abscissa(acl)
    margins["feedback_spectral_abscissa"] = abscissa
    if abscissa >= 0.0:
        return replace(
            base,
            margins=margins,
            feedback_ok=False,
            feedback_beta=None,
            feedback_unscaled_ok=False,
        )

    n = sys.n
    p1 = numlin.solve_lyapunov(acl, np.eye(n))
    top_left = acl.T @ p1 + p1 @ acl
    off = p1 @ sys.b @ k
    f, _, w_obs, _ = _error_terms(sys, design)

    feedback_ok = False
    feedback_beta = None
    best_max_eig = np.inf
    for beta in FEEDBACK_BETA_GRID:
        psi = np.block([[top_left, off], [off.T, beta * w_obs]])
        _, psi_max = _sym_extremes(psi)
        best_max_eig = min(best_max_eig, psi_max)
        if numlin.is_negative_definite_quadform(psi):
            feedback_ok = True
            feedback_beta = beta
            margins["feedback_psi_max_eig"] = psi_max
            break
    if not feedback_ok:
        margins["feedback_psi_max_eig"] = best_max_eig

    aa = np.block([[acl, sys.b @ k], [np.zeros((n, n)), f]])
    pa = np.block(
        [[p1, np.zeros((n, n))], [np.zeros((n, n)), design.lyapunov_p]]
    )
    g = aa.T @ pa + pa @ aa
    _, g_max = _sym_extremes(g)
    margins["feedback_unscaled_max_eig"] = g_max
    unscaled_ok = numlin.is_negative_definite_quadform(g)

    return replace(
        base,
        margins=margins,
        feedback_ok=feedback_ok,
        feedback_beta=feedback_beta,
        feedback_unscaled_ok=unscaled_ok,
    )


def error_field(sys, design):
    """Right-hand side of the estimation-error dynamics as a callable f(e).

    f takes one point, shape (n,), or a stack of points as rows, shape
    (S, n), and returns an array of the same shape. Each row is evaluated
    with fixed-order einsum reductions, not a BLAS product over the stack,
    so a row's bits do not depend on the rows around it.
    """
    f, s, _, _ = _error_terms(sys, design)
    nc = design.gain_nc
    c = sys.c

    def rhs(e):
        e = np.asarray(e, dtype=float)
        if e.ndim == 2:
            return _error_rows(f, s, nc, c, e)[0]
        return _error_rows(f, s, nc, c, e.reshape(1, -1))[0][0]

    return rhs


def _error_rows(f, s, nc, c, e):
    """Error field at the rows of e, (S, n), and the parts of its Jacobian.

    Returns (value, s e, e^T s e, nc c e), one row per row of e.
    """
    se = np.einsum("ij,sj->si", s, e)
    ese = np.einsum("si,si->s", e, se)
    ncce = np.einsum("ij,sj->si", nc, np.einsum("ij,sj->si", c, e))
    return np.einsum("ij,sj->si", f, e) + ese[:, None] * ncce, se, ese, ncce


def lyapunov_derivative_at(sys, design, e):
    """Evaluate dV/dt of V = e^T p e at a single error point.

    Returns (vdot_cubic, vdot_linear): the derivative along the cubic
    observer's error dynamics and along the linear observer's (the
    quadratic part alone). Their gap is the quartic damping the cubic
    correction buys at that point.
    """
    e = numlin.as_vector(e, "e")
    if e.size != sys.n:
        raise DimensionError(f"e must have {sys.n} entries, got {e.size}")
    _, s, w, d = _error_terms(sys, design)
    vdot_linear = float(e @ w @ e)
    vdot_cubic = vdot_linear + float(e @ s @ e) * float(e @ d @ e)
    return vdot_cubic, vdot_linear


def _check_search_args(n_starts, seed):
    """ContractError unless n_starts is a positive and seed a nonnegative int."""
    for name, value, least, kind in (
        ("n_starts", n_starts, 1, "positive"),
        ("seed", seed, 0, "nonnegative"),
    ):
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or value < least
        ):
            raise ContractError(f"{name} must be a {kind} integer, got {value!r}")


def _row_norms(v):
    return np.sqrt(np.einsum("si,si->s", v, v))


def _newton_steps(jac, value):
    """Solve jac[i] step[i] = -value[i] for every row i.

    Returns (step, ok): ok is False where LAPACK finds jac[i] singular, and
    that row of step is meaningless.
    """
    try:
        step = np.linalg.solve(jac, -value[:, :, None])[:, :, 0]
        return step, np.ones(len(value), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    # the stacked solve refuses the whole stack for one singular matrix
    step = np.zeros_like(value)
    ok = np.ones(len(value), dtype=bool)
    for i in range(len(value)):
        try:
            step[i] = np.linalg.solve(jac[i], -value[i])
        except np.linalg.LinAlgError:
            ok[i] = False
    return step, ok


def _damped_newton(rhs, jacobian, starts, threshold):
    """Damped Newton from every row of starts, (S, n), all rows together.

    rhs maps a stack of rows to their field values and jacobian to their
    (S, n, n) Jacobians, each row on its own. A row takes at most 60 Newton
    steps. It stops early once the norm of its field value is below
    threshold, when its Jacobian is singular, or when 40 halvings of its
    step all fail to reduce that norm; the other rows go on. Returns the
    final rows and their field values.
    """
    e = np.array(starts, dtype=float)
    value = rhs(e)
    norm = _row_norms(value)
    active = np.arange(len(e))
    for _ in range(60):
        active = active[~(norm[active] < threshold)]
        if not active.size:
            break
        step, ok = _newton_steps(jacobian(e[active]), value[active])
        rows, step = active[ok], step[ok]
        pending = np.arange(len(rows))
        alpha = 1.0
        for _ in range(40):
            if not pending.size:
                break
            trial = e[rows[pending]] + alpha * step[pending]
            trial_value = rhs(trial)
            trial_norm = _row_norms(trial_value)
            better = trial_norm < norm[rows[pending]]
            moved = rows[pending[better]]
            e[moved] = trial[better]
            value[moved] = trial_value[better]
            norm[moved] = trial_norm[better]
            pending = pending[~better]
            alpha *= 0.5
        active = np.delete(rows, pending)
    return e, value


def search_nonzero_equilibria(sys, design, n_starts=100, seed=0, tol=1e-10):
    """Damped-Newton search for nonzero equilibria of the error dynamics.

    A falsifier, not a prover: it reports any nonzero root it converges to
    from n_starts seeded random starts at several radii, and an empty list
    proves nothing. For certified designs it should come back empty.

    Each start draws a radius 10**uniform(-1, 1) and then a direction
    standard_normal(n) from default_rng(seed); n_starts must be a positive
    and seed a nonnegative integer (ContractError otherwise). All starts
    then run as one (n_starts, n) batch of damped-Newton iterations (see
    _damped_newton), with fixed-order einsum reductions and one LAPACK
    solve per row, so a start's path and root are the same bits whatever
    the batch holds: the first k starts of a larger search find exactly
    the roots the search with n_starts=k finds. A start counts as converged when its residual
    norm is below tol * max(1, max|a - lc c|). Roots are kept in start
    order, dropping any within 1e-6 of one already kept or of the origin.
    """
    _check_search_args(n_starts, seed)
    f, s, _, _ = _error_terms(sys, design)
    nc = design.gain_nc
    c = sys.c
    ncc = nc @ c

    def rhs(e):
        return _error_rows(f, s, nc, c, e)[0]

    def jacobian(e):
        _, se, ese, ncce = _error_rows(f, s, nc, c, e)
        jac = ncce[:, :, None] * (2.0 * se)[:, None, :]
        jac += f
        jac += ese[:, None, None] * ncc
        return jac

    rng = np.random.default_rng(seed)
    starts = np.empty((n_starts, sys.n))
    for row in starts:
        radius = 10.0 ** rng.uniform(-1.0, 1.0)
        row[:] = radius * rng.standard_normal(sys.n)
    threshold = tol * max(1.0, numlin.max_abs(f))
    e, value = _damped_newton(rhs, jacobian, starts, threshold)
    found = []
    for root in e[(_row_norms(value) < threshold) & (_row_norms(e) > 1e-6)]:
        if not any(np.linalg.norm(root - r) < 1e-6 for r in found):
            found.append(root.copy())
    return found
