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
a certificate is backed by a named numerical margin, and each verdict is
read off the spectrum its margin reports. The certificates, the search and
the error field read an ErrorDynamics, which forms a - lc c, c^T theta c
and the two Lyapunov forms and takes each of their spectra once.

Asked for an equilibrium search, certify_stability first bounds the
equilibria away in closed form. With w = f^T p + p f, s = e^T c^T theta c e
and E = p nc c + c^T nc^T p + 2 gamma c^T theta c,

    e^T p g(e) <= 1/2 lambda_max(w) |e|^2 + |E|_2^2 |e|^4 / (16 gamma)

along the error dynamics g, so no nonzero equilibrium lies within
R = sqrt(8 gamma (-lambda_max(w))) / |E|_2. For a synthesized gain E is the
rounding residual of the defining identity, evaluated in np.longdouble
with an a-priori rounding allowance (_exclusion_radius), and R is
astronomically large. The damped-Newton search runs only when
R < STATE_NORM_LIMIT (1e12), and the certificate reports
equilibrium_exclusion_radius = min(R, 1e12) next to the root count.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

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
# state norm beyond which a simulated trajectory counts as diverged, and
# the exclusion radius beyond which the equilibrium search is not run
STATE_NORM_LIMIT = 1e12


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
    # ascending eigenvalues of lyapunov_p and lyapunov_q, from the checks below
    p_spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    q_spectrum: np.ndarray = field(init=False, repr=False, compare=False)

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
        p_spectrum = numlin.sym_eigenvalues(p)
        if not numlin.is_positive_spectrum(p_spectrum):
            raise ContractError("lyapunov_p must be positive definite")
        q_spectrum = numlin.sym_eigenvalues(q)
        if not numlin.is_positive_spectrum(q_spectrum):
            raise ContractError("lyapunov_q must be positive definite")
        for name, arr in (
            ("gain_lc", lc),
            ("gain_nc", nc),
            ("theta", theta),
            ("lyapunov_p", p),
            ("lyapunov_q", q),
            ("p_spectrum", p_spectrum),
            ("q_spectrum", q_spectrum),
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

    Returns (p, q) with q symmetrized, as a design stores them. The check is
    solve_lyapunov's own; the spectral abscissa is computed only for the
    message when it fails.
    """
    f = sys.a - lc @ sys.c
    try:
        p = numlin.solve_lyapunov(f, q)
    except DesignError as exc:  # solve_lyapunov's own Hurwitz check failed
        raise DesignError(
            "hurwitz condition violated: a - gain_lc c has spectral abscissa "
            f"{numlin.spectral_abscissa(f):.6g} >= 0"
        ) from exc
    return p, numlin.symmetrize(q, "q")


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


def _sym_spectrum(m):
    """Ascending eigenvalues of the symmetric part of m; ContractError when
    that is not finite, as the numlin definiteness tests give."""
    sym = 0.5 * (m + m.T)
    if not np.isfinite(sym).all():
        raise ContractError("matrix contains non-finite entries")
    return np.linalg.eigvalsh(sym)


def _negative_quadform(spectrum):
    """numlin.is_negative_definite_quadform(m) from the spectrum of m's
    symmetric part. That test's spectrum, of -(m + m^T), is this one times
    -2 and reversed: an exact scaling, which the eigensolver reproduces to
    a few ulps, far inside the definiteness tolerance."""
    return numlin.is_positive_spectrum(-2.0 * spectrum[::-1])


@dataclass(frozen=True)
class ErrorDynamics:
    """The error dynamics de/dt = f e + (e^T s e) nc c e of a design on a
    plant, with the forms and spectra every certificate reads.

    Built with f = a - lc c, s = c^T theta c, the quadratic Lyapunov form
    w = f^T p + p f and the damping form d = p nc c + c^T nc^T p, all
    read-only. w_spectrum and d_spectrum, the ascending eigenvalues of the
    symmetric parts of w and d, and abscissa, the spectral abscissa of f,
    are computed on first use and kept.
    """

    sys: sysmodel.LinearSystem
    design: CubicObserverDesign

    def __post_init__(self):
        c, p, nc = self.sys.c, self.design.lyapunov_p, self.design.gain_nc
        f = self.sys.a - self.design.gain_lc @ c
        for name, value in (
            ("f", f),
            ("s", c.T @ self.design.theta @ c),
            ("w", f.T @ p + p @ f),
            ("d", p @ nc @ c + c.T @ nc.T @ p),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def rows(self, e):
        """The error field at the rows of e, (S, n); see _error_rows."""
        return _error_rows(self.f, self.s, self.design.gain_nc, self.sys.c, e)

    @cached_property
    def w_spectrum(self):
        return _sym_spectrum(self.w)

    @cached_property
    def d_spectrum(self):
        return _sym_spectrum(self.d)

    @cached_property
    def abscissa(self):
        return numlin.spectral_abscissa(self.f)


def _rounding(k, eps):
    """gamma_k = k u / (1 - k u) with u = eps / 2: the relative error bound
    of k successive roundings, e.g. a k-term dot product, in a float format
    with machine epsilon eps (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1)."""
    u = 0.5 * eps
    return k * u / (1.0 - k * u)


def _exclusion_radius(dyn):
    """A radius R such that no nonzero equilibrium of the error dynamics
    dyn (an ErrorDynamics) lies in 0 < |e|_2 < R: inf when the origin is
    proved the only one, 0 when nothing is proved.

    With s = e^T S e and E = D + 2 gamma S, the Lyapunov derivative along
    g(e) = f e + s nc c e is

        e^T p g(e) = 1/2 e^T W e + 1/2 s (-2 gamma s + e^T E e)
                  <= 1/2 w_max |e|^2 + |E|_2^2 |e|^4 / (16 gamma),

    the bound being the maximum over every real s, so S need not be
    semidefinite. Where it is negative g(e) != 0, which holds for
    0 < |e| < R = sqrt(8 gamma (-w_max)) / |E|_2 when w_max < 0. Here
    E = H c + c^T H^T with H = p nc + gamma c^T theta, the residual of the
    constructive-gain identity, so |E|_2 <= 2 |H|_2 |c|_2: for a
    synthesized gain H is rounding-sized and R huge, for an explicit gain
    R is of order one. gain_nc = 0 gives D = 0 and R = inf; w_max >= 0, or
    gamma <= 0 with a nonzero gain, gives R = 0.

    The bound is rigorous for the float64 data of the design. H is
    evaluated in np.longdouble and enlarged by the rounding allowance
    gamma_k (|p| |nc| + gamma |c^T| |theta|) of that format's np.finfo
    epsilon, so where longdouble is a plain double R comes out smaller but
    still valid. w_max is raised by the float64 error of forming f and w;
    the eigenvalue and singular-value solvers are allowed a generous
    relative error of 8 n^2 u.
    """
    sys, design, f, w = dyn.sys, dyn.design, dyn.f, dyn.w
    nc = design.gain_nc
    p = design.lyapunov_p
    theta = design.theta
    gamma = design.gamma
    c = sys.c
    n_y, n = c.shape
    eps = np.finfo(float).eps
    frob = np.linalg.norm
    solver = _rounding(8 * n * n, eps)
    f_err = _rounding(n_y + 1, eps) * (frob(sys.a) + frob(design.gain_lc) * frob(c))
    w_err = 2.0 * frob(p) * (f_err + _rounding(n + 1, eps) * frob(f))
    w_err += solver * frob(w)
    w_max = float(dyn.w_spectrum[-1]) + 2.0 * w_err
    if w_max >= 0.0:
        return 0.0
    if not np.any(nc):
        return np.inf
    if gamma <= 0.0:
        return 0.0
    ld = np.longdouble
    h = p.astype(ld) @ nc.astype(ld) + ld(gamma) * (c.T.astype(ld) @ theta.astype(ld))
    h_err = _rounding(n + n_y + 2, np.finfo(ld).eps) * (
        np.abs(p) @ np.abs(nc) + gamma * (np.abs(c.T) @ np.abs(theta))
    )
    h_norm = np.linalg.norm(h.astype(float), 2) * (1.0 + solver) + 2.0 * frob(h_err)
    e_norm = 2.0 * h_norm * np.linalg.norm(c, 2) * (1.0 + solver)
    # covers the float64 roundings of this bound's own arithmetic
    slack = _rounding(4 * n * (n_y + 1) + 16, eps)
    return float(np.sqrt(8.0 * gamma * -w_max) / e_norm) * (1.0 - slack)


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
    equilibrium_search=True the margins gain equilibrium_exclusion_radius,
    min(R, STATE_NORM_LIMIT) for the closed-form radius R of
    _exclusion_radius, inside which the origin is the only equilibrium, and
    nonzero_equilibria_found. Where R < STATE_NORM_LIMIT (1e12) a seeded
    damped-Newton search for nonzero equilibria runs as an extra falsifier
    from n_starts starts drawn from seed, and the roots it finds are
    counted; otherwise the count is 0 without a search. n_starts and seed
    must be a positive and a nonnegative integer, checked even when the
    search is off. The certificate carries the design's robustness radius,
    robustness_bound(design), as robustness_eps_max. Every margin and
    verdict reads one ErrorDynamics.
    """
    _check_search_args(n_starts, seed)
    dyn = ErrorDynamics(sys, design)
    w_spectrum, d_spectrum = dyn.w_spectrum, dyn.d_spectrum
    hurwitz_ok = _negative_quadform(w_spectrum)
    # the spectrum of -d, which the damping tests read
    minus_d = -d_spectrum[::-1]
    damping_strict = numlin.is_positive_spectrum(minus_d)
    damping_semi = numlin.is_positive_spectrum(minus_d, semidefinite=True)

    if strict_damping is None:
        full_rank_s = _rank_of_sym(dyn.s) == sys.n
        mode = "strict" if (not design.synthesized or full_rank_s) else "semidefinite"
    else:
        mode = "strict" if strict_damping else "semidefinite"
    damping_ok = damping_strict if mode == "strict" else damping_semi

    margins = {
        "q_min_eig": float(design.q_spectrum[0]),
        "spectral_abscissa": dyn.abscissa,
        "hurwitz_margin": -float(w_spectrum[-1]),
        "damping_margin": -float(d_spectrum[-1]),
        "damping_min_eig": float(d_spectrum[0]),
    }

    try:
        m = dyn.s @ np.linalg.solve(dyn.f, design.gain_nc @ sys.c)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"a - gain_lc c is singular, uniqueness test impossible: {exc}"
        ) from exc
    m_spectrum = _sym_spectrum(m)
    uniqueness_ok = numlin.is_positive_spectrum(m_spectrum, semidefinite=True)
    margins["uniqueness_min_eig"] = float(m_spectrum[0])

    if equilibrium_search:
        radius = _exclusion_radius(dyn)
        found = 0
        if radius < STATE_NORM_LIMIT:
            roots = search_nonzero_equilibria(sys, design, n_starts=n_starts, seed=seed)
            found = len(roots)
        margins["nonzero_equilibria_found"] = float(found)
        margins["equilibrium_exclusion_radius"] = min(radius, STATE_NORM_LIMIT)

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
    w = np.abs(_sym_spectrum(s))
    if w.size == 0 or w[-1] == 0.0:
        return 0
    return int(np.count_nonzero(w > 1e-12 * w[-1]))


def robustness_bound(design):
    """Largest certified perturbation radius for a(eps) = a + eps*I.

    Equals lambda_min(q) / (2 lambda_max(p)), from the spectra the design
    keeps. Scaling q (and hence p) by a positive constant leaves the bound
    unchanged.
    """
    return float(design.q_spectrum[0]) / (2.0 * float(design.p_spectrum[-1]))


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
    dyn = ErrorDynamics(sys, design)

    feedback_ok = False
    feedback_beta = None
    best_max_eig = np.inf
    for beta in FEEDBACK_BETA_GRID:
        psi = np.block([[top_left, off], [off.T, beta * dyn.w]])
        psi_spectrum = _sym_spectrum(psi)
        psi_max = float(psi_spectrum[-1])
        best_max_eig = min(best_max_eig, psi_max)
        if _negative_quadform(psi_spectrum):
            feedback_ok = True
            feedback_beta = beta
            margins["feedback_psi_max_eig"] = psi_max
            break
    if not feedback_ok:
        margins["feedback_psi_max_eig"] = best_max_eig

    aa = np.block([[acl, sys.b @ k], [np.zeros((n, n)), dyn.f]])
    pa = np.block(
        [[p1, np.zeros((n, n))], [np.zeros((n, n)), design.lyapunov_p]]
    )
    g = aa.T @ pa + pa @ aa
    g_spectrum = _sym_spectrum(g)
    margins["feedback_unscaled_max_eig"] = float(g_spectrum[-1])
    unscaled_ok = _negative_quadform(g_spectrum)

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
    dyn = ErrorDynamics(sys, design)

    def rhs(e):
        e = np.asarray(e, dtype=float)
        if e.ndim == 2:
            return dyn.rows(e)
        return dyn.rows(e.reshape(1, -1))[0]

    return rhs


def _error_parts(s, c, e):
    """(c e, s e, e^T s e) at the rows of e, (S, n), one row per row of e."""
    se = np.einsum("ij,sj->si", s, e)
    return np.einsum("ij,sj->si", c, e), se, np.einsum("si,si->s", e, se)


def _error_rows(f, s, nc, c, e):
    """Error field f e + (e^T s e) nc c e at the rows of e, (S, n)."""
    ce, _, ese = _error_parts(s, c, e)
    ncce = np.einsum("ij,sj->si", nc, ce)
    return np.einsum("ij,sj->si", f, e) + ese[:, None] * ncce


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
    dyn = ErrorDynamics(sys, design)
    vdot_linear = float(e @ dyn.w @ e)
    vdot_cubic = vdot_linear + float(e @ dyn.s @ e) * float(e @ dyn.d @ e)
    return vdot_cubic, vdot_linear


def _check_search_args(n_starts, seed, tol=1e-10):
    """ContractError unless n_starts is a positive and seed a nonnegative
    int and tol a finite positive real (by default the search's own)."""
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
    if (
        isinstance(tol, bool)
        or not isinstance(tol, numbers.Real)
        or not 0 < tol < math.inf
    ):
        raise ContractError(f"tol must be a finite positive real, got {tol!r}")


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


def _low_rank_newton(f, s, nc, c):
    """Newton steps of the error field by the Woodbury identity.

    The field f e + (e^T s e) nc c e has the Jacobian J(e) = f + nc m(e),
    m(e) = 2 (c e)(s e)^T + (e^T s e) c, a rank-p change of f (p outputs).
    With g = f^{-1} nc and w = -f^{-1} v, the step solving J(e) step = -v
    is w - g (I_p + m(e) g)^{-1} m(e) w: O(n^2 + n p) per row and one
    stacked (S, p, p) solve, instead of an n x n LU per row. I_p + m(e) g
    is singular exactly when J(e) is. f must be invertible (NumericalError
    otherwise); it is Hurwitz for every design the toolkit builds.

    Returns step(e, value) -> (step, ok) over rows, as _damped_newton takes.
    """
    try:
        f_inv = np.linalg.inv(f)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"a - gain_lc c is singular, equilibrium search impossible: {exc}"
        ) from exc
    g = f_inv @ nc
    cg = c @ g

    def step(e, value):
        ce, se, ese = _error_parts(s, c, e)
        w = -np.einsum("ij,sj->si", f_inv, value)
        mw = 2.0 * np.einsum("si,si->s", se, w)[:, None] * ce
        mw += ese[:, None] * np.einsum("ij,sj->si", c, w)
        capacitance = (2.0 * ce)[:, :, None] * np.einsum("si,ij->sj", se, g)[:, None, :]
        capacitance += ese[:, None, None] * cg
        capacitance += np.eye(len(cg))
        # z = -(I_p + m g)^{-1} m w, so the step is w + g z
        z, ok = _newton_steps(capacitance, mw)
        return w + np.einsum("ij,sj->si", g, z), ok

    return step


def _damped_newton(rhs, step, starts, threshold):
    """Damped Newton from every row of starts, (S, n), all rows together.

    rhs maps a stack of rows to their field values, and step maps rows and
    their values to (Newton steps, ok), ok False where a row's Jacobian is
    singular; both treat each row on its own. A row takes at most 60
    Newton steps. It stops early once the norm of its field value is below
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
        direction, ok = step(e[active], value[active])
        rows, direction = active[ok], direction[ok]
        pending = np.arange(len(rows))
        alpha = 1.0
        for _ in range(40):
            if not pending.size:
                break
            trial = e[rows[pending]] + alpha * direction[pending]
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
    proves nothing. For certified designs it should come back empty, and
    certify_stability calls it only when _exclusion_radius cannot prove
    the origin the only equilibrium out to 1e12; called directly, it
    always searches. No root it returns lies inside _exclusion_radius.

    Each start draws a radius 10**uniform(-1, 1) and then a direction
    standard_normal(n) from default_rng(seed); n_starts must be a positive
    and seed a nonnegative integer (ContractError otherwise). All starts
    then run as one (n_starts, n) batch of damped-Newton iterations (see
    _damped_newton). Each step uses the Woodbury form of the Jacobian's
    inverse, a rank-p change of a - lc c (see _low_rank_newton), so a step
    is one stacked (n_starts, p, p) solve, not an n x n LU per start; a - lc c
    must be invertible (NumericalError otherwise). Fixed-order einsum
    reductions and one LAPACK solve per row keep a start's path and root
    the same bits whatever the batch holds: the first k starts of a larger
    search find exactly the roots the search with n_starts=k finds. A start
    counts as converged when its residual norm is below
    tol * max(1, max|a - lc c|); tol must be a finite positive real
    (ContractError otherwise). Roots are kept in start order, dropping
    any within 1e-6 of one already kept or of the origin.
    """
    _check_search_args(n_starts, seed, tol)
    dyn = ErrorDynamics(sys, design)
    step = _low_rank_newton(dyn.f, dyn.s, design.gain_nc, sys.c)
    rng = np.random.default_rng(seed)
    starts = np.empty((n_starts, sys.n))
    for row in starts:
        radius = 10.0 ** rng.uniform(-1.0, 1.0)
        row[:] = radius * rng.standard_normal(sys.n)
    threshold = tol * max(1.0, numlin.max_abs(dyn.f))
    e, value = _damped_newton(dyn.rows, step, starts, threshold)
    found = []
    for root in e[(_row_norms(value) < threshold) & (_row_norms(e) > 1e-6)]:
        if not any(np.linalg.norm(root - r) < 1e-6 for r in found):
            found.append(root.copy())
    return found
