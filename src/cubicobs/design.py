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

The damping mode is decided by the design, not chosen: the constructive
identity makes a synthesized gain's damping matrix -2 gamma c^T theta c,
rank deficient with fewer outputs than states, so a synthesized design takes
the semidefinite verdict where the strict one fails, and any other design,
whose nc nothing ties to p, the strict one; both are reported. Every boolean in
a certificate is backed by a named numerical margin, and each verdict is
read off the spectrum its margin reports: numlin.sym_spectrum decomposes
each form once, and numlin.is_positive_spectrum or is_negative_spectrum
gives the verdict. The certificates, the search and the error field read
an ErrorDynamics, which forms a - lc c, c^T theta c and the two Lyapunov
forms and takes each of their spectra once. A CubicObserverDesign checks
its parts against gain_lc, and check_pairing gain_lc against the plant.

Asked for an equilibrium search, certify_stability counts the nonzero
equilibria, which search_nonzero_equilibria computes exactly as the real
eigenpairs of the n_y x n_y matrix c (a - lc c)^{-1} nc, scaled, and bounds
them away in closed form. With w = f^T p + p f, s = e^T c^T theta c e and
E = p nc c + c^T nc^T p + 2 gamma c^T theta c,

    e^T p g(e) <= 1/2 lambda_max(w) |e|^2 + |E|_2^2 |e|^4 / (16 gamma)

along the error dynamics g, so no nonzero equilibrium lies within
R = sqrt(8 gamma (-lambda_max(w))) / |E|_2. For a synthesized gain E is the
rounding residual of the defining identity, evaluated in np.longdouble
with an a-priori rounding allowance (_exclusion_radius), and R is
astronomically large. The certificate reports
equilibrium_exclusion_radius = min(R, 1e12) next to the root count.
"""

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
# the cap on the reported equilibrium exclusion radius
STATE_NORM_LIMIT = 1e12
# the equilibrium set's relative tolerance: which eigenvalue of M is real,
# which candidate is a root, and when two roots or two eigenvalues are one
EQUILIBRIUM_TOL = 1e-6


@dataclass(frozen=True)
class CubicObserverDesign:
    """Cubic observer parameters together with their Lyapunov certificate data.

    gamma > 0 unless the design is the degenerate linear case (gain_nc = 0,
    gamma = 0), which is only produced by degenerate_linear(). synthesized
    records whether gain_nc came from the constructive rule, which decides
    the damping verdict's mode.
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
        n, n_y = lc.shape
        nc = numlin.as_matrix(self.gain_nc, "gain_nc", lc.shape)
        theta = numlin.symmetrize(self.theta, "theta", (n_y, n_y))
        if not numlin.is_positive_spectrum(numlin.sym_spectrum(theta), semidefinite=True):
            raise ContractError("theta must be symmetric positive semidefinite")
        gamma = float(self.gamma)
        if gamma < 0.0 or not np.isfinite(gamma):
            raise ContractError(f"gamma must be a nonnegative real, got {gamma}")
        if gamma == 0.0 and numlin.max_abs(nc) != 0.0:
            raise ContractError("gamma = 0 requires gain_nc = 0 (degenerate design)")
        p = numlin.symmetrize(self.lyapunov_p, "lyapunov_p", (n, n))
        q = numlin.symmetrize(self.lyapunov_q, "lyapunov_q", (n, n))
        p_spectrum = numlin.sym_spectrum(p)
        if not numlin.is_positive_spectrum(p_spectrum):
            raise ContractError("lyapunov_p must be positive definite")
        q_spectrum = numlin.sym_spectrum(q)
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
    def is_degenerate(self):
        return self.gamma == 0.0


@dataclass(frozen=True)
class Certificate:
    """Stability verdicts with the numerical margins that back them.

    damping_ok is the verdict of damping_mode, "strict" or "semidefinite",
    which the design decides (see certify_stability); damping_strict
    reports whether the strict verdict holds regardless.
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
    desired = numlin.as_array(desired, "desired poles", complex).reshape(-1)
    if desired.size != sys.n:
        raise DimensionError(f"need exactly {sys.n} desired poles, got {desired.size}")
    if not np.all(np.isfinite(desired)):
        raise ContractError("desired poles must be finite")
    _check_conjugate_closed(desired)

    coeffs = numlin.finite(np.poly(desired), "desired polynomial")
    if numlin.max_abs(coeffs.imag) > POLE_CONJUGACY_TOL * max(
        1.0, numlin.max_abs(coeffs.real)
    ):
        raise NumericalError("desired polynomial has a non-real coefficient")
    coeffs = coeffs.real

    a = sys.a
    n = sys.n
    obs = sysmodel.observability_matrix(sys)
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    # huge poles or a nearly unobservable c overflow phi(a), l or l c
    with numlin.refusing_overflow("pole placement"):
        phi = np.zeros((n, n))
        for ck in coeffs:  # Horner on the matrix argument
            phi = phi @ a + ck * np.eye(n)
        try:
            l = phi @ np.linalg.solve(obs, e_n)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"observability matrix is singular: {exc}") from exc
        # solve returns inf without raising
        closed = numlin.finite(a - l.reshape(n, 1) @ sys.c, "pole placement")

    achieved = numlin.eigenvalues(closed)
    target = np.sort_complex(desired)
    scale = max(1.0, float(np.max(np.abs(target))))
    err = float(np.max(np.abs(np.sort_complex(achieved) - target)))
    if err > PLACEMENT_TOL * scale:
        raise NumericalError(
            f"pole placement achieved eigenvalues off by {err:.3e}; "
            "the observability matrix is probably too ill-conditioned"
        )
    return l.reshape(n, 1)


@numlin.refusing_overflow("design")
def _build(sys, gain_lc, gain_nc, theta, gamma, q, synthesized):
    """The one path from observer parameters to a CubicObserverDesign.

    gain_nc=None synthesizes nc = -gamma p^{-1} c^T theta (gamma > 0). A
    scalar theta means theta * I; p solves the Lyapunov equation of
    f = a - lc c for q. An f or a synthesized gain that overflows is refused.
    """
    n_y = sys.n_outputs
    lc = numlin.as_columns(gain_lc, "gain_lc", (sys.n, n_y))
    gamma = float(gamma)
    if gain_nc is not None:
        gain_nc = numlin.as_columns(gain_nc, "gain_nc", (sys.n, n_y))
    elif not 0.0 < gamma < np.inf:
        raise ContractError(
            f"gamma must be strictly positive, got {gamma}; "
            "use degenerate_linear() for the zero-gain observer"
        )
    theta = numlin.as_array(theta, "theta")
    theta = theta * np.eye(n_y) if theta.ndim == 0 else theta
    theta = numlin.symmetrize(theta, "theta", (n_y, n_y))
    c = sys.c
    with numlin.refusing_overflow("a - gain_lc c"):
        f = sys.a - lc @ c
    try:
        p = numlin.solve_lyapunov(f, q)
    except DesignError as exc:  # solve_lyapunov's own Hurwitz check failed
        raise DesignError(
            "hurwitz condition violated: a - gain_lc c has spectral abscissa "
            f"{numlin.spectral_abscissa(f):.6g} >= 0"
        ) from exc
    if gain_nc is None:
        with numlin.refusing_overflow("constructive gain"):
            gain_nc = -gamma * np.linalg.solve(p, c.T @ theta)
            s = c.T @ theta @ c
            residual = numlin.max_abs(p @ gain_nc @ c + c.T @ gain_nc.T @ p + 2.0 * gamma * s)
        # not <=, so that a NaN residual is refused too
        if not residual <= GAIN_IDENTITY_RTOL * (1.0 + 2.0 * gamma * numlin.max_abs(s)):
            raise NumericalError(
                f"constructive-gain identity residual {residual:.3e} "
                f"exceeds {GAIN_IDENTITY_RTOL:.1e} relative tolerance"
            )
    return CubicObserverDesign(lc, gain_nc, theta, gamma, p, q, synthesized)


def synthesize_cubic_gain(sys, gain_lc, q, theta=None, gamma=1.0):
    """Build a cubic observer design with the constructive residual gain.

    Solves (a - lc c)^T p + p (a - lc c) = -q, then sets
    nc = -gamma p^{-1} c^T theta. theta may be a scalar (meaning
    theta * I) or an n_y x n_y symmetric positive semidefinite matrix;
    it defaults to the identity. gamma must be strictly positive; the
    zero-gain observer is available through degenerate_linear().
    The defining identity p nc c + c^T nc^T p = -2 gamma c^T theta c is
    verified to tight relative tolerance, and theta's semidefiniteness by
    CubicObserverDesign, before the design is returned.
    """
    theta = np.eye(sys.n_outputs) if theta is None else theta
    return _build(sys, gain_lc, None, theta, gamma, q, synthesized=True)


def degenerate_linear(sys, gain_lc, q):
    """The gamma -> 0 limit: a linear observer packaged as a cubic design.

    gain_nc and theta are zero, so simulation reproduces the linear
    observer bit for bit while the Lyapunov data (p, q) stays available
    for certificates and energy traces.
    """
    ny = sys.n_outputs
    return _build(sys, gain_lc, np.zeros((sys.n, ny)), np.zeros((ny, ny)), 0.0, q, True)


def explicit_cubic_design(sys, gain_lc, gain_nc, theta, q=None, gamma=1.0):
    """Package externally chosen gains (lc, nc) as a cubic design.

    p is solved from the Lyapunov equation with the given q (identity by
    default) so certificates and energy traces are available. No identity
    ties nc to p here, so certify_stability holds such designs to the
    strict damping test.
    """
    q = np.eye(sys.n) if q is None else q
    return _build(sys, gain_lc, gain_nc, theta, gamma, q, synthesized=False)


def check_pairing(sys, design):
    """ContractError unless design is a CubicObserverDesign, DimensionError
    unless its gain_lc, and so every part of it, fits sys."""
    if not isinstance(design, CubicObserverDesign):
        raise ContractError(f"unsupported design type {type(design).__name__}")
    numlin.as_matrix(design.gain_lc, "gain_lc", (sys.n, sys.n_outputs))


@dataclass(frozen=True)
class ErrorDynamics:
    """The error dynamics de/dt = f e + (e^T s e) nc c e of a design on a
    plant, with the forms and spectra every certificate reads.

    Built with f = a - lc c, s = c^T theta c, the quadratic Lyapunov form
    w = f^T p + p f and the damping form d = p nc c + c^T nc^T p, all
    read-only, after check_pairing. w_spectrum and d_spectrum, the ascending
    eigenvalues of the symmetric parts of w and d, abscissa, the spectral
    abscissa of f, and g = f^{-1} nc are computed on first use and kept.
    """

    sys: sysmodel.LinearSystem
    design: CubicObserverDesign

    def __post_init__(self):
        check_pairing(self.sys, self.design)
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

    def field(self, e):
        """The error field f e + (e^T s e) nc c e at one point e, (n,)."""
        return self.f @ e + float(e @ self.s @ e) * (self.design.gain_nc @ (self.sys.c @ e))

    @cached_property
    def w_spectrum(self):
        return numlin.sym_spectrum(self.w)

    @cached_property
    def d_spectrum(self):
        return numlin.sym_spectrum(self.d)

    @cached_property
    def abscissa(self):
        return numlin.spectral_abscissa(self.f)

    @cached_property
    def g(self):
        """G = f^{-1} nc: NumericalError when f is singular or G overflows."""
        try:
            g = np.linalg.solve(self.f, self.design.gain_nc)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"a - gain_lc c is singular, equilibrium search impossible: {exc}"
            ) from exc
        return numlin.finite(g, "equilibrium search")  # solve returns inf without raising


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
    R is of order one. gain_nc = 0 gives D = 0 and R = inf; w_max >= 0 gives
    R = 0.

    The bound is rigorous for the float64 data of the design. H is
    evaluated in np.longdouble and enlarged by the rounding allowance
    gamma_k (|p| |nc| + gamma |c^T| |theta|) of that format's np.finfo
    epsilon, so where longdouble is a plain double R comes out smaller but
    still valid. w_max is raised by the float64 error of forming f and w;
    the eigenvalue and singular-value solvers are allowed a generous
    relative error of 8 n^2 u.
    """
    sys, design, f, w = dyn.sys, dyn.design, dyn.f, dyn.w
    p, nc, theta, gamma = design.lyapunov_p, design.gain_nc, design.theta, design.gamma
    c = sys.c
    n_y, n = c.shape
    eps = float(np.finfo(float).eps)
    solver = _rounding(8 * n * n, eps)
    f_err = _rounding(n_y + 1, eps) * (_frob(sys.a) + _frob(design.gain_lc) * _frob(c))
    w_err = 2.0 * _frob(p) * (f_err + _rounding(n + 1, eps) * _frob(f))
    w_err += solver * _frob(w)
    w_max = float(dyn.w_spectrum[-1]) + 2.0 * w_err
    if not w_max < 0.0:  # an allowance that overflowed to inf or NaN proves nothing
        return 0.0
    if not np.any(nc):
        return np.inf
    ld = np.longdouble
    h = p.astype(ld) @ nc.astype(ld) + ld(gamma) * (c.T.astype(ld) @ theta.astype(ld))
    h_err = _rounding(n + n_y + 2, np.finfo(ld).eps) * (
        np.abs(p) @ np.abs(nc) + gamma * (np.abs(c.T) @ np.abs(theta))
    )
    h_norm = np.linalg.norm(h.astype(float), 2) * (1.0 + solver) + 2.0 * _frob(h_err)
    e_norm = 2.0 * h_norm * np.linalg.norm(c, 2) * (1.0 + solver)
    # covers the float64 roundings of this bound's own arithmetic
    slack = _rounding(4 * n * (n_y + 1) + 16, eps)
    # ignored, not raised: a ratio that overflows, or e_norm = 0, is R = inf
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.sqrt(8.0 * gamma * -w_max) / e_norm) * (1.0 - slack)


def _frob(m):
    """np.linalg.norm(m), bit for bit, on m scaled by a power of two so its
    squares cannot overflow or underflow; a Python float (which saturates to
    inf without a flag) for float64 m, a np.longdouble for np.longdouble m."""
    k = np.frexp(numlin.max_abs(m))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(m, -k)), k).item()


@numlin.refusing_overflow("certificate")
def certify_stability(sys, design, equilibrium_search=False):
    """Evaluate the stability conditions for a cubic observer design.

    The design decides the damping mode: a synthesized design takes the
    strict negative-definite test when it passes it and the semidefinite
    one otherwise, and any other design the strict test. With
    equilibrium_search=True the margins gain equilibrium_exclusion_radius,
    min(R, STATE_NORM_LIMIT) for the closed-form radius R of
    _exclusion_radius, inside which the origin is the only equilibrium, and
    nonzero_equilibria_found, the length of search_nonzero_equilibria's
    exact set. Where that set represents a continuum, the margins
    also gain nonzero_equilibria_continuum, the dimension of the largest
    eigenspace that holds one (see _continuum). The certificate carries the
    design's robustness radius, robustness_bound(design), as
    robustness_eps_max. Every margin and verdict reads one ErrorDynamics.
    """
    dyn = ErrorDynamics(sys, design)
    w_spectrum, d_spectrum = dyn.w_spectrum, dyn.d_spectrum
    hurwitz_ok = numlin.is_negative_spectrum(w_spectrum)
    # the spectrum of -d, which the damping tests read
    minus_d = -d_spectrum[::-1]
    damping_strict = numlin.is_positive_spectrum(minus_d)
    if damping_strict or not design.synthesized:
        mode, damping_ok = "strict", damping_strict
    else:
        mode, damping_ok = "semidefinite", numlin.is_positive_spectrum(minus_d, semidefinite=True)

    margins = {
        "q_min_eig": float(design.q_spectrum[0]),
        "spectral_abscissa": dyn.abscissa,
        "hurwitz_margin": -float(w_spectrum[-1]),
        "damping_margin": -float(d_spectrum[-1]),
        "damping_min_eig": float(d_spectrum[0]),
    }

    try:
        with numlin.refusing_overflow("uniqueness test"):
            m = dyn.s @ np.linalg.solve(dyn.f, design.gain_nc @ sys.c)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"a - gain_lc c is singular, uniqueness test impossible: {exc}"
        ) from exc
    m_spectrum = numlin.sym_spectrum(m)
    uniqueness_ok = numlin.is_positive_spectrum(m_spectrum, semidefinite=True)
    margins["uniqueness_min_eig"] = float(m_spectrum[0])

    if equilibrium_search:
        roots = search_nonzero_equilibria(sys, design)
        margins["nonzero_equilibria_found"] = float(len(roots))
        dimension = _continuum(dyn, roots) if roots else 0
        if dimension > 1:
            margins["nonzero_equilibria_continuum"] = float(dimension)
        margins["equilibrium_exclusion_radius"] = min(_exclusion_radius(dyn), STATE_NORM_LIMIT)

    return Certificate(
        hurwitz_ok=hurwitz_ok,
        damping_ok=damping_ok,
        damping_strict=damping_strict,
        damping_mode=mode,
        uniqueness_ok=uniqueness_ok,
        margins=margins,
        robustness_eps_max=robustness_bound(design),
    )


def robustness_bound(design):
    """Largest certified perturbation radius for a(eps) = a + eps*I.

    Equals lambda_min(q) / (2 lambda_max(p)), from the spectra the design
    keeps. Scaling q (and hence p) by a positive constant leaves the bound
    unchanged.
    """
    return float(design.q_spectrum[0]) / (2.0 * float(design.p_spectrum[-1]))


@numlin.refusing_overflow("feedback certificate")
def feedback_certificate(sys, design, k, equilibrium_search=False):
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
    The observer certificate, its damping mode included, is
    certify_stability's, which equilibrium_search goes to.
    """
    k = numlin.as_matrix(k, "k", (sys.n_inputs, sys.n))
    base = certify_stability(sys, design, equilibrium_search)
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
        psi_spectrum = numlin.sym_spectrum(psi)
        psi_max = float(psi_spectrum[-1])
        best_max_eig = min(best_max_eig, psi_max)
        if numlin.is_negative_spectrum(psi_spectrum):
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
    g_spectrum = numlin.sym_spectrum(g)
    margins["feedback_unscaled_max_eig"] = float(g_spectrum[-1])
    unscaled_ok = numlin.is_negative_spectrum(g_spectrum)

    return replace(
        base,
        margins=margins,
        feedback_ok=feedback_ok,
        feedback_beta=feedback_beta,
        feedback_unscaled_ok=unscaled_ok,
    )


def error_field(sys, design):
    """Right-hand side of the estimation-error dynamics as a callable f(e).

    f takes one finite point e of shape (n,), checked by numlin.as_vector,
    and returns f e + (e^T c^T theta c e) nc c e, shape (n,).
    """
    dyn = ErrorDynamics(sys, design)

    def rhs(e):
        return dyn.field(numlin.as_vector(e, "e", sys.n))

    return rhs


@numlin.refusing_overflow("Lyapunov derivative")
def lyapunov_derivative_at(sys, design, e):
    """Evaluate dV/dt of V = e^T p e at a single error point.

    Returns (vdot_cubic, vdot_linear): the derivative along the cubic
    observer's error dynamics and along the linear observer's (the
    quadratic part alone). Their gap is the quartic damping the cubic
    correction buys at that point.
    """
    e = numlin.as_vector(e, "e", sys.n)
    dyn = ErrorDynamics(sys, design)
    vdot_linear = float(e @ dyn.w @ e)
    vdot_cubic = vdot_linear + float(e @ dyn.s @ e) * float(e @ dyn.d @ e)
    return vdot_cubic, vdot_linear


@numlin.refusing_overflow("equilibrium search")
def search_nonzero_equilibria(sys, design):
    """Every nonzero equilibrium of the error dynamics, in closed form.

    An equilibrium e != 0 has f e = -s nc r with r = c e and s = r^T theta r,
    so r != 0 as f is invertible, and with G = f^{-1} nc and M = c G

        e = -s G r,   M r = lambda r,   s = -1 / lambda.

    The nonzero equilibria are exactly these points over the real eigenpairs
    (lambda, v) of M with lambda v^T theta v < 0, where r = +-t v and
    t^2 = -1 / (lambda v^T theta v). With one output M is a number m, and
    roots exist iff m theta < 0, which is the paper's uniqueness test. One
    np.linalg.solve gives G and one np.linalg.eig the eigenpairs of M. A
    singular f is a NumericalError, and so is an overflow ("equilibrium
    search overflows").

    Three rules read the relative tolerance tol = EQUILIBRIUM_TOL:

      real  an eigenvalue counts as real when |Im lambda| <= tol |lambda|;
            Re lambda and the real part of its eigenvector stand for it.
      root  a candidate e is kept only when its field value is at most
            tol max(|f| |e|), the size of the terms of f e that the cubic
            term cancels, so no false root is reported.
      same  a candidate within tol |e| (max norm) of a kept root is that
            root: the conjugate of a lambda that counts as real gives one,
            and so does the second eigenvector of a defective lambda.

    An eigenspace of dimension k >= 2 holds a continuum of equilibria: every
    r in it with r^T theta r = -1 / lambda. The list then holds a pair per
    eigenvector eig returns there (none where theta vanishes on it), and
    certify_stability reports k as nonzero_equilibria_continuum. Roots come
    as pairs e, -e.
    """
    dyn = ErrorDynamics(sys, design)
    eigenvalues, eigenvectors = np.linalg.eig(sys.c @ dyn.g)
    roots = []
    for lam, v in zip(eigenvalues, eigenvectors.T.real):
        k = lam.real * float(v @ design.theta @ v)
        if abs(lam.imag) > EQUILIBRIUM_TOL * abs(lam) or not k < 0.0:
            continue
        e = np.sqrt(-1.0 / k) * (dyn.g @ v) / lam.real
        # the field is odd bit for bit, as negation is exact through every
        # product and sum, so -e passes the root rule exactly when e does
        scale = EQUILIBRIUM_TOL * numlin.max_abs(np.abs(dyn.f) @ np.abs(e))
        if not numlin.max_abs(dyn.field(e)) <= scale:
            continue
        for root in (e, -e):
            same = EQUILIBRIUM_TOL * numlin.max_abs(root)
            if not any(numlin.max_abs(root - kept) <= same for kept in roots):
                roots.append(root)
    return roots


def _continuum(dyn, roots):
    """The dimension of the largest eigenspace of M = c f^{-1} nc that holds
    one of roots, the nonzero equilibria of dyn: the nullity of M - lambda I
    at each root's lambda = -1 / (r^T theta r), r = c e, as the number of
    its singular values at most EQUILIBRIUM_TOL max|M|. Above 1, the roots
    there represent a continuum of equilibria.
    """
    c, theta = dyn.sys.c, dyn.design.theta
    m = c @ dyn.g
    dimension = 0
    for r in np.array(roots) @ c.T:
        singular = np.linalg.svd(m + np.eye(len(m)) / float(r @ theta @ r), compute_uv=False)
        dimension = max(dimension, int(np.sum(singular <= EQUILIBRIUM_TOL * numlin.max_abs(m))))
    return dimension
