"""Dense real-matrix numerics for small systems.

Everything here targets the matrix sizes that occur in observer design
(n up to a few tens, and the Lyapunov solve well beyond). Routines prefer
clear failure over silent garbage: they validate shapes, reject non-finite
input, and cross-check their own results (Lyapunov residual,
definiteness) before returning.

solve_lyapunov picks its algorithm by size. Up to LYAPUNOV_DIRECT_MAX_N it
solves the n^2 x n^2 Kronecker system, O(n^6) but the fastest at small n;
above it it runs the scaled Newton sign iteration, O(n^3) per iteration.
Both paths end in the same residual and definiteness checks.

Matrices are plain float64 ndarrays in row-major semantic order; vectors
are 1-D arrays. Definiteness checks use relative tolerances so they behave
the same for Q and 1000*Q.
"""

import numpy as np

from .errors import ContractError, DesignError, DimensionError, NumericalError

# relative tolerance for accepting a matrix as symmetric
SYMMETRY_RTOL = 1e-9
# relative eigenvalue tolerance for definiteness verdicts
DEFINITENESS_TOL = 1e-10
# accepted relative residual of a Lyapunov solution
LYAPUNOV_RESIDUAL_RTOL = 1e-8
# largest n solved through the Kronecker system: with one BLAS thread it is
# faster than the sign iteration up to here, slower above (BENCH_7.json)
LYAPUNOV_DIRECT_MAX_N = 11
# the sign iteration stops once an iterate moves less than this, relative
# to its 1-norm; convergence is quadratic, so the next error is ~rtol^2
LYAPUNOV_SIGN_RTOL = 1e-8
# iterations before the sign iteration gives up; the tested inputs at
# n = 12..128 take 4 to 16
LYAPUNOV_SIGN_MAX_ITER = 100


def as_matrix(values, name="matrix"):
    """Coerce to a finite 2-D float64 array, failing loudly otherwise."""
    m = np.array(values, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractError(f"{name} contains non-finite entries")
    return m


def as_vector(values, name="vector"):
    """Coerce to a finite 1-D float64 array."""
    v = np.array(values, dtype=float).reshape(-1)
    if v.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ContractError(f"{name} contains non-finite entries")
    return v


def require_square(m, name="matrix"):
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def max_abs(m):
    """Largest absolute entry; zero for empty input."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def symmetrize(s, name="matrix", rtol=SYMMETRY_RTOL):
    """Return the symmetric part of s after checking s is symmetric to rtol.

    The check is relative: max|s - s^T| <= rtol * max|s|. Asymmetry beyond
    that is treated as a caller bug, not something to average away.
    """
    m = require_square(s, name)
    gap = max_abs(m - m.T)
    if gap > rtol * max_abs(m):
        raise ContractError(
            f"{name} is not symmetric: max asymmetry {gap:.3e} exceeds "
            f"{rtol:.1e} relative tolerance"
        )
    return 0.5 * (m + m.T)


def eigenvalues(m):
    """Eigenvalues of a square matrix, sorted by real part then imaginary.

    Returns a complex 1-D array of length n. Real input yields exact
    conjugate pairs (property of the underlying real Schur iteration).
    """
    m = require_square(m)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # non-convergence is rare but real
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def spectral_abscissa(m):
    """Largest real part over the spectrum of m."""
    return float(np.max(eigenvalues(m).real))


def is_hurwitz(m, margin=0.0):
    """True when every eigenvalue satisfies Re(lambda) < -margin."""
    if margin < 0.0:
        raise ContractError(f"margin must be nonnegative, got {margin}")
    return spectral_abscissa(m) < -margin


def sym_eigenvalues(s, name="matrix"):
    """Ascending eigenvalues of s after symmetrize(s, name)."""
    sym = symmetrize(s, name)
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolve failed for {name}: {exc}") from exc


def is_positive_spectrum(w, semidefinite=False, tol=DEFINITENESS_TOL):
    """The definiteness verdict of a symmetric matrix from its eigenvalues w,
    in ascending order: w[0] > tol * scale, or w[0] >= -tol * scale when
    semidefinite, with scale = max(1, max|w|). Every definiteness test here
    ends in this one threshold, so a caller holding a spectrum already gets
    the same verdict without a second eigensolve.
    """
    scale = max(1.0, abs(float(w[0])), abs(float(w[-1])))
    if semidefinite:
        return bool(w[0] >= -tol * scale)
    return bool(w[0] > tol * scale)


def is_positive_definite(s, tol=DEFINITENESS_TOL):
    """Symmetric positive definiteness with a relative eigenvalue threshold.

    Verdict: min eigenvalue > tol * max(1, ||s||_2). Scaling s by a positive
    constant does not change the answer (up to the max(1, .) floor).
    """
    return is_positive_spectrum(sym_eigenvalues(s), tol=tol)


def is_positive_semidefinite(s, tol=DEFINITENESS_TOL):
    """Like is_positive_definite but permits eigenvalues down to -tol*scale."""
    return is_positive_spectrum(sym_eigenvalues(s), semidefinite=True, tol=tol)


def is_negative_definite_quadform(m, tol=DEFINITENESS_TOL):
    """True when x^T m x < 0 for all nonzero x.

    m need not be symmetric; only its symmetric part matters, so this is
    the test m + m^T negative definite.
    """
    m = require_square(m)
    return is_positive_definite(-(m + m.T), tol)


def solve_lyapunov(f, q):
    """Solve f^T P + P f = -q for symmetric positive definite P.

    Preconditions: f Hurwitz (checked up front, DesignError otherwise) and
    q symmetric positive definite (ContractError otherwise). For n up to
    LYAPUNOV_DIRECT_MAX_N the vectorized n^2 x n^2 linear system is solved
    directly; above it the scaled Newton sign iteration runs (see
    _lyapunov_by_sign), which costs O(n^3) per iteration instead of O(n^6)
    in all. Either way the residual and definiteness of P are verified
    before returning, and P is exactly symmetric. NumericalError reports a
    singular system or iterate, an iteration that did not converge, or a
    P that fails a check.
    """
    f = require_square(f, "f")
    q = symmetrize(q, "q")
    if f.shape != q.shape:
        raise DimensionError(f"f has shape {f.shape} but q has shape {q.shape}")
    if not is_hurwitz(f):
        raise DesignError(
            "Lyapunov premise violated: f is not Hurwitz "
            f"(spectral abscissa {spectral_abscissa(f):.6g})"
        )
    if not is_positive_definite(q):
        raise ContractError("q must be symmetric positive definite")

    if f.shape[0] <= LYAPUNOV_DIRECT_MAX_N:
        p = _lyapunov_by_kronecker(f, q)
    else:
        p = _lyapunov_by_sign(f, q)
    residual = max_abs(f.T @ p + p @ f + q)
    if residual > LYAPUNOV_RESIDUAL_RTOL * max_abs(q):
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds "
            f"{LYAPUNOV_RESIDUAL_RTOL:.1e} * ||q||"
        )
    if not is_positive_definite(p):
        raise NumericalError("Lyapunov solution is not positive definite")
    return p


def _lyapunov_by_kronecker(f, q):
    n = f.shape[0]
    eye = np.eye(n)
    # row-major vec: vec(F^T P) = (F^T (x) I) vec(P), vec(P F) = (I (x) F^T) vec(P)
    lhs = np.kron(f.T, eye) + np.kron(eye, f.T)
    try:
        p_vec = np.linalg.solve(lhs, -q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Lyapunov system is singular: {exc}") from exc
    return 0.5 * (p_vec.reshape(n, n) + p_vec.reshape(n, n).T)


def _lyapunov_by_sign(f, q):
    """P from the coupled Newton iteration for the matrix sign function.

    The sign of [[f, 0], [q, -f^T]] is [[-I, 0], [2P, I]] for Hurwitz f
    (Roberts 1980; Higham, Functions of Matrices, 2008, ch. 5). Its blocks
    follow A <- (A/c + c A^-1)/2 and X <- (X/c + c A^-T X A^-1)/2 from
    A = f, X = q, so A -> -I and X -> 2P. The scale c = |det A|^(1/n) is
    taken from slogdet, because det itself overflows at large n.
    """
    n = f.shape[0]
    a, x = f, q
    for _ in range(LYAPUNOV_SIGN_MAX_ITER):
        try:
            a_inv = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Lyapunov sign iterate is singular: {exc}") from exc
        c = np.exp(np.linalg.slogdet(a)[1] / n)
        a_next = 0.5 * (a / c + c * a_inv)
        x = 0.5 * (x / c + c * (a_inv.T @ x @ a_inv))
        step = np.linalg.norm(a_next - a, 1)
        a = a_next
        if step <= LYAPUNOV_SIGN_RTOL * np.linalg.norm(a, 1):
            return 0.25 * (x + x.T)
    raise NumericalError(
        f"Lyapunov sign iteration did not converge in {LYAPUNOV_SIGN_MAX_ITER} "
        "iterations"
    )
