"""Dense real-matrix numerics for small systems.

Everything here targets the matrix sizes that occur in observer design
(n up to a few tens). Routines prefer clear failure over silent garbage:
they validate shapes, reject non-finite input, and cross-check their own
results (Lyapunov residual, definiteness) before returning.

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


def _sym_eigenvalues(s, name):
    sym = symmetrize(s, name)
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolve failed for {name}: {exc}") from exc


def is_positive_definite(s, tol=DEFINITENESS_TOL):
    """Symmetric positive definiteness with a relative eigenvalue threshold.

    Verdict: min eigenvalue > tol * max(1, ||s||_2). Scaling s by a positive
    constant does not change the answer (up to the max(1, .) floor).
    """
    w = _sym_eigenvalues(s, "matrix")
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(w[0] > tol * scale)


def is_positive_semidefinite(s, tol=DEFINITENESS_TOL):
    """Like is_positive_definite but permits eigenvalues down to -tol*scale."""
    w = _sym_eigenvalues(s, "matrix")
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(w[0] >= -tol * scale)


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
    q symmetric positive definite. Solves the vectorized n^2 x n^2 linear
    system, which is perfectly adequate at the sizes this package handles.
    The residual and definiteness of P are verified before returning.
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

    n = f.shape[0]
    eye = np.eye(n)
    # row-major vec: vec(F^T P) = (F^T (x) I) vec(P), vec(P F) = (I (x) F^T) vec(P)
    lhs = np.kron(f.T, eye) + np.kron(eye, f.T)
    try:
        p_vec = np.linalg.solve(lhs, -q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Lyapunov system is singular: {exc}") from exc

    p = 0.5 * (p_vec.reshape(n, n) + p_vec.reshape(n, n).T)
    residual = max_abs(f.T @ p + p @ f + q)
    if residual > LYAPUNOV_RESIDUAL_RTOL * max_abs(q):
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds "
            f"{LYAPUNOV_RESIDUAL_RTOL:.1e} * ||q||"
        )
    if not is_positive_definite(p):
        raise NumericalError("Lyapunov solution is not positive definite")
    return p

