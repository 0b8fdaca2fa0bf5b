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
are 1-D arrays. Every definiteness verdict is read off one spectrum:
sym_spectrum(m) decomposes the symmetric part of m once, and
is_positive_spectrum and is_negative_spectrum apply a threshold relative to
that spectrum's largest magnitude, with no floor, so they give the same
verdict for Q, 1000*Q and 1e-12*Q.

The package's one floating-point policy is refusing_overflow(what): around
a named site or a public entry point, a numpy overflow, invalid or divide
flag is one NumericalError "<what> overflows", never a RuntimeWarning.
LAPACK, np.poly and einsum raise no flag, so their results pass through
finite(values, what), which raises the same error on an inf or NaN. The
trace's V = e'Pe is such an einsum: p > 0 makes its NaN inf - inf, read as
+inf, refused on a row within the divergence limit and kept only on the
unchecked first row of a start beyond it. Each deliberate np.errstate
ignore says why. Shape checks are written only here too: as_matrix and
as_vector take a shape (None for a free dimension) or size, and read input
through as_array, one ContractError for ragged or non-numeric input. A
count, such as a signal's dimension, is checked by as_count.
"""

import numbers
from contextlib import contextmanager

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


@contextmanager
def refusing_overflow(what):
    """Run a block, or as a decorator a call, with numpy's overflow, invalid and
    divide flags raising; any of them is one NumericalError "<what> overflows"."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NumericalError(f"{what} overflows") from exc


def finite(values, what):
    """values, unless an entry is inf or NaN: then one NumericalError
    "<what> overflows", as refusing_overflow gives for a raised flag."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} overflows")
    return values


def as_array(values, name="array", dtype=float):
    """values as a fresh ndarray of dtype; ContractError "<name> is not a
    numeric array" when numpy cannot read it so (ragged, or not numbers)."""
    try:
        return np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{name} is not a numeric array") from exc


def as_count(value, name, least):
    """value as an int, unless it is a bool, not an integer, or below least:
    then ContractError "<name> must be an integer of at least <least>"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ContractError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def as_matrix(values, name="matrix", shape=None):
    """Coerce to a finite 2-D float64 array, of the given shape when one is
    given, failing loudly otherwise. A None dimension of shape is free."""
    m = as_array(values, name)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractError(f"{name} contains non-finite entries")
    if shape is not None and any(w not in (None, g) for w, g in zip(shape, m.shape)):
        wanted = ", ".join("any" if w is None else str(w) for w in shape)
        raise DimensionError(f"{name} must have shape ({wanted}), got {m.shape}")
    return m


def as_columns(values, name="matrix", shape=None):
    """as_matrix, with 1-D values read as one column."""
    m = as_array(values, name)
    return as_matrix(m.reshape(-1, 1) if m.ndim == 1 else m, name, shape)


def as_vector(values, name="vector", size=None):
    """Coerce to a finite 1-D float64 array, of the given size when one is
    given."""
    v = as_array(values, name).reshape(-1)
    if v.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ContractError(f"{name} contains non-finite entries")
    if size is not None and v.size != size:
        raise DimensionError(f"{name} must have {size} entries, got {v.size}")
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


def rank(m, rtol):
    """Numerical rank of m: how many of its singular values exceed rtol
    times the largest; 0 for an empty or zero m."""
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rtol * sv[0]))


def symmetrize(s, name="matrix", shape=None):
    """Return the symmetric part of s after checking s is symmetric (and of
    the given square shape, as as_matrix checks it).

    The check is relative: max|s - s^T| <= SYMMETRY_RTOL * max|s|.
    Asymmetry beyond that is treated as a caller bug, not something to
    average away. An s whose s + s^T overflows is refused as too large.
    """
    m = require_square(s, name) if shape is None else as_matrix(s, name, shape)
    # ignored, not raised: entries above ~9e307 overflow both sums, and an
    # infinite s - s^T reads as asymmetry, an infinite s + s^T as too large
    with np.errstate(over="ignore"):
        total = m + m.T
        gap = max_abs(m - m.T)
    if not np.all(np.isfinite(total)):
        raise ContractError(f"{name} is too large: {name} + {name}' overflows")
    if gap > SYMMETRY_RTOL * max_abs(m):
        raise ContractError(
            f"{name} is not symmetric: max asymmetry {gap:.3e} exceeds "
            f"{SYMMETRY_RTOL:.1e} relative tolerance"
        )
    return 0.5 * total


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


def sym_spectrum(m):
    """Ascending eigenvalues of the symmetric part (m + m^T) / 2 of m.

    Only the symmetric part matters to a quadratic form, and for an exactly
    symmetric m it is m itself, bit for bit. ContractError when it is not
    finite, NumericalError when the eigensolver fails.
    """
    sym = 0.5 * (m + m.T)
    if not np.isfinite(sym).all():
        raise ContractError("matrix contains non-finite entries")
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolve failed: {exc}") from exc


def is_positive_spectrum(w, semidefinite=False):
    """The definiteness verdict of a symmetric matrix from its eigenvalues w,
    in ascending order: w[0] > DEFINITENESS_TOL * scale, or
    w[0] >= -DEFINITENESS_TOL * scale when semidefinite, with
    scale = max|w|. The threshold has no floor, so scaling the matrix by a
    positive constant does not change the verdict; a zero matrix is
    semidefinite and not definite.
    """
    scale = max(abs(float(w[0])), abs(float(w[-1])))
    if semidefinite:
        return bool(w[0] >= -DEFINITENESS_TOL * scale)
    return bool(w[0] > DEFINITENESS_TOL * scale)


def is_negative_spectrum(w):
    """True when x^T m x < 0 for all nonzero x, from w = sym_spectrum(m):
    the positive-definite verdict on -w reversed, the spectrum of -m."""
    return is_positive_spectrum(-w[::-1])


def solve_lyapunov(f, q):
    """Solve f^T P + P f = -q for symmetric positive definite P.

    Preconditions: f Hurwitz (checked up front, DesignError otherwise) and
    q symmetric positive definite with a normal smallest eigenvalue
    (ContractError otherwise). For n up to
    LYAPUNOV_DIRECT_MAX_N the vectorized n^2 x n^2 linear system is solved
    directly; above it the scaled Newton sign iteration runs (see
    _lyapunov_by_sign), which costs O(n^3) per iteration instead of O(n^6)
    in all. Either way the residual and definiteness of P are verified
    before returning, and P is exactly symmetric. NumericalError reports a
    singular system or iterate, an iteration that did not converge, or a
    P that fails a check, a subnormal smallest eigenvalue included.
    """
    f = require_square(f, "f")
    q = symmetrize(q, "q", f.shape)
    abscissa = spectral_abscissa(f)
    if not abscissa < 0.0:
        raise DesignError(
            "Lyapunov premise violated: f is not Hurwitz "
            f"(spectral abscissa {abscissa:.6g})"
        )
    _require_definite(sym_spectrum(q), ContractError, "q must be symmetric positive definite")

    if f.shape[0] <= LYAPUNOV_DIRECT_MAX_N:
        p = _lyapunov_by_kronecker(f, q)
    else:
        p = _lyapunov_by_sign(f, q)
    residual = max_abs(f.T @ p + p @ f + q)
    if not residual <= LYAPUNOV_RESIDUAL_RTOL * max_abs(q):  # NaN fails too
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds "
            f"{LYAPUNOV_RESIDUAL_RTOL:.1e} * ||q||"
        )
    _require_definite(
        sym_spectrum(p), NumericalError, "Lyapunov solution is not positive definite"
    )
    return p


def _require_definite(w, error, message):
    """error(message) unless w, an ascending spectrum, is positive definite
    with a smallest eigenvalue no smaller than the least normal float: the
    verdict is scale-free, but a subnormal spectrum carries too few digits
    for the solve and its residual check to mean anything."""
    if not is_positive_spectrum(w):
        raise error(message)
    if w[0] < np.finfo(float).tiny:
        raise error(f"{message}: its smallest eigenvalue {w[0]:.3e} is subnormal")


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
