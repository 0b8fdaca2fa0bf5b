"""Unit tests for the dense-matrix helpers.

Oracles used here are independent of the implementation: hand-solved
Lyapunov equations, companion matrices built from known root sets, and
Sylvester's leading-minor criterion for definiteness.
"""

import ast
from pathlib import Path

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicobs import ContractError, DesignError, DimensionError, NumericalError
from cubicobs import numlin


def test_as_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(DimensionError):
        numlin.as_matrix([1.0, 2.0])
    with pytest.raises(DimensionError):
        numlin.as_matrix(np.zeros((0, 2)))
    with pytest.raises(ContractError):
        numlin.as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ContractError):
        numlin.as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    assert numlin.as_matrix([[1.0, 2.0]], "k", (1, 2)).shape == (1, 2)
    with pytest.raises(DimensionError, match=r"^k must have shape \(1, 2\), got \(2, 1\)$"):
        numlin.as_matrix([[1.0], [2.0]], "k", (1, 2))


def test_a_none_dimension_of_a_shape_is_free():
    assert numlin.as_matrix(np.ones((2, 3)), "b", (2, None)).shape == (2, 3)
    assert numlin.as_matrix(np.ones((2, 3)), "c", (None, 3)).shape == (2, 3)
    with pytest.raises(DimensionError, match=r"^b must have shape \(3, any\), got \(2, 3\)$"):
        numlin.as_matrix(np.ones((2, 3)), "b", (3, None))
    assert numlin.as_columns([1.0, 2.0], "g", (2, 1)).shape == (2, 1)
    with pytest.raises(DimensionError, match=r"^s must have shape \(3, 3\), got \(2, 2\)$"):
        numlin.symmetrize(np.eye(2), "s", (3, 3))


@pytest.mark.parametrize("values", [[[1.0, 2.0], [3.0]], ["x"], [1.0, {}], [1 + 2j]])
def test_as_array_refuses_what_numpy_cannot_read_as_one_contract_error(values):
    for coerce in (numlin.as_array, numlin.as_matrix, numlin.as_vector, numlin.as_columns):
        with pytest.raises(ContractError, match="^v is not a numeric array$"):
            coerce(values, "v")


def test_as_vector_flattens_and_validates():
    v = numlin.as_vector([[1.0], [2.0]])
    assert v.shape == (2,)
    with pytest.raises(ContractError):
        numlin.as_vector([1.0, np.nan])
    with pytest.raises(DimensionError):
        numlin.as_vector([])
    assert numlin.as_vector([1.0, 2.0], "x0", 2).shape == (2,)
    with pytest.raises(DimensionError, match=r"^x0 must have 3 entries, got 2$"):
        numlin.as_vector([1.0, 2.0], "x0", 3)


def test_finite_returns_its_argument_or_refuses_it_as_an_overflow():
    values = np.array([1e308, -1e308, 0.0])
    assert numlin.finite(values, "v") is values
    assert numlin.finite(2.5, "v") == 2.5
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericalError, match="^v overflows$"):
            numlin.finite(np.array([1.0, bad]), "v")


def test_require_square():
    with pytest.raises(DimensionError):
        numlin.require_square(np.zeros((2, 3)))


def test_max_abs():
    assert numlin.max_abs([[1.0, -4.0], [2.0, 3.0]]) == 4.0
    assert numlin.max_abs(np.zeros((0, 0))) == 0.0


def test_rank_counts_singular_values_above_the_relative_threshold():
    assert numlin.rank(np.diag([1.0, 1e-10, 1e-13]), 1e-12) == 2
    assert numlin.rank(np.diag([1.0, 1e-10, 1e-13]), 1e-9) == 1
    assert numlin.rank(np.ones((3, 2)), 1e-12) == 1
    assert numlin.rank(np.zeros((2, 2)), 1e-12) == 0
    assert numlin.rank(np.zeros((0, 2)), 1e-12) == 0


def test_symmetrize_accepts_roundoff_asymmetry():
    s = np.array([[2.0, 1.0], [1.0 + 1e-13, 3.0]])
    out = numlin.symmetrize(s)
    assert np.array_equal(out, out.T)


def test_symmetrize_rejects_gross_asymmetry():
    with pytest.raises(ContractError):
        numlin.symmetrize([[0.0, 1.0], [0.0, 0.0]])


def test_symmetrize_refuses_an_overflowing_sum_without_a_warning():
    # finite entries above about 9e307 overflow s + s' (and s - s'); that is
    # one ContractError naming the matrix, with no numpy RuntimeWarning
    big = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in ([[1e308]], [[1.0, big], [big, 1.0]], [[-big, 0.0], [0.0, 1.0]]):
            with pytest.raises(ContractError, match=r"^theta is too large"):
                numlin.symmetrize(s, "theta")
        # a finite sum with an overflowing difference is plain asymmetry
        asymmetric = "^q is not symmetric: max asymmetry inf"
        with pytest.raises(ContractError, match=asymmetric):
            numlin.symmetrize([[0.0, 1.5e308], [-1e308, 0.0]], "q")
        # up to the edge the result is the half-sum, bit for bit
        half = big / 2
        for s in (
            [[half, half], [half, half]],
            [[-half, 1.0], [1.0, np.nextafter(half, 0.0)]],
            [[2.0, 1.0], [1.0 + 1e-13, -0.0]],
        ):
            m = np.array(s)
            out = numlin.symmetrize(m)
            want = 0.5 * (m + m.T)
            assert np.array_equal(out, want)
            assert np.array_equal(np.signbit(out), np.signbit(want))


def test_eigenvalues_sorted_and_conjugate():
    # rotation generator: spectrum {i, -i}
    vals = numlin.eigenvalues([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(vals, [-1j, 1j])
    # sorted by real part first
    vals = numlin.eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [-1.0, 2.0, 3.0])


@given(
    st.lists(
        st.floats(min_value=-3.0, max_value=3.0),
        min_size=2,
        max_size=4,
    )
)
@settings(max_examples=60)
def test_eigenvalues_companion_oracle(roots):
    # eigenvalues of the companion matrix of prod (x - r_i) are the roots;
    # well separated roots keep the comparison numerically meaningful
    roots = sorted(roots)
    assume(all(b - a >= 0.2 for a, b in zip(roots, roots[1:])))
    coeffs = np.poly(roots)
    n = len(roots)
    comp = np.zeros((n, n))
    comp[0, :] = -coeffs[1:]
    comp[1:, :-1] = np.eye(n - 1)
    vals = numlin.eigenvalues(comp)
    assert numlin.max_abs(vals.imag) < 1e-6
    assert np.allclose(np.sort(vals.real), roots, atol=1e-6)


def test_spectral_abscissa_and_hurwitz():
    assert numlin.spectral_abscissa([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0)
    assert numlin.spectral_abscissa([[-1.0, 5.0], [0.0, -2.0]]) == -1.0


def positive_definite(s, semidefinite=False):
    """The verdict the package reads off one spectrum of s."""
    return numlin.is_positive_spectrum(numlin.sym_spectrum(np.asarray(s)), semidefinite)


def test_sym_spectrum_reads_the_symmetric_part():
    m = np.array([[2.0, 3.0], [-1.0, 2.0]])
    assert np.array_equal(numlin.sym_spectrum(m), [1.0, 3.0])
    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(numlin.sym_spectrum(s), np.linalg.eigvalsh(s))


def test_sym_spectrum_refuses_non_finite_entries_and_reports_solver_failure(monkeypatch):
    with pytest.raises(ContractError, match="non-finite"):
        numlin.sym_spectrum(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def failing(m):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NumericalError, match="no convergence"):
        numlin.sym_spectrum(np.eye(2))


def _leading_minors_positive(s):
    n = s.shape[0]
    return all(np.linalg.det(s[: k + 1, : k + 1]) > 0.0 for k in range(n))


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60)
def test_definiteness_matches_sylvester_criterion(n, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-3.0, 3.0, size=(n, n))
    s = 0.5 * (s + s.T)
    w = np.linalg.eigvalsh(s)
    scale = float(np.max(np.abs(w)))
    # stay away from the verdict boundary where tolerance policy decides
    assume(float(np.min(np.abs(w))) > 1e-6 * scale)
    assert positive_definite(s) == _leading_minors_positive(s)


def test_definiteness_scale_invariance():
    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    for factor in (1.0, 1e-3, 1e3, 1e6, 1e-12, 2.0**-1000, 2.0**1000):
        assert positive_definite(factor * s)
        assert not positive_definite(-factor * s)
        assert numlin.is_negative_spectrum(numlin.sym_spectrum(-factor * s))
    # scale 0 gives threshold 0: a zero matrix is semidefinite, not definite
    assert positive_definite(np.zeros((2, 2)), semidefinite=True)
    assert not positive_definite(np.zeros((2, 2)))


def test_semidefinite_accepts_rank_deficiency():
    s = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert positive_definite(s, semidefinite=True)
    assert not positive_definite(s)
    assert not positive_definite(-s, semidefinite=True)


def test_negative_definite_quadform_uses_symmetric_part():
    # skew part is irrelevant to the quadratic form
    m = np.array([[-1.0, 5.0], [-5.0, -1.0]])
    assert numlin.is_negative_spectrum(numlin.sym_spectrum(m))
    assert not numlin.is_negative_spectrum(numlin.sym_spectrum(np.diag([1.0, -1.0])))


def test_solve_lyapunov_hand_solution_scalar():
    # f = -a: p solves -2 a p = -q, so p = q / (2a)
    p = numlin.solve_lyapunov([[-2.0]], [[3.0]])
    assert p[0, 0] == pytest.approx(0.75, rel=1e-12)


def test_solve_lyapunov_hand_solution_2x2():
    # double integrator with output injection placing poles at {-2, -5}
    f = np.array([[-7.0, 1.0], [-10.0, 0.0]])
    q = 10.0 * np.eye(2)
    p = numlin.solve_lyapunov(f, q)
    expected = np.array([[55.0 / 7.0, -5.0], [-5.0, 30.0 / 7.0]])
    assert np.allclose(p, expected, rtol=0.0, atol=1e-10)


def test_solve_lyapunov_rejects_bad_premises():
    with pytest.raises(DesignError):
        numlin.solve_lyapunov([[1.0]], [[1.0]])
    with pytest.raises(ContractError):
        numlin.solve_lyapunov([[-1.0]], [[-1.0]])
    with pytest.raises(ContractError):
        numlin.solve_lyapunov(-np.eye(2), [[1.0, 5.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        numlin.solve_lyapunov(-np.eye(2), np.eye(3))


def test_a_subnormal_lyapunov_solution_is_refused():
    # q is normal, but p = q / 2e10 is not
    with pytest.raises(
        NumericalError,
        match=r"^Lyapunov solution is not positive definite: "
        r"its smallest eigenvalue 5\.000e-311 is subnormal$",
    ):
        numlin.solve_lyapunov(-1e10 * np.eye(2), 1e-300 * np.eye(2))
    # and the least normal eigenvalue passes
    tiny = np.finfo(float).tiny
    assert numlin.solve_lyapunov(-0.5 * np.eye(2), tiny * np.eye(2))[0, 0] == tiny


def test_lyapunov_q_of_the_wrong_shape_is_refused_in_numlins_words():
    with pytest.raises(DimensionError, match=r"^q must have shape \(2, 2\), got \(3, 3\)$"):
        numlin.solve_lyapunov(-np.eye(2), np.eye(3))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_solve_lyapunov_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    a = rng.normal(size=(n, n))
    f = a - (numlin.spectral_abscissa(a) + 1.0) * np.eye(n)
    q = rng.normal(size=(n, n))
    q = q @ q.T + np.eye(n)
    p = numlin.solve_lyapunov(f, q)
    assert np.array_equal(p, p.T)
    residual = numlin.max_abs(f.T @ p + p @ f + q)
    assert residual <= 1e-8 * numlin.max_abs(q)
    assert np.linalg.eigvalsh(p)[0] > 0.0


def kronecker_reference(f, q):
    """The direct solve of the vectorized n^2 x n^2 system, term for term."""
    n = f.shape[0]
    eye = np.eye(n)
    lhs = np.kron(f.T, eye) + np.kron(eye, f.T)
    p_vec = np.linalg.solve(lhs, -q.reshape(-1))
    return 0.5 * (p_vec.reshape(n, n) + p_vec.reshape(n, n).T)


def random_lyapunov_pair(rng, n):
    """Hurwitz f with spectral abscissa in [-1, -0.01], and SPD q."""
    a = rng.normal(size=(n, n))
    f = a - (numlin.spectral_abscissa(a) + rng.uniform(0.01, 1.0)) * np.eye(n)
    q = rng.normal(size=(n, n))
    return f, q @ q.T + np.eye(n)


def assert_checked_solution(f, q, p):
    assert np.array_equal(p, p.T)
    residual = numlin.max_abs(f.T @ p + p @ f + q)
    assert residual <= numlin.LYAPUNOV_RESIDUAL_RTOL * numlin.max_abs(q)
    assert np.linalg.eigvalsh(p)[0] > 0.0


@given(
    st.integers(min_value=numlin.LYAPUNOV_DIRECT_MAX_N + 1, max_value=48),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40)
def test_sign_iteration_solves_above_the_direct_size(n, seed):
    f, q = random_lyapunov_pair(np.random.default_rng(seed), n)
    p = numlin.solve_lyapunov(f, q)
    assert_checked_solution(f, q, p)
    if n <= 32:
        ref = kronecker_reference(f, q)
        assert numlin.max_abs(p - ref) <= 1e-10 * numlin.max_abs(ref)


def test_sign_iteration_solves_at_n_128():
    f, q = random_lyapunov_pair(np.random.default_rng(128), 128)
    assert_checked_solution(f, q, numlin.solve_lyapunov(f, q))


def test_direct_sizes_keep_the_kronecker_bits():
    rng = np.random.default_rng(7)
    for n in range(1, numlin.LYAPUNOV_DIRECT_MAX_N + 1):
        f, q = random_lyapunov_pair(rng, n)
        assert np.array_equal(numlin.solve_lyapunov(f, q), kronecker_reference(f, q))


def test_sign_iteration_scale_survives_determinant_overflow():
    rng = np.random.default_rng(3)
    n = 128
    s = rng.normal(size=(n, n))
    f = -1e3 * np.eye(n) + (s - s.T)
    # |det f| >= 1e3^128 is beyond float64, so the scale must come from slogdet
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.det(f))
    q = np.eye(n)
    assert_checked_solution(f, q, numlin.solve_lyapunov(f, q))


def test_sign_iteration_refuses_to_return_an_unconverged_p(monkeypatch):
    f, q = random_lyapunov_pair(np.random.default_rng(16), 16)
    monkeypatch.setattr(numlin, "LYAPUNOV_SIGN_MAX_ITER", 1)
    with pytest.raises(NumericalError, match="did not converge"):
        numlin.solve_lyapunov(f, q)


def test_a_nan_residual_is_refused_as_a_residual():
    # the Kronecker solve returns NaN for this q without raising a flag, and a
    # residual test that reads NaN as small would hand the NaN on
    with pytest.raises(NumericalError, match="^Lyapunov residual nan exceeds"):
        numlin.solve_lyapunov([[-7.0, 1.0], [-10.0, 0.0]], 5e307 * np.eye(2))


def test_every_public_numlin_function_has_a_caller_in_the_package():
    # a public helper that only tests call is a second path in waiting, as
    # the matrix-form definiteness tests beside the spectrum verdicts were
    source = Path(numlin.__file__)
    public = {
        node.name
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    called = set()
    for path in source.parent.glob("*.py"):
        if path == source:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                called.add(func.id)
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "numlin":
                called.add(func.attr)
    assert sorted(public - called) == []


def test_refusing_overflow_turns_each_raised_flag_into_one_numerical_error():
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for flagged in (
            lambda: np.array([1e308]) * 10.0,  # overflow
            lambda: np.array([np.inf]) - np.inf,  # invalid
            lambda: np.array([1.0]) / 0.0,  # divide
        ):
            with pytest.raises(NumericalError, match="^the block overflows$"):
                with numlin.refusing_overflow("the block"):
                    flagged()

        @numlin.refusing_overflow("the call")
        def scaled(x):
            return x * 10.0

        with pytest.raises(NumericalError, match="^the call overflows$"):
            scaled(np.array([1e308]))
        assert scaled(np.array([1.0]))[0] == 10.0
        with numlin.refusing_overflow("an underflow"):  # not a flag it raises
            assert (np.array([1e-308]) * 1e-308)[0] == 0.0
    assert np.geterr() == before


# Where np.errstate may appear: the policy itself, and the deliberate ignores,
# each under a comment that says why it is ignored, not raised.
ERRSTATE_SITES = [
    ("design", "_exclusion_radius"),
    ("numlin", "refusing_overflow"),
    ("numlin", "symmetrize"),
    ("sim", "_rk4"),
    ("sim", "compute_metrics"),
]


def test_np_errstate_appears_only_in_the_policy_and_its_named_ignores():
    sites = []
    for path in sorted(Path(numlin.__file__).parent.glob("*.py")):
        lines = path.read_text().splitlines()

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Attribute) and node.attr == "errstate":
                sites.append((path.stem, function))
                if function != "refusing_overflow":
                    k = node.lineno - 2
                    while lines[k].lstrip().startswith("#"):
                        k -= 1
                    comment = " ".join(lines[k + 1 : node.lineno - 1])
                    assert "not raised" in comment, (path.name, node.lineno)
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse("\n".join(lines)), None)
    assert sorted(sites) == ERRSTATE_SITES


# The words of the refusal whose one home is numlin: finite and
# refusing_overflow write "<what> overflows".
HOMED_REFUSALS = {"NumericalError": ("overflows",)}

# Where DimensionError may be raised outside numlin, whose as_matrix,
# as_vector and require_square write every array shape and size refusal.
# Each site compares a count that is not an array's own dimension.
DIMENSION_SITES = [
    ("design", "place_poles_single_output"),  # the number of desired poles
    ("sim", "_bind_config"),  # a signal's declared dimension with the plant's inputs
]


def test_shape_and_finiteness_refusals_are_written_only_in_numlin():
    written, dimension_sites = [], []
    for path in sorted(Path(numlin.__file__).parent.glob("*.py")):
        if path.stem == "numlin":
            continue

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = getattr(node.exc.func, "id", getattr(node.exc.func, "attr", None))
                if name == "DimensionError":
                    dimension_sites.append((path.stem, function))
                text = " ".join(
                    part.value
                    for arg in node.exc.args
                    for part in ast.walk(arg)
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                )
                if any(words in text for words in HOMED_REFUSALS.get(name, ())):
                    written.append((path.name, node.lineno, text))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text()), None)
    assert written == []
    assert sorted(dimension_sites) == DIMENSION_SITES
