import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import qr, solve_triangular

from endofix.errors import DomainError, RankDeficiencyError
from endofix.regress import DesignMatrix, _lstsq, ols_fit


def _design(values, names=None, intercept=False):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = [f"c{i}" for i in range(values.shape[1])]
    return DesignMatrix(values, tuple(names), has_intercept=intercept)


def _random_design(rng, n, p, intercept=True):
    v = rng.standard_normal((n, p))
    if intercept:
        v[:, 0] = 1.0
    return _design(v, intercept=intercept)


class TestOlsFit:
    def test_intercept_only(self):
        X = _design(np.ones((4, 1)), ["const"], intercept=True)
        fit = ols_fit(X, np.array([2.0, 2.0, 2.0, 2.0]))
        assert fit.coefficients[0] == pytest.approx(2.0)
        assert np.abs(fit.residuals).max() == 0.0

    def test_exact_fit(self):
        rng = np.random.default_rng(0)
        X = _random_design(rng, 30, 3)
        y = X.values @ np.array([1.0, -2.0, 0.5])
        fit = ols_fit(X, y)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.abs(fit.residuals).max() <= 1e-10

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        X = _random_design(rng, 50, 3)
        y = rng.standard_normal(50)
        fit = ols_fit(X, y)
        V = X.values
        ref = np.linalg.inv(V.T @ V) @ V.T @ y
        assert np.abs(fit.coefficients - ref).max() <= 1e-9

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            X = _random_design(rng, 200, 4)
            y = rng.standard_normal(200) * 3.0
            fit = ols_fit(X, y)
            scale = 1e-8 * np.linalg.norm(y)
            assert np.abs(X.values.T @ fit.residuals).max() <= scale

    def test_vcov_symmetric_psd(self):
        rng = np.random.default_rng(3)
        X = _random_design(rng, 120, 4)
        y = rng.standard_normal(120)
        V = ols_fit(X, y).vcov_classical
        assert np.abs(V - V.T).max() <= 1e-14
        eig = np.linalg.eigvalsh(V)
        assert eig.min() >= -1e-10 * max(eig.max(), 1.0)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        X = _random_design(rng, 80, 3)
        y = rng.standard_normal(80)
        perm = rng.permutation(80)
        f1 = ols_fit(X, y)
        f2 = ols_fit(_design(X.values[perm], X.column_names, intercept=True),
                     y[perm])
        assert np.abs(f1.coefficients - f2.coefficients).max() <= 1e-12

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((40, 3))
        v[:, 0] = 1.0
        v = np.column_stack([v, v[:, 1] * 2.0])          # duplicate direction
        X = _design(v, ["const", "a", "b", "a_copy"], intercept=True)
        with pytest.raises(RankDeficiencyError) as err:
            ols_fit(X, rng.standard_normal(40))
        assert err.value.column in ("a", "a_copy")

    def test_sigma2_uses_degrees_of_freedom(self):
        rng = np.random.default_rng(6)
        X = _random_design(rng, 60, 2)
        y = rng.standard_normal(60)
        fit = ols_fit(X, y)
        rss = float(fit.residuals @ fit.residuals)
        assert fit.sigma2_hat == pytest.approx(rss / (60 - 2))


@st.composite
def _designs(draw):
    """(design, rhs matrix): an intercept plus standard-normal columns at
    scales 1e-2..1e2, and one to three right-hand sides."""
    n = draw(st.integers(3, 120))
    p = draw(st.integers(1, min(6, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2, 2, p)
    v[:, 0] = 1.0
    Y = rng.standard_normal((n, draw(st.integers(1, 3))))
    return _design(v, intercept=True), Y * 10.0 ** rng.uniform(-2, 2)


class TestLstsq:
    """``_lstsq`` is the one solve behind every fit; ``ols_fit`` is the
    reference for it."""

    @settings(max_examples=60, deadline=None)
    @given(_designs())
    def test_vector_rhs_reproduces_ols_fit_exactly(self, case):
        X, Y = case
        # contiguous vectors, as ols_fit's ravel makes: a strided vector
        # goes through a different matrix-vector kernel
        for y in np.ascontiguousarray(Y.T):
            coef, resid, _ = _lstsq(X.values, y, X.column_names)
            ref = ols_fit(X, y)
            assert np.array_equal(coef, ref.coefficients)
            assert np.array_equal(resid, ref.residuals)

    @settings(max_examples=60, deadline=None)
    @given(_designs())
    def test_matrix_rhs_reproduces_ols_fit_per_column(self, case):
        # a matrix right-hand side is one matrix product where ols_fit
        # makes one matrix-vector product per column, so the two agree to
        # rounding, not bit for bit
        X, Y = case
        coef, resid, _ = _lstsq(X.values, Y, X.column_names)
        assert coef.shape == (X.p, Y.shape[1]) and resid.shape == Y.shape
        for j, y in enumerate(Y.T):
            ref = ols_fit(X, y)
            scale = max(1.0, np.abs(ref.coefficients).max())
            assert np.abs(coef[:, j] - ref.coefficients).max() <= 1e-10 * scale
            assert np.abs(resid[:, j] - ref.residuals).max() <= (
                1e-12 * np.abs(y).max())

    def test_factor_reproduces_design(self):
        rng = np.random.default_rng(10)
        X = _random_design(rng, 40, 4)
        _, _, (R, piv) = _lstsq(X.values, rng.standard_normal(40),
                                X.column_names)
        V = X.values[:, piv]
        assert np.abs(R.T @ R - V.T @ V).max() <= 1e-12 * np.abs(V.T @ V).max()

    @pytest.mark.parametrize("rhs_width", [None, 2])
    def test_rank_deficiency_names_the_column_ols_fit_names(self, rhs_width):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((40, 3))
        v[:, 0] = 1.0
        v = np.column_stack([v, v[:, 1] * 2.0])
        X = _design(v, ["const", "a", "b", "a_copy"], intercept=True)
        y = rng.standard_normal(40)
        with pytest.raises(RankDeficiencyError) as ref:
            ols_fit(X, y)
        b = y if rhs_width is None else np.column_stack([y] * rhs_width)
        with pytest.raises(RankDeficiencyError) as err:
            _lstsq(X.values, b, X.column_names)
        assert err.value.column == ref.value.column
        assert str(err.value) == str(ref.value)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rhs_width", [None, 1, 3])
    def test_in_place_factor_matches_copying_call(self, order, rhs_width):
        # _lstsq factors a Fortran-ordered copy, or V itself when told it
        # may, each column divided by a power of two near its norm; the
        # reference hands the scaled V to qr, forms Q, and scales R back.
        # The factor is LAPACK's either way; Q'b from the reflectors moves
        # the coefficients by rounding only
        rng = np.random.default_rng(11)
        for n, p in ((40, 1), (250, 5), (3001, 4)):
            V = np.array(_random_design(rng, n, p).values, order=order)
            b = rng.standard_normal(n if rhs_width is None
                                    else (n, rhs_width))
            before = V.copy()
            names = tuple("abcde")[:p]
            coef, resid, (R, piv) = _lstsq(V, b, names)
            scale = np.ldexp(1.0, np.frexp(np.linalg.norm(V, axis=0))[1])
            Q0, R0, piv0 = qr(V / scale, mode="economic", pivoting=True,
                              check_finite=False)
            R0 *= scale[piv0]
            perm = solve_triangular(R0, Q0.T @ b, lower=False,
                                    check_finite=False)
            coef0 = np.empty_like(perm)
            coef0[piv0] = perm
            assert np.array_equal(V, before)
            assert np.array_equal(R, R0) and np.array_equal(piv, piv0)
            assert np.abs(coef - coef0).max() <= (
                1e-12 * max(1.0, np.abs(coef0).max()))
            assert np.array_equal(resid, b - V @ coef)
            # in place: the same factor and coefficients, the residuals
            # from the reflectors
            W = np.array(V, order="F")
            coef1, resid1, (R1, piv1) = _lstsq(W, b, names, overwrite=True)
            assert np.array_equal(R1, R) and np.array_equal(piv1, piv)
            assert np.array_equal(coef1, coef)
            assert resid1.shape == resid.shape
            assert np.abs(resid1 - resid).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
    def test_needs_more_rows_than_columns(self, shape):
        with pytest.raises(DomainError):
            _lstsq(np.ones(shape), np.ones(shape[0]), ("a", "b", "c"))


def _partial_out(A, b):
    """Residual of ``b`` after projecting onto the columns of ``A``."""
    return _lstsq(A, b, tuple(f"col{i}" for i in range(A.shape[1])))[1]


class TestPartialOut:
    def test_span_gives_zero(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((50, 3))
        b = A @ np.array([1.0, 2.0, -1.0])
        assert np.abs(_partial_out(A, b)).max() <= 1e-10

    def test_orthogonal_unchanged(self):
        A = np.eye(6)[:, :2]
        b = np.array([0.0, 0.0, 1.0, -2.0, 3.0, 0.5])
        assert _partial_out(A, b) == pytest.approx(b)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((100, 4))
        b = rng.standard_normal(100)
        once = _partial_out(A, b)
        twice = _partial_out(A, once)
        assert np.abs(once - twice).max() <= 1e-10

    def test_frisch_waugh(self):
        # joint OLS coefficient on z equals the univariate coefficient of
        # the partialled outcome on the partialled regressor
        rng = np.random.default_rng(9)
        n = 150
        X = _random_design(rng, n, 3)
        z = rng.standard_normal(n) + X.values[:, 1]
        y = rng.standard_normal(n) + 2.0 * z
        joint = ols_fit(_design(np.column_stack([X.values, z]),
                                [*X.column_names, "z"], intercept=True), y)
        zt = _partial_out(X.values, z)
        yt = _partial_out(X.values, y)
        gamma_uni = float(zt @ yt) / float(zt @ zt)
        assert joint.coefficients[-1] == pytest.approx(gamma_uni, abs=1e-10)


class TestDesignMatrix:
    def test_requires_more_rows_than_columns(self):
        with pytest.raises(ValueError):
            _design(np.ones((3, 3)))

    def test_intercept_flag_checked(self):
        with pytest.raises(ValueError):
            DesignMatrix(np.arange(8.0).reshape(4, 2), ("const", "x"),
                         has_intercept=True)

    def test_rejects_non_finite(self):
        v = np.ones((5, 2))
        v[2, 1] = np.nan
        with pytest.raises(ValueError):
            _design(v)
