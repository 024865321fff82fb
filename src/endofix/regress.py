"""Dense least squares through one column-pivoted QR solve, :func:`_lstsq`.

The second-stage design can be nearly collinear (the endogenous column and
its normal-scores correction are often correlated above 0.9); the pivoted
factorization both stabilizes the solve and yields a rank diagnostic that
names the offending column.  :func:`ols_fit` adds R² and the classical
covariance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular

from .errors import DomainError, RankDeficiencyError

# Relative pivot threshold for declaring rank deficiency.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class DesignMatrix:
    """An n x p design with labelled columns.

    If ``has_intercept`` the first column must be all ones.  Requires
    n > p and finite entries.
    """

    values: np.ndarray
    column_names: tuple[str, ...]
    has_intercept: bool = True

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if v.ndim != 2:
            raise DomainError("design matrix must be 2-D")
        n, p = v.shape
        if len(self.column_names) != p:
            raise DomainError("column_names length does not match design width")
        if n <= p:
            raise DomainError(f"need more rows than columns (n={n}, p={p})")
        if not np.all(np.isfinite(v)):
            raise DomainError("design matrix contains non-finite entries")
        if self.has_intercept and not np.all(v[:, 0] == 1.0):
            raise DomainError("has_intercept is set but first column is not all ones")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit: coefficients, residuals, and the classical
    covariance sigma2_hat * (X'X)^-1 with the usual residual variance
    (RSS / (n - p)).
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    vcov_classical: np.ndarray
    r_squared: float
    sigma2_hat: float
    column_names: tuple[str, ...]


def _lstsq(V: np.ndarray, b: np.ndarray, names: tuple[str, ...]):
    """Least squares of ``b`` (a vector or a matrix of columns) on the n x p
    array ``V``, which the caller has checked to be finite.

    Returns (coefficients, residuals, (R, piv)), the pivoted factor of
    ``V``.  Raises DomainError unless n > p, and RankDeficiencyError naming
    the first column whose pivot is below RANK_RTOL times the largest.
    """
    n, p = V.shape
    if n <= p:
        raise DomainError(f"need more rows than columns (n={n}, p={p})")
    # factor a Fortran-ordered copy in place: given V itself, scipy makes
    # a second copy of it for LAPACK while the first is still alive
    Q, R, piv = qr(np.array(V, order="F"), overwrite_a=True,
                   mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(R))
    ref = diag[0] if diag[0] > 0.0 else 0.0
    bad = np.flatnonzero(diag < RANK_RTOL * ref) if ref > 0.0 else np.arange(p)
    if bad.size:
        col = names[piv[bad[0]]]
        raise RankDeficiencyError(
            f"design matrix is rank deficient at column {col!r} "
            f"(pivot ratio {diag[bad[0]] / ref if ref > 0 else 0.0:.2e})",
            column=col,
        )
    coef_perm = solve_triangular(R, Q.T @ b, lower=False, check_finite=False)
    coef = np.empty_like(coef_perm)
    coef[piv] = coef_perm
    return coef, b - V @ coef, (R, piv)


def ols_fit(X: DesignMatrix, y: np.ndarray) -> OlsFit:
    """Least squares of ``y`` on ``X`` with R² and the classical
    covariance.

    Parameters
    ----------
    X : DesignMatrix
        Full-column-rank design (checked; raises RankDeficiencyError).
    y : ndarray, shape (n,)
        Response vector.

    Returns
    -------
    OlsFit
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    V = X.values
    n, p = V.shape
    if y.shape[0] != n:
        raise DomainError("y length does not match design")
    if not np.all(np.isfinite(y)):
        raise DomainError("y contains non-finite entries")

    beta, resid, (R, piv) = _lstsq(V, y, X.column_names)
    rss = float(resid @ resid)
    sigma2 = rss / (n - p)

    r_inv = solve_triangular(R, np.eye(p), lower=False)
    xtx_inv = np.empty((p, p))
    xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T

    tss = float(np.sum((y - y.mean()) ** 2)) if X.has_intercept else float(y @ y)
    r2 = 1.0 - rss / tss if tss > 0.0 else (1.0 if rss <= 1e-28 else 0.0)

    return OlsFit(
        coefficients=beta,
        residuals=resid,
        vcov_classical=sigma2 * xtx_inv,
        r_squared=r2,
        sigma2_hat=sigma2,
        column_names=X.column_names,
    )

