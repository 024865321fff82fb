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
from scipy.linalg.blas import dnrm2
from scipy.linalg.lapack import dormqr

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


def _lstsq(V: np.ndarray, b: np.ndarray, names: tuple[str, ...],
           overwrite: bool = False):
    """Least squares of ``b`` (a vector or a matrix of columns) on the n x p
    array ``V``, which the caller has checked to be finite.

    ``V`` is factored by one column-pivoted QR, in a Fortran-ordered copy,
    or in place when ``overwrite`` is set and V is Fortran-ordered (the
    caller gives V up).  Each column is first divided by a power of two
    near its norm, which is exact, so the pivots, and the rank decision,
    do not depend on the columns' units.  Q is never formed: Q'b comes
    from the Householder reflectors.  The residuals are b - V coef, or,
    when V was factored in place, Q [0; (Q'b)[p:]] from the reflectors
    again.

    Returns (coefficients, residuals, (R, piv)), the pivoted factor of
    ``V``.  Raises DomainError unless n > p, and RankDeficiencyError naming
    the first column whose pivot is below RANK_RTOL times the largest.
    """
    n, p = V.shape
    if n <= p:
        raise DomainError(f"need more rows than columns (n={n}, p={p})")
    in_place = overwrite and V.flags.f_contiguous
    A = V if in_place else np.array(V, order="F")
    # 2^e with norm = f 2^e, 1/2 <= f < 1, 2^e and 2^-e finite; a zero
    # column has e = 0
    e = np.clip(np.frexp([dnrm2(A[:, j]) for j in range(p)])[1], -1022, 1022)
    A *= np.ldexp(1.0, -e)
    (H, tau), R, piv = qr(A, overwrite_a=True, mode="raw", pivoting=True,
                          check_finite=False)
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
    # back to V's units
    R *= np.ldexp(1.0, e[piv])
    B = np.reshape(b, (n, -1))
    c = _apply_q(H, tau, np.array(B, order="F"), "T")
    coef = np.empty((p, B.shape[1]))
    coef[piv] = solve_triangular(R, c[:p], lower=False, check_finite=False)
    if in_place:
        c[:p] = 0.0
        resid = _apply_q(H, tau, c, "N")
    else:
        del c
        resid = V @ coef
        np.subtract(B, resid, out=resid)
    if np.ndim(b) == 1:
        return coef[:, 0], resid[:, 0], (R, piv)
    return coef, resid, (R, piv)


def _apply_q(H: np.ndarray, tau: np.ndarray, c: np.ndarray, trans: str):
    """Q'c (``trans`` "T") or Q c ("N") for the Q of the Householder
    reflectors ``H``, ``tau`` of a QR, overwriting the Fortran-ordered
    n x r array ``c``."""
    lwork = int(dormqr("L", trans, H, tau, c, -1)[1][0])
    return dormqr("L", trans, H, tau, c, lwork, overwrite_c=1)[0]


def _right_divide(D: np.ndarray, R: np.ndarray) -> np.ndarray:
    """D R^-1 for an upper triangular R, by substitution along each row of
    D, elementwise: with two BLAS threads, scipy's triangular solve of a
    small block with many right-hand sides took milliseconds.  Either
    may be a stack (..., rows, q) and (..., q, q) of them; each column of
    the result is contiguous, as the substitution writes it."""
    rows, q = D.shape[-2:]
    X = np.empty(np.broadcast_shapes(D.shape[:-2], R.shape[:-2])
                 + (q, rows)).swapaxes(-1, -2)
    for j in range(q):
        x = X[..., j]
        np.copyto(x, D[..., j])
        for i in range(j):
            x -= X[..., i] * R[..., i, j, None]
        x /= R[..., j, j, None]
    return X


def ols_fit(X: DesignMatrix, y: np.ndarray,
            overwrite: bool = False) -> OlsFit:
    """Least squares of ``y`` on ``X`` with R² and the classical
    covariance.

    Parameters
    ----------
    X : DesignMatrix
        Full-column-rank design (checked; raises RankDeficiencyError).
    y : ndarray, shape (n,)
        Response vector.
    overwrite : bool
        Factor ``X.values`` in place when it is Fortran-ordered: the
        caller gives the design up (see :func:`_lstsq`).

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

    beta, resid, (R, piv) = _lstsq(V, y, X.column_names, overwrite)
    rss = float(resid @ resid)
    sigma2 = rss / (n - p)

    r_inv = _right_divide(np.eye(p), R)
    xtx_inv = np.empty((p, p))
    xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T

    if X.has_intercept:
        dev = y - y.mean()
        dev *= dev
        tss = float(np.sum(dev))
    else:
        tss = float(y @ y)
    r2 = 1.0 - rss / tss if tss > 0.0 else (1.0 if rss <= 1e-28 else 0.0)

    return OlsFit(
        coefficients=beta,
        residuals=resid,
        vcov_classical=sigma2 * xtx_inv,
        r_squared=r2,
        sigma2_hat=sigma2,
        column_names=X.column_names,
    )

