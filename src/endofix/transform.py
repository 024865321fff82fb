"""First-stage residualization and the rank / normal-scores construction.

The generated regressor is built in two steps: residualize each endogenous
column on the exogenous design, then map residual ranks through the inverse
normal CDF.  Ranks are rescaled by n + 1 so the empirical CDF never
touches 0 or 1, where the inverse normal diverges.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConstantInputError, DomainError
from .regress import DesignMatrix, _lstsq

__all__ = ["FirstStage", "average_ranks", "normal_scores", "first_stage"]

# First-stage residuals whose standard deviation is at most this fraction
# of the endogenous column's scale count as constant.
CONSTANT_RESIDUAL_RTOL = 1e-12


@dataclass(frozen=True)
class FirstStage:
    """Per-endogenous-column first-stage output.

    ``delta_hat`` stacks the regression coefficients column by column,
    ``e_hat`` the residuals, ``eta_hat`` their normal scores, and ``ranks``
    the (average) ranks used.  Each residual column is orthogonal to the
    exogenous design; without ties each score column sums to zero exactly.
    """

    delta_hat: np.ndarray   # (k, m)
    e_hat: np.ndarray       # (n, m)
    eta_hat: np.ndarray     # (n, m)
    ranks: np.ndarray       # (n, m); half-integers appear under ties
    endogenous_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.e_hat.shape[0]

    @property
    def m(self) -> int:
        return self.e_hat.shape[1]


def average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties resolved by averaging (see
    :func:`_rank_rows`).  O(n log n), with no Python-level loop."""
    v = np.asarray(v, dtype=np.float64).ravel()
    return _rank_rows(v[None, :])[0][0]


def _rank_rows(rows: np.ndarray):
    """Average ranks of each row of a 2-D array, with the sort behind them.

    Returns (ranks, order, sorted values): ``order`` holds the positions
    in ``rows.ravel()`` of each row's sort.  Equal values occupy adjacent
    positions, and each tied run [start, stop) of a sorted row gets the
    mean of ranks start+1..stop, so the ranks and sorted values do not
    depend on the order the (unstable) sort leaves within a tied run.
    """
    n = rows.shape[1]
    order = np.argsort(rows, axis=1)
    order += n * np.arange(rows.shape[0])[:, None]
    sv = rows.ravel()[order]
    new_run = np.ones(rows.shape, dtype=bool)
    new_run[:, 1:] = sv[:, 1:] != sv[:, :-1]
    # runs of the flattened sorted rows; every row starts a new run
    starts = np.flatnonzero(new_run)
    stops = np.append(starts[1:], rows.size)
    counts = stops - starts
    lo = starts % max(n, 1)         # where each run starts within its row
    ranks = np.empty(rows.size, dtype=np.float64)
    ranks[order.ravel()] = np.repeat(0.5 * (2 * lo + counts + 1), counts)
    return ranks.reshape(rows.shape), order, sv


def normal_scores(v: np.ndarray) -> np.ndarray:
    """Inverse-normal transform of the rescaled ranks of ``v``.

    Invariant under every strictly increasing transformation of ``v``.
    Without ties the output is a permutation of the fixed grid
    ``quantile(i / (n + 1))``, built with exact sign symmetry so the scores
    sum to zero exactly.

    Raises
    ------
    ConstantInputError
        If ``v`` is constant: the ranks carry no information and the
        correction coefficient would be unidentifiable.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size < 2:
        raise DomainError("normal_scores needs n >= 2")
    if np.all(v == v[0]):
        raise ConstantInputError(
            "normal_scores input is constant; ranks are degenerate")
    return _scores_of_ranks(average_ranks(v))


def _scores_of_ranks(ranks: np.ndarray) -> np.ndarray:
    """Phi^-1(rank / (n + 1)) of a rank vector, or of each row of a 2-D
    array of them; a row without ties takes the symmetric grid, and two or
    more rows with ties look their scores up in :func:`_half_rank_scores`."""
    rows = np.atleast_2d(ranks)
    n = rows.shape[1]
    whole = np.all(rows == np.round(rows), axis=1)
    scores = np.empty(rows.shape, dtype=np.float64)
    if whole.any():
        scores[whole] = _symmetric_score_grid(n)[
            rows[whole].astype(np.int64) - 1]
    tied = ~whole
    if np.count_nonzero(tied) > 1:
        scores[tied] = _half_rank_scores(n)[
            (2.0 * rows[tied]).astype(np.int64) - 2]
    elif tied.any():
        # one row needs n scores, fewer than the table's 2n - 1; kept in
        # the cache at large n, the table also raised the peak RSS of a
        # fit by about three times its size
        scores[tied] = ndtri(rows[tied] / (n + 1.0))
    return scores.reshape(np.shape(ranks))


@functools.lru_cache(maxsize=1)
def _half_rank_scores(n: int) -> np.ndarray:
    """Read-only table ndtri(r / (n + 1)) of the average ranks r = 1, 1.5,
    ..., n, at index 2r - 2.  Each r = k / 2.0 is exact, so an entry equals
    ndtri(r / (n + 1.0)) of the rank itself bit for bit."""
    table = np.arange(2, 2 * n + 1, dtype=np.float64)
    table /= 2.0
    table /= n + 1.0
    ndtri(table, out=table)
    table.flags.writeable = False
    return table


def _symmetric_score_grid(n: int) -> np.ndarray:
    """Grid quantile(i/(n+1)), i = 1..n, with grid[i] = -grid[n-1-i] exactly."""
    half = n // 2
    i = np.arange(1, half + 1, dtype=np.float64)
    lower = ndtri(i / (n + 1.0))
    grid = np.empty(n, dtype=np.float64)
    grid[:half] = lower
    grid[n - half:] = -lower[::-1]
    if n % 2:
        grid[half] = 0.0
    return grid


def first_stage(X: DesignMatrix, Z: np.ndarray,
                names: tuple[str, ...] | None = None) -> FirstStage:
    """Regress the endogenous columns on ``X`` and score the residuals.

    Parameters
    ----------
    X : DesignMatrix
        Exogenous design (typically intercept plus controls).
    Z : ndarray, shape (n, m) or (n,)
        Endogenous column block, m >= 1.
    names : tuple of str, optional
        Labels for the endogenous columns (used in diagnostics).

    Returns
    -------
    FirstStage
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim == 1:
        Z = Z[:, None]
    n, m = Z.shape
    if m < 1:
        raise DomainError("need at least one endogenous column")
    if n != X.n:
        raise DomainError("Z row count does not match design")
    if names is not None and len(names) != m:
        raise DomainError("names length does not match the endogenous block")
    if not np.all(np.isfinite(Z)):
        raise DomainError("Z contains non-finite entries")

    # one factorisation of X for the whole block; in Fortran order each
    # column is contiguous, so the rounding does not depend on the layout
    # of Z
    Z = np.asfortranarray(Z)
    delta, e_hat, _ = _lstsq(X.values, Z, X.column_names)
    eta = np.empty((n, m))
    ranks = np.empty((n, m))
    for j in range(m):
        z, resid = Z[:, j], e_hat[:, j]
        scale = max(1.0, float(np.std(z)), abs(float(np.mean(z))))
        if float(np.std(resid)) <= CONSTANT_RESIDUAL_RTOL * scale:
            raise ConstantInputError(
                f"first-stage residuals of endogenous column {j} are "
                "numerically zero: the column lies in the span of the "
                "exogenous design, so its ranks are pure noise")
        # the check above rules out constant residuals, so the ranks are
        # computed once and give the scores directly
        ranks[:, j] = average_ranks(resid)
        eta[:, j] = _scores_of_ranks(ranks[:, j])
    if names is None:
        names = tuple(f"z{j}" for j in range(m))
    return FirstStage(delta_hat=delta, e_hat=e_hat, eta_hat=eta, ranks=ranks,
                      endogenous_names=tuple(names))
