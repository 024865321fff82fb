"""First-stage residualization and the rank / normal-scores construction.

The generated regressor is built in two steps: residualize each endogenous
column on the exogenous design, then map residual ranks through the inverse
normal CDF.  Ranks are rescaled by n + 1 so the empirical CDF never
touches 0 or 1, where the inverse normal diverges.

Ranks become scores on one path, :func:`_counted_scores`: the scalar
functions here score one problem whose row counts are all 1, and the
count engine of :mod:`~endofix.inference` scores bootstrap resamples and
Monte Carlo repetitions with their own counts, so both give equal ranks
equal scores, bit for bit.  The score of rank n + 1 - r is exactly minus
that of rank r, so scores without ties sum to zero exactly.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConstantInputError, DomainError
from .regress import DesignMatrix, _lstsq

__all__ = ["FirstStage", "normal_scores", "first_stage"]

# First-stage residuals whose standard deviation is at most this fraction
# of the endogenous column's scale, max(std, |mean|), count as constant.
CONSTANT_RESIDUAL_RTOL = 1e-12

# Residuals equal in exact arithmetic come out of a least-squares fit a few
# ulps of their magnitude apart, in an order rounding decides.  Sorted
# neighbours of a residual column within this fraction of its magnitude,
# max|z| + max|e|, tie, so that order decides no rank.
TIE_RTOL = 2e-14

# _sort_rows compares this many sorted neighbours at a time: a gap array
# as large as the rows would raise the peak memory of a large fit.
_GAP_BLOCK = 1 << 14


@dataclass(frozen=True)
class FirstStage:
    """Per-endogenous-column first-stage output.

    ``delta_hat`` stacks the regression coefficients column by column,
    ``e_hat`` the residuals, formed elementwise from them so that equal
    rows get equal residuals, and ``eta_hat`` their normal scores.  Residuals
    of a column whose sorted neighbours lie within
    TIE_RTOL * (max|z| + max|e|) of each other tie and share the mean of
    their ranks, as in the count-based bootstrap and Monte Carlo fits, so
    rounding does not order residuals that are equal in exact arithmetic;
    the scores are those of :func:`_counted_scores` with unit counts.
    Each residual column is orthogonal to the exogenous design; without
    ties each score column sums to zero exactly.
    """

    delta_hat: np.ndarray   # (k, m)
    e_hat: np.ndarray       # (n, m)
    eta_hat: np.ndarray     # (n, m)
    endogenous_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.e_hat.shape[0]

    @property
    def m(self) -> int:
        return self.e_hat.shape[1]


def _sort_rows(rows: np.ndarray, mag=None):
    """The sort of each row of a 2-D array: (order, runs).

    ``order`` holds the positions in ``rows.ravel()`` of each row's sort,
    and ``runs`` the sorted positions that start a run of tied values
    (:func:`_tie_runs`).
    """
    order, sv = _sorted_rows(rows)
    return order, _tie_runs(sv, mag)


def _sorted_rows(rows: np.ndarray):
    """(order, sorted values) of each row of a 2-D array, ``order``
    holding the positions in ``rows.ravel()`` of each row's sort."""
    n = rows.shape[1]
    order = np.argsort(rows, axis=1)
    order += n * np.arange(rows.shape[0])[:, None]
    return order, rows.ravel()[order]


def _tie_runs(sv: np.ndarray, mag=None):
    """The sorted positions of the rows of ``sv`` that start a run of tied
    values, or None when no row holds a tie.  Without ``mag`` only equal
    values tie.  With ``mag``, one magnitude per row of computed values,
    sorted neighbours at most TIE_RTOL * mag apart tie too, and a chain
    of such gaps is one run."""
    n = sv.shape[1]
    runs = np.ones(sv.shape, dtype=bool)
    if mag is None:
        np.not_equal(sv[:, 1:], sv[:, :-1], out=runs[:, 1:])
    else:
        tol = TIE_RTOL * np.reshape(mag, (-1, 1))
        for lo in range(1, n, _GAP_BLOCK):
            hi = min(lo + _GAP_BLOCK, n)
            np.greater(sv[:, lo:hi] - sv[:, lo - 1:hi - 1], tol,
                       out=runs[:, lo:hi])
    return None if runs.all() else runs


def _scores(v: np.ndarray, mag=None) -> np.ndarray:
    """Normal scores of the values ``v`` (n,), ranked with the ties that
    :func:`_sort_rows` finds given ``mag``: one problem of unit counts."""
    order, runs = _sort_rows(v[None, :], mag)
    scores = np.empty(v.size)
    scores[order[0]] = _counted_scores(np.ones((1, v.size)), runs)[0]
    return scores


def _counted_scores(counts: np.ndarray, runs) -> np.ndarray:
    """Normal scores of problems given as row counts, in sorted order.

    ``counts[..., i]`` is how often a problem draws the value at its i-th
    sorted position, and ``runs`` marks the sorted positions that start a
    run of tied values, as :func:`_sort_rows` gives them (None: no ties),
    for each problem or broadcast over them.  The draws of a run share
    the mean of their ranks among the problem's draws: the draws sorted
    before the run plus (the run's draws + 1) / 2.  So these are the
    scores of the drawn rows themselves, the copies of a row forming a
    tied run, and unit counts give a sample's own scores (:func:`_scores`).
    They are looked up in :func:`_half_rank_scores`; a single problem's
    are computed with the table's arithmetic, bit for bit alike, since a
    table of 2n - 1 scores kept in the cache at large n raised the peak
    RSS of a fit by about three times its size.  A value not drawn gets
    an arbitrary finite score.
    """
    shape, n = counts.shape, counts.shape[-1]
    if runs is not None and np.all(runs | (counts == 0)):
        # only values not drawn tie, and they add no draws to a run
        runs = None
    cum = np.cumsum(counts, axis=-1)
    # twice the average rank, less 2: the index into the score table
    if runs is None:
        cum *= 2.0
        cum -= counts
        cum -= 1.0
        index = cum
    else:
        # every problem starts a run, so a run ends where the next one
        # starts, or with its problem
        starts = np.flatnonzero(np.broadcast_to(runs, shape))
        before = cum.ravel()[starts] - counts.ravel()[starts]
        through = np.append(before[1:], 0.0)
        last = np.append(starts[1:] % n == 0, True)
        through[last] = cum.reshape(-1, n)[starts[last] // n, -1]
        index = np.repeat(before + through - 1.0,
                          np.diff(np.append(starts, counts.size)))
        index = index.reshape(shape)
    # counts and cum are no longer needed: free them before the lookup
    del counts, cum
    if index.size > n:
        index = index.astype(np.intp)
        return _half_rank_scores(n).take(index, mode="clip")
    # the table's own arithmetic: the upper half is the negated lower one
    upper = index > n - 1.0
    np.subtract(2.0 * n - 2.0, index, out=index, where=upper)
    _lower_scores(index, n)
    np.negative(index, out=index, where=upper)
    return index


def _lower_scores(index: np.ndarray, n: int) -> None:
    """ndtri(r / (n + 1)) of the average ranks r at ``index`` = 2r - 2,
    in place."""
    index += 2.0
    index /= 2.0
    index /= n + 1.0
    ndtri(index, out=index)


def normal_scores(v: np.ndarray) -> np.ndarray:
    """Inverse-normal transform of the rescaled ranks of ``v``.

    Invariant under every strictly increasing transformation of ``v``.
    Equal values tie and share the mean of their ranks.  The scores are
    :func:`_counted_scores` of one problem of unit counts, exactly
    sign-symmetric, so without ties they are a permutation of the fixed
    grid ``quantile(i / (n + 1))`` and sum to zero exactly.

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
    return _scores(v)


@functools.lru_cache(maxsize=1)
def _half_rank_scores(n: int) -> np.ndarray:
    """Read-only table ndtri(r / (n + 1)) of the average ranks r = 1, 1.5,
    ..., n, at index 2r - 2.  The entries of r and n + 1 - r are exact
    negatives and the middle one is 0: only the lower half is computed.
    Each r = k / 2.0 is exact, so a lower entry equals
    ndtri(r / (n + 1.0)) of the rank itself bit for bit."""
    table = np.empty(2 * n - 1)
    lower = table[:n - 1]
    lower[:] = np.arange(n - 1)
    _lower_scores(lower, n)
    table[n - 1] = 0.0
    np.negative(lower[::-1], out=table[n:])
    table.flags.writeable = False
    return table


def _residuals(targets, regressors, coef: np.ndarray,
               out=None) -> np.ndarray:
    """``targets[j] - coef[..., 0, j] - sum_i coef[..., i+1, j] *
    regressors[i]`` for each problem of ``coef`` (..., 1 + len(regressors),
    len(targets)), stacked (..., len(targets), n); each target and
    regressor broadcasts against the problems' (..., n), and ``out`` may
    be the targets' own stack.  Computed elementwise on each row, so rows
    with equal values get equal residuals, bit for bit."""
    if out is None:
        out = np.empty((*coef.shape[:-2], len(targets),
                        np.shape(targets[0])[-1]))
    for j, t in enumerate(targets):
        e = out[..., j, :]
        np.subtract(t, coef[..., :1, j], out=e)
        for i, x in enumerate(regressors):
            e -= coef[..., i + 1:i + 2, j] * x
    return out


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
    delta = _lstsq(X.values, Z, X.column_names)[0]
    # elementwise, as the count engine forms them, so that copies of one
    # row get equal residuals and tie; b - V @ coef can round copies
    # apart.  A zero first coefficient makes every column of X, an
    # intercept too, a regressor: z - 0 is z and 1 * c is c exactly
    e_hat = _residuals(list(Z.T), list(X.values.T),
                       np.vstack([np.zeros(m), delta])).T
    eta = []
    for j in range(m):
        z, resid = Z[:, j], e_hat[:, j]
        scale = max(float(np.std(z)), abs(float(np.mean(z))))
        if float(np.std(resid)) <= CONSTANT_RESIDUAL_RTOL * scale:
            raise ConstantInputError(
                f"first-stage residuals of endogenous column {j} are "
                "numerically zero: the column lies in the span of the "
                "exogenous design, so its ranks are pure noise")
        mag = max(z.max(), -z.min()) + max(resid.max(), -resid.min())
        eta.append(_scores(resid, mag))
    if names is None:
        names = tuple(f"z{j}" for j in range(m))
    return FirstStage(delta_hat=delta, e_hat=e_hat, eta_hat=_columns(eta),
                      endogenous_names=tuple(names))


def _columns(cols: list) -> np.ndarray:
    """The (n, len(cols)) array of the columns ``cols``; one column is
    not copied."""
    return cols[0][:, None] if len(cols) == 1 else np.column_stack(cols)
