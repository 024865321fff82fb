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
    ``e_hat`` the residuals, ``eta_hat`` their normal scores, and ``ranks``
    the (average) ranks used.  Residuals of a column whose sorted
    neighbours lie within TIE_RTOL * (max|z| + max|e|) of each other tie
    and share the mean of their ranks, as in the count-based bootstrap
    and Monte Carlo fits, so rounding does not order residuals that are
    equal in exact arithmetic.  Each residual column is orthogonal to the
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
    :func:`_rank_rows`); only equal values tie.  O(n log n), with no
    Python-level loop."""
    v = np.asarray(v, dtype=np.float64).ravel()
    return _rank_rows(v[None, :])[0]


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


def _through_sort(order: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The array whose sorted row s is ``values`` (n,), for each row
    sorted by ``order``: value i lands at row s's i-th smallest entry."""
    out = np.empty(order.size, dtype=np.float64)
    out[order] = values
    return out.reshape(order.shape)


def _run_ranks(order: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Average ranks of rows sorted by ``order`` with the runs ``runs``:
    each run [start, stop) of a sorted row gets the mean of ranks
    start+1..stop."""
    n = order.shape[1]
    # runs of the flattened sorted rows; every row starts a new run
    starts = np.flatnonzero(runs)
    counts = np.append(starts[1:], order.size) - starts
    lo = starts % n                 # where each run starts within its row
    ranks = np.empty(order.size, dtype=np.float64)
    ranks[order.ravel()] = np.repeat(0.5 * (2 * lo + counts + 1), counts)
    return ranks.reshape(order.shape)


def _rank_rows(rows: np.ndarray, mag=None) -> np.ndarray:
    """Average ranks of each row of a 2-D array, with the ties that
    :func:`_sort_rows` finds given ``mag``.

    Tied values share the mean of their ranks, so the ranks do not depend
    on the order the (unstable) sort leaves within a run.  When no row
    holds a tie, the ranks 1..n go straight through the sort.
    """
    order, runs = _sort_rows(rows, mag)
    if runs is None:
        return _through_sort(order, np.arange(1.0, rows.shape[1] + 1.0))
    return _run_ranks(order, runs)


def _score_rows(rows: np.ndarray) -> np.ndarray:
    """Normal scores of each row of a 2-D array, as :func:`normal_scores`
    computes them for one row, of the ranks :func:`_rank_rows` gives.
    When no row holds a tie, the symmetric grid goes straight through the
    sort."""
    order, runs = _sort_rows(rows)
    if runs is None:
        return _through_sort(order, _symmetric_score_grid(rows.shape[1]))
    return _scores_of_ranks(_run_ranks(order, runs))


def _counted_scores(counts: np.ndarray, runs) -> np.ndarray:
    """Normal scores of problems given as row counts, in sorted order.

    ``counts[..., i]`` is how often a problem draws the value at its i-th
    sorted position, and ``runs`` marks the sorted positions that start a
    run of tied values, as :func:`_sort_rows` gives them (None: no ties),
    for each problem or broadcast over them.  The draws of a run share
    the mean of their ranks among the problem's draws: the draws sorted
    before the run plus (the run's draws + 1) / 2.  So these are the
    scores that :func:`_score_rows` gives the drawn rows themselves, the
    copies of a row forming a tied run, looked up in
    :func:`_half_rank_scores` (a single problem's are computed, bit for
    bit alike).  A value not drawn gets an arbitrary finite score.
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
        scores = _half_rank_scores(n).take(index, mode="clip")
    else:
        # the table's own arithmetic, without a table of 2n - 1 entries
        index += 2.0
        index /= 2.0
        index /= n + 1.0
        scores = ndtri(index, out=index)
    return scores


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
    return _score_rows(v[None, :])[0]


def _scores_of_ranks(ranks: np.ndarray) -> np.ndarray:
    """Phi^-1(rank / (n + 1)) of a rank vector, or of each row of a 2-D
    array of them; a row without ties takes the symmetric grid, and a row
    with ties ndtri of its ranks.  (The 2n - 1 scores of
    :func:`_half_rank_scores`, kept in the cache at large n, raised the
    peak RSS of a fit by about three times their size.)"""
    rows = np.atleast_2d(ranks)
    n = rows.shape[1]
    whole = np.all(rows == np.round(rows), axis=1)
    scores = np.empty(rows.shape, dtype=np.float64)
    if whole.any():
        scores[whole] = _symmetric_score_grid(n)[
            rows[whole].astype(np.int64) - 1]
    if not whole.all():
        scores[~whole] = ndtri(rows[~whole] / (n + 1.0))
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
    eta, ranks = [], []
    for j in range(m):
        z, resid = Z[:, j], e_hat[:, j]
        scale = max(float(np.std(z)), abs(float(np.mean(z))))
        if float(np.std(resid)) <= CONSTANT_RESIDUAL_RTOL * scale:
            raise ConstantInputError(
                f"first-stage residuals of endogenous column {j} are "
                "numerically zero: the column lies in the span of the "
                "exogenous design, so its ranks are pure noise")
        # the check above rules out constant residuals, so the ranks are
        # computed once and give the scores directly
        mag = max(z.max(), -z.min()) + max(resid.max(), -resid.min())
        order, runs = _sort_rows(resid[None, :], mag)
        if runs is None:
            ranks.append(_through_sort(order, np.arange(1.0, n + 1.0))[0])
            eta.append(_through_sort(order, _symmetric_score_grid(n))[0])
        else:
            ranks.append(_run_ranks(order, runs)[0])
            eta.append(_scores_of_ranks(ranks[-1]))
    if names is None:
        names = tuple(f"z{j}" for j in range(m))
    return FirstStage(delta_hat=delta, e_hat=e_hat, eta_hat=_columns(eta),
                      ranks=_columns(ranks), endogenous_names=tuple(names))


def _columns(cols: list) -> np.ndarray:
    """The (n, len(cols)) array of the columns ``cols``; one column is
    not copied."""
    return cols[0][:, None] if len(cols) == 1 else np.column_stack(cols)
