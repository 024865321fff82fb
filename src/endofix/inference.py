"""Pairs bootstrap, the exogeneity test, the normality diagnostic for the
first-stage residuals, and the engines that solve the bootstrap's
resamples and the Monte Carlo repetitions as arrays.

The bootstrap resamples whole observation rows with replacement and reruns
the complete two-step pipeline (first stage, scores, second stage) on each
resample, so the standard errors reflect the sampling noise of the
generated regressor as well.

For every built-in estimator (``_STACKED``; ``iv_internal``, whose
coefficients equal npcf's in exact arithmetic, as npcf) a resample is its
row counts, the bincount of the rows it draws, and
:class:`_CountDesign` fits a chunk of one dataset's resamples as
weighted least squares on the data's own rows: one factor of the fixed
columns per dataset, and per chunk the resamples' weighted Gram
matrices, small Cholesky factors and ranks from the counts; no design
is gathered.  :func:`_resample_fits` bootstraps S datasets, each in
chunks of its own; :func:`pairs_bootstrap` is its one-dataset case.
:func:`_fit_stack` solves the Monte Carlo repetitions, whose (S, n)
column stacks it factors with unpivoted QRs; one sort per stack gives
their ranks or scores.  npcf's first-stage residuals tie by the rule of
:func:`~endofix.transform.first_stage`, sorted neighbours within
TIE_RTOL times max|z| + max|e|, among a resample's drawn rows, in every
path, so no problem is refitted for a tie.  A problem near a rank,
constant-residual, exact-fit or copula-guard rejection is flagged and
refitted by the registered scalar estimator, which then decides.  So
are all problems of estimators registered later.  Results of the arrays
equal the scalar ones to rounding (about 1e-14 relative), not bit for
bit.  The resampled rows themselves are bit-identical on both paths: a
chunk's rows are drawn in one pass that follows numpy's bounded-integer
sampler on each resample's own PCG64 stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .data import Dataset
from .errors import (BootstrapError, ConstantInputError, DataError,
                     DomainError, EndofixError, IdentificationError,
                     NonFiniteError, RankDeficiencyError)
from .estimators import (ESTIMATORS, ModelSpec, ThetaEstimate, _check_finite,
                         _names, fit_npcf)
from .numerics import RngStream, _SeedWords, _seed_words, words_generator
from .regress import RANK_RTOL, _right_divide
from .transform import (CONSTANT_RESIDUAL_RTOL, FirstStage, _counted_scores,
                        _score_rows, _sort_rows, _sorted_rows, _tie_runs)

__all__ = ["BootstrapResult", "TestResult", "pairs_bootstrap",
           "exogeneity_test", "exogeneity_test_of_fit",
           "identification_diagnostic"]

# Resample b draws its rows from seed.child(_BOOT_KEY, b), so its draw does
# not depend on the order or the chunk in which resamples are computed.  The
# seed words of all B children of every dataset's seed are hashed in one
# pass (_boot_words) and equal those of each child's own generator(); a
# chunk's rows are drawn from those streams in one pass (_resample_chunk),
# equal to each child generator's integers(0, n, size=n).
_BOOT_KEY = 0xB00

# The estimators _fit_stack and _CountDesign solve.  The bootstrap and the
# Monte Carlo harness choose those paths by name, so a wrapper registered
# in ESTIMATORS under one of these names does not change the path.
_STACKED = ("ols", "npcf", "iv_internal", "two_scope", "gp_copula")

# The chunk budget of both engines, _fit_stack's Monte Carlo stacks and
# _CountDesign's bootstrap counts: a chunk takes as many problems as fit
# in this many bytes of n-long float columns, counted per problem as the
# widest design [X | Z | corrections | y] has (_chunk).  Larger chunks
# spread each chunk's fixed cost of numpy calls over more problems and
# hold more memory: at n = 250 a chunk takes 209 problems, five chunks per
# bootstrap of 999 resamples.  A problem of 50 000 rows with
# [1 | x | x^2 | z] already exceeds it, so a large-n chunk is one problem.
_CHUNK_BYTES = 2 * 1024 * 1024

# Where a bootstrap fit sorts a resample's first-stage residuals, the data
# rows it does not draw take this value: they sort after the drawn ones
# and tie only with each other.
_BIG = np.finfo(np.float64).max

# A bootstrap fit whose residual sum of squares from the Cholesky factor
# is below this fraction of y's (after the fixed design) computes it from
# the residuals: the factor's loses about eps / fraction of it.
_RSS_RECOMPUTE = 1e-2

# Rows per block of a bootstrap fit's products over the data rows: at
# large n a chunk is one resample, and these products then allocate no
# array as long as the data.
_ROW_BLOCK = 8192

# A stacked problem within this factor of a rank, constant-residual,
# exact-fit or copula-guard rejection is refitted by the scalar estimator,
# so rounding differences between the stacked and the pivoted
# factorisations cannot hide a rejection from it.
_FLAG_MARGIN = 100.0


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    null_description: str

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0 or math.isnan(self.p_value)):
            raise DataError("p_value outside [0, 1]")


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap draws and the statistics derived from them.

    ``draws`` holds one row per successful resample, in resample order;
    ``n_failed`` counts the resamples that were dropped, degenerate ones
    (rank, constant-input and identification failures) and those whose
    coefficients are not finite (``NonFiniteError``), and ``failures``
    splits that count by exception type name, e.g.
    ``{"RankDeficiencyError": 2}``.  ``se`` is the per-coefficient
    standard deviation of the draws and ``percentile_ci`` the (lo, hi)
    empirical quantiles at level 1 - alpha.
    ``n_extreme_draws`` counts draws farther than 10 interquartile ranges
    from the median, a heuristic flag for heavy-tailed resampling noise.
    ``scalar_refits`` counts the resamples fitted by the scalar estimator
    rather than the stacked engine, failed ones included.
    """

    draws: np.ndarray
    names: tuple[str, ...]
    se: np.ndarray
    percentile_ci: np.ndarray  # (2, p): rows lo, hi
    level: float
    B: int
    seed: RngStream
    n_failed: int = 0
    n_extreme_draws: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    scalar_refits: int = 0

    def se_of(self, name: str) -> float:
        return float(self.se[self.names.index(name)])

    def ci_of(self, name: str) -> tuple[float, float]:
        j = self.names.index(name)
        return float(self.percentile_ci[0, j]), float(self.percentile_ci[1, j])


def _resample_rows(words: np.ndarray, n: int) -> np.ndarray:
    """Row indices of the resample whose seed words are ``words``: the
    reference that :func:`_resample_chunk` reproduces, and the rows of a
    scalar refit."""
    return words_generator(words).integers(0, n, size=n)


def _bounded_draws(words: np.ndarray, n: int, size: int):
    """``words_generator(w).integers(0, n, size=size)`` for each row w of
    the seed words ``words`` (S, 4), computed for the whole block at once.

    Returns (rows (S, size), exact (S,)); a row that is not ``exact`` holds
    no valid draw.  For 2 <= n < 2^32, numpy draws each index with
    Lemire's method from one 32-bit output of PCG64 (the low half of a
    64-bit word first, then the high half): u * n >> 32, where a u whose
    product has its low 32 bits below 2^32 mod n is rejected and the next
    u is taken.  So the indices are the accepted products of the stream,
    in order.  Each row takes ``size`` outputs, twice the expected number
    of rejections and 8 more; a row that rejects more than that is not
    exact, and neither is any row when n is outside that range.
    """
    S = len(words)
    if not 2 <= n < 1 << 32:
        return np.empty((S, size), np.int64), np.zeros(S, dtype=bool)
    threshold = (1 << 32) % n
    spare = 8 + 2 * -(-size * threshold // ((1 << 32) - threshold))
    k = (size + spare + 1) // 2
    raw = np.empty((S, k), np.uint64)
    for s, w in enumerate(words):
        raw[s] = np.random.PCG64(_SeedWords(w)).random_raw(k)
    # each word as two little-endian uint32s, the low half first
    u = raw.astype("<u8", copy=False).view("<u4")
    rows = np.multiply(u, np.uint64(n), dtype=np.uint64)
    rows >>= np.uint64(32)
    rows = rows.view(np.int64)

    def rejected(v):
        # the low 32 bits of u * n are the wrapped uint32 product
        return np.multiply(v, np.uint32(n), dtype=np.uint32) < threshold
    exact = np.ones(S, dtype=bool)
    for s in np.flatnonzero(rejected(u[:, :size]).any(axis=1)):
        kept = rows[s][~rejected(u[s])]
        if kept.size >= size:
            rows[s, :size] = kept[:size]
        else:
            exact[s] = False
    return rows[:, :size], exact


def _resample_chunk(words: np.ndarray, n: int) -> np.ndarray:
    """Row indices (S, n) of the resamples whose seed words are the rows of
    ``words``, equal to :func:`_resample_rows` of each, bit for bit: a row
    that :func:`_bounded_draws` cannot draw exactly is drawn there."""
    rows, exact = _bounded_draws(words, n, n)
    for s in np.flatnonzero(~exact):
        rows[s] = _resample_rows(words[s], n)
    return rows


def _counts(rows: np.ndarray) -> np.ndarray:
    """How often each resample, a row of ``rows`` (S, n), draws each of
    the n data rows: an (S, n) float array."""
    S, n = rows.shape
    flat = rows.ravel() if S == 1 else (rows + n * np.arange(S)[:, None]).ravel()
    # each array is dropped once used: at small n these are a chunk's
    # largest
    del rows
    counts = np.bincount(flat, minlength=S * n)
    del flat
    return counts.reshape(S, n).astype(np.float64)


def _well_conditioned(R: np.ndarray, Rinv=None) -> np.ndarray:
    """Per stacked triangular factor: is sigma_max / sigma_min clear of
    RANK_RTOL?  ||R||_F ||R^-1||_F bounds that ratio from above, so a
    factor passes only if the ratio does; and sigma_min <= every |diag|
    <= sigma_max, so a design the pivoted QR rejects never passes.
    ``Rinv`` is R^-1 when the caller has it.  A factor that is not finite,
    or so large or small that the bound overflows, does not pass."""
    q = R.shape[-1]
    ok = np.ones(len(R), dtype=bool)
    if Rinv is None:
        ok = (np.isfinite(R).all(axis=(1, 2))
              & (np.diagonal(R, axis1=1, axis2=2) != 0.0).all(axis=1))
        Rinv = np.linalg.inv(np.where(ok[:, None, None], R, np.eye(q)))
    limit = 1.0 / (_FLAG_MARGIN * RANK_RTOL)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (np.einsum("sij,sij->s", R, R)
                 * np.einsum("sij,sij->s", Rinv, Rinv))
    return ok & (bound < limit * limit)


def _solve_upper(R: np.ndarray, rhs: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Solve the stacked systems R x = rhs; rows not ``ok`` get an identity
    factor so one singular factor cannot fail the whole stack."""
    R = np.where(ok[:, None, None], R, np.eye(R.shape[-1]))
    return np.linalg.solve(R, rhs)


def _cholesky(G: np.ndarray):
    """Upper Cholesky factors of the stacked symmetric matrices ``G``, and
    which of them exist; a matrix that is not positive definite gets an
    identity factor."""
    try:
        return np.linalg.cholesky(G, upper=True), np.ones(len(G), dtype=bool)
    except np.linalg.LinAlgError:
        U, ok = np.empty_like(G), np.ones(len(G), dtype=bool)
        for s, g in enumerate(G):
            try:
                U[s] = np.linalg.cholesky(g, upper=True)
            except np.linalg.LinAlgError:
                U[s], ok[s] = np.eye(len(g)), False
        return U, ok


def _scale(V: np.ndarray) -> np.ndarray:
    """max(1, std, |mean|) of each problem's column(s) in ``V``, taken
    over the rows (axis 1): the scale that the constant checks compare
    with."""
    return np.maximum(1.0, np.maximum(V.std(axis=1), np.abs(V.mean(axis=1))))


def _residuals(targets, regressors, coef: np.ndarray, out=None) -> np.ndarray:
    """``targets[j] - coef[:, 0, j] - sum_i coef[:, i+1, j] * regressors[i]``
    for each of S problems, stacked (S, len(targets), n); each target and
    regressor is a column (n,) or a stack of them (S, n), and ``out`` may
    be the targets' own stack.  Computed elementwise on each row, so rows
    with equal values get equal residuals, bit for bit."""
    if out is None:
        out = np.empty((len(coef), len(targets), np.shape(targets[0])[-1]))
    for j, t in enumerate(targets):
        e = out[:, j]
        np.subtract(t, coef[:, :1, j], out=e)
        for i, x in enumerate(regressors):
            e -= coef[:, i + 1:i + 2, j] * x
    return out


def _first_step(A: np.ndarray, k: int, m: int):
    """Stacked least squares of the columns ``A[..., k:k+m]`` on
    ``A[..., :k]``, whose first column is the intercept.

    Returns (residuals (S, m, n), ok).  The residuals are computed
    elementwise on the rows of ``A`` (:func:`_residuals`).
    """
    R = np.linalg.qr(A[..., :k + m], mode="r")
    ok = _well_conditioned(R[:, :k, :k])
    delta = _solve_upper(R[:, :k, :k], R[:, :k, k:], ok)
    E = _residuals([A[..., k + j] for j in range(m)],
                   [A[..., i] for i in range(1, k)], delta)
    return E, ok


def _npcf_scores(W: np.ndarray, k: int, m: int):
    """Fill ``W[..., k+m:k+2m]`` with the normal scores of the first-stage
    residuals of ``W[..., k:k+m]`` on ``W[..., :k]``; returns ok.

    The residuals tie as in :func:`~endofix.transform.first_stage`.
    Besides the rank check, a problem is flagged whose residuals come
    near the constant-residual rejection.
    """
    n = W.shape[1]
    E, ok = _first_step(W, k, m)
    Zb = W[..., k:k + m]
    ok &= np.all(E.std(axis=2)
                 > _FLAG_MARGIN * CONSTANT_RESIDUAL_RTOL * _scale(Zb), axis=1)
    mag = np.abs(Zb).max(axis=1) + np.abs(E).max(axis=2)
    scores = _score_rows(E.reshape(-1, n), mag.ravel())
    W[..., k + m:k + 2 * m] = scores.reshape(-1, m, n).transpose(0, 2, 1)
    return ok


def _chunk(n: int, spec: ModelSpec) -> int:
    """Problems per chunk, in either engine: as many as fit in
    ``_CHUNK_BYTES`` when each takes as many n-long float columns as the
    widest design ``[X | Z | corrections | y]`` has, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * n * (spec.k + 2 * spec.m + 1)))


def _accept(estimator: str, theta: np.ndarray, rss: np.ndarray,
            yscale: np.ndarray, n: int, ok: np.ndarray) -> np.ndarray:
    """The flags both stacked solvers take from a problem's coefficients
    ``theta`` and residual sum of squares ``rss``: non-finite
    coefficients, an exact fit, and gp_copula's 1 - rho^2 > 0 guard.
    Returns the new ok; gp_copula's last coefficient becomes its rho."""
    ok = ok & np.isfinite(theta).all(axis=1)
    # when y is fitted exactly the residuals are rounding noise, and so
    # are gp's rho and every standard error (ols's classical ones and the
    # bootstrap's): flag a problem near that
    tol = _FLAG_MARGIN * CONSTANT_RESIDUAL_RTOL
    ok &= np.sqrt(rss / n) > tol * yscale
    if estimator == "gp_copula":
        # gp_fit's rho = c / sqrt(c^2 + s^2) with s^2 = RSS / n: flag a
        # problem near its 1 - rho^2 > 0 guard too
        c, s2 = theta[:, -1], rss / n
        sigma = np.sqrt(c * c + s2)
        ok &= s2 > tol * sigma * sigma
        theta[:, -1] = np.divide(c, sigma, out=np.zeros(len(c)), where=ok)
    return ok


def _fit_stack(estimator: str, columns, spec: ModelSpec):
    """Fit ``estimator``, one of ``_STACKED``, on a stack of S problems
    of n rows each: ``columns`` maps each model column to its stack, an
    (S, n) array whose row s belongs to problem s (the Monte Carlo
    chunks).  The caller has checked the model columns to be finite.

    Returns (theta, ok, se).  ``theta[s]`` holds the coefficients in the
    scalar estimator's order.  ``ok[s]`` is False when problem s comes
    near one of the scalar estimator's rejections or its coefficients are
    not finite, and must be refitted by the scalar estimator, which then
    decides; npcf's residuals tie as the scalar estimator's do (TIE_RTOL
    times max|z| + max|e|), so a tie flags nothing.  ``se`` holds ols's
    classical standard errors, and is None for the other estimators.

    Each stage factors the augmented ``[design | rhs]`` with an unpivoted
    QR: the top-right block of R is Q'rhs, so Q is never formed.  The
    second stage regresses y on ``[X | Z | corrections]``: no correction
    for ``ols``, the normal scores of the first-stage residuals for
    ``npcf`` and ``iv_internal``, the scores of z for ``gp_copula``, and
    for ``two_scope`` the residuals of the scores of Z on the scores of
    X.
    """
    k, m = spec.k, spec.m
    S, n = np.shape(columns[spec.outcome])
    q = k + m if estimator == "ols" else k + 2 * m
    W = np.empty((S, n, q + 1))
    W[..., 0] = 1.0
    for j, c in zip((*range(1, k + m), q),
                    (*spec.exogenous, *spec.endogenous, spec.outcome)):
        W[..., j] = columns[c]
    ok = np.ones(S, dtype=bool)
    if estimator in ("npcf", "iv_internal"):
        # iv's theta is npcf's in exact arithmetic, and its solves (on the
        # scores, and on the regressors partialled on them) are no worse
        # conditioned than npcf's design, so npcf's flags cover iv's
        ok = _npcf_scores(W, k, m)
    elif estimator == "two_scope":
        A = np.empty((S, n, k + m))
        A[..., 0] = 1.0
        for j in range(1, k + m):
            A[..., j] = _score_rows(W[..., j])
        C, ok = _first_step(A, k, m)
        W[..., k + m:q] = C.transpose(0, 2, 1)
        del A, C
    elif estimator == "gp_copula":
        if m != 1:
            # gp_fit rejects this spec itself
            return np.zeros((S, q)), np.zeros(S, dtype=bool), None
        W[..., q - 1] = _score_rows(W[..., k])
    yscale = _scale(W[..., q])
    R = np.linalg.qr(W, mode="r")
    del W
    ok &= _well_conditioned(R[:, :q, :q])
    theta = _solve_upper(R[:, :q, :q], R[:, :q, q:], ok)[..., 0]
    rss = R[:, q, q] ** 2
    ok = _accept(estimator, theta, rss, yscale, n, ok)
    if estimator == "ols":
        Rinv = _solve_upper(R[:, :q, :q],
                            np.broadcast_to(np.eye(q), R[:, :q, :q].shape), ok)
        return theta, ok, np.sqrt(rss[:, None] / (n - q)
                                  * np.sum(Rinv ** 2, axis=2))
    return theta, ok, None


class _CountDesign:
    """One dataset's fixed design, for fitting ``estimator`` on its
    bootstrap resamples given as row counts (:meth:`fit`).

    A resample that draws data row i c_i times is the least-squares
    problem on the data's own rows with weights c.  The fixed columns
    D = [1 | X | Z] are factored once, D = Q R0, Q = D R0^-1 being
    computed by substitution a block of rows at a time.  A resample's
    weighted Gram matrix H = Q' diag(c) Q is near the identity whatever
    the units or the collinearity of D, so its Cholesky factor U is
    accurate, and U R0 is the R factor of the resample's design.  The
    first stage, and the projection of the per-resample columns
    [corrections | y] on D, are solved with it; the second stage adds the
    corrections to D by the Cholesky factor of the weighted Gram matrix
    of those columns' residuals.
    """

    def __init__(self, data: Dataset, spec: ModelSpec, estimator: str):
        self.estimator = estimator
        self.k, self.m = spec.k, spec.m
        self.cols = [data.column(c) for c in (*spec.exogenous,
                                              *spec.endogenous)]
        self.y = data.column(spec.outcome)
        n = data.n
        self.blocks = [slice(lo, min(lo + _ROW_BLOCK, n))
                       for lo in range(0, n, _ROW_BLOCK)]
        # R0 a block at a time: the R factor of [R0 so far; next block]
        R0 = np.empty((0, self.k + self.m))
        for rows in self.blocks:
            R0 = np.linalg.qr(np.vstack([R0, self._design(rows)]), mode="r")
        self.R0 = R0
        # a singular R0 (a rank-deficient D) makes every resample's design
        # rank deficient: every one is left to the scalar estimator
        self.usable = bool(np.isfinite(R0).all() and np.diag(R0).all())
        if self.usable:
            self.R0inv = _right_divide(np.eye(len(R0)), R0)
        self._cached = ([self._basis(self.blocks[0])]
                        if self.usable and len(self.blocks) == 1 else None)
        self._sorts = {}

    def _design(self, rows: slice) -> np.ndarray:
        return np.column_stack([np.ones(rows.stop - rows.start),
                                *(c[rows] for c in self.cols)])

    def _moments(self, rows: slice) -> np.ndarray:
        """The block's values and squares of y and of each endogenous
        column: weighted by the counts, their sums give the means and
        variances over the draws."""
        return np.column_stack([w for v in (self.y, *self.cols[self.k - 1:])
                                for w in (v[rows], v[rows] ** 2)])

    def _basis(self, rows: slice):
        """(rows, D, Q, F): the block's rows of D and of Q = D R0^-1 and,
        for the one block of a small dataset, which is kept, each row's
        outer product with itself, flattened, beside :meth:`_moments`: a
        chunk's weighted Gram matrices and sums are then one product.
        Else F is None."""
        D = self._design(rows)
        Q = _right_divide(D, self.R0)
        if len(self.blocks) > 1:
            return rows, D, Q, None
        return rows, D, Q, np.hstack([(Q[:, :, None] * Q[:, None, :])
                                      .reshape(len(Q), -1),
                                      self._moments(rows)])

    def _bases(self):
        """The blocks of :meth:`_basis`; kept when there is one block."""
        if self._cached is not None:
            return self._cached
        return (self._basis(rows) for rows in self.blocks)

    def fit(self, C: np.ndarray):
        """Fit the resamples whose row counts are the rows of ``C`` (S, n).

        Returns (theta, ok), as :func:`_fit_stack` does: ``ok[s]`` is
        False when resample s comes near one of the scalar estimator's
        rejections or its coefficients are not finite.
        """
        S, n = C.shape
        k, m = self.k, self.m
        q0 = k + m
        est = self.estimator
        mc = 0 if est == "ols" else m
        if not self.usable or (est == "gp_copula" and m != 1):
            # gp_fit rejects the spec itself
            return np.zeros((S, q0 + mc)), np.zeros(S, dtype=bool)
        F = np.zeros((S, q0 * q0 + 2 * (m + 1)))
        for rows, _, Q, QF in self._bases():
            if QF is not None:
                F += C[:, rows] @ QF
                continue
            Cb = C[:, rows]
            F[:, :q0 * q0] += ((Cb[:, :, None] * Q).transpose(0, 2, 1)
                               @ Q).reshape(S, -1)
            F[:, q0 * q0:] += Cb @ self._moments(rows)
        # _scale of y and of each endogenous column over the draws: where
        # the mean square less the squared mean cancels, the mean bounds
        # the scale
        mean = F[:, q0 * q0::2] / n
        var = np.maximum(F[:, q0 * q0 + 1::2] / n - mean * mean, 0.0)
        scale = np.maximum(1.0, np.maximum(np.sqrt(var), np.abs(mean)))
        U, ok = _cholesky(F[:, :q0 * q0].reshape(S, q0, q0))
        # U is near the identity, and H^-1 = Uinv Uinv'
        Uinv = np.linalg.inv(U)
        RD = U @ self.R0
        if est in ("npcf", "iv_internal"):
            delta = self.R0inv[:k, :k] @ (Uinv[:, :k, :k] @ RD[:, :k, k:])
            corr, fine = self._first_stage_scores(C, delta, scale[:, 1:])
            ok &= fine
        elif est == "two_scope":
            corr, fine = self._scored_residuals(C)
            ok &= fine
        elif est == "gp_copula":
            corr = self._data_scores(C, k - 1)[:, None]
        else:
            corr = np.empty((S, 0, n))
        V = np.empty((S, mc + 1, n))
        V[:, :mc] = corr
        V[:, mc] = self.y
        del corr
        # [corrections | y] = D beta + residuals, R0 beta = Y with
        # Y = H^-1 Q' diag(c) V; V becomes the residuals
        P = np.zeros((S * (mc + 1), q0))
        for rows, _, Q, _ in self._bases():
            P += (C[:, None, rows] * V[..., rows]).reshape(-1, len(Q)) @ Q
        Y = Uinv @ (Uinv.transpose(0, 2, 1)
                    @ P.reshape(S, mc + 1, q0).transpose(0, 2, 1))
        beta = self.R0inv @ Y
        Bt = beta.transpose(0, 2, 1).reshape(-1, q0)
        G = np.zeros((S, mc + 1, mc + 1))
        for rows in self.blocks:
            Vb = V[..., rows]
            D = self._cached[0][1] if self._cached else self._design(rows)
            Vb -= (Bt @ D.T).reshape(Vb.shape)
            G += (C[:, None, rows] * Vb) @ Vb.transpose(0, 2, 1)
        RV, fine = _cholesky(G)
        ok &= fine
        RVinv = np.linalg.inv(RV[:, :mc, :mc])
        rho = RVinv @ RV[:, :mc, mc:]
        theta = np.empty((S, q0 + mc))
        theta[:, :q0] = (beta[:, :, mc:] - beta[:, :, :mc] @ rho)[..., 0]
        theta[:, q0:] = rho[..., 0]
        # RV's last pivot is the residual sum of squares less rounding of
        # the order of its y part's: near an exact fit the residuals
        # themselves give it
        rss = RV[:, mc, mc] ** 2
        near = np.flatnonzero(rss < _RSS_RECOMPUTE * G[:, mc, mc])
        if near.size:
            Cn, Vn = C[near], V[near]
            r = Vn[:, mc] - (rho[near, :, :1] * Vn[:, :mc]).sum(axis=1)
            rss[near] = np.einsum("sn,sn,sn->s", Cn, r, r)
        # the R factor of the resample's second-stage design and its
        # inverse, from those of its blocks
        R = np.zeros((S, q0 + mc, q0 + mc))
        R[:, :q0, :q0] = RD
        R[:, :q0, q0:] = U @ Y[:, :, :mc]
        R[:, q0:, q0:] = RV[:, :mc, :mc]
        Rinv = np.zeros_like(R)
        Rinv[:, :q0, :q0] = self.R0inv @ Uinv
        Rinv[:, :q0, q0:] = -beta[:, :, :mc] @ RVinv
        Rinv[:, q0:, q0:] = RVinv
        ok &= _well_conditioned(R, Rinv)
        return theta, _accept(est, theta, rss, scale[:, 0], n, ok)

    def _first_stage_scores(self, C: np.ndarray, delta: np.ndarray,
                     zscale: np.ndarray):
        """Normal scores (S, m, n) of the first-stage residuals on the data
        rows, ranked with each resample's counts, and ok.

        The residuals tie as in :func:`~endofix.transform.first_stage`,
        among the resample's draws: the rows not drawn sort after the
        drawn ones, so they neither move a rank nor link two drawn
        residuals into a tie, and get an arbitrary finite score.  Besides
        the rank check, a resample is flagged whose residuals come near
        the constant-residual rejection, relative to ``zscale``, the
        endogenous columns' :func:`_scale` over its draws.
        """
        S, n = C.shape
        k, m = self.k, self.m
        Z = self.cols[k - 1:]
        E = _residuals(Z, self.cols[:k - 1], delta)
        # a least-squares fit with an intercept leaves residuals of mean
        # 0, so their root mean square is their standard deviation
        std = np.sqrt(np.einsum("sn,sjn,sjn->sj", C, E, E) / n)
        ok = np.all(std > _FLAG_MARGIN * CONSTANT_RESIDUAL_RTOL * zscale,
                    axis=1)
        drawn = C > 0
        # in place: E is this call's own
        np.putmask(E, np.broadcast_to(~drawn[:, None], E.shape), _BIG)
        order, sv = _sorted_rows(E.reshape(S * m, n))
        del E
        # the drawn residuals sort first: their extremes are the first and
        # the last of them
        last = np.repeat(np.count_nonzero(drawn, axis=1), m) - 1
        mag = np.maximum(sv[np.arange(S * m), last], -sv[:, 0])
        mag += np.stack([(np.abs(z) * drawn).max(axis=1) for z in Z],
                        axis=1).ravel()
        runs = _tie_runs(sv, mag)
        del sv
        sorted_scores = _counted_scores(
            (C if m == 1 else np.repeat(C, m, axis=0)).ravel()[order], runs)
        # allocated after the lookup, whose temporaries are freed by now
        scores = np.empty(S * m * n)
        scores[order.ravel()] = sorted_scores.ravel()
        return scores.reshape(S, m, n), ok

    def _data_scores(self, C: np.ndarray, j: int) -> np.ndarray:
        """Normal scores (S, n) of data column ``cols[j]`` within each
        resample; the column is sorted once."""
        if j not in self._sorts:
            self._sorts[j] = _sort_rows(self.cols[j][None])
        order, runs = self._sorts[j]
        sorted_scores = _counted_scores(C[:, order[0]], runs)
        scores = np.empty(C.shape)
        scores[:, order[0]] = sorted_scores
        return scores

    def _scored_residuals(self, C: np.ndarray):
        """two_scope's corrections: the residuals (S, m, n) of the scores
        of Z on the scores of X within each resample, and ok."""
        S, n = C.shape
        k, m = self.k, self.m
        A = np.empty((S, k + m, n))
        A[:, 0] = 1.0
        for j in range(k + m - 1):
            A[:, 1 + j] = self._data_scores(C, j)
        M = np.zeros((S, k + m, k + m))
        for rows in self.blocks:
            M += (C[:, None, rows] * A[..., rows]) @ A[..., rows].transpose(
                0, 2, 1)
        RA, ok = _cholesky(M)
        ok &= _well_conditioned(RA[:, :k, :k])
        gamma = _solve_upper(RA[:, :k, :k], RA[:, :k, k:], ok)
        return _residuals(list(A[:, k:].transpose(1, 0, 2)),
                          list(A[:, 1:k].transpose(1, 0, 2)), gamma), ok


def _boot_words(seeds, B: int) -> np.ndarray:
    """The seed words (len(seeds) * B, 4) of resamples 0..B-1 of each of
    ``seeds``: ``seed.child_words(_BOOT_KEY, np.arange(B))`` stacked,
    hashed in one pass per root seed (mc_run's seeds share one)."""
    ids = np.concatenate([seed._child_id((_BOOT_KEY, np.arange(B)))
                          for seed in seeds])
    roots = np.repeat(np.array([seed.seed for seed in seeds], np.uint64), B)
    words = np.empty((len(ids), 4), np.uint64)
    for root in np.unique(roots):
        at = roots == root
        words[at] = _seed_words(int(root), ids[at])
    return words


def _resample_fits(estimator: str, datasets, spec: ModelSpec, seeds,
                   B: int):
    """Fit ``estimator`` on B resamples of each of S datasets of n rows,
    whose model columns the caller has checked to be finite.  Resample b
    of dataset s draws its rows from ``seeds[s].child(_BOOT_KEY, b)``.

    For every estimator in ``_STACKED`` each dataset's resamples are
    fitted a chunk at a time as row counts (:class:`_CountDesign`), so a
    resample's result does not depend on the other datasets.  A resample
    it flags, and every resample of an estimator outside ``_STACKED``, is
    refitted by the registered estimator on ``datasets[s].take(rows_b)``,
    which then decides whether it fails; non-finite coefficients fail as
    a ``NonFiniteError``.

    Returns (theta (S, B, p), solved (S, B), failures, refits), the last
    two summed over the datasets: the failed resamples by exception type
    name, and the number refitted.  A failed resample's theta is 0.
    """
    S, n = len(datasets), datasets[0].n
    words = _boot_words(seeds, B)
    theta = np.zeros((S * B, len(_names(spec, estimator != "ols"))))
    solved = np.zeros(S * B, dtype=bool)
    if estimator in _STACKED:
        chunk = _chunk(n, spec)
        for s, data in enumerate(datasets):
            design = _CountDesign(data, spec, estimator)
            for lo in range(s * B, (s + 1) * B, chunk):
                ps = np.arange(lo, min(lo + chunk, (s + 1) * B))
                th, ok = design.fit(_counts(_resample_chunk(words[ps], n)))
                theta[ps[ok]] = th[ok]
                solved[ps] = ok
    failures: dict[str, int] = {}
    refits = np.flatnonzero(~solved)
    for p in refits:
        try:
            rows = _resample_rows(words[p], n)
            th = ESTIMATORS[estimator](datasets[p // B].take(rows), spec).theta
            if not np.all(np.isfinite(th)):
                raise NonFiniteError("non-finite bootstrap coefficients")
            theta[p], solved[p] = th, True
        except (RankDeficiencyError, ConstantInputError,
                IdentificationError, NonFiniteError) as exc:
            kind = type(exc).__name__
            failures[kind] = failures.get(kind, 0) + 1
    return theta.reshape(S, B, -1), solved.reshape(S, B), failures, refits.size


def pairs_bootstrap(data: Dataset, spec: ModelSpec, estimator: str = "npcf",
                    B: int = 199, seed: RngStream = RngStream(0),
                    level: float = 0.05) -> BootstrapResult:
    """Resample rows with replacement and refit ``estimator`` B times.

    The one-dataset case of :func:`_resample_fits`: for every built-in
    estimator (``iv_internal`` as npcf's) the resamples are solved a
    chunk at a time from their row counts by :class:`_CountDesign`, and
    one it flags (near a rank, constant-residual, exact-fit or
    copula-guard rejection) is refitted by the registered estimator,
    which then decides whether it fails; estimators registered later
    refit every resample.  npcf's first-stage residuals within TIE_RTOL
    times max|z| + max|e| of each other tie in both paths, so no resample
    is refitted for a tie.  The chunks' draws equal those of refitting
    every resample to rounding (about 1e-14 relative), not bit for bit.
    A resample whose refitted coefficients are not finite fails as a
    ``NonFiniteError``.  The full sample is not fitted here: a dataset
    the estimator cannot fit makes its resamples fail, which raises
    BootstrapError.

    Resample b's rows are ``seed.child(_BOOT_KEY, b).generator()
    .integers(0, n, size=n)``, bit for bit, however they are drawn: a
    chunk draws the rows of all its resamples in one pass
    (:func:`_resample_chunk`), and a refit draws its own
    (:func:`_resample_rows`).

    Parameters
    ----------
    estimator : str
        One of the registered two-step estimators ("npcf", "iv_internal",
        "two_scope", "gp_copula").
    B : int
        Number of resamples, at least 2.
    seed : RngStream
        Master stream; resample b uses the derived child stream b, so the
        result does not depend on the order resamples are computed in.
    level : float
        Two-sided percentile-interval level alpha (default 5%), in (0, 1).

    Raises
    ------
    BootstrapError
        If B < 2, or more than 1% of resamples fail.
    NonFiniteError
        If a standard error or interval bound is not finite: the spread
        of finite draws overflowed double precision.
    DomainError
        If ``level`` is not strictly between 0 and 1, a model column holds
        a non-finite value, or there are no more rows than coefficients.
    """
    if B < 2:
        raise BootstrapError("bootstrap standard errors need B >= 2")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level}")
    if estimator not in ESTIMATORS or estimator == "ols":
        raise DataError(f"unknown bootstrap estimator {estimator!r}")
    names = _names(spec, True)
    _check_finite(data, spec)
    if data.n <= len(names):
        raise DomainError(f"need more rows than coefficients "
                          f"(n={data.n}, p={len(names)})")

    theta, solved, failures, refits = _resample_fits(estimator, [data], spec,
                                                     [seed], B)
    n_failed = B - int(solved.sum())
    if n_failed > 0.01 * B:
        raise BootstrapError(
            f"{n_failed} of {B} bootstrap resamples failed "
            f"(by type: {failures}); the design is too fragile for "
            "resampling")
    draws = theta[0][solved[0]]

    se = draws.std(axis=0, ddof=1)
    ci = np.quantile(draws, [level / 2.0, 1.0 - level / 2.0], axis=0)
    bad = ~(np.isfinite(se) & np.isfinite(ci).all(axis=0))
    if bad.any():
        raise NonFiniteError(
            f"bootstrap standard error or interval of "
            f"{names[int(np.argmax(bad))]} is not finite: the spread of "
            "the draws overflowed double precision")
    q1, med, q3 = np.percentile(draws, [25.0, 50.0, 75.0], axis=0)
    iqr = np.maximum(q3 - q1, 1e-300)
    extreme = int(np.sum(np.any(np.abs(draws - med) > 10.0 * iqr, axis=1)))
    return BootstrapResult(draws=draws, names=names, se=se,
                           percentile_ci=ci, level=level, B=B, seed=seed,
                           n_failed=n_failed, n_extreme_draws=extreme,
                           failures=failures, scalar_refits=refits)


def exogeneity_test(data: Dataset, spec: ModelSpec) -> TestResult:
    """t-test of a zero coefficient on the normal-scores regressor; fits
    ``npcf`` and applies :func:`exogeneity_test_of_fit`."""
    if spec.m != 1:
        raise DataError("exogeneity test is defined for one endogenous column")
    return exogeneity_test_of_fit(fit_npcf(data, spec))


def exogeneity_test_of_fit(fit: ThetaEstimate) -> TestResult:
    """:func:`exogeneity_test` of an already fitted ``npcf`` estimate.

    Uses the *classical* OLS standard error from the augmented regression:
    under the null of exogeneity the generated regressor costs nothing
    asymptotically, and the textbook statistic is standard normal.  Only
    defined for a single endogenous column.
    """
    if fit.estimator_tag != "npcf":
        raise DataError("exogeneity test needs a fitted npcf estimate")
    if fit.first_stage.m != 1:
        raise DataError("exogeneity test is defined for one endogenous column")
    j = len(fit.names) - 1          # the single rho coefficient
    se = float(np.sqrt(fit.vcov[j, j]))
    if se <= 0.0:
        raise EndofixError("degenerate standard error in exogeneity test")
    t = float(fit.theta[j]) / se
    p = float(2.0 * ndtr(-abs(t)))
    return TestResult(statistic=t, p_value=min(p, 1.0),
                      null_description="rho = 0 (endogenous regressor is exogenous)")


def identification_diagnostic(fs: FirstStage) -> list[TestResult]:
    """Jarque-Bera normality statistic for each first-stage residual column.

    A *large* p-value means the residuals look Gaussian, i.e. the normal
    scores are close to a linear function of the endogenous regressor and
    identification is weak; callers should surface that as a warning.
    """
    if fs.n < 20:
        raise DataError("normality diagnostic needs at least 20 observations")
    out = []
    for j in range(fs.m):
        e = fs.e_hat[:, j]
        c = e - e.mean()
        # products, not c ** 3 and c ** 4, which go through libm's pow
        c2 = c * c
        m2 = float(np.mean(c2))
        skew = float(np.mean(c2 * c)) / m2 ** 1.5
        kurt = float(np.mean(c2 * c2)) / m2 ** 2
        jb = fs.n * (skew ** 2 / 6.0 + (kurt - 3.0) ** 2 / 24.0)
        p = math.exp(-jb / 2.0)  # chi-squared(2) upper tail, exact
        out.append(TestResult(
            statistic=jb, p_value=p,
            null_description=(f"first-stage residuals ({fs.endogenous_names[j]}) "
                              "are Gaussian — non-rejection warns of weak "
                              "identification")))
    return out
