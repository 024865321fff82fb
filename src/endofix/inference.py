"""Pairs bootstrap, the exogeneity test, the normality diagnostic for the
first-stage residuals, and the engine that solves the bootstrap's
resamples and the Monte Carlo repetitions as arrays.

The bootstrap resamples whole observation rows with replacement and reruns
the complete two-step pipeline (first stage, scores, second stage) on each
resample, so the standard errors reflect the sampling noise of the
generated regressor as well.

For every built-in estimator (``_STACKED``; ``iv_internal``, whose
coefficients equal npcf's in exact arithmetic, as npcf) a problem is a
dataset's row counts: a bootstrap resample is the bincount of the rows
it draws, and a Monte Carlo repetition is its own data, every count 1.
:class:`_CountDesign` fits a chunk of problems of S datasets as weighted
least squares on the data's own rows: one factor of the fixed columns
per dataset, and per problem its weighted Gram matrix, small Cholesky
factors and ranks from the counts; no design is gathered.
:func:`_resample_fits` bootstraps S datasets, each in chunks of its own,
and :func:`pairs_bootstrap` is its one-dataset case;
:func:`~endofix.simulation.mc_run` fits a chunk of repetitions as one
design of S datasets.  npcf's first-stage residuals tie by the rule of
:func:`~endofix.transform.first_stage`, sorted neighbours within
TIE_RTOL times max|z| + max|e|, among a problem's drawn rows, in every
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
                        _sort_rows, _sorted_rows, _tie_runs)

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

# The estimators _CountDesign solves.  The bootstrap and the Monte Carlo
# harness choose that path by name, so a wrapper registered
# in ESTIMATORS under one of these names does not change the path.
_STACKED = ("ols", "npcf", "iv_internal", "two_scope", "gp_copula")

# The chunk budget of _CountDesign, for a bootstrap's resamples and for
# Monte Carlo repetitions alike: a chunk takes as many problems as fit in
# this many bytes of n-long float columns, counted per problem as the
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

# A problem within this factor of a rank, constant-residual, exact-fit or
# copula-guard rejection is refitted by the scalar estimator, so rounding
# differences between the count-based and the pivoted factorisations
# cannot hide a rejection from it.
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
    rather than the count-based engine, failed ones included.
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


def _well_conditioned(R: np.ndarray, Rinv: np.ndarray) -> np.ndarray:
    """Per stacked R factor (..., q, q) of a design, with inverse ``Rinv``:
    is the design, its columns scaled to unit norm, clear of RANK_RTOL?
    With d the column norms of R, those of the design,
    ||R diag(1/d)||_F ||diag(d) R^-1||_F = sqrt(q) ||diag(d) R^-1||_F
    bounds the scaled design's sigma_max / sigma_min from above, so a
    factor passes only if that ratio does.
    :func:`~endofix.regress._lstsq` scales the columns to within a factor
    2 of unit norm and rejects a pivot ratio below RANK_RTOL, where that
    ratio is at least 1 / (2 RANK_RTOL), far beyond the flag's margin: a
    design it rejects never passes.  A factor so large or small that the
    bound overflows does not pass."""
    limit = 1.0 / (_FLAG_MARGIN * RANK_RTOL)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.einsum("...ij,...ij->...j", R, R)
        bound = R.shape[-1] * np.einsum("...i,...ij,...ij->...", d2, Rinv,
                                        Rinv)
    return bound < limit * limit


def _cholesky(G: np.ndarray):
    """Upper Cholesky factors of the stacked symmetric matrices ``G``
    (..., q, q), and which of them exist; a matrix that is not positive
    definite gets an identity factor."""
    ok = np.ones(G.shape[:-2], dtype=bool)
    try:
        return np.linalg.cholesky(G, upper=True), ok
    except np.linalg.LinAlgError:
        U = np.empty_like(G)
        for s in np.ndindex(ok.shape):
            try:
                U[s] = np.linalg.cholesky(G[s], upper=True)
            except np.linalg.LinAlgError:
                U[s], ok[s] = np.eye(G.shape[-1]), False
        return U, ok


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


def _chunk(n: int, spec: ModelSpec) -> int:
    """Problems per chunk of :class:`_CountDesign`: as many as fit in
    ``_CHUNK_BYTES`` when each takes as many n-long float columns as the
    widest design ``[X | Z | corrections | y]`` has, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * n * (spec.k + 2 * spec.m + 1)))


def _column_scale(first: np.ndarray, rest: np.ndarray,
                  n: int) -> np.ndarray:
    """max(std, |mean|) of a column over a problem's n draws, the scale
    that the constant checks compare with, from ``first`` = sqrt(n) mean
    and ``rest`` = n var: the first coordinate of the column in a basis
    orthonormal under the weights whose first vector is the intercept's,
    and the sum of squares of the others."""
    return np.sqrt(np.maximum(rest, first * first) / n)


def _accept(estimator: str, theta: np.ndarray, rss: np.ndarray,
            yscale: np.ndarray, n: int, ok: np.ndarray) -> np.ndarray:
    """The flags a problem takes from its coefficients ``theta`` and
    residual sum of squares ``rss``: non-finite coefficients, an exact
    fit, and gp_copula's 1 - rho^2 > 0 guard.  Returns the new ok;
    gp_copula's last coefficient becomes its rho."""
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


class _CountDesign:
    """The fixed designs of S datasets of n rows, for fitting any of
    ``_STACKED`` on problems given as row counts of their rows
    (:meth:`fit`): a bootstrap's resamples, or the Monte Carlo
    repetitions themselves, whose counts are all 1.

    ``columns`` maps each model column to its (S, n) stack, row s
    belonging to dataset s, or to one column (n,) when S = 1 (a
    ``Dataset``'s columns); the caller has checked them to be finite.

    A problem that draws data row i c_i times is the least-squares
    problem on the data's own rows with weights c.  Each dataset's fixed
    columns D = [1 | X | Z] are preconditioned once: R0 is the Cholesky
    factor of D'D, and Q = D R0^-1 is computed by substitution a block of
    rows at a time.  Q's columns are orthonormal up to about eps k^2, k
    the condition number of D with its columns scaled to unit norm, so a
    problem's weighted Gram matrix H = Q' diag(c) Q is near the identity
    whatever the units of D, and its Cholesky factor U is accurate.  As
    the substitution leaves Q R0 within rounding of D, U R0 is the R
    factor of the problem's design to rounding.  The first stage, and the
    projection of the per-problem columns [corrections | y] on D, are
    solved with it; the second stage adds the corrections to D by the
    Cholesky factor of the weighted Gram matrix of those columns'
    residuals.  A D too near rank deficiency for that (k beyond about
    1e8) has no Cholesky factor, or one the rank flag rejects.
    """

    def __init__(self, columns, spec: ModelSpec):
        self.k, self.m = spec.k, spec.m
        self.cols = [np.atleast_2d(columns[c]) for c in (*spec.exogenous,
                                                         *spec.endogenous)]
        self.y = np.atleast_2d(columns[spec.outcome])
        S, n = self.y.shape
        q0 = self.k + self.m
        self.blocks = [slice(lo, min(lo + _ROW_BLOCK, n))
                       for lo in range(0, n, _ROW_BLOCK)]
        G0 = np.zeros((S, q0, q0))
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in self.blocks:
                D = self._design(rows)
                G0 += D.swapaxes(-1, -2) @ D
        # a D'D without a finite Cholesky factor (a D near rank deficiency,
        # or one whose squares overflow) leaves all its problems to the
        # scalar estimator, and an identity stands in for R0
        R0, usable = _cholesky(G0)
        self.usable = usable & np.isfinite(R0).all(axis=(1, 2))
        self.R0 = np.where(self.usable[:, None, None], R0, np.eye(q0))
        self.R0inv = _right_divide(np.eye(q0), self.R0)
        # the one block of a small dataset: (rows, Q, table or None)
        self._kept = None
        if len(self.blocks) == 1:
            self._kept = (rows, _right_divide(D, self.R0), None)
        self._sorts = {}
        # max(std, |mean|) of y and of each endogenous column over the data
        # rows, (S, 1, m+1): the floor of a problem's scales, which come
        # out of sums over all the rows and carry their rounding
        self.floor = np.stack([np.maximum(v.std(axis=-1),
                                          np.abs(v.mean(axis=-1)))
                               for v in (self.y, *self.cols[self.k - 1:])],
                              axis=-1)[:, None]

    def _design(self, rows: slice) -> np.ndarray:
        """The block's rows of D, (S, rows, k + m), each column
        contiguous."""
        D = np.empty((len(self.y), len(self.cols) + 1,
                      rows.stop - rows.start))
        D[:, 0] = 1.0
        for j, c in enumerate(self.cols, 1):
            D[:, j] = c[:, rows]
        return D.swapaxes(-1, -2)

    def _bases(self, table: bool):
        """(rows, Q, F) per block of rows: the block's rows of Q = D R0^-1
        and, when ``table`` is set and there is one block, each row's outer
        product with itself, flattened: a chunk's weighted Gram matrices
        are then one product per dataset.  Else F is None.  One block's
        are kept."""
        if self._kept is None:
            return ((rows, _right_divide(self._design(rows), self.R0), None)
                    for rows in self.blocks)
        rows, Q, F = self._kept
        if table and F is None:
            # a chunk of many problems per dataset reads Q by rows
            Q = np.ascontiguousarray(Q)
            F = (Q[..., :, None] * Q[..., None, :]).reshape(*Q.shape[:2], -1)
            self._kept = rows, Q, F
        return [(rows, Q, F if table else None)]

    def fit(self, est: str, C: np.ndarray):
        """Fit estimator ``est`` on the problems whose row counts are ``C``
        (S, b, n), b of each dataset.

        Returns (theta, ok, se), each flattened over (S, b).  ``theta``
        holds the coefficients in the scalar estimator's order.  ``ok`` is
        False where a problem comes near one of the scalar estimator's
        rejections or its coefficients are not finite; the scalar
        estimator must then refit it, and decides.  ``se`` holds the
        classical standard errors of the second stage, ols's.

        The weighted Gram matrices come from the kept table of outer
        products when a chunk holds several problems per dataset (a
        bootstrap's resamples), else (a Monte Carlo chunk, or a large
        dataset) from the weighted rows of Q directly.
        """
        S, n = self.y.shape
        C = C.reshape(S, -1, n)
        b = C.shape[1]
        k, m = self.k, self.m
        q0 = k + m
        mc = 0 if est == "ols" else m
        if est == "gp_copula" and m != 1:
            # gp_fit rejects the spec itself
            zeros = np.zeros((S * b, q0 + mc))
            return zeros, np.zeros(S * b, dtype=bool), zeros
        H = np.zeros((S, b, q0, q0))
        for rows, Q, QF in self._bases(b > 1):
            Cb = C[..., rows]
            if QF is not None:
                H += (Cb @ QF).reshape(H.shape)
            else:
                H += ((Cb[..., None, :] * Q.swapaxes(-1, -2)[:, None])
                      @ Q[:, None])
        U, ok = _cholesky(H)
        ok &= self.usable[:, None]
        # U is near the identity, and H^-1 = Uinv Uinv'
        Uinv = _right_divide(np.eye(q0), U)
        R0, R0inv = self.R0[:, None], self.R0inv[:, None]
        # the R factor of the problem's D, whose first column is the
        # intercept: its first row holds sqrt(n) times the means over the
        # draws, and the squares of its other rows sum to n times the
        # variances
        RD = U @ R0
        if est in ("npcf", "iv_internal"):
            delta = R0inv[..., :k, :k] @ (Uinv[..., :k, :k] @ RD[..., :k, k:])
            zscale = np.maximum(self.floor[..., 1:], _column_scale(
                RD[..., 0, k:], np.sum(RD[..., 1:, k:] ** 2, axis=-2), n))
            corr, fine = self._first_stage_scores(C, delta, zscale)
            ok &= fine
        elif est == "two_scope":
            corr, fine = self._scored_residuals(C)
            ok &= fine
        elif est == "gp_copula":
            corr = self._data_scores(C, k - 1)[..., None, :]
        else:
            corr = np.empty((S, b, 0, n))
        V = np.empty((S, b, mc + 1, n))
        V[..., :mc, :] = corr
        V[..., mc, :] = self.y[:, None]
        del corr
        # [corrections | y] = D beta + residuals = Q Y + residuals, with
        # Y = R0 beta = H^-1 Q' diag(c) V; V becomes the residuals
        P = np.zeros((S, b * (mc + 1), q0))
        for rows, Q, _ in self._bases(False):
            P += (C[..., None, rows] * V[..., rows]).reshape(
                S, -1, Q.shape[1]) @ Q
        # [corrections | y] in the basis Q Uinv, orthonormal under the
        # weights, whose first vector is the intercept's
        X = (Uinv.swapaxes(-1, -2)
             @ P.reshape(S, b, mc + 1, q0).swapaxes(-1, -2))
        Y = Uinv @ X
        beta = R0inv @ Y
        Yt = Y.swapaxes(-1, -2).reshape(S, -1, q0)
        G = np.zeros((S, b, mc + 1, mc + 1))
        for rows, Q, _ in self._bases(False):
            Vb = V[..., rows]
            Vb -= (Yt @ Q.swapaxes(-1, -2)).reshape(Vb.shape)
            G += (C[..., None, rows] * Vb) @ Vb.swapaxes(-1, -2)
        RV, fine = _cholesky(G)
        ok &= fine
        RVinv = _right_divide(np.eye(mc), RV[..., :mc, :mc])
        rho = RVinv @ RV[..., :mc, mc:]
        theta = np.empty((S, b, q0 + mc))
        theta[..., :q0] = (beta[..., mc:] - beta[..., :mc] @ rho)[..., 0]
        theta[..., q0:] = rho[..., 0]
        # RV's last pivot is the residual sum of squares less rounding of
        # the order of its y part's: near an exact fit the residuals
        # themselves give it
        rss = RV[..., mc, mc] ** 2
        near = np.nonzero(rss < _RSS_RECOMPUTE * G[..., mc, mc])
        if near[0].size:
            Cn, Vn = C[near], V[near]
            r = Vn[:, mc] - (rho[near][:, :, :1] * Vn[:, :mc]).sum(axis=1)
            rss[near] = np.einsum("sn,sn,sn->s", Cn, r, r)
        # the R factor of the problem's second-stage design and its
        # inverse, from those of its blocks
        R = np.zeros((S, b, q0 + mc, q0 + mc))
        R[..., :q0, :q0] = RD
        R[..., :q0, q0:] = U @ Y[..., :mc]
        R[..., q0:, q0:] = RV[..., :mc, :mc]
        Rinv = np.zeros_like(R)
        Rinv[..., :q0, :q0] = R0inv @ Uinv
        Rinv[..., :q0, q0:] = -beta[..., :mc] @ RVinv
        Rinv[..., q0:, q0:] = RVinv
        ok &= _well_conditioned(R, Rinv)
        # the classical covariance is sigma^2 (R'R)^-1 = sigma^2 Rinv Rinv'
        se = np.sqrt(rss[..., None] / (n - q0 - mc)
                     * np.sum(Rinv * Rinv, axis=-1))
        theta, rss = theta.reshape(S * b, -1), rss.ravel()
        yscale = np.maximum(self.floor[..., 0], _column_scale(
            X[..., 0, mc],
            G[..., mc, mc] + np.sum(X[..., 1:, mc] ** 2, axis=-1), n))
        ok = _accept(est, theta, rss, yscale.ravel(), n, ok.ravel())
        return theta, ok, se.reshape(S * b, -1)

    def _first_stage_scores(self, C: np.ndarray, delta: np.ndarray,
                            zscale: np.ndarray):
        """Normal scores (S, b, m, n) of the first-stage residuals on the
        data rows, ranked with each problem's counts, and ok.

        The residuals tie as in :func:`~endofix.transform.first_stage`,
        among the problem's draws: the rows not drawn sort after the
        drawn ones, so they neither move a rank nor link two drawn
        residuals into a tie, and get an arbitrary finite score.  Besides
        the rank check, a problem is flagged whose residuals come near
        the constant-residual rejection, relative to ``zscale``, the
        endogenous columns' scale max(std, |mean|) over its draws.
        """
        S, b, n = C.shape
        k, m = self.k, self.m
        Z = [z[:, None] for z in self.cols[k - 1:]]
        E = _residuals(Z, [x[:, None] for x in self.cols[:k - 1]], delta)
        # a least-squares fit with an intercept leaves residuals of mean
        # 0, so their root mean square is their standard deviation
        std = np.sqrt(np.einsum("...n,...jn,...jn->...j", C, E, E) / n)
        ok = np.all(std > _FLAG_MARGIN * CONSTANT_RESIDUAL_RTOL * zscale,
                    axis=-1)
        drawn = C > 0
        # in place: E is this call's own
        np.putmask(E, np.broadcast_to(~drawn[..., None, :], E.shape), _BIG)
        order, sv = _sorted_rows(E.reshape(-1, n))
        del E
        # the drawn residuals sort first: their extremes are the first and
        # the last of them
        last = np.repeat(np.count_nonzero(drawn, axis=-1).ravel(), m) - 1
        mag = np.maximum(sv[np.arange(len(sv)), last], -sv[:, 0])
        mag += np.stack([(np.abs(z) * drawn).max(axis=-1) for z in Z],
                        axis=-1).ravel()
        runs = _tie_runs(sv, mag)
        del sv
        sorted_scores = _counted_scores(
            (C if m == 1 else np.repeat(C, m, axis=1)).ravel()[order], runs)
        # allocated after the lookup, whose temporaries are freed by now
        scores = np.empty(C.size * m)
        scores[order.ravel()] = sorted_scores.ravel()
        return scores.reshape(S, b, m, n), ok

    def _data_scores(self, C: np.ndarray, j: int) -> np.ndarray:
        """Normal scores (S, b, n) of data column ``cols[j]`` within each
        problem; the column is sorted once."""
        if j not in self._sorts:
            self._sorts[j] = _sort_rows(self.cols[j])
        # order holds positions in the datasets' (S, n) rows, each problem
        # b's counts a row of Cb (a view when S or b is 1)
        order, runs = self._sorts[j]
        S, b, n = C.shape
        Cb = C.swapaxes(0, 1).reshape(b, S * n)
        sorted_scores = _counted_scores(Cb[:, order], runs)
        scores = np.empty(Cb.shape)
        scores[:, order] = sorted_scores
        return scores.reshape(b, S, n).swapaxes(0, 1)

    def _scored_residuals(self, C: np.ndarray):
        """two_scope's corrections: the residuals (S, b, m, n) of the
        scores of Z on the scores of X within each problem, and ok."""
        S, b, n = C.shape
        k, m = self.k, self.m
        A = np.empty((S, b, k + m - 1, n))
        for j in range(k + m - 1):
            A[..., j, :] = self._data_scores(C, j)
        # the weighted Gram matrix of [1 | A']
        M = np.zeros((S, b, k + m, k + m))
        for rows in self.blocks:
            CA = C[..., None, rows] * A[..., rows]
            M[..., 0, 0] += C[..., rows].sum(axis=-1)
            M[..., 1:, 0] += CA.sum(axis=-1)
            M[..., 1:, 1:] += CA @ A[..., rows].swapaxes(-1, -2)
        del CA
        M[..., 0, 1:] = M[..., 1:, 0]
        RA, ok = _cholesky(M)
        RAinv = _right_divide(np.eye(k), RA[..., :k, :k])
        ok &= _well_conditioned(RA[..., :k, :k], RAinv)
        gamma = RAinv @ RA[..., :k, k:]
        # in place: A is this call's own
        return _residuals([A[..., j, :] for j in range(k - 1, k + m - 1)],
                          [A[..., i, :] for i in range(k - 1)], gamma,
                          out=A[..., k - 1:, :]), ok


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
            design = _CountDesign(data.columns, spec)
            for lo in range(s * B, (s + 1) * B, chunk):
                ps = np.arange(lo, min(lo + chunk, (s + 1) * B))
                th, ok, _ = design.fit(
                    estimator, _counts(_resample_chunk(words[ps], n)))
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
        # in units of max|c|, so that no power overflows whatever e's units
        c /= np.abs(c).max()
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
