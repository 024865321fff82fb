"""Pairs bootstrap, the exogeneity test, the normality diagnostic for the
first-stage residuals, and the stacked least-squares engine behind the
bootstrap and the Monte Carlo harness.

The bootstrap resamples whole observation rows with replacement and reruns
the complete two-step pipeline (first stage, scores, second stage) on each
resample, so the standard errors reflect the sampling noise of the
generated regressor as well.

:func:`_fit_stack` solves a stack of same-shaped problems at once for the
estimators in ``_STACKED`` (``ols``, ``npcf``, ``two_scope`` and
``gp_copula``): the bootstrap's resamples and the Monte Carlo
repetitions.  A problem near a rank, constant-residual, exact-fit or
copula-guard rejection, or near a rounding tie of npcf's residuals, is
flagged and refitted by the registered scalar estimator, which then
decides.  So are
all problems of any other estimator (``iv_internal``, and estimators
registered later).  Stacked results equal the scalar ones to rounding
(about 1e-14 relative), not bit for bit.  The resampled rows themselves
are bit-identical on both paths: a chunk's rows are drawn in one pass
that follows numpy's bounded-integer sampler on each resample's own
PCG64 stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .data import Dataset
from .errors import (BootstrapError, ConstantInputError, DataError,
                     DomainError, EndofixError, IdentificationError,
                     RankDeficiencyError)
from .estimators import (ESTIMATORS, ModelSpec, ThetaEstimate, _check_finite,
                         _names, fit_npcf)
from .numerics import RngStream, _SeedWords, words_generator
from .regress import RANK_RTOL
from .transform import (CONSTANT_RESIDUAL_RTOL, FirstStage, _rank_rows,
                        _scores_of_ranks)

__all__ = ["BootstrapResult", "TestResult", "pairs_bootstrap",
           "exogeneity_test", "exogeneity_test_of_fit",
           "identification_diagnostic"]

# Resample b draws its rows from seed.child(_BOOT_KEY, b), so its draw does
# not depend on the order or the chunk in which resamples are computed.  The
# seed words of all B children are hashed in one pass (RngStream.child_words)
# and equal those of each child's own generator(); a chunk's rows are drawn
# from those streams in one pass (_resample_chunk), equal to each child
# generator's integers(0, n, size=n).
_BOOT_KEY = 0xB00

# The estimators _fit_stack solves.  The bootstrap and the Monte Carlo
# harness choose the stacked path by name, so a wrapper registered in
# ESTIMATORS under one of these names does not change the path.
_STACKED = ("ols", "npcf", "two_scope", "gp_copula")

# Size in bytes of one stacked (problem, row, column) array: a chunk holds
# this many bytes' worth of problems, and one problem at large n.
_CHUNK_BYTES = 256 * 1024

# A stacked problem within this factor of a rank, constant-residual,
# exact-fit or copula-guard rejection is refitted by the scalar estimator,
# so rounding differences between the stacked and the pivoted
# factorisations cannot hide a rejection from it.
_FLAG_MARGIN = 100.0

# Stacked and pivoted first stages give residuals a few ulps of their
# magnitude apart.  Two residuals of different data rows closer than this
# fraction of the magnitude (an exact tie in exact arithmetic, say) may
# rank differently in the two, so such a problem is refitted by the
# scalar estimator.
_TIE_RTOL = 2e-14


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
    ``n_failed`` counts degenerate resamples that were dropped (rank
    failures), and ``failures`` splits that count by exception type name,
    e.g. ``{"RankDeficiencyError": 2}``.  ``se`` is the per-coefficient
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


_MASK32 = np.uint64(0xFFFFFFFF)


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
    m = raw.astype("<u8", copy=False).view("<u4").astype(np.uint64)
    del raw
    m *= np.uint64(n)
    accept = (m & _MASK32) >= np.uint64(threshold)
    m >>= np.uint64(32)
    rows = m.view(np.int64)
    exact = np.ones(S, dtype=bool)
    for s in np.flatnonzero(~accept[:, :size].all(axis=1)):
        kept = rows[s][accept[s]]
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


def _well_conditioned(R: np.ndarray) -> np.ndarray:
    """Per stacked triangular factor: is sigma_min / sigma_max clear of
    RANK_RTOL?  sigma_min <= every |diag| and sigma_max >= every |diag| of
    a pivoted factor, so a design the pivoted QR rejects is never clear."""
    s = np.linalg.svd(R, compute_uv=False)
    return s[:, -1] > _FLAG_MARGIN * RANK_RTOL * s[:, 0]


def _solve_upper(R: np.ndarray, rhs: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Solve the stacked systems R x = rhs; rows not ``ok`` get an identity
    factor so one singular factor cannot fail the whole stack."""
    R = np.where(ok[:, None, None], R, np.eye(R.shape[-1]))
    return np.linalg.solve(R, rhs)


def _split_ties(cols, rows: np.ndarray, sv: np.ndarray,
                mag: np.ndarray) -> np.ndarray:
    """Which sorted residual vectors (rows of ``sv``, drawn from data rows
    ``rows`` of the design columns ``cols``) hold two residuals of
    different data within _TIE_RTOL * ``mag`` of each other; duplicates of
    one data row always tie exactly in both fits and are left alone."""
    r, j = np.nonzero(np.diff(sv, axis=1) <= _TIE_RTOL * mag[:, None])
    left, right = rows[r, j], rows[r, j + 1]
    pair = left != right
    r, left, right = r[pair], left[pair], right[pair]
    differ = np.zeros(r.size, dtype=bool)
    for col in cols:
        differ |= col[left] != col[right]
    return r[differ]


def _scale(V: np.ndarray) -> np.ndarray:
    """max(1, std, |mean|) of each problem's column(s) in ``V``, taken
    over the rows (axis 1): the scale that the constant checks compare
    with."""
    return np.maximum(1.0, np.maximum(V.std(axis=1), np.abs(V.mean(axis=1))))


def _scores_of_rows(V: np.ndarray) -> np.ndarray:
    """Normal scores of each row of ``V``, as :func:`normal_scores`
    computes them for one row."""
    return _scores_of_ranks(_rank_rows(V)[0])


def _first_step(A: np.ndarray, k: int, m: int):
    """Stacked least squares of the columns ``A[..., k:k+m]`` on
    ``A[..., :k]``, whose first column is the intercept.

    Returns (residuals (S, m, n), ok).  The residuals are computed
    elementwise on the rows of ``A``, so rows with equal values get equal
    residuals, bit for bit.
    """
    R = np.linalg.qr(A[..., :k + m], mode="r")
    ok = _well_conditioned(R[:, :k, :k])
    delta = _solve_upper(R[:, :k, :k], R[:, :k, k:], ok)
    E = np.empty((A.shape[0], m, A.shape[1]))
    for j in range(m):
        e = A[..., k + j] - delta[:, :1, j]
        for i in range(1, k):
            e -= delta[:, i:i + 1, j] * A[..., i]
        E[:, j] = e
    return E, ok


def _npcf_scores(W: np.ndarray, k: int, m: int, cols, idx: np.ndarray):
    """Fill ``W[..., k+m:k+2m]`` with the normal scores of the first-stage
    residuals of ``W[..., k:k+m]`` on ``W[..., :k]``; returns ok.

    Besides the rank check, a problem is flagged whose residuals come
    near the constant-residual rejection, or hold two residuals of
    different data rows (``cols`` gathered by ``idx``) that near-tie.
    """
    n = W.shape[1]
    E, ok = _first_step(W, k, m)
    Zb = W[..., k:k + m]
    ok &= np.all(E.std(axis=2)
                 > _FLAG_MARGIN * CONSTANT_RESIDUAL_RTOL * _scale(Zb), axis=1)
    ranks, order, sv = _rank_rows(E.reshape(-1, n))
    mag = np.abs(Zb).max(axis=1) + np.abs(E).max(axis=2)
    rows = np.repeat(idx, m, axis=0).ravel()[order]
    ok[_split_ties(cols, rows, sv, mag.ravel()) // m] = False
    W[..., k + m:k + 2 * m] = _scores_of_ranks(ranks).reshape(
        -1, m, n).transpose(0, 2, 1)
    return ok


def _chunk(n: int, spec: ModelSpec) -> int:
    """Problems per stack: ``_CHUNK_BYTES`` of the widest stacked design
    ``[X | Z | corrections | y]``, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * n * (spec.k + 2 * spec.m + 1)))


def _fit_stack(estimator: str, data: Dataset, spec: ModelSpec,
               idx: np.ndarray):
    """Fit ``estimator``, one of ``_STACKED``, on a stack of problems:
    problem s is the rows ``idx[s]`` of ``data``, whose model columns the
    caller has checked to be finite.

    Returns (theta, ok, se).  ``theta[s]`` holds the coefficients in the
    scalar estimator's order.  ``ok[s]`` is False when problem s comes
    near one of the scalar estimator's rejections, or near a rounding
    tie, and must be refitted by the scalar estimator, which then
    decides.  ``se`` holds ols's classical standard errors, and is None
    for the other estimators.

    Each stage factors the augmented ``[design | rhs]`` with an unpivoted
    QR: the top-right block of R is Q'rhs, so Q is never formed.  The
    second stage regresses y on ``[X | Z | corrections]``: no correction
    for ``ols``, the normal scores of the first-stage residuals for
    ``npcf``, the scores of z for ``gp_copula``, and for ``two_scope``
    the residuals of the scores of Z on the scores of X.
    """
    S, n = idx.shape
    k, m = spec.k, spec.m
    q = k + m if estimator == "ols" else k + 2 * m
    cols = [data.column(c) for c in (*spec.exogenous, *spec.endogenous)]
    W = np.empty((S, n, q + 1))
    W[..., 0] = 1.0
    for j, col in enumerate(cols, start=1):
        W[..., j] = col[idx]
    W[..., q] = data.column(spec.outcome)[idx]
    ok = np.ones(S, dtype=bool)
    if estimator == "npcf":
        ok = _npcf_scores(W, k, m, cols, idx)
    elif estimator == "two_scope":
        A = np.empty((S, n, k + m))
        A[..., 0] = 1.0
        for j in range(1, k + m):
            A[..., j] = _scores_of_rows(W[..., j])
        C, ok = _first_step(A, k, m)
        W[..., k + m:q] = C.transpose(0, 2, 1)
        del A, C
    elif estimator == "gp_copula":
        if m != 1:
            # gp_fit rejects this spec itself
            return np.zeros((S, q)), np.zeros(S, dtype=bool), None
        W[..., q - 1] = _scores_of_rows(W[..., k])
    yscale = _scale(W[..., q])
    # at large n the first stage's temporaries are freed by now, and W is
    # freed before the next chunk builds its own
    R = np.linalg.qr(W, mode="r")
    del W
    ok &= _well_conditioned(R[:, :q, :q])
    theta = _solve_upper(R[:, :q, :q], R[:, :q, q:], ok)[..., 0]
    # when y is fitted exactly the residuals are rounding noise, and so
    # are gp's rho and every standard error (ols's classical ones and the
    # bootstrap's): flag a problem near that
    rss = R[:, q, q] ** 2
    tol = _FLAG_MARGIN * CONSTANT_RESIDUAL_RTOL
    ok &= np.sqrt(rss / n) > tol * yscale
    if estimator == "ols":
        Rinv = _solve_upper(R[:, :q, :q],
                            np.broadcast_to(np.eye(q), R[:, :q, :q].shape), ok)
        return theta, ok, np.sqrt(rss[:, None] / (n - q)
                                  * np.sum(Rinv ** 2, axis=2))
    if estimator == "gp_copula":
        # gp_fit's rho = c / sqrt(c^2 + s^2) with s^2 = RSS / n: flag a
        # problem near its 1 - rho^2 > 0 guard too
        c, s2 = theta[:, -1], rss / n
        sigma = np.sqrt(c * c + s2)
        ok &= s2 > tol * sigma * sigma
        theta[:, -1] = np.divide(c, sigma, out=np.zeros(S), where=ok)
    return theta, ok, None


def pairs_bootstrap(data: Dataset, spec: ModelSpec, estimator: str = "npcf",
                    B: int = 199, seed: RngStream = RngStream(0),
                    level: float = 0.05) -> BootstrapResult:
    """Resample rows with replacement and refit ``estimator`` B times.

    For ``npcf``, ``two_scope`` and ``gp_copula`` the resamples are
    solved in chunks of stacked arrays by :func:`_fit_stack`.  A resample
    it flags (near a rank, constant-residual, exact-fit or copula-guard
    rejection, or near a rounding tie) is refitted by the registered
    estimator, which then decides whether it fails; ``iv_internal`` and
    estimators registered later refit every resample.  The stacked draws
    equal those of refitting every resample to rounding (about 1e-14
    relative), not bit for bit.  The full sample is not fitted here: a
    dataset the estimator cannot fit makes its resamples fail, which
    raises BootstrapError.

    Resample b's rows are ``seed.child(_BOOT_KEY, b).generator()
    .integers(0, n, size=n)``, bit for bit, however they are drawn: a
    stacked chunk draws the rows of all its resamples in one pass
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
        If B < 2, or more than 1% of resamples are degenerate.
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
    n = data.n
    _check_finite(data, spec)
    if n <= len(names):
        raise DomainError(f"need more rows than coefficients "
                          f"(n={n}, p={len(names)})")

    words = seed.child_words(_BOOT_KEY, np.arange(B))
    theta = np.empty((B, len(names)))
    solved = np.zeros(B, dtype=bool)
    if estimator in _STACKED:
        chunk = _chunk(n, spec)
        for lo in range(0, B, chunk):
            bs = np.arange(lo, min(lo + chunk, B))
            idx = _resample_chunk(words[bs], n)
            th, ok, _ = _fit_stack(estimator, data, spec, idx)
            theta[bs[ok]] = th[ok]
            solved[bs] = ok
    fit_fn = ESTIMATORS[estimator]
    failures: dict[str, int] = {}
    refits = np.flatnonzero(~solved)
    for b in refits:
        try:
            rows = _resample_rows(words[b], n)
            theta[b] = fit_fn(data.take(rows), spec).theta
            solved[b] = True
        except (RankDeficiencyError, ConstantInputError,
                IdentificationError) as exc:
            kind = type(exc).__name__
            failures[kind] = failures.get(kind, 0) + 1
    n_failed = B - int(solved.sum())
    if n_failed > 0.01 * B:
        raise BootstrapError(
            f"{n_failed} of {B} bootstrap resamples were degenerate "
            f"(rank failures: {failures}); the design is too fragile for "
            "resampling")
    draws = theta[solved]

    se = draws.std(axis=0, ddof=1)
    ci = np.quantile(draws, [level / 2.0, 1.0 - level / 2.0], axis=0)
    q1, med, q3 = np.percentile(draws, [25.0, 50.0, 75.0], axis=0)
    iqr = np.maximum(q3 - q1, 1e-300)
    extreme = int(np.sum(np.any(np.abs(draws - med) > 10.0 * iqr, axis=1)))
    return BootstrapResult(draws=draws, names=names, se=se,
                           percentile_ci=ci, level=level, B=B, seed=seed,
                           n_failed=n_failed, n_extreme_draws=extreme,
                           failures=failures, scalar_refits=refits.size)


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
        m2 = float(np.mean(c ** 2))
        skew = float(np.mean(c ** 3)) / m2 ** 1.5
        kurt = float(np.mean(c ** 4)) / m2 ** 2
        jb = fs.n * (skew ** 2 / 6.0 + (kurt - 3.0) ** 2 / 24.0)
        p = math.exp(-jb / 2.0)  # chi-squared(2) upper tail, exact
        out.append(TestResult(
            statistic=jb, p_value=p,
            null_description=(f"first-stage residuals ({fs.endogenous_names[j]}) "
                              "are Gaussian — non-rejection warns of weak "
                              "identification")))
    return out
