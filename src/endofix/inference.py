"""Pairs bootstrap, the exogeneity test, the normality diagnostic for the
first-stage residuals, and the stacked least-squares engine behind the
bootstrap and the Monte Carlo harness.

The bootstrap resamples whole observation rows with replacement and reruns
the complete two-step pipeline (first stage, scores, second stage) on each
resample, so the standard errors reflect the sampling noise of the
generated regressor as well.

:func:`_fit_stack` solves a stack of same-shaped problems at once for
every built-in estimator (``_STACKED``; ``iv_internal``, whose
coefficients equal npcf's in exact arithmetic, as npcf's stack): the
bootstrap's resamples, gathered from the data columns one column at a
time, and the Monte Carlo repetitions, whose (S, n) column stacks it
reads as they are.  :func:`_resample_fits` bootstraps S datasets at
once, so the resamples of several Monte Carlo repetitions share chunks;
:func:`pairs_bootstrap` is its one-dataset case.  One sort per stack
gives the ranks or scores and the ties; a stack without ties, as every
Monte Carlo chunk is, skips the tied-run step.  npcf's first-stage
residuals tie by the rule of :func:`~endofix.transform.first_stage`,
sorted neighbours within TIE_RTOL times max|z| + max|e|, in the stacked
and the scalar fit alike, so no problem is refitted for a tie.  A
problem near a rank, constant-residual, exact-fit or copula-guard
rejection is flagged and refitted by the registered scalar estimator,
which then decides.  So are all problems of estimators registered later.
Stacked results equal the scalar ones to rounding (about 1e-14
relative), not bit for bit.  The resampled rows themselves are
bit-identical on both paths: a chunk's rows are drawn in one pass that
follows numpy's bounded-integer sampler on each resample's own PCG64
stream.
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
from .numerics import RngStream, _SeedWords, words_generator
from .regress import RANK_RTOL
from .transform import CONSTANT_RESIDUAL_RTOL, FirstStage, _score_rows

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
_STACKED = ("ols", "npcf", "iv_internal", "two_scope", "gp_copula")

# Size in bytes of one stacked (problem, row, column) array: a chunk holds
# this many bytes' worth of problems, and one problem at large n.
_CHUNK_BYTES = 256 * 1024

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


def _scale(V: np.ndarray) -> np.ndarray:
    """max(1, std, |mean|) of each problem's column(s) in ``V``, taken
    over the rows (axis 1): the scale that the constant checks compare
    with."""
    return np.maximum(1.0, np.maximum(V.std(axis=1), np.abs(V.mean(axis=1))))


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
    """Problems per stack: ``_CHUNK_BYTES`` of the widest stacked design
    ``[X | Z | corrections | y]``, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * n * (spec.k + 2 * spec.m + 1)))


def _fit_stack(estimator: str, columns, spec: ModelSpec,
               rows: np.ndarray | None = None):
    """Fit ``estimator``, one of ``_STACKED``, on a stack of S problems
    of n rows each.

    ``columns`` maps each model column to its stack, an (S, n) array
    whose row s belongs to problem s (the Monte Carlo chunks).  When
    ``rows`` (S, n) is given, it maps each model column to a data column
    instead, and problem s is the rows ``rows[s]`` of it (the bootstrap's
    resamples): each column is gathered straight into the stacked design.
    The caller has checked the model columns to be finite.

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
    S, n = np.shape(columns[spec.outcome]) if rows is None else rows.shape
    q = k + m if estimator == "ols" else k + 2 * m
    W = np.empty((S, n, q + 1))
    W[..., 0] = 1.0
    for j, c in zip((*range(1, k + m), q),
                    (*spec.exogenous, *spec.endogenous, spec.outcome)):
        W[..., j] = columns[c] if rows is None else columns[c][rows]
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
    # at large n the first stage's temporaries are freed by now, and W is
    # freed before the next chunk builds its own
    R = np.linalg.qr(W, mode="r")
    del W
    ok &= _well_conditioned(R[:, :q, :q])
    theta = _solve_upper(R[:, :q, :q], R[:, :q, q:], ok)[..., 0]
    ok &= np.isfinite(theta).all(axis=1)
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


def _resample_fits(estimator: str, datasets, spec: ModelSpec, seeds,
                   B: int):
    """Fit ``estimator`` on B resamples of each of S datasets of n rows,
    whose model columns the caller has checked to be finite.  Resample b
    of dataset s draws its rows from ``seeds[s].child(_BOOT_KEY, b)``.

    Problem (s, b) is the rows ``s * n + rows_b`` of the datasets' model
    columns laid end to end, so the resamples of several datasets share
    the chunks of :func:`_fit_stack`.  A problem it flags, and every
    problem of an estimator outside ``_STACKED``, is refitted by the
    registered estimator on ``datasets[s].take(rows_b)``, which then
    decides whether it fails; non-finite coefficients fail as a
    ``NonFiniteError``.

    Returns (theta (S, B, p), solved (S, B), failures, refits), the last
    two summed over the datasets: the failed resamples by exception type
    name, and the number refitted.  A failed resample's theta is 0.
    """
    S, n = len(datasets), datasets[0].n
    words = np.concatenate([seed.child_words(_BOOT_KEY, np.arange(B))
                            for seed in seeds])
    theta = np.zeros((S * B, len(_names(spec, True))))
    solved = np.zeros(S * B, dtype=bool)
    if estimator in _STACKED:
        # one dataset's own columns: at large n no copy of them is made
        flat = {c: (np.concatenate([d.column(c) for d in datasets])
                    if S > 1 else datasets[0].column(c))
                for c in (spec.outcome, *spec.exogenous, *spec.endogenous)}
        chunk = _chunk(n, spec)
        for lo in range(0, S * B, chunk):
            ps = np.arange(lo, min(lo + chunk, S * B))
            idx = _resample_chunk(words[ps], n)
            idx += n * (ps // B)[:, None]
            th, ok, _ = _fit_stack(estimator, flat, spec, idx)
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
    estimator (``iv_internal`` as npcf's) the resamples are solved in
    chunks of stacked arrays by :func:`_fit_stack`, and one it flags
    (near a rank, constant-residual, exact-fit or copula-guard rejection)
    is refitted by the registered estimator, which then decides whether
    it fails; estimators registered later refit every resample.  npcf's
    first-stage residuals within TIE_RTOL times max|z| + max|e| of each
    other tie in both paths, so no resample is refitted for a tie.  The
    stacked draws equal those of refitting every resample to rounding
    (about 1e-14 relative), not bit for bit.  A resample whose refitted
    coefficients are not finite fails as a ``NonFiniteError``.  The full
    sample is not fitted here: a dataset the estimator cannot fit makes
    its resamples fail, which raises BootstrapError.

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
