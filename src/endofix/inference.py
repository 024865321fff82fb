"""Pairs bootstrap, bootstrap t-tests, the exogeneity test, and the
normality diagnostic for the first-stage residuals.

The bootstrap resamples whole observation rows with replacement and reruns
the complete two-step pipeline (first stage, scores, second stage) on each
resample, so the standard errors reflect the sampling noise of the
generated regressor as well.  For ``npcf`` the resamples are solved in
chunks of stacked least-squares problems; any resample near a rank or
constant-residual rejection is refitted by :func:`fit_npcf` itself.
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
from .numerics import RngStream
from .regress import RANK_RTOL
from .transform import (CONSTANT_RESIDUAL_RTOL, FirstStage, _rank_rows,
                        _scores_of_ranks)

__all__ = ["BootstrapResult", "TestResult", "pairs_bootstrap",
           "bootstrap_t_test", "exogeneity_test", "exogeneity_test_of_fit",
           "identification_diagnostic"]

# Resample b draws its rows from seed.child(_BOOT_KEY, b), so its draw does
# not depend on the order or the chunk in which resamples are computed.
_BOOT_KEY = 0xB00

# Size in bytes of one stacked (resample, row, column) array: a chunk holds
# this many bytes' worth of resamples, and one resample at large n.
_CHUNK_BYTES = 256 * 1024

# A stacked resample within this factor of a rank or constant-residual
# rejection is refitted by the scalar estimator, so rounding differences
# between the stacked and the pivoted factorisations cannot hide a
# rejection from it.
_FLAG_MARGIN = 100.0

# Stacked and pivoted first stages give residuals a few ulps of their
# magnitude apart.  Two residuals of different data rows closer than this
# fraction of the magnitude (an exact tie in exact arithmetic, say) may
# rank differently in the two, so such a resample is refitted by the
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

    def se_of(self, name: str) -> float:
        return float(self.se[self.names.index(name)])

    def ci_of(self, name: str) -> tuple[float, float]:
        j = self.names.index(name)
        return float(self.percentile_ci[0, j]), float(self.percentile_ci[1, j])


def _resample_rows(seed: RngStream, b: int, n: int) -> np.ndarray:
    return seed.child(_BOOT_KEY, b).generator().integers(0, n, size=n)


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


def _stacked_npcf(data: Dataset, spec: ModelSpec, B: int, seed: RngStream,
                  theta: np.ndarray, solved: np.ndarray) -> None:
    """Fill ``theta[b]`` and set ``solved[b]`` for each resample whose
    ``fit_npcf`` is solved here as stacked least squares.

    Each stage factors the augmented ``[design | rhs]``: the top-right
    block of R is Q'rhs, so Q is never formed.  First-stage residuals are
    ``Z - X delta_b`` on the original rows, gathered by the resample's row
    indices, so duplicated rows tie exactly as they do in ``fit_npcf``.
    """
    n, k, m = data.n, spec.k, spec.m
    p = k + 2 * m
    exog = [data.column(c) for c in spec.exogenous]
    endog = [data.column(c) for c in spec.endogenous]
    cols = [*exog, *endog]              # design columns after the intercept
    y = data.column(spec.outcome)
    chunk = max(1, _CHUNK_BYTES // (8 * n * (p + 1)))
    for lo in range(0, B, chunk):
        bs = np.arange(lo, min(lo + chunk, B))
        idx = np.stack([_resample_rows(seed, b, n) for b in bs])
        # W holds [X | Z | scores | y] of each resample; the scores are
        # filled in after the first stage
        W = np.empty((len(bs), n, p + 1))
        W[..., 0] = 1.0
        for j, col in enumerate(cols, start=1):
            W[..., j] = col[idx]
        W[..., p] = y[idx]
        R1 = np.linalg.qr(W[..., :k + m], mode="r")
        ok = _well_conditioned(R1[:, :k, :k])
        delta = _solve_upper(R1[:, :k, :k], R1[:, :k, k:], ok)
        E = np.empty((len(bs), m, n))
        for j, z in enumerate(endog):
            e = z - delta[:, :1, j]         # residuals of the original rows
            for i, x in enumerate(exog, start=1):
                e -= delta[:, i:i + 1, j] * x
            E[:, j] = np.take_along_axis(e, idx, axis=1)
        Zb = W[..., k:k + m]
        scale = np.maximum(1.0, np.maximum(Zb.std(axis=1),
                                           np.abs(Zb.mean(axis=1))))
        ok &= np.all(E.std(axis=2)
                     > _FLAG_MARGIN * CONSTANT_RESIDUAL_RTOL * scale, axis=1)
        ranks, order, sv = _rank_rows(E.reshape(-1, n))
        mag = np.abs(Zb).max(axis=1) + np.abs(E).max(axis=2)
        rows = np.repeat(idx, m, axis=0).ravel()[order]
        ok[_split_ties(cols, rows, sv, mag.ravel()) // m] = False
        eta = _scores_of_ranks(ranks).reshape(-1, m, n)
        W[..., k + m:p] = eta.transpose(0, 2, 1)
        # at large n each of these is an n-long column per resample: free
        # them before qr copies W, and W (Zb is a view of it) before the
        # next chunk builds its own
        del ranks, order, sv, rows, eta, E, e, idx, Zb
        R2 = np.linalg.qr(W, mode="r")
        del W
        ok &= _well_conditioned(R2[:, :p, :p])
        theta[bs[ok]] = _solve_upper(R2[:, :p, :p], R2[:, :p, p:], ok)[ok, :, 0]
        solved[bs[ok]] = True


def pairs_bootstrap(data: Dataset, spec: ModelSpec, estimator: str = "npcf",
                    B: int = 199, seed: RngStream = RngStream(0),
                    level: float = 0.05) -> BootstrapResult:
    """Resample rows with replacement and refit ``estimator`` B times.

    For ``npcf`` the resamples are solved in chunks of stacked arrays; a
    resample whose design or first-stage residuals come near a rejection
    is refitted by ``fit_npcf``, which then decides whether it fails.  The
    draws equal those of refitting every resample with ``fit_npcf`` to
    rounding (about 1e-14 relative), not bit for bit.  The full sample is
    not fitted here: a dataset the estimator cannot fit makes its
    resamples fail, which raises BootstrapError.

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

    theta = np.empty((B, len(names)))
    solved = np.zeros(B, dtype=bool)
    if estimator == "npcf":
        _stacked_npcf(data, spec, B, seed, theta, solved)
    fit_fn = ESTIMATORS[estimator]
    failures: dict[str, int] = {}
    for b in np.flatnonzero(~solved):
        try:
            theta[b] = fit_fn(data.take(_resample_rows(seed, b, n)), spec).theta
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
                           failures=failures)


def bootstrap_t_test(fit: ThetaEstimate, boot: BootstrapResult, coef,
                     null_value: float) -> TestResult:
    """t-statistic for H0: theta[coef] = null_value with the bootstrap
    standard error, referred to the standard normal."""
    if isinstance(coef, str):
        j = fit.names.index(coef)
    else:
        j = int(coef)
    if fit.names != boot.names:
        raise DataError("bootstrap result does not match the fitted model")
    se = float(boot.se[j])
    if se <= 0.0:
        raise EndofixError("bootstrap standard error is zero; t-test undefined")
    t = (float(fit.theta[j]) - null_value) / se
    p = float(2.0 * ndtr(-abs(t)))
    return TestResult(statistic=t, p_value=min(p, 1.0),
                      null_description=f"{fit.names[j]} = {null_value:g}")


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
