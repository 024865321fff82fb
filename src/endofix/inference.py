"""Pairs bootstrap, bootstrap t-tests, the exogeneity test, and the
normality diagnostic for the first-stage residuals.

The bootstrap resamples whole observation rows with replacement and reruns
the complete two-step pipeline (first stage, scores, second stage) on each
resample, so the standard errors reflect the sampling noise of the
generated regressor as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .data import Dataset
from .errors import (BootstrapError, ConstantInputError, DataError,
                     DomainError, EndofixError, IdentificationError,
                     RankDeficiencyError)
from .estimators import ESTIMATORS, ModelSpec, ThetaEstimate, fit_npcf
from .numerics import RngStream
from .transform import FirstStage

__all__ = ["BootstrapResult", "TestResult", "pairs_bootstrap",
           "bootstrap_t_test", "exogeneity_test", "identification_diagnostic"]

# Streams for resample b are derived as seed.child(_BOOT_KEY, b) so that
# serial and parallel runs of the same bootstrap agree bitwise.
_BOOT_KEY = 0xB00


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

    ``draws`` holds one row per successful resample; ``n_failed`` counts
    degenerate resamples that were dropped (rank failures).  ``se`` is the
    per-coefficient standard deviation of the draws and ``percentile_ci``
    the (lo, hi) empirical quantiles at level 1 - alpha.
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

    def se_of(self, name: str) -> float:
        return float(self.se[self.names.index(name)])

    def ci_of(self, name: str) -> tuple[float, float]:
        j = self.names.index(name)
        return float(self.percentile_ci[0, j]), float(self.percentile_ci[1, j])


def pairs_bootstrap(data: Dataset, spec: ModelSpec, estimator: str = "npcf",
                    B: int = 199, seed: RngStream = RngStream(0),
                    level: float = 0.05) -> BootstrapResult:
    """Resample rows with replacement and refit ``estimator`` B times.

    Parameters
    ----------
    estimator : str
        One of the registered two-step estimators ("npcf", "iv_internal",
        "two_scope", "gp_copula").
    B : int
        Number of resamples, at least 2.
    seed : RngStream
        Master stream; resample b uses the derived child stream b, so the
        result is reproducible at any degree of parallelism.
    level : float
        Two-sided percentile-interval level alpha (default 5%), in (0, 1).

    Raises
    ------
    BootstrapError
        If B < 2, or more than 1% of resamples are degenerate.
    DomainError
        If ``level`` is not strictly between 0 and 1.
    """
    if B < 2:
        raise BootstrapError("bootstrap standard errors need B >= 2")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level}")
    if estimator not in ESTIMATORS or estimator == "ols":
        raise DataError(f"unknown bootstrap estimator {estimator!r}")
    fit_fn = ESTIMATORS[estimator]
    point = fit_fn(data, spec)

    n = data.n
    rows = []
    n_failed = 0
    for b in range(B):
        rng = seed.child(_BOOT_KEY, b).generator()
        idx = rng.integers(0, n, size=n)
        try:
            rows.append(fit_fn(data.take(idx), spec).theta)
        except (RankDeficiencyError, ConstantInputError, IdentificationError):
            n_failed += 1
    if n_failed > 0.01 * B:
        raise BootstrapError(
            f"{n_failed} of {B} bootstrap resamples were degenerate "
            "(rank failures); the design is too fragile for resampling")
    draws = np.asarray(rows)

    se = draws.std(axis=0, ddof=1)
    ci = np.quantile(draws, [level / 2.0, 1.0 - level / 2.0], axis=0)
    q1, med, q3 = np.percentile(draws, [25.0, 50.0, 75.0], axis=0)
    iqr = np.maximum(q3 - q1, 1e-300)
    extreme = int(np.sum(np.any(np.abs(draws - med) > 10.0 * iqr, axis=1)))
    return BootstrapResult(draws=draws, names=point.names, se=se,
                           percentile_ci=ci, level=level, B=B, seed=seed,
                           n_failed=n_failed, n_extreme_draws=extreme)


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
    """t-test of a zero coefficient on the normal-scores regressor.

    Uses the *classical* OLS standard error from the augmented regression:
    under the null of exogeneity the generated regressor costs nothing
    asymptotically, and the textbook statistic is standard normal.  Only
    defined for a single endogenous column.
    """
    if spec.m != 1:
        raise DataError("exogeneity test is defined for one endogenous column")
    fit = fit_npcf(data, spec)
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
