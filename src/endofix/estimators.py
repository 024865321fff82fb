"""Augmented-OLS endogeneity correction and its comparator estimators.

``fit_npcf`` is the two-step estimator: residualize the endogenous
column(s) on the exogenous design, map the residual ranks through the
inverse normal CDF, and run OLS on the design augmented with those
scores.  ``fit_iv_internal`` is its exact just-identified IV
representation, ``fit_two_scope`` the scores-on-scores comparator, and
``fit_ols`` the uncorrected baseline.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import (DataError, DomainError, IdentificationError,
                     RankDeficiencyError)
from .regress import DesignMatrix, OlsFit, _lstsq, ols_fit
from .transform import (CONSTANT_RESIDUAL_RTOL, FirstStage, first_stage,
                        normal_scores)

__all__ = ["ModelSpec", "ThetaEstimate", "fit_ols", "fit_npcf",
           "fit_iv_internal", "fit_two_scope", "ESTIMATORS", "INTERCEPT"]

INTERCEPT = "const"


@dataclass(frozen=True)
class ModelSpec:
    """Column roles: one outcome, exogenous controls (intercept implied),
    and at least one endogenous regressor.  The three sets are disjoint."""

    outcome: str
    exogenous: tuple[str, ...]
    endogenous: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "exogenous", tuple(self.exogenous))
        object.__setattr__(self, "endogenous", tuple(self.endogenous))
        if len(self.endogenous) < 1:
            raise DataError("need at least one endogenous column")
        roles = [self.outcome, *self.exogenous, *self.endogenous]
        if len(set(roles)) != len(roles):
            raise DataError("outcome/exogenous/endogenous columns overlap")

    @property
    def m(self) -> int:
        return len(self.endogenous)

    @property
    def k(self) -> int:
        """Design width of the exogenous block, intercept included."""
        return 1 + len(self.exogenous)


@dataclass(frozen=True)
class ThetaEstimate:
    """A fitted coefficient vector ordered (intercept, beta, gamma, rho).

    The rho block (one coefficient per endogenous column) is present only
    for estimators that build a correction regressor.  ``vcov`` carries
    whatever covariance ``vcov_source`` says it is; the pairs bootstrap
    replaces both.
    """

    theta: np.ndarray
    names: tuple[str, ...]
    estimator_tag: str
    vcov: np.ndarray | None = None
    vcov_source: str = "none"    # classical | none
    first_stage: FirstStage | None = None
    r_squared: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.names) != self.theta.size:
            raise DataError("coefficient names do not match theta length")
        if self.vcov is not None and self.vcov.shape != (self.theta.size,) * 2:
            raise DataError("vcov shape does not match theta length")

    def coef(self, name: str) -> float:
        return float(self.theta[self.names.index(name)])

    def se(self) -> np.ndarray | None:
        if self.vcov is None:
            return None
        return np.sqrt(np.diag(self.vcov))


def _check_finite(data: Dataset, spec: ModelSpec) -> None:
    """Raise DomainError naming the first non-finite model column."""
    for col in (spec.outcome, *spec.exogenous, *spec.endogenous):
        if not np.all(np.isfinite(data.column(col))):
            raise DomainError(f"column {col!r} contains non-finite entries")


def _design(data: Dataset, spec: ModelSpec, extra: int = 0) -> np.ndarray:
    """The Fortran-ordered n x (k + m + extra) array [1 | exogenous |
    endogenous | extra columns left for the caller], checked finite: a
    fit's one copy of its design, in the layout :func:`_lstsq` factors."""
    _check_finite(data, spec)
    cols = (*spec.exogenous, *spec.endogenous)
    W = np.empty((data.n, 1 + len(cols) + extra), order="F")
    W[:, 0] = 1.0
    for j, c in enumerate(cols, 1):
        W[:, j] = data.column(c)
    return W


def _names(spec: ModelSpec, with_rho: bool) -> tuple[str, ...]:
    names = [INTERCEPT, *spec.exogenous, *spec.endogenous]
    if with_rho:
        names += [f"rho[{c}]" for c in spec.endogenous]
    return tuple(names)


def fit_ols(data: Dataset, spec: ModelSpec) -> ThetaEstimate:
    """Plain OLS of the outcome on (exogenous, endogenous) — the
    uncorrected baseline.  No rho block."""
    W = DesignMatrix(_design(data, spec), _names(spec, False))
    fit = ols_fit(W, data.column(spec.outcome), overwrite=True)
    return ThetaEstimate(fit.coefficients, W.column_names, "ols",
                         vcov=fit.vcov_classical, vcov_source="classical",
                         r_squared=fit.r_squared)


def _augmented_fit(W: np.ndarray, y: np.ndarray, spec: ModelSpec) -> OlsFit:
    """OLS of ``y`` on the :func:`_design` array ``W`` whose extra columns
    hold the corrections; W is factored in place."""
    try:
        return ols_fit(DesignMatrix(W, _names(spec, True)), y, overwrite=True)
    except RankDeficiencyError as exc:
        # the collinear pair in the identification failure is (endogenous
        # column, its correction); pivoting may flag either one
        suspects = set(spec.endogenous) | {f"rho[{c}]" for c in spec.endogenous}
        if exc.column in suspects:
            raise IdentificationError(
                f"column {exc.column!r} is collinear with the rest of the "
                "augmented design: the first-stage residuals look Gaussian, "
                "and a normal-scores control function is then a linear "
                "function of the endogenous regressor (the model is "
                "unidentified)"
            ) from exc
        raise


def fit_npcf(data: Dataset, spec: ModelSpec) -> ThetaEstimate:
    """Two-step control-function estimator.

    Step 1 residualizes each endogenous column on the exogenous design and
    converts residual ranks to normal scores; step 2 is joint OLS of the
    outcome on (exogenous, endogenous, scores).  Classical covariance is
    attached for the exogeneity t-test; use the pairs bootstrap for
    inference on the other coefficients.
    """
    k, m = spec.k, spec.m
    W = _design(data, spec, extra=m)
    X = DesignMatrix(W[:, :k], (INTERCEPT, *spec.exogenous),
                     has_intercept=True)
    fs = first_stage(X, W[:, k:k + m], spec.endogenous)
    W[:, k + m:] = fs.eta_hat
    fit = _augmented_fit(W, data.column(spec.outcome), spec)
    return ThetaEstimate(fit.coefficients, fit.column_names, "npcf",
                         vcov=fit.vcov_classical, vcov_source="classical",
                         first_stage=fs, r_squared=fit.r_squared)


def fit_iv_internal(data: Dataset, spec: ModelSpec) -> ThetaEstimate:
    """Just-identified IV form of :func:`fit_npcf`.

    Every structural regressor (exogenous and endogenous alike) is
    partialled on the normal-scores block to form its own instrument; the
    resulting moment conditions reproduce the augmented-OLS ``beta`` and
    ``gamma`` exactly, and the scores coefficient is recovered from the IV
    residual projection.

    The instruments Q are the residuals of the regressors A on the scores
    H, so Q'A = Q'Q and the IV solve is the least squares of y on Q
    (Frisch-Waugh-Lovell); both solves are pivoted QRs, and a rank failure
    names its column.
    """
    A = _design(data, spec)
    k = spec.k
    fs = first_stage(DesignMatrix(A[:, :k], (INTERCEPT, *spec.exogenous),
                                  has_intercept=True),
                     A[:, k:], spec.endogenous)
    names = _names(spec, True)
    y = data.column(spec.outcome)
    H = fs.eta_hat
    Q = _lstsq(H, A, names[-spec.m:])[1]
    ab = _lstsq(Q, y, names[:-spec.m], overwrite=True)[0]
    rho = _lstsq(H, y - A @ ab, names[-spec.m:])[0]
    theta = np.concatenate([ab, rho])
    return ThetaEstimate(theta, names, "iv_internal",
                         vcov=None, vcov_source="none", first_stage=fs)


def fit_two_scope(data: Dataset, spec: ModelSpec) -> ThetaEstimate:
    """Scores-on-scores comparator.

    Normal scores are taken of the endogenous column(s) *and* of every
    non-intercept exogenous column; each scored endogenous column is
    regressed on the scored exogenous block (with intercept), and those
    first-step residuals enter the second-step OLS as the correction
    regressors.  Built to capture rank-level dependence between the
    regressors; with a linear exogenous/endogenous relation it is known to
    leave bias behind.

    Normal scores do not change under an increasing transform, so
    exogenous columns that order the rows alike (x and x^2 with x >= 0,
    say) score alike: the scored block keeps the first of equal columns,
    which leaves its span, and so the correction, as it is.
    """
    k, m = spec.k, spec.m
    W = _design(data, spec, extra=m)
    scored = {}
    for c in spec.exogenous:
        s = normal_scores(data.column(c))
        if not any(np.array_equal(s, t) for t in scored.values()):
            scored[f"score[{c}]"] = s
    SX = np.column_stack([np.ones(data.n), *scored.values()])
    sx_names = (INTERCEPT, *scored)
    # one factorisation of SX for the whole scored block, each column
    # contiguous as in first_stage
    SZ = np.empty((data.n, m), order="F")
    for j in range(m):
        SZ[:, j] = normal_scores(W[:, k + j])
    try:
        corr = _lstsq(SX, SZ, sx_names, overwrite=True)[1]
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(
            f"{exc}: the scored exogenous columns are collinear",
            column=exc.column) from exc
    # a scored endogenous column in the span of the scored exogenous
    # block (the two order the rows alike) leaves a correction of
    # rounding noise, whose coefficient can take any size: the check
    # that first_stage makes of its residuals
    centred = np.linalg.norm(SZ - SZ.mean(axis=0), axis=0)
    flat = np.linalg.norm(corr, axis=0) <= CONSTANT_RESIDUAL_RTOL * centred
    if np.any(flat):
        raise IdentificationError(
            f"the scores of endogenous column "
            f"{spec.endogenous[np.argmax(flat)]!r} are (numerically) a "
            "linear function of the scored exogenous block, so the "
            "scores-on-scores correction is rounding noise")
    W[:, k + m:] = corr
    fit = _augmented_fit(W, data.column(spec.outcome), spec)
    return ThetaEstimate(fit.coefficients, fit.column_names, "two_scope",
                         vcov=fit.vcov_classical, vcov_source="classical",
                         r_squared=fit.r_squared, extra={"correction": corr})


# Registry used by the bootstrap, the Monte Carlo runner, and the CLI.
# The Gaussian-copula estimator registers itself on import of copula_mle.
ESTIMATORS: dict[str, object] = {
    "ols": fit_ols,
    "npcf": fit_npcf,
    "iv_internal": fit_iv_internal,
    "two_scope": fit_two_scope,
}
