"""Gaussian-copula maximum-likelihood comparator.

Models the joint distribution of the regression error and the endogenous
regressor with a Gaussian copula: the error is taken normal with free
scale, and the regressor's marginal CDF is estimated from its ranks (or
by integrating a Gaussian kernel density over the observed column).  The
fit is the closed-form MLE (OLS on the design augmented with the normal
scores of z).  This comparator deliberately ignores any dependence
between the endogenous regressor and the exogenous controls (no first
stage), which is exactly why it retains bias when that dependence exists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .data import Dataset
from .errors import ConstantInputError, DataError, DomainError
from .estimators import (ESTIMATORS, ModelSpec, ThetaEstimate, _names,
                         build_design)
from .regress import _lstsq
from .transform import normal_scores

__all__ = ["KernelCdf", "GpParams", "silverman_bandwidth",
           "kernel_cdf_eval", "gp_loglik", "gp_fit"]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def silverman_bandwidth(v: np.ndarray) -> float:
    """Rule-of-thumb kernel bandwidth 1.06 * sd * n^(-1/5)."""
    v = np.asarray(v, dtype=np.float64)
    sd = float(np.std(v))
    if sd <= 0.0:
        raise DomainError("cannot pick a bandwidth for a constant sample")
    return 1.06 * sd * v.size ** (-0.2)


@dataclass(frozen=True, eq=False)
class KernelCdf:
    """Smoothed empirical CDF: the integral of a Gaussian KDE.

    Strictly increasing and continuous onto (0, 1); evaluations are
    clipped away from the endpoints before any inverse-normal use.
    """

    support_points: np.ndarray
    bandwidth: float

    def __post_init__(self):
        v = np.asarray(self.support_points, dtype=np.float64).ravel()
        object.__setattr__(self, "support_points", v)
        if v.size < 1:
            raise DomainError("kernel CDF needs at least one support point")
        if not self.bandwidth > 0.0:
            raise DomainError("bandwidth must be positive")

    @classmethod
    def from_sample(cls, v: np.ndarray) -> "KernelCdf":
        return cls(np.asarray(v, dtype=np.float64),
                   silverman_bandwidth(v))


def kernel_cdf_eval(F: KernelCdf, t) -> np.ndarray:
    """(1/n) sum_i Phi((t - x_i) / h), clipped to [1/(2n), 1 - 1/(2n)]."""
    t = np.asarray(t, dtype=np.float64)
    v = F.support_points
    raw = np.mean(ndtr((t[..., None] - v) / F.bandwidth), axis=-1)
    lo = 1.0 / (2.0 * v.size)
    out = np.clip(raw, lo, 1.0 - lo)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GpParams:
    """Copula-likelihood parameters: regression coefficients ``alpha``
    (intercept, exogenous, endogenous), copula correlation ``rho`` in
    (-1, 1), and the error scale ``sigma_u`` > 0."""

    alpha: np.ndarray
    rho: float
    sigma_u: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha",
                           np.asarray(self.alpha, dtype=np.float64).ravel())
        if not abs(self.rho) < 1.0:
            raise DomainError("|rho| must be < 1")
        if not self.sigma_u > 0.0:
            raise DomainError("sigma_u must be positive")


def _loglik_core(u: np.ndarray, eta: np.ndarray, rho: float,
                 sigma_u: float) -> float:
    """Gaussian-copula log likelihood given generalized residuals ``u`` and
    the regressor's normal scores ``eta``."""
    n = u.size
    q = u / sigma_u
    one_m = 1.0 - rho * rho
    ll = float(np.sum(-0.5 * q * q)) - n * (_LOG_SQRT_2PI + math.log(sigma_u))
    ll -= 0.5 * n * math.log(one_m)
    quad = rho * rho * (eta @ eta + q @ q) - 2.0 * rho * (eta @ q)
    ll -= quad / (2.0 * one_m)
    return ll


def gp_loglik(p: GpParams, data: Dataset, spec: ModelSpec,
              F: KernelCdf) -> float:
    """Approximate log likelihood at ``p``.

    The error term y - alpha'(1, x, z) is treated as normal with scale
    ``sigma_u``; its normal score is coupled to the regressor's score
    Phi^-1(F(z)) through a Gaussian copula with correlation ``rho``.
    """
    if spec.m != 1:
        raise DataError("the copula comparator handles a single endogenous column")
    X, Z, y = build_design(data, spec)
    D = np.column_stack([X.values, Z])
    if p.alpha.size != D.shape[1]:
        raise DataError("alpha length does not match the design")
    u = y - D @ p.alpha
    eta = ndtri(kernel_cdf_eval(F, Z[:, 0]))
    return _loglik_core(u, eta, p.rho, p.sigma_u)


def gp_fit(data: Dataset, spec: ModelSpec,
           marginal: str = "ranks") -> ThetaEstimate:
    """Closed-form MLE (OLS on the design augmented with the normal scores
    of z).

    With a normal error the copula likelihood factorises as
    u | eta ~ N(rho sigma_u eta, sigma_u^2 (1 - rho^2)), so its maximum is
    the least-squares fit of y on (1, x, z, eta): alpha is the first k + 1
    coefficients, c the coefficient on eta and s^2 = RSS / n, giving
    sigma_u = sqrt(c^2 + s^2) and rho = c / sigma_u.  This is the two-step
    control function without its first stage.

    ``marginal`` picks how the regressor's scores are built: ``"ranks"``
    (default) uses the rescaled empirical CDF rank/(n+1), ``"kernel"`` the
    Silverman-bandwidth smoothed CDF.  The smoothed CDF is the h -> 0
    generalization of the rank scores, but at the rule-of-thumb bandwidth
    it is badly boundary-biased for gamma-like marginals and shifts the
    whole fit; the rank scores reproduce the reference comparator.

    Raises
    ------
    ConstantInputError
        If z is constant (its ranks carry no information), or if the
        residual variance s^2 or 1 - rho^2 is not positive (the outcome is
        fitted exactly and the likelihood has no maximum).
    """
    if spec.m != 1:
        raise DataError("the copula comparator handles a single endogenous column")
    if marginal not in ("ranks", "kernel"):
        raise DataError("marginal must be 'ranks' or 'kernel'")
    X, Z, y = build_design(data, spec)
    z = Z[:, 0]
    # normal_scores raises ConstantInputError for a constant z before a
    # bandwidth is picked for it
    eta = normal_scores(z)
    F = KernelCdf.from_sample(z)
    if marginal == "kernel":
        eta = ndtri(kernel_cdf_eval(F, z))

    names = _names(spec, True)
    coef, resid, _ = _lstsq(np.column_stack([X.values, Z, eta]), y, names)
    n = y.size
    c = float(coef[-1])
    s2 = float(resid @ resid) / n
    sigma = math.sqrt(c * c + s2)
    if not (s2 > 0.0 and 1.0 - (c / sigma) ** 2 > 0.0):
        raise ConstantInputError(
            "the design and the normal scores fit the outcome exactly "
            "(zero residual variance), so the copula likelihood has no "
            "maximum")
    rho = c / sigma
    theta = np.concatenate([coef[:-1], [rho]])
    return ThetaEstimate(
        theta, names, "gp_copula",
        vcov=None, vcov_source="none",
        extra={"sigma_u": sigma,
               "loglik": -0.5 * n * (math.log(2.0 * math.pi * s2) + 1.0),
               "marginal": marginal, "bandwidth": F.bandwidth},
    )


ESTIMATORS["gp_copula"] = gp_fit
