"""Gaussian-copula maximum-likelihood comparator.

Models the joint distribution of the regression error and the endogenous
regressor with a Gaussian copula: the error is taken normal with free
scale, and the regressor's marginal CDF is estimated from its ranks,
rank/(n+1).  The fit is the closed-form MLE (OLS on the design augmented
with the normal scores of z).  This comparator deliberately ignores any
dependence between the endogenous regressor and the exogenous controls
(no first stage), which is exactly why it retains bias when that
dependence exists.
"""
from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import ConstantInputError, DataError
from .estimators import ESTIMATORS, ModelSpec, ThetaEstimate, _design, _names
from .regress import _lstsq
from .transform import normal_scores

__all__ = ["gp_fit"]


def gp_fit(data: Dataset, spec: ModelSpec) -> ThetaEstimate:
    """Closed-form MLE (OLS on the design augmented with the normal scores
    of z).

    With a normal error the copula likelihood factorises as
    u | eta ~ N(rho sigma_u eta, sigma_u^2 (1 - rho^2)), so its maximum is
    the least-squares fit of y on (1, x, z, eta): alpha is the first k + 1
    coefficients, c the coefficient on eta and s^2 = RSS / n, giving
    sigma_u = sqrt(c^2 + s^2) and rho = c / sigma_u.  This is the two-step
    control function without its first stage.

    Raises
    ------
    ConstantInputError
        If z is constant (its ranks carry no information), or if the
        residual variance s^2 or 1 - rho^2 is finite and not positive (the
        outcome is fitted exactly and the likelihood has no maximum).
    """
    if spec.m != 1:
        raise DataError("the copula comparator handles a single endogenous column")
    W = _design(data, spec, extra=1)
    W[:, -1] = normal_scores(W[:, -2])
    y = data.column(spec.outcome)

    names = _names(spec, True)
    coef, resid, _ = _lstsq(W, y, names, overwrite=True)
    n = y.size
    c = float(coef[-1])
    s2 = float(resid @ resid) / n
    sigma = math.sqrt(c * c + s2)
    # a NaN is no exact fit: non-finite coefficients reach the caller
    if s2 <= 0.0 or 1.0 - (c / sigma) ** 2 <= 0.0:
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
               "loglik": -0.5 * n * (math.log(2.0 * math.pi * s2) + 1.0)},
    )


ESTIMATORS["gp_copula"] = gp_fit
