"""Plug-in evaluation of the estimator's asymptotic covariance.

The limiting covariance of the two-step estimator depends on three scalar
functionals of the first-stage error distribution:

    c1 = int_0^1 f(F^-1(u)) / phi(Phi^-1(u)) du
    c2 = int_0^1 F^-1(u) * Phi^-1(u) du
    c3 = int_0^1 int_0^1 h(u) h(v) (min(u,v) - uv) du dv,
         h(u) = F^-1(u) / phi(Phi^-1(u))

All three are computed after the substitution u = Phi(t), which removes
the 1/phi singularities at the endpoints; the remaining infinite t-range
is truncated at |t| <= 8.5 (normal mass beyond is < 1e-17).  The double
integral is reduced exactly to a single cumulative integral over the
triangle below the diagonal.

These formulas assume a mean-zero first-stage error, so the distribution
is centered here: every integrand is a function of q(t) = F^-1(Phi(t)),
c1's the density f(q), which does not depend on location, and those of
c2, c3 and the lemma-B integral the centered quantile g = q - E[F].  All
four are read off one doubling composite-Simpson grid of q, with one
Richardson step per doubling, to the fixed relative change GRID_RTOL
(:func:`_grid_integrals`); each doubled grid holds the previous one at
its even points, bit for bit, so only its odd points are evaluated;
every distribution the tests record stops at 1024 panels, 2049
evaluations of q.

c1 is infinite for a gamma error of shape <= 1 (:func:`_c1_diverges`).
:func:`constants_c` then flags it and gives c1's truncated integral,
the value the plug-in covariance uses; the ``constants`` command prints
inf.  A divergent c1 takes no part in the grid's stop rule.

If the error distribution is Gaussian the scores are a linear function
of the error and the moment matrix is singular: that case raises
``IdentificationError`` carrying the singular-value margin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import (DomainError, IdentificationError, NonFiniteError,
                     QuadratureError)
from .numerics import DistSpec, std_normal_pdf

__all__ = ["AsymptoticConstants", "MomentSet", "SigmaAsymptotic",
           "constants_c", "sigma_asymptotic"]

# Truncation of the substituted integrals: normal mass beyond is < 1e-17.
T_TRUNC = 8.5

# The grid's stop rule: each integral it gives changed by at most
# GRID_RTOL times max(1, |value|) in its last doubling.
GRID_RTOL = 1e-9


def _quantile_of_normal(F: DistSpec, t):
    """F^-1(Phi(t)) at the array ``t``, evaluated tail-accurately on
    both sides."""
    out = np.empty_like(t)
    neg = t <= 0.0
    if np.any(neg):
        out[neg] = F.quantile(ndtr(t[neg]))
    if np.any(~neg):
        out[~neg] = F.isf(ndtr(-t[~neg]))
    return out


def _c1_diverges(F: DistSpec) -> bool:
    """Is c1 infinite?  For a gamma error of shape a <= 1 the c1 integrand
    behaves like u^(-1/a) / sqrt(2 log(1/u)) near u = 0, whose integral
    diverges; for larger shapes and for the normal it is finite."""
    return F.family == "gamma" and F.params[0] <= 1.0


@dataclass(frozen=True)
class AsymptoticConstants:
    """The three scalar functionals, the left side of lemma B computed
    with them and the quadrature error report.  Where ``c1_diverges``, c1
    is its integral over |t| <= T_TRUNC, a finite artefact of the
    truncation (b * T_TRUNC for gamma(1, b))."""

    c1: float
    c2: float
    c3: float
    lemma_b_lhs: float
    c1_diverges: bool
    quadrature_report: dict

    def __post_init__(self):
        if self.c3 < 0.0:
            raise DomainError("c3 is a variance and cannot be negative")

    @property
    def lemma_b_residual(self) -> float:
        """|LHS - RHS| of the mixed-kernel identity

            int int [F^-1(u)/phi(Phi^-1(u))] [Phi^-1(v)/phi(Phi^-1(v))]
                    (min(u,v) - uv) du dv  =  (1/2) int F^-1(u) Phi^-1(u) du,

        whose right side is c2 / 2.  After u = Phi(s) the inner v-integral
        has a closed form (see :func:`_grid_rows`), so the left side is a
        single integral, taken on c2's grid.  Requires
        int (F^-1)^2 du < infinity, which every supported family
        satisfies."""
        return abs(self.lemma_b_lhs - 0.5 * self.c2)


def _a1(t, Phi, pdf):
    """A1(t) = int_{-inf}^t s Phi(s) ds, given Phi(t) and phi(t)."""
    return 0.5 * ((t * t - 1.0) * Phi + t * pdf)


_A1_BOTTOM = float(_a1(-T_TRUNC, ndtr(-T_TRUNC), std_normal_pdf(T_TRUNC)))


def _grid_rows(F: DistSpec, t: np.ndarray) -> np.ndarray:
    """The grid's integrands at the points ``t``: rows g Phi and
    g (1 - Phi) of c3, g t phi of c2, g I of lemma B and f(q) of c1.

    q is the quantile, evaluated once per point; g = q - E[F] is the
    centered one, and c1's density is taken at q, so no lower-tail digits
    are lost by centering and shifting back.  I(s) is lemma B's inner
    v-integral in closed form, (1-Phi(s)) A1(s) + Phi(s) A2(s) with
    A2(s) = int_s^T t (1-Phi(t)) dt = A1(-T) - A1(-s) by symmetry.
    Written so, A2 has no cancellation between terms of size T^2 / 2,
    which would cost lemma B two digits.
    """
    q = _quantile_of_normal(F, t)
    g = q - F.mean()
    Phi, Phi_c, pdf = ndtr(t), ndtr(-t), std_normal_pdf(t)
    inner = Phi_c * _a1(t, Phi, pdf) + Phi * (_A1_BOTTOM - _a1(-t, Phi_c, pdf))
    return np.stack([g * Phi, g * Phi_c, g * (t * pdf), g * inner,
                     F.pdf(q)])


def _simpson(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(c2, c3, lemma-B integral, c1) by composite Simpson with M panels.

    ``t`` is np.linspace(-T, T, 2M + 1), whose even points are the panel
    edges and odd points the midpoints, and ``rows`` is
    ``_grid_rows(F, t)``.  c3 = 2 int g(s) (1-Phi(s)) C1(s) ds with
    C1(s) = int_{-T}^{s} g Phi: C1 is summed panel by panel, and the
    outer integral is Simpson's rule over the panel edges (M is even).
    """
    h = t[2] - t[0]
    panels = h / 6.0 * (rows[:, 0:-1:2] + 4.0 * rows[:, 1::2] + rows[:, 2::2])
    C1 = np.concatenate([[0.0], np.cumsum(panels[0])])
    v = 2.0 * rows[1, 0::2] * C1
    c3 = h / 3.0 * (v[0] + v[-1] + 4.0 * np.sum(v[1:-1:2])
                    + 2.0 * np.sum(v[2:-1:2]))
    return np.array([np.sum(panels[2]), c3, np.sum(panels[3]),
                     np.sum(panels[4])])


# the grid's last doubling, far past the 1024 panels at which the
# distributions the tests record stop
_MAX_PANELS = 32768


# a divergent c1 may overflow (gamma shapes near 0), and a convergent
# one passes the stop rule only if it is finite
@np.errstate(over="ignore", invalid="ignore")
def _grid_integrals(F: DistSpec):
    """c2, c3, the lemma-B integral and c1 from one doubling Simpson grid.

    Starting at 256 panels, every doubling takes one Richardson step,
    R_M = S_M + (S_M - S_{M/2}) / 15, which cancels Simpson's h^4 error
    term, and the doubling stops once each R changed by at most
    GRID_RTOL times max(1, |R|) since the previous one: c2, c3 and
    lemma B always, c1 only where it converges, so a divergent c1
    neither stops the doubling nor holds it up.  c3 scales with
    the error's variance, so a relative change stops the doubling alike
    in any units.  Returns (R, last change, panels), R and the change as
    arrays (c2, c3, lemma B, c1).

    Each doubled grid holds the previous one at its even points, bit for
    bit (with T_TRUNC = 8.5 and power-of-two panel counts every grid
    point is exact in double precision), so only its odd points are
    evaluated.
    """
    M = 256
    t = np.linspace(-T_TRUNC, T_TRUNC, 2 * M + 1)
    rows = _grid_rows(F, t)
    S = _simpson(t, rows)
    R = None
    wanted = slice(3) if _c1_diverges(F) else slice(None)
    while M < _MAX_PANELS:
        M *= 2
        t = np.linspace(-T_TRUNC, T_TRUNC, 2 * M + 1)
        fine = np.empty((len(rows), t.size))
        fine[:, 0::2] = rows
        fine[:, 1::2] = _grid_rows(F, t[1::2])
        rows = fine
        S, S_half = _simpson(t, rows), S
        R, R_half = S + (S - S_half) / 15.0, R
        if R_half is not None:
            change = np.abs(R - R_half)
            if np.all(change[wanted]
                      <= GRID_RTOL * np.maximum(1.0, np.abs(R[wanted]))):
                return R, change, M
    raise QuadratureError(
        f"the constants' grid did not stabilize at {M} panels (last "
        "doubling changed c2, c3, lemma B and c1 by "
        f"{', '.join(f'{d:.2e}' for d in change)})")


def constants_c(F: DistSpec) -> AsymptoticConstants:
    """Compute (c1, c2, c3) of the centered continuous scalar distribution
    ``F``; c2 and c1 do not depend on its location.

    All four integrals come from :func:`_grid_integrals`; the report's
    ``c1_err``, ``c2_err`` and ``c3_doubling_delta`` are their grid's
    last change and ``c3_panels`` its final panel count.  Where c1
    diverges (a gamma error of shape <= 1) the result's ``c1_diverges``
    is set, its c1 is the truncated integral and the report has no
    ``c1_err``.

    Raises QuadratureError if c2, positive for every F, is not: rounding
    has then erased the centered quantiles.
    """
    (c2, c3, lemma_b, c1), change, M = _grid_integrals(F)
    if not c2 > 0.0:
        # g is increasing, so c2 = Cov(g(T), T) > 0 for T standard normal
        raise QuadratureError(
            f"c2 = {c2:.3e} is not positive: the centered quantiles of the "
            "distribution have no significant digits left at its scale")
    diverges = _c1_diverges(F)
    report = {} if diverges else {"c1_err": float(change[3])}
    report.update({"c2_err": float(change[0]),
                   "c3_doubling_delta": float(change[1]),
                   "c3_panels": M, "t_truncation": T_TRUNC})
    return AsymptoticConstants(c1=float(c1), c2=float(c2),
                               c3=float(max(c3, 0.0)),
                               lemma_b_lhs=float(lemma_b),
                               c1_diverges=diverges,
                               quadrature_report=report)


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Population moments feeding the covariance blocks.

    ``sigma_x`` and ``mu_x`` describe the centered exogenous regressors
    (covariance and mean of the raw variables; the intercept is excluded
    throughout — the limit theory covers the slope coefficients).  The
    cross moments are E[xx' eps^2], E[e^2 eps^2], E[eta^2 eps^2],
    E[e eta eps^2]; ``source`` records how they were obtained.
    """

    sigma_x: np.ndarray
    mu_x: np.ndarray
    sigma_e2: float
    e_xx_eps2: np.ndarray
    e_e2_eps2: float
    e_eta2_eps2: float
    e_eeta_eps2: float
    source: str = "analytic"

    def __post_init__(self):
        sx = np.atleast_2d(np.asarray(self.sigma_x, dtype=np.float64))
        object.__setattr__(self, "sigma_x", sx)
        object.__setattr__(self, "mu_x",
                           np.atleast_1d(np.asarray(self.mu_x, dtype=np.float64)))
        object.__setattr__(self, "e_xx_eps2",
                           np.atleast_2d(np.asarray(self.e_xx_eps2, dtype=np.float64)))
        if self.sigma_e2 <= 0.0:
            raise DomainError("sigma_e2 must be positive")

    @property
    def k(self) -> int:
        return self.sigma_x.shape[0]

    @classmethod
    def homoskedastic_gaussian(cls, sigma_x, mu_x, sigma_e2: float, c2: float,
                               eps_var: float = 1.0) -> "MomentSet":
        """Closed forms when eps is independent N(0, eps_var):
        E[xx' eps^2] = eps_var * Sigma_x, E[e^2 eps^2] = eps_var * sigma_e2,
        E[eta^2 eps^2] = eps_var, E[e eta eps^2] = eps_var * c2."""
        sx = np.atleast_2d(np.asarray(sigma_x, dtype=np.float64))
        return cls(sigma_x=sx, mu_x=mu_x, sigma_e2=float(sigma_e2),
                   e_xx_eps2=eps_var * sx, e_e2_eps2=eps_var * float(sigma_e2),
                   e_eta2_eps2=eps_var, e_eeta_eps2=eps_var * float(c2),
                   source="analytic-homoskedastic-gaussian")


@dataclass(frozen=True, eq=False)
class SigmaAsymptotic:
    """Assembled limit-covariance pieces for the slope coefficients
    (beta without intercept, gamma, rho)."""

    M: np.ndarray
    Omega: np.ndarray
    Sigma: np.ndarray
    schur_margin: float
    constants: AsymptoticConstants

    @property
    def dim(self) -> int:
        return self.M.shape[0]


def sigma_asymptotic(F: DistSpec, delta, rho: float,
                     moments: MomentSet) -> SigmaAsymptotic:
    """Assemble M, Omega and Sigma = M^-1 Omega M^-1.

    Parameters
    ----------
    F : DistSpec
        First-stage error distribution (centered by :func:`constants_c`).
    delta : array_like, shape (k,)
        First-stage slope coefficients on the centered exogenous block.
    rho : float
        Coefficient on the scores regressor.
    moments : MomentSet
        Population moments (see :class:`MomentSet`).

    Raises
    ------
    IdentificationError
        If the (z, eta) block of M, after partialling the exogenous block,
        is numerically singular — the Gaussian-error identification
        failure.  The raised error carries ``schur_margin``.
    NonFiniteError
        If c1 or Sigma is not finite: Omega squares the truncated c1,
        which is astronomically large for gamma shapes well below 1.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    k = moments.k
    if delta.shape != (k,):
        raise DomainError("delta length does not match moments.sigma_x")

    cons = constants_c(F)
    c1, c2, c3 = cons.c1, cons.c2, cons.c3
    sx = moments.sigma_x
    se2 = moments.sigma_e2

    dim = k + 2
    M = np.zeros((dim, dim))
    M[:k, :k] = sx
    M[:k, k] = sx @ delta
    M[k, :k] = M[:k, k]
    M[k, k] = float(delta @ sx @ delta) + se2
    M[k, k + 1] = c2
    M[k + 1, k] = c2
    M[k + 1, k + 1] = 1.0

    schur = np.array([[se2, c2], [c2, 1.0]])
    margin = float(np.min(np.abs(np.linalg.eigvalsh(schur))))
    if margin <= 1e-6 * max(1.0, se2):
        raise IdentificationError(
            "moment matrix is singular: the error distribution is "
            "(numerically) Gaussian, so the scores regressor is a linear "
            f"function of the endogenous regressor (margin {margin:.2e})",
            schur_margin=margin)

    rho2 = rho * rho
    omega1_mat = moments.e_xx_eps2 + sx * (rho2 * c1 * c1 * se2)
    w1 = moments.e_e2_eps2 + rho2 * c3
    w2 = moments.e_eta2_eps2 + rho2 / 2.0
    w12 = moments.e_eeta_eps2 + rho2 * c2 / 2.0

    Om = np.zeros((dim, dim))
    Om[:k, :k] = omega1_mat
    Om[:k, k] = omega1_mat @ delta
    Om[k, :k] = Om[:k, k]
    Om[k, k] = float(delta @ omega1_mat @ delta) + w1
    Om[k, k + 1] = w12
    Om[k + 1, k] = w12
    Om[k + 1, k + 1] = w2

    Minv_Om = np.linalg.solve(M, Om)
    Sigma = np.linalg.solve(M, Minv_Om.T).T
    Sigma = 0.5 * (Sigma + Sigma.T)
    if not (math.isfinite(c1) and np.all(np.isfinite(Sigma))):
        raise NonFiniteError(
            f"the plug-in covariance is not finite: c1 = {c1:.3e} is too "
            "large to square")
    return SigmaAsymptotic(M=M, Omega=Om, Sigma=Sigma, schur_margin=margin,
                           constants=cons)
