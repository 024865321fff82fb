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
triangle below the diagonal, evaluated on a doubling composite-Simpson
grid.

Every integrand is a function of g(t) = F^-1(Phi(t)), and g is evaluated
once per abscissa.  c1, c2 and the lemma-B integral are QUADPACK
integrals over the same interval, which pass one scalar abscissa at a
time and meet many abscissae more than once; they read g from a memo
(:func:`_g_memo`) that one computation makes and drops, and a scalar g
skips numpy's masked array path.  Each doubled c3 grid holds the
previous one at its even points, bit for bit, so only its odd points
are evaluated.

c1 is infinite for a gamma error of shape <= 1 (:func:`_c1_diverges`).
:func:`constants_c` then gives c1's truncated integral by default, the
value the plug-in covariance uses, or inf on request without
integrating it, as the ``constants`` command asks.

These formulas assume a mean-zero first-stage error; distributions are
centered automatically where that matters.  If the error distribution is
Gaussian the scores are a linear function of the error and the moment
matrix is singular: that case raises ``IdentificationError`` carrying the
singular-value margin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, IdentificationError, QuadratureError
from .numerics import DistSpec, QuadratureSpec, integrate_1d, std_normal_pdf

__all__ = ["AsymptoticConstants", "MomentSet", "SigmaAsymptotic",
           "constants_c", "lemma_b_residual", "sigma_asymptotic"]

# Truncation of the substituted integrals: normal mass beyond is < 1e-17.
T_TRUNC = 8.5


def _quantile_of_normal(F: DistSpec, t):
    """g(t) = F^-1(Phi(t)), evaluated tail-accurately on both sides."""
    if np.ndim(t) == 0:
        # quad's abscissae are scalars: no masks of 0-d arrays for them
        return F.quantile(ndtr(t)) if t <= 0.0 else F.isf(ndtr(-t))
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    neg = t <= 0.0
    if np.any(neg):
        out[neg] = F.quantile(ndtr(t[neg]))
    if np.any(~neg):
        out[~neg] = F.isf(ndtr(-t[~neg]))
    return out


def _g_memo(F: DistSpec):
    """g = F^-1 o Phi at scalar abscissae, each computed once per memo.

    The integrals of c1, c2 and lemma B all run over [-T_TRUNC, T_TRUNC],
    so QUADPACK meets many abscissae in more than one of them.  A memo
    lives only as long as the computation that makes it.
    """
    memo = {}

    def g(t: float):
        v = memo.get(t)
        if v is None:
            v = memo[t] = _quantile_of_normal(F, t)
        return v
    return g


def _c1_diverges(F: DistSpec) -> bool:
    """Is c1 infinite?  For a gamma error of shape a <= 1 the c1 integrand
    behaves like u^(-1/a) / sqrt(2 log(1/u)) near u = 0, whose integral
    diverges; for larger shapes and for the normal it is finite."""
    return F.family == "gamma" and F.params[0] <= 1.0


@dataclass(frozen=True)
class AsymptoticConstants:
    """The three scalar functionals plus the quadrature error report."""

    c1: float
    c2: float
    c3: float
    quadrature_report: dict

    def __post_init__(self):
        if self.c3 < 0.0:
            raise DomainError("c3 is a variance and cannot be negative")


def _g_phi(F: DistSpec, t: np.ndarray) -> np.ndarray:
    """Rows g(t), Phi(t) and 1 - Phi(t) = Phi(-t) at the points ``t``."""
    return np.stack([_quantile_of_normal(F, t), ndtr(t), ndtr(-t)])


def _c3_simpson(t: np.ndarray, vals: np.ndarray) -> float:
    """c3 on a fixed grid: 2 * int g(s) (1-Phi(s)) C1(s) ds with
    C1(s) = int_{-T}^{s} g Phi, both by composite Simpson with M panels.

    ``t`` is np.linspace(-T, T, 2M + 1), whose even points are the panel
    edges and odd points the midpoints, and ``vals`` is ``_g_phi(F, t)``.
    """
    g, Phi, Phi_c = vals
    h = t[2] - t[0]
    ge = g[0::2]
    w_e, w_m = ge * Phi[0::2], g[1::2] * Phi[1::2]
    panel = h / 6.0 * (w_e[:-1] + 4.0 * w_m + w_e[1:])
    C1 = np.concatenate([[0.0], np.cumsum(panel)])
    v = 2.0 * ge * Phi_c[0::2] * C1
    # composite Simpson over the edge grid (M is even)
    return h / 3.0 * (v[0] + v[-1] + 4.0 * np.sum(v[1:-1:2])
                      + 2.0 * np.sum(v[2:-1:2]))


def _c3_doubling(F: DistSpec, spec: QuadratureSpec):
    """c3 on Simpson grids of 2048, 4096, ... panels, doubled until two
    successive values agree to ``spec.abs_tol`` (or 1e-12); returns (c3,
    last change, panels).  Each doubled grid's even points are the
    previous grid bit for bit (with T_TRUNC = 8.5 and power-of-two panel
    counts every grid point is exact in double precision), so only its
    odd points are evaluated."""
    M = 2048
    t = np.linspace(-T_TRUNC, T_TRUNC, 2 * M + 1)
    vals = _g_phi(F, t)
    prev = _c3_simpson(t, vals)
    c3_err = math.inf
    while M <= 16384:
        M *= 2
        t = np.linspace(-T_TRUNC, T_TRUNC, 2 * M + 1)
        fine = np.empty((3, t.size))
        fine[:, 0::2] = vals
        fine[:, 1::2] = _g_phi(F, t[1::2])
        vals = fine
        cur = _c3_simpson(t, vals)
        c3_err = abs(cur - prev)
        prev = cur
        if c3_err <= max(spec.abs_tol, 1e-12):
            return prev, c3_err, M
    raise QuadratureError(
        f"c3 grid did not stabilize (last doubling changed it by {c3_err:.2e})")


def constants_c(F: DistSpec, spec: QuadratureSpec = QuadratureSpec(), *,
                g=None, truncate_c1: bool = True) -> AsymptoticConstants:
    """Compute (c1, c2, c3) for a continuous scalar distribution.

    ``c2`` and ``c1`` do not depend on the distribution's location; ``c3``
    does, and the covariance formulas require a centered error, so pass a
    centered spec (``DistSpec.centered_version()``) when that matters.

    ``g`` is a memo of F^-1 o Phi from :func:`_g_memo` for F, to share
    its evaluations with other integrals of F; one is made here when it
    is None.  Where c1 diverges (a gamma error of shape <= 1), the
    default ``truncate_c1=True`` gives its integral over |t| <= T_TRUNC,
    a finite artefact of the truncation that the plug-in covariance
    uses; ``truncate_c1=False`` gives c1 = inf without integrating it,
    and the report has no ``c1_err``.

    Raises QuadratureError if the integrated c2, positive for every F,
    is not: rounding has then erased the centered quantiles.
    """
    if g is None:
        g = _g_memo(F)
    report = {}
    if truncate_c1 or not _c1_diverges(F):
        c1, e1 = integrate_1d(lambda t: F.pdf(g(t)), -T_TRUNC, T_TRUNC, spec)
        report["c1_err"] = float(e1)
    else:
        c1 = math.inf
    c2, e2 = _c2_quadrature(g, spec)
    if not c2 > 0.0:
        # g is increasing, so c2 = Cov(g(T), T) > 0 for T standard normal
        raise QuadratureError(
            f"c2 = {c2:.3e} is not positive: the centered quantiles of the "
            "distribution have no significant digits left at its scale")
    c3, c3_err, M = _c3_doubling(F, spec)
    report.update({"c2_err": float(e2), "c3_doubling_delta": float(c3_err),
                   "c3_panels": M, "t_truncation": T_TRUNC})
    return AsymptoticConstants(c1=float(c1), c2=float(c2),
                               c3=float(max(c3, 0.0)),
                               quadrature_report=report)


def _c2_quadrature(g, spec: QuadratureSpec):
    """c2 = int g(t) t phi(t) dt with g = F^-1 o Phi, and its error."""
    return integrate_1d(lambda t: g(t) * t * std_normal_pdf(t),
                        -T_TRUNC, T_TRUNC, spec)


def lemma_b_residual(F: DistSpec, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """|LHS - RHS| of the mixed-kernel identity

        int int [F^-1(u)/phi(Phi^-1(u))] [Phi^-1(v)/phi(Phi^-1(v))]
                (min(u,v) - uv) du dv  =  (1/2) int F^-1(u) Phi^-1(u) du.

    The right-hand side is c2 / 2 (see :func:`constants_c`); the left-hand
    side is :func:`_lemma_b_lhs`.

    Requires int (F^-1)^2 du < infinity, which every supported family with
    a finite variance satisfies.
    """
    g = _g_memo(F)
    c2, _ = _c2_quadrature(g, spec)
    return abs(_lemma_b_lhs(g, spec) - 0.5 * c2)


def _lemma_b_lhs(g, spec: QuadratureSpec) -> float:
    """The double integral on the left of :func:`lemma_b_residual`.

    The inner v-integral has the closed form (1-Phi(s)) A1(s) +
    Phi(s) A2(s), with A1, A2 antiderivatives of t*Phi(t) and t*(1-Phi(t)),
    so it reduces to a single quadrature after u = Phi(s).  ``g`` is a
    memo of F^-1 o Phi from :func:`_g_memo`.
    """
    def A1(s):
        return 0.5 * ((s * s - 1.0) * ndtr(s) + s * std_normal_pdf(s))

    a1_top = A1(np.array(T_TRUNC))

    def inner(s):
        a2 = (T_TRUNC ** 2 - s * s) / 2.0 - a1_top + A1(s)
        return ndtr(-s) * A1(s) + ndtr(s) * a2

    lhs, _ = integrate_1d(lambda s: g(s) * inner(s), -T_TRUNC, T_TRUNC, spec)
    return lhs


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


def sigma_asymptotic(F: DistSpec, delta, rho: float, moments: MomentSet,
                     spec: QuadratureSpec = QuadratureSpec()) -> SigmaAsymptotic:
    """Assemble M, Omega and Sigma = M^-1 Omega M^-1.

    Parameters
    ----------
    F : DistSpec
        First-stage error distribution (centered internally).
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
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    k = moments.k
    if delta.shape != (k,):
        raise DomainError("delta length does not match moments.sigma_x")

    cons = constants_c(F.centered_version(), spec)
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
    return SigmaAsymptotic(M=M, Omega=Om, Sigma=Sigma, schur_margin=margin,
                           constants=cons)
