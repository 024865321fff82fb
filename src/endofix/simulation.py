"""Synthetic data generators and the Monte Carlo harness.

Two designs are built in.  In the first, the endogenous regressor is a
linear function of an exogenous gamma variate plus a gamma error whose
normal score enters the outcome error; the regressor is standardized to
unit variance (population scale), which is the convention the reference
bias/size grid was produced under.  In the second, dependence between the
regressors and the endogeneity itself both arrive through a Gaussian
copula on a trivariate normal, and the endogenous regressor is the
transformed error itself.

:func:`mc_run` generates the repetitions a chunk at a time.  Each
repetition keeps its own PCG64 stream and draws its normals or gammas
from it; the transforms after the draws run once on the chunk's (S, n)
block, so the columns equal those of :func:`gen_dgp1`/:func:`gen_dgp2`,
the one-repetition case of the same generator, bit for bit.  For every
built-in estimator those (S, n) columns are the stacks that the engine
the bootstrap uses (:mod:`endofix.inference`) fits at once, and the
bootstraps of a chunk's repetitions run through that engine together, so
their resamples share stacked chunks.  Each estimator's results are kept
in arrays indexed by repetition, which a chunk fills as one block, so no
per-repetition code runs unless a repetition needs a scalar fit: one the
engine flags is fitted by the registered estimator, and so is every
repetition of estimators registered later.  Stacked fits equal the
scalar ones to rounding (about 1e-14 relative), not bit for bit.
"""
from __future__ import annotations

import math
import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import gammainc, gammaincinv, ndtr, ndtri

from .data import Dataset
from .errors import DataError, DomainError, EndofixError, NonFiniteError
from .estimators import ESTIMATORS, ModelSpec, _names
from .inference import _STACKED, _chunk, _fit_stack, _resample_fits
from .numerics import DistSpec, RngStream, words_generator

__all__ = ["DgpConfig", "gen_dgp1", "gen_dgp2", "mc_run", "McSummary",
           "MODEL_SPEC"]

MODEL_SPEC = ModelSpec(outcome="y", exogenous=("x",), endogenous=("z",))

# 97.5% standard normal quantile, for 5%-level two-sided tests.
_Z975 = 1.959963984540054

# stable stream keys: (rep, role) — estimator roles must not depend on the
# evaluation order, so summaries are invariant to reordering estimators.
_DATA_KEY = 0xDA7A
_EST_KEYS = {"ols": 1, "npcf": 2, "iv_internal": 3, "two_scope": 4,
             "gp_copula": 5}


def _est_key(tag: str) -> int:
    # later-registered estimators get a key from their name, run-stable
    return _EST_KEYS.get(tag, 0x10000 + zlib.crc32(tag.encode()))

# probabilities fed to quantile/score transforms stay strictly inside (0,1)
_PCLIP_LO = 1e-300
_PCLIP_HI = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class DgpConfig:
    """Configuration of one simulated design.

    ``kind`` is "dgp1" or "dgp2"; ``e_dist`` must be a gamma family spec.
    ``delta`` is the linear regressor coupling (design 1), ``alpha`` the
    copula correlation between the regressors (design 2), ``rho`` the
    endogeneity strength.  Coefficient defaults (1, -1, 1).
    """

    kind: str
    n: int = 250
    e_dist: DistSpec = field(default_factory=lambda: DistSpec.gamma(1.0, 1.0))
    delta: float = 0.0
    alpha: float = 0.0
    rho: float = 0.0
    beta0: float = 1.0
    beta1: float = -1.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("dgp1", "dgp2"):
            raise DomainError(f"unknown DGP kind {self.kind!r}")
        for name in ("delta", "alpha", "rho", "beta0", "beta1", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.e_dist.family != "gamma":
            raise DomainError("e_dist must be a gamma DistSpec")
        if self.n < 10:
            raise DomainError("n is too small to be useful")
        if self.kind == "dgp2":
            if not (abs(self.alpha) < 1.0 and abs(self.rho) < 1.0):
                raise DomainError("dgp2 needs |alpha| < 1 and |rho| < 1")
            try:
                self._chol  # factors the matrix and keeps the factor
            except np.linalg.LinAlgError:
                raise DomainError(
                    f"dgp2 correlation matrix (alpha={self.alpha}, "
                    f"rho={self.rho}) is not positive definite") from None

    def correlation_matrix(self) -> np.ndarray:
        """Trivariate correlation of (e*, x*, u) for the copula design."""
        a, r = self.alpha, self.rho
        return np.array([[1.0, a, r], [a, 1.0, 0.0], [r, 0.0, 1.0]])

    @cached_property
    def _chol(self) -> np.ndarray:
        """Lower Cholesky factor of :meth:`correlation_matrix`, factored
        once per config (read-only, so no repetition can change it)."""
        chol = np.linalg.cholesky(self.correlation_matrix())
        chol.flags.writeable = False
        return chol

    def truth(self) -> dict[str, float]:
        return {"const": self.beta0, "x": self.beta1, "z": self.gamma,
                "rho[z]": self.rho}


def _clip_prob(u: np.ndarray) -> np.ndarray:
    return np.clip(u, _PCLIP_LO, _PCLIP_HI)


def _gamma_quantile(a: float, p: np.ndarray) -> np.ndarray:
    """Quantile of Gamma(a, 1) at ``p``.  Shape 1 is the exponential
    distribution, whose quantile has the closed form -log1p(-p); it agrees
    with ``gammaincinv(1, p)`` to about one ulp (and is the more accurate
    of the two below p = 1e-56)."""
    return -np.log1p(-p) if a == 1.0 else gammaincinv(a, p)


def _generate(cfg: DgpConfig, words: np.ndarray) -> dict[str, np.ndarray]:
    """The columns ``y``, ``x``, ``z``, ``eta_true`` and ``e_true`` of the
    repetitions whose data streams have the PCG64 seed words ``words``
    (S, 4), as (S, n) arrays: row s is drawn from the generator of
    ``words[s]`` alone.

    Only the draws run per repetition.  Every later step (the Cholesky
    product, the CDF, quantile and score transforms, the outcome
    equation) runs once on the whole block.  Each is elementwise, or
    multiplies one observation's three normals by the 3x3 factor, so row
    s equals the columns of repetition s generated alone, bit for bit (a
    test checks the stacked product against one repetition's).
    """
    S, n = len(words), cfg.n
    a, b = cfg.e_dist.params
    if cfg.kind == "dgp1":
        x, e, eps = np.empty((3, S, n))
        for s, w in enumerate(words):
            rng = words_generator(w)
            x[s] = rng.gamma(1.0, 1.0, n)
            e[s] = rng.gamma(a, 1.0 / b, n)
            eps[s] = rng.standard_normal(n)
        eta = ndtri(_clip_prob(gammainc(a, b * e)))
        sd_z = math.sqrt(cfg.delta ** 2 * 1.0 + a / (b * b))
        z = (cfg.delta * x + e) / sd_z
        u = cfg.rho * eta + eps
    else:
        W = np.empty((S, n, 3))
        for s, w in enumerate(words):
            words_generator(w).standard_normal(out=W[s])
        W = W @ cfg._chol.T
        eta, x_star, u = W[..., 0], W[..., 1], W[..., 2]
        e = _gamma_quantile(a, _clip_prob(ndtr(eta))) / b
        x = _gamma_quantile(1.0, _clip_prob(ndtr(x_star)))
        z = e
    y = cfg.beta0 + cfg.beta1 * x + cfg.gamma * z + u
    return {"y": y, "x": x, "z": z, "eta_true": eta, "e_true": e}


def _repetition(cols: dict[str, np.ndarray], s: int,
                provenance: str = "") -> Dataset:
    """Repetition ``s`` of :func:`_generate`'s columns, as views."""
    return Dataset({c: v[s] for c, v in cols.items()}, provenance=provenance)


def gen_dgp1(cfg: DgpConfig, stream: RngStream) -> Dataset:
    """Linear-coupling design.

    x ~ Gamma(1, 1) and e ~ ``cfg.e_dist`` independently; the raw
    endogenous regressor delta*x + e is divided by its population standard
    deviation; the outcome error is rho * eta + eps with eps standard
    normal and eta the exact normal score of e under its true gamma CDF.
    The true scores are kept in the ``eta_true`` column (and the raw error
    in ``e_true``) for oracle tests.  This is the one-repetition case of
    the generator :func:`mc_run` draws its chunks with.
    """
    if cfg.kind != "dgp1":
        raise DomainError("config is not a dgp1 configuration")
    return _repetition(
        _generate(cfg, stream.words()), 0,
        f"dgp1(n={cfg.n}, e~Gamma{cfg.e_dist.params}, "
        f"delta={cfg.delta}, rho={cfg.rho})")


def gen_dgp2(cfg: DgpConfig, stream: RngStream) -> Dataset:
    """Copula design.

    (e*, x*, u) is trivariate normal with unit variances, corr(e*, x*) =
    alpha, corr(e*, u) = rho, corr(x*, u) = 0.  The regressors are the
    gamma quantile transforms of the normal scores; the endogenous
    regressor is the transformed error itself (no linear coupling), so all
    dependence on x runs through the copula.  This is the one-repetition
    case of the generator :func:`mc_run` draws its chunks with.

    Shape-1 gamma quantiles (x always, e under Gamma(1, b)) use the
    exponential's closed form -log1p(-p), so those columns differ from
    versions that called ``gammaincinv`` by about one ulp per value;
    reruns stay bitwise reproducible.
    """
    if cfg.kind != "dgp2":
        raise DomainError("config is not a dgp2 configuration")
    return _repetition(
        _generate(cfg, stream.words()), 0,
        f"dgp2(n={cfg.n}, e~Gamma{cfg.e_dist.params}, "
        f"alpha={cfg.alpha}, rho={cfg.rho})")


def generate(cfg: DgpConfig, stream: RngStream) -> Dataset:
    return gen_dgp1(cfg, stream) if cfg.kind == "dgp1" else gen_dgp2(cfg, stream)


@dataclass(frozen=True)
class McCell:
    """Summary of one (estimator, coefficient) pair across repetitions."""

    bias: float
    std: float
    rmse: float
    size: float | None  # rejection rate of the true-value t-test, if tested


@dataclass(frozen=True)
class McSummary:
    """Bias / std / RMSE / size grid from a Monte Carlo run.

    ``std`` uses the 1/reps divisor so that rmse**2 == bias**2 + std**2
    holds exactly; the difference from the 1/(reps-1) convention is
    negligible at the rep counts used here.  ``draws`` holds the raw
    per-repetition coefficient estimates when the run was asked to keep
    them (estimator -> {coefficient -> list of reps values}).
    ``completed`` counts the repetitions with a finite point estimate per
    estimator.  ``failures`` counts failed fits and failed bootstraps by
    exception type name (estimator -> {type name -> count}); a point
    estimate that is not finite counts as a ``NonFiniteError`` fit
    failure.  A repetition whose bootstrap failed keeps its point
    estimate in bias/std/rmse and is left out of ``size`` only.
    ``scalar_refits`` counts, per estimator, the repetitions fitted by the
    registered scalar estimator rather than the stacked engine.
    """

    cells: dict[tuple[str, str], McCell]
    reps: int
    completed: dict[str, int]
    config: DgpConfig
    B: int
    draws: dict[str, dict[str, list[float]]] | None = None
    failures: dict[str, dict[str, int]] = field(default_factory=dict)
    scalar_refits: dict[str, int] = field(default_factory=dict)

    def cell(self, estimator: str, coef: str) -> McCell:
        return self.cells[(estimator, coef)]

    def to_dict(self) -> dict:
        return {
            "reps": self.reps,
            "B": self.B,
            "completed": dict(self.completed),
            "failures": {est: dict(kinds)
                         for est, kinds in self.failures.items()},
            "scalar_refits": dict(self.scalar_refits),
            "config": {
                "kind": self.config.kind, "n": self.config.n,
                "e_gamma": list(self.config.e_dist.params),
                "delta": self.config.delta, "alpha": self.config.alpha,
                "rho": self.config.rho,
            },
            "cells": {
                f"{est}:{coef}": {"bias": c.bias, "std": c.std,
                                  "rmse": c.rmse, "size": c.size}
                for (est, coef), c in sorted(self.cells.items())
            },
        }

    def table(self, coefficients: tuple[str, ...] = ("x", "z")) -> str:
        """Text grid shaped like the reference simulation tables:
        rows bias/std/rmse/size, columns estimator x coefficient."""
        ests = sorted({e for e, _ in self.cells})
        header = ["      "] + [f"{e}:{c}" for c in coefficients for e in ests]
        widths = [max(len(h), 9) for h in header]
        lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        for row in ("bias", "std", "rmse", "size"):
            vals = [row.ljust(widths[0])]
            i = 1
            for c in coefficients:
                for e in ests:
                    cell = self.cells.get((e, c))
                    v = getattr(cell, row) if cell else None
                    vals.append(("   --".rjust(widths[i]) if v is None
                                 else f"{v:.3f}".rjust(widths[i])))
                    i += 1
            lines.append("  ".join(vals))
        return "\n".join(lines)


class _Tally:
    """One estimator's results over the repetitions of a run, as arrays
    indexed by repetition: coefficients, named ``names``, a success mask,
    and the standard errors of the repetitions that run a t-test."""

    def __init__(self, reps: int, names: tuple[str, ...]):
        self.names = names
        self.theta = np.empty((reps, len(names)))
        self.done = np.zeros(reps, dtype=bool)
        self.se = np.empty((reps, len(names)))
        self.has_test = np.zeros(reps, dtype=bool)
        self.failures: Counter[str] = Counter()
        self.refits = 0

    def bootstrap(self, est: str, cols: dict[str, np.ndarray], lo: int,
                  B: int, master: RngStream) -> None:
        """Bootstrap standard errors of ``est`` for the fitted repetitions
        lo + s of the chunk ``cols``, in one call of the bootstrap's
        engine; one whose bootstrap fails keeps its point estimate."""
        keep = np.flatnonzero(self.done[lo:lo + len(cols["y"])])
        theta, solved, _, _ = _resample_fits(
            est, [_repetition(cols, s) for s in keep], MODEL_SPEC,
            [master.child(lo + s, _est_key(est)) for s in keep], B)
        # pairs_bootstrap's BootstrapError: more than 1% of resamples failed
        boot = B - np.count_nonzero(solved, axis=1) <= 0.01 * B
        self.failures["BootstrapError"] += int(np.count_nonzero(~boot))
        # pairs_bootstrap's standard errors to the bit: with 3 or more
        # coefficients numpy adds each one's draws in resample order in both
        se = np.std(theta[boot], axis=1, ddof=1,
                    where=solved[boot][..., None])
        # a percentile interval that is not finite needs draws whose
        # spread overflows, and then the standard error is not finite too
        finite = np.isfinite(se).all(axis=1)
        self.failures["NonFiniteError"] += int(np.count_nonzero(~finite))
        tested = lo + keep[boot][finite]
        self.se[tested] = se[finite]
        self.has_test[tested] = True


def mc_run(cfg: DgpConfig, estimators, reps: int, B: int,
           master: RngStream, keep_draws: bool = False) -> McSummary:
    """Run ``reps`` independent repetitions of generate-fit-test.

    Per repetition each estimator in ``estimators`` is fitted; 5%-level
    t-tests of the true coefficient values are run for the slope and the
    endogenous coefficient, with bootstrap standard errors (B resamples)
    for the corrected estimators and classical standard errors for plain
    OLS.  Pass ``B=0`` to skip the tests (bias/std/rmse only), which is
    much cheaper; any other B below 2 raises DomainError.  A repetition
    whose fit fails or gives coefficients that are not finite is left out
    of every cell; one whose bootstrap fails keeps its point estimate and
    is left out of the size only.  ``McSummary.failures`` counts both
    kinds by type.  An estimator named twice is run once.
    ``keep_draws`` retains the raw per-repetition estimates on the
    summary.  Fully deterministic given ``master``: data and bootstrap
    streams are keyed by (repetition, estimator identity), so the
    estimator ordering changes nothing.

    Repetitions are generated and fitted a chunk at a time (see the module
    docstring), so memory does not grow with ``reps``.  When B >= 2 one
    call of the bootstrap's engine bootstraps a chunk's fitted
    repetitions, each as ``pairs_bootstrap`` would alone, bit for bit.
    ``McSummary.scalar_refits`` counts the repetitions fitted one by one.
    Cells, draws and counts are reductions over per-estimator arrays in
    repetition order; the t-tests are one vectorized comparison.
    """
    if reps < 2:
        raise DomainError("mc_run needs reps >= 2")
    if not (B == 0 or B >= 2):
        raise DomainError(f"mc_run needs B = 0 (no tests) or B >= 2, got {B}")
    estimators = tuple(dict.fromkeys(estimators))
    for est in estimators:
        if est not in ESTIMATORS:
            raise DataError(f"unknown estimator {est!r}")
    truth = cfg.truth()
    tested = ("x", "z")
    true_tested = np.array([truth[c] for c in tested])

    tallies = {est: _Tally(reps, _names(MODEL_SPEC, est != "ols"))
               for est in estimators}
    # the seed words of every repetition's data stream, hashed in one pass
    words = master.child_words(np.arange(reps), _DATA_KEY)
    chunk = _chunk(cfg.n, MODEL_SPEC)
    for lo in range(0, reps, chunk):
        cols = _generate(cfg, words[lo:lo + chunk])
        S = len(cols["y"])
        block = slice(lo, lo + S)
        for est, tally in tallies.items():
            ok = np.zeros(S, dtype=bool)
            if est in _STACKED:
                # the chunk's (S, n) columns are the stacks themselves
                theta, ok, se = _fit_stack(est, cols, MODEL_SPEC)
                tally.theta[block] = theta
                if se is not None:
                    tally.se[block] = se
            tally.refits += S - int(np.count_nonzero(ok))
            for s in np.flatnonzero(~ok):
                try:
                    fit = ESTIMATORS[est](_repetition(cols, s), MODEL_SPEC)
                    # the stacked engine leaves a non-finite point to this fit
                    if not np.all(np.isfinite(fit.theta)):
                        raise NonFiniteError("non-finite coefficients")
                except (EndofixError, np.linalg.LinAlgError) as exc:
                    tally.failures[type(exc).__name__] += 1
                    continue
                tally.theta[lo + s], ok[s] = fit.theta, True
                if est == "ols":
                    tally.se[lo + s] = fit.se()
            tally.done[block] = ok
            if est == "ols":
                tally.has_test[block] = ok
            elif B >= 2 and ok.any():
                tally.bootstrap(est, cols, lo, B, master)

    cells: dict[tuple[str, str], McCell] = {}
    completed: dict[str, int] = {}
    failures: dict[str, dict[str, int]] = {}
    draws: dict[str, dict[str, list[float]]] = {}
    for est, tally in tallies.items():
        kinds = +tally.failures
        if kinds:
            failures[est] = dict(sorted(kinds.items()))
        completed[est] = int(np.count_nonzero(tally.done))
        if not completed[est]:
            continue
        if keep_draws:
            draws[est] = {coef: tally.theta[tally.done, j].tolist()
                          for j, coef in enumerate(tally.names)}
        # the 5%-level t-tests of the true values, one per repetition with
        # a standard error
        j = [tally.names.index(c) for c in tested]
        rejects = (np.abs(tally.theta[tally.has_test][:, j] - true_tested)
                   > _Z975 * tally.se[tally.has_test][:, j])
        for j, coef in enumerate(tally.names):
            true = truth.get(coef)
            if true is None:
                continue
            # a contiguous copy in repetition order: its sums add in the
            # order, and so to the bits, of a list of the repetitions
            vals = tally.theta[tally.done, j]
            bias = float(vals.mean() - true)
            std = float(vals.std(ddof=0))
            rmse = math.sqrt(bias * bias + std * std)
            size = None
            if coef in tested and tally.has_test.any():
                size = float(np.mean(rejects[:, tested.index(coef)]))
            cells[(est, coef)] = McCell(bias=bias, std=std, rmse=rmse, size=size)
    return McSummary(cells=cells, reps=reps, completed=completed, config=cfg,
                     B=B, draws=draws if keep_draws else None,
                     failures=failures,
                     scalar_refits={est: t.refits
                                    for est, t in tallies.items()})
