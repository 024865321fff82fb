import math

import numpy as np
import pytest

from endofix.copula_mle import gp_fit
from endofix.data import Dataset
from endofix.errors import ConstantInputError
from endofix.estimators import _design, fit_ols
from endofix.numerics import DistSpec, RngStream, sample
from endofix.simulation import MODEL_SPEC, DgpConfig, generate
from endofix.transform import normal_scores

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _loglik_core(u: np.ndarray, eta: np.ndarray, rho: float,
                 sigma_u: float) -> float:
    """Gaussian-copula log likelihood given generalized residuals ``u`` and
    the regressor's normal scores ``eta``: the oracle that gp_fit's closed
    form maximises."""
    n = u.size
    q = u / sigma_u
    one_m = 1.0 - rho * rho
    ll = float(np.sum(-0.5 * q * q)) - n * (_LOG_SQRT_2PI + math.log(sigma_u))
    ll -= 0.5 * n * math.log(one_m)
    quad = rho * rho * (eta @ eta + q @ q) - 2.0 * rho * (eta @ q)
    ll -= quad / (2.0 * one_m)
    return ll


def _rank_loglik(d):
    """(alpha, rho, sigma_u) -> log likelihood on the rank scores of z."""
    D, y = _design(d, MODEL_SPEC), d.column(MODEL_SPEC.outcome)
    eta = normal_scores(D[:, -1])
    return lambda a, r, s: _loglik_core(y - D @ a, eta, r, s)


class TestGpLoglik:
    @staticmethod
    def _setup(n=300, seed=32):
        cfg_rng = RngStream(seed)
        x = sample(cfg_rng.child(1), DistSpec.gamma(1, 1), n)
        z = sample(cfg_rng.child(2), DistSpec.gamma(1, 1), n)
        y = 1.0 - x + z + cfg_rng.child(3).generator().standard_normal(n)
        return Dataset({"y": y, "x": x, "z": z})

    def test_rho_zero_reduces_to_gaussian_loglik(self):
        d = self._setup()
        alpha = np.array([1.0, -1.0, 1.0])
        u = d.column(MODEL_SPEC.outcome) - _design(d, MODEL_SPEC) @ alpha
        q = u / 1.3
        direct = float(np.sum(-0.5 * q * q - 0.5 * math.log(2 * math.pi)
                              - math.log(1.3)))
        assert _rank_loglik(d)(alpha, 0.0, 1.3) == pytest.approx(direct,
                                                                rel=1e-12)

    def test_sign_symmetry(self):
        # negating the regressor flips its rank scores exactly; with gamma
        # and rho negated as well the likelihood value is unchanged
        d = self._setup()
        base = _rank_loglik(d)(np.array([0.8, -1.1, 0.9]), 0.35, 1.1)
        d2 = Dataset({"y": d.column("y"), "x": d.column("x"),
                      "z": -d.column("z")})
        flipped = _rank_loglik(d2)(np.array([0.8, -1.1, -0.9]), -0.35, 1.1)
        assert flipped == pytest.approx(base, rel=1e-12)


class TestGpFit:
    def test_noise_floor_matches_ols(self):
        # nearly exact linear data: likelihood is dominated by the error
        # density and the fit lands on the least-squares coefficients
        rng = RngStream(33)
        n = 400
        x = sample(rng.child(1), DistSpec.gamma(1, 1), n)
        z = sample(rng.child(2), DistSpec.gamma(1, 1), n)
        y = 1.0 - x + z + 1e-4 * rng.child(3).generator().standard_normal(n)
        d = Dataset({"y": y, "x": x, "z": z})
        fit = gp_fit(d, MODEL_SPEC)
        ols = fit_ols(d, MODEL_SPEC)
        assert np.abs(fit.theta[:3] - ols.theta).max() <= 1e-3

    def test_improves_on_ols_start(self, dgp1_small):
        fit = gp_fit(dgp1_small, MODEL_SPEC)
        D = _design(dgp1_small, MODEL_SPEC)
        y = dgp1_small.column(MODEL_SPEC.outcome)
        ols = fit_ols(dgp1_small, MODEL_SPEC)
        eta = normal_scores(D[:, -1])
        resid = y - D @ ols.theta
        sigma2_hat = float(resid @ resid) / (y.size - D.shape[1])
        ll_start = _loglik_core(resid, eta, 0.0, math.sqrt(sigma2_hat))
        assert fit.extra["loglik"] >= ll_start - 1e-9

    def test_feasible_output(self, dgp1_small):
        fit = gp_fit(dgp1_small, MODEL_SPEC)
        assert abs(fit.theta[-1]) < 1.0          # copula correlation
        assert fit.extra["sigma_u"] > 0.0
        assert fit.names == ("const", "x", "z", "rho[z]")

    def test_recovers_copula_correlation(self):
        # exogenous-regressor world generated exactly under the model the
        # comparator assumes: coefficients and copula correlation recovered
        from endofix.simulation import DgpConfig, gen_dgp1
        cfg = DgpConfig("dgp1", n=4000, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.5)
        d = gen_dgp1(cfg, RngStream(34))
        fit = gp_fit(d, MODEL_SPEC)
        rho_cop = 0.5 / math.sqrt(1.25)          # corr of (score, error)
        assert fit.coef("z") == pytest.approx(1.0, abs=0.1)
        assert fit.theta[-1] == pytest.approx(rho_cop, abs=0.1)
        assert fit.extra["sigma_u"] == pytest.approx(math.sqrt(1.25), abs=0.1)

    def test_exact_fit_raises_constant_input(self):
        # four distinct rows, each repeated: the design and the scores span
        # the outcome, the residual variance is nil and the likelihood is
        # unbounded
        base = np.array([[0.3, 1.0, 0.2], [1.7, 0.0, 1.1],
                         [2.2, 1.0, 2.5], [0.9, 0.0, 3.0]])
        rows = np.repeat(base, 3, axis=0)
        d = Dataset({"y": rows[:, 0], "x": rows[:, 1], "z": rows[:, 2]})
        with pytest.raises(ConstantInputError):
            gp_fit(d, MODEL_SPEC)


def _dgp(kind):
    cfg = (DgpConfig("dgp1", n=250, delta=1.0, rho=0.5) if kind == "dgp1"
           else DgpConfig("dgp2", n=250, alpha=0.5, rho=0.5))
    return generate(cfg, RngStream(37))


class TestGpFitOptimality:
    """The closed-form fit against the likelihood itself, on the rank
    scores."""

    @pytest.mark.parametrize("kind", ["dgp1", "dgp2"])
    def test_beats_every_neighbour(self, kind):
        d = _dgp(kind)
        fit = gp_fit(d, MODEL_SPEC)
        ll = _rank_loglik(d)
        alpha, rho, sigma = fit.theta[:-1], fit.theta[-1], fit.extra["sigma_u"]
        best = ll(alpha, rho, sigma)
        neighbours = [(rho + dr, sigma) for dr in (-1e-3, 1e-3)]
        neighbours += [(rho, sigma * f) for f in (1 - 1e-3, 1 + 1e-3)]
        for r, s in neighbours:
            assert best > ll(alpha, r, s)
        for j in range(alpha.size):
            for h in (-1e-4, 1e-4):
                step = alpha.copy()
                step[j] += h
                assert best > ll(step, rho, sigma)

    @pytest.mark.parametrize("kind", ["dgp1", "dgp2"])
    def test_reported_loglik_matches_oracle(self, kind):
        d = _dgp(kind)
        fit = gp_fit(d, MODEL_SPEC)
        ll = _rank_loglik(d)
        assert fit.extra["loglik"] == pytest.approx(
            ll(fit.theta[:-1], fit.theta[-1], fit.extra["sigma_u"]),
            rel=1e-10)


class TestGpLoglikInvariance:
    def test_permutation_invariance(self):
        d = TestGpLoglik._setup(n=200, seed=35)
        alpha = np.array([1.0, -1.0, 1.0])
        base = _rank_loglik(d)(alpha, 0.4, 1.2)
        perm = np.random.default_rng(0).permutation(d.n)
        d2 = Dataset({k: v[perm] for k, v in d.columns.items()})
        assert _rank_loglik(d2)(alpha, 0.4, 1.2) == pytest.approx(base,
                                                                 rel=1e-12)

    def test_unbiased_without_endogeneity(self):
        # all four estimators should be centered when rho = 0; this covers
        # the copula comparator (the other three are checked elsewhere)
        from endofix.simulation import DgpConfig, mc_run
        cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.0)
        s = mc_run(cfg, ["gp_copula"], reps=100, B=0, master=RngStream(36))
        cell = s.cell("gp_copula", "z")
        assert abs(cell.bias) <= 3.0 * cell.std / np.sqrt(s.reps)
