import math

import numpy as np
import pytest
from scipy.special import ndtr

from endofix.copula_mle import (GpParams, KernelCdf, _loglik_core, gp_fit,
                                gp_loglik, kernel_cdf_eval,
                                silverman_bandwidth)
from endofix.data import Dataset
from endofix.errors import ConstantInputError, DataError, DomainError
from endofix.estimators import ModelSpec, build_design, fit_ols
from endofix.numerics import DistSpec, RngStream, sample
from endofix.simulation import MODEL_SPEC, DgpConfig, generate
from endofix.transform import normal_scores


class TestKernelCdf:
    def test_clipped_at_lower_end(self):
        F = KernelCdf(np.array([0.0, 1.0, 2.0, 3.0]), 0.5)
        assert kernel_cdf_eval(F, -1e6) == 1.0 / 8.0     # 1/(2n)
        assert kernel_cdf_eval(F, 1e6) == 1.0 - 1.0 / 8.0

    def test_support_at_origin_collapses_to_normal_cdf(self):
        # all mass at 0 with unit bandwidth: the raw smoothed CDF is the
        # standard normal CDF; inside the clip band the values pass through
        # (with a single point the band [1/(2n), 1-1/(2n)] degenerates to
        # {1/2}, so two coincident points are used)
        F2 = KernelCdf(np.array([0.0, 0.0]), 1.0)
        t2 = np.array([-0.6, 0.0, 0.3])
        assert kernel_cdf_eval(F2, t2) == pytest.approx(ndtr(t2))
        F1 = KernelCdf(np.array([0.0]), 1.0)
        assert kernel_cdf_eval(F1, np.array([2.0]))[0] == 0.5  # fully clipped

    def test_exponential_median_oracle(self):
        # the rule-of-thumb bandwidth leaves a systematic smoothing bias of
        # about -h^2 f'(m)/2 (~ -0.01 at this n) on top of sampling noise,
        # so the band is set accordingly
        e = sample(RngStream(30), DistSpec.gamma(1, 1), 4000)
        F = KernelCdf.from_sample(e)
        med = float(np.median(e))
        assert kernel_cdf_eval(F, med) == pytest.approx(1 - math.exp(-med),
                                                        abs=0.04)

    def test_strictly_increasing(self):
        e = sample(RngStream(31), DistSpec.gamma(3, 2), 200)
        F = KernelCdf.from_sample(e)
        t = np.linspace(np.min(e), np.max(e), 500)
        assert np.all(np.diff(kernel_cdf_eval(F, t)) > 0)

    def test_bandwidth_validation(self):
        with pytest.raises(DomainError):
            KernelCdf(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(DomainError):
            silverman_bandwidth(np.full(10, 3.0))


class TestGpLoglik:
    def _setup(self, n=300, seed=32):
        cfg_rng = RngStream(seed)
        x = sample(cfg_rng.child(1), DistSpec.gamma(1, 1), n)
        z = sample(cfg_rng.child(2), DistSpec.gamma(1, 1), n)
        y = 1.0 - x + z + cfg_rng.child(3).generator().standard_normal(n)
        d = Dataset({"y": y, "x": x, "z": z})
        F = KernelCdf.from_sample(z)
        return d, F

    def test_rho_zero_reduces_to_gaussian_loglik(self):
        d, F = self._setup()
        p = GpParams(np.array([1.0, -1.0, 1.0]), rho=0.0, sigma_u=1.3)
        X, Z, y = build_design(d, MODEL_SPEC)
        u = y - np.column_stack([X.values, Z]) @ p.alpha
        q = u / 1.3
        direct = float(np.sum(-0.5 * q * q - 0.5 * math.log(2 * math.pi)
                              - math.log(1.3)))
        assert gp_loglik(p, d, MODEL_SPEC, F) == pytest.approx(direct, rel=1e-12)

    def test_sign_symmetry(self):
        # negating the regressor flips its scores exactly; with gamma and
        # rho negated as well the likelihood value is unchanged
        d, F = self._setup()
        p = GpParams(np.array([0.8, -1.1, 0.9]), rho=0.35, sigma_u=1.1)
        base = gp_loglik(p, d, MODEL_SPEC, F)
        d2 = Dataset({"y": d.column("y"), "x": d.column("x"),
                      "z": -d.column("z")})
        F2 = KernelCdf(-F.support_points, F.bandwidth)
        p2 = GpParams(np.array([0.8, -1.1, -0.9]), rho=-0.35, sigma_u=1.1)
        assert gp_loglik(p2, d2, MODEL_SPEC, F2) == pytest.approx(base, rel=1e-12)

    def test_finite_difference_gradient_in_gamma(self):
        d, F = self._setup()
        h = 1e-5
        def ll(g):
            return gp_loglik(GpParams(np.array([1.0, -1.0, g]), 0.3, 1.2),
                             d, MODEL_SPEC, F)
        num = (ll(1.0 + h) - ll(1.0 - h)) / (2 * h)
        num2 = (ll(1.0 + 2 * h) - ll(1.0 - 2 * h)) / (4 * h)
        # Richardson agreement to 1e-4 relative confirms smoothness in gamma
        assert num == pytest.approx(num2, rel=1e-4)

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            GpParams(np.array([1.0]), rho=1.0)
        with pytest.raises(DomainError):
            GpParams(np.array([1.0]), rho=0.0, sigma_u=0.0)

    def test_requires_single_endogenous(self):
        d, F = self._setup()
        spec = ModelSpec("y", (), ("x", "z"))
        with pytest.raises(DataError):
            gp_loglik(GpParams(np.array([1.0, 1.0, 1.0]), 0.0), d, spec, F)


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
        X, Z, y = build_design(dgp1_small, MODEL_SPEC)
        D = np.column_stack([X.values, Z])
        ols = fit_ols(dgp1_small, MODEL_SPEC)
        eta = normal_scores(Z[:, 0])
        resid = y - D @ ols.theta
        sigma2_hat = float(resid @ resid) / (y.size - D.shape[1])
        ll_start = _loglik_core(resid, eta, 0.0, math.sqrt(sigma2_hat))
        assert fit.extra["loglik"] >= ll_start - 1e-9

    def test_feasible_output(self, dgp1_small):
        fit = gp_fit(dgp1_small, MODEL_SPEC)
        assert abs(fit.theta[-1]) < 1.0          # copula correlation
        assert fit.extra["sigma_u"] > 0.0
        assert fit.names == ("const", "x", "z", "rho[z]")

    def test_kernel_marginal_variant_runs(self, dgp1_small):
        fit = gp_fit(dgp1_small, MODEL_SPEC, marginal="kernel")
        assert fit.extra["marginal"] == "kernel"
        assert np.all(np.isfinite(fit.theta))

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
    """The closed-form fit against the likelihood itself: ``gp_loglik``
    (kernel scores) or ``_loglik_core`` on the rank scores."""

    @staticmethod
    def _oracle(d, marginal):
        X, Z, y = build_design(d, MODEL_SPEC)
        D = np.column_stack([X.values, Z])
        if marginal == "kernel":
            F = KernelCdf.from_sample(Z[:, 0])
            return lambda a, r, s: gp_loglik(GpParams(a, r, s), d,
                                              MODEL_SPEC, F)
        eta = normal_scores(Z[:, 0])
        return lambda a, r, s: _loglik_core(y - D @ a, eta, r, s)

    @pytest.mark.parametrize("marginal", ["ranks", "kernel"])
    @pytest.mark.parametrize("kind", ["dgp1", "dgp2"])
    def test_beats_every_neighbour(self, kind, marginal):
        d = _dgp(kind)
        fit = gp_fit(d, MODEL_SPEC, marginal=marginal)
        ll = self._oracle(d, marginal)
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

    @pytest.mark.parametrize("marginal", ["ranks", "kernel"])
    @pytest.mark.parametrize("kind", ["dgp1", "dgp2"])
    def test_reported_loglik_matches_oracle(self, kind, marginal):
        d = _dgp(kind)
        fit = gp_fit(d, MODEL_SPEC, marginal=marginal)
        ll = self._oracle(d, marginal)
        assert fit.extra["loglik"] == pytest.approx(
            ll(fit.theta[:-1], fit.theta[-1], fit.extra["sigma_u"]),
            rel=1e-10)


class TestGpLoglikInvariance:
    def test_permutation_invariance(self):
        rng = RngStream(35)
        n = 200
        x = sample(rng.child(1), DistSpec.gamma(1, 1), n)
        z = sample(rng.child(2), DistSpec.gamma(1, 1), n)
        y = 1.0 - x + z + rng.child(3).generator().standard_normal(n)
        d = Dataset({"y": y, "x": x, "z": z})
        F = KernelCdf.from_sample(z)
        p = GpParams(np.array([1.0, -1.0, 1.0]), rho=0.4, sigma_u=1.2)
        base = gp_loglik(p, d, MODEL_SPEC, F)
        perm = np.random.default_rng(0).permutation(n)
        d2 = Dataset({k: v[perm] for k, v in d.columns.items()})
        assert gp_loglik(p, d2, MODEL_SPEC, F) == pytest.approx(base, rel=1e-12)

    def test_unbiased_without_endogeneity(self):
        # all four estimators should be centered when rho = 0; this covers
        # the copula comparator (the other three are checked elsewhere)
        from endofix.simulation import DgpConfig, mc_run
        cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.0)
        s = mc_run(cfg, ["gp_copula"], reps=100, B=0, master=RngStream(36))
        cell = s.cell("gp_copula", "z")
        assert abs(cell.bias) <= 3.0 * cell.std / np.sqrt(s.reps)
