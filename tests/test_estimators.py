import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, ndtri

from endofix.data import Dataset
from endofix.errors import DataError, DomainError, IdentificationError
from endofix.estimators import (ESTIMATORS, ModelSpec, fit_iv_internal,
                                fit_npcf, fit_ols, fit_two_scope)
from endofix.numerics import DistSpec, RngStream, sample
from endofix.regress import DesignMatrix, _lstsq, ols_fit
from endofix.simulation import MODEL_SPEC, DgpConfig, gen_dgp1, generate
from endofix.transform import normal_scores


class TestModelSpec:
    def test_requires_endogenous(self):
        with pytest.raises(DataError):
            ModelSpec("y", ("x",), ())

    def test_rejects_overlap(self):
        with pytest.raises(DataError):
            ModelSpec("y", ("x", "z"), ("z",))


class TestFitOls:
    def test_no_endogeneity_recovers_gamma(self):
        cfg = DgpConfig("dgp1", n=10_000, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.0)
        fit = fit_ols(gen_dgp1(cfg, RngStream(10)), MODEL_SPEC)
        assert fit.coef("z") == pytest.approx(1.0, abs=0.05)

    def test_endogeneity_bias_small_sample(self):
        # moderate endogeneity, uncorrelated regressors: gamma-hat biased up
        cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.5)
        biases = [fit_ols(gen_dgp1(cfg, RngStream(11, r)), MODEL_SPEC).coef("z") - 1.0
                  for r in range(300)]
        assert np.mean(biases) == pytest.approx(0.451, abs=0.02)

    def test_endogeneity_bias_probability_limit(self):
        # strong endogeneity with correlated regressors, the rounder error
        cfg = DgpConfig("dgp1", n=200_000, e_dist=DistSpec.gamma(3, 2),
                        delta=1.0, rho=0.9)
        fit = fit_ols(gen_dgp1(cfg, RngStream(12)), MODEL_SPEC)
        assert fit.coef("z") - 1.0 == pytest.approx(1.324, abs=0.03)

    def test_no_rho_block(self):
        cfg = DgpConfig("dgp1", n=100, e_dist=DistSpec.gamma(1, 1))
        fit = fit_ols(gen_dgp1(cfg, RngStream(13)), MODEL_SPEC)
        assert fit.names == ("const", "x", "z")


class TestFitNpcf:
    def test_peak_memory_at_large_n(self):
        # the design is built once, in the layout the QR factors, and the
        # second stage factors it in place without forming Q: the
        # high-water mark stays within 11 n-long float columns above the
        # data (measured 10.5; 19 with the stacked, copied design and Q)
        n = 50_000
        rng = np.random.default_rng(99)
        x = rng.gamma(1.0, 1.0, n)
        e = rng.gamma(1.0, 1.0, n)
        d = Dataset({"y": 1.0 + 0.2 * x ** 2 + x + e + rng.standard_normal(n),
                     "x": x, "x^2": x ** 2, "z": x + e})
        spec = ModelSpec("y", ("x", "x^2"), ("z",))
        tracemalloc.start()
        try:
            fit = fit_npcf(d, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(fit.theta).all()
        assert peak <= 11 * n * 8

    def test_moderate_endogeneity_small_sample(self):
        # delta=1, rho=0.5: correction removes the bias OLS suffers
        cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1),
                        delta=1.0, rho=0.5)
        gam = [fit_npcf(gen_dgp1(cfg, RngStream(14, r)), MODEL_SPEC).coef("z")
               for r in range(400)]
        assert np.mean(gam) - 1.0 == pytest.approx(0.019, abs=0.04)
        assert 0.18 <= np.std(gam) <= 0.29        # reference value 0.231

    def test_rho_centered_when_exogenous(self):
        cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1),
                        delta=1.0, rho=0.0)
        rhos = [fit_npcf(gen_dgp1(cfg, RngStream(15, r)), MODEL_SPEC).coef("rho[z]")
                for r in range(200)]
        assert abs(np.mean(rhos)) <= 3.0 * np.std(rhos) / np.sqrt(len(rhos))

    def test_oracle_equivalence_with_true_scores(self):
        # replacing the estimated scores by the true latent scores gives
        # plain OLS, which recovers the coefficients within sampling error
        cfg = DgpConfig("dgp1", n=100_000, e_dist=DistSpec.gamma(1, 1),
                        delta=1.0, rho=0.5)
        d = gen_dgp1(cfg, RngStream(16))
        W = DesignMatrix(
            np.column_stack([np.ones(d.n), d.column("x"), d.column("z"),
                             d.column("eta_true")]),
            ("const", "x", "z", "eta"), has_intercept=True)
        oracle = ols_fit(W, d.column("y"))
        se = np.sqrt(np.diag(oracle.vcov_classical))
        truth = np.array([1.0, -1.0, 1.0, 0.5])
        assert np.all(np.abs(oracle.coefficients - truth) <= 4.0 * se)
        fit = fit_npcf(d, MODEL_SPEC)
        assert np.abs(fit.theta - truth).max() <= 0.05

    def test_scale_equivariance_exact(self, dgp1_small):
        d = dgp1_small
        scaled = Dataset({**{k: v for k, v in d.columns.items()},
                          "z": 2.5 * d.column("z")})
        base = fit_npcf(d, MODEL_SPEC)
        resc = fit_npcf(scaled, MODEL_SPEC)
        assert resc.coef("z") == pytest.approx(base.coef("z") / 2.5, rel=1e-10)
        assert resc.coef("x") == pytest.approx(base.coef("x"), rel=1e-10)
        assert resc.coef("rho[z]") == pytest.approx(base.coef("rho[z]"), rel=1e-10)

    def test_second_stage_orthogonality(self, dgp1_small):
        d = dgp1_small
        fit = fit_npcf(d, MODEL_SPEC)
        W = np.column_stack([np.ones(d.n), d.column("x"), d.column("z"),
                             fit.first_stage.eta_hat])
        resid = d.column("y") - W @ fit.theta
        scale = 1e-8 * np.linalg.norm(d.column("y"))
        assert np.abs(W.T @ resid).max() <= scale

    def test_gaussian_scores_collinearity_raises(self):
        # residuals placed exactly on the normal-scores grid make the
        # correction column an exact copy of the demeaned regressor
        n = 101
        z = ndtri(np.arange(1, n + 1) / (n + 1.0))
        y = 1.0 + 2.0 * z
        d = Dataset({"y": y, "z": z})
        with pytest.raises(IdentificationError):
            fit_npcf(d, ModelSpec("y", (), ("z",)))

    def test_two_endogenous_regressors(self):
        # additive structure with two error components, per-column stages
        n = 10_000
        rng = RngStream(17)
        x = sample(rng.child(1), DistSpec.gamma(1, 1), n)
        e1 = sample(rng.child(2), DistSpec.gamma(1, 1), n)
        e2 = sample(rng.child(3), DistSpec.gamma(3, 2), n)
        eps = rng.child(4).generator().standard_normal(n)
        eta1 = ndtri(np.clip(gammainc(1, e1), 1e-12, 1 - 1e-12))
        eta2 = ndtri(np.clip(gammainc(3, 2 * e2), 1e-12, 1 - 1e-12))
        z1 = 1.0 * x + e1
        z2 = -0.5 * x + e2
        y = 1.0 + 0.5 * x + 1.0 * z1 - 2.0 * z2 + 0.5 * eta1 + 0.3 * eta2 + eps
        d = Dataset({"y": y, "x": x, "z1": z1, "z2": z2})
        spec = ModelSpec("y", ("x",), ("z1", "z2"))
        fit = fit_npcf(d, spec)
        assert fit.coef("z1") == pytest.approx(1.0, abs=0.1)
        assert fit.coef("z2") == pytest.approx(-2.0, abs=0.1)
        assert fit.coef("rho[z1]") == pytest.approx(0.5, abs=0.1)
        assert fit.coef("rho[z2]") == pytest.approx(0.3, abs=0.1)

    @pytest.mark.parametrize("seed", range(4))
    def test_tied_residuals_ignore_row_order_and_rounding(self, tied_groups,
                                                          seed):
        # residuals of the two x groups tie in exact arithmetic; computed,
        # they are a few ulps apart in an order the row order and the last
        # bits of z decide, and neither may move theta
        d = tied_groups(seed)
        want = fit_npcf(d, MODEL_SPEC)
        assert np.any(want.first_stage.ranks % 1.0 == 0.5)
        rng = np.random.default_rng(seed)
        moved = d.column("z") * (1.0 + 2.0 ** -51 * rng.integers(0, 4, d.n))
        variants = [d.take(rng.permutation(d.n)) for _ in range(5)]
        variants.append(Dataset({**d.columns, "z": moved}))
        for v in variants:
            got = fit_npcf(v, MODEL_SPEC).theta
            assert np.abs(got - want.theta).max() <= (
                1e-12 * np.abs(want.theta).max())


class TestInternalIv:
    def test_exact_identity_with_npcf(self, dgp1_small):
        a = fit_npcf(dgp1_small, MODEL_SPEC)
        b = fit_iv_internal(dgp1_small, MODEL_SPEC)
        assert np.abs(a.theta - b.theta).max() <= 1e-10

    def test_exact_identity_two_endogenous(self):
        rng = RngStream(18)
        n = 500
        x = sample(rng.child(1), DistSpec.gamma(1, 1), n)
        z1 = x + sample(rng.child(2), DistSpec.gamma(1, 1), n)
        z2 = sample(rng.child(3), DistSpec.gamma(3, 2), n)
        y = 1 + x + z1 - z2 + rng.child(4).generator().standard_normal(n)
        d = Dataset({"y": y, "x": x, "z1": z1, "z2": z2})
        spec = ModelSpec("y", ("x",), ("z1", "z2"))
        a, b = fit_npcf(d, spec), fit_iv_internal(d, spec)
        assert np.abs(a.theta - b.theta).max() <= 1e-9

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(20, 200),
           n_exog=st.integers(0, 2), n_endog=st.integers(1, 2),
           pool=st.sampled_from([None, 12]))
    def test_identity_on_random_designs(self, seed, n, n_exog, n_endog,
                                        pool):
        # gamma columns; with a pool, rows repeat a few distinct rows, so
        # ranks and scores carry ties and coefficients can reach ~25: the
        # identity is checked relative to the coefficient scale
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, pool, n) if pool else np.arange(n)
        base = rng.gamma(1.0, 1.0, (max(pool or 0, n), 1 + n_exog + n_endog))
        cols = {"y": base[rows, 0] + base[rows, 1:].sum(axis=1)}
        for j in range(n_exog + n_endog):
            cols[f"c{j}"] = base[rows, 1 + j]
        names = tuple(cols)[1:]
        spec = ModelSpec("y", names[:n_exog], names[n_exog:])
        d = Dataset(cols)
        a, b = fit_npcf(d, spec), fit_iv_internal(d, spec)
        scale = max(1.0, float(np.abs(a.theta).max()))
        assert np.abs(a.theta - b.theta).max() <= 1e-10 * scale

    def test_one_ulp_input_move_barely_moves_theta(self):
        # x far from zero, as a calendar year is: the IV solve must not
        # square the design's conditioning, as normal equations do (they
        # moved theta by about 1.5e-10 relative here)
        cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(3, 2),
                        delta=1.0, rho=0.5)
        for r in range(10):
            d = generate(cfg, RngStream(11000).child(r))
            cols = {"y": d.column("y"), "x": d.column("x") + 100.0,
                    "z": d.column("z")}
            moved = {c: np.nextafter(v, np.inf) for c, v in cols.items()}
            a = fit_iv_internal(Dataset(cols), MODEL_SPEC).theta
            b = fit_iv_internal(Dataset(moved), MODEL_SPEC).theta
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())

    def test_single_regressor_ratio_formula(self):
        # with one regressor and its score column, the coefficient equals
        # the ratio form z'My / z'Mz with M the score annihilator
        rng = np.random.default_rng(19)
        z = rng.gamma(1.0, size=80)
        eta = normal_scores(z - z.mean())
        y = rng.standard_normal(80) + 2.0 * z
        W = DesignMatrix(np.column_stack([z, eta]), ("z", "eta"),
                         has_intercept=False)
        joint = ols_fit(W, y)
        v = _lstsq(eta[:, None], z, ("eta",))[1]
        assert joint.coefficients[0] == pytest.approx(
            float(v @ y) / float(v @ z), abs=1e-10)


class TestTwoScope:
    def test_correction_matches_scores_when_independent(self):
        # x independent of z: the scores-on-scores first step degenerates
        # to an intercept and the correction is the score vector itself
        n = 20_000
        x = sample(RngStream(20, 1), DistSpec.gamma(1, 1), n)
        z = sample(RngStream(20, 2), DistSpec.gamma(1, 1), n)
        y = 1.0 - x + z + RngStream(20, 3).generator().standard_normal(n)
        d = Dataset({"y": y, "x": x, "z": z})
        fit = fit_two_scope(d, MODEL_SPEC)
        eta_npcf = fit_npcf(d, MODEL_SPEC).first_stage.eta_hat[:, 0]
        corr = np.corrcoef(fit.extra["correction"][:, 0], eta_npcf)[0, 1]
        assert corr > 0.99

    def test_leaves_bias_under_linear_coupling(self):
        # large-sample check of the known failure mode
        cfg = DgpConfig("dgp1", n=100_000, e_dist=DistSpec.gamma(1, 1),
                        delta=1.0, rho=0.9)
        fit = fit_two_scope(gen_dgp1(cfg, RngStream(21)), MODEL_SPEC)
        assert 0.4 <= fit.coef("z") - 1.0 <= 0.7


class TestEstimatorSurface:
    @pytest.mark.parametrize("fitter", [fit_ols, fit_npcf, fit_iv_internal,
                                        fit_two_scope])
    def test_names_align(self, fitter, dgp1_small):
        fit = fitter(dgp1_small, MODEL_SPEC)
        assert fit.names[:3] == ("const", "x", "z")
        assert fit.theta.shape == (len(fit.names),)

    @pytest.mark.parametrize("column", ["y", "x", "z"])
    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_non_finite_model_column_rejected(self, estimator, column,
                                              dgp1_small):
        v = dgp1_small.column(column).copy()
        v[11] = np.nan
        d = Dataset({**dgp1_small.columns, column: v})
        with pytest.raises(DomainError, match=repr(column)):
            ESTIMATORS[estimator](d, MODEL_SPEC)

    def test_coefficient_order_has_rho_last(self, dgp1_small):
        fit = fit_npcf(dgp1_small, MODEL_SPEC)
        assert fit.names == ("const", "x", "z", "rho[z]")
