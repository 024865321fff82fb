import json
import math

import numpy as np
import pytest
from scipy.special import gammainc, ndtri

from endofix.errors import DomainError
from endofix.numerics import DistSpec, RngStream
from endofix.simulation import (DgpConfig, gen_dgp1, gen_dgp2,
                                mc_run)


class TestDgpConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            DgpConfig("dgp3")

    def test_rejects_non_gamma_error(self):
        with pytest.raises(DomainError):
            DgpConfig("dgp1", e_dist=DistSpec.normal())

    def test_dgp2_needs_valid_correlations(self):
        with pytest.raises(DomainError):
            DgpConfig("dgp2", alpha=0.9, rho=0.9)   # matrix not PD


class TestGenDgp1:
    def test_exogenous_case_uncorrelated(self):
        cfg = DgpConfig("dgp1", n=100_000, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.0)
        d = gen_dgp1(cfg, RngStream(50))
        u = d.column("y") - (1.0 - d.column("x") + d.column("z"))
        assert abs(np.corrcoef(d.column("z"), u)[0, 1]) < 0.01

    def test_error_correlation_strong_endogeneity(self):
        cfg = DgpConfig("dgp1", n=100_000, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.9)
        d = gen_dgp1(cfg, RngStream(51))
        u = d.column("y") - (1.0 - d.column("x") + d.column("z"))
        expect = 0.9 / math.sqrt(0.81 + 1.0)
        assert np.corrcoef(u, d.column("eta_true"))[0, 1] == pytest.approx(
            expect, abs=0.02)

    def test_error_skewness(self):
        cfg = DgpConfig("dgp1", n=1_000_000, e_dist=DistSpec.gamma(1, 1))
        e = gen_dgp1(cfg, RngStream(52)).column("e_true")
        c = e - e.mean()
        skew = np.mean(c ** 3) / np.mean(c ** 2) ** 1.5
        assert skew == pytest.approx(2.0, abs=0.1)

    def test_regressor_standardized(self):
        # the endogenous regressor is scaled to unit population variance
        for delta, edist in [(1.0, (1, 1)), (1.0, (3, 2)), (0.0, (3, 2))]:
            cfg = DgpConfig("dgp1", n=200_000, e_dist=DistSpec.gamma(*edist),
                            delta=delta, rho=0.5)
            z = gen_dgp1(cfg, RngStream(53)).column("z")
            assert z.var() == pytest.approx(1.0, rel=0.03)

    def test_true_scores_are_gamma_transform(self):
        cfg = DgpConfig("dgp1", n=500, e_dist=DistSpec.gamma(3, 2), delta=1.0)
        d = gen_dgp1(cfg, RngStream(54))
        expect = ndtri(gammainc(3, 2 * d.column("e_true")))
        assert d.column("eta_true") == pytest.approx(expect)


class TestGenDgp2:
    def test_independent_case(self):
        cfg = DgpConfig("dgp2", n=100_000, e_dist=DistSpec.gamma(1, 1),
                        alpha=0.0, rho=0.0)
        d = gen_dgp2(cfg, RngStream(55))
        u = d.column("y") - (1.0 - d.column("x") + d.column("z"))
        assert abs(np.corrcoef(d.column("x"), d.column("z"))[0, 1]) < 0.01
        assert abs(np.corrcoef(d.column("x"), u)[0, 1]) < 0.01
        assert abs(np.corrcoef(d.column("z"), u)[0, 1]) < 0.01

    def test_spearman_correlation_matches_copula(self):
        # rank correlation of a Gaussian copula: 6 arcsin(alpha/2) / pi
        from endofix.transform import average_ranks
        cfg = DgpConfig("dgp2", n=100_000, e_dist=DistSpec.gamma(1, 1),
                        alpha=0.5, rho=0.0)
        d = gen_dgp2(cfg, RngStream(56))
        rx = average_ranks(d.column("x"))
        rz = average_ranks(d.column("z"))
        rho_s = np.corrcoef(rx, rz)[0, 1]
        assert rho_s == pytest.approx(6.0 * math.asin(0.25) / math.pi, abs=0.02)

    def test_marginal_is_requested_gamma(self):
        cfg = DgpConfig("dgp2", n=100_000, e_dist=DistSpec.gamma(3, 2),
                        alpha=0.5, rho=0.5)
        e = gen_dgp2(cfg, RngStream(57)).column("z")
        grid = np.sort(e)
        emp = np.arange(1, e.size + 1) / e.size
        ks = np.abs(gammainc(3, 2 * grid) - emp).max()
        assert ks < 0.005

    def test_endogenous_regressor_is_error(self):
        # no linear coupling: z is exactly the transformed error
        cfg = DgpConfig("dgp2", n=1000, e_dist=DistSpec.gamma(1, 1),
                        alpha=0.5, rho=0.5)
        d = gen_dgp2(cfg, RngStream(58))
        assert np.array_equal(d.column("z"), d.column("e_true"))


class TestMcRun:
    def test_rmse_identity_exact(self):
        cfg = DgpConfig("dgp1", n=120, e_dist=DistSpec.gamma(1, 1),
                        delta=1.0, rho=0.5)
        s = mc_run(cfg, ["ols", "npcf"], reps=2, B=0, master=RngStream(59))
        for cell in s.cells.values():
            assert cell.rmse ** 2 == pytest.approx(
                cell.bias ** 2 + cell.std ** 2, abs=1e-10)

    def test_estimator_order_invariance(self):
        cfg = DgpConfig("dgp1", n=150, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.5)
        a = mc_run(cfg, ["ols", "npcf"], reps=10, B=19, master=RngStream(60))
        b = mc_run(cfg, ["npcf", "ols"], reps=10, B=19, master=RngStream(60))
        assert a.cells.keys() == b.cells.keys()
        for key in a.cells:
            assert a.cells[key] == b.cells[key]

    def test_no_endogeneity_unbiased_everywhere(self):
        cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.0)
        s = mc_run(cfg, ["ols", "npcf", "two_scope"], reps=200, B=0,
                   master=RngStream(61))
        for est in ("ols", "npcf", "two_scope"):
            cell = s.cell(est, "z")
            mc_se = cell.std / math.sqrt(s.reps)
            assert abs(cell.bias) <= 3.0 * mc_se

    def test_sizes_reported_only_with_bootstrap(self):
        cfg = DgpConfig("dgp1", n=120, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.5)
        plain = mc_run(cfg, ["npcf"], reps=3, B=0, master=RngStream(62))
        assert plain.cell("npcf", "z").size is None
        tested = mc_run(cfg, ["ols", "npcf"], reps=3, B=9, master=RngStream(62))
        assert tested.cell("npcf", "z").size is not None
        assert tested.cell("ols", "z").size is not None     # classical SEs

    def test_completed_counts(self):
        cfg = DgpConfig("dgp1", n=100, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.5)
        s = mc_run(cfg, ["npcf"], reps=5, B=0, master=RngStream(63))
        assert s.completed == {"npcf": 5}

    def test_table_and_dict_emission(self):
        cfg = DgpConfig("dgp1", n=120, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.5)
        s = mc_run(cfg, ["ols", "npcf"], reps=4, B=9, master=RngStream(64))
        text = s.table()
        for row in ("bias", "std", "rmse", "size"):
            assert row in text
        payload = json.dumps(s.to_dict())
        assert json.loads(payload)["reps"] == 4

    def test_failed_bootstrap_keeps_point_estimate(self):
        # an estimator whose every resample fails: each repetition's
        # bootstrap raises, yet its point estimate still counts towards
        # bias/std/rmse, and only the size is left out
        from endofix.estimators import ESTIMATORS, fit_npcf
        from endofix.errors import RankDeficiencyError

        def fragile(data, spec):
            if data.provenance.endswith("|resample"):
                raise RankDeficiencyError("synthetic failure", column="z")
            return fit_npcf(data, spec)

        cfg = DgpConfig("dgp1", n=120, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.5)
        ESTIMATORS["_fragile"] = fragile
        try:
            s = mc_run(cfg, ["npcf", "_fragile"], reps=4, B=9,
                       master=RngStream(66))
        finally:
            ESTIMATORS.pop("_fragile")
        assert s.completed == {"npcf": 4, "_fragile": 4}
        assert s.failures == {"_fragile": {"BootstrapError": 4}}
        assert s.cell("_fragile", "z").bias == s.cell("npcf", "z").bias
        assert s.cell("_fragile", "z").size is None
        assert s.cell("npcf", "z").size is not None
        assert json.loads(json.dumps(s.to_dict()))["failures"] == {
            "_fragile": {"BootstrapError": 4}}

    def test_needs_two_reps(self):
        cfg = DgpConfig("dgp1", n=120, e_dist=DistSpec.gamma(1, 1))
        with pytest.raises(DomainError):
            mc_run(cfg, ["ols"], reps=1, B=0, master=RngStream(65))


class TestKeepDraws:
    def test_per_rep_estimates_retained(self):
        cfg = DgpConfig("dgp1", n=120, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.5)
        s = mc_run(cfg, ["npcf"], reps=5, B=0, master=RngStream(67),
                   keep_draws=True)
        assert set(s.draws) == {"npcf"}
        assert len(s.draws["npcf"]["z"]) == 5
        assert np.mean(s.draws["npcf"]["z"]) - 1.0 == pytest.approx(
            s.cell("npcf", "z").bias, abs=1e-12)
        s2 = mc_run(cfg, ["npcf"], reps=5, B=0, master=RngStream(67))
        assert s2.draws is None


class TestScoresOnScoresCopulaDesign:
    def test_gamma32_reference_cell(self):
        # copula-coupled design with the rounder gamma: the scores-on-scores
        # comparator's small-sample bias sits near the reference 0.055
        from endofix.simulation import mc_run as _mc
        cfg = DgpConfig("dgp2", n=250, e_dist=DistSpec.gamma(3, 2),
                        alpha=0.5, rho=0.5)
        s = _mc(cfg, ["two_scope"], reps=300, B=0, master=RngStream(68))
        assert s.cell("two_scope", "z").bias == pytest.approx(0.055, abs=0.05)
