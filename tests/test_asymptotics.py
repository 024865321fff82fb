import math

import numpy as np
import pytest
from scipy.special import gammainc, ndtr, ndtri

from endofix import asymptotics
from endofix.asymptotics import (GRID_RTOL, MomentSet, _grid_rows,
                                 _quantile_of_normal, _simpson, constants_c,
                                 sigma_asymptotic)
from endofix.cli import main
from endofix.errors import IdentificationError, NonFiniteError
from endofix.numerics import DistSpec, RngStream

NORMAL = DistSpec.normal(0.0, 1.0)
CEXP = DistSpec.gamma(1.0, 1.0)
CG32 = DistSpec.gamma(3.0, 2.0)


def _c2_u_space_oracle(F: DistSpec) -> float:
    """Independent scheme for c2 = int F^-1(u) Phi^-1(u) du: composite
    Simpson directly in u, with decade-by-decade endpoint refinement so
    each boundary layer is resolved on its own panel."""
    def panel(a, b, m=4001):
        u = np.linspace(a, b, m)
        f = F.quantile(u) * ndtri(u)
        h = u[1] - u[0]
        return h / 3.0 * (f[0] + f[-1] + 4 * np.sum(f[1:-1:2])
                          + 2 * np.sum(f[2:-1:2]))

    total = panel(0.1, 0.9, 16001)
    lo_edges = [0.1] + [10.0 ** -(k + 1) for k in range(1, 15)]
    for a, b in zip(lo_edges[1:], lo_edges[:-1]):
        total += panel(a, b)
        total += panel(1.0 - b, 1.0 - a)
    return total


class TestConstants:
    def test_gaussian_c1_c2_unity(self):
        c = constants_c(NORMAL)
        assert c.c1 == pytest.approx(1.0, abs=1e-8)
        assert c.c2 == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_c3_half(self):
        # the mixed-kernel identity applied to the normal gives exactly 1/2
        c = constants_c(NORMAL)
        assert c.c3 == pytest.approx(0.5, abs=1e-6)

    def test_c2_exponential_against_independent_quadrature(self):
        c = constants_c(CEXP)
        assert c.c2 == pytest.approx(_c2_u_space_oracle(CEXP), abs=1e-5)

    def test_c2_location_invariant(self):
        # constants_c centers the distribution, so c3 is invariant too
        raw = constants_c(DistSpec.normal(3.0, 1.0))
        cen = constants_c(NORMAL)
        assert raw.c2 == pytest.approx(cen.c2, abs=1e-8)
        assert raw.c1 == pytest.approx(cen.c1, abs=1e-8)
        assert raw.c3 == pytest.approx(cen.c3, abs=1e-8)

    def test_c1_scales_with_rate(self):
        # the density composition makes c1 proportional to the rate: the
        # once-conjectured scale invariance does not hold and is recorded
        # here as the actual behavior
        c_rate2 = constants_c(CG32).c1
        c_rate1 = constants_c(DistSpec.gamma(3.0, 1.0)).c1
        assert c_rate2 == pytest.approx(2.0 * c_rate1, rel=1e-7)

    @pytest.mark.parametrize("F", [CEXP, CG32])
    def test_cauchy_schwarz_bounds(self, F):
        c = constants_c(F)
        se2 = F.var()
        assert c.c2 ** 2 <= se2 + 1e-12
        gauss_ratio = 0.5  # c3/variance for the normal, computed above
        assert c.c3 <= gauss_ratio * se2 + 1e-9

    def test_quadrature_report_present(self):
        rep = constants_c(CEXP).quadrature_report
        assert rep["c3_doubling_delta"] <= GRID_RTOL
        assert rep["t_truncation"] == 8.5


class TestLemmaBResidual:
    @pytest.mark.parametrize("F", [NORMAL, CEXP, CG32])
    def test_identity_holds(self, F):
        assert constants_c(F).lemma_b_residual < 1e-6

    @pytest.mark.parametrize("F", [NORMAL, CEXP, CG32])
    def test_residual_from_constants_c2_is_identical(self, F):
        # c2 and the lemma-B integral come from one grid
        c = constants_c(F)
        assert abs(c.lemma_b_lhs - 0.5 * c.c2) == c.lemma_b_residual

    def test_both_sides_half_for_gaussian(self):
        c = constants_c(NORMAL)
        assert 0.5 * c.c2 == pytest.approx(0.5, abs=1e-8)


class TestSigmaAsymptotic:
    def _moments(self, F, eps_var=1.0):
        c2 = constants_c(F).c2
        return MomentSet.homoskedastic_gaussian(np.array([[1.0]]), [0.0],
                                                F.var(), c2, eps_var)

    def test_gaussian_raises_identification_error(self):
        m = self._moments(NORMAL)
        with pytest.raises(IdentificationError) as err:
            sigma_asymptotic(NORMAL, [1.0], 0.5, m)
        assert err.value.schur_margin <= 1e-8

    def test_rho_zero_collapses_to_sigma2_Minv(self):
        m = self._moments(CEXP, eps_var=1.7)
        S = sigma_asymptotic(CEXP, [0.7], 0.0, m)
        assert np.abs(S.Omega - 1.7 * S.M).max() <= 1e-8
        assert np.abs(S.Sigma - 1.7 * np.linalg.inv(S.M)).max() <= 1e-7

    def test_sigma_consistent_with_factors(self):
        m = self._moments(CG32)
        S = sigma_asymptotic(CG32, [1.0], 0.9, m)
        recon = np.linalg.inv(S.M) @ S.Omega @ np.linalg.inv(S.M)
        assert np.abs(S.Sigma - recon).max() <= 1e-10
        assert np.abs(S.M - S.M.T).max() == 0.0
        assert np.abs(S.Omega - S.Omega.T).max() == 0.0

    def test_schur_margin_positive_for_gamma(self):
        m = self._moments(CG32)
        S = sigma_asymptotic(CG32, [1.0], 0.5, m)
        assert S.schur_margin > 0.01

    def test_overflowing_truncated_c1_raises(self):
        # near shape 0 the truncated c1 overflows, and Sigma with it
        F = DistSpec.gamma(0.05, 1.0)
        with pytest.raises(NonFiniteError, match="c1"):
            sigma_asymptotic(F, [1.0], 0.9, self._moments(F))

    def test_divergent_c1_does_not_refine_the_grid(self):
        # the truncated c1 of shape 0.5 is huge but finite; the grid stops
        # where c2, c3 and lemma B do
        F = DistSpec.gamma(0.5, 1.0)
        S = sigma_asymptotic(F, [1.0], 0.9, self._moments(F))
        assert S.constants.c1_diverges
        assert S.constants.quadrature_report["c3_panels"] == 1024
        assert np.all(np.isfinite(S.Sigma))



class TestMonteCarloOracleForC2:
    def test_c2_matches_score_product_expectation(self):
        # c2 equals E[e * score(e)] for the centered error; estimated from
        # ten million draws, the quadrature value sits within 3 MC
        # standard errors
        from endofix.numerics import sample
        n = 10_000_000
        e = sample(RngStream(41), DistSpec.gamma(3, 2), n)
        eta = ndtri(np.clip(gammainc(3, 2 * e), 1e-15, 1 - 1e-15))
        prod = (e - 1.5) * eta
        mc, se = float(prod.mean()), float(prod.std() / math.sqrt(n))
        c2 = constants_c(CG32).c2
        assert abs(c2 - mc) <= 3.0 * se


def _dist(text: str) -> DistSpec:
    if text == "normal":
        return NORMAL
    a, b = (float(v) for v in text.split(":")[1].split(","))
    return DistSpec.gamma(a, b)


# c1, c2, c3, the lemma-B residual and the upper triangle of sigma_asymptotic's
# Sigma (delta 1, rho 0.9, unit Sigma_x, unit-variance Gaussian eps), all
# read off one Richardson-extrapolated Simpson grid, which stops at 1024
# panels on each of these
_RECORDED = [
    ("normal", (1.0, 0.9999999999999987,
                0.4999999999999987, 3.3306690738754696e-16),
     None),
    ("gamma:3,2", (1.4502413205166842, 0.8352387208487844,
                   0.36623074039784304, 6.106226635438361e-16),
     (26.513536545072476, -24.235842613274087, 20.242714183003507,
      24.235842613274087, -20.242714183003507, 18.312498700719395)),
    ("gamma:1,1", (8.5, 0.9031972855686221,
                   0.4687149275170433, 9.992007221626409e-16),
     (66.40205820430732, -6.879558204307301, 6.213598296041699,
      6.879558204307291, -6.21359829604169, 7.017105114598671)),
    ("gamma:10,1", (0.33535651116347126, 3.127537824541391,
                    4.96354064741276, 1.7763568394002505e-15),
     (7.722421008953395, -5.811462693357538, 18.175569389386887,
      5.811462693357538, -18.175569389386887, 58.249780747884145)),
    ("gamma:1.5,3", (4.5678946185492375, 0.3805629459079768,
                     0.07965321616346477, 3.608224830031759e-16),
     (61.90245621585483, -58.08559194762174, 22.10522398639558,
      58.08559194762174, -22.10522398639558, 9.81742916021837)),
    ("gamma:2,0.5", (0.5230886884413934, 2.681054789511717,
                     3.863643894728168, 2.4424906541753444e-15),
     (4.335946190510898, -1.5628770821907119, 4.190159086625506,
      1.5628770821907119, -4.190159086625506, 12.639046088013359)),
]


@pytest.mark.parametrize("dist,constants,sigma", _RECORDED,
                         ids=[r[0] for r in _RECORDED])
def test_constants_equal_recorded_values(dist, constants, sigma):
    F = _dist(dist)
    c = constants_c(F)
    assert (c.c1, c.c2, c.c3, c.lemma_b_residual) == constants
    if sigma is not None:
        m = MomentSet.homoskedastic_gaussian(np.array([[1.0]]), [0.0],
                                             F.var(), c.c2, 1.0)
        S = sigma_asymptotic(F, [1.0], 0.9, m).Sigma
        assert tuple(S[np.triu_indices(3)]) == sigma


def test_constants_command_evaluates_g_once_per_abscissa(monkeypatch,
                                                         capsys):
    # one grid gives all four integrals: 513 points at 256 panels, then
    # only the new (odd) points of each doubling, 512 and 1024
    grid_points = []
    quantile = _quantile_of_normal

    def counted_quantile(F, t):
        grid_points.append(np.shape(t))
        return quantile(F, t)

    monkeypatch.setattr(asymptotics, "_quantile_of_normal", counted_quantile)
    assert main(["constants", "--dist", "gamma:3,2"]) == 0
    assert "c3_panels': 1024" in capsys.readouterr().out
    assert grid_points == [(513,), (512,), (1024,)]


class TestExtrapolatedGrid:
    def test_gaussian_values_to_rounding(self):
        # c2 = 1 and c3 = lemma B's left side = 1/2 exactly for the normal
        c = constants_c(NORMAL)
        assert abs(c.c2 - 1.0) <= 2e-15
        assert abs(c.c3 - 0.5) <= 2e-15
        assert abs(c.lemma_b_lhs - 0.5) <= 2e-15

    @pytest.mark.parametrize("dist", [r[0] for r in _RECORDED
                                      if r[0] != "normal"])
    def test_c3_matches_fine_extrapolated_grid(self, dist):
        # one Richardson step from 32768 to 65536 panels: a reference
        # whose own discretisation error is far below rounding
        F = _dist(dist)
        fine = []
        for M in (32768, 65536):
            t = np.linspace(-8.5, 8.5, 2 * M + 1)
            fine.append(_simpson(t, _grid_rows(F, t))[1])
        ref = fine[1] + (fine[1] - fine[0]) / 15.0
        c = constants_c(F)
        assert c.quadrature_report["c3_panels"] == 1024
        assert abs(c.c3 - ref) <= 1e-14 * ref


def _c1_oracle(F: DistSpec) -> float:
    """c1 by QUADPACK, with the density taken at the uncentered quantile."""
    from scipy.integrate import quad

    def integrand(t):
        q = F.quantile(ndtr(t)) if t <= 0.0 else F.isf(ndtr(-t))
        return float(F.pdf(q))
    return quad(integrand, -8.5, 8.5, epsabs=1e-13, epsrel=0.0,
                limit=1000)[0]


class TestC1:
    @pytest.mark.parametrize("rate", [1.0, 2.0])
    def test_truncated_exponential_is_exact(self, rate):
        # f(F^-1(Phi(t))) = b (1 - Phi(t)) for gamma(1, b), whose integral
        # over |t| <= 8.5 is b * 8.5 by the symmetry of Phi
        c = constants_c(DistSpec.gamma(1.0, rate))
        assert abs(c.c1 - 8.5 * rate) <= 1e-14 * 8.5 * rate

    @pytest.mark.parametrize("dist", ["normal", "gamma:1.01,1", "gamma:1.05,1",
                                      "gamma:1.2,1", "gamma:1.3,1",
                                      "gamma:1.5,1", "gamma:2,1", "gamma:3,1",
                                      "gamma:10,1"])
    def test_matches_quadpack(self, dist):
        F = _dist(dist)
        want = _c1_oracle(F)
        assert abs(constants_c(F).c1 - want) <= 1e-14 * want

    def test_shape_just_above_one(self, capsys):
        assert main(["constants", "--dist", "gamma:1.1,1"]) == 0
        assert capsys.readouterr().out.startswith("c1 = 3.64126")

    def test_divergent_c1_neither_holds_up_the_grid_nor_warns(self):
        # near shape 0 the density overflows at the grid's lower end; a
        # divergent c1 takes no part in the stop rule
        c = constants_c(DistSpec.gamma(0.02, 1.0))
        assert c.c1_diverges and "c1_err" not in c.quadrature_report
        assert c.quadrature_report["c3_panels"] == 1024

    @pytest.mark.parametrize("a,diverges", [(0.5, True), (1.0, True),
                                            (1.01, False), (3.0, False)])
    def test_c1_diverges_flag(self, a, diverges):
        c = constants_c(DistSpec.gamma(a, 1.0))
        assert c.c1_diverges is diverges
        assert ("c1_err" in c.quadrature_report) is not diverges
