import math

import numpy as np
import pytest
from scipy.special import gammainc, ndtri

from endofix import asymptotics
from endofix.asymptotics import (MomentSet, _g_memo, _lemma_b_lhs,
                                 _quantile_of_normal, constants_c,
                                 lemma_b_residual, sigma_asymptotic)
from endofix.cli import main
from endofix.errors import IdentificationError
from endofix.numerics import DistSpec, QuadratureSpec, RngStream

SPEC = QuadratureSpec(abs_tol=1e-9, max_subdivisions=40000)

NORMAL = DistSpec.normal(0.0, 1.0)
CEXP = DistSpec.gamma(1.0, 1.0, centered=True)
CG32 = DistSpec.gamma(3.0, 2.0, centered=True)


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
        c = constants_c(NORMAL, SPEC)
        assert c.c1 == pytest.approx(1.0, abs=1e-8)
        assert c.c2 == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_c3_half(self):
        # the mixed-kernel identity applied to the normal gives exactly 1/2
        c = constants_c(NORMAL, SPEC)
        assert c.c3 == pytest.approx(0.5, abs=1e-6)

    def test_c2_exponential_against_independent_quadrature(self):
        c = constants_c(CEXP, SPEC)
        assert c.c2 == pytest.approx(_c2_u_space_oracle(CEXP), abs=1e-5)

    def test_c2_location_invariant(self):
        raw = constants_c(DistSpec.gamma(3.0, 2.0), SPEC)
        cen = constants_c(CG32, SPEC)
        assert raw.c2 == pytest.approx(cen.c2, abs=1e-8)
        assert raw.c1 == pytest.approx(cen.c1, abs=1e-8)

    def test_c1_scales_with_rate(self):
        # the density composition makes c1 proportional to the rate: the
        # once-conjectured scale invariance does not hold and is recorded
        # here as the actual behavior
        c_rate2 = constants_c(CG32, SPEC).c1
        c_rate1 = constants_c(DistSpec.gamma(3.0, 1.0, centered=True), SPEC).c1
        assert c_rate2 == pytest.approx(2.0 * c_rate1, rel=1e-7)

    @pytest.mark.parametrize("F", [CEXP, CG32])
    def test_cauchy_schwarz_bounds(self, F):
        c = constants_c(F, SPEC)
        se2 = F.var()
        assert c.c2 ** 2 <= se2 + 1e-12
        gauss_ratio = 0.5  # c3/variance for the normal, computed above
        assert c.c3 <= gauss_ratio * se2 + 1e-9

    def test_quadrature_report_present(self):
        rep = constants_c(CEXP, SPEC).quadrature_report
        assert rep["c3_doubling_delta"] <= max(SPEC.abs_tol, 1e-12)
        assert rep["t_truncation"] == 8.5


class TestLemmaBResidual:
    @pytest.mark.parametrize("F", [NORMAL, CEXP, CG32])
    def test_identity_holds(self, F):
        assert lemma_b_residual(F, SPEC) < 1e-6

    @pytest.mark.parametrize("F", [NORMAL, CEXP, CG32])
    def test_residual_from_constants_c2_is_identical(self, F):
        # the constants command forms the residual from constants_c's c2
        c2 = constants_c(F, SPEC).c2
        resid = abs(_lemma_b_lhs(_g_memo(F), SPEC) - 0.5 * c2)
        assert resid == lemma_b_residual(F, SPEC)

    def test_both_sides_half_for_gaussian(self):
        c = constants_c(NORMAL, SPEC)
        assert 0.5 * c.c2 == pytest.approx(0.5, abs=1e-8)


class TestSigmaAsymptotic:
    def _moments(self, F, eps_var=1.0):
        c2 = constants_c(F, SPEC).c2
        return MomentSet.homoskedastic_gaussian(np.array([[1.0]]), [0.0],
                                                F.var(), c2, eps_var)

    def test_gaussian_raises_identification_error(self):
        m = self._moments(NORMAL)
        with pytest.raises(IdentificationError) as err:
            sigma_asymptotic(NORMAL, [1.0], 0.5, m, SPEC)
        assert err.value.schur_margin <= 1e-8

    def test_rho_zero_collapses_to_sigma2_Minv(self):
        m = self._moments(CEXP, eps_var=1.7)
        S = sigma_asymptotic(CEXP, [0.7], 0.0, m, SPEC)
        assert np.abs(S.Omega - 1.7 * S.M).max() <= 1e-8
        assert np.abs(S.Sigma - 1.7 * np.linalg.inv(S.M)).max() <= 1e-7

    def test_sigma_consistent_with_factors(self):
        m = self._moments(CG32)
        S = sigma_asymptotic(CG32, [1.0], 0.9, m, SPEC)
        recon = np.linalg.inv(S.M) @ S.Omega @ np.linalg.inv(S.M)
        assert np.abs(S.Sigma - recon).max() <= 1e-10
        assert np.abs(S.M - S.M.T).max() == 0.0
        assert np.abs(S.Omega - S.Omega.T).max() == 0.0

    def test_reproduces_under_tighter_tolerance(self):
        # the inverse moment matrix amplifies quadrature error by roughly
        # 1/margin^2, so the stability requirement scales accordingly; the
        # raw constants themselves reproduce within 10x the tolerance
        m = self._moments(CG32)
        loose = sigma_asymptotic(CG32, [1.0], 0.9, m,
                                 QuadratureSpec(1e-7, 40000))
        tight = sigma_asymptotic(CG32, [1.0], 0.9, m,
                                 QuadratureSpec(1e-9, 40000))
        margin = tight.schur_margin
        assert np.abs(loose.Sigma - tight.Sigma).max() <= 10 * 1e-7 / margin ** 2
        for field in ("c1", "c2", "c3"):
            assert getattr(loose.constants, field) == pytest.approx(
                getattr(tight.constants, field), abs=10 * 1e-7)

    def test_schur_margin_positive_for_gamma(self):
        m = self._moments(CG32)
        S = sigma_asymptotic(CG32, [1.0], 0.5, m, SPEC)
        assert S.schur_margin > 0.01



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
        c2 = constants_c(CG32, SPEC).c2
        assert abs(c2 - mc) <= 3.0 * se


def _dist(text: str) -> DistSpec:
    if text == "normal":
        return NORMAL
    a, b = (float(v) for v in text.split(":")[1].split(","))
    return DistSpec.gamma(a, b, centered=True)


class TestScalarQuantileOfNormal:
    """g = F^-1 o Phi at one scalar abscissa (quad's calls) equals the
    array evaluation (c3's grids) bit for bit."""

    @pytest.mark.parametrize("dist", ["normal", "gamma:3,2", "gamma:1,1",
                                      "gamma:10,1"])
    def test_scalar_equals_array(self, dist):
        F = _dist(dist)
        t = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 8.5, -8.5],
                            np.linspace(-8.5, 8.5, 341),
                            np.random.default_rng(3).uniform(-8.5, 8.5, 200)])
        ref = _quantile_of_normal(F, t)
        for ti, want in zip(t, ref):
            for scalar in (float(ti), np.float64(ti), np.array(ti)):
                got = _quantile_of_normal(F, scalar)
                assert np.ndim(got) == 0
                assert got == want, (dist, ti)


# c1, c2, c3, lemma_b_residual and the upper triangle of sigma_asymptotic's
# Sigma (delta 1, rho 0.9, unit Sigma_x, unit-variance Gaussian eps),
# recorded from the implementation that evaluated g once per integrand
# call and c3's two grids in full
_RECORDED = [
    ("normal", 1e-09, (0.9999999999999999, 0.9999999999999986,
                       0.49999999999989553, 9.936496070395151e-15),
     None),
    ("gamma:3,2", 1e-09, (1.4502413205166842, 0.8352387208487841,
                          0.3662307403977689, 1.5210055437364645e-14),
     (26.513536545050343, -24.23584261325195, 20.24271418298501,
      24.23584261325195, -20.24271418298501, 18.31249870070394)),
    ("gamma:1,1", 1e-09, (8.292361075897324, 0.903197285568622,
                          0.46871492751695387, 3.524958103184872e-14),
     (63.57779249688117, -6.879558204304978, 6.213598296039599,
      6.879558204304971, -6.213598296039592, 7.017105114596775)),
    ("gamma:10,1", 1e-09, (0.3353565111634711, 3.1275378245413905,
                           4.963540647411741, 3.7969627442180354e-14),
     (7.722421008936131, -5.811462693340275, 18.175569389332892,
      5.811462693340275, -18.175569389332892, 58.24978074771529)),
    ("gamma:1.5,3", 1e-07, (4.567894618557189, 0.3805629459079769,
                            0.07965321616344909, 1.2406742300186124e-14),
     (61.90245621583696, -58.085591947594054, 22.105223986385056,
      58.08559194759405, -22.105223986385052, 9.81742916021437)),
    ("gamma:2,0.5", 1e-11, (0.5230886884413933, 2.681054789511717,
                            3.8636438947281206, 5.88418203051333e-14),
     (4.33594619051084, -1.5628770821906557, 4.190159086625355,
      1.5628770821906557, -4.190159086625355, 12.639046088012954)),
]


@pytest.mark.parametrize("dist,tol,constants,sigma", _RECORDED,
                         ids=[r[0] for r in _RECORDED])
def test_constants_equal_recorded_values(dist, tol, constants, sigma):
    F = _dist(dist)
    spec = QuadratureSpec(abs_tol=tol, max_subdivisions=40000)
    c = constants_c(F, spec)
    assert (c.c1, c.c2, c.c3, lemma_b_residual(F, spec)) == constants
    if sigma is not None:
        m = MomentSet.homoskedastic_gaussian(np.array([[1.0]]), [0.0],
                                             F.var(), c.c2, 1.0)
        S = sigma_asymptotic(F, [1.0], 0.9, m, spec).Sigma
        assert tuple(S[np.triu_indices(3)]) == sigma


def test_constants_command_evaluates_g_once_per_abscissa(monkeypatch,
                                                         capsys):
    # c1, c2 and the lemma-B integral share one memo of g; c3's doubled
    # grid evaluates only its new (odd) points: 4097 + 4096 points, where
    # computing both grids in full takes 4097 + 8193
    scalars, grid_points, integrand_points = [], [], []
    quantile, integrate = _quantile_of_normal, asymptotics.integrate_1d

    def counted_quantile(F, t):
        if np.ndim(t) == 0:
            scalars.append(float(t))
        else:
            grid_points.append(np.size(t))
        return quantile(F, t)

    def counted_integrate(f, *args):
        def counted_f(t):
            integrand_points.append(t)
            return f(t)
        return integrate(counted_f, *args)

    monkeypatch.setattr(asymptotics, "_quantile_of_normal", counted_quantile)
    monkeypatch.setattr(asymptotics, "integrate_1d", counted_integrate)
    assert main(["constants", "--dist", "gamma:3,2"]) == 0
    assert "c3_panels': 4096" in capsys.readouterr().out
    assert len(scalars) == len(set(scalars)) == len(set(integrand_points))
    assert len(integrand_points) > 2 * len(scalars)
    assert sum(grid_points) == 8193

