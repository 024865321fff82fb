"""Acceptance suite: one test per release criterion.

Each criterion prints a PASS/FAIL line (run pytest with ``-s`` to see all
of them) and then asserts.  Criteria 5 and 7 are marked ``slow``; they
also each ship with a companion test (same machinery, configuration
chosen so its assumptions hold) — see the docstrings of the two expected
failures for the analysis.
"""
import json
import math

import numpy as np
import pytest

from endofix import (DgpConfig, DistSpec, RngStream, constants_c,
                     fit_iv_internal, fit_npcf, mc_run, pairs_bootstrap,
                     sigma_asymptotic)
from endofix.asymptotics import MomentSet
from endofix.errors import IdentificationError
from endofix.numerics import sample
from endofix.simulation import MODEL_SPEC, gen_dgp1, generate
from endofix.transform import normal_scores


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    return ok


def test_acceptance_1_bias_std_size():
    """Uncorrelated design, moderate endogeneity: corrected estimator is
    nearly unbiased with the reference dispersion, and the bootstrap
    t-test holds its 5% size."""
    cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1), delta=0.0,
                    rho=0.5)
    s = mc_run(cfg, ["npcf"], reps=500, B=99, master=RngStream(20250810))
    c = s.cell("npcf", "z")
    ok = (abs(c.bias - 0.014) <= 0.05 and 0.12 <= c.std <= 0.20
          and 0.03 <= c.size <= 0.08)
    assert _report(
        "1", ok,
        f"bias {c.bias:+.4f} (0.014±0.05), std {c.std:.3f} ([0.12,0.20]), "
        f"size {c.size:.3f} ([0.03,0.08])")


def test_acceptance_2_bias_removal_contrast():
    """Correlated regressors, strong endogeneity: the uncorrected slope is
    badly biased, the scores-on-scores comparator only partially corrects,
    and the control-function estimator removes the bias."""
    cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                    rho=0.9)
    s = mc_run(cfg, ["ols", "npcf", "two_scope"], reps=500, B=0,
               master=RngStream(20250811))
    b_ols = s.cell("ols", "z").bias
    b_cf = s.cell("npcf", "z").bias
    b_2s = s.cell("two_scope", "z").bias
    ok = (abs(b_ols - 1.154) <= 0.05 and abs(b_cf) <= 0.08
          and 0.4 <= b_2s <= 0.7)
    assert _report(
        "2", ok,
        f"ols {b_ols:+.4f} (1.154±0.05), npcf {b_cf:+.4f} (|.|<=0.08), "
        f"2scope {b_2s:+.4f} ([0.4,0.7])")


def test_acceptance_3_copula_design_comparators():
    """Copula-coupled design: the scores-on-scores comparator is in its
    element and the control function still removes essentially all bias."""
    cfg = DgpConfig("dgp2", n=250, e_dist=DistSpec.gamma(1, 1), alpha=0.5,
                    rho=0.5)
    s = mc_run(cfg, ["npcf", "two_scope"], reps=500, B=0,
               master=RngStream(20250812))
    b_2s = s.cell("two_scope", "z").bias
    b_cf = s.cell("npcf", "z").bias
    ok = abs(b_2s - 0.023) <= 0.04 and abs(b_cf - 0.008) <= 0.05
    assert _report(
        "3", ok,
        f"2scope {b_2s:+.4f} (0.023±0.04), npcf {b_cf:+.4f} (0.008±0.05)")


def test_acceptance_4_exogeneity_test_size():
    """Under exogeneity the classical t-test on the scores coefficient is
    close to nominal size in all four null designs."""
    configs = [
        ("dgp1/g11", DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1),
                               delta=1.0, rho=0.0)),
        ("dgp1/g32", DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(3, 2),
                               delta=1.0, rho=0.0)),
        ("dgp2/g11", DgpConfig("dgp2", n=250, e_dist=DistSpec.gamma(1, 1),
                               alpha=0.5, rho=0.0)),
        ("dgp2/g32", DgpConfig("dgp2", n=250, e_dist=DistSpec.gamma(3, 2),
                               alpha=0.5, rho=0.0)),
    ]
    from endofix import exogeneity_test
    sizes = {}
    for label, cfg in configs:
        rej = sum(
            exogeneity_test(generate(cfg, RngStream(31337, r)),
                            MODEL_SPEC).p_value < 0.05
            for r in range(1000))
        sizes[label] = rej / 1000.0
    ok = all(0.03 <= v <= 0.07 for v in sizes.values())
    assert _report("4", ok, "sizes " + ", ".join(
        f"{k}={v:.3f}" for k, v in sizes.items()) + " (all in [0.03,0.07])")


def _sigma_vs_mc(e_shape, e_rate, reps=2000, n=4000, rho=0.9, seed=777):
    """diag(Sigma)/n from the plug-in formula vs Monte Carlo variances of
    the slope coefficients (beta1, gamma, rho) under the linear design
    with delta = 1 and the regressor standardized to unit variance."""
    var_e = e_shape / e_rate ** 2
    sd_z = math.sqrt(1.0 + var_e)
    F_tilde = DistSpec.gamma(e_shape, e_rate * sd_z)
    c2 = constants_c(F_tilde).c2
    moments = MomentSet.homoskedastic_gaussian(
        np.array([[1.0]]), [1.0], var_e / sd_z ** 2, c2, 1.0)
    S = sigma_asymptotic(F_tilde, [1.0 / sd_z], rho, moments)

    cfg = DgpConfig("dgp1", n=n, e_dist=DistSpec.gamma(e_shape, e_rate),
                    delta=1.0, rho=rho)
    th = np.empty((reps, 3))
    for r in range(reps):
        f = fit_npcf(gen_dgp1(cfg, RngStream(seed, r)), MODEL_SPEC)
        th[r] = [f.coef("x"), f.coef("z"), f.coef("rho[z]")]
    mc = th.var(axis=0, ddof=1)
    plug = np.diag(S.Sigma) / n
    return plug / mc


@pytest.mark.slow
def test_acceptance_5_sigma_matches_mc_gamma11():
    """Plug-in asymptotic variance vs Monte Carlo, unit-shape gamma error.

    KNOWN RED.  The first constant is the integral of
    f(F^-1(u))/phi(Phi^-1(u)), and for a gamma with shape 1 the density is
    positive at the support boundary, so that integral diverges: the
    plug-in value is then an artifact of the fixed |t| <= 8.5 truncation
    (about 8.3) while the finite-sample effective value grows only like
    sqrt(2 log n) (about 3.5 at n = 4000).  The exogenous-slope coordinate
    is the only one the constant enters -- it provably cancels from the
    endogenous and scores coordinates, which match the Monte Carlo within
    a few percent.  The shape-3 companion test below, whose boundary
    density vanishes fast enough, passes on every coordinate, which pins
    the failure on the configuration rather than the implementation.
    """
    ratios = _sigma_vs_mc(1.0, 1.0)
    detail = ("ratios plug-in/MC: beta1 {0:.3f}, gamma {1:.3f}, rho {2:.3f} "
              "(need all in [0.85, 1.15])").format(*ratios)
    ok = bool(np.all(np.abs(ratios - 1.0) <= 0.15))
    assert _report("5", ok, detail)


@pytest.mark.slow
def test_acceptance_5_companion_sigma_matches_mc_gamma32():
    """Same check with a shape-3 gamma error, whose boundary density decays
    fast enough for every constant to be finite: all coordinates match."""
    ratios = _sigma_vs_mc(3.0, 2.0)
    detail = ("ratios plug-in/MC: beta1 {0:.3f}, gamma {1:.3f}, rho {2:.3f} "
              "(all in [0.85, 1.15])").format(*ratios)
    ok = bool(np.all(np.abs(ratios - 1.0) <= 0.15))
    assert _report("5-companion", ok, detail)


def test_acceptance_6_exact_identities():
    """Fast algebraic and numeric identities."""
    checks = []

    # internal-IV representation reproduces the augmented OLS exactly
    cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                    rho=0.5)
    d = gen_dgp1(cfg, RngStream(606))
    gap = np.abs(fit_npcf(d, MODEL_SPEC).theta
                 - fit_iv_internal(d, MODEL_SPEC).theta).max()
    checks.append(("iv==npcf", gap <= 1e-10, f"{gap:.1e}"))

    # rank invariance of the scores, exact
    v = sample(RngStream(607), DistSpec.gamma(3, 2), 400)
    inv = np.array_equal(normal_scores(v), normal_scores(np.expm1(v)))
    checks.append(("rank-invariance", inv, "exact"))

    # zero mean of the scores without ties, exact under compensated sum
    z = math.fsum(normal_scores(v))
    checks.append(("score-zero-mean", z == 0.0, f"{z:.1e}"))

    # mixed-kernel quadrature identity for three error laws
    for label, F in [("normal", DistSpec.normal()),
                     ("cexp", DistSpec.gamma(1, 1)),
                     ("cg32", DistSpec.gamma(3, 2))]:
        r = constants_c(F).lemma_b_residual
        checks.append((f"lemma-b[{label}]", r < 1e-6, f"{r:.1e}"))

    # Gaussian error: first two constants are unity...
    cons = constants_c(DistSpec.normal())
    checks.append(("c1@normal", abs(cons.c1 - 1.0) <= 1e-8,
                   f"{cons.c1 - 1.0:+.1e}"))
    checks.append(("c2@normal", abs(cons.c2 - 1.0) <= 1e-8,
                   f"{cons.c2 - 1.0:+.1e}"))

    # ... and the moment matrix is singular, with a zero margin
    m = MomentSet.homoskedastic_gaussian(np.array([[1.0]]), [0.0], 1.0,
                                         cons.c2)
    with pytest.raises(IdentificationError) as err:
        sigma_asymptotic(DistSpec.normal(), [1.0], 0.5, m)
    margin = err.value.schur_margin
    checks.append(("gaussian-margin", margin <= 1e-8, f"{margin:.1e}"))

    ok = all(flag for _, flag, _ in checks)
    assert _report("6", ok, "; ".join(
        f"{nm} {'ok' if flag else 'BAD'} ({det})" for nm, flag, det in checks))


@pytest.mark.slow
def test_acceptance_7_bootstrap_consistency_n100():
    """Single-dataset bootstrap covariance vs Monte Carlo at n = 100.

    KNOWN RED.  The resampling covariance is a per-dataset quantity; at
    n = 100 its dataset-to-dataset dispersion spans roughly 0.4x to 3x the
    unconditional Monte Carlo covariance (measured over 24 datasets), with
    a median above one — the heavy-tail conservativeness that the
    higher-moment condition of the resampling theory is there to exclude.
    The probability that one fixed dataset lands within 20 percent on
    every coordinate is a few percent, so this check cannot be met
    honestly at this sample size; the seed below is the first one tried,
    kept fixed.  The averaged companion test demonstrates the actual
    consistency statement: the mean resampling covariance over 25
    datasets at n = 400 matches the Monte Carlo covariance within a few
    percent on every coordinate.
    """
    n = 100
    cfg = DgpConfig("dgp1", n=n, e_dist=DistSpec.gamma(1, 1), delta=0.0,
                    rho=0.5)
    d = gen_dgp1(cfg, RngStream(4242))
    boot = pairs_bootstrap(d, MODEL_SPEC, "npcf", B=9999,
                           seed=RngStream(4242, 1))
    nboot = n * boot.draws.var(axis=0, ddof=1)

    reps = 2000
    th = np.empty((reps, 4))
    for r in range(reps):
        th[r] = fit_npcf(gen_dgp1(cfg, RngStream(555, r)), MODEL_SPEC).theta
    nmc = n * th.var(axis=0, ddof=1)
    ratios = nboot / nmc
    detail = ", ".join(f"{nm} {r:.3f}" for nm, r in zip(boot.names, ratios))
    ok = bool(np.all(np.abs(ratios - 1.0) <= 0.20))
    assert _report("7", ok, f"n*Var*/n*Var ratios: {detail} "
                            "(need all in [0.8, 1.2])")


@pytest.mark.slow
def test_acceptance_7_companion_bootstrap_consistency_averaged():
    """Averaged form of the resampling-consistency check (see above)."""
    n = 400
    cfg = DgpConfig("dgp1", n=n, e_dist=DistSpec.gamma(1, 1), delta=0.0,
                    rho=0.5)
    reps = 1500
    th = np.empty((reps, 4))
    for r in range(reps):
        th[r] = fit_npcf(gen_dgp1(cfg, RngStream(556, r)), MODEL_SPEC).theta
    nmc = n * th.var(axis=0, ddof=1)
    acc = []
    for s in range(25):
        d = gen_dgp1(cfg, RngStream(9100, s))
        boot = pairs_bootstrap(d, MODEL_SPEC, "npcf", B=600,
                               seed=RngStream(9100, 1000 + s))
        acc.append(n * boot.draws.var(axis=0, ddof=1))
    ratios = np.mean(acc, axis=0) / nmc
    detail = ", ".join(f"{r:.3f}" for r in ratios)
    ok = bool(np.all(np.abs(ratios - 1.0) <= 0.20))
    assert _report("7-companion", ok,
                   f"mean ratios (const,x,z,rho): {detail} (within 20%)")


def test_acceptance_8_copula_mle_comparator():
    """Gaussian-copula ML comparator in the design its assumptions fit:
    bias within the reference band.  A failure here gates only the copula
    estimator, not the library."""
    cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1), delta=0.0,
                    rho=0.5)
    s = mc_run(cfg, ["gp_copula"], reps=500, B=0, master=RngStream(20250813))
    c = s.cell("gp_copula", "z")
    ok = abs(c.bias - (-0.021)) <= 0.06 and s.completed["gp_copula"] == 500
    assert _report("8", ok, f"bias {c.bias:+.4f} (-0.021±0.06), "
                            f"std {c.std:.3f}, completed {s.completed['gp_copula']}/500")


def test_acceptance_9_report_structure(tmp_path):
    """End-to-end fit on a user-style CSV: the report carries the
    side-by-side comparison fields (estimates, standard errors,
    t-statistics, correction coefficient, R^2, exogeneity test,
    identification diagnostic)."""
    import csv as _csv
    from endofix.cli import main

    cfg = DgpConfig("dgp1", n=300, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                    rho=0.5)
    d = gen_dgp1(cfg, RngStream(909))
    path = tmp_path / "user.csv"
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["wage", "exper", "educ"])
        w.writerows(zip(d.column("y"), d.column("x"), d.column("z")))
    out = tmp_path / "report.json"
    rc = main(["fit", "--data", str(path), "--outcome", "wage",
               "--exog", "exper", "--endog", "educ", "--estimator", "npcf",
               "--bootstrap", "99", "--seed", "17", "--out", str(out)])
    report = json.loads(out.read_text())
    need = all(
        report["estimates"][tag][field] is not None
        for tag in ("ols", "npcf")
        for field in ("coefficients", "se", "t_stats", "r_squared"))
    ok = (rc == 0 and need
          and "rho[educ]" in report["estimates"]["npcf"]["coefficients"]
          and "exogeneity" in report["tests"]
          and report["diagnostics"]["identification"][0]["column"] == "educ")
    assert _report("9", ok, "fit completed; comparison report has "
                            "estimate/se/t/R^2 blocks for both estimators")
