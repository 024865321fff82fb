import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammainc, gammaincinv, ndtr, ndtri

from endofix import simulation
from endofix.data import Dataset
from endofix.errors import DomainError
from endofix.numerics import DistSpec, RngStream
from endofix.simulation import (_DATA_KEY, _PCLIP_HI, _PCLIP_LO, MODEL_SPEC,
                                DgpConfig, _gamma_quantile, gen_dgp1,
                                gen_dgp2, generate, mc_run)
from endofix.transform import normal_scores


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
        from scipy.stats import rankdata
        cfg = DgpConfig("dgp2", n=100_000, e_dist=DistSpec.gamma(1, 1),
                        alpha=0.5, rho=0.0)
        d = gen_dgp2(cfg, RngStream(56))
        rx = rankdata(d.column("x"))
        rz = rankdata(d.column("z"))
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


class TestGammaQuantile:
    def test_shape_one_matches_gammaincinv(self):
        p = np.concatenate([[_PCLIP_LO, 0.5, _PCLIP_HI],
                            np.logspace(-20, -1, 200),
                            np.linspace(1e-6, 1.0 - 1e-6, 2001),
                            1.0 - np.logspace(-15, -1, 200)])
        want = gammaincinv(1.0, p)
        got = _gamma_quantile(1.0, p)
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_shape_one_exact_far_in_the_lower_tail(self):
        # the exponential quantile is p + p^2/2 + ..., which rounds to p
        # below 1e-20; gammaincinv(1, p) is up to about 3e-14 relative
        # off it for p between 1e-155 and 1e-56
        p = np.logspace(-300, -20, 500)
        assert np.array_equal(_gamma_quantile(1.0, p), p)

    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_other_shapes_call_gammaincinv(self, a):
        p = np.linspace(0.01, 0.99, 99)
        assert np.array_equal(_gamma_quantile(a, p), gammaincinv(a, p))


class TestGenDgp2Draws:
    """What gen_dgp2 draws, spelled out from its stream."""

    @staticmethod
    def _normals(cfg, seed):
        W = (RngStream(seed).generator().standard_normal((cfg.n, 3))
             @ np.linalg.cholesky(cfg.correlation_matrix()).T)
        return [np.clip(ndtr(W[:, j]), _PCLIP_LO, _PCLIP_HI)
                for j in (0, 1)]

    def test_gamma32_error_is_gammaincinv(self):
        cfg = DgpConfig("dgp2", n=500, e_dist=DistSpec.gamma(3, 2),
                        alpha=0.5, rho=0.5)
        pe, px = self._normals(cfg, 61)
        d = gen_dgp2(cfg, RngStream(61))
        assert np.array_equal(d.column("e_true"), gammaincinv(3.0, pe) / 2.0)
        assert np.array_equal(d.column("x"), -np.log1p(-px))

    def test_equal_configs_draw_equal_columns(self):
        # the Cholesky factor kept on a config carries nothing from one
        # config, or one repetition, to the next
        def make(alpha):
            return DgpConfig("dgp2", n=300, e_dist=DistSpec.gamma(1, 1),
                             alpha=alpha, rho=0.5)
        a, b = make(0.5), make(0.5)
        first = gen_dgp2(a, RngStream(62))
        gen_dgp2(make(-0.7), RngStream(62))
        for d in (gen_dgp2(b, RngStream(62)), gen_dgp2(a, RngStream(62))):
            for c in first.columns:
                assert np.array_equal(d.column(c), first.column(c))
        assert not a._chol.flags.writeable
        assert np.array_equal(a._chol,
                              np.linalg.cholesky(a.correlation_matrix()))


def _one_repetition(cfg, stream):
    """The five columns of one repetition, drawn from ``stream``'s own
    SeedSequence-seeded generator one repetition at a time, as the
    generators did before mc_run drew its chunks in one pass."""
    a, b = cfg.e_dist.params
    rng = stream.generator()

    def clip(p):
        return np.clip(p, _PCLIP_LO, _PCLIP_HI)

    def quantile(shape, p):
        return -np.log1p(-p) if shape == 1.0 else gammaincinv(shape, p)
    if cfg.kind == "dgp1":
        x = rng.gamma(1.0, 1.0, cfg.n)
        e = rng.gamma(a, 1.0 / b, cfg.n)
        eps = rng.standard_normal(cfg.n)
        eta = ndtri(clip(gammainc(a, b * e)))
        z = (cfg.delta * x + e) / math.sqrt(cfg.delta ** 2 + a / (b * b))
        u = cfg.rho * eta + eps
    else:
        W = (rng.standard_normal((cfg.n, 3))
             @ np.linalg.cholesky(cfg.correlation_matrix()).T)
        eta, u = W[:, 0], W[:, 2]
        e = quantile(a, clip(ndtr(eta))) / b
        x = quantile(1.0, clip(ndtr(W[:, 1])))
        z = e
    y = cfg.beta0 + cfg.beta1 * x + cfg.gamma * z + u
    return {"y": y, "x": x, "z": z, "eta_true": eta, "e_true": e}


_DESIGNS = [(kind, n, DistSpec.gamma(*g)) for kind in ("dgp1", "dgp2")
            for n in (120, 250) for g in ((1, 1), (3, 2))]


class TestStackedGenerator:
    """mc_run draws each chunk's repetitions in one pass; every column of
    every repetition equals that repetition drawn alone, bit for bit."""

    @pytest.mark.parametrize("kind,n,e_dist", _DESIGNS)
    @pytest.mark.parametrize("seed", [RngStream(5), RngStream(2 ** 40 + 3, 7)])
    def test_one_repetition_matches_reference(self, kind, n, e_dist, seed):
        cfg = DgpConfig(kind, n=n, e_dist=e_dist, delta=1.0, alpha=0.5,
                        rho=0.5)
        d = (gen_dgp1 if kind == "dgp1" else gen_dgp2)(cfg, seed)
        want = _one_repetition(cfg, seed)
        assert list(d.columns) == list(want)
        for c, v in want.items():
            assert np.array_equal(d.column(c), v)

    @pytest.mark.parametrize("kind,n,e_dist", _DESIGNS)
    @pytest.mark.parametrize("master", [RngStream(6), RngStream(2 ** 33, 5)])
    @pytest.mark.parametrize("chunk_reps", [None, 3])
    def test_mc_chunks_match_each_repetition(self, monkeypatch, kind, n,
                                             e_dist, master, chunk_reps):
        from endofix import inference

        cfg = DgpConfig(kind, n=n, e_dist=e_dist, delta=1.0, alpha=0.5,
                        rho=0.5)
        reps = 8
        if chunk_reps:
            # several chunks, the last one partial
            monkeypatch.setattr(inference, "_CHUNK_BYTES",
                                chunk_reps * 8 * n * 5)
        chunks = []
        original = simulation._generate

        def recorded(cfg_, words):
            chunks.append(original(cfg_, words))
            return chunks[-1]
        monkeypatch.setattr(simulation, "_generate", recorded)
        mc_run(cfg, ("ols",), reps=reps, B=0, master=master)
        sizes = [len(ch["y"]) for ch in chunks]
        assert sizes == ([3, 3, 2] if chunk_reps else [reps])
        for c in ("y", "x", "z", "eta_true", "e_true"):
            got = np.concatenate([ch[c] for ch in chunks])
            for r in range(reps):
                want = _one_repetition(cfg, master.child(r, _DATA_KEY))
                assert np.array_equal(got[r], want[c])


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

    @pytest.mark.parametrize("B", [0, 9])
    def test_bootstrap_streams_derived_only_for_bootstraps(self, B,
                                                          monkeypatch):
        calls = Counter()
        est_key = simulation._est_key

        def counting(tag):
            calls[tag] += 1
            return est_key(tag)
        monkeypatch.setattr(simulation, "_est_key", counting)
        cfg = DgpConfig("dgp2", n=60, e_dist=DistSpec.gamma(1, 1),
                        alpha=0.5, rho=0.5)
        mc_run(cfg, ["ols", "npcf", "gp_copula"], reps=4, B=B,
               master=RngStream(63))
        assert calls == ({} if B == 0 else {"npcf": 4, "gp_copula": 4})

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
        # _fragile is fitted by the scalar estimator and npcf by the
        # stacked engine, so _fragile's bias is checked against scalar
        # fit_npcf fits of the same repetitions
        zs = [fit_npcf(generate(cfg, RngStream(66).child(r, _DATA_KEY)),
                       MODEL_SPEC).coef("z") for r in range(4)]
        assert s.cell("_fragile", "z").bias == float(np.mean(zs) - 1.0)
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


_ALL_STACKED = ("ols", "npcf", "iv_internal", "two_scope", "gp_copula")


def _loop_mc(cfg, estimators, reps, B, master):
    """Reference for the stacked mc_run: generate each repetition and fit
    every estimator on it with the registered scalar estimator.

    Returns (draws {est: (completed, p) array}, failures, sizes
    {(est, coef): rejection rate or None})."""
    from endofix.estimators import ESTIMATORS
    from endofix.errors import EndofixError
    from endofix.inference import pairs_bootstrap
    from endofix.simulation import _Z975, _est_key

    truth = cfg.truth()
    draws = {est: [] for est in estimators}
    rejects = {est: [] for est in estimators}
    failures = {est: Counter() for est in estimators}
    errors = (EndofixError, np.linalg.LinAlgError)
    for r in range(reps):
        data = simulation.generate(cfg, master.child(r, _DATA_KEY))
        for est in estimators:
            try:
                fit = ESTIMATORS[est](data, MODEL_SPEC)
            except errors as exc:
                failures[est][type(exc).__name__] += 1
                continue
            draws[est].append(fit.theta)
            se = fit.se() if est == "ols" else None
            if est != "ols" and B >= 2:
                seed = master.child(r, _est_key(est))
                try:
                    se = pairs_bootstrap(data, MODEL_SPEC, est, B=B,
                                         seed=seed).se
                except errors as exc:
                    failures[est][type(exc).__name__] += 1
            if se is not None:
                rejects[est].append({c: abs(fit.coef(c) - truth[c])
                                     > _Z975 * se[fit.names.index(c)]
                                     for c in ("x", "z")})
    sizes = {(est, c): (float(np.mean([rej[c] for rej in rejects[est]]))
                        if rejects[est] else None)
             for est in estimators for c in ("x", "z")}
    return ({est: np.array(rows) for est, rows in draws.items()},
            {est: dict(kinds) for est, kinds in failures.items() if kinds},
            sizes)


def _degenerate_every_fifth(cfg, master, reps):
    """A chunk generator that replaces some repetitions by data the stacked
    engine must flag or rank as the scalar fit does.  rep % 5 == 1 gets
    x = 0, 1, 0, 1, ... and z = k + 2x, with each integer k once in each x
    group, so first-stage residuals of rows with different x tie in exact
    arithmetic, and rounding alone orders them: both paths must rank them
    as ties.  rep % 5 == 3 gets a constant x (rank failures in every
    estimator), and rep % 5 == 4 an outcome fitted exactly (the residual
    variance behind ols's standard errors and gp's rho is rounding
    noise).  rep % 5 == 0 gets an outcome that gp's design
    fits to within 1e-8, so its 1 - rho^2 rounds to 0.  Repetitions are
    told apart by their seed words, so mc_run's chunks and the scalar
    generate of each repetition get the same data."""
    original = simulation._generate
    rep_of = {w.tobytes(): r for r, w in
              enumerate(master.child_words(np.arange(reps), _DATA_KEY))}

    def patched(cfg_, words):
        cols = original(cfg_, words)
        for s, w in enumerate(words):
            r = rep_of[w.tobytes()]
            x, z, y = cols["x"][s], cols["z"][s], cols["y"][s]
            new = {}
            if r % 5 == 1:
                new["x"] = (np.arange(x.size) % 2).astype(float)
                new["z"] = (np.repeat(np.round(4.0 * z[::2]), 2)[:x.size]
                            + 2.0 * new["x"])
            elif r % 5 == 3:
                new["x"] = np.zeros_like(x)
            elif r % 5 == 4:
                new["y"] = 1.0 - x + z
            elif r % 5 == 0:
                new["y"] = (1.0 - x + z + normal_scores(z)
                            + 1e-8 * cols["eta_true"][s])
            for c, v in new.items():
                cols[c][s] = v
        return cols
    return patched


def _rep_loop_mc(cfg, estimators, reps, B, master, keep_draws):
    """Reference for mc_run's per-estimator arrays and its bootstraps in
    shared chunks: the same chunks' point fits by the unit-count engine,
    the scalar fit of each flagged repetition, and one pairs_bootstrap
    call per repetition, each reduced from per-repetition lists.

    Returns (cells, completed, failures, draws, scalar_refits) as
    McSummary holds them."""
    from endofix.estimators import ESTIMATORS, _names
    from endofix.errors import EndofixError, NonFiniteError
    from endofix.inference import (_STACKED, _chunk, _CountDesign,
                                   pairs_bootstrap)
    from endofix.simulation import _Z975, McCell, _est_key

    truth, tested = cfg.truth(), ("x", "z")
    errors = (EndofixError, np.linalg.LinAlgError)
    results = {est: [] for est in estimators}
    failures = {est: Counter() for est in estimators}
    refits = dict.fromkeys(estimators, 0)
    words = master.child_words(np.arange(reps), _DATA_KEY)
    chunk = _chunk(cfg.n, MODEL_SPEC)
    for lo in range(0, reps, chunk):
        cols = simulation._generate(cfg, words[lo:lo + chunk])
        for est in estimators:
            names = _names(MODEL_SPEC, est != "ols")
            S = len(cols["y"])
            fits = (_CountDesign(cols, MODEL_SPEC).fit(
                est, np.ones((S, 1, cfg.n))) if est in _STACKED else None)
            for s in range(S):
                data = simulation._repetition(cols, s)
                if fits is not None and fits[1][s]:
                    theta = fits[0][s]
                    se = fits[2][s] if est == "ols" else None
                else:
                    refits[est] += 1
                    try:
                        fit = ESTIMATORS[est](data, MODEL_SPEC)
                    except errors as exc:
                        failures[est][type(exc).__name__] += 1
                        continue
                    if not np.all(np.isfinite(fit.theta)):
                        failures[est][NonFiniteError.__name__] += 1
                        continue
                    theta = fit.theta
                    se = fit.se() if est == "ols" else None
                if est != "ols" and B >= 2:
                    try:
                        se = pairs_bootstrap(
                            data, MODEL_SPEC, est, B=B,
                            seed=master.child(lo + s, _est_key(est))).se
                    except errors as exc:
                        failures[est][type(exc).__name__] += 1
                rejects = None
                if se is not None:
                    rejects = [abs(theta[names.index(c)] - truth[c])
                               > _Z975 * float(se[names.index(c)])
                               for c in tested]
                results[est].append((names, theta, rejects))

    cells, completed, fails, draws = {}, {}, {}, {}
    for est in estimators:
        if failures[est]:
            fails[est] = dict(sorted(failures[est].items()))
        ok = results[est]
        completed[est] = len(ok)
        if not ok:
            continue
        names = ok[0][0]
        tested_ok = [r[2] for r in ok if r[2] is not None]
        if keep_draws:
            draws[est] = {c: [float(r[1][j]) for r in ok]
                          for j, c in enumerate(names)}
        for j, coef in enumerate(names):
            if coef not in truth:
                continue
            vals = np.array([r[1][j] for r in ok])
            bias = float(vals.mean() - truth[coef])
            std = float(vals.std(ddof=0))
            size = None
            if coef in tested and tested_ok:
                size = float(np.mean([rej[tested.index(coef)]
                                      for rej in tested_ok]))
            cells[(est, coef)] = McCell(
                bias=bias, std=std, rmse=math.sqrt(bias * bias + std * std),
                size=size)
    return cells, completed, fails, draws, refits


class TestStackedMcMatchesLoop:
    """mc_run, whose repetitions are fitted as stacks, against fitting
    every repetition with the registered scalar estimator."""

    @staticmethod
    def _setup(monkeypatch, kind, chunk_reps):
        """The design, with degenerate repetitions and a later-registered
        estimator (which has no stacked form): (cfg, master, reps,
        estimators)."""
        from endofix import inference
        from endofix.estimators import ESTIMATORS, fit_npcf

        cfg = DgpConfig(kind, n=120, e_dist=DistSpec.gamma(1, 1),
                        delta=1.0, alpha=0.5, rho=0.5)
        master, reps = RngStream(70), 15
        if chunk_reps:
            # several chunks, the last one partial
            monkeypatch.setattr(inference, "_CHUNK_BYTES",
                                chunk_reps * 8 * cfg.n * 5)
        monkeypatch.setattr(simulation, "_generate",
                            _degenerate_every_fifth(cfg, master, reps))
        monkeypatch.setitem(ESTIMATORS, "_later",
                            lambda data, spec: fit_npcf(data, spec))
        return cfg, master, reps, (*_ALL_STACKED, "_later")

    @pytest.mark.parametrize("chunk_reps", [None, 3])
    @pytest.mark.parametrize("B", [0, 9])
    @pytest.mark.parametrize("kind", ["dgp1", "dgp2"])
    def test_matches_scalar_loop(self, kind, B, chunk_reps, monkeypatch):
        cfg, master, reps, estimators = self._setup(monkeypatch, kind,
                                                    chunk_reps)
        s = mc_run(cfg, estimators, reps=reps, B=B, master=master,
                   keep_draws=True)
        draws, failures, sizes = _loop_mc(cfg, estimators, reps, B, master)
        assert s.failures == failures
        for est in estimators:
            assert s.completed[est] == len(draws[est])
            names = list(s.draws[est])
            got = np.array([s.draws[est][c] for c in names]).T
            assert got.shape == draws[est].shape
            scale = np.abs(draws[est]).max(axis=0)
            assert np.all(np.abs(got - draws[est]).max(axis=0)
                          <= 1e-12 * scale)
            for c in ("x", "z"):
                assert s.cell(est, c).size == sizes[est, c]
        # every flagged kind of repetition reached the scalar estimator
        assert s.scalar_refits["_later"] == reps
        assert s.scalar_refits["npcf"] >= 2 * (reps // 5)
        assert s.scalar_refits["gp_copula"] >= 3 * (reps // 5)
        assert s.scalar_refits["ols"] >= reps // 5
        assert s.failures["ols"] == {"RankDeficiencyError": reps // 5}

    @pytest.mark.parametrize("chunk_reps", [None, 3])
    @pytest.mark.parametrize("B", [0, 9])
    @pytest.mark.parametrize("kind", ["dgp1", "dgp2"])
    def test_arrays_equal_per_repetition_results(self, kind, B, chunk_reps,
                                                 monkeypatch):
        # the per-estimator arrays, and the bootstraps whose resamples
        # share chunks across repetitions, reduce to exactly what one
        # pairs_bootstrap call per repetition gives: equal floats, not
        # close ones
        cfg, master, reps, estimators = self._setup(monkeypatch, kind,
                                                    chunk_reps)
        for keep_draws in (True, False):
            s = mc_run(cfg, estimators, reps=reps, B=B, master=master,
                       keep_draws=keep_draws)
            cells, completed, failures, draws, refits = _rep_loop_mc(
                cfg, estimators, reps, B, master, keep_draws)
            assert s.cells == cells
            assert s.draws == (draws if keep_draws else None)
            assert s.failures == failures
            assert s.completed == completed
            assert s.scalar_refits == refits
            assert list(s.cells) == list(cells)


def test_stacked_paths_take_no_scalar_refits():
    # on the benchmark's simulate design no repetition and no resample may
    # fall back to the scalar estimators: a flag that fired on regular
    # data would switch the stacked path off unnoticed
    from endofix.inference import pairs_bootstrap

    cfg = DgpConfig("dgp2", n=250, e_dist=DistSpec.gamma(1, 1), alpha=0.5,
                    rho=0.5)
    s = mc_run(cfg, _ALL_STACKED, reps=40, B=0, master=RngStream(71))
    assert s.scalar_refits == dict.fromkeys(_ALL_STACKED, 0)
    data = generate(cfg, RngStream(72))
    for est in _ALL_STACKED[1:]:
        boot = pairs_bootstrap(data, MODEL_SPEC, est, B=99,
                               seed=RngStream(73))
        assert boot.scalar_refits == 0


@pytest.mark.parametrize("kind", ["dgp1", "dgp2"])
def test_point_fits_do_not_depend_on_the_chunk(kind):
    # a repetition's point fit reads its own columns only: in chunks of 1,
    # 3 or all repetitions its theta, flag and ols standard errors are
    # the same bits, the degenerate repetitions' too
    from endofix.inference import _STACKED, _CountDesign

    cfg = DgpConfig(kind, n=120, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                    alpha=0.5, rho=0.5)
    master, reps = RngStream(70), 15
    generate_chunk = _degenerate_every_fifth(cfg, master, reps)
    words = master.child_words(np.arange(reps), _DATA_KEY)

    def fits(size):
        chunks = []
        for lo in range(0, reps, size):
            cols = generate_chunk(cfg, words[lo:lo + size])
            design = _CountDesign(cols, MODEL_SPEC)
            ones = np.ones((len(cols["y"]), 1, cfg.n))
            chunks.append({est: design.fit(est, ones) for est in _STACKED})
        return {est: [np.concatenate([c[est][i] for c in chunks]).tobytes()
                      for i in range(3)] for est in _STACKED}

    want = fits(reps)
    for size in (1, 3):
        got = fits(size)
        for est in _STACKED:
            theta, ok, se = got[est]
            assert theta == want[est][0] and ok == want[est][1]
            if est == "ols":
                assert se == want[est][2]


def test_ols_standard_errors_are_the_classical_ones():
    # the unit-count engine's ols standard errors, from the inverse R
    # factor it assembles, are fit_ols's classical ones
    from endofix.estimators import fit_ols
    from endofix.inference import _chunk, _CountDesign

    cfg = DgpConfig("dgp2", n=250, e_dist=DistSpec.gamma(1, 1), alpha=0.5,
                    rho=0.5)
    reps = 40
    assert _chunk(cfg.n, MODEL_SPEC) >= reps
    cols = simulation._generate(
        cfg, RngStream(75).child_words(np.arange(reps), _DATA_KEY))
    _, ok, se = _CountDesign(cols, MODEL_SPEC).fit(
        "ols", np.ones((reps, 1, cfg.n)))
    assert ok.all()
    for s in range(reps):
        want = fit_ols(simulation._repetition(cols, s), MODEL_SPEC).se()
        assert np.all(np.abs(se[s] - want) <= 1e-12 * want)


def test_non_finite_point_estimates_are_counted_and_left_out(monkeypatch):
    # a fit whose coefficients overflow is a failed repetition: counted by
    # type, out of every cell, and its bootstrap is never run
    from endofix.estimators import ESTIMATORS, fit_npcf

    calls = Counter()

    def overflowing(data, spec):
        fit = fit_npcf(data, spec)
        calls["fits"] += 1
        if calls["fits"] % 3 == 1:
            fit.theta[1] = np.inf
        return fit

    monkeypatch.setitem(ESTIMATORS, "_overflowing", overflowing)
    cfg = DgpConfig("dgp1", n=80, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                    rho=0.5)
    s = mc_run(cfg, ("npcf", "_overflowing"), reps=6, B=0,
               master=RngStream(74), keep_draws=True)
    assert s.failures == {"_overflowing": {"NonFiniteError": 2}}
    assert s.completed == {"npcf": 6, "_overflowing": 4}
    kept = np.array(s.draws["_overflowing"]["x"])
    assert kept.size == 4 and np.isfinite(kept).all()
    assert s.cell("_overflowing", "x").bias == kept.mean() - cfg.truth()["x"]
    # the repetitions kept are the (stacked) npcf fits of the same data
    npcf = np.array(s.draws["npcf"]["x"])[[1, 2, 4, 5]]
    assert np.abs(kept - npcf).max() <= 1e-12 * np.abs(npcf).max()
