import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from endofix import inference
from endofix.copula_mle import gp_fit
from endofix.data import Dataset
from endofix.errors import (BootstrapError, ConstantInputError, DataError,
                            DomainError, IdentificationError,
                            NonFiniteError, RankDeficiencyError)
from endofix.estimators import ESTIMATORS, ModelSpec, _design, fit_npcf
from endofix.inference import (_BOOT_KEY, _CHUNK_BYTES, _chunk,
                               _resample_rows,
                               exogeneity_test,
                               exogeneity_test_of_fit,
                               identification_diagnostic, pairs_bootstrap)
from endofix.numerics import DistSpec, RngStream, sample, words_generator
from endofix.regress import _lstsq
from endofix.simulation import (MODEL_SPEC, DgpConfig, gen_dgp1, generate,
                                mc_run)
from endofix.transform import (TIE_RTOL, _counted_scores, _half_rank_scores,
                               _scores, _sort_rows, first_stage, normal_scores)


class TestPairsBootstrap:
    def test_rejects_single_replication(self, dgp1_small):
        with pytest.raises(BootstrapError):
            pairs_bootstrap(dgp1_small, MODEL_SPEC, "npcf", B=1)

    def test_bitwise_reproducible(self, dgp1_small):
        a = pairs_bootstrap(dgp1_small, MODEL_SPEC, "npcf", B=25,
                            seed=RngStream(7))
        b = pairs_bootstrap(dgp1_small, MODEL_SPEC, "npcf", B=25,
                            seed=RngStream(7))
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.se, b.se)

    def test_se_matches_reference_band(self):
        # uncorrelated design with moderate endogeneity: the bootstrap
        # standard error of the endogenous coefficient sits near the Monte
        # Carlo dispersion 0.16 (within 25%)
        cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.5)
        d = gen_dgp1(cfg, RngStream(41))
        boot = pairs_bootstrap(d, MODEL_SPEC, "npcf", B=199,
                               seed=RngStream(42))
        assert 0.12 <= boot.se_of("z") <= 0.20

    def test_exchangeable_aggregation(self, dgp1_small):
        boot = pairs_bootstrap(dgp1_small, MODEL_SPEC, "npcf", B=40,
                               seed=RngStream(8))
        perm = np.random.default_rng(0).permutation(boot.draws.shape[0])
        shuffled = boot.draws[perm]
        assert shuffled.std(axis=0, ddof=1) == pytest.approx(boot.se)
        ci = np.quantile(shuffled, [boot.level / 2, 1 - boot.level / 2], axis=0)
        assert ci == pytest.approx(boot.percentile_ci)

    def test_percentile_ci_ordered_and_centered(self, dgp1_small):
        boot = pairs_bootstrap(dgp1_small, MODEL_SPEC, "npcf", B=99,
                               seed=RngStream(9))
        assert np.all(boot.percentile_ci[0] <= boot.percentile_ci[1])
        fit = fit_npcf(dgp1_small, MODEL_SPEC)
        inside = ((boot.percentile_ci[0] <= fit.theta)
                  & (fit.theta <= boot.percentile_ci[1]))
        assert inside.all()

    def test_unknown_estimator_rejected(self, dgp1_small):
        with pytest.raises(DataError):
            pairs_bootstrap(dgp1_small, MODEL_SPEC, "ols", B=10)

    def test_iv_internal_matches_npcf_draws(self, dgp1_small):
        a = pairs_bootstrap(dgp1_small, MODEL_SPEC, "npcf", B=20,
                            seed=RngStream(10))
        b = pairs_bootstrap(dgp1_small, MODEL_SPEC, "iv_internal", B=20,
                            seed=RngStream(10))
        assert np.abs(a.draws - b.draws).max() <= 1e-9

    def test_copula_needs_one_endogenous_column(self, dgp1_small):
        d = Dataset({**dgp1_small.columns, "z2": dgp1_small.column("e_true")})
        with pytest.raises(DataError, match="single endogenous"):
            pairs_bootstrap(d, ModelSpec("y", ("x",), ("z", "z2")),
                            "gp_copula", B=10)

    def test_non_finite_column_rejected(self, dgp1_small):
        for column in ("y", "x", "z"):
            v = dgp1_small.column(column).copy()
            v[17] = np.nan
            d = Dataset({**dgp1_small.columns, column: v})
            for est in ("npcf", "iv_internal", "two_scope", "gp_copula"):
                with pytest.raises(DomainError, match=repr(column)):
                    pairs_bootstrap(d, MODEL_SPEC, est, B=10)


def _loop_bootstrap(data, spec, B, seed, estimator="npcf"):
    """Reference for the stacked bootstrap: refit every resample with the
    registered scalar estimator, on the same per-resample streams."""
    rows, failures = [], {}
    for b in range(B):
        rng = seed.child(_BOOT_KEY, b).generator()
        try:
            rows.append(ESTIMATORS[estimator](
                data.take(rng.integers(0, data.n, size=data.n)), spec).theta)
        except (RankDeficiencyError, ConstantInputError,
                IdentificationError) as exc:
            kind = type(exc).__name__
            failures[kind] = failures.get(kind, 0) + 1
    n_failed = sum(failures.values())
    if n_failed > 0.01 * B:
        raise BootstrapError(f"{n_failed} of {B} resamples failed")
    return np.asarray(rows), failures


def _assert_matches_loop(data, spec, B, seed, estimator="npcf"):
    try:
        want, want_failures = _loop_bootstrap(data, spec, B, seed, estimator)
    except BootstrapError:
        with pytest.raises(BootstrapError):
            pairs_bootstrap(data, spec, estimator, B=B, seed=seed)
        return None
    got = pairs_bootstrap(data, spec, estimator, B=B, seed=seed)
    assert got.failures == want_failures
    assert got.n_failed == sum(want_failures.values())
    assert got.scalar_refits >= got.n_failed
    assert got.draws.shape == want.shape
    scale = np.abs(want).max(axis=0)
    assert np.all(np.abs(got.draws - want).max(axis=0) <= 1e-12 * scale)
    return got


def _endogenous_design(rng, n):
    x = rng.gamma(1.0, 1.0, n)
    e = rng.gamma(1.0, 1.0, n)
    z = x + e
    y = 1.0 - x + z + 0.5 * (e - 1.0) + rng.standard_normal(n)
    return x, e, z, y


def _stable_rank_rows(rows, mag=None):
    """Average ranks from a stable sort with the runs written out: the
    reference for the unstable one.  Returns (ranks, runs), runs marking
    the sorted positions that start a run."""
    n = rows.shape[1]
    order = np.argsort(rows, axis=1, kind="stable")
    order += n * np.arange(rows.shape[0])[:, None]
    gaps = np.diff(rows.ravel()[order], axis=1)
    new_run = np.ones(rows.shape, dtype=bool)
    new_run[:, 1:] = (gaps != 0.0 if mag is None
                      else gaps > TIE_RTOL * mag[:, None])
    starts = np.flatnonzero(new_run)
    counts = np.append(starts[1:], rows.size) - starts
    ranks = np.empty(rows.size, dtype=np.float64)
    ranks[order.ravel()] = np.repeat(0.5 * (2 * (starts % n) + counts + 1),
                                     counts)
    return ranks.reshape(rows.shape), new_run


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 400), B=st.integers(1, 4), levels=st.integers(1, 6),
       jitter=st.booleans(), tolerant=st.booleans(),
       stack=st.sampled_from(["tied", "untied", "mixed"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rank_order_within_ties_changes_nothing(n, B, levels, jitter,
                                                tolerant, stack, seed):
    # integer z with a binary x, resampled with duplicates: residual runs
    # tie exactly within one data row, across rows of equal (x, z) and
    # across rows of different (x, z); jitter moves residuals a few ulps,
    # as rounding does.  An untied row holds continuous draws instead; a
    # mixed stack holds both kinds of row.  Exact and tolerant runs of
    # the unstable sort equal those of the stable one.
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n).astype(np.float64)
    z = rng.integers(0, levels, n) + x
    resid = z - 2.0 * x
    exact = resid.copy()
    if jitter:
        resid *= 1.0 + 1e-15 * rng.integers(0, 3, n)
    idx = rng.integers(0, n, (B, n))
    E, E_exact = resid[idx], exact[idx]
    if stack != "tied":
        untied = (np.ones(B, dtype=bool) if stack == "untied"
                  else np.arange(B) % 2 == 0)
        E[untied] = E_exact[untied] = rng.standard_normal(
            (np.count_nonzero(untied), n))
    mag = np.abs(E).max(axis=1) + 1.0 if tolerant else None
    order, runs = _sort_rows(E, mag)
    if stack == "untied":
        assert runs is None                     # the untied path runs
    want, want_runs = _stable_rank_rows(E, mag)
    assert np.array_equal(np.ones(E.shape, bool) if runs is None else runs,
                          want_runs)
    assert np.array_equal(E.ravel()[order], np.sort(E, axis=1))
    # the table is strictly increasing, so equal scores mean equal ranks
    want_scores = _half_rank_scores(n)[(2 * want - 2).astype(int)]
    scores = np.empty(E.size)
    scores[order.ravel()] = _counted_scores(np.ones(E.shape), runs).ravel()
    assert scores.tobytes() == want_scores.tobytes()
    for e, m, w in zip(E, [None] * B if mag is None else mag, want_scores):
        assert _scores(e, m).tobytes() == w.tobytes()
    if tolerant:
        # the jitter is far inside the tolerance and the gaps between
        # levels far outside it, so the ranks are those of exact ties
        assert np.array([_scores(e) for e in E_exact]).tobytes() == (
            want_scores.tobytes())


class TestResampleStreams:
    """Resample b draws its rows from seed.child(_BOOT_KEY, b), however
    the seed words of all resamples are hashed."""

    @pytest.mark.parametrize("estimator", ["npcf", "iv_internal"])
    @pytest.mark.parametrize("B,n,seed", [(2, 30, RngStream(0)),
                                          (17, 57, RngStream(7, 3)),
                                          (40, 250, RngStream(2 ** 40 + 1))])
    def test_rows_equal_per_resample_streams(self, monkeypatch, estimator,
                                             B, n, seed):
        rng = np.random.default_rng(n)
        x, _, z, y = _endogenous_design(rng, n)
        chunks, refits = [], []
        chunk, resample = inference._resample_chunk, inference._resample_rows

        def recorded_chunk(words, n):
            rows = chunk(words, n)
            chunks.extend(zip(words, rows))
            return rows

        def recorded(words, n):
            refits.append((words, resample(words, n)))
            return refits[-1][1]
        monkeypatch.setattr(inference, "_resample_chunk", recorded_chunk)
        monkeypatch.setattr(inference, "_resample_rows", recorded)
        boot = pairs_bootstrap(Dataset({"y": y, "x": x, "z": z}), MODEL_SPEC,
                               estimator, B=B, seed=seed)
        # the stacked path draws resamples 0..B-1 in order, a chunk at a
        # time, then redraws the ones it refits; iv_internal refits all of
        # them, in order.  No row of these chunks needs the exact redraw,
        # which would call _resample_rows too.
        stacked = B if estimator in inference._STACKED else 0
        assert len(chunks) == stacked
        assert len(refits) == boot.scalar_refits
        children = [seed.child(_BOOT_KEY, b) for b in range(B)]
        want = {c.words().tobytes(): c.generator().integers(0, n, size=n)
                for c in children}
        for words, rows in chunks + refits:
            assert np.array_equal(rows, want[words.tobytes()])
        order = [w.tobytes() for w, _ in (chunks if stacked else refits)]
        assert order == list(want)

    def test_words_of_many_seeds_in_one_pass(self):
        # mc_run bootstraps a chunk of repetitions, each from a child of
        # one master: their words are hashed in one pass, and a seed of
        # another root apart, in order
        master = RngStream(2 ** 40 + 1, 3)
        seeds = ([master.child(r, 7) for r in range(5)]
                 + [RngStream(9), master.child(99), RngStream(0)])
        want = np.concatenate([s.child_words(_BOOT_KEY, np.arange(13))
                               for s in seeds])
        assert np.array_equal(inference._boot_words(seeds, 13), want)

    # npcf draws of the stacked bootstrap as each resample built its own
    # SeedSequence: n=60, B=4, one seed of one 32-bit word and one of two
    _PARENT_DRAWS = {
        RngStream(3): [
            ["0x1.7507903688e56p-3", "-0x1.34c6a22cb23d2p+0",
             "0x1.6644182a2e0e9p+0", "-0x1.0e52023688a6ap-5"],
            ["0x1.b75834700e385p-3", "-0x1.17a7020ec6a7fp+0",
             "0x1.74d9dc39a3678p+0", "-0x1.efcbbae837bb8p-4"],
            ["0x1.d40969a618ff2p-5", "-0x1.4376a24967bf5p+0",
             "0x1.6b1eb29d311a1p+0", "-0x1.1dc29d25f12abp-2"],
            ["-0x1.743756c6971cdp-5", "-0x1.6aef3fcade612p+0",
             "0x1.94a86f8d29c58p+0", "-0x1.f165225b0937dp-3"]],
        RngStream(2 ** 40 + 1, 9): [
            ["-0x1.2013a78e1c6b7p-2", "-0x1.16687d6b626d9p+0",
             "0x1.68503c61d1a78p+0", "0x1.0fc644bf5a4d8p-4"],
            ["0x1.45932f21cd354p-3", "-0x1.e0e76dfa9e477p-1",
             "0x1.351e41ec116a8p+0", "0x1.e48b8c3009009p-5"],
            ["0x1.1bf915f739ee4p-2", "-0x1.0c1d0f1f7bad7p+0",
             "0x1.57325f3e2438cp+0", "0x1.7a3839a4a3924p-4"],
            ["0x1.d4d4263cac6f0p-5", "-0x1.f5f5ff770f9f0p-1",
             "0x1.506e61a3641b2p+0", "0x1.032a595e04bbbp-5"]],
    }

    @pytest.mark.parametrize("seed", list(_PARENT_DRAWS))
    def test_stacked_npcf_draws_unchanged(self, seed):
        # the resamples are fitted as row counts now, which moves the draws
        # by rounding; other rows would move them by far more
        x, _, z, y = _endogenous_design(np.random.default_rng(7), 60)
        boot = pairs_bootstrap(Dataset({"y": y, "x": x, "z": z}), MODEL_SPEC,
                               "npcf", B=4, seed=seed)
        want = np.array([[float.fromhex(v) for v in row]
                         for row in self._PARENT_DRAWS[seed]])
        assert boot.scalar_refits == 0
        scale = np.abs(want).max(axis=0)
        assert np.all(np.abs(boot.draws - want) <= 1e-12 * scale)


def _reference_rows(words, n, size=None):
    return np.array([words_generator(w).integers(0, n, size=size or n)
                     for w in words]).reshape(len(words), size or n)


class TestResampleChunk:
    """The chunk sampler draws each resample's rows as numpy's
    Generator.integers(0, n, size=n) of that resample's own stream."""

    @pytest.mark.parametrize("n,S", [(2, 40), (3, 40), (5, 40), (57, 40),
                                     (250, 60), (1001, 20), (65_537, 6),
                                     (200_000, 3), (1_000_003, 2)])
    def test_rows_equal_generator_integers(self, n, S):
        words = RngStream(n).child_words(_BOOT_KEY, np.arange(S))
        got = inference._resample_chunk(words, n)
        assert got.dtype == np.int64 and got.shape == (S, n)
        assert np.array_equal(got, _reference_rows(words, n))
        # at n = 10^6 numpy rejects about 220 draws per row; the block
        # pass follows them without the exact redraw
        assert inference._bounded_draws(words, n, n)[1].all()

    @pytest.mark.parametrize("size", [2, 3, 8])
    def test_rejections_near_two_to_the_31(self, size):
        # for n just above 2^31 numpy rejects almost half of its draws:
        # the rows whose rejections outrun the spare draws are not exact,
        # and every other row equals numpy's
        n = 2 ** 31 + 1
        words = RngStream(3).child_words(_BOOT_KEY, np.arange(8000))
        rows, exact = inference._bounded_draws(words, n, size)
        assert 0 < np.count_nonzero(~exact) < 40
        assert np.array_equal(rows[exact],
                              _reference_rows(words[exact], n, size))

    def test_rows_not_exact_are_redrawn(self, monkeypatch):
        n = 250
        words = RngStream(4).child_words(_BOOT_KEY, np.arange(30))
        bounded, resample = inference._bounded_draws, inference._resample_rows
        redrawn = []

        def two_inexact(words_, n_, size):
            rows, exact = bounded(words_, n_, size)
            rows[[3, 17]] = -1
            exact[[3, 17]] = False
            return rows, exact

        def recorded(w, n_):
            redrawn.append(w.tobytes())
            return resample(w, n_)
        monkeypatch.setattr(inference, "_bounded_draws", two_inexact)
        monkeypatch.setattr(inference, "_resample_rows", recorded)
        got = inference._resample_chunk(words, n)
        assert np.array_equal(got, _reference_rows(words, n))
        assert redrawn == [words[3].tobytes(), words[17].tobytes()]

    def test_range_of_one_row(self):
        # outside 2 <= n < 2^32 every row is redrawn exactly
        words = RngStream(5).child_words(_BOOT_KEY, np.arange(3))
        assert not inference._bounded_draws(words, 1, 1)[1].any()
        assert np.array_equal(inference._resample_chunk(words, 1),
                              np.zeros((3, 1), dtype=np.int64))

    @pytest.mark.parametrize("n,B,exog", [(250, 999, ("x",)),
                                          (200_000, 9, ("x", "x^2"))])
    def test_benchmark_designs_need_no_exact_redraw(self, n, B, exog):
        # the fit-boot and fit-large resamples, in the chunks the
        # bootstrap draws: a redraw that fired on every row would keep the
        # rows exact but switch the block pass off unnoticed.  (mc_run's
        # chunk generator has no redraw.)
        words = RngStream(101).child_words(_BOOT_KEY, np.arange(B))
        chunk = _chunk(n, ModelSpec("y", exog, ("z",)))
        for lo in range(0, B, chunk):
            assert inference._bounded_draws(words[lo:lo + chunk], n,
                                            n)[1].all()


class TestStackedBootstrapMemory:
    def test_peak_of_one_resample_chunk(self):
        # at large n a chunk is one resample, fitted from its row counts
        # with products over blocks of rows: no gathered design and no
        # per-row outer products, so the high-water mark stays within 6.4
        # n-long float columns (measured 5.4; 18 with gathered designs)
        n = 50_000
        rng = np.random.default_rng(99)
        x, _, z, y = _endogenous_design(rng, n)
        d = Dataset({"y": y + 0.2 * x ** 2, "x": x, "x^2": x ** 2, "z": z})
        spec = ModelSpec("y", ("x", "x^2"), ("z",))
        assert _CHUNK_BYTES < 8 * n * (spec.k + 2 * spec.m + 1)
        tracemalloc.start()
        try:
            boot = pairs_bootstrap(d, spec, "npcf", B=3, seed=RngStream(100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert boot.n_failed == 0
        assert peak <= 6.4 * n * 8

    def test_peak_of_full_small_n_chunks(self, dgp1_small):
        # at small n a chunk holds _chunk(n, spec) resamples, fitted from
        # their counts: the high-water mark stays within 6.8 n-long float
        # columns per resample of a chunk (measured 5.8; 7.7 before the
        # chunk's dead arrays were dropped early)
        n = dgp1_small.n
        chunk = _chunk(n, MODEL_SPEC)
        assert 1 < chunk < 999
        tracemalloc.start()
        try:
            boot = pairs_bootstrap(dgp1_small, MODEL_SPEC, "npcf", B=999,
                                   seed=RngStream(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert boot.n_failed == 0
        assert peak <= 6.8 * n * 8 * chunk

    # traced peak of one chunk in MB: measured 2.76, 2.96, 3.35 and 3.15,
    # with a margin of about 3% and never above the 2.84, 3.26, 3.43 and
    # 3.26 of the stacked QR fits the unit counts replaced
    @pytest.mark.parametrize("estimator,bound", [
        ("ols", 2.84), ("npcf", 3.05), ("two_scope", 3.43),
        ("gp_copula", 3.24)])
    def test_peak_of_one_monte_carlo_chunk(self, estimator, bound):
        # one mc_run chunk of 100 dgp2 repetitions at n = 250: the chunk's
        # columns, its design and the estimator's fit of unit counts
        cfg = DgpConfig("dgp2", n=250, e_dist=DistSpec.gamma(1, 1),
                        alpha=0.5, rho=0.5)
        assert _chunk(cfg.n, MODEL_SPEC) >= 100
        mc_run(cfg, (estimator,), 2, 0, RngStream(1))
        tracemalloc.start()
        try:
            s = mc_run(cfg, (estimator,), 100, 0, RngStream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.scalar_refits[estimator] == 0
        assert peak <= bound * 1e6

    # traced peak of a bootstrapped mc_run in MB, with a margin of about
    # 10% over the measured 3.62, 6.98 and 24.9.  Hashing the seed words
    # of all S x B resamples at once (about 173 B each while hashed:
    # 30 000 at n = 60) and fitting each dataset in chunks of its own read
    # 5.79, 6.09 and 40.6; the B = 19 bound is that 6.09 plus one 2 MiB
    # chunk, which holds the resamples of 11 datasets
    @pytest.mark.parametrize("n,reps,B,bound", [
        (60, 100, 300, 4.0), (250, 209, 19, 8.2),
        pytest.param(250, 209, 999, 28.0, marks=pytest.mark.slow)])
    def test_peak_of_a_bootstrapped_monte_carlo_run(self, n, reps, B, bound):
        cfg = DgpConfig("dgp1", n=n, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                        rho=0.5)
        assert reps <= _chunk(n, MODEL_SPEC)
        mc_run(cfg, ("npcf",), 2, 2, RngStream(1))
        tracemalloc.start()
        try:
            s = mc_run(cfg, ("npcf",), reps, B, RngStream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.scalar_refits["npcf"] == 0 and not s.failures
        assert peak <= bound * 1e6


class TestStackedBootstrapMatchesLoop:
    """The stacked bootstrap against refitting every resample."""

    def test_untied_dgp1(self, dgp1_small):
        _assert_matches_loop(dgp1_small, MODEL_SPEC, 199, RngStream(90))

    def test_square_term(self):
        rng = np.random.default_rng(91)
        x, _, z, y = _endogenous_design(rng, 300)
        d = Dataset({"y": y + 0.2 * x ** 2, "x": x, "x^2": x ** 2, "z": z})
        _assert_matches_loop(d, ModelSpec("y", ("x", "x^2"), ("z",)), 99,
                             RngStream(92))

    def test_two_endogenous_columns(self):
        rng = np.random.default_rng(93)
        x, _, z, y = _endogenous_design(rng, 300)
        z2 = 0.5 * x + rng.gamma(3.0, 0.5, 300)
        d = Dataset({"y": y + z2, "x": x, "z": z, "z2": z2})
        _assert_matches_loop(d, ModelSpec("y", ("x",), ("z", "z2")), 99,
                             RngStream(94))

    def test_exact_ties(self):
        # integer z with a binary x: every resample's residuals fall into
        # tied runs of odd and even length, so the half-integer ranks and
        # the ndtri branch of the scores are exercised
        rng = np.random.default_rng(95)
        n = 300
        x = rng.integers(0, 2, n).astype(float)
        z = rng.integers(0, 6, n) + x
        y = 1.0 + x + z + rng.standard_normal(n)
        d = Dataset({"y": y, "x": x, "z": z})
        e = fit_npcf(d, MODEL_SPEC).first_stage.e_hat[:, 0]
        _, runs = _sort_rows(e[None, :], np.abs(z).max() + np.abs(e).max())
        assert runs is not None
        # a run of even length: a half-integer rank
        assert np.any(np.diff(np.append(np.flatnonzero(runs), n)) % 2 == 0)
        _assert_matches_loop(d, MODEL_SPEC, 199, RngStream(96))

    @pytest.mark.parametrize("seed", [1, 3, 6, 7])
    def test_tied_groups_take_no_scalar_refits(self, tied_groups, seed):
        # each of these seeds draws resamples whose group means of z differ
        # by an integer, so their residuals tie across the two x groups in
        # exact arithmetic only: both paths rank them as ties, so the draws
        # agree and no resample is refitted for a tie
        got = _assert_matches_loop(tied_groups(seed), MODEL_SPEC, 199,
                                   RngStream(seed))
        assert got.scalar_refits == got.n_failed

    def test_one_resample_per_chunk(self, dgp1_small, monkeypatch):
        # one resample per chunk, as at large n, where each chunk frees
        # its temporaries before the next
        monkeypatch.setattr(inference, "_CHUNK_BYTES", 1)
        _assert_matches_loop(dgp1_small, MODEL_SPEC, 99, RngStream(90))
        rng = np.random.default_rng(95)
        x = rng.integers(0, 2, 300).astype(float)
        z = rng.integers(0, 6, 300) + x
        d = Dataset({"y": 1.0 + x + z + rng.standard_normal(300), "x": x,
                     "z": z})
        _assert_matches_loop(d, MODEL_SPEC, 99, RngStream(96))

    @pytest.mark.parametrize("estimator", ["npcf", "iv_internal",
                                           "two_scope", "gp_copula"])
    def test_draws_do_not_depend_on_the_chunk(self, dgp1_small, monkeypatch,
                                              estimator):
        # a resample's fit reads its own counts only: one resample per
        # chunk gives the draws of the default chunks to rounding, and
        # the same failures and refits
        rng = np.random.default_rng(95)
        x = rng.integers(0, 2, 300).astype(float)
        z = rng.integers(0, 6, 300) + x
        tied = Dataset({"y": 1.0 + x + z + rng.standard_normal(300), "x": x,
                        "z": z})
        for d in (dgp1_small, tied):
            assert 1 < _chunk(d.n, MODEL_SPEC) < 250
            want = pairs_bootstrap(d, MODEL_SPEC, estimator, B=250,
                                   seed=RngStream(17))
            with monkeypatch.context() as m:
                m.setattr(inference, "_CHUNK_BYTES", 1)
                got = pairs_bootstrap(d, MODEL_SPEC, estimator, B=250,
                                      seed=RngStream(17))
            assert got.n_failed == want.n_failed
            assert got.failures == want.failures
            assert got.scalar_refits == want.scalar_refits
            scale = np.abs(want.draws).max(axis=0)
            assert np.all(np.abs(got.draws - want.draws) <= 1e-13 * scale)

    def test_undrawn_row_links_no_tie(self):
        # z is 0.5, 0.5 + g and 0.5 + 2g on three rows, where g lies
        # between a half and the whole of TIE_RTOL * mag for every
        # resample (many rows hold z = +-1, so mag = max|z| + max|e| stays
        # near 2): a resample that draws the outer two rows but not the
        # middle one must not tie them through it, as the refit of its
        # rows alone does not
        rng = np.random.default_rng(12)
        n = 120
        z = np.concatenate([np.repeat([-1.0, 1.0], 25),
                            rng.uniform(-0.9, 0.4, n - 53)])
        g = 1.5 * TIE_RTOL
        z = np.concatenate([z, 0.5 + g * np.arange(3)])
        y = 1.0 + z + rng.standard_normal(n)
        d = Dataset({"y": y, "z": z})
        spec = ModelSpec("y", (), ("z",))
        seed, B = RngStream(13), 99
        rows = [_resample_rows(seed.child(_BOOT_KEY, b).words()[0], n)
                for b in range(B)]
        outer = [set(r) >= {n - 3, n - 1} and n - 2 not in r for r in rows]
        assert sum(outer) >= 5
        got = _assert_matches_loop(d, spec, B, seed)
        assert got.scalar_refits == 0

    def test_copies_of_a_row_tie_in_a_cancelling_first_stage(self):
        # x and w = x + 6.7e-5 noise: the first stage cancels (delta near
        # +-2.5e3), and residuals formed as b - V @ coef round copies of
        # one row apart by more than the tie tolerance, so fit_npcf ranked
        # them apart while the engine tied them (2.3e-2 apart on resample
        # 11)
        SEED = 783041386
        rng = np.random.default_rng(SEED)
        n = int(rng.integers(30, 120))
        rng.choice(["a", "b", "c", "d", "e"])
        x, e = rng.gamma(1.0, 1.0, n), rng.gamma(1.0, 1.0, n)
        eps = 10 ** rng.uniform(-12, -3)
        w = x + eps * rng.standard_normal(n)
        z = x + e
        y = 1.0 - x + z + 0.5 * (e - 1.0) + rng.standard_normal(n)
        d = Dataset({"y": y, "x": x, "w": w, "z": z})
        spec = ModelSpec("y", ("x", "w"), ("z",))
        seed = RngStream(SEED)
        boot = pairs_bootstrap(d, spec, "npcf", B=20, seed=seed)
        assert (boot.scalar_refits, boot.n_failed) == (0, 0)
        rows = _resample_rows(seed.child(_BOOT_KEY, 11).words()[0], n)
        fit = fit_npcf(d.take(rows), spec)
        _, copy_of, counts = np.unique(rows, return_inverse=True,
                                       return_counts=True)
        assert np.sum(counts > 1) > 0
        for r in np.flatnonzero(counts > 1):
            copies = copy_of == r
            for col in (fit.first_stage.e_hat, fit.first_stage.eta_hat):
                assert np.unique(col[copies, 0]).size == 1
        assert np.all(np.abs(boot.draws[11] - fit.theta)
                      <= 1e-10 * np.abs(fit.theta))

    def test_near_collinear_design_fails_as_the_loop(self):
        # a column equal to another plus 1e-11 noise: every resample's
        # design is flagged, refitted, and fails as the scalar fit does
        rng = np.random.default_rng(14)
        x, _, z, y = _endogenous_design(rng, 200)
        d = Dataset({"y": y, "x": x, "x2": x + 1e-11 * rng.standard_normal(200),
                     "z": z})
        spec = ModelSpec("y", ("x", "x2"), ("z",))
        rows = _resample_rows(RngStream(15).child(_BOOT_KEY, 0).words()[0],
                              200)
        for estimator in ("npcf", "iv_internal", "two_scope", "gp_copula"):
            with pytest.raises(RankDeficiencyError):
                ESTIMATORS[estimator](d.take(rows), spec)
            with pytest.raises(BootstrapError, match="20 of 20"):
                _loop_bootstrap(d, spec, 20, RngStream(15), estimator)
            with pytest.raises(BootstrapError, match=r"20 of 20 .*\{'"
                               r"RankDeficiencyError': 20\}"):
                pairs_bootstrap(d, spec, estimator, B=20, seed=RngStream(15))

    @pytest.mark.parametrize("estimator", ["npcf", "two_scope",
                                           "gp_copula"])
    def test_rows_in_blocks(self, dgp1_small, monkeypatch, estimator):
        # at large n the products over the data rows run a block of rows
        # at a time, recomputing the blocks of Q = D R0^-1
        monkeypatch.setattr(inference, "_ROW_BLOCK", 40)
        monkeypatch.setattr(inference, "_CHUNK_BYTES", 1)
        _assert_matches_loop(dgp1_small, MODEL_SPEC, 49, RngStream(90),
                             estimator)
        if estimator == "gp_copula":
            return
        # two endogenous columns, and for npcf a squared regressor; the
        # scores of x and x^2 coincide, so two_scope takes another one
        rng = np.random.default_rng(93)
        x, _, z, y = _endogenous_design(rng, 300)
        z2 = 0.5 * x + rng.gamma(3.0, 0.5, 300)
        w = x ** 2 if estimator == "npcf" else rng.standard_normal(300)
        d = Dataset({"y": y + z2 + 0.2 * w, "x": x, "w": w, "z": z,
                     "z2": z2})
        got = _assert_matches_loop(d, ModelSpec("y", ("x", "w"),
                                                ("z", "z2")),
                                   49, RngStream(94), estimator)
        assert got.scalar_refits == 0

    def test_two_scope_drops_exogenous_columns_that_score_alike(
            self, dgp1_small):
        # x >= 0, so x and x^2 have equal scores under any counts: the
        # engine keeps one of them in the scored block, as fit_two_scope
        # does, and refits no resample
        rng = np.random.default_rng(93)
        x, _, z, y = _endogenous_design(rng, 300)
        d = Dataset({"y": y, "x": x, "w": rng.standard_normal(300),
                     "x2": x ** 2, "z": z})
        spec = ModelSpec("y", ("x", "w", "x2"), ("z",))
        got = _assert_matches_loop(d, spec, 49, RngStream(94), "two_scope")
        assert got.scalar_refits == 0
        assert inference._CountDesign(d.columns,
                                      spec)._scored_exogenous == [0, 1]
        # with one exogenous column nothing is compared or sorted
        design = inference._CountDesign(dgp1_small.columns, MODEL_SPEC)
        assert design._scored_exogenous == [0]
        assert design._sorts == {}

    def test_rare_dummy_rank_failures(self):
        # a dummy with five ones is all zero in about 0.7% of resamples;
        # those fail in both paths and are dropped within the 1% budget
        rng = np.random.default_rng(97)
        x, _, z, y = _endogenous_design(rng, 300)
        dummy = np.zeros(300)
        dummy[:5] = 1.0
        d = Dataset({"y": y + dummy, "x": x, "d": dummy, "z": z})
        got = _assert_matches_loop(d, ModelSpec("y", ("x", "d"), ("z",)),
                                   300, RngStream(8))
        assert got.n_failed >= 1
        assert got.failures == {"RankDeficiencyError": got.n_failed}

    def test_too_many_rank_failures_raise(self):
        rng = np.random.default_rng(98)
        x, _, z, y = _endogenous_design(rng, 300)
        dummy = np.zeros(300)
        dummy[:2] = 1.0
        d = Dataset({"y": y, "x": x, "d": dummy, "z": z})
        spec = ModelSpec("y", ("x", "d"), ("z",))
        with pytest.raises(BootstrapError):
            _loop_bootstrap(d, spec, 100, RngStream(8))
        assert _assert_matches_loop(d, spec, 100, RngStream(8)) is None

    @pytest.mark.parametrize("estimator",
                             ["iv_internal", "two_scope", "gp_copula"])
    def test_other_stacked_estimators(self, dgp1_small, estimator):
        # untied continuous data, then integer z with a binary x, whose
        # scores take the tied (ndtri) branch in every resample
        got = _assert_matches_loop(dgp1_small, MODEL_SPEC, 199,
                                   RngStream(90), estimator)
        assert got.scalar_refits == 0
        rng = np.random.default_rng(95)
        x = rng.integers(0, 2, 300).astype(float)
        z = rng.integers(0, 6, 300) + x
        d = Dataset({"y": 1.0 + x + z + rng.standard_normal(300), "x": x,
                     "z": z})
        _assert_matches_loop(d, MODEL_SPEC, 199, RngStream(96), estimator)

    @pytest.mark.parametrize("estimator",
                             ["iv_internal", "two_scope", "gp_copula"])
    def test_other_stacked_estimators_rank_failures(self, estimator):
        # the rare dummy of test_rare_dummy_rank_failures: its all-zero
        # resamples are flagged, refitted and fail in both paths; with two
        # ones too many fail, and both paths raise
        rng = np.random.default_rng(97)
        x, _, z, y = _endogenous_design(rng, 300)
        dummy = np.zeros(300)
        dummy[:5] = 1.0
        spec = ModelSpec("y", ("x", "d"), ("z",))
        d = Dataset({"y": y + dummy, "x": x, "d": dummy, "z": z})
        got = _assert_matches_loop(d, spec, 300, RngStream(8), estimator)
        assert got.n_failed >= 1
        dummy[2:] = 0.0
        d = Dataset({"y": y, "x": x, "d": dummy, "z": z})
        with pytest.raises(BootstrapError):
            _loop_bootstrap(d, spec, 100, RngStream(8), estimator)
        assert _assert_matches_loop(d, spec, 100, RngStream(8),
                                    estimator) is None

    def test_exact_fit_takes_the_copula_guard(self):
        # y is fitted exactly, so gp's residual variance is rounding noise
        # and so is its rho: every resample must go to gp_fit
        rng = np.random.default_rng(99)
        x, _, z, _ = _endogenous_design(rng, 200)
        d = Dataset({"y": 1.0 - x + z, "x": x, "z": z})
        got = _assert_matches_loop(d, MODEL_SPEC, 20, RngStream(1),
                                   "gp_copula")
        assert got.scalar_refits == 20

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(20, 60),
           n_exog=st.integers(0, 2), n_endog=st.integers(1, 2),
           pool=st.sampled_from([None, 8, 15]))
    def test_random_small_designs(self, seed, n, n_exog, n_endog, pool):
        # continuous columns; with a pool, rows are drawn from a few
        # distinct rows, so the data itself holds exact ties
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, pool, n) if pool else np.arange(n)
        base = rng.gamma(1.0, 1.0, (max(pool or 0, n), 1 + n_exog + n_endog))
        cols = {"y": base[rows, 0] + base[rows, 1:].sum(axis=1)}
        for j in range(n_exog + n_endog):
            cols[f"c{j}"] = base[rows, 1 + j]
        names = tuple(cols)[1:]
        spec = ModelSpec("y", names[:n_exog], names[n_exog:])
        _assert_matches_loop(Dataset(cols), spec, 8, RngStream(seed))


class TestConstantEndogenousResample:
    """A resample whose endogenous column is constant is a
    ConstantInputError for every corrected estimator, dropped and counted
    like a rank failure."""

    @pytest.mark.parametrize("n_constant", [2, 3])
    def test_same_failures_for_every_estimator(self, monkeypatch,
                                               n_constant):
        # z is zero on the first half of the rows; the first n_constant
        # resamples draw from that half only.  Two are within the 1%
        # budget of B = 200, three are not.
        rng = np.random.default_rng(41)
        x, _, z, y = _endogenous_design(rng, 300)
        z[:150] = 0.0
        d = Dataset({"y": y, "x": x, "z": z})
        chunk, resample = inference._resample_chunk, inference._resample_rows
        first = {w.tobytes() for w in
                 RngStream(42).child_words(_BOOT_KEY, np.arange(n_constant))}

        def zero_z_first_chunk(words, n):
            rows = chunk(words, n)
            for s, w in enumerate(words):
                if w.tobytes() in first:
                    rows[s] %= 150
            return rows

        def zero_z_first(words, n):
            rows = resample(words, n)
            return rows % 150 if words.tobytes() in first else rows
        monkeypatch.setattr(inference, "_resample_chunk", zero_z_first_chunk)
        monkeypatch.setattr(inference, "_resample_rows", zero_z_first)
        outcomes = []
        for est in ("npcf", "two_scope", "gp_copula"):
            try:
                boot = pairs_bootstrap(d, MODEL_SPEC, est, B=200,
                                       seed=RngStream(42))
                outcomes.append(boot.failures)
            except BootstrapError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        if n_constant == 2:
            assert outcomes[0] == {"ConstantInputError": 2}
        else:
            assert "{'ConstantInputError': 3}" in outcomes[0]

    def test_gp_counts_constant_z_resamples(self):
        # z holds two ones among zeros, so about e^-2 of the resamples
        # miss both; they must count as constant input rather than end the
        # bootstrap.  gp also fails every other resample, whose binary z
        # makes the scores of z affine in z.
        rng = np.random.default_rng(3)
        z = np.zeros(300)
        z[[10, 200]] = 1.0
        x = rng.standard_normal(300)
        d = Dataset({"y": 1.0 + x + z + rng.standard_normal(300), "x": x,
                     "z": z})
        with pytest.raises(BootstrapError) as npcf:
            pairs_bootstrap(d, MODEL_SPEC, "npcf", B=200, seed=RngStream(5))
        with pytest.raises(BootstrapError) as gp:
            pairs_bootstrap(d, MODEL_SPEC, "gp_copula", B=200,
                            seed=RngStream(5))
        assert "{'ConstantInputError': 27}" in str(npcf.value)
        assert "'ConstantInputError': 27" in str(gp.value)
        with pytest.raises(ConstantInputError):
            gp_fit(d.take(np.arange(10)), MODEL_SPEC)


class TestExogeneityTest:
    def test_zero_statistic_by_construction(self):
        # remove the fitted score contribution from the outcome: refitting
        # then yields a numerically-zero coefficient and t-statistic
        cfg = DgpConfig("dgp1", n=200, e_dist=DistSpec.gamma(1, 1),
                        delta=1.0, rho=0.5)
        d = gen_dgp1(cfg, RngStream(43))
        fit = fit_npcf(d, MODEL_SPEC)
        y2 = d.column("y") - fit.coef("rho[z]") * fit.first_stage.eta_hat[:, 0]
        d2 = Dataset({"y": y2, "x": d.column("x"), "z": d.column("z")})
        res = exogeneity_test(d2, MODEL_SPEC)
        assert abs(res.statistic) <= 1e-8

    def test_matches_textbook_formula(self, dgp1_small):
        res = exogeneity_test(dgp1_small, MODEL_SPEC)
        fit = fit_npcf(dgp1_small, MODEL_SPEC)
        assert exogeneity_test_of_fit(fit) == res
        V, y = _design(dgp1_small, MODEL_SPEC), dgp1_small.column("y")
        eta = fit.first_stage.eta_hat[:, 0]
        eta_t = _lstsq(V, eta, ("const", "x", "z"))[1]
        rho_hat = float(eta_t @ y) / float(eta_t @ eta_t)
        resid = y - np.column_stack([V, eta]) @ fit.theta
        s2 = float(resid @ resid) / (dgp1_small.n - fit.theta.size)
        t_ref = rho_hat / math.sqrt(s2 / float(eta_t @ eta_t))
        assert res.statistic == pytest.approx(t_ref, abs=1e-10)

    def test_power_under_endogeneity(self):
        # measured rejection rate at rho=0.5, n=250 is about 0.85
        cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1),
                        delta=0.0, rho=0.5)
        rej = sum(
            exogeneity_test(generate(cfg, RngStream(44, r)), MODEL_SPEC).p_value < 0.05
            for r in range(150))
        assert rej / 150 > 0.75

    def test_requires_single_endogenous(self, dgp1_small):
        d = Dataset({**dgp1_small.columns, "z2": dgp1_small.column("x") * 2
                     + dgp1_small.column("eta_true")})
        spec = ModelSpec("y", (), ("z", "z2"))
        with pytest.raises(DataError):
            exogeneity_test(d, spec)
        with pytest.raises(DataError):
            exogeneity_test_of_fit(fit_npcf(d, spec))


class TestIdentificationDiagnostic:
    def _first_stage(self, e):
        n = e.size
        from endofix.regress import DesignMatrix
        X = DesignMatrix(np.ones((n, 1)), ("const",), has_intercept=True)
        return first_stage(X, e)

    def test_gaussian_residuals_not_flagged(self):
        e = sample(RngStream(45), DistSpec.normal(0, 1), 10_000)
        res = identification_diagnostic(self._first_stage(e))[0]
        assert res.statistic < 9.21               # 1% chi2(2) critical value

    def test_exponential_residuals_strongly_rejected(self):
        e = sample(RngStream(46), DistSpec.gamma(1, 1), 10_000)
        res = identification_diagnostic(self._first_stage(e))[0]
        assert res.p_value < 1e-3

    def test_needs_enough_observations(self):
        e = sample(RngStream(47), DistSpec.gamma(1, 1), 10)
        fs = self._first_stage(e)
        with pytest.raises(DataError):
            identification_diagnostic(fs)

    def test_one_result_per_endogenous_column(self):
        rng = RngStream(48)
        n = 500
        from endofix.regress import DesignMatrix
        X = DesignMatrix(np.ones((n, 1)), ("const",), has_intercept=True)
        Z = np.column_stack([sample(rng.child(1), DistSpec.gamma(1, 1), n),
                             sample(rng.child(2), DistSpec.gamma(3, 2), n)])
        out = identification_diagnostic(first_stage(X, Z))
        assert len(out) == 2
        assert all(0.0 <= r.p_value <= 1.0 for r in out)


class TestBootstrapDegeneracyAccounting:
    """Exercise the drop/count/error logic with a deliberately fragile
    estimator registered just for these tests."""

    @staticmethod
    def _register(fail_on: set, wild_on: set = frozenset(),
                  non_finite_on: set = frozenset()):
        from endofix.estimators import ESTIMATORS
        from endofix.errors import RankDeficiencyError

        calls = {"i": -1}

        def fragile(data, spec):
            calls["i"] += 1
            if calls["i"] in fail_on:
                raise RankDeficiencyError("synthetic failure", column="z")
            fit = fit_npcf(data, spec)
            if calls["i"] in wild_on:
                fit.theta[:] = fit.theta + 1e6
            if calls["i"] in non_finite_on:
                fit.theta[-1] = np.inf
            return fit

        ESTIMATORS["_fragile"] = fragile
        return calls

    @staticmethod
    def _cleanup():
        from endofix.estimators import ESTIMATORS
        ESTIMATORS.pop("_fragile", None)

    def test_rare_failures_dropped_and_counted(self, dgp1_small):
        # one failed resample out of 199 is within the 1% budget and is
        # simply dropped
        self._register(fail_on={5})
        try:
            boot = pairs_bootstrap(dgp1_small, MODEL_SPEC, "_fragile", B=199,
                                   seed=RngStream(80))
            assert boot.n_failed == 1
            assert boot.failures == {"RankDeficiencyError": 1}
            assert boot.draws.shape[0] == 198
        finally:
            self._cleanup()

    def test_excessive_failures_raise(self, dgp1_small):
        self._register(fail_on={1, 2, 3, 4})
        try:
            with pytest.raises(BootstrapError):
                pairs_bootstrap(dgp1_small, MODEL_SPEC, "_fragile", B=99,
                                seed=RngStream(81))
        finally:
            self._cleanup()

    def test_rare_non_finite_draw_dropped_and_counted(self, dgp1_small):
        self._register(fail_on=set(), non_finite_on={5})
        try:
            boot = pairs_bootstrap(dgp1_small, MODEL_SPEC, "_fragile", B=199,
                                   seed=RngStream(80))
            assert boot.n_failed == 1
            assert boot.failures == {"NonFiniteError": 1}
            assert boot.draws.shape[0] == 198
            assert np.isfinite(boot.se).all()
        finally:
            self._cleanup()

    def test_excessive_non_finite_draws_raise(self, dgp1_small):
        self._register(fail_on={1}, non_finite_on={2, 3})
        try:
            with pytest.raises(BootstrapError, match="3 of 99 bootstrap "
                               "resamples failed .*'RankDeficiencyError': "
                               "1, 'NonFiniteError': 2"):
                pairs_bootstrap(dgp1_small, MODEL_SPEC, "_fragile", B=99,
                                seed=RngStream(81))
        finally:
            self._cleanup()

    def test_extreme_draws_flagged(self, dgp1_small):
        self._register(fail_on=set(), wild_on={7})
        try:
            boot = pairs_bootstrap(dgp1_small, MODEL_SPEC, "_fragile", B=60,
                                   seed=RngStream(82))
            assert boot.n_extreme_draws >= 1
        finally:
            self._cleanup()


def _huge_outcome_data(y3: float) -> Dataset:
    """30 rows with one outcome of ``y3`` (the rest of order 1)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(30)
    z = x + rng.gamma(1.0, 1.0, 30)
    y = 1.0 + x + z + rng.standard_normal(30)
    y[3] = y3
    return Dataset({"y": y, "x": x, "z": z})


_HUGE_SPEC = ModelSpec("y", ("x",), ("z",))


@pytest.mark.parametrize("estimator", ["npcf", "iv_internal", "two_scope",
                                       "gp_copula"])
class TestNonFiniteDraws:
    def test_overflowing_draws_are_counted_failures(self, estimator):
        # resamples holding the row of y = 1.7e308 more than once fit
        # coefficients that overflow; each counts as a NonFiniteError
        data = _huge_outcome_data(1.7e308)
        with np.errstate(all="ignore"):
            with pytest.raises(BootstrapError,
                               match=r"'NonFiniteError': [1-9]"):
                pairs_bootstrap(data, _HUGE_SPEC, estimator, B=19)
            idx = inference._resample_chunk(
                RngStream(0).child_words(_BOOT_KEY, np.arange(99)), 30)
            theta, ok, _ = inference._CountDesign(data.columns,
                                                  _HUGE_SPEC).fit(
                estimator, inference._counts(idx))
        # the stack never accepts a non-finite draw for itself
        assert np.isfinite(theta[ok]).all()

    def test_overflowing_spread_raises(self, estimator):
        # with y = 1e300 the draws are finite (about 1e299) but their
        # variance overflows: no standard error of inf is returned
        data = _huge_outcome_data(1e300)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError, match="standard error or "
                               "interval of const is not finite"):
                pairs_bootstrap(data, _HUGE_SPEC, estimator, B=19)


def test_gp_overflow_is_not_an_exact_fit():
    # on resamples 7 and 11 of y = 1.7e308 the coefficient on the scores
    # and s^2 overflow to inf and nan: gp_fit returns the non-finite
    # coefficients, which the bootstrap counts as a NonFiniteError, rather
    # than calling the fit exact
    data = _huge_outcome_data(1.7e308)
    with np.errstate(all="ignore"):
        for w in RngStream(0).child_words(_BOOT_KEY, np.array([7, 11])):
            theta = gp_fit(data.take(_resample_rows(w, 30)), _HUGE_SPEC).theta
            assert not np.isfinite(theta).all()
        _, solved, failures, *_ = inference._resample_fits(
            "gp_copula", data.columns, _HUGE_SPEC, [RngStream(0)], 12)
    assert not solved[0, [7, 11]].any()
    assert "ConstantInputError" not in failures


@pytest.mark.parametrize("estimator", ["npcf", "iv_internal", "two_scope",
                                       "gp_copula"])
def test_stacked_datasets_fit_as_each_alone(monkeypatch, estimator):
    # in chunks of 8 resamples: at B = 3 a chunk holds all resamples of
    # g = 2 datasets (the five in groups of 2, 2 and 1), at B = 8 those of
    # one, and at B = 11 each dataset's fill two chunks.  Dataset 3, whose
    # x is constant, shares its group with a good one and leaves every
    # resample to the scalar fallback.  Each dataset's results are the
    # bytes it gets alone
    n, S = 60, 5
    monkeypatch.setattr(inference, "_CHUNK_BYTES", 8 * 8 * n * 5)
    assert _chunk(n, MODEL_SPEC) == 8
    cfg = DgpConfig("dgp1", n=n, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                    rho=0.5)
    datasets = [generate(cfg, RngStream(80, s)) for s in range(S)]
    cols = {c: np.stack([d.column(c) for d in datasets])
            for c in ("y", "x", "z")}
    cols["x"][3] = 2.0
    seeds = [RngStream(81, s) for s in range(S)]
    for B in (3, 8, 11):
        theta, solved, failures, refits, passed, se = (
            inference._resample_fits(estimator, cols, MODEL_SPEC, seeds, B))
        alone = [inference._resample_fits(
            estimator, {c: v[s] for c, v in cols.items()}, MODEL_SPEC,
            [seeds[s]], B) for s in range(S)]
        for s, (th, sv, _, _, ps, e) in enumerate(alone):
            assert theta[s].tobytes() == th[0].tobytes()
            assert solved[s].tobytes() == sv[0].tobytes()
            assert se[s].tobytes() == e[0].tobytes()
            assert passed[s] == ps[0]
        assert failures == sum((Counter(a[2]) for a in alone), Counter())
        assert refits == sum(a[3] for a in alone) >= B
        assert list(passed) == [True, True, True, False, True]


def _three_datasets(kind, n, tied_groups):
    """Three datasets of n rows: dgp1's continuous columns, or the integer
    z and binary x of ``tied_groups``, whose residuals tie."""
    if kind == "tied":
        return [tied_groups(s, n + n % 2).take(np.arange(n))
                for s in range(3)]
    cfg = DgpConfig("dgp1", n=n, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                    rho=0.5)
    return [generate(cfg, RngStream(1234, s)) for s in range(3)]


@pytest.mark.parametrize("n", [249, 250])
@pytest.mark.parametrize("kind", ["untied", "tied"])
def test_scalar_scores_equal_the_engines(tied_groups, kind, n):
    # first_stage and normal_scores give the scores of the count engine
    # with unit counts, bit for bit: each dataset alone (a single problem,
    # scored directly) and the three as one chunk (scored by the table)
    datasets = _three_datasets(kind, n, tied_groups)
    fits = [fit_npcf(d, MODEL_SPEC).first_stage for d in datasets]
    stack = {c: np.stack([d.column(c) for d in datasets])
             for c in ("y", "x", "z")}
    designs = [(inference._CountDesign(stack, MODEL_SPEC), slice(None))]
    designs += [(inference._CountDesign(d.columns, MODEL_SPEC),
                 slice(s, s + 1)) for s, d in enumerate(datasets)]
    for design, at in designs:
        S = len(design.y)
        C = np.ones((S, 1, n))
        delta = np.stack([fs.delta_hat for fs in fits[at]])[:, None]
        eta, _ = design._first_stage_scores(C, delta, np.ones((S, 1, 1)))
        for fs, got in zip(fits[at], eta[:, 0, 0]):
            assert got.tobytes() == fs.eta_hat[:, 0].tobytes()
        for j, c in enumerate(("x", "z")):
            for d, got in zip(datasets[at], design._data_scores(C, j)[:, 0]):
                assert got.tobytes() == normal_scores(d.column(c)).tobytes()
