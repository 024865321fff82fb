import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc, gammaincinv, ndtr

from endofix.errors import DomainError
from endofix.numerics import (DistSpec, RngStream, _check_prob, _seed_words,
                              _splitmix64, sample, words_generator)

# the quantiles under test are DistSpec's; the CDFs they are checked
# against are scipy's
std_normal_quantile = DistSpec.normal().quantile
std_normal_cdf = ndtr


def gamma_cdf(a, b, x):
    return gammainc(a, b * np.maximum(x, 0.0))


def gamma_quantile(a, b, u):
    return DistSpec.gamma(a, b).quantile(u)


# ---------------------------------------------------------------------------
# independent oracle: high-precision erf series, summed with fsum
# ---------------------------------------------------------------------------

def _erf_series(x: float) -> float:
    # erf(x) = 2/sqrt(pi) * sum (-1)^k x^(2k+1) / (k! (2k+1)); fine for |x|<=6
    terms = []
    term = x
    for k in range(0, 120):
        terms.append(term / (2 * k + 1))
        term *= -x * x / (k + 1)
    return 2.0 / math.sqrt(math.pi) * math.fsum(terms)


def _cdf_oracle(t: float) -> float:
    return 0.5 + 0.5 * _erf_series(t / math.sqrt(2.0))


def _bisect_quantile_oracle(u: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _cdf_oracle(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_round_trip_point(self):
        assert std_normal_quantile(std_normal_cdf(1.3)) == pytest.approx(1.3, abs=1e-10)

    def test_bisection_oracle(self):
        assert std_normal_quantile(0.975) == pytest.approx(
            _bisect_quantile_oracle(0.975), abs=1e-6)

    def test_round_trip_band(self):
        u = np.concatenate([np.geomspace(1e-10, 0.5, 4000),
                            1.0 - np.geomspace(1e-10, 0.5, 4000)])
        err = np.abs(std_normal_cdf(std_normal_quantile(u)) - u)
        assert err.max() <= 1e-12

    def test_mutual_inverse_band(self):
        u = np.concatenate([np.geomspace(1e-8, 0.5, 2000),
                            1.0 - np.geomspace(1e-8, 0.5, 2000)])
        assert np.abs(std_normal_cdf(std_normal_quantile(u)) - u).max() <= 1e-10

    def test_monotone(self):
        u = np.linspace(1e-8, 1 - 1e-8, 4001)
        assert np.all(np.diff(std_normal_quantile(u)) >= 0.0)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.4])
    def test_domain(self, u):
        with pytest.raises(DomainError):
            std_normal_quantile(u)


class TestGamma:
    def test_exponential_median(self):
        assert gamma_quantile(1, 1, 0.5) == pytest.approx(math.log(2), abs=1e-10)

    def test_round_trip(self):
        assert gamma_quantile(3, 2, gamma_cdf(3, 2, 1.7)) == pytest.approx(1.7, abs=1e-8)

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 10.0])
    def test_against_scipy(self, a):
        u = np.concatenate([np.geomspace(1e-12, 0.5, 400),
                            1 - np.geomspace(1e-12, 0.5, 400)])
        q = gamma_quantile(a, 1.0, u)
        ref = gammaincinv(a, u)
        assert (np.abs(q - ref) / np.maximum(ref, 1e-300)).max() <= 1e-10

    def test_rate_scaling(self):
        u = np.linspace(0.05, 0.95, 19)
        assert gamma_quantile(3, 2, u) == pytest.approx(gamma_quantile(3, 1, u) / 2)

    def test_quantile_round_trip_tolerance(self):
        u = np.concatenate([np.geomspace(1e-14, 0.5, 500),
                            1 - np.geomspace(1e-14, 0.5, 500)])
        q = gamma_quantile(2.5, 1.7, u)
        assert np.abs(gamma_cdf(2.5, 1.7, q) - u).max() <= 1e-10

    def test_isf_deep_tail(self):
        x = DistSpec.gamma(3.0, 2.0).isf(1e-17)
        assert gammaincc(3.0, 2.0 * x) == pytest.approx(1e-17, rel=1e-9)

    def test_quantile_monotone(self):
        u = np.linspace(1e-6, 1 - 1e-6, 2001)
        assert np.all(np.diff(gamma_quantile(3, 2, u)) >= 0.0)

    def test_pdf_matches_cdf_derivative(self):
        x = np.linspace(0.2, 6.0, 50)
        h = 1e-6
        num = (gamma_cdf(3, 2, x + h) - gamma_cdf(3, 2, x - h)) / (2 * h)
        assert np.abs(num - DistSpec.gamma(3, 2).pdf(x)).max() <= 1e-7

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            DistSpec.gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            DistSpec.gamma(1.0, 0.0)
        with pytest.raises(DomainError):
            gamma_quantile(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            gamma_quantile(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            DistSpec.gamma(1.0, 1.0).isf(0.0)


class TestCheckProb:
    @pytest.mark.parametrize("u", [0.0, 1.0, -0.0, -1e-300, 1.5])
    @pytest.mark.parametrize("shape", ["float", "0-d", "array"])
    def test_raises_outside_the_open_unit_interval(self, u, shape):
        arg = {"float": u, "0-d": np.array(u),
               "array": np.array([0.5, u, 0.25])}[shape]
        with pytest.raises(DomainError, match="0 < u < 1"):
            _check_prob(arg, "quantile")

    def test_lets_nan_through(self):
        assert math.isnan(_check_prob(math.nan, "quantile"))
        got = _check_prob([0.5, math.nan], "quantile")
        assert got[0] == 0.5 and math.isnan(got[1])
        assert math.isnan(std_normal_quantile(math.nan))
        assert np.isnan(DistSpec.gamma(3, 2).isf([math.nan])).all()

    def test_returns_float64(self):
        assert _check_prob(np.float32(0.25), "isf") == 0.25
        got = _check_prob([0.25, 0.75], "isf")
        assert got.dtype == np.float64 and list(got) == [0.25, 0.75]


class TestRngStream:
    def test_reproducible(self):
        s = RngStream(42, 7)
        a = sample(s, DistSpec.gamma(3, 2), 16)
        b = sample(s, DistSpec.gamma(3, 2), 16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample(RngStream(42, 0), DistSpec.normal(), 16)
        b = sample(RngStream(42, 1), DistSpec.normal(), 16)
        assert not np.array_equal(a, b)

    def test_child_deterministic(self):
        s = RngStream(5)
        assert s.child(3, 9) == s.child(3, 9)
        assert s.child(3, 9) != s.child(9, 3)

    def test_validation(self):
        with pytest.raises(DomainError):
            RngStream(-1)


_EDGE_WORDS = [0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


def _numpy_words(seed, stream_id):
    return np.random.SeedSequence(
        entropy=(seed, stream_id)).generate_state(4, np.uint64)


class TestVectorizedSeedWords:
    """The one-pass hash of many streams' seed words against numpy's own
    SeedSequence: a numpy that changed its hash fails here."""

    @pytest.mark.parametrize("seed", _EDGE_WORDS)
    def test_edge_seeds_and_ids(self, seed):
        ids = np.array(_EDGE_WORDS, dtype=np.uint64)
        got = _seed_words(seed, ids)
        assert got.dtype == np.uint64 and got.shape == (ids.size, 4)
        for i, words in zip(_EDGE_WORDS, got):
            assert np.array_equal(words, _numpy_words(seed, i))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           ids=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=5))
    def test_random_pairs(self, seed, ids):
        got = _seed_words(seed, np.array(ids, dtype=np.uint64))
        for i, words in zip(ids, got):
            assert np.array_equal(words, _numpy_words(seed, i))

    def test_splitmix64_elementwise(self):
        x = np.array(_EDGE_WORDS + [0xA5A5A5A5A5A5A5A5], dtype=np.uint64)
        assert [int(v) for v in _splitmix64(x)] == [_splitmix64(int(v))
                                                    for v in x]

    @pytest.mark.parametrize("stream", [RngStream(0), RngStream(7, 3),
                                        RngStream(2 ** 64 - 1, 2 ** 40)])
    def test_child_words_draw_as_child_generator(self, stream):
        bs = np.array([0, 1, 2, 998, 2 ** 33])
        words = stream.child_words(0xB00, bs)
        for b, w in zip(bs, words):
            child = stream.child(0xB00, int(b))
            assert np.array_equal(w, _numpy_words(child.seed, child.stream_id))
            assert np.array_equal(words_generator(w).integers(0, 250, 250),
                                  child.generator().integers(0, 250, 250))

    @pytest.mark.parametrize("stream", [RngStream(0), RngStream(7, 3),
                                        RngStream(2 ** 64 - 1, 2 ** 40)])
    def test_key_first_child_words(self, stream):
        # Monte Carlo data streams are child(r, key): the array key first
        rs = np.array([0, 1, 2, 998, 2 ** 33])
        words = stream.child_words(rs, 0xDA7A)
        for r, w in zip(rs, words):
            child = stream.child(int(r), 0xDA7A)
            assert np.array_equal(w, _numpy_words(child.seed, child.stream_id))
            assert np.array_equal(w, child.words()[0])

    @pytest.mark.parametrize("seed", _EDGE_WORDS)
    def test_own_words(self, seed):
        for stream_id in _EDGE_WORDS:
            s = RngStream(seed, stream_id)
            assert np.array_equal(s.words(), [_numpy_words(seed, stream_id)])


class TestSample:
    def test_normal_lln(self):
        n = 100_000
        x = sample(RngStream(1), DistSpec.normal(0, 1), n)
        assert abs(x.mean()) <= 4.0 / math.sqrt(n)

    def test_gamma_moments(self):
        # shape/rate parameterization: mean a/b, variance a/b^2
        n = 100_000
        x = sample(RngStream(2), DistSpec.gamma(3, 2), n)
        sd = math.sqrt(0.75)
        assert abs(x.mean() - 1.5) <= 5 * sd / math.sqrt(n)
        assert x.var() == pytest.approx(0.75, rel=0.05)

    def test_centered_gamma(self):
        # the asymptotic constants center an error by its mean()
        d = DistSpec.gamma(3, 2)
        x = sample(RngStream(4), d, 200_000) - d.mean()
        assert abs(x.mean()) <= 0.02
        assert d.mean() == 1.5
        assert d.quantile(gamma_cdf(3, 2, 0.3 + 1.5)) - d.mean() == \
            pytest.approx(0.3, abs=1e-9)


class TestDistSpec:
    @pytest.mark.parametrize("family", ["empirical", "mvnormal", "Normal"])
    def test_only_normal_and_gamma_families(self, family):
        with pytest.raises(DomainError, match=repr(family)):
            DistSpec(family, (0.0, 1.0))
