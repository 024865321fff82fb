import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc, gammaincinv

from endofix.errors import DomainError, QuadratureError
from endofix.numerics import (DistSpec, QuadratureSpec, RngStream,
                              _seed_words, _splitmix64, integrate_1d, sample,
                              std_normal_pdf, words_generator)

SPEC = QuadratureSpec(abs_tol=1e-10, max_subdivisions=8000)

# the normal and gamma evaluations under test are DistSpec's
NORMAL = DistSpec.normal()
std_normal_cdf = NORMAL.cdf
std_normal_quantile = NORMAL.quantile


def gamma_cdf(a, b, x):
    return DistSpec.gamma(a, b).cdf(x)


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


class TestNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("t", [0.3, 1.7, 4.0])
    def test_symmetry(self, t):
        assert abs(std_normal_cdf(-t) + std_normal_cdf(t) - 1.0) <= 1e-15

    def test_975_point(self):
        # the 97.5% point, located independently by bisection on the series
        root = _bisect_quantile_oracle(0.975)
        assert root == pytest.approx(1.959963985, abs=1e-8)
        assert abs(std_normal_cdf(1.959963985) - 0.975) <= 1e-9

    def test_monotone(self):
        t = np.linspace(-9, 9, 2001)
        assert np.all(np.diff(std_normal_cdf(t)) >= 0.0)


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
    def test_exponential_special_case(self):
        x = np.linspace(0.01, 20, 300)
        assert np.abs(gamma_cdf(1, 1, x) - (1 - np.exp(-x))).max() <= 5e-15

    def test_exponential_median(self):
        assert gamma_quantile(1, 1, 0.5) == pytest.approx(math.log(2), abs=1e-10)

    def test_round_trip(self):
        assert gamma_quantile(3, 2, gamma_cdf(3, 2, 1.7)) == pytest.approx(1.7, abs=1e-8)

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 10.0])
    def test_against_scipy(self, a):
        x = np.geomspace(1e-8, 60.0, 400)
        assert np.abs(gamma_cdf(a, 1.0, x) - gammainc(a, x)).max() <= 1e-13
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


class TestQuadrature:
    def test_linear(self):
        v, err = integrate_1d(lambda u: u, 0, 1, SPEC)
        assert v == pytest.approx(0.5, abs=1e-12)
        assert 0.0 <= err <= SPEC.abs_tol

    def test_normal_density_normalizes(self):
        v, _ = integrate_1d(std_normal_pdf, -np.inf, np.inf, SPEC)
        assert v == pytest.approx(1.0, abs=1e-10)

    def test_half_infinite_ranges(self):
        # int_0^inf exp(-x) dx = 1 and int_-inf^0 exp(x) dx = 1 by hand
        assert integrate_1d(lambda x: np.exp(-x), 0, np.inf, SPEC)[0] == \
            pytest.approx(1.0, abs=1e-10)
        assert integrate_1d(np.exp, -np.inf, 0, SPEC)[0] == \
            pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("coeffs", [(1.0,), (0.0, 2.0), (1.0, -1.0, 3.0),
                                        (0.5, 0.0, -2.0, 4.0)])
    def test_polynomials_exact(self, coeffs):
        f = lambda x: sum(c * x ** i for i, c in enumerate(coeffs))
        exact = sum(c / (i + 1) for i, c in enumerate(coeffs))
        v, _ = integrate_1d(f, 0, 1, SPEC)
        assert v == pytest.approx(exact, abs=SPEC.abs_tol)

    def test_non_convergence_reported(self):
        hard = lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-300)
        with pytest.raises(QuadratureError):
            integrate_1d(hard, 0, 1, QuadratureSpec(1e-12, 8))

    def test_non_finite_integrand_reported(self):
        with pytest.raises(QuadratureError):
            integrate_1d(lambda x: 1.0 / x, 0, 1, SPEC)

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            integrate_1d(lambda x: x, 1, 1, SPEC)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)


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
        d = DistSpec.gamma(3, 2, centered=True)
        x = sample(RngStream(4), d, 200_000)
        assert abs(x.mean()) <= 0.02
        assert d.mean() == pytest.approx(0.0)
        assert d.quantile(d.cdf(0.3)) == pytest.approx(0.3, abs=1e-9)


class TestDistSpec:
    @pytest.mark.parametrize("family", ["empirical", "mvnormal", "Normal"])
    def test_only_normal_and_gamma_families(self, family):
        with pytest.raises(DomainError, match=repr(family)):
            DistSpec(family, (0.0, 1.0))
