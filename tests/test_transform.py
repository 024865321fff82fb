import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from endofix.errors import ConstantInputError, DomainError
from endofix.numerics import DistSpec, RngStream, sample
from endofix.regress import DesignMatrix, _lstsq
from endofix.transform import (_half_rank_scores, _scores_of_ranks,
                               average_ranks, first_stage, normal_scores)


def _brute_force_average_ranks(v):
    # rank of x = (# strictly smaller) + (1 + # tied) / 2, counted directly
    v = np.asarray(v, dtype=float)
    out = np.empty(v.size)
    for i, x in enumerate(v):
        smaller = np.sum(v < x)
        ties = np.sum(v == x)
        out[i] = smaller + (ties + 1) / 2.0
    return out


class TestAverageRanks:
    def test_ties_match_brute_force(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 5, size=40).astype(float)   # plenty of ties
        assert average_ranks(v) == pytest.approx(_brute_force_average_ranks(v))

    @pytest.mark.parametrize("v", [
        np.random.default_rng(3).standard_normal(57),           # no ties
        np.random.default_rng(4).integers(0, 6, 80).astype(float),
        np.array([2.0, 2.0, 2.0]),                                # one tie run
        np.array([5.0]),
        np.array([1.0, -1.0, 1.0, np.inf, -np.inf, 0.0]),
    ])
    def test_average_ranks_bit_identical_to_brute_force(self, v):
        assert np.array_equal(average_ranks(v), _brute_force_average_ranks(v))


class TestNormalScores:
    def test_three_points(self):
        s = normal_scores(np.array([10.0, -3.0, 40.0]))
        grid = ndtri(np.array([1 / 4, 2 / 4, 3 / 4]))
        assert s == pytest.approx([grid[1], grid[0], grid[2]])
        assert s[0] == 0.0                       # middle rank maps to zero

    def test_rank_invariance_exact(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(101)
        assert np.array_equal(normal_scores(v), normal_scores(np.exp(v)))

    def test_affine_invariance_exact(self):
        rng = np.random.default_rng(3)
        v = rng.gamma(2.0, size=64)
        assert np.array_equal(normal_scores(v), normal_scores(3.5 * v + 7.0))

    def test_zero_sum_exact_without_ties(self):
        # the grid is exactly antisymmetric, so its exact (compensated) sum
        # is zero; naive left-to-right summation only gets there to ~1e-16
        rng = np.random.default_rng(4)
        for n in (10, 11, 250, 1001):
            s = normal_scores(rng.standard_normal(n))
            assert math.fsum(s) == 0.0
            assert abs(np.sum(s)) <= 1e-13

    # the property tests draw values on a 0.01 grid in [-10, 10], far
    # enough apart that every transform below keeps them distinct

    @settings(max_examples=60, deadline=None)
    @given(ints=st.lists(st.integers(-1000, 1000), min_size=2, max_size=300,
                         unique=True))
    def test_zero_sum_property_without_ties(self, ints):
        assert math.fsum(normal_scores(np.array(ints) / 100.0)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(ints=st.lists(st.integers(-1000, 1000), min_size=2, max_size=300),
           transform=st.sampled_from([lambda v: 3.5 * v + 7.0,
                                      lambda v: np.exp(v / 4.0),
                                      lambda v: v ** 3 + v,
                                      np.arctan]))
    def test_monotone_invariance_property(self, ints, transform):
        # ties included: a function maps equal values to equal values
        assume(len(set(ints)) > 1)
        v = np.array(ints) / 100.0
        assert np.array_equal(normal_scores(v), normal_scores(transform(v)))

    def test_values_are_fixed_grid(self):
        rng = np.random.default_rng(5)
        n = 200
        s = np.sort(normal_scores(rng.gamma(1.0, size=n)))
        grid = ndtri(np.arange(1, n + 1) / (n + 1))
        assert np.abs(s - grid).max() <= 1e-12

    def test_grid_variance_band(self):
        # scores of any tie-free sample equal the deterministic grid, whose
        # variance can be computed directly and sits just below 1
        n = 1000
        v = sample(RngStream(6), DistSpec.gamma(2, 1), n)
        s = normal_scores(v)
        grid = ndtri(np.arange(1, n + 1) / (n + 1))
        assert s.var() == pytest.approx(grid.var(), abs=1e-12)
        assert 0.9 <= s.var() <= 1.1

    @pytest.mark.parametrize("n", [2, 3, 250, 2001])
    def test_tied_rows_bitwise_equal_ndtri(self, n):
        # the table at every rank 1, 1.5, ..., n, then rank rows with one
        # tied pair, as a resample's duplicated rows give
        r = np.arange(2, 2 * n + 1) / 2.0
        assert _half_rank_scores(n).tobytes() == ndtri(r / (n + 1.0)).tobytes()
        rng = np.random.default_rng(n)
        rows = []
        for _ in range(3):
            v = rng.permutation(n)
            v[1] = v[0]
            rows.append(average_ranks(v))
            assert np.any(rows[-1] != np.round(rows[-1]))
        for r in [*rows, np.array(rows)]:
            assert (_scores_of_ranks(r).tobytes()
                    == ndtri(r / (n + 1.0)).tobytes())

    def test_half_rank_table_is_read_only(self):
        table = _half_rank_scores(7)
        assert table.shape == (13,)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
        assert _half_rank_scores(7) is table

    def test_constant_input_raises(self):
        with pytest.raises(ConstantInputError):
            normal_scores(np.full(30, 2.5))


class TestFirstStage:
    def test_intercept_only_demeans(self):
        z = np.array([1.0, 4.0, 2.0, 7.0, 5.0])
        X = DesignMatrix(np.ones((5, 1)), ("const",), has_intercept=True)
        fs = first_stage(X, z)
        assert fs.e_hat[:, 0] == pytest.approx(z - z.mean(), abs=1e-12)
        assert fs.delta_hat[0, 0] == pytest.approx(z.mean())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_z_raises(self, bad):
        z = np.array([1.0, 4.0, 2.0, 7.0, 5.0, 3.0])
        z[2] = bad
        X = DesignMatrix(np.ones((6, 1)), ("const",), has_intercept=True)
        with pytest.raises(DomainError):
            first_stage(X, z)
        with pytest.raises(DomainError):
            first_stage(X, np.column_stack([np.arange(6.0), z]))

    def test_exact_linear_z_raises(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(60)
        X = DesignMatrix(np.column_stack([np.ones(60), x]), ("const", "x"),
                         has_intercept=True)
        with pytest.raises(ConstantInputError):
            first_stage(X, 2.0 * x + 1.0)        # residuals identically zero

    def test_slope_recovered(self):
        # z = x + e with independent gamma pieces: slope estimate near 1
        n = 10_000
        x = sample(RngStream(8, 1), DistSpec.gamma(1, 1), n)
        e = sample(RngStream(8, 2), DistSpec.gamma(1, 1), n)
        X = DesignMatrix(np.column_stack([np.ones(n), x]), ("const", "x"),
                         has_intercept=True)
        fs = first_stage(X, x + e)
        assert fs.delta_hat[1, 0] == pytest.approx(1.0, abs=0.05)
        scale = 1e-8 * np.linalg.norm(x + e)
        assert np.abs(X.values.T @ fs.e_hat[:, 0]).max() <= scale

    def test_multi_column(self):
        rng = np.random.default_rng(9)
        n = 300
        x = rng.standard_normal(n)
        X = DesignMatrix(np.column_stack([np.ones(n), x]), ("const", "x"),
                         has_intercept=True)
        Z = np.column_stack([x + rng.gamma(1.0, size=n),
                             rng.gamma(3.0, size=n)])
        fs = first_stage(X, Z)
        assert fs.m == 2
        assert fs.eta_hat.shape == (n, 2)
        for j in range(2):
            assert math.fsum(fs.eta_hat[:, j]) == 0.0

    @pytest.mark.parametrize("tied", [False, True])
    def test_scores_and_ranks_match_per_column_transforms(self, tied):
        rng = np.random.default_rng(10)
        n = 200
        x = rng.standard_normal(n)
        X = DesignMatrix(np.column_stack([np.ones(n), x]), ("const", "x"),
                         has_intercept=True)
        e = rng.gamma(1.0, size=n)
        if tied:    # duplicated rows, as in a bootstrap resample
            idx = rng.integers(0, n, n)
            X = DesignMatrix(X.values[idx], X.column_names, has_intercept=True)
            x, e = x[idx], e[idx]
        fs = first_stage(X, np.column_stack([x + e, e]))
        for j in range(2):
            r = fs.e_hat[:, j]
            assert np.array_equal(fs.ranks[:, j], average_ranks(r))
            assert np.array_equal(fs.eta_hat[:, j], normal_scores(r))

    def _per_column(self, X, Z):
        """The first stage's least squares one endogenous column at a time."""
        fits = [_lstsq(X.values, np.ascontiguousarray(z), X.column_names)
                for z in Z.T]
        return (np.column_stack([f[0] for f in fits]),
                np.column_stack([f[1] for f in fits]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_column_bitwise_equal_per_column_solve(self, order):
        rng = np.random.default_rng(11)
        for n, k in ((30, 1), (250, 2), (1000, 4)):
            X = DesignMatrix(np.column_stack(
                [np.ones(n)] + [rng.gamma(1.0, size=n) for _ in range(k - 1)]),
                tuple(f"c{i}" for i in range(k)))
            Z = np.array(X.values.sum(axis=1, keepdims=True)
                         + rng.standard_normal((n, 1)), order=order)
            fs = first_stage(X, Z)
            coef, resid = self._per_column(X, Z)
            assert fs.delta_hat.tobytes() == coef.tobytes()
            assert fs.e_hat.tobytes() == resid.tobytes()
            assert fs.ranks.tobytes() == average_ranks(resid).tobytes()

    def test_column_block_within_1e13_of_per_column_solve(self):
        # one factorisation for the block rounds the product Q'Z
        # differently from one column at a time: measured at most about
        # 4e-15 of the largest entry
        rng = np.random.default_rng(12)
        for n, k, m in ((40, 2, 2), (300, 3, 3), (2000, 4, 2)):
            X = DesignMatrix(np.column_stack(
                [np.ones(n)] + [rng.gamma(1.0, size=n) for _ in range(k - 1)]),
                tuple(f"c{i}" for i in range(k)))
            Z = (X.values.sum(axis=1, keepdims=True) * rng.standard_normal(m)
                 + rng.gamma(2.0, size=(n, m)))
            fs = first_stage(X, Z)
            coef, resid = self._per_column(X, Z)
            for got, want in ((fs.delta_hat, coef), (fs.e_hat, resid)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_constant_residual_names_its_column(self):
        rng = np.random.default_rng(13)
        n = 100
        x = rng.standard_normal(n)
        X = DesignMatrix(np.column_stack([np.ones(n), x]), ("const", "x"))
        Z = np.column_stack([x + rng.gamma(1.0, size=n), 2.0 - 3.0 * x])
        with pytest.raises(ConstantInputError, match="endogenous column 1"):
            first_stage(X, Z)
