import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from endofix.errors import ConstantInputError, DomainError
from endofix.numerics import DistSpec, RngStream, sample
from endofix.regress import DesignMatrix, _lstsq
from endofix import transform
from endofix.transform import (_counted_scores, _half_rank_scores, _scores,
                               _sort_rows, first_stage, normal_scores)


def _brute_force_average_ranks(v):
    # rank of x = (# strictly smaller) + (1 + # tied) / 2, counted directly
    v = np.asarray(v, dtype=float)
    out = np.empty(v.size)
    for i, x in enumerate(v):
        smaller = np.sum(v < x)
        ties = np.sum(v == x)
        out[i] = smaller + (ties + 1) / 2.0
    return out


def _rank_scores(ranks, n):
    """The score table's entries of the average ranks ``ranks``.  The
    table is strictly increasing, so scores equal bit for bit have equal
    ranks."""
    return _half_rank_scores(n)[(2 * ranks - 2).astype(int)]


def _symmetric_ndtri(r, n):
    """ndtri(r / (n + 1)) of the ranks up to the middle one, and the
    exact negation of the mirrored rank's score above it."""
    low = ndtri(np.minimum(r, n + 1 - r) / (n + 1.0))
    return np.where(r > (n + 1) / 2, -low, low)


def _row_scores(rows, mag=None):
    """The scores of each row of a 2-D array as the count engine gives
    them: one problem of unit counts per row."""
    order, runs = _sort_rows(rows, mag)
    scores = np.empty(rows.size)
    scores[order.ravel()] = _counted_scores(np.ones(rows.shape), runs).ravel()
    return scores.reshape(rows.shape)


class TestAverageRanks:
    def test_ties_match_brute_force(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 5, size=40).astype(float)   # plenty of ties
        assert np.array_equal(
            _scores(v), _rank_scores(_brute_force_average_ranks(v), v.size))

    @pytest.mark.parametrize("v", [
        np.random.default_rng(3).standard_normal(57),           # no ties
        np.random.default_rng(4).integers(0, 6, 80).astype(float),
        np.array([2.0, 2.0, 2.0]),                                # one tie run
        np.array([5.0]),
        np.array([1.0, -1.0, 1.0, np.inf, -np.inf, 0.0]),
    ])
    def test_average_ranks_bit_identical_to_brute_force(self, v):
        want = _rank_scores(_brute_force_average_ranks(v), v.size)
        assert _scores(v).tobytes() == want.tobytes()
        assert _row_scores(np.stack([v, v])).tobytes() == np.stack(
            [want, want]).tobytes()


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
        # the table at every rank 1, 1.5, ..., n: ndtri of the lower half,
        # 0 in the middle and the lower half negated above it; then the
        # scores of rows with one tied pair, as a resample's duplicated
        # rows give, one row at a time and as a chunk of problems
        r = np.arange(2, 2 * n + 1) / 2.0
        table = _half_rank_scores(n)
        lower = table[:n - 1]
        assert lower.tobytes() == ndtri(r[:n - 1] / (n + 1.0)).tobytes()
        assert table[n - 1] == 0.0 and not np.signbit(table[n - 1])
        assert table[n:].tobytes() == (-lower[::-1]).tobytes()
        rng = np.random.default_rng(n)
        rows, ranks = [], []
        for _ in range(3):
            v = rng.permutation(n).astype(float)
            v[1] = v[0]
            rows.append(v)
            ranks.append(_brute_force_average_ranks(v))
            assert np.any(ranks[-1] != np.round(ranks[-1]))
            assert (_scores(v).tobytes()
                    == _symmetric_ndtri(ranks[-1], n).tobytes())
        assert (_row_scores(np.array(rows)).tobytes()
                == _symmetric_ndtri(np.array(ranks), n).tobytes())

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

    @pytest.mark.parametrize("block", [1, 2, 3, 7, transform._GAP_BLOCK])
    def test_tolerant_runs_span_gap_blocks(self, monkeypatch, block):
        # integers moved a few ulps tie as the integers do, whichever
        # blocks of neighbours the gap test compares at a time
        monkeypatch.setattr(transform, "_GAP_BLOCK", block)
        rng = np.random.default_rng(12)
        exact = rng.integers(0, 5, (3, 40)).astype(np.float64)
        E = exact * (1.0 + 1e-15 * rng.integers(0, 3, exact.shape))
        mag = np.abs(E).max(axis=1) + 1.0
        order, runs = _sort_rows(E, mag)
        exact_order, exact_runs = _sort_rows(exact)
        # the same runs, each holding the same rows' values
        assert np.array_equal(runs, exact_runs)
        assert np.array_equal(exact.ravel()[order], exact.ravel()[exact_order])
        assert (_row_scores(E, mag).tobytes()
                == _row_scores(exact).tobytes())

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
            assert np.array_equal(fs.eta_hat[:, j], _rank_scores(
                _brute_force_average_ranks(r), n))
            assert np.array_equal(fs.eta_hat[:, j], normal_scores(r))

    @staticmethod
    def _elementwise_residuals(X, Z, coef):
        """z - c_0 - c_1 x_1 - ..., one row at a time, left to right."""
        V = X.values
        resid = np.empty(Z.shape)
        for j in range(Z.shape[1]):
            for r in range(V.shape[0]):
                e = Z[r, j] - coef[0, j]
                for i in range(1, V.shape[1]):
                    e -= coef[i, j] * V[r, i]
                resid[r, j] = e
        return resid

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
            coef, _ = self._per_column(X, Z)
            resid = self._elementwise_residuals(X, Z, coef)
            assert fs.delta_hat.tobytes() == coef.tobytes()
            assert fs.e_hat.tobytes() == resid.tobytes()
            assert fs.eta_hat.tobytes() == _rank_scores(
                _brute_force_average_ranks(resid[:, 0]), n)[:, None].tobytes()

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
