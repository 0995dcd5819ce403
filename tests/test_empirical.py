import tracemalloc

import numpy as np
import pytest
from scipy.special import betaln, gammaln
from scipy.stats import qmc

from copulameasures import (
    CopulaModel,
    EmpiricalBetaCopula,
    IntegrationConfig,
    MixtureCopula,
    RankedSample,
    b_k,
    cce,
    ccigf,
    cckl,
    concordance_leq_on_grid,
    empirical_copula_cdf,
    estimate,
    fcce,
    integrate_unit_cube,
    rank_with_random_ties,
    t_statistic,
    xlog_ratio,
)
from copulameasures import empirical
from copulameasures.cubature import _grid_axis
from copulameasures.empirical import (_TN_BLOCK, _band_blocks,
                                      _binomial_survival, _pseudo_obs_basis,
                                      empirical_copula_cdf_many)
from copulameasures.errors import DimensionMismatch, NonFiniteData
from copulameasures.fit import FITTABLE_FAMILIES


def _ranked(rows, seed=0):
    return rank_with_random_ties(np.asarray(rows, dtype=float), seed)


class TestRanking:
    def test_no_ties(self):
        rs = _ranked([[3.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        assert rs.ranks[:, 0].tolist() == [3, 1, 2]
        assert rs.ties_broken == (0, 0)

    def test_forced_tie_both_orders(self):
        seen = {tuple(_ranked([[5.0, 0.0], [5.0, 1.0]], seed).ranks[:, 0])
                for seed in range(40)}
        assert seen == {(1, 2), (2, 1)}

    def test_tie_count(self):
        rs = _ranked([[1.0, 1.0], [1.0, 2.0], [2.0, 2.0], [3.0, 3.0]])
        assert rs.ties_broken == (1, 1)

    def test_columns_are_permutations(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 4, size=(60, 3)).astype(float)
        rs = rank_with_random_ties(data, 11)
        for j in range(3):
            assert sorted(rs.ranks[:, j]) == list(range(1, 61))

    def test_deterministic_per_seed(self):
        data = np.random.default_rng(1).integers(0, 3, (30, 2)).astype(float)
        a = rank_with_random_ties(data, 42).ranks
        b = rank_with_random_ties(data, 42).ranks
        assert np.array_equal(a, b)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteData):
            _ranked([[1.0, np.nan], [2.0, 3.0]])

    def test_pseudo_observations(self):
        rs = _ranked([[0.1, 0.4], [0.9, 0.2]])
        e = rs.pseudo_observations()
        assert np.all((e > 0) & (e < 1))
        assert np.allclose(e.mean(axis=0), 0.5)


class TestEmpiricalCdf:
    def test_examples(self):
        rs = _ranked([[0.1, 0.2], [0.9, 0.8]])
        assert empirical_copula_cdf(rs, [1.0, 1.0]) == 1.0
        assert empirical_copula_cdf(rs, [0.2, 0.9]) == 0.0  # below 1/(N+1)
        assert empirical_copula_cdf(rs, [0.5, 0.5]) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            empirical_copula_cdf(_ranked([[1.0, 2.0], [2.0, 1.0]]), [0.5] * 3)

    def test_points_checked_as_a_copula_checks_them(self):
        """The step function raises where ``EmpiricalBetaCopula`` does, with
        its message, and clips coordinates within 1e-12 of the cube."""
        rs = _ranked([[0.1, 0.2], [0.9, 0.8]])
        cdfs = (lambda u: empirical_copula_cdf(rs, u), EmpiricalBetaCopula(rs).cdf)
        for cdf in cdfs:
            for bad in ([np.nan, 0.5], [-3.0, 0.5], [0.5, 1.0 + 1e-9]):
                with pytest.raises(ValueError, match="must lie in"):
                    cdf(bad)
            with pytest.raises(DimensionMismatch,
                               match="points have dimension 3, copula has 2"):
                cdf([0.5] * 3)
        assert empirical_copula_cdf(rs, [-1e-13, 1.0 + 1e-13]) == 0.0
        assert empirical_copula_cdf(rs, [1.0 + 1e-13, 1.0 + 1e-13]) == 1.0


class TestBetaCopula:
    def test_single_observation_is_product(self):
        rs1 = RankedSample(np.array([[1, 1]]), 0, (0, 0))
        c = EmpiricalBetaCopula(rs1)
        assert c.cdf([0.3, 0.7]) == pytest.approx(0.21, abs=1e-15)
        assert c.mean_integral() == pytest.approx(0.25, abs=1e-15)

    def test_two_point_example(self):
        rs = _ranked([[0.1, 0.2], [0.9, 0.8]])
        assert EmpiricalBetaCopula(rs).cdf([0.5, 0.5]) == pytest.approx(0.3125)
        assert EmpiricalBetaCopula(rs).cdf([1.0, 1.0]) == 1.0
        assert EmpiricalBetaCopula(rs).mean_integral() == \
            pytest.approx(5.0 / 18.0, rel=1e-14)

    def test_comonotone_two_point_mean(self):
        rs = RankedSample(np.array([[1, 1], [2, 2]]), 0, (0, 0))
        assert EmpiricalBetaCopula(rs).mean_integral() == \
            pytest.approx(5.0 / 18.0, rel=1e-14)

    def test_grounded_and_margins_exact(self):
        rng = np.random.default_rng(2)
        rs = rank_with_random_ties(rng.normal(size=(41, 3)), 1)
        c = EmpiricalBetaCopula(rs)
        assert c.cdf([0.0, 0.5, 0.9]) == 0.0
        assert c.cdf([1.0, 1.0, 1.0]) == 1.0
        u = rng.random(50)
        for j in range(3):
            pts = np.ones((50, 3))
            pts[:, j] = u
            assert np.allclose(c.cdf_many(pts), u, atol=1e-12)

    def test_two_increasing_random_rectangles(self):
        rng = np.random.default_rng(3)
        rs = rank_with_random_ties(rng.normal(size=(25, 2)), 2)
        c = EmpiricalBetaCopula(rs)
        a = rng.random((100, 2)) * 0.95
        b = a + rng.random((100, 2)) * (1.0 - a)
        mass = (c.cdf_many(b)
                - c.cdf_many(np.column_stack([a[:, 0], b[:, 1]]))
                - c.cdf_many(np.column_stack([b[:, 0], a[:, 1]]))
                + c.cdf_many(a))
        assert mass.min() >= -1e-12

    @pytest.mark.parametrize("n", [50, 200])
    def test_sup_distance_to_empirical_copula(self, n):
        rng = np.random.default_rng(n)
        rs = rank_with_random_ties(
            CopulaModel("clayton", 2, (2.0,)).sample(n, seed=n), 1)
        c = EmpiricalBetaCopula(rs)
        axis = np.linspace(0.0, 1.0, 33)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"),
                        axis=-1).reshape(-1, 2)
        gap = np.abs(empirical_copula_cdf_many(rs, grid) - c.cdf_many(grid)).max()
        bound = 2.0 * (np.sqrt(np.log(n) / n) + n ** -0.5 + 1.0 / n)
        assert gap <= bound

    def test_basis_built_only_for_t_statistic(self):
        """Construction, cdf_many and the measures leave the N x N basis
        cache alone; the T_N statistic asks it once."""
        data = np.random.default_rng(8).normal(size=(37, 2))
        rs = rank_with_random_ties(data, 0)
        before = _pseudo_obs_basis.cache_info()
        c = EmpiricalBetaCopula(rs)
        c.cdf_many(rs.pseudo_observations())
        cce(c, IntegrationConfig(abs_tol=1e-4))
        assert _pseudo_obs_basis.cache_info() == before
        t_statistic(rs, CopulaModel("product", 2))
        after = _pseudo_obs_basis.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1

    @pytest.mark.parametrize("n,k", [(2, 2), (37, 2), (250, 2), (20, 3), (150, 3)])
    def test_cdf_grid_matches_cdf_many(self, n, k):
        rs = rank_with_random_ties(np.random.default_rng(n).normal(size=(n, k)), 4)
        c = EmpiricalBetaCopula(rs)
        x = np.array([0.0, 1e-9, 0.03, 0.31, 0.5, 0.77, 0.999, 1.0])
        grid = np.stack(np.meshgrid(*[x] * k, indexing="ij"), axis=-1)
        want = c.cdf_many(grid.reshape(-1, k)).reshape((len(x),) * k)
        assert np.allclose(c.cdf_grid(x), want, rtol=1e-13, atol=1e-15)

    def test_mean_matches_cubature_random_ranks(self):
        rng = np.random.default_rng(4)
        for n, k in ((7, 2), (23, 2), (50, 3), (14, 3)):
            data = rng.normal(size=(n, k))
            rs = rank_with_random_ties(data, 5)
            c = EmpiricalBetaCopula(rs)
            est = b_k(c)
            assert c.mean_integral() == pytest.approx(est.value, abs=1e-6)


def exact_square_integral(c: EmpiricalBetaCopula) -> float:
    """Exact integral of C^2 over the cube, for the beta copula's oracle
    tests beside ``mean_integral()``.

    int_0^1 S(u; N, r1) S(u; N, r2) du = M[r1, r2], the sum over m1 >= r1
    and m2 >= r2 of C(N, m1) C(N, m2) B(m1 + m2 + 1, 2N - m1 - m2 + 1),
    built as a 2-D suffix sum of log terms.  C^2 is a double sum over
    observations, so the integral is (1/N^2) sum_{i,l} prod_j M[R_ij, R_lj].
    """
    n = c.rs.n
    m = np.arange(n + 1.0)
    log_binom = gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(n - m + 1.0)
    total = m[:, None] + m[None, :]
    log_terms = (log_binom[:, None] + log_binom[None, :]
                 + betaln(total + 1.0, 2.0 * n - total + 1.0))
    suffix = np.logaddexp.accumulate(log_terms[::-1, ::-1], axis=0)
    M = np.exp(np.logaddexp.accumulate(suffix, axis=1)[::-1, ::-1])
    prod = np.ones((n, n))
    for r in c.rs.ranks.T:
        prod *= M[np.ix_(r, r)]
    return float(prod.sum() / n ** 2)


class TestExactOracles:
    """b_k and ccigf:2 of the beta copula, integrated on the tensor grid,
    against their closed forms ``mean_integral()`` and
    ``exact_square_integral``."""

    def test_square_integral_single_observation(self):
        rs1 = RankedSample(np.array([[1, 1]]), 0, (0, 0))
        assert exact_square_integral(EmpiricalBetaCopula(rs1)) == \
            pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_square_integral_matches_subdivision(self):
        rs = rank_with_random_ties(np.random.default_rng(2).normal(size=(9, 2)), 1)
        c = EmpiricalBetaCopula(rs)
        est = integrate_unit_cube(lambda U: c.cdf_many(U) ** 2, 2,
                                  IntegrationConfig(abs_tol=1e-11, rel_tol=1e-11))
        assert exact_square_integral(c) == pytest.approx(est.value, abs=1e-10)

    @pytest.mark.parametrize("k,family,params,n", [
        *[(2, f, p, n) for f, p in (("gaussian", (0.7,)), ("clayton", (2.0,)),
                                    ("product", ()))
          for n in (50, 150, 250)],
        *[(3, f, p, n) for f, p in (("gaussian", (0.5, 0.3, 0.4)),
                                    ("clayton", (2.0,)))
          for n in (150, 724)],
    ])
    @pytest.mark.parametrize("abs_tol", [1e-6, None])
    def test_grid_within_reported_error(self, k, family, params, n, abs_tol):
        data = CopulaModel(family, k, params).sample(n, seed=11 + n)
        c = EmpiricalBetaCopula(rank_with_random_ties(data, 0))
        cfg = IntegrationConfig(abs_tol=abs_tol)
        for est, exact in ((b_k(c, cfg), c.mean_integral()),
                           (ccigf(c, 2.0, cfg), exact_square_integral(c))):
            tol = max(abs_tol or 1e-7, cfg.rel_tol * abs(est.value))
            assert abs(est.value - exact) <= est.error <= tol


def _ranks_to_check(n, u):
    """Every r for small N; otherwise both ends, a geometric sweep and the
    bulk and upper tail around the binomial mean."""
    if n <= 25:
        return np.arange(1, n + 1)
    sd = np.sqrt(n * u * (1.0 - u))
    r = np.concatenate([[1, 2, 3, n - 1, n], np.geomspace(1, n, 12),
                        n * u + sd * np.array([-8, -4, -2, -1, 0, 1, 2, 4,
                                               8, 16, 32])])
    return np.unique(np.clip(np.round(r), 1, n)).astype(int)


class TestBinomialSurvival:
    @pytest.mark.parametrize("n", [1, 2, 25, 250, 724, 2000])
    def test_matches_regularized_incomplete_beta(self, n):
        """S(u; N, r) = I_u(r, N - r + 1), referenced at 40 digits."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        us = np.concatenate([rng.random(3), [0.0, 1.0, 1e-9, 1.0 - 1e-9,
                                             1.0 / (n + 1), n / (n + 1.0)]])
        S = _binomial_survival(us, n)
        assert S.shape == (len(us), n)
        assert np.all((S >= 0.0) & (S <= 1.0))
        assert np.all(np.diff(S, axis=1) <= 0.0)
        assert np.all(S[us == 0.0] == 0.0) and np.all(S[us == 1.0] == 1.0)
        abs_tol = 1e-12 if n <= 1000 else 1e-11
        for a, u in enumerate(us):
            r = _ranks_to_check(n, u)
            with mpmath.workdps(40):
                ref = np.array([float(mpmath.betainc(
                    int(ri), n - int(ri) + 1, 0, mpmath.mpf(float(u)),
                    regularized=True)) for ri in r])
            err = np.abs(S[a, r - 1] - ref)
            assert err.max() <= abs_tol, (u, r[err.argmax()])
            big = ref >= 1e-200
            assert np.all(err[big] <= 1e-10 * ref[big]), u

    def test_basis_path_equals_kernel_path(self):
        """T_N's banded sum over the basis against ``cdf_many``, which
        forms the dense product at the pseudo-observations bit for bit."""
        rs = rank_with_random_ties(
            CopulaModel("frank", 3, (5.0,)).sample(724, seed=8), 2)
        c = EmpiricalBetaCopula(rs)
        want = c.cdf_many(rs.pseudo_observations())
        assert np.all(np.abs(c.cdf_at_pseudo_observations() - want)
                      <= 1e-14 * want)


class TestPseudoObsBlocks:
    """The rank products of the three estimators, formed a block of rows
    at a time, against the dense product of all rows at once: bit for bit
    for ``cdf_many`` and the step function, and within the band's bound
    for T_N, whose sum runs in first-rank order.  Each estimator is
    evaluated at N points, so the sizes give the blocks their shapes."""

    @staticmethod
    def _dense(rs):
        """The whole N x N product, then the row means."""
        basis = _pseudo_obs_basis(rs.n)
        prod = np.ones((rs.n, rs.n))
        for j in range(rs.k):
            c = rs.ranks[:, j] - 1
            prod *= basis[np.ix_(c, c)]
        return prod.mean(axis=1)

    @staticmethod
    def _dense_cdf(rs, U):
        """The survival rows of all points, their whole product, then the
        row means."""
        prod = np.ones((len(U), rs.n))
        for j in range(rs.k):
            prod *= _binomial_survival(U[:, j], rs.n)[:, rs.ranks[:, j] - 1]
        return np.clip(prod.mean(axis=1), 0.0, 1.0)

    @staticmethod
    def _sample(n, k):
        rng = np.random.default_rng(1000 * n + k)
        ranks = np.column_stack([rng.permutation(n) + 1 for _ in range(k)])
        rs = RankedSample(ranks=ranks, tie_seed=0, ties_broken=(0,) * k)
        sobol = qmc.Sobol(k, seed=n).random_base2(max(1, n - 1).bit_length())[:n]
        shared = rng.integers(0, 8, size=(n, k)) / 7.0  # 8 values per axis
        return rs, (sobol, shared)

    SIZES = (1, 2, 100, 250, 724, 2000)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_dense_product_within_1e14(self, n, k):
        rs, _ = self._sample(n, k)
        got = EmpiricalBetaCopula(rs).cdf_at_pseudo_observations()
        want = self._dense(rs)
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    @pytest.mark.parametrize("n", SIZES)
    def test_band_skips_only_entries_below_cut(self, n):
        """Every basis entry left out of a block's first factor is at most
        2^-60 / N; the blocks cover the rows once and keep the diagonal."""
        basis = _pseudo_obs_basis(n)
        blocks = list(_band_blocks(basis))
        assert [lo for lo, _, _ in blocks] == [0] + [hi for _, hi, _ in blocks[:-1]]
        assert blocks[-1][1] == n
        for lo, hi, width in blocks:
            assert hi <= width <= n
            assert np.all(basis[lo:hi, width:] <= 2.0 ** -60 / n)
        if n >= 724:   # the band is narrower than N where it pays
            assert min(width for _, _, width in blocks) < n // 2

    @pytest.mark.parametrize("n", [724, 2000])
    @pytest.mark.parametrize("data", ["clayton", "comonotone"])
    def test_t_statistic_within_1e12_of_dense(self, n, data, monkeypatch):
        """T_N cancels to about 1e-4 of the values it is formed from, so
        its relative bound is looser than theirs.  Clayton(8) and
        comonotone ranks put the most mass near the diagonal, where the
        band's edge lies."""
        model = CopulaModel("clayton", 3, (8.0,))
        if data == "clayton":
            rs = rank_with_random_ties(model.sample(n, seed=n), 1)
        else:
            ranks = np.repeat(np.arange(1, n + 1)[:, None], 3, axis=1)
            rs = RankedSample(ranks=ranks, tie_seed=0, ties_broken=(0, 0, 0))
        got = t_statistic(rs, model)
        monkeypatch.setattr(EmpiricalBetaCopula, "cdf_at_pseudo_observations",
                            lambda c: self._dense(c.rs))
        want = t_statistic(rs, model)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", SIZES)
    def test_cdf_many_equals_dense_product_bitwise(self, n, k):
        rs, points = self._sample(n, k)
        c = EmpiricalBetaCopula(rs)
        for U in points:
            assert np.array_equal(c.cdf_many(U), self._dense_cdf(rs, U))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", SIZES)
    def test_step_function_equals_broadcast_bitwise(self, n, k):
        rs, points = self._sample(n, k)
        e = rs.pseudo_observations()
        for U in (*points, e):
            dense = (e[None, :, :] <= U[:, None, :]).all(axis=2).mean(axis=1)
            assert np.array_equal(empirical_copula_cdf_many(rs, U), dense)

    def test_sizes_cover_block_shapes(self):
        """One block, several full blocks, and a short last block."""
        rows = {n: max(1, _TN_BLOCK // n) for n in self.SIZES}
        assert any(r >= n for n, r in rows.items())
        assert any(r < n and n % r == 0 for n, r in rows.items())
        assert any(r < n and n % r != 0 for n, r in rows.items())

    def test_memory_bounded_beside_basis(self):
        n = 2000
        rng = np.random.default_rng(3)
        ranks = np.column_stack([rng.permutation(n) + 1 for _ in range(3)])
        c = EmpiricalBetaCopula(
            RankedSample(ranks=ranks, tie_seed=0, ties_broken=(0, 0, 0)))
        _pseudo_obs_basis(n)              # the cached basis is not counted
        tracemalloc.start()
        try:
            c.cdf_at_pseudo_observations()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6              # one dense N x N product is 32 MB

    def test_cdf_many_memory_bounded(self):
        """4,096 points at N = 2000 need a few (rows, N) blocks, not the
        (4096, N) survival rows of each coordinate."""
        rs, _ = self._sample(2000, 3)
        c = EmpiricalBetaCopula(rs)
        U = qmc.Sobol(3, seed=0).random_base2(12)
        tracemalloc.start()
        try:
            c.cdf_many(U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6              # one (4096, N) float array is 66 MB

    def test_step_function_memory_bounded(self):
        """4,096 points at N = 2000 compare a (rows, N, k) block at a time,
        96 KB, not the dense (4096, N, k) comparison of 24.6 MB."""
        rs, _ = self._sample(2000, 3)
        U = qmc.Sobol(3, seed=0).random_base2(12)
        tracemalloc.start()
        try:
            empirical_copula_cdf_many(rs, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6



class TestGridMemo:
    """A beta copula keeps each grid it builds: a repeated axis reads it
    back, and every measure and candidate gets the bits a fresh copula
    would give."""

    AXES = (np.linspace(0.0, 1.0, 9), np.array([0.0, 1e-9, 0.31, 0.999, 1.0]),
            np.linspace(0.0, 1.0, 9))

    @staticmethod
    def _copula(n, k, seed=0):
        data = np.random.default_rng(seed).normal(size=(n, k))
        data[:, 1:] += data[:, :1]
        return EmpiricalBetaCopula(rank_with_random_ties(data, 1)), data

    @pytest.mark.parametrize("n,k", [(250, 2), (60, 3)])
    def test_grids_equal_fresh_copula_bitwise(self, n, k):
        c, _ = self._copula(n, k)
        for x in self.AXES:
            fresh = EmpiricalBetaCopula(c.rs).cdf_grid(x)
            assert np.array_equal(c.cdf_grid(x), fresh)

    def test_level_axis_contracts_once_other_axes_every_time(self,
                                                              monkeypatch):
        c, _ = self._copula(60, 3)
        calls, original = [], empirical._grid_contract

        def counting(factors):
            calls.append(len(factors))
            return original(factors)
        monkeypatch.setattr(empirical, "_grid_contract", counting)
        level = _grid_axis(1)[0]
        first = c.cdf_grid(level)
        assert c.cdf_grid(level.copy()) is first
        assert len(calls) == 1
        x = np.linspace(0.0, 1.0, len(level))
        assert np.array_equal(c.cdf_grid(x), c.cdf_grid(x))
        assert c.cdf_grid(level[:-1]).shape == (len(level) - 1,) * 3
        assert len(calls) == 4
        assert list(c._grids) == [level.tobytes()]

    @pytest.mark.parametrize("x", [np.linspace(0.0, 1.0, 5), _grid_axis(0)[0]])
    def test_grid_is_read_only(self, x):
        c, _ = self._copula(40, 2)
        grid = c.cdf_grid(x)
        with pytest.raises(ValueError):
            grid[1, 1] = 0.5

    def test_concordance_grid_not_kept(self):
        c, _ = self._copula(60, 3)
        concordance_leq_on_grid(c, CopulaModel("product", 3), 9)
        assert c._grids == {}

    @pytest.mark.parametrize("n,k", [(250, 2), (60, 3)])
    def test_six_divergences_equal_fresh_copula_bitwise(self, n, k):
        c, data = self._copula(n, k)
        cfg = IntegrationConfig(abs_tol=1e-5)
        for family in FITTABLE_FAMILIES:
            model = estimate(family, data).model
            shared = cckl(c, model, cfg)
            fresh = cckl(EmpiricalBetaCopula(c.rs), model, cfg)
            assert (shared.value, shared.error, shared.evals) == (
                fresh.value, fresh.error, fresh.evals)

    def test_mixture_holding_the_copula_equals_fresh_bitwise(self):
        """The mixture's grid reads the copula's kept grids."""
        c, _ = self._copula(80, 2)
        cfg = IntegrationConfig(abs_tol=1e-6)
        cce(c, cfg)                                  # fills the memo
        clayton = CopulaModel("clayton", 2, (2.0,))

        def divergence(beta):
            return cckl(MixtureCopula((beta, clayton), (0.4, 0.6)), beta, cfg)
        mixed, fresh = divergence(c), divergence(EmpiricalBetaCopula(c.rs))
        assert (mixed.value, mixed.error, mixed.evals) == (
            fresh.value, fresh.error, fresh.evals)


class TestPluginMeasures:
    def test_single_observation_entropy(self):
        rs1 = RankedSample(np.array([[1, 1]]), 0, (0, 0))
        est = cce(EmpiricalBetaCopula(rs1))
        assert est.value == pytest.approx(0.25, abs=1e-6)

    def test_fcce_at_one_matches_cce(self):
        rng = np.random.default_rng(6)
        rs = rank_with_random_ties(rng.normal(size=(30, 2)), 3)
        a = fcce(EmpiricalBetaCopula(rs), 1.0)
        b = cce(EmpiricalBetaCopula(rs))
        assert a.value == pytest.approx(b.value, abs=a.error + b.error + 1e-9)

    def test_divergence_within_error_of_a_tight_reference(self):
        """Subdivision stopped this divergence after 17 evaluations, at
        4.2439e-4 +- 5.6e-6, against 4.6437e-4."""
        data = CopulaModel("gaussian", 2, (0.7,)).sample(250, seed=7009)
        c = EmpiricalBetaCopula(rank_with_random_ties(data, 9))
        joe = estimate("joe", data).model
        est = cckl(c, joe, IntegrationConfig(abs_tol=1e-5))
        ref = integrate_unit_cube(
            lambda U: xlog_ratio(c.cdf_many(U), np.maximum(joe.cdf_many(U), 1e-300)),
            2, IntegrationConfig(abs_tol=1e-9))
        assert abs(est.value - ref.value) <= est.error

    def test_k4_divergence_within_error_of_subdivision(self):
        """From k = 4 a divergence with a beta copula runs Sobol; a tight
        subdivision of the point integrand agrees within its error."""
        X = np.random.default_rng(5).normal(size=(30, 4))
        c = EmpiricalBetaCopula(rank_with_random_ties(X, 0))
        clayton = CopulaModel("clayton", 4, (1.0,))
        est = cckl(c, clayton)
        assert est.evals % (16 * 1024) == 0      # Sobol rounds
        ref = integrate_unit_cube(
            lambda U: xlog_ratio(c.cdf_many(U),
                                 np.maximum(clayton.cdf_many(U), 1e-300)),
            4, IntegrationConfig(abs_tol=1e-6))
        assert abs(est.value - ref.value) <= est.error

    def test_thousand_product_samples_close(self):
        data = CopulaModel("product", 2).sample(1000, seed=123)
        rs = rank_with_random_ties(data, 9)
        est = cce(EmpiricalBetaCopula(rs), IntegrationConfig(abs_tol=1e-6))
        assert abs(est.value - 0.25) < 0.01


@pytest.mark.slow
def test_consistency_median_decreasing():
    """Median plug-in error for clayton(2) shrinks as N grows.

    Each seed draws one stream of 1000 observations and the three sample
    sizes are its prefixes, so the per-seed errors are coupled and the
    medians measure pure shrinkage rather than independent noise.
    """
    model = CopulaModel("clayton", 2, (2.0,))
    truth = cce(model).value
    sizes = (250, 500, 1000)
    seeds = range(20)
    cfg = IntegrationConfig(abs_tol=1e-6)
    medians = []
    for n in sizes:
        errs = []
        for s in seeds:
            data = model.sample(1000, seed=9000 + s)[:n]
            rs = rank_with_random_ties(data, s)
            errs.append(abs(cce(EmpiricalBetaCopula(rs), cfg).value - truth))
        medians.append(float(np.median(errs)))
    assert medians[0] >= medians[1] >= medians[2]
