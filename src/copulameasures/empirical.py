"""Rank-based estimation: pseudo-observations and the empirical beta copula.

Raw data turns into a :class:`RankedSample` (column ranks with random
tie-breaking and an audit trail).  From it, :func:`empirical_copula_cdf`
evaluates the step-function estimator and :class:`EmpiricalBetaCopula`
the smooth rank-binomial one, which is a genuine copula when ranks are
permutations.  Plug-in estimates are the measures of that copula, e.g.
``cce(EmpiricalBetaCopula(rs))``; they integrate on the tensor grid at
k = 2 and 3 and by Sobol sampling from k = 4, one dimension before
parametric copulas do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .copulas import Copula
from .errors import DimensionMismatch, NonFiniteData

# cap on points per cdf_many block; the block's survival rows and
# products take a few (chunk, N) float arrays
_CHUNK = 4096
# elements per row block of the T_N product: rows = max(1, this // N),
# so each block's product and factor are 256 KB and stay in cache
_TN_BLOCK = 32768
# elements per row block of the grid contraction's (rows, N) factor: 16 MB,
# large enough that each matmul runs near BLAS speed on any thread count
_GRID_BLOCK = 1 << 21
# observations per matmul of the grid contraction.  OpenBLAS splits a
# long inner dimension into blocks whose sums it adds in an order that
# depends on its thread count (C moved in its last bits between 1 and 2
# threads at N = 400 and 724, never up to 300).  Summing chunks of 128
# here, in order, keeps C bit-identical on any count.
_GRID_INNER = 128
# survival values below this are set to 0 on the grid: products of three
# of them stay normal, where subnormal operands slow the matmul severalfold,
# and C moves by less than 1e-100
_GRID_TINY = 1e-100


@dataclass(frozen=True)
class RankedSample:
    """Columnwise ranks 1..N with tie-break bookkeeping."""

    ranks: np.ndarray          # (N, k) ints, each column a permutation of 1..N
    tie_seed: int
    ties_broken: tuple         # per column, observations re-ordered at random

    @property
    def n(self) -> int:
        return self.ranks.shape[0]

    @property
    def k(self) -> int:
        return self.ranks.shape[1]

    def pseudo_observations(self) -> np.ndarray:
        """R/(N+1), strictly inside the unit cube, column means 1/2."""
        return self.ranks / (self.n + 1.0)


def rank_with_random_ties(data: np.ndarray, tie_seed: int) -> RankedSample:
    """Columnwise ranks; tied groups are ordered by a seeded shuffle."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need an (N, k) array with N >= 2")
    if not np.all(np.isfinite(data)):
        raise NonFiniteData("data contains NaN or infinity")
    n, k = data.shape
    rng = np.random.default_rng(int(tie_seed))
    ranks = np.empty((n, k), dtype=np.int64)
    ties = []
    for j in range(k):
        col = data[:, j]
        ties.append(int(n - np.unique(col).size))
        # shuffling first makes the stable sort break ties uniformly
        perm = rng.permutation(n)
        order = perm[np.argsort(col[perm], kind="stable")]
        ranks[order, j] = np.arange(1, n + 1)
    return RankedSample(ranks=ranks, tie_seed=int(tie_seed), ties_broken=tuple(ties))


def empirical_copula_cdf(rs: RankedSample, point) -> float:
    """Step-function estimator: mean of the joint pseudo-obs indicators."""
    return float(empirical_copula_cdf_many(rs, np.ravel(point)[None, :])[0])


def empirical_copula_cdf_many(rs: RankedSample, U: np.ndarray) -> np.ndarray:
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[1] != rs.k:
        raise DimensionMismatch(f"points dimension {U.shape[1]} != {rs.k}")
    e = rs.pseudo_observations()
    out = np.empty(len(U))
    for lo in range(0, len(U), _CHUNK):
        block = U[lo:lo + _CHUNK]
        out[lo:lo + _CHUNK] = (
            (e[None, :, :] <= block[:, None, :]).all(axis=2).mean(axis=1))
    return out


@lru_cache(maxsize=8)
def _log_binomial_coefficients(n: int) -> np.ndarray:
    """log C(n, m) for m = 0..n."""
    m = np.arange(n + 1, dtype=float)
    return gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(n - m + 1.0)


def _binomial_survival(u: np.ndarray, n: int) -> np.ndarray:
    """S[a, r-1] = P(Bin(n, u[a]) >= r) for r = 1..n.

    The binomial pmf is exponentiated from its logarithm and summed from
    the top down, so every tail is a sum of positive terms and keeps its
    relative accuracy far out; dividing by the total removes the common
    rounding of the pmf.  Rows with u <= 0 are exactly 0, with u >= 1
    exactly 1.
    """
    ui = np.where((u > 0.0) & (u < 1.0), u, 0.5)  # edge rows are set below
    j = np.arange(n + 1, dtype=float)
    pmf = np.multiply.outer(np.log1p(-ui), j)     # column j holds m = n - j
    pmf += np.multiply.outer(np.log(ui), n - j)
    pmf += _log_binomial_coefficients(n)          # C(n, n - j) = C(n, j)
    np.exp(pmf, out=pmf)
    np.cumsum(pmf, axis=1, out=pmf)               # column j: P(X >= n - j)
    out = pmf[:, n - 1::-1] / pmf[:, n:]
    out[u <= 0.0] = 0.0
    out[u >= 1.0] = 1.0
    return out


@lru_cache(maxsize=2)
def _pseudo_obs_basis(n: int) -> np.ndarray:
    """B[q-1, r-1] = S(q/(N+1); N, r), shared by all rank matrices of size N."""
    return _binomial_survival(np.arange(1, n + 1) / (n + 1.0), n)


def _grid_contract(factors: list) -> np.ndarray:
    """sum_i prod_j F_j[a_j, i] over the grid of (a_1, ..., a_k), for
    (n_j, N) factors: the rows prod_{j<k} F_j[a_j, :], a block at a time,
    each block times F_k^T in one matmul (the whole grid at k = 2)."""
    *heads, last = factors
    shape = tuple(len(f) for f in heads)
    rows = int(np.prod(shape))
    out = np.empty((rows, len(last)))
    step = max(1, _GRID_BLOCK // last.shape[1])
    for lo in range(0, rows, step):
        idx = np.unravel_index(np.arange(lo, min(lo + step, rows)), shape)
        block = heads[0][idx[0]]
        for f, i in zip(heads[1:], idx[1:]):
            block *= f[i]
        acc = out[lo:lo + step]
        acc[:] = block[:, :_GRID_INNER] @ last[:, :_GRID_INNER].T
        for c in range(_GRID_INNER, block.shape[1], _GRID_INNER):
            acc += block[:, c:c + _GRID_INNER] @ last[:, c:c + _GRID_INNER].T
    return out.reshape(*shape, len(last))


@dataclass(frozen=True)
class EmpiricalBetaCopula(Copula):
    """Smooth copula built from rank-binomial survival functions.

    C(u) = (1/N) sum_i prod_j S(u_j; N, R_ij) with S(u; N, r) =
    P(Bin(N, u) >= r).  One scattered point costs O(N k): each coordinate
    needs the whole survival row over r = 1..N, computed by one
    binomial-pmf pass.  On a tensor grid with n nodes per axis the rows
    are needed at the n nodes only, and C on all n^k points is a BLAS
    contraction of O(n^k N) flops (``cdf_grid``), so its measures
    integrate on the grid at k = 2 and 3 (``tensor_grid``) and by Sobol
    sampling from k = 4 (``sobol_dim`` 4), where n^k grows too fast.
    """

    rs: RankedSample
    sobol_dim = 4
    tensor_grid = True

    @property
    def dim(self) -> int:
        return self.rs.k

    @property
    def has_zero_region(self) -> bool:
        return False

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        U = self._points(U)
        n, k = self.rs.n, self.rs.k
        out = np.empty(len(U))
        for lo in range(0, len(U), _CHUNK):
            block = U[lo:lo + _CHUNK]                       # (m, k)
            prod = np.ones((len(block), n))
            for j in range(k):
                # subdivision points share coordinates (a Genz-Malik box
                # has 7 distinct values per axis in 17 points; only a k = 4
                # cckl sends them here), so the survival rows are computed
                # once per distinct value
                u, inv = np.unique(block[:, j], return_inverse=True)
                s_all = _binomial_survival(u, n)            # (distinct u, n)
                prod *= s_all[:, self.rs.ranks[:, j] - 1][inv]
            out[lo:lo + _CHUNK] = prod.mean(axis=1)
        return np.clip(out, 0.0, 1.0)

    def cdf_grid(self, x) -> np.ndarray:
        """C on the tensor grid x^k: the survival rows at the n nodes,
        gathered by each rank column into an (n, N) factor, then
        contracted over the observations by matmul (``_grid_contract``),
        one (n x N)(N x n) product at k = 2 and n^2 rows in blocks at k = 3."""
        x = self._points(np.repeat(np.ravel(x)[:, None], self.dim, axis=1))[:, 0]
        s = _binomial_survival(x, self.rs.n)                # (n, N) over r
        s[s < _GRID_TINY] = 0.0
        factors = [s[:, r - 1] for r in self.rs.ranks.T]
        return np.clip(_grid_contract(factors) / self.rs.n, 0.0, 1.0)

    def cdf_at_pseudo_observations(self) -> np.ndarray:
        """Values at the sample's own pseudo-observations, via the shared
        N x N basis, built on the first call for this N.

        Value i is (1/N) sum_l prod_j B[R_ij - 1, R_lj - 1].  The product
        is formed a block of rows i at a time, so the temporaries are
        O(block N) beside the cached basis.  Each row keeps its values
        and their order, and ``mean(axis=1)`` reduces a C-ordered row the
        same way at any block height, so the result is bit-identical to
        the dense N x N product.
        """
        n = self.rs.n
        basis = _pseudo_obs_basis(n)
        r = self.rs.ranks - 1
        rows = max(1, _TN_BLOCK // n)
        out = np.empty(n)
        for lo in range(0, n, rows):
            # row: eval point, col: obs; take keeps the block C-ordered
            prod = np.take(basis[r[lo:lo + rows, 0]], r[:, 0], axis=1)
            for j in range(1, self.rs.k):
                prod *= np.take(basis[r[lo:lo + rows, j]], r[:, j], axis=1)
            out[lo:lo + rows] = prod.mean(axis=1)
        return out

    def mean_integral(self) -> float:
        """Exact integral of the copula over the cube.

        Uses int_0^1 S(u; N, R) du = (N + 1 - R)/(N + 1).
        """
        n = self.rs.n
        w = (n + 1.0 - self.rs.ranks) / (n + 1.0)
        return float(w.prod(axis=1).mean())
