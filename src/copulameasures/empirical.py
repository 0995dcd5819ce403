"""Rank-based estimation: pseudo-observations and the empirical beta copula.

Raw data turns into a :class:`RankedSample` (column ranks with random
tie-breaking and an audit trail).  From it, :func:`empirical_copula_cdf`
evaluates the step-function estimator and :class:`EmpiricalBetaCopula`
the smooth rank-binomial one, which is a genuine copula when ranks are
permutations.  Plug-in estimates are the measures of that copula, e.g.
``cce(EmpiricalBetaCopula(rs))``, on the engine that
:mod:`~copulameasures.cubature` picks for a copula that sets
``tensor_grid``.  The step function compares the pseudo-observations
with a block of points at a time, and the beta copula at scattered
points gathers the survival rows of a block by the rank columns.  At
its own pseudo-observations (for T_N) it runs on the observations
sorted by their first rank, where the first factor is a slice of one
cached basis and pairs outside its band are skipped (``_band_blocks``).
A beta copula keeps the grids it builds on the grid engine's levels;
concurrent callers may build one grid twice, but get equal arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .copulas import Copula, _grid_rows, _unit_points
from .cubature import _is_level_axis
from .errors import NonFiniteData

# elements per row block of the estimators: rows = max(1, this // N),
# so each block's product and factor are 256 KB and stay in cache
_TN_BLOCK = 32768
# basis entries of T_N's first factor at or below this / N are skipped
_BAND_CUT = 2.0 ** -60
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
        # shuffling first makes the stable sort break ties uniformly
        perm = rng.permutation(n)
        order = perm[np.argsort(col[perm], kind="stable")]
        ranks[order, j] = np.arange(1, n + 1)
        ordered = col[order]
        ties.append(int(np.count_nonzero(ordered[1:] == ordered[:-1])))
    return RankedSample(ranks=ranks, tie_seed=int(tie_seed), ties_broken=tuple(ties))


def empirical_copula_cdf(rs: RankedSample, point) -> float:
    """Step-function estimator: mean of the joint pseudo-obs indicators."""
    return float(empirical_copula_cdf_many(rs, np.ravel(point)[None, :])[0])


def empirical_copula_cdf_many(rs: RankedSample, U: np.ndarray) -> np.ndarray:
    """The step function at the rows of U, checked as every copula's are,
    max(1, _TN_BLOCK // N) rows at a time; a row's mean is the same at any
    block height, so the bits are those of one (m, N, k) comparison."""
    U = _unit_points(U, rs.k)
    e = rs.pseudo_observations()
    step = max(1, _TN_BLOCK // rs.n)
    out = np.empty(len(U))
    for lo in range(0, len(U), step):
        rows = slice(lo, lo + step)
        out[rows] = (e <= U[rows, None, :]).all(axis=2).mean(axis=1)
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


def _band_blocks(basis: np.ndarray):
    """(lo, hi, width) for the row blocks of the T_N product: rows lo..hi-1
    of B need its first ``width`` columns, those above ``_BAND_CUT`` / N.

    B's rows fall in r and its columns rise in q, so row hi - 1 bounds
    the block; the diagonal is kept whatever its value.
    """
    n = len(basis)
    step = max(1, _TN_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        width = max(hi, int(np.count_nonzero(basis[hi - 1] > _BAND_CUT / n)))
        yield lo, hi, width


def _grid_contract(factors: list) -> np.ndarray:
    """sum_i prod_j F_j[a_j, i] over the grid of (a_1, ..., a_k), for
    (n_j, N) factors: the rows prod_{j<k} F_j[a_j, :], a block at a time,
    each block times F_k^T in one matmul (the whole grid at k = 2)."""
    *heads, last = factors
    shape = tuple(len(f) for f in heads)
    out = np.empty((int(np.prod(shape)), len(last)))
    for rows, idx in _grid_rows(shape, _GRID_BLOCK // last.shape[1]):
        block = heads[0][idx[0]]
        for f, i in zip(heads[1:], idx[1:]):
            block *= f[i]
        acc = out[rows]
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
    contraction of O(n^k N) flops (``cdf_grid``); so it sets
    ``tensor_grid``, whose engine rule is in :mod:`~copulameasures.cubature`.

    The instance keeps each grid it builds on the nodes of a grid-engine
    level (``_is_level_axis``), keyed by the axis, so the measures and
    candidate divergences of one sample share one grid per level; a grid
    on any other axis is built and not kept.  Grids are read-only.  The
    levels are fixed and an integration stops before it passes its
    ``max_evals``, so the kept grids hold no more values than the
    costliest of its measures evaluated: at most its ``max_evals`` doubles.
    """

    rs: RankedSample
    _grids: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    tensor_grid = True

    @property
    def dim(self) -> int:
        return self.rs.k

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        """C at scattered points, max(1, _TN_BLOCK // N) at a time: each rank
        column gathers the survival rows of a block, C-ordered, and a row's
        mean is the same at any block height, so the bits are those of the
        dense (m, N) product."""
        U = _unit_points(U, self.dim)
        n, r = self.rs.n, self.rs.ranks - 1
        step = max(1, _TN_BLOCK // n)
        out = np.empty(len(U))
        for lo in range(0, len(U), step):
            rows = slice(lo, lo + step)
            prod = np.take(_binomial_survival(U[rows, 0], n), r[:, 0], axis=1)
            for j in range(1, self.rs.k):
                prod *= np.take(_binomial_survival(U[rows, j], n), r[:, j], axis=1)
            out[rows] = prod.mean(axis=1)
        return np.clip(out, 0.0, 1.0)

    def cdf_grid(self, x) -> np.ndarray:
        """C on the tensor grid x^k: the survival rows at the n nodes,
        gathered by each rank column into an (n, N) factor, then
        contracted over the observations by matmul (``_grid_contract``),
        one (n x N)(N x n) product at k = 2 and n^2 rows in blocks at k = 3,
        kept as the class states."""
        x = self._axis(x)
        key = x.tobytes()
        grid = self._grids.get(key)
        if grid is None:
            s = _binomial_survival(x, self.rs.n)            # (n, N) over r
            s[s < _GRID_TINY] = 0.0
            factors = [s[:, r - 1] for r in self.rs.ranks.T]
            grid = np.clip(_grid_contract(factors) / self.rs.n, 0.0, 1.0)
            grid.setflags(write=False)
            if _is_level_axis(key, len(x)):
                self._grids[key] = grid
        return grid

    def cdf_at_pseudo_observations(self) -> np.ndarray:
        """Values at the sample's own pseudo-observations, via the shared
        N x N basis, built on the first call for this N.

        Value i is (1/N) sum_l prod_j B[R_ij - 1, R_lj - 1].  Rows i and
        observations l are both taken in the order of their first rank,
        so the first factor of a block of rows is a slice of B, and only
        the observations of its band (``_band_blocks``) enter the sum.
        Each skipped pair has a first factor of at most ``_BAND_CUT`` / N
        and there are fewer than N of them, so a value moves by at most
        2^-60 / N against the full sum.
        """
        n = self.rs.n
        basis = _pseudo_obs_basis(n)
        r = self.rs.ranks - 1
        order = np.empty(n, dtype=np.intp)
        order[r[:, 0]] = np.arange(n)          # the observation of first rank q
        rsort = r[order]
        out = np.empty(n)
        for lo, hi, width in _band_blocks(basis):
            prod = basis[lo:hi, :width].copy()
            for j in range(1, self.rs.k):
                prod *= np.take(basis[rsort[lo:hi, j]], rsort[:width, j], axis=1)
            out[order[lo:hi]] = prod.sum(axis=1) / n
        return out

    def mean_integral(self) -> float:
        """Exact integral of the copula over the cube.

        Uses int_0^1 S(u; N, R) du = (N + 1 - R)/(N + 1).
        """
        n = self.rs.n
        w = (n + 1.0 - self.rs.ranks) / (n + 1.0)
        return float(w.prod(axis=1).mean())
