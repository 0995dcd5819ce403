"""Rank-based estimation: pseudo-observations and the empirical beta copula.

Raw data turns into a :class:`RankedSample` (column ranks with random
tie-breaking and an audit trail).  From it, :func:`empirical_copula_cdf`
evaluates the step-function estimator and :class:`EmpiricalBetaCopula`
the smooth rank-binomial one, which is a genuine copula when ranks are
permutations.  Plug-in estimates are the measures of that copula, e.g.
``cce(EmpiricalBetaCopula(rs))``; they integrate by Sobol sampling from
k = 4, one dimension before parametric copulas do.
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


@dataclass(frozen=True)
class EmpiricalBetaCopula(Copula):
    """Smooth copula built from rank-binomial survival functions.

    C(u) = (1/N) sum_i prod_j S(u_j; N, R_ij) with S(u; N, r) =
    P(Bin(N, u) >= r).  One point costs O(N k): each coordinate needs the
    whole survival row over r = 1..N, computed by one binomial-pmf pass,
    so its measures switch to Sobol one dimension early (``sobol_dim`` 4).
    """

    rs: RankedSample
    sobol_dim = 4

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
                # cubature points share coordinates (a Genz-Malik box has
                # 7 distinct values per axis in 17 points), so the survival
                # rows are computed once per distinct value
                u, inv = np.unique(block[:, j], return_inverse=True)
                s_all = _binomial_survival(u, n)            # (distinct u, n)
                prod *= s_all[:, self.rs.ranks[:, j] - 1][inv]
            out[lo:lo + _CHUNK] = prod.mean(axis=1)
        return np.clip(out, 0.0, 1.0)

    def cdf_at_pseudo_observations(self) -> np.ndarray:
        """Values at the sample's own pseudo-observations, via the shared
        N x N basis, built on the first call for this N."""
        n = self.rs.n
        basis = _pseudo_obs_basis(n)
        prod = np.ones((n, n))
        for j in range(self.rs.k):
            col = self.rs.ranks[:, j] - 1
            prod *= basis[np.ix_(col, col)]  # row: eval point, col: obs
        return prod.mean(axis=1)

    def mean_integral(self) -> float:
        """Exact integral of the copula over the cube.

        Uses int_0^1 S(u; N, R) du = (N + 1 - R)/(N + 1).
        """
        n = self.rs.n
        w = (n + 1.0 - self.rs.ranks) / (n + 1.0)
        return float(w.prod(axis=1).mean())
