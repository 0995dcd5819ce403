"""Numerical integration over the unit hypercube [0,1]^k.

Three engines sit behind one entry point, :func:`integrate_unit_cube`:

* a tensor grid: per axis, composite Gauss-Legendre panels graded toward
  the faces, refined level by level, with the error taken from the last
  three levels;
* an adaptive subdivision scheme built on the degree-7 Genz-Malik rule
  with its embedded degree-5 companion for error estimation, and
* scrambled Sobol sampling with an error band taken across independent
  randomizations.

One rule picks the engine from k and two declarations of the caller.
An integrand also given on a tensor grid (``on_grid``: measures give it
when one copula sets ``tensor_grid``, as the empirical beta copula does)
runs on the grid up to GRID_MAX_DIM and by Sobol above it, never by
subdivision, which needs far more evaluations of the beta copula than
Sobol does.  Any other integrand runs by subdivision below SOBOL_DIM and
by Sobol from there on, where the region count of subdivision explodes.
An integrand declared symmetric in its coordinates (``symmetric``:
measures declare it when every copula sets ``diagonal_kinks``, as min,
Cuadras-Auge and their mixtures do) is folded, under subdivision only:
k! f on the ordered simplex u_1 <= ... <= u_k, from the 2^k half-cubes,
so that kinks on the planes u_i = u_j lie on its boundary.
Integrands must be vectorized: they receive an (m, k) array of points
and return m values; on every engine a wrong shape raises ValueError and
NaN or infinity raises NonFiniteIntegrand.  ``max_evals`` caps every
engine: each stops, with ToleranceNotReached, before a step that would
pass it.
The Sobol engine draws its points from a numpy stream with the bits of
``scipy.stats.qmc.Sobol``, so no engine loads ``scipy.stats``.
This module only integrates: the measures' integrands, :func:`xlogx`
and :func:`xlog_ratio` among them, live in :mod:`~copulameasures.measures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, product
from math import factorial
from typing import Callable

import numpy as np

from .errors import DimensionUnsupported, NonFiniteIntegrand, ToleranceNotReached

_QMC_RANDOMIZATIONS = 16
_QMC_FIRST_BATCH = 1024
_QMC_SEED = 0
# first dimension integrated by Sobol sampling when there is no grid form
SOBOL_DIM = 5
# last dimension integrated on the tensor grid: a level costs n^k values
GRID_MAX_DIM = 3
# the default absolute tolerances, on the grid and under subdivision, and
# under Sobol sampling
ABS_TOL, SOBOL_ABS_TOL = 1e-7, 1e-4
# Per axis, level L is a composite Gauss-Legendre rule in t with
# _GRID_NODES nodes on each of round(2^(1.5 + L/2)) equal panels (3, 4, 6,
# 8, 11, 16, 23, ...), mapped to u = sin^2(pi t / 2).  The map grades the
# panels toward both faces as sqrt(u (1 - u)): that is how the transition
# width of the binomial survival S(u; N, r) varies, so in t the beta
# copula varies on one scale, 1/(pi sqrt N), everywhere.  It also smooths
# C ln C and C^s at the lower faces, where C vanishes.  Levels grow by
# sqrt 2 rather than 2 so that at k = 3 the level that resolves N = 724
# (128 to 184 nodes) is reached within the default budget.
_GRID_NODES = 8
# Two levels that both miss the integrand's scale can agree by accident,
# so the error is _GRID_SAFETY times the larger of the last two changes,
# from the third level on, plus a rounding floor of _FLOOR times the
# integral of |f|.  Against exact beta-copula integrals (N = 50 to 724,
# k = 2 and 3), the last change alone understated the error in 7 of 474
# k = 2 cases; the larger of two understated none.  Subdivision's error
# is at least the same floor.
_GRID_SAFETY = 2.0
_FLOOR = 1e-13


@dataclass(frozen=True)
class IntegrationConfig:
    """Tolerance and budget settings for :func:`integrate_unit_cube`.

    ``abs_tol=None`` resolves to ABS_TOL on the grid and under
    subdivision, and to SOBOL_ABS_TOL under Sobol sampling.
    """

    abs_tol: float | None = None
    rel_tol: float = 1e-6
    max_evals: int = 10_000_000

    def __post_init__(self):
        # written so that NaN fails each check
        if self.abs_tol is not None and not 0 < self.abs_tol < np.inf:
            raise ValueError("abs_tol must be positive and finite")
        if not 0 < self.rel_tol < np.inf:
            raise ValueError("rel_tol must be positive and finite")
        if not (isinstance(self.max_evals, (int, np.integer))
                and self.max_evals >= 1_000):
            raise ValueError("max_evals must be an integer of at least 1000")


@dataclass(frozen=True)
class Estimate:
    """Integral value with an error-bound estimate and evaluation count."""

    value: float
    error: float
    evals: int


def _values(f, x, shape) -> np.ndarray:
    """f(x) as floats, checked to have ``shape`` and to be finite."""
    fv = np.asarray(f(x), dtype=float)
    if fv.shape != shape:
        raise ValueError(f"integrand returned shape {fv.shape}, expected {shape}")
    if not np.all(np.isfinite(fv)):
        raise NonFiniteIntegrand("integrand returned NaN or infinity")
    return fv


def _converged(est, abs_tol, rel_tol, next_evals, max_evals) -> bool:
    """Whether ``est`` (None before the first step) meets the tolerance
    max(abs_tol, rel_tol |value|).  If not, and the next step would bring
    the evaluation count to more than ``max_evals``, raises
    :class:`ToleranceNotReached` carrying ``est``."""
    if est is None:
        detail = f"no step within the budget: the first needs {next_evals} evaluations"
    else:
        tol = max(abs_tol, rel_tol * abs(est.value))
        if est.error <= tol:
            return True
        detail = (f"error {est.error:.3e} > tolerance {tol:.3e} "
                  f"after {est.evals} evaluations")
    if next_evals > max_evals:
        raise ToleranceNotReached(detail, estimate=est)
    return False


def _corners(k: int) -> np.ndarray:
    """The 2^k corners of the unit cube, one row each."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(float)


# Genz-Malik degree-7 rule with its embedded degree-5 rule on [-1, 1]^k:
# the center, +/-lambda2 and +/-lambda4 on each axis, +/-lambda4 on each
# pair of axes and the 2^k corners at +/-lambda5, one weight per group for
# the volume-normalized integral.
_L2 = np.sqrt(9.0 / 70.0)
_L4 = np.sqrt(9.0 / 10.0)
_L5 = np.sqrt(9.0 / 19.0)
_FD_RATIO = (_L2 * _L2) / (_L4 * _L4)  # fourth-difference weight ratio


@lru_cache(maxsize=8)
def _gm_rule(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Offsets of the rule's points, the group 0-4 of each, and the
    degree-7 and degree-5 weights of groups 0-4 and 0-3."""
    eye = np.eye(k)
    pairs = np.zeros((2 * k * (k - 1), k))
    ij_signs = product(combinations(range(k), 2), product((_L4, -_L4), repeat=2))
    for row, ((i, j), signs) in enumerate(ij_signs):
        pairs[row, [i, j]] = signs
    blocks = [np.zeros((1, k)), _L2 * eye, -_L2 * eye, _L4 * eye, -_L4 * eye,
              pairs, _L5 * (2.0 * _corners(k) - 1.0)]
    offsets = np.concatenate(blocks)
    groups = np.repeat([0, 1, 1, 2, 2, 3, 4], [len(b) for b in blocks])
    w7 = np.array([(12824.0 - 9120.0 * k + 400.0 * k * k) / 19683.0,
                   980.0 / 6561.0, (1820.0 - 400.0 * k) / 19683.0,
                   200.0 / 19683.0, 6859.0 / 19683.0 / (1 << k)])
    w5 = np.array([(729.0 - 950.0 * k + 50.0 * k * k) / 729.0, 245.0 / 486.0,
                   (265.0 - 100.0 * k) / 1458.0, 25.0 / 729.0])
    for a in (offsets, groups, w7, w5):
        a.setflags(write=False)
    return offsets, groups, w7, w5


def _gm_apply(f, centers: np.ndarray, halfw: np.ndarray):
    """The 7/5 rule on a batch of boxes: their values, errors, split axes
    and integrals of |f|, the last from the mean of |f| over the points."""
    m, k = centers.shape
    offsets, groups, w7, w5 = _gm_rule(k)
    n = len(offsets)
    pts = centers[:, None, :] + halfw[:, None, :] * offsets
    fv = _values(f, pts.reshape(m * n, k), (m * n,)).reshape(m, n)
    vol = np.prod(2.0 * halfw, axis=1)
    # A boolean gather sums each group left to right; a slice would sum
    # the pair and corner groups pairwise and move the errors' last bits.
    sums = np.stack([fv[:, groups == g].sum(axis=1) for g in range(5)], axis=1)
    res7 = vol * (sums @ w7)
    err = np.abs(res7 - vol * (sums[:, :4] @ w5))
    # fourth differences along each axis from the +/-lambda2 and
    # +/-lambda4 points; the center is point 0
    d2 = fv[:, 1:1 + k] + fv[:, 1 + k:1 + 2 * k] - 2.0 * fv[:, :1]
    d4 = fv[:, 1 + 2 * k:1 + 3 * k] + fv[:, 1 + 3 * k:1 + 4 * k] - 2.0 * fv[:, :1]
    # Split the axis whose fourth difference times its half-width is
    # largest, the first of them on a tie.
    split = np.argmax(np.abs(d2 - _FD_RATIO * d4) * halfw, axis=1)
    return res7, err, split, vol * np.abs(fv).mean(axis=1)


def _folded(f, k):
    """k! times f on the ordered simplex u_1 <= ... <= u_k, as an integrand
    on the cube: u_j = t_j t_(j+1) ... t_k, whose Jacobian is
    prod_j t_j^(j-1) = u_2 ... u_k.  A symmetric f has the same integral."""
    scale = float(factorial(k))

    def g(t):
        u = np.cumprod(t[:, ::-1], axis=1)[:, ::-1]
        return scale * u[:, 1:].prod(axis=1) * _values(f, u, (len(u),))
    return g


def _estimate(regions, evals) -> Estimate:
    """The regions' sum, with an error no smaller than the rounding floor."""
    _, _, vals, errs, _, absints = regions
    return Estimate(float(vals.sum()),
                    max(float(errs.sum()), _FLOOR * float(absints.sum())), evals)


def _integrate_adaptive(f, k, abs_tol, rel_tol, max_evals, symmetric=False):
    """Genz-Malik subdivision from the whole cube, or, for a symmetric f,
    of f folded onto the ordered simplex from the 2^k half-cubes."""
    npts = len(_gm_rule(k)[0])
    if symmetric:
        f = _folded(f, k)
        centers, halfw = 0.25 + 0.5 * _corners(k), np.full((1 << k, k), 0.25)
    else:
        centers, halfw = np.full((1, k), 0.5), np.full((1, k), 0.5)
    # The region table: centers, half-widths, values, errors, split axes
    # and integrals of |f|, one row per region.  The first step fits any
    # budget: at most 401 points at k = 8, and 16 * 57 = 912 from the
    # half-cubes at k = 4.
    regions = (centers, halfw, *_gm_apply(f, centers, halfw))
    est = _estimate(regions, len(centers) * npts)
    # a step splits at least one region in two
    while not _converged(est, abs_tol, rel_tol, est.evals + 2 * npts, max_evals):
        # Split the worst regions in one vectorized batch.
        centers, halfw, _, errs, splits, _ = regions
        budget = (max_evals - est.evals) // (2 * npts)
        nbatch = min(len(errs), max(1, len(errs) // 8), budget, 256)
        worst = np.argpartition(errs, -nbatch)[-nbatch:]
        worst = worst[np.argsort(errs[worst])[::-1]]
        cut = np.arange(nbatch), splits[worst]
        h, lo, hi = halfw[worst], centers[worst], centers[worst]
        h[cut] *= 0.5
        lo[cut] -= h[cut]
        hi[cut] += h[cut]
        new_c, new_h = np.concatenate([lo, hi]), np.concatenate([h, h])
        kept = np.delete(np.arange(len(errs)), worst)
        children = (new_c, new_h, *_gm_apply(f, new_c, new_h))
        regions = tuple(np.concatenate([old[kept], new])
                        for old, new in zip(regions, children))
        est = _estimate(regions, est.evals + len(new_c) * npts)
    return est


@lru_cache(maxsize=16)
def _grid_axis(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of level ``level``'s rule on [0, 1]."""
    panels = round(2.0 ** (1.5 + 0.5 * level))
    x, w = np.polynomial.legendre.leggauss(_GRID_NODES)
    half = 0.5 / panels
    t = ((2 * np.arange(panels) + 1)[:, None] * half + half * x).ravel()
    nodes = np.sin(0.5 * np.pi * t) ** 2
    weights = np.tile(half * w, panels) * (0.5 * np.pi) * np.sin(np.pi * t)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _is_level_axis(key: bytes, n: int) -> bool:
    """True iff the n nodes whose bytes are key are those of a level of
    the grid engine, whose grids a copula's next measure reads again."""
    nodes = next(x for x, _ in map(_grid_axis, count()) if len(x) >= n)
    return nodes.tobytes() == key


def _grid_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """Tensor-rule sum: contract each axis of values with the weights."""
    while values.ndim:
        values = values @ weights
    return float(values)


def _integrate_grid(f, k, abs_tol, rel_tol, max_evals):
    """Tensor Gauss-Legendre levels until the error, from the changes
    over the last three levels, meets the tolerance.  f maps one axis's
    nodes x to the integrand on the grid x^k, shape (len(x),)*k."""
    est, evals, values = None, 0, []
    for level in count():
        nodes, weights = _grid_axis(level)
        if _converged(est, abs_tol, rel_tol, evals + len(nodes) ** k, max_evals):
            return est
        fv = _values(f, nodes, (len(nodes),) * k)
        evals += fv.size
        values.append(_grid_sum(fv, weights))
        change = (np.inf if level < 2 else
                  max(abs(values[-1] - values[-2]), abs(values[-2] - values[-3])))
        error = _GRID_SAFETY * change + _FLOOR * _grid_sum(np.abs(fv), weights)
        est = Estimate(values[-1], error, evals)


# Sobol points in 30 bits, from Joe and Kuo's direction numbers (2008)
# under Matousek's linear matrix scramble and a digital shift (1998).
_SOBOL_BITS = 30
# Dimensions 2-8: each primitive polynomial, its leading and constant
# terms included, and its initial values m_1 ... m_s (dimension 1 is all
# ones).  These are the first rows of scipy's table.
_SOBOL_POLYS = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
                (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)))


@lru_cache(maxsize=8)
def _sobol_directions(d: int) -> np.ndarray:
    """The (d, 30) unscrambled direction numbers, by the Bratley-Fox
    recurrence, as 30-bit integers."""
    v = np.ones((d, _SOBOL_BITS), dtype=np.int64)
    for row, (poly, init) in zip(v[1:], _SOBOL_POLYS):
        s = len(init)
        row[:s] = init
        for j in range(s, _SOBOL_BITS):
            row[j] = row[j - s]
            for i in range(s):
                if poly >> (s - 1 - i) & 1:
                    row[j] ^= row[j - i - 1] << (i + 1)
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1)
    v.setflags(write=False)
    return v


class _Sobol:
    """A scrambled Sobol stream in d <= 8 dimensions: the same float64
    points, draw by draw, as ``scipy.stats.qmc.Sobol(d, scramble=True,
    seed=np.random.default_rng(np.random.SeedSequence(entropy)))``."""

    def __init__(self, d: int, entropy):
        # scipy draws the scramble from a child of the generator it is given
        rng = np.random.default_rng(np.random.SeedSequence(entropy).spawn(1)[0])
        bits = _SOBOL_BITS
        powers = 1 << np.arange(bits)
        shift = rng.integers(2, size=(d, bits), dtype=np.uint32) @ powers
        ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32))
        ltm[:, range(bits), range(bits)] = 1
        # each direction number times its dimension's matrix over GF(2),
        # as bit vectors with the most significant bit first
        v = _sobol_directions(d)[:, :, None] >> np.arange(bits - 1, -1, -1) & 1
        v = (v @ ltm.swapaxes(1, 2) & 1) @ powers[::-1]
        # Row 0 steps from 0 to point 0, the shift; row 1 + c steps from
        # point t - 1 to point t when t ends in c zero bits.
        self._steps = np.vstack([shift, v.T]).astype(np.uint32)
        self._last = np.zeros(d, dtype=np.uint32)
        self.count = 0

    def random(self, n: int) -> np.ndarray:
        """The next n >= 1 points, in Gray-code order, as an (n, d) array."""
        if self.count + n > 1 << _SOBOL_BITS:
            raise ValueError(f"at most 2**{_SOBOL_BITS} points: {self.count} "
                             f"drawn, {n} more asked")
        t = np.arange(self.count, self.count + n)
        # frexp gives exponent 0 for t = 0 and c + 1 for a lowest bit 2^c
        steps = self._steps.take(np.frexp(t & -t)[1], axis=0)
        steps[0] ^= self._last
        points = np.bitwise_xor.accumulate(steps, axis=0)
        # a copy, so that the draw's points are not kept alive by the state
        self._last, self.count = points[-1].copy(), self.count + n
        return points * 2.0 ** -_SOBOL_BITS


def _integrate_qmc(f, k, seed, first_batch, abs_tol, rel_tol, max_evals):
    """Doubling Sobol loop, error 3 standard errors across randomizations;
    also runs the MVN CDF at k >= 4."""
    engines = [_Sobol(k, (seed, rep)) for rep in range(_QMC_RANDOMIZATIONS)]
    sums = np.zeros(_QMC_RANDOMIZATIONS)
    est, counts, n_next = None, 0, first_batch
    while not _converged(est, abs_tol, rel_tol,
                         (counts + n_next) * _QMC_RANDOMIZATIONS, max_evals):
        for i, eng in enumerate(engines):
            sums[i] += _values(f, eng.random(n_next), (n_next,)).sum()
        counts += n_next
        means = sums / counts
        se = float(means.std(ddof=1) / np.sqrt(_QMC_RANDOMIZATIONS))
        est = Estimate(float(means.mean()), 3.0 * se, counts * _QMC_RANDOMIZATIONS)
        n_next = counts  # double the sample size each round
    return est


def integrate_unit_cube(f: Callable[[np.ndarray], np.ndarray], k: int,
                        cfg: IntegrationConfig | None = None,
                        on_grid: Callable[[np.ndarray], np.ndarray] | None = None,
                        symmetric: bool = False) -> Estimate:
    """Integrate a bounded vectorized integrand over [0,1]^k on the
    engine that the rule of the module docstring picks.

    ``on_grid``, if given, is the same integrand on a tensor grid: it maps
    the nodes x of one axis to the values on x^k, shape (len(x),)*k.
    ``symmetric`` declares f symmetric in its coordinates, which
    subdivision folds onto the ordered simplex from the 2^k half-cubes.
    Raises :class:`DimensionUnsupported` outside 2 <= k <= 8,
    :class:`ToleranceNotReached` (carrying the best estimate, None if no
    step fits) before a step that would pass ``cfg.max_evals``,
    ``ValueError`` if f returns the wrong shape, and
    :class:`NonFiniteIntegrand` if it returns NaN or infinity.
    Deterministic for a fixed configuration.
    """
    if not 2 <= k <= 8:
        raise DimensionUnsupported(f"dimension {k} outside supported range 2..8")
    cfg = cfg or IntegrationConfig()
    sobol = k > GRID_MAX_DIM if on_grid is not None else k >= SOBOL_DIM
    abs_tol = cfg.abs_tol or (SOBOL_ABS_TOL if sobol else ABS_TOL)
    if sobol:
        return _integrate_qmc(f, k, _QMC_SEED, _QMC_FIRST_BATCH, abs_tol,
                              cfg.rel_tol, cfg.max_evals)
    if on_grid is not None:
        return _integrate_grid(on_grid, k, abs_tol, cfg.rel_tol, cfg.max_evals)
    return _integrate_adaptive(f, k, abs_tol, cfg.rel_tol, cfg.max_evals,
                               symmetric=symmetric)
