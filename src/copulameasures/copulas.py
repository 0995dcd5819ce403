"""Copula families: validation, CDF evaluation, and exact sampling.

A :class:`CopulaModel` is an immutable (family, dimension, parameters)
triple.  Construction validates the parameter ranges; the resulting
object is safe to share across threads.  ``cdf_many`` and ``cdf_grid``
are the evaluations used by every integrand in the package, ``sample``
draws exact i.i.d. observations with an explicit seed.

Family names are lowercase strings.  Parameters are positional; their
rules are the table ``_PARAMS``:

=================  ====================================================
product, min       none
lower_bound_w      none (dimension 2 only)
clayton            alpha >= -1, alpha != 0  (alpha > 0 for k >= 3)
frank              theta in [-700, 700], theta != 0  (theta > 0 for k >= 3)
gumbel_hougaard    phi >= 1
joe                theta >= 1
gaussian           strict upper triangle of the correlation matrix,
                   row-major (k=3: rho12, rho13, rho23), each in (-1, 1)
fgm                theta in [-1, 1]  (dimension 2 only)
marshall_olkin     alpha1, alpha2 in [0, 1]  (dimension 2 only)
cuadras_auge       pair weights a_ij in [0, 1], rows i=2..k in order
                   (2,1), (3,1), (3,2), ...  (k=2: a single weight)
gumbel_barnett     theta in (0, 1]  (dimension 2 only)
nelsen_4212        theta >= 1  (dimension 2 only)
=================  ====================================================
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gamma, ndtr, ndtri, poch

from . import mvnorm
from .errors import (
    CorrelationNotPD,
    DimensionMismatch,
    DimensionUnsupported,
    NotArchimedean,
    ParamOutOfRange,
    SamplerUnavailable,
)


class _ParamRule(NamedTuple):  # the parameter rule of one family
    count: int | None               # None: one per pair of coordinates
    low: float = -np.inf            # each parameter lies in [low, high]
    high: float = np.inf
    nonzero: bool = False           # 0 is excluded
    bivariate: bool = False         # the family exists only at k = 2
    positive_from_k3: bool = False  # low rises to 0 from k = 3


# W is a copula only at k = 2, and the sources define fgm to nelsen_4212
# only there.  Gaussian correlations have their own CorrelationNotPD check.
_PARAMS = {
    "product": _ParamRule(0),
    "min": _ParamRule(0),
    "lower_bound_w": _ParamRule(0, bivariate=True),
    "clayton": _ParamRule(1, -1.0, nonzero=True, positive_from_k3=True),
    "frank": _ParamRule(1, -700.0, 700.0, nonzero=True, positive_from_k3=True),
    "gumbel_hougaard": _ParamRule(1, 1.0),
    "joe": _ParamRule(1, 1.0),
    "gaussian": _ParamRule(None),
    "fgm": _ParamRule(1, -1.0, 1.0, bivariate=True),
    "marshall_olkin": _ParamRule(2, 0.0, 1.0, bivariate=True),
    "cuadras_auge": _ParamRule(None, 0.0, 1.0),
    "gumbel_barnett": _ParamRule(1, 0.0, 1.0, nonzero=True, bivariate=True),
    "nelsen_4212": _ParamRule(1, 1.0, bivariate=True),
}

FAMILIES = tuple(_PARAMS)

_SAMPLE_EPS = 1e-15
_GRID_BLOCK = 1 << 14  # grid points per block of CopulaModel.cdf_grid


def corr_from_upper_triangle(dim: int, entries) -> np.ndarray:
    """Full correlation matrix from its strict upper triangle, row-major."""
    entries = np.asarray(entries, dtype=float).ravel()
    expect = dim * (dim - 1) // 2
    if len(entries) != expect:
        raise ParamOutOfRange(
            f"gaussian at k={dim} needs {expect} correlations, got {len(entries)}")
    corr = np.eye(dim)
    corr[np.triu_indices(dim, 1)] = entries
    corr[np.tril_indices(dim, -1)] = corr.T[np.tril_indices(dim, -1)]
    return corr


class Copula(ABC):
    """Interface of every copula: ``dim``, the vectorized ``cdf_many``,
    whose points all pass ``_unit_points``, and ``cdf_grid``, C on a
    tensor grid; ``cdf`` is defined here.  A copula sets ``has_zero_region``
    when C vanishes on a positive-measure interior set, ``tensor_grid``
    when its ``cdf_grid`` costs far less than ``cdf_many`` at as many
    points, and ``diagonal_kinks`` when its C is symmetric and kinked only
    where two coordinates meet; :mod:`~copulameasures.cubature` states how
    the last two pick the engine of its measures."""

    dim: int
    has_zero_region: bool = False
    tensor_grid: bool = False
    diagonal_kinks: bool = False

    @abstractmethod
    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        """C(u) over the rows of an (m, dim) array."""

    def cdf(self, point) -> float:
        """C(u) at a single point of the closed unit cube."""
        u = np.asarray(point, dtype=float).ravel()
        return float(self.cdf_many(u[None, :])[0])

    @abstractmethod
    def cdf_grid(self, x) -> np.ndarray:
        """C on the tensor grid x^dim, shape (len(x),) * dim."""

    def _axis(self, x) -> np.ndarray:
        """The nodes x of a tensor grid as a 1-D array, checked as points are."""
        x = np.ravel(x)[:, None]
        return _unit_points(np.repeat(x, self.dim, axis=1), self.dim)[:, 0]


def _unit_points(U, dim: int) -> np.ndarray:
    """U as an (m, dim) float array clipped into [0, 1]; raises
    DimensionMismatch, and ValueError for NaN or u over 1e-12 outside it."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[1] != dim:
        raise DimensionMismatch(
            f"points have dimension {U.shape[1]}, copula has {dim}")
    if not np.all((U >= -1e-12) & (U <= 1.0 + 1e-12)):
        raise ValueError("coordinates must lie in [0, 1]")
    return np.clip(U, 0.0, 1.0)


@dataclass(frozen=True, eq=True)
class CopulaModel(Copula):
    """Validated copula model; raises on construction if invalid.  One
    formula per family (``_cdf_positive``) serves cdf_many and cdf_grid."""

    family: str
    dim: int
    params: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParamOutOfRange(f"unknown family {self.family!r}")
        if self.dim < 2:
            raise DimensionUnsupported("copulas need dimension k >= 2")
        if _PARAMS[self.family].bivariate and self.dim != 2:
            raise DimensionUnsupported(
                f"{self.family} is only defined at dimension 2")
        raw = np.asarray(self.params, dtype=float).ravel()
        object.__setattr__(self, "params", tuple(float(p) for p in raw))
        if any(not np.isfinite(p) for p in self.params):
            raise ParamOutOfRange("parameters must be finite")
        self._validate_params()

    def _validate_params(self):
        """Check the parameters by ``_PARAMS``; set ``_corr`` or ``_ca_thetas``."""
        fam, k, p = self.family, self.dim, self.params
        rule = _PARAMS[fam]
        n = k * (k - 1) // 2 if rule.count is None else rule.count
        if len(p) != n:
            raise ParamOutOfRange(f"{fam} at k={k} takes {n} parameter(s), got {len(p)}")
        low = 0.0 if rule.positive_from_k3 and k >= 3 else rule.low
        if not all(low <= a <= rule.high and not (rule.nonzero and a == 0.0)
                   for a in p):
            raise ParamOutOfRange(
                f"{fam} at k={k} needs parameters in [{low:g}, {rule.high:g}]"
                + (" other than 0" if rule.nonzero else "") + f", got {p}")
        if fam == "gaussian":
            if not all(abs(a) < 1.0 for a in p):
                raise CorrelationNotPD("off-diagonal correlations must be in (-1, 1)")
            corr = corr_from_upper_triangle(k, p)
            mvnorm.cholesky_corr(corr)
            object.__setattr__(self, "_corr", corr)
        elif fam == "cuadras_auge":
            # exponent on the i-th smallest coordinate (1-based i >= 2):
            # product of (1 - a_ij) over the i-th parameter row
            rows = np.split(1.0 - np.array(p), np.cumsum(np.arange(1, k - 1)))
            object.__setattr__(self, "_ca_thetas",
                               np.array([1.0] + [r.prod() for r in rows]))

    # -- evaluation ----------------------------------------------------

    @property
    def has_zero_region(self) -> bool:
        """True when C vanishes on a positive-measure interior set."""
        return self.family == "lower_bound_w" or (
            self.family == "clayton" and self.params[0] < 0.0)

    @property
    def diagonal_kinks(self) -> bool:
        """True for min and Cuadras-Auge: C depends on the sorted u alone
        and is smooth on each ordered simplex."""
        return self.family in ("min", "cuadras_auge")

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        """Vectorized C(u) over the rows of U, clamped into [0, 1]."""
        u = list(_unit_points(U, self.dim).T)
        interior = reduce(np.logical_and, [c > 0.0 for c in u])
        out = np.zeros(len(interior))
        out[interior] = self._cdf_positive([c[interior] for c in u])
        return np.clip(out, 0.0, 1.0, out=out)

    def cdf_grid(self, x) -> np.ndarray:
        """C on the tensor grid x^dim, shape (len(x),) * dim: 0 at nodes 0, else
        blocks of grid rows against the positive nodes, a coordinate term per node."""
        x = self._axis(x)
        pos = np.flatnonzero(x > 0.0)
        xp, out = x[pos], np.zeros((len(x),) * self.dim)
        for _, idx in _grid_rows((len(pos),) * (self.dim - 1), _GRID_BLOCK // max(len(pos), 1)):
            out[tuple(pos[i][:, None] for i in idx) + (pos,)] = self._cdf_positive(
                [xp[i][:, None] for i in idx] + [xp])
        return np.clip(out, 0.0, 1.0, out=out)

    def _cdf_positive(self, u: list) -> np.ndarray:
        """C on the broadcast of the coordinate arrays u, each in (0, 1]."""
        # divide guards log(0) at coordinates equal to 1, which the
        # generator forms turn into the correct boundary values
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            fam, k = self.family, self.dim
            if fam == "product":
                return reduce(np.multiply, u)
            if fam == "min":
                return reduce(np.minimum, u)
            if fam == "lower_bound_w":
                return np.maximum(_sum(u) - 1.0, 0.0)
            if fam in ("frank", "joe", "nelsen_4212"):
                psi, psi_inv = archimedean_generator(self)
                return psi(_sum([psi_inv(c) for c in u]))
            if fam == "clayton":
                # one formula for both signs; alpha < 0 has no generator here
                a = self.params[0]
                inner = np.maximum(_sum([c ** -a for c in u]) - (k - 1), 0.0)
                return inner ** (-1.0 / a)
            if fam == "gumbel_hougaard":
                # log-sum-exp: (-ln u)^phi overflows at large phi, e.g. u < 0.13
                # at 1e3.  scipy's real-input formula, folded over the
                # coordinates: the maxima leave the sum and are counted in m.
                phi = self.params[0]
                a = [phi * np.log(-np.log(c)) for c in u]  # -inf at u = 1
                top = reduce(np.maximum, a)
                tied = [x == top for x in a]
                m = _sum([t.astype(float) for t in tied])
                with np.errstate(invalid="ignore"):  # -inf - -inf where all u = 1
                    s = _sum([np.where(t, 0.0, np.exp(x - top)) for x, t in zip(a, tied)])
                s = np.where(s == 0, s, s / m)
                return np.exp(-np.exp((np.log1p(s) + np.log(m) + top) / phi))
            if fam == "gaussian":
                z = _stack([ndtri(np.clip(c, 1e-300, 1.0)) for c in u])
                return mvnorm.mvn_cdf_many(self._corr, z.reshape(-1, k)).reshape(z.shape[:-1])
            if fam == "cuadras_auge":
                return (np.sort(_stack(u), axis=-1) ** self._ca_thetas).prod(axis=-1)
            u, v = u  # the rest are bivariate
            if fam == "fgm":
                th = self.params[0]
                return u * v * (1.0 + th * (1.0 - u) * (1.0 - v))
            if fam == "marshall_olkin":
                a1, a2 = self.params
                return u ** (1 - a1) * v ** (1 - a2) * np.minimum(u ** a1, v ** a2)
            if fam == "gumbel_barnett":
                th = self.params[0]
                return u * v * np.exp(-th * np.log(u) * np.log(v))
            raise AssertionError(fam)

    # -- sampling ------------------------------------------------------

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n exact i.i.d. draws, reproducible for a fixed seed: the
        Marshall-Olkin frailty construction U = psi(E / V) for Archimedean
        families, conditional inversion for FGM and negative dependence."""
        if n < 1:
            raise ValueError("need n >= 1")
        rng = np.random.default_rng(int(seed))
        fam, k = self.family, self.dim
        th = self.params[0] if self.params else None
        if fam == "product" or (fam in ("gumbel_hougaard", "joe") and th == 1.0):
            out = rng.random((n, k))
        elif fam == "min":
            out = np.repeat(rng.random((n, 1)), k, axis=1)
        elif fam == "lower_bound_w" or (fam == "clayton" and th == -1.0):
            u = rng.random(n)
            out = np.column_stack([u, 1.0 - u])
        elif fam == "gaussian":
            out = ndtr(rng.standard_normal((n, k)) @ np.linalg.cholesky(self._corr).T)
        elif fam == "fgm" or (fam in ("clayton", "frank") and th < 0):
            u = rng.random(n)
            out = np.column_stack([u, self._conditional_inverse(u, rng.random(n))])
        elif fam in ("clayton", "frank", "gumbel_hougaard", "joe"):
            psi, _ = archimedean_generator(self)
            v = _frailty(fam, th, rng, n)
            # a frailty of 0 or inf maps to a boundary value, clipped below
            with np.errstate(divide="ignore", over="ignore"):
                out = psi(rng.exponential(1.0, size=(n, k)) / v[:, None])
        else:
            raise SamplerUnavailable(
                f"no exact sampler implemented for {fam}")
        return np.clip(out, _SAMPLE_EPS, 1.0 - _SAMPLE_EPS)

    def _conditional_inverse(self, u, p):
        """v with P(V <= v | U = u) = p, at k = 2."""
        th = self.params[0]
        if self.family == "clayton":
            return (1.0 + u ** -th * (p ** (-th / (1.0 + th)) - 1.0)) ** (-1.0 / th)
        if self.family == "frank":
            d = p * np.expm1(-th) / (np.exp(-th * u) * (1.0 - p) + p)
            return -np.log1p(d) / th
        a = th * (1.0 - 2.0 * u)  # fgm: root of a v^2 - (1 + a) v + p = 0
        b = 1.0 + a
        return np.where(np.abs(a) < 1e-12, p,
                        2.0 * p / (b + np.sqrt(np.maximum(b * b - 4.0 * a * p, 0.0))))


def _frailty(family: str, param: float, rng, n: int) -> np.ndarray:
    """n draws of the frailty V whose Laplace transform is the generator
    psi of an Archimedean family with positive dependence."""
    if family == "clayton":
        return rng.gamma(1.0 / param, 1.0, size=n)
    if family == "frank":
        p = -np.expm1(-param)
        if p == 1.0:  # out of logseries' domain from theta ~ 37.4 on
            return _logseries_kemp(param, rng, n)
        return rng.logseries(p, n).astype(float)
    if family == "gumbel_hougaard":
        # positive stable, Kanter's representation:
        # V = sin(a T)/sin(T)^(1/a) * (sin((1-a)T)/W)^((1-a)/a),
        # T uniform on (0, pi), W unit exponential
        al = 1.0 / param
        th = np.pi * rng.random(n)
        w = rng.exponential(1.0, size=n)
        with np.errstate(over="ignore", under="ignore", divide="ignore",
                         invalid="ignore"):
            v = (np.sin(al * th) / np.sin(th) ** (1.0 / al)
                 * (np.sin((1.0 - al) * th) / w) ** ((1.0 - al) / al))
            # at large phi one factor overflows where the other underflows;
            # in logs such draws settle at 0 or inf
            bad = np.isnan(v)
            tb, wb = th[bad], w[bad]
            v[bad] = np.exp(np.log(np.sin(al * tb)) - np.log(np.sin(tb)) / al
                            + (1.0 - al) / al * np.log(np.sin((1.0 - al) * tb) / wb))
        return v
    # Sibuya(alpha), alpha = 1/theta, by inversion (Hofert 2011, CSDA 55:57):
    # V is the smallest m with S(m) = Gamma(m+1-alpha) / (Gamma(1-alpha) m!)
    # <= 1 - U, so V = 1 where U <= alpha.  Otherwise Gautschi's inequality
    # puts V at floor(G) or floor(G) + 1, G = ((1-U) Gamma(1-alpha))^(-1/alpha);
    # poch forms Gamma(m+1-alpha) / m! without a log-gamma difference
    alpha = 1.0 / param
    u = rng.random(n)
    g1a = gamma(1.0 - alpha)
    with np.errstate(over="ignore"):  # G passes the double range from theta ~ 100
        f = np.floor(((1.0 - u) * g1a) ** (-1.0 / alpha))
    v = np.where(poch(f + 1.0, -alpha) / g1a <= 1.0 - u, f, f + 1.0)
    return np.where(u <= alpha, 1.0, v)


def _logseries_kemp(theta: float, rng, n: int) -> np.ndarray:
    """Logarithmic-series draws with p = 1 - e^-theta by Kemp's LK
    algorithm (Kemp 1981, Appl. Stat. 30:249): geometric with success
    probability e^(-theta U1), exact in theta where p rounds to 1."""
    u1 = rng.random(n)
    u2 = rng.random(n)
    return np.floor(1.0 + np.log(u2) / np.log1p(-np.exp(-theta * u1)))


@dataclass(frozen=True)
class MixtureCopula(Copula):
    """Convex combination of same-dimension copulas (itself a copula)."""

    components: tuple
    weights: tuple

    def __post_init__(self):
        if not self.components or len(self.components) != len(self.weights):
            raise ParamOutOfRange("need matching nonempty components and weights")
        # a NaN weight makes the sum NaN, which fails the second test
        if min(self.weights) < 0 or not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise ParamOutOfRange("weights must be convex")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise DimensionMismatch("mixture components must share a dimension")

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def has_zero_region(self) -> bool:
        return all(c.has_zero_region for c in self.components)

    @property
    def tensor_grid(self) -> bool:
        return any(c.tensor_grid for c in self.components)

    @property
    def diagonal_kinks(self) -> bool:
        return all(c.diagonal_kinks for c in self.components)

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        return self._mix(c.cdf_many(U) for c in self.components)

    def cdf_grid(self, x) -> np.ndarray:
        return self._mix(c.cdf_grid(x) for c in self.components)

    def _mix(self, values) -> np.ndarray:
        """The weighted sum of the components' values, clamped into [0, 1]."""
        return np.clip(sum(w * v for w, v in zip(self.weights, values)), 0.0, 1.0)


def _stack(u: list) -> np.ndarray:
    """The coordinate arrays u broadcast and stacked on a last axis."""
    return np.stack(np.broadcast_arrays(*u), axis=-1)


def _sum(terms: list) -> np.ndarray:
    """The terms summed in numpy's row-sum order: by a fold below 8 terms,
    at a tenth of the cost of a sum over a short stacked axis, and on a
    stacked axis from 8 on, where numpy sums a row pairwise."""
    return reduce(np.add, terms) if len(terms) < 8 else _stack(terms).sum(axis=-1)


def _grid_rows(shape: tuple, step: int):
    """(rows, idx) for the rows of a grid of the given shape, step at a
    time: rows the slice of their flat positions, idx their indices."""
    total, step = int(np.prod(shape)), max(1, step)
    for lo in range(0, total, step):
        yield slice(lo, lo + step), np.unravel_index(np.arange(lo, min(lo + step, total)), shape)


def _log1mexp(x):
    """log(1 - e^(-x)) for x >= 0, accurate at both ends (Maechler 2012):
    expm1 up to ln 2, where e^(-x) is near 1, and log1p above it, where
    1 - e^(-x) rounds to 1."""
    return np.where(x <= np.log(2.0), np.log(-np.expm1(-x)),
                    np.log1p(-np.exp(-x)))


def archimedean_generator(model: CopulaModel) -> tuple[Callable, Callable]:
    """(psi, psi_inverse) with C(u) = psi(sum psi_inverse(u_i)).

    psi(0) = 1 and psi is nonincreasing.  ``cdf_many`` evaluates Frank,
    Joe and Nelsen 4.2.12 through this pair, and ``sample`` draws from psi
    at positive dependence, so psi for theta > 0 is shared with the
    sampler.  Clayton with alpha < 0 has no generator of this form and
    raises NotArchimedean.
    """
    fam = model.family
    if fam == "clayton":
        a = model.params[0]
        if a < 0:
            raise NotArchimedean(
                "clayton with alpha < 0 has no nonincreasing generator")
        return (lambda t: (1.0 + np.asarray(t, dtype=float)) ** (-1.0 / a),
                lambda u: np.asarray(u, dtype=float) ** -a - 1.0)
    if fam == "frank":
        t0 = model.params[0]
        c0 = _log1mexp(t0) if t0 > 0 else np.expm1(-t0)
        def psi(t):
            t = np.asarray(t, dtype=float)
            if t0 > 0:
                return -np.log(-np.expm1(-t) + np.exp(-t0 - t)) / t0
            return -np.log1p(np.exp(-t) * c0) / t0
        def psi_inv(u):
            u = np.asarray(u, dtype=float)
            return -(_log1mexp(t0 * u) - c0) if t0 > 0 else -np.log(np.expm1(-t0 * u) / c0)
        return psi, psi_inv
    if fam == "gumbel_hougaard":
        phi = model.params[0]
        return (lambda t: np.exp(-np.asarray(t, dtype=float) ** (1.0 / phi)),
                lambda u: (-np.log(np.asarray(u, dtype=float))) ** phi)
    if fam == "joe":
        th = model.params[0]
        def psi(t):
            with np.errstate(divide="ignore"):  # log(0) at t = 0 gives psi = 1
                return 1.0 - np.exp(np.log(-np.expm1(-np.asarray(t, dtype=float))) / th)
        def psi_inv(u):
            with np.errstate(divide="ignore"):  # log1p(-1) at u = 1 gives 0
                return -np.log1p(-np.exp(th * np.log1p(-np.asarray(u, dtype=float))))
        return psi, psi_inv
    if fam == "nelsen_4212":
        th = model.params[0]
        return (lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** (1.0 / th)),
                lambda u: (1.0 / np.asarray(u, dtype=float) - 1.0) ** th)
    raise NotArchimedean(f"{fam} has no Archimedean generator")
