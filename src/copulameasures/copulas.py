"""Copula families: validation, CDF evaluation, and exact sampling.

A :class:`CopulaModel` is an immutable (family, dimension, parameters)
triple.  Construction validates the parameter ranges; the resulting
object is safe to share across threads.  ``cdf_many`` is the vectorized
evaluation used by every integrand in the package, ``sample`` draws
exact i.i.d. observations with an explicit seed.

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
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaln, logsumexp, ndtr, ndtri

from . import mvnorm
from .cubature import SOBOL_DIM
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
_PARAM_FREE = frozenset(f for f, rule in _PARAMS.items() if rule.count == 0)

_SAMPLE_EPS = 1e-15


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
    """Interface of every copula in the package: ``dim``,
    ``has_zero_region`` and the vectorized ``cdf_many``, whose points all
    pass the one check ``_points``.  ``cdf`` is defined here.  Its
    measures integrate by Sobol sampling from ``sobol_dim`` on."""

    dim: int
    has_zero_region: bool
    sobol_dim: int = SOBOL_DIM

    @abstractmethod
    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        """C(u) over the rows of an (m, dim) array."""

    def cdf(self, point) -> float:
        """C(u) at a single point of the closed unit cube."""
        u = np.asarray(point, dtype=float).ravel()
        return float(self.cdf_many(u[None, :])[0])

    def _points(self, U) -> np.ndarray:
        """U as an (m, dim) float array clipped into [0, 1]; raises
        DimensionMismatch, and ValueError for NaN or u over 1e-12 outside it."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if U.shape[1] != self.dim:
            raise DimensionMismatch(
                f"points have dimension {U.shape[1]}, copula has {self.dim}")
        if not np.all((U >= -1e-12) & (U <= 1.0 + 1e-12)):
            raise ValueError("coordinates must lie in [0, 1]")
        return np.clip(U, 0.0, 1.0)


@dataclass(frozen=True, eq=True)
class CopulaModel(Copula):
    """Validated copula model; raises on construction if invalid."""

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
        raw = np.asarray(self.params, dtype=float).ravel() if self.params != () else []
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

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        """Vectorized C(u) over the rows of U, clamped into [0, 1]."""
        U = self._points(U)
        out = np.zeros(len(U))
        interior = ~(U <= 0.0).any(axis=1)
        if interior.any():
            # divide guards log(0) at coordinates equal to 1, which the
            # generator forms turn into the correct boundary values
            with np.errstate(over="ignore", under="ignore", divide="ignore"):
                out[interior] = self._cdf_positive(U[interior])
        return np.clip(out, 0.0, 1.0)

    def _cdf_positive(self, U: np.ndarray) -> np.ndarray:
        """C(u) with every coordinate in (0, 1]."""
        fam, k = self.family, self.dim
        if fam == "product":
            return U.prod(axis=1)
        if fam == "min":
            return U.min(axis=1)
        if fam == "lower_bound_w":
            return np.maximum(U.sum(axis=1) - 1.0, 0.0)
        if fam == "clayton":
            a = self.params[0]
            inner = np.maximum((U ** -a).sum(axis=1) - (k - 1), 0.0)
            return inner ** (-1.0 / a)
        if fam == "frank":
            t = self.params[0]
            if t > 0:
                # log1p keeps precision for large theta, where e^{-t u}
                # underflows relative to 1
                gi = -np.log1p(-np.exp(-t * U)) + np.log1p(-np.exp(-t))
                s = gi.sum(axis=1)
                return -np.log(-np.expm1(-s) + np.exp(-t - s)) / t
            num = np.expm1(-t * U).prod(axis=1)
            return -np.log1p(num / np.expm1(-t) ** (k - 1)) / t
        if fam == "gumbel_hougaard":
            phi = self.params[0]
            with np.errstate(divide="ignore"):
                logl = np.log(-np.log(U))  # -inf where u = 1
            return np.exp(-np.exp(logsumexp(phi * logl, axis=1) / phi))
        if fam == "joe":
            th = self.params[0]
            g = np.exp(th * np.log1p(-U))          # (1-u)^theta
            t = -np.log1p(-g).sum(axis=1)
            return -np.expm1(np.log(-np.expm1(-t)) / th)
        if fam == "nelsen_4212":
            th = self.params[0]
            t = ((1.0 / U - 1.0) ** th).sum(axis=1)
            return 1.0 / (1.0 + t ** (1.0 / th))
        if fam == "gaussian":
            return mvnorm.mvn_cdf_many(self._corr, ndtri(np.clip(U, 1e-300, 1.0)))
        if fam == "fgm":
            th = self.params[0]
            u, v = U[:, 0], U[:, 1]
            return u * v * (1.0 + th * (1.0 - u) * (1.0 - v))
        if fam == "marshall_olkin":
            a1, a2 = self.params
            u, v = U[:, 0], U[:, 1]
            return u ** (1 - a1) * v ** (1 - a2) * np.minimum(u ** a1, v ** a2)
        if fam == "cuadras_auge":
            S = np.sort(U, axis=1)
            return (S ** self._ca_thetas).prod(axis=1)
        if fam == "gumbel_barnett":
            th = self.params[0]
            u, v = U[:, 0], U[:, 1]
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
    # Sibuya(alpha), alpha = 1/theta, by bisection on the survival function
    # S(m) = Gamma(m+1-alpha) / (Gamma(1-alpha) m!), cheap at any m via
    # log-gamma; bisection over 1..2^60 inverts it exactly in doubles
    alpha = 1.0 / param
    tail = np.log1p(-rng.random(n))  # smallest m with log S(m) <= tail
    lg1a = gammaln(1.0 - alpha)

    def log_s(m):
        # gammaln differences cancel catastrophically for huge m; switch
        # to the exact-enough tail asymptotic S(m) ~ m^-alpha / G(1-a)
        direct = gammaln(m + 1.0 - alpha) - lg1a - gammaln(m + 1.0)
        return np.where(m < 1e12, direct,
                        -alpha * np.log(np.maximum(m, 1.0)) - lg1a)

    lo = np.zeros(n)            # log S(lo) > tail by convention, S(0)=1
    hi = np.full(n, 2.0 ** 60)
    for _ in range(80):
        mid = np.floor((lo + hi) / 2.0)
        take_hi = log_s(mid) <= tail
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
        if np.all(hi - lo <= 1.0):
            break
    return hi


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

    def cdf_many(self, U: np.ndarray) -> np.ndarray:
        U = self._points(U)
        out = np.zeros(len(U))
        for w, c in zip(self.weights, self.components):
            out = out + w * c.cdf_many(U)
        return np.clip(out, 0.0, 1.0)


def archimedean_generator(model: CopulaModel) -> tuple[Callable, Callable]:
    """(psi, psi_inverse) with C(u) = psi(sum psi_inverse(u_i)).

    psi(0) = 1 and psi is nonincreasing.  Clayton with alpha < 0 has no
    generator of this form and raises NotArchimedean.
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
        def psi(t):
            t = np.asarray(t, dtype=float)
            return -np.log(-np.expm1(-t) + np.exp(-t0 - t)) / t0
        def psi_inv(u):
            u = np.asarray(u, dtype=float)
            return -(np.log(-np.expm1(-t0 * u)) - np.log(-np.expm1(-t0))) \
                if t0 > 0 else -np.log(np.expm1(-t0 * u) / np.expm1(-t0))
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
        return psi, lambda u: -np.log1p(-(1.0 - np.asarray(u, dtype=float)) ** th)
    if fam == "nelsen_4212":
        th = model.params[0]
        return (lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** (1.0 / th)),
                lambda u: (1.0 / np.asarray(u, dtype=float) - 1.0) ** th)
    raise NotArchimedean(f"{fam} has no Archimedean generator")
