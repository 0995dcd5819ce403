"""Copula parameter estimation by rank-correlation inversion.

Archimedean families invert the Kendall tau relation (averaged over all
column pairs above two dimensions); the Gaussian family maps pairwise
taus through sin(pi tau / 2) and projects to the nearest positive
definite correlation matrix.  This is the consistent-estimator slot of
the bootstrap test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import kendalltau

from .copulas import CopulaModel, corr_from_upper_triangle
from .errors import (
    DegenerateColumn,
    NoConvergence,
    NotFittable,
    TauOutOfRange,
)

FITTABLE_FAMILIES = ("clayton", "frank", "gumbel_hougaard", "joe", "gaussian",
                     "product")
_EIG_FLOOR = 1e-6  # smallest eigenvalue nearest_pd_correlation keeps


@dataclass(frozen=True)
class FitResult:
    model: CopulaModel
    method: str
    sample_stat: tuple


def kendall_tau(x, y) -> float:
    """Tie-adjusted sample Kendall tau (tau-b), O(N log N)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need two equal-length columns with N >= 2")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise DegenerateColumn("constant column has no concordance")
    t = kendalltau(x, y).statistic
    if not np.isfinite(t):
        raise DegenerateColumn("Kendall tau undefined for this column pair")
    return float(t)


def debye1(theta: float) -> float:
    """First Debye function D1(x) = (1/x) int_0^x t/(e^t - 1) dt, x != 0."""
    x = abs(theta)
    val, _ = quad(lambda t: t / np.expm1(t) if t > 0 else 1.0, 0.0, x,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    val /= x
    # D1(-x) = D1(x) + x/2
    return val + x / 2.0 if theta < 0 else val


def frank_tau(theta: float) -> float:
    """Kendall tau of the Frank copula, odd in theta."""
    if theta == 0.0:
        return 0.0
    return 1.0 - (4.0 / theta) * (1.0 - debye1(theta))


def joe_tau(theta: float) -> float:
    """Kendall tau of the Joe copula through its generator integral."""
    if theta == 1.0:
        return 0.0

    def integrand(y):
        # y = 1 - x; the exact form is log(1-y^t) (1-y^t) y^(1-t), which
        # degenerates to 0 * inf at small y where it equals -y
        g = y ** theta
        if g < 1e-12:
            return -y
        return np.log1p(-g) * (1.0 - g) * y ** (1.0 - theta)

    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
    return 1.0 + 4.0 * val / theta


def tau_to_param(family: str, tau: float) -> float:
    """Parameter solving the family's tau relation; raises TauOutOfRange
    when the concordance is unattainable."""
    if not -1.0 < tau < 1.0:
        raise TauOutOfRange(f"tau={tau} is at or beyond the boundary")
    if family == "clayton":
        if tau == 0.0:
            raise TauOutOfRange("clayton excludes alpha = 0 (tau = 0)")
        alpha = 2.0 * tau / (1.0 - tau)
        if alpha < -1.0:
            raise TauOutOfRange(f"tau={tau} below the clayton range")
        return alpha
    if family == "gumbel_hougaard":
        if tau < 0.0:
            raise TauOutOfRange("gumbel_hougaard needs tau >= 0")
        return 1.0 / (1.0 - tau)
    if family == "joe":
        if tau < 0.0:
            raise TauOutOfRange("joe needs tau >= 0")
        if tau == 0.0:
            return 1.0
        return _solve_monotone(joe_tau, tau, lo=1.0 + 1e-9, hi=2.0)
    if family == "frank":
        if tau == 0.0:
            raise TauOutOfRange("frank excludes theta = 0 (tau = 0)")
        theta = _solve_monotone(frank_tau, abs(tau), lo=1e-8, hi=2.0)
        return theta if tau > 0 else -theta
    raise NotFittable(f"no tau inversion for family {family!r}")


def _solve_monotone(tau_of, target, lo, hi):
    """Bracketed root of tau_of(x) = target with an expanding upper end."""
    for _ in range(60):
        if tau_of(hi) >= target:
            break
        hi *= 2.0
        if hi > 1e8:
            raise NoConvergence(f"tau={target} not bracketed")
    try:
        return float(brentq(lambda x: tau_of(x) - target, lo, hi,
                            xtol=1e-13, rtol=8.9e-16, maxiter=200))
    except (ValueError, RuntimeError) as exc:
        raise NoConvergence(str(exc)) from exc


def nearest_pd_correlation(corr: np.ndarray) -> np.ndarray:
    """Eigenvalues clipped to 1e-6, then correlation renormalization."""
    vals, vecs = np.linalg.eigh(corr)
    if vals.min() > _EIG_FLOOR:
        return corr
    fixed = (vecs * np.maximum(vals, _EIG_FLOOR)) @ vecs.T
    d = np.sqrt(np.diag(fixed))
    return fixed / np.outer(d, d)


def estimate(family: str, data: np.ndarray) -> FitResult:
    """Fit one family to raw data columns by tau inversion."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, k = data.shape
    if k < 2:
        raise ValueError("need at least two columns")
    if family not in FITTABLE_FAMILIES:
        raise NotFittable(f"{family} has no rank-inversion estimator")
    if family == "product":
        return FitResult(CopulaModel("product", k), "tau_inversion", ())

    taus = [kendall_tau(data[:, i], data[:, j])
            for i, j in combinations(range(k), 2)]
    if family == "gaussian":
        rho = np.sin(np.pi * np.asarray(taus) / 2.0)
        corr = corr_from_upper_triangle(k, rho)
        corr = nearest_pd_correlation(corr)
        params = tuple(corr[np.triu_indices(k, 1)])
        return FitResult(CopulaModel("gaussian", k, params), "tau_inversion",
                         tuple(taus))

    tau_bar = float(np.mean(taus))
    if k >= 3 and tau_bar <= 0.0:
        raise TauOutOfRange(
            f"{family} at k={k} needs positive dependence, got tau={tau_bar:.4f}")
    param = tau_to_param(family, tau_bar)
    return FitResult(CopulaModel(family, k, (param,)), "tau_inversion",
                     (tau_bar,))
