"""Copula parameter estimation by rank-correlation inversion.

Archimedean families invert the Kendall tau relation, averaged over all
column pairs above two dimensions.  A tau at or past the family's
independence edge (tau = 0 for Clayton and Frank, tau < 0 for the others
and for all four from k = 3) is fitted there: the product copula, method
``independence_edge``.  The Gaussian family maps pairwise taus through
sin(pi tau / 2) and projects to the nearest positive definite correlation
matrix.  This is the consistent-estimator slot of the bootstrap test.

Frank's tau is evaluated from the Debye function D1 in closed form and
the Frank and Joe relations are inverted by bisection, so no fit loads
``scipy.integrate`` or ``scipy.optimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import digamma, factorial, polygamma, spence, zeta

from .copulas import CopulaModel, corr_from_upper_triangle
from .errors import (
    DegenerateColumn,
    NoConvergence,
    NonFiniteData,
    NotFittable,
    TauOutOfRange,
)

_EIG_FLOOR = 1e-6  # smallest eigenvalue nearest_pd_correlation keeps
_RTOL = 4.0 * np.finfo(float).eps   # relative tolerance of the tau inversions


@dataclass(frozen=True)
class FitResult:
    model: CopulaModel
    method: str
    sample_stat: tuple


def kendall_tau(x, y) -> float:
    """Tie-adjusted sample Kendall tau (tau-b) of two columns: the
    two-column case of the all-pairs count in numpy, O(N log N) and
    bit-equal to ``scipy.stats.kendalltau``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValueError("need two equal-length columns with N >= 2")
    return float(_kendall_taus(np.column_stack((x, y)))[0])


def _kendall_taus(data: np.ndarray) -> np.ndarray:
    """Tau-b of every column pair of an (N, k) sample, in ``combinations``
    order, in O(k^2 N log N) time and O(kN) memory.

    Ties per column, joint ties and discordant pairs are counted as exact
    integers, then combined by scipy's float formula,
    (tot - xt - yt + nt - 2 dis) / sqrt(tot - xt) / sqrt(tot - yt) clipped
    to [-1, 1], so each value carries scipy's bits.  Raises ValueError
    below N = 2 and DegenerateColumn for NaN or a constant column.
    """
    n, k = data.shape
    if n < 2:
        raise ValueError("need two equal-length columns with N >= 2")
    if np.isnan(data).any():
        raise DegenerateColumn("Kendall tau undefined for this column pair")
    cols = data.T
    order = np.argsort(cols, axis=1)
    starts = _run_starts(np.take_along_axis(cols, order, axis=1))
    ranks = np.empty((k, n), dtype=np.int64)   # dense ranks from 0
    np.put_along_axis(ranks, order, np.cumsum(starts, axis=1) - 1, axis=1)
    total = n * (n - 1) // 2
    untied = total - _tied_pairs(starts)       # tot - xt, per column
    if not untied.all():
        raise DegenerateColumn("constant column has no concordance")
    i, j = np.array(list(combinations(range(k), 2))).T
    con_minus_dis = untied[i] + untied[j] - total
    for lo in range(0, len(i), k):             # k pairs at a time: O(kN)
        # each pair's ranks ordered by x, ties in x by y
        keys = np.sort(ranks[i[lo:lo + k]] * n + ranks[j[lo:lo + k]], axis=1)
        con_minus_dis[lo:lo + k] += (_tied_pairs(_run_starts(keys))
                                     - 2 * _discordant(keys % n))
    tau = con_minus_dis / np.sqrt(untied[i]) / np.sqrt(untied[j])
    return np.clip(tau, -1.0, 1.0)


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Where each run of equal values begins along sorted rows."""
    starts = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
    return starts


def _tied_pairs(starts: np.ndarray) -> np.ndarray:
    """Pairs inside one run, sum of c (c - 1) / 2 over the runs of a row."""
    at = np.arange(starts.shape[1])
    return (at - np.maximum.accumulate(np.where(starts, at, 0), axis=1)).sum(axis=1)


def _discordant(y: np.ndarray) -> np.ndarray:
    """Pairs a < b with y[a] > y[b] in each row of non-negative ints below
    the row length: a bottom-up merge count, O(N log N).

    Each level merges sorted blocks of w into blocks of 2w with a stable
    sort, which merges two runs in linear time.  A right-block element
    moving from w + q down to p passes the w + q - p larger left-block
    elements, its discordant pairs across the two blocks; the left-block
    elements move up by as much in all, so a level adds half the sum of
    |source - p|.  Padding with N, larger than every value, adds no pair.
    """
    rows, n = y.shape
    size = 1 << (n - 1).bit_length()
    blocks = np.full((rows, size), n, dtype=np.int64)
    blocks[:, :n] = y
    moved = np.zeros(rows, dtype=np.int64)
    w = 1
    while w < size:
        pairs = blocks.reshape(-1, 2 * w)
        shift = np.argsort(pairs, axis=1, kind="stable") - np.arange(2 * w)
        moved += np.abs(shift).reshape(rows, -1).sum(axis=1)
        blocks = np.sort(pairs, axis=1, kind="stable").reshape(rows, size)
        w *= 2
    return moved // 2


# c_n = B_2n / ((2n + 1) (2n)!) = (-1)^(n+1) 2 zeta(2n) / ((2n + 1) (2 pi)^2n),
# the coefficients of D1's Bernoulli series, for n = 15 down to 1
_DEBYE1_SERIES = tuple((-1) ** (n + 1) * 2.0 * float(zeta(2 * n))
                       / ((2 * n + 1) * (2.0 * math.pi) ** (2 * n))
                       for n in range(15, 0, -1))


def _debye1_odd(x: float) -> float:
    """sum_{n=1..15} c_n x^(2n-1), so D1(x) = 1 - x/4 + x * this for |x| < 2,
    where the first omitted term is below 1e-16 of D1 (ratio (x/2pi)^2)."""
    x2, s = x * x, 0.0
    for c in _DEBYE1_SERIES:
        s = s * x2 + c
    return s * x


def debye1(theta: float) -> float:
    """First Debye function D1(x) = (1/x) int_0^x t/(e^t - 1) dt, x != 0:
    the Bernoulli series below |x| = 2, else (Abramowitz & Stegun 27.1)
    (pi^2/6 + x log(q) - Li2(1 - q)) / x with q = 1 - e^-x, Li2(1 - q) being
    ``spence(q)``; D1(-x) = D1(x) + x/2."""
    x = abs(theta)
    if x < 2.0:
        return 1.0 - theta / 4.0 + theta * _debye1_odd(theta)
    q = -math.expm1(-x)
    val = (math.pi ** 2 / 6.0 + x * math.log(q) - float(spence(q))) / x
    return val + x / 2.0 if theta < 0 else val


def frank_tau(theta: float) -> float:
    """Kendall tau of the Frank copula, 1 - (4/theta)(1 - D1(theta)), odd in
    theta (Genest 1987).  Below |theta| = 2 the series 4 sum c_n theta^(2n-1),
    with the leading 1 cancelled by hand, keeps full relative precision
    near independence."""
    x = abs(theta)
    if x < 2.0:
        tau = 4.0 * _debye1_odd(x)
    else:
        tau = 1.0 - (4.0 / x) * (1.0 - debye1(x))
    return math.copysign(tau, theta)


# Taylor coefficients psi^(m)(a)/m! of the digamma function, m = 1..6 at
# a = 2 and m = 1..16 at a = 3
_JOE_SERIES = polygamma(np.arange(1, 7), 2.0) / factorial(np.arange(1, 7))
_JOE_SERIES_NEAR_1 = polygamma(np.arange(1, 17), 3.0) / factorial(np.arange(1, 17))
_JOE_NEAR_1 = 1.15  # below it the first omitted term is below 1e-17 of tau


def joe_tau(theta: float) -> float:
    """Kendall tau of the Joe copula, 1 + 2/(2 - theta) (psi(2) - psi(2/theta + 1))
    with psi the digamma function.  The difference cancels at both ends of
    [1, 2], so below theta = 1.15 tau = (g/2 - (g + 2) (psi(3 + g) - psi(3)))
    / (g + 1), summed as a series in g = 2/theta - 2 = -2 (theta - 1)/theta,
    and near theta = 2 it is a series in h = 2/theta - 1."""
    if theta < _JOE_NEAR_1:
        g = -2.0 * (theta - 1.0) / theta   # theta - 1 is exact here
        shift = g * np.polyval(_JOE_SERIES_NEAR_1[::-1], g)
        return float((0.5 * g - (g + 2.0) * shift) / (g + 1.0))
    h = 2.0 / theta - 1.0
    if abs(h) < 1e-3:
        return float(1.0 - 2.0 / theta * np.polyval(_JOE_SERIES[::-1], h))
    return float(1.0 + 2.0 / (2.0 - theta)
                 * (digamma(2.0) - digamma(2.0 / theta + 1.0)))


# Per Archimedean family: the tau -> parameter inverse, and whether tau is
# at or past its independence edge (Gumbel-Hougaard and Joe reach 0 at 1).
_TAU_INVERSION = {
    "clayton": (lambda t: 2.0 * t / (1.0 - t), lambda t: t == 0.0),
    "frank": (lambda t: math.copysign(_solve_monotone(
        frank_tau, abs(t), lo=1e-8, hi=2.0), t), lambda t: t == 0.0),
    "gumbel_hougaard": (lambda t: 1.0 / (1.0 - t), lambda t: t < 0.0),
    "joe": (lambda t: _solve_monotone(joe_tau, t, lo=1.0 + 1e-9, hi=2.0)
            if t else 1.0, lambda t: t < 0.0),
}

FITTABLE_FAMILIES = (*_TAU_INVERSION, "gaussian", "product")


def tau_to_param(family: str, tau: float) -> float:
    """Parameter solving the family's tau relation; raises TauOutOfRange
    at |tau| = 1 and at or past the family's independence edge."""
    if not -1.0 < tau < 1.0:
        raise TauOutOfRange(f"tau={tau} is at or beyond the boundary")
    if family not in _TAU_INVERSION:
        raise NotFittable(f"no tau inversion for family {family!r}")
    inverse, at_edge = _TAU_INVERSION[family]
    if at_edge(tau):
        raise TauOutOfRange(f"tau={tau} is at or past the {family} edge")
    return inverse(tau)


def _solve_monotone(tau_of, target, lo, hi):
    """Root of the increasing tau_of(x) = target, x >= lo, by bisection to a
    relative width of 4 machine epsilons, on [lo, hi] with hi doubled up to
    1e8 until it brackets; a target at or below tau_of(lo) returns lo."""
    if tau_of(lo) >= target:
        return lo
    while tau_of(hi) < target:
        lo, hi = hi, 2.0 * hi
        if hi > 1e8:
            raise NoConvergence(f"tau={target} not bracketed")
    while hi - lo > _RTOL * hi:   # ends: adjacent doubles are nearer
        mid = 0.5 * (lo + hi)
        if tau_of(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def nearest_pd_correlation(corr: np.ndarray) -> np.ndarray:
    """Eigenvalues clipped to 1e-6, then correlation renormalization."""
    vals, vecs = np.linalg.eigh(corr)
    if vals.min() > _EIG_FLOOR:
        return corr
    fixed = (vecs * np.maximum(vals, _EIG_FLOOR)) @ vecs.T
    d = np.sqrt(np.diag(fixed))
    return fixed / np.outer(d, d)


def estimate(family: str, data: np.ndarray) -> FitResult:
    """Fit one family to raw data columns by tau inversion; raises
    NonFiniteData for NaN or infinity in the data."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, k = data.shape
    if k < 2:
        raise ValueError("need at least two columns")
    if family not in FITTABLE_FAMILIES:
        raise NotFittable(f"{family} has no rank-inversion estimator")
    if not np.all(np.isfinite(data)):
        raise NonFiniteData("data contains NaN or infinity")
    if family == "product":
        return FitResult(CopulaModel("product", k), "tau_inversion", ())

    taus = _kendall_taus(data)
    if family == "gaussian":
        rho = np.sin(np.pi * taus / 2.0)
        corr = corr_from_upper_triangle(k, rho)
        corr = nearest_pd_correlation(corr)
        params = tuple(corr[np.triu_indices(k, 1)])
        return FitResult(CopulaModel("gaussian", k, params), "tau_inversion",
                         tuple(taus.tolist()))

    tau_bar = float(np.mean(taus))
    _, at_edge = _TAU_INVERSION[family]
    if at_edge(tau_bar) or (k >= 3 and tau_bar < 0.0):
        return FitResult(CopulaModel("product", k), "independence_edge",
                         (tau_bar,))
    return FitResult(CopulaModel(family, k, (tau_to_param(family, tau_bar),)),
                     "tau_inversion", (tau_bar,))
