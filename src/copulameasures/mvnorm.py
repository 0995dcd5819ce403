"""Multivariate standard normal CDF with controlled accuracy.

Three regimes, all deterministic:

* k = 2: Owen's T representation, machine precision, fully vectorized.
* k = 3: the bivariate value is corrected by two one-dimensional
  quadratures along a correlation path (the derivative of the CDF with
  respect to an off-diagonal correlation is a bivariate density times a
  conditional univariate CDF).  Vectorized over evaluation points.
* k >= 4: separation-of-variables transform to the unit cube, integrated
  with scrambled Sobol points under a fixed internal seed.

Correlation inputs are full matrices.  Scores are clipped to +-38 where
a point enters, so infinite ones give limits.  ``mvn_cdf`` validates both
and rejects NaN scores; ``mvn_cdf_many`` trusts its caller.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .cubature import Estimate, _integrate_qmc
from .errors import (CorrelationNotPD, DimensionMismatch, DimensionUnsupported,
                     ToleranceNotReached)

_INTERNAL_QMC_SEED = 0x6D764E
_X_CLIP = 38.0  # ndtr saturates to 0/1 beyond this
_ABS_TOL = 1e-8  # of one QMC value, k >= 4


def cholesky_corr(corr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, raising CorrelationNotPD on failure."""
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise CorrelationNotPD("correlation must be a square matrix")
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise CorrelationNotPD("correlation matrix is not symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise CorrelationNotPD("correlation diagonal must be 1")
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        raise CorrelationNotPD("Cholesky factorization failed") from None


def bvn_cdf(x1, x2, rho: float):
    """P(Z1 <= x1, Z2 <= x2) for standard normals with correlation rho."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    x1, x2 = np.broadcast_arrays(x1, x2)
    if abs(rho) < 1e-16:
        return ndtr(x1) * ndtr(x2)
    if rho >= 1.0 - 1e-16:
        return ndtr(np.minimum(x1, x2))
    if rho <= -1.0 + 1e-16:
        return np.clip(ndtr(x1) + ndtr(x2) - 1.0, 0.0, 1.0)
    # Owen (1956): nudge exact zeros, the two one-sided limits agree.
    h = np.where(x1 == 0.0, 1e-15, x1)
    k = np.where(x2 == 0.0, 1e-15, x2)
    s = np.sqrt(1.0 - rho * rho)
    a1 = (k - rho * h) / (h * s)
    a2 = (h - rho * k) / (k * s)
    beta = np.where(h * k < 0.0, 0.5, 0.0)
    p = 0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, a1) - owens_t(k, a2) - beta
    return np.clip(p, 0.0, 1.0)


def _tvn_path_term(b_i, b_j, b_m, r_ij, r_base, r_other, n_nodes):
    """One correlation-path integral for the trivariate CDF.

    Integrates the derivative of Phi_3 with respect to the (i,j)
    correlation from 0 to r_ij, with the (i,j)=(1,2) base correlation
    ``r_base`` held fixed and the remaining path correlation ``r_other``
    scaled in lockstep.  Uses the sine substitution that cancels the
    1/sqrt(1-r^2) factor of the bivariate density.
    """
    if r_ij == 0.0:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * np.arcsin(r_ij)
    theta, w = half * (x + 1.0), half * w  # nodes on [0, arcsin r_ij]
    sin_t = np.sin(theta)
    cos2 = np.cos(theta) ** 2
    t = sin_t / r_ij  # path position in [0, 1]
    det = 1.0 - sin_t * sin_t
    c_a = (r_base - t * r_other * sin_t) / det
    c_b = (t * r_other - sin_t * r_base) / det
    s2 = np.sqrt(np.clip(1.0 - c_a * r_base - c_b * t * r_other, 1e-14, None))
    # (points, nodes) broadcast
    expo = -(b_i[:, None] ** 2 - 2.0 * sin_t * b_i[:, None] * b_m[:, None]
             + b_m[:, None] ** 2) / (2.0 * cos2)
    cond = (b_j[:, None] - c_a * b_i[:, None] - c_b * b_m[:, None]) / s2
    vals = np.exp(expo) * ndtr(cond)
    return vals @ w


def tvn_cdf(x: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """P(Z <= x) for trivariate standard normals, vectorized over rows."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r21, r31, r32 = corr[0, 1], corr[0, 2], corr[1, 2]
    # Put the strongest pair in the base slot; the path integrals then
    # carry the two weaker correlations.
    perm_by_pair = {0: (0, 1, 2), 1: (0, 2, 1), 2: (1, 2, 0)}
    pair = int(np.argmax([abs(r21), abs(r31), abs(r32)]))
    p = perm_by_pair[pair]
    b = x[:, p]
    c = corr[np.ix_(p, p)]
    rb, ra, rc = c[0, 1], c[0, 2], c[1, 2]  # base, path(1,3), path(2,3)

    base = bvn_cdf(b[:, 0], b[:, 1], rb) * ndtr(b[:, 2])
    rmax = max(abs(ra), abs(rc))
    nodes = 48 if rmax <= 0.8 else (96 if rmax <= 0.95 else 256)
    t1 = _tvn_path_term(b[:, 0], b[:, 1], b[:, 2], ra, rb, rc, nodes)
    t2 = _tvn_path_term(b[:, 1], b[:, 0], b[:, 2], rc, rb, ra, nodes)
    return np.clip(base + (t1 + t2) / (2.0 * np.pi), 0.0, 1.0)


def _mvn_qmc(x: np.ndarray, corr: np.ndarray, abs_tol: float) -> Estimate:
    """Separation-of-variables QMC estimate of P(Z <= x), k >= 3."""
    k = len(x)
    order = np.argsort(x)
    L = np.linalg.cholesky(corr[np.ix_(order, order)])
    b = x[order]

    def integrand(w: np.ndarray) -> np.ndarray:
        m = w.shape[0]
        f = np.full(m, ndtr(b[0] / L[0, 0]))
        e_prev = f.copy()
        y = np.empty((m, k - 1))
        for i in range(1, k):
            y[:, i - 1] = ndtri(np.clip(w[:, i - 1] * e_prev, 1e-315, 1.0 - 1e-16))
            t = (b[i] - y[:, :i] @ L[i, :i]) / L[i, i]
            e_prev = ndtr(t)
            f *= e_prev
        return f

    # rel_tol 0: the tolerance is absolute, as documented on mvn_cdf
    est = _integrate_qmc(integrand, k - 1, _INTERNAL_QMC_SEED, 2048, abs_tol,
                         0.0, 1_000_000)
    return replace(est, value=float(np.clip(est.value, 0.0, 1.0)))


def mvn_cdf(corr: np.ndarray, x, abs_tol: float = _ABS_TOL) -> Estimate:
    """P(Z <= x) for Z ~ N(0, corr), k >= 2; abs_tol binds from k = 4 on."""
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    corr = np.asarray(corr, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    if np.isnan(x).any():
        raise ValueError("scores must not be NaN")
    k = len(x)
    if k != corr.shape[0]:
        raise DimensionMismatch("point dimension does not match correlation")
    if k < 2:
        raise DimensionUnsupported("mvn_cdf needs dimension k >= 2")
    if k == 2:
        # the comonotone and countermonotone boundaries are valid limits
        if (corr.shape != (2, 2) or not np.all(np.isfinite(corr))
                or abs(corr[1, 0] - corr[0, 1]) > 1e-12 or abs(corr[0, 1]) > 1.0
                or np.any(np.abs(np.diag(corr) - 1) > 1e-12)):
            raise CorrelationNotPD("invalid bivariate correlation matrix")
        return Estimate(float(mvn_cdf_many(corr, x)[0]), 5e-15, 1)
    cholesky_corr(corr)
    if k == 3:
        return Estimate(float(mvn_cdf_many(corr, x)[0]), 5e-10, 512)
    return _mvn_qmc(np.clip(x, -_X_CLIP, _X_CLIP), corr, abs_tol)


def mvn_cdf_many(corr: np.ndarray, X: np.ndarray) -> np.ndarray:
    """P(Z <= x) over the rows of X for a correlation its caller validated."""
    corr = np.asarray(corr, dtype=float)
    X = np.clip(np.atleast_2d(np.asarray(X, dtype=float)), -_X_CLIP, _X_CLIP)
    k = corr.shape[0]
    if k == 2:
        return np.asarray(bvn_cdf(X[:, 0], X[:, 1], float(corr[0, 1])))
    if k == 3:
        return tvn_cdf(X, corr)
    try:
        return np.array([_mvn_qmc(x, corr, _ABS_TOL).value for x in X])
    except ToleranceNotReached as exc:  # a CDF value, not the caller's estimate
        raise ToleranceNotReached(f"normal CDF at one point: {exc}") from exc
