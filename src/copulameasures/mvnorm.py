"""Multivariate standard normal CDF with controlled accuracy.

Three regimes, all deterministic:

* k = 2: Owen's T representation, machine precision, fully vectorized.
* k = 3: the bivariate value is corrected by two one-dimensional
  quadratures along a correlation path (the derivative of the CDF with
  respect to an off-diagonal correlation is a bivariate density times a
  conditional univariate CDF).  Vectorized over evaluation points.  Each
  path is split into panels that halve toward its end, as many as the
  distance from the end to the integrand's nearest singularity asks (none
  for ordinary correlations); the Gauss-Legendre node count per panel
  doubles from 8 until two successive rules agree within 1e-13 on a set
  of probe scores, once per correlation, so the value lies within the
  stated 5e-10.  A correlation whose rule would need more than 1024
  nodes a path, or more than 40 halvings (some with smallest eigenvalue
  below 1e-12), raises ToleranceNotReached.  Both paths' nodes form one
  set of columns, evaluated in row blocks small enough for the cache:
  per (point, node) one exp and one ndtr, besides two small matrix
  products and the weighted sum.  From a few hundred points on, that is
  about 0.8 us a point at 16 nodes a path, on one BLAS thread of a
  shared 2-core Xeon.
* k >= 4: separation-of-variables transform to the unit cube, integrated
  with scrambled Sobol points under a fixed internal seed.

Correlation inputs are full matrices under one check, ``_check_corr``:
square, finite, symmetric and unit-diagonal within 1e-12, entries in
[-1, 1].  Scores are clipped to +-38 where a point enters, so infinite
ones give limits.  ``mvn_cdf`` checks both and rejects NaN scores;
``mvn_cdf_many`` trusts its caller.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .cubature import Estimate, _integrate_qmc
from .errors import (CorrelationNotPD, DimensionMismatch, DimensionUnsupported,
                     ToleranceNotReached)

_INTERNAL_QMC_SEED = 0x6D764E
_X_CLIP = 38.0  # ndtr saturates to 0/1 beyond this
_ABS_TOL = 1e-8  # of one QMC value, k >= 4
_TVN_ELEMS = 1 << 14  # (row, node) elements per block of the path integrals
_TVN_AGREE = 1e-13  # of the CDF, between the n- and 2n-node path terms
_TVN_CAP = 1024  # nodes per path; a rule that needs more raises
_TVN_DEPTH = 40  # halvings toward a path's end; a nearer singularity raises
# the probe lattice of _tvn_probe: (b_i, b_m) pairs, then (b_i, b_j, b_m)
_TVN_PROBE_IM = np.array([(i, m) for i in range(-6, 7, 3)
                          for m in range(-6, 7, 3)], dtype=float)
_TVN_LATTICE = np.array([(i, j, m) for i, m in _TVN_PROBE_IM
                         for j in range(-8, 9, 2)])
_TVN_NO_RULE = (np.empty(0), np.empty((2, 0)), np.empty((3, 0)))  # no nodes


def _check_corr(corr) -> np.ndarray:
    """``corr`` as floats, if square, finite, symmetric and unit-diagonal
    within 1e-12 absolute, off-diagonal in [-1, 1]; else CorrelationNotPD."""
    corr = np.asarray(corr, dtype=float)
    if (corr.ndim != 2 or corr.shape[0] != corr.shape[1]
            or not np.isfinite(corr).all()  # first, as inf - inf warns
            or np.any(np.abs(corr - corr.T) > 1e-12)
            or np.any(np.abs(np.diag(corr) - 1.0) > 1e-12)
            or np.any(np.abs(np.triu(corr, 1)) > 1.0)):
        raise CorrelationNotPD("correlation must be a square, finite, symmetric, "
                               "unit-diagonal matrix with entries in [-1, 1]")
    return corr


def cholesky_corr(corr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor after ``_check_corr``; CorrelationNotPD on failure."""
    try:
        return np.linalg.cholesky(_check_corr(corr))
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


def _tvn_path_nodes(theta, r_ij, r_base, r_other):
    """sin and cos^2 of the path angle ``theta``, the conditional-mean
    coefficients and the conditional spread at it."""
    sin_t = np.sin(theta)
    cos2 = np.cos(theta) ** 2
    t = sin_t / r_ij  # path position in [0, 1]
    det = 1.0 - sin_t * sin_t
    c_a = (r_base - t * r_other * sin_t) / det
    c_b = (t * r_other - sin_t * r_base) / det
    s2 = np.sqrt(np.clip(1.0 - c_a * r_base - c_b * t * r_other, 1e-14, None))
    return sin_t, cos2, c_a, c_b, s2


@lru_cache(maxsize=None)  # n_nodes is a power of two up to _TVN_CAP
def _legendre(n_nodes):
    """Gauss-Legendre nodes and weights on [-1, 1]; leggauss solves an
    eigenproblem, which costs more than a path term on a few hundred
    points."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _tvn_depth(r_ij, r_base, r_other):
    """Halvings of a path's panels toward its end.

    The path integrand is analytic in the angle except where cos(theta)
    or the conditional variance vanishes: where sin^2(theta) is 1 or
    r_ij^2 (1 - r_base^2) / q, with q = r_ij^2 + r_other^2 -
    2 r_base r_ij r_other.  Both lie past the path's end, and a
    near-singular correlation brings them close to it.  Gauss-Legendre
    converges geometrically on a panel at a rate set by the
    singularity's distance relative to the panel's length, so the panels
    [0, 1/2], [1/2, 3/4], ... of the path halve until the last is no
    longer than that distance; ordinary correlations get one panel.
    """
    q = r_ij * r_ij + r_other * r_other - 2.0 * r_base * r_ij * r_other
    reach = min(1.0, abs(r_ij) * np.sqrt((1.0 - r_base * r_base) / q))
    end = np.arcsin(abs(r_ij))
    gap = (np.arcsin(reach) - end) / end  # in lengths of the path
    return max(0, int(np.ceil(-np.log2(gap)))) if gap > 0.0 else np.inf


def _tvn_gauss_rule(r_ij, r_base, r_other, n_nodes, depth=0):
    """The composite Gauss-Legendre rule of one path integral, n nodes on
    each of its depth + 1 panels: the weights, the exponent's coefficients
    of b_i^2 + b_m^2 and of b_i b_m, and the conditional argument's
    coefficients of (b_i, b_j, b_m), one column per node."""
    x, w = _legendre(n_nodes)
    edges = np.append(1.0 - 0.5 ** np.arange(depth + 1), 1.0)
    end = np.arcsin(r_ij)
    half = (0.5 * np.diff(edges) * end)[:, None]
    theta = edges[:-1, None] * end + half * (x + 1.0)  # on [0, arcsin r_ij]
    sin_t, cos2, c_a, c_b, s2 = _tvn_path_nodes(theta.ravel(), r_ij, r_base,
                                                r_other)
    return ((half * w).ravel(), np.array([-0.5 / cos2, sin_t / cos2]),
            np.array([-c_a, np.ones_like(s2), -c_b]) / s2)


def _tvn_probe(r_ij, r_base, r_other):
    """Scores (b_i, b_j, b_m) on which a path rule is checked.

    A lattice: b_j in steps of 2 over [-8, 8], b_i and b_m in steps of 3
    over [-6, 6], since from |b_i| or |b_m| = 8 on the density factor is
    below exp(-32).  A near-singular correlation makes the integrand sharp
    only where b_j lies within a few conditional spreads of its
    conditional mean at the path's end, a slab the lattice misses; so the
    scores one spread above and below that mean, at each (b_i, b_m) of
    the lattice, join it.
    """
    end = np.arcsin(r_ij)
    _, _, c_a, c_b, s2 = _tvn_path_nodes(end, r_ij, r_base, r_other)
    b_i, b_m = _TVN_PROBE_IM.T
    mean = c_a * b_i + c_b * b_m
    return np.concatenate([_TVN_LATTICE] + [
        np.column_stack([b_i, mean + d * s2, b_m]) for d in (-1.0, 1.0)])


@lru_cache(maxsize=64)
def _tvn_path_rule(r_ij, r_base, r_other):
    """The Gauss-Legendre rule of one path integral, with its node count
    chosen from the error that ``mvn_cdf`` states, or the reason no rule
    within the cap serves.

    The panels come from ``_tvn_depth``.  The count per panel doubles
    from 8, while the path's total stays within ``_TVN_CAP``, until the
    n- and 2n-node terms agree within ``_TVN_AGREE`` of the CDF on the
    probe scores, and the 2n rule is kept: Gauss-Legendre converges
    geometrically on each panel, so the 2n rule is far inside 5e-10.  A
    ladder that ends at the cap without agreeing raises.  The rule
    depends on the correlations alone, so every chunk of points on one
    copula reuses it; a failure is cached too, so a repeated call raises
    at once.  A zero path correlation contributes nothing and gets no
    nodes.
    """
    if r_ij == 0.0:
        rule = _TVN_NO_RULE
    else:
        where = f"at correlation {r_ij!r} with {r_base!r}, {r_other!r}"
        depth = _tvn_depth(r_ij, r_base, r_other)
        if depth > _TVN_DEPTH:
            return (f"trivariate normal CDF: a singularity lies within "
                    f"2^-{_TVN_DEPTH} of the path's end {where}")
        probe = _tvn_probe(r_ij, r_base, r_other)
        gap, prev, n = np.inf, None, 8
        while (depth + 1) * n <= _TVN_CAP:
            rule = _tvn_gauss_rule(r_ij, r_base, r_other, n, depth)
            cur = _tvn_paths(probe, rule, _TVN_NO_RULE)
            if prev is not None:
                gap = np.max(np.abs(cur - prev)) / (2.0 * np.pi)
                if gap <= _TVN_AGREE:
                    break
            prev, n = cur, 2 * n
        else:
            return (f"trivariate normal CDF: path rules of up to "
                    f"{_TVN_CAP} nodes differ by {gap:.1e} (of "
                    f"{_TVN_AGREE:.0e}) {where}")
    for a in rule:  # shared by every caller
        a.setflags(write=False)
    return rule


def _tvn_paths(b, rule_a, rule_c):
    """The two correlation-path integrals of the trivariate CDF, summed,
    at the rows (b_0, b_1, b_2) of ``b``: path a by ``rule_a`` with
    (b_i, b_j, b_m) = (b_0, b_1, b_2), path c by ``rule_c`` with
    (b_1, b_0, b_2).

    Each integrates the derivative of Phi_3 with respect to the (i,j)
    correlation from 0 to r_ij, with the (i,j)=(1,2) base correlation
    ``r_base`` held fixed and the remaining path correlation ``r_other``
    scaled in lockstep, under the sine substitution that cancels the
    1/sqrt(1-r^2) factor of the bivariate density.  The integrand at a
    node is exp(expo) Phi(arg): both rules' nodes stack into one set of
    columns, so expo and arg are two small products of per-row scores
    with the stacked coefficients, and the rows go through in blocks of
    about ``_TVN_ELEMS`` (row, node) elements, whose temporaries stay in
    cache.
    """
    w = np.concatenate([rule_a[0], rule_c[0]])
    n_a, n = len(rule_a[0]), len(w)
    # over the scores b_0^2 + b_2^2, b_1^2 + b_2^2, b_0 b_2, b_1 b_2
    expo_coef = np.zeros((4, n))
    expo_coef[0::2, :n_a] = rule_a[1]
    expo_coef[1::2, n_a:] = rule_c[1]
    arg_coef = np.concatenate([rule_a[2], rule_c[2][[1, 0, 2]]], axis=1)
    sq = b * b
    feats = np.column_stack([sq[:, 0] + sq[:, 2], sq[:, 1] + sq[:, 2],
                             b[:, 0] * b[:, 2], b[:, 1] * b[:, 2]])
    step = max(1, _TVN_ELEMS // max(n, 1))
    expo = np.empty((min(step, len(b)), n))
    arg = np.empty_like(expo)
    out = np.empty(len(b))
    for lo in range(0, len(b), step):
        hi = min(lo + step, len(b))
        e, a = expo[:hi - lo], arg[:hi - lo]
        np.matmul(feats[lo:hi], expo_coef, out=e)
        np.matmul(b[lo:hi], arg_coef, out=a)
        np.exp(e, out=e)
        ndtr(a, out=a)
        e *= a
        np.matmul(e, w, out=out[lo:hi])
    return out


def _tvn_plan(corr):
    """The variable order, the base correlation and the two path rules."""
    r21, r31, r32 = corr[0, 1], corr[0, 2], corr[1, 2]
    # Put the strongest pair in the base slot; the path integrals then
    # carry the two weaker correlations.
    perm_by_pair = {0: (0, 1, 2), 1: (0, 2, 1), 2: (1, 2, 0)}
    pair = int(np.argmax([abs(r21), abs(r31), abs(r32)]))
    p = perm_by_pair[pair]
    c = corr[np.ix_(p, p)]
    rb, ra, rc = float(c[0, 1]), float(c[0, 2]), float(c[1, 2])  # base, paths
    rules = (_tvn_path_rule(ra, rb, rc), _tvn_path_rule(rc, rb, ra))
    for rule in rules:
        if isinstance(rule, str):
            raise ToleranceNotReached(rule)
    return p, rb, rules


def tvn_cdf(x: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """P(Z <= x) for trivariate standard normals, vectorized over rows."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p, rb, (rule_a, rule_c) = _tvn_plan(corr)
    b = x[:, p]
    base = bvn_cdf(b[:, 0], b[:, 1], rb) * ndtr(b[:, 2])
    return np.clip(base + _tvn_paths(b, rule_a, rule_c) / (2.0 * np.pi),
                   0.0, 1.0)


def _mvn_qmc(x: np.ndarray, corr: np.ndarray, abs_tol: float) -> Estimate:
    """Separation-of-variables QMC estimate of P(Z <= x), k >= 4."""
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
    """P(Z <= x) for Z ~ N(0, corr), k >= 2; abs_tol binds from k = 4 on.
    ``corr`` must pass ``_check_corr``, where +-1 is a valid limit at
    k = 2, and be positive definite from k = 3, else CorrelationNotPD."""
    if not abs_tol > 0:  # NaN fails too
        raise ValueError("abs_tol must be positive")
    corr = _check_corr(corr)
    x = np.asarray(x, dtype=float).ravel()
    if np.isnan(x).any():
        raise ValueError("scores must not be NaN")
    k = len(x)
    if k != len(corr):
        raise DimensionMismatch("point dimension does not match correlation")
    if k < 2:
        raise DimensionUnsupported("mvn_cdf needs dimension k >= 2")
    if k == 2:
        return Estimate(float(mvn_cdf_many(corr, x)[0]), 5e-15, 1)
    cholesky_corr(corr)
    if k == 3:  # evaluations: the nodes of both path rules
        evals = sum(len(rule[0]) for rule in _tvn_plan(corr)[2])
        return Estimate(float(mvn_cdf_many(corr, x)[0]), 5e-10, evals)
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
