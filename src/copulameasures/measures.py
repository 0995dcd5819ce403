"""Information measures of a copula, computed by cubature.

Every operation accepts any :class:`~copulameasures.copulas.Copula`
(parametric models, mixtures and the empirical beta copula) and returns
the cubature :class:`~copulameasures.cubature.Estimate`: the value, its
error bound and the number of integrand evaluations.

A measure gives the cubature its integrand on a tensor grid when one
of its copulas sets ``tensor_grid``, and declares the integrand
symmetric when every copula sets ``diagonal_kinks``; the rule that picks
the engine from these and k is stated once, in
:mod:`~copulameasures.cubature`.

Measures:

* ``cce``      cumulative copula entropy, the integral of -C ln C: fcce at r = 1
* ``fcce``     fractional variant, the integral of C (-ln C)^r
* ``ccigf``    generating function, the integral of C^s
* ``b_k``      the plain integral of C: ccigf at s = 1
* ``spearman_rho_minus``  multivariate Spearman concordance
* ``cckl``     Kullback-Leibler style divergence between two copulas

The integrands live here too: :func:`xlogx`, :func:`xlog_ratio`, and the
floored divergence integrand that ``cckl`` uses against a fully
supported copula and :func:`~copulameasures.gof.t_statistic` averages at
the pseudo-observations.
"""

from __future__ import annotations

import numpy as np

from .cubature import Estimate, IntegrationConfig, integrate_unit_cube
from .errors import DimensionMismatch, DivergenceInfinite

_CCKL_FLOOR = 1e-300
_GRID_TOL = 1e-9  # slack of concordance_leq_on_grid


def _fractional_entropy(c, r):
    """c max(-ln c, 0)^r, with ln c read as 0 where c <= 0: the
    integrand of fcce, and of cce at r = 1."""
    log_c = np.log(c, where=c > 0, out=np.zeros_like(c))
    return c * np.maximum(-log_c, 0.0) ** r


def xlogx(c):
    """-c*ln(c) on [0,1] with the continuity convention 0 -> 0.

    Inputs are clamped into [0,1]; the range is a subset of [0, 1/e].
    """
    out = _fractional_entropy(np.clip(np.asarray(c, dtype=float), 0.0, 1.0), 1.0)
    return out if out.ndim else float(out)


def xlog_ratio(c1, c2):
    """c1*ln(c1/c2) - c1 + c2, the pointwise-nonnegative KL integrand.

    Conventions: c1 = 0 gives c2; c1 > 0 with c2 = 0 gives +inf, a value
    level flag the divergence measure interprets.  Never raises.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    c1, c2 = np.broadcast_arrays(c1, c2)
    out = np.array(c2, dtype=float, copy=True)  # the c1 == 0 branch
    pos = c1 > 0.0
    ok = pos & (c2 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = c1 * (np.log(c1, where=pos, out=np.zeros_like(out))
                    - np.log(c2, where=ok, out=np.zeros_like(out))) - c1 + c2
    out[ok] = val[ok]
    out[pos & ~ok] = np.inf
    # The identity x ln(x/y) - x + y >= 0 can dip an ulp below zero.
    np.clip(out, 0.0, None, out=out)
    return out if out.ndim else float(out)


def _floored_xlog_ratio(c1, c2):
    """xlog_ratio against c2 floored at 1e-300: the divergence integrand
    against a fully supported copula, whose CDF may underflow to 0."""
    return xlog_ratio(c1, np.maximum(c2, _CCKL_FLOOR))


def spearman_n(k: int) -> float:
    """Normalizer (k+1) / (2^k - k - 1) of the concordance measure."""
    return (k + 1.0) / (2.0 ** k - k - 1.0)


def _integrate(models, transform, cfg) -> Estimate:
    """Cubature of transform(C_1, ...) over the unit cube, with the grid
    form when one of the copulas sets ``tensor_grid``, and declared
    symmetric when all of them set ``diagonal_kinks``."""
    def f(U):
        return transform(*(m.cdf_many(U) for m in models))

    def on_grid(x):
        return transform(*(m.cdf_grid(x) for m in models))

    gridded = any(m.tensor_grid for m in models)
    return integrate_unit_cube(f, models[0].dim, cfg,
                               on_grid if gridded else None,
                               symmetric=all(m.diagonal_kinks for m in models))


def cce(model, cfg: IntegrationConfig | None = None) -> Estimate:
    """Cumulative copula entropy, bounded in [0, 1/e]: fcce of order 1."""
    return fcce(model, 1.0, cfg)


def fcce(model, r: float, cfg: IntegrationConfig | None = None) -> Estimate:
    """Fractional cumulative copula entropy of order r in [0, 1]."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("fractional order r must lie in [0, 1]")
    return _integrate((model,), lambda c: _fractional_entropy(c, r), cfg)


def ccigf(model, s: float, cfg: IntegrationConfig | None = None) -> Estimate:
    """Information generating function, the integral of C^s for s > 0."""
    if not s > 0:  # written so that NaN fails it
        raise ValueError("generating-function order s must be positive")
    return _integrate((model,), lambda c: c ** s, cfg)


def b_k(model, cfg: IntegrationConfig | None = None) -> Estimate:
    """Integral of C over the cube (the concordance building block):
    ccigf of order 1."""
    return ccigf(model, 1.0, cfg)


def spearman_rho_minus(model, cfg: IntegrationConfig | None = None) -> Estimate:
    """Multivariate Spearman concordance n(k) [2^k int C - 1]."""
    k = model.dim
    base = b_k(model, cfg)
    scale = spearman_n(k) * 2.0 ** k
    return Estimate(spearman_n(k) * (2.0 ** k * base.value - 1.0),
                    scale * base.error, base.evals)


def cckl(model1, model2, cfg: IntegrationConfig | None = None) -> Estimate:
    """Divergence of model1 from model2, integral of c1 ln(c1/c2) - c1 + c2.

    The single nonnegative integrand avoids the cancellation of the
    two-term difference form.  When model2 vanishes on a region where
    model1 does not, the divergence is infinite and
    :class:`DivergenceInfinite` is raised.  For fully supported model2
    the value is floored away from zero to absorb underflow.
    """
    if model1.dim != model2.dim:
        raise DimensionMismatch("divergence needs copulas of equal dimension")
    integrand = xlog_ratio if model2.has_zero_region else _floored_xlog_ratio

    def transform(c1, c2):
        vals = integrand(c1, c2)
        if np.isinf(vals).any():
            raise DivergenceInfinite(
                "first copula puts mass where the second vanishes")
        return vals

    return _integrate((model1, model2), transform, cfg)


def concordance_leq_on_grid(model1, model2, grid_pts: int = 17) -> bool:
    """True iff C1 <= C2 + 1e-9 on the uniform grid with grid_pts per axis,
    at least 3, so that the grid has an interior node."""
    if model1.dim != model2.dim:
        raise DimensionMismatch("concordance needs copulas of equal dimension")
    if not isinstance(grid_pts, (int, np.integer)) or grid_pts < 3:
        raise ValueError(f"grid_pts must be an integer >= 3, got {grid_pts!r}")
    if grid_pts ** model1.dim > 2 * 10 ** 7:
        raise ValueError("grid too large")
    axis = np.linspace(0.0, 1.0, grid_pts)
    return bool(np.all(model1.cdf_grid(axis) <= model2.cdf_grid(axis) + _GRID_TOL))
