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

* ``cce``      cumulative copula entropy, the integral of -C ln C
* ``fcce``     fractional variant, the integral of C (-ln C)^r
* ``ccigf``    generating function, the integral of C^s
* ``b_k``      the plain integral of C
* ``spearman_rho_minus``  multivariate Spearman concordance
* ``cckl``     Kullback-Leibler style divergence between two copulas
"""

from __future__ import annotations

import numpy as np

from .cubature import (Estimate, IntegrationConfig, integrate_unit_cube,
                       xlog_ratio, xlogx)
from .errors import DimensionMismatch, DivergenceInfinite

_CCKL_FLOOR = 1e-300
_GRID_TOL = 1e-9  # slack of concordance_leq_on_grid


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
    """Cumulative copula entropy, bounded in [0, 1/e]."""
    return _integrate((model,), xlogx, cfg)


def fcce(model, r: float, cfg: IntegrationConfig | None = None) -> Estimate:
    """Fractional cumulative copula entropy of order r in [0, 1]."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("fractional order r must lie in [0, 1]")
    def transform(c):
        out = np.zeros_like(c)
        pos = c > 0.0
        with np.errstate(divide="ignore"):
            out[pos] = c[pos] * np.maximum(-np.log(c[pos]), 0.0) ** r
        return out

    return _integrate((model,), transform, cfg)


def ccigf(model, s: float, cfg: IntegrationConfig | None = None) -> Estimate:
    """Information generating function, the integral of C^s for s > 0."""
    if not s > 0:  # written so that NaN fails it
        raise ValueError("generating-function order s must be positive")
    return _integrate((model,), lambda c: c ** s, cfg)


def b_k(model, cfg: IntegrationConfig | None = None) -> Estimate:
    """Integral of C over the cube (the concordance building block)."""
    return _integrate((model,), lambda c: c, cfg)


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
    absolutely_continuous = not model2.has_zero_region

    def transform(c1, c2):
        if absolutely_continuous:
            c2 = np.maximum(c2, _CCKL_FLOOR)
        vals = xlog_ratio(c1, c2)
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
