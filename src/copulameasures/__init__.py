"""Copula-based multivariate information measures.

Parametric copula models with exact sampling, cumulative copula entropy
and its fractional and generating-function variants, a Kullback-Leibler
style divergence between copulas, empirical beta copula estimation, and
a parametric bootstrap goodness-of-fit test built on the divergence.
"""

from .closed_forms import (
    FORMULA_NOTES,
    closed_form_bk,
    closed_form_cce,
    closed_form_cckl,
    closed_form_ccigf,
    closed_form_fcce,
)
from .copulas import (
    FAMILIES,
    CopulaModel,
    MixtureCopula,
    archimedean_generator,
    corr_from_upper_triangle,
)
from .cubature import (
    Estimate,
    IntegrationConfig,
    integrate_unit_cube,
    xlog_ratio,
    xlogx,
)
from .empirical import (
    EmpiricalBetaCopula,
    RankedSample,
    empirical_copula_cdf,
    rank_with_random_ties,
)
from .fit import FitResult, estimate, kendall_tau, tau_to_param
from .gof import (
    GofConfig,
    GofReport,
    SelectionEntry,
    bootstrap_test,
    calibrate_percentile,
    percentile_index,
    power_study,
    select_copula,
    t_statistic,
)
from .measures import (
    b_k,
    cce,
    ccigf,
    cckl,
    concordance_leq_on_grid,
    fcce,
    spearman_rho_minus,
    spearman_n,
)
from .mvnorm import mvn_cdf, mvn_cdf_many

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "FORMULA_NOTES",
    "CopulaModel",
    "MixtureCopula",
    "Estimate",
    "IntegrationConfig",
    "GofConfig",
    "GofReport",
    "SelectionEntry",
    "FitResult",
    "RankedSample",
    "EmpiricalBetaCopula",
    "archimedean_generator",
    "corr_from_upper_triangle",
    "integrate_unit_cube",
    "xlogx",
    "xlog_ratio",
    "mvn_cdf",
    "mvn_cdf_many",
    "cce",
    "fcce",
    "ccigf",
    "b_k",
    "spearman_rho_minus",
    "spearman_n",
    "cckl",
    "concordance_leq_on_grid",
    "closed_form_cce",
    "closed_form_fcce",
    "closed_form_ccigf",
    "closed_form_bk",
    "closed_form_cckl",
    "rank_with_random_ties",
    "empirical_copula_cdf",
    "kendall_tau",
    "tau_to_param",
    "estimate",
    "t_statistic",
    "percentile_index",
    "bootstrap_test",
    "calibrate_percentile",
    "power_study",
    "select_copula",
]
