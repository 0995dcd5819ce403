"""Bootstrap goodness-of-fit test and copula selection.

The statistic is the sample-mean form of the copula divergence: the
nonnegative integrand evaluated at the pseudo-observations, with the
empirical beta copula standing in for the unknown truth,

    T_N = mean_i [ Chat(e_i) ln Chat(e_i) - Chat(e_i) ln C_theta(e_i)
                   - Chat(e_i) + C_theta(e_i) ],

the integrand that :func:`~copulameasures.measures.cckl` integrates
against a fully supported copula, with C_theta floored at 1e-300.

The test procedure: resolve the null on the data, compute the observed
T_N, draw M parametric resamples of size N from the resolved model,
resolve the null again on each, and read the percentile and p-value off
the resampled statistics.  The null's type says whether its parameters
are known: a family name is fitted to the data and re-fitted to every
resample, a :class:`~copulameasures.copulas.CopulaModel` is held fixed.

Every randomized step draws from a generator built from an explicit
64-bit seed, derived here: ``substream(s, i)`` (``substream_seed``) is a
SplitMix64 mix of an outer seed s and an index i.  The phases of one
outer seed have their own salts, ``_PHASE_*``: replicate r of a
bootstrap, a calibration or a power study draws from
``substream(substream(s, p), r)`` with p = 1, 2 or 3, selection candidate
i bootstraps with outer seed ``substream(substream(s, 5), i)``, and ties
are broken with ``substream(s, 4)``, in a replicate by its own seed.
So replicates are independent, and results do not depend on the worker
count or the scheduling order.  Each public call maps its replicates
with one ``run`` from ``_pool``, serial for one worker and over one
process pool otherwise; ``select_copula`` shares it across its
candidates.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import fit
from .copulas import CopulaModel
from .cubature import IntegrationConfig
from .empirical import EmpiricalBetaCopula, RankedSample, rank_with_random_ties
from .errors import DimensionMismatch
from .measures import _floored_xlog_ratio, cckl

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# salts for the independent seed phases of one outer seed
_PHASE_REPLICATES = 1
_PHASE_CALIBRATE = 2
_PHASE_POWER_DATA = 3
_PHASE_TIE = 4
_PHASE_SELECT = 5


def splitmix64(x: int) -> int:
    """One SplitMix64 output step for a 64-bit state."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_seed(seed: int, index: int) -> int:
    """64-bit mix of an outer seed and a replicate index."""
    return splitmix64((splitmix64(int(seed) & _MASK64) ^ (index & _MASK64)))


@dataclass(frozen=True)
class GofConfig:
    """Bootstrap settings; reps * alpha >= 5 keeps the percentile index
    meaningful."""

    reps: int = 1000
    alpha: float = 0.05
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for name in ("reps", "seed", "workers"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.reps < 100:
            raise ValueError("need at least 100 bootstrap replicates")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.reps * self.alpha < 5.0:
            raise ValueError("reps * alpha must be at least 5")


@dataclass(frozen=True)
class GofReport:
    observed_t: float
    percentile: float
    p_value: float
    reps: int
    alpha: float
    seed: int
    tie_seed: int
    fitted: fit.FitResult
    replicates: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def reject(self) -> bool:
        return self.observed_t >= self.percentile


def t_statistic(rs: RankedSample, model) -> float:
    """Sample-mean divergence statistic at the pseudo-observations."""
    # cdf_many raises DimensionMismatch before the O(N^2) Chat
    ctheta = model.cdf_many(rs.pseudo_observations())
    chat = EmpiricalBetaCopula(rs).cdf_at_pseudo_observations()
    return float(np.mean(_floored_xlog_ratio(chat, ctheta)))


def percentile_index(m: int, alpha: float) -> int:
    """1-based index floor((1-alpha) m) into the ascending order statistics."""
    if m < 1:
        raise ValueError("need m >= 1")
    idx = math.floor((1.0 - alpha) * m + 1e-9)
    return max(idx, 1)


def _resolve(null: str | CopulaModel, data: np.ndarray) -> fit.FitResult:
    """The null on a sample: a CopulaModel is held fixed, a family name
    is fitted to ``data``."""
    if isinstance(null, CopulaModel):
        return fit.FitResult(null, "known_params", ())
    return fit.estimate(null, data)


def _replicate_task(args):
    sample_model, null, n, seed_r = args
    data = sample_model.sample(n, seed=seed_r)
    rs = rank_with_random_ties(data, tie_seed=substream_seed(seed_r, _PHASE_TIE))
    return t_statistic(rs, _resolve(null, data).model)


@contextmanager
def _pool(workers: int):
    """The map ``run(task, args, chunksize)``, [task(a) for a in args]:
    serial for one worker, else over one pool of ``workers`` processes."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield lambda task, args, chunksize: list(
                pool.map(task, args, chunksize=chunksize))
    else:
        yield lambda task, args, chunksize: [task(a) for a in args]


def _statistics(sample_model: CopulaModel, null: str | CopulaModel, n: int,
                base: int, cfg: GofConfig, run) -> np.ndarray:
    """T_N of cfg.reps size-n samples of sample_model, replicate r drawn
    from ``substream(base, r)`` and scored against the null resolved on
    it; mapped by ``run``."""
    tasks = [(sample_model, null, n, substream_seed(base, r))
             for r in range(cfg.reps)]
    return np.array(run(_replicate_task, tasks, chunksize=32))


def _percentile(stats: np.ndarray, cfg: GofConfig) -> float:
    """The floor((1 - alpha) reps)-th smallest statistic."""
    return float(np.sort(stats)[percentile_index(cfg.reps, cfg.alpha) - 1])


def bootstrap_test(data: np.ndarray, null: str | CopulaModel,
                   cfg: GofConfig) -> GofReport:
    """Five-step parametric bootstrap test of a null against data.

    A family name is fitted to the data and re-fitted to every resample
    with the same tau-inversion estimator; a CopulaModel is held fixed.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    fitted = _resolve(null, data)
    with _pool(cfg.workers) as run:
        return _bootstrap(data, null, fitted, cfg, run)


def _bootstrap(data: np.ndarray, null: str | CopulaModel,
               fitted: fit.FitResult, cfg: GofConfig, run) -> GofReport:
    """:func:`bootstrap_test` of 2-d float data against ``null``, resolved
    on the data as ``fitted``, its replicates mapped by ``run``."""
    tie_seed = substream_seed(cfg.seed, _PHASE_TIE)
    rs = rank_with_random_ties(data, tie_seed=tie_seed)
    observed = t_statistic(rs, fitted.model)

    stats = _statistics(fitted.model, null, len(data),
                        substream_seed(cfg.seed, _PHASE_REPLICATES), cfg, run)
    p_value = float(np.count_nonzero(stats >= observed) / cfg.reps)
    return GofReport(observed_t=observed, percentile=_percentile(stats, cfg),
                     p_value=p_value, reps=cfg.reps, alpha=cfg.alpha,
                     seed=cfg.seed, tie_seed=tie_seed, fitted=fitted,
                     replicates=stats)


def calibrate_percentile(model: CopulaModel, n: int, cfg: GofConfig) -> float:
    """(1 - alpha) empirical quantile of T_N under a known-parameter null."""
    with _pool(cfg.workers) as run:
        return _calibrate(model, n, cfg, run)


def _calibrate(model: CopulaModel, n: int, cfg: GofConfig, run) -> float:
    """:func:`calibrate_percentile`, its statistics mapped by ``run``."""
    base = substream_seed(cfg.seed, _PHASE_CALIBRATE)
    return _percentile(_statistics(model, model, n, base, cfg, run), cfg)


def power_study(null: str | CopulaModel, true_model: CopulaModel, n: int,
                cfg: GofConfig) -> float:
    """Percentage of datasets from true_model rejected against the null.

    A CopulaModel null is held fixed and its percentile calibrated once;
    a family name runs a full nested bootstrap per dataset, re-fitting
    the family, reps^2 statistics.
    """
    data_base = substream_seed(cfg.seed, _PHASE_POWER_DATA)
    if isinstance(null, CopulaModel):
        if null.dim != true_model.dim:
            raise DimensionMismatch(
                f"null dimension {null.dim} != true model dimension "
                f"{true_model.dim}")
        with _pool(cfg.workers) as run:
            pct = _calibrate(null, n, cfg, run)
            stats = _statistics(true_model, null, n, data_base, cfg, run)
        return 100.0 * float(np.mean(stats >= pct))
    # one pool over the datasets; each nested bootstrap runs serially
    tasks = [(true_model, null, n,
              replace(cfg, seed=substream_seed(data_base, r), workers=1))
             for r in range(cfg.reps)]
    with _pool(cfg.workers) as run:
        rejections = run(_power_task, tasks, chunksize=1)
    return 100.0 * sum(rejections) / cfg.reps


def _power_task(args) -> bool:
    true_model, family, n, inner = args
    data = true_model.sample(n, seed=inner.seed)
    return bootstrap_test(data, family, inner).reject


@dataclass(frozen=True)
class SelectionEntry:
    family: str
    fitted: fit.FitResult | None
    cckl_to_empirical: float | None
    p_value: float | None
    report: GofReport | None
    error: str | None = None


def select_copula(data: np.ndarray, candidate_families, cfg: GofConfig,
                  integration_cfg: IntegrationConfig | None = None
                  ) -> list[SelectionEntry]:
    """Rank candidate families by divergence from the empirical beta copula.

    Each candidate is fitted, its divergence from the empirical copula
    integrated, and a bootstrap p-value attached.  Candidates that fail
    to fit are reported with the failure, never dropped.  The list is
    sorted ascending by divergence, an edge fit after an equal one; the
    head is the recommendation.  All divergences read one beta copula,
    and with more than one worker all bootstraps run in one process pool.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    rs = rank_with_random_ties(data, substream_seed(cfg.seed, _PHASE_TIE))
    beta = EmpiricalBetaCopula(rs)

    entries = []
    select_base = substream_seed(cfg.seed, _PHASE_SELECT)
    with _pool(cfg.workers) as run:
        for i, family in enumerate(candidate_families):
            sub = replace(cfg, seed=substream_seed(select_base, i))
            try:
                fitted = fit.estimate(family, data)
                dist = cckl(beta, fitted.model, integration_cfg).value
                report = _bootstrap(data, family, fitted, sub, run)
            except Exception as exc:  # reported, not dropped
                entries.append(SelectionEntry(family, None, None, None, None,
                                              f"{type(exc).__name__}: {exc}"))
                continue
            entries.append(SelectionEntry(family, fitted, dist, report.p_value,
                                          report))
    entries.sort(key=lambda e: (e.cckl_to_empirical is None,
                                e.cckl_to_empirical
                                if e.cckl_to_empirical is not None else 0.0,
                                e.fitted is not None
                                and e.fitted.method == "independence_edge",
                                e.family))
    return entries
