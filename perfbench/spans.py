"""Per-layer spans for the traced pass, recorded from outside the library.

Each layer boundary is a library name that the benchmark replaces, while
a traced unit runs, with a wrapper that opens a span.  A name
is patched where its caller looks it up: ``gof`` imported
``rank_with_random_ties`` and ``t_statistic`` into its own namespace and
``measures`` did the same with ``integrate_unit_cube``, so those bindings
are the ones replaced.  Methods are replaced on their class.

Spans are aggregated as they close: per span name, the number of calls,
the self time (duration minus the time covered by child spans) and any
work counters the wrapper records.  Traced units run in one process
with one worker, because spans opened inside pool workers are lost.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span stack with per-name totals of calls, self time and counters."""

    def __init__(self):
        self._child_time = []          # one accumulator per open span
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def span(self, name, fn, *args, **kwargs):
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            children = self._child_time.pop()
            self.calls[name] += 1
            self.self_s[name] += dur - children
            if self._child_time:
                self._child_time[-1] += dur

    def count(self, key, n):
        self.counts[key] += int(n)


def _rows(U):
    return np.atleast_2d(np.asarray(U)).shape[0]


class Patches:
    """Installs the layer wrappers on the library and restores them."""

    def __init__(self, lib, tracer: Tracer):
        self.lib = lib
        self.tr = tracer
        self._saved = []
        self.missing = []

    def _patch(self, owner, attr, make):
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _plain(self, owner, attr, name):
        tr = self.tr
        self._patch(owner, attr, lambda orig: (
            lambda *a, **kw: tr.span(name, orig, *a, **kw)))

    def __enter__(self):
        lib, tr = self.lib, self.tr
        self.missing = []
        cli, gof, fit, empirical = lib.cli, lib.gof, lib.fit, lib.empirical
        copulas, mvnorm, measures = lib.copulas, lib.mvnorm, lib.measures

        self._plain(cli, "main", "cli")
        for attr in ("bootstrap_test", "calibrate_percentile", "power_study"):
            self._plain(gof, attr, "gof.driver")
        self._plain(gof, "t_statistic", "gof.t_statistic")
        self._plain(gof, "rank_with_random_ties", "empirical.rank")
        self._plain(empirical, "rank_with_random_ties", "empirical.rank")
        self._plain(fit, "estimate", "fit.estimate")

        beta_cls = empirical.EmpiricalBetaCopula
        self._plain(beta_cls, "__post_init__", "empirical.beta_init")

        def pseudo_obs(orig):
            def wrapper(self_, *a, **kw):
                n, k = self_.rs.n, self_.rs.k
                tr.count("empirical.pseudo_obs.elements", n * n * k)
                return tr.span("empirical.pseudo_obs", orig, self_, *a, **kw)
            return wrapper
        self._patch(beta_cls, "cdf_at_pseudo_observations", pseudo_obs)

        def beta_cdf(orig):
            def wrapper(self_, U, *a, **kw):
                m = _rows(U)
                tr.count("empirical.beta_cdf.points", m)
                tr.count("empirical.beta_cdf.kernel_elements",
                         m * self_.rs.n * self_.rs.k)
                return tr.span("empirical.beta_cdf", orig, self_, U, *a, **kw)
            return wrapper
        self._patch(beta_cls, "cdf_many", beta_cdf)

        model_cls = copulas.CopulaModel

        def sample(orig):
            def wrapper(self_, n, *a, **kw):
                tr.count("copulas.sample.rows", n)
                return tr.span("copulas.sample", orig, self_, n, *a, **kw)
            return wrapper
        self._patch(model_cls, "sample", sample)

        def model_cdf(orig):
            def wrapper(self_, U, *a, **kw):
                tr.count("copulas.cdf.points", _rows(U))
                return tr.span("copulas.cdf", orig, self_, U, *a, **kw)
            return wrapper
        self._patch(model_cls, "cdf_many", model_cdf)

        def mvn_many(orig):
            def wrapper(corr, X, *a, **kw):
                tr.count("mvnorm.cdf.points", _rows(X))
                return tr.span("mvnorm.cdf", orig, corr, X, *a, **kw)
            return wrapper
        self._patch(mvnorm, "mvn_cdf_many", mvn_many)

        library_error = lib.errors.CopulaError

        def integrate(orig):
            def wrapper(f, *a, **kw):
                def integrand(U):
                    return tr.span("measures.integrand", f, U)
                try:
                    est = tr.span("cubature.integrate", orig, integrand, *a, **kw)
                except library_error as exc:
                    tr.count("cubature.integrate.failed", 1)
                    best = getattr(exc, "estimate", None)
                    if best is not None:
                        tr.count("cubature.integrate.evals", best.evals)
                    raise
                tr.count("cubature.integrate.evals", est.evals)
                return est
            return wrapper
        self._patch(measures, "integrate_unit_cube", integrate)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False
