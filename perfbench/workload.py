"""One benchmark workload in a fresh process: set-up, timed items, checks.

``run.py`` starts this file once per set-up sample and once for the
measured run.  Set-up is interpreter start, ``import copulameasures``,
input generation and one warm-up operation; when it is done the process
prints ``ready``.  A set-up sample then exits.  The measured run goes on
with the workload's batch of items (fixed groups of operations, item
``i`` seeded from ``--seed`` and ``i``):

* ``--trace 0`` runs the batch in passes, each in an order drawn from the
  seed, until ``--seconds`` have passed; every item keeps its fastest
  repeat;
* ``--trace 1`` runs one pass, each item untraced and then at once
  traced, so the counters are exact and the tracing overhead shows.

Then it checks the outputs and prints one JSON line with the results.
Everything reaches the library from outside: through ``cli.main`` where
the CLI exposes the job, through the package API otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import math
import os
import resource
import sys
import time
import types
from pathlib import Path

import numpy as np
from scipy.special import betainc, gammaln, ndtri

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


def load_library():
    sys.path.insert(0, str(ROOT / "src"))
    from copulameasures import (cli, closed_forms, copulas, cubature,
                                empirical, errors, fit, gof, measures, mvnorm)
    return types.SimpleNamespace(
        cli=cli, closed_forms=closed_forms, copulas=copulas,
        cubature=cubature, empirical=empirical, errors=errors, fit=fit,
        gof=gof, measures=measures, mvnorm=mvnorm)


def subseed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# -- inputs -------------------------------------------------------------

PIMA_COLUMNS = ("glucose", "pressure", "mass")
PIMA_N = 724
FRANK_THETA = 1.5  # weak positive dependence, Kendall tau about 0.16


def pima_sample(seed: int, n: int = PIMA_N) -> np.ndarray:
    """Pima-shaped (glucose, pressure, mass) rows with Frank dependence.

    The Frank copula is drawn by its logarithmic-series frailty; margins
    are normal with the Pima means and spreads, clipped to the Pima
    ranges and rounded to its resolution (integer glucose and pressure,
    one-decimal mass), so ranks have ties to break.
    """
    rng = np.random.default_rng(seed)
    p = -math.expm1(-FRANK_THETA)
    v = rng.logseries(p, size=n)
    e = rng.exponential(size=(n, 3))
    u = -np.log1p(-p * np.exp(-e / v[:, None])) / FRANK_THETA
    z = ndtri(u)
    glucose = np.clip(np.round(121.7 + 30.5 * z[:, 0]), 44.0, 199.0)
    pressure = np.clip(np.round(72.4 + 12.4 * z[:, 1]), 24.0, 122.0)
    mass = np.clip(np.round(32.5 + 6.9 * z[:, 2], 1), 18.2, 67.1)
    return np.column_stack([glucose, pressure, mass])


def write_csv(path: Path, columns, data: np.ndarray) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)]
    lines += [",".join(repr(float(x)) for x in row) for row in data]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_cli(lib, argv):
    """cli.main with stdout captured; returns (exit code, parsed report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main([str(a) for a in argv])
    text = buf.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def finite(*xs) -> bool:
    return all(x is not None and math.isfinite(x) for x in xs)


class Checks:
    """Named pass/fail results; any failure fails the run."""

    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, detail=""):
        self.items.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.items)


# -- workloads ----------------------------------------------------------


class Workload:
    """item(i) returns (operations attempted, operations failed, outputs)
    for item i of the batch, i < n_items; outputs are plain JSON values
    that feed the checks and the digest, and repeat exactly when the item
    is run again.  The traced run takes the first trace_items items of a
    pass.  warm_up() is the set-up's one operation; check() runs untimed on
    the outputs of every item."""

    n_items = trace_items = 1

    def __init__(self, lib, seed):
        self.lib, self.seed = lib, seed

    def close(self):
        pass


class GofPima(Workload):
    """CLI ``gof`` for Frank on the Pima-shaped triple, re-estimating the
    parameter in every replicate.  One operation is one replicate; an item
    is one CLI call with the CLI's smallest replicate count, and its own
    bootstrap seed."""

    n_items, trace_items = 4, 2
    reps = 100

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.data = pima_sample(subseed(seed, 0))
        self.csv = write_csv(WORK / f"gof_pima-{seed}-{os.getpid()}.csv",
                             PIMA_COLUMNS, self.data)

    def close(self):
        self.csv.unlink(missing_ok=True)

    def warm_up(self):
        # the observed statistic: one replicate's work, fills the basis cache
        lib = self.lib
        model = lib.fit.estimate("frank", self.data).model
        rs = lib.empirical.rank_with_random_ties(self.data, subseed(self.seed, 1))
        self.ties_broken = sum(rs.ties_broken)
        lib.gof.t_statistic(rs, model)

    def item(self, i):
        code, report = run_cli(self.lib, [
            "gof", "--data", self.csv, "--cols", ",".join(PIMA_COLUMNS),
            "--family", "frank", "--param-mode", "estimate_each_rep",
            "--reps", self.reps, "--seed", subseed(self.seed, 2, i),
            "--workers", 1])
        if code not in (0, 1):   # 1 means the test rejected, not a failure
            return self.reps, self.reps, None
        out = dict(report["outputs"], tie_seed=report["seeds"]["tie_seed"])
        return self.reps, 0, out

    def check(self, outputs, checks: Checks):
        lib = self.lib
        bad = [i for i, o in enumerate(outputs)
               if not (finite(o["observed_t"], o["percentile"])
                       and 0.0 <= o["p_value"] <= 1.0)]
        checks.add("gof statistics finite, p-value in [0, 1]", not bad,
                   f"bad items {bad}")
        first = outputs[0]
        rs = lib.empirical.rank_with_random_ties(self.data, first["tie_seed"])
        beta = lib.empirical.EmpiricalBetaCopula(rs)
        U = rs.ranks / (rs.n + 1.0)
        chat = beta.cdf_many(U)
        diff = float(np.max(np.abs(chat - beta.cdf_at_pseudo_observations())))
        checks.add("beta copula: kernel path equals basis path", diff <= 1e-12,
                   f"max diff {diff:.3g}")
        model = lib.copulas.CopulaModel("frank", 3, tuple(first["fitted_params"]))
        ctheta = np.maximum(model.cdf_many(U), 1e-300)
        t_ref = float(np.mean(chat * (np.log(chat) - np.log(ctheta)) - chat + ctheta))
        rel = abs(t_ref - first["observed_t"]) / t_ref
        checks.add("observed T_N recomputed through cdf_many", rel <= 1e-9,
                   f"{first['observed_t']!r} vs {t_ref!r}")


CANDIDATES = ("clayton", "frank", "gumbel_hougaard", "joe", "gaussian",
              "product")
SELECT_COLUMNS = (0, 2)   # glucose, mass
SELECT_TOL = 1e-5         # the tolerance criterion 8 uses
# The cost of a divergence depends on the sample, so a run must average
# over many samples to be steady.  At N=724 one ranking takes 2-4 s for
# k=2 and minutes for k=3, too few samples for a run; criterion 8 ranks
# at N=250, where a k=2 ranking takes about 0.8 s.
SELECT_N = 250
BK_CHECK_N = 150          # rows for the b_k check, which is 7 s at N=724


class SelectRankPima(Workload):
    """The ranking step of ``select_copula``: fit each candidate, then the
    divergence of the empirical beta copula from it.  One operation is one
    divergence; an item ranks the first SELECT_N rows of the glucose and
    mass columns of one Pima-shaped sample (item 0: the gof_pima sample).
    The cost of a divergence depends on the sample, so the batch is many
    samples, each run about once."""

    n_items, trace_items = 20, 6

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.cfg = lib.cubature.IntegrationConfig(abs_tol=SELECT_TOL)
        self.first = self.sample(0)

    def sample(self, i):
        return pima_sample(subseed(self.seed, i))[:SELECT_N, SELECT_COLUMNS]

    def ranked(self, data, i):
        return self.lib.empirical.rank_with_random_ties(data, subseed(self.seed, 3, i))

    def warm_up(self):
        lib = self.lib
        rs = self.ranked(self.first, 0)
        self.ties_broken = sum(rs.ties_broken)
        beta = lib.empirical.EmpiricalBetaCopula(rs)
        lib.measures.cckl(beta, lib.fit.estimate("gaussian", self.first).model,
                          self.cfg)

    def item(self, i):
        lib = self.lib
        data = self.first if i == 0 else self.sample(i)
        rs = self.ranked(data, i)
        beta = lib.empirical.EmpiricalBetaCopula(rs)
        rows, failed = [], 0
        for family in CANDIDATES:
            try:
                model = lib.fit.estimate(family, data).model
                est = lib.measures.cckl(beta, model, self.cfg)
            except lib.errors.CopulaError as exc:
                failed += 1
                rows.append([family, None, None, type(exc).__name__])
                continue
            rows.append([family, est.value, est.error])
        return len(CANDIDATES), failed, {"ties_broken": list(rs.ties_broken),
                                         "divergences": rows}

    def check(self, outputs, checks: Checks):
        lib = self.lib
        bad = [(i, r[0]) for i, o in enumerate(outputs) for r in o["divergences"]
               if not (finite(r[1], r[2]) and r[1] >= 0.0 and r[2] >= 0.0)]
        checks.add("divergences finite and >= 0", not bad, f"bad {bad}")

        rs = self.ranked(self.first, 0)
        beta = lib.empirical.EmpiricalBetaCopula(rs)
        rng = np.random.default_rng(subseed(self.seed, 4))
        points = np.vstack([[0.5, 0.5], rng.uniform(0.02, 0.98, size=(5, 2))])
        diff = float(np.max(np.abs(beta.cdf_many(points)
                                   - binomial_sum_cdf(rs.ranks, points))))
        checks.add("cdf_many matches the binomial-sum reference", diff <= 1e-10,
                   f"max diff {diff:.3g}")

        small = lib.empirical.EmpiricalBetaCopula(
            self.ranked(self.first[:BK_CHECK_N], 1))
        est = lib.measures.b_k(small, lib.cubature.IntegrationConfig(abs_tol=1e-6))
        exact = small.mean_integral()
        checks.add(f"b_k within its error of the exact mean (N={BK_CHECK_N})",
                   abs(est.value - exact) <= est.error,
                   f"|{est.value!r} - {exact!r}| vs error {est.error:.3g}")



def binomial_sum_cdf(ranks: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Empirical beta copula by its definition: mean over observations of
    prod_j P(Binomial(N, u_j) >= R_ij), the tail summed term by term."""
    n = ranks.shape[0]
    s = np.arange(n + 1)
    log_comb = gammaln(n + 1.0) - gammaln(s + 1.0) - gammaln(n - s + 1.0)
    out = []
    for u in points:
        prod = np.ones(n)
        for j, uj in enumerate(u):
            pmf = np.exp(log_comb + s * math.log(uj) + (n - s) * math.log1p(-uj))
            tail = np.cumsum(pmf[::-1])[::-1]       # tail[r] = P(X >= r)
            prod *= tail[ranks[:, j]]
        out.append(prod.mean())
    return np.array(out)


CALIBRATE_CELLS = (   # criterion 6: family, dim, params, N
    ("product", 2, "", 100),
    ("clayton", 2, "0.5", 100),
    ("gaussian", 2, "0.4", 100),
    ("product", 3, "", 250),
)
CALIBRATE_REPS = 500
# Percentiles at seed 13 with 200 replicates, recorded at the commit that
# introduced this benchmark.
CALIBRATE_REFERENCE = (13, 200, (0.001996262135151333, 0.0014943804517746995,
                                 0.0012056030297427258, 0.0014574165601632097))


class CalibrateSmallN(Workload):
    """CLI ``calibrate`` on the criterion-6 cells with known parameters.
    One operation is one replicate; an item is one call for one cell."""

    n_items = trace_items = len(CALIBRATE_CELLS)

    def argv(self, cell, reps, seed):
        family, dim, params, n = cell
        argv = ["calibrate", "--family", family, "--dim", dim, "--n", n,
                "--reps", reps, "--seed", seed, "--workers", 1]
        return argv + (["--params", params] if params else [])

    def warm_up(self):
        # one statistic per sample size, on uniform data, fills the basis cache
        lib = self.lib
        rng = np.random.default_rng(subseed(self.seed, 5))
        for n, k in sorted({(c[3], c[1]) for c in CALIBRATE_CELLS}):
            rs = lib.empirical.rank_with_random_ties(rng.random((n, k)), 0)
            lib.gof.t_statistic(rs, lib.copulas.CopulaModel("product", k))

    def item(self, i):
        code, report = run_cli(self.lib, self.argv(
            CALIBRATE_CELLS[i], CALIBRATE_REPS, subseed(self.seed, 6, i)))
        if code != 0:
            return CALIBRATE_REPS, CALIBRATE_REPS, None
        return CALIBRATE_REPS, 0, report["outputs"]["percentile"]

    def check(self, outputs, checks: Checks):
        bad = [p for p in outputs if not (finite(p) and p > 0.0)]
        checks.add("percentiles finite and > 0", not bad, f"bad {bad}")
        seed, reps, want = CALIBRATE_REFERENCE
        for cell, ref in zip(CALIBRATE_CELLS, want):
            code, report = run_cli(self.lib, self.argv(cell, reps, seed))
            got = report["outputs"]["percentile"] if code == 0 else float("nan")
            checks.add(f"calibrate {cell[0]} k={cell[1]} N={cell[3]} "
                       "matches the recorded percentile",
                       abs(got - ref) <= 1e-9 * ref, f"{got!r} vs {ref!r}")


# family, dim, params, stat, value recorded at the commit that introduced
# this benchmark (None where closed_forms has the value)
MEASURES = (
    ("gaussian", 3, "0.5,0.3,0.4", "cce", 0.23446901835821415),
    ("gaussian", 3, "0.5,0.3,0.4", "rho", 0.3849044027159727),
    ("frank", 3, "4", "cce", 0.2449592733889896),
    ("clayton", 3, "2", "cce", 0.26879214224199965),
    ("gumbel_hougaard", 3, "1.8", "cce", 0.24614152380722726),
    ("joe", 3, "2", "cce", 0.22715744639638608),
    ("cuadras_auge", 3, "0.3,0.5,0.7", "cce", None),
    ("product", 5, "", "cce", None),
    ("frank", 5, "4", "cce", 0.17337270198939675),
    ("min", 6, "", "cce", None),
)


class MeasureParametric(Workload):
    """CLI ``measure`` over a fixed set of parametric copulas at the
    default tolerances.  One operation, and one item, is one measure; the
    seed only draws the order of each pass."""

    n_items = trace_items = len(MEASURES)

    def argv(self, op):
        family, dim, params, stat, _ = op
        argv = ["measure", "--family", family, "--dim", dim, "--stat", stat]
        return argv + (["--params", params] if params else [])

    def warm_up(self):
        run_cli(self.lib, self.argv(MEASURES[2]))

    def item(self, i):
        code, report = run_cli(self.lib, self.argv(MEASURES[i]))
        if code != 0:
            return 1, 1, None
        out = report["outputs"]
        return 1, 0, [out["value"], out["error"]]

    def check(self, outputs, checks: Checks):
        lib = self.lib
        for op, got in zip(MEASURES, outputs):
            family, dim, params, stat, recorded = op
            label = f"{stat} {family} k={dim}"
            if not finite(*got):
                checks.add(f"{label} finite", False, got)
                continue
            value, error = got
            if stat == "cce":
                tol = 1e-7 if dim <= 4 else 1e-4
                checks.add(f"{label} error within the tolerance",
                           error <= max(tol, 1e-6 * abs(value)), f"{error:.3g}")
            if recorded is None:
                model = lib.copulas.CopulaModel(
                    family, dim, tuple(float(p) for p in params.split(",") if p))
                exact = lib.closed_forms.closed_form_cce(model)
                checks.add(f"{label} within its error of the closed form",
                           abs(value - exact) <= error, f"{value!r} vs {exact!r}")
            else:
                checks.add(f"{label} matches the recorded value",
                           abs(value - recorded) <= 1e-9 * abs(recorded),
                           f"{value!r} vs {recorded!r}")


WORKLOADS = {
    "gof_pima": GofPima,
    "select_rank_pima": SelectRankPima,
    "calibrate_small_n": CalibrateSmallN,
    "measure_parametric": MeasureParametric,
}


# -- measurement --------------------------------------------------------

REFERENCE_S = 0.003   # the reference's time on the machine ops_per_s is scaled to


class Reference:
    """Fixed work owned by the benchmark, timed between items to follow the
    speed of the machine: a betainc kernel and a pure-Python loop, the
    compute-bound kinds of work the library does, about half each.  Its
    data are small and run once untimed first, so whatever ran before it
    does not change its time."""

    def __init__(self):
        self.x = np.random.default_rng(0).random(35000)
        self.seconds = []

    def work(self):
        betainc(3.0, 5.0, self.x)
        acc = 0
        for i in range(16000):
            acc += i * i
        return acc

    def run(self):
        self.work()
        t0 = time.perf_counter()
        self.work()
        self.seconds.append(time.perf_counter() - t0)


class Tally:
    """Every run of an item: its seconds and completed operations, and the
    outputs of each item's first run; plus the operations attempted and
    failed over all runs."""

    def __init__(self, n_items):
        self.log = []   # (item, seconds, completed operations) per run
        self.outputs = [None] * n_items
        self.seen = set()
        self.attempted = self.failed = 0
        self.repeats_agree = True

    def run(self, wl, i):
        t0 = time.perf_counter()
        ops, bad, out = wl.item(i)
        self.log.append((i, time.perf_counter() - t0, ops - bad))
        self.attempted += ops
        self.failed += bad
        if i not in self.seen:
            self.seen.add(i)
            self.outputs[i] = out
        elif out != self.outputs[i]:
            self.repeats_agree = False

    @property
    def runs(self) -> int:
        return len(self.log)

    @property
    def ops_per_s(self) -> float:
        """Completed operations per second spent in items."""
        return sum(c for _, _, c in self.log) / sum(t for _, t, _ in self.log)

    def reference_s(self, ref: Reference) -> float:
        """The reference's time during the item runs.  The reference runs
        before the first item and after every item.  Its time during an
        item run is taken as the lower of the two around it, since load
        elsewhere only ever slows it; these are averaged, weighted by the
        item runs' seconds."""
        r = ref.seconds
        assert len(r) == len(self.log) + 1
        return (sum(t * min(r[k], r[k + 1]) for k, (_, t, _) in enumerate(self.log))
                / sum(t for _, t, _ in self.log))


def pass_order(wl, p: int):
    return [int(i) for i in
            np.random.default_rng(subseed(wl.seed, 9, p)).permutation(wl.n_items)]


def run_passes(wl, seconds, ref: Reference) -> Tally:
    """Run the batch in passes until `seconds` have passed, and the
    reference before the first item and after each; the first pass always
    completes."""
    tally = Tally(wl.n_items)
    start = time.perf_counter()
    ref.run()
    for p in itertools.count():
        for i in pass_order(wl, p):
            if p and time.perf_counter() - start >= seconds:
                return tally
            tally.run(wl, i)
            ref.run()


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def basis_cache_info(lib):
    info = getattr(getattr(lib.empirical, "_pseudo_obs_basis", None), "cache_info", None)
    return info() if info else None


def layer_metrics(tr, hits, misses):
    calls, self_s, counts = tr.calls, tr.self_s, tr.counts
    m = {"cli.self_s": self_s["cli"], "gof.driver.self_s": self_s["gof.driver"]}
    for name in ("gof.t_statistic", "fit.estimate", "empirical.rank",
                 "empirical.pseudo_obs"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["empirical.pseudo_obs.elements"] = counts["empirical.pseudo_obs.elements"]
    for name, counter in (("empirical.beta_cdf", "points"),
                          ("copulas.sample", "rows"),
                          ("copulas.cdf", "points"),
                          ("mvnorm.cdf", "points")):
        m[f"{name}.{counter}"] = counts[f"{name}.{counter}"]
        m[f"{name}.self_s"] = self_s[name]
    m["empirical.beta_cdf.kernel_elements"] = counts["empirical.beta_cdf.kernel_elements"]
    m["empirical.beta_init.self_s"] = self_s["empirical.beta_init"]
    m["empirical.basis_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["cubature.integrate.calls"] = calls["cubature.integrate"]
    m["cubature.integrate.evals"] = counts["cubature.integrate.evals"]
    m["cubature.integrate.self_s"] = self_s["cubature.integrate"]
    m["cubature.integrate.failed"] = counts["cubature.integrate.failed"]
    m["measures.integrand.self_s"] = self_s["measures.integrand"]
    return m


def run_traced(lib, wl):
    """The first trace_items items of a pass, each untraced and then at
    once traced, so both runs see the same machine state."""
    from spans import Patches, Tracer

    tr = Tracer()
    patches = Patches(lib, tr)
    plain, traced = Tally(wl.n_items), Tally(wl.n_items)
    hits = misses = 0
    for i in pass_order(wl, 0)[:wl.trace_items]:
        plain.run(wl, i)
        before = basis_cache_info(lib)
        with patches:
            traced.run(wl, i)
        after = basis_cache_info(lib)
        if before is not None:
            hits += after.hits - before.hits
            misses += after.misses - before.misses
    layers = layer_metrics(tr, hits, misses)
    layers["trace.ops_per_s"] = traced.ops_per_s
    layers["trace.overhead_ops_per_s"] = plain.ops_per_s - traced.ops_per_s
    counters = {k: v for k, v in layers.items() if not k.endswith("_s")}
    counters.update(ops=plain.attempted, items=wl.trace_items)
    return plain, {
        "layers": layers,
        "counters": counters,   # depend only on the seed, not the machine
        "unwrapped": patches.missing,
        "untraced_ops_per_s": plain.ops_per_s,
        "same_outputs": digest(plain.outputs) == digest(traced.outputs),
    }


def openblas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment():
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "COPULAMEASURES_THREADS": os.environ.get("COPULAMEASURES_THREADS"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    lib = load_library()
    wl = WORKLOADS[args.workload](lib, args.seed)
    try:
        wl.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0

        result = {"workload": args.workload, "seed": args.seed,
                  "env": environment()}
        checks = Checks()
        if args.trace:
            tally, traced = run_traced(lib, wl)
            checks.add("tracing leaves the outputs unchanged",
                       traced.pop("same_outputs"))
            result["counters"] = traced.pop("counters")
            result["trace"] = traced
        else:
            ref = Reference()
            tally = run_passes(wl, args.seconds, ref)
            checks.add("every repeat of an item gives the same outputs",
                       tally.repeats_agree)
            # completed operations per second at the reference's speed
            result["reference_s"] = tally.reference_s(ref)
            result["wall_ops_per_s"] = tally.ops_per_s
            result["ops_per_s"] = tally.ops_per_s * result["reference_s"] / REFERENCE_S
            result["item_log"] = tally.log
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks.add("no operation failed", tally.failed == 0,
                   f"{tally.failed} of {tally.attempted}")
        if tally.failed == 0:
            wl.check([o for i, o in enumerate(tally.outputs) if i in tally.seen],
                     checks)
        result.update(attempted=tally.attempted, failed=tally.failed,
                      runs=tally.runs, digest=digest(tally.outputs),
                      checks=checks.items, correct=checks.ok)
        if hasattr(wl, "ties_broken"):   # in the item-0 Pima-shaped sample
            result["ties_broken"] = wl.ties_broken
        print(json.dumps(result), flush=True)
    finally:
        wl.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
