"""Batch command line: CSV in, one JSON report to stdout, logs to stderr.

Subcommands
-----------
measure    closed-form or cubature measure of a parametric copula
cckl       divergence between two parametric copulas
empirical  plug-in measures of a CSV dataset
gof        bootstrap goodness-of-fit test (exit code 1 on rejection)
calibrate  null percentile of the test statistic
power      rejection percentage of a null family against a true model
select     rank candidate families by divergence from the data

Every randomized run is controlled by explicit ``--seed`` and
``--tie-seed`` flags with fixed defaults; reports echo the full argv and
all derived seeds so a replay is byte-identical.  Bootstrap replicates run
on ``--workers`` processes, else on ``COPULAMEASURES_THREADS``, else on one.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import closed_forms, empirical, fit, gof, measures
from .copulas import FAMILIES, CopulaModel
from .cubature import IntegrationConfig
from .errors import ColumnMissing, CopulaError, NoClosedForm, NoCompleteRows

log = logging.getLogger("copulameasures")

DEFAULT_SEED = 20240
DEFAULT_TIE_SEED = 20241

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_ERROR = 2


@dataclass(frozen=True)
class Dataset:
    columns: tuple
    values: np.ndarray
    rows_dropped: int


def load_csv(path: str, columns) -> Dataset:
    """Read named numeric columns; rows with any bad cell are dropped."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in columns if c not in header]
        if missing:
            raise ColumnMissing(
                f"columns {missing} not in file; available: {header}")
        rows, dropped = [], 0
        for record in reader:
            try:
                vals = [float(record[c]) for c in columns]
            except (TypeError, ValueError):
                dropped += 1
                continue
            if not all(np.isfinite(v) for v in vals):
                dropped += 1
                continue
            rows.append(vals)
    if not rows:
        raise NoCompleteRows(f"no complete rows in {path}")
    return Dataset(tuple(columns), np.asarray(rows, dtype=float), dropped)


def _parse_params(text: str | None) -> tuple:
    if not text:
        return ()
    return tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)


@dataclass(frozen=True)
class _Stat:
    measure: Callable               # (model, *order, cfg) -> Estimate
    closed_form: Callable | None    # (model, *order) -> float
    takes_order: bool


# The formula-note key of a stat is its name.
_STATS = {
    "cce": _Stat(measures.cce, closed_forms.closed_form_cce, False),
    "fcce": _Stat(measures.fcce, closed_forms.closed_form_fcce, True),
    "ccigf": _Stat(measures.ccigf, closed_forms.closed_form_ccigf, True),
    "rho": _Stat(measures.spearman_rho_minus, None, False),
    "bk": _Stat(measures.b_k, closed_forms.closed_form_bk, False),
}


def _parse_stat(text: str) -> tuple[str, tuple]:
    """'cce' | 'fcce:R' | 'ccigf:S' | 'rho' | 'bk' -> (name, order args)."""
    name, _, arg = text.partition(":")
    if name not in _STATS:
        raise ValueError(f"unknown stat {text!r}")
    if _STATS[name].takes_order:
        if not arg:
            raise ValueError(f"{name} needs an order, e.g. {name}:0.5")
        return name, (float(arg),)
    if arg:
        raise ValueError(f"stat {name} takes no order")
    return name, ()


def _workers(args) -> int:
    env = os.environ.get("COPULAMEASURES_THREADS")
    if args.workers is not None:
        return max(1, args.workers)
    return max(1, int(env)) if env else 1


def _emit(args, argv, inputs: dict, outputs: dict, seeds: dict | None = None,
          notes=(), exit_code: int = EXIT_OK) -> int:
    """Print the JSON report of a subcommand; ``seeds`` only when given."""
    report = {"command": args.subcommand, "argv": argv, "inputs": inputs}
    if seeds is not None:
        report["seeds"] = seeds
    report["outputs"] = outputs
    report["formula_notes"] = list(notes)
    print(json.dumps(report, indent=2))
    return exit_code


def _closed_form(fn, *args):
    """fn(*args), or None when there is no closed form."""
    try:
        return fn(*args) if fn else None
    except NoClosedForm:
        return None


def _notes(key) -> list:
    note = closed_forms.FORMULA_NOTES.get(key)
    return [note] if note else []


def _gof_cfg(args) -> gof.GofConfig:
    """Bootstrap settings from the shared flags."""
    return gof.GofConfig(reps=args.reps, alpha=args.alpha, seed=args.seed,
                         workers=_workers(args))


def cmd_measure(args, argv) -> int:
    model = CopulaModel(args.family, args.dim, _parse_params(args.params))
    stat, order = _parse_stat(args.stat)
    spec = _STATS[stat]
    est = spec.measure(model, *order, IntegrationConfig(abs_tol=args.tol))
    return _emit(args, argv,
                 {"family": model.family, "dim": model.dim,
                  "params": list(model.params), "stat": args.stat},
                 {"value": est.value, "error": est.error,
                  "method": "cubature",
                  "closed_form": _closed_form(spec.closed_form, model, *order)},
                 notes=_notes((stat, model.family)))


def cmd_cckl(args, argv) -> int:
    a = CopulaModel(args.family_a, args.dim, _parse_params(args.params_a))
    b = CopulaModel(args.family_b, args.dim, _parse_params(args.params_b))
    est = measures.cckl(a, b, IntegrationConfig(abs_tol=args.tol))
    return _emit(args, argv,
                 {"family_a": a.family, "params_a": list(a.params),
                  "family_b": b.family, "params_b": list(b.params),
                  "dim": args.dim},
                 {"value": est.value, "error": est.error,
                  "closed_form": _closed_form(closed_forms.closed_form_cckl,
                                              a, b)},
                 notes=_notes(("cckl", f"{a.family}:{b.family}")))


def cmd_empirical(args, argv) -> int:
    ds = load_csv(args.data, args.cols.split(","))
    rs = empirical.rank_with_random_ties(ds.values, args.tie_seed)
    stat, order = _parse_stat(args.stat)
    measure = _STATS[stat].measure
    cfg = IntegrationConfig(abs_tol=args.tol)
    sizes = [int(s) for s in args.dump_curve.split(",")] if args.dump_curve else []
    for m in sizes:
        if not 2 <= m <= rs.n:
            raise ValueError(f"curve size {m} outside 2..N={rs.n}")
    est = measure(empirical.EmpiricalBetaCopula(rs), *order, cfg)
    outputs = {"value": est.value, "error": est.error, "n": rs.n, "k": rs.k}
    if sizes:
        curve = []
        for m in sizes:
            sub = empirical.rank_with_random_ties(ds.values[:m], args.tie_seed)
            sub_est = measure(empirical.EmpiricalBetaCopula(sub), *order, cfg)
            curve.append([m, sub_est.value])
        outputs["curve"] = curve
    return _emit(args, argv,
                 {"data": args.data, "columns": list(ds.columns),
                  "stat": args.stat, "rows_dropped": ds.rows_dropped},
                 outputs, seeds={"tie_seed": rs.tie_seed})


def cmd_gof(args, argv) -> int:
    ds = load_csv(args.data, args.cols.split(","))
    cfg = _gof_cfg(args)
    null = (CopulaModel(args.family, len(ds.columns), _parse_params(args.params))
            if args.param_mode == "known_params" else args.family)
    rep = gof.bootstrap_test(ds.values, null, cfg)
    return _emit(args, argv,
                 {"data": args.data, "columns": list(ds.columns),
                  "family": args.family, "reps": cfg.reps, "alpha": cfg.alpha,
                  "param_mode": args.param_mode,
                  "rows_dropped": ds.rows_dropped},
                 {"fitted_params": list(rep.fitted.model.params),
                  "observed_t": rep.observed_t, "percentile": rep.percentile,
                  "p_value": rep.p_value, "reject": rep.reject},
                 seeds={"seed": cfg.seed, "tie_seed": rep.tie_seed,
                        "replicate_base": "substream(seed, 1)"},
                 exit_code=EXIT_REJECT if rep.reject else EXIT_OK)


def cmd_calibrate(args, argv) -> int:
    model = CopulaModel(args.family, args.dim, _parse_params(args.params))
    cfg = _gof_cfg(args)
    pct = gof.calibrate_percentile(model, args.n, cfg)
    return _emit(args, argv,
                 {"family": model.family, "dim": model.dim,
                  "params": list(model.params), "n": args.n,
                  "reps": cfg.reps, "alpha": cfg.alpha},
                 {"percentile": pct}, seeds={"seed": cfg.seed})


def cmd_power(args, argv) -> int:
    null_params = _parse_params(args.null_params)
    true_model = CopulaModel(args.true_family, args.dim,
                             _parse_params(args.true_params))
    cfg = _gof_cfg(args)
    null = (CopulaModel(args.null_family, args.dim, null_params)
            if args.param_mode == "known_params" else args.null_family)
    pct = gof.power_study(null, true_model, args.n, cfg)
    return _emit(args, argv,
                 {"null_family": args.null_family,
                  "null_params": list(null_params),
                  "true_family": true_model.family,
                  "true_params": list(true_model.params),
                  "dim": args.dim, "n": args.n, "reps": cfg.reps,
                  "alpha": cfg.alpha, "param_mode": args.param_mode},
                 {"rejection_percent": pct}, seeds={"seed": cfg.seed})


def cmd_select(args, argv) -> int:
    ds = load_csv(args.data, args.cols.split(","))
    cfg = _gof_cfg(args)
    entries = gof.select_copula(ds.values, args.families.split(","), cfg)
    ranking = [{"family": e.family,
                "params": list(e.fitted.model.params) if e.fitted else None,
                "cckl_to_empirical": e.cckl_to_empirical,
                "p_value": e.p_value, "error": e.error} for e in entries]
    return _emit(args, argv,
                 {"data": args.data, "columns": list(ds.columns),
                  "families": args.families.split(","), "reps": cfg.reps,
                  "alpha": cfg.alpha, "rows_dropped": ds.rows_dropped},
                 {"ranking": ranking,
                  "recommended": ranking[0]["family"] if ranking else None},
                 seeds={"seed": cfg.seed})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="copulameasures", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_common_measure(sp):
        sp.add_argument("--tol", type=float, default=None,
                        help="absolute integration tolerance")

    def add_data(sp):
        sp.add_argument("--data", required=True)
        sp.add_argument("--cols", required=True, help="comma-separated names")

    def add_bootstrap(sp, reps):
        sp.add_argument("--reps", type=int, default=reps)
        sp.add_argument("--alpha", type=float, default=0.05)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--workers", type=int, default=None)

    def add_param_mode(sp, default):
        sp.add_argument("--param-mode", dest="param_mode",
                        choices=("estimate_each_rep", "known_params"),
                        default=default)

    sp = sub.add_parser("measure", help="measure of a parametric copula")
    sp.add_argument("--family", required=True, choices=FAMILIES)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--params", default=None,
                    help="comma-separated, positional per family")
    sp.add_argument("--stat", required=True,
                    help="cce | fcce:R | ccigf:S | rho | bk")
    add_common_measure(sp)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("cckl", help="divergence between two copulas")
    sp.add_argument("--family-a", required=True, choices=FAMILIES)
    sp.add_argument("--params-a", default=None)
    sp.add_argument("--family-b", required=True, choices=FAMILIES)
    sp.add_argument("--params-b", default=None)
    sp.add_argument("--dim", type=int, required=True)
    add_common_measure(sp)
    sp.set_defaults(func=cmd_cckl)

    sp = sub.add_parser("empirical", help="plug-in measures of a dataset")
    add_data(sp)
    sp.add_argument("--stat", required=True)
    sp.add_argument("--tie-seed", type=int, default=DEFAULT_TIE_SEED,
                    dest="tie_seed")
    sp.add_argument("--dump-curve", default=None, dest="dump_curve",
                    help="comma-separated prefix sizes for (N, value) pairs")
    add_common_measure(sp)
    sp.set_defaults(func=cmd_empirical)

    sp = sub.add_parser("gof", help="bootstrap goodness-of-fit test")
    add_data(sp)
    sp.add_argument("--family", required=True, choices=fit.FITTABLE_FAMILIES)
    sp.add_argument("--params", default=None,
                    help="the null's known parameters in known_params mode")
    add_bootstrap(sp, reps=1000)
    add_param_mode(sp, default="estimate_each_rep")
    sp.set_defaults(func=cmd_gof)

    sp = sub.add_parser("calibrate", help="null percentile of the statistic")
    sp.add_argument("--family", required=True, choices=FAMILIES)
    sp.add_argument("--params", default=None)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--n", type=int, required=True)
    add_bootstrap(sp, reps=10000)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("power", help="rejection percentage under a true model")
    sp.add_argument("--null-family", required=True, dest="null_family",
                    choices=FAMILIES)
    sp.add_argument("--null-params", default=None, dest="null_params",
                    help="the null's known parameters in known_params mode")
    sp.add_argument("--true-family", required=True, dest="true_family",
                    choices=FAMILIES)
    sp.add_argument("--true-params", default=None, dest="true_params")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--n", type=int, required=True)
    add_bootstrap(sp, reps=10000)
    add_param_mode(sp, default="known_params")
    sp.set_defaults(func=cmd_power)

    sp = sub.add_parser("select", help="rank candidate families")
    add_data(sp)
    sp.add_argument("--families", required=True,
                    help="comma-separated candidates")
    add_bootstrap(sp, reps=1000)
    sp.set_defaults(func=cmd_select)

    return p


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the offending flag
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args, argv)
    except (CopulaError, OSError, ValueError) as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
