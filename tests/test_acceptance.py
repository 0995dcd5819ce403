"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Statistical criteria run at the reduced scale (2000 bootstrap reps, the
wider tolerance) unless COPULAMEASURES_ACCEPT_FULL=1 selects the
publication scale.

Two sub-assertions are carried as strict expected failures because the
stated constants are internally inconsistent (see notes in the tests):
the W-vs-product divergence constant, and the product-null power bound
against the Normal(0.4) alternative.
"""

import json
import math
import os

import pytest
from scipy.special import beta as beta_fn

import test_empirical
import test_properties
from conftest import FULL
from ledger_checks import ALL_CHECKS

from copulameasures import (
    CopulaModel,
    GofConfig,
    IntegrationConfig,
    calibrate_percentile,
    cce,
    ccigf,
    cckl,
    closed_form_cckl,
    concordance_leq_on_grid,
    fcce,
    power_study,
    select_copula,
)
from copulameasures.cli import main as cli_main

SEED = 13
REPS = 10_000 if FULL else 2_000
CAL_TOL = 0.10 if FULL else 0.15


def _report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS  ({detail})")


def test_criterion_1_closed_form_exactness():
    p2, p3 = CopulaModel("product", 2), CopulaModel("product", 3)
    m2, w = CopulaModel("min", 2), CopulaModel("lower_bound_w", 2)
    checks = [
        (cce(p2).value, 0.25),
        (cce(p3).value, 0.1875),
        (cce(m2).value, 5.0 / 18.0),
        (fcce(w, 0.5).value, math.gamma(1.5) * (2 ** -1.5 - 3 ** -1.5)),
    ]
    for k, model in ((2, p2), (3, p3)):
        for s in (0.5, 2.0):
            checks.append((ccigf(model, s).value, (s + 1.0) ** -k))
    # generating-function bounds are attained at the envelopes
    for s in (0.5, 2.0):
        checks.append((ccigf(w, s).value, 1.0 / ((s + 1.0) * (s + 2.0))))
        checks.append((ccigf(m2, s).value, 2.0 * beta_fn(s + 1.0, 2.0)))
    for got, want in checks:
        assert got == pytest.approx(want, abs=1e-5)
    # divergence of W from the product: cubature against the corrected
    # closed form (the as-stated constant is criterion 1b)
    est = cckl(w, p2)
    assert est.value == pytest.approx(closed_form_cckl(w, p2), abs=1e-5)
    _report("1", f"{len(checks) + 1} closed-form values within 1e-5 of cubature")


@pytest.mark.xfail(strict=True, reason=(
    "stated constant 1/9 contradicts the divergence definition: the cross "
    "integral of W against the product is -1/36, not +1/36, so the value "
    "is 1/18; two independent quadratures and the pointwise-nonnegative "
    "integrand form all give 1/18 (see notes/decisions ledger)"))
def test_criterion_1b_w_product_divergence_as_stated():
    est = cckl(CopulaModel("lower_bound_w", 2), CopulaModel("product", 2))
    assert est.value == pytest.approx(1.0 / 9.0, abs=1e-5)


def test_criterion_2_published_remark_values():
    nelsen = CopulaModel("nelsen_4212", 2, (2.0,))
    m2 = CopulaModel("min", 2)
    z_nelsen, z_min = cce(nelsen).value, cce(m2).value
    assert z_nelsen == pytest.approx(0.2790, abs=1e-4)
    assert z_min == pytest.approx(0.2777, abs=1e-4)
    # concordance ordering holds while the entropy ordering reverses
    assert concordance_leq_on_grid(nelsen, m2, grid_pts=33)
    assert z_nelsen > z_min
    _report("2", f"entropies {z_nelsen:.4f}/{z_min:.4f}; ordering "
                 "counter-example reproduced")


def test_criterion_3_formula_ledger_suite():
    for name, check in sorted(ALL_CHECKS.items()):
        results = check()
        assert all(ok for ok, _ in results), name
        assert any(not variant_ok for _, variant_ok in results), name
    _report("3", f"{len(ALL_CHECKS)} corrected formulas match cubature; "
                 "every rejected variant fails the same check")


def test_criterion_4_property_suites(zoo):
    test_properties.test_entropy_range(zoo)
    test_properties.test_spearman_entropy_bound(zoo)
    for r in (0.25, 0.5, 0.75):
        test_properties.test_fractional_jensen_bound(zoo, r)
    for s in (0.5, 1.0, 2.0, 5.0):
        test_properties.test_generating_function_bounds(zoo, s)
        test_properties.test_generating_function_jensen_split(zoo, s)
    test_properties.test_mixture_concavity_of_entropy()
    for s in (0.5, 2.0):
        test_properties.test_mixture_generating_function_two_sided(s)
    test_properties.test_concordance_implies_generating_function_order()
    test_properties.test_generating_function_derivative_is_negative_entropy(zoo)
    _report("4", f"bounds, orderings, mixtures, and the derivative identity "
                 f"hold over {len(zoo)} models")


@pytest.mark.slow
def test_criterion_5_empirical_consistency():
    for n in (50, 200):
        test_empirical.TestBetaCopula().test_sup_distance_to_empirical_copula(n)
    test_empirical.test_consistency_median_decreasing()
    _report("5", "sup-distance bound holds at N=50,200; plug-in error "
                 "medians decrease over N=250,500,1000 x 20 seeds")


@pytest.mark.slow
def test_criterion_6_calibration_reproduction():
    cfg = GofConfig(reps=REPS, alpha=0.05, seed=SEED)
    targets = [
        (CopulaModel("product", 2), 100, 2.0239e-3),
        (CopulaModel("clayton", 2, (0.5,)), 100, 1.4062e-3),
        (CopulaModel("gaussian", 2, (0.4,)), 100, 1.4116e-3),
        (CopulaModel("product", 3), 250, 1.3827e-3),
    ]
    got = []
    for model, n, want in targets:
        pct = calibrate_percentile(model, n, cfg)
        assert pct == pytest.approx(want, rel=CAL_TOL), (model.family, n)
        got.append(pct)
    _report("6", "95th percentiles " + ", ".join(f"{g:.3e}" for g in got)
            + f" within {int(CAL_TOL * 100)}% of the published values")


@pytest.mark.slow
def test_criterion_7_size_and_power():
    cfg = GofConfig(reps=2000, alpha=0.05, seed=SEED)
    size_pp = power_study(CopulaModel("product", 2), CopulaModel("product", 2),
                          100, cfg)
    assert 3.5 <= size_pp <= 6.5
    size_ff = power_study(CopulaModel("frank", 2, (3.0,)),
                          CopulaModel("frank", 2, (3.0,)), 150, cfg)
    assert 3.5 <= size_ff <= 6.5
    pw_cp = power_study(CopulaModel("clayton", 2, (0.5,)),
                        CopulaModel("product", 2), 100, cfg)
    assert pw_cp >= 90.0
    # the product-vs-normal cell: the honest value is ~94.5% (criterion
    # 7b records the stated >= 95 bound); discrimination is nonetheless
    # strong in both directions
    pw_pn = power_study(CopulaModel("product", 2),
                        CopulaModel("gaussian", 2, (0.4,)), 100, cfg)
    assert pw_pn >= 92.0
    pw_np = power_study(CopulaModel("gaussian", 2, (0.4,)),
                        CopulaModel("product", 2), 100, cfg)
    assert pw_np >= 90.0
    _report("7", f"sizes {size_pp:.2f}%/{size_ff:.2f}%; power clayton-null "
                 f"{pw_cp:.2f}%, product-null vs normal {pw_pn:.2f}%")


@pytest.mark.xfail(strict=True, reason=(
    "stated bound >=95% is inconsistent with the published percentile "
    "itself: 5.3-5.6% of the alternative statistics fall below the "
    "product cutoff at 1e4 reps, so the attainable power is 94.4-94.7% "
    "(see notes/decisions ledger)"))
@pytest.mark.slow
def test_criterion_7b_product_vs_normal_power_as_stated():
    cfg = GofConfig(reps=2000, alpha=0.05, seed=SEED)
    pw = power_study(CopulaModel("product", 2),
                     CopulaModel("gaussian", 2, (0.4,)), 100, cfg)
    assert pw >= 95.0


def _pima_path():
    env = os.environ.get("COPULAMEASURES_PIMA")
    if env and os.path.exists(env):
        return env
    local = os.path.join(os.path.dirname(__file__), "data", "pima.csv")
    return local if os.path.exists(local) else None


@pytest.mark.slow
def test_criterion_8_selection_workflow():
    pima = _pima_path()
    candidates = ["clayton", "frank", "gumbel_hougaard", "joe", "gaussian",
                  "product"]
    icfg = IntegrationConfig(abs_tol=1e-5)
    if pima is None:
        print("[acceptance] criterion 8 (pima half): SKIPPED, supply the CSV "
              "via COPULAMEASURES_PIMA or tests/data/pima.csv")
    else:
        from copulameasures.cli import load_csv
        ds = load_csv(pima, ["glucose", "pressure", "mass"])
        entries = select_copula(ds.values, candidates,
                                GofConfig(reps=1000, alpha=0.05, seed=SEED),
                                integration_cfg=icfg)
        ranked = [e.family for e in entries if e.error is None]
        by_family = {e.family: e for e in entries}
        assert ranked[0] == "frank"
        assert by_family["frank"].p_value > 0.05
        assert by_family["joe"].p_value < 0.01
        assert by_family["product"].p_value < 0.01

    # synthetic self-selection: the generating family wins the ranking
    model = CopulaModel("gaussian", 2, (0.7,))
    wins = 0
    seeds = 50
    for s in range(seeds):
        data = model.sample(250, seed=7000 + s)
        entries = select_copula(data, candidates,
                                GofConfig(reps=100, alpha=0.05, seed=s),
                                integration_cfg=icfg)
        wins += entries[0].family == "gaussian"
    assert wins >= 0.8 * seeds
    _report("8", f"self-selection picked the true family in {wins}/{seeds} "
                 "seeds" + ("" if pima is None else "; pima pattern holds"))


def _run_cli_json(argv, capsys):
    code = cli_main(argv)
    return code, capsys.readouterr().out


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    X = CopulaModel("frank", 2, (4.0,)).sample(90, seed=55)
    data_path.write_text("u,v\n" + "\n".join(
        f"{float(a)!r},{float(b)!r}" for a, b in X) + "\n")
    commands = [
        ["measure", "--family", "min", "--dim", "2", "--stat", "ccigf:2"],
        ["cckl", "--family-a", "product", "--family-b", "min", "--dim", "2"],
        ["empirical", "--data", str(data_path), "--cols", "u,v", "--stat",
         "cce", "--tie-seed", "3"],
        ["gof", "--data", str(data_path), "--cols", "u,v", "--family",
         "frank", "--reps", "120", "--seed", "19"],
        ["calibrate", "--family", "product", "--dim", "2", "--n", "40",
         "--reps", "150", "--seed", "19"],
        ["select", "--data", str(data_path), "--cols", "u,v", "--families",
         "frank,product", "--reps", "100", "--seed", "19"],
    ]
    for argv in commands:
        pooled = argv[0] in ("gof", "calibrate", "select")
        runs = [argv + (["--workers", w] if pooled else []) for w in ("1", "2")]
        outs = [_run_cli_json(run, capsys)[1] for run in runs]
        _, replay = _run_cli_json(runs[1], capsys)
        assert outs[1] == replay, argv[0]
        # well-formed, and equal but for the echoed --workers
        reports = [json.loads(out) for out in outs]
        assert [rep.pop("argv") for rep in reports] == runs, argv[0]
        assert reports[0] == reports[1], argv[0]
    _report("9", f"{len(commands)} commands byte-identical across replays, "
                 "and equal across worker counts")
