import json

import numpy as np
import pytest

from copulameasures import (CopulaModel, EmpiricalBetaCopula, Estimate,
                            MixtureCopula, b_k, cce, ccigf, cckl, cubature,
                            fcce, mvn_cdf, rank_with_random_ties)
from copulameasures.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECT, load_csv, main
from copulameasures.errors import ColumnMissing, NoCompleteRows


@pytest.fixture(scope="module")
def gauss_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "gauss.csv"
    X = CopulaModel("gaussian", 2, (0.6,)).sample(150, seed=404)
    rows = ["x,y,z"]
    for i, (a, b) in enumerate(X):
        z = "" if i % 25 == 0 else f"{0.1 * i:.3f}"
        rows.append(f"{float(a)!r},{float(b)!r},{z}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def normal4_csv(tmp_path_factory):
    """30 rows of four standard normals, columns a,b,c,d."""
    path = tmp_path_factory.mktemp("data") / "normal4.csv"
    X = np.random.default_rng(5).normal(size=(30, 4))
    path.write_text("a,b,c,d\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in X))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestLoadCsv:
    def test_drops_and_counts_incomplete_rows(self, gauss_csv):
        ds = load_csv(gauss_csv, ["x", "y", "z"])
        assert ds.rows_dropped == 6
        assert ds.values.shape == (144, 3)
        full = load_csv(gauss_csv, ["x", "y"])
        assert full.rows_dropped == 0 and full.values.shape == (150, 2)

    def test_column_missing_lists_available(self, gauss_csv):
        with pytest.raises(ColumnMissing) as exc:
            load_csv(gauss_csv, ["x", "nope"])
        assert "nope" in str(exc.value) and "'y'" in str(exc.value)

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b\n")
        with pytest.raises(NoCompleteRows):
            load_csv(str(p), ["a", "b"])

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/never.csv", ["a"])


class TestCommands:
    def test_measure_product_cce(self, capsys):
        code, out = run_cli(["measure", "--family", "product", "--dim", "2",
                             "--stat", "cce"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["outputs"]["value"] == pytest.approx(0.25, abs=1e-6)
        assert rep["outputs"]["closed_form"] == 0.25

    def test_measure_with_order(self, capsys):
        code, out = run_cli(["measure", "--family", "lower_bound_w", "--dim",
                             "2", "--stat", "fcce:0.5"], capsys)
        rep = json.loads(out)
        assert rep["outputs"]["value"] == pytest.approx(0.142774, abs=1e-5)

    def test_cckl_lower_bound_vs_product(self, capsys):
        code, out = run_cli(["cckl", "--family-a", "lower_bound_w",
                             "--family-b", "product", "--dim", "2"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        # the definition forces 1/18 for this pair; the closed form and
        # the quadrature must agree
        assert rep["outputs"]["value"] == pytest.approx(1.0 / 18.0, abs=1e-5)
        assert rep["outputs"]["value"] == pytest.approx(
            rep["outputs"]["closed_form"], abs=1e-5)
        assert rep["formula_notes"]

    def test_empirical_with_curve(self, gauss_csv, capsys):
        code, out = run_cli(["empirical", "--data", gauss_csv, "--cols", "x,y",
                             "--stat", "cce", "--tie-seed", "5",
                             "--dump-curve", "50,100,150"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["outputs"]["n"] == 150
        assert [m for m, _ in rep["outputs"]["curve"]] == [50, 100, 150]

    def test_gof_exit_codes(self, gauss_csv, capsys):
        code, out = run_cli(["gof", "--data", gauss_csv, "--cols", "x,y",
                             "--family", "gaussian", "--reps", "150",
                             "--seed", "3"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["outputs"]["reject"] is False
        code, out = run_cli(["gof", "--data", gauss_csv, "--cols", "x,y",
                             "--family", "product", "--reps", "150",
                             "--seed", "3"], capsys)
        assert code == EXIT_REJECT
        assert json.loads(out)["outputs"]["reject"] is True

    def test_calibrate_command(self, capsys):
        code, out = run_cli(["calibrate", "--family", "product", "--dim", "2",
                             "--n", "40", "--reps", "200", "--alpha", "0.05",
                             "--seed", "7"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["outputs"]["percentile"] > 0

    def test_power_command(self, capsys):
        code, out = run_cli(["power", "--null-family", "product",
                             "--true-family", "gaussian",
                             "--true-params", "0.8", "--dim", "2", "--n", "60",
                             "--reps", "200", "--seed", "7"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["outputs"]["rejection_percent"] > 50

    @pytest.mark.slow
    def test_power_null_params_only_for_known_params(self, capsys):
        # estimate_each_rep re-fits every dataset to the null family, so
        # the null's parameters are optional there and ignored if given
        argv = ["power", "--null-family", "clayton", "--true-family",
                "gaussian", "--true-params", "0.5", "--n", "30", "--reps",
                "100", "--seed", "7", "--workers", "2", "--param-mode"]
        pct = []
        for extra in ([], ["--null-params", "1.0"]):
            code, out = run_cli(argv + ["estimate_each_rep"] + extra, capsys)
            assert code == EXIT_OK
            pct.append(json.loads(out)["outputs"]["rejection_percent"])
        assert pct[0] == pct[1]
        code, _ = run_cli(argv + ["known_params"], capsys)
        assert code == EXIT_ERROR

    def test_select_command(self, gauss_csv, capsys):
        code, out = run_cli(["select", "--data", gauss_csv, "--cols", "x,y",
                             "--families", "gaussian,product", "--reps", "100",
                             "--seed", "9"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["outputs"]["recommended"] == "gaussian"

    def test_usage_error_exit_code(self, capsys):
        assert main(["measure", "--family", "nonsense", "--dim", "2",
                     "--stat", "cce"]) == EXIT_ERROR

    def test_domain_error_exit_code(self, capsys):
        assert main(["measure", "--family", "clayton", "--dim", "2",
                     "--params", "0", "--stat", "cce"]) == EXIT_ERROR

    def test_nan_tolerance_rejected_before_integrating(self, capsys, caplog):
        assert main(["measure", "--family", "clayton", "--dim", "2",
                     "--params", "1", "--stat", "cce", "--tol", "nan"]) == EXIT_ERROR
        assert "ValueError: abs_tol must be positive" in caplog.text

    @pytest.mark.parametrize("name", ["", "never.csv"])
    def test_unreadable_data_exit_code(self, tmp_path, name, capsys, caplog):
        """A directory or a missing file is an error, not a rejection."""
        assert main(["gof", "--data", str(tmp_path / name), "--cols", "a,b",
                     "--family", "frank", "--reps", "100"]) == EXIT_ERROR
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert ("IsADirectoryError" if not name else "FileNotFoundError") \
            in errors[0].getMessage()

    @pytest.mark.parametrize("sizes", ["-5,20", "1,20", "0", "20,31"])
    def test_curve_sizes_outside_2_to_n_exit_code(self, normal4_csv, sizes,
                                                  capsys, caplog):
        assert main(["empirical", "--data", normal4_csv, "--cols", "a,b",
                     "--stat", "cce", f"--dump-curve={sizes}"]) == EXIT_ERROR
        assert "curve size" in caplog.text


class TestDeterminism:
    def test_replay_byte_identical_and_worker_invariant(self, gauss_csv,
                                                        capsys, monkeypatch):
        argv = ["gof", "--data", gauss_csv, "--cols", "x,y", "--family",
                "gaussian", "--reps", "120", "--seed", "77"]
        monkeypatch.setenv("COPULAMEASURES_THREADS", "1")
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second
        monkeypatch.setenv("COPULAMEASURES_THREADS", "2")
        _, third = run_cli(argv, capsys)
        assert first == third


def _measure(family, dim, stat, params=None):
    argv = ["measure", "--family", family, "--dim", str(dim), "--stat", stat]
    return argv + (["--params", params] if params else [])


def _measured(family, dim, params, stat, outputs, notes=()):
    """A measure report: its inputs echo the model and the stat."""
    return _report({"family": family, "dim": dim, "params": params,
                    "stat": stat}, outputs, notes)


def _report(inputs, outputs, notes=(), seeds=None):
    """Expected report after ``command`` and ``argv``, in key order."""
    head = {"inputs": inputs} if seeds is None else {"inputs": inputs,
                                                     "seeds": seeds}
    return {**head, "outputs": outputs, "formula_notes": list(notes)}


def _same(got, want, approx=False):
    """Dicts match in key order; floats under ``outputs`` (closed forms
    excepted) agree to 1e-12 relative; everything else is equal."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key, value in want.items():
            _same(got[key], value,
                  (approx or key == "outputs") and key != "closed_form")
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w, approx)
    elif approx and isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    else:
        assert type(got) is type(want) and got == want


_GOF_ARGS = ["--data", "CSV", "--cols", "x,y", "--reps", "100"]
_CSV_INPUTS = {"data": "CSV", "columns": ["x", "y"]}
_GOF_SEEDS = {"seed": 3, "tie_seed": 10968187914866821265,
              "replicate_base": "substream(seed, 1)"}

# Pinned reports (exit code, key order, inputs, seeds, outputs and
# notes): a change to the stat dispatch, the copula classes, the Sobol
# loop, the report builder or the bootstrap must leave them unchanged.
# The measure cases reach every stat, with and without a closed form and
# a formula note; product k5 runs the Sobol engine.  The bootstrap cases
# cover gof in both parameter modes (known_params rejecting), calibrate,
# power and select at 100 replicates.  The empirical entry's error was
# re-recorded for the binomial-pmf survival kernel of the beta copula: a
# cubature error estimate is ~1e6 times smaller than the value it
# bounds, so at 1e-12 relative it pins the kernel's last bits.  The
# empirical and select entries were re-recorded again when the beta
# copula moved to the tensor grid at k <= 3; each new value lies within
# the old error bar of the old one and within its own of a reference at
# abs_tol 1e-11.  The gaussian k=3 rho error was re-recorded when the
# trivariate normal's node count came to follow its stated error (its
# CDF values moved by at most 1.1e-16); its value did not move.  The min
# k=3 fcce:0.5 and cuadras_auge k=3 bk entries were re-recorded when
# subdivision came to fold min and Cuadras-Auge onto the ordered simplex;
# each new value lies within its error of its closed form, 0.24899399208492085
# (1.5e-8 off, error 2.2e-7) and 0.16717748676511562 (5.2e-10 off, 1.5e-7).
GOLDEN = [
    (_measure("product", 2, "cce"), EXIT_OK,
     _measured("product", 2, [], "cce",
               {"value": 0.24999999908089127, "error": 1.749866721374192e-07,
                "method": "cubature", "closed_form": 0.25})),
    (_measure("min", 3, "fcce:0.5"), EXIT_OK,
     _measured("min", 3, [], "fcce:0.5",
               {"value": 0.248994007442297, "error": 2.226988810237559e-07,
                "method": "cubature", "closed_form": 0.24899399208492085},
               ["min-copula fractional entropy uses exponent (x+2)^(r+1), "
                "forced by the r = 1 limit"])),
    (_measure("fgm", 2, "ccigf:0.7", "0.5"), EXIT_OK,
     _measured("fgm", 2, [0.5], "ccigf:0.7",
               {"value": 0.36229778300564636, "error": 2.66877957263896e-07,
                "method": "cubature", "closed_form": 0.36229778161044823},
               ["fgm generating function: series coefficient is the "
                "generalized binomial binom(s, x); the binom(s+x-1, x) "
                "variant fails the integral cross-check"])),
    (_measure("marshall_olkin", 2, "ccigf:1.5", "0.3,0.6"), EXIT_OK,
     _measured("marshall_olkin", 2, [0.3, 0.6], "ccigf:1.5",
               {"value": 0.18181819012583922, "error": 1.79069018749831e-07,
                "method": "cubature", "closed_form": 0.18181818181818185},
               ["marshall_olkin generating function re-derived for the "
                "standard cdf u^(1-a1) v^(1-a2) min(u^a1, v^a2); simpler "
                "circulating denominators fail at a1 = a2 = 1"])),
    (_measure("gaussian", 3, "rho", "0.5,0.3,0.4"), EXIT_OK,
     _measured("gaussian", 3, [0.5, 0.3, 0.4], "rho",
               {"value": 0.3849044027159727, "error": 1.3592865192290019e-06,
                "method": "cubature", "closed_form": None})),
    (_measure("cuadras_auge", 3, "bk", "0.3,0.5,0.7"), EXIT_OK,
     _measured("cuadras_auge", 3, [0.3, 0.5, 0.7], "bk",
               {"value": 0.16717748728455656, "error": 1.5313882839920998e-07,
                "method": "cubature", "closed_form": 0.16717748676511562})),
    (_measure("clayton", 2, "fcce:0", "1.5"), EXIT_OK,
     _measured("clayton", 2, [1.5], "fcce:0",
               {"value": 0.2999162662827259, "error": 2.998873862886333e-07,
                "method": "cubature", "closed_form": None})),
    (_measure("product", 5, "cce"), EXIT_OK,
     _measured("product", 5, [], "cce",
               {"value": 0.07812792705441413, "error": 9.238446574481033e-05,
                "method": "cubature", "closed_form": 0.078125})),
    (["cckl", "--family-a", "lower_bound_w", "--family-b", "product",
      "--dim", "2"], EXIT_OK,
     _report({"family_a": "lower_bound_w", "params_a": [],
              "family_b": "product", "params_b": [], "dim": 2},
             {"value": 0.05555556562346573, "error": 9.043594100634662e-08,
              "closed_form": 0.05555555555555555},
             ["divergence of the lower bound copula from the product is "
              "1/18: the cross integral is -1/36 (the circulated +1/36 makes "
              "the total 1/9 and fails quadrature)"])),
    (["empirical", "--data", "CSV", "--cols", "x,y", "--stat", "cce"], EXIT_OK,
     _report({**_CSV_INPUTS, "stat": "cce", "rows_dropped": 0},
             {"value": 0.2743449252891183, "error": 4.985025626507229e-09,
              "n": 150, "k": 2},
             seeds={"tie_seed": 20241})),
    (["gof", "--family", "gaussian", "--param-mode", "estimate_each_rep",
      *_GOF_ARGS, "--seed", "3"], EXIT_OK,
     _report({**_CSV_INPUTS, "family": "gaussian", "reps": 100, "alpha": 0.05,
              "param_mode": "estimate_each_rep", "rows_dropped": 0},
             {"fitted_params": [0.6630498151671278],
              "observed_t": 0.00019606578212716706,
              "percentile": 0.0005195976017017456, "p_value": 0.47,
              "reject": False},
             seeds=_GOF_SEEDS)),
    (["gof", "--family", "clayton", "--param-mode", "known_params",
      "--params", "0.2", *_GOF_ARGS, "--seed", "3"], EXIT_REJECT,
     _report({**_CSV_INPUTS, "family": "clayton", "reps": 100, "alpha": 0.05,
              "param_mode": "known_params", "rows_dropped": 0},
             {"fitted_params": [0.2], "observed_t": 0.00716584070929296,
              "percentile": 0.0010809288395817326, "p_value": 0.0,
              "reject": True},
             seeds=_GOF_SEEDS)),
    (["calibrate", "--family", "frank", "--params", "3", "--n", "40",
      "--reps", "100", "--seed", "7"], EXIT_OK,
     _report({"family": "frank", "dim": 2, "params": [3.0], "n": 40,
              "reps": 100, "alpha": 0.05},
             {"percentile": 0.0029439268920355656}, seeds={"seed": 7})),
    (["power", "--null-family", "product", "--true-family", "gaussian",
      "--true-params", "0.5", "--param-mode", "known_params", "--n", "40",
      "--reps", "100", "--seed", "7"], EXIT_OK,
     _report({"null_family": "product", "null_params": [],
              "true_family": "gaussian", "true_params": [0.5], "dim": 2,
              "n": 40, "reps": 100, "alpha": 0.05,
              "param_mode": "known_params"},
             {"rejection_percent": 76.0}, seeds={"seed": 7})),
    (["select", "--data", "CSV", "--cols", "x,y", "--families",
      "gaussian,product,clayton", "--reps", "100", "--seed", "9"], EXIT_OK,
     _report({**_CSV_INPUTS, "families": ["gaussian", "product", "clayton"],
              "reps": 100, "alpha": 0.05, "rows_dropped": 0},
             {"ranking": [
                 {"family": "gaussian", "params": [0.6630498151671278],
                  "cckl_to_empirical": 9.523106361698304e-05, "p_value": 0.5,
                  "error": None},
                 {"family": "clayton", "params": [1.7138584247258224],
                  "cckl_to_empirical": 0.0005109191568403382,
                  "p_value": 0.0, "error": None},
                 {"family": "product", "params": [],
                  "cckl_to_empirical": 0.011200643126531025, "p_value": 0.0,
                  "error": None}],
              "recommended": "gaussian"},
             seeds={"seed": 9})),
    # k = 4, where the engines part: the beta copula's plug-in measure
    # runs Sobol, parametric measures and cckl run subdivision
    (["empirical", "--data", "CSV4", "--cols", "a,b,c,d", "--stat", "cce",
      "--dump-curve", "20"], EXIT_OK,
     _report({"data": "CSV4", "columns": ["a", "b", "c", "d"], "stat": "cce",
              "rows_dropped": 0},
             {"value": 0.10983405388669587, "error": 5.230409892051373e-05,
              "n": 30, "k": 4, "curve": [[20, 0.10589494681270487]]},
             seeds={"tie_seed": 20241})),
    (_measure("clayton", 4, "bk", "1"), EXIT_OK,
     _measured("clayton", 4, [1.0], "bk",
               {"value": 0.1324459105362513, "error": 1.1944368953663048e-07,
                "method": "cubature", "closed_form": None})),
    (["cckl", "--family-a", "clayton", "--params-a", "1", "--family-b",
      "product", "--dim", "4", "--tol", "1e-6"], EXIT_OK,
     _report({"family_a": "clayton", "params_a": [1.0], "family_b": "product",
              "params_b": [], "dim": 4},
             {"value": 0.054782621637632534, "error": 8.170723601265968e-07,
              "closed_form": None})),
]


class TestGoldenReports:
    @pytest.mark.parametrize("argv,code,report", GOLDEN,
                             ids=[" ".join(g[0][:6]) for g in GOLDEN])
    def test_report_unchanged(self, argv, code, report, gauss_csv,
                              normal4_csv, capsys):
        paths = {"CSV": gauss_csv, "CSV4": normal4_csv}
        argv = [paths.get(a, a) for a in argv]
        got_code, out = run_cli(argv, capsys)
        assert got_code == code
        text = json.dumps(report)
        for token, path in paths.items():
            text = text.replace(json.dumps(token), json.dumps(path))
        want = json.loads(text)
        _same(json.loads(out), {"command": argv[0], "argv": argv, **want})

    def test_k4_mvn_cdf_unchanged(self):
        corr = np.eye(4)
        ij = np.triu_indices(4, 1)
        corr[ij] = [0.3, 0.1, 0.2, 0.25, 0.15, 0.05]
        corr.T[ij] = corr[ij]
        est = mvn_cdf(corr, np.array([0.2, 0.5, -0.3, 0.8]), abs_tol=5e-7)
        assert est.value == pytest.approx(0.1665856142928139, rel=1e-12, abs=0.0)
        assert est.error == pytest.approx(4.5253807050539993e-07, rel=1e-12,
                                          abs=0.0)
        assert est.evals == 131072


@pytest.fixture
def engines(monkeypatch):
    """The engine each integration runs, "grid", "adaptive", "folded"
    (subdivision on the ordered simplex) or "qmc", with every engine
    stubbed out behind ``integrate_unit_cube``'s dispatch."""
    seen = []
    for name in ("grid", "adaptive", "qmc"):
        def record(*args, name=name, symmetric=False):
            seen.append("folded" if symmetric else name)
            return Estimate(0.1, 0.0, 1)
        monkeypatch.setattr(cubature, f"_integrate_{name}", record)
    return seen


def _beta(k):
    X = np.random.default_rng(5).normal(size=(30, k))
    return EmpiricalBetaCopula(rank_with_random_ties(X, 0))


class TestEmpiricalEngine:
    """Every measure of the empirical beta copula, and ``cckl`` when either
    copula is one, integrates on the tensor grid at k = 2 and 3 and by
    Sobol from k = 4, whether called from the API or the CLI.  Measures of
    parametric models alone subdivide below k = 5 and run Sobol from it."""

    def test_cli_uses_the_api_engine_rule(self, normal4_csv, capsys, engines):
        """The dumped curve included."""
        for cols, engine in (("a,b,c,d", "qmc"), ("a,b,c", "grid"),
                             ("a,b", "grid")):
            engines.clear()
            code, _ = run_cli(["empirical", "--data", normal4_csv, "--cols",
                               cols, "--stat", "cce", "--dump-curve", "20"],
                              capsys)
            assert code == EXIT_OK
            assert engines == [engine, engine]

    @pytest.mark.parametrize("k,engine", [(4, "qmc"), (3, "grid"), (2, "grid")])
    def test_api_measures_use_the_copula_rule(self, k, engine, engines):
        beta = _beta(k)
        cce(beta), fcce(beta, 0.5), ccigf(beta, 2.0), b_k(beta)
        assert engines == [engine] * 4

    @pytest.mark.parametrize("k", [2, 3])
    def test_cckl_with_a_beta_copula_on_the_grid(self, k, engines):
        model = CopulaModel("product", k)
        cckl(_beta(k), model), cckl(model, _beta(k))
        assert engines == ["grid", "grid"]

    def test_cckl_and_parametric_models_unchanged(self, engines):
        """Sobol for a beta copula at k = 4; for parametric models alone,
        subdivision below k = 5 and Sobol from it."""
        cckl(_beta(4), CopulaModel("product", 4))
        cce(CopulaModel("clayton", 4, (1.0,)))
        cckl(CopulaModel("clayton", 3, (1.0,)), CopulaModel("product", 3))
        cce(CopulaModel("clayton", 2, (1.0,)))
        cce(CopulaModel("product", 5))
        assert engines == ["qmc"] + ["adaptive"] * 3 + ["qmc"]


    @pytest.mark.parametrize("k", [2, 3])
    def test_mixture_holding_a_beta_copula_on_the_grid(self, k, engines):
        """A mixture sets ``tensor_grid`` when one of its components does;
        mixtures of parametric models keep their engines."""
        clayton = CopulaModel("clayton", k, (2.0,))
        cce(MixtureCopula((_beta(k), clayton), (0.4, 0.6)))
        cckl(MixtureCopula((clayton, _beta(k)), (0.5, 0.5)), clayton)
        parametric = MixtureCopula((clayton, CopulaModel("product", k)),
                                   (0.4, 0.6))
        cce(parametric), cckl(parametric, clayton)
        assert engines == ["grid", "grid", "adaptive", "adaptive"]

_CA3 = CopulaModel("cuadras_auge", 3, (0.3, 0.5, 0.7))


class TestFoldedEngine:
    """Subdivision folds onto the ordered simplex exactly when every copula
    of the integrand sets ``diagonal_kinks``: min, Cuadras-Auge and
    mixtures of them.  The grid and Sobol sampling never fold."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_flagged_models_fold(self, k, engines):
        ca = CopulaModel("cuadras_auge", k, (0.4,) * (k * (k - 1) // 2))
        for model in (CopulaModel("min", k), ca):
            cce(model), fcce(model, 0.5), ccigf(model, 2.0), b_k(model)
        cckl(CopulaModel("min", k), ca), cckl(ca, CopulaModel("min", k))
        assert engines == ["folded"] * 10

    def test_flagged_mixture_folds(self, engines):
        mix = MixtureCopula((CopulaModel("min", 3), _CA3), (0.4, 0.6))
        cce(mix), cckl(mix, CopulaModel("min", 3))
        cce(MixtureCopula((CopulaModel("min", 3), CopulaModel("product", 3)),
                          (0.4, 0.6)))
        assert engines == ["folded", "folded", "adaptive"]

    def test_a_divergence_with_an_unflagged_copula_does_not(self, engines):
        cckl(_CA3, CopulaModel("frank", 3, (4.0,)))
        cckl(CopulaModel("product", 3), CopulaModel("min", 3))
        assert engines == ["adaptive", "adaptive"]

    def test_only_min_and_cuadras_auge_fold(self, zoo, engines):
        for model in zoo:
            engines.clear()
            cce(model)
            folded = model.family in ("min", "cuadras_auge")
            assert engines == ["folded" if folded else "adaptive"], model

    def test_grid_and_sobol_do_not_fold(self, engines):
        cce(CopulaModel("min", 5))
        cckl(_beta(3), CopulaModel("min", 3))
        cckl(_beta(4), CopulaModel("min", 4))
        assert engines == ["qmc", "grid", "qmc"]
