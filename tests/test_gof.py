import numpy as np
import pytest

from copulameasures import (
    CopulaModel,
    EmpiricalBetaCopula,
    GofConfig,
    IntegrationConfig,
    RankedSample,
    bootstrap_test,
    calibrate_percentile,
    cce,
    percentile_index,
    power_study,
    rank_with_random_ties,
    select_copula,
    t_statistic,
    xlog_ratio,
)
from copulameasures.copulas import corr_from_upper_triangle
from copulameasures.errors import DimensionMismatch
from copulameasures.fit import estimate

from conftest import FULL


class TestPercentileIndex:
    def test_examples(self):
        assert percentile_index(10000, 0.05) == 9500
        assert percentile_index(100, 0.05) == 95
        assert percentile_index(7, 0.5) == 3

    def test_float_roundoff_guard(self):
        for m in (1000, 2000, 10000, 40000):
            assert percentile_index(m, 0.05) == round(0.95 * m)


class TestStatistic:
    def test_single_observation_product(self):
        rs1 = RankedSample(np.array([[1, 1]]), 0, (0, 0))
        assert t_statistic(rs1, CopulaModel("product", 2)) == 0.0

    def test_zero_against_own_beta_copula(self):
        rng = np.random.default_rng(0)
        rs = rank_with_random_ties(rng.normal(size=(60, 2)), 1)
        assert t_statistic(rs, EmpiricalBetaCopula(rs)) == \
            pytest.approx(0.0, abs=1e-15)

    def test_comonotone_exceeds_product_percentile(self):
        data = np.repeat(np.random.default_rng(2).normal(size=(100, 1)), 2,
                         axis=1)
        rs = rank_with_random_ties(data, 3)
        assert t_statistic(rs, CopulaModel("product", 2)) > 2.0239e-3

    def test_well_specified_stays_below_percentile(self):
        # draws from the model itself should rarely cross the published
        # cutoff for that family
        model = CopulaModel("clayton", 2, (2.0,))
        cutoff = 4.8142e-4  # N = 150 null percentile for this family
        below = 0
        seeds = 40
        for s in range(seeds):
            rs = rank_with_random_ties(model.sample(150, seed=100 + s), s)
            below += t_statistic(rs, model) < cutoff
        assert below >= 0.9 * seeds

    def test_dimension_mismatch(self):
        rs = rank_with_random_ties(np.random.default_rng(1).normal(size=(20, 2)), 0)
        with pytest.raises(DimensionMismatch):
            t_statistic(rs, CopulaModel("product", 3))

    def test_uniform_variant_close_to_pseudo_variant(self):
        model = CopulaModel("frank", 2, (3.0,))
        rs = rank_with_random_ties(model.sample(400, seed=9), 0)
        t_pseudo = t_statistic(rs, model)
        # the same integrand averaged over uniform draws instead of the
        # pseudo-observations
        U = np.random.default_rng(1).random((40000, 2))
        chat = EmpiricalBetaCopula(rs).cdf_many(U)
        ctheta = np.maximum(model.cdf_many(U), 1e-300)
        t_unif = np.mean(xlog_ratio(chat, ctheta))
        assert abs(t_pseudo - t_unif) < 5e-4


class TestBootstrapTest:
    def test_report_fields_and_exactness(self):
        data = CopulaModel("gaussian", 2, (0.5,)).sample(120, seed=4)
        cfg = GofConfig(reps=200, alpha=0.05, seed=11)
        rep = bootstrap_test(data, "gaussian", cfg)
        assert rep.reps == 200 and rep.seed == 11
        # p-value is exactly the defining count ratio
        count = int(np.count_nonzero(rep.replicates >= rep.observed_t))
        assert rep.p_value == count / 200
        assert rep.p_value in {i / 200 for i in range(201)}
        assert rep.percentile == np.sort(rep.replicates)[percentile_index(200, 0.05) - 1]
        assert rep.reject == (rep.observed_t >= rep.percentile)

    def test_gaussian_fit_projected_to_the_eigenvalue_floor(self):
        # Z3 = Z1 - Z2 puts the sample taus on the edge of the feasible
        # set, where sin(pi tau / 2) is singular; the fit projects it to
        # smallest eigenvalue 1e-6, and its measures and test still run
        rng = np.random.default_rng(0)
        x1, x2 = rng.exponential(size=(2, 120))
        data = np.column_stack([x1, x2, x1 - x2])
        model = estimate("gaussian", data).model
        corr = corr_from_upper_triangle(3, np.array(model.params))
        assert np.linalg.eigvalsh(corr)[0] < 1.01e-6
        est = cce(model, IntegrationConfig(abs_tol=1e-5))
        assert 0.0 < est.value < np.exp(-1.0)
        rep = bootstrap_test(data, "gaussian", GofConfig(reps=100, seed=1))
        assert rep.replicates.shape == (100,)
        assert np.all(np.isfinite(rep.replicates))

    def test_deterministic_and_worker_invariant(self):
        data = CopulaModel("clayton", 2, (1.0,)).sample(80, seed=6)
        cfg1 = GofConfig(reps=120, alpha=0.05, seed=21, workers=1)
        cfg2 = GofConfig(reps=120, alpha=0.05, seed=21, workers=2)
        r1 = bootstrap_test(data, "clayton", cfg1)
        r2 = bootstrap_test(data, "clayton", cfg2)
        assert r1.observed_t == r2.observed_t
        assert np.array_equal(r1.replicates, r2.replicates)
        assert r1.p_value == r2.p_value

    def test_model_null_held_fixed(self):
        """A CopulaModel null is the fitted model of the report, unfitted."""
        model = CopulaModel("clayton", 2, (1.0,))
        data = model.sample(50, seed=1)
        rep = bootstrap_test(data, model, GofConfig(reps=100, seed=0))
        assert rep.fitted.model is model
        assert rep.fitted.method == "known_params"
        assert np.all(np.isfinite(rep.replicates))

    def test_comonotone_data_rejects_product_with_zero_pvalue(self):
        u = np.linspace(0.01, 0.99, 100)[:, None] + \
            np.random.default_rng(3).normal(0, 1e-6, size=(100, 1))
        data = np.hstack([u, u + 1e-9])
        rep = bootstrap_test(data, "product", GofConfig(reps=150, seed=2))
        assert rep.p_value == 0.0 and rep.reject

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GofConfig(reps=50)
        with pytest.raises(ValueError):
            GofConfig(reps=100, alpha=0.01)  # reps * alpha < 5

    @pytest.mark.parametrize("field,value", [("reps", 1e3), ("workers", 2.5)])
    def test_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError):
            GofConfig(**{field: value})
        assert getattr(GofConfig(**{field: np.int64(200)}), field) == 200

    def test_size_of_bootstrap_test(self):
        # well-specified null accepted at roughly the nominal rate
        seeds = 60 if FULL else 30
        rejects = 0
        for s in range(seeds):
            data = CopulaModel("product", 2).sample(100, seed=3000 + s)
            rep = bootstrap_test(data, "product",
                                 GofConfig(reps=200, alpha=0.05, seed=s))
            rejects += rep.reject
        assert rejects / seeds <= 0.17

    def test_pvalues_uniformish_known_params(self):
        from scipy.stats import kstest
        model = CopulaModel("clayton", 2, (2.0,))
        outer = 200 if FULL else 120
        pvals = []
        for s in range(outer):
            data = model.sample(100, seed=5000 + s)
            rep = bootstrap_test(data, model,
                                 GofConfig(reps=200, alpha=0.05, seed=s))
            pvals.append(rep.p_value)
        assert kstest(pvals, "uniform").statistic < 0.12


@pytest.mark.slow
class TestCalibration:
    def test_product_bivariate(self):
        cfg = GofConfig(reps=2000, alpha=0.05, seed=7)
        pct = calibrate_percentile(CopulaModel("product", 2), 100, cfg)
        assert pct == pytest.approx(2.0239e-3, rel=0.15)

    def test_determinism_across_workers(self):
        m = CopulaModel("clayton", 2, (0.5,))
        a = calibrate_percentile(m, 60, GofConfig(reps=300, seed=5, workers=1))
        b = calibrate_percentile(m, 60, GofConfig(reps=300, seed=5, workers=2))
        assert a == b


@pytest.mark.slow
class TestPower:
    def test_consistency_in_sample_size(self):
        # fixed alternative: power grows with N (criterion: nondecreasing
        # up to 1.5-point noise)
        cfg = GofConfig(reps=1000 if FULL else 600, alpha=0.05, seed=17)
        true = CopulaModel("clayton", 2, (2.0,))
        powers = [power_study(CopulaModel("product", 2), true, n, cfg)
                  for n in (100, 150, 200, 250)]
        for lo, hi in zip(powers, powers[1:]):
            assert hi >= lo - 1.5

    def test_estimate_each_rep_worker_invariant(self):
        # one nested bootstrap per dataset, spread over one pool
        true = CopulaModel("gaussian", 2, (0.5,))
        a, b = (power_study("clayton", true, 30, GofConfig(reps=100, seed=7,
                                                           workers=w))
                for w in (1, 2))
        assert a == b

    def test_family_null_near_independence(self):
        # datasets and replicates whose Clayton fit lies past the edge
        power = power_study("clayton", CopulaModel("gaussian", 2, (0.5,)), 25,
                            GofConfig(reps=100, seed=9))
        assert 0.0 <= power <= 100.0


@pytest.fixture
def built(monkeypatch):
    """max_workers of each process pool gof builds, in order."""
    from copulameasures import gof
    pools = []

    class Counting(gof.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(gof, "ProcessPoolExecutor", Counting)
    return pools


class TestSelect:
    def test_single_candidate_independent_data(self):
        data = CopulaModel("product", 2).sample(150, seed=31)
        entries = select_copula(data, ["product"], GofConfig(reps=100, seed=3))
        assert len(entries) == 1
        assert entries[0].family == "product"
        assert entries[0].p_value > 0.05

    def test_failures_reported_not_dropped(self):
        data = CopulaModel("product", 2).sample(100, seed=32)
        entries = select_copula(data, ["gaussian", "fgm"],
                                GofConfig(reps=100, seed=4))
        by_family = {e.family: e for e in entries}
        assert by_family["fgm"].error is not None
        assert by_family["gaussian"].cckl_to_empirical is not None
        assert entries[-1].family == "fgm"  # failures sort last

    def test_each_candidate_fitted_once_on_the_data(self, monkeypatch):
        """The bootstrap reuses the candidate's fit; only the replicates
        are fitted again."""
        from copulameasures import fit
        data = CopulaModel("clayton", 2, (2.0,)).sample(80, seed=34)
        on_data = []

        def counting(family, X):
            if np.array_equal(X, data):
                on_data.append(family)
            return estimate(family, X)
        monkeypatch.setattr(fit, "estimate", counting)
        select_copula(data, ["clayton", "frank", "fgm"], GofConfig(reps=100, seed=6))
        assert sorted(on_data) == ["clayton", "fgm", "frank"]

    def test_one_pool_per_select_and_worker_invariant(self, built):
        data = CopulaModel("clayton", 2, (2.0,)).sample(60, seed=35)
        serial, pooled = (
            select_copula(data, ["clayton", "frank"],
                          GofConfig(reps=100, seed=8, workers=w))
            for w in (1, 2))
        assert built == [2]
        for a, b in zip(serial, pooled):
            assert (a.family, a.fitted, a.cckl_to_empirical, a.p_value) == (
                b.family, b.fitted, b.cckl_to_empirical, b.p_value)
            assert np.array_equal(a.report.replicates, b.report.replicates)
            assert a.report == b.report

    def test_one_pool_per_power_study_and_worker_invariant(self, built):
        """A model null is calibrated and the power statistics scored in
        one pool, with the percentage of one worker."""
        serial, pooled = (
            power_study(CopulaModel("product", 2),
                        CopulaModel("gaussian", 2, (0.5,)), 30,
                        GofConfig(reps=100, seed=7, workers=w))
            for w in (1, 2))
        assert built == [2]
        assert serial == pooled

    def test_power_study_null_dimension_checked_before_any_pool(self, built):
        with pytest.raises(DimensionMismatch):
            power_study(CopulaModel("clayton", 2, (0.5,)),
                        CopulaModel("product", 3), 40,
                        GofConfig(reps=100, workers=2))
        assert built == []

    def test_dependent_data_prefers_dependent_model(self):
        data = CopulaModel("gaussian", 2, (0.7,)).sample(250, seed=33)
        entries = select_copula(
            data, ["gaussian", "product"], GofConfig(reps=100, seed=5))
        assert entries[0].family == "gaussian"
        assert entries[0].cckl_to_empirical < entries[1].cckl_to_empirical


class TestIndependenceEdge:
    """A fit at or past a family's independence edge is the product
    copula; a test or a selection near independence returns."""

    FAMILIES = ["clayton", "frank", "gumbel_hougaard", "joe", "gaussian",
                "product"]

    @pytest.mark.parametrize("family, model", [
        ("gumbel_hougaard", CopulaModel("gumbel_hougaard", 2, (1.15,))),
        ("joe", CopulaModel("joe", 2, (1.25,))),
        ("clayton", CopulaModel("clayton", 3, (0.2,))),
        ("frank", CopulaModel("frank", 3, (0.8,))),
    ])
    def test_bootstrap_reaches_the_edge(self, family, model):
        # a replicate of seed 1 lies past the edge
        report = bootstrap_test(model.sample(100, seed=1), family,
                                GofConfig(reps=100, seed=1))
        assert 0.0 <= report.p_value <= 1.0

    def test_select_keeps_a_family_whose_replicates_reach_the_edge(self):
        data = CopulaModel("gumbel_hougaard", 2, (1.15,)).sample(100, seed=0)
        entries = select_copula(data, self.FAMILIES,
                                GofConfig(reps=100, seed=1))
        gumbel, = (e for e in entries if e.family == "gumbel_hougaard")
        assert gumbel.error is None
        assert gumbel.fitted.model.params[0] == pytest.approx(1.2289, abs=1e-4)
        assert gumbel.cckl_to_empirical == pytest.approx(2.99e-4, abs=1e-6)

    def test_select_prefers_product_over_equal_edge_fits(self):
        data = CopulaModel("product", 3).sample(120, seed=101)
        entries = select_copula(data, self.FAMILIES,
                                GofConfig(reps=100, seed=1))
        assert entries[0].family == "product"
        edge = [e for e in entries
                if e.fitted.method == "independence_edge"]
        assert sorted(e.family for e in edge) == [
            "clayton", "frank", "gumbel_hougaard", "joe"]
        for e in edge:
            assert e.fitted.model == CopulaModel("product", 3)
            assert e.cckl_to_empirical == entries[0].cckl_to_empirical
