import math

import numpy as np
import pytest

from copulameasures import (
    CopulaModel,
    EmpiricalBetaCopula,
    Estimate,
    IntegrationConfig,
    MixtureCopula,
    b_k,
    cce,
    ccigf,
    cckl,
    closed_form_bk,
    closed_form_cce,
    closed_form_cckl,
    closed_form_ccigf,
    closed_form_fcce,
    concordance_leq_on_grid,
    fcce,
    integrate_unit_cube,
    rank_with_random_ties,
    spearman_rho_minus,
    xlog_ratio,
    xlogx,
)
from copulameasures.errors import (
    DimensionMismatch,
    DimensionUnsupported,
    DivergenceInfinite,
    NoClosedForm,
)
from copulameasures.measures import _fractional_entropy

P2 = CopulaModel("product", 2)
P3 = CopulaModel("product", 3)
M2 = CopulaModel("min", 2)
M3 = CopulaModel("min", 3)
W = CopulaModel("lower_bound_w", 2)


class TestCce:
    def test_product(self):
        assert cce(P2).value == pytest.approx(0.25, abs=1e-6)
        assert cce(P3).value == pytest.approx(0.1875, abs=1e-6)

    def test_min(self):
        assert cce(M2).value == pytest.approx(5.0 / 18.0, abs=1e-6)

    def test_published_remark_values(self):
        nelsen = CopulaModel("nelsen_4212", 2, (2.0,))
        assert cce(nelsen).value == pytest.approx(0.2790, abs=2e-4)
        assert cce(M2).value == pytest.approx(0.2777, abs=1e-4)

    def test_dimension_beyond_cubature_is_typed(self):
        # a valid model at k = 9, one past the cubature's range
        with pytest.raises(DimensionUnsupported):
            cce(CopulaModel("product", 9))


class TestFcce:
    def test_lower_bound_half_order(self):
        want = math.gamma(1.5) * (2.0 ** -1.5 - 3.0 ** -1.5)
        assert fcce(W, 0.5).value == pytest.approx(want, abs=1e-6)
        assert closed_form_fcce(W, 0.5) == pytest.approx(want, rel=1e-14)

    def test_reduces_to_cce_at_one(self):
        m = CopulaModel("clayton", 2, (2.0,))
        a, b = fcce(m, 1.0), cce(m)
        assert a.value == pytest.approx(b.value, abs=a.error + b.error + 1e-9)

    def test_reduces_to_mean_at_zero(self):
        m = CopulaModel("frank", 2, (3.0,))
        assert fcce(m, 0.0).value == pytest.approx(b_k(m).value, abs=1e-9)

    def test_product_trivariate_half_order(self):
        want = math.gamma(3.5) / (2.0 * 2.0 ** 3.5)
        assert fcce(P3, 0.5).value == pytest.approx(want, abs=2e-6)
        assert closed_form_fcce(P3, 0.5) == pytest.approx(want, rel=1e-14)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            fcce(P2, 1.5)


class TestCcigf:
    def test_product(self):
        assert ccigf(P2, 2.0).value == pytest.approx(1.0 / 9.0, abs=1e-8)

    def test_min_is_upper_bound_value(self):
        assert ccigf(M2, 3.0).value == pytest.approx(0.1, abs=1e-7)

    def test_w_is_lower_bound_value(self):
        assert ccigf(W, 2.0).value == pytest.approx(1.0 / 12.0, abs=1e-8)

    def test_at_one_equals_mean(self):
        m = CopulaModel("gaussian", 2, (0.5,))
        assert ccigf(m, 1.0).value == pytest.approx(b_k(m).value, abs=1e-9)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            ccigf(P2, 0.0)

    def test_nan_order_rejected(self):
        with pytest.raises(ValueError):
            ccigf(CopulaModel("clayton", 2, (1.0,)), np.nan)
        with pytest.raises(ValueError):
            closed_form_ccigf(P2, np.nan)


class TestSpearman:
    def test_product_is_zero(self):
        assert spearman_rho_minus(P2).value == pytest.approx(0.0, abs=1e-6)
        assert spearman_rho_minus(P3).value == pytest.approx(0.0, abs=1e-5)

    def test_min_is_one(self):
        # oracle: int M = k beta(2, k) = 1/(k+1) via the order-statistic
        # density k u (1-u)^(k-1), checked by 1-d quadrature
        from scipy.integrate import quad
        for m, k in ((M2, 2), (M3, 3)):
            v, _ = quad(lambda u, k=k: u * k * (1 - u) ** (k - 1), 0, 1)
            assert v == pytest.approx(1.0 / (k + 1), abs=1e-12)
            assert spearman_rho_minus(m).value == pytest.approx(1.0, abs=2e-5)

    def test_w_is_minus_one(self):
        assert spearman_rho_minus(W).value == pytest.approx(-1.0, abs=1e-6)


class TestBk:
    def test_examples(self):
        assert b_k(P3).value == pytest.approx(0.125, abs=1e-8)
        assert b_k(M2).value == pytest.approx(1.0 / 3.0, abs=1e-7)
        fgm = CopulaModel("fgm", 2, (1.0,))
        assert b_k(fgm).value == pytest.approx(5.0 / 18.0, abs=1e-8)
        assert closed_form_bk(fgm) == pytest.approx(5.0 / 18.0, rel=1e-12)

    @pytest.mark.parametrize("theta,want", [(0.05, 0.2469503332735722),
                                            (0.3, 0.23356968666335262),
                                            (1.0, 0.2063456499010558)])
    def test_gumbel_barnett_closed_form(self, theta, want):
        # want: 30-digit mpmath of int_0^inf int_0^inf e^(-2a-2b-theta ab)
        gb = CopulaModel("gumbel_barnett", 2, (theta,))
        assert closed_form_bk(gb) == pytest.approx(want, rel=0, abs=3e-17)


class TestCckl:
    def test_lower_bound_vs_product(self):
        # the definition forces 1/18 here: the cross integral is -1/36
        est = cckl(W, P2)
        assert est.value == pytest.approx(closed_form_cckl(W, P2), abs=1e-6)
        assert est.value == pytest.approx(1.0 / 18.0, abs=1e-6)

    def test_self_divergence_zero(self):
        for m in (P2, M2, CopulaModel("clayton", 2, (2.0,))):
            est = cckl(m, m)
            assert abs(est.value) <= max(est.error, 1e-10)

    def test_product_vs_gumbel_barnett(self):
        gb = CopulaModel("gumbel_barnett", 2, (1.0,))
        closed = closed_form_cckl(P2, gb)
        assert closed == pytest.approx(0.0189, abs=1e-4)
        assert cckl(P2, gb).value == pytest.approx(closed, abs=1e-4)

    def test_product_vs_min(self):
        assert closed_form_cckl(P2, M2) == pytest.approx(1.0 / 48.0, rel=1e-12)
        assert cckl(P2, M2).value == pytest.approx(1.0 / 48.0, abs=1e-5)
        assert cckl(P3, M3).value == pytest.approx(
            closed_form_cckl(P3, M3), abs=1e-5)

    def test_cuadras_auge_vs_min(self):
        ca = CopulaModel("cuadras_auge", 2, (0.4,))
        assert cckl(ca, M2).value == pytest.approx(
            closed_form_cckl(ca, M2), abs=1e-5)

    def test_nonnegative(self):
        est = cckl(CopulaModel("frank", 2, (3.0,)),
                   CopulaModel("clayton", 2, (1.0,)))
        assert est.value >= -est.error

    def test_divergence_infinite(self):
        with pytest.raises(DivergenceInfinite):
            cckl(P2, W)
        with pytest.raises(DivergenceInfinite):
            cckl(P2, CopulaModel("clayton", 2, (-0.5,)))

    def test_mixture_zero_region_is_where_every_component_vanishes(self):
        # W and Clayton(-0.5) both vanish near the origin, so their mixture
        # does; the product's mass fills the mixture of W and itself
        with pytest.raises(DivergenceInfinite):
            cckl(P2, MixtureCopula((W, CopulaModel("clayton", 2, (-0.5,))),
                                   (0.5, 0.5)))
        est = cckl(P2, MixtureCopula((W, P2), (0.5, 0.5)))
        assert est.value == pytest.approx(0.0112861, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cckl(P2, P3)


class TestConcordanceGrid:
    def test_frechet_bounds(self):
        assert concordance_leq_on_grid(W, M2)
        assert not concordance_leq_on_grid(M2, W)

    def test_entropy_order_counterexample(self):
        nelsen = CopulaModel("nelsen_4212", 2, (2.0,))
        assert concordance_leq_on_grid(nelsen, M2, grid_pts=33)
        assert cce(nelsen).value > cce(M2).value

    @pytest.mark.parametrize("grid_pts", [0, 1, 2, 3.0, 17.5])
    def test_grid_without_interior_node_rejected(self, grid_pts):
        # 0, 1 or 2 points an axis leave no interior node, so every pair
        # would pass, M <= W among them
        with pytest.raises(ValueError):
            concordance_leq_on_grid(M2, W, grid_pts=grid_pts)

    def test_grid_too_large(self):
        with pytest.raises(ValueError):
            concordance_leq_on_grid(P3, P3, grid_pts=272)


class TestClosedFormCcigf:
    def test_cuadras_auge_reduces_to_product(self):
        ca = CopulaModel("cuadras_auge", 2, (0.0,))
        assert closed_form_ccigf(ca, 2.0) == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_cuadras_auge_reduces_to_min(self):
        ca = CopulaModel("cuadras_auge", 2, (1.0,))
        assert closed_form_ccigf(ca, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_fgm_example(self):
        fgm = CopulaModel("fgm", 2, (0.5,))
        assert closed_form_ccigf(fgm, 1.0) == pytest.approx(
            0.25 + 0.5 / 36.0, rel=1e-12)

    def test_marshall_olkin_min_limit(self):
        mo = CopulaModel("marshall_olkin", 2, (1.0, 1.0))
        assert closed_form_ccigf(mo, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_no_closed_form(self):
        with pytest.raises(NoClosedForm):
            closed_form_ccigf(CopulaModel("frank", 2, (3.0,)), 1.0)
        with pytest.raises(NoClosedForm):
            closed_form_cce(CopulaModel("gaussian", 2, (0.5,)))


class TestMeasuresOfEmpirical:
    def test_min_copula_trivariate_entropy(self):
        got = cce(M3, IntegrationConfig(abs_tol=1e-6))
        assert got.value == pytest.approx(closed_form_cce(M3), abs=1e-5)


class TestEvaluationCounts:
    """Every measure returns the cubature Estimate, evaluation count
    included, for the same integrand and configuration."""

    MODEL = CopulaModel("clayton", 2, (1.5,))
    CFG = IntegrationConfig(abs_tol=1e-6)

    @pytest.mark.parametrize("measure,order,transform", [
        (cce, (), xlogx),
        (fcce, (0.5,),
         lambda c: c * np.maximum(-np.log(np.maximum(c, 1e-300)), 0.0) ** 0.5),
        (ccigf, (1.5,), lambda c: c ** 1.5),
        (b_k, (), lambda c: c),
    ], ids=["cce", "fcce", "ccigf", "b_k"])
    def test_cdf_measures(self, measure, order, transform):
        est = measure(self.MODEL, *order, self.CFG)
        direct = integrate_unit_cube(
            lambda U: transform(self.MODEL.cdf_many(U)), 2, self.CFG)
        assert isinstance(est, Estimate)
        assert est.evals == direct.evals > 0
        assert est.value == pytest.approx(direct.value, rel=1e-12)

    def test_cckl(self):
        other = CopulaModel("gaussian", 2, (0.4,))
        est = cckl(self.MODEL, other, self.CFG)
        direct = integrate_unit_cube(
            lambda U: xlog_ratio(self.MODEL.cdf_many(U),
                                 np.maximum(other.cdf_many(U), 1e-300)),
            2, self.CFG)
        assert isinstance(est, Estimate)
        assert est.evals == direct.evals > 0
        assert est.value == pytest.approx(direct.value, rel=1e-12)

    def test_spearman_carries_b_k_evals(self):
        model = CopulaModel("gaussian", 3, (0.5, 0.3, 0.4))
        assert spearman_rho_minus(model).evals == b_k(model).evals > 0


def _sweep_models():
    """min and Cuadras-Auge at k = 2 to 4, the latter's weights drawn
    from seed 7."""
    rng = np.random.default_rng(7)
    return ([CopulaModel("min", k) for k in (2, 3, 4)]
            + [CopulaModel("cuadras_auge", k, tuple(rng.random(k * (k - 1) // 2)))
               for k in (2, 3, 4)])


# stat: (measure(model, cfg), closed form(model)); fcce's closed form
# covers min alone
_SWEEP_STATS = {
    "cce": (cce, closed_form_cce),
    "bk": (b_k, closed_form_bk),
    "ccigf:2": (lambda m, cfg: ccigf(m, 2.0, cfg),
                lambda m: closed_form_ccigf(m, 2.0)),
    "ccigf:0.5": (lambda m, cfg: ccigf(m, 0.5, cfg),
                  lambda m: closed_form_ccigf(m, 0.5)),
    "fcce:0.5": (lambda m, cfg: fcce(m, 0.5, cfg),
                 lambda m: closed_form_fcce(m, 0.5)),
}


class TestDiagonalKinksSweep:
    """The families kinked only where two coordinates meet, folded onto
    the ordered simplex, against their closed forms: every estimate lies
    within its error, at the default tolerance, 1e-6 and 1e-5."""

    TOLS = (None, 1e-6, 1e-5)

    def test_every_estimate_within_its_error(self):
        misses = []
        for model in _sweep_models():
            for stat, (measure, exact) in _SWEEP_STATS.items():
                if stat == "fcce:0.5" and model.family != "min":
                    continue
                for tol in self.TOLS:
                    est = measure(model, IntegrationConfig(abs_tol=tol))
                    if not abs(est.value - exact(model)) <= est.error:
                        misses.append((model, stat, tol, est))
        assert not misses

    def test_cuadras_auge_divergence_from_min(self):
        for model in _sweep_models()[3:]:
            exact = closed_form_cckl(model, CopulaModel("min", model.dim))
            for tol in self.TOLS:
                est = cckl(model, CopulaModel("min", model.dim),
                           IntegrationConfig(abs_tol=tol))
                assert abs(est.value - exact) <= est.error

    def test_cuadras_auge_k4_entropy(self):
        """The sweep's case that ran out of the 10M-evaluation budget on
        the unfolded cube."""
        model = _sweep_models()[-1]
        est = cce(model)
        assert abs(est.value - closed_form_cce(model)) <= est.error
        assert est.error <= max(1e-7, 1e-6 * est.value)


class TestOrderOneIdentities:
    """cce is fcce at r = 1 and b_k is ccigf at s = 1, bit for bit in
    value, error and evaluations, and so are their closed forms."""

    CFG = IntegrationConfig(abs_tol=1e-6)
    BETA_CFG = IntegrationConfig(abs_tol=1e-4)

    def test_measures(self, zoo):
        # beta copulas of Clayton samples, N = 40, at k = 2, 3 and 4
        betas = [EmpiricalBetaCopula(rank_with_random_ties(
            CopulaModel("clayton", k, (1.5,)).sample(40, seed=k), tie_seed=1))
            for k in (2, 3, 4)]
        for model, cfg in ([(m, self.CFG) for m in zoo]
                           + [(b, self.BETA_CFG) for b in betas]):
            assert cce(model, cfg) == fcce(model, 1.0, cfg), model
            assert b_k(model, cfg) == ccigf(model, 1.0, cfg), model

    def test_closed_forms(self):
        for model in ([CopulaModel(fam, k) for fam in ("product", "min")
                       for k in range(2, 9)] + [W]):
            assert closed_form_cce(model) == closed_form_fcce(model, 1.0), model

    @pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.0])
    def test_fractional_entropy_integrand(self, r):
        c = np.concatenate([[0.0, 5e-324, 1e-300, np.exp(-1.0), 1.0],
                            np.random.default_rng(5).random(1000)])
        want = np.zeros_like(c)
        pos = c > 0.0
        want[pos] = c[pos] * (-np.log(c[pos])) ** r
        assert np.array_equal(_fractional_entropy(c, r), want)
        if r == 1.0:
            assert np.array_equal(xlogx(c), want)
