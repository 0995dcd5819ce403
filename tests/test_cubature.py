import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copulameasures import (CopulaModel as C, Estimate, IntegrationConfig,
                            MixtureCopula, b_k, cce, ccigf, cckl, fcce,
                            integrate_unit_cube, xlog_ratio, xlogx)
from copulameasures.cubature import (_QMC_FIRST_BATCH, _QMC_SEED, _grid_axis,
                                     _integrate_qmc)
from copulameasures.errors import (DimensionUnsupported, NonFiniteIntegrand,
                                   ToleranceNotReached)


def test_constant_is_exact():
    est = integrate_unit_cube(lambda p: np.ones(len(p)), 3)
    assert est.value == pytest.approx(1.0, abs=1e-14)
    assert est.error <= 1e-12


def test_separable_polynomial():
    est = integrate_unit_cube(lambda p: p.prod(axis=1), 2)
    assert est.value == pytest.approx(0.25, abs=1e-12)


def test_product_entropy_integrand():
    est = integrate_unit_cube(lambda p: xlogx(p.prod(axis=1)), 2)
    assert est.value == pytest.approx(0.25, abs=1e-7)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_monomials_up_to_degree_five_exact(k):
    rng = np.random.default_rng(k)
    for _ in range(10):
        powers = np.zeros(k, dtype=int)
        budget = 5
        for j in range(k):
            powers[j] = rng.integers(0, budget + 1)
            budget -= powers[j]
        exact = np.prod(1.0 / (powers + 1.0))
        est = integrate_unit_cube(lambda p: (p ** powers).prod(axis=1), k)
        assert abs(est.value - exact) < 1e-12


def test_exact_polynomial_within_its_error():
    """The rule integrates u_1^3 exactly but for rounding, which the error
    must still cover: 0.24999999999999992 against 0.25."""
    for k in (2, 3):
        est = integrate_unit_cube(lambda p: p[:, 0] ** 3, k)
        assert abs(est.value - 0.25) <= est.error <= 1e-12


class TestSymmetricFold:
    """A symmetric integrand folded onto the ordered simplex."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_kinked_min_entropy(self, k):
        exact = k * sum(math.comb(k - 1, x) * (-1.0) ** x / (x + 2.0) ** 2
                        for x in range(k))
        f = lambda p: xlogx(p.min(axis=1))
        folded = integrate_unit_cube(f, k, symmetric=True)
        assert abs(folded.value - exact) <= folded.error
        assert folded.error <= max(1e-7, 1e-6 * exact)
        assert folded.evals < integrate_unit_cube(f, k).evals / 10

    def test_starts_from_the_half_cubes(self):
        """A constant stops at the first step: 2^k regions of 57 points at k = 4."""
        est = integrate_unit_cube(lambda p: np.ones(len(p)), 4, symmetric=True)
        assert est.value == pytest.approx(1.0, abs=1e-14)
        assert est.evals == 16 * 57


def test_deterministic_bit_identical():
    cfg = IntegrationConfig(abs_tol=1e-3)
    f = lambda p: xlogx(p.prod(axis=1))
    assert integrate_unit_cube(f, 5, cfg) == integrate_unit_cube(f, 5, cfg)
    g = lambda p: xlogx(p.min(axis=1))
    assert integrate_unit_cube(g, 2) == integrate_unit_cube(g, 2)


def test_qmc_adaptive_agreement_k3():
    f = lambda p: xlogx(p.prod(axis=1))
    a = integrate_unit_cube(f, 3)
    q = _integrate_qmc(f, 3, _QMC_SEED, _QMC_FIRST_BATCH, 1e-4, 1e-6, 10_000_000)
    assert abs(a.value - q.value) <= 3.0 * (a.error + q.error)


def test_tolerance_not_reached_carries_estimate():
    # highly oscillatory, tiny budget
    f = lambda p: np.cos(200.0 * p.sum(axis=1))
    with pytest.raises(ToleranceNotReached) as exc:
        integrate_unit_cube(f, 2, IntegrationConfig(
            abs_tol=1e-14, rel_tol=1e-14, max_evals=2000))
    est = exc.value.estimate
    assert est is not None and est.evals <= 2000


def test_non_finite_integrand_raises():
    def f(p):
        out = p.prod(axis=1)
        out[0] = np.nan
        return out
    with pytest.raises(NonFiniteIntegrand):
        integrate_unit_cube(f, 2)


def test_dimension_range_enforced():
    with pytest.raises(DimensionUnsupported):
        integrate_unit_cube(lambda p: np.ones(len(p)), 1)
    with pytest.raises(DimensionUnsupported):
        integrate_unit_cube(lambda p: np.ones(len(p)), 9)


def _tensor(g, k):
    """g of the points of the grid x^k, as the grid integrand."""
    return lambda x: g(np.stack(np.meshgrid(*[x] * k, indexing="ij"), axis=-1))


def _product_entropy(p):
    return xlogx(p.prod(axis=-1))


# k at which each engine runs in the tests below; the grid only when the
# integrand is also given on the tensor grid
_ENGINE_DIM = {"grid": 2, "subdivision": 3, "sobol": 5}


def _on_engine(engine, g, cfg=None):
    """Integrate g, a function of points (..., k), on ``engine``."""
    k = _ENGINE_DIM[engine]
    if engine == "grid":
        return integrate_unit_cube(None, k, cfg, on_grid=_tensor(g, k))
    return integrate_unit_cube(g, k, cfg)


def _min_entropy(p):
    return xlogx(p.min(axis=-1))


_CA3 = C("cuadras_auge", 3, (0.3, 0.5, 0.7))
# Subdivision pins: each case with its (value, error, evals) at the default
# tolerance and at abs_tol 1e-5, compared exactly.  They cover every family
# but min and Cuadras-Auge unfolded at k = 2-4, those two and their mixture
# folded at k = 2-4, cckl pairs both unfolded and folded, and raw
# integrands.  A rewrite of the subdivision engine that keeps its outputs
# keeps these.
_SUBDIVISION_PINS = {
    "clayton2-cce": (
        lambda cfg: cce(C("clayton", 2, (2.0,)), cfg),
        (0.28191366610113566, 2.369292851293513e-07, 3077),
        (0.28191452439371795, 9.736266564635047e-06, 1003)),
    "frank2-bk": (
        lambda cfg: b_k(C("frank", 2, (-3.0,)), cfg),
        (0.2126070807518324, 1.8449545694296634e-07, 731),
        (0.21260707155796604, 9.40032347453222e-06, 221)),
    "gaussian2-fcce": (
        lambda cfg: fcce(C("gaussian", 2, (0.5,)), 0.5, cfg),
        (0.2644290643876184, 2.0768286052750545e-07, 3859),
        (0.26442879480715253, 8.59117008591184e-06, 901)),
    "marshall_olkin2-ccigf": (
        lambda cfg: ccigf(C("marshall_olkin", 2, (0.3, 0.6)), 2.0, cfg),
        (0.12820513337926817, 1.1308569896146357e-07, 19771),
        (0.12820585203839135, 9.307079032047817e-06, 2159)),
    "fgm2-cce": (
        lambda cfg: cce(C("fgm", 2, (0.4,)), cfg),
        (0.2568763973372591, 2.43832769858915e-07, 1547),
        (0.2568763153396185, 6.979885129962762e-06, 663)),
    "gumbel_barnett2-fcce": (
        lambda cfg: fcce(C("gumbel_barnett", 2, (0.5,)), 0.5, cfg),
        (0.21023135997273446, 1.9250542951782656e-07, 2431),
        (0.21023130521262182, 8.364372202333478e-06, 663)),
    "nelsen_4212_2-bk": (
        lambda cfg: b_k(C("nelsen_4212", 2, (2.0,)), cfg),
        (0.320621856661045, 2.6584273177846495e-07, 2737),
        (0.32062212102348053, 9.294360773085149e-06, 901)),
    "lower_bound_w2-bk": (
        lambda cfg: b_k(C("lower_bound_w", 2), cfg),
        (0.1666666573503841, 1.4495666381512303e-07, 56797),
        (0.1666660264943845, 9.498376804806964e-06, 6919)),
    "gumbel3-cce": (
        lambda cfg: cce(C("gumbel_hougaard", 3, (1.5,)), cfg),
        (0.23413340132038135, 2.250195244027853e-07, 61281),
        (0.23413318684815485, 9.562804107457988e-06, 7491)),
    "joe3-ccigf": (
        lambda cfg: ccigf(C("joe", 3, (1.8,)), 2.0, cfg),
        (0.05992532820508651, 9.05969306817596e-08, 24057),
        (0.05992544751113801, 9.570993246855997e-06, 1551)),
    "gaussian3-bk": (
        lambda cfg: b_k(C("gaussian", 3, (0.5, 0.3, 0.4)), cfg),
        (0.1731130503394966, 1.6991081490243764e-07, 43131),
        (0.17311246657490761, 9.991477288065644e-06, 1749)),
    "product3-fcce": (
        lambda cfg: fcce(C("product", 3), 0.5, cfg),
        (0.1468727538637833, 1.4127339931714416e-07, 11979),
        (0.14687399753189256, 9.373495537699436e-06, 2145)),
    "clayton4-cce": (
        lambda cfg: cce(C("clayton", 4, (1.0,)), cfg),
        (0.22508715401758908, 1.9944586096693196e-07, 474297),
        (0.22508794501122514, 8.014530937292088e-06, 83733)),
    "frank4-fcce": (
        lambda cfg: fcce(C("frank", 4, (2.0,)), 0.5, cfg),
        (0.12745361582131165, 1.1900117339850824e-07, 214149),
        (0.12745264879930848, 9.289402663801579e-06, 8151)),
    "ca2-cce": (
        lambda cfg: cce(C("cuadras_auge", 2, (0.4,)), cfg),
        (0.2623456795264004, 2.0786014258545858e-07, 1326),
        (0.2623457519412011, 7.191237771535784e-06, 374)),
    "min3-fcce": (
        lambda cfg: fcce(C("min", 3), 0.5, cfg),
        (0.248994007442297, 2.226988810237559e-07, 13200),
        (0.24899510224808677, 9.386691591177821e-06, 1914)),
    "ca3-cce": (
        lambda cfg: cce(_CA3, cfg),
        (0.22416876941904407, 2.0299441072068862e-07, 9240),
        (0.22417329549401244, 9.541905911100803e-06, 1056)),
    "min4-cce": (
        lambda cfg: cce(C("min", 4), cfg),
        (0.25666666955430056, 2.5431610097540625e-07, 168492),
        (0.2566675281144123, 8.538234562227091e-06, 13680)),
    "ca4-bk": (
        lambda cfg: b_k(C("cuadras_auge", 4, (0.2, 0.4, 0.6, 0.3, 0.5, 0.7)), cfg),
        (0.10196361496309858, 9.383356999798035e-08, 82878),
        (0.10196344745554095, 9.988268354967328e-06, 7296)),
    "min-ca-mixture3-ccigf": (
        lambda cfg: ccigf(MixtureCopula((C("min", 3), _CA3), (0.4, 0.6)), 2.0, cfg),
        (0.07081593651920275, 8.930223265959574e-08, 16698),
        (0.07081561629196081, 9.32793436291547e-06, 1188)),
    "cckl-clayton2-frank2": (
        lambda cfg: cckl(C("clayton", 2, (2.0,)), C("frank", 2, (-3.0,)), cfg),
        (0.05612016809788023, 6.480300621908899e-08, 3077),
        (0.05612029891023279, 6.816984003022439e-06, 731)),
    "cckl-ca3-frank3": (
        lambda cfg: cckl(_CA3, C("frank", 3, (4.0,)), cfg),
        (0.0027719234800994324, 9.565697900643477e-08, 494241),
        (0.0027710849481176747, 9.243021558589682e-06, 19041)),
    "cckl-min3-ca3": (
        lambda cfg: cckl(C("min", 3), _CA3, cfg),
        (0.0286358194820018, 7.110501542456142e-08, 3960),
        (0.02863574743704125, 7.944640477765852e-06, 594)),
    "min-entropy-k2": (
        lambda cfg: integrate_unit_cube(_min_entropy, 2, cfg),
        (0.27777777133537646, 2.0437417450301202e-07, 35513),
        (0.2777776290202904, 7.622787943840069e-06, 6171)),
    "product-entropy-k3": (
        lambda cfg: integrate_unit_cube(_product_entropy, 3, cfg),
        (0.1874999991458084, 1.632567556190099e-07, 16929),
        (0.18749994577491863, 7.09309347718672e-06, 3729)),
    "product-entropy-k3-folded": (
        lambda cfg: integrate_unit_cube(_product_entropy, 3, cfg, symmetric=True),
        (0.1875000059809709, 1.6040850506815266e-07, 10428),
        (0.18750068657000635, 9.775451639009584e-06, 1518)),
}


@pytest.mark.parametrize("name", list(_SUBDIVISION_PINS))
def test_subdivision_pins(name):
    case, *pins = _SUBDIVISION_PINS[name]
    for abs_tol, pin in zip((None, 1e-5), pins):
        est = case(IntegrationConfig(abs_tol=abs_tol))
        assert (est.value, est.error, est.evals) == pin


def test_subdivision_pin_under_budget():
    with pytest.raises(ToleranceNotReached) as exc:
        integrate_unit_cube(_min_entropy, 4, IntegrationConfig(max_evals=20_000))
    assert exc.value.estimate == Estimate(0.25689597949654897,
                                          0.0013143471915133887, 19893)


@pytest.mark.parametrize("engine", list(_ENGINE_DIM))
class TestEveryEngine:
    """One integrand check and one stopping rule, whatever the engine."""

    def test_wrong_shape_raises(self, engine):
        with pytest.raises(ValueError, match="shape"):
            _on_engine(engine, lambda p: p)

    def test_budget_holds(self, engine):
        def wave(p):
            return np.cos(40.0 * p.sum(axis=-1))
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, max_evals=100_000)
        with pytest.raises(ToleranceNotReached) as exc:
            _on_engine(engine, wave, cfg)
        assert 0 < exc.value.estimate.evals <= 100_000


def test_sobol_budget_below_the_first_round_carries_no_estimate():
    # the first round is 1024 points under each of 16 randomizations
    with pytest.raises(ToleranceNotReached) as exc:
        integrate_unit_cube(lambda p: p.prod(axis=1), 5,
                            IntegrationConfig(max_evals=10_000))
    assert exc.value.estimate is None


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "max_evals"])
@pytest.mark.parametrize("value", [np.nan, 0])
def test_config_rejects_nan_and_nonpositive_limits(field, value):
    with pytest.raises(ValueError):
        IntegrationConfig(**{field: value})


@pytest.mark.parametrize("budget", [5000.0, np.inf])
def test_config_rejects_a_budget_that_is_not_an_integer(budget):
    # a float budget would fail untyped inside subdivision, and an
    # infinite one would let an unreachable tolerance refine until memory
    # runs out
    with pytest.raises(ValueError, match="max_evals must be an integer"):
        IntegrationConfig(max_evals=budget)
    assert IntegrationConfig(max_evals=np.int64(5000)).max_evals == 5000


class TestGrid:
    """The tensor-grid engine, which runs when the caller passes the
    integrand on a grid and k <= 3; such an integrand runs Sobol above."""

    @pytest.mark.parametrize("k,exact", [(2, 0.25), (3, 3.0 / 16.0)])
    @pytest.mark.parametrize("abs_tol", [1e-6, None])
    def test_product_entropy_within_error(self, k, exact, abs_tol):
        est = integrate_unit_cube(None, k, IntegrationConfig(abs_tol=abs_tol),
                                  on_grid=_tensor(_product_entropy, k))
        assert abs(est.value - exact) <= est.error <= (abs_tol or 1e-7)

    def test_levels_refine_one_rule(self):
        for level in range(5):
            x, w = _grid_axis(level)
            assert np.all((x > 0.0) & (x < 1.0)) and np.all(w > 0.0)
            assert w.sum() == pytest.approx(1.0, abs=1e-14)
            assert len(_grid_axis(level + 1)[0]) > len(x)

    def test_budget_carries_the_best_estimate(self):
        def wave(p):
            return np.cos(200.0 * p.sum(axis=-1))
        cfg = IntegrationConfig(abs_tol=1e-14, rel_tol=1e-14, max_evals=10_000)
        with pytest.raises(ToleranceNotReached) as exc:
            integrate_unit_cube(None, 2, cfg, on_grid=_tensor(wave, 2))
        est = exc.value.estimate
        assert est is not None and 0 < est.evals <= 10_000
        with pytest.raises(ToleranceNotReached) as exc:
            integrate_unit_cube(None, 3, IntegrationConfig(max_evals=1_000),
                                on_grid=_tensor(wave, 3))
        assert exc.value.estimate is None

    def test_non_finite_raises(self):
        def bad(p):
            out = p.prod(axis=-1)
            out[0, 0] = np.inf
            return out
        with pytest.raises(NonFiniteIntegrand):
            integrate_unit_cube(None, 2, on_grid=_tensor(bad, 2))

    def test_grid_ignored_from_k4(self):
        """From k = 4 a grid-form integrand runs Sobol, not subdivision."""
        def f(p):
            return _product_entropy(p)
        got = integrate_unit_cube(f, 4, on_grid=_tensor(f, 4))
        assert got == _integrate_qmc(f, 4, _QMC_SEED, _QMC_FIRST_BATCH,
                                     1e-4, 1e-6, 10_000_000)
        assert got != integrate_unit_cube(f, 4)


class TestXlogx:
    def test_conventions(self):
        assert xlogx(0.0) == 0.0
        assert xlogx(1.0) == 0.0
        assert xlogx(np.exp(-1.0)) == pytest.approx(np.exp(-1.0), abs=1e-15)

    @given(st.floats(min_value=-0.5, max_value=1.5, allow_nan=False))
    def test_range_with_clamping(self, c):
        v = xlogx(c)
        assert 0.0 <= v <= np.exp(-1.0) + 1e-15


class TestXlogRatio:
    def test_conventions(self):
        assert xlog_ratio(0.0, 0.3) == pytest.approx(0.3)
        assert xlog_ratio(0.5, 0.5) == 0.0
        assert xlog_ratio(0.7, 0.7) == 0.0
        assert xlog_ratio(0.5, 0.25) == pytest.approx(
            0.5 * np.log(2.0) - 0.25, abs=1e-15)
        assert np.isinf(xlog_ratio(0.5, 0.0))
        assert xlog_ratio(0.0, 0.0) == 0.0

    def test_pointwise_nonnegative_bulk(self):
        rng = np.random.default_rng(42)
        c1 = rng.random(10 ** 6)
        c2 = rng.random(10 ** 6)
        c2 = np.maximum(c2, 1e-12)
        assert xlog_ratio(c1, c2).min() >= -1e-15

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=1e-10, max_value=1))
    def test_pointwise_nonnegative(self, c1, c2):
        assert xlog_ratio(c1, c2) >= -1e-15
