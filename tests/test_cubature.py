import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copulameasures import IntegrationConfig, integrate_unit_cube, xlog_ratio, xlogx
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
