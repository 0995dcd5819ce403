import numpy as np
import pytest
from hypothesis import given, strategies as st

from copulameasures import IntegrationConfig, integrate_unit_cube, xlog_ratio, xlogx
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


def test_deterministic_bit_identical():
    cfg = IntegrationConfig(abs_tol=1e-3)
    f = lambda p: xlogx(p.prod(axis=1))
    assert integrate_unit_cube(f, 5, cfg) == integrate_unit_cube(f, 5, cfg)
    g = lambda p: xlogx(p.min(axis=1))
    assert integrate_unit_cube(g, 2) == integrate_unit_cube(g, 2)


def test_qmc_adaptive_agreement_k3():
    f = lambda p: xlogx(p.prod(axis=1))
    a = integrate_unit_cube(f, 3)
    q = integrate_unit_cube(f, 3, sobol_dim=3)
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
