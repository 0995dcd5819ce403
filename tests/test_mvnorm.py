import numpy as np
import pytest

from copulameasures import (CopulaModel, IntegrationConfig, cce,
                            integrate_unit_cube, mvn_cdf, mvn_cdf_many)
from copulameasures.errors import (CorrelationNotPD, DimensionMismatch,
                                   DimensionUnsupported, ToleranceNotReached)
from copulameasures.mvnorm import tvn_cdf


def density_box_probability(corr, x, lo=-8.5, abs_tol=1e-10, rel_tol=1e-9):
    """Independent oracle: cubature of the normal density over the box."""
    corr = np.asarray(corr, dtype=float)
    k = corr.shape[0]
    prec = np.linalg.inv(corr)
    norm = 1.0 / np.sqrt((2.0 * np.pi) ** k * np.linalg.det(corr))
    lo_v = np.full(k, lo)
    width = np.asarray(x) - lo_v

    def f(p):
        z = lo_v + p * width
        q = np.einsum("ij,jk,ik->i", z, prec, z)
        return norm * np.exp(-0.5 * q) * np.prod(width)

    return integrate_unit_cube(f, k, IntegrationConfig(abs_tol=abs_tol,
                                                       rel_tol=rel_tol)).value


def test_bivariate_arcsin_identity():
    for rho in [-0.999, -0.9, -0.5, 0.0, 0.3, 0.5, 0.9, 0.99, 0.999]:
        exact = 0.25 + np.arcsin(rho) / (2.0 * np.pi)
        got = mvn_cdf(np.array([[1.0, rho], [rho, 1.0]]), [0.0, 0.0])
        assert got.value == pytest.approx(exact, abs=1e-12)


def test_bivariate_against_density_cubature():
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = float(rng.uniform(-0.9, 0.9))
        x = rng.normal(size=2)
        corr = np.array([[1.0, rho], [rho, 1.0]])
        ours = mvn_cdf(corr, x)
        assert ours.value == pytest.approx(
            density_box_probability(corr, x), abs=5e-9)


def test_half_plane_and_independence():
    corr = np.eye(2)
    assert mvn_cdf(corr, [0.0, 0.0]).value == pytest.approx(0.25, abs=1e-14)


def test_comonotone_limit():
    got = mvn_cdf(np.array([[1.0, 1.0 - 1e-17], [1.0 - 1e-17, 1.0]]),
                  [0.0, 0.0])
    assert got.value == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("x,limit", [([np.inf, 0.0], 0.5), ([0.0, np.inf], 0.5),
                                     ([-np.inf, 0.0], 0.0), ([0.0, -np.inf], 0.0)])
def test_bivariate_infinite_coordinate_is_the_limit(x, limit):
    got = mvn_cdf(np.array([[1.0, 0.5], [0.5, 1.0]]), x)
    assert got.value == pytest.approx(limit, abs=1e-15)


def test_one_dimension_unsupported():
    with pytest.raises(DimensionUnsupported):
        mvn_cdf(np.eye(1), [0.0])


def test_point_longer_than_correlation_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mvn_cdf(np.eye(2), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):  # an argument check, as IntegrationConfig's
        mvn_cdf(np.eye(2), [0.0, 0.0], abs_tol=0.0)


def test_measure_failure_carries_no_cdf_estimate():
    # one k=4 CDF value misses 1e-8 within its budget; that value is not
    # an estimate of the measure, so none rides on the error
    model = CopulaModel("gaussian", 4, (0.5, 0.3, 0.4, 0.2, 0.3, 0.5))
    with pytest.raises(ToleranceNotReached) as exc:
        cce(model)
    assert exc.value.estimate is None


def test_trivariate_orthant_identity():
    cases = [(0.5, 0.5, 0.5), (0.1, 0.2, 0.3), (0.7, 0.8, 0.9),
             (-0.3, 0.2, -0.1)]
    for r12, r13, r23 in cases:
        corr = np.array([[1, r12, r13], [r12, 1, r23], [r13, r23, 1]], dtype=float)
        exact = 0.125 + (np.arcsin(r12) + np.arcsin(r13) + np.arcsin(r23)) \
            / (4.0 * np.pi)
        got = tvn_cdf(np.zeros((1, 3)), corr)[0]
        assert got == pytest.approx(exact, abs=1e-12)


def test_trivariate_against_density_cubature():
    corr = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, -0.3], [0.2, -0.3, 1.0]])
    x = np.array([0.5, -0.4, 1.1])
    ours = mvn_cdf(corr, x)
    assert ours.value == pytest.approx(density_box_probability(corr, x),
                                       abs=2e-8)


def test_k4_qmc_against_density_cubature():
    corr = np.eye(4)
    ij = np.triu_indices(4, 1)
    corr[ij] = [0.3, 0.1, 0.2, 0.25, 0.15, 0.05]
    corr.T[ij] = corr[ij]
    x = np.array([0.2, 0.5, -0.3, 0.8])
    ours = mvn_cdf(corr, x, abs_tol=5e-7)
    ref = density_box_probability(corr, x, abs_tol=1e-8, rel_tol=1e-8)
    assert ours.value == pytest.approx(ref, abs=2e-6)
    assert ours.error <= 5e-7
    again = mvn_cdf(corr, x, abs_tol=5e-7)
    assert again == ours  # deterministic internal seed


def test_vectorized_matches_scalar():
    corr = np.array([[1.0, 0.6, 0.2], [0.6, 1.0, 0.4], [0.2, 0.4, 1.0]])
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 3))
    many = mvn_cdf_many(corr, X)
    for i in range(0, 40, 7):
        assert many[i] == pytest.approx(mvn_cdf(corr, X[i]).value, abs=1e-9)


def test_not_positive_definite_rejected():
    bad = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
    with pytest.raises(CorrelationNotPD):
        mvn_cdf(bad, [0.0, 0.0, 0.0])
    with pytest.raises(CorrelationNotPD):
        mvn_cdf(np.array([[1.0, 0.5], [0.4, 1.0]]), [0.0, 0.0])


@pytest.mark.parametrize("corr", [
    [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0]],
    [[1.0, np.nan], [np.nan, 1.0]],
    [[1.0, np.inf], [np.inf, 1.0]],
    [[np.nan, 0.5], [0.5, 1.0]],
    [[1.0, 1.5], [1.5, 1.0]],
])
def test_bivariate_malformed_correlation_rejected(corr):
    with pytest.raises(CorrelationNotPD):
        mvn_cdf(np.array(corr), [0.0, 0.0])


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("where", [0, -1])
def test_nan_score_rejected(k, where):
    x = np.zeros(k)
    x[where] = np.nan
    with pytest.raises(ValueError):
        mvn_cdf(np.eye(k), x)
