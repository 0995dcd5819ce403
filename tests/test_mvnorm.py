import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from copulameasures import (CopulaModel, IntegrationConfig, cce,
                            integrate_unit_cube, mvn_cdf, mvn_cdf_many, mvnorm)
from copulameasures.errors import (CorrelationNotPD, DimensionMismatch,
                                   DimensionUnsupported, ToleranceNotReached)
from copulameasures.fit import nearest_pd_correlation
from copulameasures.mvnorm import _tvn_plan, bvn_cdf, tvn_cdf


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


def test_countermonotone_limit():
    # Z2 = -Z1: P(-x2 <= Z1 <= x1), zero where the interval is empty
    from scipy.stats import norm
    x1 = np.array([-1.0, 0.0, 0.3, 1.2, -3.0, 2.5])
    x2 = np.array([0.5, 0.0, 0.8, -0.1, 2.0, 2.5])
    want = np.maximum(norm.cdf(x1) - norm.cdf(-x2), 0.0)
    assert np.allclose(bvn_cdf(x1, x2, -1.0), want, rtol=0, atol=1e-15)
    assert want[2:4].min() > 0.3 and want[[0, 1, 4]].max() == 0.0


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
    for abs_tol in (0.0, np.nan):
        with pytest.raises(ValueError):  # an argument check, as IntegrationConfig's
            mvn_cdf(np.eye(2), [0.0, 0.0], abs_tol=abs_tol)


def test_measure_failure_carries_no_cdf_estimate():
    # one k=4 CDF value misses 1e-8 within its budget; that value is not
    # an estimate of the measure, so none rides on the error
    model = CopulaModel("gaussian", 4, (0.5, 0.3, 0.4, 0.2, 0.3, 0.5))
    with pytest.raises(ToleranceNotReached) as exc:
        cce(model)
    assert exc.value.estimate is None
    # the CDF value itself stopped within its 1,000,000-evaluation budget
    assert exc.value.__cause__.estimate.evals <= 1_000_000


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


def corr3(r12, r13, r23):
    return np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])


def plackett_tvn(x, r12, r13, r23):
    """Independent oracle: Phi_3 at 20 digits by Plackett's identity.

    From independence, r12 grows to its value for the bivariate base;
    then r13 and r23 grow together as t r13, t r23.  Each derivative is a
    bivariate density times the conditional CDF of the third score.
    """
    with mpmath.workdps(20):
        x1, x2, x3 = (mpmath.mpf(float(v)) for v in x)
        r12, r13, r23 = mpmath.mpf(r12), mpmath.mpf(r13), mpmath.mpf(r23)

        def dens(a, b, r):
            q = (a * a - 2 * r * a * b + b * b) / (1 - r * r)
            norm = 2 * mpmath.pi * mpmath.sqrt(1 - r * r)
            return mpmath.exp(-q / 2) / norm

        def cond(xk, xi, xj, rki, rkj, rij):  # P(Z_k <= xk | Z_i, Z_j)
            ci = (rki - rij * rkj) / (1 - rij * rij)
            cj = (rkj - rij * rki) / (1 - rij * rij)
            spread = mpmath.sqrt(1 - ci * rki - cj * rkj)
            return mpmath.ncdf((xk - ci * xi - cj * xj) / spread)

        def path(t):
            a, b = t * r13, t * r23
            return (r13 * dens(x1, x3, a) * cond(x2, x1, x3, r12, b, a)
                    + r23 * dens(x2, x3, b) * cond(x1, x2, x3, r12, a, b))

        base = mpmath.ncdf(x1) * mpmath.ncdf(x2) + mpmath.quad(
            lambda t: r12 * dens(x1, x2, t * r12), [0, 1])
        # near-singular correlations sharpen the integrand as t nears 1
        return float(base * mpmath.ncdf(x3)
                     + mpmath.quad(path, [0, 0.5, 0.9, 0.99, 1]))


def slab_points(corr, others=(0.0, -0.2)):
    """For each score, the points one conditional spread either side of
    its conditional mean given the other two, where a near-singular
    correlation makes the CDF steep."""
    pts = []
    for k in range(3):
        o = [i for i in range(3) if i != k]
        w = np.linalg.solve(corr[np.ix_(o, o)], corr[o, k])
        spread = np.sqrt(1.0 - corr[o, k] @ w)
        for d in (-1.0, 1.0):
            x = np.empty(3)
            x[o], x[k] = others, w @ others + d * spread
            pts.append(x)
    return np.array(pts)


@pytest.mark.parametrize("r", [(-0.5, 0.1, 0.8111), (0.3, 0.1, 0.9791),
                               (0.3, 0.1, 0.979157),
                               (0.3, 0.1, 0.9791575211732825)])
def test_trivariate_near_singular_within_stated_error(r):
    """Smallest eigenvalues 4.8e-4, 5.6e-5, 5.1e-7 and 9.8e-14.  A node
    table keyed on the largest path correlation missed 5e-10 by 1.5e-8
    and 8.4e-9 at (0, -0.2, -0.2) on the first two; one Gauss-Legendre
    panel a path could not reach the last two within 1024 nodes."""
    X = np.array([(a, b, c) for a in (-0.2, 0.0, 0.7) for b in (-0.2, 0.7)
                  for c in (-0.2, 0.7)] + [(0.0, -0.2, -0.2)])
    X = np.concatenate([X, slab_points(corr3(*r))])
    ref = np.array([plackett_tvn(x, *r) for x in X])
    assert np.max(np.abs(tvn_cdf(X, corr3(*r)) - ref)) <= 5e-10


def test_trivariate_projected_fit_evaluates():
    """The Gaussian fit clips a correlation's eigenvalues at 1e-6; the
    trivariate CDF serves such a correlation within its stated error."""
    corr = np.array([[1.0, 0.95, -0.5], [0.95, 1.0, 0.6], [-0.5, 0.6, 1.0]])
    corr = nearest_pd_correlation(corr)
    assert np.linalg.eigvalsh(corr)[0] < 1e-6
    X = np.array([(0.0, -0.2, -0.2), (0.5, 0.4, -0.3)])
    X = np.concatenate([X, slab_points(corr, (0.5, 0.4))])
    ref = np.array([plackett_tvn(x, corr[0, 1], corr[0, 2], corr[1, 2])
                    for x in X])
    assert np.max(np.abs(tvn_cdf(X, corr) - ref)) <= 5e-10


def test_trivariate_beyond_reach_raises_promptly_and_again_at_once():
    """Smallest eigenvalue 9.9e-15: the nearest singularity lies within
    2^-40 of the path's end, so no value within 5e-10 can be vouched
    for.  The failure is cached, so the second call skips the search."""
    corr = corr3(0.3, 0.1, 0.9791575211733725)
    start = time.perf_counter()
    with pytest.raises(ToleranceNotReached) as exc:
        mvn_cdf(corr, [0.0, -0.2, -0.2])
    assert time.perf_counter() - start < 10.0
    assert exc.value.estimate is None
    misses = mvnorm._tvn_path_rule.cache_info().misses
    with pytest.raises(ToleranceNotReached):
        tvn_cdf(np.zeros((1, 3)), corr)
    assert mvnorm._tvn_path_rule.cache_info().misses == misses


def test_trivariate_beyond_node_cap_raises(monkeypatch):
    """A rule that needs more nodes than the cap raises, and so does
    every later call on its correlation: (-0.5, 0.1, 0.8111) needs 176
    nodes a path."""
    mvnorm._tvn_path_rule.cache_clear()
    monkeypatch.setattr(mvnorm, "_TVN_CAP", 128)
    try:
        for _ in range(2):
            with pytest.raises(ToleranceNotReached, match="up to 128 nodes"):
                tvn_cdf(np.zeros((1, 3)), corr3(-0.5, 0.1, 0.8111))
    finally:
        mvnorm._tvn_path_rule.cache_clear()


def test_trivariate_ladder_that_never_agrees_raises(monkeypatch):
    """With no agreement possible, the ladder ends at the cap and raises
    rather than keep its last, unchecked rule."""
    mvnorm._tvn_path_rule.cache_clear()
    monkeypatch.setattr(mvnorm, "_TVN_AGREE", 0.0)
    try:
        with pytest.raises(ToleranceNotReached, match="up to 1024 nodes"):
            tvn_cdf(np.zeros((1, 3)), corr3(0.5, 0.3, 0.4))
    finally:
        mvnorm._tvn_path_rule.cache_clear()


@pytest.mark.parametrize("r", [(0.5, 0.3, 0.4), (0.1, 0.2, 0.3),
                               (0.3, 0.2, 0.5)])
def test_trivariate_ordinary_correlation_costs_16_nodes(r):
    """Guards the speed: the old table spent 48 nodes a path here."""
    rules = _tvn_plan(corr3(*r))[2]
    assert max(len(rule[0]) for rule in rules) <= 16


@pytest.mark.parametrize("r,evals", [((0.5, 0.3, 0.4), 2 * 16),
                                     ((-0.5, 0.1, 0.8111), 2 * 11 * 16)])
def test_trivariate_reports_the_evaluations_spent(r, evals):
    """Each point costs one evaluation per node of each path rule."""
    est = mvn_cdf(corr3(*r), [0.0, -0.2, -0.2])
    assert est.error == 5e-10
    assert est.evals == evals
    assert est.evals == sum(len(rule[0]) for rule in _tvn_plan(corr3(*r))[2])


def sweep_correlations(rng):
    """200 correlations with smallest eigenvalue log-uniform in [1e-12, 1]."""
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-12.0, 0.0)
        while True:  # shrink a random correlation to smallest eigenvalue lam
            corr = corr3(*rng.uniform(-1.0, 1.0, 3))
            low = np.linalg.eigvalsh(corr)[0]
            if low > lam:
                shift = (low - lam) / (1.0 - lam)
                yield lam, (corr - shift * np.eye(3)) / (1.0 - shift)
                break


def sweep_points(rng):
    return np.concatenate([rng.normal(size=(60, 3)) * 2.0,
                           rng.uniform(-8.0, 8.0, (40, 3)), [[0.0, -0.2, -0.2]]])


def test_trivariate_seeded_sweep_within_stated_error(monkeypatch):
    """200 correlations with smallest eigenvalue log-uniform in [1e-12, 1]:
    each chosen rule lies within 5e-10 of rules with four times its nodes
    a panel and four more halvings toward the path's end."""
    rng = np.random.default_rng(0)
    X = sweep_points(rng)
    chosen = mvnorm._tvn_path_rule
    finer_calls = 0

    def finer(r_ij, r_base, r_other):
        nonlocal finer_calls
        finer_calls += 1
        n_nodes = len(chosen(r_ij, r_base, r_other)[0])
        if n_nodes == 0:
            return chosen(r_ij, r_base, r_other)
        depth = mvnorm._tvn_depth(r_ij, r_base, r_other)
        return mvnorm._tvn_gauss_rule(r_ij, r_base, r_other,
                                      4 * n_nodes // (depth + 1), depth + 4)

    moved = 0
    for lam, corr in sweep_correlations(rng):
        got = tvn_cdf(np.concatenate([X, slab_points(corr)]), corr)
        with monkeypatch.context() as m:
            m.setattr(mvnorm, "_tvn_path_rule", finer)
            ref = tvn_cdf(np.concatenate([X, slab_points(corr)]), corr)
        assert np.max(np.abs(got - ref)) <= 5e-10, (corr, lam)
        moved += not np.array_equal(got, ref)
    # the finer rules were used, not a cache of the chosen ones
    assert finer_calls >= 400 and moved > 0


def two_path_reference(X, corr):
    """The trivariate CDF with each path integral summed node by node from
    the angles of its chosen rule, apart from the fused kernel."""
    p, rb, rules = _tvn_plan(corr)
    c = corr[np.ix_(p, p)]
    b = X[:, p]
    total = 0.0
    for (i, j), r_ij, r_other, rule in (((0, 1), c[0, 2], c[1, 2], rules[0]),
                                        ((1, 0), c[1, 2], c[0, 2], rules[1])):
        if len(rule[0]) == 0:
            continue
        depth = mvnorm._tvn_depth(r_ij, rb, r_other)
        x, w = np.polynomial.legendre.leggauss(len(rule[0]) // (depth + 1))
        edges = np.append(1.0 - 0.5 ** np.arange(depth + 1), 1.0)
        end = np.arcsin(r_ij)
        half = (0.5 * np.diff(edges) * end)[:, None]
        theta = (edges[:-1, None] * end + half * (x + 1.0)).ravel()
        w = (half * w).ravel()
        sin_t, cos2, c_a, c_b, s2 = mvnorm._tvn_path_nodes(theta, r_ij, rb,
                                                            r_other)
        b_i, b_j, b_m = b[:, i, None], b[:, j, None], b[:, 2, None]
        expo = -(b_i ** 2 - 2.0 * sin_t * b_i * b_m + b_m ** 2) / (2.0 * cos2)
        cond = (b_j - c_a * b_i - c_b * b_m) / s2
        total = total + (np.exp(expo) * mvnorm.ndtr(cond)) @ w
    base = bvn_cdf(b[:, 0], b[:, 1], rb) * mvnorm.ndtr(b[:, 2])
    return np.clip(base + total / (2.0 * np.pi), 0.0, 1.0)


def test_trivariate_fused_paths_match_two_path_reference():
    """Stacking both paths' nodes into one pass moves no value by more than
    a few rounding steps, on the sweep's points and the probe lattice."""
    rng = np.random.default_rng(0)
    X = np.concatenate([sweep_points(rng), mvnorm._TVN_LATTICE])
    worst = 0.0
    for _, corr in sweep_correlations(rng):
        got = tvn_cdf(X, corr)
        worst = max(worst, np.max(np.abs(got - two_path_reference(X, corr))))
    assert worst <= 4e-16


_THREAD_DIGEST = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from copulameasures.mvnorm import tvn_cdf
rng = np.random.default_rng(4)
X = rng.normal(size=(20_000, 3)) * 2.0
h = hashlib.sha256()
for r in [(0.5, 0.3, 0.4), (-0.5, 0.1, 0.8111), (0.3, 0.1, 0.9791)]:
    corr = np.array([[1.0, r[0], r[1]], [r[0], 1.0, r[2]], [r[1], r[2], 1.0]])
    h.update(tvn_cdf(X, corr).tobytes())
print(h.hexdigest())
"""


def test_trivariate_bits_do_not_depend_on_blas_threads():
    src = str(Path(mvnorm.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _THREAD_DIGEST, src],
                             env=env, capture_output=True, text=True,
                             timeout=300, check=True)
        digests.add(run.stdout)
    assert len(digests) == 1


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


def test_trivariate_row_blocks_equal_one_call():
    corr = np.array([[1.0, 0.6, 0.2], [0.6, 1.0, 0.4], [0.2, 0.4, 1.0]])
    X = np.random.default_rng(10).normal(size=(40_001, 3))  # three row blocks
    assert np.array_equal(mvn_cdf_many(corr, X), tvn_cdf(X, corr))


def test_trivariate_memory_bounded():
    """200,000 points need a few (rows, nodes) blocks, not one (200,000,
    nodes) temporary per path term."""
    model = CopulaModel("gaussian", 3, (0.3, 0.2, 0.5))
    U = np.random.default_rng(11).random((200_000, 3))
    tracemalloc.start()
    try:
        model.cdf_many(U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6  # one call over every row peaks above 300 MB


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


def test_scalar_correlation_rejected():
    """The correlation is checked before its size is read."""
    with pytest.raises(CorrelationNotPD):
        mvn_cdf(np.float64(1.0), [0.0, 0.0])


@pytest.mark.parametrize("entry, value", [((1, 0), 0.500004), ((2, 2), 1.000009)])
def test_trivariate_drifted_correlation_rejected(entry, value):
    """A triangle or a diagonal off by more than 1e-12 raises at k = 3 as
    at k = 2; the path integrals read the upper triangle alone, so it
    would return the value of the matrix without the drift."""
    corr = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]])
    corr[entry] = value
    with pytest.raises(CorrelationNotPD):
        mvn_cdf(corr, [0.1, 0.2, 0.3])


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("where", [0, -1])
def test_nan_score_rejected(k, where):
    x = np.zeros(k)
    x[where] = np.nan
    with pytest.raises(ValueError):
        mvn_cdf(np.eye(k), x)
