import dataclasses
import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import kstest, logser

from copulameasures import (CopulaModel, EmpiricalBetaCopula, MixtureCopula,
                            archimedean_generator, mvnorm, rank_with_random_ties)
from copulameasures.copulas import FAMILIES, _frailty, _logseries_kemp, _sum
from copulameasures.cubature import Estimate, _grid_axis
from copulameasures.errors import (
    CorrelationNotPD,
    DimensionMismatch,
    DimensionUnsupported,
    NotArchimedean,
    ParamOutOfRange,
    SamplerUnavailable,
)
from copulameasures.fit import frank_tau, joe_tau, kendall_tau

from conftest import model_zoo


class TestValidate:
    def test_valid_examples(self):
        assert CopulaModel("clayton", 2, (0.5,)).params == (0.5,)
        assert CopulaModel("gaussian", 3, (0.1, 0.2, 0.3)).dim == 3

    def test_w_only_bivariate(self):
        with pytest.raises(DimensionUnsupported):
            CopulaModel("lower_bound_w", 3)

    @pytest.mark.parametrize("fam", ["fgm", "marshall_olkin", "gumbel_barnett",
                                     "nelsen_4212"])
    def test_bivariate_only_families(self, fam):
        with pytest.raises(DimensionUnsupported):
            CopulaModel(fam, 3, (0.5, 0.5, 0.5))

    def test_gaussian_not_pd(self):
        with pytest.raises(CorrelationNotPD):
            CopulaModel("gaussian", 3, (0.99, 0.99, -0.99))

    # each family's range endpoints and values just outside them, written
    # out here rather than read from the validation table
    @pytest.mark.parametrize("fam,dim,params", [
        ("clayton", 2, (0.0,)),
        ("clayton", 3, (-0.5,)),
        ("clayton", 2, (-1.5,)),
        ("frank", 2, (0.0,)),
        ("frank", 3, (-2.0,)),
        ("gumbel_hougaard", 2, (0.8,)),
        ("joe", 2, (0.5,)),
        ("fgm", 2, (1.5,)),
        ("marshall_olkin", 2, (0.5, 1.2)),
        ("gumbel_barnett", 2, (0.0,)),
        ("nelsen_4212", 2, (0.5,)),
        ("cuadras_auge", 2, (1.3,)),
        ("clayton", 2, (0.5, 1.0)),
        ("clayton", 2, (-1.0 - 1e-12,)), ("clayton", 3, (0.0,)),
        ("clayton", 3, (-1.0,)),
        ("frank", 2, (-700.0 - 1e-9,)), ("frank", 2, (700.0 + 1e-9,)),
        ("frank", 3, (0.0,)), ("frank", 3, (700.0 + 1e-9,)),
        ("gumbel_hougaard", 2, (1.0 - 1e-12,)), ("joe", 2, (1.0 - 1e-12,)),
        ("nelsen_4212", 2, (1.0 - 1e-12,)),
        ("fgm", 2, (-1.0 - 1e-12,)), ("fgm", 2, (1.0 + 1e-12,)),
        ("marshall_olkin", 2, (-1e-12, 0.5)),
        ("marshall_olkin", 2, (0.5, 1.0 + 1e-12)),
        ("cuadras_auge", 2, (-1e-12,)), ("cuadras_auge", 2, (1.0 + 1e-12,)),
        ("cuadras_auge", 3, (0.0, 0.5, 1.0 + 1e-12)),
        ("cuadras_auge", 3, (0.5,)),
        ("gumbel_barnett", 2, (1.0 + 1e-12,)),
        ("product", 2, (0.5,)), ("gaussian", 3, (0.1, 0.2)),
    ])
    def test_param_out_of_range(self, fam, dim, params):
        with pytest.raises(ParamOutOfRange, match=f"{fam} at k={dim}"):
            CopulaModel(fam, dim, params)

    @pytest.mark.parametrize("fam,dim,params", [
        ("clayton", 2, (-1.0,)), ("clayton", 2, (1e-300,)),
        ("clayton", 2, (-1e-300,)), ("clayton", 3, (1e-300,)),
        ("frank", 2, (-700.0,)), ("frank", 2, (700.0,)), ("frank", 3, (700.0,)),
        ("frank", 3, (1e-300,)),
        ("gumbel_hougaard", 2, (1.0,)), ("joe", 2, (1.0,)),
        ("nelsen_4212", 2, (1.0,)), ("fgm", 2, (-1.0,)), ("fgm", 2, (1.0,)),
        ("marshall_olkin", 2, (0.0, 1.0)), ("marshall_olkin", 2, (1.0, 0.0)),
        ("cuadras_auge", 2, (0.0,)), ("cuadras_auge", 2, (1.0,)),
        ("cuadras_auge", 3, (0.0, 0.5, 1.0)),
        ("gumbel_barnett", 2, (1e-300,)), ("gumbel_barnett", 2, (1.0,)),
        ("gaussian", 2, (-0.999999,)), ("gaussian", 2, (0.999999,)),
    ])
    def test_range_endpoints_accepted(self, fam, dim, params):
        assert CopulaModel(fam, dim, params).params == params

    @pytest.mark.parametrize("params", [(1.0,), (-1.0,), (1.5,)])
    def test_gaussian_unit_correlation_not_pd(self, params):
        with pytest.raises(CorrelationNotPD):
            CopulaModel("gaussian", 2, params)
        with pytest.raises(CorrelationNotPD):
            CopulaModel("gaussian", 3, (0.0, 0.0) + params)

    def test_cuadras_auge_zero_weight_exponents(self):
        m = CopulaModel("cuadras_auge", 3, (0.0, 0.5, 0.25))
        assert m._ca_thetas.tolist() == [1.0, 1.0, 0.375]
        assert m.cdf([0.2, 0.5, 0.8]) == pytest.approx(0.2 * 0.5 * 0.8 ** 0.375)

    def test_clayton_negative_allowed_bivariate(self):
        assert CopulaModel("clayton", 2, (-1.0,)).params == (-1.0,)

    @pytest.mark.parametrize("fam,k,params,want", [
        ("clayton", 2, np.array([2.0]), (2.0,)),
        ("clayton", 2, np.float64(2.0), (2.0,)),
        ("product", 2, np.array([]), ()),
        ("gaussian", 3, np.array([0.1, 0.2, 0.3]), (0.1, 0.2, 0.3))])
    def test_numpy_parameters(self, fam, k, params, want):
        m = CopulaModel(fam, k, params)
        assert m.params == want and all(type(p) is float for p in m.params)
        assert m == CopulaModel(fam, k, want)

    def test_immutability(self):
        m = CopulaModel("clayton", 2, (1.0,))
        with pytest.raises(Exception):
            m.params = (2.0,)


class TestModelFields:
    def test_fields_are_the_constructor_values(self):
        assert [f.name for f in dataclasses.fields(CopulaModel)] == \
            ["family", "dim", "params"]

    def test_derived_attributes_not_accepted(self):
        with pytest.raises(TypeError):
            CopulaModel("product", 2, (), _corr=None)
        with pytest.raises(TypeError):
            CopulaModel("cuadras_auge", 2, (0.5,), _ca_thetas=None)

    @pytest.mark.parametrize("fam,params", [("gaussian", (0.1, 0.2, 0.3)),
                                            ("cuadras_auge", (0.2, 0.5, 0.7))])
    def test_equality_hash_and_pickle(self, fam, params):
        a, b = CopulaModel(fam, 3, params), CopulaModel(fam, 3, params)
        assert a == b and hash(a) == hash(b)
        assert a != CopulaModel("product", 3)
        c = pickle.loads(pickle.dumps(a))
        assert c == a and hash(c) == hash(a)
        assert repr(c) == f"CopulaModel(family={fam!r}, dim=3, params={params!r})"
        u = np.array([[0.3, 0.6, 0.9]])
        assert c.cdf_many(u).tobytes() == a.cdf_many(u).tobytes()


def _three_classes():
    rs = rank_with_random_ties(np.random.default_rng(0).normal(size=(50, 2)), 1)
    model = CopulaModel("clayton", 2, (1.0,))
    return [model, MixtureCopula((model, CopulaModel("min", 2)), (0.5, 0.5)),
            EmpiricalBetaCopula(rs)]


class TestPointsCheck:
    @pytest.mark.parametrize("c", _three_classes(), ids=lambda c: type(c).__name__)
    @pytest.mark.parametrize("u", [[np.nan, 0.5], [0.5, np.nan], [-1e-9, 0.5],
                                   [0.5, 1.0 + 1e-9], [np.inf, 0.5]])
    def test_nan_and_out_of_cube_rejected(self, c, u):
        with pytest.raises(ValueError):
            c.cdf_many(np.array([[0.5, 0.5], u]))
        with pytest.raises(ValueError):
            c.cdf(u)

    @pytest.mark.parametrize("c", _three_classes(), ids=lambda c: type(c).__name__)
    def test_rounding_slack_is_clipped(self, c):
        inside = np.array([[0.0, 0.5], [1.0, 0.5], [1.0, 1.0]])
        slack = inside + np.array([[-1e-13, 0.0], [1e-13, 0.0], [1e-13, 1e-13]])
        assert c.cdf_many(slack).tobytes() == c.cdf_many(inside).tobytes()


# Parameters spanning each family's validated range; the unbounded ones
# run to 1e4.  Each tuple is tried at k = 2 and k = 3 and kept wherever
# validation accepts it.
_PARAM_RANGE = {
    "product": [()], "min": [()], "lower_bound_w": [()],
    "clayton": [(-1.0,), (-0.999,), (-0.5,), (-1e-9,), (1e-9,), (0.5,),
                (5.0,), (50.0,), (1e3,), (1e4,)],
    "frank": [(-700.0,), (-100.0,), (-38.0,), (-1e-9,), (1e-9,), (5.0,),
              (37.0,), (38.0,), (50.0,), (100.0,), (700.0,)],
    "gumbel_hougaard": [(1.0,), (1.0 + 1e-9,), (1.5,), (10.0,), (100.0,),
                        (1e3,), (1e4,)],
    "joe": [(1.0,), (1.0 + 1e-9,), (1.5,), (10.0,), (100.0,), (1e3,),
            (1e4,)],
    "gaussian": [(-0.999999,), (0.999999,), (0.9, 0.9, 0.9),
                 (-0.45, -0.45, -0.45)],
    "fgm": [(-1.0,), (0.0,), (1.0,)],
    "marshall_olkin": [(0.0, 1.0), (0.3, 0.7)],
    "cuadras_auge": [(0.0,), (1.0,), (0.2, 0.5, 1.0)],
    "gumbel_barnett": [(1e-9,), (1.0,)],
    "nelsen_4212": [(1.0,), (1e4,)],
}


def _range_models():
    models = []
    for fam in FAMILIES:
        for params in _PARAM_RANGE[fam]:
            for dim in (2, 3):
                try:
                    models.append(CopulaModel(fam, dim, params))
                except (ParamOutOfRange, DimensionUnsupported):
                    pass
    return models


# C(u, 1, ..., 1) = u fails on these models of the range, all through
# the CDF formulas: the measured max |C - u| at k = 2 (and k = 3 where
# the model exists) over the margin test's points
_MARGIN_DEFECTS = {
    ("clayton", (-1e-9,)): "9e-8: sum u^-alpha - (k-1) cancels near 0",
    ("clayton", (1e-9,)): "2e-7: sum u^-alpha - (k-1) cancels near 0",
    ("clayton", (1e3,)): "0.43: u^-alpha overflows and C falls to 0",
    ("clayton", (1e4,)): "0.81: u^-alpha overflows and C falls to 0",
    ("frank", (1e-9,)): "1.8e-7: the generator's log terms cancel near 0",
    ("joe", (1e3,)): "0.44: (1-u)^theta underflows and C rounds to 1",
    ("joe", (1e4,)): "0.91: (1-u)^theta underflows and C rounds to 1",
    ("nelsen_4212", (1e4,)): "0.44: (1/u - 1)^theta underflows and C = 1",
}


def _margin_cases():
    cases = []
    for m in model_zoo(np.random.default_rng(20240801)) + _range_models():
        reason = _MARGIN_DEFECTS.get((m.family, m.params))
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        cases.append(pytest.param(m, marks=marks, id=repr(m)))
    return cases


class TestCdf:
    def test_examples(self):
        assert CopulaModel("product", 2).cdf([0.5, 0.5]) == 0.25
        assert CopulaModel("min", 2).cdf([0.3, 0.7]) == 0.3
        assert CopulaModel("clayton", 2, (1.0,)).cdf([0.5, 0.5]) == \
            pytest.approx(1.0 / 3.0, abs=1e-14)
        assert CopulaModel("gaussian", 2, (0.0,)).cdf([0.4, 0.6]) == \
            pytest.approx(0.24, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            CopulaModel("product", 3).cdf([0.5, 0.5])

    def test_out_of_cube_rejected(self):
        with pytest.raises(ValueError):
            CopulaModel("product", 2).cdf([0.5, 1.5])

    def test_groundedness_and_normalization(self, zoo):
        rng = np.random.default_rng(0)
        for m in zoo:
            k = m.dim
            assert m.cdf(np.ones(k)) == 1.0
            for _ in range(4):
                u = rng.random(k)
                u[rng.integers(k)] = 0.0
                assert m.cdf(u) == 0.0

    def test_zero_coordinate_runs_no_normal_cdf_integration(self, monkeypatch):
        # at k >= 4 each Gaussian point is a QMC integral; rows and grid
        # nodes with u_j = 0 have C = 0 without one
        calls = []
        monkeypatch.setattr(mvnorm, "_mvn_qmc",
                            lambda *a: calls.append(a) or Estimate(0.25, 0.0, 1))
        m = CopulaModel("gaussian", 4, (0.3,) * 6)
        U = np.random.default_rng(0).random((10, 4))
        U[:7, 0] = 0.0
        assert m.cdf_many(U).tolist() == [0.0] * 7 + [0.25] * 3
        assert len(calls) == 3
        grid = m.cdf_grid([0.0, 0.5])
        assert len(calls) == 4
        assert grid[1, 1, 1, 1] == 0.25 and np.count_nonzero(grid) == 1

    def test_frechet_sandwich_on_grid(self, zoo):
        for m in zoo:
            k = m.dim
            axis = np.linspace(0.0, 1.0, 17 if k == 2 else 9)
            grid = np.stack(np.meshgrid(*([axis] * k), indexing="ij"),
                            axis=-1).reshape(-1, k)
            c = m.cdf_many(grid)
            lower = np.maximum(grid.sum(axis=1) - k + 1.0, 0.0)
            upper = grid.min(axis=1)
            tol = 1e-7 if m.family == "gaussian" else 1e-9
            assert np.all(c >= lower - tol), m
            assert np.all(c <= upper + tol), m

    def test_rectangle_inequality_bivariate(self, zoo):
        rng = np.random.default_rng(1)
        for m in zoo:
            if m.dim != 2:
                continue
            a = rng.random((200, 2)) * 0.98
            b = a + rng.random((200, 2)) * (1.0 - a)
            mass = (m.cdf_many(b)
                    - m.cdf_many(np.column_stack([a[:, 0], b[:, 1]]))
                    - m.cdf_many(np.column_stack([b[:, 0], a[:, 1]]))
                    + m.cdf_many(a))
            assert mass.min() >= -1e-9, m

    @pytest.mark.parametrize("m", _margin_cases())
    def test_uniform_margins(self, m):
        u = np.random.default_rng(2).random(20)
        for j in range(m.dim):
            pts = np.ones((20, m.dim))
            pts[:, j] = u
            tol = 1e-8 if m.family == "gaussian" else 1e-12
            assert np.abs(m.cdf_many(pts) - u).max() <= tol, j

    def test_gaussian_identity_is_product(self):
        m3 = CopulaModel("gaussian", 3, (0.0, 0.0, 0.0))
        p3 = CopulaModel("product", 3)
        rng = np.random.default_rng(3)
        U = rng.random((100, 3))
        assert np.allclose(m3.cdf_many(U), p3.cdf_many(U), atol=1e-8)

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_gumbel_fold_equals_scipy_logsumexp(self, k):
        """Gumbel-Hougaard's folded log-sum-exp has the bits of
        ``scipy.special.logsumexp`` on the stacked coordinates, with
        coordinates 1 and 1e-300 and ties mixed in."""
        rng = np.random.default_rng(k)
        for phi in (1.0, 1.05, 1.8, 3.0, 30.0, 1000.0):
            U = rng.random((20000, k))
            pick = rng.random((20000, k))
            U[pick < 0.05] = 1.0
            U[(pick >= 0.05) & (pick < 0.1)] = 1e-300
            tie = rng.random(20000) < 0.1
            U[tie, 1] = U[tie, 0]
            with np.errstate(divide="ignore", under="ignore"):
                lse = logsumexp(phi * np.log(-np.log(U)), axis=-1)
            want = np.clip(np.exp(-np.exp(lse / phi)), 0.0, 1.0)
            got = CopulaModel("gumbel_hougaard", k, (phi,)).cdf_many(U)
            assert np.array_equal(got, want), phi


def _grid_cases():
    mixtures = [MixtureCopula((CopulaModel("clayton", k, (2.0,)),
                               CopulaModel("gaussian", k, (0.5, 0.3, 0.4)[:k * (k - 1) // 2])),
                              (0.3, 0.7)) for k in (2, 3)]
    models = model_zoo(np.random.default_rng(20240801)) + _range_models() + mixtures
    return [pytest.param(m, id=repr(m)) for m in models]


class TestCdfGrid:
    @pytest.mark.parametrize("m", _grid_cases())
    def test_bit_identical_to_cdf_many(self, m):
        # the grid and the point path run one formula, term by term alike
        k = m.dim
        for x in (_grid_axis(3)[0], np.array([0.0, 1e-300, 0.2, 0.5, 0.9, 1.0]),
                  np.array([])):
            pts = np.stack(np.meshgrid(*[x] * k, indexing="ij"), axis=-1).reshape(-1, k)
            want = m.cdf_many(pts).reshape((len(x),) * k)
            assert np.array_equal(m.cdf_grid(x), want), len(x)

    @pytest.mark.parametrize("m", [CopulaModel("gaussian", 3, (0.5, 0.3, 0.4)),
                                   CopulaModel("frank", 3, (4.0,))], ids=repr)
    def test_peak_memory_near_the_output(self, m):
        # blocks write into one preallocated output; joining them would double it
        x = _grid_axis(6)[0]
        assert len(x) == 184
        tracemalloc.start()
        try:
            out = m.cdf_grid(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes, (peak, out.nbytes)

    @pytest.mark.parametrize("k", range(2, 12))
    def test_sum_in_numpy_row_order(self, k):
        # a fold is numpy's row-sum order only below 8 terms
        rng = np.random.default_rng(k)
        terms = [rng.random(2000) * 10.0 ** rng.uniform(-5, 5) for _ in range(k)]
        assert np.array_equal(_sum(terms), np.stack(terms, axis=-1).sum(axis=-1))

    def test_out_of_cube_rejected(self):
        with pytest.raises(ValueError):
            CopulaModel("frank", 2, (4.0,)).cdf_grid([0.5, 1.5])


class TestGenerator:
    @pytest.mark.parametrize("fam,params", [
        ("clayton", (1.0,)), ("clayton", (4.0,)),
        ("frank", (3.0,)), ("frank", (-4.0,)), ("frank", (14.0,)),
        ("gumbel_hougaard", (2.0,)), ("joe", (2.5,)), ("nelsen_4212", (2.0,)),
        ("frank", (-38.0,)), ("frank", (-700.0,)), ("joe", (10.0,)),
        ("nelsen_4212", (20.0,)),
    ])
    def test_round_trip(self, fam, params):
        psi, psi_inv = archimedean_generator(CopulaModel(fam, 2, params))
        x = np.geomspace(1e-10, 1.0, 200)
        assert np.max(np.abs(psi(psi_inv(x)) - x)) <= 1e-12
        assert psi(0.0) == pytest.approx(1.0, abs=1e-12)
        t = np.linspace(0.0, 50.0, 100)
        assert np.all(np.diff(psi(t)) <= 1e-15)

    def test_clayton_example(self):
        psi, psi_inv = archimedean_generator(CopulaModel("clayton", 2, (1.0,)))
        assert psi(1.0) == pytest.approx(0.5)
        assert psi_inv(0.5) == pytest.approx(1.0)

    def test_gumbel_example(self):
        psi, _ = archimedean_generator(CopulaModel("gumbel_hougaard", 2, (2.0,)))
        assert psi(1.0) == pytest.approx(np.exp(-1.0))

    def test_nelsen_4212_reproduces_cdf(self):
        m = CopulaModel("nelsen_4212", 2, (2.0,))
        psi, psi_inv = archimedean_generator(m)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v = rng.random(2)
            direct = 1.0 / (1.0 + ((1 / u - 1) ** 2 + (1 / v - 1) ** 2) ** 0.5)
            assert m.cdf([u, v]) == pytest.approx(direct, rel=1e-12)
            assert psi(psi_inv(u) + psi_inv(v)) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("theta", [30.0, 300.0, 700.0])
    def test_frank_large_theta_round_trip_matches_cdf(self, theta):
        """psi(sum psi_inv(u)) = C(u) where e^(-theta u) is far below the
        spacing of doubles near 1."""
        m = CopulaModel("frank", 2, (theta,))
        psi, psi_inv = archimedean_generator(m)
        U = np.vstack([[0.125, 0.643],
                       np.random.default_rng(int(theta)).random((2000, 2))])
        assert np.max(np.abs(psi(psi_inv(U).sum(axis=1)) - m.cdf_many(U))) \
            <= 1e-15

    @pytest.mark.parametrize("theta", [30.0, 300.0, 700.0])
    def test_frank_large_theta_inverse_generator(self, theta):
        """psi_inv(u) = -log((1 - e^(-theta u)) / (1 - e^(-theta))) against
        mpmath, written with log1p so that the digits are not lost."""
        mpmath = pytest.importorskip("mpmath")
        _, psi_inv = archimedean_generator(CopulaModel("frank", 2, (theta,)))
        us = np.array([1e-6, 0.01, 0.125, 0.5, 0.643, 0.99])
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            ref = np.array([float(-mpmath.log1p(
                (mpmath.exp(-t) - mpmath.exp(-t * mpmath.mpf(u)))
                / -mpmath.expm1(-t))) for u in us])
        assert np.allclose(psi_inv(us), ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("theta", [-4.0, -38.0, -700.0])
    def test_frank_negative_theta_against_mpmath(self, theta):
        """C = -log1p(prod expm1(-theta u_i) / expm1(-theta)) / theta at 50
        digits; the product of expm1 terms overflows in doubles at -700."""
        mpmath = pytest.importorskip("mpmath")
        U = np.random.default_rng(int(-theta)).random((200, 2))
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            ref = np.array([float(-mpmath.log1p(
                mpmath.expm1(-t * mpmath.mpf(u)) * mpmath.expm1(-t * mpmath.mpf(v))
                / mpmath.expm1(-t)) / t) for u, v in U])
        assert np.max(np.abs(CopulaModel("frank", 2, (theta,)).cdf_many(U) - ref)) \
            <= 1e-15

    def test_joe_inverse_generator_near_zero(self):
        """psi_inv(u) = -log(1 - (1 - u)^theta) to 1e-8 relative where
        (1 - u)^theta is within theta u of 1."""
        mpmath = pytest.importorskip("mpmath")
        _, psi_inv = archimedean_generator(CopulaModel("joe", 2, (10.0,)))
        us = np.array([1e-12, 1e-9, 1e-6])
        with mpmath.workdps(50):
            ref = np.array([float(-mpmath.log1p(-(1 - mpmath.mpf(u)) ** 10))
                            for u in us])
        assert np.allclose(psi_inv(us), ref, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fam,param", [
        *(("clayton", a) for a in (0.01, 1.0, 5.0, 20.0, 100.0)),
        *(("gumbel_hougaard", p) for p in (1.0001, 1.5, 5.0, 20.0, 50.0)),
    ])
    def test_closed_form_matches_generator(self, fam, param, dim):
        """Clayton and Gumbel-Hougaard keep their own CDF formulas; they
        are the copula psi(sum psi_inv(u)) that the sampler draws from."""
        m = CopulaModel(fam, dim, (param,))
        psi, psi_inv = archimedean_generator(m)
        U = 1e-6 + (1.0 - 1e-6) * np.random.default_rng(dim).random((20000, dim))
        with np.errstate(over="ignore"):  # u^-alpha at alpha = 100, as in cdf_many
            via_psi = psi(psi_inv(U).sum(axis=1))
        assert np.max(np.abs(m.cdf_many(U) - via_psi)) <= 1e-13

    def test_not_archimedean(self):
        with pytest.raises(NotArchimedean):
            archimedean_generator(CopulaModel("gaussian", 2, (0.5,)))
        with pytest.raises(NotArchimedean):
            archimedean_generator(CopulaModel("clayton", 2, (-0.5,)))


class TestSampling:
    def test_product_uniformity_ks(self):
        X = CopulaModel("product", 2).sample(10 ** 4, seed=1)
        for j in range(2):
            assert kstest(X[:, j], "uniform").pvalue > 0.01

    def test_min_copula_comonotone(self):
        X = CopulaModel("min", 3).sample(10 ** 4, seed=2)
        assert np.all(X[:, 0] == X[:, 1]) and np.all(X[:, 1] == X[:, 2])

    def test_w_countermonotone(self):
        X = CopulaModel("lower_bound_w", 2).sample(1000, seed=3)
        assert np.allclose(X.sum(axis=1), 1.0, atol=1e-12)

    def test_reproducible(self):
        m = CopulaModel("clayton", 3, (2.0,))
        assert np.array_equal(m.sample(50, seed=9), m.sample(50, seed=9))
        assert not np.array_equal(m.sample(50, seed=9), m.sample(50, seed=10))

    def test_clayton_tau_against_density_oracle(self):
        # tau = 4 E[C(U,V)] - 1, with the density from finite differences
        m = CopulaModel("clayton", 2, (2.0,))
        h = 1e-5
        g = np.linspace(0.01, 0.99, 99)
        U, V = np.meshgrid(g, g)
        pts = np.column_stack([U.ravel(), V.ravel()])

        def cdf(du, dv):
            q = pts + [du, dv]
            return m.cdf_many(q)

        dens = (cdf(h, h) - cdf(h, -h) - cdf(-h, h) + cdf(-h, -h)) / (4 * h * h)
        c_vals = m.cdf_many(pts)
        tau_oracle = 4.0 * np.mean(c_vals * dens) * 1.0 - 1.0
        assert tau_oracle == pytest.approx(0.5, abs=5e-3)

        X = m.sample(10 ** 4, seed=4)
        from copulameasures import kendall_tau
        assert abs(kendall_tau(X[:, 0], X[:, 1]) - 0.5) < 0.03

    def test_sampler_cdf_consistency(self, zoo):
        rng = np.random.default_rng(6)
        for m in zoo:
            try:
                X = m.sample(10 ** 5, seed=7)
            except SamplerUnavailable:
                assert m.family in ("cuadras_auge", "marshall_olkin",
                                    "gumbel_barnett", "nelsen_4212")
                continue
            assert X.shape == (10 ** 5, m.dim)
            assert X.min() > 0.0 and X.max() < 1.0
            pts = 0.05 + 0.9 * rng.random((20, m.dim))
            emp = np.array([(X <= p).all(axis=1).mean() for p in pts])
            cdf = m.cdf_many(pts)
            band = np.maximum(2.576 * np.sqrt(cdf * (1 - cdf) / len(X)), 0.01)
            assert np.all(np.abs(emp - cdf) <= band), m

    def test_sampler_unavailable(self):
        for fam, p in [("cuadras_auge", (0.5,)), ("marshall_olkin", (0.3, 0.7)),
                       ("gumbel_barnett", (0.5,)), ("nelsen_4212", (2.0,))]:
            with pytest.raises(SamplerUnavailable):
                CopulaModel(fam, 2, p).sample(10, seed=0)


# SHA-256 of sample(257, seed).tobytes() (numpy 2.4, scipy 1.17, x86-64
# Linux); every branch of sample() appears at least once.  A new libm or
# numpy bit generator may move these; a refactor of the samplers must not.
SAMPLE_PINS = [
    ("product", 2, (), 1,
     "57415dd9d571dc79614c0175ad508ca476a499c2552930ce190ad89724dbdd93"),
    ("product", 3, (), 2,
     "3dcf3de75dec1a935bb9f328fb444dc13221305e3d1e474a61620b99aff99260"),
    ("min", 3, (), 3,
     "ac8738734363f0946c151ba23000bbb4b6c5486787ddc2baaef578f9137c5111"),
    ("lower_bound_w", 2, (), 4,
     "aa153b757b053599b8bc68282732d914f552db43ac7a0440194c765fe4862397"),
    ("clayton", 2, (-1.0,), 5,
     "674b62d89803b021f7fc4cd47e31f1280fd5e38201a0e3db22422ffec7d4f3d5"),
    ("clayton", 2, (-0.5,), 6,
     "aba53d4de8670a900c20ccd21b7a4bc24d5018680a7d049fffb63b812e1775d9"),
    ("clayton", 2, (2.0,), 7,
     "6eb2b4704a5e88cd8a8972ca805f1d7308971505b961811a564c9ae362e215c1"),
    ("clayton", 3, (1.5,), 8,
     "dddc47af0c92c1c082093122c66311d33e0c49941a5f925395a4b015f954d3e6"),
    ("frank", 2, (-4.0,), 9,
     "a655ed078da24ebce588e69813851ba62f2956ff8bb8d1d0a373b4ae16215943"),
    ("frank", 2, (5.0,), 10,
     "1ddd7f7bc6080c5e2b981a68c3f6958efa58382a1de107452a6b3de1754de352"),
    ("frank", 3, (3.0,), 11,
     "cdbf1e648d2de1fa698f1fe0a970c2a88c444460d7709da0685bc95f9a2c2df1"),
    ("frank", 2, (30.0,), 12,
     "af479032dde99fa93d8311239fc2101a073d0e03208035a596cfc976ebfd02d0"),
    ("gumbel_hougaard", 2, (1.0,), 13,
     "d7b1b8f6b99d569bc229398ca3e3622e32987327a001c91ecd4f6adf068f3cb6"),
    ("gumbel_hougaard", 2, (2.0,), 14,
     "c18ada5ab9f6630b43277295f13c17edb1dbc9dacefcec8175fe003ca9373484"),
    ("gumbel_hougaard", 3, (1.5,), 15,
     "56595f774e69f027d14d433fd39f9fc2aa76ec99b322d9ef8f6386d2521c509e"),
    ("joe", 2, (1.0,), 16,
     "d019a685164d0d98e2e570bac6ca911baf77d62ada7bbe48813e198aaf6b71c9"),
    ("joe", 2, (2.5,), 17,
     "be21f282a787c3df5328f3f5540296831f43fd2fa1e786541d986561a4e240c3"),
    ("joe", 3, (3.0,), 18,
     "32cfed896468a67421065958a087deebe5b14e4817d0d06e2c6ee37f8f36d4a8"),
    ("fgm", 2, (0.0,), 19,
     "390baee7e8b778e3f04a50fd471b1575c32d9da8fb57f90d4aa9cd520374e5dc"),
    ("fgm", 2, (-1.0,), 20,
     "e8232aa8929deb8ad641f455daddda63ef36008f7f465697bf95bc84a135da51"),
    ("fgm", 2, (0.7,), 21,
     "6c85eb37c572862a534ad745297c80d9ce5065f7e4d7e2b01ed3bef4ad7e54fc"),
    ("gaussian", 2, (0.5,), 22,
     "296ddda4bf69078c8b655cc0ce4bbd9444de673b612ad768e68605d75e417b23"),
    ("gaussian", 3, (0.3, 0.2, 0.5), 23,
     "713d2fbb7c6db1f6c425c76a41257de0a8b2b7b89362cf97966cdefccaddfd45"),
    ("frank", 2, (37.0,), 24,
     "c37b09d0318819c6e3b3338eae98d09631dab75ff428a4d79e539b12bc95249d"),
    ("frank", 3, (37.0,), 25,
     "82aa84deec431a76cb71fa0547030f5efdeee78cca902d429ef33ff4b54d46aa"),
    ("joe", 2, (50.0,), 26,
     "e539442c7057b5f82ba36181c2936d34c97bce6d786f31c3d69ea15d426fdd41"),
]


class TestSamplePins:
    @pytest.mark.parametrize("fam,dim,params,seed,digest", SAMPLE_PINS)
    def test_sample_bits(self, fam, dim, params, seed, digest):
        X = CopulaModel(fam, dim, params).sample(257, seed)
        assert hashlib.sha256(X.tobytes()).hexdigest() == digest


class TestSamplerRange:
    def test_every_family_covered(self):
        assert {m.family for m in _range_models()} == set(FAMILIES)

    @pytest.mark.parametrize("model", _range_models(), ids=repr)
    def test_draws_inside_open_cube_or_unavailable(self, model):
        for seed in range(5):
            try:
                X = model.sample(64, seed)
            except SamplerUnavailable:
                return
            assert X.shape == (64, model.dim)
            assert np.all(np.isfinite(X)), seed
            assert X.min() > 0.0 and X.max() < 1.0, seed

    def test_kemp_logseries_pmf(self):
        theta = 3.0
        v = _logseries_kemp(theta, np.random.default_rng(8), 200_000)
        p = -np.expm1(-theta)
        for m in range(1, 9):
            pmf = logser.pmf(m, p)
            se = np.sqrt(pmf * (1.0 - pmf) / len(v))
            assert abs(np.mean(v == m) - pmf) <= 4.0 * se, m

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fam,theta,n,tau_of", [
        # -expm1(-50) rounds to 1, so the frailty comes from Kemp's LK
        ("frank", 50.0, 500, frank_tau),
        # Sibuya frailties reach far above 1e12, and from theta ~ 100 beyond
        # the double range
        ("joe", 50.0, 2000, joe_tau),
        ("joe", 100.0, 2000, joe_tau),
    ])
    def test_tau_at_strong_dependence(self, fam, theta, n, tau_of, dim):
        model = CopulaModel(fam, dim, (theta,))
        taus = []
        for seed in range(20):
            X = model.sample(n, seed)
            taus.append(np.mean([kendall_tau(X[:, i], X[:, j])
                                 for i in range(dim) for j in range(i)]))
        se = np.std(taus, ddof=1) / np.sqrt(len(taus))
        assert abs(np.mean(taus) - tau_of(theta)) <= 3.0 * se


class TestJoeFrailty:
    """The Sibuya frailty V of Joe's sampler: V is the smallest m with
    S(m) = Gamma(m+1-alpha) / (Gamma(1-alpha) m!) <= 1 - U, alpha = 1/theta."""

    @pytest.mark.parametrize("theta", [1.3, 3.0, 5.0])
    def test_draws_are_the_exact_quantile(self, theta):
        # S(m) - S(m+1) is only alpha/m of S(m), so the ~1e-15 relative
        # error of poch can flip the last unit as m nears 1e12 (one draw at
        # 4.5e11 in 20 seeds x 20,000 at theta = 5): from 1e10 on, V is
        # checked to within 1 + 1e-12 V of the exact quantile
        mpmath = pytest.importorskip("mpmath")

        def s(m):  # 40 digits past those the log-gamma of m spends
            with mpmath.workdps(42 + int(mpmath.log10(m * mpmath.log(m)))):
                a = 1 / mpmath.mpf(theta)
                return (mpmath.gamma(m + 1 - a)
                        / (mpmath.gamma(1 - a) * mpmath.gamma(m + 1)))

        checked = 0
        for seed in range(3):
            v = _frailty("joe", theta, np.random.default_rng(seed), 20000)
            u = np.random.default_rng(seed).random(20000)
            for vi, ui in zip(v[v >= 1e6], u[v >= 1e6]):
                t, m = 1 - mpmath.mpf(ui), mpmath.mpf(vi)
                slack = 0 if vi < 1e10 else mpmath.ceil(1 + 1e-12 * m)
                assert s(m - slack - 1) > t >= s(m + slack), (seed, vi)
                checked += 1
        assert checked > 0

    def test_sibuya_pmf(self):
        # alpha = 1/2: S(m) = C(2m, m) / 4^m
        v = _frailty("joe", 2.0, np.random.default_rng(9), 200_000)
        surv = [math.comb(2 * m, m) / 4.0 ** m for m in range(9)]
        for m in range(1, 9):
            pmf = surv[m - 1] - surv[m]
            se = np.sqrt(pmf * (1.0 - pmf) / len(v))
            assert abs(np.mean(v == m) - pmf) <= 4.0 * se, m


class TestMixture:
    def test_is_convex_combination(self):
        mix = MixtureCopula((CopulaModel("product", 2), CopulaModel("min", 2)),
                            (0.3, 0.7))
        u = [0.4, 0.8]
        assert mix.cdf(u) == pytest.approx(0.3 * 0.32 + 0.7 * 0.4)

    @pytest.mark.parametrize("weights", [(0.9,), (0.5,), (np.nan,), (1.5, -0.5),
                                         (0.5, np.nan), ()])
    def test_weights_validated(self, weights):
        comps = (CopulaModel("product", 2),) * max(len(weights), 1)
        with pytest.raises(ParamOutOfRange):
            MixtureCopula(comps, weights)

    def test_components_nonempty(self):
        with pytest.raises(ParamOutOfRange):
            MixtureCopula((), ())
