import zlib
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import kendalltau

from copulameasures import CopulaModel, estimate, kendall_tau, tau_to_param
from copulameasures.errors import (
    DegenerateColumn,
    NoConvergence,
    NonFiniteData,
    NotFittable,
    TauOutOfRange,
)
from copulameasures.fit import (
    FITTABLE_FAMILIES,
    FitResult,
    debye1,
    frank_tau,
    joe_tau,
    nearest_pd_correlation,
)


class TestKendallTau:
    def test_perfect_concordance(self):
        assert kendall_tau([1, 2, 3, 4], [2, 4, 6, 8]) == 1.0

    def test_perfect_discordance(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_exhaustive_pair_count(self):
        # pairs of (1,2,3) vs (2,1,3): concordant {13,23}, discordant {12}
        assert kendall_tau([1, 2, 3], [2, 1, 3]) == pytest.approx(1.0 / 3.0)

    def test_degenerate_column(self):
        with pytest.raises(DegenerateColumn):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_nan_is_undefined(self):
        with pytest.raises(DegenerateColumn, match="Kendall tau undefined"):
            kendall_tau([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])

    def test_constant_column_in_a_fit(self):
        data = np.random.default_rng(3).random((40, 3))
        data[:, 1] = 0.5
        with pytest.raises(DegenerateColumn):
            estimate("clayton", data)


def sweep_sample(rng, n, k, variant):
    """An (n, k) sample: continuous, tied by rounding, with a reversed and
    a duplicated column, or with +-inf entries."""
    x = rng.standard_normal((n, k))
    if variant == "rounded":
        x = np.round(x, 1)
    elif variant == "reversed_duplicated":
        x = np.round(x, 2)
        x[:, 1] = -x[:, 0]
        x[:, -1] = x[:, 0]
    elif variant == "infinite":
        x[rng.random((n, k)) < 0.1] = np.inf
        x[rng.random((n, k)) < 0.1] = -np.inf
    return x


class TestKendallTauMatchesScipy:
    """The numpy tau-b carries the bits of scipy.stats.kendalltau, which
    serves as the reference here only."""

    SIZES = (*range(2, 41), 63, 64, 65, 100, 257, 511, 512, 513, 724, 1000,
             2100)

    @pytest.mark.parametrize("variant", ["continuous", "rounded",
                                         "reversed_duplicated", "infinite"])
    def test_sweep_bit_equal(self, variant):
        rng = np.random.default_rng(zlib.crc32(variant.encode()))
        compared = 0
        for n in self.SIZES:
            for k in range(2, 6):
                x = sweep_sample(rng, n, k, variant)
                if any(len(np.unique(col)) == 1 for col in x.T):
                    continue
                pairs = list(combinations(range(k), 2))
                got = [kendall_tau(x[:, i], x[:, j]) for i, j in pairs]
                want = [kendalltau(x[:, i], x[:, j]).statistic for i, j in pairs]
                assert got == want, (variant, n, k)
                if np.isfinite(x).all():  # the all-pairs form, in order
                    stat = estimate("gaussian", x).sample_stat
                    assert stat == tuple(want)
                    assert all(type(t) is float for t in stat)
                compared += len(pairs)
        assert compared >= 1000

    def test_ranks_past_sixteen_bits(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(2 ** 17 + 1)
        y = np.round(x + rng.standard_normal(x.size), 3)
        assert kendall_tau(x, y) == kendalltau(x, y).statistic


class TestTauInversion:
    def test_clayton_algebraic(self):
        assert tau_to_param("clayton", 0.5) == pytest.approx(2.0)
        assert tau_to_param("clayton", -0.2) == pytest.approx(-1.0 / 3.0)

    def test_gumbel_algebraic(self):
        assert tau_to_param("gumbel_hougaard", 0.5) == pytest.approx(2.0)
        assert tau_to_param("gumbel_hougaard", 0.0) == pytest.approx(1.0)

    def test_exclusions(self):
        with pytest.raises(TauOutOfRange):
            tau_to_param("frank", 0.0)
        with pytest.raises(TauOutOfRange):
            tau_to_param("clayton", 0.0)
        with pytest.raises(TauOutOfRange):
            tau_to_param("joe", -0.2)
        with pytest.raises(TauOutOfRange):
            tau_to_param("gumbel_hougaard", 1.0)

    @pytest.mark.parametrize("theta", [0.5, 2.0, 5.0, 14.0, -3.0, -14.0])
    def test_frank_relation_round_trip(self, theta):
        assert tau_to_param("frank", frank_tau(theta)) == \
            pytest.approx(theta, abs=1e-9)

    @pytest.mark.parametrize("theta", [1.2, 2.0, 5.0, 12.0])
    def test_joe_relation_round_trip(self, theta):
        assert tau_to_param("joe", joe_tau(theta)) == \
            pytest.approx(theta, abs=1e-8)

    def test_not_fittable(self):
        with pytest.raises(NotFittable):
            tau_to_param("fgm", 0.2)

    @pytest.mark.parametrize("theta", [1.0001, 1.5, 2.0 - 1e-9, 2.0, 2.0 + 1e-6,
                                       3.0, 50.0, 500.0])
    def test_joe_tau_against_mpmath(self, theta):
        """The closed form, and its series near theta = 2, against the
        digamma form at 60 digits (its limit 1 - psi'(2) at theta = 2)."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            t = mpmath.mpf(theta)
            ref = 1 - mpmath.psi(1, 2) if theta == 2.0 else \
                1 + 2 / (2 - t) * (mpmath.psi(0, 2) - mpmath.psi(0, 2 / t + 1))
        assert abs(joe_tau(theta) - float(ref)) <= 1e-13

    @pytest.mark.parametrize("theta", [1e-8, -1e-8, 1e-5, 1e-3, 0.05, 0.5,
                                       1.99, 2.0, 2.01, 5.0, 30.0, 700.0])
    def test_debye1_and_frank_tau_against_mpmath(self, theta):
        """D1 and Frank's tau to 1e-15 relative against the defining integral
        at 50 digits, near independence too, where tau ~ theta/9."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            d1 = mpmath.quad(lambda s: s / mpmath.expm1(s) if s else 1,
                             [0, t]) / t
            tau = 1 - 4 / t * (1 - d1)
        assert abs(debye1(theta) - float(d1)) <= 1e-15 * abs(float(d1))
        assert abs(frank_tau(theta) - float(tau)) <= 1e-15 * abs(float(tau))

    @pytest.mark.parametrize("family,lo", [("frank", 1e-8),
                                           ("joe", 1.0 + 1e-9)])
    def test_tiny_tau_returns_the_lower_end(self, family, lo):
        """A tau below tau(lo) of the bracket returns lo instead of raising;
        the mean of pair taus (0.1, 0.2, -0.3) is such a tau, 1.85e-17."""
        tau_bar = float(np.mean([0.1, 0.2, -0.3]))
        assert 0.0 < tau_bar < 1e-16
        assert tau_to_param(family, 1e-17) == lo
        assert tau_to_param(family, tau_bar) == lo

    def test_frank_inversion_near_independence(self):
        assert tau_to_param("frank", 1e-8) == pytest.approx(9e-8, rel=1e-12)

    @pytest.mark.parametrize("j", range(1, 13))
    def test_joe_tau_near_independence_against_mpmath(self, j):
        """The series below theta = 1.15 keeps 1e-14 relative where the
        digamma difference cancels: at 1 + 1e-9 it lost 3.7e-7."""
        mpmath = pytest.importorskip("mpmath")
        theta = 1.0 + 10.0 ** -j
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            ref = float(1 + 2 / (2 - t)
                        * (mpmath.psi(0, 2) - mpmath.psi(0, 2 / t + 1)))
        assert abs(joe_tau(theta) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("family", ["frank", "joe"])
    def test_tau_too_near_one_is_not_bracketed(self, family):
        """theta would pass the bracket's 1e8 cap: NoConvergence, at once."""
        with pytest.raises(NoConvergence, match="not bracketed"):
            tau_to_param(family, 1.0 - 1e-12)

    @pytest.mark.parametrize("family,theta", [("frank", 4.0e6),
                                              ("joe", 2.0e6)])
    def test_tau_near_one_inside_the_bracket(self, family, theta):
        assert tau_to_param(family, 1.0 - 1e-6) == pytest.approx(theta,
                                                                 rel=1e-3)


# Monte Carlo standard errors of the recovered parameter at N = 5000,
# frozen from a 50-seed pilot (tests/pilots/fit_round_trip.py regenerates).
_PILOT_SE = {
    ("clayton", 0.5): 0.0289,
    ("clayton", 2.0): 0.06012,
    ("clayton", 6.0): 0.152,
    ("frank", 1.0): 0.08988,
    ("frank", 5.0): 0.1093,
    ("frank", 14.0): 0.2052,
    ("gumbel_hougaard", 1.2): 0.01192,
    ("gumbel_hougaard", 2.0): 0.02477,
    ("gumbel_hougaard", 4.0): 0.0595,
    ("joe", 1.5): 0.02742,
    ("joe", 3.0): 0.06342,
    ("joe", 7.0): 0.1528,
}


class TestEstimate:
    def test_pilot_band_is_the_pilots_table(self):
        """The frozen band is the pilot's output to the 4 significant
        digits it prints; a sampler or fit change that moves it shows."""
        from pilots.fit_round_trip import pilot_se
        assert {key: float(f"{se:.4g}") for key, se in pilot_se().items()} \
            == _PILOT_SE

    @pytest.mark.parametrize("family,param", sorted(_PILOT_SE))
    def test_round_trip_within_pilot_band(self, family, param):
        model = CopulaModel(family, 2, (param,))
        seed = zlib.crc32(f"{family}:{param!r}".encode())
        data = model.sample(5000, seed=seed)
        got = estimate(family, data).model.params[0]
        assert abs(got - param) <= 3.0 * _PILOT_SE[(family, param)]

    def test_clayton_band_example(self):
        data = CopulaModel("clayton", 2, (2.0,)).sample(10 ** 4, seed=77)
        got = estimate("clayton", data).model.params[0]
        assert 1.85 <= got <= 2.15

    def test_product_always_fits(self):
        data = np.random.default_rng(0).random((50, 3))
        fr = estimate("product", data)
        assert fr.model.family == "product" and fr.model.params == ()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("family", FITTABLE_FAMILIES)
    def test_non_finite_data_rejected(self, family, bad):
        data = CopulaModel("clayton", 3, (2.0,)).sample(100, seed=9)
        data[17, 2] = bad
        with pytest.raises(NonFiniteData):
            estimate(family, data)

    def test_comonotone_boundary(self):
        data = np.repeat(np.arange(100.0)[:, None], 2, axis=1)
        with pytest.raises(TauOutOfRange):
            estimate("gumbel_hougaard", data)

    def test_gaussian_round_trip_and_projection(self):
        model = CopulaModel("gaussian", 3, (0.5, 0.3, 0.6))
        data = model.sample(5000, seed=5)
        fr = estimate("gaussian", data)
        assert np.allclose(fr.model.params, (0.5, 0.3, 0.6), atol=0.05)
        # projection keeps well-conditioned input nearly unchanged
        raw = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.6], [0.3, 0.6, 1.0]])
        proj = nearest_pd_correlation(raw)
        assert np.linalg.norm(proj - raw) <= 0.05
        assert np.linalg.eigvalsh(proj).min() > 0

    def test_gaussian_projection_repairs(self):
        bad = np.array([[1.0, 0.95, -0.5], [0.95, 1.0, 0.6], [-0.5, 0.6, 1.0]])
        assert np.linalg.eigvalsh(bad).min() < 0
        fixed = nearest_pd_correlation(bad)
        assert np.linalg.eigvalsh(fixed).min() > 0
        assert np.allclose(np.diag(fixed), 1.0)

    def test_trivariate_archimedean_uses_mean_tau(self):
        model = CopulaModel("clayton", 3, (2.0,))
        data = model.sample(4000, seed=8)
        fr = estimate("clayton", data)
        assert fr.model.dim == 3
        assert abs(fr.model.params[0] - 2.0) < 0.3
        assert len(fr.sample_stat) == 1

    def test_not_fittable_family(self):
        data = np.random.default_rng(1).random((100, 2))
        with pytest.raises(NotFittable):
            estimate("fgm", data)


class TestIndependenceEdge:
    """A tau at or past a family's independence edge is fitted at the
    edge, as the product copula, where tau_to_param refuses it."""

    ARCHIMEDEAN = ("clayton", "frank", "gumbel_hougaard", "joe")

    @pytest.mark.parametrize("family, y", [
        ("clayton", [1, 4, 3, 2]),          # tau = 0
        ("frank", [1, 4, 3, 2]),
        ("gumbel_hougaard", [3, 4, 2, 1]),  # tau = -2/3
        ("joe", [3, 4, 2, 1]),
    ])
    def test_bivariate(self, family, y):
        data = np.c_[[1.0, 2.0, 3.0, 4.0], y]
        tau = kendall_tau(data[:, 0], data[:, 1])
        with pytest.raises(TauOutOfRange):
            tau_to_param(family, tau)
        assert estimate(family, data) == FitResult(
            CopulaModel("product", 2), "independence_edge", (tau,))

    @pytest.mark.parametrize("family", ARCHIMEDEAN)
    def test_trivariate_negative_mean_tau(self, family):
        # pairwise taus -1, 1, -1
        data = np.array([[1, 4, 1], [2, 3, 2], [3, 2, 3], [4, 1, 4]], float)
        assert estimate(family, data) == FitResult(
            CopulaModel("product", 3), "independence_edge", (-1.0 / 3.0,))
