"""Baseline family checks: closed-form values, the Bernstein-transform
degeneracy and its independent beta-CDF-sum oracle, tail-stable log forms,
and quantile round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import beta as beta_dist

from qvaft.baseline import (
    BaselineParams,
    BaselineSpec,
    TBPWeights,
    density,
    inverse_survivor,
    log_density,
    log_survivor,
    survivor,
)
from qvaft.baseline import _tbp_coefficients, log_terms
from qvaft.errors import DomainError

WEIBULL = BaselineSpec("weibull")
LOGNORMAL = BaselineSpec("lognormal")
TBP5 = BaselineSpec("tbp", "weibull", 5)
STD = BaselineParams(0.0, 1.0)
SKEW_W = TBPWeights((0.01, 0.03, 0.09, 0.23, 0.64))
EQUAL_W = TBPWeights((0.2,) * 5)


def tbp_oracle(w, t, mu=0.0, sigma=1.0, K=5):
    """Independent route: direct sum of scipy Beta CDFs at the centering
    survivor values."""
    sc = np.exp(-(np.asarray(t) * np.exp(-mu)) ** sigma)
    return sum(w[k - 1] * beta_dist.cdf(sc, K - k + 1, k)
               for k in range(1, K + 1))


class TestClosedForms:
    def test_weibull_unit_exponential(self):
        assert survivor(WEIBULL, STD, None, 1.0) == pytest.approx(
            np.exp(-1.0), abs=1e-15)
        assert density(WEIBULL, STD, None, 1.0) == pytest.approx(
            np.exp(-1.0), abs=1e-15)

    def test_lognormal_median(self):
        assert survivor(LOGNORMAL, STD, None, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_weibull_tail_log_survivor_exact(self):
        assert log_survivor(WEIBULL, STD, None, 50.0) == -50.0

    def test_weibull_log_density_closed_form(self):
        # log(sigma t^(sigma-1) exp(-t^sigma)) at mu=0, sigma=2, t=2
        got = log_density(WEIBULL, BaselineParams(0.0, 2.0), None, 2.0)
        assert got == pytest.approx(np.log(4.0) - 4.0, abs=1e-12)

    def test_weibull_quantile(self):
        assert inverse_survivor(WEIBULL, STD, None, np.exp(-1.0)) == \
            pytest.approx(1.0, rel=1e-14)

    def test_lognormal_quantile_in_both_tails(self):
        for p in (1e-20, 1 - 1e-12):
            t = inverse_survivor(LOGNORMAL, STD, None, p)
            assert log_survivor(LOGNORMAL, STD, None, t) == pytest.approx(
                np.log(p), rel=1e-9)

    def test_exponential_rate_03_median(self):
        # S0(t) = exp(-0.3 t) is Weibull with mu = log(1/0.3), sigma = 1
        pars = BaselineParams(np.log(1.0 / 0.3), 1.0)
        assert inverse_survivor(WEIBULL, pars, None, 0.5) == pytest.approx(
            np.log(2.0) / 0.3, rel=1e-14)


class TestBernsteinTransform:
    def test_equal_weights_reproduce_centering(self):
        t = np.linspace(0.02, 6.0, 100)
        dev = np.abs(survivor(TBP5, STD, EQUAL_W, t)
                     - survivor(WEIBULL, STD, None, t))
        assert dev.max() < 1e-12

    def test_equal_weights_density(self):
        t = np.linspace(0.05, 4.0, 50)
        dev = np.abs(density(TBP5, STD, EQUAL_W, t)
                     - density(WEIBULL, STD, None, t))
        assert dev.max() < 1e-12

    def test_skewed_weights_against_beta_cdf_sum(self):
        t = np.linspace(0.01, 8.0, 200)
        for K, w in ((5, SKEW_W), (1, TBPWeights((1.0,))),
                     (20, TBPWeights(np.arange(1.0, 21.0) ** 2 / 2870.0))):
            got = survivor(BaselineSpec("tbp", "weibull", K), STD, w, t)
            want = tbp_oracle(w.as_array(), t, K=K)
            assert np.all(np.diff(got) < 0), K
            assert np.abs(got - want).max() < 1e-13, K

    def test_lognormal_centering(self):
        spec = BaselineSpec("tbp", "lognormal", 4)
        w = TBPWeights((0.4, 0.1, 0.1, 0.4))
        t = np.linspace(0.05, 5.0, 60)
        got = survivor(spec, STD, w, t)
        sc = survivor(LOGNORMAL, STD, None, t)
        want = sum(w.as_array()[k - 1] * beta_dist.cdf(sc, 4 - k + 1, k)
                   for k in range(1, 5))
        assert np.abs(got - want).max() < 1e-13

    def test_density_matches_finite_difference(self):
        h = 1e-6
        for t in (0.5, 1.0, 3.0):
            fd = -(survivor(TBP5, STD, SKEW_W, t + h)
                   - survivor(TBP5, STD, SKEW_W, t - h)) / (2 * h)
            assert density(TBP5, STD, SKEW_W, t) == pytest.approx(
                fd, rel=1e-5)

    def test_quantile_round_trip(self):
        for p in np.arange(0.1, 0.95, 0.1):
            t = inverse_survivor(TBP5, STD, SKEW_W, p)
            assert abs(survivor(TBP5, STD, SKEW_W, t) - p) < 1e-8


class TestLogForms:
    def test_log_survivor_consistency(self):
        t = np.geomspace(0.01, 20.0, 60)
        for spec, w in ((WEIBULL, None), (LOGNORMAL, None), (TBP5, SKEW_W)):
            s = survivor(spec, STD, w, t)
            keep = s > 1e-300
            dev = np.abs(log_survivor(spec, STD, w, t)[keep] - np.log(s[keep]))
            assert dev.max() < 1e-12

    def test_log_density_consistency(self):
        t = np.geomspace(0.05, 10.0, 40)
        for spec, w in ((WEIBULL, None), (LOGNORMAL, None), (TBP5, SKEW_W)):
            dev = np.abs(log_density(spec, STD, w, t)
                         - np.log(density(spec, STD, w, t)))
            assert dev.max() < 1e-12

    def test_deep_tail_no_underflow(self):
        # far beyond double underflow on the probability scale
        assert log_survivor(WEIBULL, STD, None, 2000.0) == -2000.0
        assert np.isfinite(log_survivor(LOGNORMAL, STD, None, 1e6))
        assert np.isfinite(log_survivor(TBP5, STD, SKEW_W, 800.0))


class TestInvariants:
    @pytest.mark.parametrize("spec,w", [
        (WEIBULL, None),
        (LOGNORMAL, None),
        (TBP5, SKEW_W),
        (BaselineSpec("tbp", "lognormal", 5), SKEW_W),
    ])
    def test_monotone_and_normalized(self, spec, w):
        pars = BaselineParams(0.4, 0.8)
        t999 = inverse_survivor(spec, pars, w, 1e-3)
        grid = np.linspace(t999 / 1000.0, t999, 1000)
        s = survivor(spec, pars, w, grid)
        assert np.all(np.diff(s) < 0)
        assert survivor(spec, pars, w, 0.0) == pytest.approx(1.0, abs=1e-12)
        centering = BaselineSpec(spec.centering if spec.is_tbp else spec.family)
        t_hi = inverse_survivor(centering, pars, None, 1e-7)
        assert survivor(spec, pars, w, t_hi) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(mu=st.floats(-1.5, 1.5), sigma=st.floats(0.3, 3.0),
           p=st.floats(0.01, 0.99))
    def test_inverse_round_trip_property(self, mu, sigma, p):
        pars = BaselineParams(mu, sigma)
        for spec, w in ((WEIBULL, None), (LOGNORMAL, None), (TBP5, SKEW_W)):
            t = inverse_survivor(spec, pars, w, p)
            assert survivor(spec, pars, w, t) == pytest.approx(p, rel=1e-8)


class TestTBPInverseTails:
    """The TBP inverse stops on a bracket width relative to the root, so it
    stays accurate deep in both tails."""

    @pytest.mark.parametrize("K", [3, 5])
    def test_equal_weights_match_centering_closed_form(self, K):
        p = np.array([1e-12, 0.3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
        pars = BaselineParams(0.3, 1.2)
        got = inverse_survivor(BaselineSpec("tbp", "weibull", K), pars,
                               TBPWeights((1.0 / K,) * K), p)
        want = inverse_survivor(WEIBULL, pars, None, p)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    @pytest.mark.parametrize("p", [1e-12, 1e-6, 1 - 1e-6, 1 - 1e-9])
    def test_round_trip_in_both_tails(self, p):
        s = survivor(TBP5, STD, SKEW_W, inverse_survivor(TBP5, STD, SKEW_W, p))
        assert min(s, 1 - s) == pytest.approx(min(p, 1 - p), rel=1e-5)


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            survivor(WEIBULL, STD, None, -0.5)

    def test_density_needs_positive_time(self):
        with pytest.raises(DomainError):
            density(WEIBULL, STD, None, 0.0)

    def test_bad_sigma(self):
        with pytest.raises(DomainError):
            BaselineParams(0.0, -1.0)

    def test_bad_quantile_level(self):
        for p in (0.0, 1.0, -0.2, 1.5, np.nan):
            with pytest.raises(DomainError):
                inverse_survivor(WEIBULL, STD, None, p)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            TBPWeights((0.5, 0.4))
        with pytest.raises(DomainError):
            TBPWeights((1.2, -0.2))

    def test_weights_only_for_tbp(self):
        with pytest.raises(DomainError):
            survivor(WEIBULL, STD, EQUAL_W, 1.0)
        with pytest.raises(DomainError):
            survivor(TBP5, STD, None, 1.0)


class TestCoefficients:
    """The Bernstein coefficients of the tbp survivor and density."""

    def test_weighted_binomials_are_exact(self):
        # c_j = W_j C(K, j) and d_j = w_{K-j} C(K-1, j), with C(K, j) the
        # exact integer (beyond 2^53 for K = 60, rounded once to a double)
        rng = np.random.default_rng(7)
        for K in range(1, 61):
            w = rng.dirichlet(np.ones(K))
            W = np.append(0.0, np.cumsum(w[::-1]))
            c, d = _tbp_coefficients(w)
            assert c.tolist() == [W[j] * math.comb(K, j) for j in range(K + 1)]
            assert d.tolist() == [w[K - 1 - j] * math.comb(K - 1, j)
                                  for j in range(K)]


class TestTBPNearOne:
    """log S0 of the Bernstein-transformed baseline where S0 is close to 1,
    and its partials where the centering survivor underflows."""

    SPEC = BaselineSpec("tbp", "weibull", 5)
    W = np.array([0.1, 0.15, 0.3, 0.25, 0.2])

    def test_log_survivor_against_50_digit_values(self):
        # mpmath at 50 digits; mu = 1, sigma = 1.2
        u = np.array([1e-9, 1e-7, 1e-3])
        want = [-2.3868032803502427e-12, -5.99537877996455e-10,
                -3.7830429500745586e-05]
        got = log_terms(self.SPEC, 1.0, 1.2, self.W, u).val
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_deep_tail_partials_are_finite(self):
        # z = (u e^-mu)^sigma > 745: the centering survivor p underflows
        u, h = 2000.0, 1e-3
        with np.errstate(over="ignore"):  # log_terms leaves warnings to callers
            t = log_terms(self.SPEC, 1.0, 1.2, self.W,
                          np.array([u - h, u, u + h]), grad=True)
        assert np.isfinite(t.val).all()
        for part in (t.d_du, t.d_dmu, t.d_dls, t.d_dw):
            assert np.isfinite(part).all()
        fd = (t.val[2] - t.val[0]) / (2 * h)
        assert t.d_du[1] == pytest.approx(fd, rel=1e-6)
