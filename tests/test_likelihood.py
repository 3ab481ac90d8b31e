"""Likelihood values against hand-worked cases, prior closed forms, the
transform Jacobian (via Dirichlet normalization quadrature), and the
censoring/truncation structure."""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import loglik_at, make_dataset, make_model, random_dataset
from test_gradient import EFFECTS, FAMILIES
from qvaft import likelihood
from qvaft.covproc import TimeBasis, is_monotone, transform
from qvaft.data import max_followup
from qvaft.errors import DomainError, NumericalError
from qvaft.likelihood import (
    ParameterVector,
    PriorSpec,
    constrain,
    constrained_array,
    grad_log_posterior,
    log_jacobian,
    log_posterior_unconstrained,
    make_posterior,
    psi_from_constrained,
    unconstrain,
)
from qvaft.likelihood import _stick_forward, _stick_inverse

UNIT_EXP = make_model(covariates=("x1",))  # weibull mu=0 sigma=1 at psi below
PSI_EXP = ParameterVector(np.zeros(1), np.array([]), 0.0, 1.0)
PRIORS = PriorSpec(1.0, 1.0, 1.0, 1.0)


def rec(y_l, y_u, event, trunc=0.0, x=(0.0,)):
    return make_dataset([(y_l, y_u, event, trunc, x)], ("x1",))


def log_prior(model, psi):
    """The log prior density on the constrained scale: the posterior on no
    data less the log-Jacobian of the constraining transform."""
    z = unconstrain(model, psi)
    empty = make_dataset([], model.covariates)
    return (log_posterior_unconstrained(model, z, empty, PRIORS)
            - log_jacobian(model, z))


class TestHandWorkedContributions:
    def test_exact_event_unit_exponential(self):
        # log f0(1) + log v(1) = -1 + 0
        assert loglik_at(UNIT_EXP, PSI_EXP, rec(1.0, 1.0, 1))[0] \
            == pytest.approx(-1.0, abs=1e-12)

    def test_right_censored(self):
        got = loglik_at(UNIT_EXP, PSI_EXP, rec(2.0, math.inf, 0))
        assert got[0] == pytest.approx(-2.0, abs=1e-12)

    def test_left_truncated_right_censored(self):
        # exponential memorylessness: log S(2) - log S(1) = -1
        got = loglik_at(UNIT_EXP, PSI_EXP, rec(2.0, math.inf, 0, trunc=1.0))
        assert got[0] == pytest.approx(-1.0, abs=1e-12)

    def test_interval_censored(self):
        got = loglik_at(UNIT_EXP, PSI_EXP, rec(1.0, 2.0, 0))
        assert got[0] == pytest.approx(np.log(np.exp(-1) - np.exp(-2)),
                                       abs=1e-12)

    def test_total_additivity_and_empty(self):
        r = (2.0, math.inf, 0, 0.0, (0.0,))
        assert loglik_at(UNIT_EXP, PSI_EXP, make_dataset([r, r])).sum() == \
            pytest.approx(-4.0)
        assert loglik_at(UNIT_EXP, PSI_EXP,
                         make_dataset([], ("x1",))).sum() == 0.0

    def test_permutation_invariance(self, rng):
        data = random_dataset(rng, 30, 2)
        model = make_model()
        psi = ParameterVector(np.array([0.3, -0.2]), np.array([]), 0.2, 1.1)
        base = loglik_at(model, psi, data).sum()
        perm = rng.permutation(30)
        assert loglik_at(model, psi, data.subset(perm)).sum() \
            == pytest.approx(base, abs=1e-10)


class TestStructure:
    def test_right_censoring_reduces_to_classic_form(self, rng):
        """With y_u = inf and no truncation the contribution must equal
        delta*log f + (1-delta)*log S."""
        from qvaft.baseline import log_density, log_survivor
        from qvaft.covproc import v_value
        model = make_model(effect_kind="piecewise", knots=(0.0, 1.0, 2.0))
        psi = ParameterVector(np.array([0.4, -0.1]), np.array([0.5, -0.3]),
                              0.3, 1.4)
        for _ in range(20):
            x = (float(rng.integers(0, 2)), float(rng.normal()))
            t = float(rng.uniform(0.1, 6.0))
            event = int(rng.random() < 0.5)
            r = make_dataset([(t, t if event else math.inf, event, 0.0, x)])
            u = v_value(model.effect, psi.beta, psi.alpha, np.array(x), t)
            if event:
                eta, x1, _ = model.predictor(psi.beta, np.array(x))
                logv = transform(TimeBasis(model.effect, np.array([t]), x1=x1),
                                 psi.alpha, eta, logv=True).logv[0]
                want = (log_density(model.baseline, psi.baseline_params(), None, u)
                        + logv)
            else:
                want = log_survivor(model.baseline, psi.baseline_params(), None, u)
            assert loglik_at(model, psi, r)[0] == \
                pytest.approx(want, abs=1e-12)

    def test_truncation_memorylessness(self, rng):
        """Exponential baseline, constant transform: conditioning on T > l
        equals shifting the time origin."""
        model = make_model(covariates=("x1",))
        psi = ParameterVector(np.array([0.7]), np.array([]), 0.4, 1.0)
        for _ in range(20):
            x = (float(rng.normal()),)
            l = float(rng.uniform(0.1, 2.0))
            dt = float(rng.uniform(0.1, 3.0))
            trunc_rec = (l + dt, math.inf, 0, l, x)
            shifted = (dt, math.inf, 0, 0.0, x)
            got = loglik_at(model, psi, make_dataset([trunc_rec, shifted]))
            assert got[0] == pytest.approx(got[1], abs=1e-10)

    def test_interval_limit_approaches_density(self):
        """log[S(y) - S(y+h)] - log h -> log f(y) + log v(y) as h -> 0."""
        model = make_model(effect_kind="spline", knots=(-1.0, 0.5),
                           covariates=("x1",))
        psi = ParameterVector(np.array([0.3]), np.array([0.2]), 0.1, 1.2)
        y = 1.3
        x = (1.0,)
        exact = loglik_at(model, psi, make_dataset([(y, y, 1, 0.0, x)]))[0]
        errs = []
        for h in (1e-4, 1e-5, 1e-6, 1e-7):
            got = loglik_at(
                model, psi, make_dataset([(y, y + h, 0, 0.0, x)]))[0]
            errs.append(abs(got - math.log(h) - exact))
        assert errs[-1] < 1e-3 * abs(exact)
        assert errs == sorted(errs, reverse=True)

    def test_zero_likelihood_is_minus_inf(self):
        model = make_model(covariates=("x1",))
        psi = ParameterVector(np.array([0.0]), np.array([]), -5.0, 8.0)
        out = loglik_at(model, psi, rec(50.0, 50.0, 1)).sum()
        assert out == -math.inf

    def test_underflowing_contribution_is_minus_inf(self):
        # both endpoints far past the -745 floor
        assert loglik_at(UNIT_EXP, PSI_EXP,
                         rec(800.0, 800.5, 0))[0] == -math.inf

    def test_degenerate_interval_is_minus_inf(self):
        # a slope that underflows to zero makes V (hence S) flat across the
        # interval: no survivor mass between the endpoints
        model = make_model(effect_kind="piecewise", knots=(0.0, 1.0),
                           covariates=("x1",))
        psi = ParameterVector(np.array([0.0]), np.array([800.0]), 0.0, 1.0)
        ll = loglik_at(model, psi, rec(2.0, 3.0, 0, x=(1.0,)))
        np.testing.assert_array_equal(ll, [-math.inf])


class TestPriors:
    def test_sigma_gamma_density(self):
        model = make_model()
        psi = ParameterVector(np.zeros(2), np.array([]), 0.0, 1.0)
        # Gamma(1,1) at sigma=1 is exp(-1)
        assert log_prior(model, psi) == pytest.approx(-1.0, abs=1e-12)

    def test_flat_in_beta(self):
        model = make_model()
        a = ParameterVector(np.array([0.0, 0.0]), np.array([]), 0.2, 1.3)
        b = ParameterVector(np.array([5.0, -9.0]), np.array([]), 0.2, 1.3)
        assert log_prior(model, a) == log_prior(model, b)

    def test_dirichlet_uniform_weights(self):
        K = 6
        model = make_model(family="tbp", K=K)
        psi = ParameterVector(np.zeros(2), np.array([]), 0.0, 1.0,
                              np.full(K, 1.0 / K), 1.0)
        got = log_prior(model, psi)
        # sigma Gamma(1,1) at 1 (-1) + theta Gamma(1,1) at 1 (-1) + log Gamma(K)
        assert got == pytest.approx(-2.0 + math.lgamma(K), abs=1e-12)


class TestTransforms:
    def test_round_trip(self):
        model = make_model(family="tbp", K=4, effect_kind="piecewise",
                           knots=(0.0, 1.5))
        psi = ParameterVector(np.array([0.3, -0.2]), np.array([0.4]),
                              0.7, 2.1, np.array([0.1, 0.2, 0.3, 0.4]), 1.7)
        z = unconstrain(model, psi)
        back = constrain(model, z)
        assert np.allclose(back.beta, psi.beta, atol=1e-14)
        assert np.allclose(back.alpha, psi.alpha, atol=1e-14)
        assert back.mu == pytest.approx(psi.mu)
        assert back.sigma == pytest.approx(psi.sigma, rel=1e-14)
        assert np.allclose(back.w, psi.w, atol=1e-14)
        assert back.theta == pytest.approx(psi.theta, rel=1e-14)

    def test_constrained_array_round_trip(self):
        model = make_model(family="tbp", K=3)
        psi = ParameterVector(np.array([0.1, 0.2]), np.array([]), -0.4, 0.9,
                              np.array([0.5, 0.25, 0.25]), 2.0)
        arr = constrained_array(model, psi)
        assert arr.shape == (len(model.param_names),)
        back = psi_from_constrained(model, arr)
        assert np.allclose(constrained_array(model, back), arr)

    def test_origin_maps_to_uniform_weights(self):
        w, _, _ = _stick_forward(np.zeros(4))
        assert np.allclose(w, 0.2, atol=1e-14)

    def test_dirichlet_normalization_by_quadrature(self):
        """The stick-breaking Jacobian is correct iff the pushed-forward
        Dirichlet density integrates to 1 over the unconstrained plane
        (K = 3, brute-force quadrature)."""
        theta = 1.7

        def integrand(y1, y2):
            w, _, logjac = _stick_forward(np.array([y1, y2]))
            logd = (math.lgamma(3 * theta) - 3 * math.lgamma(theta)
                    + (theta - 1.0) * float(np.sum(np.log(w))))
            return math.exp(logd + logjac)

        val, err = integrate.dblquad(integrand, -12, 12, -12, 12,
                                     epsabs=1e-9, epsrel=1e-9)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_posterior_invariant_under_transform_round_trip(self, rng):
        model = make_model(family="tbp", K=3)
        data = random_dataset(rng, 15, 2)
        z = rng.normal(scale=0.4, size=model.n_unconstrained)
        lp1 = log_posterior_unconstrained(model, z, data, PRIORS)
        z2 = unconstrain(model, constrain(model, z))
        lp2 = log_posterior_unconstrained(model, z2, data, PRIORS)
        assert lp1 == pytest.approx(lp2, abs=1e-9)

    def test_single_parameter_change_of_variables(self, rng):
        """d = 0, J = 0: posterior(z) = loglik + Gamma prior at sigma plus
        the analytic log-Jacobian log(sigma) of sigma = exp(z)."""
        model = make_model(covariates=())
        data = make_dataset([(1.0, 1.0, 1), (2.0, math.inf, 0)])
        z = np.array([0.3, -0.4])  # (mu, log sigma)
        psi = constrain(model, z)
        # Gamma(1, 1) at sigma: log prior -sigma
        want = loglik_at(model, psi, data).sum() - psi.sigma + z[1]
        got = log_posterior_unconstrained(model, z, data, PRIORS)
        assert got == pytest.approx(want, abs=1e-12)
        assert log_jacobian(model, z) == pytest.approx(z[1])

    def test_monotonicity_rejection(self):
        model = make_model(effect_kind="spline", knots=(-1.0, 0.0, 1.0))
        data = make_dataset([(1.0, 1.0, 1, 0.0, (1.0, 0.0))])
        z = np.zeros(model.n_unconstrained)
        z[2] = 8.0  # alpha_1 large enough to break monotonicity
        assert log_posterior_unconstrained(model, z, data, PRIORS) == -math.inf


class TestValidation:
    def test_psi_shape_checked(self):
        model = make_model()
        with pytest.raises(DomainError):
            loglik_at(model, ParameterVector(np.zeros(3), np.array([]), 0, 1),
                      make_dataset([], model.covariates))

    def test_one_simplex_rule(self):
        # within 1e-10 of the simplex but not within the 1e-12 of TBPWeights
        model = make_model(family="tbp", K=3)
        psi = ParameterVector(np.zeros(2), np.array([]), 0.0, 1.0,
                              np.array([0.3, 0.3, 0.4 + 5e-11]), 1.0)
        data = make_dataset([(1.0, 1.0, 1, 0.0, (0.0, 0.0))])
        with pytest.raises(DomainError, match="sum to 1"):
            loglik_at(model, psi, data)

    def test_tbp_needs_weights(self):
        model = make_model(family="tbp", K=3)
        with pytest.raises(DomainError):
            loglik_at(model, ParameterVector(np.zeros(2), np.array([]), 0, 1),
                      make_dataset([], model.covariates))


class TestWrittenOutOracle:
    """Weibull baseline with a piecewise effect, with S0 and V written out
    here from their definitions rather than through the package's shared
    evaluators."""

    KNOTS = (0.0, 1.0, 2.5)
    BETA = (0.5, -0.2)
    ALPHA = (0.4, -0.3)
    MU, SIGMA = 0.3, 1.3

    def slopes(self, x):
        # slope of V on [0, tau_1), [tau_1, tau_2), [tau_2, inf)
        eta = self.BETA[0] * x[0] + self.BETA[1] * x[1]
        return [math.exp(-eta)] + [math.exp(-eta - x[0] * a) for a in self.ALPHA]

    def V(self, t, x):
        edges = list(self.KNOTS) + [math.inf]
        return sum(r * max(0.0, min(t, hi) - lo)
                   for r, lo, hi in zip(self.slopes(x), edges[:-1], edges[1:]))

    def v(self, t, x):
        seg = sum(t >= k for k in self.KNOTS[1:])
        return self.slopes(x)[seg]

    def S0(self, u):
        return math.exp(-(u / math.exp(self.MU)) ** self.SIGMA)

    def f0(self, u):
        z = u / math.exp(self.MU)
        return self.SIGMA / math.exp(self.MU) * z ** (self.SIGMA - 1.0) * self.S0(u)

    def oracle(self, rec):
        y_lower, y_upper, event, trunc, x = rec
        if event:
            num = self.f0(self.V(y_lower, x)) * self.v(y_lower, x)
        elif math.isinf(y_upper):
            num = self.S0(self.V(y_lower, x))
        else:
            num = (self.S0(self.V(y_lower, x))
                   - self.S0(self.V(y_upper, x)))
        return math.log(num) - math.log(self.S0(self.V(trunc, x)))

    def test_every_record_kind(self, rng):
        model = make_model(effect_kind="piecewise", knots=self.KNOTS)
        psi = ParameterVector(np.array(self.BETA), np.array(self.ALPHA),
                              self.MU, self.SIGMA)
        recs = []
        for _ in range(40):
            x = (float(rng.integers(0, 2)), float(rng.normal()))
            t = float(rng.uniform(0.05, 4.5))
            trunc = float(rng.uniform(0.0, t)) if rng.random() < 0.5 else 0.0
            kind = rng.integers(0, 3)
            if kind == 0:
                recs.append((t, t, 1, trunc, x))
            elif kind == 1:
                recs.append((t, math.inf, 0, trunc, x))
            else:
                recs.append((t, t + float(rng.uniform(0.05, 2.0)), 0, trunc,
                             x))
        got = loglik_at(model, psi, make_dataset(recs))
        want = np.array([self.oracle(r) for r in recs])
        assert np.abs(got - want).max() < 1e-10


class TestUnrepresentableProposals:
    """Proposals whose constrained values overflow or underflow (a saturated
    stick, a huge scale or concentration) are rejected, never raised."""

    @pytest.mark.parametrize("coord,value", [
        ("stick", 800.0), ("stick", -800.0),
        ("log_sigma", 800.0), ("log_theta", 800.0)])
    def test_rejected_not_raised(self, coord, value, rng):
        model = make_model(family="tbp", K=5)
        data = random_dataset(rng, 20, 2)
        nb, J = model.n_beta, model.J
        z = np.zeros(model.n_unconstrained)
        z[{"stick": nb + J + 2, "log_sigma": nb + J + 1,
           "log_theta": model.n_unconstrained - 1}[coord]] = value
        assert log_posterior_unconstrained(model, z, data, PRIORS) == -math.inf
        with pytest.raises(NumericalError):
            grad_log_posterior(model, z, data, PRIORS)
        logp, grad = make_posterior(model, data, PRIORS)[0](z)
        assert logp == -math.inf
        assert np.array_equal(grad, np.zeros(model.n_unconstrained))


@pytest.mark.parametrize("coord", ["log sigma", "log theta"])
def test_constrain_overflow_names_coordinate(coord):
    """Outside the sampler an unrepresentable scale is an input error that
    names its coordinate."""
    model = make_model(family="tbp", K=3)
    z = np.zeros(model.n_unconstrained)
    index = {"log sigma": model.n_beta + model.J + 1, "log theta": -1}[coord]
    z[index] = 800.0
    with pytest.raises(DomainError, match=f"{coord} = 800"):
        constrain(model, z)


@pytest.mark.parametrize("coord,value", [
    ("stick", 800.0), ("stick", -800.0), ("log_sigma", 800.0),
    ("log_theta", 800.0), ("log_sigma", -800.0), ("log_theta", -800.0),
    ("stick", 5.0), ("log_sigma", 1.0), ("log_theta", -3.0)])
def test_constrain_raises_where_posterior_rejects(coord, value, rng):
    """constrain and the posterior share one constraining pass: constrain
    raises a DomainError naming the coordinate exactly where the posterior
    returns -inf for an unrepresentable proposal."""
    model = make_model(family="tbp", K=5)
    data = random_dataset(rng, 20, 2)
    nb, J = model.n_beta, model.J
    z = np.zeros(model.n_unconstrained)
    z[{"stick": nb + J + 2, "log_sigma": nb + J + 1,
       "log_theta": model.n_unconstrained - 1}[coord]] = value
    rejected = log_posterior_unconstrained(model, z, data, PRIORS) == -math.inf
    assert rejected == (abs(value) == 800.0)
    if rejected:
        with pytest.raises(DomainError, match=coord.replace("_", " ")):
            constrain(model, z)
    else:
        constrain(model, z)


class TestGridRejectionMatchesChecks:
    """The posterior rejects a spline alpha exactly where `is_monotone`
    fails at the data's exposure values (or after a switch), and every zeta of
    a piecewise switch effect gives an alpha the check accepts. All
    records are right-censored, so no exact-event slope rejects on its
    own, and mu and sigma are large enough that no contribution
    underflows."""

    @staticmethod
    def _data(rng, tv, x1):
        recs = [(float(t), math.inf, 0, 0.0, (x1(), float(rng.normal())),
                 float(rng.uniform(0.2, 3.0)) if tv else math.inf)
                for t in rng.uniform(0.5, 3.0, size=30)]
        return make_dataset(recs)

    def _agree(self, model, data, rng):
        nb, J = model.n_beta, model.J
        seen = set()
        for _ in range(60):
            z = np.zeros(model.n_unconstrained)
            z[nb:nb + J] = rng.normal(scale=0.8, size=J)
            z[nb + J:] = 3.0, -1.0  # mu, log sigma
            alpha = constrain(model, z).alpha
            if model.time_varying:
                ok = is_monotone(model.effect, alpha, switch=True)
            else:
                ok = is_monotone(model.effect, alpha,
                                 data.x[:, model.exposure_index])
            logp = log_posterior_unconstrained(model, z, data, PRIORS)
            assert (logp == -math.inf) == (not ok), alpha
            seen.add(ok)
        return seen

    @pytest.mark.parametrize("kind,knots,tv", [
        ("spline", (-1.5, 0.0, 1.0), False),
        ("spline", (-1.5, 0.0, 1.0), True),
        ("piecewise", (0.0, 1.0, 2.0), True)])
    def test_random_alphas(self, kind, knots, tv, rng):
        model = make_model(effect_kind=kind, knots=knots, time_varying=tv)
        data = self._data(rng, tv, lambda: float(rng.integers(0, 2)))
        if kind == "spline":
            assert self._agree(model, data, rng) == {True, False}
            return
        assert self._agree(model, data, rng) == {True}
        z = np.zeros(model.n_unconstrained)
        # zeta from near the wall (1 - D alpha = 1e-13) to far from it
        for zeta in rng.uniform(-30.0, 8.0, size=(200, model.J)):
            z[model.n_beta:model.n_beta + model.J] = zeta
            assert is_monotone(model.effect, constrain(model, z).alpha,
                               switch=True)

    def test_knots_beyond_followup_and_exposure_of_both_signs(self, rng):
        # the top knot e^3.1 lies beyond 1.5 times the follow-up of 3
        model = make_model(effect_kind="spline", knots=(-1.5, 0.0, 3.1),
                           exposure="x2")
        data = self._data(rng, False, lambda: 0.0)
        assert max_followup(data) < 3.0 and np.ptp(np.sign(data.x[:, 1])) == 2
        assert self._agree(model, data, rng) == {True, False}


class TestExactRowSlopeRejection:
    """Piecewise switch effect on knots (0, 1, 2): past the switch,
    1 - s a'(s) = 1 - alpha_1 / s on s in [1, 2), negative below s =
    alpha_1 = 1.02887. A 200-point grid over the follow-up of 4.0 had no
    point in [1, 1.02887), so it passed this alpha; the exact rule fails it,
    and the posterior, which samples zeta = log(1 - D alpha), has no point
    for it. An exact event at s = 1 + 1e-9 still rejects through its log
    v."""

    MODEL = make_model(effect_kind="piecewise", knots=(0.0, 1.0, 2.0),
                       time_varying=True)
    ALPHA = np.array([1.02887, 0.0])
    DATA = make_dataset(
        [(1.5 + 1e-9, 1.5 + 1e-9, 1, 0.0, (1.0, 0.0), 0.5),
         (2.0, math.inf, 0, 0.0, (0.0, 1.0), 0.5),
         (4.0, math.inf, 0, 0.0, (1.0, -1.0), math.inf)])

    def test_exact_rule_fails(self):
        effect = self.MODEL.effect
        assert not is_monotone(effect, self.ALPHA, switch=True)
        assert is_monotone(effect, np.array([0.999, 0.0]), switch=True)

    def test_posterior_and_pointwise_reject(self):
        psi = ParameterVector(np.zeros(3), self.ALPHA, 0.0, 1.0)
        with pytest.raises(DomainError, match="alpha"):
            unconstrain(self.MODEL, psi)
        ll = loglik_at(self.MODEL, psi, self.DATA)
        assert ll[0] == -math.inf and np.all(np.isfinite(ll[1:]))


class TestSaturatedSticks:
    """The stick transform at logistic saturation, where 1 - z_k is far
    below machine precision."""

    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("v", [30.0, -30.0])
    def test_round_trip(self, K, v):
        ys = [np.full(K - 1, v)]
        for k in range(K - 1):
            y = np.zeros(K - 1)
            y[k] = v
            ys.append(y)
        for y in ys:
            w, z, logjac = _stick_forward(y)
            assert np.all(w > 0) and abs(w.sum() - 1.0) <= 4e-16 * K
            assert math.isfinite(logjac)
            np.testing.assert_allclose(_stick_inverse(w), y, rtol=0.0,
                                       atol=1e-13)

    def test_later_weights_keep_relative_precision(self):
        # y = (30, 0): w_2 = (1 - z_1)(1 - z_2) with 1 - z_1 = 1/(1 + e^x)
        w, _, _ = _stick_forward(np.array([30.0, 0.0]))
        x1 = 30.0 - math.log(2.0)
        assert w[2] == pytest.approx(0.5 / (1.0 + math.exp(x1)), rel=1e-14,
                                     abs=0.0)


class TestDirichletNormaliserOverflow:
    """Where K theta (or theta) is beyond math.lgamma's range the posterior
    is -inf with a zero gradient, as it was with scipy's gammaln."""

    @pytest.mark.parametrize("log_theta", [703.0, 706.0, 709.0])
    def test_rejected_not_raised(self, log_theta, rng):
        model = make_model(family="tbp", K=5)
        data = random_dataset(rng, 20, 2)
        z = np.zeros(model.n_unconstrained)
        z[-1] = log_theta
        k_theta = 5 * math.exp(log_theta)  # inf at 709
        if math.isfinite(k_theta):
            with pytest.raises(OverflowError):
                math.lgamma(k_theta)
        assert log_posterior_unconstrained(model, z, data, PRIORS) == -math.inf
        logp, grad = make_posterior(model, data, PRIORS)[0](z)
        assert logp == -math.inf
        assert np.array_equal(grad, np.zeros(model.n_unconstrained))

    def test_log_prior_not_finite(self):
        model = make_model(family="tbp", K=5)
        psi = ParameterVector(np.zeros(2), np.array([]), 0.0, 1.0,
                              np.full(5, 0.2), math.exp(703.0))
        assert not math.isfinite(log_prior(model, psi))


class TestBlockedPointwise:
    """`pointwise_loglik_matrix`, which evaluates draws in blocks, against
    itself one draw at a time: every family and effect
    kind of the gradient tests, with and without a switch, on data with
    exact, interval, right-censored and truncated rows, with more draws
    than one block holds."""

    @pytest.mark.parametrize("family,centering,K", FAMILIES)
    @pytest.mark.parametrize("kind,knots", EFFECTS)
    @pytest.mark.parametrize("time_varying", [False, True])
    def test_matches_one_draw_at_a_time(self, family, centering, K, kind,
                                        knots, time_varying, rng):
        model = make_model(family, kind, knots, centering=centering, K=K,
                           time_varying=time_varying)
        data = random_dataset(rng, 25, 2, time_varying=time_varying)
        prep = likelihood.prepare(model, data)
        assert prep.has_interval and prep.trunc_rows.size
        rows = len(prep.basis.t)
        M = likelihood.BLOCK // rows + 3  # two blocks, split inside the draws
        z = rng.normal(scale=0.5, size=(M, model.n_unconstrained))
        constrained = np.array([constrained_array(model, constrain(model, v))
                                for v in z])
        got = likelihood.pointwise_loglik_matrix(model, constrained, prep)
        want = np.array([loglik_at(
            model, psi_from_constrained(model, row), prep)
            for row in constrained])
        assert got.shape == (M, data.n)
        np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        assert finite.mean() > 0.5
        # within 1e-12 relative; a contribution near 0 is a difference of
        # terms of order 1, whose last bits give it an absolute error of a
        # few 1e-16 (at other seeds: 8.9e-16 on a value of 8.9e-5)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12,
                                   atol=1e-14)
