"""Properties of the log-posterior that the stacked likelihood pass must
keep: additivity over a split of the data, reduction of flexible and
Bernstein-transformed models to their simpler special cases (value and
gradient), and finite, correct gradients for records on piecewise knots.
Every generated dataset mixes exact, right-censored, interval-censored and
left-truncated records."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import loglik_at, make_dataset, make_model, random_dataset
from qvaft.data import Dataset
from qvaft.likelihood import (
    PriorSpec,
    constrain,
    grad_log_posterior,
    log_posterior_unconstrained,
)
from test_gradient import fd_gradient

PRIORS = PriorSpec(2.0, 1.0, 1.5, 1.0)
SEEDS = st.integers(0, 2**32 - 1)
FLEXIBLE = [("piecewise", (0.0, 0.8, 2.0)), ("spline", (-1.5, 0.0, 1.2))]


def mixed_dataset(rng, n, time_varying=False) -> Dataset:
    data = random_dataset(rng, n, 2, time_varying=time_varying)
    interval = ~data.event & np.isfinite(data.y_upper)
    right = ~data.event & ~np.isfinite(data.y_upper)
    assume(data.event.any() and interval.any() and right.any()
           and (data.trunc > 0).any())
    return data


def posterior(model, z, data):
    """(value, gradient) of the log-posterior; the point must be finite."""
    val = log_posterior_unconstrained(model, z, data, PRIORS)
    assume(math.isfinite(val))
    return val, grad_log_posterior(model, z, data, PRIORS)


def assert_close(a, b, rtol=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))), (a, b)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, family=st.sampled_from(["weibull", "lognormal", "tbp"]),
       effect=st.sampled_from([("constant", ())] + FLEXIBLE),
       time_varying=st.booleans())
def test_additive_over_a_split(seed, family, effect, time_varying):
    """The prior and Jacobian appear once on each side of
    post(full) + post(empty) == post(A) + post(B)."""
    rng = np.random.default_rng(seed)
    model = make_model(family, *effect, K=3 if family == "tbp" else 0,
                       time_varying=time_varying)
    data = mixed_dataset(rng, 24, time_varying)
    in_a = rng.random(data.n) < 0.5
    z = rng.normal(scale=0.3, size=model.n_unconstrained)
    parts = [posterior(model, z, d) for d in (
        data, data.subset(np.zeros(0, dtype=int)),
        data.subset(np.where(in_a)[0]), data.subset(np.where(~in_a)[0]))]
    (full, gf), (empty, ge), (a, ga), (b, gb) = parts
    assert_close(full + empty, a + b)
    assert_close(gf + ge, ga + gb)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, family=st.sampled_from(["weibull", "lognormal"]),
       effect=st.sampled_from(FLEXIBLE), time_varying=st.booleans())
def test_zero_alpha_equals_constant_model(seed, family, effect,
                                          time_varying):
    rng = np.random.default_rng(seed)
    flexible = make_model(family, *effect, time_varying=time_varying)
    constant = make_model(family, time_varying=time_varying)
    data = mixed_dataset(rng, 24, time_varying)
    nb, J = flexible.n_beta, flexible.J
    z_const = rng.normal(scale=0.3, size=constant.n_unconstrained)
    z_flex = np.concatenate([z_const[:nb], np.zeros(J), z_const[nb:]])
    v_c, g_c = posterior(constant, z_const, data)
    v_f, g_f = posterior(flexible, z_flex, data)
    assert_close(v_f, v_c)
    assert_close(np.delete(g_f, np.s_[nb:nb + J]), g_c)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, centering=st.sampled_from(["weibull", "lognormal"]),
       effect=st.sampled_from([("constant", ())] + FLEXIBLE),
       K=st.integers(1, 6))
def test_equal_weight_tbp_equals_centering(seed, centering, effect, K):
    """Stick coordinates 0 give equal weights, under which the Bernstein
    transform is the identity; the weight and theta priors do not involve
    beta, alpha, mu or sigma, so those gradient entries agree."""
    rng = np.random.default_rng(seed)
    tbp = make_model("tbp", *effect, centering=centering, K=K)
    plain = make_model(centering, *effect)
    data = mixed_dataset(rng, 24)
    z_plain = rng.normal(scale=0.3, size=plain.n_unconstrained)
    z_tbp = np.concatenate([z_plain, np.zeros(K - 1),
                            [rng.normal(scale=0.3)]])
    _, g_p = posterior(plain, z_plain, data)
    _, g_t = posterior(tbp, z_tbp, data)
    assert_close(
        loglik_at(tbp, constrain(tbp, z_tbp), data).sum(),
        loglik_at(plain, constrain(plain, z_plain), data).sum())
    assert_close(g_t[:plain.n_unconstrained], g_p, rtol=1e-8)


KNOTS = (0.0, 1.0, 2.5)


def on_knot_dataset(time_varying: bool) -> Dataset:
    """Event, censoring and truncation times exactly on the knots; with a
    switch at 0.5 the time since the switch lands on them too."""
    onset = 0.5 if time_varying else math.inf
    k1, k2 = (k + (onset if time_varying else 0.0) for k in KNOTS[1:])
    recs = []
    for x in ((1.0, 0.3), (0.0, -0.4), (1.0, -1.1)):
        recs += [
            (k1, k1, 1, 0.0, x, onset),
            (k2, k2, 1, k1, x, onset),
            (k1, k2, 0, 0.0, x, onset),
            (k2, math.inf, 0, k1, x, onset),
            (k2 + 0.7, k2 + 0.7, 1, k2, x, onset),
        ]
    return make_dataset(recs)


@pytest.mark.parametrize("family,K", [("weibull", 0), ("tbp", 3)])
@pytest.mark.parametrize("time_varying", [False, True])
def test_records_on_knots_have_finite_matching_gradient(family, K,
                                                        time_varying):
    model = make_model(family, "piecewise", KNOTS, K=K,
                       time_varying=time_varying)
    data = on_knot_dataset(time_varying)
    rng = np.random.default_rng(31)
    for _ in range(3):
        z = rng.normal(scale=0.3, size=model.n_unconstrained)
        an = grad_log_posterior(model, z, data, PRIORS)
        assert np.all(np.isfinite(an))
        fd = fd_gradient(model, z, data, PRIORS)
        rel = np.abs(fd - an) / np.maximum(1.0, np.abs(an))
        assert rel.max() < 1e-5, f"max rel err {rel.max():.2e} at z={z}"
