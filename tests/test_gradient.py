"""Gradient of the unconstrained log-posterior against central finite
differences, across every baseline family and effect kind, plus the
hand-differentiated unit-exponential case."""

import math

import numpy as np
import pytest

from conftest import make_model, random_dataset
from qvaft.data import Dataset, SubjectRecord
from qvaft.errors import NumericalError
from qvaft.likelihood import (
    ParameterVector,
    PriorSpec,
    grad_log_posterior,
    log_posterior_unconstrained,
    prepare,
    unconstrain,
)

PRIORS = PriorSpec(2.0, 1.0, 1.5, 1.0)


def fd_gradient(model, z, prep, priors):
    out = np.zeros_like(z)
    for i in range(len(z)):
        h = 1e-5 * max(1.0, abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        out[i] = (log_posterior_unconstrained(model, zp, prep, priors)
                  - log_posterior_unconstrained(model, zm, prep, priors)) / (2 * h)
    return out


def assert_grad_matches(model, data, rng, tries=6):
    prep = prepare(model, data)
    checked = 0
    for _ in range(tries):
        z = rng.normal(scale=0.3, size=model.n_unconstrained)
        if not math.isfinite(log_posterior_unconstrained(model, z, prep, PRIORS)):
            continue
        an = grad_log_posterior(model, z, prep, PRIORS)
        fd = fd_gradient(model, z, prep, PRIORS)
        rel = np.abs(fd - an) / np.maximum(1.0, np.abs(an))
        assert rel.max() < 1e-5, f"max rel err {rel.max():.2e}"
        checked += 1
        if checked >= 2:
            return
    raise AssertionError("no finite-posterior points found")


FAMILIES = [("weibull", "weibull", 0), ("lognormal", "weibull", 0),
            ("tbp", "weibull", 4), ("tbp", "lognormal", 4),
            ("tbp", "weibull", 1), ("tbp", "lognormal", 20)]
EFFECTS = [("constant", ()), ("piecewise", (0.0, 1.0, 2.5)),
           ("spline", (-1.5, 0.0, 1.2))]


@pytest.mark.parametrize("family,centering,K", FAMILIES)
@pytest.mark.parametrize("kind,knots", EFFECTS)
def test_gradient_matches_finite_differences(family, centering, K, kind,
                                             knots, rng):
    model = make_model(family, kind, knots, centering=centering, K=K)
    data = random_dataset(rng, 25, 2)
    assert_grad_matches(model, data, rng)


@pytest.mark.parametrize("family,centering,K", FAMILIES)
@pytest.mark.parametrize("kind,knots", [("constant", ()),
                                        ("piecewise", (0.0, 0.7, 2.0)),
                                        ("spline", (-2.0, -0.5, 0.8))])
def test_gradient_time_varying(family, centering, K, kind, knots, rng):
    model = make_model(family, kind, knots, centering=centering, K=K,
                       time_varying=True)
    data = random_dataset(rng, 25, 2, time_varying=True)
    assert_grad_matches(model, data, rng)


FLEXIBLE = [("piecewise", (0.0, 1.0, 2.5)), ("spline", (-1.5, 0.0, 1.2))]


@pytest.mark.parametrize("family,centering,K", [("weibull", "weibull", 0),
                                                ("tbp", "lognormal", 3)])
@pytest.mark.parametrize("kind,knots", FLEXIBLE)
def test_gradient_continuous_exposure(family, centering, K, kind, knots, rng):
    """Every row has its own exposure value (x2 is normal)."""
    model = make_model(family, kind, knots, exposure="x2",
                       centering=centering, K=K)
    data = random_dataset(rng, 25, 2)
    assert np.unique(data.x[:, 1]).size == data.n
    # a wide exposure range makes many spline proposals non-monotone
    assert_grad_matches(model, data, rng, tries=40)


def _no_exact(rng, n, d, **kw):
    data = random_dataset(rng, n, d, **kw)
    return data.subset(np.where(~data.event)[0])


EMPTY_BLOCKS = {
    "no censored rows": lambda rng, **kw: random_dataset(
        rng, 25, 2, censored=False, **kw),
    "no interval rows": lambda rng, **kw: random_dataset(
        rng, 25, 2, interval=False, **kw),
    "no truncated rows": lambda rng, **kw: random_dataset(
        rng, 25, 2, truncated=False, **kw),
    "no exact rows": lambda rng, **kw: _no_exact(rng, 40, 2, **kw),
}


@pytest.mark.parametrize("block", list(EMPTY_BLOCKS))
@pytest.mark.parametrize("kind,knots", FLEXIBLE)
@pytest.mark.parametrize("time_varying", [False, True])
def test_gradient_with_an_empty_block(block, kind, knots, time_varying, rng):
    model = make_model("weibull", kind, knots, time_varying=time_varying)
    data = EMPTY_BLOCKS[block](rng, time_varying=time_varying)
    prep = prepare(model, data)
    sizes = {"no censored rows": prep.n - prep.n_exact,
             "no interval rows": prep.lo.stop - prep.lo.start,
             "no truncated rows": int(np.sum(data.trunc > 0)),
             "no exact rows": prep.n_exact}
    assert sizes[block] == 0 and data.n > 0
    assert_grad_matches(model, data, rng)


def test_flat_prior_has_zero_beta_gradient():
    """With no data, the posterior gradient along beta must vanish."""
    model = make_model()
    data = Dataset.from_records([], ("x1", "x2"))
    z = np.array([0.7, -1.2, 0.3, 0.1])
    g = grad_log_posterior(model, z, data, PRIORS)
    assert g[0] == 0.0 and g[1] == 0.0


def test_hand_derivative_unit_exponential():
    """Exact event at y=1 under the unit exponential: d/dmu of the
    contribution is sigma*((y e^-mu)^sigma - 1) = 0 at mu=0, sigma=1."""
    model = make_model(covariates=())
    data = Dataset.from_records([SubjectRecord(1.0, 1.0, 1, 0.0, ())], ())
    psi = ParameterVector(np.array([]), np.array([]), 0.0, 1.0)
    z = unconstrain(model, psi)
    g = grad_log_posterior(model, z, data, PRIORS)
    assert g[0] == pytest.approx(0.0, abs=1e-12)  # mu coordinate


def test_gradient_error_when_posterior_infinite():
    model = make_model(effect_kind="spline", knots=(-1.0, 0.0, 1.0))
    data = Dataset.from_records(
        [SubjectRecord(1.0, 1.0, 1, 0.0, (1.0, 0.0))], ("x1", "x2"))
    z = np.zeros(model.n_unconstrained)
    z[2] = 8.0
    with pytest.raises(NumericalError):
        grad_log_posterior(model, z, data, PRIORS)
