"""A model reads its covariates from a `Dataset` by name: a table with the
model's columns in another order, and with a column the model does not
use, gives bit for bit what the table of the model's columns in model
order gives, in the likelihood and in every standardized quantity."""

import math

import numpy as np
import pytest

from conftest import make_model, random_dataset
from qvaft.data import Dataset
from qvaft.errors import DataError
from qvaft.inference import (
    ContrastSpec,
    af_surface,
    standardized_af,
    standardized_survivor_curves,
)
from qvaft.likelihood import (
    ParameterVector,
    PriorSpec,
    constrained_array,
    grad_log_posterior,
    log_posterior_unconstrained,
    pointwise_loglik_matrix,
    unconstrain,
)
from qvaft.sampler import PosteriorDraws

PIECEWISE = make_model(effect_kind="piecewise", knots=(0.0, 1.0, 2.5))
SWITCH = make_model(effect_kind="piecewise", knots=(0.0, 1.0, 2.0),
                    time_varying=True)
PSIS = {
    PIECEWISE: [ParameterVector([0.5, -0.3], [0.2, -0.1], 0.4, 1.1),
                ParameterVector([0.3, -0.1], [0.1, 0.05], 0.6, 0.9)],
    SWITCH: [ParameterVector([-0.6, 0.4, -0.2], [0.2, 0.3], 0.4, 1.1),
             ParameterVector([-0.4, 0.2, 0.1], [0.1, 0.2], 0.5, 1.0)],
}


def tables(model):
    """The in-order table of covariates (x1, x2) and the same subjects with
    the columns as (x2, z, x1), z unused by the model."""
    rng = np.random.default_rng(31)
    data = random_dataset(rng, 40, 2, time_varying=model.time_varying)
    x = np.column_stack([data.x[:, 1], rng.normal(size=data.n), data.x[:, 0]])
    permuted = Dataset(data.y_lower, data.y_upper, data.event, data.trunc, x,
                       data.onset, ("x2", "z", "x1"))
    return data, permuted


def draws(model):
    psis = PSIS[model]
    M = len(psis)
    return PosteriorDraws(np.array([unconstrain(model, p) for p in psis]),
                          np.array([constrained_array(model, p)
                                    for p in psis]),
                          model.param_names, np.zeros(M, dtype=int),
                          np.arange(M), np.zeros(M, dtype=bool), np.zeros(M),
                          np.full(M, 0.1), 1, model)


def assert_tables_equal(a, b):
    for field in ("abscissa", "mean", "median", "lo95", "hi95",
                  "extrapolated"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert list(a.group) == list(b.group)


@pytest.mark.parametrize("model", [PIECEWISE, SWITCH], ids=["piecewise",
                                                             "switch"])
class TestLikelihoodByName:
    def test_pointwise(self, model):
        data, permuted = tables(model)
        con = draws(model).constrained
        np.testing.assert_array_equal(
            pointwise_loglik_matrix(model, con, permuted),
            pointwise_loglik_matrix(model, con, data))

    def test_log_posterior_and_gradient(self, model):
        data, permuted = tables(model)
        priors = PriorSpec()
        for z in draws(model).z:
            assert (log_posterior_unconstrained(model, z, permuted, priors)
                    == log_posterior_unconstrained(model, z, data, priors))
            np.testing.assert_array_equal(
                grad_log_posterior(model, z, permuted, priors),
                grad_log_posterior(model, z, data, priors))


class TestStandardizationByName:
    P = np.array([0.2, 0.5, 0.8])

    def test_survivor_curves_and_af(self):
        data, permuted = tables(PIECEWISE)
        d = draws(PIECEWISE)
        assert_tables_equal(
            standardized_survivor_curves(PIECEWISE, d, permuted),
            standardized_survivor_curves(PIECEWISE, d, data))
        assert_tables_equal(standardized_af(PIECEWISE, d, permuted, self.P),
                            standardized_af(PIECEWISE, d, data, self.P))

    def test_switch_model(self):
        data, permuted = tables(SWITCH)
        d = draws(SWITCH)
        contrast = ContrastSpec(1.5, math.inf)
        assert_tables_equal(
            standardized_af(SWITCH, d, permuted, self.P, contrast),
            standardized_af(SWITCH, d, data, self.P, contrast))
        onsets = np.array([0.7, 1.9])
        assert_tables_equal(af_surface(SWITCH, d, permuted, onsets, self.P, 1),
                            af_surface(SWITCH, d, data, onsets, self.P, 1))


class TestDesign:
    def test_columns_in_model_order(self):
        data, permuted = tables(PIECEWISE)
        design = PIECEWISE.design(permuted)
        np.testing.assert_array_equal(design, data.x)
        assert design.flags.c_contiguous

    def test_missing_covariate_is_named(self):
        data, _ = tables(PIECEWISE)
        model = make_model(covariates=("x1", "age"))
        with pytest.raises(DataError, match="'age'"):
            model.design(data)
        with pytest.raises(DataError, match="'age'"):
            pointwise_loglik_matrix(model, np.zeros((1, 4)) + 1.0, data)
