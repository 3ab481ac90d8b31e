"""Shared builders for model specs and datasets, the conditional survivor
oracle, and one parameter vector's pointwise log-likelihood."""

import math

import numpy as np
import pytest

from qvaft.baseline import BaselineSpec, survivor
from qvaft.covproc import EffectSpec, transform_value
from qvaft.data import Dataset
from qvaft.likelihood import constrained_array, pointwise_loglik_matrix
from qvaft.model import ModelSpec


def make_model(family="weibull", effect_kind="constant", knots=(),
               covariates=("x1", "x2"), exposure=None, time_varying=False,
               centering="weibull", K=0):
    if effect_kind != "constant" and not time_varying and exposure is None:
        exposure = covariates[0]
    return ModelSpec(BaselineSpec(family, centering, K),
                     EffectSpec(effect_kind, knots),
                     tuple(covariates), exposure, time_varying)


def make_dataset(rows, names=()):
    """The `Dataset` of literal rows (y_l, y_u, delta[, trunc[, x[,
    tx_time]]]), x a tuple, the missing tail 0, (), inf; with no rows
    `names` gives the number of covariates."""
    rows = [tuple(r) + (0.0, (), math.inf)[len(r) - 3:] for r in rows]
    cols = list(zip(*rows)) or [()] * 6
    x = np.array(cols[4], dtype=float) if rows else np.empty((0, len(names)))
    return Dataset(*cols[:4], x, cols[5], tuple(names))


def loglik_at(model, psi, data):
    """Per-subject log-likelihood contributions at one parameter vector."""
    return pointwise_loglik_matrix(model, constrained_array(model, psi),
                                   data)[0]


def survivor_conditional(model, psi, x, t, onset=math.inf):
    """S(t | x) = S0(V(t | x)) of one covariate pattern x (or of rows x),
    with V from `transform_value` per pattern and S0 from
    `baseline.survivor`: not the factored u of the standardized path."""
    u = transform_value(model.effect, psi.alpha, t,
                        *model.predictor(psi.beta, x),
                        onset=onset if model.time_varying else None)
    return survivor(model.baseline, psi.baseline_params(), psi.tbp_weights(),
                    u)


def random_dataset(rng, n, d, time_varying=False, censored=True,
                   truncated=True, interval=True):
    """A mixed-censoring dataset exercising every likelihood branch."""
    rows = []
    for _ in range(n):
        x = (float(rng.integers(0, 2)),) + tuple(rng.normal(size=d - 1))
        t = float(rng.gamma(2.0, 1.0)) + 0.05
        trunc = float(rng.uniform(0, 0.5 * t)) if (truncated and rng.random() < 0.4) else 0.0
        onset = (float(rng.uniform(0.2, 3.0)) if (time_varying and rng.random() < 0.7)
                 else math.inf)
        u = rng.random()
        if not censored or u < 0.5:
            rows.append((t, t, 1, trunc, x, onset))
        elif interval and u < 0.75:
            rows.append((t, t + float(rng.uniform(0.1, 1.0)), 0, trunc, x,
                         onset))
        else:
            rows.append((t, math.inf, 0, trunc, x, onset))
    return make_dataset(rows, tuple(f"x{i+1}" for i in range(d)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240812)
