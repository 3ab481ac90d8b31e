"""Shared builders for model specs and synthetic datasets, and the
conditional survivor oracle."""

import math

import numpy as np
import pytest

from qvaft.baseline import BaselineSpec, survivor
from qvaft.covproc import EffectSpec, transform_value
from qvaft.data import Dataset, SubjectRecord
from qvaft.model import ModelSpec


def make_model(family="weibull", effect_kind="constant", knots=(),
               covariates=("x1", "x2"), exposure=None, time_varying=False,
               centering="weibull", K=0):
    if effect_kind != "constant" and not time_varying and exposure is None:
        exposure = covariates[0]
    return ModelSpec(BaselineSpec(family, centering, K),
                     EffectSpec(effect_kind, knots),
                     tuple(covariates), exposure, time_varying)


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
    recs = []
    for _ in range(n):
        x = (float(rng.integers(0, 2)),) + tuple(rng.normal(size=d - 1))
        t = float(rng.gamma(2.0, 1.0)) + 0.05
        trunc = float(rng.uniform(0, 0.5 * t)) if (truncated and rng.random() < 0.4) else 0.0
        onset = (float(rng.uniform(0.2, 3.0)) if (time_varying and rng.random() < 0.7)
                 else math.inf)
        u = rng.random()
        if not censored or u < 0.5:
            recs.append(SubjectRecord(t, t, 1, trunc, x, onset))
        elif interval and u < 0.75:
            recs.append(SubjectRecord(t, t + float(rng.uniform(0.1, 1.0)), 0,
                                      trunc, x, onset))
        else:
            recs.append(SubjectRecord(t, math.inf, 0, trunc, x, onset))
    names = tuple(f"x{i+1}" for i in range(d))
    return Dataset.from_records(recs, names)


@pytest.fixture
def rng():
    return np.random.default_rng(20240812)
