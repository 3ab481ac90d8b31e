"""The log posterior and its gradient pinned to recorded values.

`kernel_golden.npz` holds, for every baseline in `test_gradient.FAMILIES`
x constant/piecewise/spline effect x with/without a switch covariate, ten
unconstrained points z with their log posterior and gradient, and the two
datasets they were taken on (`random_dataset` with exact, interval,
right-censored and truncated records). The values were recorded with the
kernel of commit 0f95df3, before the gradient was rewritten as
contractions, by running this file as a script with that commit's source
tree on the path (run on a later tree it records that tree's values):

    PYTHONPATH=<0f95df3 checkout>/src python tests/test_kernel_golden.py

Values must agree within 1e-12 relative and gradients within 1e-10 of the
largest gradient component.
"""

import math
import os

import numpy as np
import pytest

from conftest import make_model, random_dataset
from qvaft.data import Dataset
from qvaft.likelihood import (
    PriorSpec,
    grad_log_posterior,
    log_posterior_unconstrained,
    prepare,
)
from test_gradient import FAMILIES

PATH = os.path.join(os.path.dirname(__file__), "kernel_golden.npz")
PRIORS = PriorSpec(2.0, 1.0, 1.5, 1.0)
EFFECTS = {False: [("constant", ()), ("piecewise", (0.0, 1.0, 2.5)),
                   ("spline", (-1.5, 0.0, 1.2))],
           True: [("constant", ()), ("piecewise", (0.0, 0.7, 2.0)),
                  ("spline", (-2.0, -0.5, 0.8))]}
FIELDS = ("y_lower", "y_upper", "event", "trunc", "x", "onset")
N_POINTS = 10


def _cases():
    for switch in (False, True):
        for family, centering, K in FAMILIES:
            for kind, knots in EFFECTS[switch]:
                key = f"{family}-{centering}-{K}-{kind}-{'tv' if switch else 'fixed'}"
                yield key, switch, make_model(family, kind, knots,
                                              centering=centering, K=K,
                                              time_varying=switch)


def _dataset(store, switch):
    tag = "tv" if switch else "fixed"
    return Dataset(*(store[f"data_{tag}_{f}"] for f in FIELDS),
                   covariate_names=("x1", "x2"))


def generate(path=PATH):
    rng = np.random.default_rng(20261018)
    store = {}
    for switch in (False, True):
        data = random_dataset(rng, 30, 2, time_varying=switch)
        for f in FIELDS:
            store[f"data_{'tv' if switch else 'fixed'}_{f}"] = getattr(data, f)
    for key, switch, model in _cases():
        prep = prepare(model, _dataset(store, switch))
        zs, vals, grads = [], [], []
        for _ in range(500):
            z = rng.normal(scale=0.3, size=model.n_unconstrained)
            val = log_posterior_unconstrained(model, z, prep, PRIORS)
            if math.isfinite(val):
                zs.append(z)
                vals.append(val)
                grads.append(grad_log_posterior(model, z, prep, PRIORS))
            if len(zs) == N_POINTS:
                break
        assert len(zs) == N_POINTS, key
        store[f"{key}_z"] = np.array(zs)
        store[f"{key}_logp"] = np.array(vals)
        store[f"{key}_grad"] = np.array(grads)
    np.savez_compressed(path, **store)


@pytest.fixture(scope="module")
def golden():
    with np.load(PATH) as raw:
        return dict(raw)


@pytest.mark.parametrize("key,switch,model", list(_cases()),
                         ids=[c[0] for c in _cases()])
def test_kernel_matches_recorded_values(golden, key, switch, model):
    prep = prepare(model, _dataset(golden, switch))
    for z, val, grad in zip(golden[f"{key}_z"], golden[f"{key}_logp"],
                            golden[f"{key}_grad"]):
        assert log_posterior_unconstrained(model, z, prep, PRIORS) == \
            pytest.approx(val, rel=1e-12, abs=0.0)
        g = grad_log_posterior(model, z, prep, PRIORS)
        assert np.max(np.abs(g - grad)) <= 1e-10 * np.max(np.abs(grad))


if __name__ == "__main__":
    generate()
