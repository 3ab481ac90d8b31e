"""Call budget of the sampler's kernel: the Python-level calls into qvaft
that one logp-and-gradient evaluation makes, counted with `sys.setprofile`
after a first call has built every cached part. Only frames of qvaft's own
files count, so the budget does not depend on numpy's version. A budget
is the count the kernel reached; a change that adds calls to the path
that every leapfrog step takes has to raise it here, visibly."""

import math
import os
import sys

import numpy as np
import pytest

import qvaft
from conftest import make_model, random_dataset
from qvaft.likelihood import PriorSpec, make_posterior

ROOT = os.path.dirname(qvaft.__file__) + os.sep

# name: (model arguments, dataset arguments, budget); before the kernel's
# parameter-free parts moved into `Prepared` the counts were 37, 39 and 62
SHAPES = {
    "weibull-piecewise": (dict(effect_kind="piecewise",
                               knots=(0.0, 1.6, 3.2, 4.8, 6.4)),
                          dict(interval=False), 17),
    "weibull-piecewise-switch": (dict(effect_kind="piecewise",
                                      knots=(0.0, 1.0, 2.0, 3.0),
                                      covariates=("x1",), time_varying=True),
                                 dict(d=1, interval=False, time_varying=True),
                                 18),
    "tbp5-spline-interval": (dict(family="tbp", K=5, effect_kind="spline",
                                  knots=(-0.7, 0.7, 1.8)),
                             dict(), 32),
}


def qvaft_calls(f, z) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(ROOT):
            count += 1

    sys.setprofile(profile)
    try:
        f(z)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("shape", list(SHAPES))
def test_logp_and_grad_within_budget(shape, rng):
    model_args, data_args, budget = SHAPES[shape]
    model = make_model(**model_args)
    data_args = dict(data_args)
    data = random_dataset(rng, 60, data_args.pop("d", 2), **data_args)
    f, _ = make_posterior(model, data, PriorSpec())
    z = 0.1 * rng.normal(size=model.n_unconstrained)
    logp, grad = f(z)  # builds the cached parts
    assert math.isfinite(logp) and np.isfinite(grad).all()
    assert qvaft_calls(f, z) <= budget
