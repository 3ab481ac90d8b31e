"""Post-processing tables pinned to recorded ones.

`post_golden.npz` holds, for a Weibull baseline with a piecewise effect,
a TBP (K = 5) baseline with a spline effect, a log-normal baseline with a
constant effect and a Weibull baseline with a piecewise switch effect,
a small dataset (`random_dataset`, every record kind), six perturbed
posterior draws and the tables that `standardized_af`,
`standardized_survivor_curves` and (switch model) `af_surface` gave on
them. The p grid reaches below the survivor at the largest follow-up, so
some rows are flagged as extrapolated. The values were recorded with
commit 83fe3b4, which built the standardized survivor afresh for the
grid, the Newton polish and the extrapolation threshold, by running this
file as a script with that commit's source tree on the path (run on a
later tree it records that tree's values):

    PYTHONPATH=<83fe3b4 checkout>/src python tests/test_post_golden.py

Abscissae and extrapolation flags must be identical; means, medians and
interval bounds must agree within 1e-9 relative.
"""

import math
import os

import numpy as np
import pytest

from conftest import make_model, random_dataset
from qvaft.data import Dataset
from qvaft.inference import (
    ContrastSpec,
    af_surface,
    standardized_af,
    standardized_survivor_curves,
)
from qvaft.likelihood import ParameterVector, constrained_array
from qvaft.sampler import PosteriorDraws

PATH = os.path.join(os.path.dirname(__file__), "post_golden.npz")
DATA_FIELDS = ("y_lower", "y_upper", "event", "trunc", "x", "onset")
TABLE_FIELDS = ("abscissa", "mean", "median", "lo95", "hi95", "extrapolated")
N, M = 30, 6
P = np.array([0.002, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99])
T_GRID = np.linspace(0.25, 10.0, 9)
ONSETS = np.array([0.5, 1.5, 3.0])
# key: (model, base parameters, contrast)
CASES = {
    "weibull-piecewise": (
        make_model("weibull", "piecewise", (0.0, 0.8, 1.6, 2.4)),
        ParameterVector(np.array([0.5, -0.3]), np.array([0.2, 0.4, -0.3]),
                        1.0, 1.2),
        ContrastSpec(1.0, 0.0)),
    "tbp-spline": (
        make_model("tbp", "spline", (-1.0, 0.3, 1.5), K=5),
        ParameterVector(np.array([0.4, -0.3]), np.array([0.2, 0.05]), 1.0,
                        1.3, np.array([0.1, 0.15, 0.3, 0.25, 0.2]), 1.0),
        ContrastSpec(1.0, 0.0)),
    "lognormal-constant": (
        make_model("lognormal", exposure="x1"),
        ParameterVector(np.array([0.6, 0.2]), np.array([]), 0.9, 0.8),
        ContrastSpec(1.0, 0.0)),
    "weibull-piecewise-switch": (
        make_model("weibull", "piecewise", (0.0, 1.0, 2.0, 3.0),
                   covariates=("x2",), time_varying=True),
        ParameterVector(np.array([-0.7, 0.2]), np.array([0.2, 0.3, 0.4]),
                        1.0, 1.1),
        ContrastSpec(1.5, math.inf)),
}


def _perturbed(rng, psi):
    """A draw near `psi`: normal steps on the real parameters, a
    log-normal step on sigma and on each tbp weight (renormalised)."""
    w = None
    if psi.w is not None:
        w = psi.w * np.exp(rng.normal(scale=0.2, size=psi.w.size))
        w = w / w.sum()
    return ParameterVector(
        psi.beta + rng.normal(scale=0.1, size=psi.beta.size),
        psi.alpha + rng.normal(scale=0.05, size=psi.alpha.size),
        psi.mu + rng.normal(scale=0.1), psi.sigma * math.exp(
            rng.normal(scale=0.05)), w, psi.theta)


def _draws(model, constrained):
    m = len(constrained)
    return PosteriorDraws(np.zeros_like(constrained), constrained,
                          model.param_names, np.zeros(m, dtype=int),
                          np.arange(1, m + 1), np.zeros(m, dtype=bool),
                          np.zeros(m), np.full(m, 0.1), 1, model)


def _inputs(store, key):
    model, _, _ = CASES[key]
    data = Dataset(*(store[f"{key}_data_{f}"] for f in DATA_FIELDS),
                   covariate_names=model.covariates)
    return data, _draws(model, store[f"{key}_draws"])


def _tables(key, data, draws):
    """The tables of one case, by name."""
    model, _, contrast = CASES[key]
    out = {"af": standardized_af(model, draws, data, P, contrast),
           "curves": standardized_survivor_curves(model, draws, data, T_GRID,
                                                  contrast)}
    if model.time_varying:
        out["surface"] = af_surface(model, draws, data, ONSETS, P, thin=1)
    return out


def generate(path=PATH):
    rng = np.random.default_rng(20261019)
    store = {}
    for key, (model, psi, _) in CASES.items():
        data = random_dataset(rng, N, len(model.covariates),
                              time_varying=model.time_varying)
        for f in DATA_FIELDS:
            store[f"{key}_data_{f}"] = getattr(data, f)
        store[f"{key}_draws"] = np.array([
            constrained_array(model, _perturbed(rng, psi)) for _ in range(M)])
        for name, table in _tables(key, *_inputs(store, key)).items():
            for f in TABLE_FIELDS:
                store[f"{key}_{name}_{f}"] = getattr(table, f)
    np.savez_compressed(path, **store)


@pytest.fixture(scope="module")
def golden():
    with np.load(PATH) as raw:
        return dict(raw)


@pytest.mark.parametrize("key", list(CASES))
def test_tables_match_recorded(golden, key):
    for name, table in _tables(key, *_inputs(golden, key)).items():
        for f in ("abscissa", "extrapolated"):
            np.testing.assert_array_equal(getattr(table, f),
                                          golden[f"{key}_{name}_{f}"],
                                          err_msg=f"{name}.{f}")
        for f in ("mean", "median", "lo95", "hi95"):
            np.testing.assert_allclose(getattr(table, f),
                                       golden[f"{key}_{name}_{f}"],
                                       rtol=1e-9, atol=0.0,
                                       err_msg=f"{name}.{f}")


def test_cases_flag_extrapolation(golden):
    """Every AF table (and the surface) has rows on both sides of the
    extrapolation threshold."""
    for key, (model, _, _) in CASES.items():
        for name in ("af", "surface") if model.time_varying else ("af",):
            flags = golden[f"{key}_{name}_extrapolated"]
            assert flags.any() and not flags.all(), f"{key} {name}"


if __name__ == "__main__":
    generate()
