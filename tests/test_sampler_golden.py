"""Sampler trajectories pinned to recorded ones.

`sampler_golden.npz` holds the draws of short two-chain runs on three
targets: a standard normal, a half-normal whose proposals below 0 have
log-density -inf (so trajectories diverge), and a correlated Gaussian
whose warmup adapts two dense-metric windows. One run on the correlated
Gaussian caps the tree depth at 2, which most trajectories reach. Each
run keeps its iterations, divergence flags, unconstrained draws, energies,
step sizes and per-chain gradient-call counts. The values were recorded
with commit 280334c, whose NUTS driver wrote each trajectory rule once in
the recursion and once, mirrored left and right, at the top level, by
running this file as a script with that commit's source tree on the path
(run on a later tree it records that tree's values):

    PYTHONPATH=<280334c checkout>/src python tests/test_sampler_golden.py

Iterations, divergence flags and gradient calls must be identical;
draws, energies and step sizes must agree within 1e-12 relative.
"""

import math
import os

import numpy as np
import pytest

from qvaft.sampler import GradientTarget, SamplerConfig, _mass_update_points, sample

PATH = os.path.join(os.path.dirname(__file__), "sampler_golden.npz")
EXACT = ("iteration", "divergent", "grad_calls")
CLOSE = ("z", "energy", "step_size")
COV = np.array([[1.0, 0.95, 0.2],
                [0.95, 1.0, 0.1],
                [0.2, 0.1, 0.5]])
PREC = np.linalg.inv(COV)


def normal_lg(z):
    return -0.5 * float(z @ z), -z


def half_normal_lg(z):
    if z[0] < 0.0:
        return -math.inf, np.zeros(1)
    return -0.5 * float(z @ z), -z


def correlated_lg(z):
    g = -(PREC @ z)
    return 0.5 * float(z @ g), g


def _half_normal_init(rng):
    return np.abs(rng.normal(size=1))


# name: (target, sampler settings)
RUNS = {
    "normal": (GradientTarget(4, normal_lg),
               SamplerConfig(chains=2, warmup_iters=60, sampling_iters=40,
                             seed=11)),
    "barrier": (GradientTarget(1, half_normal_lg,
                               initial_point=_half_normal_init),
                SamplerConfig(chains=2, warmup_iters=80, sampling_iters=60,
                              seed=5)),
    "dense": (GradientTarget(3, correlated_lg),
              SamplerConfig(chains=2, warmup_iters=200, sampling_iters=50,
                            seed=3)),
    "saturated": (GradientTarget(3, correlated_lg),
                  SamplerConfig(chains=2, warmup_iters=40, sampling_iters=40,
                                seed=7, max_tree_depth=2)),
}


def _record(name):
    target, cfg = RUNS[name]
    d = sample(target, cfg)
    return {f: getattr(d, f) for f in EXACT + CLOSE}


def generate(path=PATH):
    np.savez_compressed(path, **{f"{name}_{f}": v for name in RUNS
                                 for f, v in _record(name).items()})


@pytest.fixture(scope="module")
def golden():
    with np.load(PATH) as raw:
        return dict(raw)


@pytest.fixture(scope="module")
def runs():
    return {name: _record(name) for name in RUNS}


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_recorded(golden, runs, name):
    got = runs[name]
    for f in EXACT:
        np.testing.assert_array_equal(got[f], golden[f"{name}_{f}"],
                                      err_msg=f)
    for f in CLOSE:
        np.testing.assert_allclose(got[f], golden[f"{name}_{f}"], rtol=1e-12,
                                   atol=0.0, err_msg=f)


def test_runs_cover_what_they_claim(runs):
    """The barrier run diverges, the dense run adapts two metric windows,
    and the capped run spends about the 2^2 - 1 = 3 gradient calls per
    iteration that a saturated depth-2 trajectory takes."""
    assert runs["barrier"]["divergent"].any()
    assert len(_mass_update_points(RUNS["dense"][1].warmup_iters)) == 2
    cfg = RUNS["saturated"][1]
    per_iter = runs["saturated"]["grad_calls"] / (cfg.warmup_iters
                                                  + cfg.sampling_iters)
    assert np.all(per_iter > 2.5)


if __name__ == "__main__":
    generate()
