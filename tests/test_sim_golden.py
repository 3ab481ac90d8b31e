"""Simulated datasets pinned to recorded ones.

`sim_golden.npz` holds, for Weibull, log-normal and TBP baselines x
constant/piecewise/spline effects and for four switch models, the dataset
`simulate_dataset` gave for a fixed seed: covariates, switch times,
truncation times, event indicators and both interval ends. The cases
cycle through every censoring kind (none, administrative plus an
exponential clock, visit-schedule intervals) and truncation laws; one in
four draws entry times whose rejection takes several rounds, with
entries past the administrative cutoff redrawn. The values were recorded
with commit 10b0342, which inverted one subject per call, by running this
file as a script with that commit's source tree on the path (run on a
later tree it records that tree's values):

    PYTHONPATH=<10b0342 checkout>/src python tests/test_sim_golden.py

Keys named after the script (`python tests/test_sim_golden.py KEY ...`)
re-record only those cases and keep every other array as it is. The times
of `lognormal-spline`, `tbp-spline`, `lognormal-spline-switch` and
`tbp-piecewise-switch`, which pass through the flexible V^{-1}, were
re-recorded this way, naming those four keys, with the commit after
1fbe132, which made that inverse one Newton search; they moved by at most
3.3e-13 relative, and every other field was identical.

Covariates, switch times, truncation times and event indicators must be
identical. Times must be identical on log-normal and TBP baselines. On
Weibull baselines a time may differ by at most 2 units in the last place:
the centering quantile exp(mu) * q ** (1 / sigma) takes the power of a
numpy scalar through the C library's pow, but of an array through numpy's
vectorised pow, and the two differ by one unit in the last place on a few
percent of arguments.
"""

import os
import sys

import numpy as np
import pytest

from conftest import make_model
from qvaft.likelihood import ParameterVector
from qvaft.simulate import (
    CensoringSpec,
    CovariateSpec,
    OnsetSpec,
    SimConfig,
    TruncationSpec,
    simulate_dataset,
)

PATH = os.path.join(os.path.dirname(__file__), "sim_golden.npz")
FIELDS = ("x", "onset", "trunc", "event", "y_lower", "y_upper")
N = 40
W = (0.1, 0.15, 0.3, 0.25, 0.2)
BASELINES = {"weibull": (1.0, 1.2), "lognormal": (0.8, 0.9), "tbp": (1.0, 1.2)}
EFFECTS = {"constant": ((), ()), "piecewise": ((0.0, 1.0, 2.5), (0.3, -0.2)),
           "spline": ((-0.5, 0.5, 1.5), (0.2, 0.05))}
SWITCH_EFFECTS = {"constant": ((), ()),
                  "piecewise": ((0.0, 1.0, 2.0, 3.0), (0.2, 0.3, 0.4)),
                  "spline": ((-1.0, 0.0, 1.0), (0.15, -0.05))}
# (censoring, truncation): all exact; administrative cutoff and an
# exponential clock; visit-schedule intervals; entries up to past the
# cutoff, rejected for several rounds
SCHEMES = (
    (CensoringSpec(), TruncationSpec()),
    (CensoringSpec(admin_time=4.0, exp_rate=0.2),
     TruncationSpec("uniform", (0.0, 1.5))),
    (CensoringSpec(admin_time=6.0, visit_gap=0.5),
     TruncationSpec("exponential", (1.0,))),
    (CensoringSpec(admin_time=8.0), TruncationSpec("uniform", (0.0, 10.0))),
)


def _psi(family, beta, alpha):
    mu, sigma = BASELINES[family]
    tbp = family == "tbp"
    return ParameterVector(np.array(beta), np.array(alpha), mu, sigma,
                           np.array(W) if tbp else None, 1.0 if tbp else None)


def _cases():
    """(key, family, SimConfig), one per recorded dataset."""
    i = 0
    for family in BASELINES:
        K = 5 if family == "tbp" else 0
        for kind, (knots, alpha) in EFFECTS.items():
            model = make_model(family, kind, knots, K=K)
            exposure = (CovariateSpec("bernoulli", (0.5,)) if i % 2
                        else CovariateSpec("uniform", (0.0, 1.0)))
            cens, trunc = SCHEMES[i % len(SCHEMES)]
            yield f"{family}-{kind}", family, SimConfig(
                N, model, _psi(family, (0.5, -0.3), alpha),
                (exposure, CovariateSpec("normal", (0.0, 1.0))),
                cens, trunc, seed=100 + i)
            i += 1
    for family, kind in (("weibull", "constant"), ("weibull", "piecewise"),
                         ("lognormal", "spline"), ("tbp", "piecewise")):
        knots, alpha = SWITCH_EFFECTS[kind]
        model = make_model(family, kind, knots, covariates=("x2",),
                           time_varying=True, K=5 if family == "tbp" else 0)
        cens, trunc = SCHEMES[i % len(SCHEMES)]
        yield f"{family}-{kind}-switch", family, SimConfig(
            N, model, _psi(family, (-0.7, 0.2), alpha),
            (CovariateSpec("normal", (0.0, 1.0)),), cens, trunc,
            OnsetSpec("exponential", (0.4,), never_prob=0.3), seed=100 + i)
        i += 1


def generate(path=PATH, keys=()):
    """Record every case, or only the cases named in `keys`, keeping the
    other recorded arrays as they are."""
    unknown = set(keys) - {key for key, _, _ in _cases()}
    if unknown:
        raise SystemExit(f"unknown keys: {sorted(unknown)}")
    store = {}
    if keys:
        with np.load(path) as raw:
            store = dict(raw)
    for key, _, cfg in _cases():
        if keys and key not in keys:
            continue
        data = simulate_dataset(cfg)
        for f in FIELDS:
            store[f"{key}_{f}"] = getattr(data, f)
    np.savez_compressed(path, **store)


@pytest.fixture(scope="module")
def golden():
    with np.load(PATH) as raw:
        return dict(raw)


@pytest.mark.parametrize("key,family,cfg", list(_cases()),
                         ids=[c[0] for c in _cases()])
def test_dataset_matches_recorded(golden, key, family, cfg):
    data = simulate_dataset(cfg)
    for f in ("x", "onset", "trunc", "event"):
        np.testing.assert_array_equal(getattr(data, f), golden[f"{key}_{f}"],
                                      err_msg=f)
    ulps = 2 if family == "weibull" else 0
    for f in ("y_lower", "y_upper"):
        got, want = getattr(data, f), golden[f"{key}_{f}"]
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want),
                                      err_msg=f)
        fin = np.isfinite(want)
        assert np.all(np.abs(got[fin] - want[fin])
                      <= ulps * np.spacing(want[fin])), f


def test_cases_reject_and_censor(monkeypatch):
    """The recorded cases cover what they claim: every record kind, four
    switch models, and entry times that keep subjects pending for several
    rounds of batched inversion."""
    import qvaft.simulate as sim
    rounds = []
    inverse = sim.quantile_time
    monkeypatch.setattr(sim, "quantile_time",
                        lambda *a, **k: rounds.append(1) or inverse(*a, **k))
    kinds, tv, most = set(), 0, 0
    for _, _, cfg in _cases():
        rounds.clear()
        data = simulate_dataset(cfg)
        kinds.update(zip(data.event, np.isfinite(data.y_upper)))
        tv += cfg.model.time_varying
        if cfg.truncation == SCHEMES[3][1]:
            most = max(most, len(rounds))
    assert kinds == {(True, True), (False, True), (False, False)}
    assert tv == 4
    assert most >= 5


if __name__ == "__main__":
    generate(keys=sys.argv[1:])
