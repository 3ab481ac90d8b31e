"""Workload definitions: simulation and fit configurations plus the sizes
of every step, at full size and at the toy size used by the smoke tests.

The benchmark seed reaches qvaft only as the `--seed` of `qvaft simulate`
and `qvaft fit` and as the seed of the replay draws; everything else here
is fixed, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import copy

# Weibull baseline, piecewise effect on binary x1, normal x2, left truncation
# and administrative censoring at 8. The simulation knots equal what the fit's
# "even:4" rule places when follow-up ends at the censoring time (8 / 5 steps),
# so the fitted model is the simulated one and beta/mu recovery can be checked.
_WEIBULL_PW_SIM = {
    "model": {
        "baseline": {"family": "weibull"},
        "effect": {"kind": "piecewise", "flexible_covariate": "x1",
                   "knots": [0.0, 1.6, 3.2, 4.8, 6.4]},
        "covariates": ["x1", "x2"],
    },
    "truth": {"beta": {"x1": 0.5, "x2": -0.3}, "alpha": [0.2, 0.4, 0.5, 0.6],
              "mu": 1.0, "sigma": 1.2},
    "simulate": {
        "n": 500,
        "covariates": {"x1": {"dist": "bernoulli", "p": 0.5},
                       "x2": {"dist": "normal", "mean": 0.0, "sd": 1.0}},
        "censoring": {"admin_time": 8.0},
        "truncation": {"dist": "uniform", "lo": 0.0, "hi": 2.0},
    },
}
_WEIBULL_PW_FIT = {
    "model": {
        "baseline": {"family": "weibull"},
        "effect": {"kind": "piecewise", "flexible_covariate": "x1",
                   "knot_rule": "even:4"},
        "covariates": ["x1", "x2"],
    },
    "priors": {"a_sigma": 0.3, "b_sigma": 0.05},
    "sampler": {"chains": 2, "warmup": 500, "iters": 500},
}

# TBP baseline (K=5, Weibull centering), spline effect of x1 on log time,
# left truncation and visit-schedule interval censoring. The same file
# serves simulation, the replay model and the short fit attempt.
_TBP_INTERVAL = {
    "model": {
        "baseline": {"family": "tbp", "centering": "weibull", "K": 5},
        "effect": {"kind": "spline", "flexible_covariate": "x1",
                   "knots": [0.5, 2.0, 6.0]},
        "covariates": ["x1", "x2"],
    },
    "priors": {"a_sigma": 0.3, "b_sigma": 0.05},
    "sampler": {"chains": 1, "warmup": 40, "iters": 10, "max_tree_depth": 5},
    "truth": {"beta": {"x1": 0.5, "x2": -0.3}, "alpha": [0.2, 0.05],
              "mu": 1.0, "sigma": 1.2, "w": [0.1, 0.15, 0.3, 0.25, 0.2],
              "theta": 1.0},
    "simulate": {
        "n": 500,
        "covariates": {"x1": {"dist": "bernoulli", "p": 0.5},
                       "x2": {"dist": "normal", "mean": 0.0, "sd": 1.0}},
        "censoring": {"admin_time": 8.0, "visit_gap": 0.5},
        "truncation": {"dist": "uniform", "lo": 0.0, "hi": 1.0},
    },
}

# Binary switch at an exponential onset (30% never switch), piecewise effect
# on time since switch; knots placed by rule as a user would.
_TV_SWITCH_SIM = {
    "model": {
        "baseline": {"family": "weibull"},
        "effect": {"kind": "piecewise", "time_varying": True,
                   "knots": [0.0, 1.0, 2.0, 3.0]},
        "covariates": ["x2"],
    },
    "truth": {"beta": {"onset": -0.7, "x2": 0.2}, "alpha": [0.2, 0.3, 0.4],
              "mu": 1.0, "sigma": 1.2},
    "simulate": {
        "n": 500,
        "covariates": {"x2": {"dist": "normal", "mean": 0.0, "sd": 1.0}},
        "censoring": {"admin_time": 8.0},
        "truncation": {"dist": "uniform", "lo": 0.0, "hi": 2.0},
        "onset": {"dist": "exponential", "rate": 0.4, "never_prob": 0.3},
    },
}
_TV_SWITCH_FIT = {
    "model": {
        "baseline": {"family": "weibull"},
        "effect": {"kind": "piecewise", "time_varying": True,
                   "knot_rule": "even:4"},
        "covariates": ["x2"],
    },
    "priors": {"a_sigma": 0.3, "b_sigma": 0.05},
    "sampler": {"chains": 2, "warmup": 500, "iters": 500},
}

WORKLOADS = {
    "weibull_pw": {
        "why": "the paper's headline model through the whole CLI pipeline; "
               "the gradient kernel and standardized AF dominate",
        "sim": _WEIBULL_PW_SIM,
        "fit": _WEIBULL_PW_FIT,
        "threads": 1,
        "steps": ("fit", "standardize", "af", "loo"),
        "std_thin": 5,
        "af_thin": 100,
        # posterior median of these within RECOVERY_SDS sds of the truth
        "recovery": {"beta_x1": 0.5, "beta_x2": -0.3, "mu": 1.0},
    },
    "tbp_interval": {
        "why": "heaviest kernel without a sampler: Bernstein baseline, "
               "interval and spline branches, pointwise evaluation",
        "sim": _TBP_INTERVAL,
        "fit": _TBP_INTERVAL,
        "threads": 1,
        "steps": ("standardize", "af", "loo"),
        "replay_draws": 120,
        "replay_scale": 0.05,
        "std_thin": 10,
        "af_thin": 120,
    },
    "tv_switch": {
        "why": "process-pool chains, time-varying branches and the AF "
               "surface over switch times",
        "sim": _TV_SWITCH_SIM,
        "fit": _TV_SWITCH_FIT,
        "threads": 2,
        "steps": ("fit", "standardize", "af", "surface", "loo"),
        "std_thin": 5,
        "af_thin": 20,
        "onset_grid": "1:3:3",
        "onset": 2.0,            # the onset af is run at; one of onset_grid
        "p_grid": "0.01:0.99:50",
    },
}

RECOVERY_SDS = 4.0

# Fixed inputs of the tbp_interval reference check (independent of --seed).
REFERENCE = {"seed": 20230107, "n": 100, "replay_draws": 100, "af_thin": 25}


def workload(name: str, smoke: bool = False) -> dict:
    """The workload's definition; `smoke` shrinks every size so all three
    workloads run in seconds."""
    w = copy.deepcopy(WORKLOADS[name])
    if smoke:
        w["sim"]["simulate"]["n"] = 100 if name == "tbp_interval" else 150
        if name == "tbp_interval":
            w["fit"]["sampler"].update({"warmup": 5, "iters": 5,
                                        "max_tree_depth": 3})
            w["replay_draws"] = 100
            w["af_thin"] = 100
        else:
            w["fit"]["sampler"].update({"warmup": 100, "iters": 100})
            w["af_thin"] = 40
            w["std_thin"] = 20
        if name == "tv_switch":
            w["onset_grid"] = "1:2:2"
            w["onset"] = 1.0
            w["p_grid"] = "0.1:0.9:5"
            w["af_thin"] = 20
    return w
