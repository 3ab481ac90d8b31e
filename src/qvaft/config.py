"""YAML configuration schema: model, priors, sampler, optional truth values
and simulation block. Validation errors name the offending key path.

Spline knots are written in the file as times (> 0) and converted to the
log axis internally; rule-based placement is resolved against the data at
fit time: "quantiles:<m>,log" puts boundary knots at the min/max observed
event time (interval midpoints for interval-censored rows) and m internal
knots at evenly spaced log-scale quantiles; "even:<J>" spaces J piecewise
breakpoints evenly across the observed follow-up.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .baseline import BaselineSpec
from .covproc import EffectSpec
from .data import Dataset, atomic_write_text, max_followup, observed_event_times
from .errors import ConfigError, QvaftError
from .likelihood import ParameterVector, PriorSpec
from .model import ModelSpec

__all__ = [
    "load_config",
    "resolve_model",
    "resolve_priors",
    "resolve_sampler",
    "resolve_truth",
    "resolve_sim",
]


def load_config(path) -> dict:
    import yaml  # here, not at the top: post-fit commands read fit.json
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: not valid YAML: {err}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    known = ("model", "priors", "sampler", "truth", "simulate")
    extra = set(raw) - set(known)
    if extra:
        raise ConfigError(f"{sorted(extra)[0]}: unknown section "
                          f"(expected one of {list(known)})")
    return raw


def _section(raw: dict, key: str, required: bool = False) -> dict:
    val = raw.get(key)
    if val is None:
        if required:
            raise ConfigError(f"{key}: required section missing")
        return {}
    if not isinstance(val, dict):
        raise ConfigError(f"{key}: must be a mapping")
    return val


def _num(section: dict, path: str, key: str, default=None, required=False):
    if key not in section or section[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}: required value missing")
        return default
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {val!r}")
    return float(val)


def _int(section: dict, path: str, key: str, default=None, required=False):
    val = _num(section, path, key, default, required)
    if val is None:
        return None
    if not math.isfinite(val) or val != int(val):
        raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
    return int(val)


def _str(section: dict, path: str, key: str, default=None, required=False,
         choices=None):
    if key not in section or section[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}: required value missing")
        return default
    val = section[key]
    if not isinstance(val, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {val!r}")
    if choices and val not in choices:
        raise ConfigError(f"{path}.{key}: must be one of {sorted(choices)}, "
                          f"got {val!r}")
    return val


def _unknown_keys(section: dict, path: str, known, why="unknown key") -> None:
    extra = set(section) - set(known)
    if extra:
        raise ConfigError(f"{path}.{sorted(extra)[0]}: {why}")


# -- knot placement ------------------------------------------------------------

def _parse_rule(rule: str, path: str):
    name, _, arg = rule.partition(":")
    if name == "quantiles":
        count, _, scale = arg.partition(",")
        if scale != "log":
            raise ConfigError(f"{path}: spline knot rule must end with ',log'")
        try:
            m = int(count)
        except ValueError:
            raise ConfigError(f"{path}: bad internal knot count {count!r}")
        if m < 0:
            raise ConfigError(f"{path}: internal knot count must be >= 0")
        return ("quantiles", m)
    if name == "even":
        try:
            j = int(arg)
        except ValueError:
            raise ConfigError(f"{path}: bad breakpoint count {arg!r}")
        if j < 1:
            raise ConfigError(f"{path}: breakpoint count must be >= 1")
        return ("even", j)
    raise ConfigError(f"{path}: unknown knot rule {rule!r}")


def place_spline_knots(data: Dataset, n_internal: int,
                       time_varying: bool = False) -> tuple:
    """Boundary knots at min/max observed event time plus `n_internal`
    evenly spaced log-scale quantiles, all on the log axis. Time-varying
    effects use the time-since-switch of observed events instead."""
    times = observed_event_times(data, data.onset if time_varying else 0.0)
    if len(times) < 2:
        raise ConfigError("effect.knot_rule: too few observed events to "
                          "place knots")
    logt = np.log(times)
    qs = np.linspace(0.0, 1.0, n_internal + 2)
    knots = np.quantile(logt, qs)
    if np.any(np.diff(knots) <= 0):
        raise ConfigError("effect.knot_rule: tied log-time quantiles; "
                          "supply explicit knots")
    return tuple(knots)


def place_even_breakpoints(data: Dataset, count: int,
                           time_varying: bool = False) -> tuple:
    """0 and `count` breakpoints evenly spaced across the observed
    follow-up; time-varying effects span the follow-up since the switch."""
    span = max_followup(data, data.onset if time_varying else 0.0)
    if span <= 0:
        raise ConfigError("effect.knot_rule: no observed follow-up to span")
    step = span / (count + 1)
    return (0.0,) + tuple(step * j for j in range(1, count + 1))


# -- sections ------------------------------------------------------------------

def resolve_model(raw: dict, data: Dataset | None) -> ModelSpec:
    msec = _section(raw, "model", required=True)
    _unknown_keys(msec, "model", ("baseline", "effect", "covariates"))

    bsec = _section(msec, "baseline")
    _unknown_keys(bsec, "model.baseline", ("family", "centering", "K"))
    family = _str(bsec, "model.baseline", "family", required=True,
                  choices=("weibull", "lognormal", "tbp"))
    centering = _str(bsec, "model.baseline", "centering", default="weibull",
                     choices=("weibull", "lognormal"))
    K = _int(bsec, "model.baseline", "K", default=0)
    try:
        baseline = BaselineSpec(family, centering, K)
    except Exception as err:
        raise ConfigError(f"model.baseline: {err}") from None

    esec = _section(msec, "effect")
    _unknown_keys(esec, "model.effect",
                  ("kind", "flexible_covariate", "time_varying", "knots",
                   "knot_rule"))
    kind = _str(esec, "model.effect", "kind", default="constant",
                choices=("constant", "piecewise", "spline"))
    exposure = _str(esec, "model.effect", "flexible_covariate")
    time_varying = esec.get("time_varying")
    if time_varying is None:
        time_varying = False
    elif not isinstance(time_varying, bool):
        raise ConfigError("model.effect.time_varying: expected true or false, "
                          f"got {time_varying!r}")

    covs = msec.get("covariates")
    if covs is None:
        if data is None:
            raise ConfigError("model.covariates: required when no data file "
                              "is given")
        covs = list(data.covariate_names)
    if (not isinstance(covs, list)
            or not all(isinstance(c, str) for c in covs)):
        raise ConfigError("model.covariates: must be a list of column names")
    if data is not None:
        missing = [c for c in covs if c not in data.covariate_names]
        if missing:
            raise ConfigError(f"model.covariates: {missing[0]!r} not found "
                              "in the data file")

    knots = _resolve_knots(esec, kind, time_varying, data)
    try:
        effect = EffectSpec(kind, knots)
        return ModelSpec(baseline, effect, tuple(covs),
                         None if time_varying else exposure, time_varying)
    except Exception as err:
        raise ConfigError(f"model.effect: {err}") from None


def _resolve_knots(esec: dict, kind: str, time_varying: bool,
                   data: Dataset | None) -> tuple:
    explicit = esec.get("knots")
    rule = esec.get("knot_rule")
    if kind == "constant":
        if explicit or rule:
            raise ConfigError("model.effect.knots: constant effect takes none")
        return ()
    if explicit is not None and rule is not None:
        raise ConfigError("model.effect: give either knots or knot_rule")
    if explicit is not None:
        if not isinstance(explicit, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in explicit):
            raise ConfigError("model.effect.knots: must be a list of numbers")
        vals = [float(v) for v in explicit]
        if kind == "spline":
            if any(v <= 0 for v in vals):
                raise ConfigError("model.effect.knots: spline knots are times "
                                  "and must be > 0 (logged internally)")
            return tuple(math.log(v) for v in vals)
        return tuple(vals)
    if rule is None:
        raise ConfigError("model.effect: flexible effects need knots or "
                          "knot_rule")
    if data is None:
        raise ConfigError("model.effect.knot_rule: rule-based knots need a "
                          "data file; give explicit knots instead")
    kind_rule, count = _parse_rule(rule, "model.effect.knot_rule")
    if kind == "spline":
        if kind_rule != "quantiles":
            raise ConfigError("model.effect.knot_rule: spline effects use "
                              "'quantiles:<m>,log'")
        return place_spline_knots(data, count, time_varying)
    if kind_rule != "even":
        raise ConfigError("model.effect.knot_rule: piecewise effects use "
                          "'even:<J>'")
    return place_even_breakpoints(data, count, time_varying)


def resolve_priors(raw: dict) -> PriorSpec:
    sec = _section(raw, "priors")
    _unknown_keys(sec, "priors", ("a_sigma", "b_sigma", "a_theta", "b_theta"))
    try:
        return PriorSpec(
            a_sigma=_num(sec, "priors", "a_sigma", default=0.3),
            b_sigma=_num(sec, "priors", "b_sigma", default=0.05),
            a_theta=_num(sec, "priors", "a_theta", default=1.0),
            b_theta=_num(sec, "priors", "b_theta", default=1.0),
        )
    except Exception as err:
        raise ConfigError(f"priors: {err}") from None


def resolve_sampler(raw: dict, seed_override=None, threads=1) -> SamplerConfig:
    from .sampler import SamplerConfig

    sec = _section(raw, "sampler")
    _unknown_keys(sec, "sampler", ("chains", "warmup", "iters", "seed",
                                   "target_accept", "thin", "max_tree_depth"))
    try:
        return SamplerConfig(
            chains=_int(sec, "sampler", "chains", default=3),
            warmup_iters=_int(sec, "sampler", "warmup", default=2000),
            sampling_iters=_int(sec, "sampler", "iters", default=10000),
            seed=(seed_override if seed_override is not None
                  else _int(sec, "sampler", "seed", default=0)),
            target_accept=_num(sec, "sampler", "target_accept", default=0.8),
            thin=_int(sec, "sampler", "thin", default=1),
            max_tree_depth=_int(sec, "sampler", "max_tree_depth", default=10),
            threads=threads,
        )
    except ConfigError:
        raise
    except Exception as err:
        raise ConfigError(f"sampler: {err}") from None


def resolve_truth(raw: dict, model: ModelSpec) -> ParameterVector:
    sec = _section(raw, "truth", required=True)
    _unknown_keys(sec, "truth", ("beta", "alpha", "mu", "sigma", "w", "theta"))
    bmap = sec.get("beta") or {}
    if not isinstance(bmap, dict):
        raise ConfigError("truth.beta: must map coefficient names to values")
    beta = []
    for name in model.beta_names:
        beta.append(_num(bmap, "truth.beta", name, required=True))
    extra = set(bmap) - set(model.beta_names)
    if extra:
        raise ConfigError(f"truth.beta.{sorted(extra)[0]}: not a model "
                          "coefficient")
    alpha = sec.get("alpha") or []
    if not isinstance(alpha, list) or len(alpha) != model.J:
        raise ConfigError(f"truth.alpha: expected {model.J} values")
    w = theta = None
    if model.baseline.is_tbp:
        w = sec.get("w")
        if not isinstance(w, list) or len(w) != model.K:
            raise ConfigError(f"truth.w: expected {model.K} weights")
        theta = _num(sec, "truth", "theta", default=1.0)
    try:
        return ParameterVector(np.array(beta), np.array([float(a) for a in alpha]),
                               _num(sec, "truth", "mu", required=True),
                               _num(sec, "truth", "sigma", required=True),
                               None if w is None else np.array(w), theta)
    except Exception as err:
        raise ConfigError(f"truth: {err}") from None


def _dist(sec: dict, path: str, spec_cls, *rest, default=None, extra=()):
    """The `spec_cls` a distribution block describes, with the parameter
    keys of its `dist` read from `simulate.DISTRIBUTIONS`; a key its
    `dist` does not take, or a value the spec rejects, is an error naming
    the key. `rest` holds the spec's arguments after `params`."""
    from .simulate import DISTRIBUTIONS

    dist = _str(sec, path, "dist", default=default, required=default is None,
                choices=spec_cls.DISTS)
    keys = DISTRIBUTIONS[dist].keys
    _unknown_keys(sec, path, ("dist",) + keys + extra,
                  f"not a parameter of dist {dist!r}")
    params = tuple(_num(sec, path, k, required=True) for k in keys)
    try:
        return spec_cls(dist, params, *rest)
    except QvaftError as err:
        raise ConfigError(f"{path}.{err}") from None


def resolve_sim(raw: dict, model: ModelSpec, psi: ParameterVector,
                seed_override=None) -> SimConfig:
    from .simulate import (CensoringSpec, CovariateSpec, OnsetSpec, SimConfig,
                           TruncationSpec)

    sec = _section(raw, "simulate", required=True)
    _unknown_keys(sec, "simulate", ("n", "covariates", "censoring",
                                    "truncation", "onset", "seed"))
    n = _int(sec, "simulate", "n", required=True)

    csec = _section(sec, "covariates")
    gens = []
    for name in model.covariates:
        spec = csec.get(name)
        if spec is None:
            raise ConfigError(f"simulate.covariates.{name}: required")
        if not isinstance(spec, dict):
            raise ConfigError(f"simulate.covariates.{name}: must be a mapping")
        gens.append(_dist(spec, f"simulate.covariates.{name}", CovariateSpec))

    xsec = _section(sec, "censoring")
    _unknown_keys(xsec, "simulate.censoring",
                  ("admin_time", "exp_rate", "visit_gap"))
    censoring = CensoringSpec(
        admin_time=_num(xsec, "simulate.censoring", "admin_time"),
        exp_rate=_num(xsec, "simulate.censoring", "exp_rate"),
        visit_gap=_num(xsec, "simulate.censoring", "visit_gap"),
    )

    truncation = _dist(_section(sec, "truncation"), "simulate.truncation",
                       TruncationSpec, default="none")

    onset = None
    if model.time_varying:
        osec = _section(sec, "onset", required=True)
        onset = _dist(osec, "simulate.onset", OnsetSpec,
                      _num(osec, "simulate.onset", "never_prob", default=0.0),
                      extra=("never_prob",))

    seed = (seed_override if seed_override is not None
            else _int(sec, "simulate", "seed", default=0))
    try:
        return SimConfig(n, model, psi, tuple(gens), censoring, truncation,
                         onset, seed)
    except Exception as err:
        raise ConfigError(f"simulate: {err}") from None


# -- fit-directory persistence ---------------------------------------------------

def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
