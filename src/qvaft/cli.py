"""Command-line front end.

Subcommands: simulate, fit, standardize, af, surface, loo. A fit writes a
self-contained directory (draws.npz, summary.json, fit.json, data.csv
snapshot) that the post-processing commands consume, plus a draws.csv
export. Exit codes:
0 success, 2 input/schema problems, 3 numerical failures. A command imports
the modules only it calls in its body, so a fresh process loads no others.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .data import Dataset, check_format_version, read_csv, write_csv
from .draws import PosteriorDraws, draws_from_npz, draws_to_csv, draws_to_npz
from .errors import ConfigError, DataError, DomainError, QvaftError
from .model import ModelSpec, model_from_jsonable, model_to_jsonable

FIT_FORMAT_VERSION = 1


def dataset_hash(data: Dataset) -> str:
    import hashlib  # here, not at the top: only fit and loo hash the data

    h = hashlib.sha256()
    for arr in (data.y_lower, data.y_upper, data.event.astype(float),
                data.trunc, data.x, data.onset):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update(",".join(data.covariate_names).encode())
    return h.hexdigest()


def _parse_grid(text: str | None, name: str) -> np.ndarray | None:
    """lo:hi:count as that many evenly spaced values; None if `text` is
    absent, which leaves the library's default grid."""
    if not text:
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name}: expected lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"{name}: expected lo:hi:count, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{name}: grid bounds must be finite, got {text!r}")
    if count < 1 or hi < lo or (count == 1 and hi != lo):
        raise ConfigError(f"{name}: bad grid bounds {text!r}")
    return np.linspace(lo, hi, count)


# -- fit ------------------------------------------------------------------------

def _summarize(model: ModelSpec, draws: PosteriorDraws) -> dict:
    from .inference import percentiles
    from .sampler import ess, rhat

    params = {}
    multi = draws.n_chains >= 2
    median, lo95, hi95 = percentiles(draws.constrained, (50.0, 2.5, 97.5))
    for i, name in enumerate(draws.param_names):
        col = draws.constrained[:, i]
        params[name] = {
            "mean": float(col.mean()),
            "sd": float(col.std(ddof=1)) if len(col) > 1 else 0.0,
            "median": float(median[i]),
            "lo95": float(lo95[i]),
            "hi95": float(hi95[i]),
            "rhat": float(rhat(draws, i)) if multi else None,
            "ess": float(ess(draws, i)),
        }
    return params


def cmd_fit(args) -> int:
    from . import config as cfgmod
    from .sampler import run_chains

    data = read_csv(args.data)
    raw = cfgmod.load_config(args.config)
    model = cfgmod.resolve_model(raw, data)
    priors = cfgmod.resolve_priors(raw)
    if args.threads < 1:  # named by the flag, not the config's sampler section
        raise ConfigError(f"--threads: threads must be >= 1, got "
                          f"{args.threads}")
    cfg = cfgmod.resolve_sampler(raw, seed_override=args.seed,
                                 threads=args.threads)
    draws = run_chains(model, data, priors, cfg)

    os.makedirs(args.out, exist_ok=True)
    draws_to_csv(draws, os.path.join(args.out, "draws.csv"))
    draws_to_npz(draws, os.path.join(args.out, "draws.npz"))
    write_csv(data, os.path.join(args.out, "data.csv"))
    summary = {
        "params": _summarize(model, draws),
        "sampler": {
            "chains": cfg.chains,
            "warmup": cfg.warmup_iters,
            "iters": cfg.sampling_iters,
            "thin": cfg.thin,
            "seed": cfg.seed,
            "target_accept": cfg.target_accept,
            "max_tree_depth": cfg.max_tree_depth,
            "divergences": int(draws.divergent.sum()),
            "step_size": draws.step_size[::draws.draws_per_chain].tolist(),
            "grad_calls": draws.grad_calls.tolist(),
            "grad_calls_per_iter": float(draws.grad_calls.sum()) / (
                cfg.chains * (cfg.warmup_iters + cfg.sampling_iters)),
        },
        "n_subjects": data.n,
        # wall times vary run to run, so they stay out of fit.json
        "chains": [{"warmup_divergences": int(d), "warmup_s": float(tw),
                    "sampling_s": float(ts)}
                   for d, tw, ts in zip(draws.warmup_divergences,
                                        draws.warmup_seconds,
                                        draws.sampling_seconds)],
    }
    cfgmod.write_json(os.path.join(args.out, "summary.json"), summary)
    cfgmod.write_json(os.path.join(args.out, "fit.json"), {
        "format_version": FIT_FORMAT_VERSION,
        "model": model_to_jsonable(model),
        "priors": {"a_sigma": priors.a_sigma, "b_sigma": priors.b_sigma,
                   "a_theta": priors.a_theta, "b_theta": priors.b_theta},
        "sampler": summary["sampler"],
        "data_hash": dataset_hash(data),
        "param_names": list(draws.param_names),
    })
    div = int(draws.divergent.sum())
    print(f"fit: {data.n} subjects, {draws.M} draws, {div} divergences "
          f"-> {args.out}")
    return 0


def _load_fit(fit_dir: str, data_path: str | None = None):
    """(fit.json, model, data, draws) of a fit directory, with the data
    read from `data_path` instead of the fit's data.csv if given."""
    meta_path = os.path.join(fit_dir, "fit.json")
    missing = [p for p in ("fit.json", "data.csv", "draws.npz")
               if not os.path.exists(os.path.join(fit_dir, p))]
    if missing:
        raise DataError(f"{fit_dir}: missing fit artifacts: {missing}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    check_format_version(meta_path, meta.get("format_version"),
                         FIT_FORMAT_VERSION)
    model = model_from_jsonable(meta["model"])
    data = read_csv(data_path or os.path.join(fit_dir, "data.csv"))
    draws = draws_from_npz(os.path.join(fit_dir, "draws.npz"), model)
    return meta, model, data, draws


# -- simulate ---------------------------------------------------------------------

def cmd_simulate(args) -> int:
    from . import config as cfgmod
    from .simulate import simulate_dataset

    raw = cfgmod.load_config(args.config)
    model = cfgmod.resolve_model(raw, None)
    psi = cfgmod.resolve_truth(raw, model)
    sim = cfgmod.resolve_sim(raw, model, psi, seed_override=args.seed)
    data = simulate_dataset(sim)
    write_csv(data, args.out, include_onset=model.time_varying)
    truth = {
        "model": model_to_jsonable(model),
        "beta": {n: float(v) for n, v in zip(model.beta_names, psi.beta)},
        "alpha": [float(a) for a in psi.alpha],
        "mu": psi.mu,
        "sigma": psi.sigma,
        "seed": sim.seed,
    }
    if model.baseline.is_tbp:
        truth["w"] = [float(v) for v in psi.w]
        truth["theta"] = psi.theta
    cfgmod.write_json(args.out + ".truth.json", truth)
    print(f"simulate: wrote {data.n} records -> {args.out}")
    return 0


# -- post-processing ----------------------------------------------------------------

def _contrast(args, model: ModelSpec) -> ContrastSpec:
    from .inference import ContrastSpec

    if model.time_varying:
        if args.exposed is None:
            raise ConfigError("--exposed: time-varying contrasts need a "
                              "switch time")
        ref = math.inf if args.reference is None else args.reference
        return ContrastSpec(args.exposed, ref)
    return ContrastSpec(1.0 if args.exposed is None else args.exposed,
                        0.0 if args.reference is None else args.reference)


def _with_exposure(model: ModelSpec, args) -> ModelSpec:
    """Resolve which covariate the contrast flips; constant-effect models
    carry no flexible covariate, so it may arrive via --covariate, and is
    otherwise the model's only covariate. A flexible model's contrast
    flips its flexible covariate."""
    name = getattr(args, "covariate", None)
    if model.time_varying:
        if name:
            raise ConfigError("--covariate: the contrast of a time-varying "
                              "model is the switch itself")
        return model
    if not name:
        if model.exposure is not None:
            return model
        if len(model.covariates) != 1:
            raise ConfigError("the model names no exposure covariate; "
                              "pass --covariate")
        name = model.covariates[0]
    if name not in model.covariates:
        raise ConfigError(f"--covariate: {name!r} not a model covariate")
    if model.effect.kind != "constant" and name != model.exposure:
        raise ConfigError(f"--covariate: the flexible effect acts on "
                          f"{model.exposure!r}; the contrast flips it")
    return dataclasses.replace(model, exposure=name)


def cmd_standardize(args) -> int:
    from .inference import standardized_survivor_curves

    _, model, data, draws = _load_fit(args.fit)
    model = _with_exposure(model, args)
    draws = draws.thin_by(args.thin)
    table = standardized_survivor_curves(
        model, draws, data, _parse_grid(args.t_grid, "--t-grid"),
        _contrast(args, model))
    table.to_csv(args.out)
    print(f"standardize: {table.n_rows} rows -> {args.out}")
    return 0


def _analytic_af(args) -> CurveTable:
    from . import config as cfgmod
    from .inference import CurveTable, default_quantile_grid, quantile_time

    raw = cfgmod.load_config(args.config)
    model = cfgmod.resolve_model(raw, None)
    psi = cfgmod.resolve_truth(raw, model)
    p = _parse_grid(args.p_grid, "--p-grid")
    p = default_quantile_grid() if p is None else p
    model = _with_exposure(model, args)
    con = _contrast(args, model)
    # the contrast sets the switch time of a time-varying model, else the
    # exposure value
    key = "onset" if model.time_varying else "level"
    x = np.zeros(len(model.covariates))
    vals = (quantile_time(model, psi, x, p, **{key: con.exposed})
            / quantile_time(model, psi, x, p, **{key: con.reference}))
    zeros = np.zeros(len(p), dtype=bool)
    return CurveTable(p, np.full(len(p), "af", dtype=object), vals,
                      vals.copy(), vals.copy(), vals.copy(), zeros)


def cmd_af(args) -> int:
    if args.analytic:
        if not args.config:
            raise ConfigError("--config: required with --analytic")
        table = _analytic_af(args)
    else:
        if not args.fit:
            raise ConfigError("--fit: required unless --analytic is given")
        from .inference import standardized_af

        _, model, data, draws = _load_fit(args.fit)
        model = _with_exposure(model, args)
        table = standardized_af(model, draws.thin_by(args.thin), data,
                                _parse_grid(args.p_grid, "--p-grid"),
                                _contrast(args, model))
    table.to_csv(args.out)
    print(f"af: {table.n_rows} rows -> {args.out}")
    return 0


def cmd_surface(args) -> int:
    from .inference import af_surface

    _, model, data, draws = _load_fit(args.fit)
    table = af_surface(model, draws, data,
                       _parse_grid(args.onset_grid, "--onset-grid"),
                       _parse_grid(args.p_grid, "--p-grid"), thin=args.thin)
    table.to_csv(args.out)
    print(f"surface: {table.n_rows} rows -> {args.out}")
    return 0


def cmd_loo(args) -> int:
    from .modelcheck import (exact_loo_subject, pointwise_loglik, psis_loo,
                             write_loo_pointwise, write_loo_report)

    meta, model, data, draws = _load_fit(args.fit, args.data)
    if dataset_hash(data) != meta["data_hash"]:
        raise DataError("the supplied data file does not match the one the "
                        "model was fitted to")
    ll = pointwise_loglik(model, draws, data)
    res = psis_loo(ll)
    if args.refit_khat:
        from .likelihood import PriorSpec
        from .sampler import SamplerConfig

        pri = PriorSpec(**meta["priors"])
        scfg = meta["sampler"]
        cfg = SamplerConfig(chains=2, warmup_iters=min(500, scfg["warmup"]),
                            sampling_iters=min(1000, scfg["iters"]),
                            seed=scfg["seed"] + 1,
                            target_accept=scfg["target_accept"],
                            max_tree_depth=scfg.get("max_tree_depth", 10))
        for i in np.where(res.khat > 0.7)[0]:
            res.pointwise[i] = exact_loo_subject(model, data, pri, cfg, int(i))
            res.khat[i] = math.nan
        res.warnings.append("refit applied to high-khat subjects")
    out_dir = args.out or args.fit
    os.makedirs(out_dir, exist_ok=True)
    write_loo_report(res, os.path.join(out_dir, "loo.txt"))
    write_loo_pointwise(res, os.path.join(out_dir, "loo_pointwise.csv"))
    print(f"loo: elpd {res.elpd:.3f} (se {res.elpd_se:.3f}), "
          f"-2elpd {res.minus2elpd:.3f} -> {out_dir}")
    return 0


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qvaft",
        description="Bayesian accelerated failure time models with "
                    "quantile-varying acceleration factors")
    sub = ap.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to a data file")
    fit.add_argument("--data", required=True)
    fit.add_argument("--config", required=True)
    fit.add_argument("--out", required=True)
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--threads", type=int, default=1)
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="generate synthetic data")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    std = sub.add_parser("standardize",
                         help="standardized survivor curves from a fit")
    std.add_argument("--fit", required=True)
    std.add_argument("--out", required=True)
    std.add_argument("--covariate", default=None,
                     help="contrast covariate when the fit names none")
    std.add_argument("--exposed", type=float, default=None)
    std.add_argument("--reference", type=float, default=None)
    std.add_argument("--t-grid", dest="t_grid", default=None)
    std.add_argument("--thin", type=int, default=1)
    std.set_defaults(func=cmd_standardize)

    af = sub.add_parser("af", help="standardized acceleration factor curve")
    af.add_argument("--fit")
    af.add_argument("--analytic", action="store_true",
                    help="compute the exact curve from truth values in "
                         "--config instead of a fit")
    af.add_argument("--config")
    af.add_argument("--covariate", default=None,
                    help="contrast covariate when the model names none")
    af.add_argument("--out", required=True)
    af.add_argument("--exposed", type=float, default=None)
    af.add_argument("--reference", type=float, default=None)
    af.add_argument("--p-grid", dest="p_grid", default=None)
    af.add_argument("--thin", type=int, default=1)
    af.set_defaults(func=cmd_af)

    surf = sub.add_parser("surface",
                          help="acceleration factor surface over switch times")
    surf.add_argument("--fit", required=True)
    surf.add_argument("--out", required=True)
    surf.add_argument("--onset-grid", dest="onset_grid", default=None)
    surf.add_argument("--p-grid", dest="p_grid", default=None)
    surf.add_argument("--thin", type=int, default=10)
    surf.set_defaults(func=cmd_surface)

    loo = sub.add_parser("loo", help="PSIS leave-one-out model criterion")
    loo.add_argument("--fit", required=True)
    loo.add_argument("--data", required=True)
    loo.add_argument("--out", default=None)
    loo.add_argument("--refit-khat", dest="refit_khat", action="store_true",
                     help="refit exactly for subjects with khat > 0.7")
    loo.set_defaults(func=cmd_loo)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ConfigError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except QvaftError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
