"""One process of a benchmark run: a fresh interpreter, as a CLI user has.

    python3 perfbench/pipeline.py --mode MODE --workload NAME --seed N \
        --workdir DIR [--step STEP] [--smoke] [--first]

Modes:
  setup      set up (import, configs, simulate, data read, replay draws), stop
  step       one step of the workload as a user runs it: through
             qvaft.cli.main where a subcommand exists, else through the
             public library call on the replay draws that `setup` saved
  check      check the outputs of a set-up directory and hash its draws;
             with --first, also the short TBP fit attempt and the reference
             check (tbp_interval only)
  trace      set up, then the same work through library calls with spans
             around every call into qvaft, plus per-call timings of single
             layers
  reference  print the tbp_interval reference values (AF table and elpd on
             fixed inputs); perfbench/reference_tbp.json holds its output

The parent pins the process to one CPU, beside a speed probe; `--cpus`
names the CPUs a `--threads 2` fit may spread over.

The last line of standard output is one JSON object. `setup_end` and `end`
are wall-clock times, so the parent can charge interpreter start-up and
imports to the set-up or the step.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_FILE = os.path.join(HERE, "reference_tbp.json")
REFERENCE_RTOL = 1e-9
REFERENCE_KEYS = ("af_mean", "af_median", "af_lo95", "af_hi95", "elpd")


def _check_source():
    import qvaft

    where = os.path.realpath(qvaft.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"qvaft was imported from {where}, not from {SRC}")


# -- inputs ----------------------------------------------------------------

def replay_draws(model, data, priors, psi, seed, count, scale):
    """`count` draws around the truth psi, N(0, scale^2) on every
    unconstrained coordinate, kept only where the log posterior is finite."""
    import numpy as np
    from qvaft.likelihood import (constrain, constrained_array,
                                  log_posterior_unconstrained, prepare,
                                  unconstrain)

    prep = prepare(model, data)
    z0 = unconstrain(model, psi)
    rng = np.random.default_rng(seed)
    kept = []
    for _ in range(20 * count):
        z = z0 + scale * rng.standard_normal(z0.size)
        if math.isfinite(log_posterior_unconstrained(model, z, prep, priors)):
            kept.append(z)
            if len(kept) == count:
                break
    else:
        raise RuntimeError(f"only {len(kept)} of {count} replay draws have a "
                           "finite log posterior")
    z = np.array(kept)
    cons = np.array([constrained_array(model, constrain(model, zi))
                     for zi in z])
    return as_draws(model, z, cons)


def as_draws(model, z, cons):
    """Replay draws as one chain of PosteriorDraws."""
    import numpy as np
    from qvaft.sampler import PosteriorDraws

    m = len(z)
    return PosteriorDraws(z, cons, model.param_names, np.zeros(m, dtype=int),
                          np.arange(m), np.zeros(m, dtype=bool), np.zeros(m),
                          np.zeros(m), 1, model)


def _sha(*arrays) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class Run:
    """Paths, configs and inputs of one repetition."""

    def __init__(self, w, name, seed, workdir, tracer=None):
        self.w, self.name, self.seed = w, name, seed
        self.tr = tracer
        self.path = {k: os.path.join(workdir, v) for k, v in {
            "sim_cfg": "sim.yaml", "fit_cfg": "fit.yaml", "data": "data.csv",
            "fit": "fit", "std": "std.csv", "af": "af.csv",
            "surface": "surface.csv", "loo": "loo", "attempt": "attempt",
            "replay": "replay.npz",
        }.items()}
        self.draws = None

    def span(self, name):
        if self.tr is None:
            return contextlib.nullcontext()
        return self.tr.span(name)

    def setup(self):
        import yaml
        from qvaft import cli  # noqa: F401  (imports every module a CLI user pays for)
        from qvaft import config as cfgmod
        from qvaft.data import read_csv, write_csv
        from qvaft.simulate import simulate_dataset

        for key in ("sim", "fit"):
            with open(self.path[key + "_cfg"], "w") as fh:
                yaml.safe_dump(self.w[key], fh)
        if self.tr is None:
            rc = cli.main(["simulate", "--config", self.path["sim_cfg"],
                           "--out", self.path["data"], "--seed", str(self.seed)])
            if rc != 0:
                raise RuntimeError(f"qvaft simulate exited {rc}")
        else:  # the steps of `qvaft simulate`, one span per layer
            with self.span("config.resolve"):
                raw = cfgmod.load_config(self.path["sim_cfg"])
                smodel = cfgmod.resolve_model(raw, None)
                psi = cfgmod.resolve_truth(raw, smodel)
                sim = cfgmod.resolve_sim(raw, smodel, psi,
                                         seed_override=self.seed)
            with self.span("simulate.simulate_dataset"):
                data = simulate_dataset(sim)
            with self.span("cli.io"):
                write_csv(data, self.path["data"],
                          include_onset=smodel.time_varying)
        with self.span("cli.io"):
            self.data = read_csv(self.path["data"])
        with self.span("config.resolve"):
            raw = cfgmod.load_config(self.path["fit_cfg"])
            self.model = cfgmod.resolve_model(raw, self.data)
            self.priors = cfgmod.resolve_priors(raw)
            self.raw_fit = raw
        if "replay_draws" in self.w:
            with self.span("likelihood.replay_draws"):
                psi = cfgmod.resolve_truth(raw, self.model)
                self.draws = replay_draws(self.model, self.data, self.priors,
                                          psi, self.seed, self.w["replay_draws"],
                                          self.w["replay_scale"])

    def save_replay(self):
        import numpy as np

        np.savez(self.path["replay"], z=self.draws.z,
                 constrained=self.draws.constrained)

    def load_replay(self):
        """What a replay-draw step reads, as a CLI step reads a fit
        directory: the fit configuration, the data and the draws."""
        import numpy as np
        from qvaft import config as cfgmod
        from qvaft.data import read_csv

        self.data = read_csv(self.path["data"])
        self.model = cfgmod.resolve_model(
            cfgmod.load_config(self.path["fit_cfg"]), self.data)
        with np.load(self.path["replay"], allow_pickle=False) as raw:
            self.draws = as_draws(self.model, raw["z"], raw["constrained"])

    # -- steps -------------------------------------------------------------

    def cli_args(self, step):
        w, p = self.w, self.path
        tv = ["--exposed", repr(w["onset"])] if "onset" in w else []
        if step == "fit":
            return ["fit", "--data", p["data"], "--config", p["fit_cfg"],
                    "--out", p["fit"], "--seed", str(self.seed),
                    "--threads", str(w["threads"])]
        if step == "standardize":
            return ["standardize", "--fit", p["fit"], "--out", p["std"],
                    "--thin", str(w["std_thin"])] + tv
        if step == "af":
            grid = ["--p-grid", w["p_grid"]] if "p_grid" in w else []
            return ["af", "--fit", p["fit"], "--out", p["af"],
                    "--thin", str(w["af_thin"])] + tv + grid
        if step == "surface":
            return ["surface", "--fit", p["fit"], "--out", p["surface"],
                    "--onset-grid", w["onset_grid"], "--p-grid", w["p_grid"],
                    "--thin", str(w["af_thin"])]
        if step == "loo":
            return ["loo", "--fit", p["fit"], "--data", p["data"],
                    "--out", p["loo"]]
        raise ValueError(step)

    def library_step(self, step):
        """The replay-draw workload's steps, which have no fit directory."""
        from qvaft.inference import (standardized_af,
                                     standardized_survivor_curves)
        from qvaft.modelcheck import pointwise_loglik, psis_loo, write_loo_report

        self.load_replay()
        m, d, data = self.model, self.draws, self.data
        if step == "standardize":
            standardized_survivor_curves(m, d.thin_by(self.w["std_thin"]),
                                         data).to_csv(self.path["std"])
        elif step == "af":
            standardized_af(m, d.thin_by(self.w["af_thin"]),
                            data).to_csv(self.path["af"])
        elif step == "loo":
            os.makedirs(self.path["loo"], exist_ok=True)
            res = psis_loo(pointwise_loglik(m, d, data))
            write_loo_report(res, os.path.join(self.path["loo"], "loo.txt"))
        else:
            raise ValueError(step)
        return 0


def attempt_op(fn):
    """Run one operation; (ok, error text, seconds, [start, end] wall clock)."""
    e0, t0 = time.time(), time.perf_counter()
    try:
        rc = fn()
        ok, err = rc == 0, (None if rc == 0 else f"exit code {rc}")
    except Exception as exc:  # a failed step is reported, not fatal
        ok, err = False, f"{type(exc).__name__}: {exc}"
    return ok, err, time.perf_counter() - t0, [e0, time.time()]


@contextlib.contextmanager
def on_cpus(cpus):
    """Allow the block every CPU in `cpus`, then restore the pinning; chain
    workers started inside inherit the wider set."""
    if not cpus:
        yield
        return
    old = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, old)


# -- checks ----------------------------------------------------------------

def _check(checks, name, ok, detail=""):
    checks.append({"check": name, "ok": bool(ok), "detail": detail})


def check_outputs(run: Run) -> list:
    import numpy as np
    from qvaft.inference import CurveTable
    from qvaft.modelcheck import read_loo_report
    from workloads import RECOVERY_SDS

    checks: list = []
    w, p = run.w, run.path
    tables = {"standardize": p["std"], "af": p["af"], "surface": p["surface"]}
    for step in w["steps"]:
        if step not in tables:
            continue
        try:
            t = CurveTable.from_csv(tables[step])
        except Exception as exc:
            _check(checks, f"{step}_table", False, f"{type(exc).__name__}: {exc}")
            continue
        vals = np.column_stack([t.mean, t.median, t.lo95, t.hi95])
        ok = (t.n_rows > 0 and np.all(np.isfinite(vals))
              and np.all(t.lo95 <= t.median) and np.all(t.median <= t.hi95))
        _check(checks, f"{step}_table", ok,
               f"{t.n_rows} rows finite with lo95 <= median <= hi95")
    try:
        elpd = read_loo_report(os.path.join(p["loo"], "loo.txt"))["elpd"]
        _check(checks, "elpd_finite", math.isfinite(elpd), f"elpd {elpd!r}")
    except Exception as exc:
        _check(checks, "elpd_finite", False, f"{type(exc).__name__}: {exc}")
    if "recovery" in w:
        try:
            with open(os.path.join(p["fit"], "summary.json")) as fh:
                params = json.load(fh)["params"]
            for name, truth in w["recovery"].items():
                med, sd = params[name]["median"], params[name]["sd"]
                z = abs(med - truth) / sd
                _check(checks, f"recovery_{name}", z <= RECOVERY_SDS,
                       f"median {med:.4f}, truth {truth}, {z:.2f} sd "
                       f"(limit {RECOVERY_SDS})")
        except Exception as exc:
            _check(checks, "recovery", False, f"{type(exc).__name__}: {exc}")
    if "surface" in w["steps"]:
        try:
            surf = CurveTable.from_csv(p["surface"]).rows_for(
                f"tx={w['onset']:g}")
            af = CurveTable.from_csv(p["af"])
            same = surf.n_rows == af.n_rows and all(
                np.array_equal(getattr(surf, f), getattr(af, f))
                for f in ("abscissa", "mean", "median", "lo95", "hi95"))
            _check(checks, "surface_slice_equals_af", same,
                   f"surface at onset {w['onset']:g} against af, bit for bit")
        except Exception as exc:
            _check(checks, "surface_slice_equals_af", False,
                   f"{type(exc).__name__}: {exc}")
    return checks


def draws_hash(run: Run):
    import numpy as np

    npz = run.path["replay" if "replay_draws" in run.w else "fit"]
    if npz == run.path["fit"]:
        npz = os.path.join(npz, "draws.npz")
    if not os.path.exists(npz):
        return None
    with np.load(npz, allow_pickle=False) as raw:
        return _sha(raw["z"], raw["constrained"])


# -- reference values (tbp_interval) -------------------------------------

def reference_values() -> dict:
    """AF table and elpd on fixed inputs: the reference seed, n and draw
    count of workloads.REFERENCE, whatever --seed the run has."""
    from qvaft import config as cfgmod
    from qvaft.inference import standardized_af
    from qvaft.modelcheck import pointwise_loglik, psis_loo
    from qvaft.simulate import simulate_dataset
    from workloads import REFERENCE, workload

    w = workload("tbp_interval")
    w["sim"]["simulate"]["n"] = REFERENCE["n"]
    raw = w["sim"]
    model = cfgmod.resolve_model(raw, None)
    psi = cfgmod.resolve_truth(raw, model)
    data = simulate_dataset(cfgmod.resolve_sim(raw, model, psi,
                                               seed_override=REFERENCE["seed"]))
    priors = cfgmod.resolve_priors(raw)
    draws = replay_draws(model, data, priors, psi, REFERENCE["seed"],
                         REFERENCE["replay_draws"], w["replay_scale"])
    af = standardized_af(model, draws.thin_by(REFERENCE["af_thin"]), data)
    loo = psis_loo(pointwise_loglik(model, draws, data))
    return {
        "inputs_sha256": _sha(data.y_lower, data.y_upper, data.trunc, data.x,
                              draws.z),
        "p": af.abscissa.tolist(),
        "af_mean": af.mean.tolist(), "af_median": af.median.tolist(),
        "af_lo95": af.lo95.tolist(), "af_hi95": af.hi95.tolist(),
        "elpd": loo.elpd,
        "af_draws": int(draws.thin_by(REFERENCE["af_thin"]).M),
    }


def reference_check() -> dict:
    with open(REFERENCE_FILE) as fh:
        ref = json.load(fh)
    return compare_reference(reference_values(), ref)


def compare_reference(got: dict, ref: dict) -> dict:
    """Every REFERENCE_KEYS value of `got` finite and within REFERENCE_RTOL
    of `ref`, relative to `ref`."""
    import numpy as np

    def failed(detail):
        return {"check": "tbp_reference", "ok": False, "detail": detail}

    worst = 0.0
    for key in REFERENCE_KEYS:
        a, b = np.asarray(got[key], dtype=float), np.asarray(ref[key], dtype=float)
        if a.shape != b.shape:
            return failed(f"{key}: shape {a.shape} against {b.shape}")
        if not np.all(np.isfinite(a)):
            return failed(f"{key}: non-finite value in the result")
        if not (np.all(np.isfinite(b)) and np.all(b != 0)):
            return failed(f"{key}: non-finite or zero reference value")
        worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
    inputs = ("same inputs" if got["inputs_sha256"] == ref["inputs_sha256"]
              else "INPUTS DIFFER from those the reference was made from")
    return {"check": "tbp_reference", "ok": worst <= REFERENCE_RTOL,
            "detail": f"AF table and elpd, worst relative error {worst:.3g} "
                      f"(limit {REFERENCE_RTOL:g}); {inputs}"}


# -- modes -----------------------------------------------------------------

def mode_step(run: Run, step: str, cpus: set) -> dict:
    """One step, timed from inside as well: `call` is the step's own call,
    without interpreter start-up and imports."""
    from qvaft import cli

    fn = ((lambda: run.library_step(step)) if "replay_draws" in run.w
          else (lambda: cli.main(run.cli_args(step))))
    with on_cpus(cpus if step == "fit" and run.w["threads"] > 1 else None):
        ok, err, dt, window = attempt_op(fn)
    return {"ok": ok, "error": err, "call_s": dt, "call_window": window,
            "end": window[1]}


def mode_check(run: Run, first: bool) -> dict:
    """Check the outputs and hash the draws; with `first`, on tbp_interval,
    also make the TBP fit attempt and the reference check."""
    from qvaft import cli

    out = {"checks": check_outputs(run), "draws_sha256": draws_hash(run),
           "ops": []}
    if first and run.name == "tbp_interval":
        args = ["fit", "--data", run.path["data"], "--config",
                run.path["fit_cfg"], "--out", run.path["attempt"],
                "--seed", str(run.seed), "--threads", "1"]
        ok, err, dt, _ = attempt_op(lambda: cli.main(args))
        out["ops"].append({"op": "tbp_fit_attempt", "ok": ok, "error": err})
        out["tbp_fit_attempt_s"] = dt
        out["checks"].append(reference_check())
    return out


def _sampler_numbers(tr, draws, cfg, prefix="sampler.sample"):
    import numpy as np
    from tracing import ess, split_rhat

    wall = tr.total(prefix)
    kern = tr.inside("likelihood.logp_and_grad", prefix)
    calls = len(kern)
    iters = cfg.chains * (cfg.warmup_iters + cfg.sampling_iters)
    out = {"grad_calls": calls, "sampling_s": wall,
           "likelihood.kernel_share": float(kern.sum() / wall) if wall else None,
           "sampler.self_us_per_grad":
               float((wall - kern.sum()) / calls * 1e6) if calls else None}
    if draws is not None:
        chains = [draws.chain_matrix(i) for i in range(draws.constrained.shape[1])]
        out.update({
            "sampler.grad_calls_per_iter": calls / iters,
            "sampler.ms_per_iter": wall / iters * 1e3,
            "sampler.divergent_frac": float(np.mean(draws.divergent)),
            "sampler.ess_per_grad": min(ess(c) for c in chains) / calls,
            "sampler.max_rhat": (max(split_rhat(c) for c in chains)
                                 if draws.n_chains > 1 else None),
        })
    return out


def _median_us(fn, repeats):
    import numpy as np

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times) * 1e6)


def layer_micro(run: Run, draws) -> dict:
    """Per-call timings of single layers at the workload's draws."""
    import numpy as np
    from qvaft import baseline as bl
    from qvaft.covproc import TimeVaryingCovariate, tv_v_inverse, v_inverse
    from qvaft.data import max_followup
    from qvaft.likelihood import make_posterior, psi_from_constrained

    model, data = run.model, run.data
    lg, _ = make_posterior(model, data, run.priors)
    rows = draws.z[np.linspace(0, draws.M - 1, min(100, draws.M)).astype(int)]
    per_call = []
    for z in rows:
        t0 = time.perf_counter()
        lg(z)
        per_call.append(time.perf_counter() - t0)

    psi = psi_from_constrained(model, draws.constrained[0])
    t = np.linspace(1.0, 99.0, 99) / 99.0 * max_followup(data)
    if model.time_varying:
        eta = data.x @ psi.beta[1:]
    else:
        eta = data.x @ psi.beta
    u = np.outer(t, np.exp(-eta))
    bp, bw = psi.baseline_params(), psi.tbp_weights()
    surv = _median_us(lambda: bl.survivor(model.baseline, bp, bw, u), 10)

    s = t * math.exp(-float(eta[0]))
    if model.time_varying:
        tv = TimeVaryingCovariate(run.w["onset"])
        inv = _median_us(lambda: tv_v_inverse(psi.beta[0], float(eta[0]),
                                              psi.alpha, tv, model.effect, s), 20)
    else:
        x = data.x[0].copy()
        x[model.exposure_index] = 1.0
        inv = _median_us(lambda: v_inverse(model.effect, psi.beta, psi.alpha, x,
                                           s, x1_index=model.exposure_index), 20)
    return {"likelihood.logp_grad_us": float(np.median(per_call) * 1e6),
            "baseline.survivor_us": surv, "covproc.v_inverse_us": inv}


def mode_trace(run: Run) -> dict:
    import numpy as np
    from qvaft import config as cfgmod
    from qvaft.data import write_csv
    from qvaft.inference import (af_surface, ContrastSpec, standardized_af,
                                 standardized_survivor_curves)
    from qvaft.modelcheck import pointwise_loglik, psis_loo, write_loo_report
    from qvaft.sampler import (PosteriorDraws, draws_to_csv, draws_to_npz,
                               make_model_target, sample)

    tr, w, p = run.tr, run.w, run.path
    steps, windows, out = {}, {}, {}

    @contextlib.contextmanager
    def timed(step):
        e0, t0 = time.time(), time.perf_counter()
        yield
        steps[step] = [time.perf_counter() - t0]
        windows[step] = [[e0, time.time()]]

    def fit(cfg, out_dir):
        target = make_model_target(run.model, run.data, run.priors)
        target = dataclasses.replace(target, logp_and_grad=tr.wrap(
            "likelihood.logp_and_grad", target.logp_and_grad))
        with tr.span("sampler.sample"):
            draws = sample(target, cfg)
        draws.model = run.model
        with tr.span("cli.io"):
            os.makedirs(out_dir, exist_ok=True)
            draws_to_csv(draws, os.path.join(out_dir, "draws.csv"))
            draws_to_npz(draws, os.path.join(out_dir, "draws.npz"))
            write_csv(run.data, os.path.join(out_dir, "data.csv"))
        with tr.span("cli.io"), np.load(os.path.join(out_dir, "draws.npz"),
                                        allow_pickle=False) as raw:
            back = PosteriorDraws(
                raw["z"], raw["constrained"], draws.param_names,
                raw["chain_id"], raw["iteration"], raw["divergent"],
                raw["energy"], raw["step_size"], draws.n_chains, run.model)
        return back

    if "fit" in w["steps"]:
        with timed("fit"), tr.span("cli.fit"):
            with tr.span("config.resolve"):
                cfg = cfgmod.resolve_sampler(run.raw_fit, seed_override=run.seed,
                                             threads=1)
            draws = fit(cfg, p["fit"])
        out["sampler"] = _sampler_numbers(tr, draws, cfg)
        out["draws_sha256"] = _sha(draws.z, draws.constrained)
    else:
        draws = run.draws
        out["draws_sha256"] = _sha(draws.z, draws.constrained)

    con = (ContrastSpec(w["onset"], math.inf) if run.model.time_varying
           else None)
    std_d = draws.thin_by(w["std_thin"])
    af_d = draws.thin_by(w["af_thin"])
    grid = None
    if "p_grid" in w:
        lo, hi, k = w["p_grid"].split(":")
        grid = np.linspace(float(lo), float(hi), int(k))

    with timed("standardize"):
        with tr.span("inference.standardize"):
            tab = standardized_survivor_curves(run.model, std_d, run.data,
                                               None, con)
        with tr.span("cli.io"):
            tab.to_csv(p["std"])

    with timed("af"):
        with tr.span("inference.af"):
            tab = standardized_af(run.model, af_d, run.data, grid, con)
        with tr.span("cli.io"):
            tab.to_csv(p["af"])

    onsets = 0
    if "surface" in w["steps"]:
        lo, hi, k = w["onset_grid"].split(":")
        og = np.linspace(float(lo), float(hi), int(k))
        onsets = len(og)
        with timed("surface"):
            with tr.span("inference.surface"):
                tab = af_surface(run.model, draws, run.data, og, grid,
                                 thin=w["af_thin"])
            with tr.span("cli.io"):
                tab.to_csv(p["surface"])

    with timed("loo"):
        with tr.span("likelihood.pointwise"):
            ll = pointwise_loglik(run.model, draws, run.data)
        with tr.span("modelcheck.psis"):
            res = psis_loo(ll)
        with tr.span("cli.io"):
            os.makedirs(p["loo"], exist_ok=True)
            write_loo_report(res, os.path.join(p["loo"], "loo.txt"))

    n, ms = run.data.n, 1e3
    layers = {
        "likelihood.pointwise_ms_per_draw":
            tr.total("likelihood.pointwise") / draws.M * ms,
        "inference.af_ms_per_draw": tr.total("inference.af") / af_d.M * ms,
        "inference.standardize_ms_per_draw":
            tr.total("inference.standardize") / std_d.M * ms,
        "simulate.ms_per_subject":
            tr.total("simulate.simulate_dataset") / n * ms,
        "modelcheck.psis_ms_per_subject": tr.total("modelcheck.psis") / n * ms,
        "modelcheck.khat_high_frac": float(np.mean(res.khat > 0.7)),
        "cli.artifact_io_ms": tr.total("cli.io") * ms,
    }
    if onsets:
        layers["inference.surface_ms_per_draw_onset"] = (
            tr.total("inference.surface") / (af_d.M * onsets) * ms)
    layers.update(layer_micro(run, draws))

    if run.name == "tbp_interval":
        cfg = cfgmod.resolve_sampler(run.raw_fit, seed_override=run.seed,
                                     threads=1)

        def attempt():
            fit(cfg, p["attempt"])
            return 0

        ok, err, dt, _ = attempt_op(attempt)
        out["attempt"] = {"ok": ok, "error": err, "seconds": dt,
                          **_sampler_numbers(tr, None, cfg)}
    out.update(steps=steps, windows=windows, layers=layers,
               self_times=tr.self_times())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=("setup", "step", "check", "trace", "reference"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workdir")
    ap.add_argument("--step")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--first", action="store_true")
    ap.add_argument("--cpus", default="",
                    help="CPUs a --threads 2 fit may use; the rest is pinned")
    args = ap.parse_args(argv)
    args.cpus = {int(c) for c in args.cpus.split(",") if c}

    _check_source()
    if args.mode == "reference":
        ref = reference_values()
        print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                 for k, v in ref.items()) + "\n}")
        return 0

    from tracing import Tracer
    from workloads import workload

    tracer = Tracer() if args.mode == "trace" else None
    os.makedirs(args.workdir, exist_ok=True)
    run = Run(workload(args.workload, args.smoke), args.workload, args.seed,
              args.workdir, tracer)
    if args.mode == "setup":
        run.setup()
        result = {"setup_end": time.time()}
        if run.draws is not None:
            run.save_replay()
    elif args.mode == "step":
        result = mode_step(run, args.step, args.cpus)
    elif args.mode == "check":
        result = mode_check(run, args.first)
    else:
        with tracer.span("cli.setup"):
            run.setup()
        result = mode_trace(run)
        tracer.dump(os.path.join(args.workdir, "spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
