"""qvaft benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; qvaft is imported from ./src and
nothing under src/ is changed. Working files and a full result record go to
.perfbench_work/ in the checkout.

--trace 0 runs the set-up and then every step of the workload, each in a
fresh interpreter, as a CLI user pays interpreter start-up and imports for
every command. It repeats the short post-processing steps, again each in a
fresh interpreter, until --seconds is nearly spent, then adds set-up-only
runs so that setup_s is a median of several. It prints every end-to-end
metric (median, upper value, sample count), the correctness checks, failed
operations and draw hashes, and as its last line one JSON object with the
end-to-end medians.

--trace 1 makes one untraced pass and one traced pass of the same work, and
reports per-layer numbers, layer self times, the tracing overhead and
whether the traced draws hash equal to the untraced ones.

Every timed process is pinned to one CPU, and a probe (speed.py) on the
same CPU times a fixed unit of work every 50 ms. The machines this runs on
are shared, and a CPU's speed drifts by up to 2x within seconds, so each
step's wall time is also reported scaled to a reference speed: multiplied
by PROBE_REF_S over the probe's mean unit time during the step. The JSON
result carries the scaled medians; the report shows both.

--smoke shrinks every size so that all three workloads run in seconds.
A failed correctness check prints the report with "correct": false and
exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170.0          # the whole run, children included
MIN_SETUP_SAMPLES = 3
MIN_CYCLES = 3              # samples of each post-processing step, at least
REPEATED = ("standardize", "af", "loo")
PROBE_REF_S = 1.0e-3        # the probe unit's CPU time at reference speed

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# Gated end-to-end metrics: each is measured on every workload.
E2E = ("setup_s", "standardize_s", "af_s", "loo_s", "total_s")
# Step times that only some workloads have; reported, not gated.
E2E_REPORTED = ("fit_s", "surface_s", "tbp_fit_attempt_s")
# Per-layer metrics that every workload's traced run measures.
PER_LAYER = {
    "likelihood.logp_grad_us": "us",
    "likelihood.pointwise_ms_per_draw": "ms",
    "inference.af_ms_per_draw": "ms",
    "inference.standardize_ms_per_draw": "ms",
    "baseline.survivor_us": "us",
    "covproc.v_inverse_us": "us",
    "simulate.ms_per_subject": "ms",
    "modelcheck.psis_ms_per_subject": "ms",
    "cli.artifact_io_ms": "ms",
}
# Layer numbers that are zero on some workloads or exist only on some;
# reported, not listed in BENCHMARK.json.
LAYER_REPORTED = {
    "likelihood.kernel_share": "ratio",
    "sampler.self_us_per_grad": "us",
    "sampler.grad_calls_per_iter": "count",
    "sampler.ms_per_iter": "ms",
    "sampler.parallel_speedup": "ratio",
    "sampler.divergent_frac": "ratio",
    "sampler.ess_per_grad": "1/grad",
    "sampler.max_rhat": "ratio",
    "inference.surface_ms_per_draw_onset": "ms",
    "modelcheck.khat_high_frac": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # leave src/ exactly as checked out
    env.pop("QAFT_THREADS", None)
    return env


def _end(proc, sig) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, sig)
    proc.wait()


def usable_cpus() -> list:
    """Up to two CPUs this process may run on, if it may pin itself."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, set(cpus))
    except (AttributeError, OSError):
        return []
    return cpus[:2]


CPUS = usable_cpus()


def _pin_to_main():
    os.sched_setaffinity(0, {CPUS[0]})


def run_child(args: list, deadline: float) -> tuple[dict, float]:
    """Run pipeline.py in a fresh interpreter pinned to the main CPU;
    (result, spawn time). The child gets its own process group, so that
    ending it on a timeout also ends the chain workers it started."""
    cmd = [sys.executable, os.path.join(HERE, "pipeline.py"), "--cpus",
           ",".join(map(str, CPUS))] + args
    spawned = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True,
                            preexec_fn=_pin_to_main if CPUS else None)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(args)}: timed out") from None
    finally:
        _end(proc, signal.SIGKILL)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}\n"
                          f"{err.strip()[-2000:]}")
    return json.loads(lines[-1]), spawned


class SpeedProbes:
    """One speed.py per CPU in use, for the length of a run."""

    def __init__(self, workdir: str):
        self.paths, self.procs = [], []
        for cpu in CPUS or [-1]:
            path = os.path.join(workdir, f"speed{cpu}.csv")
            self.paths.append(path)
            self.procs.append(subprocess.Popen(
                [sys.executable, os.path.join(HERE, "speed.py"), path,
                 str(cpu)], cwd=ROOT, env=child_env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                start_new_session=True))
        self.samples = None

    def __enter__(self):
        # let the probes finish importing before anything is timed
        give_up = time.time() + 20.0
        while time.time() < give_up and not all(
                os.path.exists(p) and os.path.getsize(p) > 100
                for p in self.paths):
            time.sleep(0.05)
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            _end(proc, signal.SIGTERM)

    def _mean_unit(self, samples, start, end) -> float:
        inside = sorted(c for t, c in samples if start <= t <= end)
        if len(inside) < 5:  # short step: the 5 samples nearest its middle
            mid = 0.5 * (start + end)
            inside = sorted(c for _, c in sorted(
                samples, key=lambda s: abs(s[0] - mid))[:5])
        if not inside:
            raise ChildFailed("the speed probe recorded no samples")
        cut = len(inside) // 10
        kept = inside[cut:len(inside) - cut]
        return sum(kept) / len(kept)

    def scale(self, start: float, end: float, all_cpus: bool = False) -> float:
        """PROBE_REF_S over the trimmed mean probe time in [start, end], on
        the main CPU, or averaged over every CPU in use."""
        if self.samples is None:
            self.samples = []
            for path in self.paths:
                with open(path) as fh:
                    self.samples.append([tuple(map(float, ln.split(",")))
                                         for ln in fh if ln.count(",") == 1])
        use = self.samples if all_cpus else self.samples[:1]
        unit = sum(self._mean_unit(s, start, end) for s in use) / len(use)
        return PROBE_REF_S / unit


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qvaft")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as fh:
                h.update(fn.encode() + fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
            "pinned_cpus": ",".join(map(str, CPUS)) or "none",
            "git_commit": commit or "unknown (not a git checkout)",
            "src_sha256": h.hexdigest(), "seed": seed}


def summarize(values: list) -> dict:
    """Median, upper value and count: the highest percentile with at least
    ten samples beyond it, or the maximum when there are fewer than 20."""
    vals = sorted(values)
    n = len(vals)
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        upper, label = statistics.quantiles(vals, n=100)[q - 1], f"p{q}"
    else:
        upper, label = vals[-1], "max"
    return {"median": statistics.median(vals), "upper": upper,
            "upper_is": label, "n": n}


def steps_ok(ops) -> bool:
    """Every step succeeded; the TBP fit attempt may fail, as it is not a
    step of the workload."""
    return all(op["ok"] for op in ops if op["op"] != "tbp_fit_attempt")


def run_step(p, step, common, workdir, deadline) -> bool:
    """One step in a fresh interpreter, added to the pass `p`; its wall time
    runs from the spawn of the interpreter to the end of the step."""
    res, spawned = run_child(["--mode", "step", "--step", step, "--workdir",
                              workdir] + common, deadline)
    p["ops"].append({"op": step, "ok": res["ok"], "error": res["error"]})
    p["samples"].setdefault(step, []).append({
        "wall": res["end"] - spawned, "window": [spawned, res["end"]],
        "call": res["call_s"], "call_window": res["call_window"]})
    return res["ok"]


def one_pass(args, workdir, deadline) -> dict:
    """Set-up, every step of the workload and the output checks, each in a
    fresh interpreter, as a CLI user runs them."""
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (
        ["--smoke"] if args.smoke else [])
    setup, setup["spawned"] = run_child(
        ["--mode", "setup", "--workdir", workdir] + common, deadline)
    p = {"setup": setup, "samples": {}, "ops": [], "common": common}
    ok = all(run_step(p, step, common, workdir, deadline)
             for step in WORKLOADS[args.workload]["steps"])
    check, _ = run_child(["--mode", "check", "--workdir", workdir] + common
                         + (["--first"] if ok else []), deadline)
    p["checks"], p["draws_sha256"] = check["checks"], check["draws_sha256"]
    p["ops"] += check["ops"]
    if "tbp_fit_attempt_s" in check:
        p["tbp_fit_attempt_s"] = check["tbp_fit_attempt_s"]
    return p


def repetitions(args, workdir, deadline) -> tuple[dict, list]:
    """One full pass, then cycles of the post-processing steps until the
    budget is nearly spent (at least MIN_CYCLES in all), then set-up-only
    runs until there are MIN_SETUP_SAMPLES set-ups and the budget is spent.
    Cycling stops when the next cycle and two more set-ups would overrun."""
    start = time.time()
    work = os.path.join(workdir, "rep")
    p = one_pass(args, work, deadline)
    setups = [p["setup"]]
    cycle = [s for s in WORKLOADS[args.workload]["steps"] if s in REPEATED]
    cycles, ok = 1, steps_ok(p["ops"])
    while ok:
        took = sum(p["samples"][s][-1]["wall"] for s in cycle)
        setup = p["setup"]["setup_end"] - p["setup"]["spawned"]
        if (cycles >= MIN_CYCLES
                and time.time() + took + 2 * setup > start + args.seconds):
            break
        ok = all(run_step(p, s, p["common"], work, deadline) for s in cycle)
        cycles += 1
    while True:
        took = max(r["setup_end"] - r["spawned"] for r in setups)
        if (len(setups) >= MIN_SETUP_SAMPLES
                and time.time() - start + took > args.seconds):
            break
        res, res["spawned"] = run_child(
            ["--mode", "setup", "--workdir",
             os.path.join(workdir, f"setup{len(setups)}")] + p["common"],
            deadline)
        setups.append(res)
    return p, setups


def timings(p, setups, probes, parallel_fit) -> tuple[dict, dict, dict]:
    """Samples of every step time, scaled to reference speed and raw, and
    the raw times of the steps' own calls; total_s is the set-up median plus
    the median of each step. Only set-up samples when a step failed. A
    parallel fit is scaled by both CPUs."""
    scaled, raw, calls = {}, {}, {}

    def add(name, wall, start, end, all_cpus=False):
        scaled.setdefault(name, []).append(
            wall * probes.scale(start, end, all_cpus))
        raw.setdefault(name, []).append(wall)

    for r in setups:
        add("setup_s", r["setup_end"] - r["spawned"], r["spawned"],
            r["setup_end"])
    if steps_ok(p["ops"]):
        for step, samples in p["samples"].items():
            for smp in samples:
                add(step + "_s", smp["wall"], *smp["window"],
                    parallel_fit and step == "fit")
                calls.setdefault(step + "_s", []).append(smp["call"])
        for d in (scaled, raw):
            d["total_s"] = [sum(statistics.median(v) for v in d.values())]
    if "tbp_fit_attempt_s" in p:
        raw["tbp_fit_attempt_s"] = [p["tbp_fit_attempt_s"]]
    return scaled, raw, calls


def print_report(header, env, timed, checks, ops, hashes, extra=()):
    scaled, raw, calls = timed
    print(header)
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  {'metric':<20}{'unit':<6}{'median':>10}{'upper':>10}"
          f"{'wall med':>10}{'wall up':>10}{'call med':>10}  n")
    for name in E2E + E2E_REPORTED:
        if name not in raw:
            if name in E2E:
                print(f"  {name:<20}{'s':<6}{'missing':>10}")
            continue
        w = summarize(raw[name])
        s = summarize(scaled[name]) if name in scaled else None
        cols = (f"{s['median']:>10.4f}{s['upper']:>10.4f}" if s
                else f"{'':>20}")
        call = (f"{statistics.median(calls[name]):>10.4f}" if name in calls
                else f"{'':>10}")
        print(f"  {name:<20}{'s':<6}{cols}{w['median']:>10.4f}"
              f"{w['upper']:>10.4f}{call}  {w['n']} ({w['upper_is']})")
    failed = [op for op in ops if not op["ok"]]
    print(f"  {'ops_failed_frac':<20}{'ratio':<6}"
          f"{len(failed) / max(1, len(ops)):>10.4f}{'':>40}"
          f"  {len(failed)} of {len(ops)} ops")
    for op in failed:
        print(f"  failed op {op['op']}: {op['error']}")
    for c in checks:
        print(f"  check {c['check']}: {'ok' if c['ok'] else 'FAILED'}: "
              f"{c['detail']}")
    print(f"  draws sha256: {', '.join(sorted(h or 'none' for h in hashes))}")
    for line in extra:
        print("  " + line)


def untraced(args, env, workdir, deadline, probes, header) -> dict:
    p, setups = repetitions(args, workdir, deadline)
    timed = timings(p, setups, probes, WORKLOADS[args.workload]["threads"] > 1)
    checks, ops = p["checks"], p["ops"]
    print_report(header + f" [{len(setups)} set-ups]", env, timed, checks,
                 ops, {p["draws_sha256"]})
    scaled = timed[0]
    metrics = {m: {"value": statistics.median(scaled[m]), "unit": "s"}
               for m in E2E if m in scaled}
    return {"env": env, "pass": p, "setups": setups[1:], "scaled": scaled,
            "raw": timed[1], "calls": timed[2], "checks": checks, "ops": ops,
            "metrics": metrics, "complete": len(metrics) == len(E2E)}


def traced(args, env, workdir, deadline, probes, header) -> dict:
    p = one_pass(args, os.path.join(workdir, "untraced"), deadline)
    tr, tr["spawned"] = run_child(
        ["--mode", "trace", "--workdir", os.path.join(workdir, "traced")]
        + p["common"], deadline)
    threads = WORKLOADS[args.workload]["threads"]
    timed = timings(p, [p["setup"]], probes, threads > 1)
    checks, ops = list(p["checks"]), p["ops"]
    checks.append({
        "check": "traced_draws_equal_untraced",
        "ok": tr["draws_sha256"] == p["draws_sha256"],
        "detail": (f"traced sequential fit against untraced --threads "
                   f"{threads} fit" if "fit" in tr["steps"]
                   else "replay draws of both runs")})

    def untraced_call(step):
        """The step's own call in its untraced interpreter, at reference
        speed: the part the traced pass repeats."""
        both = threads > 1 and step == "fit"
        return statistics.median(
            smp["call"] * probes.scale(*smp["call_window"], both)
            for smp in p["samples"][step])

    def traced_step(step):
        return tr["steps"][step][0] * probes.scale(*tr["windows"][step][0])

    over = (["fit"] if "fit" in tr["steps"] and threads == 1
            else [s for s in tr["steps"] if s != "fit"])
    t_tr = sum(traced_step(s) for s in over)
    t_un = sum(untraced_call(s) for s in over)
    lines = [f"trace overhead: {t_tr - t_un:+.4f} s at reference speed on "
             f"{'+'.join(over)} "
             f"({(t_tr - t_un) / t_un:+.2%} of the untraced {t_un:.4f} s)"]
    layers = dict(tr["layers"])
    if "sampler" in tr and threads > 1:
        layers["sampler.parallel_speedup"] = (traced_step("fit")
                                              / untraced_call("fit"))
    for key, val in (tr.get("sampler") or tr.get("attempt") or {}).items():
        if key.startswith(("sampler.", "likelihood.")):
            layers[key] = val
    if "attempt" in tr:
        a = tr["attempt"]
        lines.append(f"tbp fit attempt: {'ok' if a['ok'] else a['error']}, "
                     f"{a['grad_calls']} gradient calls in {a['seconds']:.3f} s")
    end = max(w[-1][1] for w in tr["windows"].values())
    lines.append(f"per-layer numbers (traced run, raw; machine speed "
                 f"{probes.scale(tr['spawned'], end):.3f} x reference):")
    for key in sorted(layers):
        val = layers[key]
        unit = PER_LAYER.get(key) or LAYER_REPORTED.get(key, "")
        lines.append(f"  {key:<40}{'n/a' if val is None else f'{val:.6g}'} {unit}")
    lines.append("self time by layer (s): " + ", ".join(
        f"{k}={v:.4f}" for k, v in sorted(tr["self_times"].items())))
    print_report(header + " [1 untraced + 1 traced pass]", env, timed,
                 checks, ops, {p["draws_sha256"], tr["draws_sha256"]}, lines)
    metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()
               if layers.get(k) is not None}
    return {"env": env, "untraced": p, "traced": tr, "checks": checks,
            "ops": ops, "layers": layers, "metrics": metrics,
            "complete": len(metrics) == len(PER_LAYER)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qvaft", "__init__.py")):
        print(f"error: no qvaft source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.time() + DEADLINE_S
    tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
           + ("-smoke" if args.smoke else ""))
    workdir = os.path.join(WORK, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = environment(args.seed)
    header = (f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
              f"{' smoke' if args.smoke else ''}: "
              f"{WORKLOADS[args.workload]['why']}")
    try:
        with SpeedProbes(workdir) as probes:
            run = traced if args.trace else untraced
            record = run(args, env, workdir, deadline, probes, header)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    correct = record["complete"] and all(c["ok"] for c in record["checks"])
    failed = sum(not op["ok"] for op in record["ops"])
    print(json.dumps({"correct": correct, "attempted": len(record["ops"]),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
