"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to stream them). Tolerances are pinned here, not configurable.

Heavy fixtures (the replicate fits) are session-scoped and shared between
criteria that reference the same runs.
"""

import math

import numpy as np
import pytest
import yaml

from conftest import make_dataset, make_model, random_dataset
from qvaft.baseline import BaselineParams, BaselineSpec, TBPWeights, survivor
from qvaft.cli import main as cli_main
from qvaft.covproc import EffectSpec, v_inverse, v_value
from qvaft.inference import (
    ContrastSpec,
    CurveTable,
    acceleration_factor,
    af_surface,
    default_quantile_grid,
    standardized_af,
    tv_acceleration_factor,
)
from qvaft.likelihood import (
    ParameterVector,
    PriorSpec,
    constrained_array,
    grad_log_posterior,
    log_posterior_unconstrained,
    prepare,
    unconstrain,
)
from qvaft.modelcheck import exact_loo, pointwise_loglik, psis_loo
from qvaft.sampler import (
    GradientTarget,
    PosteriorDraws,
    SamplerConfig,
    ess,
    rhat,
    run_chains,
    sample,
)
from qvaft.simulate import (
    CensoringSpec,
    CovariateSpec,
    SimConfig,
    TruncationSpec,
    simulate_dataset,
)

RATE03_MU = math.log(1.0 / 0.3)


def criterion(num, desc, ok):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def synthetic_draws(model, psis):
    con = np.array([constrained_array(model, p) for p in psis])
    z = np.array([unconstrain(model, p) for p in psis])
    M = len(psis)
    return PosteriorDraws(z, con, model.param_names, np.zeros(M, dtype=int),
                          np.arange(M), np.zeros(M, dtype=bool), np.zeros(M),
                          np.full(M, 0.1), 1, model)


# -- criterion 1: constant acceleration factor exp(0.5) -------------------------

def test_criterion_1_constant_af(tmp_path):
    model = make_model(covariates=("x1",))
    psi = ParameterVector(np.array([0.5]), np.array([]), RATE03_MU, 1.0)
    p = default_quantile_grid()
    vals = np.array([acceleration_factor(model, psi, pv, np.array([1.0]),
                                         np.array([0.0])) for pv in p])
    lib_ok = np.abs(vals - math.exp(0.5)).max() < 1e-9

    cfg = tmp_path / "fig1.yaml"
    cfg.write_text(yaml.safe_dump({
        "model": {"baseline": {"family": "weibull"},
                  "effect": {"kind": "constant"},
                  "covariates": ["x1"]},
        "truth": {"beta": {"x1": 0.5}, "mu": RATE03_MU, "sigma": 1.0},
    }))
    out = tmp_path / "af.csv"
    cli_ok = cli_main(["af", "--analytic", "--config", str(cfg),
                       "--out", str(out), "--covariate", "x1"]) == 0
    emitted = CurveTable.from_csv(out)
    cli_ok &= len(emitted.abscissa) == 99
    cli_ok &= bool(np.abs(emitted.mean - math.exp(0.5)).max() < 1e-9)
    criterion(1, "constant effect: emitted AF = exp(0.5) at every p "
                 "(tol 1e-9)", lib_ok and cli_ok)


# -- criterion 2: quantile-varying targets --------------------------------------

def pw_two_point_construction(xi75, xi25, tau1=2.0):
    """Solve the two-segment transform hitting xi(0.75) and xi(0.25) under
    S0(t) = exp(-0.3 t): the first segment pins beta, the second alpha."""
    q75 = -math.log(0.75) / 0.3
    q25 = -math.log(0.25) / 0.3
    t75, t25 = xi75 * q75, xi25 * q25
    assert t75 <= tau1 <= t25
    beta1 = math.log(xi75)
    alpha1 = -math.log((q25 * xi75 - tau1) / (t25 - tau1))
    return beta1, alpha1


@pytest.mark.parametrize("xi75,xi25", [(1.25, 2.0), (1.65, 0.9)])
def test_criterion_2_quantile_varying_targets(xi75, xi25, tmp_path):
    beta1, alpha1 = pw_two_point_construction(xi75, xi25)
    model = make_model(effect_kind="piecewise", knots=(0.0, 2.0),
                       covariates=("x1",))
    psi = ParameterVector(np.array([beta1]), np.array([alpha1]),
                          RATE03_MU, 1.0)
    x1, x0 = np.array([1.0]), np.array([0.0])
    got75 = acceleration_factor(model, psi, 0.75, x1, x0)
    got25 = acceleration_factor(model, psi, 0.25, x1, x0)
    lib_ok = abs(got75 - xi75) < 1e-6 and abs(got25 - xi25) < 1e-6

    cfg = tmp_path / "curve.yaml"
    cfg.write_text(yaml.safe_dump({
        "model": {"baseline": {"family": "weibull"},
                  "effect": {"kind": "piecewise", "knots": [0.0, 2.0],
                             "flexible_covariate": "x1"},
                  "covariates": ["x1"]},
        "truth": {"beta": {"x1": beta1}, "alpha": [alpha1],
                  "mu": RATE03_MU, "sigma": 1.0},
    }))
    out = tmp_path / "af.csv"
    cli_ok = cli_main(["af", "--analytic", "--config", str(cfg),
                       "--out", str(out), "--p-grid", "0.25:0.75:3"]) == 0
    emitted = CurveTable.from_csv(out)
    cli_ok &= abs(emitted.mean[emitted.abscissa == 0.75][0] - xi75) < 1e-6
    cli_ok &= abs(emitted.mean[emitted.abscissa == 0.25][0] - xi25) < 1e-6
    criterion(2, f"piecewise construction hits xi(0.75)={xi75}, "
                 f"xi(0.25)={xi25} (tol 1e-6)", lib_ok and cli_ok)


# -- criterion 3: Bernstein-transform validity ----------------------------------

def test_criterion_3_tbp():
    spec = BaselineSpec("tbp", "weibull", 5)
    pars = BaselineParams(0.0, 1.0)
    t = np.linspace(0.02, 6.0, 100)
    equal = TBPWeights((0.2,) * 5)
    dev_equal = np.abs(survivor(spec, pars, equal, t)
                       - survivor(BaselineSpec("weibull"), pars, None, t)).max()

    w = TBPWeights((0.01, 0.03, 0.09, 0.23, 0.64))
    got = survivor(spec, pars, w, t)
    decreasing = bool(np.all(np.diff(got) < 0))

    # independent oracle: explicit binomial tail sums of the beta CDF
    def betainc_binomial(p, a, b):
        n = a + b - 1
        return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j)
                   for j in range(a, n + 1))

    sc = np.exp(-t)
    oracle = np.array([
        sum(w.as_array()[k - 1] * betainc_binomial(pv, 5 - k + 1, k)
            for k in range(1, 6)) for pv in sc])
    dev_oracle = np.abs(got - oracle).max()
    criterion(3, "equal weights reproduce centering (1e-12); a skewed "
                 "weight vector matches the binomial-sum oracle (1e-10)",
              dev_equal < 1e-12 and decreasing and dev_oracle < 1e-10)


# -- criterion 4: inverse correctness --------------------------------------------

def test_criterion_4_inverses():
    rng = np.random.default_rng(48)

    def bisect(spec, beta, alpha, x, s):
        lo, hi = 0.0, 1.0
        while v_value(spec, beta, alpha, x, hi) < s:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if v_value(spec, beta, alpha, x, mid) < s:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    max_dev = 0.0
    max_rt = 0.0
    for _ in range(200):
        J = int(rng.integers(1, 4))
        knots = (0.0, *np.cumsum(rng.uniform(0.3, 2.0, size=J)))
        spec = EffectSpec("piecewise", knots)
        beta = rng.normal(scale=0.5, size=2)
        alpha = rng.normal(scale=0.8, size=J)
        x = np.array([float(rng.integers(0, 2)), rng.normal()])
        s = float(rng.uniform(0.01, 20.0))
        t_closed = v_inverse(spec, beta, alpha, x, s)
        max_dev = max(max_dev, abs(t_closed - bisect(spec, beta, alpha, x, s)))
        t = float(rng.uniform(0.01, 15.0))
        rt = v_inverse(spec, beta, alpha, x, v_value(spec, beta, alpha, x, t))
        max_rt = max(max_rt, abs(rt - t) / t)

    model = make_model(covariates=("x2",), time_varying=True)
    psi = ParameterVector(np.array([-0.6, 0.25]), np.array([]), 0.4, 1.3)
    x2 = np.array([1.0])
    max_tv = 0.0
    for tx in np.linspace(0.3, 8.0, 20):
        for p in np.linspace(0.02, 0.98, 50):
            closed = tv_acceleration_factor(model, psi, p, tx, x2)
            generic = acceleration_factor(model, psi, p, x2, x2,
                                          onset=tx, onset_prime=math.inf)
            max_tv = max(max_tv, abs(closed - generic))
    criterion(4, "piecewise inverse vs bisection (1e-8), round trip (1e-9), "
                 "switch-covariate closed form vs generic pipeline (1e-10)",
              max_dev < 1e-8 and max_rt < 1e-9 and max_tv < 1e-10)


# -- criterion 5: gradient correctness --------------------------------------------

def test_criterion_5_gradients():
    rng = np.random.default_rng(99)
    priors = PriorSpec(2.0, 1.0, 1.5, 1.0)
    fams = [("weibull", "weibull", 0), ("lognormal", "weibull", 0),
            ("tbp", "weibull", 4), ("tbp", "lognormal", 4)]
    effects = [("constant", ()), ("piecewise", (0.0, 1.0, 2.5)),
               ("spline", (-1.5, 0.0, 1.2))]
    cases = [(f, e, False) for f in fams for e in effects]
    cases += [(f, e, True) for f in fams[:3] for e in effects][:8]
    assert len(cases) == 20

    worst = 0.0
    for (family, centering, K), (kind, knots), tv in cases:
        model = make_model(family, kind, knots, centering=centering, K=K,
                           time_varying=tv)
        prep = prepare(model, random_dataset(rng, 25, 2, time_varying=tv))
        for _ in range(10):
            z = rng.normal(scale=0.3, size=model.n_unconstrained)
            if math.isfinite(log_posterior_unconstrained(model, z, prep, priors)):
                break
        else:
            raise AssertionError("no finite starting point")
        an = grad_log_posterior(model, z, prep, priors)
        fd = np.zeros_like(z)
        for i in range(len(z)):
            h = 1e-5 * max(1.0, abs(z[i]))
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (log_posterior_unconstrained(model, zp, prep, priors)
                     - log_posterior_unconstrained(model, zm, prep, priors)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an)))))
    criterion(5, f"gradient matches central differences on 20 models "
                 f"(worst rel err {worst:.2e} < 1e-5)", worst < 1e-5)


# -- criteria 6 & 7: sampler correctness and parameter recovery --------------------

C7_TRUTH = {"beta_x1": 0.5, "beta_x2": -0.3, "mu": 1.0, "sigma": 1.2}


def _c7_simulate(seed):
    model = make_model()
    psi = ParameterVector(np.array([0.5, -0.3]), np.array([]), 1.0, 1.2)
    gens = (CovariateSpec("bernoulli", (0.5,)),
            CovariateSpec("normal", (0.0, 1.0)))
    cfg = SimConfig(500, model, psi, gens,
                    CensoringSpec(admin_time=6.5),       # ~20% right-censored
                    TruncationSpec("uniform", (0.0, 2.5)), seed=seed)
    return model, simulate_dataset(cfg)


@pytest.fixture(scope="session")
def c7_fits():
    fits = []
    for rep in range(10):
        model, ds = _c7_simulate(seed=5000 + rep)
        draws = run_chains(model, ds, PriorSpec(),
                           SamplerConfig(chains=2, warmup_iters=500,
                                         sampling_iters=1000, seed=rep))
        fits.append((model, draws))
    return fits


@pytest.mark.slow
def test_criterion_6_sampler(c7_fits):
    cfg = SamplerConfig(chains=4, warmup_iters=500, sampling_iters=1000,
                        seed=7)
    d = sample(GradientTarget(5, lambda z: (-0.5 * float(z @ z), -z)), cfg)
    gauss_ok = True
    for i in range(5):
        col = d.constrained[:, i]
        n_eff = ess(d, i)
        gauss_ok &= abs(col.mean()) < 4 * col.std(ddof=1) / math.sqrt(n_eff)
        gauss_ok &= abs(col.std(ddof=1) - 1.0) < 0.05

    rho = 0.9
    prec = np.linalg.inv(np.array([[1.0, rho], [rho, 1.0]]))
    d2 = sample(GradientTarget(2, lambda z: (-0.5 * float(z @ prec @ z),
                                             -(prec @ z))),
                SamplerConfig(chains=4, warmup_iters=600, sampling_iters=1000,
                              seed=11))
    for i in range(2):
        col = d2.constrained[:, i]
        gauss_ok &= abs(col.mean()) < 4 * col.std(ddof=1) / math.sqrt(ess(d2, i))
        gauss_ok &= abs(col.std(ddof=1) - 1.0) < 0.05

    # the survival fit: same generating setup as criterion 7, three chains
    model, ds = _c7_simulate(seed=5000)
    draws = run_chains(model, ds, PriorSpec(),
                       SamplerConfig(chains=3, warmup_iters=600,
                                     sampling_iters=1500, seed=123))
    rhats = [rhat(draws, i) for i in range(len(draws.param_names))]
    criterion(6, f"Gaussian-target moments in tolerance; survival-fit "
                 f"max R-hat {max(rhats):.4f} < 1.01",
              gauss_ok and max(rhats) < 1.01)


@pytest.mark.slow
def test_criterion_7_parameter_recovery(c7_fits):
    successes = 0
    for model, draws in c7_fits:
        ok = True
        for i, name in enumerate(draws.param_names):
            col = draws.constrained[:, i]
            ok &= abs(col.mean() - C7_TRUTH[name]) < 3.0 * col.std(ddof=1)
        successes += ok
    criterion(7, f"posterior means within 3 SD of truth in {successes}/10 "
                 "replicates (need >= 9)", successes >= 9)


# -- criterion 8: PSIS-LOO validity -------------------------------------------------

@pytest.mark.slow
def test_criterion_8_psis_loo():
    # (a) small-n agreement with the exact refit oracle
    model = make_model(covariates=("x1",), exposure="x1")
    psi = ParameterVector(np.array([0.5]), np.array([]), 0.8, 1.2)
    cfg = SimConfig(30, model, psi, (CovariateSpec("bernoulli", (0.5,)),),
                    CensoringSpec(admin_time=6.0),
                    TruncationSpec("uniform", (0.0, 1.5)), seed=77)
    ds = simulate_dataset(cfg)
    priors = PriorSpec()
    draws = run_chains(model, ds, priors,
                       SamplerConfig(chains=2, warmup_iters=500,
                                     sampling_iters=1000, seed=8))
    res = psis_loo(pointwise_loglik(model, draws, ds))
    refit_cfg = SamplerConfig(chains=2, warmup_iters=300, sampling_iters=500,
                              seed=9)
    exact = exact_loo(model, ds, priors, refit_cfg)
    refit_ok = abs(res.elpd - exact.sum()) < 2.0 * res.elpd_se

    # (b) the flexible model beats the constant one on data generated with a
    # genuine quantile-varying effect
    pw_model = make_model(effect_kind="piecewise", knots=(0.0, 1.5, 4.0),
                          covariates=("x1",), exposure="x1")
    c_model = make_model(covariates=("x1",), exposure="x1")
    truth = ParameterVector(np.array([0.4]), np.array([0.8, 1.2]), 0.8, 1.3)
    wins = 0
    for rep in range(10):
        scfg = SimConfig(300, pw_model, truth,
                         (CovariateSpec("bernoulli", (0.5,)),),
                         CensoringSpec(admin_time=12.0), seed=6000 + rep)
        data = simulate_dataset(scfg)
        sam = SamplerConfig(chains=2, warmup_iters=400, sampling_iters=500,
                            seed=rep)
        e_flex = psis_loo(pointwise_loglik(
            pw_model, run_chains(pw_model, data, priors, sam), data)).elpd
        e_con = psis_loo(pointwise_loglik(
            c_model, run_chains(c_model, data, priors, sam), data)).elpd
        wins += e_flex > e_con
    criterion(8, f"psis-loo within 2 SE of exact refit "
                 f"(|diff| = {abs(res.elpd - exact.sum()):.2f}, "
                 f"2 SE = {2 * res.elpd_se:.2f}); flexible model wins "
                 f"{wins}/10 (need >= 8)", refit_ok and wins >= 8)


# -- criterion 9: standardization reduction -----------------------------------------

def test_criterion_9_standardization_reduction():
    model = make_model(covariates=("x1",), exposure="x1")
    psi = ParameterVector(np.array([0.45]), np.array([]), 0.6, 1.2)
    recs = [(0.5 + 0.3 * i, 0.5 + 0.3 * i, 1, 0.0, (i % 2,))
            for i in range(8)]
    data = make_dataset(recs, ("x1",))
    p = np.array([0.1, 0.25, 0.5, 0.75, 0.9])

    table = standardized_af(model, synthetic_draws(model, [psi]), data, p)
    conditional = np.array([
        acceleration_factor(model, psi, pv, np.array([1.0]), np.array([0.0]))
        for pv in p])
    dev = np.abs(table.mean - conditional).max()

    rep = standardized_af(model, synthetic_draws(model, [psi] * 12), data, p)
    width = np.abs(rep.hi95 - rep.lo95).max()
    criterion(9, f"standardized == conditional AF with a single covariate "
                 f"(max dev {dev:.1e} < 1e-12); identical draws give "
                 f"zero-width intervals", dev < 1e-12 and width == 0.0)


# -- criterion 10: surface consistency ------------------------------------------------

def test_criterion_10_surface_consistency():
    model = make_model(covariates=("x2",), time_varying=True)
    psis = [ParameterVector(np.array([-0.5, 0.2]), np.array([]), 0.4, 1.1),
            ParameterVector(np.array([-0.7, 0.1]), np.array([]), 0.5, 1.0),
            ParameterVector(np.array([-0.3, 0.3]), np.array([]), 0.3, 1.2)]
    draws = synthetic_draws(model, psis)
    recs = [(2.0, 2.0, 1, 0.0, (z,), math.inf)
            for z in (0.0, 1.0, -0.5)]
    data = make_dataset(recs, ("x2",))
    p = np.array([0.2, 0.5, 0.8])
    onsets = np.array([0.7, 1.9, 3.0])

    surf = af_surface(model, draws, data, onsets, p, thin=1)
    slices_ok = True
    for g in onsets:
        direct = standardized_af(model, draws, data, p,
                                 ContrastSpec(float(g), math.inf))
        rows = surf.rows_for(f"tx={g:g}")
        slices_ok &= bool(np.array_equal(rows.mean, direct.mean)
                          and np.array_equal(rows.median, direct.median)
                          and np.array_equal(rows.lo95, direct.lo95)
                          and np.array_equal(rows.hi95, direct.hi95))

    flat_psi = ParameterVector(np.array([0.0, 0.2]), np.array([]), 0.4, 1.1)
    flat = af_surface(model, synthetic_draws(model, [flat_psi]), data,
                      onsets, p, thin=1)
    flat_ok = bool(np.all(flat.mean == 1.0))
    criterion(10, "surface slices equal standardized AF bit-for-bit; zero "
                  "switch coefficient gives a surface identically 1",
              slices_ok and flat_ok)
