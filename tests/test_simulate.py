"""Inverse-transform correctness (Kolmogorov-Smirnov against the model
survivor), truncation by rejection, censoring bookkeeping, and
reproducibility."""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import make_model, survivor_conditional
from qvaft.data import write_csv, read_csv
from qvaft.errors import ConfigError, DomainError
from qvaft.inference import quantile_time
from qvaft.likelihood import ParameterVector
from qvaft.simulate import (
    CensoringSpec,
    CovariateSpec,
    OnsetSpec,
    SimConfig,
    TruncationSpec,
    simulate_dataset,
)

PSI2 = ParameterVector(np.array([0.5, -0.3]), np.array([]), 1.0, 1.2)
GENS2 = (CovariateSpec("bernoulli", (0.5,)),
         CovariateSpec("normal", (0.0, 1.0)))


class TestDrawEventTime:
    def test_monte_carlo_survivor_value(self, rng):
        model = make_model(covariates=("x1",))
        psi = ParameterVector(np.array([0.0]), np.array([]), 0.0, 1.0)
        u = rng.random(100_000)
        t = quantile_time(model, psi, np.array([0.0]), u)
        frac = float(np.mean(t > 1.0))
        assert abs(frac - math.exp(-1.0)) < 0.005

    @pytest.mark.parametrize("family,K,w", [
        ("weibull", 0, None), ("lognormal", 0, None),
        ("tbp", 5, (0.01, 0.03, 0.09, 0.23, 0.64))])
    def test_uniform_survivor_values_per_family(self, family, K, w, rng):
        model = make_model(family=family, K=K, covariates=("x1",))
        psi = ParameterVector(np.array([0.4]), np.array([]), 0.3, 1.2,
                              None if w is None else np.array(w),
                              None if w is None else 1.0)
        x = np.array([1.0])
        u = rng.random(50_000)
        t = quantile_time(model, psi, x, u)
        s = survivor_conditional(model, psi, x, t)
        ks = stats.kstest(s, "uniform").statistic
        assert ks < 0.01

    def test_piecewise_transform_ks(self, rng):
        model = make_model(effect_kind="piecewise", knots=(0.0, 1.0, 2.5),
                           covariates=("x1",))
        psi = ParameterVector(np.array([0.2]), np.array([0.6, -0.4]), 0.4, 1.1)
        x = np.array([1.0])
        u = rng.random(50_000)
        t = quantile_time(model, psi, x, u)
        s = survivor_conditional(model, psi, x, t)
        assert stats.kstest(s, "uniform").statistic < 0.01


class TestQuantileTimeRows:
    """`quantile_time` on covariate rows with per-row p and onsets: the
    batched inversion that simulation runs, one row at a time."""

    @pytest.mark.parametrize("family,kind,knots,alpha,tv", [
        ("lognormal", "piecewise", (0.0, 1.0, 2.5), (0.3, -0.2), False),
        ("tbp", "spline", (-0.5, 0.5, 1.5), (0.2, 0.05), False),
        ("lognormal", "piecewise", (0.0, 1.0, 2.0), (0.2, 0.4), True),
        ("lognormal", "spline", (-1.0, 0.0, 1.0), (0.15, -0.05), True)])
    def test_rows_match_single_patterns(self, family, kind, knots, alpha, tv,
                                        rng):
        tbp = family == "tbp"
        model = make_model(family, kind, knots, covariates=("x1", "x2"),
                           time_varying=tv, K=5 if tbp else 0)
        psi = ParameterVector(np.array([-0.7, 0.4, 0.2] if tv else [0.5, -0.3]),
                              np.array(alpha), 0.8, 1.1,
                              np.array([0.1, 0.15, 0.3, 0.25, 0.2]) if tbp
                              else None, 1.0 if tbp else None)
        n = 60
        x = np.column_stack([rng.uniform(0.0, 1.5, n), rng.normal(size=n)])
        p = rng.random(n)
        onset = np.where(rng.random(n) < 0.3, np.inf, rng.uniform(0.2, 3.0, n))
        t = quantile_time(model, psi, x, p, onset)
        for i in range(n):
            assert t[i] == quantile_time(model, psi, x[i], p[i], onset[i])
        # S(t | x) = p at every row
        s = np.array([survivor_conditional(model, psi, x[i], t[i], onset[i])
                      for i in range(n)])
        np.testing.assert_allclose(s, p, rtol=1e-8)

    def test_bad_onset_in_an_array_is_domain_error(self):
        model = make_model(covariates=("x2",), time_varying=True)
        psi = ParameterVector(np.array([-0.5, 0.2]), np.array([]), 0.8, 1.1)
        with pytest.raises(DomainError, match="change time"):
            quantile_time(model, psi, np.zeros((3, 1)), 0.5,
                          np.array([1.0, np.nan, 2.0]))


class TestSimulateDataset:
    def test_no_censoring_all_events(self):
        model = make_model()
        cfg = SimConfig(60, model, PSI2, GENS2, seed=4)
        ds = simulate_dataset(cfg)
        assert np.all(ds.event)
        np.testing.assert_array_equal(ds.y_lower, ds.y_upper)
        assert np.all(ds.trunc == 0.0)

    def test_kolmogorov_through_subject_path(self):
        model = make_model(covariates=("x1",))
        psi = ParameterVector(np.array([0.3]), np.array([]), 0.5, 1.3)
        cfg = SimConfig(50_000, model, psi,
                        (CovariateSpec("constant", (1.0,)),), seed=9)
        ds = simulate_dataset(cfg)
        s = survivor_conditional(model, psi, np.array([1.0]), ds.y_lower)
        assert stats.kstest(s, "uniform").statistic < 0.01

    def test_truncation_conditional_law(self):
        """Exponential baseline: accepted T minus a fixed entry time is again
        exponential (memorylessness)."""
        model = make_model(covariates=("x1",))
        psi = ParameterVector(np.array([0.0]), np.array([]), 0.0, 1.0)
        cfg = SimConfig(20_000, model, psi,
                        (CovariateSpec("constant", (0.0,)),),
                        truncation=TruncationSpec("fixed", (1.5,)), seed=11)
        ds = simulate_dataset(cfg)
        assert np.all(ds.y_lower > 1.5)
        ks = stats.kstest(ds.y_lower - 1.5, "expon").statistic
        assert ks < 0.01

    def test_administrative_censoring_rate(self):
        model = make_model()
        cfg = SimConfig(2000, model, PSI2, GENS2,
                        censoring=CensoringSpec(admin_time=4.0), seed=2)
        ds = simulate_dataset(cfg)
        censored = ~ds.event
        assert np.all(ds.y_lower[censored] == 4.0)
        assert np.all(np.isinf(ds.y_upper[censored]))
        assert 0.05 < censored.mean() < 0.95

    def test_interval_records_bracket_visits(self):
        model = make_model()
        gap = 0.7
        cfg = SimConfig(500, model, PSI2, GENS2,
                        censoring=CensoringSpec(admin_time=6.0, visit_gap=gap),
                        truncation=TruncationSpec("uniform", (0.0, 1.0)),
                        seed=13)
        ds = simulate_dataset(cfg)
        interval = ~ds.event & np.isfinite(ds.y_upper)
        assert interval.mean() > 0.5
        width = ds.y_upper[interval] - ds.y_lower[interval]
        np.testing.assert_allclose(width, gap, atol=1e-9)
        assert np.all(ds.trunc <= ds.y_lower + 1e-12)

    def test_time_varying_onsets(self):
        model = make_model(covariates=("x2",), time_varying=True)
        psi = ParameterVector(np.array([-0.5, 0.2]), np.array([]), 0.8, 1.1)
        cfg = SimConfig(300, model, psi, (CovariateSpec("normal", (0, 1)),),
                        onset=OnsetSpec("exponential", (0.5,), never_prob=0.3),
                        seed=6)
        ds = simulate_dataset(cfg)
        assert 0.1 < np.isinf(ds.onset).mean() < 0.6
        assert np.all(ds.onset[np.isfinite(ds.onset)] > 0)

    def test_seed_determinism_and_csv_round_trip(self, tmp_path):
        model = make_model()
        cfg = SimConfig(40, model, PSI2, GENS2,
                        censoring=CensoringSpec(admin_time=5.0), seed=21)
        a = simulate_dataset(cfg)
        b = simulate_dataset(cfg)
        np.testing.assert_array_equal(a.y_lower, b.y_lower)
        np.testing.assert_array_equal(a.x, b.x)
        path = tmp_path / "sim.csv"
        write_csv(a, path)
        back = read_csv(path)
        np.testing.assert_array_equal(back.y_lower, a.y_lower)

    def test_zero_admin_time_is_config_error(self):
        with pytest.raises(ConfigError):
            CensoringSpec(admin_time=0.0)

    def test_hopeless_truncation_is_config_error(self):
        model = make_model()
        cfg = SimConfig(3, model, PSI2, GENS2,
                        truncation=TruncationSpec("fixed", (1e8,)), seed=1)
        with pytest.raises(ConfigError, match="acceptance"):
            simulate_dataset(cfg)

    def test_hopeless_truncation_error_names_the_subject(self):
        model = make_model()
        cfg = SimConfig(3, model, PSI2, GENS2,
                        truncation=TruncationSpec("fixed", (1e8,)), seed=1)
        with pytest.raises(ConfigError, match=r"^subject 0: rejection"):
            simulate_dataset(cfg)

    def test_hopeless_truncation_cost_does_not_grow_with_n(self, monkeypatch):
        """With no subject accepted, the error comes once the sample has
        made MAX_REJECTION_ATTEMPTS attempts in all: 20 rounds at n = 500,
        not MAX_REJECTION_ATTEMPTS rounds over every subject."""
        import qvaft.simulate as sim
        rounds = []

        def counted(*args):
            rounds.append(1)
            return quantile_time(*args)

        monkeypatch.setattr(sim, "quantile_time", counted)
        cfg = SimConfig(500, make_model(), PSI2, GENS2,
                        truncation=TruncationSpec("fixed", (1e8,)), seed=1)
        with pytest.raises(ConfigError, match=r"^subject 0: rejection"):
            simulate_dataset(cfg)
        assert len(rounds) == sim.MAX_REJECTION_ATTEMPTS // 500

    def test_first_records_do_not_depend_on_n(self):
        """Subject i's record depends only on (seed, i): the first 40
        records of n = 80 are those of n = 40, bit for bit, under a
        truncation law that rejects many first attempts and redraws entries
        past the administrative cutoff."""
        model = make_model(effect_kind="piecewise", knots=(0.0, 1.0, 2.5))
        psi = ParameterVector(np.array([0.5, -0.3]), np.array([0.3, -0.2]),
                              1.0, 1.2)
        gens = (CovariateSpec("uniform", (0.0, 1.0)),
                CovariateSpec("normal", (0.0, 1.0)))
        cens = CensoringSpec(admin_time=8.0, exp_rate=0.1)
        trunc = TruncationSpec("uniform", (0.0, 10.0))
        big = simulate_dataset(SimConfig(80, model, psi, gens, cens, trunc,
                                         seed=5))
        small = simulate_dataset(SimConfig(40, model, psi, gens, cens, trunc,
                                           seed=5))
        for f in ("y_lower", "y_upper", "event", "trunc", "x", "onset"):
            np.testing.assert_array_equal(getattr(big, f)[:40],
                                          getattr(small, f), err_msg=f)
        assert np.mean(big.trunc > 0) > 0.9

    def test_covariate_generator_count_checked(self):
        model = make_model()
        with pytest.raises(ConfigError):
            SimConfig(10, model, PSI2, GENS2[:1], seed=0)


class TestSpecValidation:
    """Specs built through the library check their parameters against the
    distribution table, as the YAML path does, and name the parameter."""

    @pytest.mark.parametrize("build,error,match", [
        (lambda: CovariateSpec("normal", (0, -1)), DomainError, "^sd: "),
        (lambda: CovariateSpec("bernoulli", (1.7,)), DomainError, "^p: "),
        (lambda: CovariateSpec("uniform", (1.0, 0.0)), DomainError, "^hi: "),
        (lambda: CovariateSpec("gamma", (1.0,)), DomainError, "^dist: "),
        (lambda: TruncationSpec("exponential", (0,)), ConfigError, "^rate: "),
        (lambda: TruncationSpec("uniform", (2, 1)), ConfigError, "^hi: "),
        (lambda: TruncationSpec("fixed", (-1.0,)), ConfigError, "^time: "),
        (lambda: OnsetSpec("uniform", (1.0,)), ConfigError,
         r"uniform takes 2 parameters \('lo', 'hi'\)"),
        (lambda: OnsetSpec("exponential", (float("nan"),)), ConfigError,
         "^rate: "),
        (lambda: OnsetSpec("fixed", (1.0,), never_prob=1.5), ConfigError,
         "^never_prob: "),
    ])
    def test_bad_parameter_is_named(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    def test_parameters_are_stored_as_floats(self):
        assert CovariateSpec("uniform", (0, 2)).params == (0.0, 2.0)
        assert TruncationSpec().params == ()
        assert OnsetSpec().params == (1.0,)
