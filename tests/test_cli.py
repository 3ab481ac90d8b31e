"""Command-line pipeline: schema validation and exit codes, artifact
round-trips, knot-placement rules, seed determinism, and the
simulate -> fit -> summarize loop under the CI budget."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from qvaft.cli import main
from qvaft.data import read_csv
from qvaft.inference import CurveTable
from qvaft.modelcheck import read_loo_report

def _read(path):
    return Path(path).read_text()


def _json(path):
    return json.loads(_read(path))


BASE_CONFIG = {
    "model": {
        "baseline": {"family": "weibull"},
        "effect": {"kind": "constant", "flexible_covariate": "x1"},
        "covariates": ["x1", "x2"],
    },
    "priors": {"a_sigma": 0.3, "b_sigma": 0.05},
    "sampler": {"chains": 2, "warmup": 300, "iters": 300, "seed": 5},
    "truth": {"beta": {"x1": 0.5, "x2": -0.3}, "mu": 1.0, "sigma": 1.2},
    "simulate": {
        "n": 120,
        "covariates": {"x1": {"dist": "bernoulli", "p": 0.5},
                       "x2": {"dist": "normal", "mean": 0.0, "sd": 1.0}},
        "censoring": {"admin_time": 8.0},
        "truncation": {"dist": "uniform", "lo": 0.0, "hi": 2.0},
        "seed": 3,
    },
}


def write_config(tmp_path, overrides=None, name="cfg.yaml"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for path, value in (overrides or {}).items():
        node = cfg
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        if value is None:
            node.pop(keys[-1], None)
        else:
            node[keys[-1]] = value
    out = tmp_path / name
    out.write_text(yaml.safe_dump(cfg))
    return str(out)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """One simulate + fit shared by the read-only post-processing tests."""
    tmp = tmp_path_factory.mktemp("fit")
    cfg = write_config(tmp)
    data = str(tmp / "data.csv")
    assert main(["simulate", "--config", cfg, "--out", data]) == 0
    fit_dir = str(tmp / "fit")
    assert main(["fit", "--data", data, "--config", cfg, "--out", fit_dir]) == 0
    return {"cfg": cfg, "data": data, "fit": fit_dir, "tmp": tmp}


class TestSimulate:
    def test_emits_reingestable_csv_and_truth(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "d.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        ds = read_csv(out)
        assert ds.n == 120
        truth = _json(out + ".truth.json")
        assert truth["beta"] == {"x1": 0.5, "x2": -0.3}

    def test_seed_override_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b, c = (str(tmp_path / f"{k}.csv") for k in "abc")
        assert main(["simulate", "--config", cfg, "--out", a, "--seed", "9"]) == 0
        assert main(["simulate", "--config", cfg, "--out", b, "--seed", "9"]) == 0
        assert main(["simulate", "--config", cfg, "--out", c, "--seed", "10"]) == 0
        assert _read(a) == _read(b)
        assert _read(a) != _read(c)

    def test_schema_error_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"simulate.n": -5})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("key,value", [
        ("truth.beta.x1", "abc"),
        ("model.effect.time_varying", "no"),
        ("simulate.n", math.inf),
        ("simulate.n", math.nan),
    ])
    def test_bad_value_named_in_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {key: value})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert key in capsys.readouterr().err

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"simulate.nn": 10})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "simulate.nn" in capsys.readouterr().err

    @pytest.mark.parametrize("block,key", [
        ({"lo": 0.0, "hi": 2.0}, "hi"),       # no dist: no truncation
        ({"dist": "fixed", "time": 1.0, "rate": 2.0}, "rate"),
    ])
    def test_truncation_key_outside_its_dist(self, tmp_path, capsys, block,
                                             key):
        cfg = write_config(tmp_path, {"simulate.truncation": block})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert f"simulate.truncation.{key}" in capsys.readouterr().err

    def test_onset_key_outside_its_dist(self, tmp_path, capsys):
        switch = {"model.effect": {"kind": "constant", "time_varying": True},
                  "truth.beta": {"onset": -0.5, "x1": 0.5, "x2": -0.3}}
        onset = {"dist": "fixed", "time": 1.0, "never_prob": 0.2}
        ok = write_config(tmp_path, {**switch, "simulate.onset": onset})
        assert main(["simulate", "--config", ok,
                     "--out", str(tmp_path / "ok.csv")]) == 0
        bad = write_config(tmp_path, {**switch, "simulate.onset":
                                      {**onset, "lo": 0.5}}, name="bad.yaml")
        assert main(["simulate", "--config", bad,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "simulate.onset.lo" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha,rc", [([0.2, 0.3, 0.4], 0),
                                          ([1.5, 0.0, 0.0], 2)])
    def test_truth_alpha_must_keep_v_increasing(self, tmp_path, capsys,
                                                alpha, rc):
        """The tv_switch simulation config: D alpha = 1.5 >= 1 makes V fall
        on s in [1, 1.5) after the switch, so no event time is inverted."""
        cfg = write_config(tmp_path, {
            "model.effect": {"kind": "piecewise", "time_varying": True,
                             "knots": [0.0, 1.0, 2.0, 3.0]},
            "model.covariates": ["x2"],
            "truth.beta": {"onset": -0.7, "x2": 0.2},
            "truth.alpha": alpha,
            "simulate.n": 50,
            "simulate.covariates": {"x2": {"dist": "normal", "mean": 0.0,
                                           "sd": 1.0}},
            "simulate.onset": {"dist": "exponential", "rate": 0.4,
                               "never_prob": 0.3}})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "1"]) == rc
        assert out.exists() == (rc == 0)
        if rc:
            assert "truth alpha [1.5, 0.0, 0.0]" in capsys.readouterr().err

    @pytest.mark.parametrize("key,block", [
        ("simulate.covariates.x2.sd",
         {"dist": "normal", "mean": 0.0, "sd": -1.0}),
        ("simulate.covariates.x1.p", {"dist": "bernoulli", "p": 1.5}),
        ("simulate.covariates.x1.p", {"dist": "bernoulli", "p": -0.1}),
        ("simulate.covariates.x2.hi", {"dist": "uniform", "lo": 2.0,
                                       "hi": 1.0}),
        ("simulate.truncation.hi", {"dist": "uniform", "lo": 2.0, "hi": 1.0}),
        ("simulate.truncation.rate", {"dist": "exponential", "rate": 0.0}),
        ("simulate.truncation.rate", {"dist": "exponential", "rate": -2.0}),
        ("simulate.truncation.time", {"dist": "fixed", "time": -1.0}),
    ])
    def test_parameter_out_of_range_named_in_error(self, tmp_path, capsys,
                                                   key, block):
        cfg = write_config(tmp_path, {key.rsplit(".", 1)[0]: block})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,block", [
        ("simulate.onset.rate", {"dist": "exponential", "rate": 0.0}),
        ("simulate.onset.time", {"dist": "fixed", "time": -1.0}),
    ])
    def test_onset_parameter_out_of_range_named_in_error(self, tmp_path,
                                                         capsys, key, block):
        cfg = write_config(tmp_path, {
            "model.effect": {"kind": "constant", "time_varying": True},
            "truth.beta": {"onset": -0.5, "x1": 0.5, "x2": -0.3},
            "simulate.onset": block})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert key in capsys.readouterr().err

    def test_unknown_sampler_key_fails_fit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sampler.warmupp": 10})
        data = str(tmp_path / "d.csv")
        ok_cfg = write_config(tmp_path, name="ok.yaml")
        assert main(["simulate", "--config", ok_cfg, "--out", data]) == 0
        assert main(["fit", "--data", data, "--config", cfg,
                     "--out", str(tmp_path / "f")]) == 2
        assert "sampler.warmupp" in capsys.readouterr().err


class TestFit:
    def test_artifacts_and_summary(self, fitted):
        fit = fitted["fit"]
        summary = _json(fit + "/summary.json")
        for name in ("beta_x1", "beta_x2", "mu", "sigma"):
            p = summary["params"][name]
            assert math.isfinite(p["median"])
            assert p["lo95"] <= p["median"] <= p["hi95"]
        meta = _json(fit + "/fit.json")
        assert meta["model"]["effect"]["kind"] == "constant"
        lines = _read(fit + "/draws.csv").splitlines()
        assert lines[0] == ("chain,iter,beta_x1,beta_x2,mu,sigma,"
                            "divergent,energy")
        assert len(lines) == 1 + 600

    def test_validation_error_exit_2(self, fitted, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y_l,y_u,delta\n1,2,0\n")
        assert main(["fit", "--data", str(bad), "--config", fitted["cfg"],
                     "--out", str(tmp_path / "f")]) == 2

    def test_knot_rule_places_log_quantiles(self, fitted, tmp_path):
        cfg = write_config(tmp_path, {
            "model.effect.kind": "spline",
            "model.effect.knot_rule": "quantiles:2,log",
            "sampler.warmup": 150, "sampler.iters": 150,
        })
        fit_dir = str(tmp_path / "fit_spline")
        assert main(["fit", "--data", fitted["data"], "--config", cfg,
                     "--out", fit_dir]) == 0
        knots = _json(fit_dir + "/fit.json")["model"]["effect"]["knots"]
        ds = read_csv(fitted["data"])
        interval = ~ds.event & np.isfinite(ds.y_upper)
        times = np.concatenate([ds.y_lower[ds.event],
                                0.5 * (ds.y_lower + ds.y_upper)[interval]])
        want = np.quantile(np.log(np.sort(times)), [0, 1/3, 2/3, 1])
        np.testing.assert_allclose(knots, want, atol=1e-12)

    def test_seed_determinism(self, fitted, tmp_path):
        f1, f2 = str(tmp_path / "f1"), str(tmp_path / "f2")
        for f in (f1, f2):
            assert main(["fit", "--data", fitted["data"], "--config",
                         fitted["cfg"], "--out", f, "--seed", "77"]) == 0
        assert _read(f1 + "/draws.csv") == _read(f2 + "/draws.csv")


class TestPostProcessing:
    def test_standardize_and_af(self, fitted, tmp_path):
        surv = str(tmp_path / "surv.csv")
        assert main(["standardize", "--fit", fitted["fit"], "--out", surv,
                     "--thin", "4"]) == 0
        table = CurveTable.from_csv(surv)
        assert set(table.group) == {"exposed", "unexposed"}
        for g in ("exposed", "unexposed"):
            rows = table.rows_for(g)
            assert np.all(np.diff(rows.mean) <= 1e-12)

        af = str(tmp_path / "af.csv")
        assert main(["af", "--fit", fitted["fit"], "--out", af,
                     "--thin", "4", "--p-grid", "0.2:0.8:4"]) == 0
        got = CurveTable.from_csv(af)
        # constant-effect model: flat in p
        assert got.mean.max() - got.mean.min() < 1e-9

    @pytest.mark.parametrize("thin", ["0", "-3"])
    @pytest.mark.parametrize("command", ["standardize", "af"])
    def test_thin_below_one_exit_2(self, fitted, tmp_path, capsys, command,
                                   thin):
        out = str(tmp_path / "out.csv")
        assert main([command, "--fit", fitted["fit"], "--out", out,
                     "--thin", thin]) == 2
        assert "thinning factor must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, grid", [
        ("af", "--p-grid", "0.1:inf:3"),
        ("standardize", "--t-grid", "0:inf:5"),
        ("standardize", "--t-grid", "1:nan:3"),
        ("af", "--p-grid", "0.1:0.9:1"),
    ])
    def test_bad_grid_names_the_flag(self, fitted, tmp_path, capsys, command,
                                     flag, grid):
        """Non-finite bounds, and one value between distinct bounds, exit 2
        with an error naming the flag, before any arithmetic warns."""
        out = str(tmp_path / "out.csv")
        assert main([command, "--fit", fitted["fit"], "--out", out,
                     flag, grid]) == 2
        assert f"{flag}: " in capsys.readouterr().err

    def test_af_analytic_constant(self, fitted, tmp_path):
        out = str(tmp_path / "af_an.csv")
        assert main(["af", "--analytic", "--config", fitted["cfg"],
                     "--out", out, "--covariate", "x1"]) == 0
        table = CurveTable.from_csv(out)
        assert len(table.abscissa) == 99
        np.testing.assert_allclose(table.mean, math.exp(0.5), atol=1e-9)
        assert np.all(table.hi95 == table.lo95)

    @pytest.mark.parametrize("effect,args", [
        ({"kind": "constant"},
         ["--covariate", "x2", "--exposed", "1.5", "--reference", "-0.5"]),
        ({"kind": "piecewise", "knots": [0.0, 1.0, 2.5],
          "flexible_covariate": "x1"},
         ["--exposed", "1.5", "--reference", "-0.5"]),
    ])
    def test_af_analytic_equals_pattern_ratio(self, tmp_path, effect, args):
        """The emitted curve is, bit for bit, the ratio of quantile times of
        two covariate patterns that differ only in the contrast column."""
        from qvaft import config as cfgmod
        from qvaft.inference import acceleration_factor

        cfg = write_config(tmp_path, {"model.effect": effect,
                                      "truth.alpha": ([0.3, -0.2] if
                                                      "knots" in effect
                                                      else None)})
        out = str(tmp_path / "af.csv")
        assert main(["af", "--analytic", "--config", cfg, "--out", out]
                    + args) == 0
        raw = cfgmod.load_config(cfg)
        model = cfgmod.resolve_model(raw, None)
        psi = cfgmod.resolve_truth(raw, model)
        j = model.covariates.index(args[args.index("--covariate") + 1]
                                   if "--covariate" in args else "x1")
        x1, x0 = np.zeros(2), np.zeros(2)
        x1[j], x0[j] = 1.5, -0.5
        table = CurveTable.from_csv(out)
        want = [acceleration_factor(model, psi, p, x1, x0)
                for p in table.abscissa]
        np.testing.assert_array_equal(table.mean, want)

    @pytest.mark.parametrize("overrides,level", [
        ({"model.effect": {"kind": "piecewise", "knots": [0.0, 1.6, 3.2],
                           "flexible_covariate": "x1"},
          "truth.alpha": [0.2, 0.4]}, ("level", 1.5, -0.5)),
        ({"model.baseline": {"family": "tbp", "centering": "weibull", "K": 5},
          "model.effect": {"kind": "spline", "knots": [0.5, 2.0, 6.0],
                           "flexible_covariate": "x1"},
          "truth.alpha": [0.2, 0.05],
          "truth.w": [0.1, 0.15, 0.3, 0.25, 0.2], "truth.theta": 1.0},
         ("level", 1.0, 0.0)),
        ({"model.covariates": ["x2"],
          "model.effect": {"kind": "piecewise", "time_varying": True,
                           "knots": [0.0, 1.0, 2.0, 3.0]},
          "truth.beta": {"onset": -0.7, "x2": 0.2},
          "truth.alpha": [0.2, 0.3, 0.4]}, ("onset", 2.0, math.inf)),
    ])
    def test_af_analytic_matches_scalar_calls(self, tmp_path, overrides,
                                              level):
        """The analytic curve inverts each level's whole p grid in one
        `quantile_time` call. Its baseline quantiles S0^{-1}(p) are within
        1 ulp of the scalar calls' (C pow on a scalar against NumPy's on an
        array, for Weibull baselines), its times equal the scalar calls'
        wherever those agree, and the curve is their ratio."""
        from qvaft import baseline as bl
        from qvaft import config as cfgmod
        from qvaft.inference import quantile_time

        key, exposed, reference = level
        cfg = write_config(tmp_path, overrides)
        out = str(tmp_path / "af.csv")
        assert main(["af", "--analytic", "--config", cfg, "--out", out,
                     "--exposed", repr(exposed), "--reference",
                     repr(reference)]) == 0
        raw = cfgmod.load_config(cfg)
        model = cfgmod.resolve_model(raw, None)
        psi = cfgmod.resolve_truth(raw, model)
        table = CurveTable.from_csv(out)
        p = table.abscissa

        def s0_inverse(p):
            return bl.inverse_survivor(model.baseline, psi.baseline_params(),
                                       psi.tbp_weights(), p)

        q_scalar = np.array([s0_inverse(pv) for pv in p])
        assert np.all(np.abs(s0_inverse(p) - q_scalar) <= np.spacing(q_scalar))
        same_q = s0_inverse(p) == q_scalar
        x = np.zeros(len(model.covariates))
        times = []
        for value in (exposed, reference):
            row = quantile_time(model, psi, x, p, **{key: value})
            scalar = np.array([quantile_time(model, psi, x, pv, **{key: value})
                               for pv in p])
            np.testing.assert_array_equal(row[same_q], scalar[same_q])
            np.testing.assert_allclose(row, scalar, rtol=1e-15, atol=0.0)
            times.append(row)
        np.testing.assert_array_equal(table.mean, times[0] / times[1])

    def test_af_analytic_flexible_contrast_on_other_covariate_exit_2(
            self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model.effect": {"kind": "piecewise", "knots": [0.0, 1.0],
                             "flexible_covariate": "x1"},
            "truth.alpha": [0.3]})
        assert main(["af", "--analytic", "--config", cfg, "--covariate", "x2",
                     "--out", str(tmp_path / "af.csv")]) == 2
        assert "flexible effect acts on 'x1'" in capsys.readouterr().err

    def test_af_analytic_covariate_on_time_varying_exit_2(self, tmp_path,
                                                          capsys):
        cfg = write_config(tmp_path, {
            "model.covariates": ["x2"],
            "model.effect": {"kind": "constant", "time_varying": True},
            "truth.beta": {"onset": -0.7, "x2": 0.2}})
        assert main(["af", "--analytic", "--config", cfg, "--exposed", "1.0",
                     "--covariate", "x2",
                     "--out", str(tmp_path / "af.csv")]) == 2
        assert "switch itself" in capsys.readouterr().err

    def test_missing_fit_artifacts_exit_2(self, tmp_path):
        assert main(["af", "--fit", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("artifact", ["fit.json", "draws.npz"])
    def test_unknown_format_version_exit_2(self, fitted, tmp_path, capsys,
                                           artifact):
        import shutil

        clone = tmp_path / "fit_v99"
        shutil.copytree(fitted["fit"], clone)
        path = clone / artifact
        if artifact == "fit.json":
            meta = json.loads(path.read_text())
            meta["format_version"] = 99
            path.write_text(json.dumps(meta))
        else:
            with np.load(path) as raw:
                arrays = dict(raw)
            np.savez_compressed(path, **{**arrays, "format_version": 99})
        assert main(["af", "--fit", str(clone),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "format_version 99" in err

    def test_fit_without_npz_exit_2(self, fitted, tmp_path, capsys):
        # draws.csv is an export; post-processing reads draws.npz only
        import shutil

        clone = tmp_path / "fit_csv_only"
        shutil.copytree(fitted["fit"], clone)
        (clone / "draws.npz").unlink()
        assert main(["af", "--fit", str(clone),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "draws.npz" in capsys.readouterr().err

    def test_loo_report(self, fitted, tmp_path):
        out = str(tmp_path / "loo_out")
        assert main(["loo", "--fit", fitted["fit"], "--data", fitted["data"],
                     "--out", out]) == 0
        rep = read_loo_report(out + "/loo.txt")
        assert rep["minus2elpd"] == -2 * rep["elpd"]
        assert rep["n"] == 120
        rows = _read(out + "/loo_pointwise.csv").splitlines()
        assert rows[0] == "subject,elpd_i,khat"
        assert len(rows) == 121

    def test_loo_reads_only_the_supplied_data(self, fitted, tmp_path,
                                              capsys):
        """loo reads --data and not the fit's data.csv snapshot, which
        must still be there."""
        import shutil

        clone = tmp_path / "fit_bad_snapshot"
        shutil.copytree(fitted["fit"], clone)
        (clone / "data.csv").write_text("not,a,data,file\n")
        out = str(tmp_path / "loo_clone")
        assert main(["loo", "--fit", str(clone), "--data", fitted["data"],
                     "--out", out]) == 0
        assert read_loo_report(out + "/loo.txt")["n"] == 120
        (clone / "data.csv").unlink()
        assert main(["loo", "--fit", str(clone), "--data", fitted["data"],
                     "--out", out]) == 2
        assert "data.csv" in capsys.readouterr().err

    def test_loo_mismatched_data_exit_2(self, fitted, tmp_path):
        cfg = write_config(tmp_path, {"simulate.seed": 123})
        other = str(tmp_path / "other.csv")
        assert main(["simulate", "--config", cfg, "--out", other]) == 0
        assert main(["loo", "--fit", fitted["fit"], "--data", other]) == 2

    def test_loo_refit_flag_runs(self, fitted, tmp_path):
        out = str(tmp_path / "loo_refit")
        assert main(["loo", "--fit", fitted["fit"], "--data", fitted["data"],
                     "--out", out, "--refit-khat"]) == 0
        assert read_loo_report(out + "/loo.txt")["n"] == 120


class TestLooRefit:
    def test_refit_of_one_subject_has_se_zero(self, tmp_path, monkeypatch):
        """The refit path reads elpd, its se and -2 elpd off the replaced
        elpd_i by psis_loo's own rule: for one subject the se is 0.0, not
        the NaN of a variance over one value."""
        import qvaft.modelcheck as modelcheck

        cfg = write_config(tmp_path, {
            "simulate.n": 1, "sampler.warmup": 60, "sampler.iters": 60})
        data, fit_dir = str(tmp_path / "d.csv"), str(tmp_path / "f")
        assert main(["simulate", "--config", cfg, "--out", data]) == 0
        assert main(["fit", "--data", data, "--config", cfg,
                     "--out", fit_dir]) == 0
        loo = modelcheck.psis_loo

        def high_khat(ll):
            res = loo(ll)
            res.khat[:] = 0.9
            return res

        monkeypatch.setattr(modelcheck, "psis_loo", high_khat)
        monkeypatch.setattr(modelcheck, "exact_loo_subject",
                            lambda *args: -1.5)
        assert main(["loo", "--fit", fit_dir, "--data", data,
                     "--refit-khat"]) == 0
        rep = read_loo_report(fit_dir + "/loo.txt")
        assert (rep["n"], rep["elpd"], rep["elpd_se"], rep["minus2elpd"]) \
            == (1, -1.5, 0.0, 3.0)

    def test_refit_uses_the_fit_sampler_settings(self, tmp_path,
                                                 monkeypatch):
        """`loo --refit-khat` refits with the fit's target_accept and
        max_tree_depth; a fit.json without max_tree_depth means 10."""
        import qvaft.modelcheck as modelcheck

        cfg = write_config(tmp_path, {
            "simulate.n": 50, "sampler.warmup": 60, "sampler.iters": 60,
            "sampler.max_tree_depth": 3, "sampler.target_accept": 0.9})
        data = str(tmp_path / "d.csv")
        assert main(["simulate", "--config", cfg, "--out", data]) == 0
        fit_dir = str(tmp_path / "f")
        assert main(["fit", "--data", data, "--config", cfg,
                     "--out", fit_dir]) == 0
        meta = _json(fit_dir + "/fit.json")
        assert meta["sampler"]["max_tree_depth"] == 3

        loo = modelcheck.psis_loo

        def one_high_khat(ll):
            res = loo(ll)
            res.khat[7] = 0.9
            return res

        configs = []

        def stub(model, data, priors, cfg, i):
            configs.append((i, cfg))
            return -1.0

        monkeypatch.setattr(modelcheck, "psis_loo", one_high_khat)
        monkeypatch.setattr(modelcheck, "exact_loo_subject", stub)
        args = ["loo", "--fit", fit_dir, "--data", data, "--refit-khat"]
        assert main(args) == 0
        assert 7 in [i for i, _ in configs]
        assert {(c.target_accept, c.max_tree_depth)
                for _, c in configs} == {(0.9, 3)}
        configs.clear()
        del meta["sampler"]["max_tree_depth"]
        with open(fit_dir + "/fit.json", "w") as fh:
            json.dump(meta, fh)
        assert main(args) == 0
        assert 7 in [i for i, _ in configs]
        assert {(c.target_accept, c.max_tree_depth)
                for _, c in configs} == {(0.9, 10)}


class TestFitSummary:
    def test_step_sizes_per_chain_in_chain_order(self, fitted):
        summary = _json(fitted["fit"] + "/summary.json")
        with np.load(fitted["fit"] + "/draws.npz") as raw:
            per = len(raw["step_size"]) // int(raw["n_chains"])
            assert summary["sampler"]["step_size"] == \
                raw["step_size"][::per].tolist()

    def test_grad_calls_match_a_counting_target(self, fitted):
        import dataclasses

        from qvaft import config as cfgmod
        from qvaft.sampler import make_model_target, sample

        raw = cfgmod.load_config(fitted["cfg"])
        data = read_csv(fitted["data"])
        target = make_model_target(cfgmod.resolve_model(raw, data), data,
                                   cfgmod.resolve_priors(raw))
        calls = []

        def counted(z):
            calls.append(1)
            return target.logp_and_grad(z)

        cfg = cfgmod.resolve_sampler(raw, threads=1)
        sample(dataclasses.replace(target, logp_and_grad=counted), cfg)
        sampler = _json(fitted["fit"] + "/summary.json")["sampler"]
        assert len(sampler["grad_calls"]) == cfg.chains
        assert sum(sampler["grad_calls"]) == len(calls)
        iters = cfg.chains * (cfg.warmup_iters + cfg.sampling_iters)
        assert sampler["grad_calls_per_iter"] == len(calls) / iters


    def test_chain_counters_in_summary_only(self, fitted):
        summary = _json(fitted["fit"] + "/summary.json")
        fit = _json(fitted["fit"] + "/fit.json")
        chains = summary["chains"]
        assert len(chains) == summary["sampler"]["chains"]
        for c in chains:
            assert set(c) == {"warmup_divergences", "warmup_s", "sampling_s"}
            assert 0 <= c["warmup_divergences"] <= summary["sampler"]["warmup"]
            assert c["warmup_s"] > 0 and c["sampling_s"] > 0
        assert "chains" not in fit
        assert fit["sampler"] == summary["sampler"]


class TestThreads:
    def test_parallel_chains_match_sequential(self, fitted, tmp_path):
        f1, f2 = str(tmp_path / "t1"), str(tmp_path / "t2")
        assert main(["fit", "--data", fitted["data"], "--config",
                     fitted["cfg"], "--out", f1, "--seed", "3",
                     "--threads", "2"]) == 0
        assert main(["fit", "--data", fitted["data"], "--config",
                     fitted["cfg"], "--out", f2, "--seed", "3",
                     "--threads", "1"]) == 0
        assert _read(f1 + "/draws.csv") == _read(f2 + "/draws.csv")

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, fitted, tmp_path, capsys,
                                      threads):
        args = ["fit", "--data", fitted["data"], "--config", fitted["cfg"],
                "--out", str(tmp_path / "fit")]
        assert main(args + ["--threads", threads]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_named_by_source(self, fitted, tmp_path,
                                               capsys, threads):
        # the flag that set the count, not the sampler section of the
        # config, which has no threads key
        args = ["fit", "--data", fitted["data"], "--config", fitted["cfg"],
                "--out", str(tmp_path / "fit")]
        assert main(args + ["--threads", threads]) == 2
        err = capsys.readouterr().err
        assert f"error: --threads: threads must be >= 1, got {threads}" in err
        assert "sampler" not in err


class TestTimeVaryingPipeline:
    def test_surface_and_slice(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model.covariates": ["x2"],
            "model.effect": {"kind": "constant", "time_varying": True},
            "truth.beta": {"onset": -0.7, "x2": 0.2},
            "simulate.covariates": {"x2": {"dist": "normal", "mean": 0.0,
                                           "sd": 1.0}},
            "simulate.onset": {"dist": "exponential", "rate": 0.4,
                               "never_prob": 0.3},
            "simulate.n": 100,
            "sampler.warmup": 200, "sampler.iters": 200,
        })
        data = str(tmp_path / "tv.csv")
        assert main(["simulate", "--config", cfg, "--out", data]) == 0
        assert "tx_time" in _read(data).splitlines()[0].split(",")
        fit_dir = str(tmp_path / "tvfit")
        assert main(["fit", "--data", data, "--config", cfg,
                     "--out", fit_dir]) == 0

        surf = str(tmp_path / "surf.csv")
        assert main(["surface", "--fit", fit_dir, "--out", surf,
                     "--onset-grid", "1.0:3.0:2", "--p-grid", "0.3:0.7:3",
                     "--thin", "20"]) == 0
        af = str(tmp_path / "af_tv.csv")
        assert main(["af", "--fit", fit_dir, "--out", af, "--exposed", "1.0",
                     "--p-grid", "0.3:0.7:3", "--thin", "20"]) == 0
        surface = CurveTable.from_csv(surf)
        slice1 = surface.rows_for("tx=1")
        direct = CurveTable.from_csv(af)
        np.testing.assert_array_equal(slice1.mean, direct.mean)
        np.testing.assert_array_equal(slice1.lo95, direct.lo95)


    def test_surface_thin_below_one_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model.covariates": ["x2"],
            "model.effect": {"kind": "constant", "time_varying": True},
            "truth.beta": {"onset": -0.7, "x2": 0.2},
            "simulate.covariates": {"x2": {"dist": "normal", "mean": 0.0,
                                           "sd": 1.0}},
            "simulate.onset": {"dist": "exponential", "rate": 0.4,
                               "never_prob": 0.3},
            "simulate.n": 40,
            "sampler.warmup": 20, "sampler.iters": 10,
        })
        data = str(tmp_path / "tv.csv")
        assert main(["simulate", "--config", cfg, "--out", data]) == 0
        fit_dir = str(tmp_path / "tvfit")
        assert main(["fit", "--data", data, "--config", cfg,
                     "--out", fit_dir]) == 0
        assert main(["surface", "--fit", fit_dir, "--out",
                     str(tmp_path / "surf.csv"), "--thin", "0"]) == 2
        assert "thinning factor must be >= 1" in capsys.readouterr().err


@pytest.fixture(scope="module")
def x1_effect(tmp_path_factory):
    """Data whose whole effect is on x1 (beta 0.8, against 0 on x2), n = 300,
    and a config for one short chain with the covariates given by name."""
    tmp = tmp_path_factory.mktemp("by_name")
    cfg = write_config(tmp, {"truth.beta": {"x1": 0.8, "x2": 0.0},
                             "simulate.n": 300, "simulate.seed": 1})
    data = str(tmp / "data.csv")
    assert main(["simulate", "--config", cfg, "--out", data]) == 0
    return {"tmp": tmp, "data": data}


def _fit_by_name(x1_effect, covariates, name):
    cfg = write_config(x1_effect["tmp"], {
        "model.covariates": covariates, "model.effect": {"kind": "constant"},
        "sampler.chains": 1, "sampler.warmup": 150, "sampler.iters": 150,
        "sampler.seed": 1}, name=f"{name}.yaml")
    fit_dir = str(x1_effect["tmp"] / name)
    rc = main(["fit", "--data", x1_effect["data"], "--config", cfg,
               "--out", fit_dir])
    return rc, fit_dir


@pytest.fixture(scope="module")
def subset_fit(x1_effect):
    """A one-covariate constant-effect fit of the two-covariate file."""
    rc, fit_dir = _fit_by_name(x1_effect, ["x1"], "subset")
    assert rc == 0
    return fit_dir


class TestCovariatesByName:
    """A config may list any of the file's covariates in any order; each
    coefficient is fitted to the column of its own name."""

    def test_reversed_order_keeps_each_effect_on_its_name(self, x1_effect):
        rc, fit_dir = _fit_by_name(x1_effect, ["x2", "x1"], "reversed")
        assert rc == 0
        params = _json(fit_dir + "/summary.json")["params"]
        assert params["beta_x1"]["median"] > 0.5
        assert abs(params["beta_x2"]["median"]) < 0.3

    def test_subset_fits_and_contrasts_its_only_covariate(self, subset_fit,
                                                          tmp_path):
        """The subset fit's standardize and af default to its only
        covariate, as af --analytic does, and give what --covariate x1
        gives."""
        assert list(_json(subset_fit + "/summary.json")["params"]) == [
            "beta_x1", "mu", "sigma"]
        for command in ("standardize", "af"):
            outs = [str(tmp_path / f"{command}{k}.csv") for k in "ab"]
            assert main([command, "--fit", subset_fit, "--out", outs[0],
                         "--thin", "30"]) == 0
            assert main([command, "--fit", subset_fit, "--out", outs[1],
                         "--thin", "30", "--covariate", "x1"]) == 0
            assert _read(outs[0]) == _read(outs[1])

    def test_column_the_file_lacks_exit_2(self, x1_effect, capsys):
        rc, _ = _fit_by_name(x1_effect, ["x1", "age"], "missing")
        assert rc == 2
        assert "'age' not found in the data file" in capsys.readouterr().err

    def test_fit_data_without_the_column_exit_2(self, subset_fit, tmp_path,
                                                capsys):
        """A post-fit command whose data lack a model covariate names it."""
        import shutil

        from qvaft.data import Dataset, write_csv

        clone = tmp_path / "fit_no_x1"
        shutil.copytree(subset_fit, clone)
        d = read_csv(clone / "data.csv")
        write_csv(Dataset(d.y_lower, d.y_upper, d.event, d.trunc, d.x[:, 1:],
                          d.onset, ("x2",)), clone / "data.csv")
        assert main(["af", "--fit", str(clone), "--out",
                     str(tmp_path / "af.csv")]) == 2
        assert "covariate 'x1' is not a column" in capsys.readouterr().err


class TestReadmeExample:
    def test_configuration_block_runs(self, tmp_path):
        """The README's configuration example, at a small n and sampler
        size: simulate, fit and af run on it as written."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1]
        cfg = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```")[0])
        cfg["simulate"]["n"] = 80
        cfg["sampler"].update(chains=1, warmup=100, iters=100)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        data, fit_dir = str(tmp_path / "data.csv"), str(tmp_path / "fit")
        assert main(["simulate", "--config", str(path), "--out", data]) == 0
        assert main(["fit", "--data", data, "--config", str(path),
                     "--out", fit_dir]) == 0
        assert main(["af", "--fit", fit_dir, "--out",
                     str(tmp_path / "af.csv"), "--thin", "20"]) == 0


class TestRoundTripBudget:
    def test_pipeline_under_ci_budget(self, tmp_path):
        """simulate -> fit -> summarize at n=200, 2 x (500 + 500)."""
        cfg = write_config(tmp_path, {"simulate.n": 200,
                                      "sampler.warmup": 500,
                                      "sampler.iters": 500})
        start = time.time()
        data = str(tmp_path / "d.csv")
        assert main(["simulate", "--config", cfg, "--out", data]) == 0
        fit_dir = str(tmp_path / "f")
        assert main(["fit", "--data", data, "--config", cfg,
                     "--out", fit_dir]) == 0
        summary = _json(fit_dir + "/summary.json")
        assert all(math.isfinite(v["median"])
                   for v in summary["params"].values())
        assert time.time() - start < 300.0


@pytest.mark.slow
class TestCalibrationSmoke:
    def test_alpha_intervals_cover_zero_under_constant_truth(self, tmp_path):
        """Data generated with a constant effect, fitted with a flexible
        one: the alpha intervals should usually cover zero."""
        good = 0
        for rep in range(10):
            sim_cfg = write_config(tmp_path, {
                "simulate.n": 150,
                "simulate.seed": 1000 + rep,
            }, name=f"sim{rep}.yaml")
            fit_cfg = write_config(tmp_path, {
                "model.effect.kind": "piecewise",
                "model.effect.knot_rule": "even:4",
                "sampler.warmup": 300, "sampler.iters": 400,
                "sampler.seed": rep,
            }, name=f"cfg{rep}.yaml")
            data = str(tmp_path / f"d{rep}.csv")
            assert main(["simulate", "--config", sim_cfg, "--out", data]) == 0
            fit_dir = str(tmp_path / f"f{rep}")
            assert main(["fit", "--data", data, "--config", fit_cfg,
                         "--out", fit_dir]) == 0
            params = _json(fit_dir + "/summary.json")["params"]
            cover = sum(
                params[f"alpha_{j}"]["lo95"] <= 0.0 <= params[f"alpha_{j}"]["hi95"]
                for j in range(1, 5))
            good += cover >= 3
        assert good >= 9
