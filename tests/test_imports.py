"""What a cold start loads: `import qvaft` loads no submodule, each post-fit
command loads exactly the qvaft modules it calls, `import qvaft.cli` and
the post-fit commands on a Weibull model never import scipy, yaml or
concurrent.futures, the post-fit commands and the fit's summary never
import numpy.ma (which `np.percentile` loads), and the lazy scipy imports
of the log-normal baseline and the TBP theta gradient still load when
those run. Each check runs in a fresh interpreter, since the test process
has long imported everything. The package's public names are pinned, so
that a new export is made on purpose."""

import json
import os
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest
import yaml

import qvaft
from qvaft.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qvaft.__file__)))
DEFERRED = ("scipy", "yaml", "concurrent.futures")

WEIBULL_CONFIG = {
    "model": {
        "baseline": {"family": "weibull"},
        "effect": {"kind": "piecewise", "knots": [0.0, 2.0],
                   "flexible_covariate": "x1"},
        "covariates": ["x1"],
    },
    "sampler": {"chains": 2, "warmup": 100, "iters": 50, "seed": 3},
    "truth": {"beta": {"x1": 0.5}, "alpha": [0.3], "mu": 1.0,
              "sigma": 1.2},
    "simulate": {
        "n": 40,
        "covariates": {"x1": {"dist": "bernoulli", "p": 0.5}},
        "censoring": {"admin_time": 8.0},
        "seed": 4,
    },
}


def fresh(code: str) -> dict:
    """Run `code` in a new interpreter that imports qvaft from this
    checkout; it ends by printing one JSON object, which is returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


LOADED = """
    import json, sys
    def loaded():
        return sorted(m for m in sys.modules
                      if m in {deferred} or m.startswith("scipy."))
""".format(deferred=set(DEFERRED))


def test_cli_import_defers_scipy_yaml_and_futures():
    got = fresh(LOADED + """
    import qvaft.cli
    print(json.dumps({"loaded": loaded()}))
    """)
    assert got["loaded"] == []


@pytest.fixture(scope="module")
def weibull_fit(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("weibull")
    cfg = tmp / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(WEIBULL_CONFIG))
    data, fit = str(tmp / "data.csv"), str(tmp / "fit")
    assert main(["simulate", "--config", str(cfg), "--out", data]) == 0
    assert main(["fit", "--data", data, "--config", str(cfg),
                 "--out", fit]) == 0
    return {"data": data, "fit": fit, "tmp": tmp}


@pytest.mark.parametrize("command", ["loo", "af", "standardize"])
def test_post_fit_commands_load_no_scipy(weibull_fit, command):
    out = str(weibull_fit["tmp"] / command)
    argv = {"loo": ["loo", "--fit", weibull_fit["fit"],
                    "--data", weibull_fit["data"], "--out", out],
            "af": ["af", "--fit", weibull_fit["fit"], "--out", out + ".csv",
                   "--thin", "5"],
            "standardize": ["standardize", "--fit", weibull_fit["fit"],
                            "--out", out + ".csv", "--thin", "5"]}[command]
    got = fresh(LOADED + f"""
    from qvaft.cli import main
    code = main({argv!r})
    print(json.dumps({{"code": code, "loaded": loaded(),
                      "ma": "numpy.ma" in sys.modules}}))
    """)
    assert got["code"] == 0
    assert got["loaded"] == []
    assert not got["ma"]


def test_import_qvaft_loads_no_submodule():
    got = fresh("""
    import json, sys
    import qvaft
    print(json.dumps({"loaded": [m for m in sys.modules
                                 if m.startswith("qvaft.")]}))
    """)
    assert got["loaded"] == []


# what every post-fit command loads: reading the fit and the kernel
POST_FIT = {"cli", "data", "errors", "model", "baseline", "roots", "covproc",
            "likelihood", "draws"}


@pytest.mark.parametrize("command, own, hashes", [
    ("af", "inference", False),
    ("standardize", "inference", False),
    ("loo", "modelcheck", True),
])
def test_post_fit_commands_load_only_what_they_call(weibull_fit, command,
                                                    own, hashes):
    """Exactly these qvaft modules, so that a new eager import fails here;
    only loo hashes the data, so only loo loads hashlib."""
    out = str(weibull_fit["tmp"] / ("mods_" + command))
    argv = [command, "--fit", weibull_fit["fit"]] + (
        ["--data", weibull_fit["data"], "--out", out] if command == "loo"
        else ["--out", out + ".csv", "--thin", "5"])
    got = fresh(f"""
    import json, sys
    from qvaft.cli import main
    code = main({argv!r})
    print(json.dumps({{"code": code, "hashlib": "hashlib" in sys.modules,
                      "loaded": [m[len("qvaft."):] for m in sys.modules
                                 if m.startswith("qvaft.")]}}))
    """)
    assert got["code"] == 0
    assert set(got["loaded"]) == POST_FIT | {own}
    assert got["hashlib"] is hashes


def test_fit_summary_loads_no_numpy_ma(weibull_fit):
    """The summary's medians and 95% bounds come from one sort, not
    np.percentile; the values are checked against it in test_inference."""
    got = fresh(f"""
    import json, sys
    import numpy as np
    from qvaft.cli import _summarize
    from qvaft.sampler import draws_from_npz
    from qvaft.model import model_from_jsonable
    meta = json.load(open({weibull_fit["fit"] + "/fit.json"!r}))
    model = model_from_jsonable(meta["model"])
    draws = draws_from_npz({weibull_fit["fit"] + "/draws.npz"!r}, model)
    summary = _summarize(model, draws)
    print(json.dumps({{"ma": "numpy.ma" in sys.modules,
                      "summary": summary}}))
    """)
    assert not got["ma"]
    with open(os.path.join(weibull_fit["fit"], "summary.json")) as fh:
        assert got["summary"] == json.load(fh)["params"]


def test_lognormal_baseline_loads_scipy_on_first_use():
    got = fresh(LOADED + """
    import math
    import numpy as np
    from qvaft.baseline import BaselineSpec, log_terms
    before = loaded()
    u = np.array([0.3, 1.0, 4.0])
    t = log_terms(BaselineSpec("lognormal"), 0.2, 0.7, None, u, grad=True)
    want = [math.log(0.5 * math.erfc((math.log(x) - 0.2) / 0.7 / math.sqrt(2)))
            for x in u]
    print(json.dumps({"before": before, "after": loaded(),
                      "val": t.val.tolist(), "want": want,
                      "d_du": t.d_du.tolist()}))
    """)
    assert got["before"] == []
    assert "scipy.special" in got["after"]
    np.testing.assert_allclose(got["val"], got["want"], rtol=1e-14)
    assert np.all(np.isfinite(got["d_du"]))


def test_tbp_gradient_loads_scipy_on_first_use():
    """The theta gradient from a fresh interpreter equals the one computed
    here, where scipy was loaded long ago."""
    code = """
    import numpy as np
    from qvaft.baseline import BaselineSpec
    from qvaft.covproc import EffectSpec
    from qvaft.data import Dataset
    from qvaft.likelihood import PriorSpec, make_posterior
    from qvaft.model import ModelSpec

    model = ModelSpec(BaselineSpec("tbp", "weibull", 3),
                      EffectSpec("constant", ()), ("x1",), None, False)
    t = np.array([0.4, 1.1, 2.5, 0.9])
    data = Dataset(t, t, np.ones(4), np.zeros(4), [[0.0], [1.0], [0.0], [1.0]],
                   np.full(4, np.inf), ("x1",))
    z = np.array([0.3, 0.1, -0.2, 0.4, -0.3, 0.5])
    logp, grad = make_posterior(model, data, PriorSpec(1.0, 1.0, 1.0, 1.0))[0](z)
    """
    got = fresh(LOADED + code + """
    print(json.dumps({"logp": logp, "grad": grad.tolist(),
                      "loaded": loaded()}))
    """)
    scope = {}
    exec(textwrap.dedent(code), scope)
    assert "scipy.special" in got["loaded"]
    assert got["logp"] == scope["logp"]
    assert got["grad"] == scope["grad"].tolist()
    assert np.all(np.isfinite(got["grad"]))


PUBLIC = [
    "BaselineParams", "BaselineSpec", "CensoringSpec", "ContrastSpec",
    "CovariateSpec", "CurveTable", "Dataset", "EffectSpec", "LooResult",
    "ModelSpec", "OnsetSpec", "ParameterVector", "PointwiseLogLik",
    "PosteriorDraws", "PriorSpec", "SamplerConfig", "SimConfig",
    "TBPWeights", "TimeVaryingCovariate", "TruncationSpec",
    "acceleration_factor", "af_surface", "constrain", "default_quantile_grid",
    "density", "ess", "exact_loo", "grad_log_posterior", "inverse_survivor",
    "log_density", "log_posterior_unconstrained", "log_survivor",
    "pointwise_loglik", "psis_loo", "quantile_time", "read_csv", "rhat",
    "run_chains", "simulate_dataset", "standardized_af",
    "standardized_survivor_curves", "survivor", "tv_acceleration_factor",
    "tv_v_inverse", "unconstrain", "v_inverse", "v_value", "write_csv",
]


def test_public_surface_is_pinned():
    """`qvaft` exports exactly these names (its submodules aside), and each
    is in the `__all__` of the module that defines it."""
    names = sorted(name for name in dir(qvaft)
                   if not name.startswith("_")
                   and not isinstance(getattr(qvaft, name), types.ModuleType))
    assert names == PUBLIC
    assert sorted(qvaft.__all__) == PUBLIC
    for name in names:
        module = sys.modules[getattr(qvaft, name).__module__]
        assert name in module.__all__, (name, module.__name__)
