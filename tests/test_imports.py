"""What a cold start loads: `import qvaft.cli` and the post-fit commands on
a Weibull model never import scipy, yaml or concurrent.futures, and the
lazy scipy imports of the log-normal baseline and the TBP theta gradient
still load when those run. Each check runs in a fresh interpreter, since
the test process has long imported everything."""

import json
import os
import subprocess
import sys
import textwrap

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
    print(json.dumps({{"code": code, "loaded": loaded()}}))
    """)
    assert got["code"] == 0
    assert got["loaded"] == []


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
    from qvaft.data import Dataset, SubjectRecord
    from qvaft.likelihood import PriorSpec, make_posterior
    from qvaft.model import ModelSpec

    model = ModelSpec(BaselineSpec("tbp", "weibull", 3),
                      EffectSpec("constant", ()), ("x1",), None, False)
    recs = [SubjectRecord(t, t, 1, 0.0, (x,), np.inf)
            for t, x in ((0.4, 0.0), (1.1, 1.0), (2.5, 0.0), (0.9, 1.0))]
    data = Dataset.from_records(recs, ("x1",))
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
