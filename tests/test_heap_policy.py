"""Where the allocator policy is set: `likelihood.heap_policy` raises
glibc's mmap and trim thresholds once per process, from the public
post-processing functions only. Importing qvaft, `qvaft simulate` and
`qvaft fit` never call it, only the first call in a process reaches
mallopt, and without mallopt it does nothing. Each check runs in a fresh
interpreter whose `ctypes.CDLL` is replaced by a recorder, since the
test process has long set the policy itself."""

import numpy as np
import pytest
import yaml

from qvaft.cli import main
from qvaft.modelcheck import PointwiseLogLik, psis_loo
from test_imports import WEIBULL_CONFIG, fresh

RECORDER = """
    import ctypes, json, sys
    calls = []

    def mallopt(param, value):
        calls.append([param, value])
        return 1

    class Lib:
        def __init__(self, *args, **kwargs):
            self.mallopt = mallopt

    ctypes.CDLL = lambda *args, **kwargs: Lib()

    def policy_calls():
        mod = sys.modules.get("qvaft.likelihood")
        return (None if mod is None
                else mod.heap_policy.cache_info().hits
                + mod.heap_policy.cache_info().misses)
"""

POLICY = [[-1, 256 << 20], [-3, 256 << 20]]  # M_TRIM_, M_MMAP_THRESHOLD


@pytest.fixture(scope="module")
def weibull_fit(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("heap")
    cfg = tmp / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(WEIBULL_CONFIG))
    data, fit = str(tmp / "data.csv"), str(tmp / "fit")
    assert main(["simulate", "--config", str(cfg), "--out", data]) == 0
    assert main(["fit", "--data", data, "--config", str(cfg),
                 "--out", fit]) == 0
    return {"cfg": str(cfg), "data": data, "fit": fit, "tmp": tmp}


def test_import_simulate_and_fit_leave_the_allocator_alone(weibull_fit):
    tmp = weibull_fit["tmp"]
    got = fresh(RECORDER + f"""
    import qvaft
    import qvaft.cli
    seen = [policy_calls()]
    from qvaft.cli import main
    codes = [main(["simulate", "--config", {weibull_fit["cfg"]!r},
                   "--out", {str(tmp / "sim.csv")!r}]),
             main(["fit", "--data", {weibull_fit["data"]!r},
                   "--config", {weibull_fit["cfg"]!r},
                   "--out", {str(tmp / "refit")!r}])]
    seen.append(policy_calls())
    print(json.dumps({{"codes": codes, "seen": seen, "calls": calls}}))
    """)
    assert got["codes"] == [0, 0]
    assert got["seen"] == [None, 0]  # fit loads likelihood, never calls it
    assert got["calls"] == []


def test_each_post_processing_function_sets_it_once(weibull_fit):
    """Each public function reaches mallopt when the policy is not yet set
    in the process (the cache is cleared before it), and a second call
    of any of them does not."""
    got = fresh(RECORDER + f"""
    from qvaft.data import read_csv
    from qvaft.draws import draws_from_npz
    from qvaft.inference import (standardized_af,
                                 standardized_survivor_curves)
    from qvaft.likelihood import heap_policy, pointwise_loglik_matrix
    from qvaft.model import model_from_jsonable
    from qvaft.modelcheck import PointwiseLogLik, psis_loo
    meta = json.load(open({weibull_fit["fit"] + "/fit.json"!r}))
    model = model_from_jsonable(meta["model"])
    draws = draws_from_npz({weibull_fit["fit"] + "/draws.npz"!r}, model)
    data = read_csv({weibull_fit["data"]!r})
    ll = pointwise_loglik_matrix(model, draws.constrained, data)
    run = {{
        "standardized_survivor_curves": lambda: standardized_survivor_curves(
            model, draws.thin_by(10), data),
        "standardized_af": lambda: standardized_af(model, draws.thin_by(10),
                                                   data),
        "pointwise_loglik_matrix": lambda: pointwise_loglik_matrix(
            model, draws.constrained[:3], data),
        "psis_loo": lambda: psis_loo(PointwiseLogLik(ll)),
    }}
    first = {{}}
    for name, fn in run.items():
        heap_policy.cache_clear()
        before = len(calls)
        fn()
        first[name] = calls[before:]
    before = len(calls)
    for fn in run.values():
        fn()
    print(json.dumps({{"first": first, "again": calls[before:]}}))
    """)
    assert got["first"] == dict.fromkeys(got["first"], POLICY)
    assert len(got["first"]) == 4
    assert got["again"] == []


def test_surface_sets_it():
    got = fresh(RECORDER + """
    import numpy as np
    from qvaft.baseline import BaselineSpec
    from qvaft.covproc import EffectSpec
    from qvaft.data import Dataset
    from qvaft.draws import PosteriorDraws
    from qvaft.inference import af_surface
    from qvaft.model import ModelSpec

    model = ModelSpec(BaselineSpec("weibull"), EffectSpec("constant", ()),
                      ("x2",), None, True)
    t = np.array([0.5, 1.5, 2.5])
    data = Dataset(t, t, np.ones(3), np.zeros(3), [[0.0], [1.0], [0.5]],
                   np.array([1.0, np.inf, 0.4]), ("x2",))
    row = np.array([[-0.5, 0.2, 0.4, 1.1]])
    draws = PosteriorDraws(row, row, model.param_names, np.zeros(1),
                           np.ones(1), np.zeros(1, dtype=bool), np.zeros(1),
                           np.ones(1), 1, model)
    af_surface(model, draws, data, [1.0, 2.0], [0.3, 0.6], thin=1)
    print(json.dumps({"calls": calls}))
    """)
    assert got["calls"] == POLICY


@pytest.mark.parametrize("lookup", ["no_symbol", "no_library"])
def test_no_op_without_mallopt(lookup):
    """A C library without mallopt (AttributeError), or none to load
    (OSError): the helper returns, and the functions run as before."""
    got = fresh(f"""
    import ctypes, json
    import numpy as np
    from qvaft.likelihood import heap_policy
    from qvaft.modelcheck import PointwiseLogLik, psis_loo

    def lookup(*args, **kwargs):
        if {lookup!r} == "no_library":
            raise OSError("no C library")
        return object()

    ctypes.CDLL = lookup
    heap_policy()
    values = np.random.default_rng(1).normal(-2.0, 0.5, size=(100, 5))
    res = psis_loo(PointwiseLogLik(values))
    print(json.dumps({{"elpd": res.elpd,
                      "set": heap_policy.cache_info().currsize}}))
    """)
    values = np.random.default_rng(1).normal(-2.0, 0.5, size=(100, 5))
    assert got["set"] == 1
    assert got["elpd"] == psis_loo(PointwiseLogLik(values)).elpd
