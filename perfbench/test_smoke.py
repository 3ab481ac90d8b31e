"""Toy-size runs of the benchmark itself: every workload completes with its
checks passing and reports exactly the metrics BENCHMARK.json names, and a
directory without the qvaft source is refused. The reference comparison
fails on a non-finite value.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from pipeline import REFERENCE_FILE, compare_reference  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_untraced(workload):
    proc = run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced():
    proc = run(ROOT, "tv_switch", 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "traced_draws_equal_untraced: ok" in proc.stdout
    assert "sampler.parallel_speedup" in proc.stdout


def test_refuses_directory_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "weibull_pw", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("side", ["got", "ref"])
@pytest.mark.parametrize("key", ["af_median", "elpd"])
def test_reference_comparison_fails_on_nan(side, key):
    with open(REFERENCE_FILE) as fh:
        ref = json.load(fh)
    assert compare_reference(ref, ref)["ok"]
    bad = dict(ref)
    bad[key] = (float("nan") if key == "elpd"
                else [float("nan")] + ref[key][1:])
    got, want = (bad, ref) if side == "got" else (ref, bad)
    assert not compare_reference(got, want)["ok"]
