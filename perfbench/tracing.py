"""In-memory spans recorded around calls into qvaft, and the frozen MCMC
efficiency estimators the layer report uses.

A span is [name, start, end, parent index]; the layer is the part of the
name before the first dot. Spans are kept in memory and written out once,
after the traced run.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span named `name`."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans if s[0] == name])

    def total(self, name: str) -> float:
        return float(self.durations(name).sum())

    def inside(self, name: str, ancestor: str) -> np.ndarray:
        """Durations of spans `name` that have a span `ancestor` above them."""
        out = []
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if p >= 0:
                out.append(s[2] - s[1])
        return np.array(out)

    def self_times(self) -> dict:
        """Seconds of self time per layer: each span's duration minus the
        part its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict = {}
        for s, c in zip(self.spans, child):
            layer = s[0].split(".")[0]
            out[layer] = out.get(layer, 0.0) + (s[2] - s[1]) - c
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# -- frozen efficiency estimators ------------------------------------------
# Kept here, not taken from qvaft.sampler, so that a new estimator in the
# package does not redefine the benchmark's ess_per_grad and max_rhat.

def _split(chains: np.ndarray) -> np.ndarray:
    half = chains.shape[1] // 2
    return np.vstack([chains[:, :half], chains[:, chains.shape[1] - half:]])


def split_rhat(chains: np.ndarray) -> float:
    """Classic split-chain R-hat of a (chains, draws) array."""
    s = _split(chains)
    n = s.shape[1]
    w = s.var(axis=1, ddof=1).mean()
    if w == 0.0:
        return math.nan
    b = n * np.var(s.mean(axis=1), ddof=1)
    return float(math.sqrt(((n - 1) / n * w + b / n) / w))


def ess(chains: np.ndarray) -> float:
    """Split-chain ESS with Geyer's initial monotone sequence."""
    s = _split(chains)
    m, n = s.shape
    xc = s - s.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, size, axis=1)
    acov = np.fft.irfft(f * np.conjugate(f), size, axis=1)[:, :n] / n
    w = (acov[:, 0] * n / (n - 1.0)).mean()
    var_plus = w * (n - 1.0) / n + np.var(s.mean(axis=1), ddof=1)
    if var_plus == 0.0:
        return 0.0
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    tau, prev, t = 0.0, math.inf, 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        pair = min(pair, prev)
        tau += pair
        prev = pair
        t += 2
    return float(m * n / max(2.0 * tau - 1.0, 1e-12))
