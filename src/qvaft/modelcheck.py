"""Out-of-sample predictive fit via Pareto-smoothed importance sampling
leave-one-out cross-validation, with an exact-refit variant as validation
oracle for small n.

For subject i the leave-one-out importance ratio of draw m is
1 / p(y_i | psi_m). The largest ceil(min(0.2 M, 3 sqrt(M))) ratios are
replaced by expected order statistics of a generalized Pareto distribution
fitted to the exceedances over the tail cutoff (Zhang--Stephens posterior
estimate of the shape, with the usual weak prior pulling khat toward 0.5),
capped at the raw maximum. Then

    elpd_i = log( sum_m w_m p(y_i | psi_m) / sum_m w_m ),

elpd = sum_i elpd_i, and se = sqrt(n * var(elpd_i)). Subjects with
khat > 0.7 are reported in `warnings` but not refit automatically;
`exact_loo` refits the model n times for a brute-force reference. Both
sum in log space with one max-shifted log-sum-exp (`_logsumexp`), so this
module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import as_dataset, atomic_write_text
from .errors import ComparisonError, DomainError, NumericalError
from .likelihood import PriorSpec, pointwise_loglik_vector, psi_from_constrained, prepare
from .model import ModelSpec
from .sampler import PosteriorDraws, SamplerConfig, run_chains

__all__ = [
    "PointwiseLogLik",
    "LooResult",
    "LooComparison",
    "pointwise_loglik",
    "psis_loo",
    "compare",
    "exact_loo",
    "exact_loo_subject",
    "write_loo_report",
    "read_loo_report",
    "write_loo_pointwise",
]

KHAT_WARN = 0.7


@dataclass
class PointwiseLogLik:
    """(M draws x n subjects) matrix of per-subject log-likelihoods."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DomainError("pointwise log-lik must be a (draws, subjects) matrix")
        if not np.all(np.isfinite(v)):
            m, i = map(int, np.argwhere(~np.isfinite(v))[0])
            raise NumericalError(
                f"non-finite pointwise log-likelihood at draw {m}, subject {i}",
                draw=m, subject=i)
        object.__setattr__(self, "values", v)

    @property
    def M(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass
class LooResult:
    elpd: float
    elpd_se: float
    minus2elpd: float
    khat: np.ndarray
    warnings: list
    pointwise: np.ndarray = field(repr=False)
    n: int = 0
    M: int = 0


def pointwise_loglik(model: ModelSpec, draws: PosteriorDraws,
                     data) -> PointwiseLogLik:
    """Evaluate loglik_subject for every (draw, subject) pair."""
    data = as_dataset(data)
    prep = prepare(model, data)
    out = np.empty((draws.M, data.n))
    for m, row in enumerate(draws.constrained):
        psi = psi_from_constrained(model, row)
        out[m] = pointwise_loglik_vector(model, psi, prep)
    return PointwiseLogLik(out)


def _logsumexp(a) -> float:
    """log sum exp(a), shifted by the largest entry. All -inf gives -inf,
    any +inf gives +inf and a NaN gives NaN, with no warning."""
    a = np.asarray(a, dtype=float)
    m = a.max()
    if not math.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(a - m).sum()))


# -- generalized Pareto fit (Zhang & Stephens 2009 posterior estimate) --------

def _gpd_fit(x: np.ndarray) -> tuple[float, float]:
    """Fit exceedances x > 0; returns (khat, sigma)."""
    y = np.sort(x)
    n = len(y)
    m = 30 + int(math.sqrt(n))
    b = 1.0 - np.sqrt(m / (np.arange(m, dtype=float) + 0.5))
    b = b / (3.0 * y[(n - 2) // 4]) + 1.0 / y[-1]
    k = np.log1p(-b[:, None] * y).mean(axis=1)
    profile = n * (np.log(-(b / k)) - k - 1.0)
    weights = 1.0 / np.exp(profile - profile[:, None]).sum(axis=1)
    b_post = float(np.sum(b * weights) / weights.sum())
    k_post = float(np.log1p(-b_post * y).mean())
    sigma = -k_post / b_post
    khat = (n * k_post + 10 * 0.5) / (n + 10)  # weak prior toward 0.5
    return khat, sigma


def _gpd_quantile(q: np.ndarray, k: float, sigma: float) -> np.ndarray:
    if abs(k) < 1e-12:
        return -sigma * np.log1p(-q)
    return sigma / k * ((1.0 - q) ** (-k) - 1.0)


def _smooth_tail(log_ratios: np.ndarray, notes: list, subject: int):
    """Pareto-smooth one subject's log importance ratios in place-ish;
    returns (smoothed log ratios, khat)."""
    M = len(log_ratios)
    tail_len = int(math.ceil(min(0.2 * M, 3.0 * math.sqrt(M))))
    if tail_len < 5:
        notes.append(f"subject {subject}: tail too short to smooth")
        return log_ratios, math.nan
    order = np.argsort(log_ratios)
    tail_idx = order[-tail_len:]
    cutoff = math.exp(log_ratios[order[-tail_len - 1]])
    raw_tail = np.exp(log_ratios[tail_idx])
    exceed = raw_tail - cutoff
    if np.ptp(exceed) <= 0.0 or np.all(exceed <= 0.0):
        notes.append(f"subject {subject}: degenerate tail ratios, "
                     "smoothing skipped")
        return log_ratios, math.nan
    khat, sigma = _gpd_fit(exceed)
    ranks = np.argsort(np.argsort(raw_tail))
    q = (ranks + 0.5) / tail_len
    smoothed = cutoff + _gpd_quantile(q, khat, sigma)
    smoothed = np.minimum(smoothed, raw_tail.max())
    out = log_ratios.copy()
    out[tail_idx] = np.log(smoothed)
    return out, khat


def psis_loo(ll: PointwiseLogLik) -> LooResult:
    """Estimate the expected log pointwise predictive density from a single
    fit's pointwise log-likelihood matrix."""
    if ll.M < 100:
        raise DomainError(f"psis_loo needs at least 100 draws, got {ll.M}")
    M, n = ll.M, ll.n
    pointwise = np.empty(n)
    khat = np.empty(n)
    warnings: list = []
    for i in range(n):
        lli = ll.values[:, i]
        lr = -lli
        lr = lr - lr.max()
        lw, k = _smooth_tail(lr, warnings, i)
        pointwise[i] = _logsumexp(lw + lli) - _logsumexp(lw)
        khat[i] = k
    high = np.where(khat > KHAT_WARN)[0]
    if high.size:
        warnings.append(
            f"{high.size} subject(s) with khat > {KHAT_WARN}: "
            + ",".join(map(str, high.tolist())))
    elpd = float(pointwise.sum())
    se = float(math.sqrt(n * np.var(pointwise, ddof=1))) if n > 1 else 0.0
    return LooResult(elpd, se, -2.0 * elpd, khat, warnings, pointwise, n, M)


@dataclass
class LooComparison:
    """Models ranked by elpd (best first) with differences to the best."""

    order: list
    elpd: np.ndarray
    elpd_diff: np.ndarray
    se_diff: np.ndarray


def compare(results) -> LooComparison:
    results = list(results)
    if not results:
        raise ComparisonError("nothing to compare")
    n = results[0].n
    for r in results:
        if r.n != n:
            raise ComparisonError(
                f"pointwise lengths differ ({r.n} vs {n}); results were "
                "computed on different datasets")
    order = sorted(range(len(results)), key=lambda i: -results[i].elpd)
    best = results[order[0]]
    elpd = np.array([results[i].elpd for i in order])
    diffs = np.empty(len(results))
    ses = np.empty(len(results))
    for rank, i in enumerate(order):
        d = results[i].pointwise - best.pointwise
        diffs[rank] = float(d.sum())
        ses[rank] = float(math.sqrt(n * np.var(d, ddof=1))) if n > 1 else 0.0
    return LooComparison(order, elpd, diffs, ses)


# -- exact refit oracle --------------------------------------------------------

def exact_loo_subject(model: ModelSpec, data, priors: PriorSpec,
                      cfg: SamplerConfig, i: int) -> float:
    """Brute-force elpd_i: refit without subject i, then average the
    predictive density of subject i over the refit draws."""
    data = as_dataset(data)
    keep = np.ones(data.n, dtype=bool)
    keep[i] = False
    refit = run_chains(model, data.subset(keep), priors, cfg)
    held = data.subset(np.array([i]))
    prep = prepare(model, held)
    vals = np.empty(refit.M)
    for m, row in enumerate(refit.constrained):
        psi = psi_from_constrained(model, row)
        vals[m] = pointwise_loglik_vector(model, psi, prep)[0]
    return _logsumexp(vals) - math.log(len(vals))


def exact_loo(model: ModelSpec, data, priors: PriorSpec,
              cfg: SamplerConfig) -> np.ndarray:
    """elpd_i for every subject by n refits (small n only)."""
    data = as_dataset(data)
    return np.array([exact_loo_subject(model, data, priors, cfg, i)
                     for i in range(data.n)])


# -- reports -------------------------------------------------------------------

def write_loo_report(res: LooResult, path) -> None:
    lines = [
        f"elpd: {res.elpd!r}",
        f"elpd_se: {res.elpd_se!r}",
        f"minus2elpd: {res.minus2elpd!r}",
        f"n: {res.n}",
        f"draws: {res.M}",
        f"n_khat_high: {int(np.sum(res.khat > KHAT_WARN))}",
    ]
    for w in res.warnings:
        lines.append(f"warning: {w}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_loo_report(path) -> dict:
    out: dict = {"warning": []}
    with open(path) as fh:
        for line in fh:
            key, _, val = line.rstrip("\n").partition(": ")
            if key == "warning":
                out["warning"].append(val)
            elif key in ("n", "draws", "n_khat_high"):
                out[key] = int(val)
            elif key:
                out[key] = float(val)
    return out


def write_loo_pointwise(res: LooResult, path) -> None:
    lines = ["subject,elpd_i,khat"]
    for i in range(res.n):
        lines.append(f"{i},{res.pointwise[i]!r},{res.khat[i]!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
