"""Out-of-sample predictive fit via Pareto-smoothed importance sampling
leave-one-out cross-validation, with an exact-refit variant as validation
oracle for small n.

For subject i the leave-one-out importance ratio of draw m is
1 / p(y_i | psi_m). The largest ceil(min(0.2 M, 3 sqrt(M))) ratios are
replaced by expected order statistics of a generalized Pareto distribution
fitted to the exceedances over the tail cutoff (Zhang--Stephens posterior
estimate of the shape, with the usual weak prior pulling khat toward 0.5),
capped at the raw maximum. Subjects are smoothed in blocks, each in
array passes: one partial sort of the block's (subjects, draws) log ratios
finds every tail, one call fits them all, and smoothing, capping and the
sums below are array operations; the (subjects, m, tail) grid of the fits
bounds the block. Then

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

from .data import Dataset, atomic_write_text
from .draws import PosteriorDraws
from .errors import DomainError, NumericalError
from .likelihood import PriorSpec, pointwise_loglik_matrix
from .model import ModelSpec

__all__ = [
    "PointwiseLogLik",
    "LooResult",
    "pointwise_loglik",
    "psis_loo",
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
    """PSIS-LOO per subject, elpd_i and khat. The summary is read off
    `pointwise`, so it holds after an exact refit replaces an elpd_i."""
    khat: np.ndarray
    warnings: list
    pointwise: np.ndarray = field(repr=False)
    M: int = 0

    n = property(lambda self: self.pointwise.size)
    elpd = property(lambda self: float(self.pointwise.sum()))
    minus2elpd = property(lambda self: -2.0 * self.elpd)

    @property
    def elpd_se(self) -> float:
        """sqrt(n var(elpd_i)); 0 for one subject."""
        if self.n < 2:
            return 0.0
        return float(math.sqrt(self.n * np.var(self.pointwise, ddof=1)))


def pointwise_loglik(model: ModelSpec, draws: PosteriorDraws,
                     data: Dataset) -> PointwiseLogLik:
    """The log-likelihood of every subject at every draw, evaluated in
    blocks of draws (`likelihood.pointwise_loglik_matrix`)."""
    return PointwiseLogLik(pointwise_loglik_matrix(model, draws.constrained,
                                                   data))


def _logsumexp(a):
    """log sum exp over the last axis of a, shifted by the row's largest
    entry; a float for a vector. A row of all -inf gives -inf, any +inf
    gives +inf and a NaN gives NaN, with no warning."""
    a = np.asarray(a, dtype=float)
    m = a.max(axis=-1, keepdims=True)
    finite = np.isfinite(m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = m + np.log(np.exp(a - np.where(finite, m, 0.0)).sum(
            axis=-1, keepdims=True))
    out = np.where(finite, out, m)[..., 0]
    return float(out) if out.ndim == 0 else out


# -- Pareto smoothing, subjects in blocks ------------------------------------

# entries of one block's (subjects, m, T) grid of GPD fits; at twice this,
# glibc returned a block's pages between blocks (6k more minor faults at
# 1000 draws and 500 subjects)
BLOCK = 32768


def _tail_length(M: int) -> int:
    """T = ceil(min(0.2 M, 3 sqrt M)) smoothed ratios of M draws."""
    return int(math.ceil(min(0.2 * M, 3.0 * math.sqrt(M))))


def _gpd_fit(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zhang & Stephens (2009) posterior estimate of the generalized Pareto
    shape and scale for exceedances y > 0, one subject per row, each row
    sorted ascending; returns (khat, sigma) per row, khat pulled toward
    0.5 by the usual weak prior."""
    n = y.shape[1]
    m = 30 + int(math.sqrt(n))
    b = 1.0 - np.sqrt(m / (np.arange(m, dtype=float) + 0.5))
    b = b / (3.0 * y[:, (n - 2) // 4, None]) + 1.0 / y[:, -1:]   # (rows, m)
    k = np.log1p(-b[:, :, None] * y[:, None, :]).mean(axis=2)
    profile = n * (np.log(-(b / k)) - k - 1.0)
    weights = 1.0 / np.exp(profile[:, None, :]
                           - profile[:, :, None]).sum(axis=2)
    b_post = (b * weights).sum(axis=1) / weights.sum(axis=1)
    k_post = np.log1p(-b_post[:, None] * y).mean(axis=1)
    return (n * k_post + 10 * 0.5) / (n + 10), -k_post / b_post


def _smooth(lr: np.ndarray):
    """Pareto-smooth log importance ratios in place, one subject per row
    of (subjects, M): each row's largest T = `_tail_length(M)` ratios
    (T >= 20 for the M >= 100 of `psis_loo`) become the expected order
    statistics of a generalized Pareto distribution fitted to their
    exceedances over the next largest, capped at the raw maximum. Returns
    (khat, degenerate) per row: a row whose exceedances are all equal, or
    whose first-quartile exceedance (the scale `_gpd_fit` divides by) is
    0, is left as it is, with khat NaN."""
    M = lr.shape[1]
    T = _tail_length(M)
    top = np.argpartition(lr, M - T - 1, axis=1)[:, M - T - 1:]
    vals = np.take_along_axis(lr, top, axis=1)
    order = np.argsort(vals, axis=1)
    top = np.take_along_axis(top, order, axis=1)[:, 1:]
    vals = np.take_along_axis(vals, order, axis=1)
    cutoff = np.exp(vals[:, :1])
    raw = np.exp(vals[:, 1:])                  # the tail, ascending
    exceed = raw - cutoff
    # exceedances ascend, so a zero quartile covers a tail with none positive
    degenerate = ((np.ptp(exceed, axis=1) <= 0.0)
                  | (exceed[:, (T - 2) // 4] <= 0.0))
    khat = np.full(len(lr), np.nan)
    rows = np.flatnonzero(~degenerate)
    if rows.size:
        k, sigma = _gpd_fit(np.sort(exceed[rows], axis=1))
        khat[rows] = k
        k, sigma = k[:, None], sigma[:, None]
        q = (np.arange(T) + 0.5) / T
        exponential = np.abs(k) < 1e-12
        k_safe = np.where(exponential, 1.0, k)
        quantile = np.where(exponential, -sigma * np.log1p(-q),
                            sigma / k_safe * ((1.0 - q) ** -k_safe - 1.0))
        lr[rows[:, None], top[rows]] = np.log(np.minimum(
            cutoff[rows] + quantile, raw[rows].max(axis=1, keepdims=True)))
    return khat, degenerate


def psis_loo(ll: PointwiseLogLik) -> LooResult:
    """Estimate the expected log pointwise predictive density from a single
    fit's pointwise log-likelihood matrix, in blocks of subjects whose
    grid of GPD fits holds about BLOCK entries."""
    if ll.M < 100:
        raise DomainError(f"psis_loo needs at least 100 draws, got {ll.M}")
    M, n = ll.M, ll.n
    T = _tail_length(M)
    step = max(1, BLOCK // ((30 + int(math.sqrt(T))) * T))
    pointwise, khat = np.empty(n), np.empty(n)
    degenerate = np.empty(n, dtype=bool)
    for i in range(0, n, step):
        block = slice(i, i + step)
        lli = np.ascontiguousarray(ll.values[:, block].T)
        lw = -lli
        lw -= lw.max(axis=1, keepdims=True)
        khat[block], degenerate[block] = _smooth(lw)
        pointwise[block] = _logsumexp(lw + lli) - _logsumexp(lw)
    warnings = [f"subject {i}: degenerate tail ratios, smoothing skipped"
                for i in np.flatnonzero(degenerate).tolist()]
    high = np.where(khat > KHAT_WARN)[0]
    if high.size:
        warnings.append(
            f"{high.size} subject(s) with khat > {KHAT_WARN}: "
            + ",".join(map(str, high.tolist())))
    return LooResult(khat, warnings, pointwise, M)


# -- exact refit oracle --------------------------------------------------------

def exact_loo_subject(model: ModelSpec, data: Dataset, priors: PriorSpec,
                      cfg: SamplerConfig, i: int) -> float:
    """Brute-force elpd_i: refit without subject i, then average the
    predictive density of subject i over the refit draws."""
    from .sampler import run_chains

    keep = np.ones(data.n, dtype=bool)
    keep[i] = False
    refit = run_chains(model, data.subset(keep), priors, cfg)
    vals = pointwise_loglik_matrix(model, refit.constrained,
                                   data.subset(np.array([i])))[:, 0]
    return _logsumexp(vals) - math.log(len(vals))


def exact_loo(model: ModelSpec, data: Dataset, priors: PriorSpec,
              cfg: SamplerConfig) -> np.ndarray:
    """elpd_i for every subject by n refits (small n only)."""
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
