"""Baseline survivor distributions.

Three families are supported:

* Weibull:     S0(t) = exp(-[t * exp(-mu)]^sigma)
* log-normal:  S0(t) = 1 - Phi((log t - mu) / sigma)
* Bernstein-transformed ("tbp"): a degree-K Bernstein polynomial in the
  centering (Weibull or log-normal) survivor p = S0c(t),

      S0(t) = sum_{j=0..K} W_j C(K, j) p^j (1 - p)^(K - j),
      W_j = sum_{k > K - j} w_k,

  i.e. the mixture sum_k w_k I(p; K - k + 1, k) of regularized
  incomplete-beta CDFs. Any simplex weights give a valid survivor; equal
  weights give W_j = j/K and reproduce the centering distribution exactly.

Every formula lives in one evaluator per family, `log_terms`: log S0(u) or
log f0(u) and, on request, the partials in u, mu, log sigma and the
weights. The public functions (`survivor` is exp log S0) and the
likelihood call it. For tbp all of these come from the log Bernstein basis
at p. `inverse_survivor` solves log F0 - log S0 of the same basis for the
centering cumulative hazard -log S0c (F0 from the prefix sums of w), then
applies the closed-form centering inverse, as the parametric families do.

All operations are pure functions of immutable value objects and accept a
scalar or ndarray time argument.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .roots import increasing_root

__all__ = [
    "BaselineParams",
    "TBPWeights",
    "BaselineSpec",
    "survivor",
    "density",
    "log_survivor",
    "log_density",
    "inverse_survivor",
]

@dataclass(frozen=True)
class BaselineParams:
    """Location (log-time) and positive shape/scale of a parametric baseline."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise DomainError(f"baseline mu must be finite, got {self.mu}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"baseline sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class TBPWeights:
    """Simplex weights of the Bernstein-transformed baseline plus the
    Dirichlet concentration used in its prior."""

    w: tuple
    theta: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", tuple(float(v) for v in w))
        if w.ndim != 1 or w.size < 1:
            raise DomainError("tbp weights must be a non-empty vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DomainError("tbp weights must be finite and non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"tbp weights must sum to 1, got {w.sum():.15g}")
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise DomainError(f"tbp theta must be > 0, got {self.theta}")

    @property
    def K(self) -> int:
        return len(self.w)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.w, dtype=float)


FAMILIES = ("weibull", "lognormal", "tbp")
CENTERINGS = ("weibull", "lognormal")


@dataclass(frozen=True)
class BaselineSpec:
    """Choice of baseline family; `centering` and `K` apply to tbp only."""

    family: str
    centering: str = "weibull"
    K: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown baseline family {self.family!r}")
        if self.family == "tbp":
            if self.centering not in CENTERINGS:
                raise DomainError(f"unknown tbp centering {self.centering!r}")
            if int(self.K) < 1:
                raise DomainError(f"tbp requires K >= 1, got {self.K}")
            object.__setattr__(self, "K", int(self.K))

    @property
    def is_tbp(self) -> bool:
        return self.family == "tbp"


def _check_weights(spec: BaselineSpec, w: TBPWeights | None) -> None:
    if spec.is_tbp:
        if w is None:
            raise DomainError("tbp baseline requires a weight vector")
        if w.K != spec.K:
            raise DomainError(f"weight vector length {w.K} != spec K {spec.K}")
    elif w is not None:
        raise DomainError("weights supplied for a non-tbp baseline")


def _as_time_array(t, allow_zero: bool) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("time contains NaN")
    lo = 0.0 if allow_zero else np.nextafter(0.0, 1.0)
    if np.any(arr < lo):
        raise DomainError("time must be " + (">= 0" if allow_zero else "> 0"))
    return arr


def _scalar_like(t, value: np.ndarray):
    if np.ndim(t) == 0:
        return float(value)
    return value


# -- the evaluator: log S0 or log f0 with parameter partials ------------------

class BaselineTerms:
    """log S0(u) or log f0(u) (`val`) and, when asked for, its partials with
    respect to u, mu, log sigma and (tbp only) the weights w."""

    __slots__ = ("val", "d_du", "d_dmu", "d_dls", "d_dw")

    def __init__(self, val, d_du=None, d_dmu=None, d_dls=None, d_dw=None):
        self.val, self.d_du, self.d_dmu = val, d_du, d_dmu
        self.d_dls, self.d_dw = d_dls, d_dw


def _weibull_terms(mu, sigma, u, pdf, grad):
    z = (u * np.exp(-mu)) ** sigma
    if not (pdf or grad):
        return BaselineTerms(-z)
    r = np.log(u) - mu
    if pdf:
        val = np.log(sigma) - mu + (sigma - 1.0) * r - z
    else:
        val = -z
    if not grad:
        return BaselineTerms(val)
    if pdf:
        return BaselineTerms(val, ((sigma - 1.0) - sigma * z) / u,
                             sigma * (z - 1.0), 1.0 + sigma * r * (1.0 - z))
    return BaselineTerms(val, -sigma * z / u, sigma * z, -sigma * r * z)


def _normal_hazard(s):
    # phi(s) / (1 - Phi(s)), stable for large |s|
    return np.sqrt(2.0 / np.pi) / special.erfcx(s / np.sqrt(2.0))


def _lognormal_terms(mu, sigma, u, pdf, grad):
    logu = np.log(u)
    s = (logu - mu) / sigma
    if pdf:
        val = -0.5 * s * s - 0.5 * np.log(2.0 * np.pi) - np.log(sigma) - logu
        if not grad:
            return BaselineTerms(val)
        return BaselineTerms(val, -(s / sigma + 1.0) / u, s / sigma, s * s - 1.0)
    val = special.log_ndtr(-s)
    if not grad:
        return BaselineTerms(val)
    lam = _normal_hazard(s)
    return BaselineTerms(val, -lam / (sigma * u), lam / sigma, lam * s)


_PARAMETRIC = {"weibull": _weibull_terms, "lognormal": _lognormal_terms}


@functools.lru_cache(maxsize=None)
def _binomial(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log C(n, j), j and n - j, for j = 0..n (read-only, shared)."""
    j = np.arange(n + 1.0)
    out = (special.gammaln(n + 1.0) - special.gammaln(j + 1.0)
           - special.gammaln(n - j + 1.0), j, n - j)
    for a in out:
        a.flags.writeable = False
    return out


def _log_bernstein(n: int, logp) -> np.ndarray:
    """The degree-n Bernstein basis in log space on a new last axis,

        log b_j(p) = log C(n, j) + j log p + (n - j) log(1 - p),  j = 0..n.

    log(1 - p) is taken at p <= 1 - 1e-300, so at p = 1 the last column is
    exactly 0 and the others are finite; the first column is written apart
    so that p = 0 gives 0 there, not NaN from 0 * -inf."""
    logc, j, nj = _binomial(n)
    log1mp = np.log(-np.expm1(np.minimum(logp, -1e-300)))
    lb = logc + np.multiply.outer(logp, j) + np.multiply.outer(log1mp, nj)
    lb[..., 0] = n * log1mp
    return lb


def _log_bsum(lb: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """log sum_j coef_j b_j over the last axis of lb = log b, for coef >= 0,
    shifted by the largest term so that it stays finite far in the tails."""
    a = lb + np.log(coef)
    m = a.max(axis=-1, keepdims=True)
    m = np.where(m > -np.inf, m, 0.0)  # no finite term: the sum is -inf
    return (m + np.log(np.exp(a - m).sum(axis=-1, keepdims=True)))[..., 0]


def _tbp_terms(spec, mu, sigma, w, u, pdf, grad):
    """Bernstein-transformed baseline on top of the centering evaluator, at
    p = S0c(u), from one Bernstein basis:

        S0 = sum_{j=1..K} W_j b_{K,j}(p),   W_j = sum_{k > K-j} w_k,
        f0 = fc * K * sum_{j=0..K-1} w_{K-j} b_{K-1,j}(p).

    The partials come from the normalised basis r_j = b_j / sum: d log S0/dw_k
    = sum_{j > K-k} r_j, d log f0/dw_k = r_{K-k}, and p d/dp of the log sum
    is sum_j j w_{K+1-j} r_j for S0 and sum_j j (w_{K-j} - w_{K+1-j}) r_j for
    f0."""
    K = spec.K
    centering = _PARAMETRIC[spec.centering]
    sc = centering(mu, sigma, u, False, grad)
    wr = w[::-1]
    if pdf:
        fc = centering(mu, sigma, u, True, grad)
        lb = _log_bernstein(K - 1, sc.val)
        logsum = _log_bsum(lb, wr)
        val = fc.val + np.log(K) + logsum
    else:
        lb = _log_bernstein(K, sc.val)[..., 1:]  # W_0 = 0
        val = logsum = _log_bsum(lb, np.cumsum(wr))
    if not grad:
        return BaselineTerms(val)
    r = np.exp(lb - logsum[..., None])
    if pdf:
        chain = r @ (np.arange(K) * np.diff(wr, prepend=0.0))
        return BaselineTerms(val, fc.d_du + chain * sc.d_du,
                             fc.d_dmu + chain * sc.d_dmu,
                             fc.d_dls + chain * sc.d_dls, r[..., ::-1])
    chain = r @ (np.arange(1, K + 1) * wr)
    return BaselineTerms(val, chain * sc.d_du, chain * sc.d_dmu,
                         chain * sc.d_dls, np.cumsum(r[..., ::-1], axis=-1))


def log_terms(spec: BaselineSpec, mu: float, sigma: float, w, u,
              pdf: bool = False, grad: bool = False) -> BaselineTerms:
    """The one evaluator of every baseline formula: log S0(u), or log f0(u)
    with `pdf`, for the family in `spec`; `w` is the tbp weight array (None
    otherwise). With `grad` the partials d/du, d/dmu, d/dlog sigma and
    (tbp) d/dw are filled in. No input checks: callers validate."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if spec.is_tbp:
            return _tbp_terms(spec, mu, sigma, w, u, pdf, grad)
        return _PARAMETRIC[spec.family](mu, sigma, u, pdf, grad)


def _centering_quantile(family: str, mu: float, sigma: float, q):
    """The time at which the Weibull or log-normal survivor is exp(-q), for a
    cumulative hazard q > 0; closed form."""
    if family == "weibull":
        return np.exp(mu) * q ** (1.0 / sigma)
    return np.exp(mu - sigma * special.ndtri_exp(-q))


def _tbp_hazard(K: int, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The centering cumulative hazard q = -log S0c at which the tbp survivor
    is p. `roots.increasing_root` solves log F0 - log S0 = log((1 - p) / p),
    with F0 and S0 from one degree-K basis and the prefix and suffix sums of
    w, so neither tail is a difference of nearly equal numbers. The basis
    sums to 1, so its largest term never underflows and needs no shift."""
    coef = np.stack([np.append(np.cumsum(w)[::-1], 0.0),    # F0: sum_{k<=K-j}
                     np.append(0.0, np.cumsum(w[::-1]))], 1)  # S0: sum_{k>K-j}

    def log_odds(q):
        fs = np.exp(_log_bernstein(K, -q)) @ coef
        return np.log(fs[:, 0] / fs[:, 1])
    with np.errstate(divide="ignore", over="ignore"):
        return increasing_root(log_odds, np.log1p(-p) - np.log(p),
                               -2.0 * np.log(p), 1e-10, "tbp inverse")


# -- public operations ----------------------------------------------------

def _public_terms(spec, params, w, t, pdf: bool):
    _check_weights(spec, w)
    arr = _as_time_array(t, allow_zero=not pdf)
    return log_terms(spec, params.mu, params.sigma,
                     None if w is None else w.as_array(), arr, pdf).val


def log_survivor(spec: BaselineSpec, params: BaselineParams,
                 w: TBPWeights | None, t):
    """log S0(t). Stable deep in the tail (no exp/log round trip)."""
    return _scalar_like(t, _public_terms(spec, params, w, t, pdf=False))


def survivor(spec: BaselineSpec, params: BaselineParams,
             w: TBPWeights | None, t):
    """Baseline survivor S0(t) in [0, 1]."""
    return _scalar_like(t, np.exp(_public_terms(spec, params, w, t, pdf=False)))


def log_density(spec: BaselineSpec, params: BaselineParams,
                w: TBPWeights | None, t):
    """log f0(t) where f0 = -dS0/dt; requires t > 0."""
    return _scalar_like(t, _public_terms(spec, params, w, t, pdf=True))


def density(spec: BaselineSpec, params: BaselineParams,
            w: TBPWeights | None, t):
    """Baseline density f0(t) >= 0; requires t > 0."""
    return _scalar_like(t, np.exp(_public_terms(spec, params, w, t, pdf=True)))


def inverse_survivor(spec: BaselineSpec, params: BaselineParams,
                     w: TBPWeights | None, p):
    """The time t solving S0(t) = p, for p in (0, 1).

    The centering's cumulative hazard q = -log S0c(t) is -log p for the
    parametric families; for the Bernstein-transformed family it is found by
    `roots.increasing_root` to a relative 1e-10 (see `_tbp_hazard`). The
    closed-form centering inverse then gives t.
    """
    _check_weights(spec, w)
    parr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(parr)) or np.any(parr <= 0) or np.any(parr >= 1):
        raise DomainError("quantile level p must lie in (0, 1)")
    if spec.is_tbp:
        q = _tbp_hazard(spec.K, w.as_array(), parr)
        family = spec.centering
    else:
        q = -np.log(parr)
        family = spec.family
    return _scalar_like(p, _centering_quantile(family, params.mu, params.sigma,
                                               q))
