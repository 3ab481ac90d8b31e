"""Baseline survivor distributions.

Three families are supported:

* Weibull:     S0(t) = exp(-[t * exp(-mu)]^sigma)
* log-normal:  S0(t) = 1 - Phi((log t - mu) / sigma)
* Bernstein-transformed ("tbp"): a simplex-weighted mixture of regularized
  incomplete-beta CDFs applied to a Weibull or log-normal centering
  survivor,

      S0(t) = sum_{k=1..K} w_k * I(S0c(t); K - k + 1, k),

  where I(x; a, b) is the regularized incomplete beta function and S0c is
  the centering survivor. Equal weights w_k = 1/K reproduce the centering
  distribution exactly, and any simplex weight vector yields a valid
  (decreasing) survivor because each beta CDF is increasing on [0, 1].

Every formula lives in one evaluator per family, reached through
`log_terms`: it returns log S0(u) or log f0(u) and, on request, the
partials in u, mu, log sigma and the weights. `log_survivor`,
`log_density`, `survivor` and `density` and the likelihood all call it.
The tbp survivor on the probability scale (`survivor`, and the root search
of `inverse_survivor` through `roots.increasing_root`) goes through
scipy's `betainc` instead, which also serves the tests as an independent
check on the log-space binomial sums.

All operations are pure functions of immutable value objects and accept a
scalar or ndarray time argument.
"""

from __future__ import annotations

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

# log of the smallest positive normal double; below this a log-probability
# is treated as -inf rather than fed to downstream exp/expm1 calls.
LOG_FLOOR = -745.0


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


def tbp_shape_pairs(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Beta shape pairs (a_k, b_k) = (K - k + 1, k) for k = 1..K."""
    k = np.arange(1, K + 1)
    return (K - k + 1).astype(float), k.astype(float)


def _log_betainc_integer(a: np.ndarray, b: np.ndarray, logp: np.ndarray,
                         log1mp: np.ndarray) -> np.ndarray:
    """log I(p; a, b) for positive integer shapes via the binomial tail sum

        I(p; a, b) = sum_{j=a}^{n} C(n, j) p^j (1-p)^(n-j),  n = a + b - 1,

    evaluated with log-sum-exp so it stays finite for p near 0 or 1.
    Shapes: a, b are (K,), logp/log1mp are (...,); result is (..., K).
    """
    n = int(round(float(a[0] + b[0]) - 1.0))
    j = np.arange(1, n + 1, dtype=float)  # smallest a is 1
    logcomb = (special.gammaln(n + 1.0) - special.gammaln(j + 1.0)
               - special.gammaln(n - j + 1.0))
    terms = (logcomb + j * logp[..., None, None]
             + _zero_safe_mul(n - j, log1mp[..., None, None]))  # (..., 1, n)
    mask = j[None, :] >= a[:, None]  # (K, n): include j >= a_k only
    terms = np.where(mask, terms, -np.inf)
    return special.logsumexp(terms, axis=-1)


def _zero_safe_mul(c, logv):
    """c * logv with the convention 0 * (-inf) = 0."""
    return np.where(np.asarray(c) == 0, 0.0, c * logv)


def _tbp_terms(spec, mu, sigma, w, u, pdf, grad):
    """Bernstein-transformed baseline on top of the centering evaluator:
    log S0 = log sum_k w_k I_k(p) and log f0 = log fc + log sum_k w_k g_k(p),
    with p = S0c(u) and g_k the Beta(a_k, b_k) density."""
    centering = _PARAMETRIC[spec.centering]
    sc = centering(mu, sigma, u, False, grad)
    logp = sc.val
    log1mp = _log1mexp(np.minimum(logp, -1e-300))
    a, b = tbp_shape_pairs(spec.K)
    logw = np.log(w)
    if pdf or grad:
        logg = (-special.betaln(a, b) + _zero_safe_mul(a - 1.0, logp[..., None])
                + _zero_safe_mul(b - 1.0, log1mp[..., None]))  # (..., K)
        logG = special.logsumexp(logw + logg, axis=-1)
    if pdf:
        fc = centering(mu, sigma, u, True, grad)
        val = fc.val + logG
        if not grad:
            return BaselineTerms(val)
        rho = np.exp(logw + logg - logG[..., None])  # weights summing to 1
        p_c = np.clip(np.exp(logp), 1e-300, 1.0 - 1e-16)[..., None]
        c = (a - 1.0) / p_c - (b - 1.0) / (1.0 - p_c)
        chain = (rho * c).sum(axis=-1) * np.exp(logp)  # (Gmix'/Gmix) dp/dlogp
        return BaselineTerms(val, fc.d_du + chain * sc.d_du,
                             fc.d_dmu + chain * sc.d_dmu,
                             fc.d_dls + chain * sc.d_dls,
                             np.exp(logg - logG[..., None]))
    logI = _log_betainc_integer(a, b, logp, log1mp)  # (..., K)
    logS = special.logsumexp(logw + logI, axis=-1)
    if not grad:
        return BaselineTerms(logS)
    chain = np.exp(logG - logS + logp)  # (Gmix / Smix) dp/dlogp
    return BaselineTerms(logS, chain * sc.d_du, chain * sc.d_dmu,
                         chain * sc.d_dls, np.exp(logI - logS[..., None]))


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


def _weibull_inv_sf(mu: float, sigma: float, p) -> np.ndarray:
    return np.exp(mu) * (-np.log(p)) ** (1.0 / sigma)


def _lognormal_inv_sf(mu: float, sigma: float, p) -> np.ndarray:
    return np.exp(mu + sigma * special.ndtri(1.0 - np.asarray(p, dtype=float)))


def _centering_inv_sf(spec: BaselineSpec, params: BaselineParams, p):
    if spec.centering == "weibull":
        return _weibull_inv_sf(params.mu, params.sigma, p)
    return _lognormal_inv_sf(params.mu, params.sigma, p)


def _tbp_sf(spec, params, w: TBPWeights, t: np.ndarray) -> np.ndarray:
    """S0 on the probability scale through scipy's betainc: the value path
    of `survivor` and the TBP inverse, and an independent check on the
    log-space binomial sums of `log_terms`."""
    with np.errstate(divide="ignore", over="ignore"):
        logsc = _PARAMETRIC[spec.centering](params.mu, params.sigma, t,
                                            False, False).val
    a, b = tbp_shape_pairs(spec.K)
    vals = special.betainc(a, b, np.exp(logsc)[..., None])
    return vals @ w.as_array()


def _log1mexp(logx: np.ndarray) -> np.ndarray:
    """log(1 - exp(logx)) for logx <= 0, stable near both ends."""
    logx = np.asarray(logx, dtype=float)
    out = np.empty_like(logx)
    small = logx < np.log(0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[small] = np.log1p(-np.exp(logx[small]))
        out[~small] = np.log(-np.expm1(logx[~small]))
    return out


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
    if spec.is_tbp:
        _check_weights(spec, w)
        out = _tbp_sf(spec, params, w, _as_time_array(t, allow_zero=True))
    else:
        out = np.exp(_public_terms(spec, params, w, t, pdf=False))
    return _scalar_like(t, out)


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

    Closed form for the parametric families. For the Bernstein-transformed
    family, `roots.increasing_root` solves -S0(t) = -p to a relative 1e-10,
    starting from the centering quantile at p/10.
    """
    _check_weights(spec, w)
    parr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(parr)) or np.any(parr <= 0) or np.any(parr >= 1):
        raise DomainError("quantile level p must lie in (0, 1)")
    if spec.family == "weibull":
        out = _weibull_inv_sf(params.mu, params.sigma, parr)
    elif spec.family == "lognormal":
        out = _lognormal_inv_sf(params.mu, params.sigma, parr)
    else:
        out = increasing_root(lambda t: -_tbp_sf(spec, params, w, t), -parr,
                              _centering_inv_sf(spec, params, parr / 10.0),
                              1e-10, "tbp inverse")
    return _scalar_like(p, out)
