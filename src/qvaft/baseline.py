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

Every formula lives in one evaluator, `log_terms`: log f0(u) on a leading
block of rows and log S0(u) on the rest, in one call that shares log u
(and, for tbp, the centering terms) between them, and, on request, the
partials in u, mu, log sigma and the weights. The public functions
(`survivor` is exp log S0) and the likelihood call it. For tbp all of
these are sums of powers of r = p/(1 - p) or s = (1 - p)/p, whichever is
at most 1 (`_scaled_terms`). `inverse_survivor` solves log F0 - log S0 of
the same terms for the centering cumulative hazard -log S0c, then applies
the closed-form centering inverse, as the parametric families do.

All operations are pure functions of immutable value objects and accept a
scalar or ndarray time argument. Only the log-normal formulas need scipy
(`erfcx`, `log_ndtr`, `ndtri_exp`), and they import it on first use, so
this module never loads it for a Weibull or Weibull-centred tbp baseline;
the binomial coefficients are exact integers (`math.comb`) as doubles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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


def _nonnegative(a, what: str = "time", strict: bool = False) -> np.ndarray:
    """a as a float array; DomainError naming `what` if an entry is NaN or
    negative (with `strict`, also if it is 0)."""
    a = np.asarray(a, dtype=float)
    if np.any(np.isnan(a)) or np.any(a <= 0 if strict else a < 0):
        raise DomainError(f"{what} must be {'>' if strict else '>='} 0")
    return a


def _check_p(p) -> np.ndarray:
    """Quantile levels p as a float array; DomainError unless in (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0) or np.any(arr >= 1):
        raise DomainError("quantile level p must lie in (0, 1)")
    return arr


def _scalar_like(t, value):
    """A float for a scalar t, unless per-row arguments gave value rows."""
    if np.ndim(t) == 0 and np.ndim(value) == 0:
        return float(value)
    return value


# -- the evaluator: log f0 on the leading rows, log S0 on the rest -----------

class BaselineTerms:
    """log f0(u) or log S0(u) per entry (`val`) and, when asked for, its
    partials with respect to u, mu, log sigma and (tbp only) the weights w."""

    __slots__ = ("val", "d_du", "d_dmu", "d_dls", "d_dw")

    def __init__(self, val, d_du=None, d_dmu=None, d_dls=None, d_dw=None):
        self.val, self.d_du, self.d_dmu = val, d_du, d_dmu
        self.d_dls, self.d_dw = d_dls, d_dw


def _stack(head: BaselineTerms | None, tail: BaselineTerms | None):
    """The rows of `head` followed by those of `tail`; either may be None."""
    if head is None or tail is None:
        return tail if head is None else head
    return BaselineTerms(*(
        None if getattr(head, name) is None
        else np.concatenate([getattr(head, name), getattr(tail, name)])
        for name in BaselineTerms.__slots__))


def _weibull_terms(mu, sigma, u, k, grad, sf_head=False):
    """log S0 = -z with z = (u exp(-mu))^sigma on the rows of u (its first
    axis) and log f0 = log sigma - mu + (sigma - 1) r - z, r = log u - mu,
    on the first k of them. Returns (terms, head): the density replaces the
    survivor on those rows and head is None, or, with `sf_head`, terms is
    the survivor on every row and head the density on the first k. z is a
    power, not exp(sigma r), which would lose exactness (exp(log 50) is
    49.99999999999999)."""
    z = (u * np.exp(-mu)) ** sigma
    sf = BaselineTerms(-z)
    if not (k or grad):
        return sf, None
    r = np.log(u) - mu
    if grad:
        sz = sigma * z
        sf.d_du, sf.d_dmu, sf.d_dls = -sz / u, sz, -r * sz
    if not k:
        return sf, None
    rk, zk = r[:k], z[:k]
    pdf = BaselineTerms(math.log(sigma) - mu + (sigma - 1.0) * rk - zk)
    if grad:
        pdf.d_du = ((sigma - 1.0) - sz[:k]) / u[:k]
        pdf.d_dmu = sigma * (zk - 1.0)
        pdf.d_dls = 1.0 + sigma * rk * (1.0 - zk)
    if sf_head:
        return sf, pdf
    sf.val[:k] = pdf.val  # the survivor's arrays are this call's own
    if grad:
        sf.d_du[:k], sf.d_dmu[:k], sf.d_dls[:k] = (pdf.d_du, pdf.d_dmu,
                                                   pdf.d_dls)
    return sf, None


def _normal_hazard(s):
    # phi(s) / (1 - Phi(s)), stable for large |s|
    from scipy.special import erfcx
    return np.sqrt(2.0 / np.pi) / erfcx(s / np.sqrt(2.0))


def _lognormal_terms(mu, sigma, u, k, grad, sf_head=False):
    """log S0 = log Phi(-s), s = (log u - mu) / sigma, and on the first k
    rows log f0 = -s^2 / 2 - log(sigma u sqrt(2 pi)); (terms, head) as in
    `_weibull_terms`. The survivor is evaluated only on the rows that need
    it, so a density-only call loads no scipy."""
    logu = np.log(u)
    s = (logu - mu) / sigma
    k0 = 0 if sf_head else k
    sf = pdf = None
    if k0 < len(u) or not k:  # survivor rows, or no rows at all
        from scipy.special import log_ndtr
        st = s[k0:]
        sf = BaselineTerms(log_ndtr(-st))
        if grad:
            lam = _normal_hazard(st)
            sf.d_du, sf.d_dmu, sf.d_dls = (-lam / (sigma * u[k0:]),
                                           lam / sigma, lam * st)
    if k:
        sk = s[:k]
        pdf = BaselineTerms(-0.5 * sk * sk - 0.5 * math.log(2.0 * math.pi)
                            - math.log(sigma) - logu[:k])
        if grad:
            pdf.d_du = -(sk / sigma + 1.0) / u[:k]
            pdf.d_dmu, pdf.d_dls = sk / sigma, sk * sk - 1.0
    return (sf, pdf) if sf_head else (_stack(pdf, sf), None)


_PARAMETRIC = {"weibull": _weibull_terms, "lognormal": _lognormal_terms}


@functools.lru_cache(maxsize=None)
def _comb(n: int) -> np.ndarray:
    """C(n, j), j = 0..n: `math.comb`'s exact integers as doubles (shared)."""
    out = np.array([float(math.comb(n, j)) for j in range(n + 1)])
    out.flags.writeable = False
    return out


def _tbp_coefficients(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c_j = W_j C(K, j), j = 0..K (c_0 = 0), of the tbp survivor and
    d_j = w_{K-j} C(K-1, j), j = 0..K-1, of its density's sum."""
    K, wr = len(w), w[::-1]
    return np.append(0.0, np.cumsum(wr)) * _comb(K), wr * _comb(K - 1)


def _scaled_terms(logp: np.ndarray, n: int):
    """Terms b_j = p^j (1 - p)^(n-j), j = 0..n, p = exp(logp), scaled as by
    Schumaker & Volk (1986, CAGD 3:149): (lo, n log m, b / m^n), lo = p < 1/2,
    m = max(p, 1 - p); on a new first axis b_j / m^n = r^j on lo, s^(n-j)
    elsewhere, cumulative products of one array of r = p/(1 - p) or
    s = (1 - p)/p <= 1, each zeroed off its branch. Sums with nonnegative
    coefficients keep their relative accuracy, also where p underflows."""
    lo = logp < math.log(0.5)
    p = np.exp(logp)
    x = np.where(lo, p / (1.0 - p), np.expm1(-logp))
    b = np.empty((n + 1,) + logp.shape)
    b[n] = ~lo
    for j in range(n, 0, -1):
        np.multiply(b[j], x, out=b[j - 1])
    power = lo.astype(float)
    for j in range(n + 1):
        b[j] += power
        power *= x
    return lo, n * np.where(lo, np.log1p(-p), logp), b


def _tbp_terms(spec, mu, sigma, w, u, k, grad):
    """Bernstein-transformed baseline at p = S0c(u), from the terms
    b_j = p^j (1 - p)^(K-1-j) of `_scaled_terms` for all rows at once:
    S0 = p sum_j c_{j+1} b_j and, on the first k rows, f0 = fc K sum_j d_j
    b_j (`_tbp_coefficients`; fc the centering density). Where p >= 1/2 the
    last term is 1 and c_K = W_K = 1, so log S0 is log1p of the others and
    stays accurate as S0 nears 1. Partials come from each term's share:
    d log S0/dw_k adds the shares C(K, j+1) b_j over j >= K - k, d log
    f0/dw_k is the share C(K-1, K-k) b_{K-k}; p d/dp log S0 is K sum_j d_j
    b_j / sum_j c_{j+1} b_j (dS0/dp is the density's sum), and that of the
    density's log sum is sum_j j C(K-1, j) (w_{K-j} - w_{K+1-j}) b_j / sum."""
    K = spec.K
    sc, fc = _PARAMETRIC[spec.centering](mu, sigma, u, k, grad, sf_head=True)
    c, d = _tbp_coefficients(w)
    lo, out, b = _scaled_terms(sc.val, K - 1)
    bf, bs = b[:, :k], b[:, k:]  # density and survivor rows
    part = np.tensordot(c[1:K], bs[:-1], 1)
    fsum, ssum = np.tensordot(d, bf, 1), part + c[K] * bs[-1]
    out[k:] += sc.val[k:] + np.where(lo[k:], np.log(ssum), np.log1p(part))
    if k:
        out[:k] += fc.val + math.log(K) + np.log(fsum)
    out = BaselineTerms(out)
    if grad:
        ramp = np.arange(K) * np.diff(w[::-1], prepend=0.0) * _comb(K - 1)
        chain = np.concatenate([np.tensordot(ramp, bf, 1) / fsum,
                                np.tensordot(K * d, bs, 1) / ssum])
        col = (-1,) + (1,) * u.ndim
        bf *= _comb(K - 1).reshape(col) / fsum
        bs *= _comb(K)[1:].reshape(col) / ssum
        for j in range(K - 2, -1, -1):  # the survivor's shares, summed
            bs[j] += bs[j + 1]
        out.d_dw = np.moveaxis(b[::-1], 0, -1)
        out.d_du, out.d_dmu, out.d_dls = (
            chain * sc.d_du, chain * sc.d_dmu, chain * sc.d_dls)
        if k:
            out.d_du[:k] += fc.d_du
            out.d_dmu[:k] += fc.d_dmu
            out.d_dls[:k] += fc.d_dls
    return out


def log_terms(spec: BaselineSpec, mu: float, sigma: float, w, u,
              n_pdf: int = 0, grad: bool = False) -> BaselineTerms:
    """The one evaluator of every baseline formula, for the family in
    `spec`: log f0(u) on the first `n_pdf` rows of u (along its first axis,
    of at least one dimension) and log S0(u) on the rest. `w` is the tbp
    weight array (None otherwise). With `grad` the partials d/du, d/dmu,
    d/dlog sigma and (tbp) d/dw are filled in. One call serves density and
    survivor rows together, sharing log u and, for tbp, the centering
    terms. No input checks and no warning suppression: callers validate,
    and silence the floating-point warnings that extreme values raise."""
    if spec.is_tbp:
        return _tbp_terms(spec, mu, sigma, w, u, n_pdf, grad)
    return _PARAMETRIC[spec.family](mu, sigma, u, n_pdf, grad)[0]


def _centering_quantile(family: str, mu: float, sigma: float, q):
    """The time at which the Weibull or log-normal survivor is exp(-q), for a
    cumulative hazard q > 0; closed form."""
    if family == "weibull":
        return np.exp(mu) * q ** (1.0 / sigma)
    from scipy.special import ndtri_exp
    return np.exp(mu - sigma * ndtri_exp(-q))


def _tbp_hazard(K: int, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The centering cumulative hazard q = -log S0c at which the tbp survivor
    is p: `roots.increasing_root` solves log F0 - log S0 = log((1 - p) / p),
    F0 = (1 - p) sum_j f_j b_j with f_j = C(K, j) sum_{k <= K-j} w_k and S0
    as in `_tbp_terms`: two sums of the same scaled terms, so neither tail
    is a difference of nearly equal numbers."""
    c = _tbp_coefficients(w)[0]
    f = np.cumsum(w)[::-1] * _comb(K)[:K]

    def log_odds(q):
        b = _scaled_terms(-q, K - 1)[2]
        ratio = np.tensordot(f, b, 1) / np.tensordot(c[1:], b, 1)
        return np.log(ratio) + np.log(-np.expm1(-q)) + q
    with np.errstate(divide="ignore", over="ignore"):
        return increasing_root(log_odds, np.log1p(-p) - np.log(p),
                               -2.0 * np.log(p), 1e-10, "tbp inverse")


# -- public operations ----------------------------------------------------

def _public_terms(spec, params, w, t, pdf: bool):
    _check_weights(spec, w)
    arr = _nonnegative(t, strict=pdf)
    flat = arr.reshape(-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = log_terms(spec, params.mu, params.sigma,
                        None if w is None else w.as_array(), flat,
                        flat.size if pdf else 0).val
    return val.reshape(arr.shape)


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
    parr = _check_p(p)
    if spec.is_tbp:
        q = _tbp_hazard(spec.K, w.as_array(), parr)
        family = spec.centering
    else:
        q = -np.log(parr)
        family = spec.family
    return _scalar_like(p, _centering_quantile(family, params.mu, params.sigma,
                                               q))
