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
(and, for tbp, the centering terms) between them, and, on request, each
term's q = u d/du, the one partial a family computes (tbp adds those in
the weights): the partials in mu and log sigma follow from q and
r = log u - mu (`BaselineTerms`). The public functions (`survivor` is
exp log S0) and the likelihood call it. For tbp all of these are sums of
powers of r = p/(1 - p) or s = (1 - p)/p, whichever is at most 1
(`_scaled_terms`). `inverse_survivor` solves log F0 - log S0 of the same
terms for the centering cumulative hazard -log S0c, then applies the
closed-form centering inverse, as the parametric families do.

All operations are pure functions of immutable value objects and accept a
scalar or ndarray time argument. Only the log-normal formulas need scipy
(`erfcx`, `log_ndtr`, `ndtri_exp`), imported on first use, so this module
never loads it for a Weibull or Weibull-centred tbp baseline; the binomial
coefficients are exact integers (`math.comb`) as doubles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    """Simplex weights of the Bernstein-transformed baseline. The Dirichlet
    concentration theta of their prior is a parameter of the posterior
    alone (`likelihood.ParameterVector`), which no baseline function reads."""

    w: tuple

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", tuple(float(v) for v in w))
        if w.ndim != 1 or w.size < 1:
            raise DomainError("tbp weights must be a non-empty vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DomainError("tbp weights must be finite and non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"tbp weights must sum to 1, got {w.sum():.15g}")

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

    @functools.cached_property
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
    """log f0(u) or log S0(u) per entry (`val`) and, with `grad`, q = u d/du
    of it, r = log u - mu, u and (tbp) the partials in the weights `d_dw`.
    As S0 is a function of u e^-mu, and of sigma through sigma r (Weibull
    centering, epsilon = +1) or r / sigma (log-normal, epsilon = -1), q
    gives d/dmu = -q and d/dlog sigma = epsilon r q; log f0 adds -1 and
    epsilon (r + 1) to them (epsilon: `log_sigma_sign`)."""

    __slots__ = ("val", "q", "r", "u", "d_dw")

    def __init__(self, val, q=None, r=None):
        self.val, self.q, self.r = val, q, r
        self.u = self.d_dw = None

    @property
    def d_du(self):
        return self.q / self.u


class Outer(NamedTuple):
    """u = outer(h, s) as its factors, h along the rows (values of V) and s
    along the columns (subjects), which `log_terms` takes for u without
    `grad`."""
    h: np.ndarray
    s: np.ndarray


def _log(u):
    """log u; of an `Outer`, the outer sum of its factors' logs."""
    if isinstance(u, Outer):
        return np.add.outer(np.log(u.h), np.log(u.s))
    return np.log(u)


def _power(u, c, sigma):
    """(u c)^sigma; of an `Outer`, (h c)^sigma times s^sigma, but from the
    dense u in each row and column whose factor is 0, subnormal, inf or NaN
    (1e300 * 1e-300: inf times 0), so that no entry depends on its block."""
    if isinstance(u, Outer):
        a, b = (u.h * c) ** sigma, u.s ** sigma
        out, tiny = np.multiply.outer(a, b), np.finfo(float).tiny
        rows, cols = (~((tiny <= f) & (f < np.inf)) for f in (a, b))
        if rows.any():  # an empty masked write costs more than the test
            out[rows] = (np.multiply.outer(u.h[rows], u.s) * c) ** sigma
        if cols.any():
            out[:, cols] = (np.multiply.outer(u.h, u.s[cols]) * c) ** sigma
        return out
    return (u * c) ** sigma


def _weibull_terms(mu, sigma, u, k, grad, sf_head=False):
    """log S0 = -z with z = (u exp(-mu))^sigma on the rows of u (its first
    axis) and log f0 = log sigma - mu + (sigma - 1) r - z, r = log u - mu,
    on the first k; q = -sigma z, plus sigma - 1 on the density rows.
    Returns (terms, head): the density replaces the survivor on those rows
    and head is None, or, with `sf_head`, terms is the survivor on every
    row and head the density on the first k. z is a power, not exp(sigma
    r), which loses exactness (exp(log 50) is 49.99999999999999)."""
    z = _power(u, np.exp(-mu), sigma)
    sf = BaselineTerms(-z)
    if not (k or grad):
        return sf, None
    # without grad, r is read on the density rows alone
    r = _log(u if grad or isinstance(u, Outer) else u[:k]) - mu
    if grad:
        sf.q, sf.r = -sigma * z, r
    if not k:
        return sf, None
    # log sigma - mu + (sigma - 1) r - z on the density rows
    log_sigma = (np.log(sigma) if isinstance(sigma, np.ndarray)
                 else math.log(sigma))
    head = log_sigma - mu + (sigma - 1.0) * r[:k]
    if sf_head:
        return sf, BaselineTerms(head - z[:k], (sigma - 1.0) - sigma * z[:k]
                                 if grad else None)
    sf.val[:k] += head  # the survivor's arrays are this call's own
    if grad:
        sf.q[:k] += sigma - 1.0
    return sf, None


def _normal_hazard(s):
    # phi(s) / (1 - Phi(s)), stable for large |s|
    from scipy.special import erfcx
    return np.sqrt(2.0 / np.pi) / erfcx(s / np.sqrt(2.0))


def _lognormal_terms(mu, sigma, u, k, grad, sf_head=False):
    """log S0 = log Phi(-s), s = r / sigma, r = log u - mu, with q =
    -hazard(s) / sigma, and on the first k rows log f0 = -s^2 / 2 -
    log(sigma u sqrt(2 pi)) with q = -(s / sigma + 1); (terms, head) as in
    `_weibull_terms`. A density-only call loads no scipy."""
    logu = _log(u)
    r = logu - mu
    s = r / sigma
    k0 = 0 if sf_head else k
    out = BaselineTerms(np.empty(s.shape),
                        np.empty(s.shape) if grad else None, r)
    if k0 < len(s):  # survivor rows
        from scipy.special import log_ndtr
        st = s[k0:]
        out.val[k0:] = log_ndtr(-st)
        if grad:
            out.q[k0:] = _normal_hazard(st) / -sigma
    if not k:
        return out, None
    sk = s[:k]
    log_sigma = (np.log(sigma) if isinstance(sigma, np.ndarray)
                 else math.log(sigma))
    pdf = BaselineTerms(-0.5 * sk * sk - 0.5 * math.log(2.0 * math.pi)
                        - log_sigma - logu[:k],
                        -(sk / sigma + 1.0) if grad else None)
    if sf_head:
        return out, pdf
    out.val[:k] = pdf.val
    if grad:
        out.q[:k] = pdf.q
    return out, None


# each centering's evaluator and its epsilon (see `BaselineTerms`)
_PARAMETRIC = {"weibull": (_weibull_terms, 1.0),
               "lognormal": (_lognormal_terms, -1.0)}


def log_sigma_sign(spec: BaselineSpec) -> float:
    """epsilon of `BaselineTerms` for the family in `spec`."""
    return _PARAMETRIC[spec.centering if spec.is_tbp else spec.family][1]


@functools.lru_cache(maxsize=None)
def _comb(n: int, ramp: bool = False) -> np.ndarray:
    """C(n, j), or with `ramp` j C(n, j), j = 0..n, as doubles (shared)."""
    out = np.array([float((j if ramp else 1) * math.comb(n, j))
                    for j in range(n + 1)])
    out.flags.writeable = False
    return out


def _tbp_coefficients(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c_j = W_j C(K, j), j = 0..K (c_0 = 0), of the tbp survivor and
    d_j = w_{K-j} C(K-1, j), j = 0..K-1, of its density's sum; w may have
    a trailing axis of draws, which the coefficients keep."""
    K, wr = len(w), w[::-1]
    col = (slice(None),) + (None,) * (w.ndim - 1)
    return (np.concatenate([np.zeros((1,) + w.shape[1:]), wr.cumsum(axis=0)])
            * _comb(K)[col], wr * _comb(K - 1)[col])


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


def _dot(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j c_j b_j over the first axis of b, of any rank; coefficients
    with a trailing axis of draws, (J, D), pair with b's last axis."""
    if c.ndim == 2:
        return np.einsum("j...d,jd->...d", b, c)
    shape = b.shape[1:]
    return (c @ b.reshape(len(b), math.prod(shape))).reshape(shape)


def _tbp_terms(spec, mu, sigma, w, u, k, grad, sf_head=False):
    """Bernstein-transformed baseline at p = S0c(u), from the terms
    b_j = p^j (1 - p)^(K-1-j) of `_scaled_terms` for all rows at once:
    S0 = p sum_j c_{j+1} b_j and, on the first k rows, f0 = fc K sum_j d_j
    b_j (`_tbp_coefficients`; fc the centering density). Where p >= 1/2 the
    last term is 1 and c_K = W_K = 1, so log S0 is log1p of the others and
    stays accurate as S0 nears 1. Partials come from each term's share:
    d log S0/dw_k adds the shares C(K, j+1) b_j over j >= K - k, d log
    f0/dw_k is the share C(K-1, K-k) b_{K-k}. q is the centering's q times
    p d/dp of log S0, K sum_j d_j b_j / sum_j c_{j+1} b_j, or of the
    density's log sum, sum_j j C(K-1, j) (w_{K-j} - w_{K+1-j}) b_j / sum,
    plus fc's q. (terms, head) as in `_weibull_terms`; `sf_head` takes none."""
    K = spec.K
    sc, fc = _PARAMETRIC[spec.centering][0](mu, sigma, u, k, grad, True)
    c, d = _tbp_coefficients(w)
    lo, out, b = _scaled_terms(sc.val, K - 1)
    k0 = 0 if sf_head else k
    bf, bs = b[:, :k], b[:, k0:]  # density and survivor rows
    part = _dot(c[1:K], bs[:-1])
    fsum, ssum = _dot(d, bf), part + c[K] * bs[-1]
    pdf = out[:k] + (fc.val + math.log(K) + np.log(fsum)) if k else None
    out[k0:] += sc.val[k0:] + np.where(lo[k0:], np.log(ssum), np.log1p(part))
    if sf_head:
        return BaselineTerms(out), pdf if pdf is None else BaselineTerms(pdf)
    if k:
        out[:k] = pdf
    out = BaselineTerms(out)
    if grad:  # u has one axis here
        wr = w[::-1]  # ramp_j = j C(K-1, j) (w_{K-j} - w_{K+1-j})
        ramp = _comb(K - 1, True) * (wr - np.concatenate([[0.0], wr[:-1]]))
        chain = np.concatenate([ramp @ bf / fsum, (K * d) @ bs / ssum])
        bf *= _comb(K - 1)[:, None] / fsum
        bs *= _comb(K)[1:, None] / ssum
        rev = bs[::-1]  # the survivor's shares, summed over j >= K - k
        rev.cumsum(axis=0, out=rev)
        out.d_dw = b[::-1].T
        out.q, out.r = chain * sc.q, sc.r
        if k:
            out.q[:k] += fc.q
    return out, None


def log_terms(spec: BaselineSpec, mu: float, sigma: float, w, u,
              n_pdf: int = 0, grad: bool = False, sf_head: bool = False):
    """The one evaluator of every baseline formula, for the family in
    `spec`: log f0(u) on the first `n_pdf` rows of u (along its first axis,
    of at least one dimension) and log S0(u) on the rest; with `sf_head`,
    the pair (log S0 on every row, log f0 on the first `n_pdf` or None).
    u is an array or, without `grad`, an `Outer`; `w` the tbp weight array
    (None otherwise). With `grad`, q = u d/du, r, u and (tbp) d/dw are
    filled in (`BaselineTerms`). Without `grad`, a dense u may carry a
    trailing axis of D draws, with mu and sigma of shape (D,) and w of
    shape (K, D). Callers validate the input and silence the
    floating-point warnings of extreme values."""
    out = (_tbp_terms(spec, mu, sigma, w, u, n_pdf, grad, sf_head)
           if spec.is_tbp else
           _PARAMETRIC[spec.family][0](mu, sigma, u, n_pdf, grad, sf_head))
    if grad:
        out[0].u = u
    return out if sf_head else out[0]


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
        ratio = _dot(f, b) / _dot(c[1:], b)
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
