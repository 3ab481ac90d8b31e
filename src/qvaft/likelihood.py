"""Log-likelihood, priors, and the unconstrained log-posterior with its
analytic gradient.

The per-subject likelihood under censoring interval (y_l, y_u], exact-event
indicator delta, and left-truncation time l is

    [f0(V(y_l)) v(y_l)]^delta * [S0(V(y_l)) - S0(V(y_u))]^(1-delta)
        / S0(V(l)),

with S0(inf) = 0, so right censoring and the classic censored-data
likelihood fall out as special cases. All time points (exact,
interval-lower, right, interval-upper, truncation) are stacked into one
vector, put once through `covproc.transform` and once through
`baseline.log_terms` (density on the leading exact rows, survivor on the
rest). The gradient is contracted, never built as a (rows x parameters)
matrix. A row term depends on the parameters of u through log u only, so
with c the weight of each row term in the total and the baseline's q = u
d/du, every partial is c q contracted with a dlog u partial of the
transform (-1 in x'beta, a factor times a matrix in the switch coefficient
and alpha), plus log v's and the density's own terms on the exact rows; mu
and log sigma need only q and r (`baseline.BaselineTerms`). Every
parameter-free array is built once, in `Prepared` and its
`covproc.TimeBasis`, and eta = X @ coef from `ModelSpec.split_beta` on
every call, so this module holds no copy of V, the baseline or the linear
predictor. Priors are flat on beta, alpha and mu, Gamma(a_sigma, b_sigma)
on sigma, and for Bernstein-transformed baselines symmetric
Dirichlet(theta) on the weights with a Gamma(a_theta, b_theta) hyperprior
on theta.

The sampler works on an unconstrained vector z laid out as

    [beta | alpha | mu | log sigma | stick-breaking coords of w | log theta]

with the standard logistic stick-breaking transform (offset log(K - k) at
stick k so the origin maps to uniform weights) and its log-Jacobian added
to the posterior. For a piecewise effect after a switch the alpha block
is zeta = log(1 - D alpha), with D from `covproc.is_monotone`, so every
finite zeta gives an increasing V: alpha = D^{-1}(1 - exp(zeta)), the
log-Jacobian is sum zeta, and the prior stays flat on alpha. One pass,
`_constrain_pass`, maps z to the constrained parameters, the log-Jacobian
and the stick values; `constrain`, `log_jacobian` and the posterior all
call it. Every gradient component is pinned against central finite
differences in the test suite.

Contributions are computed in log space throughout; one below -745 (where
a double underflows) is declared -inf, which the sampler treats as a
rejection. Spline transforms that `covproc.is_monotone` finds
non-increasing anywhere on t > 0 (no other effect can be, at a finite z),
and proposals whose constrained values overflow or underflow (where
`constrain` raises a DomainError naming the coordinate), are likewise
rejected by returning -inf.

The stick transform (log-sigmoids from `np.logaddexp`, its inverse from
suffix sums of w) and the Dirichlet normaliser (`math.lgamma`, inf where it
would overflow) need no scipy; `scipy.special.digamma` is imported on first
use, by the gradient in log theta only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import baseline as bl
from .covproc import TimeBasis, is_monotone, transform
from .data import Dataset
from .errors import DomainError, NumericalError
from .model import ModelSpec

__all__ = [
    "PriorSpec",
    "ParameterVector",
    "pointwise_loglik_matrix",
    "log_posterior_unconstrained",
    "grad_log_posterior",
    "make_posterior",
    "constrain",
    "unconstrain",
    "log_jacobian",
    "constrained_array",
    "psi_from_constrained",
]

LOG_FLOOR = -745.0


@dataclass(frozen=True)
class PriorSpec:
    """Gamma hyperparameters for sigma and (tbp only) theta; regression
    and location parameters carry flat priors."""

    a_sigma: float = 0.3
    b_sigma: float = 0.05
    a_theta: float = 1.0
    b_theta: float = 1.0

    def __post_init__(self):
        for name in ("a_sigma", "b_sigma", "a_theta", "b_theta"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise DomainError(f"prior {name} must be > 0, got {v}")


@dataclass(frozen=True)
class ParameterVector:
    beta: np.ndarray
    alpha: np.ndarray
    mu: float
    sigma: float
    w: np.ndarray | None = None
    theta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "alpha",
                           np.asarray(self.alpha, dtype=float).reshape(-1))
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"sigma must be > 0, got {self.sigma}")
        if self.w is not None:
            object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if self.theta is not None and not (np.isfinite(self.theta) and self.theta > 0):
            raise DomainError(f"theta must be > 0, got {self.theta}")

    def baseline_params(self) -> bl.BaselineParams:
        return bl.BaselineParams(self.mu, self.sigma)

    def tbp_weights(self) -> bl.TBPWeights | None:
        if self.w is None:
            return None
        return bl.TBPWeights(tuple(self.w))


def check_psi(model: ModelSpec, psi: ParameterVector) -> None:
    if psi.beta.size != model.n_beta:
        raise DomainError(f"beta has length {psi.beta.size}, "
                          f"expected {model.n_beta}")
    if psi.alpha.size != model.J:
        raise DomainError(f"alpha has length {psi.alpha.size}, expected {model.J}")
    if model.baseline.is_tbp:
        if psi.w is None or psi.theta is None:
            raise DomainError("tbp baseline requires w and theta")
        if psi.w.size != model.K:
            raise DomainError(f"w has length {psi.w.size}, expected {model.K}")
        psi.tbp_weights()  # raises off the simplex, by the rule of TBPWeights
    elif psi.w is not None or psi.theta is not None:
        raise DomainError("w/theta supplied for a non-tbp baseline")


# -- constrained <-> unconstrained -----------------------------------------

def _stick_forward(y: np.ndarray):
    """Stick-breaking y in R^(K-1) -> simplex w in R^K, plus the logistic
    values z_k and the log-Jacobian of the transform. The weights and the
    log-Jacobian come from the log stick lengths, so a saturated stick
    (1 - z_k far below machine precision) keeps every later weight to full
    relative precision, the log-Jacobian is finite for every finite y, and
    weights underflow to 0 instead of raising."""
    x = y - _stick_offsets(y.size)
    log_z = -np.logaddexp(0.0, -x)
    log_1mz = -np.logaddexp(0.0, x)
    log_stick = np.zeros(y.size + 1)  # log of the stick before k
    log_1mz.cumsum(out=log_stick[1:])
    log_w = log_stick + np.concatenate([log_z, [0.0]])
    logjac = float((log_z + log_1mz + log_stick[:-1]).sum())
    return np.exp(log_w), np.exp(log_z), logjac


@functools.lru_cache(maxsize=None)
def _stick_offsets(n: int) -> np.ndarray:
    """log(K - k), k = 1..K-1, for n = K - 1 sticks (shared)."""
    out = np.log(np.arange(n, 0, -1, dtype=float))
    out.flags.writeable = False
    return out


def _stick_inverse(w: np.ndarray) -> np.ndarray:
    """The inverse of `_stick_forward`: y_k = logit(w_k / stick_k) plus the
    offset, with the stick before k taken as the suffix sum of w, so that
    the logit is log w_k - log sum_{j>k} w_j, with no cancellation."""
    suffix = np.cumsum(w[::-1])[::-1]  # suffix[k] = sum_{j >= k} w_j
    with np.errstate(divide="ignore"):
        return np.log(w[:-1]) - np.log(suffix[1:]) + _stick_offsets(w.size - 1)


def _zeta_rows(model: ModelSpec):
    """(D, D^{-1}) of a piecewise switch effect, whose alpha block of z is
    zeta = log(1 - D alpha); None for every other effect."""
    if model.time_varying and model.effect.kind == "piecewise":
        return model.effect.knot_rows
    return None


def unconstrain(model: ModelSpec, psi: ParameterVector) -> np.ndarray:
    check_psi(model, psi)
    alpha, rows = psi.alpha, _zeta_rows(model)
    if rows is not None:
        d = rows[0] @ alpha
        if not np.all(d < 1.0):
            raise DomainError(f"alpha = {alpha} is outside the monotone set "
                              f"D alpha < 1 (D alpha = {d})")
        alpha = np.log1p(-d)
    parts = [psi.beta, alpha, [psi.mu], [math.log(psi.sigma)]]
    if model.baseline.is_tbp:
        parts += [_stick_inverse(psi.w), [math.log(psi.theta)]]
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])


def _positive(name: str, v) -> float:
    """exp(v) for a log scale v; a DomainError naming it where exp(v)
    overflows or underflows."""
    try:
        e = math.exp(v)
    except OverflowError:
        e = math.inf
    if e == 0.0 or e == math.inf:
        raise DomainError(f"{name} = {v:g} "
                          f"{'overflows' if e else 'underflows'} on the "
                          "constrained scale")
    return e


def _constrain_pass(model: ModelSpec, z: np.ndarray):
    """The constraining transform in one pass: (beta, alpha, mu, sigma, w,
    theta, log-Jacobian, stick values z_k), with beta a view of z, alpha
    too unless it is D^{-1}(1 - exp(zeta)) (see `_zeta_rows`), and w,
    theta and z_k None for a non-tbp baseline. A value that cannot be
    represented (alpha, sigma or theta overflowing or underflowing, a
    weight below 1e-300) raises a DomainError naming its coordinate."""
    nb, J = model.n_beta, model.J
    if z.shape != (model.n_unconstrained,):
        raise DomainError(f"z has shape {z.shape}, expected "
                          f"({model.n_unconstrained},)")
    logsigma = z[nb + J + 1]
    logjac = float(logsigma)
    alpha, rows = z[nb:nb + J], _zeta_rows(model)
    if rows is not None:  # |d alpha / d zeta| = prod exp(zeta), as det D = 1
        logjac += sum(alpha.tolist())
        alpha = rows[1] @ -np.expm1(alpha)
        if not math.isfinite(sum(alpha.tolist())):
            raise DomainError(f"zeta = {z[nb:nb + J]} overflows alpha")
    w = theta = zk = None
    if model.baseline.is_tbp:
        K = model.K
        sticks = z[nb + J + 2:nb + J + 1 + K]
        w, zk, lj = _stick_forward(sticks)
        if w.min() < 1e-300:
            raise DomainError(f"stick coordinates {sticks} put weight "
                              f"w_{int(np.argmax(w < 1e-300)) + 1} "
                              "below 1e-300")
        logtheta = z[nb + J + 1 + K]
        logjac += lj + float(logtheta)
    sigma = _positive("log sigma", logsigma)
    if w is not None:
        theta = _positive("log theta", logtheta)
    return z[:nb], alpha, float(z[nb + J]), sigma, w, theta, logjac, zk


def constrain(model: ModelSpec, z: np.ndarray) -> ParameterVector:
    with np.errstate(over="ignore"):
        beta, alpha, mu, sigma, w, theta, _, _ = _constrain_pass(
            model, np.asarray(z, dtype=float))
    return ParameterVector(beta.copy(), alpha.copy(), mu, sigma, w, theta)


def log_jacobian(model: ModelSpec, z: np.ndarray) -> float:
    """log |d constrained / d z| of the constraining transform."""
    with np.errstate(over="ignore"):
        return _constrain_pass(model, np.asarray(z, dtype=float))[6]


def constrained_array(model: ModelSpec, psi: ParameterVector) -> np.ndarray:
    """Constrained parameters flattened in `model.param_names` order."""
    check_psi(model, psi)
    parts = [psi.beta, psi.alpha, [psi.mu, psi.sigma]]
    if model.baseline.is_tbp:
        parts += [psi.w, [psi.theta]]
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])


def psi_from_constrained(model: ModelSpec, arr) -> ParameterVector:
    arr = np.asarray(arr, dtype=float)
    nb, J = model.n_beta, model.J
    w = theta = None
    if model.baseline.is_tbp:
        w = arr[nb + J + 2:nb + J + 2 + model.K]
        w = w / w.sum()
        theta = float(arr[-1])
    return ParameterVector(arr[:nb], arr[nb:nb + J], float(arr[nb + J]),
                           float(arr[nb + J + 1]), w, theta)


# -- prepared data -----------------------------------------------------------

class Prepared:
    """Dataset digested for repeated likelihood/gradient evaluation.

    Every time point the likelihood needs is stacked into one vector of
    row blocks

        exact | interval-lower | right | interval-upper | truncation,

    so the first n rows hold one row per subject (`main`), and a single
    transform basis covers them all, with slope parts on the exact rows.
    Everything that does not depend on the parameters is kept here: the row
    weights c = d ll_total / d(row term) (+1, -1 on truncation rows; interval
    rows take theirs from the parameters), the exact rows' indicator,
    -[X' | 1], and the constants of the baseline and the transforms."""

    def __init__(self, model: ModelSpec, data: Dataset):
        self.n = n = data.n
        ev = data.event
        fin_u = np.isfinite(data.y_upper)
        exact = np.where(ev)[0]
        interval = np.where(~ev & fin_u)[0]
        right = np.where(~ev & ~fin_u)[0]
        idx_trunc = np.where(data.trunc > 0)[0]
        main = np.concatenate([exact, interval, right])
        rows = np.concatenate([main, interval, idx_trunc])
        t = np.concatenate([data.y_lower[main], data.y_upper[interval],
                            data.trunc[idx_trunc]])
        self.n_exact = ne = exact.size
        self.has_interval = interval.size > 0
        self.lo = slice(ne, ne + interval.size)           # interval-lower rows
        self.hi = slice(n, n + interval.size)             # interval-upper rows
        self.tr = slice(n + interval.size, None)          # truncation rows
        # each subject's main row, and the main rows of truncated subjects
        self.subject_rows = np.empty(n, dtype=int)
        self.subject_rows[main] = np.arange(n)
        self.trunc_rows = self.subject_rows[idx_trunc]
        X = model.design(data)[rows]
        self.Xt = np.ascontiguousarray(X.T)
        self.neg_xt1 = -np.vstack([self.Xt, np.ones(len(t))])  # coef, mu
        self.c = np.ones(len(t))
        self.c[self.tr] = -1.0
        self.exact = (np.arange(len(t)) < ne) * 1.0
        # the exposure value that scales alpha on each row (0.0 where none)
        _, self.x1, _ = model.predictor(np.zeros(model.n_beta), X)
        onset = data.onset[rows] if model.time_varying else None
        self.basis = TimeBasis(model.effect, t, onset, self.x1, n_slope=ne)

        # the extreme exposure values of the monotonicity rule, which is
        # linear in x1 (after a switch `is_monotone` takes x1 = 1)
        self.x1_range = np.array([np.min(self.x1, initial=0.0),
                                  np.max(self.x1, initial=0.0)])
        self.eps = bl.log_sigma_sign(model.baseline)
        self.zeta_rows = _zeta_rows(model)
        self.stick_ramp = np.arange(model.K, 1, -1.0)  # K + 1 - k

    def eta(self, coef: np.ndarray) -> np.ndarray:
        """x'coef on every row; one data column is a scaled copy. A block
        of draws, coef of shape (d, D), gives shape (rows, D)."""
        if coef.ndim == 2:
            return self.Xt.T @ coef
        if coef.size == 1:
            return coef[0] * self.Xt[0]
        return coef @ self.Xt


def prepare(model: ModelSpec, data: Dataset) -> Prepared:
    return Prepared(model, data)


# -- likelihood ---------------------------------------------------------------

def _pointwise(model, prep, beta, alpha, mu, sigma, w, want_grad):
    """Log-likelihood contributions in one pass over the stacked rows, one
    per subject in the order of the main rows (`prep.subject_rows` maps a
    subject to its entry), and, when asked for, the gradient of the total
    in the blocks (b1, coef, alpha, mu, log sigma, w). Without the
    gradient the parameters may be a block of D draws, on a trailing axis
    (beta and alpha (k, D), mu and sigma (D,), w (K, D)), which the
    contributions keep: shape (n, D). Callers suppress the warnings of
    extreme proposals and reject non-finite contributions."""
    n, ne = prep.n, prep.n_exact
    coef, b1 = model.split_beta(beta)
    tt = transform(prep.basis, alpha, prep.eta(coef), b1, logv=True,
                   grad=want_grad)
    bt = bl.log_terms(model.baseline, mu, sigma, w, tt.u, n_pdf=ne,
                      grad=want_grad)
    val = bt.val
    val[:ne] += tt.logv
    ll = val[:n]
    c = prep.c
    if prep.has_interval:
        # log[S(y_l) - S(y_u)] = log S(y_l) + log(1 - S(y_u)/S(y_l)), with
        # log(1 - e^delta) stable near both ends
        lower = val[prep.lo]
        delta = val[prep.hi] - lower
        bad = delta >= 0
        delta = np.where(bad, -1e-300, delta)
        ratio, gap = np.exp(delta), -np.expm1(delta)
        ll[prep.lo] = np.where(bad, -np.inf, lower + np.where(
            delta < math.log(0.5), np.log1p(-ratio), np.log(gap)))
        if want_grad:
            q1 = 1.0 / gap
            c = c.copy()
            c[prep.lo] = q1
            c[prep.hi] = -ratio * q1
    ll[prep.trunc_rows] -= val[prep.tr]
    if not want_grad:
        return ll, None

    # d ll_total / d(row term) is c, and a row term's partial in a
    # parameter of u is q dlog u/d(it), dlog u/deta being -1. The exact
    # rows weigh one more in eta, mu and log sigma, for log v's -eta and f0's
    # own -1 and eps (r + 1) (`baseline.BaselineTerms`)
    cq = c * bt.q
    ce = cq + prep.exact
    g_coef_mu = prep.neg_xt1 @ ce
    g_ls = prep.eps * (ce @ bt.r + ne)
    g_theta = (cq * tt.dlu_factor) @ tt.du_matrix + tt.dlv
    g_w = c @ bt.d_dw if bt.d_dw is not None else None
    nb1 = prep.basis.n_b1
    return ll, (g_theta[:nb1], g_coef_mu[:-1], g_theta[nb1:], g_coef_mu[-1],
                g_ls, g_w)


def _by_subject(prep: Prepared, ll: np.ndarray, first_draw: int):
    """`_pointwise` contributions of a block of draws in subject order,
    draws first, with -inf below LOG_FLOOR; NaN raises a numerical error
    naming the draw (the block's first is `first_draw`) and the subject."""
    ll = ll[prep.subject_rows].T
    ll[ll < LOG_FLOOR] = -np.inf
    bad = np.isnan(ll)
    if not bad.any():
        return ll
    m, i = map(int, np.argwhere(bad)[0])
    raise NumericalError(f"non-finite log-likelihood at draw {first_draw + m}"
                         f", subject {i}", draw=first_draw + m, subject=i)


BLOCK = 32768  # entries of u per block of draws, sized by time


@functools.cache
def heap_policy() -> None:
    """Raise glibc's mmap and trim thresholds to 256 MiB, once per process,
    so that a block's arrays come from the heap and keep their pages for
    the next block, rather than being mapped and faulted in afresh. Only
    the public post-processing functions call it; it changes no
    arithmetic, and without glibc's mallopt it does nothing."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
    for param in (-1, -3):  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
        mallopt(param, 256 << 20)


def _draw_block(model: ModelSpec, rows: np.ndarray, first: int):
    """(beta, alpha, mu, sigma, w) of constrained draws `rows` (one per
    row, in `model.param_names` order), each with a trailing axis of
    draws, and w normalised as `psi_from_constrained` does. A draw that
    `check_psi` would reject raises its DomainError, naming the draw."""
    nb, J = model.n_beta, model.J
    if rows.shape[1] != len(model.param_names):
        raise DomainError(f"draws have {rows.shape[1]} columns, expected "
                          f"{len(model.param_names)}")
    cols = np.ascontiguousarray(rows.T)
    mu, sigma = cols[nb + J], cols[nb + J + 1]
    ok = np.isfinite(sigma) & (sigma > 0)
    w = None
    if model.baseline.is_tbp:
        w, theta = cols[nb + J + 2:-1], cols[-1]
        with np.errstate(all="ignore"):
            w = w / w.sum(axis=0)
            ok &= (np.isfinite(theta) & (theta > 0) & np.isfinite(w).all(0)
                   & (w >= 0).all(0) & (np.abs(w.sum(axis=0) - 1.0) <= 1e-12))
    for m in np.flatnonzero(~ok):  # the scalar checks raise for the first
        try:
            check_psi(model, psi_from_constrained(model, rows[m]))
        except DomainError as err:
            raise DomainError(f"draw {first + m}: {err}") from None
    return cols[:nb], cols[nb:nb + J], mu, sigma, w


def pointwise_loglik_matrix(model: ModelSpec, constrained, data) -> np.ndarray:
    """(draws, subjects) log-likelihood contributions of constrained draws
    (one per row, in `model.param_names` order), with -inf for
    zero-likelihood entries; NaN raises a numerical error naming the draw
    and the subject. The draws go through `_pointwise` in blocks of about
    BLOCK entries of u, a partition set by the number of rows and draws
    alone."""
    heap_policy()
    constrained = np.atleast_2d(np.asarray(constrained, dtype=float))
    prep = data if isinstance(data, Prepared) else prepare(model, data)
    M = len(constrained)
    n_blocks = -(-M * len(prep.basis.t) // BLOCK) or 1
    step = -(-M // n_blocks) or 1
    out = np.empty((M, prep.n))
    for first in range(0, M, step):
        params = _draw_block(model, constrained[first:first + step], first)
        with np.errstate(all="ignore"):
            ll, _ = _pointwise(model, prep, *params, want_grad=False)
        out[first:first + step] = _by_subject(prep, ll, first)
    return out


# -- priors -------------------------------------------------------------------

def _gamma_logpdf(x, a, b):
    return a * math.log(b) - math.lgamma(a) + (a - 1.0) * math.log(x) - b * x


def _lgamma(x: float) -> float:
    """math.lgamma, but inf where the result overflows instead of raising."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _log_prior(model: ModelSpec, sigma: float, w, theta, priors: PriorSpec):
    out = _gamma_logpdf(sigma, priors.a_sigma, priors.b_sigma)
    if model.baseline.is_tbp:
        # a huge theta makes the normaliser inf or NaN, not an error; the
        # caller rejects the non-finite result
        K = model.K
        out += (_lgamma(K * theta) - K * _lgamma(theta)
                + (theta - 1.0) * float(np.sum(np.log(w))))
        out += _gamma_logpdf(theta, priors.a_theta, priors.b_theta)
    return out


# -- posterior ---------------------------------------------------------------

def _posterior_impl(model, z, prep, priors, want_grad: bool):
    """(log posterior, gradient) at z; (-inf, None) rejects a proposal that
    has no finite posterior or cannot be represented (an overflowing scale,
    an underflowing weight), and (value, None) flags a non-finite gradient.
    The parameters come from `_constrain_pass`, with no `ParameterVector`;
    the arithmetic warnings of the whole call are suppressed here, once."""
    z = np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        if not np.isfinite(z).all():
            return -math.inf, None
        try:
            beta, alpha, mu, sigma, w, theta, logjac, zk = _constrain_pass(
                model, z)
        except DomainError:
            return -math.inf, None
        # only a spline effect can decrease at a finite alpha from z
        if model.effect.kind == "spline" and not is_monotone(
                model.effect, alpha, prep.x1_range, model.time_varying):
            return -math.inf, None
        ll, grad = _pointwise(model, prep, beta, alpha, mu, sigma, w,
                              want_grad)
        # a contribution below LOG_FLOOR or NaN rejects here, +inf below
        if not np.minimum.reduce(ll, initial=math.inf) >= LOG_FLOOR:
            return -math.inf, None

        total = (float(np.add.reduce(ll))
                 + _log_prior(model, sigma, w, theta, priors) + logjac)
        if not math.isfinite(total):
            return -math.inf, None
        if not want_grad:
            return total, None

        g_b1, g_coef, g_alpha, g_mu, g_ls, g_w = grad
        if prep.zeta_rows is not None:
            zeta = z[model.n_beta:model.n_beta + model.J]
            g_alpha = 1.0 - np.exp(zeta) * (g_alpha @ prep.zeta_rows[1])
        # d/dlog sigma: chain through likelihood, Gamma prior, and Jacobian
        parts = [g_b1, g_coef, g_alpha, (g_mu, g_ls + (priors.a_sigma - 1.0)
                                         - priors.b_sigma * sigma + 1.0)]
        if w is not None:
            # map d/dw onto the stick-breaking coordinates:
            #   dL/dy_k = g_w[k] w_k (1 - z_k) - z_k * sum_{j>k} g_w[j] w_j
            # plus d/dy_k of the Jacobian, 1 - z_k (K + 1 - k)
            K = model.K
            c = (g_w + (theta - 1.0) / w) * w
            suffix = c[::-1].cumsum()[::-1]  # suffix[k] = sum_{j>=k} c_j
            gy = (c[:K - 1] * (1.0 - zk) - zk * (suffix[1:] + prep.stick_ramp)
                  + 1.0)
            from scipy.special import digamma
            dtheta = (K * digamma(K * theta) - K * digamma(theta)
                      + float(np.log(w).sum()))
            parts += [gy, (theta * dtheta + (priors.a_theta - 1.0)
                           - priors.b_theta * theta + 1.0,)]
        gz = np.concatenate(parts)
        return (total, gz) if np.isfinite(gz).all() else (total, None)


def log_posterior_unconstrained(model: ModelSpec, z, data,
                                priors: PriorSpec) -> float:
    """loglik + log prior + log transform Jacobian at unconstrained z;
    -inf encodes rejection (non-monotone transform or zero likelihood)."""
    prep = data if isinstance(data, Prepared) else prepare(model, data)
    val, _ = _posterior_impl(model, z, prep, priors, want_grad=False)
    return val


def grad_log_posterior(model: ModelSpec, z, data, priors: PriorSpec) -> np.ndarray:
    """Gradient of `log_posterior_unconstrained` with respect to z."""
    prep = data if isinstance(data, Prepared) else prepare(model, data)
    val, g = _posterior_impl(model, z, prep, priors, want_grad=True)
    if not math.isfinite(val):
        raise NumericalError("log-posterior is not finite at z", value=val)
    if g is None:
        raise NumericalError("non-finite gradient", value=val)
    return g


class _LogPosterior:
    """f(z) -> (logp, grad) over prepared data; grad is zeros when
    logp = -inf. An object rather than a closure, so that it pickles and a
    sampler target holding it can be sent to worker processes."""

    def __init__(self, model: ModelSpec, prep: Prepared, priors: PriorSpec):
        self.model, self.prep, self.priors = model, prep, priors

    def __call__(self, z):
        val, g = _posterior_impl(self.model, z, self.prep, self.priors,
                                 want_grad=True)
        if g is None:
            return -math.inf, np.zeros(self.model.n_unconstrained)
        return val, g


def make_posterior(model: ModelSpec, data, priors: PriorSpec):
    """Bind (model, data, priors) into a fast logp-and-gradient callable for
    the sampler: f(z) -> (logp, grad); grad is zeros when logp = -inf."""
    prep = prepare(model, data)
    return _LogPosterior(model, prep, priors), prep
