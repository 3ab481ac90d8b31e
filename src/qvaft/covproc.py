"""The time transform V(t|x), its derivative v, and its inverse.

V maps a subject's time axis onto the baseline distribution and comes in
three flavours, all reducing to the classic accelerated-failure-time
transform t * exp(-x'beta) when the flexible coefficients alpha are zero:

* constant:   V(t|x) = t * exp(-x'beta)

* piecewise:  an increasing piecewise-linear function with breakpoints
  tau = (0, tau_1, ..., tau_J),

      V(t|x) = exp(-x'beta) * [min(t, tau_1)
                + sum_j exp(-x1 * alpha_j) * (min(t, tau_{j+1}) - tau_j)_+],

  i.e. slope exp(-x'beta) before tau_1 and exp(-x'beta - x1*alpha_j) on
  [tau_j, tau_{j+1}). Its inverse is again piecewise linear and is
  computed in closed form from the transformed breakpoints V(tau_j).

* spline:     V(t|x) = t * exp(-x'beta - x1 * sum_j alpha_j B_j(log t))
  with a natural cubic spline basis B on the log-time axis (linear term
  plus one restricted cubic per internal knot; linear beyond the boundary
  knots). The inverse is found by bisection on the log-time axis.

A binary time-varying covariate switching 0 -> 1 at time t_x induces

    V(t) = exp(-x'beta) * [min(t, t_x)
            + (t - t_x)_+ * exp(-b1 - sum_k alpha_k B_k(t - t_x))],

with the flexible basis evaluated on the time-since-switch axis (the
piecewise basis B_k(s) = (min(s, tau_{k+1}) - tau_k)_+ / s, or the spline
basis at log(s)). The covariate has not yet switched at t == t_x.

Derivatives at piecewise breakpoints use the right-hand limit so the
likelihood is deterministic for observations landing exactly on a knot.

V and log v have one implementation, `transform`. It reads a `TimeBasis`,
the part of V that depends only on the times (and switch times), which
the likelihood builds once per dataset, and returns V, log v and their
partials in alpha and the switch coefficient. `v_value`, `v_deriv`,
`tv_v_value`, the likelihood and the g-formula time profile are thin
callers of it. The inverses stay separate: closed form where one exists,
bisection otherwise. All functions are pure and accept scalar or ndarray
time arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "EffectSpec",
    "TimeVaryingCovariate",
    "v_value",
    "v_deriv",
    "v_inverse",
    "tv_v_value",
    "tv_v_inverse",
    "monotonicity_check",
    "tv_monotonicity_check",
    "spline_basis",
    "spline_basis_deriv",
]

EFFECT_KINDS = ("constant", "piecewise", "spline")


@dataclass(frozen=True)
class EffectSpec:
    """Shape of the flexible effect: kind plus its knot vector.

    Piecewise knots are on the natural time axis and must start at 0;
    spline knots are boundary-plus-internal locations on the log-time
    axis (or log time-since-switch for time-varying effects). The number
    of alpha coefficients is ``J``: len(knots) - 1 for either flexible
    kind, 0 for constant.
    """

    kind: str
    knots: tuple = ()

    def __post_init__(self):
        if self.kind not in EFFECT_KINDS:
            raise DomainError(f"unknown effect kind {self.kind!r}")
        knots = tuple(float(k) for k in self.knots)
        object.__setattr__(self, "knots", knots)
        arr = np.asarray(knots, dtype=float)
        if self.kind == "constant":
            if arr.size:
                raise DomainError("constant effect takes no knots")
            return
        if arr.size < 2:
            raise DomainError(f"{self.kind} effect needs at least 2 knots")
        if not np.all(np.isfinite(arr)):
            raise DomainError("knots must be finite")
        if np.any(np.diff(arr) <= 0):
            raise DomainError(f"knots must be strictly increasing: {knots}")
        if self.kind == "piecewise" and arr[0] != 0.0:
            raise DomainError("piecewise knots must start at 0")

    @property
    def J(self) -> int:
        return 0 if self.kind == "constant" else len(self.knots) - 1

    def knot_array(self) -> np.ndarray:
        return np.asarray(self.knots, dtype=float)


@dataclass(frozen=True)
class TimeVaryingCovariate:
    """Switch time of a binary step covariate; +inf means never switches."""

    change_time: float

    def __post_init__(self):
        if np.isnan(self.change_time) or self.change_time <= 0:
            raise DomainError(
                f"change time must be > 0 (or +inf), got {self.change_time}")


def _check_alpha(spec: EffectSpec, alpha) -> np.ndarray:
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if spec.kind == "constant" and alpha.size == 0:
        return alpha
    if alpha.size != spec.J:
        raise DomainError(f"alpha has length {alpha.size}, expected {spec.J}")
    return alpha


def _linpred(beta, x) -> float:
    beta = np.asarray(beta, dtype=float)
    x = np.asarray(x, dtype=float)
    if beta.shape != x.shape:
        raise DomainError(f"beta shape {beta.shape} != x shape {x.shape}")
    return float(x @ beta) if beta.size else 0.0


# -- natural cubic spline basis -------------------------------------------

def spline_basis(knots, u):
    """Natural cubic spline basis on knots k_1 < ... < k_m, evaluated at u.

    Column 0 is the identity; column i is the restricted cubic for
    internal knot k_{i+1},

        (u - k)_+^3 - lam*(u - k_1)_+^3 - (1 - lam)*(u - k_m)_+^3,

    lam = (k_m - k)/(k_m - k_1), which is linear outside [k_1, k_m].
    Returns shape u.shape + (m - 1,).
    """
    knots = np.asarray(knots, dtype=float)
    u = np.asarray(u, dtype=float)
    cols = [u]
    k1, km = knots[0], knots[-1]
    for k in knots[1:-1]:
        lam = (km - k) / (km - k1)
        cols.append(_pcub(u, k) - lam * _pcub(u, k1) - (1 - lam) * _pcub(u, km))
    return np.stack(cols, axis=-1)


def spline_basis_deriv(knots, u):
    """Derivative of `spline_basis` with respect to u, same shape."""
    knots = np.asarray(knots, dtype=float)
    u = np.asarray(u, dtype=float)
    cols = [np.ones_like(u)]
    k1, km = knots[0], knots[-1]
    for k in knots[1:-1]:
        lam = (km - k) / (km - k1)
        cols.append(3 * (_psq(u, k) - lam * _psq(u, k1) - (1 - lam) * _psq(u, km)))
    return np.stack(cols, axis=-1)


def _pcub(u, k):
    d = np.maximum(u - k, 0.0)
    return d * d * d


def _psq(u, k):
    d = np.maximum(u - k, 0.0)
    return d * d


# -- piecewise pieces ------------------------------------------------------

def piecewise_terms(knots: np.ndarray, t):
    """Leading segment min(t, tau_1) and the J capped segment lengths
    (min(t, tau_{j+1}) - tau_j)_+ with tau_{J+1} = +inf."""
    t = np.asarray(t, dtype=float)
    upper = np.append(knots[2:], np.inf)        # tau_{j+1} for j = 1..J
    lead = np.minimum(t, knots[1])
    terms = np.maximum(np.minimum(t[..., None], upper) - knots[1:], 0.0)
    return lead, terms


def piecewise_segment(knots: np.ndarray, t):
    """0-based segment index of t, right-continuous at the knots:
    0 on [0, tau_1), j on [tau_j, tau_{j+1})."""
    t = np.asarray(t, dtype=float)
    return np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 1)


# -- time-varying basis on the time-since-switch axis ----------------------

def tv_basis(effect: EffectSpec, s):
    """Flexible-effect basis at time-since-switch s > 0, shape s.shape + (J,)."""
    s = np.asarray(s, dtype=float)
    if effect.kind == "piecewise":
        knots = effect.knot_array()
        _, terms = piecewise_terms(knots, s)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(s[..., None] > 0, terms / s[..., None], 0.0)
    return spline_basis(effect.knot_array(), np.log(s))


def tv_basis_sderiv(effect: EffectSpec, s):
    """s * d/ds of `tv_basis`, shape s.shape + (J,)."""
    s = np.asarray(s, dtype=float)
    if effect.kind == "piecewise":
        knots = effect.knot_array()
        seg = piecewise_segment(knots, s)
        active = seg[..., None] == np.arange(1, len(knots))
        return active.astype(float) - tv_basis(effect, s)
    return spline_basis_deriv(effect.knot_array(), np.log(s))


# -- the evaluator: V and log v with parameter partials ----------------------

def _lead(a, k):
    """The first k rows of a per-row array; scalars and k = None pass through."""
    return a if k is None or np.ndim(a) == 0 else a[:k]


class TimeBasis:
    """Everything in V(t) that depends on the times t (and, for a binary
    time-varying covariate, its switch times `onset`) but not on the
    parameters, so it is computed once and reused by `transform`.

    The slope parts that only log v needs (`seg`, `Bp`, `sBp`) cover the
    leading `n_slope` rows of t (None: all rows) and are built on first use.
    """

    def __init__(self, effect: EffectSpec | None, t, onset=None,
                 n_slope: int | None = None):
        t = np.asarray(t, dtype=float)
        self.effect = effect
        self.kind = "constant" if effect is None else effect.kind
        self.t = t
        self.tv = onset is not None
        self.n_slope = n_slope
        if self.tv:
            self.post = t > onset
            self.min_t = np.minimum(t, onset)
            self.s = np.where(self.post, t - onset, 1.0)
            if self.kind != "constant":  # the basis only acts after a switch
                self.B = (tv_basis(effect, self.s) if self.post.any()
                          else np.zeros(t.shape + (effect.J,)))
        elif self.kind == "piecewise":
            self.lead, self.terms = piecewise_terms(effect.knot_array(), t)
        elif self.kind == "spline":
            with np.errstate(divide="ignore"):
                self.B = spline_basis(effect.knot_array(), np.log(t))

    @cached_property
    def seg(self):
        return piecewise_segment(self.effect.knot_array(),
                                 _lead(self.t, self.n_slope))

    @cached_property
    def Bp(self):
        return spline_basis_deriv(self.effect.knot_array(),
                                  np.log(_lead(self.t, self.n_slope)))

    @cached_property
    def sBp(self):
        return tv_basis_sderiv(self.effect, _lead(self.s, self.n_slope))


class TransformTerms:
    """u = V(t) and, when asked for, log v(t) on the slope rows, with their
    partials in the switch coefficient b1 and in alpha. Partials in the
    linear predictor eta = x'beta are not stored: du/deta = -u and
    dlog v/deta = -1 for every kind. `ok` is False when V is not
    increasing at some slope row; log v is -inf there (v clamped at 0)."""

    __slots__ = ("u", "du_db1", "du_dalpha", "logv", "dlv_db1", "dlv_dalpha",
                 "ok")

    def __init__(self):
        self.du_db1 = self.du_dalpha = self.logv = None
        self.dlv_db1 = self.dlv_dalpha = None
        self.ok = True


def transform(basis: TimeBasis, alpha: np.ndarray, eta=0.0, x1=0.0, b1=0.0,
              logv: bool = False, grad: bool = False) -> TransformTerms:
    """The one evaluator of V(t|x) (and log v) for every effect kind.

    `eta` is x'beta (time-invariant covariates only for time-varying
    models), `x1` the exposure value that multiplies alpha (ordinary
    flexible kinds), `b1` the switch coefficient (time-varying models);
    each is a scalar or one value per row of the basis. Extreme parameter
    values may overflow; the likelihood, which meets them, suppresses the
    floating-point warnings around its call.
    """
    out = TransformTerms()
    k, kind, J = basis.n_slope, basis.kind, alpha.size
    scale = np.exp(-eta)
    if basis.tv:
        a = 0.0 if kind == "constant" else basis.B @ alpha
        bump = np.where(basis.post, basis.s * np.exp(-b1 - a), 0.0)
        out.u = scale * (basis.min_t + bump)
        if grad:
            out.du_db1 = -scale * bump
            out.du_dalpha = (out.du_db1[..., None] * basis.B if J
                             else np.zeros(out.u.shape + (0,)))
        if logv:
            post = _lead(basis.post, k)
            one_minus = 1.0
            if kind != "constant":
                one_minus = np.where(post, 1.0 - basis.sBp @ alpha, 1.0)
                out.ok = bool(np.all(one_minus > 0.0))
            out.logv = -_lead(eta, k) + np.where(
                post, -b1 - _lead(a, k) + np.log(np.maximum(one_minus, 0.0)),
                0.0)
            if grad:
                out.dlv_db1 = -post.astype(float)
                out.dlv_dalpha = (
                    np.where(post[..., None], -_lead(basis.B, k)
                             - basis.sBp / one_minus[..., None], 0.0) if J
                    else np.zeros(post.shape + (0,)))
        return out

    if kind == "constant":
        out.u = basis.t * scale
        if grad:
            out.du_dalpha = np.zeros(out.u.shape + (0,))
        if logv:
            out.logv = np.zeros(_lead(basis.t, k).shape) - _lead(eta, k)
            if grad:
                out.dlv_dalpha = np.zeros(out.logv.shape + (0,))
        return out

    x1 = np.asarray(x1, dtype=float)
    x1s = _lead(x1, k)
    if kind == "piecewise":
        E = np.exp(-x1[..., None] * alpha)  # segment slope factors
        if E.ndim == 1:                      # one exposure value for all rows
            out.u = scale * (basis.lead + basis.terms @ E)
        else:
            out.u = scale * (basis.lead + (E * basis.terms) @ np.ones(J))
        if grad:
            out.du_dalpha = -(scale * x1)[..., None] * E * basis.terms
        if logv:
            alpha_seg = np.concatenate([[0.0], alpha])[basis.seg]
            out.logv = -_lead(eta, k) - x1s * alpha_seg
            if grad:
                out.dlv_dalpha = -x1s[..., None] * (
                    basis.seg[..., None] == np.arange(1, J + 1))
        return out

    # spline; at t = 0 the log-time basis is -inf and V is 0 by definition
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = basis.B @ alpha
        out.u = np.where(basis.t > 0, basis.t * np.exp(-eta - x1 * g), 0.0)
        if grad:
            out.du_dalpha = -(x1 * out.u)[..., None] * basis.B
        if logv:
            one_minus = 1.0 - x1s * (basis.Bp @ alpha)
            out.ok = bool(np.all(one_minus > 0.0))
            out.logv = (-_lead(eta, k) - x1s * _lead(g, k)
                        + np.log(np.maximum(one_minus, 0.0)))
            if grad:
                out.dlv_dalpha = (-x1s[..., None] * _lead(basis.B, k)
                                  - (x1s / one_minus)[..., None] * basis.Bp)
    return out


# -- V, v, V^{-1} ----------------------------------------------------------

def _x1(spec: EffectSpec, x, x1_index: int) -> float:
    if spec.kind == "constant":
        return 0.0
    return float(np.asarray(x, dtype=float)[x1_index])


def v_value(spec: EffectSpec, beta, alpha, x, t, x1_index: int = 0):
    """V(t|x); t >= 0 with V(0) = 0."""
    alpha = _check_alpha(spec, alpha)
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.isnan(t_arr)) or np.any(t_arr < 0):
        raise DomainError("time must be >= 0")
    tt = transform(TimeBasis(spec, t_arr), alpha, _linpred(beta, x),
                   _x1(spec, x, x1_index))
    return _scalar_like(t, tt.u)


def v_deriv(spec: EffectSpec, beta, alpha, x, t, x1_index: int = 0):
    """v(t|x) = dV/dt for t > 0; right-hand value at piecewise breakpoints.
    Clamped at 0 where a spline transform is not increasing."""
    alpha = _check_alpha(spec, alpha)
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.isnan(t_arr)) or np.any(t_arr <= 0):
        raise DomainError("time must be > 0")
    tt = transform(TimeBasis(spec, t_arr), alpha, _linpred(beta, x),
                   _x1(spec, x, x1_index), logv=True)
    return _scalar_like(t, np.exp(tt.logv))


def v_inverse(spec: EffectSpec, beta, alpha, x, s, x1_index: int = 0):
    """The time t with V(t|x) = s, for s >= 0.

    Closed form for constant and piecewise kinds; bisection on the
    log-time axis for the spline kind (V must be increasing, which is the
    caller's responsibility to ensure via `monotonicity_check`).
    """
    alpha = _check_alpha(spec, alpha)
    s_arr = np.asarray(s, dtype=float)
    if np.any(np.isnan(s_arr)) or np.any(s_arr < 0):
        raise DomainError("target value must be >= 0")
    eta = _linpred(beta, x)
    x1 = _x1(spec, x, x1_index)

    if spec.kind == "constant":
        out = s_arr * np.exp(eta)
    elif spec.kind == "piecewise":
        out = _piecewise_inverse(spec.knot_array(), eta, x1, alpha, s_arr)
    else:
        out = _spline_inverse(spec.knot_array(), eta, x1, alpha, np.atleast_1d(s_arr))
        out = out.reshape(s_arr.shape)
    return _scalar_like(s, out)


def _piecewise_inverse(knots, eta, x1, alpha, s):
    slopes = np.exp(-eta - x1 * np.concatenate([[0.0], alpha]))
    tau_star = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(knots))])
    seg = np.clip(np.searchsorted(tau_star, s, side="right") - 1, 0, len(knots) - 1)
    return knots[seg] + (s - tau_star[seg]) / slopes[seg]


def _spline_inverse(knots, eta, x1, alpha, s):
    # Solve r - x1*g(r) = log(s) + eta for r = log(t); s = 0 maps to t = 0
    # directly and is excluded from the root search.
    with np.errstate(divide="ignore"):
        target = np.where(s > 0, np.log(np.where(s > 0, s, 1.0)), 0.0) + eta

    def phi(r):
        return r - x1 * (spline_basis(knots, r) @ alpha)

    lo = target - 1.0
    hi = target + 1.0
    for _ in range(200):
        bad = phi(lo) > target
        if not np.any(bad):
            break
        lo = np.where(bad, lo - 2.0 * (hi - lo), lo)
    else:
        raise NumericalError("spline inverse: lower bracket failed")
    for _ in range(200):
        bad = phi(hi) < target
        if not np.any(bad):
            break
        hi = np.where(bad, hi + 2.0 * (hi - lo), hi)
    else:
        raise NumericalError("spline inverse: upper bracket failed")

    for _ in range(100):
        mid = 0.5 * (lo + hi)
        left = phi(mid) < target
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
        if np.all(hi - lo <= 1e-12):
            break
    out = np.exp(0.5 * (lo + hi))
    return np.where(s > 0, out, 0.0)


def tv_v_value(beta1: float, beta2_term: float, alpha, tv: TimeVaryingCovariate,
               effect: EffectSpec | None, t):
    """V(t) under a binary covariate switching at tv.change_time.

    `beta2_term` is the linear predictor x'beta of the time-invariant
    covariates; `effect` carries the flexible basis for the switch effect
    (None or constant kind for a pure constant effect).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.isnan(t_arr)) or np.any(t_arr < 0):
        raise DomainError("time must be >= 0")
    flexible = effect is not None and effect.kind != "constant"
    alpha = _check_alpha(effect, alpha) if flexible else np.zeros(0)
    basis = TimeBasis(effect, t_arr, onset=tv.change_time)
    out = transform(basis, alpha, beta2_term, b1=beta1).u
    return _scalar_like(t, out)


def tv_v_inverse(beta1: float, beta2_term: float, alpha,
                 tv: TimeVaryingCovariate, effect: EffectSpec | None, s):
    """Inverse of `tv_v_value`: closed form for a constant switch effect,
    bisection on the time-since-switch axis for a flexible one."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(np.isnan(s_arr)) or np.any(s_arr < 0):
        raise DomainError("target value must be >= 0")
    t_x = tv.change_time
    scale = np.exp(beta2_term)
    v_at_switch = t_x * np.exp(-beta2_term)  # V value where the switch bites
    pre = s_arr <= v_at_switch

    if effect is None or effect.kind == "constant":
        with np.errstate(invalid="ignore"):
            post_t = t_x + (s_arr * scale - t_x) * np.exp(beta1)
        out = np.where(pre, s_arr * scale, post_t)
        return _scalar_like(s, out)

    target = s_arr * scale - t_x  # solve u * exp(-beta1 - a(u)) = target, u > 0
    u = _tv_flexible_inverse(beta1, _check_alpha(effect, alpha), effect,
                             np.atleast_1d(np.where(pre, 1.0, target)))
    out = np.where(pre, s_arr * scale, t_x + u.reshape(s_arr.shape))
    return _scalar_like(s, out)


def _tv_flexible_inverse(beta1, alpha, effect, target):
    def h(u):
        return u * np.exp(-beta1 - tv_basis(effect, u) @ alpha)

    lo = np.full_like(target, 1e-300)
    hi = np.maximum(target * np.exp(beta1), 1e-6)
    for _ in range(400):
        bad = h(hi) < target
        if not np.any(bad):
            break
        hi = np.where(bad, hi * 2.0, hi)
    else:
        raise NumericalError("time-varying inverse: upper bracket failed")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        left = h(mid) < target
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
        if np.all(hi - lo <= 1e-13 * np.maximum(1.0, hi)):
            break
    return 0.5 * (lo + hi)


# -- monotonicity ----------------------------------------------------------

def monotonicity_check(spec: EffectSpec, beta, alpha, x, grid,
                       x1_index: int = 0) -> bool:
    """True iff v(t|x) > 0 at every grid point, for every row of x.

    Constant and piecewise transforms are increasing by construction; the
    spline transform is increasing iff x1 * g'(log t) < 1 everywhere.
    """
    alpha = _check_alpha(spec, alpha)
    if spec.kind in ("constant", "piecewise"):
        return bool(np.all(np.isfinite(alpha)))
    grid = np.asarray(grid, dtype=float)
    patterns = np.atleast_2d(np.asarray(x, dtype=float))
    x1 = patterns[:, x1_index]
    gp = spline_basis_deriv(spec.knot_array(), np.log(grid)) @ alpha
    return bool(np.all(1.0 - np.outer(x1, gp) > 0.0))


def tv_monotonicity_check(beta1: float, alpha, effect: EffectSpec | None,
                          s_grid) -> bool:
    """True iff the post-switch transform u * exp(-b1 - a(u)) is increasing
    at every point of the time-since-switch grid."""
    if effect is None or effect.kind == "constant":
        return np.isfinite(beta1)
    alpha = _check_alpha(effect, alpha)
    s_grid = np.asarray(s_grid, dtype=float)
    sap = tv_basis_sderiv(effect, s_grid) @ alpha
    return bool(np.all(1.0 - sap > 0.0))


def _scalar_like(t, value):
    if np.ndim(t) == 0:
        return float(value)
    return value
