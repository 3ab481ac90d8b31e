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
  knots). Its inverse solves log V(t) = log s by a root search.

A binary time-varying covariate switching 0 -> 1 at time t_x induces

    V(t) = exp(-x'beta) * [min(t, t_x)
            + (t - t_x)_+ * exp(-b1 - sum_k alpha_k B_k(t - t_x))],

with the flexible basis evaluated on the time-since-switch axis (the
piecewise basis B_k(s) = (min(s, tau_{k+1}) - tau_k)_+ / s, or the spline
basis at log(s)). The covariate has not yet switched at t == t_x.

Derivatives at piecewise breakpoints use the right-hand limit so the
likelihood is deterministic for observations landing exactly on a knot.

Each rule has one implementation, and the public functions are thin
callers of it. V and log v: `transform`, which reads a `TimeBasis` (the
part of V that depends only on the times and switch times, built once per
dataset by the likelihood) and returns V, log v and their partials in
alpha and the switch coefficient. V^{-1}: `transform_inverse`, with the
same (eta, x1, b1, onset) arguments; closed forms where one exists
(constant, piecewise, constant switch effect), the shared root-finder
`roots.increasing_root` for the spline and flexible switch effects.
Monotonicity: `is_monotone`, the condition 1 - x1 * g'(log t) > 0 (or
1 - s a'(s) > 0 after a switch) on a slope basis from `slope_basis`.
`ModelSpec.predictor` turns a model's beta and covariates into those
arguments. All functions are pure and accept scalar or ndarray times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .roots import increasing_root

__all__ = [
    "EffectSpec",
    "TimeVaryingCovariate",
    "v_value",
    "v_deriv",
    "v_inverse",
    "tv_v_value",
    "tv_v_inverse",
    "transform",
    "transform_value",
    "transform_inverse",
    "slope_basis",
    "is_monotone",
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


def _check_alpha(spec: EffectSpec | None, alpha) -> np.ndarray:
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    J = 0 if spec is None else spec.J
    if alpha.size != J:
        raise DomainError(f"alpha has length {alpha.size}, expected {J}")
    return alpha


def _pattern(spec: EffectSpec, beta, x, x1_index: int):
    """(eta, x1) of one covariate pattern x, for the functions below that
    take beta and x rather than a model."""
    beta = np.asarray(beta, dtype=float)
    x = np.asarray(x, dtype=float)
    if beta.shape != x.shape:
        raise DomainError(f"beta shape {beta.shape} != x shape {x.shape}")
    eta = float(x @ beta) if beta.size else 0.0
    return eta, (0.0 if spec.kind == "constant" else float(x[x1_index]))


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


# -- switch basis on the time-since-switch axis; monotonicity slopes -------

def tv_basis(effect: EffectSpec, s):
    """Flexible-effect basis at time-since-switch s > 0, shape s.shape + (J,)."""
    s = np.asarray(s, dtype=float)
    if effect.kind == "piecewise":
        knots = effect.knot_array()
        _, terms = piecewise_terms(knots, s)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(s[..., None] > 0, terms / s[..., None], 0.0)
    return spline_basis(effect.knot_array(), np.log(s))


def slope_basis(effect: EffectSpec | None, grid, time_varying: bool = False):
    """The basis D of the monotonicity rule (see `is_monotone`) on a grid
    of times, or of times since the switch for a switch effect: g'(log t)
    per alpha for a spline effect, s a'(s) for a switch effect, shape
    grid.shape + (J,). None for the kinds that are increasing for every
    finite alpha (constant; piecewise without a switch)."""
    grid = np.asarray(grid, dtype=float)
    kind = "constant" if effect is None else effect.kind
    if kind == "constant" or (kind == "piecewise" and not time_varying):
        return None
    knots = effect.knot_array()
    if kind == "spline":  # d/dlog t of B(log t), with or without a switch
        return spline_basis_deriv(knots, np.log(grid))
    active = piecewise_segment(knots, grid)[..., None] == np.arange(1, len(knots))
    return active.astype(float) - tv_basis(effect, grid)


# -- the evaluator: V and log v with parameter partials ----------------------

def _lead(a, k):
    """The first k rows of a per-row array; scalars and k = None pass through."""
    return a if k is None or np.ndim(a) == 0 else a[:k]


class TimeBasis:
    """Everything in V(t) that depends on the times t (and, for a binary
    time-varying covariate, its switch times `onset`) but not on the
    parameters, so it is computed once and reused by `transform`.

    The slope parts that only log v needs (`seg`, `slopes`) cover the
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
    def slopes(self):
        return slope_basis(self.effect, _lead(self.s if self.tv else self.t,
                                              self.n_slope), self.tv)


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
                one_minus = np.where(post, 1.0 - basis.slopes @ alpha, 1.0)
                out.ok = bool(np.all(one_minus > 0.0))
            out.logv = -_lead(eta, k) + np.where(
                post, -b1 - _lead(a, k) + np.log(np.maximum(one_minus, 0.0)),
                0.0)
            if grad:
                out.dlv_db1 = -post.astype(float)
                out.dlv_dalpha = (
                    np.where(post[..., None], -_lead(basis.B, k)
                             - basis.slopes / one_minus[..., None], 0.0) if J
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
            one_minus = 1.0 - x1s * (basis.slopes @ alpha)
            out.ok = bool(np.all(one_minus > 0.0))
            out.logv = (-_lead(eta, k) - x1s * _lead(g, k)
                        + np.log(np.maximum(one_minus, 0.0)))
            if grad:
                out.dlv_dalpha = (-x1s[..., None] * _lead(basis.B, k)
                                  - (x1s / one_minus)[..., None] * basis.slopes)
    return out


# -- V, v, V^{-1} ----------------------------------------------------------

def _nonnegative(a, what: str, strict: bool = False) -> np.ndarray:
    """a as a float array; DomainError naming `what` if an entry is NaN or
    negative (with `strict`, also if it is 0)."""
    a = np.asarray(a, dtype=float)
    if np.any(np.isnan(a)) or np.any(a <= 0 if strict else a < 0):
        raise DomainError(f"{what} must be {'>' if strict else '>='} 0")
    return a


def transform_value(effect: EffectSpec | None, alpha: np.ndarray, t, eta=0.0,
                    x1=0.0, b1=0.0, onset=None):
    """V(t) for t >= 0 (V(0) = 0) with the arguments of `transform`;
    `onset` is the switch time of a binary time-varying covariate (None:
    no switch)."""
    basis = TimeBasis(effect, _nonnegative(t, "time"), onset)
    return _scalar_like(t, transform(basis, alpha, eta, x1, b1).u)


def transform_inverse(effect: EffectSpec | None, alpha: np.ndarray, s,
                      eta=0.0, x1=0.0, b1=0.0, onset=None):
    """The one V^{-1}: the time t with V(t) = s, for s >= 0, where V is the
    transform `transform_value` evaluates with the same arguments.

    Closed form for constant and piecewise kinds and for a constant switch
    effect; a root search for the spline kind (on the log-time axis) and
    for a flexible switch effect (on the time-since-switch axis). V must be
    increasing, which is the caller's to ensure via `is_monotone`.
    """
    s_arr = _nonnegative(s, "target value")
    kind = "constant" if effect is None else effect.kind
    if onset is not None:
        out = _switch_inverse(effect, kind, alpha, s_arr, eta, b1, onset)
    elif kind == "constant":
        out = s_arr * np.exp(eta)
    elif kind == "piecewise":
        out = _piecewise_inverse(effect.knot_array(), eta, x1, alpha, s_arr)
    else:
        out = _spline_inverse(effect.knot_array(), eta, x1, alpha, s_arr)
    return _scalar_like(s, out)


def _piecewise_inverse(knots, eta, x1, alpha, s):
    slopes = np.exp(-eta - x1 * np.concatenate([[0.0], alpha]))
    tau_star = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(knots))])
    seg = np.clip(np.searchsorted(tau_star, s, side="right") - 1, 0, len(knots) - 1)
    return knots[seg] + (s - tau_star[seg]) / slopes[seg]


def _spline_inverse(knots, eta, x1, alpha, s):
    # Solve r - x1*g(r) = log(s) + eta for r = log(t); s = 0 maps to t = 0
    # directly and is excluded from the root search.
    pos = s > 0
    target = np.log(s[pos]) + eta

    def phi(t):
        r = np.log(t)
        return r - x1 * (spline_basis(knots, r) @ alpha)

    out = np.zeros_like(s)
    out[pos] = increasing_root(phi, target, np.exp(target + 1.0), 1e-12,
                               "spline inverse")
    return out


def _switch_inverse(effect, kind, alpha, s, eta, b1, t_x):
    scale = np.exp(eta)
    with np.errstate(invalid="ignore"):
        target = s * scale - t_x  # > 0 iff the root lies past the switch
        pre = ~(target > 0)  # s <= V(t_x); NaN (inf - inf) counts as before
        post_t = t_x + target * np.exp(b1)
    if kind != "constant":
        # solve u * exp(-b1 - a(u)) = target for u = t - t_x > 0
        target = np.where(pre, 1.0, target)
        post_t = t_x + increasing_root(
            lambda u: u * np.exp(-b1 - tv_basis(effect, u) @ alpha),
            target, target * np.exp(b1), 1e-13, "time-varying inverse")
    return np.where(pre, s * scale, post_t)


def v_value(spec: EffectSpec, beta, alpha, x, t, x1_index: int = 0):
    """V(t|x); t >= 0 with V(0) = 0."""
    return transform_value(spec, _check_alpha(spec, alpha), t,
                           *_pattern(spec, beta, x, x1_index))


def v_deriv(spec: EffectSpec, beta, alpha, x, t, x1_index: int = 0):
    """v(t|x) = dV/dt for t > 0; right-hand value at piecewise breakpoints.
    Clamped at 0 where a spline transform is not increasing."""
    alpha = _check_alpha(spec, alpha)
    t_arr = _nonnegative(t, "time", strict=True)
    tt = transform(TimeBasis(spec, t_arr), alpha,
                   *_pattern(spec, beta, x, x1_index), logv=True)
    return _scalar_like(t, np.exp(tt.logv))


def v_inverse(spec: EffectSpec, beta, alpha, x, s, x1_index: int = 0):
    """The time t with V(t|x) = s, for s >= 0 (see `transform_inverse`)."""
    return transform_inverse(spec, _check_alpha(spec, alpha), s,
                             *_pattern(spec, beta, x, x1_index))


def tv_v_value(beta1: float, beta2_term: float, alpha, tv: TimeVaryingCovariate,
               effect: EffectSpec | None, t):
    """V(t) under a binary covariate switching at tv.change_time.

    `beta2_term` is the linear predictor x'beta of the time-invariant
    covariates; `effect` carries the flexible basis for the switch effect
    (None or constant kind for a pure constant effect).
    """
    return transform_value(effect, _check_alpha(effect, alpha), t, beta2_term,
                           b1=beta1, onset=tv.change_time)


def tv_v_inverse(beta1: float, beta2_term: float, alpha,
                 tv: TimeVaryingCovariate, effect: EffectSpec | None, s):
    """Inverse of `tv_v_value` (see `transform_inverse`)."""
    return transform_inverse(effect, _check_alpha(effect, alpha), s,
                             beta2_term, b1=beta1, onset=tv.change_time)


# -- monotonicity ----------------------------------------------------------

def is_monotone(slopes, alpha: np.ndarray, x1=1.0) -> bool:
    """The one monotonicity rule: V is increasing on the grid of `slopes`
    (from `slope_basis`) iff alpha is finite and 1 - x1 * (slopes @ alpha)
    > 0 at every grid point for each exposure value in x1 (a switch acts
    as x1 = 1)."""
    if not np.isfinite(alpha).all():
        return False
    if slopes is None:
        return True
    g = slopes @ alpha
    g = np.multiply.outer(x1, g) if isinstance(x1, np.ndarray) else x1 * g
    return bool((1.0 - g > 0.0).all())


def monotonicity_check(spec: EffectSpec, beta, alpha, x, grid,
                       x1_index: int = 0) -> bool:
    """True iff v(t|x) > 0 at every grid point, for every row of x."""
    alpha = _check_alpha(spec, alpha)
    slopes = slope_basis(spec, grid)
    x1 = (1.0 if slopes is None
          else np.atleast_2d(np.asarray(x, dtype=float))[:, x1_index])
    return is_monotone(slopes, alpha, x1)


def tv_monotonicity_check(beta1: float, alpha, effect: EffectSpec | None,
                          s_grid) -> bool:
    """True iff the post-switch transform u * exp(-b1 - a(u)) is increasing
    at every point of the time-since-switch grid."""
    if effect is None or effect.kind == "constant":
        return np.isfinite(beta1)
    return is_monotone(slope_basis(effect, s_grid, True),
                       _check_alpha(effect, alpha))


def _scalar_like(t, value):
    if np.ndim(t) == 0:
        return float(value)
    return value
