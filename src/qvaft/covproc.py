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
basis at log(s)). The covariate has not yet switched at t == t_x. This
switch form, with x1 scaling alpha, also covers the constant and spline
kinds: they are a switch at t_x = 0 with b1 = 0 (after a switch, x1 = 1).

Derivatives at piecewise breakpoints use the right-hand limit so the
likelihood is deterministic for observations landing exactly on a knot.

Each rule has one implementation, and the public functions are thin
callers of it. V and log v: `transform`, which reads a `TimeBasis` (the
part of V that depends only on the times, exposure values and switch
times, built once per dataset by the likelihood) and returns V, log v and
their partials in alpha and the switch coefficient in contracted form. It
has two branches: a piecewise effect without a switch, summed over its
segments, and the switch form for every other kind. du/dalpha is a per-row
factor times a basis matrix (for a piecewise effect without a switch the
segment lengths at their slope factors, otherwise the alpha basis), and
the partials of sum log v as column sums whose parameter-free part the
basis holds. V^{-1}: `transform_inverse`, with the
same (eta, x1, b1, onset) arguments, eta, x1 and onset each a scalar or
one value per row; closed forms where one exists (constant, piecewise,
constant switch effect), the shared root-finder `roots.increasing_root`
for the spline and flexible switch effects, with each row's exposure
value passed to it beside its target.
Monotonicity: `is_monotone`, the condition 1 - x1 * g'(log t) > 0 (or
1 - s a'(s) > 0 after a switch) on a slope basis from `slope_basis`.
`ModelSpec.predictor` turns a model's beta and covariates into those
arguments. All functions are pure and accept scalar or ndarray times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baseline import _nonnegative, _scalar_like
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
    """Switch time of a binary step covariate; +inf means never switches.
    An array holds one switch time per subject."""

    change_time: float | np.ndarray

    def __post_init__(self):
        t = np.asarray(self.change_time)
        bad = ~(t > 0)  # NaN included
        if bad.any():
            raise DomainError(
                f"change time must be > 0 (or +inf), got {t[bad].flat[0]}")


def _check_alpha(spec: EffectSpec, alpha) -> np.ndarray:
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.size != spec.J:
        raise DomainError(f"alpha has length {alpha.size}, expected {spec.J}")
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


def slope_basis(effect: EffectSpec, grid, time_varying: bool = False):
    """The basis D of the monotonicity rule (see `is_monotone`) on a grid
    of times, or of times since the switch for a switch effect: g'(log t)
    per alpha for a spline effect, s a'(s) for a switch effect, shape
    grid.shape + (J,). None for the kinds that are increasing for every
    finite alpha (constant; piecewise without a switch)."""
    grid = np.asarray(grid, dtype=float)
    kind = effect.kind
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
    """Everything in V(t) that depends on the times t, the exposure value
    `x1` that scales alpha (a scalar or one value per row) and, for a
    binary time-varying covariate, its switch times `onset`, but not on the
    parameters, so it is computed once and reused by `transform`.

    A piecewise effect without a switch keeps its capped segment lengths
    `terms` and the distinct exposure values `levels`, so that exp(-x1
    alpha) is taken once per value. Every other kind is the switch form:
    `post` marks the rows past the switch (past t = 0 without one), `min_t`
    is min(t, onset), `s` the time since the switch and `B` the alpha basis
    at s (zero before the switch; no columns for a constant effect). After
    a switch, x1 is 1. The parts that only log v needs (`seg`, `slopes`, and
    `fixed_dlogv`, the parameter-free part of the gradient of sum log v)
    cover the leading `n_slope` rows of t (None: all rows) and are built on
    first use.
    """

    def __init__(self, effect: EffectSpec, t, onset=None, x1=0.0,
                 n_slope: int | None = None):
        t = np.asarray(t, dtype=float)
        self.effect = effect
        self.t = t
        self.tv = onset is not None
        self.x1 = np.asarray(1.0 if self.tv else x1, dtype=float)
        self.n_slope = n_slope
        self.switch_form = self.tv or effect.kind != "piecewise"
        if not self.switch_form:
            self.lead, self.terms = piecewise_terms(effect.knot_array(), t)
            if self.x1.ndim:
                levels, index = np.unique(self.x1, return_inverse=True)
                self.levels, self.level_index = levels, index.reshape(-1)
            else:
                self.levels, self.level_index = self.x1[None], None
            return
        onset = 0.0 if onset is None else onset
        J = effect.J
        self.post = t > onset
        self.min_t = np.minimum(t, onset)
        self.s = np.where(self.post, t - onset, 1.0)
        self.B = (np.where(self.post[..., None], tv_basis(effect, self.s), 0.0)
                  if J and self.post.any() else np.zeros(t.shape + (J,)))

    @cached_property
    def seg(self):
        return piecewise_segment(self.effect.knot_array(),
                                 _lead(self.t, self.n_slope))

    @cached_property
    def slopes(self):
        k = self.n_slope
        if not self.effect.J:  # constant: as B, no columns
            return _lead(self.B, k)
        return np.where(_lead(self.post, k)[..., None],
                        slope_basis(self.effect, _lead(self.s, k), self.tv), 0.0)

    @cached_property
    def fixed_dlogv(self):
        """The partials (d/db1, d/dalpha) of the parameter-free part of
        sum log v over the slope rows: minus the sum of x1 per segment
        (piecewise without a switch); otherwise minus the number of rows
        past the switch and -x1 @ B (the column sums of B after a switch)."""
        k = self.n_slope
        x1 = np.broadcast_to(_lead(self.x1, k), _lead(self.t, k).shape)
        if not self.switch_form:
            return 0.0, -np.bincount(self.seg, weights=x1,
                                     minlength=self.effect.J + 1)[1:]
        B = _lead(self.B, k)
        return (-float(np.count_nonzero(_lead(self.post, k))),
                -B.sum(axis=0) if self.tv else -(x1 @ B))


class TransformTerms:
    """u = V(t) and, when asked for, log v(t) on the slope rows, with their
    partials in the switch coefficient b1 and in alpha, in contracted form.

    Partials in the linear predictor eta = x'beta are not stored: du/deta
    = -u and dlog v/deta = -1 for every kind. du/dalpha is the per-row
    factor `du_factor` times that row of `du_matrix`, so a weighted sum over
    rows is one product (c * du_factor) @ du_matrix; `du_db1` is per row.
    `dlv_db1` and `dlv_dalpha` are the partials of sum log v over the slope
    rows. log v is -inf (v clamped at 0) where V is not increasing."""

    __slots__ = ("u", "du_db1", "du_factor", "du_matrix", "logv", "dlv_db1",
                 "dlv_dalpha")

    def __init__(self):
        self.du_db1 = self.du_factor = self.du_matrix = self.logv = None
        self.dlv_db1 = self.dlv_dalpha = None


def transform(basis: TimeBasis, alpha: np.ndarray, eta=0.0, b1=0.0,
              logv: bool = False, grad: bool = False) -> TransformTerms:
    """The one evaluator of V(t|x) (and log v) for every effect kind.

    `eta` is x'beta (time-invariant covariates only for time-varying
    models), a scalar or one value per row of the basis, and `b1` the
    switch coefficient (time-varying models; ignored without a switch); the
    exposure value that multiplies alpha belongs to the basis. A piecewise
    effect without a switch is summed over its segments; every other kind
    is the switch form

        V(t) = exp(-eta) * [min(t, t_x) + (t - t_x)_+ exp(-b1 - x1 a)],

    a = B(t - t_x) @ alpha, at onset t_x = 0 and b1 = 0 without a switch.
    Extreme parameter values raise floating-point warnings; callers
    suppress them around the call.
    """
    out = TransformTerms()
    k, x1 = basis.n_slope, basis.x1
    x1s = _lead(x1, k)
    scale = np.exp(-eta)
    if grad:
        out.dlv_db1, out.dlv_dalpha = basis.fixed_dlogv
    if not basis.switch_form:  # piecewise without a switch
        E = np.exp(-np.multiply.outer(basis.levels, alpha))  # row per level
        E = (E[0] if basis.level_index is None
             else np.take(E, basis.level_index, axis=0))
        if E.ndim == 1 and not grad:  # one exposure value, as in inference
            out.u = scale * (basis.lead + basis.terms @ E)
        else:
            ET = E * basis.terms  # segment lengths at their slope factors
            out.u = scale * (basis.lead + ET @ np.ones(alpha.size))
            if grad:
                out.du_factor, out.du_matrix = -(scale * x1), ET
        if logv:
            alpha_seg = np.concatenate([[0.0], alpha])[basis.seg]
            out.logv = -_lead(eta, k) - x1s * alpha_seg
        return out

    if not basis.tv:
        b1 = 0.0
    xa = x1 * (basis.B @ alpha)  # zero before the switch
    bump = np.where(basis.post, basis.s * np.exp(-b1 - xa), 0.0)
    out.u = scale * (basis.min_t + bump)
    if grad:
        out.du_db1 = -scale * bump
        out.du_factor, out.du_matrix = out.du_db1 * x1, basis.B
    if logv:
        slopes = basis.slopes
        one_minus = 1.0 - x1s * (slopes @ alpha)
        out.logv = -_lead(eta, k) + np.where(
            _lead(basis.post, k),
            -b1 - _lead(xa, k) + np.log(np.maximum(one_minus, 0.0)), 0.0)
        if grad:
            out.dlv_dalpha = out.dlv_dalpha - (x1s / one_minus) @ slopes
    return out


# -- V, v, V^{-1} ----------------------------------------------------------

def transform_value(effect: EffectSpec, alpha: np.ndarray, t, eta=0.0,
                    x1=0.0, b1=0.0, onset=None):
    """V(t) for t >= 0 (V(0) = 0) with the arguments of `transform`;
    `onset` is the switch time of a binary time-varying covariate (None:
    no switch)."""
    basis = TimeBasis(effect, _nonnegative(t), onset, x1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _scalar_like(t, transform(basis, alpha, eta, b1).u)


def transform_inverse(effect: EffectSpec, alpha: np.ndarray, s,
                      eta=0.0, x1=0.0, b1=0.0, onset=None):
    """The one V^{-1}: the time t with V(t) = s, for s >= 0, where V is the
    transform `transform_value` evaluates with the same arguments: eta,
    x1 and onset may each be one value per row, broadcast against s, and
    each row is inverted as it would be alone.

    Closed form for constant and piecewise kinds and for a constant switch
    effect; a root search for the spline kind (on the log-time axis) and
    for a flexible switch effect (on the time-since-switch axis). V must be
    increasing, which is the caller's to ensure via `is_monotone`.
    """
    s_arr = _nonnegative(s, "target value")
    kind = effect.kind
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
    # slopes and transformed breakpoints V(tau_j), one row per (eta, x1);
    # each target's segment is found on its own row
    slopes = np.exp(-np.asarray(eta)[..., None]
                    - np.multiply.outer(x1, np.concatenate([[0.0], alpha])))
    tau_star = np.zeros(slopes.shape)
    np.cumsum(slopes[..., :-1] * np.diff(knots), axis=-1, out=tau_star[..., 1:])
    seg = np.clip((tau_star <= s[..., None]).sum(-1) - 1, 0, len(knots) - 1)
    tau, slope = (np.take_along_axis(np.broadcast_to(a, seg.shape + a.shape[-1:]),
                                     seg[..., None], -1)[..., 0]
                  for a in (tau_star, slopes))
    return knots[seg] + (s - tau) / slope


def _spline_inverse(knots, eta, x1, alpha, s):
    # Solve r - x1*g(r) = log(s) + eta for r = log(t); s = 0 maps to t = 0
    # directly and is excluded from the root search.
    s, eta, x1 = np.broadcast_arrays(s, eta, x1)
    pos = s > 0
    target = np.log(s[pos]) + eta[pos]

    def phi(t, x1):
        r = np.log(t)
        return r - x1 * (spline_basis(knots, r) @ alpha)

    out = np.zeros(s.shape)
    out[pos] = increasing_root(phi, target, np.exp(target + 1.0), 1e-12,
                               "spline inverse", args=(x1[pos],))
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
    t_arr = _nonnegative(t, strict=True)
    eta, x1 = _pattern(spec, beta, x, x1_index)
    with np.errstate(divide="ignore", over="ignore"):
        tt = transform(TimeBasis(spec, t_arr, x1=x1), alpha, eta, logv=True)
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
    effect = effect or EffectSpec("constant")
    return transform_value(effect, _check_alpha(effect, alpha), t, beta2_term,
                           b1=beta1, onset=tv.change_time)


def tv_v_inverse(beta1: float, beta2_term: float, alpha,
                 tv: TimeVaryingCovariate, effect: EffectSpec | None, s):
    """Inverse of `tv_v_value` (see `transform_inverse`)."""
    effect = effect or EffectSpec("constant")
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
    effect = effect or EffectSpec("constant")
    if effect.kind == "constant":
        return np.isfinite(beta1)
    return is_monotone(slope_basis(effect, s_grid, True),
                       _check_alpha(effect, alpha))
