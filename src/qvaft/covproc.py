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
callers of it. V and log v: `transform`, which reads a `TimeBasis` (every
part of V that depends only on the times, exposure values and switch
times, built once per dataset by the likelihood) and returns V, log v and
their partials in the switch coefficient and alpha, contracted (dlog u as
a per-row factor times a parameter-free matrix). It has two branches: a
piecewise effect without a switch, summed over its segments, and the
switch form for every other kind. V^{-1}: `transform_inverse`, with the
same (eta, x1, b1, onset) arguments, each a scalar or one value per row;
closed forms where one exists (constant, piecewise, constant switch
effect), the shared root-finder `roots.increasing_root` for the spline and
flexible switch effects, with each row's exposure value passed beside its
target. Monotonicity: `is_monotone`, the condition 1 - x1 * g'(log t) > 0
(or 1 - s a'(s) > 0 after a switch) for every t, checked exactly at the
slope's extremes, which depend only on the effect, alpha and the range of
x1. The likelihood samples a piecewise switch effect as zeta = log(1 - D
alpha), so that it is monotone by construction. `ModelSpec.predictor`
turns a model's beta and covariates into those arguments. All functions
are pure and accept scalar or ndarray times.
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
    "v_inverse",
    "tv_v_inverse",
    "transform",
    "transform_value",
    "transform_inverse",
    "slope_basis",
    "is_monotone",
    "spline_basis",
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

    @cached_property
    def knot_rows(self):
        """The constant rows of the exact monotonicity rule (see
        `is_monotone`): for a spline, g' and g'' per alpha at the knots;
        for a piecewise effect, the unit lower-triangular D of its rule
        after a switch, with D^{-1}."""
        knots = self.knot_array()
        if self.kind == "spline":
            return spline_basis(knots, knots, 1), spline_basis(knots, knots, 2)
        D = slope_basis(self, knots[1:])
        return D, np.linalg.inv(D)


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

def spline_basis(knots, u, order: int = 0):
    """Natural cubic spline basis on knots k_1 < ... < k_m, evaluated at u,
    or its derivative of the given order (1 or 2) in u.

    Column 0 is the identity; column i is the restricted cubic for
    internal knot k_{i+1},

        (u - k)_+^3 - lam*(u - k_1)_+^3 - (1 - lam)*(u - k_m)_+^3,

    lam = (k_m - k)/(k_m - k_1), which is linear outside [k_1, k_m].
    Returns shape u.shape + (m - 1,).
    """
    knots = np.asarray(knots, dtype=float)
    u = np.asarray(u, dtype=float)
    cols = [u if order == 0 else np.full(u.shape, float(order == 1))]
    k1, km = knots[0], knots[-1]
    p = 3 - order
    for k in knots[1:-1]:
        lam = (km - k) / (km - k1)
        col = _ppow(u, k, p) - lam * _ppow(u, k1, p) - (1 - lam) * _ppow(u, km, p)
        cols.append(3.0 * order * col if order else col)
    return np.stack(cols, axis=-1)


def _ppow(u, k, p):
    """(u - k)_+ to the power p = 1, 2 or 3, as a product of its factors."""
    d = np.maximum(u - k, 0.0)
    return d * d * d if p == 3 else d * d if p == 2 else d


# -- piecewise pieces ------------------------------------------------------

def piecewise_terms(knots: np.ndarray, t):
    """Leading segment min(t, tau_1) and the J capped segment lengths
    (min(t, tau_{j+1}) - tau_j)_+ with tau_{J+1} = +inf."""
    t = np.asarray(t, dtype=float)
    upper = np.concatenate([knots[2:], [np.inf]])  # tau_{j+1}, j = 1..J
    lead = np.minimum(t, knots[1])
    terms = np.maximum(np.minimum(t[..., None], upper) - knots[1:], 0.0)
    return lead, terms


def piecewise_segment(knots: np.ndarray, t):
    """0-based segment index of t, right-continuous at the knots:
    0 on [0, tau_1), j on [tau_j, tau_{j+1})."""
    t = np.asarray(t, dtype=float)
    return np.maximum(np.searchsorted(knots, t, side="right") - 1, 0)


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


def slope_basis(effect: EffectSpec, grid):
    """The slope of the monotonicity rule (see `is_monotone`) per alpha at
    times t > 0 (times since the switch for a switch effect): g'(log t)
    for a spline effect, s a'(s) for a piecewise switch effect, shape
    grid.shape + (J,)."""
    grid = np.asarray(grid, dtype=float)
    knots = effect.knot_array()
    if effect.kind == "spline":  # d/dlog t of B(log t)
        return spline_basis(knots, np.log(grid), 1)
    active = piecewise_segment(knots, grid)[..., None] == np.arange(1, len(knots))
    return active.astype(float) - tv_basis(effect, grid)


# -- the evaluator: V and log v with parameter partials ----------------------

def _lead(a, k):
    """The first k rows of a per-row array; scalars and k = None pass through."""
    return a[:k] if k is not None and getattr(a, "ndim", 0) else a


class TimeBasis:
    """Everything in V(t) that depends on the times t, the exposure value
    `x1` that scales alpha (a scalar or one value per row) and, for a
    binary time-varying covariate, its switch times `onset`, but not on the
    parameters, so it is computed once and reused by `transform`.

    A piecewise effect without a switch keeps its capped segment lengths
    `terms` and each row's index into the distinct exposure values, so that
    exp(-x1 alpha) is taken once per value. Every other kind is the switch
    form: `post` marks the rows past the switch (past t = 0 without one),
    `min_t` is min(t, onset), `s` the time since the switch (`s_post`: 0
    before it) and `xB` x1 times the alpha basis at s (zero before the
    switch; after a switch, x1 is 1). Partials, which need x1 per row, are
    in theta: b1 and alpha with a switch (`n_b1` = 1), else alpha. What only
    they or log v need covers the leading `n_slope` rows (None: all)."""

    def __init__(self, effect: EffectSpec, t, onset=None, x1=0.0,
                 n_slope: int | None = None):
        t = np.asarray(t, dtype=float)
        self.effect = effect
        self.t = t
        self.tv = onset is not None
        self.n_b1 = int(self.tv)
        self.x1 = np.asarray(1.0 if self.tv else x1, dtype=float)
        self.x1_slope = _lead(self.x1, n_slope)
        self.n_slope = n_slope
        self.switch_form = self.tv or effect.kind != "piecewise"
        if not self.switch_form:
            self.lead, self.terms = piecewise_terms(effect.knot_array(), t)
            levels, self.level_index = self.x1[None], None
            if self.x1.ndim:  # one exposure value per row
                levels, index = np.unique(self.x1, return_inverse=True)
                self.level_index = index.reshape(-1)
                self.ones, self.neg_x1 = np.ones(effect.J), -self.x1
            self.neg_levels = -levels[:, None]
            return
        onset = 0.0 if onset is None else onset
        self.post = t > onset
        self.min_t = np.minimum(t, onset)
        self.s = np.where(self.post, t - onset, 1.0)
        self.s_post = self.s * self.post
        B = (np.where(self.post[..., None], tv_basis(effect, self.s), 0.0)
             if effect.J and self.post.any()
             else np.zeros(t.shape + (effect.J,)))
        self.xB = B if self.tv else self.x1[..., None] * B

    @cached_property
    def seg_x1(self):
        """x1 on the slope rows in the column of their segment past the
        first (piecewise without a switch): log v is -eta - seg_x1 @ alpha."""
        seg = piecewise_segment(self.effect.knot_array(),
                                _lead(self.t, self.n_slope))
        return ((seg[..., None] == np.arange(1, self.effect.J + 1))
                * self.x1_slope[..., None])

    def _with_b1(self, a, b1_column):
        return np.concatenate(
            [np.full(a.shape[:-1] + (self.n_b1,), b1_column), a], axis=-1)

    @cached_property
    def du_matrix(self):
        """dlog u/dtheta is bump/inner times these columns (switch form)."""
        return -self._with_b1(self.xB, 1.0)

    @cached_property
    def slopes(self):
        """x1 times the slope of the monotonicity rule per theta (0 for b1)
        on the slope rows, and its alpha columns (switch form)."""
        k = self.n_slope
        post = _lead(self.post, k)[..., None]
        cols = (slope_basis(self.effect, _lead(self.s, k)) if self.effect.J
                else post[..., :0])
        slopes = self._with_b1(
            np.where(post, cols, 0.0) * self.x1_slope[..., None], 0.0)
        return slopes, slopes[..., self.n_b1:]

    @cached_property
    def fixed_dlogv(self):
        """The partials in theta of sum log v's parameter-free part: minus
        the sums of x1 per segment, or of post (b1) and of xB."""
        if not self.switch_form:
            return -self.seg_x1.sum(axis=0)
        k = self.n_slope
        return self._with_b1(-_lead(self.xB, k).sum(axis=0),
                             -np.count_nonzero(_lead(self.post, k)))


class TransformTerms:
    """u = V(t) and, when asked for, log v(t) on the slope rows, with their
    partials in theta (see `TimeBasis`) contracted: dlog u/dtheta is the
    per-row `dlu_factor` times that row of `du_matrix`, and `dlv` is the
    partials of sum log v; dlog u/deta = dlog v/deta = -1 for every kind.
    log v is -inf (v clamped at 0) where V is not increasing."""

    dlu_factor = du_matrix = logv = dlv = None


def transform(basis: TimeBasis, alpha: np.ndarray, eta=0.0, b1=0.0,
              logv: bool = False, grad: bool = False) -> TransformTerms:
    """The one evaluator of V(t|x) (and log v) for every effect kind.

    `eta` is x'beta (time-invariant covariates only for time-varying
    models), a scalar or one value per row of the basis, and `b1` the
    switch coefficient (ignored without a switch); the exposure value that
    multiplies alpha belongs to the basis. A piecewise effect without a
    switch is summed over its segments; every other kind is the switch form

        V(t) = exp(-eta) * [min(t, t_x) + (t - t_x)_+ exp(-b1 - x1 a)],

    a = B(t - t_x) @ alpha, at onset t_x = 0 and b1 = 0 without a switch.

    Without `grad`, alpha may be a block of D draws, shape (J, D), with eta
    of shape (rows, D) and b1 of shape (D,); every output then has a
    trailing axis of draws. Callers suppress the floating-point warnings of
    extreme values."""
    out = TransformTerms()
    k = basis.n_slope
    cols = (Ellipsis, None) if alpha.ndim == 2 else Ellipsis  # draws axis
    neg_eta = -eta
    scale = np.exp(neg_eta)
    if grad:
        out.dlv = basis.fixed_dlogv
    if not basis.switch_form:  # piecewise without a switch
        E = np.exp(basis.neg_levels[cols] * alpha)  # row per exposure value
        if basis.level_index is None:  # one exposure value, as in inference
            out.u = scale * (basis.lead[cols] + basis.terms @ E[0])
        elif alpha.ndim == 2:
            out.u = scale * (basis.lead[:, None] + np.einsum(
                "rj,rjd->rd", basis.terms, E.take(basis.level_index, axis=0)))
        else:
            ET = E.take(basis.level_index, axis=0) * basis.terms  # at slopes
            inner = basis.lead + ET @ basis.ones
            out.u = scale * inner
            if grad:
                out.dlu_factor, out.du_matrix = basis.neg_x1 / inner, ET
        if logv:
            out.logv = _lead(neg_eta, k) - basis.seg_x1 @ alpha
        return out

    arg = basis.xB @ -alpha  # -b1 - x1 a past the switch, 0 before it
    if basis.tv:
        arg -= b1 * basis.post[cols]
    bump = basis.s_post[cols] * np.exp(arg)
    inner = basis.min_t[cols] + bump
    out.u = scale * inner
    if grad:
        out.dlu_factor, out.du_matrix = bump / inner, basis.du_matrix
    if logv:
        slopes, alpha_slopes = basis.slopes
        one_minus = 1.0 - alpha_slopes @ alpha
        out.logv = (_lead(neg_eta, k) + _lead(arg, k)
                    + np.log(np.maximum(one_minus, 0.0)))
        if grad:
            out.dlv = out.dlv - (1.0 / one_minus) @ slopes
    return out


# -- V and V^{-1} ----------------------------------------------------------

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


def v_inverse(spec: EffectSpec, beta, alpha, x, s, x1_index: int = 0):
    """The time t with V(t|x) = s, for s >= 0 (see `transform_inverse`)."""
    return transform_inverse(spec, _check_alpha(spec, alpha), s,
                             *_pattern(spec, beta, x, x1_index))


def tv_v_inverse(beta1: float, beta2_term: float, alpha,
                 tv: TimeVaryingCovariate, effect: EffectSpec | None, s):
    """The time t with V(t) = s under a binary covariate switching at
    tv.change_time (see `transform_inverse`). `beta2_term` is x'beta of the
    time-invariant covariates; `effect` carries the flexible basis of the
    switch effect (None for a constant effect)."""
    effect = effect or EffectSpec("constant")
    return transform_inverse(effect, _check_alpha(effect, alpha), s,
                             beta2_term, b1=beta1, onset=tv.change_time)


# -- monotonicity ----------------------------------------------------------

def is_monotone(effect: EffectSpec, alpha: np.ndarray, x1=1.0,
                switch: bool = False) -> bool:
    """The one monotonicity rule: V(t) is increasing on t > 0 iff alpha is
    finite and 1 - x1 g'(log t) > 0 (1 - s a'(s) > 0 after a `switch`,
    where x1 = 1) at the extremes of the slope, for each exposure value in
    x1. A spline's g' is constant beyond the boundary knots and quadratic
    between them, so its extremes are its values at the knots and at the
    vertex of each piece where g'' changes sign. After a switch, s a'(s) on
    segment k is (alpha_k tau_k - sum_{j<k} alpha_j L_j) / s, largest at
    the left knot: D alpha < 1 with D from `EffectSpec.knot_rows`. Other
    kinds are increasing for every finite alpha."""
    if not np.isfinite(alpha).all():
        return False
    if effect.kind == "spline":
        g, c = effect.knot_rows[0] @ alpha, effect.knot_rows[1] @ alpha
        turn = c[:-1] * c[1:] < 0.0  # g'' changes sign between knots
        a, b, h = c[:-1][turn], c[1:][turn], np.diff(effect.knot_array())[turn]
        g = np.concatenate([g, g[:-1][turn] + 0.5 * h * a * (a / (a - b))])
    elif effect.kind == "piecewise" and switch:
        g = effect.knot_rows[0] @ alpha
    else:
        return True
    return bool((1.0 - np.multiply.outer(x1, g) > 0.0).all())
