"""Quantile times, acceleration factors, and g-formula standardization.

The p-th quantile survival time under covariates x is V^{-1}(S0^{-1}(p)|x),
and the quantile-varying acceleration factor between two covariate patterns
is the ratio of their quantile times. For a binary time-varying covariate
with a constant effect the acceleration factor comparing a switch at t_x
against never switching has the closed form

    w + exp(b1) * (1 - w),   w = t_x / (S0^{-1}(p) * exp(x2'b2)),

when the comparison quantile time exceeds t_x, and 1 before it; the general
two-subject ratio is also available and any flexible case falls back to the
numeric inverse. Every quantity here reads its linear predictor from
`ModelSpec.predictor` and evaluates V and V^{-1} through
`covproc.transform`, `covproc.transform_value` and
`covproc.transform_inverse`; nothing indexes beta itself.

Marginal (standardized) quantities average the covariate-conditional
survivor over the empirical distribution of the other covariates of all n
subjects: S_std(t | level) = n^{-1} sum_i S(t | level, z_i), where
V(t | level, z_i) = exp(-eta_i) h(t) splits into a per-subject factor and
a per-level time profile h. Standardized quantile times come from the
shared root-finder `roots.increasing_root`, converged to ~1e-13 relative
(well inside the documented 1e-9 requirement, so degenerate cases reduce
exactly to their conditional counterparts). Per draw and level, one
evaluator holds exp(-eta_i), x1 and b1 and reads the baseline from
`baseline.log_terms`, and every use of S_std in one pass over the draws
reads it: its value at the largest follow-up (for the extrapolation
threshold), its values on a fixed geometric time grid, between two of
which every p is bracketed, and, for the root-finder's safeguarded Newton
polish, its slope dS_std/dt = -mean_i f0(u_i) exp(-eta_i) h'(t).

A contrast changes one column of every subject (with a switch, only the
onset), so eta_{L,i} - eta_{ref,i} is the same for all i and

    S_std(t | L) = G(V_L(t)),   G(v) = n^{-1} sum_i S0(v exp(-eta_{ref,i})),

with one G for every level and V_L the transform at eta = eta_L - eta_ref
with the level's exposure value or onset. The quantile times of level L
are then t_L(p) = V_L^{-1}(V_ref(t_ref(p))). Per draw, an AF table or
surface inverts S_std once, at the reference level (n-subject sums at
about 3.3 Newton evaluations per p), and reads every exposed level off it
with one V^{-1} call over all levels (no subject sums); each level's S_std
is still read once at the largest follow-up for the extrapolation flags.
Posterior summaries are the mean, median, and equal-tailed 95% interval
across draws. A quantile is flagged as extrapolated when it lies below the
smallest posterior-mean standardized survivor value reached by the largest
observed follow-up time in both contrast groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import baseline as bl
from .covproc import (
    TimeBasis,
    TimeVaryingCovariate,
    transform,
    transform_inverse,
    transform_value,
)
from .data import as_dataset, atomic_write_text, max_followup
from .errors import DomainError, NumericalError
from .likelihood import ParameterVector, check_psi, psi_from_constrained
from .model import ModelSpec
from .roots import MAX_WIDEN, increasing_root
from .sampler import PosteriorDraws

__all__ = [
    "ContrastSpec",
    "CurveTable",
    "default_quantile_grid",
    "quantile_time",
    "acceleration_factor",
    "tv_acceleration_factor",
    "survivor_conditional",
    "standardized_survivor",
    "standardized_af",
    "standardized_survivor_curves",
    "af_surface",
]

BISECT_RTOL = 1e-13
BLOCK = 8192  # entries of u per block: 64 KiB, below glibc's mmap threshold
# the standardized inverse brackets every p on this many grid times, spaced
# geometrically from 2^-20 to 4 times the largest follow-up
AF_GRID = 64


def default_quantile_grid() -> np.ndarray:
    """99 quantile levels 0.01, 0.02, ..., 0.99."""
    return np.arange(1, 100) / 100.0


def surface_quantile_grid() -> np.ndarray:
    """Coarser grid 0.01, 0.03, ..., 0.99 used for acceleration surfaces."""
    return np.arange(1, 100, 2) / 100.0


@dataclass(frozen=True)
class ContrastSpec:
    """Exposure contrast for marginal summaries: for ordinary models the two
    values of the exposure covariate; for time-varying models the two switch
    times (+inf = never)."""

    exposed: float = 1.0
    reference: float = 0.0

    @staticmethod
    def default(model: ModelSpec) -> "ContrastSpec":
        if model.time_varying:
            raise DomainError("time-varying contrasts need an explicit "
                              "switch time: ContrastSpec(t_x, inf)")
        return ContrastSpec(1.0, 0.0)


@dataclass
class CurveTable:
    """Long-format plot data: one row per (abscissa, group)."""

    abscissa: np.ndarray
    group: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    lo95: np.ndarray
    hi95: np.ndarray
    extrapolated: np.ndarray

    HEADER = "abscissa,group,mean,median,lo95,hi95,extrapolated"

    def __post_init__(self):
        if np.any(self.lo95 > self.median) or np.any(self.median > self.hi95):
            raise DomainError("curve table requires lo95 <= median <= hi95")

    @property
    def n_rows(self) -> int:
        return len(self.abscissa)

    def rows_for(self, group: str) -> "CurveTable":
        m = self.group == group
        return CurveTable(self.abscissa[m], self.group[m], self.mean[m],
                          self.median[m], self.lo95[m], self.hi95[m],
                          self.extrapolated[m])

    def to_csv(self, path) -> None:
        lines = [self.HEADER] + [
            ",".join([repr(float(a)), str(g), *map(repr, map(float, v)),
                      str(int(e))])
            for a, g, *v, e in zip(self.abscissa, self.group, self.mean,
                                   self.median, self.lo95, self.hi95,
                                   self.extrapolated)]
        atomic_write_text(path, "\n".join(lines) + "\n")

    @staticmethod
    def from_csv(path) -> "CurveTable":
        import csv as _csv
        with open(path, newline="") as fh:
            reader = _csv.reader(fh)
            header = next(reader)
            if ",".join(header) != CurveTable.HEADER:
                raise DomainError(f"{path}: unexpected curve-table header")
            rows = list(reader)
        num = [np.array([float(r[j]) for r in rows]) for j in (0, 2, 3, 4, 5)]
        return CurveTable(num[0], np.array([r[1] for r in rows], dtype=object),
                          *num[1:], np.array([int(r[6]) for r in rows],
                                             dtype=bool))

    @staticmethod
    def concat(tables) -> "CurveTable":
        return CurveTable(*[np.concatenate([getattr(t, f) for t in tables])
                            for f in ("abscissa", "group", "mean", "median",
                                      "lo95", "hi95", "extrapolated")])


# -- conditional quantities ---------------------------------------------------

def _switch(model: ModelSpec, onset):
    """The checked switch times (a scalar or an array) of a time-varying
    model; None otherwise."""
    return TimeVaryingCovariate(onset).change_time if model.time_varying else None


def quantile_time(model: ModelSpec, psi: ParameterVector, x, p,
                  onset=math.inf, level: float | None = None):
    """p-th quantile survival time under covariate pattern x (and, for
    time-varying models, a switch at `onset`); a contrast `level`, if
    given, replaces x's exposure value (see `ModelSpec.predictor`).

    x may also be covariate rows, shape (n, d), with p and onset scalars or
    one value per row; the rows are inverted in one call, and each row's
    time depends on its own x, p and onset only."""
    check_psi(model, psi)
    q = bl.inverse_survivor(model.baseline, psi.baseline_params(),
                            psi.tbp_weights(), p)
    return transform_inverse(model.effect, psi.alpha, q,
                             *model.predictor(psi.beta, x, level),
                             onset=_switch(model, onset))


def acceleration_factor(model: ModelSpec, psi: ParameterVector, p, x, x_prime,
                        onset: float = math.inf,
                        onset_prime: float = math.inf):
    """Quantile-varying acceleration factor: ratio of p-th quantile times
    under (x, onset) and (x_prime, onset_prime)."""
    num = quantile_time(model, psi, x, p, onset)
    den = quantile_time(model, psi, x_prime, p, onset_prime)
    return num / den


def tv_acceleration_factor(model: ModelSpec, psi: ParameterVector, p, t_x,
                           x2=(), t_x_prime: float = math.inf, x2_prime=None):
    """Closed-form acceleration factor for a constant-effect binary
    time-varying covariate: switch at t_x versus switch at t_x_prime
    (default never), for subjects with time-invariant covariates x2."""
    check_psi(model, psi)
    if not model.time_varying:
        raise DomainError("tv_acceleration_factor needs a time-varying model")
    if model.effect.kind != "constant" and np.any(psi.alpha != 0.0):
        raise DomainError("closed form requires a constant switch effect; "
                          "use acceleration_factor for flexible effects")
    q = bl.inverse_survivor(model.baseline, psi.baseline_params(),
                            psi.tbp_weights(), p)
    b2, _, b1 = model.predictor(psi.beta, x2)
    b2p = b2 if x2_prime is None else model.predictor(psi.beta, x2_prime)[0]
    eb1 = math.exp(b1)

    def branch(qv, tx, lin):
        thr = tx * math.exp(-lin) if math.isfinite(tx) else math.inf
        return np.minimum(qv, thr) + eb1 * np.maximum(qv - thr, 0.0)

    out = math.exp(b2 - b2p) * branch(q, t_x, b2) / branch(q, t_x_prime, b2p)
    return float(out) if np.ndim(p) == 0 else out


def survivor_conditional(model: ModelSpec, psi: ParameterVector, x, t,
                         onset: float = math.inf):
    """S(t | x) = S0(V(t | x))."""
    check_psi(model, psi)
    u = transform_value(model.effect, psi.alpha, t,
                        *model.predictor(psi.beta, x),
                        onset=_switch(model, onset))
    return bl.survivor(model.baseline, psi.baseline_params(),
                       psi.tbp_weights(), u)


# -- standardization ----------------------------------------------------------

def standardized_survivor(model: ModelSpec, psi: ParameterVector, data,
                          level: float, t):
    """g-formula survivor: the average of S(t | level, z_i) over the n
    observed covariate patterns z_i (exposure column overridden by `level`;
    in time-varying models `level` is the switch time, +inf = never)."""
    check_psi(model, psi)
    data = as_dataset(data)
    if data.n == 0:
        raise DomainError("standardization needs a nonempty dataset")
    t_arr = np.atleast_1d(bl._nonnegative(t))
    out = _standardized_sf(model, psi, data, level)(t_arr)
    return float(out[0]) if np.ndim(t) == 0 else out


def _standardized_sf(model, psi, data, level):
    """t -> S_std(t | level) for a 1-D array t, with exp(-eta_i), x1 and b1
    built once for the draw and level; the profile h(t) is the transform at
    eta = 0 with the exposure (or, time-varying, the switch time) at
    `level`. Its attribute `newton` is t -> (-S_std, -dS_std/dt), the
    increasing function and slope that the inverse solves, with
    dS_std/dt = -mean_i f0(u_i) exp(-eta_i) h'(t). Both transform t once
    and read the baseline from `log_terms` on u = outer(h, exp(-eta)) as
    its factors, by blocks of one or more time rows, at most BLOCK entries
    where n allows: a partition set by len(t) and n alone."""
    eta, x1, b1 = model.predictor(psi.beta, data.x, level)
    scale = np.exp(-eta)                                       # (n,)
    onset = level if model.time_varying else None
    step = max(1, BLOCK // scale.size)

    def sf(t: np.ndarray, slope: bool = False):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            h = transform(TimeBasis(model.effect, t, onset, x1), psi.alpha,
                          b1=b1, logv=slope)
            s, f = np.empty(t.size), np.empty(t.size)
            for i in range(0, t.size, step):
                u = bl.Outer(h.u[i:i + step], scale)
                st, pdf = bl.log_terms(model.baseline, psi.mu, psi.sigma,
                                       psi.w, u, u.h.size if slope else 0,
                                       sf_head=True)
                s[i:i + step] = np.exp(st.val).sum(axis=1)
                if slope:                                      # sum f0 e^-eta
                    f[i:i + step] = (np.exp(pdf.val) * scale).sum(axis=1)
        if not slope:
            return s / scale.size
        return -s / scale.size, f / scale.size * np.exp(h.logv)

    sf.newton = lambda t: sf(t, slope=True)
    return sf


def _invert_standardized(model, psi, data, level, p: np.ndarray,
                         sf=None) -> np.ndarray:
    """Solve S_std(t | level) = p elementwise, to a relative BISECT_RTOL;
    `sf` is the draw's `_standardized_sf` at `level`, built here if not
    given.

    S_std is evaluated once on a geometric grid of AF_GRID times around the
    largest follow-up, extended x4 at a time past its top only while some
    target lies beyond it; each p is bracketed between neighbouring grid
    times (or 0 and the first) and polished by the root-finder's
    safeguarded Newton on `sf.newton`."""
    what = f"standardized inverse at level {level:g}"
    if sf is None:
        sf = _standardized_sf(model, psi, data, level)
    grid = max(max_followup(data), 1.0) * np.geomspace(2.0 ** -20, 4.0,
                                                        AF_GRID)
    y = -p
    g = -sf(grid)
    for _ in range(MAX_WIDEN):
        if g[-1] >= y.max():  # NaN counts as not reached
            break
        grid = np.append(grid, 4.0 * grid[-1])
        g = np.append(g, -sf(grid[-1:]))
    if not g[-1] >= y.max():
        short = y[~(y <= g[-1])]
        raise NumericalError(f"{what}: target not reached after {MAX_WIDEN} "
                             f"widenings", targets=short.tolist(),
                             hi=[float(grid[-1])] * short.size)
    k = np.searchsorted(g, y)  # first grid time with -S_std >= -p
    lo, hi = np.where(k > 0, grid[k - 1], 0.0), grid[k]
    # Newton starts where log(-log S_std) is linear in log t between the
    # bracket ends (exact for one subject, a constant effect and a Weibull
    # baseline)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.log(-np.log(-g))
        c_y = np.log(-np.log(p))
        km = np.maximum(k - 1, 0)
        w = (c_y - c[km]) / (c[k] - c[km])
        start = lo * (hi / lo) ** w
    return increasing_root(sf.newton, y, hi, BISECT_RTOL, what, lo=lo,
                           slope=True, start=start)


def _draw_parameters(model: ModelSpec, draws: PosteriorDraws):
    for row in draws.constrained:
        yield psi_from_constrained(model, row)


def percentiles(samples: np.ndarray, q) -> list:
    """np.percentile(samples, p, axis=0) for each p in q, by numpy's
    default linear rule, from one sort of the columns (with NaN last, so a
    column holding one gives NaN): bit for bit, but for the sign of a zero
    where -0.0 and 0.0 tie. np.percentile itself loads numpy.ma, which
    costs a cold command more than the sort."""
    s = np.sort(samples, axis=0)
    n, out = len(s), []
    for p in q:
        at = (n - 1) * (p / 100.0)
        lo = math.floor(at) if at < n - 1 else -1  # numpy's index rule
        a, b = s[lo], s[lo + 1 if lo >= 0 else -1]
        gamma = at - lo
        diff = b - a
        value = a + diff * gamma if gamma < 0.5 else b - diff * (1.0 - gamma)
        out.append(np.where(np.isnan(s[-1]), s[-1], value))
    return out


def _summaries(samples: np.ndarray):
    """(M, k) samples -> mean, median, equal-tailed 95% bounds per column."""
    # shifted so that identical rows give their common value exactly
    mean = samples[0] + (samples - samples[0]).mean(axis=0)
    return (mean, *percentiles(samples, (50.0, 2.5, 97.5)))


def _exposed_times(model, psi, m, levels, t_ref) -> np.ndarray:
    """The quantile times at draw m of each level in levels[1:], one row
    per level, read off those of the reference levels[0], `t_ref`, as
    t_L = V_L^{-1}(V_ref(t_ref)) (see `_af_tables`). Each level's eta
    shift, x1 and onset come from `ModelSpec.predictor` on a row of zeros.
    Every level is inverted in one call, each row as it would be alone; a
    level whose V^{-1} raises or gives a time that is not finite and
    positive fails with a NumericalError naming the draw and the level."""
    levels = np.array(levels)
    eta, x1, b1 = model.predictor(
        psi.beta, np.zeros((levels.size, len(model.covariates))), levels)
    x1 = np.broadcast_to(x1, levels.shape)
    onset = _switch(model, levels)

    def inverse(k):
        """V^{-1} at v of the levels that `k` indexes."""
        return transform_inverse(model.effect, psi.alpha, v, eta[k] - eta[0],
                                 x1[k], b1, None if onset is None else onset[k])

    def fail(k, detail, **context):
        return NumericalError(f"standardized AF failed at draw {m}, level "
                              f"{levels[k]:g}: {detail}", draw=m,
                              level=float(levels[k]), **context)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = transform_value(model.effect, psi.alpha, t_ref, 0.0, x1[0], b1,
                            None if onset is None else onset[0])
        if not np.all(np.isfinite(v) & (v > 0.0)):
            raise fail(0, "V at its quantile times is not finite and "
                       "positive", v=v.tolist())
        try:
            t = inverse(np.s_[1:, None])
        except NumericalError:
            for k in range(1, levels.size):  # the first level failing alone
                try:
                    inverse(k)
                except NumericalError as err:
                    raise fail(k, str(err), **err.context) from None
            raise
    bad = ~(np.isfinite(t) & (t > 0.0))
    if bad.any():
        k = np.flatnonzero(bad.any(axis=1))[0]
        raise fail(k + 1, "V^{-1} gave a time that is not finite and "
                   "positive", times=t[k][bad[k]].tolist())
    return t


def _af_tables(model, draws, data, p, exposed, reference,
               labels) -> list:
    """Standardized AF curves of each level in `exposed` against the one
    `reference` level, on the same draws: one table per exposed level.

    Under the AFT a level L gives u_i(t) = exp(-eta_{L,i}) h_L(t), and a
    contrast changes one column (with a switch, only the onset), so eta_L -
    eta_ref is the same for every subject and S_std(t | L) = G(V_L(t)),
    with one G(v) = mean_i S0(v exp(-eta_{ref,i})) for every level and V_L
    the transform at eta = eta_L - eta_ref. Per draw, only the reference's
    S_std is inverted (`_invert_standardized`, n subjects per evaluation);
    every exposed level's quantile times come from one V^{-1} call over
    the levels (`_exposed_times`), which costs no subject sums. Each
    level's S_std is still read at the largest follow-up: a p is flagged
    as extrapolated below the smaller of the two groups' posterior-mean
    S_std there."""
    if draws.M == 0:
        raise DomainError("no posterior draws supplied")
    levels = (reference, *exposed)
    tmax = np.array([max_followup(data)])
    times = np.empty((len(levels), draws.M, len(p)))
    at_tmax = np.empty((len(levels), draws.M))
    for m, psi in enumerate(_draw_parameters(model, draws)):
        sfs = [_standardized_sf(model, psi, data, level) for level in levels]
        at_tmax[:, m] = [sf(tmax)[0] for sf in sfs]
        try:
            times[0, m] = _invert_standardized(model, psi, data, reference,
                                               p, sfs[0])
        except NumericalError as err:
            raise NumericalError(f"standardized inverse failed at draw {m}: "
                                 f"{err}", draw=m, level=reference,
                                 p=p.tolist(), **err.context) from None
        times[1:, m] = _exposed_times(model, psi, m, levels, times[0, m])
    ref_tmax, *exposed_tmax = at_tmax.mean(axis=1)
    return [CurveTable(p.copy(), np.full(len(p), label, dtype=object),
                       *_summaries(t / times[0]), p < min(s, ref_tmax))
            for label, t, s in zip(labels, times[1:], exposed_tmax)]


def standardized_af(model: ModelSpec, draws: PosteriorDraws, data,
                    p_grid=None, contrast: ContrastSpec | None = None
                    ) -> CurveTable:
    """Posterior-summarized standardized acceleration factor curve.

    Per draw, the reference group's standardized survivor is inverted at
    every p, the exposed group's quantile times follow from S_std(t | L) =
    G(V_L(t)) through V^{-1} (see `_af_tables`), and the ratio of quantile
    times is formed; the table rows carry the across-draw mean, median and
    95% interval at each p.
    """
    data = as_dataset(data)
    if contrast is None:
        contrast = ContrastSpec.default(model)
    p = bl._check_p(p_grid if p_grid is not None else default_quantile_grid())
    return _af_tables(model, draws, data, p, (contrast.exposed,),
                      contrast.reference, ("af",))[0]


def standardized_survivor_curves(model: ModelSpec, draws: PosteriorDraws,
                                 data, t_grid=None,
                                 contrast: ContrastSpec | None = None) -> CurveTable:
    """Posterior-summarized standardized survivor curves, one group per
    contrast level (labels "exposed" / "unexposed")."""
    data = as_dataset(data)
    if contrast is None:
        contrast = ContrastSpec.default(model)
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.2 * max_followup(data), 101)[1:]
    t_grid = bl._nonnegative(t_grid)

    tables = []
    for label, level in (("exposed", contrast.exposed),
                         ("unexposed", contrast.reference)):
        vals = np.array([
            _standardized_sf(model, psi, data, level)(t_grid)
            for psi in _draw_parameters(model, draws)
        ])
        bad = np.flatnonzero(np.isnan(vals).any(axis=1))
        if bad.size:  # 0 * inf: exp(-eta_i) = 0 against an infinite profile
            raise NumericalError(f"standardized survivor ({label}) is NaN at "
                                 f"draw {bad[0]}", draw=int(bad[0]))
        tables.append(CurveTable(
            t_grid.copy(), np.full(len(t_grid), label, dtype=object),
            *_summaries(vals), np.zeros(len(t_grid), dtype=bool)))
    return CurveTable.concat(tables)


def af_surface(model: ModelSpec, draws: PosteriorDraws, data,
               onset_grid=None, p_grid=None, thin: int = 10) -> CurveTable:
    """Acceleration-factor surface for a time-varying model: standardized AF
    curves (switch at g versus never), one group "tx=<g>" per onset g. Draws
    are thinned by `thin` to keep the surface affordable; each horizontal
    slice is exactly `standardized_af` on the same thinned draws. Per draw,
    S_std is inverted once, at "never", and every onset's quantile times
    come from one V^{-1} call over all onsets, since S_std(t | g) =
    G(V_g(t)) with one G (see `_af_tables`); each onset's S_std is read
    only at the largest follow-up, for the extrapolation flags."""
    if not model.time_varying:
        raise DomainError("af_surface needs a time-varying model")
    data = as_dataset(data)
    if onset_grid is None:
        onset_grid = np.linspace(0.0, max_followup(data), 41)[1:]
    onset_grid = np.asarray(onset_grid, dtype=float)
    p = bl._check_p(p_grid if p_grid is not None else surface_quantile_grid())
    sub = draws.thin_by(thin)
    return CurveTable.concat(_af_tables(
        model, sub, data, p, [float(g) for g in onset_grid], math.inf,
        [f"tx={g:g}" for g in onset_grid]))
