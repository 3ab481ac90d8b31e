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
`covproc.transform_value` and `covproc.transform_inverse`; nothing indexes
beta itself.

Marginal (standardized) quantities average the covariate-conditional
survivor over the empirical distribution of the other covariates of all n
subjects: S_std(t | L) = n^{-1} sum_i S(t | L, z_i) for a contrast level
L. A contrast changes one column of every subject (with a switch, only the
onset), so eta_{L,i} - eta_{ref,i} is the same for all i and

    S_std(t | L) = G(V_L(t)),   G(v) = n^{-1} sum_i S0(v exp(-eta_{ref,i})),

with one G for every level and V_L the transform at eta = eta_L - eta_ref
with the level's exposure value or onset. Per draw, one evaluator holds
exp(-eta_{ref,i}) and reads the baseline from `baseline.log_terms`; it has
no time transform, and its slope is dG/dv = -mean_i f0(v exp(-eta_i))
exp(-eta_i). An AF table or surface inverts G once per draw on the V axis,
to v(p) with the shared root-finder `roots.increasing_root` (a fixed
geometric grid around V_ref at the largest follow-up brackets every p,
and a safeguarded Newton polish converges to ~1e-13 relative, well inside
the documented 1e-9 requirement, at about 3.3 evaluations of n-subject
sums per p). Every level's quantile times, the reference's included, are
then t_L(p) = V_L^{-1}(v(p)), from one V^{-1} call over the levels (no
subject sums), and the extrapolation flags read G(V_L(tmax)) of every
level in one call. Survivor curves are G(V_L(t)) on the time grid.
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
from .covproc import TimeVaryingCovariate, transform_inverse, transform_value
from .data import Dataset, atomic_write_text, max_followup
from .draws import PosteriorDraws
from .errors import DomainError, NumericalError
from .likelihood import (ParameterVector, check_psi, heap_policy,
                         psi_from_constrained)
from .model import ModelSpec
from .roots import MAX_WIDEN, increasing_root

__all__ = [
    "ContrastSpec",
    "CurveTable",
    "default_quantile_grid",
    "quantile_time",
    "acceleration_factor",
    "tv_acceleration_factor",
    "standardized_af",
    "standardized_survivor_curves",
    "af_surface",
]

BISECT_RTOL = 1e-13
BLOCK = 65536  # entries of u per block of values of v, sized by time
# the standardized inverse brackets every p on this many values of V, spaced
# geometrically from 2^-20 to 4 times V_ref at the largest follow-up
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


# -- standardization ----------------------------------------------------------

def _standardized_g(model, psi, data, reference):
    """v -> G(v) = mean_i S0(v exp(-eta_i)) for a 1-D array v, with eta_i
    subject i's linear predictor at the contrast's `reference` level, built
    once per draw: every level's S_std(t | L) is G(V_L(t)) (see
    `_level_transform`). With `slope` it gives (-G, -dG/dv), the increasing
    function and slope that the inverse solves, with
    dG/dv = -mean_i f0(v exp(-eta_i)) exp(-eta_i). Both read the baseline
    from `log_terms` on u = outer(v, exp(-eta)) as its factors, by blocks
    of one or more values of v, at most BLOCK entries where n allows: a
    partition set by len(v) and n alone."""
    eta = model.predictor(psi.beta, model.design(data), reference)[0]
    scale = np.exp(-eta)                                       # (n,)
    step = max(1, BLOCK // scale.size)

    def G(v: np.ndarray, slope: bool = False):
        s, f = np.empty(v.size), np.empty(v.size)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i in range(0, v.size, step):
                u = bl.Outer(v[i:i + step], scale)
                st, pdf = bl.log_terms(model.baseline, psi.mu, psi.sigma,
                                       psi.w, u, u.h.size if slope else 0,
                                       sf_head=True)
                s[i:i + step] = np.exp(st.val).sum(axis=1)
                if slope:                                      # sum f0 e^-eta
                    f[i:i + step] = (np.exp(pdf.val) * scale).sum(axis=1)
        if not slope:
            return s / scale.size
        return -s / scale.size, f / scale.size

    return G


def _level_transform(model, psi, levels):
    """V_L of each contrast level L in `levels` against the first, the
    reference: the transform at eta = eta_L - eta_ref, a shift that is the
    same for every subject, so that S_std(t | L) = G(V_L(t)) with the
    reference's G (`_standardized_g`; see the module docstring). Each
    level's shift, x1 and onset come from `ModelSpec.predictor` on a row of
    zeros. Returns V(a, k=all, inverse=False): V_L(a), or V_L^{-1}(a), of a
    1-D array a at the level of the index k, or at each level of the index
    array k, one row per level, from one call in which each entry is
    computed as it would be alone."""
    levels = np.asarray(levels, dtype=float)
    eta, x1, b1 = model.predictor(
        psi.beta, np.zeros((levels.size, len(model.covariates))), levels)
    shift, x1 = eta - eta[0], np.broadcast_to(x1, levels.shape)
    onset = _switch(model, levels)

    def V(a, k=np.arange(levels.size), inverse=False):
        shape = np.shape(k) + a.shape
        if np.ndim(k):  # the levels' rows, flattened
            k, a = np.repeat(k, a.size), np.resize(a, np.size(k) * a.size)
        return (transform_inverse if inverse else transform_value)(
            model.effect, psi.alpha, a, shift[k], x1[k], b1,
            None if onset is None else onset[k]).reshape(shape)

    return V


def _invert_standardized(G, p: np.ndarray, top: float, level) -> np.ndarray:
    """Solve G(v) = p elementwise, to a relative BISECT_RTOL, for the draw's
    G (`_standardized_g`) at the reference `level`, whose V at the largest
    follow-up is `top`.

    G is evaluated once on a geometric grid of AF_GRID values around `top`,
    extended x4 at a time past its top only while some target lies beyond
    it; each p is bracketed between neighbouring grid values (or 0 and the
    first) and polished by the root-finder's safeguarded Newton on G with
    its slope."""
    what = f"standardized inverse at level {level:g}"
    if not math.isfinite(top):  # the grid is built around it
        raise NumericalError(f"{what}: V at the largest follow-up is {top:g}")
    grid = max(top, 1.0) * np.geomspace(2.0 ** -20, 4.0, AF_GRID)
    y = -p
    g = -G(grid)
    for _ in range(MAX_WIDEN):
        if g[-1] >= y.max():  # NaN counts as not reached
            break
        grid = np.append(grid, 4.0 * grid[-1])
        g = np.append(g, -G(grid[-1:]))
    if not g[-1] >= y.max():
        short = y[~(y <= g[-1])]
        raise NumericalError(f"{what}: target not reached after {MAX_WIDEN} "
                             f"widenings", targets=short.tolist(),
                             hi=[float(grid[-1])] * short.size)
    k = np.searchsorted(g, y)  # first grid value with -G >= -p
    lo, hi = np.where(k > 0, grid[k - 1], 0.0), grid[k]
    # Newton starts where log(-log G) is linear in log v between the
    # bracket ends (exact for one subject and a Weibull baseline)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.log(-np.log(-g))
        c_y = np.log(-np.log(p))
        km = np.maximum(k - 1, 0)
        w = (c_y - c[km]) / (c[k] - c[km])
        start = lo * (hi / lo) ** w
    return increasing_root(lambda v: G(v, slope=True), y, hi, BISECT_RTOL,
                           what, lo=lo, slope=True, start=start)


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



def _level_times(V, v, m, levels) -> np.ndarray:
    """The quantile times at draw m of every level, one row per level:
    t_L = V_L^{-1}(v) at the draw's v = G^{-1}(p) (see `_af_tables`), all
    levels in one call, each row as it would be alone. A level whose
    V^{-1} raises or gives a time that is not finite and positive fails
    with a NumericalError naming the draw and the level."""
    def fail(k, detail, **context):
        return NumericalError(f"standardized AF failed at draw {m}, level "
                              f"{levels[k]:g}: {detail}", draw=m,
                              level=float(levels[k]), **context)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            t = V(v, inverse=True)
        except NumericalError:
            for k in range(len(levels)):  # the first level failing alone
                try:
                    V(v, k, inverse=True)
                except NumericalError as err:
                    raise fail(k, str(err), **err.context) from None
            raise
    bad = ~(np.isfinite(t) & (t > 0.0))
    if bad.any():
        k = np.flatnonzero(bad.any(axis=1))[0]
        raise fail(k, "V^{-1} gave a time that is not finite and positive",
                   times=t[k][bad[k]].tolist())
    return t


def _af_tables(model, draws, data, p, exposed, reference,
               labels) -> list:
    """Standardized AF curves of each level in `exposed` against the one
    `reference` level, on the same draws: one table per exposed level.

    Per draw, one G (`_standardized_g`, n subjects per evaluation) is
    inverted once, to v = G^{-1}(p), and every level's quantile times, the
    reference's included, come from one V^{-1} call over the levels
    (`_level_times`), which costs no subject sums. The extrapolation
    flags read S_std(tmax | L) = G(V_L(tmax)) of every level in one call:
    a p is flagged below the smaller of the two groups' posterior-mean
    S_std there."""
    if draws.M == 0:
        raise DomainError("no posterior draws supplied")
    levels = (reference, *exposed)
    tmax = np.array([max_followup(data)])
    times = np.empty((len(levels), draws.M, len(p)))
    at_tmax = np.empty((len(levels), draws.M))
    for m, psi in enumerate(_draw_parameters(model, draws)):
        G = _standardized_g(model, psi, data, reference)
        V = _level_transform(model, psi, levels)
        v_tmax = V(tmax)[:, 0]
        at_tmax[:, m] = G(v_tmax)
        try:
            v = _invert_standardized(G, p, v_tmax[0], reference)
        except NumericalError as err:
            raise NumericalError(f"standardized inverse failed at draw {m}: "
                                 f"{err}", draw=m, level=reference,
                                 p=p.tolist(), **err.context) from None
        times[:, m] = _level_times(V, v, m, levels)
    ref_tmax, *exposed_tmax = at_tmax.mean(axis=1)
    return [CurveTable(p.copy(), np.full(len(p), label, dtype=object),
                       *_summaries(t / times[0]), p < min(s, ref_tmax))
            for label, t, s in zip(labels, times[1:], exposed_tmax)]


def standardized_af(model: ModelSpec, draws: PosteriorDraws, data: Dataset,
                    p_grid=None, contrast: ContrastSpec | None = None
                    ) -> CurveTable:
    """Posterior-summarized standardized acceleration factor curve: per
    draw, the ratio of the two groups' quantile times at every p, from one
    inversion of G (see `_af_tables`); the rows carry the across-draw mean,
    median and 95% interval at each p."""
    heap_policy()
    if contrast is None:
        contrast = ContrastSpec.default(model)
    p = bl._check_p(p_grid if p_grid is not None else default_quantile_grid())
    return _af_tables(model, draws, data, p, (contrast.exposed,),
                      contrast.reference, ("af",))[0]


def standardized_survivor_curves(model: ModelSpec, draws: PosteriorDraws,
                                 data: Dataset, t_grid=None,
                                 contrast: ContrastSpec | None = None) -> CurveTable:
    """Posterior-summarized standardized survivor curves, one group per
    contrast level (labels "exposed" / "unexposed"), each read per draw as
    G(V_L(t)) from the draw's one G."""
    heap_policy()
    if contrast is None:
        contrast = ContrastSpec.default(model)
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.2 * max_followup(data), 101)[1:]
    t_grid = bl._nonnegative(t_grid)
    levels = (contrast.reference, contrast.exposed)
    vals = np.empty((2, draws.M, t_grid.size))
    for m, psi in enumerate(_draw_parameters(model, draws)):
        G = _standardized_g(model, psi, data, contrast.reference)
        V = _level_transform(model, psi, levels)
        vals[:, m] = [G(V(t_grid, k)) for k in (0, 1)]
    tables = []
    for label, k in (("exposed", 1), ("unexposed", 0)):
        bad = np.flatnonzero(np.isnan(vals[k]).any(axis=1))
        if bad.size:  # 0 * inf: exp(-eta_i) = 0 against an infinite V_L
            raise NumericalError(f"standardized survivor ({label}) is NaN at "
                                 f"draw {bad[0]}", draw=int(bad[0]))
        tables.append(CurveTable(
            t_grid.copy(), np.full(len(t_grid), label, dtype=object),
            *_summaries(vals[k]), np.zeros(len(t_grid), dtype=bool)))
    return CurveTable.concat(tables)


def af_surface(model: ModelSpec, draws: PosteriorDraws, data: Dataset,
               onset_grid=None, p_grid=None, thin: int = 10) -> CurveTable:
    """Acceleration-factor surface for a time-varying model: standardized AF
    curves (switch at g versus never), one group "tx=<g>" per onset g. Draws
    are thinned by `thin` to keep the surface affordable; each horizontal
    slice is exactly `standardized_af` on the same thinned draws. Per draw,
    one G is inverted once and every onset's quantile times come from one
    V^{-1} call over all onsets, since S_std(t | g) = G(V_g(t)) (see
    `_af_tables`)."""
    heap_policy()
    if not model.time_varying:
        raise DomainError("af_surface needs a time-varying model")
    if onset_grid is None:
        onset_grid = np.linspace(0.0, max_followup(data), 41)[1:]
    onset_grid = np.asarray(onset_grid, dtype=float)
    p = bl._check_p(p_grid if p_grid is not None else surface_quantile_grid())
    return CurveTable.concat(_af_tables(
        model, draws.thin_by(thin), data, p, [float(g) for g in onset_grid], math.inf,
        [f"tx={g:g}" for g in onset_grid]))
