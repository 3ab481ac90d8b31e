"""Quantile times, acceleration factors, and g-formula standardization.

The p-th quantile survival time under covariates x is V^{-1}(S0^{-1}(p)|x),
and the quantile-varying acceleration factor between two covariate patterns
is the ratio of their quantile times. For a binary time-varying covariate
with a constant effect the acceleration factor comparing a switch at t_x
against never switching has the closed form

    w + exp(b1) * (1 - w),   w = t_x / (S0^{-1}(p) * exp(x2'b2)),

when the comparison quantile time exceeds t_x, and 1 before it; the general
two-subject ratio is also available and any flexible case falls back to the
numeric inverse.

Marginal (standardized) quantities average the covariate-conditional
survivor over the empirical distribution of the other covariates of all n
subjects: S_std(t | level) = n^{-1} sum_i S(t | level, z_i). Standardized
quantile times are found by monotone bisection (converged to ~1e-13
relative, well inside the documented 1e-9 requirement, so degenerate cases
reduce exactly to their conditional counterparts), and posterior summaries
are the mean, median, and equal-tailed 95% interval across draws. A
quantile is flagged as extrapolated when it lies below the smallest
standardized survivor value reached by the largest observed follow-up time
in both contrast groups.
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
    tv_v_inverse,
    tv_v_value,
    v_inverse,
    v_value,
)
from .data import Dataset, as_dataset, atomic_write_text, max_followup
from .errors import DomainError, NumericalError
from .likelihood import ParameterVector, check_psi, psi_from_constrained
from .model import ModelSpec
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
        lines = [self.HEADER]
        for i in range(self.n_rows):
            lines.append(",".join([
                repr(float(self.abscissa[i])), str(self.group[i]),
                repr(float(self.mean[i])), repr(float(self.median[i])),
                repr(float(self.lo95[i])), repr(float(self.hi95[i])),
                str(int(self.extrapolated[i])),
            ]))
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
        return CurveTable(
            abscissa=np.array([float(r[0]) for r in rows]),
            group=np.array([r[1] for r in rows], dtype=object),
            mean=np.array([float(r[2]) for r in rows]),
            median=np.array([float(r[3]) for r in rows]),
            lo95=np.array([float(r[4]) for r in rows]),
            hi95=np.array([float(r[5]) for r in rows]),
            extrapolated=np.array([int(r[6]) for r in rows], dtype=bool),
        )

    @staticmethod
    def concat(tables) -> "CurveTable":
        return CurveTable(*[np.concatenate([getattr(t, f) for t in tables])
                            for f in ("abscissa", "group", "mean", "median",
                                      "lo95", "hi95", "extrapolated")])


def _check_p(p):
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0) or np.any(arr >= 1):
        raise DomainError("quantile level p must lie in (0, 1)")
    return arr


# -- conditional quantities ---------------------------------------------------

def quantile_time(model: ModelSpec, psi: ParameterVector, x, p,
                  onset: float = math.inf):
    """p-th quantile survival time under covariate pattern x (and, for
    time-varying models, a switch at `onset`)."""
    check_psi(model, psi)
    _check_p(p)
    q = bl.inverse_survivor(model.baseline, psi.baseline_params(),
                            psi.tbp_weights(), p)
    if model.time_varying:
        x = np.asarray(x, dtype=float)
        b2 = float(x @ psi.beta[1:]) if x.size else 0.0
        return tv_v_inverse(psi.beta[0], b2, psi.alpha,
                            TimeVaryingCovariate(onset), model.effect, q)
    return v_inverse(model.effect, psi.beta, psi.alpha, x, q,
                     x1_index=model.exposure_index or 0)


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
    parr = _check_p(p)
    q = bl.inverse_survivor(model.baseline, psi.baseline_params(),
                            psi.tbp_weights(), parr)
    x2 = np.asarray(x2, dtype=float)
    if x2_prime is None:
        x2_prime = x2
    x2_prime = np.asarray(x2_prime, dtype=float)
    b2 = float(x2 @ psi.beta[1:]) if x2.size else 0.0
    b2p = float(x2_prime @ psi.beta[1:]) if x2_prime.size else 0.0
    eb1 = math.exp(psi.beta[0])

    def branch(qv, tx, lin):
        thr = tx * math.exp(-lin) if math.isfinite(tx) else math.inf
        return np.minimum(qv, thr) + eb1 * np.maximum(qv - thr, 0.0)

    out = math.exp(b2 - b2p) * branch(q, t_x, b2) / branch(q, t_x_prime, b2p)
    return float(out) if np.ndim(p) == 0 else out


def survivor_conditional(model: ModelSpec, psi: ParameterVector, x, t,
                         onset: float = math.inf):
    """S(t | x) = S0(V(t | x))."""
    check_psi(model, psi)
    if model.time_varying:
        x = np.asarray(x, dtype=float)
        b2 = float(x @ psi.beta[1:]) if x.size else 0.0
        u = tv_v_value(psi.beta[0], b2, psi.alpha,
                       TimeVaryingCovariate(onset), model.effect, t)
    else:
        u = v_value(model.effect, psi.beta, psi.alpha, x, t,
                    x1_index=model.exposure_index or 0)
    return bl.survivor(model.baseline, psi.baseline_params(),
                       psi.tbp_weights(), u)


# -- standardization ----------------------------------------------------------

def _time_profile(model: ModelSpec, psi: ParameterVector, level: float,
                  t: np.ndarray) -> np.ndarray:
    """The level-dependent, subject-independent factor h(t) with
    V(t | level, z_i) = exp(-eta_i) * h(t): the transform at eta = 0 with
    the exposure at `level` (or, time-varying, the switch at `level`)."""
    if model.time_varying:
        basis = TimeBasis(model.effect, t, onset=level)
        return transform(basis, psi.alpha, b1=psi.beta[0]).u
    return transform(TimeBasis(model.effect, t), psi.alpha, x1=level).u


def _eta_for_level(model: ModelSpec, psi: ParameterVector, data: Dataset,
                   level: float) -> np.ndarray:
    if model.time_varying:
        return data.x @ psi.beta[1:] if data.x.shape[1] else np.zeros(data.n)
    x = data.x.copy()
    if model.exposure_index is not None:
        x[:, model.exposure_index] = level
    return x @ psi.beta


def standardized_survivor(model: ModelSpec, psi: ParameterVector, data,
                          level: float, t):
    """g-formula survivor: the average of S(t | level, z_i) over the n
    observed covariate patterns z_i (exposure column overridden by `level`;
    in time-varying models `level` is the switch time, +inf = never)."""
    check_psi(model, psi)
    data = as_dataset(data)
    if data.n == 0:
        raise DomainError("standardization needs a nonempty dataset")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = _standardized_sf(model, psi, data, level, t_arr)
    return float(out[0]) if np.ndim(t) == 0 else out


def _standardized_sf(model, psi, data, level, t: np.ndarray) -> np.ndarray:
    h = _time_profile(model, psi, level, t)          # (nt,)
    eta = _eta_for_level(model, psi, data, level)    # (n,)
    u = np.outer(h, np.exp(-eta))                    # (nt, n)
    s = bl.survivor(model.baseline, psi.baseline_params(), psi.tbp_weights(), u)
    return s.mean(axis=1)


def _invert_standardized(model, psi, data, level, p: np.ndarray) -> np.ndarray:
    """Monotone bisection solving S_std(t | level) = p elementwise."""
    lo = np.zeros_like(p)
    hi = np.full_like(p, max(max_followup(data), 1.0))
    for _ in range(200):
        bad = _standardized_sf(model, psi, data, level, hi) > p
        if not np.any(bad):
            break
        hi = np.where(bad, hi * 4.0, hi)
    else:
        raise NumericalError("standardized inverse: upper bracket failed",
                             level=level)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        high_side = _standardized_sf(model, psi, data, level, mid) >= p
        lo = np.where(high_side, mid, lo)
        hi = np.where(high_side, hi, mid)
        if np.all(hi - lo <= BISECT_RTOL * np.maximum(hi, 1e-280)):
            break
    return 0.5 * (lo + hi)


def _draw_parameters(model: ModelSpec, draws: PosteriorDraws):
    for row in draws.constrained:
        yield psi_from_constrained(model, row)


def _summaries(samples: np.ndarray):
    """(M, k) samples -> mean, median, equal-tailed 95% bounds per column."""
    mean = samples.mean(axis=0)
    median = np.percentile(samples, 50.0, axis=0)
    lo = np.percentile(samples, 2.5, axis=0)
    hi = np.percentile(samples, 97.5, axis=0)
    return mean, median, lo, hi


def _extrapolation_threshold(model, draws, data, levels) -> float:
    """Smallest posterior-mean standardized survivor value attained at the
    largest observed follow-up time, minimized over the contrast groups."""
    tmax = np.array([max_followup(data)])
    vals = []
    for level in levels:
        per_draw = [
            _standardized_sf(model, psi, data, level, tmax)[0]
            for psi in _draw_parameters(model, draws)
        ]
        vals.append(float(np.mean(per_draw)))
    return min(vals)


def standardized_af(model: ModelSpec, draws: PosteriorDraws, data,
                    p_grid=None, contrast: ContrastSpec | None = None,
                    group_label: str | None = None) -> CurveTable:
    """Posterior-summarized standardized acceleration factor curve.

    Per draw, the standardized survivor of each contrast group is inverted
    at every p and the ratio of quantile times is formed; the table rows
    carry the across-draw mean, median and 95% interval at each p.
    """
    data = as_dataset(data)
    if draws.M == 0:
        raise DomainError("no posterior draws supplied")
    if contrast is None:
        contrast = ContrastSpec.default(model)
    p = _check_p(p_grid if p_grid is not None else default_quantile_grid())

    ratios = np.empty((draws.M, len(p)))
    for m, psi in enumerate(_draw_parameters(model, draws)):
        try:
            t1 = _invert_standardized(model, psi, data, contrast.exposed, p)
            t0 = _invert_standardized(model, psi, data, contrast.reference, p)
        except NumericalError as err:
            raise NumericalError(f"standardized inverse failed at draw {m}: "
                                 f"{err}", draw=m, p=p.tolist(),
                                 **err.context) from None
        ratios[m] = t1 / t0
    mean, median, lo, hi = _summaries(ratios)
    thr = _extrapolation_threshold(model, draws, data,
                                   (contrast.exposed, contrast.reference))
    label = group_label if group_label is not None else "af"
    return CurveTable(p.copy(), np.full(len(p), label, dtype=object),
                      mean, median, lo, hi, p < thr)


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
    t_grid = np.asarray(t_grid, dtype=float)

    tables = []
    for label, level in (("exposed", contrast.exposed),
                         ("unexposed", contrast.reference)):
        vals = np.array([
            _standardized_sf(model, psi, data, level, t_grid)
            for psi in _draw_parameters(model, draws)
        ])
        mean, median, lo, hi = _summaries(vals)
        tables.append(CurveTable(
            t_grid.copy(), np.full(len(t_grid), label, dtype=object),
            mean, median, lo, hi, np.zeros(len(t_grid), dtype=bool)))
    return CurveTable.concat(tables)


def af_surface(model: ModelSpec, draws: PosteriorDraws, data,
               onset_grid=None, p_grid=None, thin: int = 10) -> CurveTable:
    """Acceleration-factor surface for a time-varying model: standardized AF
    curves (switch at g versus never), one group "tx=<g>" per onset g. Draws
    are thinned by `thin` to keep the surface affordable; each horizontal
    slice is exactly `standardized_af` on the same thinned draws."""
    if not model.time_varying:
        raise DomainError("af_surface needs a time-varying model")
    data = as_dataset(data)
    if onset_grid is None:
        onset_grid = np.linspace(0.0, max_followup(data), 41)[1:]
    onset_grid = np.asarray(onset_grid, dtype=float)
    if p_grid is None:
        p_grid = surface_quantile_grid()
    sub = draws.thin_by(thin) if thin > 1 else draws
    tables = [
        standardized_af(model, sub, data, p_grid,
                        ContrastSpec(float(g), math.inf),
                        group_label=f"tx={g:g}")
        for g in onset_grid
    ]
    return CurveTable.concat(tables)
