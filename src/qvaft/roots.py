"""The root-finder behind every inverse that has no closed form.

Each such inverse solves f(t) = y for t > 0, elementwise over a vector of
targets, with f increasing in t and f(0+) <= y: the TBP quantile
(f = -S0, y = -p), the spline V^{-1} (f = log V plus a constant), the
time-varying V^{-1} (f = the part of V after the switch) and the
standardized quantile on the V axis (f = -G, y = -p).

Each target gets a bracket [lo, hi]: from lo = 0 by widening hi, or from
the caller. One loop then shrinks every bracket around its iterate. With
a slope (f then returns f(t) and f'(t) from one call) the next iterate is
a safeguarded Newton step, and a bisection step wherever Newton leaves the
bracket, has no finite positive slope or stops halving its step; without
one every step is a bisection step, so the loop is plain bisection. Only
the standardized quantile passes a slope. Arguments that differ between
targets (the spline inverse's exposure values) go to f beside the times,
compacted with the targets still being solved.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# x4 widenings allowed before a target counts as unreachable (a factor 2^400)
MAX_WIDEN = 200
# halvings allowed: enough to go from the largest double to the smallest
# subnormal and then resolve the bracket to rtol = 1e-13
MAX_BISECT = 2200


def increasing_root(f, y, hi, rtol: float, what: str, lo=None,
                    slope: bool = False, start=None, args=()) -> np.ndarray:
    """The t > 0 with f(t) = y, elementwise; shaped like `y`.

    `f` maps a 1-D array of times to values elementwise and is increasing,
    with f(0+) <= y. Each of `args` (one value per target, or a scalar)
    is passed to f after the times, holding the entries of the targets f
    is evaluated for: f(t, *args). Without `lo` every bracket starts at
    lo = 0 and `hi` (a scalar or one value per target, > 0) is multiplied
    by 4 until f(hi) >= y, with lo moved up to the old hi each time. A
    given `lo` (a scalar or one value per target) must already bracket
    each target with `hi`, f(lo) <= y <= f(hi), and nothing is widened.

    Each element then starts from its bracket's midpoint and the bracket
    shrinks to the side of the root at every evaluation. Without `slope`
    the next iterate is always the midpoint, and the midpoint of the
    bracket is returned once hi - lo <= rtol * hi. With `slope`, f returns
    the pair (f(t), f'(t)) and the iterate is polished by safeguarded
    Newton from `start` (one value per target; used where it lies inside
    the bracket). A step that leaves the bracket, comes from a slope that
    is not finite and positive, or is longer than half the step before
    becomes a bisection step; the iterate is returned once its step is at
    most rtol * t or its bracket is narrower than rtol * hi. Either way an
    element is left alone once it has converged, so its root does not
    depend on the other targets. Raises `NumericalError` naming `what`,
    with the targets that could not be bracketed or resolved in its
    context.
    """
    y = np.asarray(y, dtype=float)
    yf = y.ravel()
    hi = np.array(np.broadcast_to(hi, y.shape), dtype=float).ravel()
    args = [np.broadcast_to(a, y.shape).ravel() for a in args]
    if lo is None:
        lo = _widen((lambda t, *a: f(t, *a)[0]) if slope else f, yf, hi,
                    what, args)
    else:
        lo = np.array(np.broadcast_to(lo, y.shape), dtype=float).ravel()
    out = 0.5 * (lo + hi)
    if slope and start is not None:
        start = np.ravel(start)
        inside = (start > lo) & (start < hi)
        out[inside] = start[inside]

    # the unconverged elements are iterated as compact arrays; each is
    # written back once, when it has converged
    idx = np.flatnonzero(hi - lo > rtol * hi)
    a_lo, a_hi, a_y, t = lo[idx], hi[idx], yf[idx], out[idx]
    a_args = [a[idx] for a in args]
    last = a_hi - a_lo  # length of the step before
    for _ in range(MAX_BISECT):
        if idx.size == 0:
            break
        val = f(t, *a_args)
        if slope:
            val, d = val
        below = val < a_y  # NaN counts as not reached
        a_lo = np.where(below, t, a_lo)
        a_hi = np.where(below, a_hi, t)
        nt = 0.5 * (a_lo + a_hi)
        done = a_hi - a_lo <= rtol * a_hi
        if slope:
            r = val - a_y
            usable = (d > 0) & (d < np.inf)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = r / d
                # a step this short, also for a residual of one unit in
                # the last place of y, ends the search; where f is flat to
                # rounding over a longer stretch, its lower end is
                # bisected for
                short = usable & (np.maximum(np.abs(r),
                                             np.spacing(np.abs(a_y)))
                                  <= rtol * t * d)
                tn = t - step
            newton = (usable & (tn > a_lo) & (tn < a_hi)
                      & (np.abs(step) <= 0.5 * last))
            nt = np.where(newton | short, tn, nt)
            last = np.abs(nt - t)
            done |= short | (last <= rtol * nt)
        t = nt
        if done.any():
            out[idx[done]] = t[done]
            keep = ~done
            idx, a_lo, a_hi, a_y = idx[keep], a_lo[keep], a_hi[keep], a_y[keep]
            t, last = t[keep], last[keep]
            a_args = [a[keep] for a in a_args]
    if idx.size:
        raise NumericalError(f"{what}: bisection/Newton did not converge",
                             targets=a_y.tolist(), lo=a_lo.tolist(),
                             hi=a_hi.tolist())
    return out.reshape(y.shape)


def _widen(f, yf, hi, what, args):
    """Widen `hi` in place until f(hi) >= yf; returns the matching lo."""
    lo = np.zeros_like(hi)
    short = np.flatnonzero(~(f(hi, *args) >= yf))  # NaN: not reached
    for _ in range(MAX_WIDEN):
        if short.size == 0:
            break
        lo[short] = hi[short]
        hi[short] *= 4.0
        short = short[~(f(hi[short], *[a[short] for a in args])
                        >= yf[short])]
    if short.size:
        raise NumericalError(f"{what}: target not reached after {MAX_WIDEN} "
                             f"widenings", targets=yf[short].tolist(),
                             hi=hi[short].tolist())
    return lo
