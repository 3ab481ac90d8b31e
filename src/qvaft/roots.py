"""The root-finder behind every inverse that has no closed form.

Each such inverse solves f(t) = y for t > 0, elementwise over a vector of
targets, with f increasing in t and f(0+) <= y: the TBP quantile
(f = -S0, y = -p), the spline V^{-1} (f = log V plus a constant), the
time-varying V^{-1} (f = the part of V after the switch) and the
standardized quantile (f = -S_std, y = -p).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# x4 widenings allowed before a target counts as unreachable (a factor 2^400)
MAX_WIDEN = 200
# halvings allowed: enough to go from the largest double to the smallest
# subnormal and then resolve the bracket to rtol = 1e-13
MAX_BISECT = 2200


def increasing_root(f, y, hi, rtol: float, what: str) -> np.ndarray:
    """The t > 0 with f(t) = y, elementwise; shaped like `y`.

    `f` maps a 1-D array of times to values elementwise and is increasing,
    with f(0+) <= y, so every bracket starts at lo = 0. `hi` (a scalar or
    one value per target, > 0) is multiplied by 4 until f(hi) >= y, with lo
    moved up to the old hi each time. Each element is then bisected until
    hi - lo <= rtol * hi and left alone from then on, so its root does not
    depend on the other targets. Returns the midpoints of the final
    brackets. Raises `NumericalError` naming `what`, with the targets that
    could not be bracketed or resolved in its context.
    """
    y = np.asarray(y, dtype=float)
    yf = y.ravel()
    hi = np.array(np.broadcast_to(hi, y.shape), dtype=float).ravel()
    lo = np.zeros_like(hi)

    short = np.flatnonzero(~(f(hi) >= yf))  # NaN counts as not reached
    for _ in range(MAX_WIDEN):
        if short.size == 0:
            break
        lo[short] = hi[short]
        hi[short] *= 4.0
        short = short[~(f(hi[short]) >= yf[short])]
    if short.size:
        raise NumericalError(f"{what}: target not reached after {MAX_WIDEN} "
                             f"widenings", targets=yf[short].tolist(),
                             hi=hi[short].tolist())

    # the unconverged elements are bisected as compact arrays; each is
    # written back once, when its bracket is narrow enough
    idx = np.flatnonzero(hi - lo > rtol * hi)
    a_lo, a_hi, a_y = lo[idx], hi[idx], yf[idx]
    for _ in range(MAX_BISECT):
        if idx.size == 0:
            break
        mid = 0.5 * (a_lo + a_hi)
        below = f(mid) < a_y
        a_lo = np.where(below, mid, a_lo)
        a_hi = np.where(below, a_hi, mid)
        done = a_hi - a_lo <= rtol * a_hi
        if done.any():
            lo[idx[done]], hi[idx[done]] = a_lo[done], a_hi[done]
            keep = ~done
            idx, a_lo, a_hi, a_y = idx[keep], a_lo[keep], a_hi[keep], a_y[keep]
    if idx.size:
        raise NumericalError(f"{what}: bisection did not converge",
                             targets=a_y.tolist(), lo=a_lo.tolist(),
                             hi=a_hi.tolist())
    return (0.5 * (lo + hi)).reshape(y.shape)
