"""The shared root-finder: per-element convergence, flat stretches and
knots, and the failure it raises for a target f never reaches."""

import numpy as np
import pytest

from qvaft.errors import NumericalError
from qvaft.roots import increasing_root


def kinked(t):
    """Increasing, with a kink at t = 1 and a flat stretch on [2, 3]."""
    t = np.asarray(t, dtype=float)
    return (np.minimum(t, 1.0) + 0.5 * np.clip(t - 1.0, 0.0, 1.0)
            + 2.0 * np.maximum(t - 3.0, 0.0))


def test_elements_converge_independently():
    y = np.array([1e-12, 0.3, 5.0, 200.0])
    batch = increasing_root(np.log1p, y, 1.0, 1e-13, "log1p")
    alone = [increasing_root(np.log1p, yi, 1.0, 1e-13, "log1p") for yi in y]
    np.testing.assert_array_equal(batch, alone)
    np.testing.assert_allclose(batch, np.expm1(y), rtol=1e-12)


def test_keeps_the_shape_of_the_targets():
    y = np.array([[0.5, 2.0], [3.0, 7.0]])
    t = increasing_root(lambda t: t * t, y, np.full(y.shape, 0.1), 1e-12, "sq")
    assert t.shape == y.shape
    np.testing.assert_allclose(t * t, y, rtol=1e-11)
    assert increasing_root(lambda t: t * t, np.float64(4.0), 1.0, 1e-12,
                           "sq").shape == ()


@pytest.mark.parametrize("y", [1.0, 1.5, 1.25, 3.0])
def test_flat_stretch_and_knot_targets_are_bracketed(y):
    # 1.0 sits on the kink at t = 1 and 1.5 on the whole flat stretch
    # [2, 3]; 1.25 and 3.0 have single roots inside a segment
    rtol = 1e-12
    t = float(increasing_root(kinked, np.array([y]), 0.25, rtol, "kinked")[0])
    lo, hi = t * (1 - rtol), t * (1 + rtol)
    assert kinked(lo) <= y <= kinked(hi)
    if y == 1.5:
        assert 2.0 - 1e-9 <= t <= 3.0 + 1e-9
    else:
        assert kinked(t) == pytest.approx(y, rel=1e-11)


def test_unreachable_target_names_the_inverse_and_targets():
    f = lambda t: -np.exp(-t)  # noqa: E731  (tends to 0 from below)
    with pytest.raises(NumericalError, match="demo inverse") as info:
        increasing_root(f, np.array([-0.5, 0.25, -1e-3]), 1.0, 1e-10,
                        "demo inverse")
    assert info.value.context["targets"] == [0.25]


def test_nan_counts_as_not_reached():
    f = lambda t: np.where(t > 10.0, np.nan, t)  # noqa: E731
    with pytest.raises(NumericalError) as info:
        increasing_root(f, np.array([2.0, 50.0]), 1.0, 1e-10, "nan inverse")
    assert info.value.context["targets"] == [50.0]


# -- with a slope: safeguarded Newton -------------------------------------

def log1p_slope(t):
    return np.log1p(t), 1.0 / (1.0 + t)


def kinked_slope(t):
    """`kinked` with its right-hand slope."""
    t = np.asarray(t, dtype=float)
    d = np.select([t < 1.0, t < 2.0, t < 3.0], [1.0, 0.5, 0.0], 2.0)
    return kinked(t), d


def test_newton_elements_converge_independently():
    y = np.array([1e-12, 0.3, 5.0, 200.0])
    batch = increasing_root(log1p_slope, y, 1.0, 1e-13, "log1p", slope=True)
    alone = [increasing_root(log1p_slope, yi, 1.0, 1e-13, "log1p", slope=True)
             for yi in y]
    np.testing.assert_array_equal(batch, alone)
    np.testing.assert_allclose(batch, np.expm1(y), rtol=1e-12)


@pytest.mark.parametrize("bad", [0.0, np.nan, -1.0, np.inf])
def test_unusable_slopes_fall_back_to_bisection(bad):
    y = np.array([1e-6, 0.3, 5.0, 40.0])

    def f(t):
        return np.log1p(t), np.full(t.shape, bad)
    got = increasing_root(f, y, 1.0, 1e-13, "bad slope", slope=True)
    np.testing.assert_allclose(got, np.expm1(y), rtol=1e-12)


@pytest.mark.parametrize("y", [1.0, 1.5, 1.25, 3.0])
def test_newton_on_kinked_function(y):
    rtol = 1e-12
    t = float(increasing_root(kinked_slope, np.array([y]), 0.25, rtol,
                              "kinked", slope=True)[0])
    lo, hi = t * (1 - rtol), t * (1 + rtol)
    assert kinked(lo) <= y <= kinked(hi)
    if y == 1.5:
        assert 2.0 - 1e-9 <= t <= 3.0 + 1e-9
    else:
        assert kinked(t) == pytest.approx(y, rel=1e-11)


def test_slope_and_slope_free_paths_agree():
    y = -np.array([1e-9, 0.01, 0.3, 0.5, 0.9, 0.99, 1 - 1e-9])

    def f(t):  # a Weibull survivor, negated so that it increases
        return -np.exp(-t ** 1.7)

    def fs(t):
        s = np.exp(-t ** 1.7)
        return -s, 1.7 * t ** 0.7 * s
    rtol = 1e-13
    bisected = increasing_root(f, y, 1.0, rtol, "weibull")
    newton = increasing_root(fs, y, 1.0, rtol, "weibull", slope=True)
    np.testing.assert_allclose(newton, bisected, rtol=4 * rtol)


def test_given_brackets_and_starts():
    y = np.array([0.5, 2.0, 3.0])
    lo, hi = np.array([0.25, 1.0, 15.0]), np.array([1.0, 10.0, 20.0])
    want = np.expm1(y)
    for start in (None, np.array([0.6, 7.0, 0.1])):  # the last lies outside
        got = increasing_root(log1p_slope, y, hi, 1e-13, "log1p", lo=lo,
                              slope=True, start=start)
        np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_allclose(
        increasing_root(np.log1p, y, hi, 1e-13, "log1p", lo=lo), want,
        rtol=1e-12)


def _scaled(t, a):
    """a * t + log1p(t), increasing in t for a >= 0; a is per target."""
    return a * t + np.log1p(t)


def _scaled_slope(t, a):
    return a * t + np.log1p(t), a + 1.0 / (1.0 + t)


@pytest.mark.parametrize("slope", [False, True])
def test_per_target_arguments_follow_their_targets(slope):
    """Arguments that differ between targets are compacted with the
    targets still being solved: each root equals that target's root with
    its own argument, solved alone."""
    y = np.array([1e-9, 0.4, 3.0, 50.0, 2e3])
    a = np.array([0.0, 2.0, 0.1, 7.0, 0.5])
    f = _scaled_slope if slope else _scaled
    batch = increasing_root(f, y, 1.0, 1e-13, "scaled", slope=slope, args=(a,))
    alone = [increasing_root(lambda t, ai=ai: f(t, ai), yi, 1.0, 1e-13,
                             "scaled", slope=slope) for yi, ai in zip(y, a)]
    np.testing.assert_array_equal(batch, alone)
    np.testing.assert_allclose(_scaled(batch, a), y, rtol=1e-12)


def test_scalar_argument_is_broadcast_to_every_target():
    y = np.array([0.5, 4.0])
    t = increasing_root(_scaled, y, 1.0, 1e-13, "scaled", args=(3.0,))
    np.testing.assert_allclose(_scaled(t, 3.0), y, rtol=1e-12)


# -- the slope-free path is plain bisection --------------------------------

def cubic(t):
    """Increasing; built from exactly rounded operations only, so a scalar
    and an array evaluation agree to the bit."""
    return t * t * t + t


def bisect_alone(f, y, hi, rtol):
    """Scalar reference: widen hi by 4 from lo = 0, then evaluate the
    midpoint, keep the side of the root and stop at hi - lo <= rtol * hi,
    returning the midpoint."""
    lo = 0.0
    while not f(hi) >= y:
        lo, hi = hi, 4.0 * hi
    while not hi - lo <= rtol * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("f", [cubic, kinked])
@pytest.mark.parametrize("rtol", [1e-6, 1e-13])
def test_slope_free_path_is_plain_bisection(f, rtol):
    y = np.array([1e-9, 0.3, 1.0, 1.25, 1.5, 7.0, 1e6])
    got = increasing_root(f, y, 0.25, rtol, "reference")
    want = [bisect_alone(f, float(yi), 0.25, rtol) for yi in y]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("slope", [False, True])
def test_unresolved_targets_name_the_inverse(monkeypatch, slope):
    import qvaft.roots as roots

    monkeypatch.setattr(roots, "MAX_BISECT", 1)
    y = np.array([0.3, 5.0])
    with pytest.raises(NumericalError, match="demo inverse: .*did not "
                                             "converge") as info:
        increasing_root(log1p_slope if slope else np.log1p, y, 1.0, 1e-13,
                        "demo inverse", slope=slope)
    assert info.value.context["targets"] == [0.3, 5.0]
