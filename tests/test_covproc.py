"""Time-transform checks: hand-worked piecewise values, closed-form inverse
against a bisection oracle, finite-difference derivatives, reduction to the
constant transform, and the binary-switch forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvaft.covproc import (
    EffectSpec,
    TimeBasis,
    TimeVaryingCovariate,
    is_monotone,
    slope_basis,
    transform,
    transform_inverse,
    transform_value,
    spline_basis,
    tv_v_inverse,
    v_inverse,
    v_value,
)
from qvaft.errors import DomainError

CONST = EffectSpec("constant")
PW_EXAMPLE = EffectSpec("piecewise", (0.0, 2.0))
LN2 = np.log(2.0)
NO_ALPHA = np.array([])


def slope(spec, eta, alpha, t, x1=1.0):
    """v(t) = dV/dt at one t > 0, from the log v of `transform`."""
    basis = TimeBasis(spec, np.array([t]), x1=x1)
    return np.exp(transform(basis, np.asarray(alpha, dtype=float), eta,
                            logv=True).logv[0])


def bisect_inverse(spec, beta, alpha, x, s, lo=0.0, hi=1.0):
    """Oracle: invert V by plain interval halving."""
    while v_value(spec, beta, alpha, x, hi) < s:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if v_value(spec, beta, alpha, x, mid) < s:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestConstant:
    def test_value(self):
        assert v_value(CONST, [0.5], [], [1.0], 2.0) == pytest.approx(
            2.0 * np.exp(-0.5), abs=1e-15)

    def test_deriv(self):
        for t in (0.1, 1.0, 7.3):
            assert slope(CONST, 0.5, [], t) == pytest.approx(
                np.exp(-0.5), abs=1e-15)

    def test_inverse_is_linear(self):
        assert v_inverse(CONST, [0.5], [], [1.0], 3.0) == pytest.approx(
            3.0 * np.exp(0.5), rel=1e-15)


class TestPiecewise:
    def test_hand_example_value(self):
        # beta = 0, x1 = 1, breakpoints (0, 2), alpha = -ln 2:
        # V(3) = min(3, 2) + 2 * (3 - 2) = 4
        assert v_value(PW_EXAMPLE, [0.0], [-LN2], [1.0], 3.0) == 4.0

    def test_hand_example_slope(self):
        assert slope(PW_EXAMPLE, 0.0, [-LN2], 3.0) == 2.0

    def test_hand_example_inverse(self):
        assert v_inverse(PW_EXAMPLE, [0.0], [-LN2], [1.0], 4.0) == 3.0

    def test_right_continuous_slope_at_knot(self):
        spec = EffectSpec("piecewise", (0.0, 1.0, 3.0))
        a = np.array([0.7, -0.4])
        assert slope(spec, 0.0, a, 1.0) == pytest.approx(
            np.exp(-0.7), abs=1e-15)
        assert slope(spec, 0.0, a, 3.0) == pytest.approx(
            np.exp(0.4), abs=1e-15)

    def test_closed_form_inverse_matches_bisection(self):
        rng = np.random.default_rng(20240811)
        for _ in range(200):
            J = rng.integers(1, 4)
            knots = (0.0, *np.cumsum(rng.uniform(0.3, 2.0, size=J)))
            spec = EffectSpec("piecewise", knots)
            beta = rng.normal(scale=0.5, size=2)
            alpha = rng.normal(scale=0.8, size=J)
            x = np.array([float(rng.integers(0, 2)), rng.normal()])
            s = rng.uniform(0.01, 20.0)
            got = v_inverse(spec, beta, alpha, x, s)
            want = bisect_inverse(spec, beta, alpha, x, s)
            assert got == pytest.approx(want, abs=1e-8, rel=1e-8)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            knots = (0.0, *np.cumsum(rng.uniform(0.2, 1.5, size=2)))
            spec = EffectSpec("piecewise", knots)
            beta = rng.normal(scale=0.4, size=1)
            alpha = rng.normal(scale=0.7, size=2)
            x = np.array([1.0])
            t = rng.uniform(0.01, 15.0)
            s = v_value(spec, beta, alpha, x, t)
            assert v_inverse(spec, beta, alpha, x, s) == pytest.approx(
                t, rel=1e-9)


class TestSpline:
    SPEC = EffectSpec("spline", (-1.2, 0.0, 0.9, 1.8))

    def test_natural_tails_are_linear(self):
        # second differences vanish outside the boundary knots
        for side in (np.linspace(-8, -2, 30), np.linspace(2.5, 9, 30)):
            b = spline_basis(self.SPEC.knot_array(), side)
            assert np.abs(np.diff(b, n=2, axis=0)).max() < 1e-9

    def test_basis_derivative_finite_difference(self):
        h = 1e-6
        # order 2 off the knots, where the second derivative has a kink
        for order, u in ((1, np.linspace(-2.5, 2.5, 41)),
                         (2, np.linspace(-2.5, 2.5, 41) + 0.01)):
            fd = (spline_basis(self.SPEC.knot_array(), u + h, order - 1)
                  - spline_basis(self.SPEC.knot_array(), u - h, order - 1)
                  ) / (2 * h)
            an = spline_basis(self.SPEC.knot_array(), u, order)
            assert np.abs(fd - an).max() < 1e-8

    def test_deriv_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        beta = np.array([0.2])
        alpha = np.array([0.15, -0.1, 0.05])
        x = np.array([1.0])
        for _ in range(20):
            t = float(rng.uniform(0.1, 6.0))
            h = 1e-6 * t
            fd = (v_value(self.SPEC, beta, alpha, x, t + h)
                  - v_value(self.SPEC, beta, alpha, x, t - h)) / (2 * h)
            an = slope(self.SPEC, float(x @ beta), alpha, t, x[0])
            assert abs(fd - an) / an < 1e-5

    def test_inverse_round_trip(self):
        beta = np.array([-0.3])
        alpha = np.array([0.2, 0.1, -0.15])
        x = np.array([1.0])
        for t in np.geomspace(0.05, 8.0, 25):
            s = v_value(self.SPEC, beta, alpha, x, t)
            assert v_inverse(self.SPEC, beta, alpha, x, s) == pytest.approx(
                t, rel=1e-9)

    def test_monotonicity_check_flags_bad_alpha(self):
        good = np.array([0.2, 0.1, -0.1])
        bad = np.array([5.0, 0.0, 0.0])  # slope of g exceeds 1 in log-time
        assert is_monotone(self.SPEC, good, np.array([1.0]))
        assert not is_monotone(self.SPEC, bad, np.array([1.0]))
        # the unexposed pattern is unaffected
        assert is_monotone(self.SPEC, bad, np.array([0.0]))


class TestReduction:
    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0.01, 30.0), b=st.floats(-1.5, 1.5),
           x1=st.sampled_from([0.0, 1.0]))
    def test_alpha_zero_reduces_to_constant(self, t, b, x1):
        x = np.array([x1, 0.5])
        base = v_value(CONST, [b, 0.2], [], x, t)
        pw = EffectSpec("piecewise", (0.0, 1.0, 2.0))
        sp = EffectSpec("spline", (-1.0, 0.5))
        assert abs(v_value(pw, [b, 0.2], [0, 0], x, t) - base) <= 1e-14 * base
        assert abs(v_value(sp, [b, 0.2], [0], x, t) - base) <= 1e-14 * base

    def test_v_at_zero_is_zero(self):
        for spec, alpha in ((CONST, []), (PW_EXAMPLE, [0.3]),
                            (EffectSpec("spline", (-1.0, 1.0)), [0.2])):
            assert v_value(spec, [0.1], alpha, [1.0], 0.0) == 0.0


class TestTimeVarying:
    TV4 = TimeVaryingCovariate(4.0)

    def test_hand_example(self):
        # b1 = -ln2, switch at 4: V(10) = 4 + 6 * 2 = 16
        assert transform_value(CONST, NO_ALPHA, 10.0, 0.0, b1=-LN2,
                               onset=4.0) == 16.0
        assert tv_v_inverse(-LN2, 0.0, [], self.TV4, None, 16.0) == 10.0

    def test_before_switch_is_constant_transform(self):
        assert transform_value(CONST, NO_ALPHA, 3.0, 0.3, b1=9.9, onset=4.0) \
            == pytest.approx(3.0 * np.exp(-0.3), abs=1e-15)
        assert tv_v_inverse(9.9, 0.3, [], self.TV4, None, 1.0) == \
            pytest.approx(np.exp(0.3), rel=1e-15)

    def test_never_switching(self):
        for t in (0.5, 3.0, 40.0):
            assert transform_value(CONST, NO_ALPHA, t, 0.3, b1=0.7,
                                   onset=np.inf) == pytest.approx(
                t * np.exp(-0.3), abs=1e-14)

    def test_continuity_at_switch(self):
        eff = EffectSpec("piecewise", (0.0, 1.0, 3.0))
        al = np.array([0.4, -0.3])
        lo, hi = transform_value(eff, al, np.nextafter(4.0, [0.0, 8.0]), 0.2,
                                 b1=0.5, onset=4.0)
        assert abs(hi - lo) < 1e-12

    def test_flexible_round_trip(self):
        rng = np.random.default_rng(12)
        for kind, knots in (("piecewise", (0.0, 1.0, 3.0)),
                            ("spline", (-1.5, 0.0, 1.0))):
            eff = EffectSpec(kind, knots)
            for _ in range(50):
                b1 = rng.normal(scale=0.5)
                b2 = rng.normal(scale=0.3)
                al = rng.normal(scale=0.25, size=2)
                if not is_monotone(eff, al, switch=True):
                    continue
                t = rng.uniform(0.2, 20.0)
                s = transform_value(eff, al, t, b2, b1=b1, onset=4.0)
                assert tv_v_inverse(b1, b2, al, self.TV4, eff, s) == \
                    pytest.approx(t, rel=1e-9)

    def test_flexible_with_zero_alpha_matches_constant(self):
        eff = EffectSpec("piecewise", (0.0, 2.0))
        for t in (1.0, 4.0, 9.0):
            assert transform_value(eff, np.array([0.0]), t, 0.1, b1=0.6,
                                   onset=4.0) == pytest.approx(
                transform_value(CONST, NO_ALPHA, t, 0.1, b1=0.6, onset=4.0),
                rel=1e-14)


class TestRootSearchExtremes:
    """V(V^{-1}(s)) = s at extreme s where the inverse is a root search; the
    switch at 1e-12 puts every s > 0 past it."""

    @pytest.mark.parametrize("s", [0.0, 1e-9, 1e6])
    def test_spline(self, s):
        spec, alpha = TestSpline.SPEC, np.array([0.2, 0.1, -0.15])
        t = v_inverse(spec, [-0.3], alpha, [1.0], s)
        assert v_value(spec, [-0.3], alpha, [1.0], t) == pytest.approx(
            s, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kind,knots", [("piecewise", (0.0, 1.0, 3.0)),
                                            ("spline", (-1.5, 0.0, 1.0))])
    @pytest.mark.parametrize("s", [0.0, 1e-9, 1e6])
    def test_time_varying(self, kind, knots, s):
        eff, alpha = EffectSpec(kind, knots), np.array([0.2, -0.1])
        tv = TimeVaryingCovariate(1e-12)
        t = tv_v_inverse(0.4, 0.2, alpha, tv, eff, s)
        assert transform_value(eff, alpha, t, 0.2, b1=0.4,
                               onset=tv.change_time) == pytest.approx(
            s, rel=1e-9, abs=0.0)


class TestValidation:
    def test_negative_time(self):
        with pytest.raises(DomainError):
            v_value(CONST, [0.0], [], [1.0], -1.0)

    def test_piecewise_knots_start_at_zero(self):
        with pytest.raises(DomainError):
            EffectSpec("piecewise", (1.0, 2.0))

    def test_knots_strictly_increasing(self):
        with pytest.raises(DomainError):
            EffectSpec("spline", (0.0, 0.0, 1.0))

    def test_alpha_length_checked(self):
        with pytest.raises(DomainError):
            v_value(PW_EXAMPLE, [0.0], [0.1, 0.2], [1.0], 1.0)

    def test_tv_alpha_length_checked(self):
        # two alphas for a constant (effect None) switch effect
        with pytest.raises(DomainError, match="alpha has length 2"):
            tv_v_inverse(0.3, 0.0, [1.0, 2.0], TimeVaryingCovariate(4.0),
                         None, 1.0)

    def test_bad_change_time(self):
        with pytest.raises(DomainError):
            TimeVaryingCovariate(0.0)

    def test_beta_shape_checked(self):
        # beta of length 3 for one column
        with pytest.raises(DomainError, match="beta shape"):
            v_value(PW_EXAMPLE, [0.1, 0.2, 0.3], [0.1], [1.0], 1.0)

    def test_monotonicity_rule_returns_bool(self):
        assert is_monotone(CONST, NO_ALPHA, switch=True) is True
        assert is_monotone(PW_EXAMPLE, np.array([0.1]), np.array([1.0])) is True


class TestPerRowArguments:
    """`transform_inverse` takes one (eta, x1, onset) per row, as
    `transform_value` does, and inverts each row as it would alone."""

    EFFECTS = [("constant", (), ()),
               ("piecewise", (0.0, 1.0, 2.5), (0.3, -0.2)),
               ("spline", (-0.5, 0.5, 1.5), (0.2, 0.05))]

    @pytest.mark.parametrize("switch", [False, True])
    @pytest.mark.parametrize("kind,knots,alpha", EFFECTS)
    def test_round_trip_row_by_row(self, kind, knots, alpha, switch):
        rng = np.random.default_rng(31)
        n = 300
        effect, alpha = EffectSpec(kind, knots), np.array(alpha)
        t = rng.gamma(2.0, 1.0, n)
        eta = rng.normal(size=n)
        x1 = 0.0 if switch else rng.uniform(0.0, 1.5, n)  # every value distinct
        b1 = -0.7 if switch else 0.0
        onset = (np.where(rng.random(n) < 0.3, np.inf, rng.uniform(0.2, 3.0, n))
                 if switch else None)
        s = transform_value(effect, alpha, t, eta, x1, b1, onset)
        back = transform_inverse(effect, alpha, s, eta, x1, b1, onset)
        np.testing.assert_allclose(back, t, rtol=1e-11)
        for i in range(n):
            one = transform_inverse(
                effect, alpha, s[i], eta[i], x1 if switch else x1[i], b1,
                None if onset is None else onset[i])
            assert one == back[i]

    @pytest.mark.parametrize("kind,knots,alpha", EFFECTS[1:])
    def test_one_target_for_many_rows_and_many_for_one(self, kind, knots,
                                                       alpha):
        effect, alpha = EffectSpec(kind, knots), np.array(alpha)
        eta, x1 = np.array([0.3, -0.2, 1.1]), np.array([0.0, 0.5, 1.4])
        many_rows = transform_inverse(effect, alpha, 2.0, eta, x1)
        assert many_rows.shape == (3,)
        for i in range(3):
            assert many_rows[i] == transform_inverse(effect, alpha, 2.0,
                                                     eta[i], x1[i])
        s = np.array([0.0, 0.5, 2.0, 9.0])
        many_targets = transform_inverse(effect, alpha, s, 0.3, 0.5)
        np.testing.assert_array_equal(
            many_targets, [transform_inverse(effect, alpha, si, 0.3, 0.5)
                           for si in s])


class TestNewtonInverse:
    """The flexible inverses are one safeguarded Newton search on the part
    of V after the switch (a spline without a switch: at onset 0): a few
    evaluations per call, and a row's root does not depend on the rows
    solved beside it. Rows whose root lies before the switch never enter
    the search."""

    PW = EffectSpec("piecewise", (0.0, 1.0, 2.0, 3.0))
    PW_ALPHA = np.array([0.2, 0.3, 0.4])
    SPLINE = EffectSpec("spline", (-0.5, 0.5, 1.5))
    SPLINE_ALPHA = np.array([0.2, 0.05])

    @pytest.mark.parametrize("b1", [710.0, -800.0])
    def test_never_switching_rows_take_the_closed_form(self, b1):
        s = np.array([0.5, 2.0])
        t = transform_inverse(self.PW, self.PW_ALPHA, s, 0.0, 0.0, b1=b1,
                              onset=np.inf)
        np.testing.assert_array_equal(t, s)
        t = transform_inverse(self.PW, self.PW_ALPHA, s, 0.3, b1=b1,
                              onset=np.array([np.inf, np.inf]))
        np.testing.assert_array_equal(t, s * np.exp(0.3))

    @staticmethod
    def _evaluations(monkeypatch):
        """The number of evaluations of f in each root search."""
        import qvaft.covproc as covproc
        calls, search = [], covproc.increasing_root

        def counted(f, *args, **kwargs):
            calls.append(0)

            def g(*a):
                calls[-1] += 1
                return f(*a)
            return search(g, *args, **kwargs)

        monkeypatch.setattr(covproc, "increasing_root", counted)
        return calls

    def test_piecewise_switch_in_few_evaluations(self, monkeypatch):
        # targets on every segment (the first, where a = 0, included) and
        # exactly at V(onset + tau_j); f is evaluated once more, at the
        # knots, outside the search
        calls = self._evaluations(monkeypatch)
        rng = np.random.default_rng(7)
        for alpha in (self.PW_ALPHA, -self.PW_ALPHA, np.array([0.4, -0.3,
                                                                0.2])):
            u = np.concatenate([rng.uniform(0.0, 4.0, 200),
                                rng.uniform(0.0, 1.0, 50), self.PW.knots[1:],
                                np.geomspace(1e-9, 1e6, 30)])
            onset = rng.uniform(0.5, 3.0, u.size)
            s = transform_value(self.PW, alpha, onset + u, 0.2, b1=-0.7,
                                onset=onset)
            t = transform_inverse(self.PW, alpha, s, 0.2, b1=-0.7,
                                  onset=onset)
            np.testing.assert_allclose(t, onset + u, rtol=1e-13)
        assert len(calls) == 3 and max(calls) <= 10, calls

    def test_spline_in_few_evaluations(self, monkeypatch):
        calls = self._evaluations(monkeypatch)
        rng = np.random.default_rng(8)
        t = np.concatenate([rng.gamma(2.0, 2.0, 300),
                            np.geomspace(1e-6, 1e4, 30)])
        x1 = rng.uniform(0.0, 1.5, t.size)
        s = transform_value(self.SPLINE, self.SPLINE_ALPHA, t, 0.3, x1)
        back = transform_inverse(self.SPLINE, self.SPLINE_ALPHA, s, 0.3, x1)
        np.testing.assert_allclose(back, t, rtol=1e-13)
        assert len(calls) == 1 and calls[0] <= 10, calls

    CASES = pytest.mark.parametrize("kind,knots,alpha,switch", [
        ("spline", (-0.5, 0.5, 1.5), (0.2, 0.05), False),
        ("spline", (-1.0, 0.0, 1.0), (0.15, -0.05), True),
        ("piecewise", (0.0, 1.0, 2.0, 3.0), (0.2, -0.3, 0.4), True)],
        ids=["spline", "spline-switch", "piecewise-switch"])

    @CASES
    def test_matches_bisection(self, kind, knots, alpha, switch):
        """Against plain interval halving on `transform_value`, with
        targets past the switch."""
        effect, alpha = EffectSpec(kind, knots), np.array(alpha)
        rng = np.random.default_rng(34)
        for _ in range(40):
            eta, x1 = rng.normal(), rng.uniform(0.0, 1.5)
            onset = rng.uniform(0.2, 3.0) if switch else None
            args = (eta, x1, -0.4, onset)
            s = transform_value(effect, alpha, rng.gamma(2.0, 2.0)
                                + (onset or 0.0), *args)
            lo, hi = 0.0, 1.0
            while transform_value(effect, alpha, hi, *args) < s:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if transform_value(effect, alpha, mid, *args) < s:
                    lo = mid
                else:
                    hi = mid
            assert transform_inverse(effect, alpha, s, *args) == \
                pytest.approx(0.5 * (lo + hi), rel=1e-13)

    @CASES
    def test_roots_do_not_depend_on_the_batch(self, kind, knots, alpha,
                                              switch):
        rng = np.random.default_rng(33)
        n = 300
        effect, alpha = EffectSpec(kind, knots), np.array(alpha)
        t = rng.gamma(2.0, 1.5, n)
        eta = rng.normal(size=n)
        x1 = 0.0 if switch else rng.uniform(0.0, 1.5, n)
        # never, before the switch and past it
        onset = (np.choose(rng.integers(0, 3, n),
                           [np.full(n, np.inf), t + rng.uniform(0.1, 2.0, n),
                            t * rng.uniform(0.05, 0.95, n)])
                 if switch else None)
        s = transform_value(effect, alpha, t, eta, x1, -0.4, onset)

        def inverse(rows):
            return transform_inverse(
                effect, alpha, s[rows], eta[rows],
                x1 if switch else x1[rows], -0.4,
                None if onset is None else onset[rows])

        alone = np.array([inverse(slice(i, i + 1))[0] for i in range(n)])
        np.testing.assert_allclose(alone, t, rtol=1e-13)
        for size in (2, 3, 17, 300):
            for lo in range(0, n, size):
                rows = slice(lo, min(lo + size, n))
                np.testing.assert_array_equal(inverse(rows), alone[rows],
                                              err_msg=f"batch of {size}")


class TestExactMonotonicityRule:
    """`is_monotone` agrees with the slope on a dense grid that holds the
    knots and, for a spline, the vertex of each piece where g'' changes
    sign, with knots far beyond any follow-up and exposure values of both
    signs."""

    def test_spline_against_dense_grid(self):
        rng = np.random.default_rng(160)
        disagree = 0
        for _ in range(1000):
            knots = np.sort(rng.uniform(-3.0, 3.5, size=rng.integers(2, 6)))
            spec = EffectSpec("spline", knots)
            alpha = rng.normal(scale=0.6, size=spec.J)
            x = rng.normal(scale=1.5, size=(3, 1))
            c = spline_basis(knots, knots, 2) @ alpha
            turn = c[:-1] * c[1:] < 0
            vertex = (knots[:-1] + np.diff(knots) * c[:-1]
                      / np.where(turn, c[:-1] - c[1:], 1.0))[turn]
            u = np.concatenate([np.linspace(knots[0] - 1, knots[-1] + 1,
                                            20000), knots, vertex])
            slope = spline_basis(knots, u, 1) @ alpha
            dense = bool(np.all(1.0 - np.multiply.outer(x[:, 0], slope) > 0))
            disagree += is_monotone(spec, alpha, x[:, 0]) != dense
        assert disagree == 0

    def test_piecewise_switch_against_dense_grid(self):
        rng = np.random.default_rng(161)
        disagree = 0
        for _ in range(1000):
            J = int(rng.integers(1, 5))
            knots = np.append(0.0, np.cumsum(rng.uniform(0.1, 8.0, size=J)))
            spec = EffectSpec("piecewise", knots)
            alpha = rng.normal(scale=0.8, size=J)
            s = np.concatenate([np.geomspace(1e-3, 2 * knots[-1], 20000),
                                knots[1:]])
            dense = bool(np.all(1.0 - slope_basis(spec, s) @ alpha > 0))
            disagree += is_monotone(spec, alpha, switch=True) != dense
        assert disagree == 0

    def test_vertices_only_where_the_curvature_changes_sign(self):
        # the linear term alone: g'' = 0 everywhere, so no piece has a
        # vertex (a 0/0 would raise under the errors-as-failures setting)
        spec = EffectSpec("spline", (-1.0, 0.0, 1.0, 2.0))
        with np.errstate(all="raise"):
            assert is_monotone(spec, np.array([0.9, 0.0, 0.0]))
            assert not is_monotone(spec, np.array([1.1, 0.0, 0.0]))
            assert is_monotone(spec, np.array([1.1, 0.0, 0.0]), -1.0)
