"""Quantile times, acceleration factors (including the time-varying closed
form against the generic inverse pipeline), and g-formula standardization."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_dataset, make_model, survivor_conditional
from qvaft.errors import DomainError
from qvaft.inference import (
    ContrastSpec,
    CurveTable,
    acceleration_factor,
    af_surface,
    default_quantile_grid,
    percentiles,
    quantile_time,
    standardized_af,
    standardized_survivor_curves,
    tv_acceleration_factor,
)
from qvaft.inference import _invert_standardized, _standardized_g, _summaries
from qvaft.likelihood import ParameterVector, constrained_array
from qvaft.sampler import PosteriorDraws

RATE03_MU = math.log(1.0 / 0.3)  # Weibull(mu, 1) with S0(t) = exp(-0.3 t)


def draws_from_psis(model, psis):
    con = np.array([constrained_array(model, p) for p in psis])
    from qvaft.likelihood import unconstrain
    z = np.array([unconstrain(model, p) for p in psis])
    M = len(psis)
    return PosteriorDraws(z, con, model.param_names, np.zeros(M, dtype=int),
                          np.arange(M), np.zeros(M, dtype=bool), np.zeros(M),
                          np.full(M, 0.1), 1, model)


def std_survivor(model, psi, data, level, t):
    """S_std(t | level) at one parameter vector, read off the survivor
    curves with `level` as the contrast's reference."""
    curves = standardized_survivor_curves(
        model, draws_from_psis(model, [psi]), data, np.atleast_1d(t),
        ContrastSpec(0.0, level))
    return curves.rows_for("unexposed").mean


class TestQuantileTime:
    def test_exponential_rate_03(self):
        model = make_model(covariates=("x1",))
        psi = ParameterVector(np.array([0.5]), np.array([]), RATE03_MU, 1.0)
        got = quantile_time(model, psi, np.array([1.0]), 0.5)
        assert got == pytest.approx(math.log(2.0) / 0.3 * math.exp(0.5),
                                    rel=1e-12)

    def test_zero_linear_predictor_gives_baseline_quantile(self):
        model = make_model()
        psi = ParameterVector(np.array([0.4, -0.2]), np.array([]), 0.3, 1.1)
        from qvaft.baseline import inverse_survivor
        got = quantile_time(model, psi, np.zeros(2), 0.37)
        want = inverse_survivor(model.baseline, psi.baseline_params(), None, 0.37)
        assert got == pytest.approx(want, rel=1e-14)

    def test_piecewise_worked_example(self):
        # unit-exponential baseline, transform of the hand example: at
        # p = e^-4 the baseline quantile is 4 and its inverse is 3
        model = make_model(effect_kind="piecewise", knots=(0.0, 2.0),
                           covariates=("x1",))
        psi = ParameterVector(np.array([0.0]), np.array([-math.log(2.0)]),
                              0.0, 1.0)
        got = quantile_time(model, psi, np.array([1.0]), math.exp(-4.0))
        assert got == pytest.approx(3.0, rel=1e-12)


class TestAccelerationFactor:
    def test_constant_effect_is_flat(self):
        model = make_model(covariates=("x1",))
        psi = ParameterVector(np.array([0.5]), np.array([]), RATE03_MU, 1.0)
        x1, x0 = np.array([1.0]), np.array([0.0])
        vals = np.array([acceleration_factor(model, psi, p, x1, x0)
                         for p in default_quantile_grid()])
        assert np.abs(vals - math.exp(0.5)).max() < 1e-12
        assert vals.max() - vals.min() < 1e-10

    def test_flat_across_baseline_families(self):
        for fam, K, w in (("weibull", 0, None), ("lognormal", 0, None),
                          ("tbp", 5, np.array([0.01, 0.03, 0.09, 0.23, 0.64]))):
            model = make_model(family=fam, K=K, covariates=("x1",))
            psi = ParameterVector(np.array([0.5]), np.array([]), 0.2, 1.3,
                                  w, 1.0 if w is not None else None)
            vals = np.array([
                acceleration_factor(model, psi, p, np.array([1.0]),
                                    np.array([0.0]))
                for p in (0.05, 0.25, 0.5, 0.75, 0.95)])
            assert vals.max() - vals.min() < 1e-10

    def test_equal_patterns_give_one(self):
        model = make_model()
        psi = ParameterVector(np.array([0.4, 0.1]), np.array([]), 0.0, 1.0)
        x = np.array([1.0, 2.0])
        for p in (0.1, 0.5, 0.9):
            assert acceleration_factor(model, psi, p, x, x) == 1.0

    def test_symmetry(self):
        model = make_model(effect_kind="piecewise", knots=(0.0, 1.0, 2.0))
        psi = ParameterVector(np.array([0.3, -0.2]), np.array([0.5, -0.4]),
                              0.2, 1.2)
        a = np.array([1.0, 0.7])
        b = np.array([0.0, -0.4])
        for p in (0.05, 0.3, 0.6, 0.9):
            prod = (acceleration_factor(model, psi, p, a, b)
                    * acceleration_factor(model, psi, p, b, a))
            assert prod == pytest.approx(1.0, abs=1e-12)

    def test_piecewise_hand_values(self):
        # unit-exponential baseline: xi(e^-1) = 1, xi(e^-4) = 3/4
        model = make_model(effect_kind="piecewise", knots=(0.0, 2.0),
                           covariates=("x1",))
        psi = ParameterVector(np.array([0.0]), np.array([-math.log(2.0)]),
                              0.0, 1.0)
        x1, x0 = np.array([1.0]), np.array([0.0])
        assert acceleration_factor(model, psi, math.exp(-1.0), x1, x0) == \
            pytest.approx(1.0, rel=1e-12)
        assert acceleration_factor(model, psi, math.exp(-4.0), x1, x0) == \
            pytest.approx(0.75, rel=1e-12)


class TestTimeVaryingAF:
    MODEL = make_model(covariates=("x2",), time_varying=True)

    def test_hand_plug_in(self):
        # S0^{-1}(p) = 10, t_x = 4, b1 = -ln 2: 0.4 + 0.5 * 0.6 = 0.7
        psi = ParameterVector(np.array([-math.log(2.0), 0.0]), np.array([]),
                              0.0, 1.0)
        p = math.exp(-10.0)  # unit exponential: S0^{-1}(p) = 10
        got = tv_acceleration_factor(self.MODEL, psi, p, 4.0, np.array([0.0]))
        assert got == pytest.approx(0.7, rel=1e-12)

    def test_pre_switch_region_is_one(self):
        psi = ParameterVector(np.array([0.8, 0.3]), np.array([]), 0.0, 1.0)
        p = math.exp(-1.0)  # quantile time 1 * e^{x2 b2}
        got = tv_acceleration_factor(self.MODEL, psi, p, 5.0, np.array([1.0]))
        assert got == 1.0

    def test_closed_form_matches_generic_pipeline(self):
        psi = ParameterVector(np.array([-0.6, 0.25]), np.array([]), 0.4, 1.3)
        x2 = np.array([1.0])
        ps = np.linspace(0.02, 0.98, 50)
        txs = np.linspace(0.3, 8.0, 20)
        for tx in txs:
            for p in ps:
                closed = tv_acceleration_factor(self.MODEL, psi, p, tx, x2)
                generic = acceleration_factor(self.MODEL, psi, p, x2, x2,
                                              onset=tx, onset_prime=math.inf)
                assert closed == pytest.approx(generic, abs=1e-10, rel=1e-10)

    def test_two_subject_general_form(self):
        psi = ParameterVector(np.array([-0.4, 0.2]), np.array([]), 0.1, 1.0)
        got = tv_acceleration_factor(self.MODEL, psi, 0.3, 2.0,
                                     np.array([1.0]), 5.0, np.array([0.0]))
        want = acceleration_factor(self.MODEL, psi, 0.3, np.array([1.0]),
                                   np.array([0.0]), onset=2.0, onset_prime=5.0)
        assert got == pytest.approx(want, rel=1e-10)

    def test_rejects_flexible_effect(self):
        model = make_model(covariates=("x2",), time_varying=True,
                           effect_kind="piecewise", knots=(0.0, 1.0))
        psi = ParameterVector(np.array([0.5, 0.0]), np.array([0.3]), 0.0, 1.0)
        with pytest.raises(DomainError):
            tv_acceleration_factor(model, psi, 0.5, 1.0, np.array([0.0]))


class TestStandardization:
    def z_data(self):
        recs = [(1.0, 1.0, 1, 0.0, (0.0, z)) for z in
                (-1.0, 0.0, 0.5, 2.0)]
        return make_dataset(recs, ("x1", "x2"))

    def test_mean_of_conditional_survivors(self):
        model = make_model(exposure="x1")
        psi = ParameterVector(np.array([0.5, -0.3]), np.array([]), 0.3, 1.1)
        data = self.z_data()
        t = 1.7
        want = np.mean([
            survivor_conditional(model, psi, np.array([1.0, z]), t)
            for z in data.x[:, 1]])
        got = std_survivor(model, psi, data, 1.0, t)[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_homogeneous_z_equals_conditional(self):
        model = make_model(exposure="x1")
        psi = ParameterVector(np.array([0.5, -0.3]), np.array([]), 0.3, 1.1)
        recs = [(1.0, 1.0, 1, 0.0, (1.0, 0.7))] * 3
        data = make_dataset(recs, ("x1", "x2"))
        got = std_survivor(model, psi, data, 0.0, 2.0)[0]
        want = survivor_conditional(model, psi, np.array([0.0, 0.7]), 2.0)
        assert got == pytest.approx(want, rel=1e-14)

    def test_two_subject_average(self):
        model = make_model(exposure="x1")
        psi = ParameterVector(np.array([0.0, 1.0]), np.array([]), 0.0, 1.0)
        recs = [(1.0, 1.0, 1, 0.0, (0.0, z)) for z in (0.3, 1.4)]
        data = make_dataset(recs, ("x1", "x2"))
        t = 1.0
        s1 = survivor_conditional(model, psi, np.array([0.0, 0.3]), t)
        s2 = survivor_conditional(model, psi, np.array([0.0, 1.4]), t)
        got = std_survivor(model, psi, data, 0.0, t)[0]
        assert got == pytest.approx(0.5 * (s1 + s2), rel=1e-14)

    def test_monotone_and_bounded(self):
        model = make_model(exposure="x1", effect_kind="spline",
                           knots=(-1.0, 0.5))
        psi = ParameterVector(np.array([0.4, -0.2]), np.array([0.2]), 0.4, 1.2)
        data = self.z_data()
        t = np.linspace(0.01, 12.0, 80)
        s = std_survivor(model, psi, data, 1.0, t)
        assert np.all(np.diff(s) <= 0)
        assert np.all((0 <= s) & (s <= 1))

    def test_single_covariate_standardized_equals_conditional(self):
        """Exposure-only model: the standardized AF must coincide with the
        closed-form conditional AF."""
        model = make_model(covariates=("x1",), exposure="x1")
        psi = ParameterVector(np.array([0.45]), np.array([]), 0.6, 1.2)
        recs = [(1.0 + i * 0.5, 1.0 + i * 0.5, 1, 0.0, (i % 2,))
                for i in range(6)]
        data = make_dataset(recs, ("x1",))
        draws = draws_from_psis(model, [psi])
        p = np.array([0.2, 0.5, 0.8])
        table = standardized_af(model, draws, data, p)
        want = np.array([acceleration_factor(model, psi, pv, np.array([1.0]),
                                             np.array([0.0])) for pv in p])
        assert np.abs(table.mean - want).max() < 1e-12

    def test_identical_draws_zero_width(self):
        model = make_model(covariates=("x1",), exposure="x1")
        psi = ParameterVector(np.array([0.45]), np.array([]), 0.6, 1.2)
        data = make_dataset(
            [(1.0, 1.0, 1, 0.0, (1.0,))], ("x1",))
        draws = draws_from_psis(model, [psi] * 8)
        table = standardized_af(model, draws, data, np.array([0.3, 0.7]))
        assert np.all(table.hi95 - table.lo95 == 0.0)
        assert np.all(table.mean == table.median)

    @pytest.mark.parametrize("M", [2, 3, 5, 7, 8, 11, 100])
    def test_summaries_of_identical_rows_are_exact(self, M):
        values = np.random.default_rng(M).uniform(0.05, 20.0, 200)
        for stat in _summaries(np.tile(values, (M, 1))):
            np.testing.assert_array_equal(stat, values)

    @pytest.mark.parametrize("M", [1, 2, 3, 7, 100, 1000])
    def test_percentiles_are_numpys(self, M):
        """One sort and numpy's linear rule give np.percentile bit for bit,
        on columns with ties, one with a NaN and one where -0.0 and 0.0
        tie (there the two may differ in the sign of a zero alone)."""
        rng = np.random.default_rng(M)
        samples = np.column_stack([
            rng.normal(size=(M, 3)),
            np.round(rng.normal(size=(M, 3)) * 2.0) / 2.0,   # ties
            np.full(M, 1.5), rng.choice([-0.0, 0.0, 1.0], size=M)])
        samples[M // 2, 2] = np.nan
        q = (50.0, 2.5, 97.5, 0.0, 100.0, 33.3)
        for p, got in zip(q, percentiles(samples, q)):
            want = np.percentile(samples, p, axis=0)
            np.testing.assert_array_equal(got, want)
            same = (got != 0.0) | np.isnan(got)
            assert got[same].tobytes() == want[same].tobytes()

    def test_inverse_round_trip_in_both_tails(self):
        model = make_model(exposure="x1", effect_kind="spline",
                           knots=(-1.0, 0.5))
        psi = ParameterVector(np.array([0.4, -0.2]), np.array([0.2]), 0.4, 1.2)
        data = self.z_data()
        p = np.array([1e-9, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-9])
        G = _standardized_g(model, psi, data, 1.0)
        s = G(_invert_standardized(G, p, 1.0, 1.0))
        np.testing.assert_allclose(np.minimum(s, 1 - s),
                                   np.minimum(p, 1 - p), rtol=1e-6)

    def test_survivor_curves_table(self):
        model = make_model(exposure="x1")
        psis = [ParameterVector(np.array([0.5, -0.3]), np.array([]), 0.3, 1.1),
                ParameterVector(np.array([0.6, -0.2]), np.array([]), 0.4, 1.0)]
        draws = draws_from_psis(model, psis)
        t = np.linspace(0.2, 4.0, 12)
        table = standardized_survivor_curves(model, draws, self.z_data(), t)
        assert set(table.group) == {"exposed", "unexposed"}
        for g in ("exposed", "unexposed"):
            rows = table.rows_for(g)
            np.testing.assert_array_equal(rows.abscissa, t)
            assert np.all(np.diff(rows.mean) <= 0)
            assert np.all((rows.lo95 <= rows.median) & (rows.median <= rows.hi95))

    def test_extrapolation_flag(self):
        """Quantiles below the survivor value at the largest follow-up are
        flagged."""
        model = make_model(covariates=("x1",), exposure="x1")
        psi = ParameterVector(np.array([0.0]), np.array([]), 0.0, 1.0)
        data = make_dataset(
            [(1.0, 1.0, 1, 0.0, (1.0,))], ("x1",))
        draws = draws_from_psis(model, [psi])
        p = np.array([0.1, 0.3, 0.5, 0.9])
        table = standardized_af(model, draws, data, p)
        thr = math.exp(-1.0)  # S(t_max = 1) under the unit exponential
        np.testing.assert_array_equal(table.extrapolated, p < thr)


    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_time_below_zero_or_nan_rejected(self, t):
        model = make_model(exposure="x1", effect_kind="spline",
                           knots=(-1.0, 0.5))
        psi = ParameterVector(np.array([0.4, -0.2]), np.array([0.2]), 0.4, 1.2)
        data = self.z_data()
        draws = draws_from_psis(model, [psi])
        with pytest.raises(DomainError, match="time"):
            standardized_survivor_curves(model, draws, data, np.array([t]))
        with pytest.raises(DomainError, match="time"):
            standardized_survivor_curves(model, draws, data,
                                         np.array([1.0, t]))

    def test_nan_survivor_names_the_draw(self):
        """exp(-eta) = 0 (x2 = 1000) times an infinite profile (exp(800) on
        the last segment at x1 = 1) is NaN, so S_std at x1 = 1 is NaN past
        t = 2: with x1 = 1 as the reference level, whose S_std is
        inverted, the AF fails and names the draw, and so do the survivor
        curves. As the exposed level, x1 = 1 is reached through V^{-1}
        alone, which never forms the product: its times are finite."""
        from qvaft.errors import NumericalError
        model = make_model("weibull", "piecewise", (0.0, 1.0, 2.0))
        psis = [ParameterVector(np.array([0.5, 1.0]), np.array([0.0, a]),
                                0.0, 1.0) for a in (0.0, -800.0)]
        recs = [(1.0, 1.0, 1, 0.0, (0.0, z)) for z in
                (0.0, 1000.0)]
        data = make_dataset(recs, ("x1", "x2"))
        draws = draws_from_psis(model, psis)
        p = np.array([0.6, 0.8])
        with pytest.raises(NumericalError, match="at draw 1") as err:
            standardized_af(model, draws, data, p, ContrastSpec(0.0, 1.0))
        assert err.value.context["draw"] == 1
        table = standardized_af(model, draws, data, p)
        assert np.isfinite(table.mean).all() and np.isfinite(table.hi95).all()
        with pytest.raises(NumericalError, match="NaN at draw 1") as err:
            standardized_survivor_curves(model, draws_from_psis(model, psis),
                                         data, np.array([1.0, 3.0]))
        assert err.value.context["draw"] == 1


class TestStandardizedInverse:
    """The grid-bracketed Newton inverse of G, on the V axis, against plain
    bisection of the same G (the slope-free root-finder from lo = 0), with
    G built at each level as the reference."""

    P = np.array([1e-9, 0.01, 0.5, 0.99, 1 - 1e-9])
    CASES = {
        "tbp_spline": (
            make_model("tbp", "spline", (-1.0, 0.3, 1.5), K=5),
            ParameterVector(np.array([0.4, -0.3]), np.array([0.2, 0.05]), 0.5,
                            1.3, np.array([0.1, 0.15, 0.3, 0.25, 0.2]), 1.0),
            (1.0, 0.0)),
        "weibull_piecewise": (
            make_model("weibull", "piecewise", (0.0, 0.8, 1.6, 2.4)),
            ParameterVector(np.array([0.5, -0.3]), np.array([0.2, 0.4, -0.3]),
                            0.3, 1.2),
            (1.0, 0.0)),
        "switch_spline": (
            make_model("weibull", "spline", (-1.0, 0.0, 1.0),
                       covariates=("x1",), time_varying=True),
            ParameterVector(np.array([-0.6, 0.2]), np.array([0.1, 0.05]), 0.5,
                            1.1),
            (0.7, 1.5, math.inf)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_bisection(self, rng, case):
        from conftest import random_dataset
        from qvaft.data import max_followup
        from qvaft.inference import BISECT_RTOL
        from qvaft.roots import increasing_root

        model, psi, levels = self.CASES[case]
        data = random_dataset(rng, 40, len(model.covariates),
                              time_varying=model.time_varying)
        top = max_followup(data)
        for level in levels:
            G = _standardized_g(model, psi, data, level)
            got = _invert_standardized(G, self.P, top, level)
            want = increasing_root(lambda v: -G(v), -self.P, max(top, 1.0),
                                   BISECT_RTOL, "bisection")
            if model.baseline.is_tbp:
                # 1 - G = 1e-9 is below the resolution of the Bernstein
                # survivor (log of a sum near 1): the computed G is
                # within a few ulp of p, and not monotone, over a stretch
                # of about 1e-7 relative, so the two searches may stop at
                # different points of it; both must be roots to rounding
                for v in (got[-1], want[-1]):
                    assert abs(G(np.array([v]))[0] - self.P[-1]) <= \
                        4 * np.spacing(1.0)
                np.testing.assert_allclose(got[-1], want[-1], rtol=1e-6)
                got, want = got[:-1], want[:-1]
            np.testing.assert_allclose(got, want, rtol=1e-12)


class TestBlocks:
    """The standardized survivor is evaluated by blocks of time rows of
    u = outer(h, exp(-eta)). Past BLOCK subjects a block holds a single
    time row, and with n = 1 it holds many. The survivor curves match the
    mean of the conditional survivors (dense u per subject), and the AF
    table matches a single dense block of all rows."""

    CASES = {case: TestStandardizedInverse.CASES[case]
             for case in ("tbp_spline", "weibull_piecewise")}
    P = np.array([0.01, 0.3, 0.5, 0.9])

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n", [1, "over"])
    def test_matches_dense(self, rng, monkeypatch, case, n):
        from conftest import random_dataset
        from qvaft import inference

        model, psi, (exposed, reference) = self.CASES[case]
        n = inference.BLOCK + 1 if n == "over" else n
        data = random_dataset(rng, n, len(model.covariates))
        psis = [psi, dataclasses.replace(psi, mu=psi.mu + 0.2)]
        draws = draws_from_psis(model, psis)
        t = np.array([0.0, 0.05, 0.9, 2.5, 8.0])
        curves = standardized_survivor_curves(model, draws, data, t)
        af = standardized_af(model, draws, data, self.P)

        for group, level in (("exposed", exposed), ("unexposed", reference)):
            x = data.x.copy()
            x[:, model.exposure_index] = level
            want = [[np.mean(survivor_conditional(model, p, x, ti))
                     for ti in t] for p in psis]
            got = curves.rows_for(group)
            np.testing.assert_allclose(got.mean, np.mean(want, axis=0),
                                       rtol=1e-13)
        monkeypatch.setattr(inference, "BLOCK", 10 ** 12)  # one block
        np.testing.assert_allclose(
            af.mean, standardized_af(model, draws, data, self.P).mean,
            rtol=1e-14)


class TestSurface:
    MODEL = make_model(covariates=("x2",), time_varying=True)

    def make_draws(self):
        psis = [ParameterVector(np.array([-0.5, 0.2]), np.array([]), 0.4, 1.1),
                ParameterVector(np.array([-0.7, 0.1]), np.array([]), 0.5, 1.0),
                ParameterVector(np.array([-0.3, 0.3]), np.array([]), 0.3, 1.2)]
        return draws_from_psis(self.MODEL, psis)

    def data(self):
        recs = [(2.0, 2.0, 1, 0.0, (z,), math.inf)
                for z in (0.0, 1.0)]
        return make_dataset(recs, ("x2",))

    def test_slices_match_standardized_af(self):
        draws = self.make_draws()
        data = self.data()
        p = np.array([0.2, 0.5, 0.8])
        onsets = np.array([0.7, 1.9])
        surf = af_surface(self.MODEL, draws, data, onsets, p, thin=1)
        for g in onsets:
            slice_rows = surf.rows_for(f"tx={g:g}")
            direct = standardized_af(self.MODEL, draws, data, p,
                                     ContrastSpec(float(g), math.inf))
            np.testing.assert_array_equal(slice_rows.mean, direct.mean)
            np.testing.assert_array_equal(slice_rows.lo95, direct.lo95)
            np.testing.assert_array_equal(slice_rows.hi95, direct.hi95)

    def test_zero_switch_coefficient_gives_flat_surface(self):
        psi = ParameterVector(np.array([0.0, 0.2]), np.array([]), 0.4, 1.1)
        draws = draws_from_psis(self.MODEL, [psi])
        surf = af_surface(self.MODEL, draws, self.data(),
                          np.array([0.5, 1.5]), np.array([0.25, 0.75]),
                          thin=1)
        np.testing.assert_array_equal(surf.mean, np.ones(4))

    def test_pre_switch_quantiles_are_one(self):
        psi = ParameterVector(np.array([-0.8, 0.0]), np.array([]), 0.4, 1.1)
        draws = draws_from_psis(self.MODEL, [psi])
        data = make_dataset(
            [(2.0, 2.0, 1, 0.0, (0.0,), math.inf)], ("x2",))
        # with onset far beyond the p = 0.75 quantile time, AF = 1 there
        from qvaft.baseline import inverse_survivor
        q75 = inverse_survivor(self.MODEL.baseline, psi.baseline_params(),
                               None, 0.75)
        surf = af_surface(self.MODEL, draws, data,
                          np.array([q75 * 2.0]), np.array([0.75]), thin=1)
        assert surf.mean[0] == pytest.approx(1.0, abs=1e-12)


class TestOneInversion:
    """Per draw one G is inverted, on the V axis, and every level's
    quantile times are read off it through V^{-1}, since S_std(t | L) =
    G(V_L(t)). Checked against an oracle that inverts each level's S_std
    on the t axis on its own."""

    P = np.array([0.002, 0.05, 0.3, 0.5, 0.8, 0.99])
    ONSETS = np.array([0.6, 1.4, 2.5])
    # key: (model, base parameters, contrast)
    CASES = {
        "weibull_constant": (
            make_model("weibull", exposure="x1"),
            ParameterVector(np.array([0.5, -0.3]), np.array([]), 0.4, 1.2),
            ContrastSpec(1.5, 0.5)),
        "lognormal_piecewise": (
            make_model("lognormal", "piecewise", (0.0, 0.8, 1.6, 2.4)),
            ParameterVector(np.array([0.5, -0.3]), np.array([0.2, 0.4, -0.3]),
                            0.3, 0.9),
            ContrastSpec(1.5, 0.5)),
        "tbp_spline": (
            TestStandardizedInverse.CASES["tbp_spline"][0],
            TestStandardizedInverse.CASES["tbp_spline"][1],
            ContrastSpec(1.5, 0.5)),
        "weibull_spline": (
            make_model("weibull", "spline", (-1.0, 0.3, 1.5)),
            ParameterVector(np.array([0.4, -0.3]), np.array([0.2, 0.05]), 0.5,
                            1.3),
            ContrastSpec(1.0, 0.0)),
        "switch_constant": (
            make_model("lognormal", covariates=("x1",), time_varying=True),
            ParameterVector(np.array([-0.6, 0.2]), np.array([]), 0.5, 0.8),
            ContrastSpec(1.2, 2.0)),
        "switch_piecewise": (
            make_model("weibull", "piecewise", (0.0, 1.0, 2.0, 3.0),
                       covariates=("x1",), time_varying=True),
            ParameterVector(np.array([-0.7, 0.2]), np.array([0.2, 0.3, 0.4]),
                            0.5, 1.1),
            ContrastSpec(1.5, math.inf)),
        "switch_spline": (
            TestStandardizedInverse.CASES["switch_spline"][0],
            TestStandardizedInverse.CASES["switch_spline"][1],
            ContrastSpec(0.7, 2.5)),
    }

    @staticmethod
    def inputs(rng, case):
        model, psi, contrast = TestOneInversion.CASES[case]
        from conftest import random_dataset
        data = random_dataset(rng, 30, len(model.covariates),
                              time_varying=model.time_varying)
        psis = [psi] + [dataclasses.replace(
            psi, beta=psi.beta + rng.normal(scale=0.1, size=psi.beta.size),
            mu=psi.mu + rng.normal(scale=0.1)) for _ in range(2)]
        return model, data, draws_from_psis(model, psis), contrast

    @staticmethod
    def oracle(model, draws, data, p, exposed, reference):
        """(mean, median, lo95, hi95, flags) per exposed level, from each
        level's S_std(t), the mean of the subjects' conditional survivors,
        inverted on the t axis by plain bisection, per level and draw."""
        from qvaft.data import max_followup
        from qvaft.inference import BISECT_RTOL, _draw_parameters
        from qvaft.roots import increasing_root

        def sf(psi, level, t):
            """S_std(t | level) for a 1-D t, one subject per column."""
            x, onset = model.design(data), level
            if not model.time_varying:
                x[:, model.exposure_index], onset = level, math.inf
            return survivor_conditional(model, psi, x, t[:, None],
                                        onset).mean(axis=1)

        levels = (reference, *exposed)
        tmax = max_followup(data)
        psis = list(_draw_parameters(model, draws))
        times = np.array([[increasing_root(
            lambda t: -sf(psi, level, t), -p, max(tmax, 1.0), BISECT_RTOL,
            "bisection") for psi in psis] for level in levels])
        at_tmax = np.array([[sf(psi, level, np.array([tmax]))[0]
                             for psi in psis] for level in levels]).mean(axis=1)
        return [(*_summaries(times[k] / times[0]),
                 p < min(at_tmax[k], at_tmax[0]))
                for k in range(1, len(levels))]

    @staticmethod
    def assert_matches(table, want):
        *stats, flags = want
        for f, w in zip(("mean", "median", "lo95", "hi95"), stats):
            np.testing.assert_allclose(getattr(table, f), w, rtol=1e-10,
                                       atol=0.0, err_msg=f)
        np.testing.assert_array_equal(table.extrapolated, flags)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_af_matches_oracle(self, rng, case):
        model, data, draws, con = self.inputs(rng, case)
        table = standardized_af(model, draws, data, self.P, con)
        self.assert_matches(table, self.oracle(
            model, draws, data, self.P, (con.exposed,), con.reference)[0])

    @pytest.mark.parametrize("case", ["switch_constant", "switch_piecewise",
                                      "switch_spline"])
    def test_surface_matches_oracle(self, rng, case):
        model, data, draws, _ = self.inputs(rng, case)
        surf = af_surface(model, draws, data, self.ONSETS, self.P, thin=1)
        wants = self.oracle(model, draws, data, self.P, tuple(self.ONSETS),
                            math.inf)
        for g, want in zip(self.ONSETS, wants):
            self.assert_matches(surf.rows_for(f"tx={g:g}"), want)

    @pytest.mark.parametrize("case", ["switch_piecewise", "switch_spline"])
    def test_forty_onset_slices_equal_af(self, rng, case):
        """All onsets go through one V^{-1} call, each row inverted as it
        would be alone: every slice equals the AF at its onset bit for
        bit."""
        model, data, draws, _ = self.inputs(rng, case)
        onsets = np.linspace(0.0, 4.0, 41)[1:]
        surf = af_surface(model, draws, data, onsets, self.P, thin=1)
        for g in onsets:
            got = surf.rows_for(f"tx={g:g}")
            want = standardized_af(model, draws, data, self.P,
                                   ContrastSpec(float(g), math.inf))
            for f in ("mean", "median", "lo95", "hi95", "extrapolated"):
                np.testing.assert_array_equal(getattr(got, f),
                                              getattr(want, f), err_msg=f)

    def test_exposed_level_without_finite_time_names_draw_and_level(self):
        """alpha_2 = 800 makes the exposed level's V flat past t = 2
        (slope exp(-800) = 0), so V^{-1} at the reference's later quantile
        times is +inf."""
        from qvaft.errors import NumericalError
        model = make_model("weibull", "piecewise", (0.0, 1.0, 2.0))
        psis = [ParameterVector(np.array([0.5, 0.1]), np.array([0.0, a]),
                                0.0, 1.0) for a in (0.0, 800.0)]
        data = make_dataset(
            [(1.0, 1.0, 1, 0.0, (0.0, z)) for z in (0.0, 1.0)],
            ("x1", "x2"))
        with pytest.raises(NumericalError,
                           match="at draw 1, level 1: V.* not finite") as err:
            standardized_af(model, draws_from_psis(model, psis), data,
                            np.array([0.1, 0.6]))
        assert err.value.context["draw"] == 1
        assert err.value.context["level"] == 1.0

    def test_exposed_level_whose_inverse_raises_names_draw_and_level(self):
        """With alpha = (1, 0) the spline transform is t^{1 - x1} exp(-eta):
        increasing at the reference x1 = 0.5, decreasing at x1 = 1.5, whose
        V^{-1} cannot reach its targets. The surface names the first
        failing onset the same way."""
        from qvaft.errors import NumericalError
        model = make_model("weibull", "spline", (-1.0, 0.3, 1.5))
        psis = [ParameterVector(np.array([0.5, 0.1]), np.array([a, 0.0]),
                                0.0, 1.0) for a in (0.0, 1.0)]
        data = make_dataset(
            [(1.0, 1.0, 1, 0.0, (0.0, z)) for z in (0.0, 1.0)],
            ("x1", "x2"))
        with pytest.raises(NumericalError,
                           match="at draw 1, level 1.5: spline inverse") as err:
            standardized_af(model, draws_from_psis(model, psis), data,
                            np.array([0.3, 0.6]), ContrastSpec(1.5, 0.5))
        assert err.value.context["draw"] == 1
        assert err.value.context["level"] == 1.5

    def test_reference_level_without_finite_time_names_draw_and_level(self):
        """The reference's quantile times come from V^{-1} too: with
        alpha_2 = 800 at the reference x1 = 1, V_ref is flat past t = 2,
        so V_ref^{-1} at the later values of G^{-1}(p) is +inf."""
        from qvaft.errors import NumericalError
        model = make_model("weibull", "piecewise", (0.0, 1.0, 2.0))
        psis = [ParameterVector(np.array([0.5, 0.1]), np.array([0.0, a]),
                                0.0, 1.0) for a in (0.0, 800.0)]
        data = make_dataset(
            [(1.0, 1.0, 1, 0.0, (0.0, z)) for z in (0.0, 1.0)],
            ("x1", "x2"))
        with pytest.raises(NumericalError,
                           match="at draw 1, level 1: V.* not finite") as err:
            standardized_af(model, draws_from_psis(model, psis), data,
                            np.array([0.1, 0.6]), ContrastSpec(0.0, 1.0))
        assert err.value.context["draw"] == 1
        assert err.value.context["level"] == 1.0


class TestOneEvaluatorPerDraw:
    """Each draw builds one standardized evaluator G, whatever the number
    of contrast levels it serves."""

    @pytest.mark.parametrize("case", ["weibull_constant", "switch_piecewise"])
    def test_one_build_per_draw(self, rng, monkeypatch, case):
        from qvaft import inference

        builds = []
        build = inference._standardized_g
        monkeypatch.setattr(inference, "_standardized_g",
                            lambda *args: builds.append(args) or build(*args))
        model, data, draws, con = TestOneInversion.inputs(rng, case)
        standardized_af(model, draws, data, TestOneInversion.P, con)
        assert len(builds) == draws.M
        builds.clear()
        standardized_survivor_curves(model, draws, data, None, con)
        assert len(builds) == draws.M
        if model.time_varying:
            builds.clear()
            af_surface(model, draws, data, np.linspace(0.0, 4.0, 41)[1:],
                       TestOneInversion.P, thin=1)
            assert len(builds) == draws.M


class TestBlockPartition:
    """G sums over subjects in blocks of values of v, and a value's sum
    does not depend on which values share its block (where no block falls
    back to the dense u, as none does here): the tables are byte-equal at
    `inference.BLOCK`, at the 8192 entries it was before the allocator
    policy, and at one value of v per block."""

    FIELDS = ("abscissa", "group", "mean", "median", "lo95", "hi95",
              "extrapolated")

    @pytest.mark.parametrize("case", ["weibull_constant",
                                      "lognormal_piecewise", "tbp_spline",
                                      "switch_piecewise"])
    def test_tables_do_not_depend_on_the_partition(self, rng, monkeypatch,
                                                   case):
        from conftest import random_dataset
        from qvaft import inference

        model, psi, con = TestOneInversion.CASES[case]
        data = random_dataset(rng, 300, len(model.covariates),
                              time_varying=model.time_varying)
        draws = draws_from_psis(model, [psi] + [dataclasses.replace(
            psi, beta=psi.beta + rng.normal(scale=0.1, size=psi.beta.size),
            mu=psi.mu + rng.normal(scale=0.1)) for _ in range(2)])

        def tables():
            out = [standardized_af(model, draws, data, None, con),
                   standardized_survivor_curves(model, draws, data, None,
                                                con)]
            if model.time_varying:
                out.append(af_surface(model, draws, data,
                                      np.array([0.5, 1.5, 3.0]), None,
                                      thin=1))
            return out

        assert inference.BLOCK // data.n > 99  # a whole p grid per block
        want = tables()
        for block in (8192, 1):
            monkeypatch.setattr(inference, "BLOCK", block)
            for got, ref in zip(tables(), want):
                for f in self.FIELDS:
                    np.testing.assert_array_equal(getattr(got, f),
                                                  getattr(ref, f))


class TestNaNReference:
    @pytest.mark.parametrize("tmax, value", [(1.5, "nan"), (3.0, "inf")])
    def test_fails_at_once_naming_draw_and_level(self, monkeypatch, tmax,
                                                 value):
        """A segment not yet reached (term 0) times an infinite slope
        (exp(800) at x1 = 1) makes V at x1 = 1 NaN before t = 2, and past
        it V overflows, so the reference level 1's V at the largest
        follow-up is not finite: the AF fails naming the draw and the
        level with one evaluation of G (the flags'), where it used to widen
        a NaN grid 200 times. As the exposed level, x1 = 1 only flags no p
        (`test_nan_survivor_names_the_draw`)."""
        from qvaft import inference
        from qvaft.errors import NumericalError

        calls = []
        build = inference._standardized_g

        def counted(*args):
            G = build(*args)
            return lambda *a, **k: calls.append(a) or G(*a, **k)

        monkeypatch.setattr(inference, "_standardized_g", counted)
        model = make_model("weibull", "piecewise", (0.0, 1.0, 2.0))
        psis = [ParameterVector(np.array([0.5, 1.0]), np.array([0.0, a]),
                                0.0, 1.0) for a in (0.0, -800.0)]
        data = make_dataset([(1.0, 1.0, 1, 0.0, (0.0, 0.0)),
                             (tmax, tmax, 1, 0.0, (1.0, 0.5))], ("x1", "x2"))
        with pytest.raises(NumericalError, match=(
                f"at draw 1: standardized inverse at level 1: V at the "
                f"largest follow-up is {value}")) as err:
            standardized_af(model, draws_from_psis(model, psis), data,
                            np.array([0.5]), ContrastSpec(0.0, 1.0))
        assert (err.value.context["draw"], err.value.context["level"]) == (
            1, 1.0)
        calls.clear()
        with pytest.raises(NumericalError, match="at draw 0: standardized "
                           "inverse at level 1: V at the largest follow-up"):
            standardized_af(model, draws_from_psis(model, psis[1:]), data,
                            np.array([0.5]), ContrastSpec(0.0, 1.0))
        assert len(calls) <= 1


class TestCurveTable:
    def test_csv_round_trip(self, tmp_path):
        t = CurveTable(np.array([0.1, 0.2]), np.array(["a", "b"], dtype=object),
                       np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                       np.array([0.5, 1.5]), np.array([1.5, 2.5]),
                       np.array([False, True]))
        path = tmp_path / "c.csv"
        t.to_csv(path)
        assert path.read_text().splitlines()[0] == \
            "abscissa,group,mean,median,lo95,hi95,extrapolated"
        back = CurveTable.from_csv(path)
        np.testing.assert_array_equal(back.abscissa, t.abscissa)
        np.testing.assert_array_equal(back.mean, t.mean)
        np.testing.assert_array_equal(back.extrapolated, t.extrapolated)

    def test_interval_ordering_enforced(self):
        with pytest.raises(DomainError):
            CurveTable(np.array([0.1]), np.array(["a"], dtype=object),
                       np.array([1.0]), np.array([1.0]), np.array([1.5]),
                       np.array([2.0]), np.array([False]))
