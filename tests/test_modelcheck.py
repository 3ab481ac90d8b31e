"""PSIS-LOO against a conjugate closed-form oracle, smoothing invariants,
and the comparison table."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from conftest import make_model, random_dataset
from qvaft.errors import ComparisonError, DomainError
from qvaft.likelihood import ParameterVector, loglik_subject, loglik_total
from qvaft.modelcheck import (
    LooResult,
    PointwiseLogLik,
    compare,
    pointwise_loglik,
    psis_loo,
    read_loo_report,
    write_loo_pointwise,
    write_loo_report,
)
from qvaft.modelcheck import _logsumexp, _smooth_tail
from qvaft.sampler import PosteriorDraws


def _draws_for(model, psis):
    from qvaft.likelihood import constrained_array, unconstrain
    con = np.array([constrained_array(model, p) for p in psis])
    z = np.array([unconstrain(model, p) for p in psis])
    M = len(psis)
    return PosteriorDraws(z, con, model.param_names, np.zeros(M, dtype=int),
                          np.arange(M), np.zeros(M, dtype=bool), np.zeros(M),
                          np.full(M, 0.1), 1, model)


class TestPointwise:
    def test_matches_direct_calls(self, rng):
        model = make_model()
        data = random_dataset(rng, 2, 2)
        psi = ParameterVector(np.array([0.2, -0.1]), np.array([]), 0.1, 1.2)
        ll = pointwise_loglik(model, _draws_for(model, [psi]), data)
        assert ll.values.shape == (1, 2)
        for i, r in enumerate(data.to_records()):
            assert ll.values[0, i] == pytest.approx(
                loglik_subject(model, psi, r), abs=1e-12)

    def test_row_sums_equal_total(self, rng):
        model = make_model()
        data = random_dataset(rng, 12, 2)
        psis = [ParameterVector(rng.normal(size=2, scale=0.3), np.array([]),
                                0.2, 1.1) for _ in range(4)]
        ll = pointwise_loglik(model, _draws_for(model, psis), data)
        for m, psi in enumerate(psis):
            assert ll.values[m].sum() == pytest.approx(
                loglik_total(model, psi, data), abs=1e-10)

    def test_permuting_subjects_permutes_columns(self, rng):
        model = make_model()
        data = random_dataset(rng, 10, 2)
        psi = ParameterVector(np.array([0.1, 0.1]), np.array([]), 0.0, 1.0)
        draws = _draws_for(model, [psi])
        base = pointwise_loglik(model, draws, data).values
        perm = rng.permutation(10)
        permuted = pointwise_loglik(model, draws, data.subset(perm)).values
        np.testing.assert_allclose(permuted[0], base[0][perm], atol=1e-12)


def conjugate_setup(rng, n=20, M=4000, prior_var=25.0):
    """Normal mean with known unit variance: exact posterior draws plus the
    closed-form leave-one-out predictive densities."""
    y = rng.normal(0.7, 1.0, size=n)
    post_var = 1.0 / (n + 1.0 / prior_var)
    post_mean = post_var * y.sum()
    theta = rng.normal(post_mean, math.sqrt(post_var), size=M)
    ll = norm.logpdf(y[None, :], loc=theta[:, None], scale=1.0)
    exact = np.empty(n)
    for i in range(n):
        rest = np.delete(y, i)
        v = 1.0 / (n - 1 + 1.0 / prior_var)
        m = v * rest.sum()
        exact[i] = norm.logpdf(y[i], loc=m, scale=math.sqrt(1.0 + v))
    return ll, exact


class TestPsisLoo:
    def test_conjugate_oracle(self, rng):
        ll, exact = conjugate_setup(rng)
        res = psis_loo(PointwiseLogLik(ll))
        assert abs(res.elpd - exact.sum()) < 2.0 * res.elpd_se
        assert res.minus2elpd == -2.0 * res.elpd
        assert np.all(res.khat < 0.7)

    def test_identical_draws_degenerate(self):
        row = np.array([-1.3, -0.7, -2.1])
        ll = PointwiseLogLik(np.tile(row, (200, 1)))
        res = psis_loo(ll)
        np.testing.assert_allclose(res.pointwise, row, atol=1e-12)
        assert np.all(np.isnan(res.khat))
        assert any("degenerate" in w for w in res.warnings)

    def test_needs_enough_draws(self):
        with pytest.raises(DomainError):
            psis_loo(PointwiseLogLik(np.zeros((50, 3))))

    def test_elpd_below_in_sample_lpd(self, rng):
        ll = rng.normal(-2.0, 1.0, size=(400, 15))
        res = psis_loo(PointwiseLogLik(ll))
        lpd = float((logsumexp(ll, axis=0) - math.log(ll.shape[0])).sum())
        assert res.elpd < lpd

    def test_smoothing_touches_only_the_tail(self, rng):
        lr = rng.normal(size=500)
        notes = []
        smoothed, khat = _smooth_tail(lr, notes, 0)
        tail_len = int(math.ceil(min(0.2 * 500, 3 * math.sqrt(500))))
        changed = smoothed != lr
        assert changed.sum() <= tail_len
        # untouched entries are bit-identical; capped at the raw maximum
        assert np.all(smoothed <= lr.max() + 1e-12)
        assert math.isfinite(khat)

    def test_report_round_trip(self, tmp_path, rng):
        ll, _ = conjugate_setup(rng, n=10, M=300)
        res = psis_loo(PointwiseLogLik(ll))
        path = tmp_path / "loo.txt"
        write_loo_report(res, path)
        back = read_loo_report(path)
        assert back["elpd"] == res.elpd
        assert back["elpd_se"] == res.elpd_se
        assert back["minus2elpd"] == res.minus2elpd
        assert back["n"] == res.n
        write_loo_pointwise(res, tmp_path / "pw.csv")
        rows = (tmp_path / "pw.csv").read_text().splitlines()
        assert rows[0] == "subject,elpd_i,khat"
        assert len(rows) == res.n + 1

    def test_nonfinite_matrix_rejected(self):
        from qvaft.errors import NumericalError
        bad = np.zeros((120, 3))
        bad[5, 1] = -np.inf
        with pytest.raises(NumericalError):
            PointwiseLogLik(bad)


class TestCompare:
    def _fake(self, pointwise):
        pointwise = np.asarray(pointwise, dtype=float)
        elpd = float(pointwise.sum())
        se = float(math.sqrt(len(pointwise) * np.var(pointwise, ddof=1)))
        return LooResult(elpd, se, -2 * elpd, np.zeros(len(pointwise)), [],
                         pointwise, len(pointwise), 100)

    def test_self_comparison(self, rng):
        a = self._fake(rng.normal(-2, 1, size=30))
        cmp = compare([a, a])
        assert cmp.elpd_diff[1] == 0.0
        assert cmp.se_diff[1] == 0.0

    def test_injected_shift(self, rng):
        pw = rng.normal(-2, 1, size=30)
        a = self._fake(pw)
        b = self._fake(pw - 1.0)
        cmp = compare([b, a])
        assert cmp.order == [1, 0]           # a wins
        assert cmp.elpd_diff[1] == pytest.approx(-30.0, abs=1e-10)
        assert cmp.se_diff[1] == pytest.approx(0.0, abs=1e-10)

    def test_ordering_matches_elpd_sign(self, rng):
        results = [self._fake(rng.normal(-2, 1, size=30)) for _ in range(4)]
        cmp = compare(results)
        ranked = [results[i].elpd for i in cmp.order]
        assert ranked == sorted(ranked, reverse=True)
        assert np.all(cmp.elpd_diff[1:] <= 0)

    def test_mismatched_n(self, rng):
        a = self._fake(rng.normal(size=30))
        b = self._fake(rng.normal(size=29))
        with pytest.raises(ComparisonError):
            compare([a, b])


class TestLogSumExp:
    """The max-shifted log-sum-exp against scipy's."""

    def _agrees(self, a):
        with np.errstate(all="ignore"):
            want = float(logsumexp(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp(a)
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
        else:
            assert got == want

    @pytest.mark.parametrize("size", [2, 7, 1000])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 800.0])
    def test_random_vectors(self, rng, size, scale):
        for shift in (-1e4, 0.0, 700.0):
            self._agrees(shift + scale * rng.normal(size=size))

    def test_entries_at_minus_inf(self, rng):
        a = rng.normal(size=50)
        a[::3] = -np.inf
        self._agrees(a)

    def test_all_minus_inf_is_minus_inf(self):
        for size in (1, 5):
            assert _logsumexp(np.full(size, -np.inf)) == -math.inf
            self._agrees(np.full(size, -np.inf))

    def test_plus_inf(self, rng):
        a = rng.normal(size=20)
        a[4] = np.inf
        assert _logsumexp(a) == math.inf
        self._agrees(a)
        a[7] = -np.inf
        self._agrees(a)

    @pytest.mark.parametrize("x", [-1e300, -745.5, -3.25, 0.0, 2.5, 1e300])
    def test_single_element(self, x):
        assert _logsumexp(np.array([x])) == x
        self._agrees(np.array([x]))
