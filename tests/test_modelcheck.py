"""PSIS-LOO against a conjugate closed-form oracle and against the
per-subject smoothing it replaced, and smoothing invariants."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from conftest import loglik_at, make_dataset, make_model, random_dataset
from qvaft.errors import DomainError, NumericalError
from qvaft.likelihood import ParameterVector
from qvaft.modelcheck import (
    PointwiseLogLik,
    pointwise_loglik,
    psis_loo,
    read_loo_report,
    write_loo_pointwise,
    write_loo_report,
)
from qvaft.modelcheck import KHAT_WARN, _logsumexp, _smooth
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
        for i in range(data.n):
            assert ll.values[0, i] == pytest.approx(
                loglik_at(model, psi, data.subset([i]))[0], abs=1e-12)

    def test_row_sums_equal_total(self, rng):
        model = make_model()
        data = random_dataset(rng, 12, 2)
        psis = [ParameterVector(rng.normal(size=2, scale=0.3), np.array([]),
                                0.2, 1.1) for _ in range(4)]
        ll = pointwise_loglik(model, _draws_for(model, psis), data)
        for m, psi in enumerate(psis):
            assert ll.values[m].sum() == pytest.approx(
                loglik_at(model, psi, data).sum(), abs=1e-10)

    def test_permuting_subjects_permutes_columns(self, rng):
        model = make_model()
        data = random_dataset(rng, 10, 2)
        psi = ParameterVector(np.array([0.1, 0.1]), np.array([]), 0.0, 1.0)
        draws = _draws_for(model, [psi])
        base = pointwise_loglik(model, draws, data).values
        perm = rng.permutation(10)
        permuted = pointwise_loglik(model, draws, data.subset(perm)).values
        np.testing.assert_allclose(permuted[0], base[0][perm], atol=1e-12)


    def test_nan_names_draw_and_subject(self):
        """Subject 1's interval lies so far out that at draw 2 (mu = 0,
        sigma = 2) both survivors underflow and their difference is NaN;
        at the other draws the interval has a finite likelihood."""
        model = make_model(covariates=("x1",))
        data = make_dataset([(1.0, 1.0, 1, 0.0, (0.0,)),
                             (1e200, 1e201, 0, 0.0, (1.0,))])
        psis = [ParameterVector(np.array([0.1]), np.array([]), mu, sigma)
                for mu, sigma in ((500.0, 1.0), (480.0, 1.1), (0.0, 2.0),
                                  (500.0, 1.0))]
        draws = _draws_for(model, psis)
        with pytest.raises(NumericalError, match="draw 2, subject 1") as err:
            pointwise_loglik(model, draws, data)
        assert err.value.context == {"draw": 2, "subject": 1}
        ok = pointwise_loglik(model, _draws_for(model, psis[:2]), data)
        assert np.isfinite(ok.values).all()


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

    def test_summary_is_read_off_the_pointwise_values(self, rng):
        """elpd, its se and -2 elpd have one rule, which an elpd_i replaced
        by an exact refit also goes through; one subject has se 0."""
        res = psis_loo(PointwiseLogLik(rng.normal(-1.0, 0.3, size=(200, 1))))
        assert res.n == 1 and res.elpd_se == 0.0
        res.pointwise[0] = -3.5
        assert (res.elpd, res.elpd_se, res.minus2elpd) == (-3.5, 0.0, 7.0)
        res = psis_loo(PointwiseLogLik(rng.normal(-1.0, 0.3, size=(200, 4))))
        res.pointwise[2] = -9.0
        assert res.elpd == float(res.pointwise.sum())
        assert res.elpd_se == math.sqrt(4 * np.var(res.pointwise, ddof=1))

    def test_elpd_below_in_sample_lpd(self, rng):
        ll = rng.normal(-2.0, 1.0, size=(400, 15))
        res = psis_loo(PointwiseLogLik(ll))
        lpd = float((logsumexp(ll, axis=0) - math.log(ll.shape[0])).sum())
        assert res.elpd < lpd

    def test_smoothing_touches_only_the_tail(self, rng):
        lr = rng.normal(size=500)
        smoothed = lr[None].copy()
        (khat,), (degenerate,) = _smooth(smoothed)
        smoothed = smoothed[0]
        assert not degenerate
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


# -- the per-subject smoothing of earlier releases, the oracle of the array
# version: one subject at a time, a full sort of its log ratios, and the
# generalized Pareto fit on one tail

def _oracle_gpd_fit(x):
    y = np.sort(x)
    n = len(y)
    m = 30 + int(math.sqrt(n))
    b = 1.0 - np.sqrt(m / (np.arange(m, dtype=float) + 0.5))
    b = b / (3.0 * y[(n - 2) // 4]) + 1.0 / y[-1]
    k = np.log1p(-b[:, None] * y).mean(axis=1)
    profile = n * (np.log(-(b / k)) - k - 1.0)
    weights = 1.0 / np.exp(profile - profile[:, None]).sum(axis=1)
    b_post = float(np.sum(b * weights) / weights.sum())
    k_post = float(np.log1p(-b_post * y).mean())
    sigma = -k_post / b_post
    khat = (n * k_post + 10 * 0.5) / (n + 10)
    return khat, sigma


def _oracle_gpd_quantile(q, k, sigma):
    if abs(k) < 1e-12:
        return -sigma * np.log1p(-q)
    return sigma / k * ((1.0 - q) ** (-k) - 1.0)


def _oracle_smooth_tail(log_ratios, notes, subject):
    M = len(log_ratios)
    tail_len = int(math.ceil(min(0.2 * M, 3.0 * math.sqrt(M))))
    order = np.argsort(log_ratios)
    tail_idx = order[-tail_len:]
    cutoff = math.exp(log_ratios[order[-tail_len - 1]])
    raw_tail = np.exp(log_ratios[tail_idx])
    exceed = raw_tail - cutoff
    if (np.ptp(exceed) <= 0.0 or np.all(exceed <= 0.0)
            or np.sort(exceed)[(tail_len - 2) // 4] <= 0.0):
        notes.append(f"subject {subject}: degenerate tail ratios, "
                     "smoothing skipped")
        return log_ratios, math.nan
    khat, sigma = _oracle_gpd_fit(exceed)
    ranks = np.argsort(np.argsort(raw_tail))
    q = (ranks + 0.5) / tail_len
    smoothed = cutoff + _oracle_gpd_quantile(q, khat, sigma)
    smoothed = np.minimum(smoothed, raw_tail.max())
    out = log_ratios.copy()
    out[tail_idx] = np.log(smoothed)
    return out, khat


def oracle_psis_loo(values):
    """(pointwise elpd, khat, warnings) subject by subject."""
    M, n = values.shape
    pointwise, khat, notes = np.empty(n), np.empty(n), []
    for i in range(n):
        lli = values[:, i]
        lr = -lli
        lr = lr - lr.max()
        lw, khat[i] = _oracle_smooth_tail(lr, notes, i)
        pointwise[i] = _logsumexp(lw + lli) - _logsumexp(lw)
    high = np.where(khat > KHAT_WARN)[0]
    if high.size:
        notes.append(f"{high.size} subject(s) with khat > {KHAT_WARN}: "
                     + ",".join(map(str, high.tolist())))
    return pointwise, khat, notes


def _ties(rng, M):
    """Log-likelihoods on a grid of step 1/32: ties inside every column's
    tail, though not so many that a quarter of it ties with the cutoff."""
    return np.round(rng.normal(-2.0, 0.6, size=(M, 12)) * 32.0) / 32.0


def _constant(rng, M):
    return np.tile(rng.normal(-1.5, 0.5, size=7), (M, 1))


def _mixed(rng, M):
    """Constant columns, columns whose tail is one repeated value, and
    ordinary columns side by side."""
    ll = rng.normal(-2.0, 0.5, size=(M, 9))
    ll[:, [1, 4]] = -1.25
    ll[:, 7] = np.where(np.arange(M) % 2, -3.0, -1.0)  # two values only
    return ll


def _heavy(rng, M):
    """Importance ratios with Pareto tails of shape up to 1.4, so that
    most subjects have khat above 0.7."""
    shape = np.linspace(0.3, 1.4, 10)
    return -np.log(rng.pareto(1.0 / shape, size=(M, 10)) + 1.0) - 0.5


class TestArrayPsisMatchesOracle:
    """`psis_loo` over all subjects at once against the per-subject loop:
    pointwise elpd within 1e-12 relative, khat within 1e-12 (NaN where the
    tail is degenerate), and the same warnings in the same order."""

    @pytest.mark.parametrize("M", [100, 1000])
    @pytest.mark.parametrize("make", [_ties, _constant, _mixed, _heavy,
                                      lambda rng, M: conjugate_setup(
                                          rng, n=15, M=M)[0]])
    def test_matches(self, rng, make, M):
        values = make(rng, M)
        res = psis_loo(PointwiseLogLik(values))
        pointwise, khat, notes = oracle_psis_loo(values)
        np.testing.assert_allclose(res.pointwise, pointwise, rtol=1e-12,
                                   atol=0.0)
        np.testing.assert_allclose(res.khat, khat, rtol=0.0, atol=1e-12)
        assert res.warnings == notes
        assert res.elpd == pytest.approx(pointwise.sum(), rel=1e-12)

    def test_cases_cover_every_branch(self, rng):
        for make, want in ((_constant, "degenerate"), (_mixed, "degenerate"),
                           (_heavy, "khat >")):
            notes = psis_loo(PointwiseLogLik(make(rng, 1000))).warnings
            assert any(want in w for w in notes)
        for M in (100, 1000):
            T = int(math.ceil(min(0.2 * M, 3.0 * math.sqrt(M))))
            tails = np.sort(-_ties(rng, M), axis=0)[-T - 1:]
            assert (np.diff(tails, axis=0) == 0).any(axis=0).all()
        res = psis_loo(PointwiseLogLik(_mixed(rng, 1000)))
        assert np.isnan(res.khat).sum() == 3 and np.isfinite(res.khat).sum() == 6
        assert np.sum(psis_loo(PointwiseLogLik(_heavy(rng, 1000))).khat
                      > KHAT_WARN) >= 3

    def test_zero_quartile_exceedance_is_degenerate(self):
        """On a grid of step 1/8 a quarter or more of most tails ties with
        the cutoff, so the first-quartile exceedance that the GPD fit
        divides by is 0: those subjects keep their raw ratios, with khat
        NaN and a warning naming each, and elpd is finite."""
        values = np.round(np.random.default_rng(0).normal(size=(1000, 12))
                          * 2.0) / 8.0
        res = psis_loo(PointwiseLogLik(values))
        assert math.isfinite(res.elpd)
        nan = [1, 2, 3, 4, 6, 8, 9, 10, 11]
        np.testing.assert_array_equal(np.flatnonzero(np.isnan(res.khat)), nan)
        assert res.warnings == [f"subject {i}: degenerate tail ratios, "
                                "smoothing skipped" for i in nan]
        pointwise, khat, notes = oracle_psis_loo(values)
        np.testing.assert_allclose(res.pointwise, pointwise, rtol=1e-12,
                                   atol=0.0)
        np.testing.assert_allclose(res.khat, khat, rtol=0.0, atol=1e-12)
        assert res.warnings == notes

    def test_blocks_of_subjects_do_not_move_the_result(self, rng,
                                                       monkeypatch):
        """Each subject is smoothed alone, so elpd_i, khat and the
        warnings are byte-equal at `modelcheck.BLOCK`, at the 32768 it
        was before the allocator policy (8 of these 31 subjects per
        block), at one subject per block and at all in one."""
        from qvaft import modelcheck

        values = np.hstack([make(rng, 1000) for make in (_mixed, _heavy,
                                                         _ties)])
        want = psis_loo(PointwiseLogLik(values))
        for block in (32768, 1, 10 ** 9):
            monkeypatch.setattr(modelcheck, "BLOCK", block)
            got = psis_loo(PointwiseLogLik(values))
            assert got.pointwise.tobytes() == want.pointwise.tobytes()
            np.testing.assert_array_equal(got.khat, want.khat)
            assert got.warnings == want.warnings


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
