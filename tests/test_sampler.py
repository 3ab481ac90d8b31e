"""Sampler checks on known targets: Gaussian moments, detailed-balance via
Kolmogorov-Smirnov, energy conservation of the integrator, seed
determinism, divergence semantics, and the split-Rhat / ESS estimators."""

import math

import numpy as np
import pytest
from scipy import stats

from qvaft.errors import DiagnosticsError, DomainError
from qvaft.sampler import (
    GradientTarget,
    _Welford,
    SamplerConfig,
    ess,
    leapfrog_step,
    rhat,
    sample,
)


def std_normal_target(dim):
    return GradientTarget(dim, lambda z: (-0.5 * float(z @ z), -z))


def mcse(x, n_eff):
    return float(np.std(x, ddof=1)) / math.sqrt(n_eff)


class TestGaussianTargets:
    def test_standard_normal_dim5_moments(self):
        cfg = SamplerConfig(chains=4, warmup_iters=500, sampling_iters=1000,
                            seed=7)
        d = sample(std_normal_target(5), cfg)
        assert d.M == 4000
        for i in range(5):
            col = d.constrained[:, i]
            assert abs(col.mean()) < 4 * mcse(col, ess(d, i))
            assert abs(col.std(ddof=1) - 1.0) < 0.05
            assert rhat(d, i) < 1.01

    def test_correlated_gaussian(self):
        rho = 0.9
        prec = np.linalg.inv(np.array([[1.0, rho], [rho, 1.0]]))

        def lg(z):
            return -0.5 * float(z @ prec @ z), -(prec @ z)

        cfg = SamplerConfig(chains=4, warmup_iters=600, sampling_iters=1000,
                            seed=11)
        d = sample(GradientTarget(2, lg), cfg)
        for i in range(2):
            col = d.constrained[:, i]
            assert abs(col.mean()) < 4 * mcse(col, ess(d, i))
            assert abs(col.std(ddof=1) - 1.0) < 0.05
        got_rho = np.corrcoef(d.constrained.T)[0, 1]
        assert got_rho == pytest.approx(rho, abs=0.03)

    def test_seed_determinism(self):
        cfg = SamplerConfig(chains=2, warmup_iters=200, sampling_iters=300,
                            seed=42)
        a = sample(std_normal_target(3), cfg)
        b = sample(std_normal_target(3), cfg)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.energy, b.energy)

    def test_detailed_balance_smoke_ks(self):
        cfg = SamplerConfig(chains=2, warmup_iters=500, sampling_iters=5000,
                            seed=3)
        d = sample(std_normal_target(1), cfg)
        ks = stats.kstest(d.constrained[:, 0], "norm").statistic
        assert ks < 0.03

    def test_thinning(self):
        cfg = SamplerConfig(chains=2, warmup_iters=100, sampling_iters=400,
                            seed=1, thin=4)
        d = sample(std_normal_target(2), cfg)
        assert d.M == 200
        assert d.draws_per_chain == 100


class TestIntegrator:
    def test_energy_conservation_tiny_step(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=4)
        p = rng.normal(size=4)
        inv_mass = np.ones(4)

        def lg(v):
            return -0.5 * float(v @ v), -v

        logp, grad = lg(z)
        h0 = -logp + 0.5 * float(p @ p)
        z1, p1, logp1, _ = leapfrog_step(lg, z, p, grad, 1e-4, inv_mass)
        h1 = -logp1 + 0.5 * float(p1 @ p1)
        assert abs(h1 - h0) < 1e-6

    def test_reversibility(self):
        def lg(v):
            return -0.5 * float(v @ v), -v

        z = np.array([0.3, -1.2])
        p = np.array([0.5, 0.8])
        inv_mass = np.ones(2)
        logp, grad = lg(z)
        z1, p1, _, g1 = leapfrog_step(lg, z, p, grad, 0.1, inv_mass)
        z2, p2, _, _ = leapfrog_step(lg, z1, -p1, g1, 0.1, inv_mass)
        assert np.allclose(z2, z, atol=1e-12)
        assert np.allclose(-p2, p, atol=1e-12)


class TestRejectionAndDivergence:
    def test_barrier_never_crossed(self):
        """States with log-density -inf are never accepted."""

        def lg(z):
            if z[0] < 0.0:
                return -math.inf, np.zeros(1)
            return -0.5 * float(z @ z), -z

        cfg = SamplerConfig(chains=2, warmup_iters=300, sampling_iters=1000,
                            seed=5)
        d = sample(GradientTarget(1, lambda z: lg(z),
                                  initial_point=lambda r: np.abs(r.normal(size=1))),
                   cfg)
        assert np.all(d.constrained[:, 0] >= 0.0)
        # divergent iterations still record valid (finite-density) states
        assert np.all(np.isfinite(d.constrained))
        assert np.all(np.isfinite(d.energy))

    def test_all_divergent_raises_initialization_error(self):
        from qvaft.errors import NumericalError

        def lg(z):
            # finite only at the exact start point: every leapfrog diverges
            if z[0] == 0.0:
                return 0.0, np.zeros(1)
            return -math.inf, np.zeros(1)

        cfg = SamplerConfig(chains=1, warmup_iters=50, sampling_iters=10,
                            seed=0)
        with pytest.raises(NumericalError):
            sample(GradientTarget(1, lg,
                                  initial_point=lambda r: np.zeros(1)), cfg)


class TestDiagnostics:
    def test_rhat_identical_chains(self, rng):
        half = rng.standard_normal(1_000_000)
        chain = np.concatenate([half, half])
        r = rhat(np.vstack([chain, chain]))
        assert abs(r - 1.0) < 1e-6

    def test_rhat_separated_chains(self, rng):
        a = rng.standard_normal((1, 1000))
        b = rng.standard_normal((1, 1000)) + 5.0
        assert rhat(np.vstack([a, b])) > 1.2

    def test_rhat_needs_two_chains(self, rng):
        with pytest.raises(DiagnosticsError):
            rhat(rng.standard_normal((1, 100)))

    def test_ess_iid(self, rng):
        x = rng.standard_normal(4000)
        assert 3200 <= ess(x) <= 4800

    def test_ess_ar1(self, rng):
        phi, n = 0.9, 4000
        e = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = e[0]
        for i in range(1, n):
            x[i] = phi * x[i - 1] + e[i] * math.sqrt(1 - phi * phi)
        want = n * (1 - phi) / (1 + phi)
        assert abs(ess(x) - want) / want < 0.3

    def test_ess_constant_sequence(self):
        assert ess(np.ones(500)) == 0.0


class TestConfigValidation:
    def test_thin_must_divide(self):
        with pytest.raises(DomainError):
            SamplerConfig(sampling_iters=10, thin=3)

    def test_target_accept_range(self):
        with pytest.raises(DomainError):
            SamplerConfig(target_accept=1.5)


def counting_target(target):
    """`target` with a list that receives one entry per gradient call."""
    calls = []

    def lg(z):
        calls.append(1)
        return target.logp_and_grad(z)

    return GradientTarget(target.dim, lg, target.initial_point), calls


def gaussian_target(cov):
    prec = np.linalg.inv(cov)
    return GradientTarget(len(cov),
                          lambda z: (-0.5 * float(z @ prec @ z), -(prec @ z)))


class TestDenseMetric:
    def test_welford_covariance_is_regularised_np_cov(self, rng):
        x = rng.normal(size=(40, 3)) @ np.array([[2.0, 0.0, 0.0],
                                                 [1.5, 0.3, 0.0],
                                                 [-4.0, 1.0, 0.1]])
        acc = _Welford(3)
        for row in x:
            acc.push(row)
        n = len(x)
        want = (n / (n + 5.0)) * np.cov(x.T) + 1e-3 * (5.0 / (n + 5.0)) * np.eye(3)
        got = acc.covariance()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got, got.T)

    def test_identity_metric_equals_unit_diagonal(self):
        def lg(v):
            return -0.5 * float(v @ v), -v

        z = np.array([0.3, -1.2, 0.7])
        p = np.array([0.5, 0.8, -0.1])
        _, grad = lg(z)
        dense = leapfrog_step(lg, z, p, grad, 0.1, np.eye(3))
        diag = leapfrog_step(lg, z, p, grad, 0.1, np.ones(3))
        for a, b in zip(dense, diag):
            assert np.array_equal(a, b)

    def test_strong_correlation_is_cheap_after_warmup(self):
        """rho = 0.99: a diagonal metric needs about 14 gradient calls per
        iteration here; the adapted dense metric makes the target round."""
        rho = 0.99
        target = gaussian_target(np.array([[1.0, rho], [rho, 1.0]]))
        cfg = SamplerConfig(chains=4, warmup_iters=500, sampling_iters=1000,
                            seed=3)
        d = sample(target, cfg)
        # draws depend only on (seed, chain, iteration), so a run with one
        # sampling iteration is the same warmup plus its first iteration
        warm = sample(target, SamplerConfig(chains=4, warmup_iters=500,
                                            sampling_iters=1, seed=3))
        per_iter = (d.grad_calls - warm.grad_calls) / (cfg.sampling_iters - 1)
        assert np.all(per_iter <= 8.0)
        for i in range(2):
            col = d.constrained[:, i]
            assert abs(col.mean()) < 4 * mcse(col, ess(d, i))
            sq = col ** 2
            n_eff = ess(sq.reshape(d.n_chains, -1))
            assert abs(sq.mean() - 1.0) < 4 * mcse(sq, n_eff)

    def test_ill_conditioned_4d_sds(self):
        sd = np.array([0.05, 1.0, 3.0, 0.2])
        corr = np.array([[1.0, 0.9, 0.0, 0.0],
                         [0.9, 1.0, -0.3, 0.0],
                         [0.0, -0.3, 1.0, 0.6],
                         [0.0, 0.0, 0.6, 1.0]])
        cov = corr * np.outer(sd, sd)
        assert np.all(np.linalg.eigvalsh(cov) > 0)
        assert np.linalg.cond(cov) >= 1e3
        cfg = SamplerConfig(chains=4, warmup_iters=1000, sampling_iters=1000,
                            seed=13)
        d = sample(gaussian_target(cov), cfg)
        got = d.constrained.std(axis=0, ddof=1)
        np.testing.assert_allclose(got, sd, rtol=0.05)

    def test_grad_calls_match_a_counting_target(self):
        cfg = SamplerConfig(chains=2, warmup_iters=150, sampling_iters=100,
                            seed=4)
        target, calls = counting_target(std_normal_target(3))
        d = sample(target, cfg)
        assert int(d.grad_calls.sum()) == len(calls)
        # chain 0 alone draws exactly what it drew beside chain 1
        target1, calls1 = counting_target(std_normal_target(3))
        sample(target1, SamplerConfig(chains=1, warmup_iters=150,
                                      sampling_iters=100, seed=4))
        assert list(d.grad_calls) == [len(calls1), len(calls) - len(calls1)]

    def test_failed_cholesky_names_chain_and_iteration(self, monkeypatch):
        from qvaft.errors import NumericalError

        monkeypatch.setattr(_Welford, "covariance",
                            lambda self: -np.eye(len(self.mean)))
        cfg = SamplerConfig(chains=1, warmup_iters=50, sampling_iters=10,
                            seed=0)
        with pytest.raises(NumericalError, match=r"chain 0.*iteration 45") as err:
            sample(std_normal_target(2), cfg)
        assert err.value.context == {"chain": 0, "iteration": 45}


def barrier_target():
    """A half-normal: proposals below 0 have log-density -inf and diverge."""

    def lg(z):
        if z[0] < 0.0:
            return -math.inf, np.zeros(1)
        return -0.5 * float(z @ z), -z

    return GradientTarget(1, lg,
                          initial_point=lambda r: np.abs(r.normal(size=1)))


def same_draws(a, b):
    return (np.array_equal(a.z, b.z) and np.array_equal(a.energy, b.energy)
            and np.array_equal(a.divergent, b.divergent)
            and np.array_equal(a.step_size, b.step_size))


class TestWorkers:
    class StubPool:
        """Records its worker count and runs the chains in this process."""

        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    @pytest.fixture
    def pool(self, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(self.StubPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            self.StubPool)
        return self.StubPool

    def test_no_more_workers_than_chains(self, pool):
        cfg = SamplerConfig(chains=2, warmup_iters=20, sampling_iters=20,
                            seed=3, threads=16)
        d = sample(std_normal_target(2), cfg)
        assert pool.sizes == [2]
        ref = sample(std_normal_target(2),
                     SamplerConfig(chains=2, warmup_iters=20,
                                   sampling_iters=20, seed=3))
        assert same_draws(d, ref)

    def test_one_chain_runs_in_process(self, pool):
        cfg = SamplerConfig(chains=1, warmup_iters=20, sampling_iters=20,
                            seed=3, threads=4)
        sample(std_normal_target(2), cfg)
        assert pool.sizes == []


class TestChainCounters:
    def test_warmup_divergences_and_wall_times(self, monkeypatch):
        import qvaft.sampler as smp

        flags = []
        transition = smp._nuts_transition

        def recorded(*args):
            out = transition(*args)
            flags.append(bool(out[4]))
            return out

        monkeypatch.setattr(smp, "_nuts_transition", recorded)
        cfg = SamplerConfig(chains=1, warmup_iters=200, sampling_iters=50,
                            seed=5)
        d = sample(barrier_target(), cfg)
        assert d.warmup_divergences.tolist() == [sum(flags[:200])]
        assert sum(flags[:200]) > 0
        for seconds in (d.warmup_seconds, d.sampling_seconds):
            assert seconds.shape == (1,) and np.all(seconds > 0)
        thinned = d.thin_by(5)
        assert thinned.warmup_divergences is d.warmup_divergences
        assert thinned.sampling_seconds is d.sampling_seconds

    def test_clock_does_not_move_the_draws(self, monkeypatch):
        import qvaft.sampler as smp

        cfg = SamplerConfig(chains=2, warmup_iters=100, sampling_iters=50,
                            seed=8)
        ref = sample(barrier_target(), cfg)
        ticks = iter(range(1000))
        monkeypatch.setattr(smp, "perf_counter",
                            lambda: float(next(ticks)) ** 2)
        d = sample(barrier_target(), cfg)
        assert same_draws(d, ref)
        # per chain: start, end of warmup, end of sampling
        assert d.warmup_seconds.tolist() == [1.0, 16.0 - 9.0]
        assert d.sampling_seconds.tolist() == [4.0 - 1.0, 25.0 - 16.0]
        assert d.warmup_divergences.tolist() == ref.warmup_divergences.tolist()
