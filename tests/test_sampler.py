"""Sampler checks on known targets: Gaussian moments, detailed-balance via
Kolmogorov-Smirnov, energy conservation of the integrator, seed
determinism, divergence semantics, and the split-Rhat / ESS estimators."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from qvaft.errors import DiagnosticsError, DomainError
from qvaft.sampler import (
    GradientTarget,
    PosteriorDraws,
    _Welford,
    SamplerConfig,
    draws_from_npz,
    draws_to_npz,
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
        inv_mass = np.eye(4)

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
        inv_mass = np.eye(2)
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
    def test_thin_below_one(self):
        with pytest.raises(DomainError, match="thin must be >= 1"):
            SamplerConfig(thin=0)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one(self, threads):
        with pytest.raises(DomainError, match="threads must be >= 1"):
            SamplerConfig(threads=threads)

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

    def test_divergent_warmup_fails_before_sampling(self):
        """Finite only at the start point: every transition diverges at its
        first leapfrog step (one gradient call), and the chain fails as
        warmup ends, before any of its 1000 sampling iterations."""
        from qvaft.errors import NumericalError

        def lg(z):
            return (0.0 if z[0] == 0.0 else -math.inf), np.zeros(1)

        target, calls = counting_target(
            GradientTarget(1, lg, initial_point=lambda r: np.zeros(1)))
        cfg = SamplerConfig(chains=1, warmup_iters=10, sampling_iters=1000,
                            seed=0)
        with pytest.raises(NumericalError,
                           match="every warmup iteration diverged"):
            sample(target, cfg)
        # one start, at most 60 step sizes between 1e-10 and 1e7 by factors
        # of 2, and one call per warmup iteration
        assert len(calls) <= 1 + 60 + cfg.warmup_iters


class TestEBFMI:
    """Per-chain E-BFMI (Betancourt 2016), sum (E_n - E_{n-1})^2 over
    sum (E_n - mean E)^2, of each chain's sampling energies before
    thinning."""

    def test_formula_on_a_synthetic_series(self):
        from qvaft.sampler import ebfmi

        e = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        diffs = sum((e[i] - e[i - 1]) ** 2 for i in range(1, e.size))
        devs = sum((x - e.mean()) ** 2 for x in e)
        assert ebfmi(e) == pytest.approx(diffs / devs, rel=1e-15)
        # a random walk has E-BFMI near 0, independent energies near 2
        rng = np.random.default_rng(4)
        assert ebfmi(np.cumsum(rng.normal(size=4000))) < 0.01
        assert ebfmi(rng.normal(size=4000)) == pytest.approx(2.0, abs=0.1)
        for short in (np.array([1.5]), np.full(5, 2.0)):
            assert math.isnan(ebfmi(short))

    def test_matches_the_energies_of_a_thin_one_fit(self):
        from qvaft.sampler import ebfmi

        cfg = SamplerConfig(chains=2, warmup_iters=100, sampling_iters=80,
                            seed=6)
        d = sample(std_normal_target(3), cfg)
        assert d.ebfmi.shape == (2,)
        for c in range(2):
            assert d.ebfmi[c] == ebfmi(d.energy[d.chain_id == c])
        assert np.all((d.ebfmi > 0.3) & (d.ebfmi < 3.0))
        thinned = sample(std_normal_target(3),
                         dataclasses.replace(cfg, thin=4))
        assert np.array_equal(thinned.ebfmi, d.ebfmi)
        assert np.array_equal(thinned.energy, d.energy[d.iteration % 4 == 1])


def std_normal_lg(z):
    """A module-level target, so that worker processes can unpickle it."""
    return -0.5 * float(z @ z), -z


class TestDrawsRecord:
    """One record type for one chain and for many: the merge of three
    chains, its .npz round trip and its thinning."""

    CFG = SamplerConfig(chains=3, warmup_iters=30, sampling_iters=40, seed=4)

    @pytest.fixture(scope="class")
    def draws(self):
        return sample(GradientTarget(2, std_normal_lg), self.CFG)

    def test_chains_merge_in_order(self, draws):
        assert draws.n_chains == 3 and draws.M == 120
        np.testing.assert_array_equal(draws.chain_id, np.repeat([0, 1, 2], 40))
        np.testing.assert_array_equal(draws.iteration,
                                      np.tile(np.arange(1, 41), 3))
        for f in PosteriorDraws.PER_CHAIN:
            assert getattr(draws, f).shape == (3,)

    def test_npz_round_trip(self, draws, tmp_path):
        path = tmp_path / "draws.npz"
        draws_to_npz(draws, path)
        back = draws_from_npz(path, None)
        for f in PosteriorDraws.PER_DRAW:
            want = getattr(draws, f)
            np.testing.assert_array_equal(getattr(back, f), want)
            assert getattr(back, f).dtype == want.dtype
        assert back.param_names == draws.param_names == ("z_0", "z_1")
        assert back.n_chains == draws.n_chains
        # the per-chain counters are written to summary.json, not the file
        for f in PosteriorDraws.PER_CHAIN:
            assert getattr(back, f) is None

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_thin_by_keeps_every_kth_draw_of_each_chain(self, draws, k):
        thinned = draws.thin_by(k)
        rows = np.concatenate([c * 40 + np.arange(0, 40, k) for c in range(3)])
        for f in PosteriorDraws.PER_DRAW:
            np.testing.assert_array_equal(getattr(thinned, f),
                                          getattr(draws, f)[rows])
        np.testing.assert_array_equal(
            thinned.iteration, np.tile(np.arange(1, 41, k), 3))
        assert thinned.n_chains == 3
        assert thinned.draws_per_chain == len(range(0, 40, k))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
    def test_fit_thinning_is_thin_by(self, draws, k):
        """A fit at thin = k keeps the draws that thin_by(k) keeps of the
        same fit at thin = 1: iterations 1, k + 1, ... of each chain."""
        thinned = sample(GradientTarget(2, std_normal_lg),
                         dataclasses.replace(self.CFG, thin=k))
        want = draws.thin_by(k)
        for f in PosteriorDraws.PER_DRAW:
            np.testing.assert_array_equal(getattr(thinned, f),
                                          getattr(want, f), err_msg=f)
        np.testing.assert_array_equal(thinned.grad_calls, draws.grad_calls)
        assert thinned.n_chains == want.n_chains

    @pytest.mark.parametrize("k", [0, -1])
    def test_thin_by_rejects_factor_below_one(self, draws, k):
        with pytest.raises(DomainError, match="thinning factor"):
            draws.thin_by(k)

    def test_worker_merge_equals_in_process_merge(self, draws):
        pooled = sample(GradientTarget(2, std_normal_lg),
                        dataclasses.replace(self.CFG, threads=2))
        for f in PosteriorDraws.PER_DRAW + ("grad_calls",
                                            "warmup_divergences", "ebfmi"):
            np.testing.assert_array_equal(getattr(pooled, f),
                                          getattr(draws, f))
        assert pooled.param_names == draws.param_names
        assert pooled.n_chains == draws.n_chains
