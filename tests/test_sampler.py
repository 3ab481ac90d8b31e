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
