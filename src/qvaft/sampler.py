"""Gradient-based MCMC over the unconstrained posterior.

The transition is multinomial NUTS (Betancourt 2017, arXiv:1701.02434):
the leapfrog trajectory is doubled, each time on a random side, until the
no-U-turn criterion fires (or a depth cap is hit), and the next state is
drawn multinomially across the whole trajectory with weights exp(-H).
There is one segment type, `_Tree` (two end states, a proposal, a summed
weight), and one rule, `_extend`, that joins a subtree to a segment, in
the recursive build and at the top level alike; the top level only joins
a subtree that neither diverged nor turned. A segment whose Hamiltonian
error exceeds 1000 is flagged divergent and stops the doubling; states
with log-posterior -inf get zero selection weight, so they are never
accepted.

Warmup interleaves dual-averaging step-size adaptation (toward
`target_accept`) with windowed estimation of a dense inverse metric
(inverse mass matrix) M^-1: a 75-iteration step-size-only buffer,
expanding covariance windows starting at 25 iterations, and a 50-iteration
terminal buffer, scaled proportionally when the warmup budget is small.
Each window's M^-1 is Stan's regularised covariance estimate of its draws.
Positions move along M^-1 p, and momenta are drawn as p = L^-T xi for
M^-1 = L L^T, so that p ~ N(0, M).

Every iteration draws its randomness from a counter-based Philox stream
keyed by (seed, chain, iteration), so runs are bit-reproducible and chains
are independent; chains can run in worker processes when `threads` > 1.

Chains return a `PosteriorDraws`; `qvaft.draws` defines it and writes and
reads its files, and this module re-exports both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter

import numpy as np

from .draws import PosteriorDraws, draws_from_npz, draws_to_csv, draws_to_npz
from .errors import DiagnosticsError, DomainError, NumericalError
from .likelihood import PriorSpec, constrain, constrained_array, make_posterior
from .model import ModelSpec

__all__ = [
    "SamplerConfig",
    "PosteriorDraws",
    "GradientTarget",
    "run_chains",
    "sample",
    "rhat",
    "ess",
    "leapfrog_step",
    "draws_to_csv",
    "draws_to_npz",
    "draws_from_npz",
]

DIVERGENCE_THRESHOLD = 1000.0


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 3
    warmup_iters: int = 2000
    sampling_iters: int = 10000
    seed: int = 0
    target_accept: float = 0.8
    max_tree_depth: int = 10
    thin: int = 1
    threads: int = 1

    def __post_init__(self):
        if self.chains < 1 or self.warmup_iters < 0 or self.sampling_iters < 1:
            raise DomainError("chains/warmup/sampling sizes must be positive")
        if not 0.0 < self.target_accept < 1.0:
            raise DomainError("target_accept must lie in (0, 1)")
        if self.max_tree_depth < 1:
            raise DomainError("max_tree_depth must be >= 1")
        if self.thin < 1:
            raise DomainError(f"thin must be >= 1, got {self.thin}")
        if self.threads < 1:
            raise DomainError(f"threads must be >= 1, got {self.threads}")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")


@dataclass
class GradientTarget:
    """A log-density with gradient; the minimal interface the sampler needs."""

    dim: int
    logp_and_grad: object
    initial_point: object = None        # fn(rng) -> z; default Uniform(-2, 2)
    param_names: tuple = ()             # names of the reported (constrained) view
    constrain_fn: object = None         # z -> constrained array; default identity


# -- hamiltonian pieces -------------------------------------------------------

def _iteration_rng(seed: int, chain: int, iteration: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chain, iteration))
    return np.random.Generator(np.random.Philox(ss))


def leapfrog_step(logp_and_grad, z, p, grad, eps, inv_mass):
    """One leapfrog step under the (d, d) inverse metric M^-1; returns
    (z', p', logp', grad')."""
    p_half = p + 0.5 * eps * grad
    z_new = z + eps * (inv_mass @ p_half)
    logp_new, grad_new = logp_and_grad(z_new)
    p_new = p_half + 0.5 * eps * grad_new
    return z_new, p_new, logp_new, grad_new


def _kinetic(p, inv_mass):
    return 0.5 * float(p @ (inv_mass @ p))


def _momentum_factor(inv_mass, chain: int, iteration: int) -> np.ndarray:
    """L^-T for the Cholesky factor L of M^-1 = L L^T; momenta L^-T xi with
    xi ~ N(0, I) then have covariance M."""
    try:
        chol = np.linalg.cholesky(inv_mass)
        if np.all(np.isfinite(chol)):
            return np.linalg.inv(chol).T
    except np.linalg.LinAlgError:
        pass
    raise NumericalError(
        f"chain {chain}: the inverse metric adapted at warmup iteration "
        f"{iteration} has no Cholesky factor", chain=chain, iteration=iteration)


class _Tree:
    """A trajectory segment: end states (z, p, grad) by side (0 left, 1 right),
    proposal (z, logp, grad, H), log summed weight exp(H0 - H), summed
    acceptance statistics and their count, and whether it diverged or turned."""

    __slots__ = ("ends", "prop", "log_w", "sum_alpha", "n_alpha",
                 "divergent", "turning")

    def __init__(self, z, p, grad, logp, h, log_w, sum_alpha, n_alpha,
                 divergent=False):
        self.ends = [(z, p, grad)] * 2
        self.prop = (z, logp, grad, h)
        self.log_w, self.sum_alpha, self.n_alpha = log_w, sum_alpha, n_alpha
        self.divergent, self.turning = divergent, False


def _extend(rng, tree: _Tree, sub: _Tree, side: int, inv_mass) -> None:
    """Join `sub`, built outward from `tree`'s end on `side`, to `tree`: take
    that end, draw the proposal multinomially (a number whenever `sub` has
    finite weight), pool weights and statistics, and test for a U-turn."""
    tree.ends[side] = sub.ends[side]
    total = np.logaddexp(tree.log_w, sub.log_w)
    if sub.log_w > -np.inf and math.log(rng.random() + 1e-300) < sub.log_w - total:
        tree.prop = sub.prop
    tree.log_w = total
    tree.sum_alpha += sub.sum_alpha
    tree.n_alpha += sub.n_alpha
    tree.divergent, tree.turning = sub.divergent, sub.turning
    if not (tree.divergent or tree.turning):
        (z_left, p_left, _), (z_right, p_right, _) = tree.ends
        # (dz' M^-1) p at both ends; M^-1 is symmetric, so one product serves both
        dz = inv_mass @ (z_right - z_left)
        tree.turning = dz @ p_left < 0 or dz @ p_right < 0


def _build_tree(rng, logp_and_grad, z, p, grad, side, depth, eps,
                inv_mass, h0) -> _Tree:
    """2^depth leapfrog steps outward from (z, p, grad) on `side`; the
    doubling stops early at a divergent or turning half."""
    if depth == 0:
        z1, p1, logp1, grad1 = leapfrog_step(logp_and_grad, z, p, grad,
                                             eps if side else -eps, inv_mass)
        h1 = -logp1 + _kinetic(p1, inv_mass)
        delta = h1 - h0
        divergent = (not math.isfinite(h1)) or delta > DIVERGENCE_THRESHOLD
        return _Tree(z1, p1, grad1, logp1, h1, -np.inf if divergent else -delta,
                     min(1.0, math.exp(min(0.0, -delta)))
                     if math.isfinite(delta) else 0.0, 1, divergent)
    tree = _build_tree(rng, logp_and_grad, z, p, grad, side, depth - 1, eps,
                       inv_mass, h0)
    if not (tree.divergent or tree.turning):
        sub = _build_tree(rng, logp_and_grad, *tree.ends[side], side,
                          depth - 1, eps, inv_mass, h0)
        _extend(rng, tree, sub, side, inv_mass)
    return tree


def _nuts_transition(rng, logp_and_grad, z, logp, grad, eps, inv_mass,
                     momentum, max_depth):
    p0 = momentum @ rng.standard_normal(len(z))
    h0 = -logp + _kinetic(p0, inv_mass)
    t = _Tree(z, p0, grad, logp, h0, 0.0, 0.0, 0)
    for depth in range(max_depth):
        side = 1 if rng.random() < 0.5 else 0
        sub = _build_tree(rng, logp_and_grad, *t.ends[side], side, depth,
                          eps, inv_mass, h0)
        if sub.divergent or sub.turning:
            # not joined: only its acceptance statistics count
            t.sum_alpha += sub.sum_alpha
            t.n_alpha += sub.n_alpha
            t.divergent = sub.divergent
            break
        _extend(rng, t, sub, side, inv_mass)
        if t.turning:
            break
    return (*t.prop, t.divergent, t.sum_alpha / max(t.n_alpha, 1))


def _find_epsilon(rng, logp_and_grad, z, logp, grad, inv_mass,
                  momentum) -> float:
    """Double or halve the step size from 1, whichever way the first step's
    energy error points, until the acceptance ratio crosses 1/2."""
    eps, direction = 1.0, 0.0
    p = momentum @ rng.standard_normal(len(z))
    h0 = -logp + _kinetic(p, inv_mass)
    while True:
        _, p1, logp1, _ = leapfrog_step(logp_and_grad, z, p, grad, eps, inv_mass)
        h1 = -logp1 + _kinetic(p1, inv_mass) if math.isfinite(logp1) else math.inf
        ratio = h0 - h1
        if not direction:
            direction = 1.0 if ratio > math.log(0.5) else -1.0
        elif direction * ratio <= direction * math.log(0.5):
            break
        eps *= 2.0 ** direction
        if eps < 1e-10 or eps > 1e7:
            break
    return min(max(eps, 1e-10), 1e7)


# -- adaptation ---------------------------------------------------------------

class _DualAveraging:
    gamma = 0.05
    t0 = 10.0
    kappa = 0.75

    def __init__(self, eps0: float, delta: float):
        self.restart(eps0)
        self.delta = delta

    def restart(self, eps0: float):
        self.mu = math.log(10.0 * eps0)
        self.log_eps = math.log(eps0)
        self.log_eps_bar = math.log(eps0)
        self.h_bar = 0.0
        self.count = 0

    def update(self, accept_stat: float) -> float:
        self.count += 1
        m = self.count
        eta = 1.0 / (m + self.t0)
        self.h_bar = (1 - eta) * self.h_bar + eta * (self.delta - accept_stat)
        self.log_eps = self.mu - math.sqrt(m) / self.gamma * self.h_bar
        w = m ** (-self.kappa)
        self.log_eps_bar = (1 - w) * self.log_eps_bar + w * self.log_eps
        return math.exp(self.log_eps)

    @property
    def adapted(self) -> float:
        return math.exp(self.log_eps_bar)


def _mass_update_points(warmup: int) -> list:
    """Warmup iterations (1-based) after which the metric is refreshed."""
    if warmup < 20:
        return []
    init_buffer, term_buffer, base = 75, 50, 25
    if warmup < init_buffer + term_buffer + base:
        term_buffer = max(1, int(0.10 * warmup))
        return [warmup - term_buffer]
    points = []
    pos = init_buffer
    size = base
    while True:
        end = pos + size
        if end + 2 * size > warmup - term_buffer:
            end = warmup - term_buffer
            points.append(end)
            break
        points.append(end)
        pos = end
        size *= 2
    return points


class _Welford:
    """Running mean and covariance of one adaptation window's draws."""

    def __init__(self, dim):
        self.n = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))

    def push(self, x):
        self.n += 1
        d = x - self.mean
        self.mean += d / self.n
        self.m2 += np.outer(x - self.mean, d)

    def covariance(self):
        """Stan's regularised estimate (n/(n+5)) S + 1e-3 (5/(n+5)) I of the
        sample covariance S, symmetrised; it shrinks toward unit scale as a
        guard for short windows."""
        dim = len(self.mean)
        if self.n < 2:
            return np.eye(dim)
        n = self.n
        cov = ((n / (n + 5.0)) * (self.m2 / (n - 1))
               + 1e-3 * (5.0 / (n + 5.0)) * np.eye(dim))
        return 0.5 * (cov + cov.T)


# -- chain driver -------------------------------------------------------------

def _default_init(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.uniform(-2.0, 2.0, size=dim)


def ebfmi(energy: np.ndarray) -> float:
    """E-BFMI of one chain's energies in iteration order (Betancourt 2016,
    arXiv:1604.00695): sum (E_n - E_{n-1})^2 / sum (E_n - mean E)^2; NaN
    where the energies are constant, as one energy is."""
    dev, step = energy - energy.mean(), np.diff(energy)
    denom = dev @ dev
    return float(step @ step / denom) if denom else math.nan


def _run_chain(target: GradientTarget, cfg: SamplerConfig,
               chain: int) -> PosteriorDraws:
    """One chain's record: its draws, thinned by `thin_by`, with their
    reported view, and its counters: gradient calls, warmup divergences,
    the E-BFMI of its sampling energies before thinning (`ebfmi`), and the
    wall seconds of warmup (from the first initialisation attempt) and of
    sampling. The clock draws no random numbers, so it cannot move the
    draws."""
    start = perf_counter()
    dim = target.dim
    grad_calls = 0

    def lg(z):
        nonlocal grad_calls
        grad_calls += 1
        return target.logp_and_grad(z)

    rng0 = _iteration_rng(cfg.seed, chain, 0)
    init = target.initial_point or (lambda r: _default_init(r, dim))
    z = logp = grad = None
    for _ in range(100):
        z = np.asarray(init(rng0), dtype=float)
        logp, grad = lg(z)
        if math.isfinite(logp):
            break
    else:
        raise NumericalError(
            f"chain {chain}: no finite log-posterior found in 100 "
            "initialization attempts")

    inv_mass = momentum = np.eye(dim)
    eps = _find_epsilon(rng0, lg, z, logp, grad, inv_mass, momentum)
    da = _DualAveraging(eps, cfg.target_accept)
    mass_points = set(_mass_update_points(cfg.warmup_iters))
    welford = _Welford(dim)

    zs = np.empty((cfg.sampling_iters, dim))
    divs = np.zeros(cfg.sampling_iters, dtype=bool)
    energies = np.empty(cfg.sampling_iters)
    warmup_divergences = 0

    total = cfg.warmup_iters + cfg.sampling_iters
    for it in range(1, total + 1):
        rng = _iteration_rng(cfg.seed, chain, it)
        warming = it <= cfg.warmup_iters
        if it == cfg.warmup_iters + 1:  # sampling_iters >= 1
            warmed = perf_counter()
        z, logp, grad, energy, divergent, astat = _nuts_transition(
            rng, lg, z, logp, grad, eps, inv_mass, momentum,
            cfg.max_tree_depth)
        if warming:
            warmup_divergences += divergent
            eps = da.update(astat)
            welford.push(z)
            if it in mass_points:
                inv_mass = welford.covariance()
                momentum = _momentum_factor(inv_mass, chain, it)
                welford = _Welford(dim)
                eps = _find_epsilon(rng, lg, z, logp, grad, inv_mass,
                                    momentum)
                da.restart(eps)
            if it == cfg.warmup_iters:
                eps = da.adapted
        else:
            s = it - cfg.warmup_iters - 1
            zs[s], divs[s], energies[s] = z, divergent, energy

    if cfg.warmup_iters and warmup_divergences == cfg.warmup_iters:
        raise NumericalError(
            f"chain {chain}: every warmup iteration diverged; "
            "the posterior may be improper or the initialization invalid")
    sampling_seconds = perf_counter() - warmed
    names = tuple(target.param_names) or tuple(
        f"z_{i}" for i in range(target.dim))
    n = cfg.sampling_iters
    # z stands in as the (identity) reported view; thin_by's row selection
    # copies the two apart, and only the kept rows are constrained
    draws = PosteriorDraws(zs, zs, names, np.full(n, chain),
                           np.arange(1, n + 1), divs, energies, np.full(n, eps),
                           1, grad_calls=np.array([grad_calls]),
                           warmup_divergences=np.array([warmup_divergences]),
                           ebfmi=np.array([ebfmi(energies)]),
                           warmup_seconds=np.array([warmed - start]),
                           sampling_seconds=np.array([sampling_seconds])
                           ).thin_by(cfg.thin)
    if target.constrain_fn is not None:
        draws.constrained = np.array([target.constrain_fn(z) for z in draws.z])
    return draws


def sample(target: GradientTarget, cfg: SamplerConfig) -> PosteriorDraws:
    """Run `cfg.chains` independent chains on an arbitrary gradient target,
    in min(`cfg.threads`, `cfg.chains`) worker processes when that is above
    1 (the target must then pickle), and merge them in chain order. Each
    chain draws only from its own seeded streams, so the draws do not
    depend on the number of workers."""
    workers = min(cfg.threads, cfg.chains)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chain, [target] * cfg.chains,
                                    [cfg] * cfg.chains, range(cfg.chains)))
    else:
        results = [_run_chain(target, cfg, c) for c in range(cfg.chains)]
    return replace(results[0], n_chains=cfg.chains, **{
        f: np.concatenate([getattr(r, f) for r in results])
        for f in PosteriorDraws.PER_DRAW + PosteriorDraws.PER_CHAIN})


def _model_initial_point(dim: int, n_free: int, rng) -> np.ndarray:
    """Uniform(-2, 2) for beta, alpha and mu; 0 for log sigma, the stick
    coordinates and log theta."""
    z = rng.uniform(-2.0, 2.0, size=dim)
    z[n_free:] = 0.0
    return z


def _model_constrained(model: ModelSpec, z) -> np.ndarray:
    return constrained_array(model, constrain(model, z))


def make_model_target(model: ModelSpec, data, priors: PriorSpec) -> GradientTarget:
    """The survival model's posterior as a sampler target; every part of it
    pickles, so its chains can run in worker processes."""
    logp_and_grad, _ = make_posterior(model, data, priors)
    dim = model.n_unconstrained
    n_free = model.n_beta + model.J + 1
    return GradientTarget(dim, logp_and_grad,
                          partial(_model_initial_point, dim, n_free),
                          model.param_names, partial(_model_constrained, model))


def run_chains(model: ModelSpec, data, priors: PriorSpec,
               cfg: SamplerConfig) -> PosteriorDraws:
    """Fit the survival model: sample the unconstrained posterior and return
    draws with the constrained (reported) parameter view attached."""
    draws = sample(make_model_target(model, data, priors), cfg)
    draws.model = model
    return draws


# -- diagnostics --------------------------------------------------------------

def _as_chain_array(draws, param_index) -> np.ndarray:
    if isinstance(draws, PosteriorDraws):
        if param_index is None:
            raise DiagnosticsError("param_index required with PosteriorDraws")
        return draws.chain_matrix(param_index)
    arr = np.asarray(draws, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr


def _split_halves(arr: np.ndarray) -> np.ndarray:
    m, n = arr.shape
    half = n // 2
    return np.vstack([arr[:, :half], arr[:, n - half:]])


def rhat(draws, param_index: int | None = None) -> float:
    """Split-chain potential scale reduction factor (between/within variance
    ratio on the half-chains)."""
    arr = _as_chain_array(draws, param_index)
    if arr.shape[0] < 2:
        raise DiagnosticsError("rhat needs at least 2 chains")
    if arr.shape[1] < 4:
        raise DiagnosticsError("rhat needs at least 4 draws per chain")
    split = _split_halves(arr)
    n = split.shape[1]
    chain_means = split.mean(axis=1)
    w = split.var(axis=1, ddof=1).mean()
    b = n * np.var(chain_means, ddof=1)
    if w == 0.0:
        return math.nan
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))


def ess(draws, param_index: int | None = None) -> float:
    """Effective sample size via per-chain FFT autocovariances combined with
    the initial-monotone-sequence truncation rule."""
    arr = _as_chain_array(draws, param_index)
    split = _split_halves(arr) if arr.shape[1] >= 4 else arr
    m, n = split.shape
    acov = np.empty((m, n))
    for c in range(m):
        acov[c] = _autocov(split[c])
    chain_var = acov[:, 0] * n / (n - 1.0)
    w = chain_var.mean()
    var_plus = w * (n - 1.0) / n
    if m > 1:
        var_plus += np.var(split.mean(axis=1), ddof=1)
    if var_plus == 0.0 or w == 0.0:
        return 0.0

    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs while positive, enforcing monotone decay
    tau = 0.0
    prev = math.inf
    t = 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        pair = min(pair, prev)
        tau += pair
        prev = pair
        t += 2
    tau = max(2.0 * tau - 1.0, 1.0 / math.log10(max(n * m, 10)))
    return float(m * n / tau)


def _autocov(x: np.ndarray) -> np.ndarray:
    n = len(x)
    xc = x - x.mean()
    size = 1
    while size < 2 * n:
        size <<= 1
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real
    return acov / n
