"""Exact synthetic-data generation by inverse-transform sampling.

An event time under covariates x is T = V^{-1}(S0^{-1}(U) | x) with
U ~ Uniform(0,1), so survivor(V(T)) is uniform by construction and every
supported model can be sampled without approximation. Left truncation is
honoured by rejection (redraw T until T > entry), right censoring by an
administrative cutoff and/or an independent exponential clock running from
entry, and interval censoring by recording the true bracketing pair of a
visit schedule with fixed gap starting at entry. Events never observed
before the censoring time are right-censored at the last clean visit.

Each subject draws from its own counter-based stream keyed by
(seed, subject), so datasets are reproducible and order-independent.
Subjects are simulated in rounds: a round draws one attempt (covariates,
switch time, entry time and U, in that order) for every subject still
pending, inverts all their event times in one batched call, and leaves
pending those whose time falls at or before entry. Each subject's stream
is consumed exactly as if it were simulated alone, so subject i's record
depends only on (seed, i), and not on n or on the other subjects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .covproc import is_monotone
from .data import Dataset
from .errors import ConfigError, DomainError
from .inference import quantile_time
from .likelihood import ParameterVector, check_psi
from .model import ModelSpec

__all__ = [
    "DISTRIBUTIONS",
    "CovariateSpec",
    "CensoringSpec",
    "TruncationSpec",
    "OnsetSpec",
    "SimConfig",
    "simulate_dataset",
]

MAX_REJECTION_ATTEMPTS = 10_000  # acceptance below 1e-4 is a config error
TINY_TIME = 1e-12  # floor for interval/censoring endpoints at time zero


class Distribution(NamedTuple):
    keys: tuple  # parameter names, in the order a spec's `params` holds them
    draw: object  # (rng, *params) -> float


# every distribution a covariate, an entry time or a switch time can follow
DISTRIBUTIONS = {
    "bernoulli": Distribution(("p",), lambda rng, p: float(rng.random() < p)),
    "normal": Distribution(("mean", "sd"),
                           lambda rng, m, sd: float(rng.normal(m, sd))),
    "uniform": Distribution(("lo", "hi"),
                            lambda rng, lo, hi: float(rng.uniform(lo, hi))),
    "exponential": Distribution(
        ("rate",), lambda rng, rate: float(rng.exponential(1.0 / rate))),
    "constant": Distribution(("value",), lambda rng, v: v),
    "fixed": Distribution(("time",), lambda rng, t: t),
    "none": Distribution((), lambda rng: 0.0),
}

# the values a parameter may take, and the rule it breaks otherwise; NaN
# fails every test
PARAM_RANGES = {
    "p": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "sd": (lambda v: v >= 0.0, "must be >= 0"),
    "rate": (lambda v: v > 0.0, "must be > 0"),
    "time": (lambda v: v >= 0.0, "must be >= 0"),
}


@dataclass(frozen=True)
class _DistSpec:
    """One of the subclass's `DISTS`, with `params` checked against
    DISTRIBUTIONS and PARAM_RANGES; a value out of range raises the
    subclass's `ERROR` with a message that starts with its key."""

    DISTS = ()
    ERROR = ConfigError

    def __post_init__(self):
        if self.dist not in self.DISTS:
            raise self.ERROR(f"dist: {self.dist!r} is not one of "
                             f"{list(self.DISTS)}")
        params = tuple(float(v) for v in self.params)
        object.__setattr__(self, "params", params)
        keys = DISTRIBUTIONS[self.dist].keys
        if len(params) != len(keys):
            raise self.ERROR(f"{self.dist} takes {len(keys)} parameters "
                             f"{keys}, got {len(params)}")
        for key, val in zip(keys, params):
            ok, rule = PARAM_RANGES.get(key, (None, None))
            if ok is not None and not ok(val):
                raise self.ERROR(f"{key}: {rule}, got {val!r}")
        if self.dist == "uniform" and not params[0] <= params[1]:
            raise self.ERROR(f"hi: must be >= lo, got {params[1]!r} < "
                             f"{params[0]!r}")

    def draw(self, rng: np.random.Generator) -> float:
        return DISTRIBUTIONS[self.dist].draw(rng, *self.params)


@dataclass(frozen=True)
class CovariateSpec(_DistSpec):
    """Marginal distribution of one covariate column:
    bernoulli(p) | normal(mean, sd) | uniform(lo, hi) | constant(value)."""

    DISTS = ("bernoulli", "normal", "uniform", "constant")
    ERROR = DomainError

    dist: str
    params: tuple = ()


@dataclass(frozen=True)
class CensoringSpec:
    admin_time: float | None = None   # absolute cutoff
    exp_rate: float | None = None     # exponential clock from entry
    visit_gap: float | None = None    # interval-censoring visit spacing

    def __post_init__(self):
        if self.admin_time is not None and not self.admin_time > 0:
            raise ConfigError(
                f"censoring.admin_time must be > 0, got {self.admin_time} "
                "(no events would be observable)")
        if self.exp_rate is not None and not self.exp_rate > 0:
            raise ConfigError("censoring.exp_rate must be > 0")
        if self.visit_gap is not None and not self.visit_gap > 0:
            raise ConfigError("censoring.visit_gap must be > 0")


@dataclass(frozen=True)
class TruncationSpec(_DistSpec):
    """Entry-time distribution: none | fixed(time) | uniform(lo, hi) |
    exponential(rate)."""

    DISTS = ("none", "fixed", "uniform", "exponential")

    dist: str = "none"
    params: tuple = ()


@dataclass(frozen=True)
class OnsetSpec(_DistSpec):
    """Switch-time distribution for time-varying models: fixed(time) |
    uniform(lo, hi) | exponential(rate), with probability `never_prob` of
    never switching."""

    DISTS = ("fixed", "uniform", "exponential")

    dist: str = "exponential"
    params: tuple = (1.0,)
    never_prob: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.never_prob <= 1.0:
            raise ConfigError(f"never_prob: must lie in [0, 1], got "
                              f"{self.never_prob!r}")

    def draw(self, rng: np.random.Generator) -> float:
        if rng.random() < self.never_prob:
            return math.inf
        return super().draw(rng)


@dataclass(frozen=True)
class SimConfig:
    n: int
    model: ModelSpec
    psi: ParameterVector
    covariates: tuple            # one CovariateSpec per model covariate
    censoring: CensoringSpec = field(default_factory=CensoringSpec)
    truncation: TruncationSpec = field(default_factory=TruncationSpec)
    onset: OnsetSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("simulate.n must be >= 1")
        check_psi(self.model, self.psi)
        if len(self.covariates) != len(self.model.covariates):
            raise ConfigError(
                f"{len(self.covariates)} covariate generators for "
                f"{len(self.model.covariates)} model covariates")
        if self.model.time_varying and self.onset is None:
            raise ConfigError("time-varying models need an onset spec")


def _subject_rng(seed: int, subject: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(subject,))
    return np.random.Generator(np.random.Philox(ss))


def _uniform(rng: np.random.Generator) -> float:
    """U ~ Uniform(0, 1) without 0: redrawn while it is 0."""
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return u


def _record(cens: CensoringSpec, rng: np.random.Generator, t: float,
            entry: float) -> tuple:
    """(y_l, y_u, event, trunc) observed of an accepted event time t."""
    censor = math.inf
    if cens.admin_time is not None:
        censor = cens.admin_time
    if cens.exp_rate is not None:
        censor = min(censor, entry + rng.exponential(1.0 / cens.exp_rate))

    if cens.visit_gap is None:
        if t <= censor:
            return t, t, 1, entry
        return max(censor, TINY_TIME), math.inf, 0, entry

    gap = cens.visit_gap
    k = math.floor((t - entry) / gap)
    left = entry + k * gap
    right = entry + (k + 1) * gap
    if t <= censor and right <= censor:
        return max(left, TINY_TIME), right, 0, min(entry, max(left, TINY_TIME))
    last_clean = entry + gap * math.floor((min(censor, t) - entry) / gap)
    return (max(last_clean, TINY_TIME), math.inf, 0,
            min(entry, max(last_clean, TINY_TIME)))


def _hopeless(subject: int) -> ConfigError:
    return ConfigError(
        f"subject {subject}: rejection acceptance rate below "
        f"{1.0 / MAX_REJECTION_ATTEMPTS:g}; entry times sit in the far "
        "tail of the event distribution")


def simulate_dataset(cfg: SimConfig) -> Dataset:
    """Generate a `Dataset` of n subjects (which checks every row).

    Works in rounds: each round draws an attempt for every pending subject
    from its own stream and inverts all their event times in one
    `quantile_time` call; subjects whose time falls at or before entry
    are pending again in the next round. A subject that needs more than
    `MAX_REJECTION_ATTEMPTS` attempts is a `ConfigError`, and so is a
    sample that has made that many attempts in all without accepting
    anyone, which bounds the cost of a hopeless truncation law. A truth alpha
    that `covproc.is_monotone` rejects at the drawn x is a `DomainError`."""
    n, admin = cfg.n, cfg.censoring.admin_time
    rngs = [_subject_rng(cfg.seed, i) for i in range(n)]
    x = np.empty((n, len(cfg.covariates)))
    onset = np.full(n, math.inf)
    entry = np.empty(n)
    t = np.empty(n)
    attempts = [0] * n

    def attempt(i: int) -> float:
        """Subject i's next x, switch time and entry time, written to row
        i (redrawn while entry is past the administrative cutoff), and
        the U of its event time."""
        rng = rngs[i]
        while attempts[i] < MAX_REJECTION_ATTEMPTS:
            attempts[i] += 1
            x[i] = [spec.draw(rng) for spec in cfg.covariates]
            if cfg.onset is not None:
                onset[i] = cfg.onset.draw(rng)
            entry[i] = cfg.truncation.draw(rng)
            if admin is None or entry[i] < admin:
                return _uniform(rng)
        raise _hopeless(i)

    model, alpha, tv = cfg.model, cfg.psi.alpha, cfg.model.time_varying
    pending = np.arange(n)
    while pending.size:
        u = np.array([attempt(i) for i in pending])
        x1 = 1.0 if tv else model.predictor(cfg.psi.beta, x[pending])[1]
        if not is_monotone(model.effect, alpha, x1, tv):
            raise DomainError(f"truth alpha {alpha.tolist()} makes V(t|x) "
                              "decrease at a simulated exposure value")
        t[pending] = quantile_time(cfg.model, cfg.psi, x[pending], u,
                                   onset[pending])
        pending = pending[~(t[pending] > entry[pending])]
        if pending.size == n and sum(attempts) >= MAX_REJECTION_ATTEMPTS:
            raise _hopeless(0)  # no subject accepted yet
    rows = [_record(cfg.censoring, rngs[i], float(t[i]), float(entry[i]))
            for i in range(n)]
    return Dataset(*zip(*rows), x, onset, tuple(cfg.model.covariates))
