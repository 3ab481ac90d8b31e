"""The posterior draws record and its files: `PosteriorDraws`, which the
sampler returns, and the one writer and reader of a fit's draws.npz
(stamped with DRAWS_FORMAT_VERSION) and writer of its draws.csv. The
post-fit commands read a fit through this module without loading the
sampler."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import atomic_write_text, check_format_version
from .errors import DomainError
from .model import ModelSpec

__all__ = [
    "PosteriorDraws",
    "draws_to_csv",
    "draws_to_npz",
    "draws_from_npz",
]

DRAWS_FORMAT_VERSION = 1


@dataclass
class PosteriorDraws:
    """Retained draws of all chains, merged in (chain, iteration) order:
    what `sampler.sample` returns and what a fit's draws.npz holds.

    The arrays named in PER_DRAW hold one row per retained draw; thinning,
    merging chains and the .npz file all go through that tuple. The
    arrays named in PER_CHAIN hold one entry per chain."""

    PER_DRAW = ("z", "constrained", "chain_id", "iteration", "divergent",
                "energy", "step_size")
    PER_CHAIN = ("grad_calls", "warmup_divergences", "ebfmi",
                 "warmup_seconds", "sampling_seconds")

    z: np.ndarray               # (M, dim) unconstrained
    constrained: np.ndarray     # (M, P) reported view
    param_names: tuple
    chain_id: np.ndarray
    iteration: np.ndarray
    divergent: np.ndarray
    energy: np.ndarray
    step_size: np.ndarray
    n_chains: int
    model: ModelSpec | None = field(default=None, repr=False)
    grad_calls: np.ndarray | None = None    # (n_chains,) gradient evaluations
    # per chain: warmup divergences, E-BFMI of the sampling energies before
    # thinning, warmup and sampling wall seconds
    warmup_divergences: np.ndarray | None = None
    ebfmi: np.ndarray | None = None
    warmup_seconds: np.ndarray | None = None
    sampling_seconds: np.ndarray | None = None

    @property
    def M(self) -> int:
        return len(self.z)

    @property
    def draws_per_chain(self) -> int:
        return self.M // self.n_chains

    def chain_matrix(self, param_index: int) -> np.ndarray:
        """Retained draws of one reported parameter, shape (chains, draws)."""
        col = self.constrained[:, param_index]
        return col.reshape(self.n_chains, self.draws_per_chain)

    def thin_by(self, factor: int) -> "PosteriorDraws":
        """Iterations 1, factor + 1, 2 factor + 1, ... of each chain: the one
        thinning rule, which a fit at `thin` = factor applies too."""
        if factor < 1:
            raise DomainError(f"thinning factor must be >= 1, got {factor}")
        keep = np.arange(self.M) % self.draws_per_chain % factor == 0
        return replace(
            self, **{f: getattr(self, f)[keep] for f in self.PER_DRAW})


def draws_to_csv(draws: PosteriorDraws, path) -> None:
    header = ["chain", "iter", *draws.param_names, "divergent", "energy"]
    lines = [",".join(header)]
    for i in range(draws.M):
        row = [str(int(draws.chain_id[i])), str(int(draws.iteration[i]))]
        row += [repr(float(v)) for v in draws.constrained[i]]
        row += [str(int(draws.divergent[i])), repr(float(draws.energy[i]))]
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def draws_to_npz(draws: PosteriorDraws, path) -> None:
    """The per-draw arrays, the parameter names and the chain count; the
    per-chain counters stay in summary.json."""
    np.savez_compressed(
        path, format_version=DRAWS_FORMAT_VERSION,
        param_names=np.array(draws.param_names), n_chains=draws.n_chains,
        **{f: getattr(draws, f) for f in PosteriorDraws.PER_DRAW})


def draws_from_npz(path, model: ModelSpec) -> PosteriorDraws:
    """What `draws_to_npz` wrote, with `model` attached; raises `DataError`
    for a file of another format_version."""
    with np.load(path, allow_pickle=False) as raw:
        check_format_version(path, raw["format_version"].item()
                             if "format_version" in raw else None,
                             DRAWS_FORMAT_VERSION)
        return PosteriorDraws(
            param_names=tuple(str(s) for s in raw["param_names"]),
            n_chains=int(raw["n_chains"]), model=model,
            **{f: raw[f] for f in PosteriorDraws.PER_DRAW})
