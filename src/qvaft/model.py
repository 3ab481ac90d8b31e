"""Model specification: baseline family + time-transform shape + covariate
naming, and the induced parameter-vector layout.

The parameter block order, on both the constrained and unconstrained
scales, is: regression coefficients beta, flexible coefficients alpha,
baseline location mu, baseline scale sigma, then (tbp baselines only) the
simplex weights w and the Dirichlet concentration theta.

For time-varying models the binary switch covariate is not a data column;
its coefficient is the first entry of beta under the name "onset" and each
record carries its own switch time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baseline import BaselineSpec
from .covproc import EffectSpec
from .errors import DomainError

__all__ = ["ModelSpec"]


@dataclass(frozen=True)
class ModelSpec:
    baseline: BaselineSpec
    effect: EffectSpec
    covariates: tuple
    exposure: str | None = None
    time_varying: bool = False

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        names = self.covariates
        if len(set(names)) != len(names):
            raise DomainError("duplicate covariate names")
        if self.time_varying:
            if self.exposure is not None:
                raise DomainError(
                    "time-varying models take the switch itself as exposure; "
                    "leave `exposure` unset")
        else:
            if self.exposure is not None and self.exposure not in names:
                raise DomainError(f"exposure {self.exposure!r} not a covariate")
            if self.effect.kind != "constant" and self.exposure is None:
                raise DomainError("a flexible effect needs an exposure covariate")

    # -- layout -------------------------------------------------------------

    @property
    def n_beta(self) -> int:
        return len(self.covariates) + (1 if self.time_varying else 0)

    @property
    def J(self) -> int:
        return self.effect.J

    @property
    def K(self) -> int:
        return self.baseline.K if self.baseline.is_tbp else 0

    @property
    def beta_names(self) -> tuple:
        if self.time_varying:
            return ("onset",) + self.covariates
        return self.covariates

    @property
    def exposure_index(self) -> int | None:
        """Column index of the flexible-effect covariate in x (None for
        time-varying models, whose exposure is not a column)."""
        if self.time_varying or self.exposure is None:
            return None
        return self.covariates.index(self.exposure)

    @property
    def param_names(self) -> tuple:
        names = ["beta_" + n for n in self.beta_names]
        names += [f"alpha_{j}" for j in range(1, self.J + 1)]
        names += ["mu", "sigma"]
        if self.baseline.is_tbp:
            names += [f"w_{k}" for k in range(1, self.K + 1)]
            names += ["theta"]
        return tuple(names)

    @property
    def n_unconstrained(self) -> int:
        base = self.n_beta + self.J + 2
        if self.baseline.is_tbp:
            base += (self.K - 1) + 1
        return base
