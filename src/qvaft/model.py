"""Model specification: baseline family + time-transform shape + covariate
naming, the induced parameter-vector layout, and the linear predictor.

The parameter block order, on both the constrained and unconstrained
scales, is: regression coefficients beta, flexible coefficients alpha,
baseline location mu, baseline scale sigma, then (tbp baselines only) the
simplex weights w and the Dirichlet concentration theta.

For time-varying models the binary switch covariate is not a data column;
its coefficient is the first entry of beta under the name "onset" and each
record carries its own switch time.

`ModelSpec.predictor` is the one place that reads this layout off beta: it
splits a covariate pattern into the (eta, x1, b1) arguments that
`covproc.transform` and `covproc.transform_inverse` take. Quantile times,
acceleration factors and the g-formula call it for each evaluation; the
likelihood, whose rows never change, calls it once for their exposure
values and then forms eta = X @ coef from `ModelSpec.split_beta` on every
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baseline import BaselineSpec
from .covproc import EffectSpec
from .errors import DataError, DomainError

__all__ = ["ModelSpec", "model_to_jsonable", "model_from_jsonable"]


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

    @cached_property
    def n_beta(self) -> int:
        return len(self.covariates) + (1 if self.time_varying else 0)

    @cached_property
    def J(self) -> int:
        return self.effect.J

    @cached_property
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

    @cached_property
    def n_unconstrained(self) -> int:
        base = self.n_beta + self.J + 2
        if self.baseline.is_tbp:
            base += (self.K - 1) + 1
        return base

    # -- linear predictor ---------------------------------------------------

    def design(self, data) -> np.ndarray:
        """The data's covariate columns in model order, (n, d), each read by
        its name; a `DataError` names the first covariate the data lack."""
        have = data.covariate_names
        missing = [c for c in self.covariates if c not in have]
        if missing:
            raise DataError(f"covariate {missing[0]!r} is not a column of the "
                            f"data (columns: {list(have)})")
        return data.x.take([have.index(c) for c in self.covariates], axis=1)

    def split_beta(self, beta: np.ndarray):
        """(coef, b1): the coefficients of the data columns and the switch
        coefficient beta[0] of a time-varying model (0 otherwise)."""
        return (beta[1:], beta[0]) if self.time_varying else (beta, 0.0)

    def predictor(self, beta, X, level=None):
        """(eta, x1, b1) for covariate rows X, shape (d,) or (n, d): eta is
        x'beta over the data columns, x1 the exposure value that scales
        alpha (0 for a constant effect and for time-varying models) and b1
        the switch coefficient beta[0] of a time-varying model (else 0).
        Each row's eta is rounded as x'beta of that row alone. A contrast
        `level` replaces the exposure column, in eta and as x1."""
        X = np.asarray(X, dtype=float)
        coef, b1 = self.split_beta(np.asarray(beta, dtype=float))
        if X.shape[-1:] != coef.shape:
            raise DomainError(f"covariate rows of shape {X.shape}, expected "
                              f"{coef.size} columns")
        j = self.exposure_index
        if level is not None and j is not None:
            X = X.copy()
            X[..., j] = level
        # one dot product per row: a row's eta is the same alone or among
        # others, which a matrix-vector product does not round alike
        eta = np.matmul(X[..., None, :], coef[:, None])[..., 0, 0]
        if self.time_varying or self.effect.kind == "constant":
            return eta, 0.0, b1
        return eta, (X[..., j] if level is None else level), b1


# -- the model of fit.json ----------------------------------------------------

def model_to_jsonable(model: ModelSpec) -> dict:
    b, e = model.baseline, model.effect
    return {"baseline": {"family": b.family, "centering": b.centering,
                         "K": b.K},
            "effect": {"kind": e.kind, "knots": list(e.knots)},
            "covariates": list(model.covariates), "exposure": model.exposure,
            "time_varying": model.time_varying}


def model_from_jsonable(obj: dict) -> ModelSpec:
    b, e = obj["baseline"], obj["effect"]
    return ModelSpec(BaselineSpec(b["family"], b["centering"], b["K"]),
                     EffectSpec(e["kind"], tuple(e["knots"])),
                     tuple(obj["covariates"]), obj.get("exposure"),
                     bool(obj.get("time_varying", False)))
