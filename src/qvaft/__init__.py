"""Bayesian accelerated failure time models with quantile-varying
acceleration factors: flexible baselines, flexible and time-varying
covariate effects, left truncation and interval censoring, Hamiltonian
Monte Carlo estimation, g-formula standardization, and PSIS-LOO model
comparison."""

from .baseline import (
    BaselineParams,
    BaselineSpec,
    TBPWeights,
    density,
    inverse_survivor,
    log_density,
    log_survivor,
    survivor,
)
from .covproc import (
    EffectSpec,
    TimeVaryingCovariate,
    tv_v_inverse,
    v_inverse,
    v_value,
)
from .data import Dataset, SubjectRecord, read_csv, write_csv
from .inference import (
    ContrastSpec,
    CurveTable,
    acceleration_factor,
    af_surface,
    default_quantile_grid,
    quantile_time,
    standardized_af,
    standardized_survivor_curves,
    tv_acceleration_factor,
)
from .likelihood import (
    ParameterVector,
    PriorSpec,
    constrain,
    grad_log_posterior,
    log_posterior_unconstrained,
    unconstrain,
)
from .model import ModelSpec
from .modelcheck import (
    LooResult,
    PointwiseLogLik,
    exact_loo,
    pointwise_loglik,
    psis_loo,
)
from .sampler import PosteriorDraws, SamplerConfig, ess, rhat, run_chains
from .simulate import (
    CensoringSpec,
    CovariateSpec,
    OnsetSpec,
    SimConfig,
    TruncationSpec,
    simulate_dataset,
)

__version__ = "0.1.0"
