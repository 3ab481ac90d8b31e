"""Bayesian accelerated failure time models with quantile-varying
acceleration factors: flexible baselines, flexible and time-varying
covariate effects, left truncation and interval censoring, Hamiltonian
Monte Carlo estimation, g-formula standardization, and PSIS-LOO model
comparison.

Each public name is imported from its module in `_EXPORTS` on first access
(PEP 562), so `import qvaft` loads no submodule."""

_EXPORTS = {name: module for module, names in {
    "baseline": "BaselineParams BaselineSpec TBPWeights density "
                "inverse_survivor log_density log_survivor survivor",
    "covproc": "EffectSpec TimeVaryingCovariate tv_v_inverse v_inverse "
               "v_value",
    "data": "Dataset read_csv write_csv",
    "draws": "PosteriorDraws",
    "inference": "ContrastSpec CurveTable acceleration_factor af_surface "
                 "default_quantile_grid quantile_time standardized_af "
                 "standardized_survivor_curves tv_acceleration_factor",
    "likelihood": "ParameterVector PriorSpec constrain grad_log_posterior "
                  "log_posterior_unconstrained unconstrain",
    "model": "ModelSpec",
    "modelcheck": "LooResult PointwiseLogLik exact_loo pointwise_loglik "
                  "psis_loo",
    "sampler": "SamplerConfig ess rhat run_chains",
    "simulate": "CensoringSpec CovariateSpec OnsetSpec SimConfig "
                "TruncationSpec simulate_dataset",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module("." + _EXPORTS[name], __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
