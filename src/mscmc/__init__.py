"""Parallel many-short-chains Monte Carlo estimation.

Averages excursion sums from many independent, drift-truncated Markov
chains started at a self-normalized importance-sampling restart
distribution, together with evaluators for the matching non-asymptotic
error bounds and two ready-made targets (an autoregressive Gaussian chain
and a latent-variable Gibbs sampler for Bayesian logistic regression).
"""
from .ar import ArConfig, ArModel
from .engine import (
    CapExceededError,
    DriftSpec,
    ModelBundle,
    MscResult,
    WeightedAtoms,
    WeightError,
    build_initial_distribution,
    coordinate_functions,
    msc_estimate,
    run_excursion,
)
from .logit import Dataset, LogitModel, LogitPosterior, load_heart_dataset
from .rng import RngStream, derive_stream

__version__ = "0.1.0"

__all__ = [
    "ArConfig",
    "ArModel",
    "CapExceededError",
    "Dataset",
    "DriftSpec",
    "LogitModel",
    "LogitPosterior",
    "ModelBundle",
    "MscResult",
    "RngStream",
    "WeightedAtoms",
    "WeightError",
    "build_initial_distribution",
    "coordinate_functions",
    "derive_stream",
    "load_heart_dataset",
    "msc_estimate",
    "run_excursion",
    "__version__",
]
