"""Parallel many-short-chains Monte Carlo estimation.

Averages excursion sums from many independent, drift-truncated Markov
chains started at a self-normalized importance-sampling restart
distribution, together with evaluators for the matching non-asymptotic
error bounds and two ready-made targets (an autoregressive Gaussian chain
and a latent-variable Gibbs sampler for Bayesian logistic regression).

The public names are imported on first use, so ``import mscmc`` loads no
submodule and no numpy.  That lets ``mscmc.cli`` set up the process (its
BLAS thread count) before numpy is loaded.
"""
import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    "ArConfig": "ar",
    "ArModel": "ar",
    "CapExceededError": "engine",
    "Dataset": "logit",
    "DriftSpec": "engine",
    "LogitModel": "logit",
    "LogitPosterior": "logit",
    "ModelBundle": "engine",
    "MscResult": "engine",
    "RngStream": "rng",
    "WeightedAtoms": "engine",
    "WeightError": "engine",
    "build_initial_distribution": "engine",
    "coordinate_functions": "engine",
    "derive_stream": "rng",
    "load_heart_dataset": "logit",
    "msc_estimate": "engine",
    "run_excursion": "engine",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
