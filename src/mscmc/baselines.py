"""Single-chain comparators: long-run Gibbs and tuned random-walk Metropolis.

Both report per-coordinate means with batch-means standard errors, the
standard single-chain uncertainty estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logit import LogitPosterior, log_unnorm_posterior, pg_gibbs_step
from .rng import RngStream, derive_stream

__all__ = ["ChainRunResult", "run_single_chain_gibbs", "run_rwm", "batch_means"]


@dataclass(frozen=True)
class ChainRunResult:
    mean: np.ndarray
    stderr: np.ndarray
    n_steps: int
    burn_in: int
    acceptance_rate: float | None = None  # random-walk chains only


def batch_means(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error from non-overlapping batch means.

    Uses floor(sqrt(T)) batches of equal size, discarding the remainder; the
    batch count must leave at least two batches.
    """
    T = samples.shape[0]
    n_batches = int(math.isqrt(T))
    if n_batches < 2:
        raise ValueError("too few samples for batch means (need at least 4)")
    size = T // n_batches
    used = samples[: n_batches * size]
    grand = used.mean(axis=0)
    means = used.reshape(n_batches, size, -1).mean(axis=1)
    var_hat = size * np.sum((means - grand) ** 2, axis=0) / (n_batches - 1)
    return grand, np.sqrt(var_hat / used.shape[0])


def run_single_chain_gibbs(
    posterior: LogitPosterior,
    steps: int,
    burn_in: int,
    start: np.ndarray,
    master_seed: int,
) -> ChainRunResult:
    """One long Gibbs chain; the mean is taken over post-burn-in draws."""
    if not steps > burn_in >= 0:
        raise ValueError("need steps > burn_in >= 0")
    stream = derive_stream(master_seed, "gibbs-chain", 0)
    beta = np.asarray(start, dtype=float)
    keep = np.empty((steps - burn_in, posterior.d))
    for t in range(steps):
        beta = pg_gibbs_step(stream, beta, posterior)
        if t >= burn_in:
            keep[t - burn_in] = beta
    mean, stderr = batch_means(keep)
    return ChainRunResult(mean=mean, stderr=stderr, n_steps=steps, burn_in=burn_in)


def rwm_step_factor(posterior: LogitPosterior) -> np.ndarray:
    """Cholesky factor of the random-walk proposal covariance.

    The proposal is scaled to the posterior's own curvature: (2.38^2 / d)
    times the inverse-Hessian covariance at the mode, the classic
    optimal-scaling rule for Gaussian-like targets.
    """
    return 2.38 / math.sqrt(posterior.d) * np.linalg.cholesky(posterior.laplace_covariance())


def run_rwm(
    posterior: LogitPosterior,
    steps: int,
    burn_in: int,
    start: np.ndarray,
    master_seed: int,
) -> ChainRunResult:
    """Random-walk Metropolis with curvature-tuned proposal covariance."""
    if not steps > burn_in >= 0:
        raise ValueError("need steps > burn_in >= 0")
    stream = derive_stream(master_seed, "rwm-chain", 0)
    factor = rwm_step_factor(posterior)
    beta = np.asarray(start, dtype=float)
    log_post = log_unnorm_posterior(beta, posterior)
    keep = np.empty((steps - burn_in, posterior.d))
    accepted = 0
    for t in range(steps):
        cand = beta + factor @ stream.gen.standard_normal(posterior.d)
        cand_log_post = log_unnorm_posterior(cand, posterior)
        delta = cand_log_post - log_post
        u = stream.gen.random()
        if delta >= 0.0 or u < math.exp(delta):
            beta, log_post = cand, cand_log_post
            accepted += 1
        if t >= burn_in:
            keep[t - burn_in] = beta
    mean, stderr = batch_means(keep)
    return ChainRunResult(
        mean=mean,
        stderr=stderr,
        n_steps=steps,
        burn_in=burn_in,
        acceptance_rate=accepted / steps,
    )
