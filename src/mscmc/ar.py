"""Autoregressive Gaussian chain: kernel, exact importance weights, drift set.

The chain X_t = rho X_{t-1} + sqrt(1 - rho^2) xi_t has the standard normal
as its invariant law, so every estimate has a known target; this makes the
model the workhorse for statistical validation of the engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ar_drift_constants
from .engine import ATOM_LABEL, DriftSpec, ModelBundle
from .rng import RngStream, ndtri, open_uniform, stream_words

__all__ = ["ArConfig", "ArModel", "ar_log_weight"]

# keys per stream_words call in ArModel.propose_block: bounds the temporaries
# (a few MB at d = 16) at any N
_BLOCK_KEYS = 16_384


@dataclass(frozen=True)
class ArConfig:
    """rho: AR coefficient; d: dimension; h: proposal variance is 1/2 + h;
    r: drift-set radius factor (the set is {|x|^2 <= r d})."""

    rho: float
    d: int
    h: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not self.h > 0.0:
            raise ValueError("h must be positive")
        if not self.r > 1.0:
            raise ValueError("r must exceed 1")


def ar_log_weight(x: np.ndarray, config: ArConfig) -> float:
    """Exact log density ratio of N(0, I) over N(0, (1/2+h) I) at x,
    normalizing constants included (both densities are fully known)."""
    return float(_ar_log_weights(np.asarray(x, dtype=float), config))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    # squared norm of a state, or of each row of an (n, d) array, summed one
    # coordinate at a time: a row gives the same value alone or in a block
    cols = x.T
    sq = cols[0] * cols[0]
    for c in cols[1:]:
        sq += c * c
    return sq


def _ar_log_weights(x: np.ndarray, config: ArConfig) -> np.ndarray:
    # ar_log_weight of a state or of each row of an (n, d) array
    s = 0.5 + config.h
    return 0.5 * config.d * math.log(s) - 0.5 * _sq_norms(x) * (1.0 - 1.0 / s)


class ArModel(ModelBundle):
    """Engine bundle for the autoregressive chain."""

    def __init__(self, config: ArConfig):
        self.config = config
        gamma, K, R, w2, _ = ar_drift_constants(config.rho, config.d, config.h, config.r)
        self.drift = DriftSpec(gamma=gamma, K=K, R=R)
        self.weight_second_moment = w2  # closed form, for cross-checks
        self._prop_scale = math.sqrt(0.5 + config.h)
        self._noise_scale = math.sqrt(1.0 - config.rho**2)
        self.words_per_step = config.d

    def propose(self, stream: RngStream) -> np.ndarray:
        return self._atoms(stream.gen.bit_generator.random_raw(self.config.d))

    def log_weight(self, state: np.ndarray) -> float:
        return ar_log_weight(state, self.config)

    def propose_block(
        self, master_seed: int, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Atom i is ``propose`` on stream (master_seed, ATOM_LABEL, i), bit for bit:
        words 0..d-1 of every stream in the block are computed at once."""
        atoms = np.empty((hi - lo, self.config.d))
        logw = np.empty(hi - lo)
        for start in range(lo, hi, _BLOCK_KEYS):
            stop = min(start + _BLOCK_KEYS, hi)
            index = np.uint64(start) + np.arange(stop - start, dtype=np.uint64)
            words = stream_words(master_seed, ATOM_LABEL, index, self.config.d)
            block = self._atoms(words)
            atoms[start - lo : stop - lo] = block
            logw[start - lo : stop - lo] = _ar_log_weights(block, self.config)
        return atoms, logw

    def _atoms(self, words: np.ndarray) -> np.ndarray:
        # fixed consumption: one raw word per coordinate through the normal
        # inverse CDF, so atom i depends only on words 0..d-1 of its stream
        return self._prop_scale * ndtri(open_uniform(words))

    def kernel_step(self, stream: RngStream, state: np.ndarray) -> np.ndarray:
        return self.kernel_block(state, stream.gen.bit_generator.random_raw(self.config.d))

    def kernel_block(self, states: np.ndarray, words: np.ndarray) -> np.ndarray:
        """rho x + sqrt(1 - rho^2) z for a state or each row of states, z the
        normal inverse CDF of one word per coordinate (the same fixed
        consumption as the atoms)."""
        z = ndtri(open_uniform(words))
        z *= self._noise_scale
        z += self.config.rho * states
        return z

    def f_value(self, state: np.ndarray) -> float:
        return float(self.f_values(state))

    def f_values(self, states: np.ndarray) -> np.ndarray:
        return 1.0 + _sq_norms(states)
