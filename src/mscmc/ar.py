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
from .engine import ModelBundle
from .rng import ndtri, open_uniform

__all__ = ["ArConfig", "ArModel"]

# the largest |coordinate| of a standard normal draw from one word: the
# normal inverse CDF of the top open_uniform value, about 8.21
_Z_MAX = float(ndtri(open_uniform(np.array([2**64 - 1], dtype=np.uint64)))[0])


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
        # the largest proposal draw, every coordinate at sqrt(1/2 + h) _Z_MAX,
        # must keep a finite squared norm, or f_values and log_weights overflow
        top = math.sqrt(0.5 + self.h) * _Z_MAX
        if not math.isfinite(self.d * (top * top)):
            raise ValueError(
                f"h = {self.h!r} is too large at d = {self.d}: the largest proposal "
                "draw's squared norm overflows"
            )


def _sq_norms(x: np.ndarray) -> np.ndarray:
    # squared norm of each row of an (n, d) array, summed one coordinate at
    # a time: a row gives the same value alone or in a block
    cols = x.T
    sq = cols[0] * cols[0]
    for c in cols[1:]:
        sq += c * c
    return sq


class ArModel(ModelBundle):
    """Engine bundle for the autoregressive chain."""

    def __init__(self, config: ArConfig):
        self.config = config
        # w2 in closed form, for cross-checks
        self.drift, self.weight_second_moment = ar_drift_constants(
            config.rho, config.d, config.h, config.r
        )
        self._prop_scale = math.sqrt(0.5 + config.h)
        self._noise_scale = math.sqrt(1.0 - config.rho**2)
        self.words_per_atom = self.words_per_step = config.d

    def atoms(self, words: np.ndarray) -> np.ndarray:
        """N(0, (1/2+h) I) draws: one word per coordinate through the normal
        inverse CDF."""
        return self._prop_scale * ndtri(open_uniform(words))

    def log_weights(self, atoms: np.ndarray) -> np.ndarray:
        """Exact log density ratio of N(0, I) over N(0, (1/2+h) I), normalizing
        constants included (both densities are fully known)."""
        s = 0.5 + self.config.h
        return 0.5 * self.config.d * math.log(s) - 0.5 * _sq_norms(atoms) * (1.0 - 1.0 / s)

    def kernel_block(self, states: np.ndarray, words: np.ndarray) -> np.ndarray:
        """rho x + sqrt(1 - rho^2) z for each row of states, z the normal
        inverse CDF of one word per coordinate (the same fixed consumption as
        the atoms)."""
        z = ndtri(open_uniform(words))
        z *= self._noise_scale
        z += self.config.rho * states
        return z

    def f_values(self, states: np.ndarray) -> np.ndarray:
        return 1.0 + _sq_norms(states)
