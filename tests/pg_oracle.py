"""Test oracle: truncated sum-of-gammas representation of PG(1, b).

A PG(1, b) variate equals (1 / (2 pi^2)) * sum_k g_k / ((k - 1/2)^2 +
b^2 / (4 pi^2)) with independent standard exponentials g_k.  The first
10^3 terms are drawn; the rest are replaced by their exact mean, the
PG(1, b) mean tanh(b/2) / (2b) less the mean of the drawn terms, so the
draws have the exact mean.  The dropped terms' standard deviation, about
1e-6, lies far below every tolerance used against the oracle.  This
sampler is deliberately independent of the accept-reject implementation
it checks.
"""
import math

import numpy as np


def pg_series_draws(
    gen: np.random.Generator,
    b: float,
    n_draws: int,
    n_terms: int = 1_000,
    draw_chunk: int = 20_000,
    term_chunk: int = 1_000,
) -> np.ndarray:
    shift = b * b / (4.0 * math.pi**2)
    k = np.arange(1, n_terms + 1)
    inv_denom = 1.0 / ((k - 0.5) ** 2 + shift)
    mean = 0.25 if b == 0.0 else math.tanh(b / 2.0) / (2.0 * b)
    tail = mean - float(inv_denom.sum()) / (2.0 * math.pi**2)
    out = np.empty(n_draws)
    for lo in range(0, n_draws, draw_chunk):
        hi = min(lo + draw_chunk, n_draws)
        acc = np.zeros(hi - lo)
        for tlo in range(0, n_terms, term_chunk):
            thi = min(tlo + term_chunk, n_terms)
            g = gen.standard_exponential((hi - lo, thi - tlo))
            acc += g @ inv_denom[tlo:thi]
        out[lo:hi] = acc / (2.0 * math.pi**2) + tail
    return out
