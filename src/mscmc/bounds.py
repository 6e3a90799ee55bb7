"""Closed-form error bounds, drift constants, and sample-size planning.

Everything here is a pure function of its inputs: no state, no randomness.
Every bound reads the drift condition through one ``DriftSpec``.  The
geometric-drift bounds control the mean squared error of the
many-short-chains estimator; the multiplicative-drift bounds give
concentration probabilities when the importance weights are uniformly
bounded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DriftSpec",
    "GeometricBoundInput",
    "MultBoundInput",
    "bias_bound",
    "variance_bound",
    "mse_bound",
    "simplified_mse_bound",
    "init_concentration_bound",
    "chain_concentration_bound",
    "total_concentration_bound",
    "plan_sizes",
    "ar_drift_constants",
    "logit_gibbs_constants",
    "logit_mse_bound",
]


@dataclass(frozen=True)
class DriftSpec:
    """Constants (gamma, K, R) of a verified drift inequality
    PV <= gamma V + K, with return set C = {V <= R}.

    The radius R must exceed K / (1 - gamma) so the effective rate
    gamma + K/R stays below one.
    """

    gamma: float
    K: float
    R: float

    def __post_init__(self):
        if not math.isfinite(self.R):
            raise ValueError(f"R must be finite (got {self.R!r})")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1) (got {self.gamma!r})")
        if not self.K > 0.0:
            raise ValueError(f"K must be positive (got {self.K!r})")
        floor = self.K / (1.0 - self.gamma)
        if not self.R > floor:
            raise ValueError(f"R must exceed K/(1-gamma) = {floor!r} (got {self.R!r})")

    @property
    def effective_rate(self) -> float:
        """gamma + K/R, the contraction rate off the return set, strictly
        between gamma and 1."""
        return self.gamma + self.K / self.R

    @property
    def amplitude(self) -> float:
        """gamma R + 2K - 1, the excursion-operator amplitude A at f = V; R is
        the supremum of V on the return set {V <= R}."""
        return self.gamma * self.R + 2.0 * self.K - 1.0


@dataclass(frozen=True)
class GeometricBoundInput:
    """Inputs shared by the geometric-drift bound evaluators.

    ``w2`` is the second moment of the importance weight under the target
    (or its estimate).
    """

    drift: DriftSpec
    M: int
    N: int
    w2: float

    def __post_init__(self):
        if self.w2 < 1.0:
            raise ValueError("the weight second moment is always >= 1")
        if self.M < 1 or self.N < 1:
            raise ValueError("M and N must be positive")


@dataclass(frozen=True)
class MultBoundInput:
    """Inputs for the multiplicative-drift concentration evaluators.

    ``mgf_amplitude`` is the log-MGF amplitude constant of the excursion sum
    (sup over the return set of V - (1-gamma) f, plus 2K) and ``weight_sup``
    the uniform bound on the importance weight.
    """

    drift: DriftSpec
    mgf_amplitude: float
    weight_sup: float
    eps: float
    M: int
    N: int

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.weight_sup < 1.0:
            raise ValueError("a weight bound below 1 is impossible for a density ratio")
        if self.M < 1 or self.N < 1:
            raise ValueError("M and N must be positive")


def _mse_halves(drift: DriftSpec, w2: float) -> tuple[float, float]:
    """Per-sample coefficients (a, b) of the chain-variance and restart-bias
    halves: the MSE bound is (a/sqrt(M) + b/sqrt(N))^2, with
    a = rate sqrt(R+K) / (2-rate) and b = 2 A sqrt(w2) / (1-rate)."""
    rate = drift.effective_rate
    a = rate * math.sqrt(drift.R + drift.K) / (2.0 - rate)
    b = 2.0 * drift.amplitude * math.sqrt(w2) / (1.0 - rate)
    return a, b


def bias_bound(inp: GeometricBoundInput) -> float:
    """Mean squared bias of the weighted restart stage:
    4 A^2 w2 / (N (1-rate)^2) - 2 A^2 / (N (1-rate)^2) = b^2 (1 - 1/(2 w2)) / N."""
    _, b = _mse_halves(inp.drift, inp.w2)
    return b * b / inp.N * (1.0 - 0.5 / inp.w2)


def variance_bound(inp: GeometricBoundInput) -> float:
    """Conditional variance of the chain average: a^2 / M."""
    a, _ = _mse_halves(inp.drift, inp.w2)
    return a * a / inp.M


def mse_bound(inp: GeometricBoundInput) -> float:
    """Mean squared error bound (a/sqrt(M) + b/sqrt(N))^2."""
    a, b = _mse_halves(inp.drift, inp.w2)
    return (a / math.sqrt(inp.M) + b / math.sqrt(inp.N)) ** 2


def simplified_mse_bound(inp: GeometricBoundInput) -> float:
    """N-free bound (6.25 gamma_R R + 12.5 K) / (M (1-rate)^2), valid only
    when N/M >= (gamma R + 2K) w2."""
    drift = inp.drift
    rate = drift.effective_rate
    threshold = (drift.gamma * drift.R + 2.0 * drift.K) * inp.w2
    if inp.N / inp.M < threshold:
        raise ValueError(
            f"simplified bound needs N/M >= {threshold!r} "
            f"(got N/M = {inp.N / inp.M!r}); increase N or use mse_bound"
        )
    return (6.25 * rate * drift.R + 12.5 * drift.K) / (inp.M * (1.0 - rate) ** 2)


def init_concentration_bound(inp: MultBoundInput) -> float:
    """Tail probability of the restart-stage error under bounded weights:
    4 exp(-N eps^2 (1-rate)^2 / (2 e^{2B} w*^2))."""
    rate = inp.drift.effective_rate
    return 4.0 * math.exp(
        -inp.N
        * inp.eps**2
        * (1.0 - rate) ** 2
        / (2.0 * math.exp(2.0 * inp.mgf_amplitude) * inp.weight_sup**2)
    )


def chain_concentration_bound(inp: MultBoundInput) -> float:
    """Tail probability of the chain-average error:
    2 exp(-M eps^2 (1-rate)^2 / (9 e^{2B}))."""
    rate = inp.drift.effective_rate
    return 2.0 * math.exp(
        -inp.M * inp.eps**2 * (1.0 - rate) ** 2 / (9.0 * math.exp(2.0 * inp.mgf_amplitude))
    )


def total_concentration_bound(inp: MultBoundInput) -> float:
    """Combined tail probability:
    6 exp(-eps^2 (1-rate)^2 min(2M/9, N/w*^2) / (8 e^{2B}))."""
    rate = inp.drift.effective_rate
    mn = min(2.0 * inp.M / 9.0, inp.N / inp.weight_sup**2)
    return 6.0 * math.exp(
        -inp.eps**2 * (1.0 - rate) ** 2 * mn / (8.0 * math.exp(2.0 * inp.mgf_amplitude))
    )


def plan_sizes(eps: float, delta: float, drift: DriftSpec, w2: float) -> tuple[int, int]:
    """Smallest (N, M) for which Markov's inequality on the MSE bound gives
    P(|error| >= eps) <= delta, splitting the eps^2 delta budget equally
    between the chain-variance and restart-bias halves.
    """
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("eps and delta must lie in (0, 1)")
    a, b = _mse_halves(drift, w2)
    budget = delta * eps**2
    M = math.ceil(4.0 * a * a / budget)
    N = math.ceil(4.0 * b * b / budget)
    return N, max(M, 2)


def _proposal_tilt(h: float) -> float:
    # per-coordinate chi-square factor of a Gaussian proposal with variance
    # (1/2 + h) times the target's: 1/(2 sqrt(2h)) + sqrt(h/2) >= 1
    return 1.0 / (2.0 * math.sqrt(2.0 * h)) + math.sqrt(h / 2.0)


def ar_drift_constants(rho: float, d: int, h: float, r: float) -> tuple[DriftSpec, float]:
    """Drift and weight constants of the autoregressive chain with Gaussian
    proposal variance (1/2 + h): returns (drift, w2)."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if d < 1:
        raise ValueError("d must be >= 1")
    if not h > 0.0:
        raise ValueError("h must be positive")
    if not r > 1.0:
        raise ValueError("r must exceed 1")
    drift = DriftSpec(gamma=rho * rho, K=(1.0 - rho * rho) * (1.0 + d), R=1.0 + r * d)
    return drift, _proposal_tilt(h) ** d


def logit_gibbs_constants(
    X: np.ndarray,
    Y: np.ndarray,
    Sigma: np.ndarray,
    h: float,
    r: float,
) -> dict:
    """Drift and proposal constants of the latent-variable Gibbs chain for
    Bayesian logistic regression.

    Returns a dict with keys L, drift, W_d and log_W_d.  The chain's drift
    has gamma = 0, K = 1 + L, and radius R = 1 + r L, which is only valid
    when L > 0.  W_d = det(|X|^2 Sigma / 4 + I) t^d, with t the proposal
    tilt, bounds the chi-square weight moment; |X|^2 = |X^T X|.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    try:
        np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        raise ValueError("Sigma must be symmetric positive-definite") from None
    d = X.shape[1]
    score = X.T @ (Y - 0.5)
    if not np.any(score):
        raise ValueError(
            "degenerate design: the score X^T(Y - 1/2) vanishes, so the radius "
            "1 + rL collapses onto K/(1-gamma) and no valid drift set exists"
        )
    L = float(np.linalg.norm(Sigma, 2)) ** 2 * float(score @ score)
    K, R = 1.0 + L, 1.0 + r * L
    if not math.isfinite(R):
        raise OverflowError(f"the drift radius R = 1 + r L overflows at r = {r!r}, L = {L!r}")
    if r > 1.0 and not R > K:  # Sigma so small that L vanishes next to 1
        raise FloatingPointError(
            f"L = |Sigma|^2 |X^T(Y - 1/2)|^2 = {L!r} is too small: the radius "
            "1 + rL rounds to K = 1 + L, so no valid drift set exists"
        )
    drift = DriftSpec(gamma=0.0, K=K, R=R)
    x_sq_norm = float(np.linalg.norm(X, 2)) ** 2
    chol = np.linalg.cholesky(x_sq_norm / 4.0 * Sigma + np.eye(d))
    log_W_d = 2.0 * float(np.sum(np.log(np.diag(chol)))) + d * math.log(_proposal_tilt(h))
    return {
        "L": L,
        "drift": drift,
        # log_W_d stays finite on very informative designs where W_d
        # exceeds float range
        "W_d": math.exp(log_W_d) if log_W_d < 709 else math.inf,
        "log_W_d": log_W_d,
    }


def logit_mse_bound(
    drift: DriftSpec, W_d: float, M: int, N: int, mode: str = "literal"
) -> float:
    """MSE bound for the logistic-regression Gibbs chain.

    ``literal`` pairs the amplitude A with W_d directly (A = 2L+1 for the
    chain's gamma = 0, K = 1 + L); ``generic`` feeds W_d as the weight
    second moment into the general geometric bound (which takes its square
    root and doubles the amplitude).  Both are reported because the two
    conventions differ and neither dominates.
    """
    if mode == "generic":
        return mse_bound(GeometricBoundInput(drift=drift, M=M, N=N, w2=W_d))
    if mode != "literal":
        raise ValueError(f"unknown mode {mode!r}")
    a, _ = _mse_halves(drift, W_d)
    b = drift.amplitude * W_d / (1.0 - drift.effective_rate)
    return (a / math.sqrt(M) + b / math.sqrt(N)) ** 2
