"""Bayesian logistic regression with latent Polya-Gamma augmentation.

Covers the posterior and its mode, the Gaussian importance proposal centered
at the mode, the two-block Gibbs kernel whose beta-marginal targets the
posterior, and ingestion of the Cleveland-layout cardiovascular data file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import logit_gibbs_constants
from .engine import ModelBundle
from .rng import CounterDraws, RngStream, fnv1a64, ndtri, open_uniform, sample_polya_gamma_batch

__all__ = [
    "Dataset",
    "DataFormatError",
    "load_heart_dataset",
    "HEART_COLUMNS",
    "NOMINAL_COLUMNS",
    "neg_log_lik",
    "neg_log_lik_grad",
    "neg_log_lik_hess",
    "log_unnorm_posterior",
    "LogitPosterior",
    "map_estimate",
    "proposal_sample",
    "proposal_log_weight",
    "pg_gibbs_step",
    "LogitModel",
]


class DataFormatError(ValueError):
    """The data file does not match the expected layout."""


@dataclass(frozen=True)
class Dataset:
    """A binary-response design: X is n x d, y in {0,1}^n."""

    X: np.ndarray
    y: np.ndarray
    column_names: list[str]

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise ValueError("X must be a nonempty n x d matrix")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("X contains non-finite entries")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y must have one entry per row of X")
        if not np.all((self.y == 0) | (self.y == 1)):
            raise ValueError("y must be binary")
        if len(self.column_names) != self.X.shape[1]:
            raise ValueError("one column name per design column required")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


HEART_COLUMNS = [
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal", "num",
]
NOMINAL_COLUMNS = ("cp", "restecg", "slope", "thal")


def load_heart_dataset(
    path: str,
    standardize: bool = False,
    verbose: bool = False,
) -> Dataset:
    """Parse a 14-column Cleveland-layout file into a logistic design.

    Rows containing the missing marker "?" are dropped (the count is logged).
    The target is 1 when the disease column is positive.  Nominal attributes
    (cp, restecg, slope, thal) are one-hot encoded with the lowest level
    dropped; ca stays numeric; an intercept column is appended last.
    ``standardize`` z-scores every non-intercept column (a constant column
    is only centered).
    """
    kept: list[list[float]] = []
    n_dropped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != len(HEART_COLUMNS):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(HEART_COLUMNS)} comma-separated "
                    f"fields, found {len(fields)}"
                )
            if "?" in fields:
                n_dropped += 1
                continue
            try:
                kept.append([float(f) for f in fields])
            except ValueError as err:
                raise DataFormatError(f"{path}:{lineno}: unparseable field ({err})") from None
    if not kept:
        raise DataFormatError(f"{path}: no usable rows")
    table = np.asarray(kept)
    y = (table[:, HEART_COLUMNS.index("num")] > 0).astype(float)

    blocks: list[np.ndarray] = []
    names: list[str] = []
    for j, name in enumerate(HEART_COLUMNS[:-1]):
        col = table[:, j]
        if name in NOMINAL_COLUMNS:
            levels = sorted(set(col))
            for level in levels[1:]:  # drop the lowest level
                blocks.append((col == level).astype(float))
                names.append(f"{name}={level:g}")
        else:
            blocks.append(col)
            names.append(name)
    X = np.column_stack(blocks)

    if standardize:
        scales = X.std(axis=0, ddof=0)
        scales[scales == 0.0] = 1.0
        X = (X - X.mean(axis=0)) / scales
    X = np.column_stack([X, np.ones(X.shape[0])])
    names.append("intercept")
    if verbose:
        print(
            f"loaded {path}: kept {len(kept)} rows ({n_dropped} dropped for missing "
            f"values), {len(names)} design columns (incl. intercept), "
            f"{int(y.sum())} positive responses"
        )
    return Dataset(X=X, y=y, column_names=names)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def neg_log_lik(beta: np.ndarray, dataset: Dataset) -> float:
    """sum_i [softplus(x_i . beta) - y_i x_i . beta], overflow-safe."""
    t = dataset.X @ beta
    return float(np.sum(np.logaddexp(0.0, t) - dataset.y * t))


def neg_log_lik_grad(beta: np.ndarray, dataset: Dataset) -> np.ndarray:
    t = dataset.X @ beta
    return dataset.X.T @ (_sigmoid(t) - dataset.y)


def neg_log_lik_hess(beta: np.ndarray, dataset: Dataset) -> np.ndarray:
    p = _sigmoid(dataset.X @ beta)
    return (dataset.X * (p * (1.0 - p))[:, None]).T @ dataset.X


class LogitPosterior:
    """The (unnormalized) posterior with its precomputed linear algebra.

    Immutable after construction; shared read-only across workers.  The mode
    is computed lazily on first use and cached.
    """

    def __init__(self, dataset: Dataset, Sigma: np.ndarray, h: float = 0.49):
        if not 0.0 < h <= 0.5:
            raise ValueError("h must lie in (0, 1/2]")
        Sigma = np.asarray(Sigma, dtype=float)
        if Sigma.shape != (dataset.d, dataset.d):
            raise ValueError("Sigma must be d x d")
        if not np.all(np.isfinite(Sigma)):
            raise ValueError("Sigma must be finite")
        self.dataset = dataset
        self.Sigma = Sigma
        self.h = h
        try:
            self._chol_Sigma = np.linalg.cholesky(Sigma)
        except np.linalg.LinAlgError:
            raise ValueError("Sigma must be symmetric positive-definite") from None
        self.Sigma_inv = np.linalg.inv(Sigma)
        # proposal covariance (1/2 + h) Sigma: its factor and log normalizing constant
        self._chol_prop = math.sqrt(0.5 + h) * self._chol_Sigma
        self._log_norm_prop = float(np.log(math.sqrt(math.tau) * np.diag(self._chol_prop)).sum())
        self._score = dataset.X.T @ (dataset.y - 0.5)
        self._beta_star: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.dataset.d

    @property
    def beta_star(self) -> np.ndarray:
        if self._beta_star is None:
            self._beta_star = map_estimate(self)
        return self._beta_star

    def laplace_covariance(self) -> np.ndarray:
        """Inverse curvature at the mode, the natural scale of the posterior."""
        return np.linalg.inv(neg_log_lik_hess(self.beta_star, self.dataset) + self.Sigma_inv)


def log_unnorm_posterior(beta: np.ndarray, posterior: LogitPosterior) -> float:
    """-neg_log_lik(beta) - 0.5 beta' Sigma^{-1} beta (no normalizing constant)."""
    quad = float(beta @ (posterior.Sigma_inv @ beta))
    return -neg_log_lik(beta, posterior.dataset) - 0.5 * quad


def map_estimate(posterior: LogitPosterior, tol: float = 1e-8, max_iter: int = 100) -> np.ndarray:
    """Posterior mode by damped Newton iteration.

    The objective neg_log_lik + quadratic penalty is strictly convex, so the
    mode is unique; iteration stops when the gradient norm is at most ``tol``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    ds = posterior.dataset
    beta = np.zeros(ds.d)
    obj = -log_unnorm_posterior(beta, posterior)
    for _ in range(max_iter):
        grad = neg_log_lik_grad(beta, ds) + posterior.Sigma_inv @ beta
        if float(np.linalg.norm(grad)) <= tol:
            return beta
        hess = neg_log_lik_hess(beta, ds) + posterior.Sigma_inv
        try:
            chol = np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            raise RuntimeError("Newton step failed: curvature matrix not SPD") from None
        step = np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
        scale = 1.0
        for _ in range(60):
            cand = beta - scale * step
            cand_obj = -log_unnorm_posterior(cand, posterior)
            if cand_obj <= obj:
                break
            scale *= 0.5
        beta, obj = cand, cand_obj
    grad = neg_log_lik_grad(beta, ds) + posterior.Sigma_inv @ beta
    if float(np.linalg.norm(grad)) <= tol:
        return beta
    raise RuntimeError(f"mode search did not reach gradient norm {tol} in {max_iter} steps")


def _matvecs(A: np.ndarray, vs: np.ndarray) -> np.ndarray:
    # A @ v for each row v of vs: one BLAS matrix-vector product per row, the
    # call a single v makes, so a row has the same bits alone or in a block
    # of any size
    return (A @ vs[:, :, None])[:, :, 0]


def _proposal_log_weights(posterior: LogitPosterior, betas: np.ndarray) -> np.ndarray:
    # -nll(beta) - beta' Sigma^-1 beta / 2 + r' Sigma_prop^-1 r / 2 + const
    # for each row, r = beta - beta* and Sigma_prop^-1 = Sigma^-1 / (1/2 + h)
    ds = posterior.dataset
    resid = betas - posterior.beta_star
    prior = np.sum(_matvecs(posterior.Sigma_inv, betas) * betas, axis=1)
    prop = np.sum(_matvecs(posterior.Sigma_inv, resid) * resid, axis=1) / (0.5 + posterior.h)
    out = 0.5 * (prop - prior) + posterior._log_norm_prop
    # The data term softplus(t) - y t is the softplus of u = (1 - 2y) t,
    # max(u, 0) + log1p(exp(-|u|)), computed in place with |u| clipped at 40:
    # past that the log1p term is below half an ulp of |u|, so the clip moves
    # only terms with u <= -40, each by under 4.3e-18, and exp never takes
    # its slow underflow path.  Passes of about 2**16 linear predictors
    # bound the (rows, n) temporaries.
    flip = 1.0 - 2.0 * ds.y
    rows = max(1, (1 << 16) // ds.n)
    for a in range(0, len(betas), rows):
        u = _matvecs(ds.X, betas[a : a + rows])
        u *= flip
        tail = np.abs(u)
        np.minimum(tail, 40.0, out=tail)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        np.maximum(u, 0.0, out=u)
        u += tail
        out[a : a + rows] -= np.sum(u, axis=1)
    return out


def _proposal_atoms(posterior: LogitPosterior, z: np.ndarray) -> np.ndarray:
    # beta* + L z for each row z of standard normals, L L' = (1/2 + h) Sigma
    return posterior.beta_star + _matvecs(posterior._chol_prop, z)


def proposal_sample(posterior: LogitPosterior, stream: RngStream) -> np.ndarray:
    """Draw from the mode-centered Gaussian proposal N(beta*, (1/2+h) Sigma)
    on the next d standard normals of ``stream``."""
    return _proposal_atoms(posterior, stream.gen.standard_normal(posterior.d)[None])[0]


def proposal_log_weight(posterior: LogitPosterior, beta: np.ndarray) -> float:
    """log of (unnormalized posterior / proposal density) at beta.

    The posterior's normalizer is unknown; self-normalization downstream
    cancels it.
    """
    return float(_proposal_log_weights(posterior, np.asarray(beta, dtype=float)[None])[0])


def _tilts(posterior: LogitPosterior, betas: np.ndarray) -> np.ndarray:
    # |x_i . beta| for each row of betas, row-stable as _matvecs is
    return np.abs(_matvecs(posterior.dataset.X, betas))


def _gibbs_betas(posterior: LogitPosterior, omega: np.ndarray, z: np.ndarray) -> np.ndarray:
    # beta = L^-T (L^-1 X'(y - 1/2) + z), L L' = X' Omega X + Sigma^-1, for
    # each row of omega (n latents) and z (d normals); numpy runs the stacked
    # products, factors and solves one row at a time, as for a single row
    X = posterior.dataset.X
    prec = np.swapaxes(X * omega[:, :, None], 1, 2) @ X + posterior.Sigma_inv
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        raise RuntimeError(
            "conditional precision factorization failed (ill-conditioned design?)"
        ) from None
    rhs = np.linalg.solve(chol, posterior._score) + z
    return np.linalg.solve(np.swapaxes(chol, 1, 2), rhs[:, :, None])[:, :, 0]


def pg_gibbs_step(stream: RngStream, beta: np.ndarray, posterior: LogitPosterior) -> np.ndarray:
    """One scan of the two-block Gibbs kernel; returns the next beta.

    The latents omega_i ~ PG(1, |x_i . beta|) are drawn independently.  One
    factor L L' = X' Omega X + Sigma^{-1} serves both the conditional mean
    and the Gaussian draw: beta = L^{-T} (L^{-1} X'(y - 1/2) + z).
    """
    omega = sample_polya_gamma_batch(stream, _tilts(posterior, np.asarray(beta)[None])[0])
    z = stream.gen.standard_normal(posterior.d)
    return _gibbs_betas(posterior, omega[None], z[None])[0]


# a Gibbs step's Polya-Gamma draws are keyed (_PG_KEY0, the step's last word)
_PG_KEY0 = fnv1a64("chain-pg")
# tilts per kernel pass: the sampler's cost is mostly per numpy call, and the
# stacked products hold a (rows, n, d) array (5 MB at d = 19); on the heart
# design 2**15 ran as fast as 2**16, whose peak RSS was 7 MB higher
_PG_PASS = 1 << 15


class LogitModel(ModelBundle):
    """Engine bundle: mode-centered proposal + Gibbs kernel + drift ball.

    An atom is beta* + L z for the first d standard normals z of its stream
    (numpy's ziggurat), so the model declares ``normals_per_atom = d``."""

    def __init__(self, posterior: LogitPosterior, r: float):
        if not r > 1.0:
            raise ValueError("r must exceed 1")
        self.posterior = posterior
        self.r = r
        self.constants = logit_gibbs_constants(
            posterior.dataset.X, posterior.dataset.y, posterior.Sigma, posterior.h, r
        )
        self.drift = self.constants["drift"]
        self.normals_per_atom = posterior.d
        self.words_per_step = posterior.d + 1
        posterior.beta_star  # force the mode before any worker forks

    def atoms(self, draws: np.ndarray) -> np.ndarray:
        return _proposal_atoms(self.posterior, draws)

    def log_weights(self, atoms: np.ndarray) -> np.ndarray:
        return _proposal_log_weights(self.posterior, atoms)

    def kernel_block(self, states: np.ndarray, words: np.ndarray) -> np.ndarray:
        """One Gibbs scan of each row of states.  Words 0..d-1 give z through
        the normal inverse CDF, and word d keys the step's Polya-Gamma draws:
        latent i is addressed by row i of the design (``CounterDraws``)."""
        post = self.posterior
        d, n = post.d, post.dataset.n
        z = ndtri(open_uniform(words[:, :d]))
        out = np.empty((len(states), d))
        rows = max(1, _PG_PASS // n)
        for a in range(0, len(states), rows):
            tilts = _tilts(post, states[a : a + rows])
            k = len(tilts)
            draws = CounterDraws(
                _PG_KEY0, np.repeat(words[a : a + k, d], n), np.tile(np.arange(n), k)
            )
            omega = sample_polya_gamma_batch(draws, tilts.ravel()).reshape(k, n)
            out[a : a + k] = _gibbs_betas(post, omega, z[a : a + k])
        return out

    def f_values(self, states: np.ndarray) -> np.ndarray:
        return 1.0 + np.sum(states * states, axis=1)
