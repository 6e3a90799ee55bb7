"""Many-short-chains estimation engine.

Builds a weighted restart distribution from importance-sampling proposals,
runs M independent Markov chain excursions truncated at the first return to
the drift set, and averages the per-excursion sums.  All randomness flows
through per-atom and per-chain streams derived from one master seed, so a
run is bit-reproducible for any worker count.
"""
from __future__ import annotations

import multiprocessing
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import bounds
from .rng import CategoricalSampler, RngStream, derive_stream

__all__ = [
    "DriftSpec",
    "ModelBundle",
    "WeightedAtoms",
    "MscResult",
    "CapExceededError",
    "WeightError",
    "build_initial_distribution",
    "run_excursion",
    "msc_estimate",
    "coordinate_functions",
    "resolve_workers",
]

DEFAULT_EXCURSION_CAP = 1_000_000

# atom i of the restart distribution is drawn on stream (master_seed, ATOM_LABEL, i)
ATOM_LABEL = "init"


class CapExceededError(RuntimeError):
    """An excursion failed to return to the drift set within the step cap."""

    def __init__(self, cap: int, chain_index: int | None = None):
        self.cap = cap
        self.chain_index = chain_index
        where = "" if chain_index is None else f" (chain {chain_index})"
        super().__init__(
            f"no return to the drift set within {cap} steps{where}; "
            "check the drift constants and radius"
        )

    def __reduce__(self):  # survive the trip back from a worker process
        return (CapExceededError, (self.cap, self.chain_index))


class WeightError(ValueError):
    """Importance weights are unusable (all zero, or non-finite)."""


@dataclass(frozen=True)
class DriftSpec:
    """Constants (gamma, K, R) of a verified drift inequality.

    The radius R must exceed K / (1 - gamma) so the effective rate
    gamma + K/R stays below one.
    """

    gamma: float
    K: float
    R: float

    def __post_init__(self):
        bounds._check_drift(self.gamma, self.K, self.R)

    @property
    def effective_rate(self) -> float:
        """gamma + K/R, the contraction rate on the sublevel-set complement."""
        return bounds.effective_rate(self.gamma, self.K, self.R)


class ModelBundle(ABC):
    """A pluggable target: proposal, weight, kernel, and drift data.

    The kernel must be time-homogeneous (depend only on the current state and
    the stream) and the drift function value must be >= 1 everywhere.
    """

    drift: DriftSpec

    @abstractmethod
    def propose(self, stream: RngStream) -> np.ndarray:
        """Draw one state from the importance-sampling proposal."""

    @abstractmethod
    def log_weight(self, state: np.ndarray) -> float:
        """Log of d(target)/d(proposal) at ``state``, up to an additive constant."""

    @abstractmethod
    def kernel_step(self, stream: RngStream, state: np.ndarray) -> np.ndarray:
        """One Markov transition from ``state``."""

    @abstractmethod
    def f_value(self, state: np.ndarray) -> float:
        """Drift-function value at ``state`` (always >= 1)."""

    def propose_block(
        self, master_seed: int, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Atoms lo..hi-1 as an (hi - lo, d) array, and their log-weights.

        Atom i is ``propose`` on stream (master_seed, ATOM_LABEL, i).  A model
        may override this with a vectorised draw that keeps that addressing.
        """
        stream = derive_stream(master_seed, ATOM_LABEL, lo)
        atoms = []
        logw = np.empty(hi - lo)
        for i in range(lo, hi):
            atom = self.propose(stream.rekey(i))
            atoms.append(atom)
            logw[i - lo] = self.log_weight(atom)
        return np.asarray(atoms), logw


@dataclass(frozen=True)
class WeightedAtoms:
    """The random restart distribution: proposal atoms with normalized weights."""

    atoms: np.ndarray  # (N, d)
    norm_weights: np.ndarray  # (N,), nonnegative, sums to 1
    ess: float
    w2_hat: float  # estimate of the weight second moment under the target
    N: int


@dataclass(frozen=True)
class MscResult:
    """Averaged excursion sums with conditional-on-atoms standard errors."""

    estimates: np.ndarray
    stderrs: np.ndarray
    M: int
    N: int
    mean_tau: float
    p95_tau: float
    skip_fraction: float
    ess: float
    w2_hat: float
    taus: np.ndarray = field(default=None, repr=False)  # per-chain return times


def resolve_workers(workers: int | None) -> int:
    """Worker count: explicit argument, else $MSC_WORKERS, else cpu count."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return workers
    env = os.environ.get("MSC_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"MSC_WORKERS must be a positive integer (got {env!r})")
    return workers


def _block_ranges(total: int, blocks: int) -> list[tuple[int, int]]:
    size, rem = divmod(total, blocks)
    out = []
    lo = 0
    for i in range(blocks):
        hi = lo + size + (1 if i < rem else 0)
        if hi > lo:
            out.append((lo, hi))
        lo = hi
    return out


# Worker context, installed in this module global before the pool forks so
# workers inherit it (atoms and test functions included) without pickling.
_CTX: dict = {}


def _map_blocks(
    fn: Callable[[tuple[int, int]], tuple[np.ndarray, ...]],
    total: int,
    ctx: dict,
    workers: int | None,
) -> tuple[np.ndarray, ...]:
    """Run ``fn`` over blocks of range(total) and stack its arrays in block order.

    Blocks arrive in order and are copied straight into outputs allocated
    from the first block's shapes, so no list of blocks is held next to the
    result.  The pool always forks, whatever the default start method.

    The pool is closed and joined, never terminated: when a block raises,
    the other workers may still be writing results, and ``Pool.terminate``
    can kill one while it holds the result queue's lock, which deadlocks
    the pool's task handler.  Joining lets the queued blocks drain first.
    Only an interrupt terminates the pool: Ctrl-C reaches the workers too,
    their blocks never report back, and a join would wait for them forever.
    """
    global _CTX
    nworkers = min(resolve_workers(workers), total)
    ranges = _block_ranges(total, min(nworkers * 4, total))
    _CTX = ctx
    pool = multiprocessing.get_context("fork").Pool(nworkers) if nworkers > 1 else None
    try:
        parts = pool.imap(fn, ranges) if pool else map(fn, ranges)
        for (lo, hi), part in zip(ranges, parts):
            if lo == 0:
                outs = tuple(np.empty((total, *a.shape[1:]), a.dtype) for a in part)
            for out, a in zip(outs, part):
                out[lo:hi] = a
    except KeyboardInterrupt:
        if pool:
            pool.terminate()
        raise
    finally:
        if pool:
            pool.close()
            pool.join()
    return outs


def _propose_block(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    return _CTX["model"].propose_block(_CTX["master_seed"], *span)


def build_initial_distribution(
    model: ModelBundle,
    N: int,
    master_seed: int,
    workers: int | None = None,
) -> WeightedAtoms:
    """Draw N proposal atoms on streams (ATOM_LABEL, i) and self-normalize their weights.

    Log-weights may be -inf (zero-weight atoms) but not NaN or +inf, and not
    all -inf.  Normalization is done in the log domain with a max shift, so
    weights known only up to a constant are fine.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    ctx = {"model": model, "master_seed": master_seed}
    atoms, logw = _map_blocks(_propose_block, N, ctx, workers)
    return _atoms_from_log_weights(atoms, logw)


def _atoms_from_log_weights(atoms: np.ndarray, logw: np.ndarray) -> WeightedAtoms:
    if np.any(np.isnan(logw)) or np.any(logw == np.inf):
        bad = int(np.flatnonzero(np.isnan(logw) | (logw == np.inf))[0])
        raise WeightError(f"non-finite log-weight at atom {bad}: {logw[bad]!r}")
    shift = float(np.max(logw))
    if shift == -np.inf:
        raise WeightError("all importance weights are zero")
    w = np.exp(logw - shift)
    total = float(w.sum())
    norm = w / total
    sum_sq = float(np.dot(norm, norm))
    ess = 1.0 / sum_sq
    return WeightedAtoms(
        atoms=atoms,
        norm_weights=norm,
        ess=ess,
        w2_hat=len(norm) * sum_sq,
        N=len(norm),
    )


def run_excursion(
    model: ModelBundle,
    start: np.ndarray,
    stream: RngStream,
    cap: int,
    functions: Sequence[Callable[[np.ndarray], float]],
) -> tuple[int, np.ndarray]:
    """Run one excursion from ``start`` until the chain re-enters the drift set.

    Returns (tau, sums).  A start outside the set is skipped: tau = 0 and the
    sums are zero.  Sums accumulate the test functions at steps 1..tau
    inclusive (the entering step counts, the start does not).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    nfun = len(functions)
    sums = np.zeros(nfun)
    if model.f_value(start) > model.drift.R:
        return 0, sums
    x = start
    for k in range(1, cap + 1):
        x = model.kernel_step(stream, x)
        for j in range(nfun):
            sums[j] += functions[j](x)
        if model.f_value(x) <= model.drift.R:
            return k, sums
    raise CapExceededError(cap)


def _excursion_block(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = span
    model = _CTX["model"]
    sampler = _CTX["sampler"]
    atoms = _CTX["atoms"]
    functions = _CTX["functions"]
    cap = _CTX["cap"]
    sums = np.empty((hi - lo, len(functions)))
    taus = np.zeros(hi - lo, dtype=np.int64)
    stream = derive_stream(_CTX["master_seed"], "chain", lo)
    for m in range(lo, hi):
        stream.rekey(m)
        start = atoms[sampler.sample(stream)]
        try:
            taus[m - lo], sums[m - lo] = run_excursion(model, start, stream, cap, functions)
        except CapExceededError as err:
            raise CapExceededError(err.cap, chain_index=m) from None
    return sums, taus


def msc_estimate(
    model: ModelBundle,
    atoms: WeightedAtoms,
    M: int,
    functions: Sequence[Callable[[np.ndarray], float]],
    master_seed: int,
    cap: int = DEFAULT_EXCURSION_CAP,
    workers: int | None = None,
) -> MscResult:
    """Average M independent excursion sums started from the weighted atoms.

    Chain m draws its start (one uniform) and runs its excursion on stream
    ("chain", m); the final reduction runs over the sums in chain order, so
    the result depends only on (master_seed, N, M) and never on the worker
    count.
    """
    if M < 2:
        raise ValueError("M must be >= 2 (a sample standard error needs two sums)")
    sampler = CategoricalSampler(atoms.norm_weights)
    ctx = {
        "model": model,
        "sampler": sampler,
        "atoms": atoms.atoms,
        "functions": list(functions),
        "cap": cap,
        "master_seed": master_seed,
    }
    sums, taus = _map_blocks(_excursion_block, M, ctx, workers)

    # sums is in chain order whatever the worker count, so this reduction and
    # the output files are byte-reproducible; the squared deviations overwrite
    # sums instead of filling an (M, functions) copy as ndarray.std would
    estimates = sums.mean(axis=0)
    sums -= estimates
    std = np.sqrt(np.square(sums, out=sums).sum(axis=0) / (M - 1))
    return MscResult(
        estimates=estimates,
        stderrs=std / np.sqrt(M),
        M=M,
        N=atoms.N,
        mean_tau=float(taus.mean()),
        p95_tau=float(np.percentile(taus, 95)),
        skip_fraction=float(1.0 - (taus > 0).mean()),
        ess=atoms.ess,
        w2_hat=atoms.w2_hat,
        taus=taus,
    )


class _Coordinate:
    """Extract one coordinate of the state vector (picklable test function)."""

    __slots__ = ("j",)

    def __init__(self, j: int):
        self.j = j

    def __call__(self, x: np.ndarray) -> float:
        return float(x[self.j])


def coordinate_functions(d: int) -> list[Callable[[np.ndarray], float]]:
    """The d coordinate-projection test functions."""
    return [_Coordinate(j) for j in range(d)]
