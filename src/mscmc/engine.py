"""Many-short-chains estimation engine.

Builds a weighted restart distribution from importance-sampling proposals,
runs M independent Markov chain excursions truncated at the first return to
the drift set, and averages the per-excursion sums.  All randomness flows
through per-atom and per-chain streams derived from one master seed, so a
run is bit-reproducible for any worker count.  Every kernel reads a fixed
number of words per step, so each block of chains steps together on words
addressed by (chain, step).
"""
from __future__ import annotations

import math
import mmap
import operator
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .bounds import DriftSpec
from .rng import CategoricalSampler, RngStream, derive_stream, stream_words

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

# atom i of the restart distribution is drawn on stream (master_seed, ATOM_LABEL, i),
# and chain m runs on stream (master_seed, CHAIN_LABEL, m)
ATOM_LABEL = "init"
CHAIN_LABEL = "chain"

# words per stream_words pass in the restart chunks and the excursion loop:
# bounds their temporaries (at d = 16, 1.4 MB below those of 2**16-word
# passes, at the same speed) and lets a few stragglers draw many steps at once
_WINDOW_WORDS = 1 << 15


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
    """The weighted restart atoms are unusable: their weights are all zero or
    non-finite, or no chain started inside the drift set."""


class ModelBundle(ABC):
    """A pluggable target: proposal, weight, kernel, and drift data.

    Each method maps a block of rows and must give a row the same bits in a
    block of any size (numpy's ``@`` does not; a sum in a fixed order does).
    The proposal declares its per-atom draw, exactly one of
    ``words_per_atom`` raw words or ``normals_per_atom`` standard normals
    (numpy's ziggurat) from the start of its stream, and ``atoms`` maps a
    block of those draws, one row per atom, so the engine draws the restart
    in chunks.  The kernel must be time-homogeneous and the drift function
    value >= 1, and it reads exactly ``words_per_step`` raw words of its
    stream per step, so the engine steps a block's chains together on their
    stream words.
    """

    drift: DriftSpec

    # The per-atom draw: a model sets exactly one of these to a positive int.
    words_per_atom: int | None = None
    normals_per_atom: int | None = None

    # Raw words of its stream that one kernel step reads: a positive int.
    words_per_step: int

    @abstractmethod
    def log_weights(self, atoms: np.ndarray) -> np.ndarray:
        """Log of d(target)/d(proposal) at each row, up to one additive constant."""

    @abstractmethod
    def f_values(self, states: np.ndarray) -> np.ndarray:
        """Drift-function value of each row of ``states`` (always >= 1)."""

    def atoms(self, draws: np.ndarray) -> np.ndarray:
        """Proposal draws, one row per row of ``draws``: (n, words_per_atom)
        uint64 words or (n, normals_per_atom) standard normals."""
        raise NotImplementedError

    @abstractmethod
    def kernel_block(self, states: np.ndarray, words: np.ndarray) -> np.ndarray:
        """One step of each row of ``states``, row r driven by the words ``words[r]``."""

    def kernel_step(self, stream: RngStream, state: np.ndarray) -> np.ndarray:
        """One Markov transition of one chain, on the next words of ``stream``."""
        words = stream.gen.bit_generator.random_raw(self.words_per_step)
        return self.kernel_block(np.asarray(state)[None], words[None])[0]

    def propose(self, stream: RngStream) -> np.ndarray:
        """One proposal draw, ``atoms`` of the next per-atom draw of ``stream``."""
        if self.words_per_atom is not None:
            draw = stream.gen.bit_generator.random_raw(self.words_per_atom)
        elif self.normals_per_atom is not None:
            draw = stream.gen.standard_normal(self.normals_per_atom)
        else:
            raise NotImplementedError
        return self.atoms(draw[None])[0]

    def log_weight(self, state: np.ndarray) -> float:
        return float(self.log_weights(np.asarray(state)[None])[0])

    def f_value(self, state: np.ndarray) -> float:
        return float(self.f_values(np.asarray(state)[None])[0])


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
    mean_tau: float
    p95_tau: float
    skip_fraction: float
    taus: np.ndarray = field(repr=False)  # per-chain return times


def resolve_workers(workers: int | None) -> int:
    """Worker count: the explicit argument (>= 1), else the number of CPUs in
    this process's affinity mask (os.cpu_count() where there is none)."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_ranges(total: int, blocks: int) -> list[tuple[int, int]]:
    # blocks <= total spans of range(total), the first total % blocks one longer
    size, rem = divmod(total, blocks)
    edges = [i * size + min(i, rem) for i in range(blocks + 1)]
    return list(zip(edges, edges[1:]))


# a worker's block function, set in the worker by the executor's initializer
# and never in the parent, so nothing holds a stage's inputs once it returns
_worker_fn: Callable | None = None


def _install(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_installed(span: tuple[int, int]) -> None:
    _worker_fn(span)


def _fill(fn: Callable, outs: tuple[np.ndarray, ...], span: tuple[int, int]) -> None:
    # run the block function on its block's rows of the stage's outputs
    lo, hi = span
    fn(*(out[lo:hi] for out in outs), span)


def _output(shape: tuple[int, ...], dtype) -> np.ndarray:
    # an uninitialised array in anonymous shared memory, so that a forked
    # worker writes the parent's rows; a MemoryError if it cannot be allocated
    count, dtype = math.prod(shape), np.dtype(dtype)
    nbytes = count * dtype.itemsize
    try:
        buf = mmap.mmap(-1, max(1, nbytes))
    except (MemoryError, OverflowError, OSError, ValueError) as err:
        raise MemoryError(f"cannot allocate a {shape} {dtype} array ({nbytes} bytes)") from err
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _raise_malloc_thresholds() -> None:
    # glibc's malloc maps every request of 128 KiB or more afresh and trims
    # the heap top beyond 128 KiB, until the process frees a mapped chunk:
    # then it raises the first limit to that chunk's size and the second to
    # twice it.  Freeing one untouched 2 MiB array (no page is faulted in)
    # lets the passes' temporaries of a few hundred KiB reuse heap pages
    # instead of faulting in fresh ones on every pass: AR at d = 16 with
    # N = M = 6e4 on one worker took 2.4k page faults in its two stages
    # against 36k without it (glibc 2.36, x86-64)
    np.empty(1 << 18)


def _map_blocks(
    fn: Callable, total: int, workers: int | None, *outputs: tuple
) -> tuple[np.ndarray, ...]:
    """Run ``fn``, a stage's block function with the stage's inputs bound,
    over blocks of range(total), and return the stage's output arrays.

    ``outputs`` gives each output's (shape, dtype).  The arrays are
    allocated before any worker forks, and ``fn`` writes a block's rows in
    place: it is called as ``fn(*rows, (lo, hi))``, ``rows`` being each
    output's rows lo..hi-1.  The arrays live in anonymous shared memory, and
    at every worker count each worker runs one contiguous block into them.
    At one worker that worker is this process.  At more, the stage fans out
    on a ``ProcessPoolExecutor``: a worker writes the parent's rows and
    sends back nothing but an error.  The executor forks whatever the
    default start method, both to share that memory and to hand ``fn`` to
    its workers, as the initializer's argument, without pickling it.

    Block errors are raised in block order, and a worker that dies raises
    ``BrokenProcessPool``.  Ctrl-C ends the stage at once: each worker
    reports the interrupt from its one block and has no other queued.
    """
    nworkers = min(resolve_workers(workers), total)
    _raise_malloc_thresholds()
    outs = tuple(_output(shape, dtype) for shape, dtype in outputs)
    fn = partial(_fill, fn, outs)
    spans = _block_ranges(total, nworkers)
    if nworkers == 1:
        fn(spans[0])
        return outs
    # the pool's modules load only for a stage that forks
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(nworkers, context, _install, (fn,)) as pool:
        for _ in pool.map(_call_installed, spans):
            pass
    return outs


def _check_words(model: ModelBundle, name: str) -> None:
    # a per-step or per-atom draw count must be a positive int; checked
    # before any pool forks
    w = getattr(model, name, None)
    if not isinstance(w, (int, np.integer)) or w < 1:
        raise TypeError(f"{name} must be a positive int (got {w!r})")


def _check_atom_draw(model: ModelBundle) -> None:
    # a proposal declares exactly one per-atom draw, a positive count
    named = [n for n in ("words_per_atom", "normals_per_atom") if getattr(model, n) is not None]
    if len(named) != 1:
        raise TypeError("a proposal sets exactly one of words_per_atom and normals_per_atom")
    _check_words(model, named[0])


def _atom_draws(model: ModelBundle, master_seed: int, lo: int, n: int) -> np.ndarray:
    # the per-atom draws of atoms lo..lo+n-1, one row each: the first raw
    # words of each stream (ATOM_LABEL, i), read by counter, or its first
    # standard normals, drawn into the row
    if model.words_per_atom is not None:
        index = np.uint64(lo) + np.arange(n, dtype=np.uint64)
        return stream_words(master_seed, ATOM_LABEL, index, model.words_per_atom)
    z = np.empty((n, model.normals_per_atom))
    stream = derive_stream(master_seed, ATOM_LABEL, lo)
    for r, row in enumerate(z):
        stream.rekey(lo + r).gen.standard_normal(out=row)
    return z


def _propose_block(
    model: ModelBundle,
    master_seed: int,
    atoms: np.ndarray,
    logw: np.ndarray,
    span: tuple[int, int],
) -> None:
    # atoms lo..hi-1 and their log-weights into the block's rows atoms and
    # logw, in chunks of about _WINDOW_WORDS draws
    lo, hi = span
    rows = max(1, _WINDOW_WORDS // (model.words_per_atom or model.normals_per_atom))
    for a in range(0, hi - lo, rows):
        x = model.atoms(_atom_draws(model, master_seed, lo + a, min(rows, hi - lo - a)))
        atoms[a : a + len(x)] = x
        logw[a : a + len(x)] = model.log_weights(x)


def build_initial_distribution(
    model: ModelBundle,
    N: int,
    master_seed: int,
    workers: int | None = None,
) -> WeightedAtoms:
    """Draw N proposal atoms on streams (ATOM_LABEL, i) and self-normalize their weights.

    Atom i is ``atoms`` of the per-atom draw at the start of its stream, the
    atom that ``propose`` gives on that stream.

    Log-weights may be -inf (zero-weight atoms) but not NaN or +inf, and not
    all -inf.  Normalization is done in the log domain with a max shift, so
    weights known only up to a constant are fine.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _check_atom_draw(model)
    # the atom width, from the one-row atoms call that propose makes
    d = model.atoms(_atom_draws(model, master_seed, 0, 1)).shape[1]
    atoms, logw = _map_blocks(
        partial(_propose_block, model, master_seed), N, workers, ((N, d), float), ((N,), float)
    )
    return _atoms_from_log_weights(atoms, logw)


def _atoms_from_log_weights(atoms: np.ndarray, logw: np.ndarray) -> WeightedAtoms:
    # normalizes logw in place: it becomes the normalized weights
    if np.any(np.isnan(logw)) or np.any(logw == np.inf):
        bad = int(np.flatnonzero(np.isnan(logw) | (logw == np.inf))[0])
        raise WeightError(f"non-finite log-weight at atom {bad}: {logw[bad]!r}")
    shift = float(np.max(logw))
    if shift == -np.inf:
        raise WeightError("all importance weights are zero")
    logw -= shift
    norm = np.exp(logw, out=logw)
    norm /= float(norm.sum())
    # einsum, not np.dot: BLAS may split a long dot product over threads,
    # which changes its rounding and wakes a thread pool
    sum_sq = float(np.einsum("i,i->", norm, norm))
    ess = 1.0 / sum_sq
    return WeightedAtoms(
        atoms=atoms,
        norm_weights=norm,
        ess=ess,
        w2_hat=len(norm) * sum_sq,
        N=len(norm),
    )


def _values(functions: Sequence[Callable], xs: np.ndarray) -> np.ndarray:
    # (n, len(functions)): each test function maps the (n, d) block xs to n
    # values, written as a row of the transpose (a contiguous copy)
    vals = np.empty((len(functions), len(xs)))
    for j, f in enumerate(functions):
        v = f(xs)
        if np.shape(v) != (len(xs),):
            raise TypeError(
                f"test function {j} must map an (n, d) block of states to n values; "
                f"at n = {len(xs)} it gave shape {np.shape(v)}"
            )
        vals[j] = v
    return vals.T


def run_excursion(
    model: ModelBundle,
    start: np.ndarray,
    stream: RngStream,
    cap: int,
    functions: Sequence[Callable[[np.ndarray], np.ndarray]],
) -> tuple[int, np.ndarray]:
    """Run one excursion from ``start`` until the chain re-enters the drift set.

    Returns (tau, sums).  A start outside the set is skipped: tau = 0 and the
    sums are zero.  Sums accumulate the test functions, each called on a
    one-row block, at steps 1..tau inclusive (the entering step counts, the
    start does not).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    sums = np.zeros(len(functions))
    if model.f_value(start) > model.drift.R:
        return 0, sums
    x = start
    for k in range(1, cap + 1):
        x = model.kernel_step(stream, x)
        sums += _values(functions, x[None])[0]
        if model.f_value(x) <= model.drift.R:
            return k, sums
    raise CapExceededError(cap)


def _excursion_block(
    model: ModelBundle,
    atoms: np.ndarray,
    sampler: CategoricalSampler,
    functions: Sequence[Callable[[np.ndarray], np.ndarray]],
    cap: int,
    master_seed: int,
    sums: np.ndarray,
    taus: np.ndarray,
    span: tuple[int, int],
) -> None:
    # The chains lo..hi-1, stepped together in rounds, into the block's
    # rows sums and taus.  Word 0 of stream (CHAIN_LABEL, m) picks the start
    # exactly as CategoricalSampler.sample does, and step k reads words
    # 1 + (k-1)w .. kw, so every chain retires with the tau and sums that
    # run_excursion gives it on that stream.
    # Round 0 creates the chains: it picks their starts and takes one step.
    # Each later round draws a window of steps for the live chains.  A round
    # runs in stream_words passes of about _WINDOW_WORDS words: many steps
    # for a few stragglers, or one step for a chunk of rows.
    lo, hi = span
    w = model.words_per_step
    R = model.drift.R
    sums[...] = 0.0
    taus[...] = 0

    def advance(idx, xs, done, steps, words=None):
        # steps done+1..done+steps of chains idx (rows of the block) from
        # states xs, on one window of their words, read here unless given.
        # Returns the chains still outside the set and their states; each
        # pass's arrays die with this frame
        if words is None:
            words = stream_words(master_seed, CHAIN_LABEL, lo + idx, steps * w, 1 + done * w)
        pos = np.arange(idx.size)  # each live chain's row of words
        for k in range(done + 1, done + steps + 1):
            c = (k - done - 1) * w
            xs = model.kernel_block(xs, words[pos, c : c + w])
            sums[idx] += _values(functions, xs)
            back = model.f_values(xs) <= R
            if back.any():
                taus[idx[back]] = k
                idx, xs, pos = idx[~back], xs[~back], pos[~back]
                if not idx.size:
                    break
        return idx, xs

    def start(a, b):
        # round 0 for chains a..b-1: word 0 picks each start, and only the
        # chains that start inside the set take step 1 (tau = 0 for the rest)
        idx = np.arange(a, b)
        words = stream_words(master_seed, CHAIN_LABEL, lo + idx, 1 + w)
        xs = atoms[sampler.pick_words(words[:, 0])]
        live = np.flatnonzero(model.f_values(xs) <= R)
        return advance(idx[live], xs[live], 0, 1, words[live, 1:])

    rows = max(1, _WINDOW_WORDS // (1 + w))
    kept = [start(a, min(a + rows, hi - lo)) for a in range(0, hi - lo, rows)]
    done = 1  # steps every live chain has taken
    while True:
        idx = np.concatenate([i for i, _ in kept])  # the live chains
        xs = np.concatenate([x for _, x in kept])  # their states
        del kept  # held only in idx and xs from here on
        if not idx.size:
            return
        if done == cap:
            raise CapExceededError(cap, chain_index=lo + int(idx[0]))
        steps = min(max(1, _WINDOW_WORDS // (idx.size * w)), cap - done)
        rows = max(1, _WINDOW_WORDS // (steps * w))
        kept = [
            advance(idx[a : a + rows], xs[a : a + rows], done, steps)
            for a in range(0, idx.size, rows)
        ]
        done += steps


def msc_estimate(
    model: ModelBundle,
    atoms: WeightedAtoms,
    M: int,
    functions: Sequence[Callable[[np.ndarray], np.ndarray]],
    master_seed: int,
    cap: int = DEFAULT_EXCURSION_CAP,
    workers: int | None = None,
) -> MscResult:
    """Average M independent excursion sums started from the weighted atoms.

    Chain m draws its start (one uniform) and runs its excursion on stream
    (CHAIN_LABEL, m); the final reduction runs over the sums in chain order,
    so the result depends only on (master_seed, N, M) and never on the worker
    count.  Each block's chains step together, each with the tau and sums
    that run_excursion gives it on its stream.  Each test function maps an
    (n, d) block of states to n values and must give a row the same value
    alone or in a block; one that returns anything else raises TypeError.
    """
    _check_words(model, "words_per_step")
    if M < 2:
        raise ValueError("M must be >= 2 (a sample standard error needs two sums)")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    sampler = CategoricalSampler(atoms.norm_weights)
    functions = list(functions)
    fn = partial(_excursion_block, model, atoms.atoms, sampler, functions, cap, master_seed)
    sums, taus = _map_blocks(fn, M, workers, ((M, len(functions)), float), ((M,), np.int64))
    if not taus.any():
        raise WeightError(f"all {M} chains started outside the drift set, so none ran")

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
        mean_tau=float(taus.mean()),
        p95_tau=float(np.percentile(taus, 95)),
        skip_fraction=float(1.0 - (taus > 0).mean()),
        taus=taus,
    )


def coordinate_functions(d: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """The d coordinate-projection test functions: entry j maps a row to its
    coordinate j and an (n, d) block to its column j (picklable)."""
    return [operator.itemgetter((..., j)) for j in range(d)]
