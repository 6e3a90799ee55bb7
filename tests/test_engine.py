import gc
import math
import mmap
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import weakref
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mscmc
from mscmc import engine
from mscmc.ar import ArConfig, ArModel
from mscmc.engine import (
    CapExceededError,
    DriftSpec,
    ModelBundle,
    WeightError,
    _atoms_from_log_weights,
    build_initial_distribution,
    coordinate_functions,
    msc_estimate,
    run_excursion,
)
from mscmc.logit import LogitModel
from mscmc.rng import CategoricalSampler, derive_stream


def in_shared_memory(a: np.ndarray) -> bool:
    """Whether the array's memory is an anonymous mmap, as a stage's outputs
    are at every worker count."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap)


class TestDriftSpec:
    def test_radius_boundary_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(gamma=0.5, K=1.0, R=2.0)  # R == K/(1-gamma)

    def test_gamma_range(self):
        DriftSpec(gamma=0.0, K=1.0, R=2.0)  # zero-rate drift is legitimate
        with pytest.raises(ValueError):
            DriftSpec(gamma=1.0, K=1.0, R=99.0)
        with pytest.raises(ValueError):
            DriftSpec(gamma=-0.1, K=1.0, R=99.0)

    def test_derived_constants(self):
        spec = DriftSpec(gamma=0.81, K=0.57, R=4.0)
        assert spec.effective_rate == pytest.approx(0.9525)
        assert spec.amplitude == pytest.approx(3.38)

    def test_one_class(self):
        from mscmc import bounds

        assert DriftSpec is bounds.DriftSpec is mscmc.DriftSpec


class ConstantWeightModel(ModelBundle):
    """Uniform proposal on [0,1), flat weights, kernel contracts to zero."""

    words_per_atom = words_per_step = 1

    def __init__(self):
        self.drift = DriftSpec(gamma=0.5, K=1.0, R=3.0)

    def atoms(self, words):
        return (words >> np.uint64(11)) * 2.0**-53  # Generator.random() of each word

    def log_weights(self, atoms):
        return np.zeros(len(atoms))

    def kernel_block(self, states, words):
        return 0.5 * states

    def f_values(self, states):
        return 1.0 + np.sum(states * states, axis=1)


class SingletonModel(ModelBundle):
    """One absorbing point; every excursion returns immediately."""

    words_per_atom = words_per_step = 1

    def __init__(self):
        self.drift = DriftSpec(gamma=0.5, K=1.0, R=3.0)

    def atoms(self, words):
        return np.zeros((len(words), 1))

    def log_weights(self, atoms):
        return np.zeros(len(atoms))

    def kernel_block(self, states, words):
        return np.zeros((len(states), 1))

    def f_values(self, states):
        return np.ones(len(states))


class TwoStepCycleModel(SingletonModel):
    """Deterministic 0 -> 5 -> 0 cycle; excursions from 0 always last 2 steps."""

    def kernel_block(self, states, words):
        return np.where(states == 0.0, 5.0, 0.0)

    def f_values(self, states):
        return 1.0 + np.sum(states * states, axis=1)


class NeverReturnModel(SingletonModel):
    def kernel_block(self, states, words):
        return np.full((len(states), 1), 10.0)

    def f_values(self, states):
        return 1.0 + np.sum(states * states, axis=1)


class TestBuildInitialDistribution:
    def test_flat_weights_are_uniform(self):
        atoms = build_initial_distribution(ConstantWeightModel(), 64, master_seed=3, workers=1)
        assert np.all(atoms.norm_weights == 1.0 / 64)
        assert atoms.ess == pytest.approx(64.0)
        assert atoms.w2_hat == pytest.approx(1.0)

    def test_ar_balanced_proposal_weights_uniform(self):
        model = ArModel(ArConfig(rho=0.9, d=2, h=0.5, r=1.5))
        atoms = build_initial_distribution(model, 50, master_seed=3, workers=1)
        assert atoms.norm_weights == pytest.approx(np.full(50, 0.02), abs=1e-15)

    def test_single_atom(self):
        atoms = build_initial_distribution(ConstantWeightModel(), 1, master_seed=3, workers=1)
        assert atoms.norm_weights.tolist() == [1.0]
        assert atoms.ess == 1.0

    def test_atoms_use_per_index_streams(self):
        atoms = build_initial_distribution(ConstantWeightModel(), 10, master_seed=7, workers=1)
        for i in range(10):
            expect = derive_stream(7, "init", i).gen.random()
            assert atoms.atoms[i, 0] == expect

    def test_worker_count_does_not_change_result(self):
        a = build_initial_distribution(ConstantWeightModel(), 101, master_seed=5, workers=1)
        b = build_initial_distribution(ConstantWeightModel(), 101, master_seed=5, workers=4)
        assert np.array_equal(a.atoms, b.atoms)
        assert np.array_equal(a.norm_weights, b.norm_weights)

    def test_invalid_N(self):
        with pytest.raises(ValueError):
            build_initial_distribution(ConstantWeightModel(), 0, master_seed=1)


class TestWeightNormalization:
    def test_two_atom_arithmetic(self):
        atoms = _atoms_from_log_weights(np.zeros((2, 1)), np.array([math.log(2.0), 0.0]))
        assert atoms.norm_weights == pytest.approx([2 / 3, 1 / 3], rel=1e-15)
        assert atoms.ess == pytest.approx(1.8, rel=1e-12)
        assert atoms.w2_hat == pytest.approx(2 / 1.8, rel=1e-12)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(WeightError, match="all importance weights"):
            _atoms_from_log_weights(np.zeros((3, 1)), np.full(3, -np.inf))

    def test_nan_and_posinf_rejected(self):
        with pytest.raises(WeightError, match="atom 1"):
            _atoms_from_log_weights(np.zeros((3, 1)), np.array([0.0, np.nan, 0.0]))
        with pytest.raises(WeightError, match="atom 2"):
            _atoms_from_log_weights(np.zeros((3, 1)), np.array([0.0, 0.0, np.inf]))

    def test_some_zero_weights_allowed(self):
        atoms = _atoms_from_log_weights(np.zeros((3, 1)), np.array([0.0, -np.inf, 0.0]))
        assert atoms.norm_weights == pytest.approx([0.5, 0.0, 0.5])

    @given(
        st.lists(
            st.one_of(st.floats(-700, 700), st.just(-math.inf)),
            min_size=1,
            max_size=200,
        ).filter(lambda ws: any(w != -math.inf for w in ws))
    )
    @settings(max_examples=200)
    def test_normalization_invariants(self, logw):
        atoms = _atoms_from_log_weights(np.zeros((len(logw), 1)), np.array(logw))
        n = len(logw)
        assert abs(atoms.norm_weights.sum() - 1.0) <= 1e-12 * n
        assert np.all(atoms.norm_weights >= 0)
        assert 1.0 <= atoms.ess <= n * (1 + 1e-12)
        assert atoms.w2_hat == pytest.approx(n / atoms.ess, rel=1e-12)

    def test_ess_independent_of_blas_threads(self):
        # numpy loads before mscmc, so no pin of the BLAS pool makes the two
        # children agree: a threaded dot product splits its sum, and changes
        # the last bits of ess and w2_hat at N = 1e5
        src = os.path.dirname(os.path.dirname(os.path.abspath(mscmc.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", ESS_SCRIPT], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]


ESS_SCRIPT = """
import numpy as np

from mscmc.ar import ArConfig, ArModel
from mscmc.engine import build_initial_distribution

model = ArModel(ArConfig(rho=0.9, d=2, h=0.49, r=1.5))
dist = build_initial_distribution(model, 100_000, master_seed=1, workers=1)
print(repr(dist.ess), repr(dist.w2_hat))
"""


class TestResolveWorkers:
    def test_default_counts_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert engine.resolve_workers(None) == 3

    @pytest.mark.parametrize("cpus, expect", [(6, 6), (None, 1)])
    def test_default_without_affinity_is_cpu_count(self, monkeypatch, cpus, expect):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert engine.resolve_workers(None) == expect

    def test_argument_wins_over_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert engine.resolve_workers(4) == 4
        with pytest.raises(ValueError, match="workers must be >= 1"):
            engine.resolve_workers(0)

    def test_environment_is_not_read(self, monkeypatch):
        # the count comes from the caller or the affinity mask, never the environment
        monkeypatch.setenv("MSC_WORKERS", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert engine.resolve_workers(None) == 2


class TestRunExcursion:
    def test_start_outside_returns_zero_excursion(self):
        model = TwoStepCycleModel()
        stream = derive_stream(1, "chain", 0)
        tau, sums = run_excursion(model, np.array([9.0]), stream, 100, coordinate_functions(1))
        assert tau == 0
        assert sums.tolist() == [0.0]

    def test_immediate_return(self):
        model = SingletonModel()
        stream = derive_stream(1, "chain", 1)
        tau, sums = run_excursion(
            model, np.array([0.0]), stream, 100, [lambda x: np.full(len(x), 7.5)]
        )
        assert tau == 1
        assert sums.tolist() == [7.5]

    def test_sum_includes_entering_step(self):
        model = TwoStepCycleModel()
        stream = derive_stream(1, "chain", 2)
        tau, sums = run_excursion(
            model, np.array([0.0]), stream, 100, [lambda x: np.ones(len(x)), lambda x: x[:, 0]]
        )
        # path is 0 -> 5 -> 0: two summed steps, the start is excluded
        assert tau == 2
        assert sums[0] == 2.0
        assert sums[1] == 5.0

    def test_cap_exceeded(self):
        model = NeverReturnModel()
        stream = derive_stream(1, "chain", 3)
        with pytest.raises(CapExceededError):
            run_excursion(model, np.array([0.0]), stream, 5, [])


class RecordingModel(ModelBundle):
    """Wraps a model and records the drift value of every visited state."""

    def __init__(self, inner):
        self.inner = inner
        self.drift = inner.drift
        self.words_per_step = inner.words_per_step
        self.trace = []

    def log_weights(self, atoms):
        return self.inner.log_weights(atoms)

    def kernel_block(self, states, words):
        out = self.inner.kernel_block(states, words)
        self.trace.extend(self.inner.f_values(out).tolist())
        return out

    def f_values(self, states):
        return self.inner.f_values(states)


def lockstep_bundle(request, case: str) -> ModelBundle:
    """A fixed-consumption model: AR "d-rho", or "logit", the Gibbs kernel on
    the small synthetic posterior at r = 1.5.  Its own radius there (about
    7,400) takes every chain back in one step, so the logit return set is
    narrowed to f <= 3, where about half the starts run and some take a
    dozen steps."""
    if case == "logit":
        model = LogitModel(request.getfixturevalue("small_synthetic_posterior"), r=1.5)
        model.drift = DriftSpec(gamma=0.0, K=1.0, R=3.0)
        return model
    d, rho = case.split("-")
    return ArModel(ArConfig(rho=float(rho), d=int(d), h=0.49, r=1.5))


def scalar_loop(model, atoms, M, functions, seed, cap=engine.DEFAULT_EXCURSION_CAP):
    """The MSC result from the public API, chain by chain: chain m picks its
    start with CategoricalSampler.sample on stream ("chain", m) and runs
    run_excursion on the rest of that stream.  The sums reduce as in
    msc_estimate."""
    sampler = CategoricalSampler(atoms.norm_weights)
    sums = np.empty((M, len(functions)))
    taus = np.empty(M, dtype=np.int64)
    for m in range(M):
        stream = derive_stream(seed, "chain", m)
        start = atoms.atoms[sampler.sample(stream)]
        try:
            taus[m], sums[m] = run_excursion(model, start, stream, cap, functions)
        except CapExceededError as err:
            raise CapExceededError(err.cap, chain_index=m) from None
    estimates = sums.mean(axis=0)
    sums -= estimates
    stderrs = np.sqrt(np.square(sums).sum(axis=0) / (M - 1)) / np.sqrt(M)
    return SimpleNamespace(estimates=estimates, stderrs=stderrs, taus=taus)


class TestMscEstimate:
    def test_singleton_deterministic_estimate(self):
        model = SingletonModel()
        atoms = build_initial_distribution(model, 5, master_seed=2, workers=1)
        res = msc_estimate(
            model, atoms, 50, [lambda x: np.full(len(x), 3.25)], master_seed=2, workers=1
        )
        assert res.estimates.tolist() == [3.25]
        assert res.stderrs.tolist() == [0.0]
        assert res.mean_tau == 1.0
        assert res.skip_fraction == 0.0
        assert res.p95_tau == 1.0

    def test_requires_two_chains(self):
        model = SingletonModel()
        atoms = build_initial_distribution(model, 2, master_seed=2, workers=1)
        with pytest.raises(ValueError, match="M must be >= 2"):
            msc_estimate(model, atoms, 1, [], master_seed=2)

    def test_cap_error_carries_chain_index(self):
        model = NeverReturnModel()
        atoms = build_initial_distribution(model, 2, master_seed=2, workers=1)
        with pytest.raises(CapExceededError) as err:
            msc_estimate(model, atoms, 4, [], master_seed=2, cap=3, workers=1)
        assert err.value.chain_index == 0

    def test_cap_error_survives_worker_boundary(self):
        model = NeverReturnModel()
        atoms = build_initial_distribution(model, 2, master_seed=2, workers=1)
        with pytest.raises(CapExceededError) as err:
            msc_estimate(model, atoms, 8, [], master_seed=2, cap=3, workers=2)
        assert err.value.cap == 3
        assert err.value.chain_index is not None
        assert str(err.value).count("no return") == 1

    def test_cap_error_at_two_workers_leaves_no_children(self):
        model = NeverReturnModel()
        atoms = build_initial_distribution(model, 2, master_seed=2, workers=1)
        with pytest.raises(CapExceededError):
            msc_estimate(model, atoms, 8, [], master_seed=2, cap=3, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("d", [2, 16, "logit"])
    def test_worker_counts_bit_identical(self, request, d):
        model = lockstep_bundle(request, "logit" if d == "logit" else f"{d}-0.9")
        atoms = build_initial_distribution(model, 500, master_seed=4, workers=2)
        functions = coordinate_functions(atoms.atoms.shape[1])
        results = [
            msc_estimate(model, atoms, 300, functions, master_seed=4, workers=w)
            for w in (1, 2, 8)
        ]
        for other in results[1:]:
            assert np.array_equal(results[0].estimates, other.estimates)
            assert np.array_equal(results[0].stderrs, other.stderrs)
            assert np.array_equal(results[0].taus, other.taus)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stage_inputs_freed_with_caller(self, workers):
        # the engine keeps no reference to a stage's inputs once it returns,
        # so the caller's last reference frees the atom matrix, shared
        # memory at every worker count
        model = ArModel(ArConfig(rho=0.9, d=2, h=0.49, r=1.5))
        atoms = build_initial_distribution(model, 2_000, master_seed=5, workers=workers)
        assert in_shared_memory(atoms.atoms)
        result = msc_estimate(
            model, atoms, 400, coordinate_functions(2), master_seed=5, workers=workers
        )
        ref = weakref.ref(atoms.atoms)
        del atoms, result
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("case", ["2-0.9", "16-0.9", "logit"])
    def test_stage_outputs_identical_across_workers(self, request, case):
        # Each worker's one block writes its own rows of the stage's shared
        # output arrays.  N = 1,001 and M = 301 divide into neither 2 nor 3
        # blocks, so the blocks differ in length and their edges move with
        # the worker count
        model = lockstep_bundle(request, case)
        counts = (1, 2, 3)
        restarts = [build_initial_distribution(model, 1_001, 15, workers=w) for w in counts]
        first = restarts[0]
        functions = coordinate_functions(first.atoms.shape[1])
        fn = partial(
            engine._excursion_block, model, first.atoms, CategoricalSampler(first.norm_weights),
            functions, engine.DEFAULT_EXCURSION_CAP, 15,
        )
        specs = ((301, len(functions)), float), ((301,), np.int64)
        excursions = [engine._map_blocks(fn, 301, w, *specs) for w in counts]
        for atoms, outs in zip(restarts, excursions):
            for a in (atoms.atoms, atoms.norm_weights, *outs):
                assert in_shared_memory(a)
        assert first.ess > 1.0 and excursions[0][1].max() > 1
        for other in restarts[1:]:
            assert other.atoms.tobytes() == first.atoms.tobytes()
            assert other.norm_weights.tobytes() == first.norm_weights.tobytes()
            assert (other.ess, other.w2_hat) == (first.ess, first.w2_hat)
        for sums, taus in excursions[1:]:
            assert sums.tobytes() == excursions[0][0].tobytes()
            assert taus.tobytes() == excursions[0][1].tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_block_per_worker(self, workers):
        # each worker, this process at one worker, runs one contiguous block:
        # the block function writes its span into its rows
        def record(rows, span):
            rows[:] = span

        (spans,) = engine._map_blocks(record, 1_001, workers, ((1_001, 2), np.int64))
        blocks = np.unique(spans, axis=0)
        assert len(blocks) == workers
        assert blocks[0, 0] == 0 and blocks[-1, 1] == 1_001
        assert np.array_equal(blocks[1:, 0], blocks[:-1, 1])
        for lo, hi in blocks:
            assert (spans[lo:hi] == (lo, hi)).all()

    def test_block_error_reaches_parent(self):
        # the one restart block that holds the largest first coordinate
        # raises in its worker, and so in the parent; the pool is drained
        config = ArConfig(rho=0.9, d=2, h=0.49, r=1.5)
        top = build_initial_distribution(ArModel(config), 400, 16, workers=1).atoms[:, 0].max()

        class FailingBlock(ArModel):
            def log_weights(self, atoms):
                if np.any(atoms[:, 0] == top):
                    raise FloatingPointError("no weight at the top atom")
                return super().log_weights(atoms)

        with pytest.raises(FloatingPointError, match="no weight at the top atom"):
            build_initial_distribution(FailingBlock(config), 400, 16, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("case", ["1-0.9", "2-0.9", "16-0.9", "2-0.995", "logit"])
    def test_lockstep_equals_scalar_loop(self, monkeypatch, request, case):
        # A 40-word window forces chunked first steps and multi-step windows.
        # A block function between the coordinates, 1 + |x|^2 summed one
        # column at a time, gives a row the same bits alone or in a block
        model = lockstep_bundle(request, case)
        atoms = build_initial_distribution(model, 2_000, master_seed=12, workers=1)
        coords = coordinate_functions(atoms.atoms.shape[1])
        windows = (engine._WINDOW_WORDS, 40)
        sq_norm = lambda x: 1.0 + sum(c * c for c in x.T)
        for functions in (coords, coords[:1] + [sq_norm] + coords[1:]):
            scalar = scalar_loop(model, atoms, 1_500, functions, 12)
            assert scalar.taus.max() > 1
            for window in windows:
                monkeypatch.setattr(engine, "_WINDOW_WORDS", window)
                lockstep = msc_estimate(model, atoms, 1_500, functions, 12, workers=1)
                assert np.array_equal(lockstep.estimates, scalar.estimates)
                assert np.array_equal(lockstep.stderrs, scalar.stderrs)
                assert np.array_equal(lockstep.taus, scalar.taus)
        # no test functions at all runs the same chains
        assert np.array_equal(msc_estimate(model, atoms, 1_500, [], 12, workers=1).taus, scalar.taus)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "f",
        [lambda x: 1.0, lambda x: np.float64(x[0, 0]), lambda x: x[:, :1]],
        ids=["float", "numpy-scalar", "column"],
    )
    def test_function_must_map_block(self, workers, f):
        # a per-row function (a scalar) or an (n, 1) column is refused at the
        # first step, before any result exists, and the pool is drained
        model = ArModel(ArConfig(rho=0.9, d=2, h=0.49, r=1.5))
        atoms = build_initial_distribution(model, 500, master_seed=9, workers=1)
        functions = coordinate_functions(2) + [f]
        with pytest.raises(TypeError, match="test function 2 must map an"):
            msc_estimate(model, atoms, 400, functions, 9, workers=workers)
        assert multiprocessing.active_children() == []

    def test_coordinate_functions_map_rows_and_blocks(self):
        block = np.arange(12.0).reshape(4, 3)
        for j, f in enumerate(pickle.loads(pickle.dumps(coordinate_functions(3)))):
            assert np.array_equal(f(block), block[:, j])
            for row in block:
                assert f(row) == row[j]
                assert np.array_equal(f(row[None]), [row[j]])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lockstep_cap_error_names_scalar_chain(self, workers):
        model = ArModel(ArConfig(rho=0.9, d=2, h=0.49, r=1.5))
        atoms = build_initial_distribution(model, 500, master_seed=9, workers=1)
        functions = coordinate_functions(2)
        with pytest.raises(CapExceededError) as scalar:
            scalar_loop(model, atoms, 400, functions, 9, cap=1)
        with pytest.raises(CapExceededError) as err:
            msc_estimate(model, atoms, 400, functions, 9, cap=1, workers=workers)
        assert err.value.cap == 1
        assert err.value.chain_index is not None
        assert err.value.chain_index == scalar.value.chain_index

    def test_kernel_block_required(self):
        class StepLess(ModelBundle):
            words_per_step = 1

            def log_weights(self, atoms):
                return np.zeros(len(atoms))

            def f_values(self, states):
                return np.ones(len(states))

        with pytest.raises(TypeError, match="kernel_block"):
            StepLess()

    @pytest.mark.parametrize(
        "name, words",
        [
            pytest.param("words_per_step", "missing", id="missing"),
            pytest.param("words_per_step", None, id="None"),
            pytest.param("words_per_step", 0, id="0"),
            pytest.param("words_per_step", -1, id="-1"),
            pytest.param("words_per_atom", 0, id="atom-0"),
            pytest.param("words_per_atom", -1, id="atom--1"),
            pytest.param("words_per_atom", 2.0, id="atom-2.0"),
        ],
    )
    def test_words_per_step_required(self, monkeypatch, name, words):
        # words_per_step and words_per_atom share one check, and both are
        # rejected before any pool forks
        model = SingletonModel()
        atoms = build_initial_distribution(model, 2, master_seed=2, workers=1)
        if words == "missing":
            monkeypatch.delattr(SingletonModel, name)
        else:
            setattr(model, name, words)
        with pytest.raises(TypeError, match=f"{name} must be a positive int"):
            if name == "words_per_atom":
                build_initial_distribution(model, 8, master_seed=2, workers=2)
            else:
                msc_estimate(model, atoms, 8, [], master_seed=2, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "words, normals, match",
        [
            (None, None, "exactly one of words_per_atom and normals_per_atom"),
            (1, 1, "exactly one of words_per_atom and normals_per_atom"),
            (None, 0, "normals_per_atom must be a positive int"),
            (None, 1.0, "normals_per_atom must be a positive int"),
        ],
        ids=["neither", "both", "normals-0", "normals-1.0"],
    )
    def test_one_atom_draw_required(self, words, normals, match):
        # a proposal declares one per-atom draw, checked before any pool forks
        model = SingletonModel()
        model.words_per_atom, model.normals_per_atom = words, normals
        with pytest.raises(TypeError, match=match):
            build_initial_distribution(model, 8, master_seed=2, workers=2)
        assert multiprocessing.active_children() == []

    def test_mean_tau_vs_skip_fraction(self):
        model = ArModel(ArConfig(rho=0.9, d=2, h=0.49, r=1.5))
        atoms = build_initial_distribution(model, 2_000, master_seed=6, workers=1)
        res = msc_estimate(model, atoms, 2_000, [], master_seed=6, workers=1)
        assert res.mean_tau >= 1.0 - res.skip_fraction

    def test_path_structure_first_return(self):
        base = ArModel(ArConfig(rho=0.9, d=2, h=0.49, r=1.5))
        model = RecordingModel(base)
        R = model.drift.R
        stream = derive_stream(8, "chain", 0)
        for m in range(200):
            stream.rekey(m)
            start = base.propose(stream)
            model.trace = []
            tau, _ = run_excursion(model, start, stream, 10_000, [])
            if tau > 0:
                assert len(model.trace) == tau
                assert model.trace[-1] <= R  # entering step
                assert all(f > R for f in model.trace[:-1])  # strictly outside before
            else:
                assert model.trace == []


def run_script(tmp_path, script):
    # runs script in a child interpreter in its own session, so a stage that
    # hangs fails the test, not the suite, and its workers die with it
    path = tmp_path / "script.py"
    path.write_text(script)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mscmc.__file__)))
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path_var)
    proc = subprocess.Popen(
        [sys.executable, str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the script did not finish within 60 s")
    assert proc.returncode == 0, err
    return out.strip()


START_METHOD_SCRIPT = textwrap.dedent(
    """
    import multiprocessing

    import numpy as np

    from mscmc.ar import ArConfig, ArModel
    from mscmc.engine import build_initial_distribution, msc_estimate

    if __name__ == "__main__":
        multiprocessing.set_start_method("forkserver", force=True)
        model = ArModel(ArConfig(rho=0.9, d=2, h=0.49, r=1.5))
        functions = [lambda x: x[:, 0]]
        runs = []
        for workers in (1, 2):
            atoms = build_initial_distribution(model, 2_000, master_seed=3, workers=workers)
            res = msc_estimate(model, atoms, 400, functions, master_seed=3, workers=workers)
            runs.append((atoms.norm_weights, res.estimates, res.stderrs, res.taus))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)
        print("identical")
    """
)


def test_pool_ignores_default_start_method(tmp_path):
    # the pool must fork even when the interpreter default is forkserver (the
    # Linux default from Python 3.14), or lambda test functions cannot reach
    # the workers
    assert run_script(tmp_path, START_METHOD_SCRIPT) == "identical"


DEAD_WORKER_SCRIPT = textwrap.dedent(
    """
    import multiprocessing
    import os
    import signal
    from concurrent.futures.process import BrokenProcessPool

    from mscmc.ar import ArConfig, ArModel
    from mscmc.engine import build_initial_distribution

    PARENT = os.getpid()


    class KilledWorker(ArModel):
        def log_weights(self, atoms):
            if os.getpid() != PARENT:
                os.kill(os.getpid(), signal.SIGKILL)
            return super().log_weights(atoms)


    if __name__ == "__main__":
        model = KilledWorker(ArConfig(rho=0.9, d=2, h=0.49, r=1.5))
        try:
            build_initial_distribution(model, 10_000, 1, workers=2)
        except BrokenProcessPool:
            print("broken", len(multiprocessing.active_children()))
    """
)


def test_dead_worker_raises(tmp_path):
    # a worker killed mid-block breaks the stage at once, with no worker
    # left running, instead of leaving the parent waiting for its block
    assert run_script(tmp_path, DEAD_WORKER_SCRIPT) == "broken 0"
