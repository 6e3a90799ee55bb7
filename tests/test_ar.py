import math

import numpy as np
import pytest

from conftest import HEART_PATH, bootstrap_stderr
from mscmc import engine
from mscmc.ar import ArConfig, ArModel
from mscmc.engine import build_initial_distribution, coordinate_functions, msc_estimate
from mscmc.logit import LogitModel, LogitPosterior, load_heart_dataset
from mscmc.rng import derive_stream

CFG = ArConfig(rho=0.9, d=2, h=0.49, r=1.5)
MODEL = ArModel(CFG)


def in_return_set(model, x):
    return model.f_value(x) <= model.drift.R


class TestKernel:
    def test_conditional_mean(self):
        x = np.array([1.2, -0.7])
        stream = derive_stream(21, "ar", 0)
        n = 100_000
        steps = np.array([MODEL.kernel_step(stream, x) for _ in range(n)])
        noise_sd = math.sqrt(1 - CFG.rho**2)
        tol = 4 * noise_sd / math.sqrt(n)
        assert np.all(np.abs(steps.mean(axis=0) - CFG.rho * x) < tol)

    def test_conditional_second_moment(self):
        # one-step drift identity: E[1 + |X1|^2 | x] = rho^2 (1 + |x|^2) + (1 - rho^2)(1 + d)
        x = np.array([0.8, 1.5])
        stream = derive_stream(21, "ar", 1)
        n = 100_000
        vals = np.empty(n)
        for i in range(n):
            step = MODEL.kernel_step(stream, x)
            vals[i] = 1.0 + step @ step
        expect = CFG.rho**2 * (1 + x @ x) + (1 - CFG.rho**2) * (1 + CFG.d)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - expect) < 3 * se

    def test_invariance_one_step(self):
        stream = derive_stream(21, "ar", 2)
        n = 100_000
        starts = stream.gen.standard_normal((n, CFG.d))
        noise = stream.gen.standard_normal((n, CFG.d))
        stepped = CFG.rho * starts + math.sqrt(1 - CFG.rho**2) * noise
        assert np.all(np.abs(stepped.mean(axis=0)) < 4 / math.sqrt(n))
        cov = np.cov(stepped.T)
        assert np.all(np.abs(cov - np.eye(CFG.d)) < 0.02)

    def test_drift_equality_at_random_states(self):
        # the one-step drift holds with equality; the MC estimate must sit
        # within noise of gamma V(x) + K at every probed state
        stream = derive_stream(21, "ar", 3)
        gen = derive_stream(21, "ar-states", 0).gen
        n = 4_000
        for _ in range(100):
            x = 3.0 * gen.standard_normal(CFG.d)
            vals = np.empty(n)
            for i in range(n):
                step = MODEL.kernel_step(stream, x)
                vals[i] = 1.0 + step @ step
            target = 0.81 * (1 + x @ x) + 0.57
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - target) <= 3 * se + 1e-12


class TestLogWeight:
    def test_balanced_h_zero_everywhere(self):
        model = ArModel(ArConfig(rho=0.9, d=3, h=0.5, r=1.5))
        gen = derive_stream(22, "ar", 0).gen
        for _ in range(20):
            assert model.log_weight(gen.standard_normal(3)) == 0.0

    def test_origin_value(self):
        assert MODEL.log_weight(np.zeros(2)) == pytest.approx(math.log(0.99), rel=1e-12)
        assert MODEL.log_weight(np.zeros(2)) == pytest.approx(-0.01005, abs=5e-6)

    def test_weight_second_moment_closed_form(self):
        # E_proposal[w^2] integrated by Monte Carlo against the closed form
        gen = derive_stream(22, "ar", 1).gen
        n = 100_000
        scale = math.sqrt(0.5 + CFG.h)
        draws = scale * gen.standard_normal((n, CFG.d))
        vals = np.exp([2.0 * MODEL.log_weight(x) for x in draws])
        closed = (1 / (2 * math.sqrt(2 * CFG.h)) + math.sqrt(CFG.h / 2)) ** CFG.d
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - closed) < 3 * se


class TestReturnSet:
    def test_origin_inside(self):
        assert in_return_set(MODEL, np.zeros(2))

    def test_boundary_closed(self):
        model = ArModel(ArConfig(rho=0.9, d=1, h=0.49, r=2.25))
        assert in_return_set(model, np.array([1.5]))  # |x|^2 == r d exactly
        assert not in_return_set(model, np.array([1.5 + 1e-9]))

    def test_consistent_with_drift_radius(self):
        # the engine's return set is the closed ball {|x|^2 <= r d}
        gen = derive_stream(22, "ar", 2).gen
        for _ in range(200):
            x = 2.0 * gen.standard_normal(CFG.d)
            assert in_return_set(MODEL, x) == (float(x @ x) <= CFG.r * CFG.d)

    def test_f_value_at_least_one(self):
        model = ArModel(CFG)
        gen = derive_stream(22, "ar", 3).gen
        assert all(model.f_value(5 * gen.standard_normal(2)) >= 1.0 for _ in range(100))


class TestAtoms:
    def test_weight_second_moment_estimate_large_N(self):
        model = ArModel(CFG)
        atoms = build_initial_distribution(model, 1_000_000, master_seed=23, workers=2)
        closed = model.weight_second_moment
        gen = derive_stream(23, "boot", 0).gen
        stat = lambda v: len(v) * float(np.sum(v**2)) / float(np.sum(v)) ** 2
        se = bootstrap_stderr(gen, atoms.norm_weights, stat, n_boot=100)
        assert abs(atoms.w2_hat - closed) <= 3 * se

    def test_exact_unit_moment_at_balanced_h(self):
        model = ArModel(ArConfig(rho=0.9, d=2, h=0.5, r=1.5))
        atoms = build_initial_distribution(model, 100, master_seed=23, workers=1)
        assert atoms.w2_hat == pytest.approx(1.0, abs=1e-14)


class TestProposeBlock:
    @pytest.mark.parametrize(
        "d, lo, hi", [(2, 0, 40), (16, 7, 30), (3, 2**64 - 9, 2**64), ("heart", 5, 60)]
    )
    def test_rows_equal_scalar_proposals(self, monkeypatch, d, lo, hi):
        if d == "heart":  # the per-atom draw is d standard normals
            dataset = load_heart_dataset(HEART_PATH)
            model = LogitModel(LogitPosterior(dataset, 10.0 * np.eye(dataset.d)), r=1.001)
            d = model.normals_per_atom
        else:
            model = ArModel(ArConfig(rho=0.9, d=d, h=0.49, r=1.5))
        # about 8 rows a chunk: several chunks, a ragged last one
        monkeypatch.setattr(engine, "_WINDOW_WORDS", 8 * d + 1)
        # the block writes into its own rows of the stage's outputs
        atoms, logw = np.full((hi - lo, d), np.nan), np.full(hi - lo, np.nan)
        engine._propose_block(model, 31, atoms, logw, (lo, hi))
        for i in range(lo, hi):
            x = model.propose(derive_stream(31, "init", i))
            assert np.array_equal(atoms[i - lo], x)
            assert logw[i - lo] == model.log_weight(x)

    def test_build_initial_distribution_worker_independent(self):
        model = ArModel(CFG)
        runs = [
            build_initial_distribution(model, 1_001, master_seed=33, workers=w) for w in (1, 2, 3)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].atoms, other.atoms)
            assert np.array_equal(runs[0].norm_weights, other.norm_weights)
        assert np.array_equal(runs[0].atoms[1_000], model.propose(derive_stream(33, "init", 1_000)))


class TestPipeline:
    def test_mean_estimate_within_three_stderr(self):
        model = ArModel(CFG)
        atoms = build_initial_distribution(model, 20_000, master_seed=24, workers=2)
        res = msc_estimate(
            model, atoms, 4_000, coordinate_functions(CFG.d), master_seed=24, workers=2
        )
        assert np.all(np.abs(res.estimates) <= 3 * res.stderrs)

    def test_config_validation(self):
        bads = (dict(rho=0.0), dict(rho=1.0), dict(d=0), dict(h=0.0), dict(h=1e308), dict(r=1.0))
        for bad in bads:
            kwargs = dict(rho=0.9, d=2, h=0.49, r=1.5)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                ArConfig(**kwargs)

    def test_h_bound_is_the_largest_draw(self):
        # at d = 2 and h = 1e306 the largest draw's squared norm, 1.35e308,
        # is finite; a third coordinate would take it past float range
        model = ArModel(ArConfig(rho=0.9, d=2, h=1e306, r=1.5))
        with np.errstate(all="raise"):
            atoms = model.atoms(np.full((1, 2), 2**64 - 1, dtype=np.uint64))
            assert np.isfinite(model.f_values(atoms)).all()
            assert np.isfinite(model.log_weights(atoms)).all()
        with pytest.raises(ValueError, match=r"h = 1e\+306 is too large at d = 3"):
            ArConfig(rho=0.9, d=3, h=1e306, r=1.5)
