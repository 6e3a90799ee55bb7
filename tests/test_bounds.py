import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscmc import bounds
from mscmc.bounds import (
    DriftSpec,
    GeometricBoundInput,
    MultBoundInput,
    bias_bound,
    chain_concentration_bound,
    init_concentration_bound,
    logit_gibbs_constants,
    logit_mse_bound,
    mse_bound,
    plan_sizes,
    simplified_mse_bound,
    total_concentration_bound,
    variance_bound,
)

# the autoregressive reference point used throughout: rho=.9, d=2, h=.49, r=1.5
AR_DRIFT = DriftSpec(gamma=0.81, K=0.57, R=4.0)
AR_W2 = (1 / (2 * math.sqrt(0.98)) + math.sqrt(0.245)) ** 2


def ar_input(M=100_000, N=1_000_000) -> GeometricBoundInput:
    return GeometricBoundInput(drift=AR_DRIFT, M=M, N=N, w2=AR_W2)


def valid_drift():
    # (gamma, K, R) triples satisfying R > K / (1 - gamma)
    return st.tuples(
        st.floats(0.0, 0.98),
        st.floats(0.01, 5.0),
        st.floats(1.0, 50.0),
    ).filter(lambda t: t[2] > t[1] / (1.0 - t[0]) * 1.0000001)


class TestEffectiveRate:
    def test_vanishing_K_limit(self):
        assert DriftSpec(0.7, 1e-12, 100.0).effective_rate == pytest.approx(0.7, abs=1e-13)

    def test_ar_value_and_crosscheck(self):
        rate = DriftSpec(0.81, 0.57, 4.0).effective_rate
        assert rate == pytest.approx(0.9525, abs=1e-12)
        # same number through the dimension-explicit route
        rho, d, r = 0.9, 2, 1.5
        rho_r = rho**2 + (1 - rho**2) * (d + 1) / (r * d + 1)
        assert rate == pytest.approx(rho_r, abs=1e-12)

    def test_boundary_radius_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(0.5, 1.0, 2.0)  # R == K/(1-gamma) exactly

    def test_infinite_radius_rejected(self):
        # the return set {V <= inf} is the whole space, and the amplitude NaN
        with pytest.raises(ValueError, match="R must be finite"):
            DriftSpec(0.81, 0.57, math.inf)

    @given(valid_drift())
    @settings(max_examples=200)
    def test_lies_strictly_between(self, triple):
        gamma, K, R = triple
        rate = DriftSpec(gamma, K, R).effective_rate
        assert gamma < rate < 1.0


class TestBiasAmplitude:
    def test_zero_gamma(self):
        assert DriftSpec(gamma=0.0, K=1.0, R=3.0).amplitude == pytest.approx(1.0)

    def test_ar_value(self):
        assert AR_DRIFT.amplitude == pytest.approx(0.81 * 4 + 2 * 0.57 - 1, abs=1e-12)
        assert AR_DRIFT.amplitude == pytest.approx(3.38, abs=1e-12)

    def test_gibbs_chain_symbols(self):
        # gamma = 0, K = 1 + L gives amplitude 2L + 1
        L = 7.5
        drift = DriftSpec(gamma=0.0, K=1.0 + L, R=1.0 + 2 * L)
        assert drift.amplitude == pytest.approx(2 * L + 1, abs=1e-12)

    @pytest.mark.parametrize("score", [2.5, 5.0, 35.125])
    def test_logit_constants_amplitude(self, score):
        # one observation x = 2 score, y = 1 and Sigma = 1 give
        # L = |Sigma|^2 |X^T(Y - 1/2)|^2 = score^2 exactly, and the drift's
        # amplitude is the literal logit bound's 2L + 1
        out = logit_gibbs_constants(
            np.array([[2.0 * score]]), np.array([1.0]), np.array([[1.0]]), h=0.49, r=1.5
        )
        assert out["L"] == score * score
        assert out["drift"].amplitude == 2 * out["L"] + 1


class TestBiasBound:
    def test_unit_weight_moment(self):
        inp = GeometricBoundInput(drift=AR_DRIFT, M=10, N=1000, w2=1.0)
        rate = 0.81 + 0.57 / 4.0
        expect = 2.0 * 3.38**2 / (1000 * (1 - rate) ** 2)
        assert bias_bound(inp) == pytest.approx(expect, rel=1e-12)

    def test_halves_with_doubled_N(self):
        a = bias_bound(ar_input(N=10_000))
        b = bias_bound(ar_input(N=20_000))
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_dominates_simulated_restart_error(self):
        # per atom realization, a large chain count pins the conditional mean;
        # the scatter of those conditional means across realizations is the
        # restart-stage error the bound controls
        from mscmc.ar import ArConfig, ArModel
        from mscmc.engine import build_initial_distribution, coordinate_functions, msc_estimate

        model = ArModel(ArConfig(rho=0.9, d=2, h=0.49, r=1.5))
        N = 1_000
        cond_means = np.empty(30)
        for i in range(30):
            atoms = build_initial_distribution(model, N, master_seed=500 + i, workers=1)
            res = msc_estimate(
                model, atoms, 5_000, coordinate_functions(2)[:1], master_seed=500 + i, workers=1
            )
            cond_means[i] = res.estimates[0]
        empirical = float(np.mean(cond_means**2))  # true target is 0
        bound = bias_bound(ar_input(N=N))
        assert empirical <= bound


class TestVarianceBound:
    def test_small_rate_limit(self):
        drift = DriftSpec(gamma=1e-9, K=1e-9, R=1.0)
        inp = GeometricBoundInput(drift=drift, M=100, N=100, w2=1.0)
        assert variance_bound(inp) < 1e-17

    def test_ar_value(self):
        expect = (4.57 / 100_000) * (0.47625 / (1 - 0.47625)) ** 2
        assert variance_bound(ar_input(M=100_000)) == pytest.approx(expect, rel=1e-12)
        assert variance_bound(ar_input(M=100_000)) == pytest.approx(3.78e-5, rel=1e-3)

    def test_halves_with_doubled_M(self):
        assert variance_bound(ar_input(M=2_000)) == pytest.approx(
            variance_bound(ar_input(M=1_000)) / 2, rel=1e-12
        )


class TestMseBound:
    def test_combination_identity(self):
        inp = ar_input(M=12_345, N=67_890)
        rate = inp.drift.effective_rate
        bias_sq_main = 4 * inp.drift.amplitude**2 * inp.w2 / (inp.N * (1 - rate) ** 2)
        combined = (math.sqrt(variance_bound(inp)) + math.sqrt(bias_sq_main)) ** 2
        assert mse_bound(inp) == pytest.approx(combined, rel=1e-12)

    def test_monotone_in_M_and_N(self):
        base = mse_bound(ar_input(M=1_000, N=1_000))
        assert mse_bound(ar_input(M=2_000, N=1_000)) <= base
        assert mse_bound(ar_input(M=1_000, N=2_000)) <= base

    def test_planner_point(self):
        # the planned sizes for eps = delta = 0.1 land the bound at delta.eps^2
        assert mse_bound(ar_input(M=15_115, N=81_023_403)) == pytest.approx(1e-3, rel=1e-2)


class TestSimplifiedMseBound:
    def test_worked_example(self):
        # gamma=.25, K=.5, R=2 puts the effective rate at exactly 0.5
        drift = DriftSpec(gamma=0.25, K=0.5, R=2.0)
        inp = GeometricBoundInput(drift=drift, M=100, N=10_000, w2=1.0)
        assert simplified_mse_bound(inp) == pytest.approx(0.5, rel=1e-12)

    def test_independent_of_N_when_valid(self):
        a = simplified_mse_bound(ar_input(M=100, N=10_000_000))
        b = simplified_mse_bound(ar_input(M=100, N=99_000_000))
        assert a == b

    def test_ratio_condition_violated(self):
        with pytest.raises(ValueError, match="N/M"):
            simplified_mse_bound(ar_input(M=100_000, N=100))


def mult_input(eps=0.1, M=100_000, N=1_000_000, w_star=2.0, B=1.0) -> MultBoundInput:
    # gamma=.25, K=.5, R=2 gives effective rate 0.5
    return MultBoundInput(
        drift=DriftSpec(gamma=0.25, K=0.5, R=2.0),
        mgf_amplitude=B,
        weight_sup=w_star,
        eps=eps,
        M=M,
        N=N,
    )


class TestConcentrationBounds:
    def test_spot_values(self):
        expect = 4 * math.exp(-1e6 * 0.01 * 0.25 / (2 * math.e**2 * 4))
        assert init_concentration_bound(mult_input()) == pytest.approx(expect, rel=1e-12)
        expect = 2 * math.exp(-1e5 * 0.01 * 0.25 / (9 * math.e**2))
        assert chain_concentration_bound(mult_input()) == pytest.approx(expect, rel=1e-12)

    @given(
        st.floats(0.01, 0.99),
        st.integers(1, 10**9),
        st.integers(1, 10**9),
        st.floats(1.0, 50.0),
        st.floats(0.0, 20.0),
    )
    @settings(max_examples=200)
    def test_trivial_caps(self, eps, M, N, w_star, B):
        inp = mult_input(eps=eps, M=M, N=N, w_star=w_star, B=B)
        assert init_concentration_bound(inp) <= 4.0
        assert chain_concentration_bound(inp) <= 2.0
        assert total_concentration_bound(inp) <= 6.0

    def test_decreasing_in_N_and_M(self):
        assert init_concentration_bound(mult_input(N=2**21)) < init_concentration_bound(
            mult_input(N=2**20)
        )
        assert chain_concentration_bound(mult_input(M=2**21)) < chain_concentration_bound(
            mult_input(M=2**20)
        )

    def test_min_crossover_continuity(self):
        # at 2M/9 == N/w*^2 both arguments of the min agree
        M = 9 * 50_000
        N = 2 * 50_000 * 4  # w_star = 2
        lo = total_concentration_bound(mult_input(M=M, N=N - 1))
        at = total_concentration_bound(mult_input(M=M, N=N))
        hi = total_concentration_bound(mult_input(M=M + 9, N=N))
        assert lo >= at >= hi
        assert at == pytest.approx(lo, rel=1e-4)


class TestPlanSizes:
    def test_round_trip_guarantee_grid(self):
        for eps in (0.05, 0.1, 0.2):
            for delta in (0.05, 0.1, 0.2):
                N, M = plan_sizes(eps, delta, AR_DRIFT, AR_W2)
                got = mse_bound(GeometricBoundInput(drift=AR_DRIFT, M=M, N=N, w2=AR_W2))
                assert got <= delta * eps**2

    def test_ar_reference_point(self):
        N, M = plan_sizes(0.1, 0.1, AR_DRIFT, AR_W2)
        # independent arithmetic for the same split
        rate = 0.81 + 0.57 / 4.0
        a = rate * math.sqrt(4.57) / (2 - rate)
        b = 2 * 3.38 * math.sqrt(AR_W2) / (1 - rate)
        assert M == math.ceil(4 * a * a / 1e-3)
        assert N == math.ceil(4 * b * b / 1e-3)
        assert 1.4e4 < M < 1.6e4
        assert 8.0e7 < N < 8.2e7

    def test_sweep_shape(self):
        dims = [1, 5, 10, 15, 20, 25, 30]
        Ns, Ms = [], []
        for d in dims:
            N, M = plan_sizes(0.1, 0.1, *bounds.ar_drift_constants(0.9, d, 0.49, 1.5))
            Ns.append(N)
            Ms.append(M)
        assert all(a < b for a, b in zip(Ms, Ms[1:]))  # monotone
        assert all(a < b for a, b in zip(Ns, Ns[1:]))
        # M grows linearly: per-dimension slopes stabilize
        slopes = [(Ms[i + 1] - Ms[i]) / (dims[i + 1] - dims[i]) for i in range(len(dims) - 1)]
        assert max(slopes) / min(slopes) < 1.05
        # N grows super-linearly relative to M
        assert Ns[-1] / Ns[0] > 10 * Ms[-1] / Ms[0]

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            plan_sizes(0.0, 0.1, AR_DRIFT, 1.0)
        with pytest.raises(ValueError):
            plan_sizes(0.1, 1.0, AR_DRIFT, 1.0)


class TestArDriftConstants:
    def test_balanced_h_gives_unit_weight_moment(self):
        for d in (1, 2, 7, 21):
            _, w2 = bounds.ar_drift_constants(0.9, d, 0.5, 1.5)
            assert w2 == pytest.approx(1.0, abs=1e-14)

    def test_reference_values(self):
        drift, w2 = bounds.ar_drift_constants(0.9, 2, 0.49, 1.5)
        assert drift.gamma == pytest.approx(0.81, abs=1e-14)
        assert drift.K == pytest.approx(0.57, abs=1e-14)
        assert drift.R == 4.0
        assert w2 == pytest.approx(1.0001020408163266, rel=1e-12)

    def test_stationary_moment_identity(self):
        # K / (1 - gamma) collapses to exactly 1 + d
        for d in (1, 2, 10):
            drift, _ = bounds.ar_drift_constants(0.9, d, 0.49, 1.5)
            assert drift.K / (1 - drift.gamma) == 1.0 + d

    def test_validation(self):
        for bad in (dict(rho=1.0), dict(d=0), dict(h=0.0), dict(r=1.0)):
            kwargs = dict(rho=0.9, d=2, h=0.49, r=1.5)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                bounds.ar_drift_constants(**kwargs)


class TestLogitGibbsConstants:
    def test_scalar_example(self):
        out = logit_gibbs_constants(
            np.array([[1.0]]), np.array([1.0]), np.array([[10.0]]), h=0.49, r=1.001
        )
        assert out["L"] == pytest.approx(25.0, rel=1e-9)
        assert out["drift"].gamma == 0.0
        assert out["drift"].R == pytest.approx(26.025, rel=1e-9)
        assert out["drift"].K == pytest.approx(26.0, rel=1e-9)
        assert out["drift"].effective_rate == pytest.approx(26.0 / 26.025, rel=1e-9)

    def test_balanced_degenerate_flagged(self):
        X = np.array([[1.0], [1.0]])
        Y = np.array([1.0, 0.0])  # score vanishes
        with pytest.raises(ValueError, match="degenerate"):
            logit_gibbs_constants(X, Y, np.array([[10.0]]), h=0.49, r=1.5)

    def test_two_spectral_routes_agree(self):
        gen = np.random.default_rng(2)
        X = gen.standard_normal((40, 5))
        Y = (gen.random(40) < 0.4).astype(float)
        out = logit_gibbs_constants(X, Y, 10.0 * np.eye(5), h=0.49, r=1.5)
        # the constants use |X|^2; the determinant argument through |X'X|
        # directly gives the same W_d
        lam = np.linalg.norm(X.T @ X, 2) / 4.0
        tilt = 1 / (2 * math.sqrt(0.98)) + math.sqrt(0.245)
        expect = np.linalg.det(lam * 10.0 * np.eye(5) + np.eye(5)) * tilt**5
        assert out["W_d"] == pytest.approx(expect, rel=1e-10)
        assert out["log_W_d"] == pytest.approx(math.log(out["W_d"]), rel=1e-10)

    def test_log_constants_survive_extreme_designs(self):
        # covariate scales large enough that the plain constants overflow
        gen = np.random.default_rng(3)
        X = 1e6 * gen.standard_normal((300, 25))
        Y = (gen.random(300) < 0.5).astype(float)
        out = logit_gibbs_constants(X, Y, 10.0 * np.eye(25), h=0.49, r=1.001)
        assert out["W_d"] == math.inf
        assert math.isfinite(out["log_W_d"])

    def test_non_spd_sigma_rejected(self):
        with pytest.raises(ValueError, match="positive-definite"):
            logit_gibbs_constants(
                np.array([[1.0]]), np.array([1.0]), np.array([[-1.0]]), h=0.49, r=1.5
            )


def gibbs_drift(L, r):
    # the logit Gibbs chain's drift: gamma = 0, K = 1 + L, R = 1 + rL
    return DriftSpec(gamma=0.0, K=1 + L, R=1 + r * L)


class TestLogitMseBound:
    def test_literal_mode_formula(self):
        L, r, W_d, M, N = 25.0, 1.001, 40.0, 10_000, 1_000_000
        rate = 26.0 / 26.025
        expect = (
            rate * math.sqrt((r + 1) * L + 2) / (math.sqrt(M) * (2 - rate))
            + (2 * L + 1) * W_d / (math.sqrt(N) * (1 - rate))
        ) ** 2
        assert logit_mse_bound(gibbs_drift(L, r), W_d, M, N, mode="literal") == pytest.approx(
            expect, rel=1e-12
        )

    def test_generic_mode_composes_general_bound(self):
        L, r, W_d, M, N = 25.0, 1.001, 40.0, 10_000, 1_000_000
        drift = gibbs_drift(L, r)
        via_generic = mse_bound(GeometricBoundInput(drift=drift, M=M, N=N, w2=W_d))
        assert logit_mse_bound(drift, W_d, M, N, mode="generic") == pytest.approx(
            via_generic, rel=1e-12
        )

    def test_variance_halves_agree_across_modes(self):
        # both modes share the chain-variance term; they differ only in the
        # restart-bias coefficient convention
        L, r, M, N = 25.0, 1.5, 10_000, 10**16
        lit = math.sqrt(logit_mse_bound(gibbs_drift(L, r), 1.0, M, N, mode="literal"))
        thm = math.sqrt(logit_mse_bound(gibbs_drift(L, r), 1.0, M, N, mode="generic"))
        rate = (1 + L) / (1 + r * L)
        var_half = rate * math.sqrt((r + 1) * L + 2) / (math.sqrt(M) * (2 - rate))
        assert lit == pytest.approx(var_half, rel=1e-4)
        assert thm == pytest.approx(var_half, rel=1e-4)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            logit_mse_bound(gibbs_drift(25.0, 1.5), 1.0, 100, 100, mode="blend")
