"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 is split in two: the clauses the shipped construction satisfies
(return times, runtime, agreement between the two single-chain baselines)
and the cross-method agreement clause for the weighted-restart estimator.
The latter fails on the cardiovascular-scale design and is kept failing on
purpose: the mode-centered proposal carries the prior's scale while the
posterior of an informative ~300-row design is orders of magnitude
narrower, so the self-normalized weights collapse onto a single atom
(measured ess = 1.00 at N = 1e5) and every chain inherits that one start's
one-step bias.  The small-design cross-method test in tests/test_logit.py,
where the restart stage is healthy (ess > 100), passes, isolating the
failure to the restart stage rather than the engine.
"""
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp

from conftest import HEART_PATH
from mscmc.ar import ArConfig, ArModel
from mscmc.baselines import run_rwm, run_single_chain_gibbs
from mscmc.bounds import (
    GeometricBoundInput,
    ar_drift_constants,
    logit_gibbs_constants,
    mse_bound,
    plan_sizes,
)
from mscmc.cli import main
from mscmc.engine import (
    build_initial_distribution,
    coordinate_functions,
    msc_estimate,
    run_excursion,
)
from mscmc.logit import (
    LogitModel,
    LogitPosterior,
    load_heart_dataset,
    map_estimate,
    neg_log_lik,
    neg_log_lik_grad,
    neg_log_lik_hess,
    pg_gibbs_step,
    proposal_sample,
)
from mscmc.rng import CategoricalSampler, derive_stream, sample_polya_gamma_batch

AR_CFG = ArConfig(rho=0.9, d=2, h=0.49, r=1.5)


def report(num: str, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_01_ar_mean_estimation():
    t0 = time.perf_counter()
    model = ArModel(AR_CFG)
    atoms = build_initial_distribution(model, 100_000, master_seed=101)
    res = msc_estimate(model, atoms, 10_000, coordinate_functions(2), master_seed=101)
    runtime = time.perf_counter() - t0
    within = np.abs(res.estimates) <= 3 * res.stderrs
    ok = bool(np.all(within)) and runtime < 60.0
    report(
        "01",
        "ar-mean-estimation",
        ok,
        f"estimates={np.round(res.estimates, 5).tolist()} "
        f"3*stderr={np.round(3 * res.stderrs, 5).tolist()} runtime={runtime:.1f}s",
    )
    assert np.all(within)
    assert runtime < 60.0


def test_acceptance_02_representation_identity():
    model = ArModel(AR_CFG)
    d = AR_CFG.d
    target_ball = chi2.cdf(d, df=d)  # numerical-CDF oracle for the indicator
    functions = [lambda x: x[:, 0], lambda x: (np.sum(x * x, axis=1) <= d).astype(float)]
    M = 1_000_000
    sums = np.empty((M, 2))
    stream = derive_stream(102, "repr", 0)
    for m in range(M):
        stream.rekey(m)
        start = stream.gen.standard_normal(d)  # exact invariant-law start
        _, sums[m] = run_excursion(model, start, stream, 1_000_000, functions)
    means = sums.mean(axis=0)
    stderrs = sums.std(axis=0, ddof=1) / math.sqrt(M)
    targets = np.array([0.0, target_ball])
    ok = np.abs(means - targets) <= 4 * stderrs
    report(
        "02",
        "representation-identity",
        bool(np.all(ok)),
        f"coordinate: {means[0]:.5f} vs 0 (4se={4 * stderrs[0]:.5f}); "
        f"ball indicator: {means[1]:.5f} vs {target_ball:.5f} (4se={4 * stderrs[1]:.5f})",
    )
    assert np.all(ok)


def test_acceptance_03_excursion_length_bound():
    model = ArModel(AR_CFG)
    gamma, K, R = model.drift.gamma, model.drift.K, model.drift.R
    rate = model.drift.effective_rate
    # the block-sum bound evaluated at f = V: sup over the return set of
    # (V - 1 - (1-gamma) V + 2K) is gamma R + 2K - 1
    bound = (gamma * R + 2 * K - 1) / (1 - rate)
    as_printed = (2 * K - 1) / (1 - rate)  # simplification that drops gamma R

    atoms = build_initial_distribution(model, 100_000, master_seed=103)
    res = msc_estimate(
        model, atoms, 100_000, [lambda x: 1.0 + np.sum(x * x, axis=1)], master_seed=103
    )
    fsum_mean = float(res.estimates[0])
    ok = fsum_mean <= bound and res.mean_tau <= bound
    report(
        "03",
        "excursion-length-bound",
        ok,
        f"mean f-sum={fsum_mean:.4f}, mean_tau={res.mean_tau:.4f}, bound={bound:.2f} "
        f"(naive constant {as_printed:.3f} without the gamma R term would be "
        f"exceeded and is not a valid bound)",
    )
    assert fsum_mean <= bound
    assert res.mean_tau <= bound


def test_acceptance_04_mse_bound_dominance():
    model = ArModel(AR_CFG)
    N, M = 10_000, 1_000
    errors_sq = np.empty(50)
    for i in range(50):
        seed = 1_000 + i
        atoms = build_initial_distribution(model, N, master_seed=seed)
        res = msc_estimate(model, atoms, M, coordinate_functions(2)[:1], master_seed=seed)
        errors_sq[i] = res.estimates[0] ** 2  # true mean is zero
    empirical_mse = float(errors_sq.mean())
    bound = mse_bound(
        GeometricBoundInput(drift=model.drift, M=M, N=N, w2=model.weight_second_moment)
    )
    ok = empirical_mse <= bound
    report(
        "04",
        "mse-bound-dominance",
        ok,
        f"empirical MSE={empirical_mse:.2e} <= bound={bound:.2e} "
        f"(slack factor {bound / empirical_mse:.0f}x)",
    )
    assert ok


def test_acceptance_05_planner_round_trip():
    worst = 0.0
    for eps in (0.05, 0.1, 0.2):
        for delta in (0.05, 0.1, 0.2):
            drift, w2 = ar_drift_constants(0.9, 2, 0.49, 1.5)
            N, M = plan_sizes(eps, delta, drift, w2)
            got = mse_bound(GeometricBoundInput(drift=drift, M=M, N=N, w2=w2))
            worst = max(worst, got / (delta * eps**2))
            assert got <= delta * eps**2
    dims = [1, 5, 10, 15, 20, 25, 30]
    Ns, Ms = [], []
    for d in dims:
        N, M = plan_sizes(0.1, 0.1, *ar_drift_constants(0.9, d, 0.49, 1.5))
        Ns.append(N)
        Ms.append(M)
    monotone = all(a < b for a, b in zip(Ms, Ms[1:])) and all(
        a < b for a, b in zip(Ns, Ns[1:])
    )
    slopes = [(Ms[i + 1] - Ms[i]) / (dims[i + 1] - dims[i]) for i in range(len(dims) - 1)]
    linear = max(slopes) / min(slopes) < 1.05
    superlinear = Ns[-1] / Ns[0] > Ms[-1] / Ms[0]
    ok = monotone and linear and superlinear
    report(
        "05",
        "planner-round-trip",
        ok,
        f"worst bound/budget ratio={worst:.4f}; chain-count slope spread "
        f"{max(slopes) / min(slopes):.3f}; sweep monotone={monotone}",
    )
    assert ok


def test_acceptance_06_pg_sampler_correctness():
    from pg_oracle import pg_series_draws

    details = []
    ok = True
    for b, target in ((0.0, 0.25), (1.0, math.tanh(0.5) / 2.0)):
        stream = derive_stream(106, "pg-mean", int(b))
        draws = sample_polya_gamma_batch(stream, np.full(1_000_000, b))
        err = abs(float(draws.mean()) - target)
        ok = ok and err < 0.002
        details.append(f"mean(b={b:g}) err={err:.2e}")
    for b in (0.0, 1.0):
        stream = derive_stream(106, "pg-ks", int(b))
        exact = sample_polya_gamma_batch(stream, np.full(100_000, b))
        oracle = pg_series_draws(derive_stream(107, "pg-oracle", int(b)).gen, b, 100_000)
        p = ks_2samp(exact, oracle).pvalue
        ok = ok and p > 0.001
        details.append(f"KS(b={b:g}) p={p:.3f}")
    report("06", "pg-sampler-correctness", ok, "; ".join(details))
    assert ok


@pytest.fixture(scope="module")
def heart_posterior():
    ds = load_heart_dataset(HEART_PATH)
    return LogitPosterior(ds, 10.0 * np.eye(ds.d), h=0.49)


def test_acceptance_07_gibbs_drift_bound(heart_posterior):
    post = heart_posterior
    consts = logit_gibbs_constants(post.dataset.X, post.dataset.y, post.Sigma, post.h, 1.001)
    cap = 1.0 + consts["L"] + float(np.trace(post.Sigma))
    stream = derive_stream(108, "drift", 0)
    state_stream = derive_stream(108, "drift-states", 0)
    worst_margin = -np.inf
    ok = True
    for i in range(10):
        beta = proposal_sample(post, state_stream.rekey(i))
        vals = np.empty(2_000)
        for k in range(2_000):
            step = pg_gibbs_step(stream, beta, post)
            vals[k] = 1.0 + step @ step
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        margin = (vals.mean() - cap) / se if se > 0 else -np.inf
        worst_margin = max(worst_margin, margin)
        ok = ok and vals.mean() <= cap + 3 * se
    report(
        "07",
        "gibbs-one-step-drift",
        ok,
        f"10 states, worst (mean - bound)/se = {worst_margin:.1f} (bound={cap:.3e})",
    )
    assert ok


@pytest.fixture(scope="module")
def heart_cross_method(heart_posterior):
    post = heart_posterior
    t0 = time.perf_counter()
    model = LogitModel(post, r=1.001)
    atoms = build_initial_distribution(model, 100_000, master_seed=113)
    res = msc_estimate(
        model, atoms, 10_000, coordinate_functions(post.d), master_seed=113
    )
    start = atoms.atoms[
        CategoricalSampler(atoms.norm_weights).sample(derive_stream(113, "baseline-start", 0))
    ]
    gibbs = run_single_chain_gibbs(post, 100_000, 10_000, start, master_seed=113)
    rwm = run_rwm(post, 100_000, 10_000, start, master_seed=113)
    runtime = time.perf_counter() - t0
    return res, gibbs, rwm, runtime, atoms


def test_acceptance_08a_cross_method_baselines(heart_cross_method):
    res, gibbs, rwm, runtime, atoms = heart_cross_method
    z_gr = np.abs(gibbs.mean - rwm.mean) / np.sqrt(gibbs.stderr**2 + rwm.stderr**2)
    tau_ok = abs(res.mean_tau - 1.0) <= 0.01
    time_ok = runtime < 600.0
    chains_ok = bool(np.all(z_gr <= 3.0))
    ok = tau_ok and time_ok and chains_ok
    report(
        "08a",
        "cross-method-baselines",
        ok,
        f"mean_tau={res.mean_tau:.4f}; gibbs-vs-rwm max|z|={z_gr.max():.2f}; "
        f"runtime={runtime:.0f}s; restart ess={atoms.ess:.2f}",
    )
    assert tau_ok and time_ok and chains_ok


def test_acceptance_08b_cross_method_msc_agreement(heart_cross_method):
    res, gibbs, rwm, _, atoms = heart_cross_method
    z_g = np.abs(res.estimates - gibbs.mean) / np.sqrt(res.stderrs**2 + gibbs.stderr**2)
    z_r = np.abs(res.estimates - rwm.mean) / np.sqrt(res.stderrs**2 + rwm.stderr**2)
    ok = bool(np.all(z_g <= 3.0) and np.all(z_r <= 3.0))
    report(
        "08b",
        "cross-method-msc-agreement",
        ok,
        f"max|z| vs gibbs={z_g.max():.1f}, vs rwm={z_r.max():.1f}; restart "
        f"ess={atoms.ess:.2f} of {atoms.N} atoms (the prior-scale proposal "
        f"collapses onto one atom on this design; kept failing by design, "
        f"see the module docstring)",
    )
    assert ok


def _run_cli(tmp_path, tag, command, cfg_body, workers):
    out = tmp_path / f"{tag}-w{workers}"
    cfg_body = dict(cfg_body)
    cfg_body["out_dir"] = str(out)
    path = tmp_path / f"{tag}-w{workers}.json"
    path.write_text(json.dumps(cfg_body))
    assert main([command, str(path), "--workers", str(workers)]) == 0
    return out


def test_acceptance_09_determinism(tmp_path):
    ar_cfg = {
        "model": "ar",
        "master_seed": 11,
        "n_atoms": 2_000,
        "n_chains": 500,
        "ar": {"rho": 0.9, "d": 2, "h": 0.49, "r": 1.5},
    }
    logit_cfg = {
        "model": "logit",
        "master_seed": 11,
        "n_atoms": 800,
        "n_chains": 60,
        "logit": {"data_path": HEART_PATH, "sigma_scale": 10.0, "h": 0.49, "r": 1.001},
        "baseline": {"steps": 300, "burn_in": 30},
        "plan": {"eps": 0.1, "delta": 0.1, "dims": [1, 2, 3]},
    }
    jobs = [
        ("run-ar", ar_cfg, ("estimates.csv", "excursions.csv")),
        ("run-logit", logit_cfg, ("estimates.csv", "excursions.csv")),
        ("baseline-gibbs", logit_cfg, ("baseline_gibbs.csv",)),
        ("baseline-rwm", logit_cfg, ("baseline_rwm.csv",)),
        ("plan", logit_cfg, ("plan.csv",)),
    ]
    ok = True
    details = []
    for command, cfg, files in jobs:
        blobs = []
        for attempt in ("first", "second"):
            for workers in (1, 8):
                out = _run_cli(tmp_path, f"{command}-{attempt}", command, cfg, workers)
                blobs.append(b"".join((out / f).read_bytes() for f in files))
        identical = all(b == blobs[0] for b in blobs[1:])
        ok = ok and identical
        details.append(f"{command}={'ok' if identical else 'MISMATCH'}")
    report("09", "determinism", ok, ", ".join(details))
    assert ok


def test_acceptance_10_gradient_checks(heart_posterior):
    post = heart_posterior
    ds = post.dataset
    gen = derive_stream(110, "fd", 0).gen
    h = 1e-6
    worst_grad = 0.0
    for _ in range(20):
        beta = 0.05 * gen.standard_normal(ds.d)
        grad = neg_log_lik_grad(beta, ds)
        fd = np.empty(ds.d)
        for j in range(ds.d):
            e = np.zeros(ds.d)
            e[j] = h
            fd[j] = (neg_log_lik(beta + e, ds) - neg_log_lik(beta - e, ds)) / (2 * h)
        worst_grad = max(worst_grad, np.linalg.norm(fd - grad) / np.linalg.norm(grad))

    std = load_heart_dataset(HEART_PATH, standardize=True)
    worst_hvp = 0.0
    for _ in range(20):
        beta = 0.05 * gen.standard_normal(std.d)
        v = gen.standard_normal(std.d)
        v /= np.linalg.norm(v)
        hv = neg_log_lik_hess(beta, std) @ v
        fd = (neg_log_lik_grad(beta + h * v, std) - neg_log_lik_grad(beta - h * v, std)) / (
            2 * h
        )
        worst_hvp = max(worst_hvp, np.linalg.norm(fd - hv) / np.linalg.norm(hv))

    beta_star = map_estimate(post, tol=1e-8)
    grad_norm = float(
        np.linalg.norm(neg_log_lik_grad(beta_star, ds) + post.Sigma_inv @ beta_star)
    )
    ok = worst_grad <= 1e-6 and worst_hvp <= 1e-6 and grad_norm <= 1e-8
    report(
        "10",
        "gradient-checks",
        ok,
        f"grad FD rel={worst_grad:.2e}, hvp FD rel={worst_hvp:.2e}, "
        f"mode grad norm={grad_norm:.2e}",
    )
    assert ok
