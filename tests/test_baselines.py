import math

import numpy as np
import pytest

from mscmc.baselines import batch_means, run_rwm, run_single_chain_gibbs
from mscmc.logit import LogitPosterior, load_heart_dataset, log_unnorm_posterior
from mscmc.rng import derive_stream


class TestBatchMeans:
    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            batch_means(np.zeros((3, 1)))

    def test_iid_calibration(self):
        gen = derive_stream(41, "bm", 0).gen
        draws = gen.standard_normal((40_000, 1))
        mean, se = batch_means(draws)
        assert abs(mean[0]) < 4 / math.sqrt(40_000)
        # for iid data the batch-means error matches sigma/sqrt(T)
        assert 0.7 / math.sqrt(40_000) < se[0] < 1.4 / math.sqrt(40_000)

    def test_remainder_discarded(self):
        vals = np.arange(10.0).reshape(-1, 1)  # 3 batches of 3, drops the last
        mean, _ = batch_means(vals)
        assert mean[0] == pytest.approx(4.0)


class TestSingleChainGibbs:
    def test_symmetric_posterior_centered(self, tiny_symmetric_posterior):
        res = run_single_chain_gibbs(
            tiny_symmetric_posterior, 20_000, 2_000, np.zeros(1), master_seed=42
        )
        assert abs(res.mean[0]) <= 3 * res.stderr[0]
        assert res.acceptance_rate is None

    def test_step_budget_validation(self, tiny_symmetric_posterior):
        with pytest.raises(ValueError):
            run_single_chain_gibbs(
                tiny_symmetric_posterior, 100, 100, np.zeros(1), master_seed=42
            )


class TestRwm:
    def test_symmetric_posterior_centered(self, tiny_symmetric_posterior):
        res = run_rwm(tiny_symmetric_posterior, 20_000, 2_000, np.zeros(1), master_seed=43)
        assert abs(res.mean[0]) <= 3 * res.stderr[0]
        assert 0.0 < res.acceptance_rate < 1.0

    def test_acceptance_rate_in_tuned_band(self, heart_path):
        ds = load_heart_dataset(heart_path)
        post = LogitPosterior(ds, 10.0 * np.eye(ds.d))
        start = post.beta_star.copy()
        res = run_rwm(post, 20_000, 2_000, start, master_seed=44)
        assert 0.1 <= res.acceptance_rate <= 0.5

    def test_agrees_with_gibbs(self, small_synthetic_posterior):
        post = small_synthetic_posterior
        gibbs = run_single_chain_gibbs(post, 60_000, 6_000, np.zeros(post.d), master_seed=45)
        rwm = run_rwm(post, 60_000, 6_000, np.zeros(post.d), master_seed=46)
        combined = np.sqrt(gibbs.stderr**2 + rwm.stderr**2)
        assert np.all(np.abs(gibbs.mean - rwm.mean) <= 3 * combined)

    def test_stationary_histogram_matches_density(self, tiny_symmetric_posterior):
        # long-run state distribution against the quadrature-normalized target,
        # binned over the central 90% of the mass
        post = tiny_symmetric_posterior
        res_draws = _rwm_draws(post, 1_000_000, master_seed=47)
        lo, hi = np.quantile(res_draws, [0.05, 0.95])
        edges = np.linspace(lo, hi, 21)
        counts, _ = np.histogram(res_draws, bins=edges)
        widths = np.diff(edges)
        hist = counts / (len(res_draws) * widths)  # full-mass normalization

        grid = np.linspace(-12, 12, 20_001)
        glogp = np.array([log_unnorm_posterior(np.array([b]), post) for b in grid])
        gmax = glogp.max()
        z = np.trapezoid(np.exp(glogp - gmax), grid)
        dens = np.empty(len(widths))
        for i in range(len(widths)):  # bin-averaged target density
            sub = np.linspace(edges[i], edges[i + 1], 51)
            slp = np.array([log_unnorm_posterior(np.array([b]), post) for b in sub])
            dens[i] = np.trapezoid(np.exp(slp - gmax), sub) / z / widths[i]
        rel = np.abs(hist - dens) / dens
        assert rel.max() <= 0.10


def _rwm_draws(posterior, steps, master_seed):
    res = []
    stream = derive_stream(master_seed, "rwm-hist", 0)
    from mscmc.baselines import rwm_step_factor

    factor = rwm_step_factor(posterior)
    beta = np.zeros(posterior.d)
    lp = log_unnorm_posterior(beta, posterior)
    out = np.empty(steps)
    for t in range(steps):
        cand = beta + factor @ stream.gen.standard_normal(posterior.d)
        clp = log_unnorm_posterior(cand, posterior)
        if clp - lp >= 0 or stream.gen.random() < math.exp(clp - lp):
            beta, lp = cand, clp
        out[t] = beta[0]
    return out[steps // 10 :]
