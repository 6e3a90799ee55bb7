import math
import os

import numpy as np
import pytest

from conftest import bootstrap_stderr
from mscmc import engine, logit
from mscmc.baselines import run_single_chain_gibbs
from mscmc.bounds import logit_gibbs_constants
from mscmc.engine import (
    _atoms_from_log_weights,
    build_initial_distribution,
    coordinate_functions,
    msc_estimate,
)
from mscmc.logit import (
    DataFormatError,
    Dataset,
    LogitModel,
    LogitPosterior,
    load_heart_dataset,
    log_unnorm_posterior,
    map_estimate,
    neg_log_lik,
    neg_log_lik_grad,
    neg_log_lik_hess,
    pg_gibbs_step,
    proposal_log_weight,
    proposal_sample,
)
from mscmc.rng import derive_stream, sample_polya_gamma_batch


class TestNegLogLik:
    def test_zero_coefficients(self, heart_path):
        ds = load_heart_dataset(heart_path)
        assert neg_log_lik(np.zeros(ds.d), ds) == pytest.approx(ds.n * math.log(2), rel=1e-13)

    def test_scalar_value(self):
        ds = Dataset(X=np.array([[1.0]]), y=np.array([1.0]), column_names=["x"])
        expect = math.log(1 + math.e**2) - 2.0
        assert neg_log_lik(np.array([2.0]), ds) == pytest.approx(expect, rel=1e-13)
        assert expect == pytest.approx(0.12693, abs=5e-6)

    def test_overflow_safe(self):
        ds = Dataset(X=np.array([[1.0]]), y=np.array([0.0]), column_names=["x"])
        val = neg_log_lik(np.array([5000.0]), ds)
        assert math.isfinite(val) and val == pytest.approx(5000.0, rel=1e-12)

    def test_bits_of_the_logaddexp_form(self, heart_path):
        # the mode search and both baselines read neg_log_lik, so it keeps
        # np.logaddexp and its bits (the restart log-weights do not use it)
        ds = load_heart_dataset(heart_path)
        gen = derive_stream(35, "nll-bits", 0).gen
        for beta in (np.zeros(ds.d), *gen.standard_normal((4, ds.d)) * [[0.1], [1], [10], [100]]):
            t = ds.X @ beta
            assert neg_log_lik(beta, ds) == float(np.sum(np.logaddexp(0.0, t) - ds.y * t))

    def test_gradient_matches_finite_differences(self, heart_path):
        ds = load_heart_dataset(heart_path)
        gen = derive_stream(31, "fd", 0).gen
        h = 1e-6
        for _ in range(20):
            beta = 0.05 * gen.standard_normal(ds.d)
            grad = neg_log_lik_grad(beta, ds)
            fd = np.empty(ds.d)
            for j in range(ds.d):
                e = np.zeros(ds.d)
                e[j] = h
                fd[j] = (neg_log_lik(beta + e, ds) - neg_log_lik(beta - e, ds)) / (2 * h)
            assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)

    def test_hessian_vector_products_match_finite_differences(self, heart_path):
        # standardized design: raw covariate scales saturate the logistic at
        # random coefficients, leaving no curvature for the check to see
        ds = load_heart_dataset(heart_path, standardize=True)
        gen = derive_stream(31, "fd", 1).gen
        for _ in range(20):
            beta = 0.05 * gen.standard_normal(ds.d)
            v = gen.standard_normal(ds.d)
            v /= np.linalg.norm(v)
            h = 1e-6
            hv = neg_log_lik_hess(beta, ds) @ v
            fd = (neg_log_lik_grad(beta + h * v, ds) - neg_log_lik_grad(beta - h * v, ds)) / (
                2 * h
            )
            assert np.linalg.norm(fd - hv) <= 1e-6 * np.linalg.norm(hv)

    def test_hessian_spectral_bound(self, heart_path):
        # curvature of the log-likelihood never exceeds |X'X| / 4
        ds = load_heart_dataset(heart_path)
        gen = derive_stream(31, "fd", 2).gen
        cap = np.linalg.norm(ds.X.T @ ds.X, 2) / 4.0
        for _ in range(20):
            beta = 0.05 * gen.standard_normal(ds.d)
            top = np.linalg.norm(neg_log_lik_hess(beta, ds), 2)
            assert top <= cap * (1 + 1e-10)


class TestLogPosterior:
    def test_zero_coefficients(self, tiny_symmetric_posterior):
        post = tiny_symmetric_posterior
        n = post.dataset.n
        assert log_unnorm_posterior(np.zeros(1), post) == pytest.approx(
            -n * math.log(2), rel=1e-13
        )

    def test_matches_independent_assembly(self, heart_path):
        ds = load_heart_dataset(heart_path)
        post = LogitPosterior(ds, 10.0 * np.eye(ds.d))
        gen = derive_stream(32, "post", 0).gen
        sigma_inv = np.linalg.inv(10.0 * np.eye(ds.d))
        for _ in range(10):
            beta = 0.1 * gen.standard_normal(ds.d)
            expect = -neg_log_lik(beta, ds) - 0.5 * beta @ sigma_inv @ beta
            assert log_unnorm_posterior(beta, post) == pytest.approx(expect, rel=1e-12)

    def test_label_flip_symmetry(self, heart_path):
        # flipping all labels mirrors the posterior through the origin
        ds = load_heart_dataset(heart_path)
        flipped = Dataset(X=ds.X, y=1.0 - ds.y, column_names=ds.column_names)
        post = LogitPosterior(ds, 10.0 * np.eye(ds.d))
        post_f = LogitPosterior(flipped, 10.0 * np.eye(ds.d))
        gen = derive_stream(32, "post", 1).gen
        for _ in range(10):
            beta = 0.1 * gen.standard_normal(ds.d)
            a = log_unnorm_posterior(beta, post)
            b = log_unnorm_posterior(-beta, post_f)
            assert a == pytest.approx(b, rel=1e-12)


class TestMapEstimate:
    def test_mirrored_observations_give_zero(self, tiny_symmetric_posterior):
        beta = map_estimate(tiny_symmetric_posterior, tol=1e-12)
        assert abs(beta[0]) < 1e-10

    def test_scalar_against_bisection(self):
        ds = Dataset(X=np.array([[1.0]]), y=np.array([1.0]), column_names=["x"])
        post = LogitPosterior(ds, np.array([[10.0]]))
        beta = map_estimate(post, tol=1e-12)[0]

        def score(b):  # stationarity condition of the scalar mode
            return 1.0 / (1.0 + math.exp(-b)) - 1.0 + b / 10.0

        lo, hi = 0.0, 5.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if score(mid) > 0:
                hi = mid
            else:
                lo = mid
        assert beta == pytest.approx(lo, abs=1e-9)
        assert beta == pytest.approx(1.633, abs=1e-3)

    def test_gradient_norm_at_termination(self, heart_path):
        ds = load_heart_dataset(heart_path)
        post = LogitPosterior(ds, 10.0 * np.eye(ds.d))
        beta = map_estimate(post, tol=1e-8)
        grad = neg_log_lik_grad(beta, ds) + post.Sigma_inv @ beta
        assert np.linalg.norm(grad) <= 1e-8

    def test_newton_curvature_always_factorizable(self, heart_path):
        # strict convexity: the curvature matrix is SPD wherever probed
        ds = load_heart_dataset(heart_path)
        post = LogitPosterior(ds, 10.0 * np.eye(ds.d))
        gen = derive_stream(33, "map", 0).gen
        for _ in range(10):
            beta = gen.standard_normal(ds.d)
            hess = neg_log_lik_hess(beta, ds) + post.Sigma_inv
            np.linalg.cholesky(hess)  # raises if not SPD

    def test_unreachable_tolerance_reports_cap(self):
        # an off-center mode keeps the gradient norm at the float noise floor,
        # so an impossible tolerance must hit the iteration cap
        ds = Dataset(X=np.array([[1.0]]), y=np.array([1.0]), column_names=["x"])
        post = LogitPosterior(ds, np.array([[10.0]]))
        with pytest.raises(RuntimeError, match="did not reach"):
            map_estimate(post, tol=1e-300)

    def test_posterior_validation(self):
        ds = Dataset(X=np.array([[1.0]]), y=np.array([1.0]), column_names=["x"])
        with pytest.raises(ValueError, match="positive-definite"):
            LogitPosterior(ds, np.array([[-1.0]]))
        for bad in (np.nan, np.inf):  # numpy's Cholesky factors these without an error
            with pytest.raises(ValueError, match="finite"):
                LogitPosterior(ds, np.array([[bad]]))
        with pytest.raises(ValueError, match="h must"):
            LogitPosterior(ds, np.array([[10.0]]), h=0.8)
        with pytest.raises(ValueError, match="h must"):
            LogitPosterior(ds, np.array([[10.0]]), h=0.0)


class TestProposal:
    def test_deterministic(self, small_synthetic_posterior):
        a = proposal_sample(small_synthetic_posterior, derive_stream(34, "prop", 0))
        b = proposal_sample(small_synthetic_posterior, derive_stream(34, "prop", 0))
        assert np.array_equal(a, b)

    def test_mean_and_covariance(self, small_synthetic_posterior):
        # N(beta*, (1/2 + h) Sigma) with Sigma = 10 I and h = 0.49
        post = small_synthetic_posterior
        stream = derive_stream(3, "mvn", 1)
        draws = np.array([proposal_sample(post, stream) for _ in range(100_000)])
        assert np.all(np.abs(draws.mean(axis=0) - post.beta_star) < 0.05)
        cov = np.cov(draws.T) / ((0.5 + post.h) * 10.0)
        assert np.all(np.abs(cov - np.eye(post.d)) < 0.05)

    def test_diagonal_scale(self, tiny_symmetric_posterior):
        # Sigma = 4 and h = 0.01: variance (1/2 + h) * 4 = 2.04, far from Sigma's 4
        post = LogitPosterior(tiny_symmetric_posterior.dataset, np.array([[4.0]]), h=0.01)
        stream = derive_stream(3, "mvn", 2)
        draws = np.array([proposal_sample(post, stream)[0] for _ in range(100_000)])
        assert abs(draws.var() - 2.04) < 0.1

    def test_nonfinite_sigma_rejected(self):
        # no proposal factor is ever built from a non-finite prior covariance
        ds = Dataset(X=np.ones((2, 2)), y=np.array([1.0, 0.0]), column_names=["a", "b"])
        with pytest.raises(ValueError):
            LogitPosterior(ds, np.array([[1.0, 0.0], [np.nan, 1.0]]))

    def test_log_weight_finite_everywhere(self, small_synthetic_posterior):
        post = small_synthetic_posterior
        gen = derive_stream(34, "prop", 1).gen
        for scale in (0.1, 1.0, 10.0, 100.0):
            for _ in range(10):
                beta = scale * gen.standard_normal(post.d)
                assert math.isfinite(proposal_log_weight(post, beta))

    def test_weight_moment_dominated_by_chi_square_bound(self):
        # near-mirrored pair of observations; an exactly balanced design has a
        # vanishing score and no valid drift radius, so tilt it slightly
        X = np.array([[1.0], [0.9]])
        y = np.array([1.0, 0.0])
        ds = Dataset(X=X, y=y, column_names=["x"])
        post = LogitPosterior(ds, np.array([[10.0]]), h=0.49)
        consts = logit_gibbs_constants(X, y, np.array([[10.0]]), h=0.49, r=1.5)
        model = LogitModel(post, r=1.5)
        atoms = build_initial_distribution(model, 50_000, master_seed=34, workers=2)
        gen = derive_stream(34, "boot", 0).gen
        stat = lambda v: len(v) * float(np.sum(v**2)) / float(np.sum(v)) ** 2
        se = bootstrap_stderr(gen, atoms.norm_weights, stat, n_boot=200)
        assert atoms.w2_hat <= consts["W_d"] + 3 * se


@pytest.fixture(scope="module")
def dense_sigma_model() -> LogitModel:
    """n = 100, d = 5 with a dense SPD prior covariance, so the quadratic
    forms use Sigma^-1 off the diagonal and 1,000 rows take two passes of
    linear predictors; prior and data are of a scale that keeps the
    restart ess above 100 of 3,000."""
    gen = derive_stream(17, "dense-sigma", 0).gen
    X = np.column_stack([0.5 * gen.standard_normal((100, 4)), np.ones(100)])
    y = (gen.random(100) < 1.0 / (1.0 + np.exp(-X @ [0.6, -0.4, 0.3, 0.0, 0.2]))).astype(float)
    A = gen.standard_normal((5, 5))
    Sigma = 0.2 * (A @ A.T + np.eye(5))
    ds = Dataset(X=X, y=y, column_names=[f"x{j}" for j in range(5)])
    return LogitModel(LogitPosterior(ds, Sigma, h=0.3), r=1.5)


class TestLogWeights:
    def _betas(self, model, k):
        post = model.posterior
        return proposal_sample(post, derive_stream(17, "dense-betas", 0)) + 0.3 * (
            derive_stream(17, "dense-betas", 1).gen.standard_normal((k, post.d))
        )

    def test_rows_have_block_independent_bits(self, dense_sigma_model):
        # one row at a time through the one-row proposal_log_weight, and in
        # blocks split at uneven points, against one block of all rows
        model = dense_sigma_model
        betas = self._betas(model, 1_000)
        block = model.log_weights(betas)
        alone = np.array([proposal_log_weight(model.posterior, b) for b in betas])
        cuts = [0, 1, 137, 363, 364, 999, 1_000]
        split = np.concatenate([model.log_weights(betas[a:b]) for a, b in zip(cuts, cuts[1:])])
        assert np.array_equal(alone, block)
        assert np.array_equal(split, block)

    def test_matches_posterior_over_proposal_density(self, dense_sigma_model):
        post = dense_sigma_model.posterior
        betas = self._betas(dense_sigma_model, 200)
        cov = (0.5 + post.h) * post.Sigma
        _, logdet = np.linalg.slogdet(math.tau * cov)
        resid = betas - post.beta_star
        log_prop = -0.5 * np.sum(resid * np.linalg.solve(cov, resid.T).T, axis=1) - 0.5 * logdet
        direct = np.array([log_unnorm_posterior(b, post) for b in betas]) - log_prop
        got = dense_sigma_model.log_weights(betas)
        np.testing.assert_allclose(
            got[1:] - got[0], direct[1:] - direct[0], rtol=1e-9, atol=1e-9 * np.abs(direct).max()
        )

    def test_restart_weights_independent_of_workers(self, dense_sigma_model):
        model = dense_sigma_model
        one = build_initial_distribution(model, 3_000, master_seed=17, workers=1)
        two = build_initial_distribution(model, 3_000, master_seed=17, workers=2)
        assert np.array_equal(one.atoms, two.atoms)
        assert np.array_equal(one.norm_weights, two.norm_weights)
        whole = _atoms_from_log_weights(one.atoms, model.log_weights(one.atoms))
        assert np.array_equal(one.norm_weights, whole.norm_weights)
        assert one.ess > 100  # the comparison covers many weights, not one


    def test_clipped_softplus_matches_logaddexp(self):
        # |x . beta| from 0 to 1e3, with both labels, puts the sign-flipped
        # predictor u = (1 - 2y) x . beta on both sides of +-40, the clip
        n = 200
        X = np.column_stack([np.linspace(-1.0, 1.0, n), np.ones(n)])
        y = (derive_stream(36, "softplus-y", 0).gen.random(n) < 0.5).astype(float)
        ds = Dataset(X=X, y=y, column_names=["x", "intercept"])
        post = LogitPosterior(ds, 10.0 * np.eye(2))
        betas = np.column_stack([np.linspace(0.0, 1e3, 41), np.linspace(-5.0, 5.0, 41)])
        t = betas @ X.T
        assert np.abs(t).min() < 1.0 and 990.0 < np.abs(t).max() < 1_010.0
        assert ((t < -40) & (y == 1)).any() and ((t > 40) & (y == 0)).any()
        resid = betas - post.beta_star
        quad = lambda v: np.einsum("ri,ij,rj->r", v, post.Sigma_inv, v)
        expect = (
            0.5 * (quad(resid) / (0.5 + post.h) - quad(betas))
            + post._log_norm_prop
            - np.sum(np.logaddexp(0.0, t) - y * t, axis=1)
        )
        np.testing.assert_allclose(LogitModel(post, r=1.5).log_weights(betas), expect, rtol=1e-12)

    def test_clip_leaves_a_clipped_term_exact(self):
        # One row at u = (1 - 2y) x . beta = -35, inside the clip, where the
        # data term is log1p(e^-35), about 6.3e-16, and a small beta keeps
        # every other term near 1, so an absolute tolerance sees the data
        # term: a clip at 30 would give log1p(e^-30), 9.4e-14 too much
        ds = Dataset(X=np.array([[-350.0]]), y=np.array([0.0]), column_names=["x"])
        post = LogitPosterior(ds, 10.0 * np.eye(1))
        beta = np.array([0.1])
        t = float(ds.X[0] @ beta)
        assert t == pytest.approx(-35.0)
        resid = beta - post.beta_star
        quad = lambda v: float(v @ post.Sigma_inv @ v)
        expect = (
            0.5 * (quad(resid) / (0.5 + post.h) - quad(beta))
            + post._log_norm_prop
            - np.logaddexp(0.0, t)
        )
        got = LogitModel(post, r=1.5).log_weights(beta[None])[0]
        assert abs(got - expect) <= 1e-14


class TestRestartAtoms:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_atom_i_is_the_proposal_on_its_stream(self, dense_sigma_model, monkeypatch, workers):
        # chunks of 8 atoms, so the 50 atoms span several chunk boundaries
        model = dense_sigma_model
        monkeypatch.setattr(engine, "_WINDOW_WORDS", 8 * model.normals_per_atom + 1)
        atoms = build_initial_distribution(model, 50, master_seed=37, workers=workers)
        for i, atom in enumerate(atoms.atoms):
            assert np.array_equal(atom, proposal_sample(model.posterior, derive_stream(37, "init", i)))
            assert np.array_equal(atom, model.propose(derive_stream(37, "init", i)))
        whole = _atoms_from_log_weights(atoms.atoms, model.log_weights(atoms.atoms))
        assert np.array_equal(atoms.norm_weights, whole.norm_weights)


class TestGibbsKernel:
    def test_latent_draws_strictly_positive(self, small_synthetic_posterior, monkeypatch):
        # record the latents that each Gibbs scan draws
        drawn = []

        def record(source, tilts):
            drawn.append(sample_polya_gamma_batch(source, tilts))
            return drawn[-1]

        monkeypatch.setattr(logit, "sample_polya_gamma_batch", record)
        post = small_synthetic_posterior
        stream = derive_stream(35, "gibbs", 0)
        beta = np.zeros(post.d)
        for _ in range(50):
            beta = pg_gibbs_step(stream, beta, post)
        assert len(drawn) == 50
        assert all(np.all(omega > 0) for omega in drawn)

    def test_one_step_second_moment_bound(self, small_synthetic_posterior):
        post = small_synthetic_posterior
        consts = logit_gibbs_constants(
            post.dataset.X, post.dataset.y, post.Sigma, post.h, r=1.5
        )
        cap = 1.0 + consts["L"] + float(np.trace(post.Sigma))
        stream = derive_stream(35, "gibbs", 1)
        gen = derive_stream(35, "gibbs-states", 0).gen
        for _ in range(3):
            beta = gen.standard_normal(post.d)
            vals = np.empty(2_000)
            for i in range(2_000):
                step = pg_gibbs_step(stream, beta, post)
                vals[i] = 1.0 + step @ step
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert vals.mean() <= cap + 3 * se

    def test_msc_agrees_with_long_chain(self, small_synthetic_posterior):
        # cross-method oracle on a target wide enough for healthy restarts
        post = small_synthetic_posterior
        model = LogitModel(post, r=1.5)
        atoms = build_initial_distribution(model, 20_000, master_seed=35, workers=2)
        assert atoms.ess > 100  # restart stage must be healthy here
        res = msc_estimate(
            model, atoms, 4_000, coordinate_functions(post.d), master_seed=35, workers=2
        )
        chain = run_single_chain_gibbs(
            post, 200_000, 20_000, np.zeros(post.d), master_seed=36
        )
        combined = np.sqrt(res.stderrs**2 + chain.stderr**2)
        assert np.all(np.abs(res.estimates - chain.mean) <= 3 * combined)


def in_return_set(model, beta):
    return model.f_value(beta) <= model.drift.R


class TestReturnSet:
    def test_origin_inside(self, small_synthetic_posterior):
        assert in_return_set(LogitModel(small_synthetic_posterior, r=1.5), np.zeros(2))

    def test_matches_drift_radius(self, small_synthetic_posterior):
        # the engine's return set is the drift ball {|beta|^2 <= r L}
        post = small_synthetic_posterior
        model = LogitModel(post, r=1.5)
        L = model.constants["L"]
        score = post.dataset.X.T @ (post.dataset.y - 0.5)
        assert L == pytest.approx(np.linalg.norm(post.Sigma, 2) ** 2 * float(score @ score))
        gen = derive_stream(36, "set", 0).gen
        for _ in range(50):
            beta = math.sqrt(L) * 1.3 * gen.standard_normal(post.d)
            assert in_return_set(model, beta) == (float(beta @ beta) <= 1.5 * L)

    def test_boundary_inclusive(self, small_synthetic_posterior):
        post = small_synthetic_posterior
        model = LogitModel(post, r=1.5)
        L = model.constants["L"]
        radius = math.sqrt(1.5 * L)
        assert in_return_set(model, np.array([radius * (1 - 1e-12), 0.0]))
        assert not in_return_set(model, np.array([radius * (1 + 1e-9), 0.0]))


class TestHeartLoader:
    def test_row_and_column_counts(self, heart_path):
        ds = load_heart_dataset(heart_path)
        # independent line-level oracle on the raw file
        with open(heart_path) as fh:
            lines = [l for l in fh if l.strip()]
        n_missing = sum("?" in l for l in lines)
        assert n_missing == 6
        assert ds.n == len(lines) - n_missing == 297
        assert ds.d == 19
        assert ds.column_names[-1] == "intercept"
        assert np.all(ds.X[:, -1] == 1.0)

    def test_target_matches_disease_column(self, heart_path):
        ds = load_heart_dataset(heart_path)
        raw = []
        with open(heart_path) as fh:
            for line in fh:
                parts = line.strip().split(",")
                if "?" not in parts:
                    raw.append(float(parts[-1]) > 0)
        assert np.array_equal(ds.y.astype(bool), np.array(raw))

    def test_one_hot_blocks(self, heart_path):
        ds = load_heart_dataset(heart_path)
        onehot = [n for n in ds.column_names if "=" in n]
        # cp: 4 levels, restecg: 3, slope: 3, thal: 3, lowest level dropped
        assert len(onehot) == 3 + 2 + 2 + 2
        for name in onehot:
            col = ds.X[:, ds.column_names.index(name)]
            assert set(np.unique(col)) <= {0.0, 1.0}

    def test_file_without_missing_markers(self, tmp_path):
        path = tmp_path / "clean.data"
        row = "63,1,1,145,233,1,2,150,0,2.3,3,0,6,0"
        path.write_text("\n".join([row] * 5) + "\n")
        ds = load_heart_dataset(str(path))
        assert ds.n == 5

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.data"
        good = "63,1,1,145,233,1,2,150,0,2.3,3,0,6,0"
        path.write_text(good + "\n" + "1,2,3\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_heart_dataset(str(path))

    def test_unparseable_field_rejected(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text("63,1,1,145,abc,1,2,150,0,2.3,3,0,6,0\n")
        with pytest.raises(DataFormatError, match="unparseable"):
            load_heart_dataset(str(path))

    def test_standardize_z_scores_columns(self, heart_path):
        ds = load_heart_dataset(heart_path, standardize=True)
        raw = load_heart_dataset(heart_path)
        body, raw_body = ds.X[:, :-1], raw.X[:, :-1]
        assert np.all(np.abs(body.mean(axis=0)) < 1e-10)
        assert np.allclose(body.std(axis=0), 1.0)
        # each column is an affine map of its raw column; the intercept stays
        means, scales = raw_body.mean(axis=0), raw_body.std(axis=0)
        assert np.allclose(body * scales + means, raw_body)
        assert np.array_equal(ds.X[:, -1], raw.X[:, -1])

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_heart_dataset("/nonexistent/file.data")
