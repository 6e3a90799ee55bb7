import concurrent.futures
import hashlib
import math

import numpy as np
import pytest
from numpy.random import Philox
from scipy.stats import ks_2samp

from mscmc import rng
from mscmc.rng import (
    CategoricalSampler,
    CounterDraws,
    derive_stream,
    fnv1a64,
    ndtri,
    open_uniform,
    sample_polya_gamma_batch,
    stream_words,
)


class TestStreams:
    def test_same_triple_same_sequence(self):
        a = derive_stream(42, "init", 0).gen.random(100)
        b = derive_stream(42, "init", 0).gen.random(100)
        assert np.array_equal(a, b)

    def test_distinct_index_differs(self):
        a = derive_stream(42, "init", 0).gen.random(100)
        b = derive_stream(42, "init", 1).gen.random(100)
        assert not np.array_equal(a, b)

    def test_distinct_label_differs(self):
        a = derive_stream(42, "init", 3).gen.random(100)
        b = derive_stream(42, "chain", 3).gen.random(100)
        assert not np.array_equal(a, b)

    def test_thread_count_irrelevant(self):
        serial = [derive_stream(42, "chain", 7).gen.random(50)]

        def work(_):
            return derive_stream(42, "chain", 7).gen.random(50)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(work, range(8)))
        for seq in parallel:
            assert np.array_equal(seq, serial[0])

    def test_rekey_matches_fresh_stream(self):
        stream = derive_stream(9, "chain", 0)
        for idx in (0, 5, 17, 2**40, 2**64 - 1):
            stream.rekey(idx)
            got = stream.gen.random(20)
            want = derive_stream(9, "chain", idx).gen.random(20)
            assert np.array_equal(got, want)

    def test_pairwise_correlation_smoke(self):
        n = 20_000
        base = derive_stream(1, "a", 0).gen.random(n)
        for label, idx in (("a", 1), ("a", 999), ("b", 0), ("chain", 12)):
            other = derive_stream(1, label, idx).gen.random(n)
            r = np.corrcoef(base, other)[0, 1]
            assert abs(r) < 4.0 / math.sqrt(n)

    def test_fnv1a64_reference_values(self):
        # reference vectors for the documented label hash
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            derive_stream(-1, "x", 0)
        with pytest.raises(ValueError):
            derive_stream(0, "x", 2**64)
        with pytest.raises(ValueError):
            derive_stream(0, "x", 0).rekey(2**64)


def philox_words(seed, label, index, n, offset=0):
    key = np.array([seed ^ fnv1a64(label), index], dtype=np.uint64)
    return Philox(key=key).random_raw(offset + n)[offset:]


class TestStreamWords:
    @pytest.mark.parametrize("label", ["init", "chain", "", "x" * 40])
    def test_known_answer_against_numpy_philox(self, label):
        seed = 0xFEEDFACECAFEBEEF
        for lo, hi in ((0, 5), (2**64 - 3, 2**64)):
            index = np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64)
            words = stream_words(seed, label, index, 9)  # 9 words: three counter blocks
            assert words.shape == (hi - lo, 9) and words.dtype == np.uint64
            for i in range(lo, hi):
                assert np.array_equal(words[i - lo], philox_words(seed, label, i, 9))

    @pytest.mark.parametrize("offset", [0, 1, 3, 4, 5, 17])
    def test_word_window_at_offset(self, offset):
        # unsorted and repeated indices, the top three 64-bit indices among them
        seed = 0x0123456789ABCDEF
        index = np.array([7, 2**64 - 1, 0, 2**64 - 3, 7, 2**64 - 2], dtype=np.uint64)
        for n in (1, 3, 4, 6, 13):  # windows that cross 4-word block boundaries
            words = stream_words(seed, "chain", index, n, offset)
            assert words.shape == (index.size, n)
            for row, i in zip(words, index.tolist()):
                assert np.array_equal(row, philox_words(seed, "chain", i, n, offset))

    def test_bytes_pinned(self):
        # 20,000 streams x 6 blocks span eight Philox passes; the digest was
        # taken before the block function took counter words 1-3 as inputs
        index = np.arange(20_000, dtype=np.uint64) * 7919
        words = stream_words(0xFEEDFACECAFEBEEF, "chain", index, 21, offset=3)
        assert (
            hashlib.sha256(words.tobytes()).hexdigest()
            == "9dd6a80d540cbe1452c232d16f2c71513992fbb16ad8b442b7780e4bae7186e1"
        )

    def test_block_function_known_answer_full_counter(self):
        # numpy's Philox increments its 256-bit counter before each block, so
        # its first block from counter c is the block at c + 1; the last case
        # carries from word 0 into word 1
        top = 2**64 - 1
        cases = [  # key, the block's counter, the counter numpy starts from
            ((0xFEEDFACECAFEBEEF, 3), (5, 1, 2, 3), (4, 1, 2, 3)),
            ((1, top), (top, top, 7, 2**63), (top - 1, top, 7, 2**63)),
            ((top, 0), (1, 5, 0, 0), (0, 5, 0, 0)),
            ((12345, 2**40), (0, 10, 11, 13), (top, 9, 11, 13)),
        ]
        for (k0, k1), block, start in cases:
            key = np.array([k0, k1], dtype=np.uint64)
            want = Philox(key=key, counter=np.array(start, dtype=np.uint64))
            counter = tuple(np.array([c], dtype=np.uint64) for c in block)
            got = rng._philox(k0, np.array([k1], dtype=np.uint64), counter)
            assert np.array_equal(got[0], want.random_raw(4))
        # many lanes at once, counter words as arrays and as one shared integer
        key1 = np.array([3, top, 0, 2**40], dtype=np.uint64)
        c0, c2 = np.array([5, 6, 7, 8], dtype=np.uint64), np.arange(4, dtype=np.uint64)
        got = rng._philox(99, key1, (c0, 2, c2, 1))
        for lane in range(4):
            start = np.array([c0[lane] - 1, 2, c2[lane], 1], dtype=np.uint64)
            want = Philox(key=np.array([99, key1[lane]], dtype=np.uint64), counter=start)
            assert np.array_equal(got[lane], want.random_raw(4))

    def test_empty_range(self):
        assert stream_words(3, "init", np.array([], dtype=np.uint64), 2).shape == (0, 2)
        assert stream_words(3, "init", [], 5, offset=6).shape == (0, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            stream_words(-1, "init", [0], 1)
        with pytest.raises(ValueError):
            stream_words(0, "init", [0], 0)
        with pytest.raises(ValueError):
            stream_words(0, "init", [0], 1, offset=-1)
        for bad in ([2**64], [1, -1], [[0]]):
            with pytest.raises(ValueError):
                stream_words(0, "init", bad, 1)

    def test_open_uniform_extremes_and_symmetry(self):
        words = np.array([0, 2**12 - 1, 2**64 - 1, 2**63], dtype=np.uint64)
        u = open_uniform(words)
        assert u[0] == u[1] == 2.0**-53
        assert u[2] == 1.0 - 2.0**-53
        assert u[3] == 0.5 + 2.0**-53
        assert np.all((u > 0.0) & (u < 1.0))
        assert np.array_equal(1.0 - open_uniform(~words), u)


class TestNdtri:
    @pytest.fixture(scope="class")
    def uniforms(self):
        # 2e6 open_uniform values plus both extremes (words 0 and 2**64 - 1)
        words = stream_words(23, "ndtri", np.arange(500_000), 4).ravel()
        extremes = np.array([0, 2**64 - 1], dtype=np.uint64)
        return open_uniform(np.concatenate([words, extremes]))

    def test_within_8_ulp_of_scipy(self, uniforms):
        from scipy.special import ndtri as scipy_ndtri

        want = scipy_ndtri(uniforms)
        ulps = np.abs(ndtri(uniforms) - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 8.0

    def test_bytes_pinned(self):
        # two array passes of open_uniform values, the extreme words, and the
        # floats at and beside the region edges |u - 1/2| = 0.425 and
        # 1/2 - |u - 1/2| = e^-25 (r = 5); the digest was taken when ndtri
        # still evaluated the central region on its values alone
        words = stream_words(29, "ndtri-pin", np.arange(16_384), 4).ravel()
        extremes = np.array([0, 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
        edges = np.array([0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)])
        u = np.concatenate(
            [
                open_uniform(words),
                open_uniform(extremes),
                np.nextafter(edges, 0.0),
                edges,
                np.nextafter(edges, 1.0),
                [0.5],
            ]
        )
        with np.errstate(all="raise"):
            z = ndtri(u)
        assert (
            hashlib.sha256(z.tobytes()).hexdigest()
            == "ca03a8c1bf4b85aa712a56f3bd0ecc5ddb0c78886913016a6bc1e80cd63fa0e5"
        )

    def test_exact_antisymmetry(self, uniforms):
        assert np.array_equal(ndtri(1.0 - uniforms), -ndtri(uniforms))

    def test_small_path_equals_array_path(self, uniforms):
        from mscmc.rng import _NDTRI_SMALL

        # every tail value of the fixture (about 3e5; the scalar path's log
        # must round like the array path's), some central values, and far
        # tail values (r > 5, u below about 1.4e-11) at both ends
        tails = uniforms[np.abs(uniforms - 0.5) > 0.425]
        picks = np.concatenate([uniforms[:2_000], tails, [1e-12, 1.0 - 2.0**-40]])
        r = np.sqrt(-np.log(0.5 - np.abs(picks - 0.5)))
        assert (r > 5.0).sum() >= 4 and (r <= 5.0).sum() > 1e5
        whole = ndtri(picks)
        for a in range(0, picks.size, _NDTRI_SMALL):
            chunk = picks[a : a + _NDTRI_SMALL]
            assert ndtri(chunk).tobytes() == whole[a : a + chunk.size].tobytes()
        singles = np.r_[0:2_000:7, picks.size - 2_000 : picks.size]
        for i in singles.tolist():
            assert ndtri(picks[i]).tobytes() == whole[i].tobytes()
            assert ndtri(picks[i : i + 1]).tobytes() == whole[i : i + 1].tobytes()
        block = picks[: 4 * _NDTRI_SMALL].reshape(-1, 4)
        assert np.array_equal(ndtri(block), whole[: block.size].reshape(block.shape))
        assert np.array_equal(ndtri(block[:2]), whole[:8].reshape(2, 4))


class TestLogNdtr:
    @pytest.fixture(scope="class")
    def grid(self):
        # [-1000, 40] in steps of 1e-3, plus Cody's region boundaries
        # |x| / sqrt 2 = 0.46875 and 4 and the floats either side of them
        edges = np.array([0.46875, 4.0]) * math.sqrt(2.0)
        edges = np.concatenate([edges, -edges])
        near = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
        return np.concatenate([np.linspace(-1000.0, 40.0, 1_040_001), near])

    def test_against_scipy(self, grid):
        from scipy.special import log_ndtr

        from mscmc.rng import _log_ndtr

        got, want = _log_ndtr(grid), log_ndtr(grid)
        # each side is a few ulp off in the upper half (against 40-digit
        # values: up to 3e-15 relative here, 7e-15 for scipy, which takes
        # log(ndtr(x)) up to x = 6).  Beyond x = 6 scipy returns -ndtr(-x),
        # whose relative error grows like x^2 ulp (3e-13 at x = 30), so the
        # upper tail is held to an absolute bound (log Phi(6) is -1e-9)
        low = grid <= 6.0
        np.testing.assert_allclose(got[low], want[low], rtol=2e-14, atol=0.0)
        np.testing.assert_allclose(got[~low], want[~low], rtol=0.0, atol=1e-22)

    def test_branch_probs_against_scipy_formula(self, monkeypatch):
        from scipy.special import log_ndtr

        from mscmc import rng

        z = np.concatenate([np.linspace(0.0, 2000.0, 200_001), np.geomspace(1e-8, 1.0, 1_001)])
        got = rng._right_branch_probs(z)
        monkeypatch.setattr(rng, "_log_ndtr", log_ndtr)
        np.testing.assert_allclose(got, rng._right_branch_probs(z), rtol=0.0, atol=1e-15)


class TestStdNormal:
    def test_moments(self):
        stream = derive_stream(7, "normal", 0)
        draws = stream.gen.standard_normal(1_000_000)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01


class TestCategorical:
    def test_single_atom(self):
        stream = derive_stream(5, "cat", 0)
        sampler = CategoricalSampler(np.array([1.0]))
        assert all(sampler.sample(stream) == 0 for _ in range(50))

    def test_fair_coin_frequency(self):
        stream = derive_stream(5, "cat", 1)
        sampler = CategoricalSampler(np.array([0.5, 0.5]))
        n = 1_000_000
        zeros = sum(sampler.sample(stream) == 0 for _ in range(n))
        assert 0.4985 <= zeros / n <= 0.5015

    def test_degenerate_mass(self):
        stream = derive_stream(5, "cat", 2)
        sampler = CategoricalSampler(np.array([0.0, 1.0, 0.0]))
        assert all(sampler.sample(stream) == 1 for _ in range(200))

    def test_matches_weights_on_skewed_vector(self):
        stream = derive_stream(5, "cat", 3)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        sampler = CategoricalSampler(w)
        n = 200_000
        counts = np.bincount([sampler.sample(stream) for _ in range(n)], minlength=4)
        assert np.all(np.abs(counts / n - w) < 0.005)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CategoricalSampler(np.array([0.5, -0.1, 0.6]))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            CategoricalSampler(np.array([0.5, 0.6]))

    @pytest.mark.parametrize(
        "weights, u, want",
        [
            ([0.25, 0.75, 0.0, 0.0], 1.0 - 2.0**-53, 1),  # trailing zeros, largest uniform
            ([0.0, 0.5, 0.5], 0.0, 1),  # leading zero, smallest uniform
            ([0.5, 0.0, 0.5], 0.5, 2),  # uniform exactly on an interior zero's cdf
            ([0.5, 0.0, 0.5], 0.5 - 2.0**-54, 0),
        ],
    )
    def test_zero_weight_never_returned_at_extreme_uniforms(self, weights, u, want):
        sampler = CategoricalSampler(np.array(weights))
        assert int(sampler.pick(u)) == want
        assert sampler.pick(np.array([u, u]))[1] == want

    @pytest.mark.parametrize(
        "weights",
        [
            [0.25, 0.75, 0.0, 0.0],  # trailing zeros
            [0.0, 0.0, 1.0, 0.0],  # a single atom between zeros
            [1.0],  # a single atom alone
            [0.1, 0.2, 0.3, 0.4],  # every weight nonzero
        ],
    )
    def test_last_is_the_last_nonzero_index(self, weights):
        w = np.array(weights)
        assert CategoricalSampler(w).last == int(np.flatnonzero(w)[-1])

    def test_sample_is_pick_of_generator_random(self):
        # sample reads one raw word through pick_words, which maps it to the
        # double u that numpy's Generator.random() makes of that one word.
        # Weights (e, 1 - e), e a multiple of 2**-53, put the cdf's one edge
        # at exactly e, so the draws at e = u and e = u + 2**-53 pin u
        for i in range(2_000):
            u = derive_stream(5, "cat", 10 + i).gen.random()
            for edge, want in ((u, 1), (u + 2.0**-53, 0)):
                sampler = CategoricalSampler(np.array([edge, 1.0 - edge]))
                stream = derive_stream(5, "cat", 10 + i)
                assert sampler.sample(stream) == int(sampler.pick(u)) == want
                assert stream.gen.random() == derive_stream(5, "cat", 10 + i).gen.random(2)[1]
        # the extreme words map to the extreme doubles 0 and 1 - 2**-53
        edges = CategoricalSampler(np.array([0.0, 0.5, 0.0, 0.5, 0.0]))
        assert edges.pick_words(np.array([0, 2**64 - 1], dtype=np.uint64)).tolist() == [1, 3]

    def test_pick_keeps_drawn_order(self):
        w = derive_stream(5, "cat", 6).gen.random(1_000)
        sampler = CategoricalSampler(w / w.sum())
        u = derive_stream(5, "cat", 7).gen.random(5_000)
        want = [int(sampler.pick(x)) for x in u]  # one 0-d search per uniform
        assert sampler.pick(u).tolist() == want

    def test_zero_weights_never_drawn(self):
        w = np.zeros(64)
        w[[3, 17, 40, 63]] = [0.1, 0.2, 0.3, 0.4]
        w[63] = 1.0 - w[:63].sum()
        sampler = CategoricalSampler(w)
        stream = derive_stream(5, "cat", 4)
        draws = np.array([sampler.sample(stream) for _ in range(20_000)])
        assert set(draws.tolist()) == {3, 17, 40, 63}

    def test_one_uniform_per_draw(self):
        sampler = CategoricalSampler(np.array([0.1, 0.2, 0.3, 0.4]))
        stream = derive_stream(5, "cat", 5)
        for _ in range(10):
            sampler.sample(stream)
        assert stream.gen.random() == derive_stream(5, "cat", 5).gen.random(11)[-1]


def pg_true_mean(b: float) -> float:
    return 0.25 if b == 0.0 else math.tanh(b / 2.0) / (2.0 * b)


class TestPolyaGamma:
    def test_mean_b0(self):
        stream = derive_stream(11, "pg", 0)
        draws = sample_polya_gamma_batch(stream, np.full(1_000_000, 0.0))
        assert abs(draws.mean() - 0.25) < 0.002

    def test_mean_b1(self):
        stream = derive_stream(11, "pg", 1)
        draws = sample_polya_gamma_batch(stream, np.full(1_000_000, 1.0))
        assert abs(draws.mean() - pg_true_mean(1.0)) < 0.002

    def test_strictly_positive(self):
        stream = derive_stream(11, "pg", 2)
        for b in (0.0, 0.3, 2.0, 25.0, 300.0):
            assert np.all(sample_polya_gamma_batch(stream, np.full(2_000, b)) > 0.0)

    def test_invalid_b(self):
        stream = derive_stream(11, "pg", 3)
        for bad in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                sample_polya_gamma_batch(stream, np.array([bad]))

    @pytest.mark.parametrize("b", [0.0, 0.5, 1.0, 3.0])
    def test_ks_against_series_oracle(self, b):
        from pg_oracle import pg_series_draws

        n = 100_000
        stream = derive_stream(13, "pg-ks", int(b * 10))
        exact = sample_polya_gamma_batch(stream, np.full(n, b))
        oracle = pg_series_draws(derive_stream(17, "pg-oracle", int(b * 10)).gen, b, n)
        assert ks_2samp(exact, oracle).pvalue > 0.001

    @pytest.mark.parametrize("b", [4.0, 10.0])
    def test_ks_large_tilt_branch(self, b):
        # tilts above 2/t land in the small-mean inverse-Gaussian branch of
        # the proposal, untouched by the smaller reference tilts
        from pg_oracle import pg_series_draws

        n = 60_000
        oracle = pg_series_draws(derive_stream(17, "pg-oracle-large", int(b)).gen, b, n)
        batch = sample_polya_gamma_batch(
            derive_stream(13, "pg-ks-large-batch", int(b)), np.full(n, b)
        )
        assert ks_2samp(batch, oracle).pvalue > 0.001

    def test_batch_empty_input(self):
        out = sample_polya_gamma_batch(derive_stream(19, "pg-batch", 4), np.array([]))
        assert out.shape == (0,)

    def test_batch_mixed_tilts(self):
        stream = derive_stream(19, "pg-batch", 1)
        b = np.array([0.0, 0.1, 1.0, 4.0, 40.0] * 2_000)
        draws = sample_polya_gamma_batch(stream, b)
        assert np.all(draws > 0)
        for tilt in (0.0, 1.0, 40.0):
            sub = draws[b == tilt]
            se = sub.std(ddof=1) / math.sqrt(len(sub))
            assert abs(sub.mean() - pg_true_mean(tilt)) < 5 * se

    def test_batch_validation(self):
        stream = derive_stream(19, "pg-batch", 2)
        with pytest.raises(ValueError):
            sample_polya_gamma_batch(stream, np.array([0.5, -1.0]))
        with pytest.raises(ValueError):
            sample_polya_gamma_batch(stream, np.array([[1.0]]))

    def test_batch_deterministic(self):
        a = sample_polya_gamma_batch(derive_stream(19, "pg-batch", 3), np.full(100, 2.0))
        b = sample_polya_gamma_batch(derive_stream(19, "pg-batch", 3), np.full(100, 2.0))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("b", [0.0, 1.0, 10.0, 700.0])
    def test_counter_draws_match_stream_draws(self, b):
        # the stream path is checked against the series oracle (acceptance
        # 06 and above); b = 0 and 1 take the large-mean inverse-Gaussian
        # proposal, 10 and 700 the small-mean one at heart-design tilts
        n = 100_000
        stream = sample_polya_gamma_batch(derive_stream(23, "pg-ks-stream", int(b)), np.full(n, b))
        keys = stream_words(23, "pg-ks-keys", np.arange(400), 1)[:, 0]
        source = CounterDraws(fnv1a64("pg-ks"), np.repeat(keys, 250), np.tile(np.arange(250), 400))
        counter = sample_polya_gamma_batch(source, np.full(n, b))
        assert np.all(counter > 0.0)
        assert ks_2samp(counter, stream).pvalue > 0.001

    def test_counter_draws_independent_of_batch(self):
        # a tilt's draw is a function of its key word, row and tilt alone: the
        # same bits alone, in blocks of two sizes (whose retries meet the
        # look-ahead passes differently), and in the block permuted
        gen = np.random.default_rng(29)
        n = 1_000
        b = gen.choice([0.0, 0.3, 1.0, 3.0, 6.0, 40.0, 700.0], n) * gen.uniform(0.5, 1.5, n)
        key1 = gen.integers(0, 2**63, n, dtype=np.uint64) * np.uint64(2)
        row = gen.integers(0, 300, n, dtype=np.uint64)
        one = [CounterDraws(7, key1[t : t + 1], row[t : t + 1]) for t in range(n)]
        alone = np.array([sample_polya_gamma_batch(one[t], b[t : t + 1])[0] for t in range(n)])
        for size in (300, 700, n):
            block = sample_polya_gamma_batch(CounterDraws(7, key1[:size], row[:size]), b[:size])
            assert np.array_equal(block, alone[:size])
        perm = gen.permutation(n)
        permuted = sample_polya_gamma_batch(CounterDraws(7, key1[perm], row[perm]), b[perm])
        assert np.array_equal(permuted, alone[perm])
        # another key0 or row gives other draws
        assert not np.any(sample_polya_gamma_batch(CounterDraws(8, key1, row), b) == alone)
        assert not np.any(sample_polya_gamma_batch(CounterDraws(7, key1, row + 1), b) == alone)

    def test_counter_runs_match_single_tilts(self, monkeypatch):
        # Tilts under one key whose rows count up by one, as a Gibbs step's
        # latents are laid out, take a round's first blocks from numpy's C
        # Philox a run at a time; a tilt alone takes the vectorised pass.
        # Runs start at row 0, where the counter borrows from the round word,
        # and one crosses row 2**64 - 1, where the rows wrap but the counter
        # would carry, so the run must break there
        top = 2**64 - 1
        spans = [(0, 300), (top - 19, top + 1), (0, 20), (0, 297), (10, 70)]
        row = np.concatenate([np.arange(a, b, dtype=np.uint64) for a, b in spans])
        key1 = np.repeat(np.array([3, 3, 3, 5, top], dtype=np.uint64), [300, 20, 20, 297, 60])
        gen = np.random.default_rng(41)
        b = gen.choice([0.0, 0.3, 1.0, 3.0, 6.0, 40.0, 700.0], row.size)
        b *= gen.uniform(0.5, 1.5, row.size)
        source = CounterDraws(7, key1, row)
        made = []
        # _first_blocks imports Philox from numpy.random when it runs
        monkeypatch.setattr(np.random, "Philox", lambda **kw: made.append(Philox(**kw)) or made[-1])
        for outer in (0, 1, 3):
            draw = rng._CounterRound(source, np.arange(row.size), outer)
            assert np.array_equal(draw.first, draw._blocks(np.arange(row.size), 0, 1)[:, 0])
        assert len(made) == 3  # every round took the run path
        batch = sample_polya_gamma_batch(source, b)
        for t in range(row.size):
            one = CounterDraws(7, key1[t : t + 1], row[t : t + 1])
            assert sample_polya_gamma_batch(one, b[t : t + 1])[0] == batch[t]

    def test_counter_draws_validation(self):
        with pytest.raises(ValueError):
            CounterDraws(2**64, [0], [0])
        with pytest.raises(ValueError):
            CounterDraws(0, [0, 1], [0])
        with pytest.raises(ValueError):
            sample_polya_gamma_batch(CounterDraws(0, [0, 1], [0, 1]), np.ones(3))

    def test_rejection_cap_pinned(self):
        from mscmc.rng import MAX_REJECT_ITERS

        assert MAX_REJECT_ITERS == 10_000
