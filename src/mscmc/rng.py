"""Deterministic splittable random streams and the samplers built on them.

Streams are counter-based (Philox 4x64) and derived in O(1) from a triple
(master_seed, label, index), so the draw sequence of any stream is fixed
regardless of scheduling, thread count, or platform.  Label strings are
hashed with FNV-1a 64-bit; the Philox key words are
(master_seed XOR fnv1a64(label), index).

Every word of a stream has an address: word w of stream (seed, label, i) is
word w % 4 of the Philox4x64-10 block at counter w // 4 + 1, a pure function
of (key, counter).  ``stream_words`` therefore computes any window of words of
any set of streams at once, in vectorised passes over (stream, block) pairs,
bit-identical to drawing them from each stream in turn; ``open_uniform`` maps
words into (0, 1), and ``ndtri``, Wichura's AS 241 normal inverse CDF in
numpy, maps those to standard normals.  A
consumer that reads a fixed number of words per draw can fix its layout in
advance (word 0 for one draw, words 1..w for the next, and so on) and draw
the same values one stream at a time or for a whole block of streams at once.

Two samplers draw from a stream: ``CategoricalSampler``, an inverse-CDF
sampler over the restart weights (``pick`` maps an array of uniforms at
once), and ``sample_polya_gamma_batch``, exact PG(1, b) draws for a whole
vector of tilts (the latent step of the logistic Gibbs kernel).  The PG
sampler also reads its draws at counter addresses (``CounterDraws``): a
Philox block's counter then names a tilt, a round and a block within it,
so a tilt's draw does not depend on the batch it arrives in.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

# numpy.random (some 6 MB of compiled modules once resident) is imported by
# the two callers that build its objects, RngStream and a counter round's
# first blocks, not here: the AR commands read every word with stream_words
# and never load it

__all__ = [
    "RngStream",
    "derive_stream",
    "fnv1a64",
    "stream_words",
    "open_uniform",
    "ndtri",
    "CategoricalSampler",
    "sample_polya_gamma_batch",
    "CounterDraws",
    "SamplerError",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK256 = (1 << 256) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# accept-reject safety cap shared by all rejection samplers in this module
MAX_REJECT_ITERS = 10_000


class SamplerError(RuntimeError):
    """A rejection sampler exceeded its iteration cap."""


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of ``text``."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class RngStream:
    """One independent random stream, addressed by (master_seed, label, index).

    Equal triples produce byte-identical draw sequences.  A stream is
    single-owner: it may be created on one worker and moved to another but
    must never be shared concurrently.
    """

    __slots__ = ("master_seed", "label", "index", "gen", "_bg", "_key0")

    def __init__(self, master_seed: int, label: str, index: int):
        if not 0 <= int(master_seed) <= _MASK64:
            raise ValueError("master_seed must fit in 64 bits")
        if not 0 <= int(index) <= _MASK64:
            raise ValueError("index must fit in 64 bits")
        self.master_seed = int(master_seed)
        self.label = label
        self.index = int(index)
        self._key0 = self.master_seed ^ fnv1a64(label)
        from numpy.random import Generator, Philox

        self._bg = Philox(key=np.array([self._key0, self.index], dtype=np.uint64))
        self.gen = Generator(self._bg)

    def rekey(self, index: int) -> "RngStream":
        """Reseat this stream in place at a new index (same seed and label).

        Cheap alternative to constructing a fresh stream in hot loops;
        produces the identical sequence to ``derive_stream(seed, label, index)``.
        """
        if not 0 <= index <= _MASK64:
            raise ValueError("index must fit in 64 bits")
        self._bg.state = _philox_state((self._key0, index))
        self.index = int(index)
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.master_seed}, label={self.label!r}, index={self.index})"


def _philox_state(key: tuple[int, int], counter: tuple[int, ...] = (0, 0, 0, 0)) -> dict:
    # numpy's Philox state at (key, counter) with an empty buffer, so the
    # next block drawn is the one at counter + 1 (plain ints: the setter
    # copies them into the C state)
    return {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def derive_stream(master_seed: int, label: str, index: int) -> RngStream:
    """Derive the independent stream addressed by (master_seed, label, index)."""
    return RngStream(master_seed, label, index)


# Philox4x64-10 round multipliers and key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# (stream, block) pairs per vectorised Philox pass: the pass's dozen arrays of
# this many words stay in cache (8,192-16,384 ran fastest of 4,096-65,536,
# at about 24 M words/s on a 2-core x86 VM)
_PHILOX_LANES = 16_384
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray, hi: np.ndarray, lo: np.ndarray, tmp: tuple) -> None:
    # high and low words of the 128-bit product m * x into hi and lo, from
    # 32-bit limbs so no partial product overflows 64 bits; in place, with
    # the three arrays of tmp as scratch (about 30% faster than fresh
    # temporaries at the lane counts stream_words runs)
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi, t = tmp
    np.bitwise_and(x, _LO32, out=x_lo)
    np.right_shift(x, _SHIFT32, out=x_hi)
    np.multiply(x_lo, m_lo, out=t)
    t >>= _SHIFT32
    x_lo *= m_hi
    t += x_lo  # m_hi x_lo + carry of m_lo x_lo
    np.multiply(x_hi, m_lo, out=x_lo)
    np.bitwise_and(t, _LO32, out=lo)
    lo += x_lo
    lo >>= _SHIFT32  # carry of the middle column
    t >>= _SHIFT32
    np.multiply(x_hi, m_hi, out=hi)
    hi += t
    hi += lo
    np.multiply(x, np.uint64(m), out=lo)


def _philox_pass(key0: int, key1: np.ndarray, counter: tuple, out: np.ndarray) -> None:
    # Philox4x64-10 blocks under keys (key0, key1) at counters (c0, c1, c2, c3),
    # one lane per element of key1, into the (lanes, 4) array out
    c0, c1, c2, c3 = (
        np.array(np.broadcast_to(np.asarray(c, dtype=np.uint64), key1.shape)) for c in counter
    )
    hi0, lo0, hi1, lo1, k1 = (np.empty_like(c0) for _ in range(5))
    tmp = tuple(np.empty_like(c0) for _ in range(3))
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((key0 + r * _PHILOX_W[0]) & _MASK64)
        np.add(key1, np.uint64((r * _PHILOX_W[1]) & _MASK64), out=k1)
        _mulhilo(_PHILOX_M[0], c0, hi0, lo0, tmp)
        _mulhilo(_PHILOX_M[1], c2, hi1, lo1, tmp)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); the
        # old state's arrays are the next round's outputs
        c0, c1, c2, c3, hi0, lo0, hi1, lo1 = hi1, lo1, hi0, lo0, c0, c1, c2, c3
    for j, c in enumerate((c0, c1, c2, c3)):
        out[:, j] = c


def _philox(key0: int, key1: np.ndarray, counter: tuple) -> np.ndarray:
    # the (lanes, 4) Philox4x64-10 blocks under keys (key0, key1[l]) at
    # counters (c0, c1, c2, c3), each word an array over the lanes or one
    # integer for all of them, in passes of _PHILOX_LANES lanes
    out = np.empty((key1.size, 4), dtype=np.uint64)
    for a in range(0, key1.size, _PHILOX_LANES):
        b = a + _PHILOX_LANES
        part = tuple(c[a:b] if isinstance(c, np.ndarray) else c for c in counter)
        _philox_pass(key0, key1[a:b], part, out[a:b])
    return out


def _index_array(index) -> np.ndarray:
    # stream indices as uint64, rejecting anything outside 0..2**64-1 (numpy
    # turns such Python ints into object or float arrays, checked one by one)
    idx = np.asarray(index)
    if idx.ndim != 1:
        raise ValueError("index must be a vector")
    if idx.dtype.kind == "u" or (idx.dtype.kind == "i" and (idx.size == 0 or idx.min() >= 0)):
        return idx.astype(np.uint64, copy=False)
    vals = idx.tolist()
    if not all(isinstance(v, int) and 0 <= v <= _MASK64 for v in vals):
        raise ValueError("every index must be an integer in 0..2**64-1")
    return np.array(vals, dtype=np.uint64)


def stream_words(
    master_seed: int, label: str, index, n: int, offset: int = 0
) -> np.ndarray:
    """Raw words offset..offset+n-1 of every stream (master_seed, label, i), i in index.

    Returns a (len(index), n) uint64 array whose row r equals
    ``derive_stream(master_seed, label, index[r]).gen.bit_generator.random_raw(offset + n)[offset:]``.
    numpy's Philox increments its counter before each 4-word block, so word w
    is word w % 4 of the Philox4x64-10 block at counter w // 4 + 1.  All
    (stream, block) pairs go through the rounds together, vectorised in
    passes of ``_PHILOX_LANES`` pairs.
    """
    if not 0 <= int(master_seed) <= _MASK64:
        raise ValueError("master_seed must fit in 64 bits")
    if n < 1:
        raise ValueError("n must be >= 1")
    if offset < 0:
        raise ValueError("offset must be >= 0")
    idx = _index_array(index)
    first, last = offset // 4, (offset + n - 1) // 4
    if last + 1 > _MASK64:
        raise ValueError("word offset beyond the 64-bit block counter")
    nblocks = last - first + 1
    key0 = int(master_seed) ^ fnv1a64(label)
    key1 = np.repeat(idx, nblocks)
    counter = np.tile(np.uint64(first + 1) + np.arange(nblocks, dtype=np.uint64), idx.size)
    words = _philox(key0, key1, (counter, 0, 0, 0))
    words = words.reshape(idx.size, 4 * nblocks)
    skip = offset - 4 * first
    return words[:, skip : skip + n]


def open_uniform(words: np.ndarray) -> np.ndarray:
    """Map raw words to uniforms (k + 1/2) 2**-52, k the top 52 bits.

    Every value lies in the open interval (0, 1) and the set of values is
    symmetric about 1/2, so an inverse CDF of it is finite and, for a
    symmetric law, exactly antisymmetric.  (53 bits would round the top
    word's (2**53 - 1/2) 2**-53 up to 1.0.)
    """
    u = (words >> np.uint64(12)) * 2.0**-52  # exact: k < 2**52
    u += 2.0**-53
    return u


# Wichura, "Algorithm AS 241: the percentage points of the normal
# distribution", Applied Statistics 37 (1988), PPND16: rational minimax
# approximations in three regions, as (numerator, denominator) coefficients,
# highest power first.
_PPND_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_PPND_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_PPND_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)
# at or below this many values ndtri evaluates them as Python floats: about
# 1.3 us a value, against some 80 us for the array path's 70-odd ufunc calls
# at any small size (the two cross near 64 values on a 2-core x86 VM)
_NDTRI_SMALL = 64
# values per array pass: a pass's temporaries stay in cache (37-42 ns a value
# at 16,384-65,536 values against 53-80 ns at 262,144-2,097,152)
_NDTRI_CHUNK = 32_768


def _ppnd(coefs: tuple, r):
    # one rational approximation at r, a float or an array, by Horner's rule
    # highest power first: both kinds of r go through the same roundings
    num, den = coefs
    p, q = num[0], den[0]
    for c in num[1:]:
        p = p * r + c
    for c in den[1:]:
        q = q * r + c
    return p / q


def _ndtri_floats(u: list) -> list:
    # ndtri one Python float at a time; the tail values share one np.log
    # call (math.log differs from it in the last bit on some inputs)
    z = [x - 0.5 for x in u]
    tail = []
    for i, q in enumerate(z):
        a = abs(q)
        if a <= 0.425:
            z[i] = math.copysign(a * _ppnd(_PPND_CENTRAL, 0.180625 - a * a), q)
        else:
            tail.append(i)
    if tail:
        logs = np.log([0.5 - abs(z[i]) for i in tail]).tolist()
        for i, lg in zip(tail, logs):
            r = math.sqrt(-lg)
            zt = _ppnd(_PPND_NEAR, r - 1.6) if r <= 5.0 else _ppnd(_PPND_FAR, r - 5.0)
            z[i] = math.copysign(zt, z[i])
    return z


def _ndtri_block(u: np.ndarray, out: np.ndarray) -> None:
    # ndtri of a vector into out: the central rational on every value (some
    # 85% of open_uniform values need it, and its denominator stays above
    # 0.002 on the others), then the tail values overwritten under a mask
    q = u - 0.5
    a = np.abs(q)
    np.multiply(a, _ppnd(_PPND_CENTRAL, 0.180625 - a * a), out=out)
    tail = a > 0.425
    r = np.sqrt(-np.log(0.5 - a[tail]))
    far = r > 5.0
    if far.any():
        zt = np.empty_like(r)
        zt[~far] = _ppnd(_PPND_NEAR, r[~far] - 1.6)
        zt[far] = _ppnd(_PPND_FAR, r[far] - 5.0)
    else:
        zt = _ppnd(_PPND_NEAR, r - 1.6)
    out[tail] = zt
    np.copysign(out, q, out=out)


def ndtri(u) -> np.ndarray:
    """Standard normal inverse CDF of each value in ``u`` (in (0, 1)).

    Wichura's AS 241 (PPND16), accurate to about 1e-16 relative: within 8
    ulp of a double-precision reference on ``open_uniform`` values.  The tail
    argument 0.5 - |u - 1/2| and the sign are exact on those values, so
    ``ndtri(1 - u) == -ndtri(u)`` holds bit for bit.  Small inputs take a
    scalar path with the same operations in the same order, so any value
    maps to the same bits whatever the size of the array it arrives in.
    """
    u = np.asarray(u, dtype=float)
    if u.size <= _NDTRI_SMALL:
        return np.array(_ndtri_floats(u.ravel().tolist())).reshape(u.shape)
    flat = u.ravel()
    z = np.empty_like(flat)
    for a in range(0, flat.size, _NDTRI_CHUNK):
        _ndtri_block(flat[a : a + _NDTRI_CHUNK], z[a : a + _NDTRI_CHUNK])
    return z.reshape(u.shape)


class CategoricalSampler:
    """Inverse-CDF sampler over a fixed probability vector.

    O(N) setup (one cumulative sum); each draw takes one raw word from the
    stream and a binary search.  An index of weight zero is never returned.
    """

    __slots__ = ("cdf", "last")

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9 * max(1.0, w.size):
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        self.cdf = np.cumsum(w)
        # pick() clamps to this: were u * total ever to round up to the
        # total, searchsorted would return w.size.  A byte mask finds it, not
        # an index array of every nonzero weight (8 bytes each)
        self.last = w.size - 1 - int(np.argmax(w[::-1] != 0))

    def pick(self, u: np.ndarray) -> np.ndarray:
        """The index drawn by each uniform in ``u`` (values in [0, 1))."""
        # side="right" skips zero-weight indices: their cdf equals their predecessor's
        x = np.asarray(u) * self.cdf[-1]
        if x.ndim == 1:
            # keys in ascending order walk the cdf front to back (about 2x
            # faster on a 6e4-atom cdf); the indices go back in drawn order
            order = x.argsort()
            k = np.empty(x.size, dtype=np.intp)
            k[order] = self.cdf.searchsorted(x[order], side="right")
        else:
            k = self.cdf.searchsorted(x, side="right")
        return np.minimum(k, self.last)

    def pick_words(self, words) -> np.ndarray:
        """The index drawn by each raw word in ``words``: ``pick`` of the
        double that numpy's ``Generator.random()`` makes of the word, its
        top 53 bits times 2**-53."""
        return self.pick((np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53)

    def sample(self, stream: RngStream) -> int:
        """The index drawn by the next raw word of ``stream``."""
        return int(self.pick_words(stream.gen.bit_generator.random_raw()))


# ---------------------------------------------------------------------------
# Exact Polya-Gamma PG(1, b) sampling (Polson, Scott & Windle, JASA 2013).
#
# A PG(1, b) draw is a Jacobi draw at tilt z = b/2, divided by 4.  Jacobi
# draws are proposed from a mixture of a truncated exponential (right of
# t = 0.64) and a truncated inverse-Gaussian (left of t), and accepted or
# rejected by the alternating series for the density, whose partial sums
# bound it from above and below in turn.  Each round draws for every
# still-pending tilt at once and keeps the accepted ones.
# ---------------------------------------------------------------------------

_PG_TRUNC = 0.64
# Philox lanes per look-ahead pass of a counter-addressed round: a retry pass
# costs hundreds of numpy calls whatever its size, and after the first try
# only a few percent of the tilts are left
_AHEAD_LANES = 1024
# tilts per run, on average, at or above which a round's first blocks come
# from numpy's C Philox one run at a time rather than from one vectorised
# pass: a run costs a state set and a random_raw call, some 7 us at 297 tilts
# against about 50 us of the vectorised pass (2-core x86 VM)
_RUN_LANES = 16


def _jacobi_coefs(n: int, x: np.ndarray) -> np.ndarray:
    # piecewise n-th coefficient of the alternating series for the density at x
    out = np.empty_like(x)
    left = x <= _PG_TRUNC
    xl = x[left]
    out[left] = (
        math.pi * (n + 0.5) * (2.0 / math.pi / xl) ** 1.5 * np.exp(-2.0 * (n + 0.5) ** 2 / xl)
    )
    xr = x[~left]
    out[~left] = math.pi * (n + 0.5) * np.exp(-((n + 0.5) ** 2) * math.pi**2 * xr / 2.0)
    return out


# Cody, "Rational Chebyshev approximations for the error function", Math. Comp. 23 (1969):
# erf(y) = y P(y^2)/Q(y^2) for y <= 0.46875, erfc(y) = e^(-y^2) P(y)/Q(y) up to y = 4, and
# erfc(y) = e^(-y^2)/y (1/sqrt(pi) - y^-2 P(y^-2)/Q(y^-2)) beyond; laid out as for _ppnd.
_ERF_CENTRAL = (
    (0.185777706184603153, 3.16112374387056560, 113.864154151050156, 377.485237685302021,
     3209.37758913846947),
    (1.0, 23.6012909523441209, 244.024637934444173, 1282.61652607737228, 2844.23683343917062),
)
_ERFC_NEAR = (
    (2.15311535474403846e-8, 0.564188496988670089, 8.88314979438837594, 66.1191906371416295,
     298.635138197400131, 881.952221241769090, 1712.04761263407058, 2051.07837782607147,
     1230.33935479799725),
    (1.0, 15.7449261107098347, 117.693950891312499, 537.181101862009858, 1621.38957456669019,
     3290.79923573345963, 4362.61909014324716, 3439.36767414372164, 1230.33935480374942),
)
_ERFC_FAR = (
    (1.63153871373020978e-2, 0.305326634961232344, 0.360344899949804439, 0.125781726111229246,
     1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242, 1.87295284992346725, 0.527905102951428412, 6.05183413124413191e-2,
     2.33520497626869185e-3),
)


def _log_ndtr(x: np.ndarray) -> np.ndarray:
    # log Phi(x) = log(erfc(-x / sqrt 2) / 2) elementwise.  Outside the first
    # region log Phi(-|x|) = -x^2/2 + log(R / 2) with erfc = e^(-y^2) R, and the
    # upper tail is log1p(-Phi(-x)).  Each region costs its own numpy passes,
    # so the far and central ones run only when some value needs them.
    y = np.abs(x) * math.sqrt(0.5)
    r = _ppnd(_ERFC_NEAR, np.minimum(y, 4.0))
    far = y > 4.0
    if far.any():
        yf = y[far]
        s = 1.0 / (yf * yf)
        r[far] = (1.0 / math.sqrt(math.pi) - s * _ppnd(_ERFC_FAR, s)) / yf
    out = np.log(0.5 * r) - 0.5 * x * x  # log Phi(-|x|)
    upper = x >= 0.0
    out[upper] = np.log1p(-np.exp(out[upper]))
    mid = y <= 0.46875
    if mid.any():
        t = x[mid] * math.sqrt(0.5)
        out[mid] = np.log(0.5 + 0.5 * t * _ppnd(_ERF_CENTRAL, t * t))
    return out


def _right_branch_probs(z: np.ndarray) -> np.ndarray:
    # probability that the mixture proposal uses the truncated-exponential
    # branch; the normal log-CDF stays exact far into the lower tail
    t = _PG_TRUNC
    rate = math.pi**2 / 8.0 + z * z / 2.0
    # log Phi at b and a in one call, as its cost is mostly per numpy pass
    c = math.sqrt(1.0 / t)
    log_phi_b, log_phi_a = _log_ndtr(np.stack([c * (t * z - 1.0), -c * (t * z + 1.0)]))
    x0 = np.log(rate) + rate * t
    log_qdivp = math.log(4.0 / math.pi) + np.logaddexp(x0 - z + log_phi_b, x0 + z + log_phi_a)
    # the logistic function at -log_qdivp, with exp only of nonpositive values
    e = np.exp(-np.abs(log_qdivp))
    return np.where(log_qdivp > 0.0, e, 1.0) / (1.0 + e)


class _StreamRound:
    # one sampler round's draws from a Generator, in call order: each call
    # draws for the round's tilts sel (indices), or for all n of them when
    # sel is None; the word index is not used
    __slots__ = ("gen", "n")

    def __init__(self, gen: Generator, n: int):
        self.gen, self.n = gen, n

    def _count(self, sel) -> int:
        return self.n if sel is None else len(sel)

    def uniform(self, word: int, sel=None) -> np.ndarray:
        return self.gen.random(self._count(sel))

    def exponential(self, word: int, sel=None) -> np.ndarray:
        return self.gen.standard_exponential(self._count(sel))

    def normal(self, word: int, sel=None) -> np.ndarray:
        return self.gen.standard_normal(self._count(sel))


class _CounterRound:
    # one sampler round's draws at their addresses: word w of a tilt in round
    # r is word w % 4 of the Philox block at counter (row, r, w // 4, 0) under
    # key (key0, key1), read as u, -log u or ndtri(u), u = open_uniform(word).
    # Block 0 (words 0..3) of every tilt is computed up front.  A later block
    # is computed for the tilts that ask for it together with the blocks
    # after it, about _AHEAD_LANES in all, so that the few tilts that try
    # again share one Philox pass over many tries
    __slots__ = ("key0", "key1", "row", "outer", "first", "ahead")

    def __init__(self, source: "CounterDraws", tilts: np.ndarray, outer: int):
        self.key0, self.outer = source.key0, outer
        self.key1, self.row = source.key1[tilts], source.row[tilts]
        self.first = self._first_blocks()
        self.ahead = None  # (first block, tilts, their blocks)

    def _first_blocks(self) -> np.ndarray:
        # block 0 of every tilt, as a (tilts, 4) array.  Tilts under one key
        # whose rows count up by one form a run (a Gibbs step's latents do, in
        # its first round): their counters (row, r, 0, 0) are consecutive
        # 256-bit integers, so numpy's C Philox, set one below the run's
        # first counter, draws the run's blocks in order in one random_raw
        key1, row, n = self.key1, self.row, self.key1.size
        # a row that wraps to 0 would carry into the round word: a new run
        breaks = (key1[1:] != key1[:-1]) | (row[1:] - row[:-1] != 1) | (row[1:] == 0)
        starts = np.flatnonzero(np.concatenate(([True], breaks)))
        if starts.size * _RUN_LANES > n:
            return self._blocks(np.arange(n), 0, 1)[:, 0]
        from numpy.random import Philox

        out = np.empty((n, 4), dtype=np.uint64)
        bg = Philox(key=0)
        spans = zip(starts.tolist(), np.append(starts[1:], n).tolist())
        for (a, b), k1, r0 in zip(spans, key1[starts].tolist(), row[starts].tolist()):
            c = (r0 + (self.outer << 64) - 1) & _MASK256  # with the 256-bit borrow
            bg.state = _philox_state(
                (self.key0, k1), tuple(c >> s & _MASK64 for s in (0, 64, 128, 192))
            )
            out[a:b] = bg.random_raw(4 * (b - a)).reshape(b - a, 4)
        return out

    def _blocks(self, sel: np.ndarray, lo: int, count: int) -> np.ndarray:
        # blocks lo..lo+count-1 of the tilts sel, as a (len(sel), count, 4) array
        block = np.tile(np.arange(lo, lo + count, dtype=np.uint64), sel.size)
        key1, row = np.repeat(self.key1[sel], count), np.repeat(self.row[sel], count)
        return _philox(self.key0, key1, (row, self.outer, block, 0)).reshape(sel.size, count, 4)

    def _words(self, word: int, sel: np.ndarray | None) -> np.ndarray:
        # sel may be None (every tilt) in block 0 only: later words belong to
        # the tilts that try again
        block, slot = divmod(word, 4)
        if block == 0:
            return self.first[:, slot] if sel is None else self.first[sel, slot]
        if self.ahead is not None:
            lo, tilts, blocks = self.ahead
            if lo <= block < lo + blocks.shape[1]:
                # sel and tilts ascend, so sel is a subset of tilts if it
                # lands on equal values
                at = tilts.searchsorted(sel)
                if not at.size or at[-1] < tilts.size and np.array_equal(tilts[at], sel):
                    return blocks[at, block - lo, slot]
        self.ahead = (block, sel, self._blocks(sel, block, max(1, _AHEAD_LANES // sel.size)))
        return self.ahead[2][:, 0, slot]

    def uniform(self, word: int, sel=None) -> np.ndarray:
        return open_uniform(self._words(word, sel))

    def exponential(self, word: int, sel=None) -> np.ndarray:
        return -np.log(self.uniform(word, sel))

    def normal(self, word: int, sel=None) -> np.ndarray:
        return ndtri(self.uniform(word, sel))


class CounterDraws:
    """Counter-addressed draws for ``sample_polya_gamma_batch``.

    Each accept-reject round r of tilt t reads a sequence of words: word w
    is word w % 4 of the Philox4x64-10 block at counter (row[t], r, w // 4, 0)
    under key (key0, key1[t]).  Words 0 and 1 are the round's branch and
    acceptance uniforms, and the proposal reads words 2, 3, ...: one for the
    exponential branch, and per inverse-Gaussian try two (small mean) or
    three (large mean).  A round that accepts on its first try therefore
    reads one block, save a large-mean try.  Every draw is a pure function
    of (key0, key1[t], row[t], r, w), whatever the batch the tilt arrives in
    or its place there.
    """

    __slots__ = ("key0", "key1", "row")

    def __init__(self, key0: int, key1: np.ndarray, row: np.ndarray):
        if not 0 <= int(key0) <= _MASK64:
            raise ValueError("key0 must fit in 64 bits")
        self.key0 = int(key0)
        self.key1 = np.asarray(key1, dtype=np.uint64)
        self.row = np.asarray(row, dtype=np.uint64)
        if self.key1.ndim != 1 or self.key1.shape != self.row.shape:
            raise ValueError("key1 and row must be vectors of one length")


def _trunc_inv_gauss_draws(draw, sel: np.ndarray, z: np.ndarray) -> np.ndarray:
    # inverse-Gaussian(mu=1/z, lambda=1) conditioned on (0, t] for the round's
    # tilts sel (tilts z); try j reads words 3j-1..3j+1 (large mean) or 2j,
    # 2j+1 (small mean) of each tilt's round
    t = _PG_TRUNC
    out = np.empty_like(z)
    big_mu = z < 1.0 / t

    # large mean: propose 1/X from a scaled chi-square tail, thin by exp tilt
    idx = np.flatnonzero(big_mu)
    for j in range(1, MAX_REJECT_ITERS + 1):
        if idx.size == 0:
            break
        at = sel[idx]
        zi = z[idx]
        e1 = draw.exponential(3 * j - 1, at)
        e2 = draw.exponential(3 * j, at)
        ok_prop = e1 * e1 <= 2.0 * e2 / t
        x = t / (1.0 + t * e1) ** 2
        accept = ok_prop & (draw.uniform(3 * j + 1, at) <= np.exp(-0.5 * zi * zi * x))
        out[idx[accept]] = x[accept]
        idx = idx[~accept]
    else:
        raise SamplerError("truncated inverse-Gaussian rejection cap exceeded")

    # small mean: inverse-Gaussian by the Michael-Schucany-Haas root choice,
    # kept when it lands in (0, t]
    idx = np.flatnonzero(~big_mu)
    for j in range(1, MAX_REJECT_ITERS + 1):
        if idx.size == 0:
            break
        at = sel[idx]
        mi = 1.0 / z[idx]
        y = draw.normal(2 * j, at) ** 2
        x = mi + 0.5 * mi * mi * y - 0.5 * mi * np.sqrt(4.0 * mi * y + (mi * y) ** 2)
        flip = draw.uniform(2 * j + 1, at) > mi / (mi + x)
        x[flip] = mi[flip] ** 2 / x[flip]
        accept = x <= t
        out[idx[accept]] = x[accept]
        idx = idx[~accept]
    else:
        raise SamplerError("truncated inverse-Gaussian rejection cap exceeded")
    return out


def sample_polya_gamma_batch(source: RngStream | CounterDraws, b: np.ndarray) -> np.ndarray:
    """Exact PG(1, b_i) draws for a whole vector of tilts at once.

    ``source`` is a stream, drawn from in call order, or a ``CounterDraws``
    with one key word and row per tilt, which gives each tilt the same draw
    in any batch.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError("b must be a vector")
    if np.any(b < 0) or not np.all(np.isfinite(b)):
        raise ValueError("all tilts must be finite and nonnegative")
    if isinstance(source, CounterDraws):
        if source.key1.size != b.size:
            raise ValueError("one key word and row per tilt required")
        rounds = partial(_CounterRound, source)
    else:
        gen = source.gen

        def rounds(tilts, outer):
            return _StreamRound(gen, tilts.size)

    z = b / 2.0
    rate = math.pi**2 / 8.0 + z * z / 2.0
    p_right = _right_branch_probs(z)

    out = np.empty_like(z)
    pending = np.arange(z.size)
    for outer in range(MAX_REJECT_ITERS):
        if pending.size == 0:
            return out / 4.0
        k = pending.size
        draw = rounds(pending, outer)
        right = draw.uniform(0) < p_right[pending]
        rsel, lsel = np.flatnonzero(right), np.flatnonzero(~right)
        x = np.empty(k)
        x[rsel] = _PG_TRUNC + draw.exponential(2, rsel) / rate[pending[rsel]]
        x[lsel] = _trunc_inv_gauss_draws(draw, lsel, z[pending[lsel]])

        s = _jacobi_coefs(0, x)
        y = draw.uniform(1) * s
        undecided = np.arange(k)
        accepted = np.zeros(k, dtype=bool)
        n = 0
        while undecided.size:
            n += 1
            term = _jacobi_coefs(n, x[undecided])
            if n & 1:
                s[undecided] -= term
                acc = y[undecided] <= s[undecided]
                accepted[undecided[acc]] = True
                undecided = undecided[~acc]
            else:
                s[undecided] += term
                rej = y[undecided] > s[undecided]
                undecided = undecided[~rej]
        out[pending[accepted]] = x[accepted]
        pending = pending[~accepted]
    raise SamplerError("PG(1, b) accept-reject cap exceeded")
