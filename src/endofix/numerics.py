"""Distribution specifications and seeded random sampling.

The special functions are scipy's (:mod:`scipy.special`: ``ndtri``,
``gammaincinv``, ``gammainccinv``); this module adds the parameter and
domain checks around them and reproducible random streams.  Everything
here is deterministic given its inputs; random draws are reproducible
from an :class:`RngStream` value, which can be split into statistically
independent child streams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainccinv, gammaincinv, ndtri

from .errors import DomainError

__all__ = ["std_normal_pdf", "RngStream", "DistSpec", "sample"]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def std_normal_pdf(t):
    """Standard normal density."""
    t = np.asarray(t, dtype=np.float64)
    return _INV_SQRT_2PI * np.exp(-0.5 * t * t)


def _check_gamma_params(shape: float, rate: float) -> None:
    if not (shape > 0.0 and math.isfinite(shape)):
        raise DomainError(f"gamma shape must be positive, got {shape}")
    if not (rate > 0.0 and math.isfinite(rate)):
        raise DomainError(f"gamma rate must be positive, got {rate}")


def _check_prob(u, what: str):
    """``u`` as a float64 array; raises DomainError unless 0 < u < 1
    everywhere, and lets NaN through."""
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise DomainError(f"{what} requires 0 < u < 1")
    return u


# ---------------------------------------------------------------------------
# Seeded random streams
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _splitmix64(x):
    """SplitMix64 finalizer of a Python int, or elementwise of a uint64
    array (whose arithmetic wraps modulo 2^64 the same way)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int, ids: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=(seed, i)).generate_state(4, np.uint64)`` for
    each i of the uint64 array ``ids``, in one vectorized pass.

    numpy's entropy is the 32-bit words of ``seed`` and then of i, at most
    four, and it hashes the pool words past the entropy as 0, so every i
    may take two words (i >> 32 is 0 below 2^32).  The hash constants
    follow a fixed sequence, shared by every i.
    """
    const = _INIT_A

    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> 16)

    words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    words += [ids & _MASK32, ids >> 32]
    entropy = np.zeros((_POOL_SIZE, ids.size), dtype=np.uint32)
    for i, w in enumerate(words):
        entropy[i] = w
    pool = [hashmix(w) for w in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                v = (np.uint32(_MIX_MULT_L) * pool[dst]
                     - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = v ^ (v >> 16)
    const = _INIT_B
    state = np.empty((ids.size, 2 * _POOL_SIZE), dtype="<u4")
    for i in range(2 * _POOL_SIZE):
        v = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        v = v * np.uint32(const)
        state[:, i] = v ^ (v >> 16)
    return state.view("<u8").astype(np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands precomputed seed words to PCG64, which asks for exactly
    ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def words_generator(words: np.ndarray) -> np.random.Generator:
    """The generator seeded by one row of :meth:`RngStream.child_words`:
    it draws what ``RngStream.generator()`` of that child draws."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream: (seed, stream_id).

    Identical values draw identical sequences on every run and at any
    degree of parallelism; distinct ``stream_id``s give statistically
    independent streams.  Use :meth:`child` to derive sub-streams for
    parallel tasks (bootstrap resamples, Monte Carlo repetitions).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed <= _MASK64):
            raise DomainError("seed must fit in 64 unsigned bits")
        if not (0 <= self.stream_id <= _MASK64):
            raise DomainError("stream_id must fit in 64 unsigned bits")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=(self.seed, self.stream_id))
        return np.random.Generator(np.random.PCG64(ss))

    def _child_id(self, keys):
        """``stream_id`` with ``keys`` mixed in; an array if a key is."""
        h = _splitmix64(self.stream_id ^ 0xA5A5A5A5A5A5A5A5)
        for k in keys:
            k = (np.asarray(k).astype(np.uint64) if np.ndim(k)
                 else int(k) & _MASK64)
            h = _splitmix64(h ^ _splitmix64(k))
        return h

    def child(self, *keys: int) -> "RngStream":
        """Derive a sub-stream by mixing integer keys into ``stream_id``."""
        return RngStream(self.seed, self._child_id(keys))

    def words(self) -> np.ndarray:
        """The (1, 4) uint64 PCG64 seed words of :meth:`generator`."""
        ss = np.random.SeedSequence(entropy=(self.seed, self.stream_id))
        return ss.generate_state(4, np.uint64)[None]

    def child_words(self, *keys) -> np.ndarray:
        """The (len(b), 4) uint64 PCG64 seed words of ``self.child(*keys)``
        for each b of the one key that is an integer array, in any
        position (``child_words(key, bs)`` or ``child_words(bs, key)``),
        hashed in one pass; :func:`words_generator` turns a row into that
        child's generator."""
        return _seed_words(self.seed, self._child_id(keys))


# ---------------------------------------------------------------------------
# Distribution specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DistSpec:
    """Parametric error-distribution description.

    Families: ``normal(mean, sd)`` and ``gamma(shape, rate)`` (mean
    shape/rate).  The asymptotic constants center the distribution
    themselves (:func:`~endofix.asymptotics.constants_c`).
    """

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in ("normal", "gamma"):
            raise DomainError(f"unknown distribution family {self.family!r}")

    # -- constructors -------------------------------------------------
    @classmethod
    def normal(cls, mean: float = 0.0, sd: float = 1.0) -> "DistSpec":
        if sd <= 0.0:
            raise DomainError("normal sd must be positive")
        return cls("normal", (float(mean), float(sd)))

    @classmethod
    def gamma(cls, shape: float, rate: float) -> "DistSpec":
        _check_gamma_params(shape, rate)
        return cls("gamma", (float(shape), float(rate)))

    # -- moments -------------------------------------------------------
    def mean(self) -> float:
        if self.family == "normal":
            return self.params[0]
        a, b = self.params
        return a / b

    def var(self) -> float:
        if self.family == "normal":
            return self.params[1] ** 2
        a, b = self.params
        return a / (b * b)

    # -- evaluations ----------------------------------------------------
    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.family == "normal":
            m, s = self.params
            return std_normal_pdf((x - m) / s) / s
        a, b = self.params
        logpdf = (a * math.log(b) - math.lgamma(a) - b * x
                  + (a - 1.0) * np.log(np.where(x > 0.0, x, 1.0)))
        return np.where(x > 0.0, np.exp(logpdf), 0.0)

    def quantile(self, u):
        """Inverse CDF; raises DomainError unless 0 < u < 1."""
        u = _check_prob(u, "quantile")
        if self.family == "normal":
            m, s = self.params
            return m + s * ndtri(u)
        a, b = self.params
        return gammaincinv(a, u) / b

    def isf(self, q):
        """Upper-tail quantile, tail-accurate for tiny ``q``."""
        q = _check_prob(q, "isf")
        if self.family == "normal":
            m, s = self.params
            return m - s * ndtri(q)
        a, b = self.params
        return gammainccinv(a, q) / b


def sample(stream: RngStream, dist: DistSpec, n: int) -> np.ndarray:
    """Draw ``n`` reproducible samples from ``dist`` using ``stream``.

    Gamma draws use numpy's squeeze/rejection sampler (valid for every
    shape > 0).
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    rng = stream.generator()
    if dist.family == "normal":
        m, s = dist.params
        return rng.normal(m, s, n)
    a, b = dist.params
    return rng.gamma(a, 1.0 / b, n)
