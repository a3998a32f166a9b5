"""Deterministic randomness plumbing.

All stochastic components run off one explicit master seed.  Sub-streams
are derived by hashing the seed with a label or counter, so replications
are order-independent: the i-th interval sees the same randomness whether
or not the (i-1)-th was run, and split coins are a pure function of
(stream seed, user id, tree depth).  The latter makes split decisions
automatically identical across protocols driven from the same seed, which
is what the cross-protocol slot-count comparisons rely on.

Arrival streams are numpy PCG64 streams seeded exactly as
``np.random.default_rng(stream_seed(base, i))``.  :class:`ArrivalStreams`
reproduces that seeding itself, since building a ``SeedSequence`` and a
``Generator`` per interval would cost more than the interval's own draws.
It also computes each stream's first double, which decides a zero Poisson
count without numpy: for a mean below 10, numpy multiplies uniform doubles
until the product falls to ``exp(-lam)`` or below, so the count is zero
exactly when the first double is at most ``exp(-lam)``.  Any other count
is drawn by numpy after fully reseeding one generator object to the
stream's start.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# 2^-53, for mapping the top 53 bits of a mixed word to [0, 1).
_INV53 = 1.0 / (1 << 53)

# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = np.uint32(0xCA01F9DD)
_SS_MIX_R = np.uint32(0x4973F715)
_SS_SHIFT = np.uint32(16)
_SS_POOL = 4
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Consecutive stream indices whose seeds are hashed in one vectorized pass.
_SEED_BLOCK = 256
# numpy's random_poisson (numpy/random/src/distributions/distributions.c)
# draws a mean below this by multiplying uniforms (random_poisson_mult)
# and a larger one by transformed rejection (random_poisson_ptrs).
_POISSON_MULT_MAX = 10.0


def derive_seed(master: int, *parts) -> int:
    """Derive a 63-bit sub-stream seed from a master seed and labels.

    The labels are folded through SHA-256, so any hashable-reprable mix of
    strings and integers yields an independent, reproducible stream id.
    """
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(repr(part).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


def _splitmix64(x):
    """One splitmix64 scramble round; a cheap, well-mixed 64-bit permutation.

    Works on Python ints and, wrapping in place of the masks, on numpy
    uint64 arrays.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def coin_uniform(seed: int, uid: int, depth: int) -> float:
    """Uniform(0,1) variate keyed by (seed, uid, depth).

    Counter-based construction: the value is a pure function of the key,
    so draws commute and a user's coin at a given tree depth does not
    depend on how many coins anybody else consumed.
    """
    x = _splitmix64((seed ^ (uid * 0xA24BAED4963EE407)) & _MASK64)
    x = _splitmix64((x ^ (depth * 0x9FB21C651E98DF25)) & _MASK64)
    return (x >> 11) * _INV53


class CoinSource:
    """Bernoulli split coins keyed by (user id, depth).

    ``flip(uid, depth)`` returns True when the user joins the left group;
    it equals ``coin_uniform(seed, uid, depth) < p``.  A scripted table of
    forced outcomes can be layered on top for reproducing hand-constructed
    split sequences.
    """

    def __init__(self, seed: int, p: float, script: dict | None = None):
        self.seed = int(seed)
        self.p = float(p)
        self.script = dict(script) if script else None
        # m * 2^-53 < p  <=>  m < p * 2^53: scaling by a power of two is exact.
        self._bound = self.p * (1 << 53)
        # uid -> first splitmix round of coin_uniform, which ignores depth.
        self._uid_mix: dict = {}

    def flip(self, uid: int, depth: int) -> bool:
        if self.script is not None:
            key = (uid, depth)
            if key in self.script:
                return bool(self.script[key])
        x = self._uid_mix.get(uid)
        if x is None:
            x = self._uid_mix[uid] = _splitmix64(
                (self.seed ^ (uid * 0xA24BAED4963EE407)) & _MASK64)
        # The depth round of coin_uniform, inlined.
        x = ((x ^ (depth * 0x9FB21C651E98DF25)) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((x ^ (x >> 31)) >> 11) < self._bound


def scripted_coins(script: dict, p: float = 0.5, seed: int = 0) -> CoinSource:
    """CoinSource with forced outcomes for the given (uid, depth) keys."""
    return CoinSource(seed=seed, p=p, script=script)


def stream_seed(base: int, index):
    """Cheap counter-based child seed for the ``index``-th sub-stream.

    ``base`` should come from :func:`derive_seed`; one splitmix round per
    index then avoids hashing inside hot loops that need a fresh stream
    per interval.  ``index`` may also be a numpy uint64 array of indices.
    """
    return _splitmix64((base ^ (index * 0x9E3779B97F4A7C15)) & _MASK64) >> 1


def _hash_keys(init: int, mult: int, n: int) -> list:
    """The (xor, multiply) uint32 key pairs of n steps of a SeedSequence
    hash-constant chain, which advances independently of the data."""
    keys = []
    for _ in range(n):
        nxt = (init * mult) & _MASK32
        keys.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return keys


# mix_entropy hashes each pool word once, then each ordered pair of words.
_POOL_KEYS = _hash_keys(_SS_INIT_A, _SS_MULT_A, _SS_POOL * _SS_POOL)
# generate_state(4, uint64) draws eight 32-bit words from the pool.
_STATE_KEYS = _hash_keys(_SS_INIT_B, _SS_MULT_B, 2 * _SS_POOL)


def _hashmix(value: np.ndarray, key) -> np.ndarray:
    """SeedSequence's hashmix step, with the chain's constants for this step."""
    xor, mult = key
    value = (value ^ xor) * mult
    return value ^ (value >> _SS_SHIFT)


def _pcg64_states(seeds: np.ndarray) -> list:
    """``(state, inc, first)`` of ``np.random.PCG64(s)`` for each uint64
    seed ``s``: its LCG state and increment, and ``first``, the first
    ``random()`` double its generator draws.

    Vectorizes numpy's ``SeedSequence`` over the seeds: the entropy words
    are the seed's low and high 32 bits (a seed below 2^32 has one word,
    and SeedSequence hashes zeros into the rest of its pool of four, as for
    a zero high word).  PCG64 then seeds its LCG with two steps.  Numpy's
    own ``SeedSequence(s).generate_state(4, np.uint64)`` costs about as much
    per seed as ``default_rng(s)`` does, so calling it per stream would
    save next to nothing.  The first double is one LCG step followed by
    PCG64's XSL-RR output, whose top 53 bits are scaled to [0, 1).
    """
    zero = np.zeros(len(seeds), dtype=np.uint32)
    keys = iter(_POOL_KEYS)
    pool = [_hashmix(word, next(keys)) for word in (
        seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32),
        zero, zero)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * _hashmix(pool[src], next(keys))
                pool[dst] = mixed ^ (mixed >> _SS_SHIFT)
    words = [_hashmix(pool[i % _SS_POOL], key).astype(np.uint64)
             for i, key in enumerate(_STATE_KEYS)]
    # Little-endian pairs of words form state words s0, s1, i0, i1.
    s0, s1, i0, i1 = ((words[k] | (words[k + 1] << np.uint64(32))).tolist()
                      for k in range(0, len(words), 2))
    states = []
    for a, b, c, d in zip(s0, s1, i0, i1):
        inc = (((c << 64) | d) << 1 | 1) & _MASK128
        state = (((a << 64 | b) + inc) * _PCG_MULT + inc) & _MASK128
        step = (state * _PCG_MULT + inc) & _MASK128
        x = ((step >> 64) ^ step) & _MASK64
        rot = step >> 122
        out = ((x >> rot) | (x << (64 - rot))) & _MASK64
        states.append((state, inc, (out >> 11) * _INV53))
    return states


class ArrivalStreams:
    """Generators equal to ``np.random.default_rng(stream_seed(base, i))``.

    ``generator(i)`` returns one shared Generator, reseeded to the exact
    state that call starts in; it is valid until the next call.
    ``draw_count(i, lam)`` draws stream ``i``'s Poisson count of mean
    ``lam``.  Below 10, numpy's multiplication branch, a first double at
    most ``exp(-lam)`` is a zero count, returned without a reseed; any
    other draw reseeds through ``generator(i)`` and lets numpy draw.  The
    seeds of a block of consecutive indices are hashed together, so a run
    that walks the indices in order hashes each seed once; a jump
    backwards or past the block rehashes from the requested index.
    """

    def __init__(self, base: int):
        self.base = int(base)
        self._bitgen = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bitgen)
        self._first = 0
        self._states: list = []

    def _entry(self, index: int) -> tuple:
        offset = index - self._first
        if not 0 <= offset < len(self._states):
            indices = np.arange(index, index + _SEED_BLOCK, dtype=np.uint64)
            self._states = _pcg64_states(stream_seed(self.base, indices))
            self._first, offset = index, 0
        return self._states[offset]

    def generator(self, index: int) -> np.random.Generator:
        state, inc, _ = self._entry(index)
        # Setting the whole state also clears the buffered 32-bit half word.
        self._bitgen.state = {"bit_generator": "PCG64",
                              "state": {"state": state, "inc": inc},
                              "has_uint32": 0, "uinteger": 0}
        return self._generator

    def draw_count(self, index: int, lam: float) -> tuple:
        """``(count, generator)``: stream ``index``'s Poisson draw of mean
        ``lam``, and its generator positioned after the draw, or None when
        the first double alone decided a zero count."""
        if lam < _POISSON_MULT_MAX and self._entry(index)[2] <= math.exp(-lam):
            return 0, None
        rng = self.generator(index)
        return int(rng.poisson(lam)), rng
