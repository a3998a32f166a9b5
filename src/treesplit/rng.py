"""Deterministic randomness plumbing.

All stochastic components run off one explicit master seed.  Sub-streams
are derived by hashing the seed with a label or counter, so replications
are order-independent: the i-th interval sees the same randomness whether
or not the (i-1)-th was run, and split coins are a pure function of
(stream seed, user id, tree depth).  The latter makes split decisions
automatically identical across protocols driven from the same seed, which
is what the cross-protocol slot-count comparisons rely on.

A coin is drawn one at a time by :meth:`CoinSource.flip` (two splitmix64
rounds in Python ints), or by :func:`coin_words` as D-bit keys of many
(seed, users) groups in numpy uint64: bit D - 1 - d of a key is set when
the user's coin at depth d is tails, so ascending keys are the trie order
of the coins and a split of a sorted group above depth D is one
bisection.  A pass hashes only the D depths its largest group needs
(:func:`_key_depths`): enough that a pair of its users is unlikely to tie
on all of them, at most 32.  The trees of a few dozen users rarely reach
past depth 16.  This module alone computes keys and decides when they pay:
the engine asks :meth:`CoinSource.trie` for an interval's order and keys
and makes every split, and the windowed simulator asks
:func:`prepared_sources` for a block's sources.

Arrival streams are numpy PCG64 streams: every draw equals the matching
draw of ``np.random.default_rng(stream_seed(base, i))``.  Building a
``SeedSequence`` and a ``Generator`` per interval would cost more than the
interval's own draws, so :class:`ArrivalStreams` reproduces the seeding
itself, for a block of streams at once in numpy uint64 limbs, together with
each stream's first double.  For a mean below 10, numpy multiplies uniform
doubles until the product falls to ``exp(-lam)`` or below, so the count is
zero exactly when the first double is at most ``exp(-lam)``.  Any other
count of a mean below 6, and the arrival draws after it, are drawn by a
:class:`StreamCursor` that steps the stream's 128-bit state in Python ints
as numpy's PCG64 would.  A mean of 6 or more, where the cursor's Python
steps cost more than a reseed, reseeds one generator object to the
stream's start and lets numpy draw.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from itertools import accumulate

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
_SEED_BLOCK = 1024
# Arrival counts of a mean below this are drawn in Python, as numpy's
# random_poisson (numpy/random/src/distributions/distributions.c) draws a
# mean below 10, by multiplying uniforms (random_poisson_mult); larger ones
# reseed a numpy Generator.  Any value up to 10 draws the same counts, so
# this is a speed setting.  Measured crossover, median us per interval of
# draw_count plus sim._slot_arrivals over 1,000 streams, 21 interleaved
# rounds on a 2-vCPU VM, cursor / reseed: mean 5.0: 8.34 / 9.84, 5.5:
# 8.98 / 9.11, 6.0: 9.48 / 9.25, 7.0: 10.67 / 9.40, 9.0: 12.88 / 9.53.
_POISSON_MULT_MAX = 6.0
# Depths a key covers at most: keys are uint32.
_WORD_DEPTHS = 32
# A pass hashes depths until the expected number of pairs of its largest
# group that tie on all of them is at most 2^-_TIE_BITS (see _key_depths).
_TIE_BITS = 6
# Intervals of at least this many users are sorted by key at the first
# split; smaller ones flip each coin.  Median us per run_cri(protocol,
# range(n), 0.5, seed) call over 31 interleaved rounds on a 2-vCPU VM,
# flipping / keyed: sicta n = 7: 62.2 / 64.1, 8: 68.0 / 60.4, 12: 108.9 /
# 71.5; atic n = 8: 48.1 / 56.2, 9: 57.3 / 58.1, 10: 63.4 / 60.5, 12:
# 80.5 / 64.7.  Prepared (windowed) intervals pay less for their keys.
_WORDS_MIN = 8
# Users whose keys one numpy pass computes: bounds the (users, depths)
# uint64 temporaries at 1 MiB when an interval holds millions of users.
_WORD_ROWS = 4096


def _integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int, at least ``least`` when given; a float, string
    or bool is refused, never truncated.  An exact int skips the ABC test."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be non-negative, got {value}" if least == 0
                         else f"need {name} >= {least}, got {value}")
    return value


def _real(value, name: str) -> float:
    """``value`` as a float; a bool, string or other non-real is refused,
    never converted.  An exact float skips the ABC test."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    return value


def derive_seed(master: int, *parts) -> int:
    """Derive a 63-bit sub-stream seed from a master seed and labels.

    The labels are folded through SHA-256, so any hashable-reprable mix of
    strings and integers yields an independent, reproducible stream id.
    """
    h = hashlib.sha256()
    h.update(str(_integer(master, "seed")).encode())
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


# The splitmix64 and coin_uniform keys as numpy scalars, and the depth
# round's key of every depth a key covers: with Python-int constants,
# which numpy converts on every operation, a 12-user pass took 10-20% longer.
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MULT_A = np.uint64(0xBF58476D1CE4E5B9)
_SM_MULT_B = np.uint64(0x94D049BB133111EB)
_SM_SHIFTS = tuple(np.uint64(k) for k in (30, 27, 31))
_UID_KEY = np.uint64(0xA24BAED4963EE407)
_DEPTH_KEYS = np.array([(d * 0x9FB21C651E98DF25) & _MASK64 for d in range(_WORD_DEPTHS)],
                       dtype=np.uint64)
_U11 = np.uint64(11)
# 2^(31 - d), the tails bit's weight at depth d, built from a list: np.left_shift
# here added 128 KiB to every process's peak RSS.
_KEY_WEIGHTS = np.array([1 << d for d in range(_WORD_DEPTHS - 1, -1, -1)], dtype=np.int64)


def _splitmix64_inplace(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` on a uint64 array, overwriting it."""
    a, b, c = _SM_SHIFTS
    x += _SM_GAMMA
    x ^= x >> a
    x *= _SM_MULT_A
    x ^= x >> b
    x *= _SM_MULT_B
    x ^= x >> c
    return x


class CoinSource:
    """Bernoulli split coins keyed by (user id, depth).

    ``flip(uid, depth)`` returns True when the user joins the left group;
    it equals ``coin_uniform(seed, uid, depth) < p``.  ``trie(ids)`` orders
    an interval's users by the same coins.  A scripted table of forced
    outcomes can be layered on top for reproducing hand-constructed split
    sequences; a scripted source flips every coin.
    """

    def __init__(self, seed: int, p: float, script: dict | None = None):
        self.seed = _integer(seed, "seed")
        self.p = _real(p, "coin bias")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"coin bias must lie in [0, 1], got {self.p}")
        self.script = dict(script) if script else None
        # m * 2^-53 < p  <=>  m < p * 2^53: scaling by a power of two is exact.
        self._bound = self.p * (1 << 53)
        # uid -> first splitmix round of coin_uniform, which ignores depth.
        self._uid_mix: dict = {}
        # (ids, order, keys) of the interval prepared_sources keyed ahead.
        self._keyed = None

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

    def trie(self, ids: list) -> tuple:
        """``(order, keys, depths)`` of the sorted users ``ids``, as
        :func:`coin_words` gives them: each group of the split tree is a
        range of ``order``, one above ``depths`` split where its keys' bit
        turns 1.  Prepared keys of ``ids`` are read (their order copied, for
        the engine to reorder); else an unscripted source passes over at
        least ``_WORDS_MIN`` ids, and any other gets ``(ids, None, 0)``."""
        if self._keyed is not None and self._keyed[0] == ids:
            return self._keyed[1][:], *self._keyed[2:]
        if self.script is None and len(ids) >= _WORDS_MIN:
            return coin_words([(self.seed, ids)], self.p)[0]
        return ids, None, 0


def prepared_sources(groups, p: float) -> list:
    """One entry per ``(seed, ids)`` group of increasing ``ids``: a
    :class:`CoinSource` whose ``trie(ids)`` reads keys computed here,
    or None for a group of fewer than ``_WORDS_MIN`` ids.  One
    :func:`coin_words` call computes every group's keys."""
    groups = list(groups)
    sources = [CoinSource(seed, p) if len(ids) >= _WORDS_MIN else None for seed, ids in groups]
    large = [(source, ids) for source, (_, ids) in zip(sources, groups) if source is not None]
    rows = coin_words([(source.seed, ids) for source, ids in large], p)
    for (source, ids), row in zip(large, rows):
        source._keyed = (list(ids), *row)
    return sources


def _key_depths(n: int, p: float) -> int:
    """Depths a key pass over groups of at most ``n`` users hashes: the
    fewest, capped at ``_WORD_DEPTHS``, for which the expected number of
    pairs of ``n`` users whose coins agree at every one is at most
    2^-``_TIE_BITS``.  A pair's coins agree at a depth with probability
    p^2 + q^2, 1/2 at p = 1/2, so that is log2(n (n - 1) / 2) + 6 depths
    there: 13 for n = 12, 16 for n = 33, 25 for n = 1,000 and the cap
    from n = 8,193 on.  A pair that ties on every key bit splits by
    ``flip``, as any group deeper than its keys does."""
    if n < 2:
        return 0
    agree = p * p + (1.0 - p) * (1.0 - p)
    need = math.log2(n * (n - 1) / 2) + _TIE_BITS
    if need >= _WORD_DEPTHS * -math.log2(agree):  # also when agree is 1
        return _WORD_DEPTHS
    return math.ceil(need / -math.log2(agree))


def coin_words(groups, p: float) -> list:
    """``(order, keys, depths)`` of many ``(seed, uids)`` groups: ``order``
    holds a group's uids by ascending key, ties in their given order, and
    bit ``depths - 1 - d`` of a uid's key is set exactly when
    ``CoinSource(seed, p).flip(uid, d)`` is False, for each depth d below
    ``depths``, which :func:`_key_depths` gives for the largest group.

    Both splitmix64 rounds of :func:`coin_uniform` run in numpy uint64,
    whose wrap-around stands in for the masks, the depth round over at
    most ``_WORD_ROWS`` users a pass.  ``flip`` compares the int m = x >>
    11 with the float p * 2^53; the pass compares it with the integer
    ceil(p * 2^53), so no uint64 is cast to a double (m < b exactly when
    m < ceil(b)).  A uid's key is one product of its tails bits with the
    weights 2^(depths - 1 - d), kept as a uint32.  One stable sort by
    (group, key) orders every group.
    """
    uids, seeds, sizes = [], [], []
    for seed, group in groups:
        uids += group
        seeds.append(seed & _MASK64)
        sizes.append(len(group))
    depths = _key_depths(max(sizes, default=0), p)
    in_range = not uids or (min(uids) >= 0 and max(uids) <= _MASK64)
    x = np.array(uids if in_range else [uid & _MASK64 for uid in uids], dtype=np.uint64)
    # An interval's own pass, one group, needs no column of group indices.
    rows = np.arange(len(sizes), dtype=np.int64).repeat(sizes) if len(sizes) != 1 else 0
    x *= _UID_KEY
    x ^= np.array(seeds, dtype=np.uint64)[rows]
    _splitmix64_inplace(x)
    bound = np.uint64(math.ceil(p * (1 << 53)))
    weights = _KEY_WEIGHTS[_WORD_DEPTHS - depths:]
    keys = np.empty(len(uids), dtype=np.uint32)
    for start in range(0, len(uids), _WORD_ROWS):
        y = x[start:start + _WORD_ROWS, None] ^ _DEPTH_KEYS[:depths]
        _splitmix64_inplace(y)
        y >>= _U11
        keys[start:start + _WORD_ROWS] = (y >= bound).dot(weights)
    perm = (rows << 32 | keys).argsort(kind="stable")
    order = list(map(uids.__getitem__, perm.tolist()))
    keys = keys[perm].tolist()
    return [(order[end - size:end], keys[end - size:end], depths)
            for size, end in zip(sizes, accumulate(sizes))]


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


_U32 = np.uint64(32)
_LOW32 = np.uint64(_MASK32)
# PCG64's multiplier as uint64 limbs, with the low limb's 32-bit halves.
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & _MASK64)
_MULT_LO_0 = np.uint64(_PCG_MULT & _MASK32)
_MULT_LO_1 = np.uint64((_PCG_MULT >> 32) & _MASK32)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """(hi, lo) uint64 limbs of a + b mod 2^128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo) -> tuple:
    """One PCG64 LCG step, ``state * _PCG_MULT + inc`` mod 2^128, on
    (hi, lo) uint64 limb arrays; uint64 wrap-around stands in for the masks.

    The full 128-bit product of the low limbs is built from 32-bit halves;
    the cross terms only reach the high limb, where they wrap.
    """
    a0, a1 = lo & _LOW32, lo >> _U32
    p01, p10 = a0 * _MULT_LO_1, a1 * _MULT_LO_0
    mid = ((a0 * _MULT_LO_0) >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = (a1 * _MULT_LO_1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
          + hi * _MULT_LO + lo * _MULT_HI)
    return _add128(hi, lo * _MULT_LO, inc_hi, inc_lo)


def _pcg64_states(seeds: np.ndarray) -> tuple:
    """Lists ``(state_hi, state_lo, inc_hi, inc_lo, first)`` over the uint64
    seeds: the 64-bit limbs of the LCG state and increment that
    ``np.random.PCG64(s)`` starts with, and ``first``, the first
    ``random()`` double its generator draws.

    Vectorizes numpy's ``SeedSequence`` over the seeds: the entropy words
    are the seed's low and high 32 bits (a seed below 2^32 has one word,
    and SeedSequence hashes zeros into the rest of its pool of four, as for
    a zero high word).  PCG64 then seeds its LCG with two steps (the first
    from a zero state, so it only adds the increment).  Numpy's own
    ``SeedSequence(s).generate_state(4, np.uint64)`` costs about as much
    per seed as ``default_rng(s)`` does, so calling it per stream would
    save next to nothing.  The first double is one more LCG step followed
    by PCG64's XSL-RR output, whose top 53 bits are scaled to [0, 1).
    """
    zero = np.zeros(len(seeds), dtype=np.uint32)
    keys = iter(_POOL_KEYS)
    pool = [_hashmix(word, next(keys)) for word in (
        seeds.astype(np.uint32), (seeds >> _U32).astype(np.uint32),
        zero, zero)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * _hashmix(pool[src], next(keys))
                pool[dst] = mixed ^ (mixed >> _SS_SHIFT)
    words = [_hashmix(pool[i % _SS_POOL], key).astype(np.uint64)
             for i, key in enumerate(_STATE_KEYS)]
    # Little-endian pairs of words form the seed's state limbs s_hi, s_lo
    # and the stream limbs i_hi, i_lo; inc = (i_hi:i_lo << 1) | 1.
    s_hi, s_lo, i_hi, i_lo = (words[k] | (words[k + 1] << _U32)
                              for k in range(0, len(words), 2))
    one = np.uint64(1)
    inc_hi = (i_hi << one) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << one) | one
    hi, lo = _lcg_step(*_add128(s_hi, s_lo, inc_hi, inc_lo), inc_hi, inc_lo)
    step_hi, step_lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    x = step_hi ^ step_lo
    rot = step_hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    first = (out >> np.uint64(11)).astype(np.float64) * _INV53
    return (hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist(),
            first.tolist())


class StreamCursor:
    """A PCG64 stream continued in Python, drawing exactly as numpy's
    ``Generator`` does from the same state.

    ``random()`` is numpy's ``next_double``: the top 53 bits of one 64-bit
    XSL-RR output; ``random(size)`` draws a list of them.  ``integers(lo, hi, size)`` is ``Generator.integers``
    with int64 output: a range of one value consumes nothing; a range of
    at most 2^32 takes Lemire's bounded draw on 32-bit words, the low half
    of each 64-bit output first and the high half kept for the next word,
    even across calls; a wider range takes it on whole 64-bit outputs.
    Draws of a ``size`` are returned as lists of Python numbers.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, state: int, inc: int):
        self._state = state
        self._inc = inc
        self._half = None  # buffered high half of the last 64-bit output

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        rot = s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        out = self._next64()
        self._half = out >> 32
        return out & _MASK32

    def random(self, size=None):
        if size is None:
            return (self._next64() >> 11) * _INV53
        return [(self._next64() >> 11) * _INV53 for _ in range(size)]

    def integers(self, lo: int, hi: int, size: int) -> list:
        n = hi - lo
        if n < 1:
            raise ValueError(f"empty range [{lo}, {hi})")
        if n == 1:
            return [lo] * size
        draw, bits = (self._next32, 32) if n <= 1 << 32 else (self._next64, 64)
        mask = (1 << bits) - 1
        threshold = (1 << bits) % n
        out = []
        for _ in range(size):
            m = draw() * n
            while m & mask < threshold:
                m = draw() * n
            out.append(lo + (m >> bits))
        return out


class _GeneratorDraws:
    """A numpy Generator's ``integers`` and ``random`` of a size, returned
    as lists like :class:`StreamCursor`'s."""

    __slots__ = ("_rng",)

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def integers(self, lo: int, hi: int, size: int) -> list:
        return self._rng.integers(lo, hi, size=size).tolist()

    def random(self, size: int) -> list:
        return self._rng.random(size).tolist()


class ArrivalStreams:
    """Arrival draws equal to ``np.random.default_rng(stream_seed(base, i))``'s.

    ``draw_count(i, lam)`` draws stream ``i``'s Poisson count of mean
    ``lam`` and returns the stream positioned after it.  Below a mean of
    6 (``_POISSON_MULT_MAX``), inside numpy's multiplication branch, the
    draw never touches numpy: a first double at most ``exp(-lam)`` is a
    zero count, and any other count is drawn by a :class:`StreamCursor`
    started at the stream's state.  A larger mean reseeds one shared
    Generator through ``generator(i)`` and lets numpy draw.  The seeds of
    a block of consecutive indices are hashed together, so a run that
    walks the indices in order hashes each seed once; a jump backwards or
    past the block rehashes from the requested index.
    """

    def __init__(self, base: int):
        self.base = int(base)
        self._bitgen = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bitgen)
        self._start = 0
        self._block: tuple = ((), (), (), (), ())

    def _offset(self, index: int) -> int:
        """Offset of stream ``index`` in the block, hashing a new block
        from ``index`` on when it lies outside the current one."""
        offset = index - self._start
        if not 0 <= offset < len(self._block[4]):
            indices = np.arange(index, index + _SEED_BLOCK, dtype=np.uint64)
            self._block = _pcg64_states(stream_seed(self.base, indices))
            self._start, offset = index, 0
        return offset

    def _state(self, offset: int) -> tuple:
        """``(state, inc)`` of the block's stream at ``offset``, as ints."""
        s_hi, s_lo, i_hi, i_lo, _ = self._block
        return s_hi[offset] << 64 | s_lo[offset], i_hi[offset] << 64 | i_lo[offset]

    def generator(self, index: int) -> np.random.Generator:
        """The shared Generator, reseeded to stream ``index``'s start; it
        is valid until the next call."""
        state, inc = self._state(self._offset(index))
        # Setting the whole state also clears the buffered 32-bit half word.
        self._bitgen.state = {"bit_generator": "PCG64",
                              "state": {"state": state, "inc": inc},
                              "has_uint32": 0, "uinteger": 0}
        return self._generator

    def draw_count(self, index: int, lam: float) -> tuple:
        """``(count, draws)``: stream ``index``'s Poisson draw of mean
        ``lam``, and the stream positioned after it, whose ``integers``
        and ``random(size)`` return lists; ``draws`` is None when the first
        double alone decided a zero count."""
        if lam >= _POISSON_MULT_MAX:
            rng = self.generator(index)
            return int(rng.poisson(lam)), _GeneratorDraws(rng)
        # numpy's random_poisson_mult: multiply doubles until the product
        # is at most exp(-lam); the count is the number of factors before.
        limit = math.exp(-lam)
        offset = self._offset(index)
        if self._block[4][offset] <= limit:
            return 0, None
        cursor = StreamCursor(*self._state(offset))
        prod = cursor.random()
        count = 0
        while prod > limit:
            count += 1
            prod *= cursor.random()
        return count, cursor
