"""Tests for the randomness plumbing: arrival streams and split coins."""

import math
from bisect import bisect_left

import numpy as np
import pytest

import treesplit.rng as rng
from treesplit.rng import (
    _POISSON_MULT_MAX,
    _SEED_BLOCK,
    _WORD_DEPTHS,
    _WORD_ROWS,
    _WORDS_MIN,
    ArrivalStreams,
    CoinSource,
    StreamCursor,
    _key_depths,
    _pcg64_states,
    coin_uniform,
    coin_words,
    derive_seed,
    prepared_sources,
    stream_seed,
)

BASES = (0, 1, derive_seed(42, "arrivals"), (1 << 63) - 1)


def _reference_state(base, index):
    return np.random.default_rng(stream_seed(base, index)).bit_generator.state


def _cursor_and_reference(seed):
    """A cursor and a numpy Generator, both at the start of PCG64 stream ``seed``."""
    ref = np.random.default_rng(seed)
    state = ref.bit_generator.state["state"]
    return StreamCursor(state["state"], state["inc"]), ref


def _assert_same_position(cursor, ref):
    """The cursor's 128-bit state and buffered half word equal numpy's."""
    state = ref.bit_generator.state
    assert cursor._state == state["state"]["state"]
    assert (cursor._half is not None) == bool(state["has_uint32"])
    if state["has_uint32"]:
        assert cursor._half == state["uinteger"]


class TestArrivalStreams:
    @pytest.mark.parametrize("base", BASES)
    def test_state_matches_default_rng_in_order(self, base):
        # Walks across two block boundaries.
        streams = ArrivalStreams(base)
        for index in range(2 * _SEED_BLOCK + 3):
            state = streams.generator(index).bit_generator.state
            assert state == _reference_state(base, index), index

    @pytest.mark.parametrize("base", BASES)
    def test_state_matches_default_rng_after_jumps(self, base):
        streams = ArrivalStreams(base)
        # Forward inside the block, past it, backwards, and far ahead.
        for index in (0, 1, 7, _SEED_BLOCK + 5, 3, 2, _SEED_BLOCK + 4,
                      10 * _SEED_BLOCK, 10 * _SEED_BLOCK - 1, 1 << 40, 0):
            state = streams.generator(index).bit_generator.state
            assert state == _reference_state(base, index), index

    def test_stream_seed_accepts_index_arrays(self):
        base = derive_seed(7, "arrivals")
        indices = np.array([0, 1, 2, 1000, (1 << 40) + 3], dtype=np.uint64)
        assert stream_seed(base, indices).tolist() == [
            stream_seed(base, int(i)) for i in indices]

    @pytest.mark.parametrize("seed", [
        0, 1, 12345, (1 << 32) - 1,               # one entropy word
        1 << 32, (1 << 32) + 1, (1 << 63) - 1, (1 << 64) - 1,
    ])
    def test_pcg64_seeding_matches_numpy(self, seed):
        (s_hi,), (s_lo,), (i_hi,), (i_lo,), (first,), (product,) = _pcg64_states(
            np.array([seed], dtype=np.uint64))
        state, inc = s_hi << 64 | s_lo, i_hi << 64 | i_lo
        expected = np.random.default_rng(seed).bit_generator.state["state"]
        assert {"state": state, "inc": inc} == expected
        assert first == np.random.default_rng(seed).random()
        ref = np.random.default_rng(seed)
        assert product == ref.random() * ref.random()

    @pytest.mark.parametrize("base", BASES)
    def test_first_double_matches_numpy(self, base):
        seeds = stream_seed(base, np.arange(2000, dtype=np.uint64))
        firsts = _pcg64_states(seeds)[4]
        assert firsts == [np.random.default_rng(s).random() for s in seeds.tolist()]

    # Both sides of the switch from the cursor to a reseed (lam < 6) and of
    # numpy's switch from multiplication (lam < 10) to PTRS.
    @pytest.mark.parametrize("lam", [0.0, 1e-9, 0.1, 0.5, 1.0, 3.0, 5.999, 6.0,
                                     9.999, 10.0, 12.0, 40.0])
    def test_draw_count_matches_numpy(self, lam):
        base = derive_seed(5, "arrivals")
        streams = ArrivalStreams(base)
        # Streams whose first double is below exp(-10): numpy draws them a
        # zero count just below its switch and a PTRS count at or above it.
        small_first = (4950, 45193, 71439)
        firsts = _pcg64_states(stream_seed(base, np.array(small_first, dtype=np.uint64)))[4]
        assert all(first <= math.exp(-10) for first in firsts)
        for index in (*range(2000), *small_first):
            count, rng = streams.draw_count(index, lam)
            ref = np.random.default_rng(stream_seed(base, index))
            assert count == ref.poisson(lam), index
            if lam < _POISSON_MULT_MAX:
                # A zero count below the switch never reseeds.
                assert (rng is None) == (count == 0), index
            if count:
                drawn = rng.integers(1, 5001, count)
                assert drawn == ref.integers(1, 5001, size=count).tolist(), index

    # Runs that end at once (lam 2, 5.99) and that cross a block (lam 0, 0.05).
    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.5, 2.0, 5.99])
    def test_small_counts_match_numpy(self, lam):
        draw = np.random.default_rng(int(lam * 100) + 1)
        for base in (BASES[2], int(draw.integers(1 << 62))):
            streams = ArrivalStreams(base)
            # The block from 0, starts whose runs reach its end, then jumps.
            starts = [0, *range(_SEED_BLOCK - 4, _SEED_BLOCK + 7),
                      *draw.integers(0, 1 << 40, size=4).tolist()]
            for k, start in enumerate(starts):
                most = (1, 7, 40, _SEED_BLOCK + 60)[k % 4]
                counts = streams.small_counts(start, lam, most)
                stop = len(counts) + (len(counts) < most)
                ref = [int(np.random.default_rng(stream_seed(base, start + i)).poisson(lam))
                       for i in range(stop)]
                assert counts == ref[:len(counts)], start
                assert all(type(count) is int and count <= 1 for count in counts), start
                # The run stops at the first count of 2 or more, or at most.
                assert len(counts) == most or ref[-1] >= 2, start

    @pytest.mark.parametrize("lam", [_POISSON_MULT_MAX, 6.5, 9.999, 12.0, 40.0])
    def test_small_counts_leave_large_means_to_draw_count(self, lam):
        # Streams whose first double is below exp(-10), so a mean below 10
        # would draw them a zero count: none is read at a mean of 6 or more.
        streams = ArrivalStreams(derive_seed(5, "arrivals"))
        for index in (0, 4950, 45193, 71439):
            assert streams.small_counts(index, lam, 100) == [], index

    def test_buffered_half_word_does_not_leak_into_next_stream(self):
        base = derive_seed(3, "arrivals")
        streams = ArrivalStreams(base)
        for index in range(6):
            rng = streams.generator(index)
            # An odd number of bounded 32-bit draws leaves half of a 64-bit
            # output buffered.
            k = index % 2 + 1
            drawn = rng.integers(0, 1000, size=k).tolist()
            assert rng.bit_generator.state["has_uint32"] == k % 2
            ref = np.random.default_rng(stream_seed(base, index))
            assert drawn == ref.integers(0, 1000, size=k).tolist()
            assert rng.random() == ref.random()

    # Seeds on both sides of the one-word/two-word entropy switch, and at
    # both ends of the uint64 range, 2,000 each.
    @pytest.mark.parametrize("anchor", [0, (1 << 32) - 1, 1 << 32, (1 << 64) - 1])
    def test_limb_seeding_matches_numpy_near(self, anchor):
        low = min(max(anchor - 1000, 0), (1 << 64) - 2000)
        seeds = [low + k for k in range(2000)]
        assert anchor in seeds
        s_hi, s_lo, i_hi, i_lo, firsts, products = _pcg64_states(
            np.array(seeds, dtype=np.uint64))
        for k, seed in enumerate(seeds):
            ref = np.random.default_rng(seed)
            assert ref.bit_generator.state["state"] == {
                "state": s_hi[k] << 64 | s_lo[k], "inc": i_hi[k] << 64 | i_lo[k]}, seed
            assert firsts[k] == ref.random(), seed
            assert products[k] == firsts[k] * ref.random(), seed

    @pytest.mark.parametrize("lam", [1e-9, 0.1, 1.0, 3.0, 9.999])
    def test_cursor_count_leaves_the_stream_where_numpy_does(self, monkeypatch, lam):
        # The cursor draws exactly over numpy's whole multiplication branch,
        # so any speed threshold up to 10 draws the same counts.
        monkeypatch.setattr(rng, "_POISSON_MULT_MAX", 10.0)
        base = derive_seed(8, "arrivals")
        streams = ArrivalStreams(base)
        for index in range(2000):
            count, cursor = streams.draw_count(index, lam)
            ref = np.random.default_rng(stream_seed(base, index))
            assert count == ref.poisson(lam), index
            if count:
                _assert_same_position(cursor, ref)
                assert cursor.random() == ref.random(), index

    # One value (consumes nothing), the smallest real range, a slot span,
    # a power of two (no rejection), and a range that rejects about half
    # of its 32-bit words.
    @pytest.mark.parametrize("span", [1, 2, 40, 1 << 31, (1 << 31) + 1])
    def test_integers_carry_the_half_word_across_calls(self, span):
        base = derive_seed(9, "arrivals")
        for index in range(2000):
            cursor, ref = _cursor_and_reference(stream_seed(base, index))
            # An odd count leaves the high half of a 64-bit output buffered
            # for the next call, unless a rejection drew one more word.
            for lo, size in ((7, 3), (0, 1), (123, 2)):
                drawn = cursor.integers(lo, lo + span, size)
                assert drawn == ref.integers(lo, lo + span, size=size).tolist(), index
                _assert_same_position(cursor, ref)
            assert cursor.random() == ref.random(), index

    def test_uniform_then_further_draws(self):
        base = derive_seed(10, "arrivals")
        for index in range(2000):
            cursor, ref = _cursor_and_reference(stream_seed(base, index))
            size = index % 4 + 1
            assert cursor.random(size) == ref.random(size).tolist()
            # A 32-bit draw after doubles, then doubles with its half word buffered.
            assert cursor.integers(0, 40, 1) == ref.integers(0, 40, size=1).tolist()
            assert cursor.random(2) == ref.random(2).tolist()
            assert cursor.integers(0, 40, 1) == ref.integers(0, 40, size=1).tolist()
            _assert_same_position(cursor, ref)

    def test_integers_beyond_32_bits(self):
        base = derive_seed(12, "arrivals")
        for index in range(500):
            cursor, ref = _cursor_and_reference(stream_seed(base, index))
            # The widest 32-bit range, a 64-bit one, and one that rejects
            # about half of its 64-bit outputs.
            for lo, hi in ((0, 1 << 32), (5, (1 << 40) + 5), (-(1 << 62), 1 << 62),
                           (-(1 << 63), 1)):
                assert cursor.integers(lo, hi, 3) == ref.integers(lo, hi, size=3).tolist()
                _assert_same_position(cursor, ref)

    def test_cursor_rejects_an_empty_range(self):
        cursor, _ = _cursor_and_reference(1)
        with pytest.raises(ValueError):
            cursor.integers(5, 5, 1)


class TestCoinSource:
    @pytest.mark.parametrize("p", [0.0, 1e-9, 0.1, 0.3, 0.5, 0.5 + 2.0 ** -40, 0.7, 0.999, 1.0])
    def test_flip_matches_coin_uniform(self, p):
        for seed in (0, 9, derive_seed(1, "coins")):
            coins = CoinSource(seed, p)
            for uid in range(40):
                for depth in (0, 1, 2, 5, 17, 63):
                    assert coins.flip(uid, depth) == (coin_uniform(seed, uid, depth) < p)

    def test_flip_at_the_exact_threshold(self):
        # p equal to the variate itself must lose; the next double up must win.
        for uid in range(50):
            u = coin_uniform(11, uid, 3)
            assert CoinSource(11, u).flip(uid, 3) is False
            assert CoinSource(11, math.nextafter(u, 1.0)).flip(uid, 3) is True

    def test_sources_with_other_seeds_do_not_share_user_state(self):
        a, b = CoinSource(1, 0.5), CoinSource(2, 0.5)
        for uid in range(30):
            assert a.flip(uid, 1) == (coin_uniform(1, uid, 1) < 0.5)
            assert b.flip(uid, 1) == (coin_uniform(2, uid, 1) < 0.5)

    def test_script_entry_wins(self):
        seed, p = 5, 0.5
        natural = {(uid, d): coin_uniform(seed, uid, d) < p
                   for uid in range(4) for d in range(3)}
        script = {key: not value for key, value in natural.items() if key[1] == 1}
        coins = CoinSource(seed, p, script)
        for key, value in natural.items():
            assert coins.flip(*key) == (not value if key in script else value)


def _assert_row_matches_flip(seed, p, uids, row, depths):
    """``row`` holds ``uids`` by ascending key, ties in their given order,
    and each key's ``depths`` bits are the uid's tails at depths below it."""
    order, keys, row_depths = row
    coins = CoinSource(seed, p)
    assert row_depths == depths
    assert sorted(order) == sorted(uids)
    assert keys == sorted(keys)
    position = {uid: i for i, uid in enumerate(uids)}
    for i, (uid, key) in enumerate(zip(order, keys)):
        assert 0 <= key < 1 << depths
        for depth in range(depths):
            tails = bool(key >> (depths - 1 - depth) & 1)
            assert tails == (not coins.flip(uid, depth)), (uid, depth)
        if i and keys[i - 1] == key and order[i - 1] != uid:
            assert position[order[i - 1]] < position[uid]  # ties keep the given order


def _assert_keys_match_flip(seed, p, uids):
    (row,) = coin_words([(seed, uids)], p)
    _assert_row_matches_flip(seed, p, uids, row, _key_depths(len(uids), p))


class TestCoinWords:
    """Bit D - 1 - d of a ``coin_words`` key is 1 exactly when ``flip`` is
    False at depth d < D, D the depths the pass's largest group needs, and
    each group comes back sorted by key."""

    UIDS = list(range(5)) + list(range((1 << 64) - 40, 1 << 64))

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.123, 1e-3])
    @pytest.mark.parametrize("seed", [0, (1 << 63) - 1])
    def test_words_match_flip(self, p, seed):
        _assert_keys_match_flip(seed, p, self.UIDS)

    @pytest.mark.parametrize("seed", [0, (1 << 63) - 1])
    def test_words_at_the_exact_threshold(self, seed):
        # p equal to a coin's variate must lose; the next double up must win.
        for uid in (0, 3, (1 << 64) - 1):
            for depth in (0, 13, _WORD_DEPTHS - 1):
                u = coin_uniform(seed, uid, depth)
                for p, heads in ((u, False), (math.nextafter(u, 1.0), True)):
                    ((order, keys, depths),) = coin_words([(seed, self.UIDS)], p)
                    if depth < depths:  # a skewed p hashes every depth
                        key = keys[order.index(uid)]
                        assert key >> (depths - 1 - depth) & 1 == (not heads)
                    _assert_keys_match_flip(seed, p, self.UIDS)

    def test_words_of_ids_beyond_uint64(self):
        # flip keys a coin by the id's low 64 bits, so the keys must too,
        # and the order must hold the ids as given.
        _assert_keys_match_flip(9, 0.5, [-1, -(1 << 70), 1 << 64, (1 << 64) + 5])

    def test_bias_outside_the_unit_interval_is_rejected(self):
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                CoinSource(1, p)

    def test_words_over_several_passes(self):
        _assert_keys_match_flip(derive_seed(3, "coins"), 0.3, list(range(_WORD_ROWS + 300)))

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.123])
    def test_groups_match_one_group_words(self, p):
        """Each group's order and keys from one shared pass hold its coins
        at the depths its largest group needs, across seeds, pass
        boundaries and sizes, and agree with a pass over that group alone
        at the depths both cover."""
        near = (1 << 63) - 1
        groups = [
            (0, [7]),
            (near, list(range(5))),
            (derive_seed(3, "coins"), list(range(100, _WORD_ROWS + 50))),  # straddles a pass
            (near - 12345, [(1 << 64) - 1]),
            (stream_seed(derive_seed(8, "coins"), 4), list(range(40, 52))),
            (1 << 62, []),
            (5, [3, 3, 9]),
        ]
        got = coin_words(groups, p)
        assert len(got) == len(groups)
        depths = _key_depths(_WORD_ROWS - 50, p)
        for (seed, uids), row in zip(groups, got):
            _assert_row_matches_flip(seed, p, uids, row, depths)
            ((_, alone, fewer),) = coin_words([(seed, uids)], p)
            assert fewer <= depths
            assert sorted(alone) == sorted(key >> depths - fewer for key in row[1]), seed

    def test_no_groups(self):
        assert coin_words([], 0.5) == []


def _no_coin_words(groups, p):
    raise AssertionError("unexpected coin_words pass")


def _walk(coins, order, split, max_depth=48):
    """Split every group of ``order``'s split tree, as the engine would,
    down to single members or ``max_depth``; check that each split puts
    the heads of ``coins`` first and keeps the range's members, and
    return the depths split at."""
    depths = set()
    stack = [(0, len(order), 0)]
    while stack:
        a, b, depth = stack.pop()
        if b - a < 2 or depth > max_depth:
            continue
        members = sorted(order[a:b])
        m = split(order, a, b, depth)
        assert a <= m <= b and sorted(order[a:b]) == members
        assert all(coins.flip(uid, depth) for uid in order[a:m]), depth
        assert not any(coins.flip(uid, depth) for uid in order[m:b]), depth
        depths.add(depth)
        stack += [(a, m, depth + 1), (m, b, depth + 1)]
    return depths


def _flip_split(coins, order, a, b, depth):
    """Partition ``order[a:b]`` by ``coins.flip`` at ``depth``, heads then
    tails, each in its previous order, as the engine does past the keys'
    depth; return where the tails start."""
    heads = [uid for uid in order[a:b] if coins.flip(uid, depth)]
    tails = [uid for uid in order[a:b] if not coins.flip(uid, depth)]
    order[a:b] = heads + tails
    return a + len(heads)


class TestSplitter:
    """``CoinSource.trie`` serves an interval's trie order and keys, from
    wherever they come, such that splitting by them agrees with ``flip``;
    the engine tests check whole traces."""

    DEPTHS = (0, 1, 13, _WORD_DEPTHS - 1, _WORD_DEPTHS, 40)

    @staticmethod
    def _walk(coins, ids):
        """``_walk`` over the trie order of ``ids``, splitting as the engine
        does: by bisection of the keys above their depth, by flips below."""
        order, keys, depths = coins.trie(list(ids))

        def split(order, a, b, depth):
            if depth < depths:
                shift = depths - depth
                return bisect_left(keys, keys[a] >> shift << shift | 1 << shift - 1, a, b)
            return _flip_split(coins, order, a, b, depth)

        return order, _walk(coins, order, split)

    @pytest.mark.parametrize("p", [0.5, 0.3, 1e-3])
    @pytest.mark.parametrize("kind", ["prepared", "unprepared", "small", "scripted"])
    def test_split_puts_heads_before_tails(self, monkeypatch, kind, p):
        seed = 21
        ids = list(range(3000, 3000 + (_WORDS_MIN - 1 if kind == "small" else 3 * _WORDS_MIN)))
        if kind == "prepared":
            (coins,) = prepared_sources([(seed, ids)], p)
            monkeypatch.setattr(rng, "coin_words", _no_coin_words)
        elif kind == "scripted":
            coins = CoinSource(seed, p, {(ids[0], 40): True, (ids[1], _WORD_DEPTHS): True,
                                         (ids[2], _WORD_DEPTHS - 1): True, (ids[3], 0): False})
        else:
            coins = CoinSource(seed, p)
        _, depths = self._walk(coins, ids)
        if p == 1e-3:
            # Almost every coin is tails, so groups reach past the keys' depths.
            assert set(self.DEPTHS) <= depths

    def test_prepared_words_are_read(self, monkeypatch):
        ids = list(range(100, 100 + _WORDS_MIN + 4))
        source, small = prepared_sources([(9, ids), (10, ids[:_WORDS_MIN - 1])], 0.3)
        assert small is None
        monkeypatch.setattr(rng, "coin_words", _no_coin_words)
        for _ in range(2):  # a split reorders the served order, not the prepared one
            order, _ = self._walk(source, ids)
            assert sorted(order) == ids and order is not ids

    def test_prepared_sources_make_one_pass(self, monkeypatch):
        calls = []
        words = rng.coin_words

        def counted_words(groups, p):
            calls.append(len(groups))
            return words(groups, p)

        monkeypatch.setattr(rng, "coin_words", counted_words)
        groups = [(3, list(range(_WORDS_MIN))), (4, [1, 2]), (5, []),
                  (6, list(range(50, 50 + 2 * _WORDS_MIN)))]
        sources = prepared_sources(groups, 0.5)
        assert calls == [2]
        assert [source is None for source in sources] == [False, True, True, False]
        for (seed, ids), source in zip(groups, sources):
            if source is not None:
                assert (source.seed, source.p) == (seed, 0.5)

    def test_scripted_source_honours_every_entry(self, monkeypatch):
        seed, p = 5, 0.5
        ids = list(range(_WORDS_MIN + 2))
        script = {(2, 0): not coin_uniform(seed, 2, 0) < p,
                  (3, 31): not coin_uniform(seed, 3, 31) < p,
                  (3, 40): True, (4, 40): False}
        coins = CoinSource(seed, p, script)
        # A scripted source flips every coin, so it makes no keys pass.
        monkeypatch.setattr(rng, "coin_words", _no_coin_words)
        order, keys, depths = coins.trie(ids)
        assert order is ids and keys is None and depths == 0
        for depth in (0, 31, 40):
            order = list(ids)
            m = _flip_split(coins, order, 0, len(order), depth)
            heads, tails = order[:m], order[m:]
            assert heads == [uid for uid in ids if coins.flip(uid, depth)]
            assert tails == [uid for uid in ids if not coins.flip(uid, depth)]
            for (uid, d), value in script.items():
                if d == depth:
                    assert (uid in heads) == value, (uid, d)
