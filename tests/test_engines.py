"""Tests for the slot-stepped protocol engines.

Covers exact worked fixtures under scripted splits, statistical agreement
with the analytic length laws, ordering properties under shared coins,
conservation invariants checked property-style, and a replay of the
recorded feedback against an independent cancellation oracle.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import treesplit.engines as engines
import treesplit.rng as rng
from treesplit.analytics import CollisionCountTable, CriLengthTable, asymptotic_throughput
from treesplit.cli import build_parser
from treesplit.engines import NonTerminationError, arbitrate, export_tree, run_cri
from treesplit.rng import _WORDS_MIN, CoinSource, derive_seed, prepared_sources
from treesplit.signals import Signal, cancel
from treesplit.sim import simulate

HALF = 0.5
PROTOCOLS = ["bta", "mta", "sicta", "atic", "atic_left"]
SIC_PROTOCOLS = ["sicta", "atic", "atic_left"]
TRIPLE_ONE_VS_TWO = {(1, 0): True, (2, 0): False, (3, 0): False}


def mean_length(protocol, n, trials, base_seed, p=0.5):
    total = 0
    for s in range(trials):
        total += run_cri(protocol, range(1, n + 1), p, base_seed + s).length
    return total / trials


def aleft_length_tables(n_max, p):
    """Independent oracle for the left-skipping variant's length law.

    Built directly from first-step conditioning: a transmitted group of
    size n splits into a transmitted left part and a derived right part;
    derived groups of size >= 3 behave like transmitted ones minus the
    slot the cancellation already paid, while a derived pair resolves in
    (1 + p^2) / (1 - q^2) expected slots.
    """
    q = 1.0 - p
    lt = np.zeros(n_max + 1)
    ld = np.zeros(n_max + 1)
    lt[0] = lt[1] = 1.0
    lt[2] = 2.0
    ld[2] = (1.0 + p * p) / (1.0 - q * q)
    gl = gammaln(np.arange(n_max + 2))
    lp, lq = math.log(p), math.log(q)
    for n in range(3, n_max + 1):
        i = np.arange(n + 1)
        pmf = np.exp(gl[n + 1] - gl[i + 1] - gl[n - i + 1] + i * lp + (n - i) * lq)
        mid = float(np.dot(pmf[1:n], lt[1:n] + ld[n - 1:0:-1]))
        lt[n] = (1.0 + mid) / (1.0 - pmf[0] - pmf[n])
        ld[n] = lt[n] - 1.0
    return lt, ld


def cancel_to_fixpoint(memory, pid):
    """Independent oracle for one decode, on the signal algebra.  The stored
    remainders (``Signal``s) nest along the tree path, the deepest last, so
    every one of them holds each decoded packet: cancel it from each, which
    raises ``NotContainedError`` on an over-subtraction, drop the emptied
    remainders, and decode the deepest one where it holds a single packet,
    until none does.  Returns the packets resolved, in order, and the
    remainders left."""
    resolved = []
    packet = Signal.of(pid)
    while True:
        resolved.extend(packet)
        memory = [(slot, cancel(rem, packet)) for slot, rem in memory]
        while memory and not memory[-1][1]:
            memory.pop()
        if not memory or len(memory[-1][1]) != 1:
            return resolved, memory
        packet = memory[-1][1]


# What each protocol's feedback broadcasts, written out apart from the
# engine's rule table: (received collisions, freshest remainder on successes).
BROADCASTS = {"bta": (False, False), "mta": (False, False), "sicta": (False, False),
              "atic": (True, True), "atic_left": (True, False)}


class TestFeedbackReplay:
    @given(st.integers(0, 30), st.integers(0, 10_000), st.sampled_from(PROTOCOLS),
           st.sampled_from([0.3, 0.5, 0.7]))
    @settings(max_examples=300)
    def test_recorded_feedback_matches_replay(self, n, seed, protocol, p):
        """Replay every recorded slot on both sides of the channel with the
        signal algebra.  The receiver reduces its stored collision signals
        to a fixpoint: each success decodes what the fixpoint resolves, the
        memory size counts its remainders, and ``z`` is what the protocol
        broadcasts.  Users who see a pair broadcast arbitrate it by id: the
        next slot holds the higher id alone.  Every arbitration in the tree
        (a node with one child) comes right after a broadcast of its
        parent's two members, each of whom cancels its own signal out of
        it and is left with the other's; no broadcast of three or more
        members is followed by one."""
        z_on_collision, z_on_success = BROADCASTS[protocol]
        trace = run_cri(protocol, range(n), p, seed, record=True)
        decoded_in: dict = {}
        for pid, slot in trace.decoded_order:
            decoded_in.setdefault(slot, []).append(pid)
        memory: list = []
        for rec, nxt in zip(trace.slots, trace.slots[1:] + [None]):
            z = Signal()
            if rec.kind == "collision":
                assert len(rec.transmitters) >= 2
                if protocol in SIC_PROTOCOLS:
                    memory.append((rec.index, Signal(rec.transmitters)))
                if z_on_collision:
                    z = Signal(rec.transmitters)
            elif rec.kind == "success":
                assert len(rec.transmitters) == 1
                pid = rec.transmitters[0]
                resolved, memory = cancel_to_fixpoint(memory, pid)
                decoded = decoded_in.pop(rec.index)
                assert decoded[0] == pid and set(decoded) == set(resolved)
                assert len(decoded) == len(resolved)
                assert decoded == resolved
                if z_on_success and memory:
                    z = memory[-1][1]
            else:
                assert rec.kind == "idle" and rec.transmitters == ()
            assert rec.memory_size == len(memory)
            assert rec.z == z.components
            if len(z) == 2:
                assert nxt is not None and nxt.transmitters == (max(z),)
        assert decoded_in == {} and memory == []

        children: dict = {}
        for node in trace.nodes[1:]:
            children.setdefault(node.parent, []).append(node)
        arbitrated = set()
        for parent, kids in children.items():
            if len(kids) == 1:
                slot = kids[0].slot
                assert slot is not None and slot >= 2
                assert trace.slots[slot - 2].z == trace.nodes[parent].members
                arbitrated.add(slot)
                pair = trace.nodes[parent].members
                assert len(pair) == 2
                z = Signal(trace.slots[slot - 2].z)
                for me, other in (pair, pair[::-1]):
                    assert cancel(z, Signal.of(me)) == Signal.of(other)
        assert all(rec.index + 1 not in arbitrated
                   for rec in trace.slots if len(rec.z) >= 3)


class TestScriptedFixtures:
    def test_atic_pair_always_two_slots(self):
        lengths = {run_cri("atic", [10, 20], 0.5, seed).length for seed in range(200)}
        assert lengths == {2}

    def test_atic_triple_split_one_vs_two(self):
        trace = run_cri("atic", [1, 2, 3], 0.5, CoinSource(0, 0.5, TRIPLE_ONE_VS_TWO),
                        record=True)
        assert trace.length == 3
        rec = trace.slots[1]
        assert rec.kind == "success" and rec.z == (2, 3)
        # slot 3: the remaining pair resolves via arbitration, both decode
        assert sorted(p for p, _ in trace.decoded_order) == [1, 2, 3]
        assert trace.decoded_order[1] == (3, 3)
        assert trace.skipped_slots == 1

    def test_sicta_four_user_worked_example(self):
        script = {(1, 0): True, (2, 0): True, (3, 0): True, (4, 0): False,
                  (1, 1): False, (2, 1): False, (3, 1): False,
                  (1, 2): True, (2, 2): True, (3, 2): False,
                  (1, 3): True, (2, 3): False}
        trace = run_cri("sicta", [1, 2, 3, 4], 0.5, CoinSource(0, 0.5, script),
                        record=True)
        assert trace.length == 5
        assert trace.skipped_slots == 4
        assert [s.kind for s in trace.slots] == [
            "collision", "collision", "idle", "collision", "success"]
        assert [s.memory_size for s in trace.slots] == [1, 2, 2, 3, 0]
        assert trace.memory_highwater == 3
        assert trace.slots[-1].skip_k == 4
        assert [p for p, _ in trace.decoded_order] == [1, 2, 3, 4]
        assert len(trace.nodes) == 9
        assert sum(1 for n in trace.nodes if n.style != "slot") == 4

    def test_dot_export_styles(self):
        script = {(1, 0): True, (2, 0): True, (3, 0): True, (4, 0): False,
                  (1, 1): False, (2, 1): False, (3, 1): False,
                  (1, 2): True, (2, 2): True, (3, 2): False,
                  (1, 3): True, (2, 3): False}
        trace = run_cri("sicta", [1, 2, 3, 4], 0.5, CoinSource(0, 0.5, script),
                        record=True)
        dot = export_tree(trace)
        assert dot.count("dashed") == 4
        assert dot.count("slot ") == 5

    def test_dot_requires_recorded_tree(self):
        trace = run_cri("sicta", [1, 2], 0.5, 3)
        with pytest.raises(ValueError):
            export_tree(trace)

    def test_empty_and_singleton_intervals(self):
        empty = run_cri("bta", [], 0.5, 1, record=True)
        assert empty.length == 1 and empty.idles == 1 and len(empty.nodes) == 1
        lone = run_cri("atic", [5], 0.5, 1)
        assert lone.length == 1 and lone.decoded_order == [(5, 1)]

    def test_atic_pair_tree_has_two_nodes(self):
        trace = run_cri("atic", [10, 20], 0.5, 3, record=True)
        assert len(trace.nodes) == 2
        assert trace.nodes[1].members == (20,)

class TestLengthLaws:
    TRIALS = 20000

    @pytest.mark.parametrize("protocol,n", [
        ("bta", 2), ("bta", 3), ("mta", 2), ("mta", 3),
        ("sicta", 2), ("sicta", 3), ("sicta", 7),
        ("atic", 3), ("atic", 5), ("atic", 12),
    ])
    def test_sample_mean_matches_recursion(self, protocol, n):
        expected = CriLengthTable(HALF, protocol).expected(n)
        got = mean_length(protocol, n, self.TRIALS, 777)
        # generous deterministic band: several standard errors wide
        band = max(0.12, 6.0 * math.sqrt(expected) / math.sqrt(self.TRIALS))
        assert abs(got - expected) < band, f"{got} vs {expected}"

    def test_left_skipping_pair_exact(self):
        lengths = {run_cri("atic_left", [1, 2], 0.5, s).length for s in range(100)}
        assert lengths == {2}

    def test_left_skipping_triple_matches_oracle(self):
        lt, _ = aleft_length_tables(8, 0.5)
        assert lt[3] == pytest.approx(11.0 / 3.0, abs=1e-12)
        got = mean_length("atic_left", 3, 30000, 1234)
        assert got == pytest.approx(lt[3], abs=0.05)

    def test_left_skipping_saturation_constant(self):
        lt, _ = aleft_length_tables(4000, 0.5)
        assert 4000 / lt[4000] == pytest.approx(6 * math.log(2) / 5, abs=1e-3)

    @pytest.mark.parametrize("protocol,length_ns,count_ns", [
        ("atic_left", range(3, 10), range(2, 9)),
        ("bta", (), range(2, 9)),
        ("mta", (), range(2, 9)),
    ], ids=("atic_left", "bta", "mta"))
    def test_sample_means_match_both_tables(self, protocol, length_ns, count_ns):
        """Engine means lie within 3 SE of the length and collision-count
        rows the protocol's rule flags give."""
        trials = 5000
        checks = [("length", CriLengthTable(HALF, protocol), set(length_ns)),
                  ("collisions", CollisionCountTable(HALF, protocol), set(count_ns))]
        failures = []
        for n in sorted(set(length_ns) | set(count_ns)):
            base = 3_000_000 + 100_000 * (10 * PROTOCOLS.index(protocol) + n)
            traces = [run_cri(protocol, range(n), 0.5, base + s) for s in range(trials)]
            for name, table, ns in checks:
                if n not in ns:
                    continue
                values = np.array([getattr(t, name) for t in traces], dtype=float)
                se = values.std() / math.sqrt(trials)
                want = table.expected(n)
                if abs(values.mean() - want) > 3.0 * se:
                    failures.append(f"{name} n={n}: {values.mean():.4f} vs {want:.4f}, "
                                    f"se {se:.4f}")
        assert not failures, failures

    def test_slot_count_ordering_under_shared_coins(self):
        for seed in range(150):
            lengths = {
                proto: run_cri(proto, range(1, 9), 0.5, CoinSource(seed, 0.5)).length
                for proto in ("bta", "mta", "sicta", "atic_left", "atic")
            }
            assert (lengths["bta"] >= lengths["mta"] >= lengths["sicta"]
                    >= lengths["atic_left"] >= lengths["atic"]), (seed, lengths)


class TestRunnerContract:
    def test_deterministic_under_fixed_seed(self):
        a = run_cri("atic", range(30), 0.5, 99)
        b = run_cri("atic", range(30), 0.5, 99)
        assert a.decoded_order == b.decoded_order
        assert a.length == b.length
        assert a.k_values == b.k_values

    def test_rejects_bad_split_probability(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                run_cri("atic", [1], bad, 0)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            run_cri("aloha", [1], 0.5, 0)

    @pytest.mark.parametrize("call,flag", [
        (lambda name: run_cri(name, [1], 0.5, 0), None),
        (lambda name: run_cri([name], [1], 0.5, 0), None),
        (lambda name: simulate(name, "gated", 0.4, 100, 1), None),
        (lambda name: CriLengthTable(0.5, name), None),
        (lambda name: CollisionCountTable(0.5, name), None),
        (lambda name: build_parser().parse_args(["analytic", "--protocols", name]),
         "--protocols"),
    ], ids=["run_cri", "run_cri_unhashable", "simulate", "CriLengthTable",
            "CollisionCountTable", "config"])
    def test_unknown_protocol_names_the_choices(self, call, flag):
        """Every entry point reads protocols from ``RULES`` alone and
        gives one error naming its five names; the CLI reports it against
        the flag."""
        with pytest.raises(ValueError) as err:
            call("aloha")
        assert "choices: ('bta', 'mta', 'sicta', 'atic', 'atic_left')" in str(err.value)
        prefix = f"argument {flag}: " if flag else ""
        assert str(err.value).startswith(prefix + "unknown protocol ")

    def test_rejects_a_bias_below_the_coin_resolution(self):
        """The coins realize p rounded up to a multiple of 2^-53, so a
        smaller p is refused rather than run as 2^-53; at 2^-53 every
        table stays finite and positive."""
        for call in (lambda: run_cri("sicta", [1, 2], 1e-20, 3),
                     lambda: simulate("atic", "gated", 0.3, 100, 1, p=1e-20),
                     lambda: CriLengthTable(1e-20, "atic"),
                     lambda: CollisionCountTable(1e-20, "atic")):
            with pytest.raises(ValueError, match=r"\[2\^-53, 1\)"):
                call()
        for protocol in engines.RULES:
            for cls in (CriLengthTable, CollisionCountTable):
                value = cls(2.0 ** -53, protocol).expected(3)
                assert math.isfinite(value) and value > 0

    def test_cap_triggers_nontermination_error(self, monkeypatch):
        monkeypatch.setattr(engines, "SLOT_CAP_PER_PACKET", 2)
        with pytest.raises(NonTerminationError, match="6000 slots"):
            run_cri("bta", range(3000), 0.5, 0)  # about 2.9 slots per packet

    def test_cap_at_a_fractional_bound(self, monkeypatch):
        # Two packets at p = 0.3 may take 1 * 2 / 0.6 = 3.33 slots: a slot
        # count passes that bound exactly when it passes its floor, 3.
        monkeypatch.setattr(engines, "SLOT_CAP_PER_PACKET", 1)
        assert run_cri("sicta", [1, 2], 0.3, 1).length == 3
        with pytest.raises(NonTerminationError, match="exceeded 3 slots"):
            run_cri("sicta", [1, 2], 0.3, 0)  # needs a 4th slot

    def test_cap_scales_with_the_split_bias(self, monkeypatch):
        # An interval of two packets takes about 1/(2p) = 50 slots at
        # p = 0.01, over a cap of 2 * 10 slots at bias 1/2.
        monkeypatch.setattr(engines, "SLOT_CAP_PER_PACKET", 10)
        lengths = [run_cri("sicta", [1, 2], 0.01, seed).length for seed in range(20)]
        assert max(lengths) > 20 and sum(lengths) / len(lengths) > 20

    def test_cap_scales_with_packet_count(self, monkeypatch):
        monkeypatch.setattr(engines, "SLOT_CAP_PER_PACKET", 2)
        trace = run_cri("atic", range(3000), 0.5, 0)  # about 1.1 slots per packet
        assert 2 < trace.length <= 6000

    def test_rejects_a_coin_source_of_another_bias(self):
        # A source of bias 0.1 would split by 0.1 under a trace stamped 0.5,
        # and one of bias 1 would send every packet left until the slot cap.
        for protocol, ids, source in (("sicta", range(40), CoinSource(7, 0.1)),
                                      ("bta", range(3), CoinSource(1, 1.0))):
            with pytest.raises(ValueError, match=f"bias {source.p} differs .* 0.5"):
                run_cri(protocol, ids, 0.5, source)

    @pytest.mark.parametrize("call,error", [
        (lambda: run_cri("atic", [1, 2, 3], 0.5, 2.7), "seed must be an integer"),
        (lambda: run_cri("atic", [1, 2, 3], 0.5, True), "seed must be an integer"),
        (lambda: run_cri("atic", [1, 2, 3], 0.5, "7"), "seed must be an integer"),
        (lambda: CoinSource(2.5, 0.5), "seed must be an integer"),
        (lambda: derive_seed(2.9), "seed must be an integer"),
        (lambda: run_cri("atic", [1.5, 2.2, 3.9], 0.5, 7), "ids must be integers"),
        (lambda: run_cri("atic", ["3", "4"], 0.5, 7), "ids must be integers"),
        (lambda: run_cri("atic", [1.2, 1.7], 0.5, 7), "ids must be integers"),
        (lambda: run_cri("atic", [1, 2, 3], "0.5", 7), "split probability must be a real"),
        (lambda: simulate("atic", "gated", 0.3, 100, 1, p="0.5"),
         "split probability must be a real"),
        (lambda: CriLengthTable("0.5"), "split probability must be a real"),
        (lambda: asymptotic_throughput("0.5"), "split probability must be a real"),
        (lambda: CoinSource(1, "0.5"), "coin bias must be a real"),
        (lambda: CoinSource(1, True), "coin bias must be a real"),
    ], ids=["run_cri-float-seed", "run_cri-bool-seed", "run_cri-str-seed", "CoinSource-seed",
            "derive_seed", "float-ids", "str-ids", "float-ids-one-apart", "run_cri-bias",
            "simulate-bias", "CriLengthTable-bias", "asymptotic_throughput-bias",
            "CoinSource-str-bias", "CoinSource-bool-bias"])
    def test_inputs_are_checked_not_coerced(self, call, error):
        """A float, bool or string seed, id or bias is refused, never
        truncated or parsed."""
        with pytest.raises(ValueError, match=error):
            call()

    def test_numpy_inputs_run_as_python_ones(self):
        want = run_cri("atic", [1, 2, 3, 9], 0.5, 7, record=True)
        got = run_cri("atic", np.array([1, 2, 3, 9]), np.float64(0.5), np.int64(7), record=True)
        assert got == want and all(type(uid) is int for uid in got.initial)
        source = CoinSource(np.uint64(7), np.float32(0.5))
        assert (type(source.seed), type(source.p)) == (int, float)
        assert run_cri("atic", [1, 2, 3, 9], 0.5, source, record=True) == want
        assert derive_seed(np.int64(2), "coins") == derive_seed(2, "coins")

    def test_arbitration_needs_distinct_ids(self):
        assert arbitrate(3, 9) == 9
        with pytest.raises(ValueError):
            arbitrate(4, 4)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_rejects_repeated_ids(self, protocol):
        # Two packets of one id would collide, not succeed as one.
        for ids, repeat in (([5, 5], 5), ([9, 3, 7, 3], 3)):
            with pytest.raises(ValueError, match=f"got {repeat} more than once"):
                run_cri(protocol, ids, 0.5, 1)

    @given(st.sampled_from(PROTOCOLS), st.integers(0, 1 << 64),
           st.floats(2.0 ** -53, 1.0, exclude_max=True), st.integers(0, 1 << 64))
    def test_one_packet_trace_depends_on_neither_coins_nor_id(self, protocol, seed, p, uid):
        """One packet never splits, so the simulator folds one trace of id
        0 for every one-packet interval of a run."""
        trace = run_cri(protocol, [uid], p, seed)
        assert trace.initial == (uid,) and [pid for pid, _ in trace.decoded_order] == [uid]
        relabelled = dataclasses.replace(
            trace, p=HALF, initial=(0,), decoded_order=[(0, t) for _, t in trace.decoded_order])
        assert relabelled == run_cri(protocol, (0,), HALF, 0)

    @given(st.integers(0, 30), st.integers(0, 10_000), st.sampled_from(PROTOCOLS))
    @settings(max_examples=150)
    def test_conservation_and_no_double_decode(self, n, seed, protocol):
        trace = run_cri(protocol, range(n), 0.5, seed)
        decoded = [p for p, _ in trace.decoded_order]
        assert sorted(decoded) == list(range(n))
        assert len(set(decoded)) == n
        assert trace.length >= 1
        # decode slots are within the interval and weakly ordered
        slots = [s for _, s in trace.decoded_order]
        assert all(1 <= s <= trace.length for s in slots)
        assert slots == sorted(slots)

    @given(st.integers(0, 30), st.integers(0, 10_000), st.sampled_from(PROTOCOLS))
    @settings(max_examples=150)
    def test_slot_records_do_not_change_the_statistics(self, n, seed, protocol):
        recorded = run_cri(protocol, range(n), 0.5, seed, record=True)
        bare = run_cri(protocol, range(n), 0.5, seed)
        assert len(recorded.slots) == recorded.length
        assert bare.slots == [] and bare.nodes == []
        for name in ("length", "collisions", "successes", "skipped_slots",
                     "decoded_order", "k_values", "collision_degrees",
                     "z_success_slots", "memory_highwater"):
            assert getattr(recorded, name) == getattr(bare, name), name

    @given(st.integers(2, 24), st.integers(0, 5_000))
    @settings(max_examples=80)
    def test_slot_accounting_consistent(self, n, seed):
        trace = run_cri("sicta", range(n), 0.5, seed, record=True)
        assert trace.length == len(trace.slots)
        assert trace.collisions == sum(1 for s in trace.slots if s.kind == "collision")
        assert trace.successes == sum(1 for s in trace.slots if s.kind == "success")
        assert trace.idles == trace.length - trace.collisions - trace.successes
        assert len(trace.k_values) == len(
            [s for s in trace.slots if s.kind == "success"])


def _split_depths(trace):
    """Depths of the recorded groups that split in two."""
    depth, children = {}, {}
    for node in trace.nodes:
        depth[node.node_id] = 0 if node.parent is None else depth[node.parent] + 1
        children[node.parent] = children.get(node.parent, 0) + 1
    return [depth[node_id] for node_id, count in children.items()
            if node_id is not None and count == 2]


class TestCoinWords:
    """Intervals of at least ``_WORDS_MIN`` packets read their coins from
    coin words; every trace field must equal the one of the flip path."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_words_path_equals_flip_path(self, monkeypatch, protocol):
        deepest = 0
        for case, (p, n) in enumerate((p, n) for p in (0.02, 0.3, 0.7)
                                      for n in (8, 20, 60)):
            ids = list(range(1000 + 7 * case, 1000 + 7 * case + n))
            for coins in (31 + case, CoinSource(77 + case, p)):
                monkeypatch.setattr(rng, "_WORDS_MIN", 8)
                fast = run_cri(protocol, ids, p, coins, record=True)
                monkeypatch.setattr(rng, "_WORDS_MIN", n + 1)
                slow = run_cri(protocol, ids, p, coins, record=True)
                for f in dataclasses.fields(fast):
                    assert getattr(fast, f.name) == getattr(slow, f.name), (p, n, f.name)
                if p == 0.02:
                    deepest = max(deepest, max(_split_depths(fast)))
        # Splits below the words' depths fall back to flip.
        assert deepest >= rng._WORD_DEPTHS

    def test_keyed_splits_equal_flipped_splits(self):
        """Random intervals split by the trie keys of an integer seed give
        the trace of a source that flips every coin: its script holds only
        a key no member has."""
        rnd = np.random.default_rng(4601)
        deepest = 0
        for case in range(600):
            protocol = PROTOCOLS[case % len(PROTOCOLS)]
            n = int(rnd.choice([rnd.integers(_WORDS_MIN, 40), rnd.integers(2, 301)]))
            p = float(rnd.choice([0.5, 0.3, 0.7, 0.123]))
            ids = rnd.choice(1 << 40, size=n, replace=False).tolist()
            seed = int(rnd.integers(1 << 63))
            record = case % 5 == 0
            keyed = run_cri(protocol, ids, p, seed, record=record)
            flipped = run_cri(protocol, ids, p, CoinSource(seed, p, {(-1, 0): True}),
                              record=record)
            for f in dataclasses.fields(keyed):
                assert getattr(keyed, f.name) == getattr(flipped, f.name), (case, f.name)
            if record:
                deepest = max(deepest, max(_split_depths(keyed)))
        assert deepest >= rng._WORD_DEPTHS

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_prepared_ties_past_the_key_depths_equal_flipped_splits(self, p):
        """A window of a prepared block whose pair ties on every key bit the
        block's pass hashed gives the trace of a source that flips every
        coin; a protocol that splits pairs splits that one by flips past
        the keys' depths.
        Blocks are 64 windows of Poisson(12) users, as windowed:40 at rate
        0.3 draws them; the first blocks that hold such ties are searched
        for here."""
        base = rng.derive_seed(4602, "coins")
        rnd = np.random.default_rng(4602)
        ties = 0
        for block in range(400):
            sizes = rnd.poisson(12, size=64).tolist()
            starts = np.cumsum([0] + sizes).tolist()
            groups = [(rng.stream_seed(base, 64 * block + j), list(range(a, a + n)))
                      for j, (a, n) in enumerate(zip(starts, sizes))]
            for (seed, ids), source in zip(groups, prepared_sources(groups, p)):
                if source is None:
                    continue
                _, _, keys, depths = source._keyed
                assert depths == rng._key_depths(max(sizes), p)
                if len(set(keys)) == len(keys):
                    continue
                ties += 1
                flipper = CoinSource(seed, p, {(-1, 0): True})
                for protocol in PROTOCOLS:
                    keyed = run_cri(protocol, ids, p, source, record=True)
                    assert keyed == run_cri(protocol, ids, p, flipper, record=True), seed
                    if not engines.RULES[protocol].z_on_collision:  # pairs split
                        assert max(_split_depths(keyed)) >= depths
            if ties >= 3:
                break
        assert ties >= 3

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_prepared_source_serves_any_interval(self, protocol):
        """A prepared source gives the trace of its int seed for the
        interval it was prepared for, for intervals its words do not
        cover, and when reused for other ids."""
        seed, p = 77, 0.3
        ids = list(range(1000, 1012))
        (source,) = prepared_sources([(seed, ids)], p)
        for members in (ids, ids + [5000], list(range(2000, 2020)), ids[:4], ids):
            assert (run_cri(protocol, members, p, source, record=True)
                    == run_cri(protocol, members, p, seed, record=True)), members


def _pinned_cases():
    """300 fixed random intervals, each run under all five protocols."""
    rng = np.random.default_rng(20261018)
    for case in range(300):
        n = int(rng.integers(0, 61))
        ids = rng.choice(1000, size=n, replace=False).tolist()
        p = (0.3, 0.5, 0.7)[int(rng.integers(0, 3))]
        seed = int(rng.integers(0, 1 << 63))
        for protocol in PROTOCOLS:
            # Alternate an int seed with a prepared coin source.
            coins = seed if case % 2 else CoinSource(seed, p)
            yield protocol, ids, p, coins


# sha256 over the repr of every CriTrace field, slots and tree included,
# of the 1,500 intervals of _pinned_cases, each slot hashed as its plain
# tuple; recorded before slot feedback became one flat record (the old
# records projected to that tuple) and re-recorded, with nothing else
# changed, when the protocol field became its ``RULES`` name, so any
# change to coins, rules or accounting shows up here.
PINNED_TRACES = "2d16d5a5ab87824dda681069cf233ab032570b9cce741391a1a626fa829c5a72"


def _wide_pinned_cases():
    """120 fixed random intervals of up to 300 ids below 2^40, each run
    under all five protocols.  The coins cycle through an int seed, a
    prepared source and a scripted source.  The script fixes the first 40
    coins of one id, or of two in every fifth interval, which then stay
    together past the words' depths; p = 0.123 keeps larger groups
    together that deep too."""
    rng = np.random.default_rng(20261019)
    for case in range(120):
        n = int(rng.integers(0, 301))
        ids = [int(x) for x in rng.choice(1 << 40, size=n, replace=False)]
        p = (0.123, 0.5, 0.7)[int(rng.integers(0, 3))]
        seed = int(rng.integers(0, 1 << 63))
        if case % 3 == 0:
            coins = seed
        elif case % 3 == 1:
            (source,) = prepared_sources([(seed, ids)], p)
            coins = source or seed
        else:
            twins = ids[:2] if case % 5 == 2 else ids[:1]
            coins = CoinSource(seed, p, {(uid, d): d % 3 == 0
                                         for uid in twins for d in range(40)})
        for protocol in PROTOCOLS:
            yield protocol, ids, p, coins


# The same digest over the 600 intervals of _wide_pinned_cases, recorded
# while the engine kept each group as a list of ids and the decoded
# packets as a set, and re-recorded as above.
PINNED_WIDE_TRACES = "dc4af1674c7623b18d894786da02c962d044a02ceca86f120fa6a8a0838c517e"


class TestTracePinned:
    def test_traces_pinned(self):
        digest = hashlib.sha256()
        for protocol, ids, p, coins in _pinned_cases():
            trace = run_cri(protocol, ids, p, coins, record=True)
            fields = [(f.name, [tuple(rec) for rec in trace.slots] if f.name == "slots"
                       else getattr(trace, f.name)) for f in dataclasses.fields(trace)]
            digest.update(repr(fields).encode())
        assert digest.hexdigest() == PINNED_TRACES

    def test_wide_traces_pinned(self):
        digest = hashlib.sha256()
        deepest = 0
        for protocol, ids, p, coins in _wide_pinned_cases():
            trace = run_cri(protocol, ids, p, coins, record=True)
            fields = [(f.name, [tuple(rec) for rec in trace.slots] if f.name == "slots"
                       else getattr(trace, f.name)) for f in dataclasses.fields(trace)]
            digest.update(repr(fields).encode())
            deepest = max([deepest] + _split_depths(trace))
        assert deepest > rng._WORD_DEPTHS
        assert digest.hexdigest() == PINNED_WIDE_TRACES
