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
from treesplit.analytics import CollisionCountTable, CriLengthTable
from treesplit.engines import NonTerminationError, arbitrate, export_tree, run_cri
from treesplit.rng import CoinSource

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
    """Independent oracle for one decode: cancel everything resolved from
    every stored remainder until none holds exactly one packet.  Returns
    the resolved set and the non-empty remainders left."""
    resolved = {pid}
    changed = True
    while changed:
        changed = False
        for _, rem in memory:
            left = rem - resolved
            if len(left) == 1:
                resolved |= left
                changed = True
    return resolved, [(slot, rem - resolved) for slot, rem in memory if rem - resolved]


# What each protocol's feedback broadcasts, written out apart from the
# engine's rule table: (received collisions, freshest remainder on successes).
BROADCASTS = {"bta": (False, False), "mta": (False, False), "sicta": (False, False),
              "atic": (True, True), "atic_left": (True, False)}


class TestFeedbackReplay:
    @given(st.integers(0, 30), st.integers(0, 10_000), st.sampled_from(PROTOCOLS),
           st.sampled_from([0.3, 0.5, 0.7]))
    @settings(max_examples=300)
    def test_recorded_feedback_matches_replay(self, n, seed, protocol, p):
        """Replay every recorded slot against a set fixpoint of the stored
        collisions.  Each success decodes what the fixpoint resolves, the
        memory size counts its remainders, and ``z`` is what the protocol
        broadcasts.  Users who see a pair broadcast arbitrate it by id: the
        next slot holds the higher id alone, and every arbitration in the
        tree (a node with one child) comes right after a broadcast of its
        parent's members."""
        z_on_collision, z_on_success = BROADCASTS[protocol]
        trace = run_cri(protocol, range(n), p, seed, record=True)
        decoded_in: dict = {}
        for pid, slot in trace.decoded_order:
            decoded_in.setdefault(slot, []).append(pid)
        memory: list = []
        for rec, nxt in zip(trace.slots, trace.slots[1:] + [None]):
            z: set = set()
            if rec.kind == "collision":
                assert len(rec.transmitters) >= 2
                if protocol in SIC_PROTOCOLS:
                    memory.append((rec.index, set(rec.transmitters)))
                if z_on_collision:
                    z = set(rec.transmitters)
            elif rec.kind == "success":
                assert len(rec.transmitters) == 1
                pid = rec.transmitters[0]
                resolved, memory = cancel_to_fixpoint(memory, pid)
                decoded = decoded_in.pop(rec.index)
                assert decoded[0] == pid and set(decoded) == resolved
                assert len(decoded) == len(resolved)
                if z_on_success and memory:
                    z = memory[-1][1]
            else:
                assert rec.kind == "idle" and rec.transmitters == ()
            assert rec.memory_size == len(memory)
            assert rec.z == tuple(sorted(z))
            if len(z) == 2:
                assert nxt is not None and nxt.transmitters == (max(z),)
        assert decoded_in == {} and memory == []

        children: dict = {}
        for node in trace.nodes[1:]:
            children.setdefault(node.parent, []).append(node)
        for parent, kids in children.items():
            if len(kids) == 1:
                slot = kids[0].slot
                assert slot is not None and slot >= 2
                assert trace.slots[slot - 2].z == trace.nodes[parent].members


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

    def test_cap_triggers_nontermination_error(self, monkeypatch):
        monkeypatch.setattr(engines, "SLOT_CAP_PER_PACKET", 2)
        with pytest.raises(NonTerminationError, match="6000 slots"):
            run_cri("bta", range(3000), 0.5, 0)  # about 2.9 slots per packet

    def test_cap_scales_with_packet_count(self, monkeypatch):
        monkeypatch.setattr(engines, "SLOT_CAP_PER_PACKET", 2)
        trace = run_cri("atic", range(3000), 0.5, 0)  # about 1.1 slots per packet
        assert 2 < trace.length <= 6000

    def test_arbitration_needs_distinct_ids(self):
        assert arbitrate(3, 9) == 9
        with pytest.raises(ValueError):
            arbitrate(4, 4)

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
# records projected to that tuple), so any change to coins, rules or
# accounting shows up here.
PINNED_TRACES = "2dd70909597be3cbd096eda947ee540dd5cf9b879767bdb82ca2b3bede51f0f4"


class TestTracePinned:
    def test_traces_pinned(self):
        digest = hashlib.sha256()
        for protocol, ids, p, coins in _pinned_cases():
            trace = run_cri(protocol, ids, p, coins, record=True)
            fields = [(f.name, [tuple(rec) for rec in trace.slots] if f.name == "slots"
                       else getattr(trace, f.name)) for f in dataclasses.fields(trace)]
            digest.update(repr(fields).encode())
        assert digest.hexdigest() == PINNED_TRACES
