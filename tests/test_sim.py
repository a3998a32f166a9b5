"""Tests for the traffic-level simulator and its report statistics."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import treesplit.sim as sim
from treesplit.engines import ProtocolKind, run_cri
from treesplit.rng import CoinSource, StreamCursor, _GeneratorDraws, derive_seed, stream_seed
from treesplit.sim import (
    EmptySampleError,
    MetricsReport,
    ProtocolError,
    collisions_per_cri_cdf,
    delay_stats,
    feedback_cost,
    feedback_value_histogram,
    simulate,
)


@pytest.fixture(scope="module")
def atic_mid_load():
    return simulate("atic", "gated", 0.5, 20000, 42)


@pytest.fixture(scope="module")
def sicta_near_mst():
    return simulate("sicta", "gated", 0.693, 150000, 11)


class TestReportInvariants:
    def test_deterministic_for_fixed_seed(self, atic_mid_load):
        again = simulate("atic", "gated", 0.5, 20000, 42)
        assert again.to_dict() == atic_mid_load.to_dict()

    def test_different_seed_differs(self, atic_mid_load):
        other = simulate("atic", "gated", 0.5, 20000, 43)
        assert other.to_dict() != atic_mid_load.to_dict()

    def test_packet_conservation(self, atic_mid_load):
        r = atic_mid_load
        assert r.arrivals_total == r.packets_decoded + r.terminal_backlog

    def test_one_delay_sample_per_decode(self, atic_mid_load):
        r = atic_mid_load
        assert len(r.delay_samples) == r.packets_decoded
        assert all(d >= 0 for d in r.delay_samples)

    def test_histogram_masses(self, atic_mid_load):
        r = atic_mid_load
        assert sum(r.collision_degree_hist.values()) == r.collision_slots
        assert sum(r.feedback_k_hist.values()) == r.success_slots
        assert all(d >= 2 for d in r.collision_degree_hist)

    def test_slot_partition(self, atic_mid_load):
        r = atic_mid_load
        assert r.idle_slots + r.success_slots + r.collision_slots == r.slots_simulated
        assert r.slots_simulated >= 20000

    def test_per_cri_lists_align(self, atic_mid_load):
        r = atic_mid_load
        assert len(r.collisions_per_cri) == r.cri_count
        assert len(r.decoded_per_cri) == r.cri_count
        assert sum(r.decoded_per_cri) == r.packets_decoded

    def test_throughput_definition(self, atic_mid_load):
        r = atic_mid_load
        assert r.throughput == pytest.approx(
            r.packets_decoded / r.slots_simulated)


class TestValidation:
    def test_zero_rate_runs_idle(self):
        r = simulate("bta", "gated", 0.0, 500, 1)
        assert r.slots_simulated == 500
        assert r.idle_slots == 500
        assert r.throughput == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            simulate("bta", "gated", -0.1, 100, 1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            simulate("atic", "gated", rate, 100, 1)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate("bta", "gated", 0.3, 0, 1)

    @pytest.mark.parametrize("bits", [0, -5])
    def test_packet_bits_must_be_positive(self, bits):
        with pytest.raises(ValueError):
            simulate("atic", "gated", 0.5, 2000, 1, packet_bits=bits)

    def test_policy_coercion_from_string(self):
        assert simulate("atic", "gated", 0.4, 5000, 9).policy == "gated"
        w = simulate("atic", "windowed:8", 0.4, 5000, 9)
        assert w.policy == "windowed:8"
        assert simulate("atic", "windowed:8.0", 0.4, 5000, 9).to_dict() == w.to_dict()

    def test_window_length_validated(self):
        with pytest.raises(ValueError):
            simulate("atic", "windowed:0", 0.4, 100, 1)
        for text in ("windowed:nan", "windowed:inf"):
            with pytest.raises(ValueError):
                simulate("atic", text, 0.4, 100, 1)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            simulate("aloha", "gated", 0.4, 100, 1)

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_split_probability_validated(self, p):
        # At rate 0 no interval reaches the engine, so simulate checks p itself.
        with pytest.raises(ValueError):
            simulate("atic", "gated", 0.0, 200, 1, p=p)


class TestDelayStatistics:
    def test_mid_load_anchor(self):
        r = simulate("atic", "gated", 0.5, 150000, 7)
        st = delay_stats(r)
        assert 0.80 <= st.mean <= 1.05
        assert set(st.percentiles) == {50, 90, 95, 99}
        assert st.variance >= 0.0

    def test_percentiles_monotone(self, atic_mid_load):
        st = delay_stats(atic_mid_load)
        p = st.percentiles
        assert p[50] <= p[90] <= p[95] <= p[99]

    def test_empty_sample_error(self):
        r = simulate("bta", "gated", 0.0, 50, 1)
        with pytest.raises(EmptySampleError):
            delay_stats(r)

    def test_delay_grows_with_load(self):
        low = delay_stats(simulate("sicta", "gated", 0.2, 60000, 5)).mean
        high = delay_stats(simulate("sicta", "gated", 0.6, 60000, 5)).mean
        assert high > low


class TestDistributions:
    def test_feedback_histogram_normalized(self, sicta_near_mst):
        hist = feedback_value_histogram(sicta_near_mst)
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-12)
        assert hist[1] > 0.2  # plain successes dominate alongside k=2

    def test_feedback_histogram_needs_sic(self):
        r = simulate("bta", "gated", 0.3, 5000, 2)
        with pytest.raises(ProtocolError):
            feedback_value_histogram(r)

    def test_collision_cdf_monotone_and_complete(self, sicta_near_mst):
        cdf = collisions_per_cri_cdf(sicta_near_mst)
        values = [cdf.at(x) for x in cdf.support]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)
        assert cdf.at(max(cdf.support) + 10) == pytest.approx(1.0)
        assert cdf.at(-1) == 0.0

    def test_degree_two_dominates_collisions(self, sicta_near_mst):
        hist = sicta_near_mst.collision_degree_hist
        assert hist[2] == max(hist.values())


class TestStabilityFlag:
    def test_moderate_load_is_stable(self, atic_mid_load):
        assert not atic_mid_load.unstable

    def test_saturated_run_is_flagged(self):
        r = simulate("sicta", "gated", 2.0, 60000, 5)
        assert r.unstable
        assert r.terminal_backlog > 1000

    def test_supercritical_atic_flagged(self):
        r = simulate("atic", "gated", 0.95, 250000, 3)
        assert r.unstable

    def test_subcritical_atic_unflagged(self):
        r = simulate("atic", "gated", 0.90, 250000, 3)
        assert not r.unstable


class TestFeedbackCost:
    def test_two_state_protocols_cost_two_bits(self):
        r = simulate("bta", "gated", 0.3, 4000, 2)
        fc = feedback_cost(r)
        assert fc.mean_bits == 2.0 and fc.max_bits == 2

    def test_counter_protocol_uses_small_words(self, sicta_near_mst):
        fc = feedback_cost(sicta_near_mst)
        assert fc.max_bits == 4
        assert set(fc.histogram) == {4}

    def test_broadcast_protocol_pays_packet_bits(self):
        r = simulate("atic", "gated", 0.5, 20000, 42)
        fc = feedback_cost(r)
        assert fc.max_bits == 258
        assert 2 in fc.histogram and 258 in fc.histogram
        assert 2.0 < fc.mean_bits < 258.0

    def test_cost_reads_the_report_histogram(self):
        r = simulate("atic", "gated", 0.5, 2000, 1, packet_bits=64)
        fc = feedback_cost(r)
        assert fc.histogram == r.feedback_bits
        assert fc.max_bits == 66


class TestWindowedAccess:
    def test_conservation_with_end_sweep(self):
        r = simulate("atic", "windowed:16", 0.6, 40000, 21)
        assert r.arrivals_total == r.packets_decoded + r.terminal_backlog

    @pytest.mark.parametrize("rate,unstable", [(0.97, True), (0.90, False)])
    def test_backlog_drift_flags_overload(self, rate, unstable):
        """Closed windows still waiting for service are backlog, so a rate
        above the windowed capacity (about 0.924 at delta 16) drifts."""
        r = simulate("atic", "windowed:16", rate, 100_000, 3)
        assert r.unstable is unstable

    def test_budget_reached_and_stable(self):
        r = simulate("atic", "windowed:16", 0.6, 40000, 21)
        assert r.slots_simulated >= 40000
        assert not r.unstable

    def test_saturation_cannot_beat_gated(self):
        gated = simulate("atic", "gated", 2.0, 80000, 23)
        windowed = simulate("atic", "windowed:50", 2.0, 80000, 23)
        assert windowed.throughput <= gated.throughput + 0.01

    def test_describe_tags(self):
        assert simulate("atic", "gated", 0.3, 10, 1).policy == "gated"
        assert simulate("atic", "windowed:5.0", 0.3, 10, 1).policy == "windowed:5"
        assert simulate("atic", "windowed:2.5", 0.3, 10, 1).policy == "windowed:2.5"


class TestSaturatedStatistics:
    def test_collision_work_ratios(self):
        targets = {"atic": 3 / (8 * math.log(2)), "sicta": 1 / (2 * math.log(2))}
        for proto, want in targets.items():
            r = simulate(proto, "gated", 2.0, 120000, 5)
            big = [(c, n) for c, n in zip(r.collisions_per_cri, r.decoded_per_cri)
                   if n >= 1000]
            assert big, "saturated run should produce large intervals"
            ratio = sum(c for c, _ in big) / sum(n for _, n in big)
            assert ratio == pytest.approx(want, abs=0.02)

    def test_left_variant_saturation_throughput(self):
        r = simulate("atic_left", "gated", 2.0, 120000, 9)
        assert r.throughput == pytest.approx(6 * math.log(2) / 5, abs=0.01)


# sha256 of the JSON of simulate(protocol, policy, 0.3, 4000, 2024).to_dict(),
# recorded when every interval built its own np.random.default_rng, so they
# check that the reseeded arrival streams reproduce those draws; any change
# to arrival draws, split coins or accounting shows up here.
PINNED_REPORTS = {
    ("bta", "gated"): "32426fe8c18edf5ad196b8e800f6f13ae4bcb2538947b22cf9615a62e885c073",
    ("mta", "gated"): "015d18d3de33fd5b25aa16ba643aca40f2967ed0e337f03693fb75b0edcbc342",
    ("sicta", "gated"): "f9ecd5991f264429f662e9723aefd390bf9106ecedeb4a933329f66a632ff896",
    ("atic", "gated"): "63a172c97cc3f91a27d1bd12edc6e4ec7752d812a15f050d62c0d5fa16f1f488",
    ("atic_left", "gated"): "4c4fdb498fe7043393ecf5501c87847c3fcdc72f8a5e2733c7dc6497c2910611",
    ("bta", "windowed:40"): "a04bed85557e76b0b688e94733785a844ac9416e2e0473ee5695611a87d81667",
    ("mta", "windowed:40"): "1a1f94fa98889f98e2a82aff3fd89a58548432aaaa945edf7b35f42ed33f9f4a",
    ("sicta", "windowed:40"): "189c954643f45f55ee0eb43769f2d96e5fca49fe51c77e800cbc2df24a5bfaea",
    ("atic", "windowed:40"): "0c824e696654a0a9ffd4fce7b9ed3f4045f89127ce0f16dacf1d2f4dabbbfa2d",
    ("atic_left", "windowed:40"): "8a389fd2b52f514269b7a603945946b690662a7b2f75aac34b8491014a7a6c7b",
}


@pytest.mark.parametrize("protocol,policy", sorted(PINNED_REPORTS))
def test_report_pinned(protocol, policy):
    report = simulate(protocol, policy, 0.3, 4000, 2024)
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[protocol, policy]


# Coin flips of simulate(protocol, policy, 0.3, 4000, 2024), counted at
# CoinSource.flip before the engine's loop was flattened.
PINNED_FLIPS = {("atic", "gated"): 118, ("sicta", "windowed:40"): 6095}


@pytest.mark.parametrize("protocol,policy", sorted(PINNED_FLIPS))
def test_layer_call_counts(monkeypatch, protocol, policy):
    """The simulator calls ``sim.run_cri`` once per non-empty interval (an
    empty one it folds itself) and the engine calls ``CoinSource.flip``
    once per coin, so wrappers patched onto those names (as the
    benchmark's tracer does) count every engine call and flip."""
    counts = {"run_cri": 0, "flip": 0}
    run_cri, flip = sim.run_cri, CoinSource.flip

    def counted_run_cri(*args, **kwargs):
        counts["run_cri"] += 1
        return run_cri(*args, **kwargs)

    def counted_flip(self, uid, depth):
        counts["flip"] += 1
        return flip(self, uid, depth)

    monkeypatch.setattr(sim, "run_cri", counted_run_cri)
    monkeypatch.setattr(CoinSource, "flip", counted_flip)
    report = simulate(protocol, policy, 0.3, 4000, 2024)
    assert counts["run_cri"] == sum(1 for n in report.decoded_per_cri if n) > 0
    assert counts["flip"] == PINNED_FLIPS[protocol, policy]


@pytest.mark.parametrize("protocol", [kind.value for kind in ProtocolKind])
def test_empty_interval_folds_as_the_engine_resolves_it(protocol):
    """The simulator's own fold of an empty batch equals the fold of the
    engine's trace of that batch."""
    batch = sim._Batch(range(7, 7), [])
    start, p, coins_base = 31, 0.5, derive_seed(4, "coins")
    folded = MetricsReport(protocol, "gated", 0.1, 100, 4, cri_count=3)
    served = MetricsReport(protocol, "gated", 0.1, 100, 4, cri_count=3)
    trace = run_cri(protocol, (), p, stream_seed(coins_base, 3))
    assert sim._fold_trace(folded, trace, batch, start) == start
    assert sim._serve_batch(served, ProtocolKind(protocol), p, coins_base,
                            batch, start) == start
    assert served.to_dict() == folded.to_dict()


def _stream_draws(base, index):
    """Both kinds of draws ``ArrivalStreams.draw_count`` hands out, each at
    the start of stream ``index``: a Python cursor and numpy's own."""
    ref = np.random.default_rng(stream_seed(base, index))
    state = ref.bit_generator.state["state"]
    return StreamCursor(state["state"], state["inc"]), _GeneratorDraws(ref)


# Few packets, as in most intervals, and a few hundred, as in overloaded ones.
COUNTS = st.one_of(st.integers(0, 3), st.integers(100, 900))


@given(st.integers(0, 1 << 40), st.integers(0, 10**7), st.integers(1, 5000), COUNTS)
@example(0, 0, 1, 0)
@example(3, 41, 1, 1)
@example(9, 7, 2, 300)
def test_slot_arrivals_match_sorted_draws(index, span_start, span_len, count):
    base = derive_seed(17, "arrivals")
    rng = np.random.default_rng(stream_seed(base, index))
    drawn = np.sort(rng.integers(span_start, span_start + span_len, size=count))
    expected = [int(g) + 1 for g in drawn]
    for draws in _stream_draws(base, index):
        slots = sim._slot_arrivals(draws, span_start, span_len, count)
        assert slots == expected
        assert all(type(slot) is int for slot in slots)


@given(st.integers(0, 1 << 40), st.integers(0, 10**5),
       st.floats(0.25, 200.0, allow_nan=False), COUNTS)
@example(0, 0, 40.0, 0)
@example(3, 5, 40.0, 1)
@example(9, 12, 0.25, 300)
def test_instant_arrivals_match_sorted_draws(index, window, delta, count):
    base = derive_seed(17, "arrivals")
    lo, hi = window * delta, (window + 1) * delta
    rng = np.random.default_rng(stream_seed(base, index))
    drawn = np.sort(rng.uniform(lo, hi, size=count))
    expected = [math.ceil(float(u) + 1.0 - 1e-9) for u in drawn]
    for draws in _stream_draws(base, index):
        assert sim._instant_arrivals(draws, lo, hi, count) == expected
