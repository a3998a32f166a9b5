"""Tests for the traffic-level simulator and its report statistics."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import treesplit.rng as rng
import treesplit.sim as sim
from treesplit.analytics import CriLengthTable, poisson_expected_cri
from treesplit.engines import RULES, run_cri
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

    def test_budget_and_seed_must_be_integers(self):
        """A float, bool or string budget or seed is refused, not truncated;
        numpy integers run as Python ones."""
        for policy in ("windowed:40", "gated"):
            for kwargs in ({"budget": 2.5}, {"budget": True}, {"budget": "3"},
                           {"seed": 1.9}, {"seed": True}):
                args = {"budget": 100, "seed": 1, **kwargs}
                with pytest.raises(ValueError, match=next(iter(kwargs))):
                    simulate("atic", policy, 0.3, args["budget"], args["seed"])
        want = simulate("atic", "gated", 0.3, 100, 1).to_dict()
        assert simulate("atic", "gated", 0.3, np.int64(100), np.int64(1)).to_dict() == want

    def test_rate_and_packet_bits_are_checked_not_coerced(self):
        """A float, bool or string packet size and a bool, string or missing
        rate are refused, not converted; numpy numbers run as Python ones."""
        for policy in ("gated", "windowed:40"):
            for kwargs in ({"packet_bits": 2.5}, {"packet_bits": True}, {"packet_bits": "256"},
                           {"rate": True}, {"rate": "0.3"}, {"rate": None}):
                args = {"rate": 0.3, "packet_bits": 256, **kwargs}
                with pytest.raises(ValueError, match=next(iter(kwargs))):
                    simulate("atic", policy, args["rate"], 100, 1,
                             packet_bits=args["packet_bits"])
            want = simulate("atic", policy, 0.3, 100, 1, packet_bits=64).to_dict()
            got = simulate("atic", policy, np.float64(0.3), 100, 1, packet_bits=np.int64(64))
            assert got.to_dict() == want

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
        # Every interval takes a slot, so windows under a slot queue forever.
        with pytest.raises(ValueError):
            simulate("atic", "windowed:0.5", 0.1, 100, 1)
        assert simulate("atic", "windowed:1", 0.1, 100, 1).slots_simulated >= 100
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

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=400))
    @example([7])
    @example([3, 3, 3, 3, 3])
    def test_percentiles_equal_one_call_per_level(self, samples):
        """The four percentiles, taken in one call, equal those taken one
        call per level, ties and a single sample included."""
        report = MetricsReport("atic", "gated", 0.5, 1, 0, delay_samples=samples)
        arr = np.asarray(samples, dtype=float)
        want = {q: float(np.percentile(arr, q)) for q in (50, 90, 95, 99)}
        assert delay_stats(report).percentiles == want

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

    def test_feedback_histogram_empty_without_successes(self):
        assert feedback_value_histogram(simulate("sicta", "gated", 0.0, 500, 2)) == {}

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

    @pytest.mark.parametrize("delta", [16, 40])
    @pytest.mark.parametrize("protocol", list(RULES))
    def test_windowed_verdict_brackets_the_exact_boundary(self, protocol, delta):
        """Windows of delta slots are stable below the rate lam* at which the
        mean interval length of a Poisson(lam* delta) batch, read off the
        protocol's length table, is delta: a run at 0.9 lam* is unflagged
        and one at 1.1 lam* is flagged."""
        table = CriLengthTable(0.5, protocol)
        lo, hi = 0.0, 2.0
        for _ in range(50):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if poisson_expected_cri(mid * delta, table) < delta else (lo, mid)
        policy, seed = f"windowed:{delta}", derive_seed(5100, protocol, delta)
        assert not simulate(protocol, policy, 0.9 * lo, 100_000, seed).unstable
        assert simulate(protocol, policy, 1.1 * lo, 100_000, seed + 1).unstable


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

    def test_windowed_interval_can_start_past_the_budget(self):
        """A windowed run keeps serving while its consumed slots are below
        the budget: with budget 1 it idles through slot 40, until the first
        window closes, and serves that window's interval from slot 41."""
        r = simulate("atic", "windowed:40", 0.3, 1, 1)
        assert r.slots_simulated == 52
        assert r.cri_count == 1

    @pytest.mark.parametrize("protocol,delta,rate,budget,seed", [
        ("atic", 16, 0.9, 40_000, 4401),     # stable, backlog left at the end
        ("atic", 16, 1.2, 20_000, 4402),     # unstable: the backlog grows
        ("sicta", 2.5, 0.3, 3000, 4403),
        ("bta", 39.5, 0.3, 3000, 4404),
        ("mta", 1, 0.2, 3000, 4405),
        ("atic_left", 40, 0.3, 1, 4406),     # budget 1: one interval past the budget
        ("atic", 7.5, 0.0, 500, 4407),       # rate 0: idle windows only
    ])
    def test_arrivals_match_an_independent_count(self, protocol, delta, rate, budget, seed):
        """Window j's batch is stream j's Poisson count of mean
        ``rate * delta``, drawn here apart from the run.  The run serves
        windows 0.. in order, one an interval, and its arrivals are the
        packets of the windows it served or that closed by its last slot."""
        r = simulate(protocol, f"windowed:{delta}", rate, budget, seed)
        streams = rng.ArrivalStreams(derive_seed(seed, "arrivals"))
        horizon = max(r.cri_count, math.floor(r.slots_simulated / delta) + 1)
        counts = [streams.draw_count(j, rate * delta)[0] for j in range(horizon)]
        closed = [j for j in range(horizon)
                  if j < r.cri_count or (j + 1) * delta <= r.slots_simulated]
        assert r.decoded_per_cri == counts[:r.cri_count]
        assert r.arrivals_total == sum(counts[j] for j in closed)
        assert r.terminal_backlog == r.arrivals_total - r.packets_decoded
        assert r.idle_slots + r.success_slots + r.collision_slots == r.slots_simulated
        assert len(r.delay_samples) == r.packets_decoded
        assert all(d >= 0 for d in r.delay_samples)
        if rate > 0.5:
            assert r.terminal_backlog > 0

    def test_saturation_cannot_beat_gated(self):
        gated = simulate("atic", "gated", 2.0, 80000, 23)
        windowed = simulate("atic", "windowed:50", 2.0, 80000, 23)
        assert windowed.throughput <= gated.throughput + 0.01

    @pytest.mark.parametrize("protocol", list(RULES))
    def test_reports_do_not_depend_on_the_lookahead(self, monkeypatch, protocol):
        """Windows drawn ahead in blocks, with their coin words computed
        per block, give the reports of windows drawn one at a time."""
        runs = [(delta, rate, budget)
                for delta in (1, 2.5, 7.5, 40, 1000)
                for rate in (0.02, 0.3)
                for budget in sorted({1, max(1, math.ceil(delta) - 1), 2999})]
        runs.append((16, 1.2, 2999))  # unstable: the backlog grows
        default = [simulate(protocol, f"windowed:{d}", r, b, 31).to_dict()
                   for d, r, b in runs]
        monkeypatch.setattr(sim, "_WINDOW_BLOCK", 1)
        for (d, r, b), want in zip(runs, default):
            assert simulate(protocol, f"windowed:{d}", r, b, 31).to_dict() == want, (d, r, b)

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


# Coins of simulate(protocol, policy, 0.3, 4000, 2024), counted at
# CoinSource.flip (scalar flips) and rng.coin_words (one row per member of
# an interval of at least rng._WORDS_MIN packets, whether the engine's
# CoinSource.trie or the windowed run's block pass asked for it).  The
# gated run's intervals all lie below that size, so it keeps the 118 flips
# counted before the engine's loop was flattened; under windowed:40, the
# 6,095 flips of the flip-only engine became 238 flips and 1,168 word rows.
# That run serves exactly the 100 windows that close by its budget, so the
# block pass computes no row the engine does not read.
PINNED_COINS = {("atic", "gated"): (118, 0), ("sicta", "windowed:40"): (238, 1168)}


@pytest.mark.parametrize("protocol,policy", sorted(PINNED_COINS))
def test_layer_call_counts(monkeypatch, protocol, policy):
    """The simulator calls ``sim.run_cri`` once per interval of two or more
    packets, plus once per run for the trace every one-packet interval
    folds (an empty one it folds itself), the engine flips through
    ``CoinSource.flip``, and every coin word comes from ``rng.coin_words``,
    so wrappers patched onto those names (as the benchmark's tracer does
    for run_cri and flip) count every engine call, flip and word row."""
    counts = {"run_cri": 0, "flip": 0, "rows": 0}
    run_cri, flip, words = sim.run_cri, CoinSource.flip, rng.coin_words

    def counted_run_cri(*args, **kwargs):
        counts["run_cri"] += 1
        return run_cri(*args, **kwargs)

    def counted_flip(self, uid, depth):
        counts["flip"] += 1
        return flip(self, uid, depth)

    def counted_words(groups, p):
        out = words(groups, p)
        counts["rows"] += sum(len(order) for order, _, _ in out)
        return out

    monkeypatch.setattr(sim, "run_cri", counted_run_cri)
    monkeypatch.setattr(CoinSource, "flip", counted_flip)
    monkeypatch.setattr(rng, "coin_words", counted_words)
    report = simulate(protocol, policy, 0.3, 4000, 2024)
    assert counts["run_cri"] == 1 + sum(1 for n in report.decoded_per_cri if n >= 2) > 1
    assert (counts["flip"], counts["rows"]) == PINNED_COINS[protocol, policy]


def test_windowed_words_come_in_one_pass_per_block(monkeypatch):
    """The 100 windows that close by the budget of the pinned windowed:40
    run take their coin words from one pass per block of windows; no
    interval computes its own."""
    passes = []
    words = rng.coin_words

    def counted_words(groups, p):
        passes.append(len(groups))
        return words(groups, p)

    monkeypatch.setattr(rng, "coin_words", counted_words)
    simulate("sicta", "windowed:40", 0.3, 4000, 2024)
    assert len(passes) == math.ceil(100 / sim._WINDOW_BLOCK)


def test_windowed_coins_are_prepared_at_service(monkeypatch):
    """An overloaded windowed run prepares the coin words of the windows
    it serves and of at most one block after them, however many closed
    windows wait in its backlog."""
    rows = []
    words = rng.coin_words

    def counted_words(groups, p):
        out = words(groups, p)
        rows.append(sum(len(order) for order, _, _ in out))
        return out

    monkeypatch.setattr(rng, "coin_words", counted_words)
    seed, delta = 4412, 16
    r = simulate("atic", f"windowed:{delta}", 2.0, 20_000, seed)
    streams = rng.ArrivalStreams(derive_seed(seed, "arrivals"))
    reach = r.cri_count + sim._WINDOW_BLOCK - 1
    counts = [streams.draw_count(j, 2.0 * delta)[0] for j in range(reach)]
    assert sum(rows) <= sum(n for n in counts if n >= rng._WORDS_MIN)
    closed = math.floor(r.slots_simulated / delta)
    assert closed - r.cri_count > sim._WINDOW_BLOCK


def test_windowed_key_passes_hash_only_the_depths_the_rule_allows(monkeypatch):
    """Each block pass of a windowed run hashes the depth columns that
    ``rng._key_depths`` gives its largest window, 14 for windowed:40 at
    rate 0.3, not all 32 a key holds."""
    columns, allowed = [], []
    words, mix = rng.coin_words, rng._splitmix64_inplace

    def counted_words(groups, p):
        groups = list(groups)
        allowed.append(rng._key_depths(max(len(ids) for _, ids in groups), p))
        return words(groups, p)

    def counted_mix(x):
        if x.ndim == 2:
            columns.append(x.shape[1])
        return mix(x)

    monkeypatch.setattr(rng, "coin_words", counted_words)
    monkeypatch.setattr(rng, "_splitmix64_inplace", counted_mix)
    simulate("sicta", "windowed:40", 0.3, 4000, 2024)
    assert columns == allowed and len(columns) == math.ceil(100 / sim._WINDOW_BLOCK)
    assert max(columns) < rng._WORD_DEPTHS


@pytest.mark.parametrize("protocol", list(RULES))
def test_empty_interval_folds_as_the_engine_resolves_it(protocol):
    """The simulator's own fold of an empty batch equals the fold of the
    engine's trace of that batch."""
    batch = sim._Batch(range(7, 7), [])
    start, p, coins_base = 31, 0.5, derive_seed(4, "coins")
    folded = MetricsReport(protocol, "gated", 0.1, 100, 4, cri_count=3)
    served = MetricsReport(protocol, "gated", 0.1, 100, 4, cri_count=3)
    trace = run_cri(protocol, (), p, stream_seed(coins_base, 3))
    single = run_cri(protocol, (0,), p, 0)
    assert sim._fold_trace(folded, trace, batch, start) == start
    assert sim._serve_batch(served, protocol, p, coins_base,
                            single, batch, start) == start
    assert served.to_dict() == folded.to_dict()


@pytest.mark.parametrize("protocol", list(RULES))
@pytest.mark.parametrize("uid,start,arrival", [(0, 1, 1), (7, 31, 12),
                                               (2**40 + 5, 9000, 8999)])
def test_one_packet_interval_folds_as_the_engine_resolves_it(protocol, uid, start, arrival):
    """The simulator's fold of a one-packet batch, from the run's
    one-packet trace, equals the fold of the engine's trace of that batch."""
    batch = sim._Batch(range(uid, uid + 1), [arrival])
    p, coins_base = 0.5, derive_seed(4, "coins")
    folded = MetricsReport(protocol, "gated", 0.1, 100, 4, cri_count=3)
    served = MetricsReport(protocol, "gated", 0.1, 100, 4, cri_count=3)
    trace = run_cri(protocol, batch.ids, p, stream_seed(coins_base, 3))
    single = run_cri(protocol, (0,), p, 0)
    assert sim._fold_trace(folded, trace, batch, start) == start
    assert sim._serve_batch(served, protocol, p, coins_base,
                            single, batch, start) == start
    assert served.delay_samples == [start - arrival]
    assert served.to_dict() == folded.to_dict()


@pytest.mark.parametrize("protocol,rate,budget,seed", [("atic", 0.3, 4000, 2024),
                                                      ("sicta", 1.5, 300, 8)])
def test_gated_runs_draw_arrival_slots_only_for_served_batches(
        monkeypatch, protocol, rate, budget, seed):
    """A gated run draws the arrival slots of each served non-empty batch
    once, and never those of the batch left unserved at the end."""
    drawn = []
    slot_arrivals = sim._slot_arrivals

    def counted_slot_arrivals(draws, span_start, span_len, count):
        drawn.append(count)
        return slot_arrivals(draws, span_start, span_len, count)

    monkeypatch.setattr(sim, "_slot_arrivals", counted_slot_arrivals)
    report = simulate(protocol, "gated", rate, budget, seed)
    assert drawn == [n for n in report.decoded_per_cri if n]
    assert report.arrivals_total == report.packets_decoded + report.terminal_backlog
    if rate > 1:
        assert report.terminal_backlog > 0


@pytest.mark.parametrize("protocol,rate,budget,p,seed", [
    ("atic", 0.1, 5000, 0.5, 4501),       # light: most batches hold 0 or 1 packet
    ("sicta", 0.6, 5000, 0.5, 4502),      # heavy, below SICTA's stable rate
    ("atic_left", 0.8, 4000, 0.3, 4503),  # heavy, biased coins
    ("bta", 0.0, 300, 0.5, 4504),         # rate 0: idle intervals only
    ("mta", 0.4, 1, 0.7, 4505),           # budget 1: one interval
    ("atic", 1.2, 3000, 0.5, 4506),       # overload: the batches grow
    ("sicta", 3.0, 2000, 0.5, 4507),
    ("bta", 1.2, 2000, 0.5, 4508),
])
def test_gated_runs_replay_batch_by_batch(protocol, rate, budget, p, seed):
    """Batch k of a gated run is the Poisson count of numpy stream k, of
    mean ``rate`` times the length of the span it arrived in: interval
    k - 1, or the one slot-0 epoch for batch 0.  Its arrival slots are
    uniform over that span, each first eligible a slot later, its ids
    follow those of the batches before it, and coin stream k splits it.
    Replayed here from numpy and the engine, batch by batch."""
    r = simulate(protocol, "gated", rate, budget, seed, p=p)
    arrivals_base, coins_base = derive_seed(seed, "arrivals"), derive_seed(seed, "coins")
    k = span_start = consumed = first = total = 0
    span_len = 1
    decoded, collisions, delays = [], [], []
    while True:
        draws = np.random.default_rng(stream_seed(arrivals_base, k))
        n = int(draws.poisson(rate * span_len))
        total += n
        if consumed >= budget:
            break
        arrivals = sorted(draws.integers(span_start + 1, span_start + span_len + 1, n))
        trace = run_cri(protocol, range(first, first + n), p, stream_seed(coins_base, k))
        delays += [consumed + slot - int(arrivals[pid - first])
                   for pid, slot in trace.decoded_order]
        decoded.append(n)
        collisions.append(trace.collisions)
        span_start, span_len = consumed + 1, trace.length
        consumed += trace.length
        first += n
        k += 1
    assert r.decoded_per_cri == decoded
    assert r.collisions_per_cri == collisions
    assert r.delay_samples == delays
    assert r.slots_simulated == consumed
    assert r.terminal_backlog == n
    assert r.arrivals_total == total
    assert r.idle_slots + r.success_slots + r.collision_slots == r.slots_simulated
    if rate > 1:
        assert r.terminal_backlog > 0


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
@example(5, 4_000_000, 2.5, 12)       # windows near 1e7 slots, fractional delta
@example(6, 4_285_714, 7 / 3, 3)
@example(7, 250_000, 40.0, 900)
def test_instant_arrivals_match_sorted_draws(index, window, delta, count):
    """Both kinds of draws (the Python cursor a mean below 6 gets, numpy's
    generator above) give numpy's sorted ``uniform`` instants mapped
    through ceil(u + 1 - 1e-9)."""
    base = derive_seed(17, "arrivals")
    lo, hi = window * delta, (window + 1) * delta
    rng = np.random.default_rng(stream_seed(base, index))
    drawn = np.sort(rng.uniform(lo, hi, size=count))
    expected = [math.ceil(float(u) + 1.0 - 1e-9) for u in drawn]
    for draws in _stream_draws(base, index):
        assert sim._instant_arrivals(draws, lo, hi, count) == expected
