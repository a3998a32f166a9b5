"""Slotted Poisson-traffic simulation over the tree protocols.

One run strings collision-resolution intervals back to back under a
channel access policy, given as a string:

  "gated"             arrivals during an interval are blocked and jointly
                      start the next one (the first interval serves
                      arrivals from one bootstrap slot);
  "windowed:<delta>"  the arrival axis is cut into windows of ``delta``
                      slots (positive, finite, may be fractional) and
                      the k-th window's batch starts its interval once
                      both the window has closed and the previous interval
                      has finished.  Backlogged windows queue whole, first
                      in first out; the backlog counts the packets of
                      closed, unserved windows.

Every run is a pure function of (protocol, policy, rate, budget, seed):
arrival counts, arrival positions, and split coins all come from
counter-derived sub-streams of the master seed, so replications are
order-independent and reports are bit-identical across reruns.  The
arrivals of interval (or window) ``i`` come from the numpy PCG64 stream
``np.random.default_rng(stream_seed(arrivals_base, i))``, draw for draw
(:class:`~treesplit.rng.ArrivalStreams`): a zero count is read off the
stream's first double, a count of mean below 10 and its arrival draws
continue the stream in Python, and only a larger mean reseeds one shared
numpy generator object and draws with numpy.  An empty interval is the one
idle slot every protocol's engine would give it, folded by the simulator
itself without an engine call or a coin seed.

Slot/time conventions: slot ``t`` (1-based) covers real time [t-1, t).
A packet generated during slot ``t`` (or at real instant ``u``) is first
eligible in the next slot, and that eligibility slot is stored as its
arrival slot; delay is decode slot minus arrival slot, so a packet
served immediately at its first eligible slot has delay 0.

The slot budget bounds when new intervals may start; the interval in
progress when the budget is hit runs to completion, so a report can
cover slightly more than ``budget`` slots (unstable rates are flagged,
never run forever).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .engines import ProtocolKind, RULES, _split_bias, run_cri
from .rng import ArrivalStreams, derive_seed, stream_seed

# Backlog drift (packets per slot) above which the trailing-half
# regression declares the run unstable.  A rate 2-3% above the maximum
# stable throughput drifts at ~0.03 packets/slot, a stable rate at ~0.
_INSTABILITY_SLOPE = 0.005
_MIN_TREND_POINTS = 8


class ProtocolError(ValueError):
    """An operation was asked of a protocol that lacks the feature."""


class EmptySampleError(ValueError):
    """A statistic was requested over zero samples."""


def _window_length(policy: str) -> Optional[float]:
    """Parse an access policy: None for ``gated``, the window length in
    slots for ``windowed:<delta>``."""
    if policy == "gated":
        return None
    if not (isinstance(policy, str) and policy.startswith("windowed:")):
        raise ValueError(f"unrecognized access policy: {policy!r}")
    delta = float(policy.split(":", 1)[1])
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"window length must be positive and finite, got {delta}")
    return delta


@dataclass
class MetricsReport:
    """Everything one simulation run measured.

    Histograms map value to count; per-interval lists are aligned with
    interval completion order.  ``arrivals_total`` counts every packet
    generated inside the simulated horizon, so it always equals
    ``packets_decoded + terminal_backlog``, and ``throughput`` is
    ``packets_decoded / slots_simulated`` (0.0 when no slot ran).
    """

    protocol: str
    policy: str
    rate: float
    budget: int
    seed: int
    packet_bits: int = 256
    slots_simulated: int = 0
    cri_count: int = 0
    packets_decoded: int = 0
    arrivals_total: int = 0
    terminal_backlog: int = 0
    throughput: float = 0.0
    unstable: bool = False
    idle_slots: int = 0
    success_slots: int = 0
    collision_slots: int = 0
    z_broadcast_slots: int = 0
    skipped_slots: int = 0
    delay_samples: list = field(default_factory=list)
    collision_degree_hist: dict = field(default_factory=dict)
    feedback_k_hist: dict = field(default_factory=dict)
    collisions_per_cri: list = field(default_factory=list)
    decoded_per_cri: list = field(default_factory=list)
    ap_memory_highwater: list = field(default_factory=list)
    feedback_bits: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # Lists hold ints, so a shallow copy detaches them; asdict would
        # deep-copy every element of the long delay sample.
        out = {k: list(v) if isinstance(v, list) else v for k, v in vars(self).items()}
        # JSON object keys are strings; keep histogram keys explicit.
        for key in ("collision_degree_hist", "feedback_k_hist", "feedback_bits"):
            out[key] = {str(k): v for k, v in sorted(out[key].items())}
        return out


class _Batch(NamedTuple):
    ids: range      # packet ids, contiguous in arrival order
    arrivals: list  # arrival (first-eligible) slot per id, same order


def _slot_arrivals(draws, span_start: int, span_len: int, count: int) -> list:
    """Sorted arrival slots of ``count`` packets generated in uniform
    slots of [span_start, span_start + span_len - 1], each first eligible
    in the slot after.  numpy draws the same offsets for ranges of equal
    length, so this equals drawing the generation slots and adding one.
    ``draws`` is the stream :meth:`ArrivalStreams.draw_count` returned."""
    return sorted(draws.integers(span_start + 1, span_start + span_len + 1, count))


def _instant_arrivals(draws, lo: float, hi: float, count: int) -> list:
    """Sorted arrival slots of ``count`` packets generated at uniform real
    instants in [lo, hi), each first eligible in the first slot whose
    start lies at or after its instant."""
    instants = sorted(draws.uniform(lo, hi, count))
    return [math.ceil(u + 1.0 - 1e-9) for u in instants]


def _bit_width(kmax: int) -> int:
    """Feedback field width covering idle/collision plus skip counts up to kmax."""
    return max(2, math.ceil(math.log2(kmax + 3)))


def _fill_feedback_bits(report: MetricsReport, rules) -> None:
    """Populate the per-slot bit-cost histogram from the run's counters."""
    hist: dict = {}

    def add(bits: int, count: int):
        if count:
            hist[bits] = hist.get(bits, 0) + count

    total = report.slots_simulated
    if not rules.saves_collisions:
        add(2, total)                      # ternary flag only
    elif not rules.z_on_collision:
        kmax = max(report.feedback_k_hist, default=0)
        add(_bit_width(kmax), total)       # flag and skip count, fixed width
    else:
        B = report.packet_bits
        if rules.z_on_success:
            z_slots = report.collision_slots + report.z_broadcast_slots
            add(2 + B, z_slots)
            add(2, total - z_slots)
        else:
            kmax = max(report.feedback_k_hist, default=0)
            add(2 + B, report.collision_slots)
            add(_bit_width(kmax), report.success_slots)
            add(2, report.idle_slots)
    report.feedback_bits = hist


def _finalize(report: MetricsReport, rules, backlog_points: list) -> None:
    report.throughput = (report.packets_decoded / report.slots_simulated
                         if report.slots_simulated else 0.0)
    _fill_feedback_bits(report, rules)
    report.unstable = _detect_instability(report, backlog_points)


def _detect_instability(report: MetricsReport, backlog_points: list) -> bool:
    """Trailing-half backlog drift test, with a mass fallback for runs
    whose final intervals are so long that the trend has too few points."""
    horizon = report.slots_simulated
    if horizon <= 0:
        return False
    tail = [(s, b) for s, b in backlog_points if s >= horizon / 2]
    if len(tail) >= _MIN_TREND_POINTS:
        xs = np.array([s for s, _ in tail], dtype=float)
        ys = np.array([b for _, b in tail], dtype=float)
        slope = np.polyfit(xs, ys, 1)[0]
        if slope > _INSTABILITY_SLOPE and ys.mean() > 25.0:
            return True
    # A backlog holding a large fraction of all traffic is unstable no
    # matter how few intervals completed.
    return report.terminal_backlog > max(100.0, 0.25 * report.rate * horizon)


def simulate(
    protocol: Union[ProtocolKind, str],
    policy: str,
    rate: float,
    budget: int,
    seed: int,
    *,
    p: float = 0.5,
    packet_bits: int = 256,
) -> MetricsReport:
    """Run intervals back to back until ``budget`` slots and report metrics.

    ``policy`` is ``"gated"`` or ``"windowed:<delta>"`` (see the module
    docstring); ``rate`` is the Poisson arrival intensity in packets per
    slot (zero is allowed and produces an all-idle run); ``p`` is the
    split bias handed to the protocol engine.  Deterministic: identical
    arguments give an identical report.
    """
    kind = ProtocolKind(protocol)
    rules = RULES[kind]
    delta = _window_length(policy)
    rate = float(rate)
    budget = int(budget)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"arrival rate must be finite and non-negative, got {rate}")
    if budget < 1:
        raise ValueError(f"slot budget must be at least 1, got {budget}")
    p = _split_bias(p)
    packet_bits = int(packet_bits)
    if packet_bits < 1:
        raise ValueError(f"packet_bits must be at least 1, got {packet_bits}")

    report = MetricsReport(
        protocol=kind.value, policy="gated" if delta is None else f"windowed:{delta:g}",
        rate=rate, budget=budget, seed=int(seed), packet_bits=packet_bits,
    )
    master = int(seed)
    arrivals_base = derive_seed(master, "arrivals")
    coins_base = derive_seed(master, "coins")

    if delta is None:
        _run_gated(report, kind, rules, rate, budget, p, arrivals_base, coins_base)
    else:
        _run_windowed(report, kind, rules, rate, budget, p,
                      arrivals_base, coins_base, delta)
    return report


def _serve_batch(report, kind, p, coins_base, batch, start) -> int:
    """Run one interval for ``batch`` beginning at slot ``start``.

    Returns the index of the last slot the interval consumed and folds
    the interval's metrics into the report.  An empty batch is one idle
    slot, as ``run_cri`` resolves it under every protocol, and needs no
    engine call.
    """
    if not batch.ids:
        report.cri_count += 1
        report.idle_slots += 1
        report.collisions_per_cri.append(0)
        report.decoded_per_cri.append(0)
        report.ap_memory_highwater.append(0)
        return start
    trace = run_cri(kind, batch.ids, p, stream_seed(coins_base, report.cri_count))
    return _fold_trace(report, trace, batch, start)


def _fold_trace(report, trace, batch, start) -> int:
    """Fold the trace of ``batch``'s interval, begun at slot ``start``,
    into the report; returns the interval's last slot."""
    arrivals = batch.arrivals
    first = batch.ids.start
    base = start - 1
    report.delay_samples.extend([base + rel_slot - arrivals[pid - first]
                                 for pid, rel_slot in trace.decoded_order])
    report.cri_count += 1
    report.packets_decoded += len(batch.ids)
    report.success_slots += trace.successes
    report.collision_slots += trace.collisions
    report.idle_slots += trace.idles
    report.skipped_slots += trace.skipped_slots
    report.z_broadcast_slots += trace.z_success_slots
    for deg in trace.collision_degrees:
        report.collision_degree_hist[deg] = report.collision_degree_hist.get(deg, 0) + 1
    for k in trace.k_values:
        report.feedback_k_hist[k] = report.feedback_k_hist.get(k, 0) + 1
    report.collisions_per_cri.append(trace.collisions)
    report.decoded_per_cri.append(len(batch.ids))
    report.ap_memory_highwater.append(trace.memory_highwater)
    return base + trace.length


def _run_gated(report, kind, rules, rate, budget, p, arrivals_base, coins_base):
    next_id = 0
    streams = ArrivalStreams(arrivals_base)

    def draw_batch(cri_index: int, span_start: int, span_len: int) -> _Batch:
        """Arrivals generated during [span_start, span_start+span_len-1]."""
        nonlocal next_id
        count, draws = streams.draw_count(cri_index, rate * span_len)
        ids = range(next_id, next_id + count)
        if count == 0:
            return _Batch(ids, [])
        next_id += count
        return _Batch(ids, _slot_arrivals(draws, span_start, span_len, count))

    # Bootstrap: the first interval serves arrivals of a single slot-0 epoch.
    batch = draw_batch(0, 0, 1)
    report.arrivals_total += len(batch.ids)
    consumed = 0
    backlog_points: list = []
    while True:
        start = consumed + 1
        consumed = _serve_batch(report, kind, p, coins_base, batch, start)
        # Arrivals blocked during the interval just served form the next batch.
        batch = draw_batch(report.cri_count, start, consumed - start + 1)
        report.arrivals_total += len(batch.ids)
        backlog_points.append((consumed, len(batch.ids)))
        if consumed >= budget:
            break
    report.slots_simulated = consumed
    report.terminal_backlog = len(batch.ids)
    _finalize(report, rules, backlog_points)


def _run_windowed(report, kind, rules, rate, budget, p,
                  arrivals_base, coins_base, delta):
    next_id = 0
    streams = ArrivalStreams(arrivals_base)

    def draw_window(j: int) -> _Batch:
        """Arrivals of window j, spanning real time [j*delta, (j+1)*delta)."""
        nonlocal next_id
        count, draws = streams.draw_count(j, rate * delta)
        ids = range(next_id, next_id + count)
        if count == 0:
            return _Batch(ids, [])
        next_id += count
        return _Batch(ids, _instant_arrivals(draws, j * delta, (j + 1) * delta, count))

    queue: deque = deque()  # windows drawn but not yet served, in index order
    drawn = 0               # windows drawn so far
    backlog = 0             # packets in ``queue``

    def draw_next() -> None:
        nonlocal drawn, backlog
        batch = draw_window(drawn)
        queue.append(batch)
        drawn += 1
        backlog += len(batch.ids)
        report.arrivals_total += len(batch.ids)

    consumed = 0
    window = 0
    backlog_points: list = []
    while consumed < budget:
        if not queue:
            draw_next()  # the next window may still be open
        batch = queue.popleft()
        backlog -= len(batch.ids)
        window_close = (window + 1) * delta
        start = max(consumed + 1, math.ceil(window_close + 1.0 - 1e-9))
        if start - 1 > consumed:
            # The channel idles until the window closes; those waiting
            # slots count toward the horizon but belong to no interval.
            report.idle_slots += start - 1 - consumed
            consumed = start - 1
        consumed = _serve_batch(report, kind, p, coins_base, batch, start)
        window += 1
        # Windows that closed while the channel was busy wait in the queue;
        # those left at the end are arrivals of the period never served.
        while (drawn + 1) * delta <= consumed:
            draw_next()
        backlog_points.append((consumed, backlog))
    report.slots_simulated = consumed
    report.terminal_backlog = backlog
    _finalize(report, rules, backlog_points)


class DelayStats(NamedTuple):
    mean: float
    variance: float
    percentiles: dict  # percentile level -> value


def delay_stats(report: MetricsReport) -> DelayStats:
    """Sample mean, population variance, and percentiles of packet delay."""
    samples = report.delay_samples
    if not samples:
        raise EmptySampleError("no decoded packets: delay statistics undefined")
    arr = np.asarray(samples, dtype=float)
    pct = {q: float(np.percentile(arr, q)) for q in (50, 90, 95, 99)}
    return DelayStats(float(arr.mean()), float(arr.var()), pct)


def feedback_value_histogram(report: MetricsReport) -> dict:
    """Normalized mass function of the announced skip count on successes."""
    kind = ProtocolKind(report.protocol)
    if not RULES[kind].saves_collisions:
        raise ProtocolError(
            f"{kind.value} announces no skip counts; histogram undefined"
        )
    total = sum(report.feedback_k_hist.values())
    if total == 0:
        return {}
    return {k: c / total for k, c in sorted(report.feedback_k_hist.items())}


class CollisionCdf(NamedTuple):
    """Empirical CDF over collisions per interval, plus the C/n ratio."""

    support: tuple
    cumulative: tuple
    ratio: float

    def at(self, x: float) -> float:
        i = bisect_right(self.support, x)
        return self.cumulative[i - 1] if i else 0.0


def collisions_per_cri_cdf(report: MetricsReport) -> CollisionCdf:
    """CDF of per-interval collision counts and mean(collisions)/mean(batch)."""
    counts = report.collisions_per_cri
    if not counts:
        raise EmptySampleError("no completed intervals: CDF undefined")
    values, freqs = np.unique(np.asarray(counts), return_counts=True)
    cum = np.cumsum(freqs) / len(counts)
    mean_decoded = float(np.mean(report.decoded_per_cri))
    ratio = (float(np.mean(counts)) / mean_decoded) if mean_decoded > 0 else 0.0
    return CollisionCdf(tuple(int(v) for v in values),
                        tuple(float(c) for c in cum), ratio)


class FeedbackCostStats(NamedTuple):
    mean_bits: float
    max_bits: int
    histogram: dict  # bits per slot -> slot count


def feedback_cost(report: MetricsReport) -> FeedbackCostStats:
    """Summary of ``report.feedback_bits``, the downlink feedback cost in
    bits per slot of the run's protocol.

    BTA/MTA broadcast a ternary flag: 2 bits always.  SICTA appends the
    skip count, at a fixed width covering the largest value seen (4 bits
    in practice).  The broadcast-signal protocols spend the run's
    ``packet_bits`` on every slot whose broadcast carries a signal, plus
    the flag.
    """
    hist = report.feedback_bits
    total = sum(hist.values())
    if total == 0:
        return FeedbackCostStats(0.0, 0, {})
    mean = sum(b * c for b, c in hist.items()) / total
    return FeedbackCostStats(mean, max(hist), dict(sorted(hist.items())))
