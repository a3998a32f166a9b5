"""Slotted Poisson-traffic simulation over the tree protocols.

One run strings collision-resolution intervals back to back under a
channel access policy, given as a string:

  "gated"             arrivals during an interval are blocked and jointly
                      start the next one (the first interval serves
                      arrivals from one bootstrap slot);
  "windowed:<delta>"  the arrival axis is cut into windows of ``delta``
                      slots (finite, at least 1, may be fractional) and
                      the k-th window's batch starts its interval once
                      both the window has closed and the previous interval
                      has finished.  Backlogged windows queue whole, first
                      in first out; the backlog counts the packets of
                      closed, unserved windows.

Every run splits by the fair coin, with 256-bit packets, as the paper
states its results, and is a pure function of (protocol, policy, rate,
budget, seed): arrival counts, arrival positions, and split coins all
come from counter-derived sub-streams of the master seed, so replications
are order-independent and reports are bit-identical across reruns.  The
arrivals of interval (or window) ``i`` come from the numpy PCG64 stream
``np.random.default_rng(stream_seed(arrivals_base, i))``, draw for draw
(:class:`~treesplit.rng.ArrivalStreams`): a zero count is read off the
stream's first double, a count of mean below 6 and its arrival draws
continue the stream in Python, and only a larger mean reseeds one shared
numpy generator object and draws with numpy.  Only an interval of two or
more packets calls the engine.  An empty interval is the one idle slot
every protocol's engine would give it, and a one-packet interval never
splits, so its trace depends on neither the coins nor the id: the
simulator folds the former itself and the latter from one engine trace
of a one-packet interval, made once per run.

A gated batch depends on the interval just served, so gated runs draw one
batch at a time, batch 0 from the one slot-0 epoch and batch k from
interval k - 1: its count when that span ends, and its arrival slots only
when it is served, so the batch left at the end draws none.  Every served
batch is decoded whole, so a batch's ids follow the packets decoded.  A
batch of 0 or 1 packets is served in one slot, so the batch after it
arrives in one slot too, as batch 0 does; each run of such one-slot spans
is served in one step, its counts read off the arrival block
(:meth:`~treesplit.rng.ArrivalStreams.small_counts`) up to the first batch
of two or more packets, and its one-packet batches, which arrive at the
slot that serves them, draw no arrival slot.
Window j's batch does not depend on the queue and is always served
as interval j, so a windowed run keeps one queue of the windows drawn and
not yet served, and draws those that close by the budget ahead,
``_WINDOW_BLOCK`` at a time.  Serving a window whose coins are not yet
prepared prepares those of the block of queued windows it begins, in one
:func:`~treesplit.rng.prepared_sources` pass.  Ids follow window order, so
the arrivals are the ids below the end of the last window closed or
served, and the backlog is those not yet served.

Slot/time conventions: slot ``t`` (1-based) covers real time [t-1, t).
A packet generated during slot ``t`` (or at real instant ``u``) is first
eligible in the next slot, and that eligibility slot is stored as its
arrival slot; delay is decode slot minus arrival slot, so a packet
served immediately at its first eligible slot has delay 0.

Both policies keep serving intervals while the slots consumed are below
the budget, and the interval in progress runs to completion, so a report
can cover more than ``budget`` slots (unstable rates are flagged, never
run forever).  A gated interval starts right after the one before it; a
windowed one waits for its window to close, so it can start past the
budget: ``simulate("atic", "windowed:40", 0.3, 1, 1)`` idles through
slot 40, serves its one interval from slot 41 and simulates 52 slots.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from .engines import _rules, run_cri
from .rng import ArrivalStreams, _integer, _real, derive_seed, prepared_sources, stream_seed

# Backlog drift (packets per slot) above which the trailing-half
# regression declares the run unstable.  A rate 2-3% above the maximum
# stable throughput drifts at ~0.03 packets/slot, a stable rate at ~0.
_INSTABILITY_SLOPE = 0.005
_MIN_TREND_POINTS = 8
# Windows a windowed run draws ahead, and whose coins it prepares in one
# pass, at a time.  Measured best-of-15 us per window to prepare coins over
# Poisson(12) windows (windowed:40 at rate 0.3) on a 2-vCPU VM, by block
# size: 1: 29.2, 8: 8.2, 16: 7.6, 32: 6.6, 64: 6.2, 128: 6.4, 256: 8.4.
_WINDOW_BLOCK = 64
# The split bias of every traffic run: the fair coin, at which the paper
# states its results.
_P = 0.5
# Payload bits of a packet, which the broadcast-signal protocols' feedback
# carries.
_PACKET_BITS = 256


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
    text = policy.split(":", 1)[1]
    try:
        delta = float(text)
    except ValueError:
        raise ValueError(f"window length must be a number of slots, got {text!r}") from None
    # Every interval takes at least one slot, so windows shorter than a
    # slot would queue without bound whatever the rate.
    if not (math.isfinite(delta) and delta >= 1.0):
        raise ValueError(f"window length must be finite and at least one slot, got {delta}")
    return delta


def _rate(value) -> float:
    """``value`` as a float arrival rate: a finite non-negative real."""
    rate = _real(value, "arrival rate")
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"arrival rate must be a finite non-negative real, got {value!r}")
    return rate


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
    packet_bits: int = _PACKET_BITS
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
    start lies at or after its instant.  numpy's ``uniform(lo, hi)`` is
    ``lo + (hi - lo) * u`` for a ``random()`` double u, and that map is
    monotone, so mapping the sorted doubles gives the sorted instants of
    those draws."""
    span = hi - lo
    return [math.ceil(lo + span * u + 1.0 - 1e-9) for u in sorted(draws.random(count))]


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


def _detect_instability(report: MetricsReport, backlog_points: list) -> bool:
    """Trailing-half backlog drift test, with a mass fallback for runs
    whose final intervals are so long that the trend has too few points."""
    horizon = report.slots_simulated
    # The points are in slot order, so the trailing half is a suffix.
    tail = backlog_points[bisect_left(backlog_points, (horizon / 2,)):]
    if len(tail) >= _MIN_TREND_POINTS:
        xs, ys = np.array(tail, dtype=float).T
        slope = np.polyfit(xs, ys, 1)[0]
        if slope > _INSTABILITY_SLOPE and ys.mean() > 25.0:
            return True
    # A backlog holding a large fraction of all traffic is unstable no
    # matter how few intervals completed.
    return report.terminal_backlog > max(100.0, 0.25 * report.rate * horizon)


def simulate(protocol: str, policy: str, rate: float, budget: int, seed: int) -> MetricsReport:
    """Run intervals back to back until ``budget`` slots and report metrics.

    ``protocol`` is a ``RULES`` name; ``policy`` is ``"gated"`` or
    ``"windowed:<delta>"`` (see the module docstring); ``rate``, the
    Poisson arrival intensity in packets per slot, is a finite
    non-negative real (zero gives an all-idle run); ``budget`` is an
    integer >= 1; ``seed`` is an integer.  Colliders split by the fair
    coin, p = 1/2, and a broadcast signal costs a 256-bit packet.  A value
    breaking its rule raises ``ValueError`` naming it: numbers of the wrong
    kind are refused, never converted.  Deterministic: identical arguments
    give an identical report.
    """
    rules = _rules(protocol)
    delta = _window_length(policy)
    rate = _rate(rate)
    budget = _integer(budget, "budget", 1)
    seed = _integer(seed, "seed")

    report = MetricsReport(protocol, "gated" if delta is None else f"windowed:{delta:g}",
                           rate, budget, seed)
    arrivals_base = derive_seed(seed, "arrivals")
    coins_base = derive_seed(seed, "coins")

    # One packet never splits, so every one-packet interval of the run
    # folds this trace, whatever its id and coins.
    single = run_cri(protocol, (0,), _P, 0)
    if delta is None:
        run = _run_gated(report, arrivals_base, coins_base, single)
    else:
        run = _run_windowed(report, arrivals_base, coins_base, single, delta)
    report.slots_simulated, report.terminal_backlog, backlog_points = run
    report.throughput = report.packets_decoded / report.slots_simulated
    _fill_feedback_bits(report, rules)
    report.unstable = _detect_instability(report, backlog_points)
    return report


def _serve_batch(report, coins_base, single, batch, start, coins=None) -> int:
    """Run one interval for ``batch`` beginning at slot ``start``.

    Returns the index of the last slot the interval consumed and folds
    the interval's metrics into the report.  Only an interval of two or
    more packets needs an engine call: an empty batch is the one idle
    slot ``run_cri`` gives it under every protocol, and a one-packet
    batch folds ``single``, the run's trace of a one-packet interval.
    ``coins``, when given, is the interval's prepared
    :class:`~treesplit.rng.CoinSource` or coin seed; otherwise the
    engine is handed the interval's coin seed.
    """
    n = len(batch.ids)
    if n == 0:
        return _fold_idle(report, start)
    if n == 1:
        return _fold_trace(report, single, batch, start)
    if coins is None:
        coins = stream_seed(coins_base, report.cri_count)
    trace = run_cri(report.protocol, batch.ids, _P, coins)
    return _fold_trace(report, trace, batch, start)


def _fold_idle(report, start) -> int:
    """Fold an empty interval begun at slot ``start``, one idle slot."""
    report.cri_count += 1
    report.idle_slots += 1
    report.collisions_per_cri.append(0)
    report.decoded_per_cri.append(0)
    report.ap_memory_highwater.append(0)
    return start


def _fold_trace(report, trace, batch, start) -> int:
    """Fold the trace of ``batch``'s interval, begun at slot ``start``,
    into the report; returns the interval's last slot.  The trace's ids
    map in order onto the batch's, so a one-packet trace of any id folds
    for any one-packet batch."""
    arrivals = batch.arrivals
    first = trace.initial[0] if trace.initial else 0
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


def _fold_small(report, single, counts, consumed, backlog_points) -> int:
    """Fold a run of gated batches of 0 or 1 packets, ``counts``, into the
    report and the backlog points: their arrivals, and their intervals of
    one slot each from slot ``consumed + 1`` on; returns the run's last
    slot.  An empty batch folds as :func:`_fold_idle` does and a one-packet
    one as :func:`_fold_trace` folds ``single``.  Each batch arrived in the
    one slot before its interval, so its packet is first eligible at the
    slot that serves it, and each decode waits its slot in ``single`` minus
    one."""
    n, ones = len(counts), sum(counts)
    report.arrivals_total += ones
    backlog_points.extend(zip(range(consumed, consumed + n), counts))
    report.cri_count += n
    report.packets_decoded += ones
    report.success_slots += ones * single.successes
    report.collision_slots += ones * single.collisions
    report.idle_slots += n - ones + ones * single.idles
    report.skipped_slots += ones * single.skipped_slots
    report.z_broadcast_slots += ones * single.z_success_slots
    if ones:  # a run without one adds no histogram key
        for hist, values in ((report.collision_degree_hist, single.collision_degrees),
                             (report.feedback_k_hist, single.k_values)):
            for value in values:
                hist[value] = hist.get(value, 0) + ones
        report.delay_samples.extend([slot - 1 for _, slot in single.decoded_order] * ones)
    report.collisions_per_cri.extend([single.collisions * c for c in counts])
    report.decoded_per_cri.extend(counts)
    report.ap_memory_highwater.extend([single.memory_highwater * c for c in counts])
    return consumed + n


def _run_gated(report, arrivals_base, coins_base, single):
    """Serve gated batches back to back; return the slots consumed, the
    batch left at the end and the backlog points.  Batch k arrives during
    its span, the one slot-0 epoch for batch 0 and interval k - 1 after
    it.  Its count and stream (``ArrivalStreams.draw_count``) are drawn
    when the span ends; its arrival slots only when it is served, which is
    exact because no other stream is drawn in between, and never for the
    batch left at the end.  Its ids continue from the packets decoded.
    While spans last one slot, the batches of 0 or 1 packets that follow,
    up to the budget, are served in one step by :func:`_fold_small`."""
    rate, budget = report.rate, report.budget
    streams = ArrivalStreams(arrivals_base)
    span_start, span_len = 0, 1
    consumed = 0
    backlog_points: list = []
    while True:
        if span_len == 1:
            counts = streams.small_counts(report.cri_count, rate, budget - consumed)
            if counts:
                consumed = span_start = _fold_small(report, single, counts, consumed,
                                                    backlog_points)
        count, draws = streams.draw_count(report.cri_count, rate * span_len)
        report.arrivals_total += count
        backlog_points.append((consumed, count))
        if consumed >= budget:
            return consumed, count, backlog_points
        start = consumed + 1
        if count:
            first = report.packets_decoded
            batch = _Batch(range(first, first + count),
                           _slot_arrivals(draws, span_start, span_len, count))
            consumed = _serve_batch(report, coins_base, single, batch, start)
        else:
            consumed = _fold_idle(report, start)
        # Arrivals blocked during the interval just served form the next batch.
        span_start, span_len = start, consumed - start + 1


def _run_windowed(report, arrivals_base, coins_base, single, delta):
    """Serve window j as interval j; return as :func:`_run_gated` does.
    ``pending`` holds the windows drawn but not yet served, from window
    ``window`` on, each ``[batch, coins]``.  ``closed`` counts the windows
    closed or served; ids follow window order, so their packets are the ids
    below ``arrived``, and the unserved ones are the backlog."""
    rate, budget = report.rate, report.budget
    streams = ArrivalStreams(arrivals_base)
    closing = max(0, int(budget // delta) - 1)  # windows j with (j + 1) * delta <= budget
    while (closing + 1) * delta <= budget:
        closing += 1
    pending: deque = deque()
    window = closed = arrived = consumed = 0
    backlog_points: list = []

    def draw() -> None:
        """Draw the windows after the last one drawn: up to a block of
        those that close by the budget, all of which the run draws, or one
        window past them.  Window j spans real time [j*delta, (j+1)*delta)."""
        first = window + len(pending)
        stop = min(first + _WINDOW_BLOCK, closing) if first < closing else first + 1
        next_id = pending[-1][0].ids.stop if pending else arrived
        for j in range(first, stop):
            count, draws = streams.draw_count(j, rate * delta)
            ids = range(next_id, next_id + count)
            next_id += count
            arrivals = _instant_arrivals(draws, j * delta, (j + 1) * delta, count) if count else []
            pending.append([_Batch(ids, arrivals), None])

    while consumed < budget:
        if not pending:
            draw()  # the next window may still be open
        if pending[0][1] is None and window < closing:
            # Prepare the coins of this window and of the drawn windows
            # after it, up to a block, in one pass.  Preparing them when
            # served, not when drawn, keeps keys out of a long backlog.
            block = list(islice(pending, min(_WINDOW_BLOCK, closing - window)))
            seeds = [stream_seed(coins_base, j) for j in range(window, window + len(block))]
            sources = prepared_sources(zip(seeds, (b.ids for b, _ in block)), _P)
            for entry, source, seed in zip(block, sources, seeds):
                entry[1] = source or seed
        batch, coins = pending[0]
        window_close = (window + 1) * delta
        start = max(consumed + 1, math.ceil(window_close + 1.0 - 1e-9))
        if start - 1 > consumed:
            # The channel idles until the window closes; those waiting
            # slots count toward the horizon but belong to no interval.
            report.idle_slots += start - 1 - consumed
            consumed = start - 1
        consumed = _serve_batch(report, coins_base, single, batch, start, coins)
        # A served window has arrived even if it is still open.  Windows
        # that closed while the channel was busy wait in ``pending``; those
        # left at the end are arrivals of the period never served.
        while closed <= window or (closed + 1) * delta <= consumed:
            if closed == window + len(pending):
                draw()
            arrived = pending[closed - window][0].ids.stop
            closed += 1
        pending.popleft()
        window += 1
        backlog_points.append((consumed, arrived - batch.ids.stop))
    report.arrivals_total = arrived
    return consumed, arrived - batch.ids.stop, backlog_points


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
    levels = (50, 90, 95, 99)
    pct = dict(zip(levels, np.percentile(arr, levels).tolist()))
    return DelayStats(float(arr.mean()), float(arr.var()), pct)


def feedback_value_histogram(report: MetricsReport) -> dict:
    """Normalized mass function of the announced skip count on successes."""
    if not _rules(report.protocol).saves_collisions:
        raise ProtocolError(
            f"{report.protocol} announces no skip counts; histogram undefined"
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
    in practice).  The broadcast-signal protocols spend a packet,
    ``report.packet_bits`` (256), on every slot whose broadcast carries a
    signal, plus the flag.
    """
    hist = report.feedback_bits
    total = sum(hist.values())
    if total == 0:
        return FeedbackCostStats(0.0, 0, {})
    mean = sum(b * c for b, c in hist.items()) / total
    return FeedbackCostStats(mean, max(hist), dict(sorted(hist.items())))
