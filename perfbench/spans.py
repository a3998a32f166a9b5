"""In-memory span recording around calls into the treesplit layers.

``instrument`` patches the layer entry points that the CLI and the
simulator call (names as bound in the calling module) with wrappers that
record a span each: name, start, end and parent.  Calls too fine-grained
for one span each (``CoinSource.flip`` and ``Signal`` construction) are
counted, and flips timed, in aggregate.  Spans stay in memory in compact
arrays and are written out once, when the benchmark ends.

Per-layer metrics are derived from the spans of one iteration by
``layer_metrics``; a layer's self time is its span time minus the time
of its child spans.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

CLI = "cli"
SIMULATE = "sim.simulate"
DELAY_STATS = "sim.delay_stats"
RUN_CRI = "engines.run_cri"
SCAN_POINT = "analytics.windowed_stable_rate"
TABLE_ROWS = "analytics.cri_table_rows"
ASYMPTOTE = "analytics.asymptotic_throughput"
TABLE_BUILD = "analytics.table_build"
EMIT = "reports.emit_report"

SPAN_NAMES = (CLI, SIMULATE, DELAY_STATS, RUN_CRI, SCAN_POINT, TABLE_ROWS,
              ASYMPTOTE, TABLE_BUILD, EMIT)

# Per-layer metrics with their units, in report order.
LAYER_METRICS = {
    "sim.simulate_s": "s",
    "sim.self_s": "s",
    "sim.intervals": "count",
    "sim.us_per_interval": "us",
    "sim.delay_stats_s": "s",
    "engines.run_cri_s": "s",
    "engines.calls": "count",
    "engines.slots": "count",
    "engines.us_per_slot": "us",
    "engines.skipped_slots": "count",
    "engines.useful_ratio": "ratio",
    "engines.memory_peak": "count",
    "rng.flips": "count",
    "rng.flip_s": "s",
    "signals.built": "count",
    "analytics.scan_s": "s",
    "analytics.table_n": "count",
    "analytics.table_build_s": "s",
    "analytics.point_s_p50": "s",
    "analytics.point_s_p95": "s",
    "reports.emit_s": "s",
    "reports.bytes": "count",
    "reports.files": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Counts that are a pure function of the input and must repeat exactly.
EXACT_COUNTS = ("sim.intervals", "engines.calls", "engines.slots",
                "engines.skipped_slots", "engines.memory_peak", "rng.flips",
                "signals.built", "reports.bytes", "reports.files",
                "analytics.table_n")


class SpanLog:
    """Spans in parallel arrays; ``parent`` is -1 for a root span."""

    def __init__(self):
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open: list = []
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._ids[name])
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def write(self, path: Path, iterations: list) -> None:
        """JSON lines: a header, then ``[name, start_ns, end_ns, parent]``
        per span.  ``iterations`` lists each traced iteration's span range."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": SPAN_NAMES, "iterations": iterations}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent):
                fh.write(json.dumps(row) + "\n")


class Counters:
    """Aggregate counts taken at the same layer boundaries as the spans."""

    def __init__(self):
        self.intervals = 0
        self.engine_calls = 0
        self.engine_slots = 0
        self.engine_skipped = 0
        self.engine_successes = 0
        self.engine_memory_peak = 0
        self.flips = 0
        self.flip_ns = 0
        self.signals = 0
        self.report_bytes = 0
        self.report_files = 0
        self.table_n = 0


class Recorder:
    """Span log plus the counters of the iteration in progress."""

    def __init__(self):
        self.log = SpanLog()
        self.counters = Counters()

    def take(self) -> Counters:
        done, self.counters = self.counters, Counters()
        return done


def _spanned(log: SpanLog, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        idx = log.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(idx)
        if after is not None:
            after(args, result)
        return result
    return wrapper


@contextmanager
def _patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def instrument(recorder: Recorder):
    """Install the span wrappers for the duration of the block."""
    import treesplit.analytics as analytics
    import treesplit.cli as cli
    import treesplit.rng as rng
    import treesplit.signals as signals
    import treesplit.sim as sim

    log = recorder.log

    def after_simulate(args, report):
        recorder.counters.intervals += report.cri_count

    def after_run_cri(args, trace):
        c = recorder.counters
        c.engine_calls += 1
        c.engine_slots += trace.length
        c.engine_skipped += trace.skipped_slots
        c.engine_successes += trace.successes
        c.engine_memory_peak = max(c.engine_memory_peak, trace.memory_highwater)

    def after_emit(args, path):
        recorder.counters.report_files += 1
        recorder.counters.report_bytes += Path(path).stat().st_size

    def after_extend(args, result):
        # _extend(table, n_max) leaves the table holding L_0..L_n_max.
        recorder.counters.table_n = max(recorder.counters.table_n, args[1])

    with ExitStack() as stack:
        for owner, attr, name, after in (
            (cli, "simulate", SIMULATE, after_simulate),
            (cli, "delay_stats", DELAY_STATS, None),
            (sim, "run_cri", RUN_CRI, after_run_cri),
            (cli, "windowed_stable_rate", SCAN_POINT, None),
            (cli, "cri_table_rows", TABLE_ROWS, None),
            (cli, "asymptotic_throughput", ASYMPTOTE, None),
            (analytics.CriLengthTable, "_extend", TABLE_BUILD, after_extend),
            (cli, "emit_report", EMIT, after_emit),
        ):
            original = getattr(owner, attr)
            stack.enter_context(
                _patched(owner, attr, _spanned(log, name, original, after)))

        flip = rng.CoinSource.flip

        def counted_flip(self, uid, depth):
            t0 = time.perf_counter_ns()
            result = flip(self, uid, depth)
            c = recorder.counters
            c.flip_ns += time.perf_counter_ns() - t0
            c.flips += 1
            return result

        signal_init = signals.Signal.__init__

        def counted_init(self, components=()):
            recorder.counters.signals += 1
            signal_init(self, components)

        stack.enter_context(_patched(rng.CoinSource, "flip", counted_flip))
        stack.enter_context(_patched(signals.Signal, "__init__", counted_init))
        yield recorder


def _child_time(starts, ends, parents, mask_parent) -> float:
    """Total ns of spans whose parent satisfies ``mask_parent``."""
    sel = (parents >= 0)
    sel[sel] = mask_parent[parents[sel]]
    return float((ends[sel] - starts[sel]).sum())


def layer_metrics(log: SpanLog, first: int, last: int, counters: Counters) -> dict:
    """Per-layer metrics of one iteration, from spans ``first:last``."""
    names = np.frombuffer(log.name, dtype=np.int8)[first:last]
    starts = np.frombuffer(log.start, dtype=np.int64)[first:last]
    ends = np.frombuffer(log.end, dtype=np.int64)[first:last]
    parents = np.frombuffer(log.parent, dtype=np.int64)[first:last].copy()
    parents[parents >= 0] -= first
    dur = (ends - starts).astype(float)
    ids = {name: i for i, name in enumerate(SPAN_NAMES)}

    def named(name):
        return names == ids[name]

    def total_s(name) -> float:
        return float(dur[named(name)].sum()) * 1e-9

    cli_self = total_s(CLI) - _child_time(starts, ends, parents, named(CLI)) * 1e-9
    simulate_s = total_s(SIMULATE)
    sim_self = simulate_s - _child_time(starts, ends, parents, named(SIMULATE)) * 1e-9
    run_cri_s = total_s(RUN_CRI)
    points = dur[named(SCAN_POINT)] * 1e-9
    c = counters
    return {
        "sim.simulate_s": simulate_s,
        "sim.self_s": sim_self,
        "sim.intervals": c.intervals,
        "sim.us_per_interval": sim_self / c.intervals * 1e6 if c.intervals else 0.0,
        "sim.delay_stats_s": total_s(DELAY_STATS),
        "engines.run_cri_s": run_cri_s,
        "engines.calls": c.engine_calls,
        "engines.slots": c.engine_slots,
        "engines.us_per_slot": run_cri_s / c.engine_slots * 1e6 if c.engine_slots else 0.0,
        "engines.skipped_slots": c.engine_skipped,
        "engines.useful_ratio": (c.engine_successes / c.engine_slots
                                 if c.engine_slots else 0.0),
        "engines.memory_peak": c.engine_memory_peak,
        "rng.flips": c.flips,
        "rng.flip_s": c.flip_ns * 1e-9,
        "signals.built": c.signals,
        "analytics.scan_s": float(points.sum()),
        "analytics.table_n": c.table_n,
        "analytics.table_build_s": total_s(TABLE_BUILD),
        "analytics.point_s_p50": float(np.percentile(points, 50)) if len(points) else 0.0,
        "analytics.point_s_p95": float(np.percentile(points, 95)) if len(points) else 0.0,
        "reports.emit_s": total_s(EMIT),
        "reports.bytes": c.report_bytes,
        "reports.files": c.report_files,
        "cli.self_s": cli_self,
    }
