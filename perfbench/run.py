"""Benchmark for the treesplit CLI: host time per unit of simulated or
analytic work, with every artifact checked.

Run from the repository root:

    python3 perfbench/run.py --workload gated_light --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run loads the package from ``./src``, times ``SETUP_SAMPLES`` fresh
interpreters importing it (``setup_s``), then calls the CLI entry point
in-process on the workload's commands: one untimed warm-up iteration,
then iterations on the same input until ``--seconds`` have passed.  The
load comes from this one process, without extra threads (numpy's BLAS
is pinned to one thread).  Every item (one CLI command) is checked by
``checks.py``; an item that raises, exits non-zero or writes an artifact
failing its check counts as failed, and ``error_rate`` is failed over
attempted items (reported in the ``attempted``/``failed`` fields).

End-to-end times are medians over the timed iterations, each rescaled to
a reference host speed measured by a probe loop run before and after it
(see ``PROBE_REF_S``; setup samples use an import probe instead); host
seconds are printed alongside.  With
``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics.  With ``--trace 1``, untraced and traced iterations
alternate; the per-layer metrics come from the traced ones (times in
host seconds as medians, exact counts from one iteration),
``trace.overhead_ratio`` is the traced over the untraced median time,
and the spans are written to
``.perfbench_out/spans_<workload>_seed<seed>.jsonl``.

``--workload all`` runs each workload in its own child process, so peak
memory and warm state do not carry over, and prints all their metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# One process, one thread: keep numpy's BLAS from starting worker threads
# (set before numpy is first imported, here and in the setup children).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checks import check_anchors, check_artifacts, check_reports
from spans import CLI, EXACT_COUNTS, LAYER_METRICS, Recorder, instrument, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"

MIN_ITERATIONS = 3
SETUP_SAMPLES = 9
_CHILD_TIMEOUT_S = 170

# Host-speed probe.  On a shared 2-vCPU VM the host's speed was seen to
# drift by +-25% within a minute, with no cause in the program; a fixed
# pure-Python loop run between measurements tracks that drift (its time
# correlated 0.76-0.81 with iteration times).  Every end-to-end time is
# rescaled to the reference speed, at which the probe takes PROBE_REF_S,
# by PROBE_REF_S / (mean probe time just before and just after it).
PROBE_LOOPS = 300_000
PROBE_REF_S = 0.040
# Setup times track import speed (file reads, extension loading) more than
# bytecode speed, so they are rescaled by a fresh interpreter importing a
# fixed set of standard modules instead (correlation 0.58 against 0.36).
IMPORT_PROBE_REF_S = 0.035
_IMPORT_PROBE_CODE = """\
import time
t0 = time.perf_counter()
import argparse, csv, ctypes, dataclasses, decimal, email.parser, fractions
import hashlib, json, sqlite3, typing, xml.dom.minidom
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import treesplit, treesplit.cli
treesplit.cli.build_parser()
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, or setup failed)."""


def _child_seconds(code: str, *args: str) -> float:
    """Run ``code`` in a fresh interpreter; return the seconds it prints."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def import_probe_s() -> float:
    return _child_seconds(_IMPORT_PROBE_CODE)


def probe_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += (i * 2654435761) & 0xFFFF
    return time.perf_counter() - t0


class SpeedScale:
    """Rescales times measured between probes to the reference host speed."""

    def __init__(self, probe=probe_s, ref_s: float = PROBE_REF_S):
        self.probe = probe
        self.ref_s = ref_s
        self.last = probe()
        self.factors: list = []

    def rescale(self, raw_s: float) -> float:
        after = self.probe()
        factor = self.ref_s / ((self.last + after) / 2.0)
        self.last = after
        self.factors.append(factor)
        return raw_s * factor


def measure_setup() -> float:
    """Median seconds, at reference import speed, for a fresh interpreter to
    import treesplit (with numpy and scipy) and build the CLI parser.  An
    extra first spawn, not counted, writes bytecode and warms the file cache."""
    samples = []
    speed = SpeedScale(import_probe_s, IMPORT_PROBE_REF_S)
    for _ in range(SETUP_SAMPLES + 1):
        samples.append(speed.rescale(_child_seconds(_SETUP_CODE, str(SRC))))
    return statistics.median(samples[1:])


def import_cli():
    """Import ``treesplit.cli`` from this checkout's sources."""
    if not (SRC / "treesplit" / "__init__.py").is_file():
        raise BenchError(f"no treesplit sources under {SRC}; run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import treesplit.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"treesplit imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Iteration:
    wall_s: float = 0.0     # host seconds
    ref_s: float = 0.0      # the same, rescaled to the reference speed
    work: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


class Runner:
    """Runs one workload input through the CLI and checks its artifacts."""

    def __init__(self, cli, workload, seed: int, workdir: Path, reference: dict):
        self.cli = cli
        self.index = workload.input_index(seed)
        self.items = workload.items(self.index)
        self.workdir = workdir
        self.reference = reference.get(workload.name, {}).get(str(self.index), {})
        self.speed = SpeedScale()

    def iteration(self, recorder: Recorder | None = None) -> Iteration:
        result = Iteration()
        for k, item in enumerate(self.items):
            outdir = self.workdir / f"item{k}"
            run = execute(self.cli, item, outdir, recorder)
            result.ref_s += self.speed.rescale(run.wall_s)
            result.wall_s += run.wall_s
            work, errors = self._check_item(item, outdir, run)
            result.work += work
            result.attempted += 1
            if errors:
                result.failed += 1
                result.errors.extend(f"{item.argv[0]}: {e}" for e in errors)
            shutil.rmtree(outdir, ignore_errors=True)
        return result

    def _check_item(self, item, outdir: Path, run):
        if run.code is None:
            return 0, [f"raised:\n{run.output}"]
        errors = []
        if run.code != 0:
            errors.append(f"exit code {run.code}: {run.output.strip()[-500:]}")
        errors += check_artifacts(outdir, item.artifacts, self.reference)
        errors += check_reports(run.reports)
        if item.anchors:
            errors += check_anchors(outdir)
        work = sum(r.slots_simulated for r in run.reports) + item.loads
        return work, errors


@dataclass
class Execution:
    wall_s: float
    code: int | None        # None when the command raised
    output: str             # captured stdout and stderr, or the traceback
    reports: list           # MetricsReport of every simulation run


def execute(cli, item, outdir: Path, recorder: Recorder | None = None) -> Execution:
    """Run one CLI command in-process into a fresh ``outdir``, timing it
    and capturing the simulation reports it produced."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    argv = [*item.argv, "--outdir", str(outdir)]
    reports = []
    simulate = cli.simulate

    def capture(*args, **kwargs):
        report = simulate(*args, **kwargs)
        reports.append(report)
        return report

    sink = io.StringIO()
    crash = None
    cli.simulate = capture
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = time.perf_counter()
            span = recorder.log.open(CLI) if recorder else None
            try:
                code = cli.entrypoint(argv)
            except Exception:  # an item failure, recorded and counted
                code, crash = None, traceback.format_exc()
            finally:
                if recorder:
                    recorder.log.close(span)
            wall = time.perf_counter() - t0
    finally:
        cli.simulate = simulate
    return Execution(wall, code, crash or sink.getvalue(), reports)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, it: Iteration) -> Iteration:
        self.attempted += it.attempted
        self.failed += it.failed
        for line in it.errors[:5]:
            print(f"perfbench: item failed: {line}", file=sys.stderr)
        return it


def _keep_going(t_end: float, done: int) -> bool:
    return done < MIN_ITERATIONS or time.perf_counter() < t_end


def bench_untraced(runner: Runner, tally: Tally, seconds: float, unit: str) -> dict:
    raw, scaled, rates = [], [], []
    t_end = time.perf_counter() + seconds
    while _keep_going(t_end, len(raw)):
        it = tally.add(runner.iteration())
        raw.append(it.wall_s)
        scaled.append(it.ref_s)
        rates.append(it.work / it.ref_s)
    speed = statistics.median(runner.speed.factors)
    print(f"  wall_s       {statistics.median(scaled):.4f} s   (reference speed, median of "
          f"{len(raw)} iterations; host seconds {statistics.median(raw):.4f}, "
          f"probe took {1 / speed:.2f}x its reference time)")
    print(f"  work_per_s   {statistics.median(rates):.6g} 1/s ({unit}_per_s at reference speed)")
    return {
        "wall_s": statistics.median(scaled),
        "work_per_s": statistics.median(rates),
    }


def bench_traced(runner: Runner, tally: Tally, seconds: float, span_path: Path) -> dict:
    recorder = Recorder()
    plain, traced, layers, ranges = [], [], [], []
    t_end = time.perf_counter() + seconds
    while _keep_going(t_end, len(traced)):
        plain.append(tally.add(runner.iteration()).ref_s)
        with instrument(recorder):
            first = len(recorder.log)
            traced.append(tally.add(runner.iteration(recorder)).ref_s)
            ranges.append([first, len(recorder.log)])
        layers.append(layer_metrics(recorder.log, first, len(recorder.log), recorder.take()))

    metrics = {}
    for name in LAYER_METRICS:
        if name in EXACT_COUNTS:
            values = {layer[name] for layer in layers}
            if len(values) != 1:
                tally.failed += 1
                print(f"perfbench: count {name} differs between iterations "
                      f"of one input: {sorted(values)}", file=sys.stderr)
            metrics[name] = layers[0][name]
        elif name != "trace.overhead_ratio":
            metrics[name] = statistics.median(layer[name] for layer in layers)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    recorder.log.write(span_path, ranges)
    print(f"  {len(traced)} traced and {len(plain)} untraced iterations; "
          f"{len(recorder.log)} spans written to {span_path.relative_to(ROOT)}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    cli = import_cli()
    setup_s = None if trace else measure_setup()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_ROOT))
    try:
        runner = Runner(cli, workload, seed, workdir, reference)
        source = (f"input {runner.index} of the seed pool" if workload.seeded
                  else "fixed input")
        print(f"workload {name}: {workload.summary}; {source} (seed {seed})")
        tally = Tally()
        tally.add(runner.iteration())  # warm-up: checked, not timed
        if trace:
            span_path = OUT_ROOT / f"spans_{name}_seed{seed}.jsonl"
            values = bench_traced(runner, tally, seconds, span_path)
            units = LAYER_METRICS
        else:
            values = bench_untraced(runner, tally, seconds, workload.work_unit)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            print(f"  setup_s      {setup_s:.4f} s   (reference speed, median of "
                  f"{SETUP_SAMPLES} fresh interpreters)")
            print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MiB")
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"  error_rate   {tally.failed / tally.attempted:.4g} "
          f"({tally.failed} of {tally.attempted} items failed)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own interpreter; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=_CHILD_TIMEOUT_S + 3 * args.seconds)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
