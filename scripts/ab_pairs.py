"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload gated_light \
        --pairs 10 --first-seed 901 --seconds 4

Pair i runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
from the parent checkout and from the change checkout, both on seed
S = first seed + i, so each seed is used by one pair.  The first pair
runs the parent first, and each pair after it swaps which side runs
first, so a drift of the host's speed favours neither.  For each
end-to-end metric of the parent's ``BENCHMARK.json`` it prints both
medians, the parent's interquartile range and the number of pairs the
change won (by the metric's ``better`` direction).  Bytecode is cached
in one temporary directory outside both checkouts, so both sides import
alike and the runs leave nothing in either checkout but perfbench's own
``.perfbench_out``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float, cache: str) -> dict:
    """The end-to-end metric values of one untraced perfbench run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} of {result['attempted']} "
                         f"items failed (seed {seed})")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def iqr(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs: dict = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as cache:
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(run_once(getattr(args, side).resolve(), args.workload,
                                           seed, args.seconds, cache))
            print(f"pair {i + 1} seed {seed}: " + "  ".join(
                f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}"
                for name in better), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, first side alternating, seeds "
          f"{args.first_seed}-{args.first_seed + args.pairs - 1}")
    for name, direction in better.items():
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        won = sum((c < p) if direction == "lower" else (c > p)
                  for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        shift = (c_med - p_med) / p_med * 100 if p_med else float("nan")
        print(f"  {name:12s} median {p_med:.6g} -> {c_med:.6g} ({shift:+.1f}%)  "
              f"parent IQR {iqr(parent):.4g}  change won {won}/{args.pairs} "
              f"({direction} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
