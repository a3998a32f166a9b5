"""Benchmark workloads: the CLI commands each one runs for an input seed.

Each workload is a batch job made of CLI commands ("items").  One
iteration runs every item once; a benchmark run repeats the iteration on
the same input until its measuring time is used up.

Stochastic workloads draw their input from a pool of ``POOL_SIZE`` CLI
seeds: benchmark seed ``s`` selects pool entry ``s % POOL_SIZE``.  The
pool is finite so that every input has a reference digest recorded in
``reference_digests.json`` (see ``record_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

POOL_SIZE = 32
_CLI_SEED_BASE = 1000

# Slot budgets per simulation run, chosen so one iteration takes about a
# second on a 2-core x86 host and a run holds at least ten iterations.
GATED_BUDGET = 5_000
WINDOWED_BUDGET = 20_000

SCAN_POINTS = 241


@dataclass(frozen=True)
class Item:
    """One CLI command and the artifacts it must write."""

    argv: tuple
    artifacts: tuple
    loads: int = 0          # window loads the command evaluates
    anchors: bool = False   # check the analytic anchors on its artifacts


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str          # "slots" (simulated) or "loads" (evaluated)
    seeded: bool
    summary: str
    make_items: Callable    # CLI seed -> list of Item

    def input_index(self, seed: int) -> int:
        return seed % POOL_SIZE if self.seeded else 0

    def items(self, index: int) -> list:
        return self.make_items(_CLI_SEED_BASE + index)


def _gated_light(cli_seed: int) -> list:
    return [Item(
        ("sweep", "--protocols", "atic,sicta", "--policy", "gated",
         "--rates", "0.1,0.3,0.5", "--budget", str(GATED_BUDGET),
         "--seed", str(cli_seed)),
        ("delay.csv",),
    )]


_WINDOWED_PROTOCOLS = ("bta", "mta", "sicta", "atic", "atic_left")


def _windowed_batch(cli_seed: int) -> list:
    per_run = tuple(f"sim_{proto}_windowed-40_0p3.json"
                    for proto in _WINDOWED_PROTOCOLS)
    return [Item(
        ("compare", "--protocols", ",".join(_WINDOWED_PROTOCOLS),
         "--policy", "windowed:40", "--rates", "0.3",
         "--budget", str(WINDOWED_BUDGET), "--seed", str(cli_seed)),
        per_run + ("compare.csv",),
    )]


def _analytic_scan(cli_seed: int) -> list:
    del cli_seed  # analytic commands are deterministic
    return [
        Item(("windowed-scan", "--load-min", "0.1", "--load-max", "10000",
              "--points", str(SCAN_POINTS)),
             ("windowed_scan.csv",), loads=SCAN_POINTS, anchors=True),
        Item(("analytic", "--protocols", "bta,mta,sicta,atic", "--n-max", "40"),
             tuple(f"analytic_{proto}.csv"
                   for proto in ("bta", "mta", "sicta", "atic")),
             anchors=True),
        Item(("asymptote", "--p-grid", "0.40:0.60:0.005"),
             ("asymptote.json",), anchors=True),
    ]


WORKLOADS = {
    "gated_light": Workload(
        "gated_light", "slots", True,
        f"sweep atic,sicta gated at rates 0.1,0.3,0.5: 6 runs of "
        f"{GATED_BUDGET} slots", _gated_light),
    "windowed_batch": Workload(
        "windowed_batch", "slots", True,
        f"compare bta,mta,sicta,atic,atic_left windowed:40 at rate 0.3: "
        f"5 runs of {WINDOWED_BUDGET} slots", _windowed_batch),
    "analytic_scan": Workload(
        "analytic_scan", "loads", False,
        f"windowed-scan over {SCAN_POINTS} loads in [0.1, 1e4], "
        f"analytic n<=40 for bta,mta,sicta,atic, asymptote", _analytic_scan),
}
