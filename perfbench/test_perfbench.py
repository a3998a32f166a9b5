"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checks import check_anchors, check_reports
from spans import EXACT_COUNTS, LAYER_METRICS
from workloads import WORKLOADS

RUN_PY = Path(run.__file__).resolve()


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(RUN_PY), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture
def reference():
    return json.loads(run.REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_across_runs(workload):
    results = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(LAYER_METRICS)
    counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in results]
    assert counts[0] == counts[1]
    layer = "analytics.table_n" if workload == "analytic_scan" else "engines.slots"
    assert counts[0][layer] > 0


def test_corrupted_artifact_is_counted(cli, reference, tmp_path, monkeypatch):
    runner = run.Runner(cli, WORKLOADS["gated_light"], 7, tmp_path, reference)
    tally = run.Tally()
    assert tally.add(runner.iteration()).failed == 0

    emit = cli.emit_report

    def emit_then_corrupt(*args, **kwargs):
        path = Path(emit(*args, **kwargs))
        header, body = path.read_text().split("\n", 1)
        path.write_text(header + "\n" + body.replace("0.", "1.", 1))
        return str(path)

    monkeypatch.setattr(cli, "emit_report", emit_then_corrupt)
    it = tally.add(runner.iteration())
    assert it.attempted == it.failed == 1
    assert any("digest" in e for e in it.errors)
    assert tally.failed / tally.attempted == 0.5


def test_report_invariants_are_checked(cli):
    from treesplit import MetricsReport

    good = MetricsReport("atic", "gated", 0.5, 100, 1, arrivals_total=10,
                         packets_decoded=8, terminal_backlog=2)
    assert check_reports([good]) == []
    lost = MetricsReport("atic", "gated", 0.5, 100, 1, arrivals_total=10,
                         packets_decoded=8, terminal_backlog=1)
    unstable = MetricsReport("atic", "gated", 0.5, 100, 1, unstable=True)
    assert len(check_reports([lost, unstable])) == 2


def test_anchor_violation_is_caught(cli, tmp_path):
    item = WORKLOADS["analytic_scan"].items(0)[0]
    run.execute(cli, item, tmp_path)
    assert check_anchors(tmp_path) == []
    path = tmp_path / "windowed_scan.csv"
    path.write_text(path.read_text().replace("0.924199428", "0.924199999"))
    assert check_anchors(tmp_path)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(RUN_PY.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gated_light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
