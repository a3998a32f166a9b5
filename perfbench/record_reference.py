"""Record the reference digests the benchmark checks artifacts against.

Run from the repository root on a commit whose outputs are known good:

    python3 perfbench/record_reference.py

It runs every workload on every input of the seed pool once, refuses to
record if any command fails, loses packets, flags a run unstable or
misses an analytic anchor, and writes ``perfbench/reference_digests.json``
mapping workload -> input index -> artifact -> data digest.  A change
meant only to make the program faster must leave these digests intact.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import check_anchors, check_reports, data_digest
from run import OUT_ROOT, REFERENCE, execute, import_cli
from workloads import POOL_SIZE, WORKLOADS


def record(cli, workdir: Path) -> dict:
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for index in sorted({workload.input_index(seed) for seed in range(POOL_SIZE)}):
            digests = {}
            for k, item in enumerate(workload.items(index)):
                outdir = workdir / f"{name}-{index}-{k}"
                run = execute(cli, item, outdir)
                errors = [] if run.code == 0 else [f"exit {run.code}: {run.output}"]
                errors += check_reports(run.reports)
                if item.anchors:
                    errors += check_anchors(outdir)
                written = sorted(p.name for p in outdir.iterdir())
                if written != sorted(item.artifacts):
                    errors.append(f"wrote {written}, expected {sorted(item.artifacts)}")
                if errors:
                    raise SystemExit(f"{name} input {index}: {errors}")
                digests.update({f: data_digest(outdir / f) for f in item.artifacts})
            reference[name][str(index)] = digests
            print(f"{name} input {index}: {len(digests)} artifacts")
    return reference


def main() -> int:
    cli = import_cli()
    OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=OUT_ROOT))
    try:
        reference = record(cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
