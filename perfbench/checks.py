"""Output checks for benchmark items.

An item passes when it wrote exactly its expected artifacts, the data
section of each matches the reference digest, every simulation report it
produced conserves packets and is not flagged unstable, and (for the
analytic items) the paper's anchors hold.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Analytic anchors at p = 1/2.
ATIC_L3 = 10.0 / 3.0
ASYMPTOTE = 0.9241962407465937          # (4/3) ln 2
SCAN_BEST_RATE = "0.924199428"          # windowed-scan maximum, 9 digits
# Artifacts carry floats at 12 significant digits.
_ARTIFACT_RTOL = 1e-11


def data_digest(path: Path) -> str:
    """sha256 of an artifact's data section.

    JSON artifacts: the canonical form of the ``data`` object.  CSV
    artifacts: everything after the provenance comment line.  The
    provenance header (seed, config hash) is left out so that a config
    field added later does not invalidate the recorded statistics.
    """
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        data = json.loads(text)["data"]
        blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    else:
        header, sep, blob = text.partition("\n")
        if not header.startswith("#") or not sep:
            raise ValueError("missing provenance header line")
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_artifacts(outdir: Path, expected: tuple, reference: dict) -> list:
    """Compare the files in ``outdir`` with the expected names and digests."""
    errors = []
    present = sorted(p.name for p in outdir.iterdir()) if outdir.is_dir() else []
    missing = sorted(set(expected) - set(present))
    extra = sorted(set(present) - set(expected))
    if missing:
        errors.append(f"missing artifacts {missing}")
    if extra:
        errors.append(f"unexpected artifacts {extra}")
    for name in sorted(set(expected) & set(present)):
        try:
            digest = data_digest(outdir / name)
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            errors.append(f"{name}: unreadable ({exc})")
            continue
        want = reference.get(name)
        if want is None:
            errors.append(f"{name}: no reference digest recorded")
        elif digest != want:
            errors.append(f"{name}: data digest {digest[:12]} != reference {want[:12]}")
    return errors


def check_reports(reports: list) -> list:
    """Packet conservation and stability of captured simulation reports."""
    errors = []
    for rep in reports:
        tag = f"{rep.protocol} {rep.policy} rate={rep.rate:g}"
        if rep.arrivals_total != rep.packets_decoded + rep.terminal_backlog:
            errors.append(
                f"{tag}: arrivals {rep.arrivals_total} != decoded "
                f"{rep.packets_decoded} + backlog {rep.terminal_backlog}")
        if rep.unstable:
            errors.append(f"{tag}: run flagged unstable")
    return errors


def _csv_rows(path: Path) -> list:
    with path.open(encoding="utf-8", newline="") as fh:
        next(fh)  # provenance header
        return list(csv.DictReader(fh))


def check_anchors(outdir: Path) -> list:
    """Paper anchors on whichever analytic artifacts ``outdir`` holds."""
    errors = []
    try:
        path = outdir / "analytic_atic.csv"
        if path.exists():
            row = next(r for r in _csv_rows(path) if r["n"] == "3")
            if not math.isclose(float(row["L_n"]), ATIC_L3, rel_tol=_ARTIFACT_RTOL):
                errors.append(f"atic L_3 = {row['L_n']}, want 10/3")
        path = outdir / "asymptote.json"
        if path.exists():
            data = json.loads(path.read_text(encoding="utf-8"))["data"]
            if data["p"] != 0.5 or not math.isclose(
                    data["throughput"], ASYMPTOTE, rel_tol=_ARTIFACT_RTOL):
                errors.append(f"asymptote at p={data['p']} is {data['throughput']}, "
                              f"want {ASYMPTOTE}")
        path = outdir / "windowed_scan.csv"
        if path.exists():
            best = max(float(r["stable_rate"]) for r in _csv_rows(path))
            if f"{best:.9f}" != SCAN_BEST_RATE:
                errors.append(f"scan best rate {best:.9f}, want {SCAN_BEST_RATE}")
    except (KeyError, ValueError, StopIteration) as exc:
        errors.append(f"anchor artifact malformed: {exc!r}")
    return errors
