"""Deterministic report emission: CSV and JSON artifacts.

Every file is reproducible byte-for-byte from (config, seed): floats are
serialized with 12 significant digits, column order is fixed by the
caller's row dictionaries, and the header carries the seed plus a hash
of the generating config so an artifact can be traced back to its run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, is_dataclass


class IoError(RuntimeError):
    """An output path could not be written."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"cannot write {path!r}: {message}")


def _sig12(value: float) -> str:
    return format(value, ".12g")


def _normalize(value):
    """Round floats to 12 significant digits so JSON round-trips are
    idempotent (parse then serialize reproduces the bytes)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(_sig12(value))
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        # Int-only lists (delay samples, per-interval counts) have nothing
        # to round, so one copy replaces the element-by-element rebuild.
        if set(map(type, value)) <= {int}:
            return list(value)
        return [_normalize(v) for v in value]
    return value


def config_digest(config) -> str:
    """Stable sha256 hex digest of a config-like object."""
    if is_dataclass(config) and not isinstance(config, type):
        payload = asdict(config)
    elif isinstance(config, dict):
        payload = config
    else:
        payload = {"repr": repr(config)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _sig12(value)
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(_normalize(value), sort_keys=True, separators=(",", ":"))
    return "" if value is None else str(value)


def render_csv(rows, *, seed=None, config=None) -> str:
    """Render dict rows to CSV text with a provenance comment header."""
    rows = list(rows)
    buf = io.StringIO()
    digest = config_digest(config) if config is not None else "none"
    buf.write(f"# seed={'none' if seed is None else seed} config_sha256={digest}\n")
    if not rows:
        return buf.getvalue()
    columns = list(rows[0].keys())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def render_json(payload, *, seed=None, config=None) -> str:
    """Render a report object to deterministic JSON text.

    One line with sorted keys: without ``indent`` the json module's C
    encoder writes it, which matters for reports of thousands of samples.
    """
    if is_dataclass(payload) and not isinstance(payload, type):
        payload = asdict(payload)
    body = {
        "meta": {
            "seed": seed,
            "config_sha256": config_digest(config) if config is not None else "none",
        },
        "data": _normalize(payload),
    }
    return json.dumps(body, sort_keys=True) + "\n"


def emit_report(payload, fmt: str, path: str, *, seed=None, config=None) -> str:
    """Write a table (iterable of dicts) or report object to ``path``.

    fmt is ``csv`` or ``json``.  Returns the path.  Raises IoError when
    the destination cannot be created or written.
    """
    if fmt == "csv":
        text = render_csv(payload, seed=seed, config=config)
    elif fmt == "json":
        text = render_json(payload, seed=seed, config=config)
    else:
        raise ValueError(f"unknown report format {fmt!r} (want csv or json)")
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(path, str(exc)) from None
    return path
