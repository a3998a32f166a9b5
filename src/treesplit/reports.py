"""Deterministic report emission: CSV and JSON artifacts.

Every file is reproducible byte-for-byte from (config, seed): floats are
serialized with 12 significant digits, column order is fixed by the
caller's row dictionaries, and the header carries the seed, a hash of
the generating config and the package version, so an artifact can be
traced back to its run and to the code that wrote it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

from ._version import __version__


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


def config_digest(config: dict) -> str:
    """Stable sha256 hex digest of a config mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _provenance(seed, config) -> dict:
    return {
        "seed": seed,
        "config_sha256": config_digest(config) if config is not None else "none",
        "version": __version__,
    }


def provenance_header(comment: str, seed, config) -> str:
    """The provenance line of a text artifact, behind its comment marker."""
    meta = _provenance("none" if seed is None else seed, config)
    return comment + "".join(f" {key}={value}" for key, value in meta.items()) + "\n"


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
    buf.write(provenance_header("#", seed, config))
    if not rows:
        return buf.getvalue()
    columns = list(rows[0].keys())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def render_json(payload, *, seed=None, config=None) -> str:
    """Render a report dict or a list of row dicts to deterministic JSON text.

    One line with sorted keys: without ``indent`` the json module's C
    encoder writes it, which matters for reports of thousands of samples.
    """
    body = {"meta": _provenance(seed, config), "data": _normalize(payload)}
    return json.dumps(body, sort_keys=True) + "\n"


def write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path``, creating its directory.  Returns the
    path; raises IoError when the destination cannot be created or written.
    """
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(path, str(exc)) from None
    return path


def emit_report(payload, fmt: str, path: str, *, seed=None, config=None) -> str:
    """Write a table (iterable of dicts) or a report dict to ``path``.

    fmt is ``csv`` or ``json``.  Returns the path.  Raises IoError when
    the destination cannot be created or written.
    """
    if fmt == "csv":
        text = render_csv(payload, seed=seed, config=config)
    elif fmt == "json":
        text = render_json(payload, seed=seed, config=config)
    else:
        raise ValueError(f"unknown report format {fmt!r} (want csv or json)")
    return write_text(path, text)
