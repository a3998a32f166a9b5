"""Experiment configuration: JSON files, validation, CLI merging.

A config describes one batch experiment: which protocols to run, the
access policy, the traffic grid, and the reproducibility seed.  Files
are plain JSON objects; command-line flags always win over file values.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace

from .engines import ProtocolKind
from .sim import _window_length

ENV_OUTDIR = "TREESPLIT_OUTDIR"

_PROTOCOLS = tuple(kind.value for kind in ProtocolKind)

_DEFAULT_BUDGET = 100_000
_DEFAULT_BITS = 256
# Most points a start:stop:step grid may expand to.
_GRID_MAX_POINTS = 100_000


class ConfigError(ValueError):
    """A config value is missing, malformed, or out of range.

    Carries the offending field name so front ends can point at it.
    """

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


def parse_grid(text: str, field_name: str = "grid") -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive stop, within half a step) or a
    comma-separated list into a tuple of floats."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(field_name, f"expected start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError:
            raise ConfigError(field_name, f"non-numeric bound in {text!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(field_name, f"non-finite bound in {text!r}")
        if step <= 0:
            raise ConfigError(field_name, f"step must be > 0, got {step}")
        if stop < start:
            raise ConfigError(field_name, f"stop {stop} below start {start}")
        count = (stop - start) / step + 0.5
        if not count < _GRID_MAX_POINTS:
            raise ConfigError(field_name, f"{text!r} spans more than {_GRID_MAX_POINTS} points")
        values = tuple(start + i * step for i in range(int(count) + 1))
        return tuple(v for v in values if v <= stop + step * 1e-9)
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ConfigError(field_name, f"non-numeric entry in {text!r}") from None
    if not values:
        raise ConfigError(field_name, "empty grid")
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment batch."""

    protocols: tuple[str, ...] = ("atic",)
    policy: str = "gated"
    p: float = 0.5
    rates: tuple[float, ...] = ()
    budget: int = _DEFAULT_BUDGET
    seed: int | None = None
    outdir: str = field(default_factory=lambda: os.environ.get(ENV_OUTDIR, "."))
    packet_bits: int = _DEFAULT_BITS
    replications: int = 1

    def validate(self) -> "ExperimentConfig":
        if not self.protocols:
            raise ConfigError("protocols", "at least one protocol required")
        for name in self.protocols:
            if name not in _PROTOCOLS:
                raise ConfigError(
                    "protocols", f"unknown protocol {name!r}; choices: {_PROTOCOLS}"
                )
        if len(set(self.protocols)) != len(self.protocols):
            raise ConfigError("protocols", f"repeated protocol in {self.protocols}")
        try:
            _window_length(self.policy)
        except ValueError as exc:
            raise ConfigError("policy", str(exc)) from None
        if not 0.0 < self.p < 1.0:
            raise ConfigError("p", f"split probability must lie in (0,1), got {self.p}")
        for lam in self.rates:
            if not (math.isfinite(lam) and lam >= 0):
                raise ConfigError("rates", f"arrival rate must be finite and >= 0, got {lam}")
        if len(set(self.rates)) != len(self.rates):
            raise ConfigError("rates", f"repeated rate in {self.rates}")
        if self.budget < 1:
            raise ConfigError("budget", f"slot budget must be >= 1, got {self.budget}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed", f"seed must be >= 0, got {self.seed}")
        if self.packet_bits < 1:
            raise ConfigError("packet_bits", f"must be >= 1, got {self.packet_bits}")
        if self.replications < 1:
            raise ConfigError("replications", f"must be >= 1, got {self.replications}")
        return self

    def require_seed(self) -> int:
        """Stochastic commands refuse to run without an explicit seed."""
        if self.seed is None:
            raise ConfigError("seed", "stochastic runs need an explicit seed")
        return self.seed

    def merged(self, **overrides) -> "ExperimentConfig":
        """Return a copy with non-None overrides applied (CLI wins)."""
        actual = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **actual).validate()


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}

_COERCERS = {
    "protocols": lambda v, f: _as_str_tuple(v, f),
    "policy": lambda v, f: _as_type(v, str, f),
    "p": lambda v, f: _as_float(v, f),
    "rates": lambda v, f: _as_float_tuple(v, f),
    "budget": lambda v, f: _as_int(v, f),
    "seed": lambda v, f: None if v is None else _as_int(v, f),
    "outdir": lambda v, f: _as_type(v, str, f),
    "packet_bits": lambda v, f: _as_int(v, f),
    "replications": lambda v, f: _as_int(v, f),
}


def _as_type(value, kind, field_name):
    if not isinstance(value, kind):
        raise ConfigError(field_name, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _as_float(value, field_name) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field_name, f"expected number, got {type(value).__name__}")
    return float(value)


def _as_int(value, field_name) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(field_name, f"expected integer, got {value!r}")
    return value


def _as_str_tuple(value, field_name) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(x.strip() for x in value.split(",") if x.strip())
    if isinstance(value, (list, tuple)):
        return tuple(_as_type(x, str, field_name) for x in value)
    raise ConfigError(field_name, f"expected list of strings, got {type(value).__name__}")


def _as_float_tuple(value, field_name) -> tuple[float, ...]:
    if isinstance(value, str):
        return parse_grid(value, field_name)
    if isinstance(value, (list, tuple)):
        return tuple(_as_float(x, field_name) for x in value)
    return (_as_float(value, field_name),)


def config_from_mapping(raw: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", f"config must be a JSON object, got {type(raw).__name__}")
    kwargs = {}
    for key, value in raw.items():
        if key not in _FIELD_NAMES:
            raise ConfigError(key, "unknown config field")
        kwargs[key] = _COERCERS[key](value, key)
    return ExperimentConfig(**kwargs).validate()


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file.

    Missing fields fall back to defaults (p=0.5, packet_bits=256,
    budget=1e5).  Any parse or range problem raises ConfigError naming
    the offending field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<path>", f"no such config file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"invalid JSON in {path}: {exc}") from None
    return config_from_mapping(raw)
