"""Run configuration: YAML file plus command-line overrides.

A config is a nested mapping validated lazily through typed getters, so
error messages always carry the dotted key path.  The resolved mapping
(minus the output directory) is embedded verbatim in every run manifest.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import yaml

from .errors import ConfigError

# The keys each section may hold; None marks a section that is a value
# itself.  ``dataset.subjects`` is free-form below its own level.
KNOWN_KEYS = {
    "dataset": (
        "kind", "subjects", "cycles", "period_mean", "period_jitter",
        "sensors", "noise", "phases",
    ),
    "window": None,
    "coding": ("alpha", "beta"),
    "pssa": (
        "n_states", "coverage", "segment_length", "model", "coding",
    ),
    "hca": ("h_feet", "h_extra", "standardize", "max_fit_columns"),
    "complexity": ("sensor", "h_sweep"),
    "cycles": ("left", "right", "extra", "min_runs"),
    "passtensor": ("bins", "cycle_range", "compare"),
    "render": ("passtensor", "view", "ring_cycle"),
    "output_dir": None,
}

_MISSING = object()


class RunConfig:
    """Nested mapping with dotted-path typed access."""

    def __init__(self, data: dict, source: Path | None = None):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        unknown = sorted(set(data) - set(KNOWN_KEYS), key=str)
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; known: {list(KNOWN_KEYS)}"
            )
        for section, keys in KNOWN_KEYS.items():
            body = data.get(section)
            if keys is None or body is None:
                continue
            if not isinstance(body, dict):
                raise ConfigError(f"{section}: expected a mapping, got {body!r}")
            for key in body:
                if key not in keys:
                    raise ConfigError(
                        f"unknown config key {section}.{key}; "
                        f"{section} holds {list(keys)}"
                    )
        self.data = data
        self.source = source

    def _lookup(self, path: str):
        node = self.data
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                return _MISSING
            node = node[part]
        return node

    def _require(self, path: str, default):
        value = self._lookup(path)
        if value is _MISSING or value is None:
            if default is _MISSING:
                raise ConfigError(f"{path}: required key is missing")
            return default
        return value

    def get_str(self, path: str, default=_MISSING, choices=None) -> str:
        value = self._require(path, default)
        if value is None:
            return value
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(f"{path}: {value!r} not one of {list(choices)}")
        return value

    def get_bool(self, path: str, default=_MISSING) -> bool:
        value = self._require(path, default)
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value

    def get_int(self, path: str, default=_MISSING, lo=None, hi=None) -> int:
        value = self._require(path, default)
        return value if value is None else checked_int(path, value, lo, hi)

    def get_float(self, path: str, default=_MISSING, lo=None) -> float:
        value = self._require(path, default)
        return value if value is None else checked_float(path, value, lo)

    def get_list(self, path: str, default=_MISSING) -> list:
        value = self._require(path, default)
        if value is not None and not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return value

    def get_int_pair(self, path: str, default=_MISSING) -> list[int]:
        """A two-integer list such as ``[start, stop]``; booleans are refused."""
        value = self.get_list(path, default)
        if value is not None and (
            len(value) != 2 or not all(type(v) is int for v in value)
        ):
            raise ConfigError(f"{path}: expected two integers, got {value!r}")
        return value

    def get_map(self, path: str) -> dict:
        value = self._require(path, _MISSING)
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a mapping, got {value!r}")
        return value

    def manifest_parameters(self) -> dict:
        """Resolved config without the output directory."""
        return {k: v for k, v in self.data.items() if k != "output_dir"}


def checked_int(path: str, value, lo=None, hi=None) -> int:
    """``value`` if it is an integer in ``[lo, hi]``; booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return _in_range(path, value, lo, hi)


def checked_float(path: str, value, lo=None) -> float:
    """``value`` as a float if it is a finite number of at least ``lo``.

    Booleans, NaN and infinities are refused.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return _in_range(path, number, lo, None)


def _in_range(path: str, value, lo, hi):
    if lo is not None and value < lo:
        raise ConfigError(f"{path}: {value} below minimum {lo}")
    if hi is not None and value > hi:
        raise ConfigError(f"{path}: {value} above maximum {hi}")
    return value


def _apply_override(data: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(
            f"override {assignment!r} must look like section.key=value"
        )
    path, raw = assignment.split("=", 1)
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {path}: unparseable value {raw!r}") from exc
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        if not isinstance(nxt, dict):
            raise ConfigError(f"override {path}: {part} is not a mapping")
        node = nxt
    node[parts[-1]] = value


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    for assignment in overrides or []:
        _apply_override(data, assignment)
    return RunConfig(data, source=path)


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
