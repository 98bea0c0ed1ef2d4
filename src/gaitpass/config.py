"""Run configuration: YAML file plus command-line overrides.

``KEYS`` maps every dotted key to its type, default and bounds.  A config
is checked against it when it loads, every key it holds, read by a command
or not; commands then read ``config["hca.h_feet"]``.  The mapping (minus
the output directory) is embedded verbatim in every run manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError, DataError
from .ingest import read_file
from .passtensor import MIN_BINS

REQUIRED = object()  # the default of a key a command cannot run without


@dataclass(frozen=True)
class Key:
    """A key's type, default and bounds: ``lo``/``hi`` inclusive, ``above``/
    ``below`` open.  A list holds ``length`` (fewest, most) ``item`` values,
    each within the bounds."""

    type: type | tuple
    default: object = None
    lo: float | None = None
    hi: float | None = None
    above: float | None = None
    below: float | None = None
    choices: tuple = ()
    item: type | None = None
    length: tuple = (0, math.inf)


KEYS = {
    "dataset.kind": Key(str, REQUIRED, choices=("synthetic", "marea", "hugadb")),
    "dataset.subjects": Key(dict, REQUIRED),
    "dataset.cycles": Key(int, 60, lo=1),
    "dataset.period_mean": Key(float, 128.0, lo=8.0),
    "dataset.period_jitter": Key(float, 2.0, lo=0.0),
    "dataset.sensors": Key((int, list)),
    "dataset.noise": Key(float, 0.03, lo=0.0),
    "dataset.phases": Key(int, 6, lo=2),
    "window": Key(list, item=int, length=(2, 2), lo=0),
    "coding.alpha": Key(float, 0.3, above=0.0, below=0.5),
    "coding.beta": Key(float, 0.7, above=0.5, below=1.0),
    "pssa.n_states": Key(int, lo=1),
    "pssa.coverage": Key(float, above=0.0, hi=1.0),
    "pssa.segment_length": Key(int, 1000, lo=1),
    "pssa.model": Key(str, REQUIRED),
    "pssa.coding": Key(str, REQUIRED),
    "hca.h_feet": Key(int, 10, lo=1),
    "hca.h_extra": Key(int, 8, lo=1),
    "hca.max_fit_columns": Key(int, 20000, lo=8),
    "complexity.sensor": Key(str),  # the first sensor when unset
    "complexity.h_sweep": Key(list, tuple(range(2, 28)), lo=1, item=int,
                              length=(1, math.inf)),
    "cycles.left": Key(str),  # the first sensor when unset
    "cycles.right": Key(str),  # the second sensor when unset
    "cycles.extra": Key(list, (), item=str),
    "cycles.min_runs": Key(int, 5, lo=1),
    "passtensor.bins": Key(int, 128, lo=MIN_BINS),
    "passtensor.cycle_range": Key(list, item=int, length=(2, 2)),
    "passtensor.compare": Key(list, REQUIRED, item=str, length=(2, 2)),
    "render.passtensor": Key(str, REQUIRED),
    "render.view": Key(str, "unrolled", choices=("unrolled", "isometric", "both")),
    "render.ring_cycle": Key(int, lo=0),
    "output_dir": Key(str, "out"),
}

_NOUNS = {str: "a string", list: "a list", dict: "a mapping",
          (int, list): "a count or a list"}


class RunConfig:
    """A config mapping, checked against ``KEYS`` when it is made.

    ``sha256`` is the hash of the file the mapping was parsed from.
    """

    def __init__(self, data: dict, sha256: str | None = None):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        sections = list(dict.fromkeys(path.split(".")[0] for path in KEYS))
        unknown = sorted(set(data) - set(sections), key=str)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; known: {sections}")
        self._values = {}
        for section, body in data.items():
            if section in KEYS:  # a section that is a value itself
                entries = {section: body}
            elif isinstance(body, (dict, type(None))):
                entries = {f"{section}.{k}": v for k, v in (body or {}).items()}
            else:
                raise ConfigError(f"{section}: expected a mapping, got {body!r}")
            for path, value in entries.items():
                if path not in KEYS:
                    known = [p for p in KEYS if p.startswith(section + ".")]
                    raise ConfigError(f"unknown config key {path}; known: {known}")
                if value is not None:
                    self._values[path] = _checked(path, KEYS[path], value)
        self.data = data
        self.sha256 = sha256

    def __getitem__(self, path: str):
        """The checked value of ``path``, or its default when it is unset."""
        value = self._values.get(path, KEYS[path].default)
        if value is REQUIRED:
            raise ConfigError(f"{path}: required key is missing")
        return value

    def manifest_parameters(self) -> dict:
        """Resolved config without the output directory."""
        return {k: v for k, v in self.data.items() if k != "output_dir"}


def _checked(path: str, key: Key, value, kind=None):
    kind = kind or key.type
    if kind is int:
        return checked_int(path, value, key.lo, key.hi)
    if kind is float:
        return checked_float(path, value, key.lo, key.hi, key.above, key.below)
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: expected {_NOUNS[kind]}, got {value!r}")
    if kind is list:
        fewest, most = key.length
        if not fewest <= len(value) <= most:
            count = fewest if fewest == most else f"at least {fewest}"
            raise ConfigError(f"{path}: expected {count} values, got {value!r}")
        return [_checked(path, key, item, key.item) for item in value]
    if key.choices and value not in key.choices:
        raise ConfigError(f"{path}: {value!r} not one of {list(key.choices)}")
    return value


def checked_int(path: str, value, lo=None, hi=None) -> int:
    """``value`` if it is an integer in ``[lo, hi]``; booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return _in_range(path, value, lo, hi)


def checked_float(path: str, value, lo=None, hi=None, above=None, below=None) -> float:
    """``value`` as a float if it is a finite number within the bounds.

    ``lo`` and ``hi`` are inclusive, ``above`` and ``below`` exclusive.
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
    _in_range(path, number, lo, hi)
    if above is not None and not number > above:
        raise ConfigError(f"{path}: {number} must be above {above}")
    if below is not None and not number < below:
        raise ConfigError(f"{path}: {number} must be below {below}")
    return number


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
    try:
        text, sha256 = read_file(path)
    except DataError as exc:  # a config error (exit 2), named by its cause
        cause = exc.__cause__
        raise ConfigError(f"cannot read config {path}: {cause}") from cause
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
    return RunConfig(data, sha256)
