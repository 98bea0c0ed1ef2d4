"""Loading and validation of multi-sensor accelerometer recordings.

Two dataset text layouts are supported (per-subject plain-text exports with
one sample per row), plus a synthetic walker generator whose ground-truth
cycle boundaries are returned alongside the signal.  All loaders produce a
:class:`TimeSeriesFrame`: a dense 3S x T matrix holding the X, Y and Z rows
of each of S named sensors.

A dataset table follows one grammar (``docs/file-formats.md``, "Input
tables") and is read by one ``np.loadtxt`` call; a table it rejects is
walked line by line only to name the failing line and column.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

AXES = ("X", "Y", "Z")

# Column layout of a headerless MAREA text export: four sensors, three axes
# each, in this fixed order.  A header row naming channels overrides it.
MAREA_SENSORS = ("LF", "RF", "Waist", "Wrist")
MAREA_SAMPLE_RATE_HZ = 128.0
MAREA_HEADER = tuple(
    f"{sensor}_{axis}" for sensor in MAREA_SENSORS for axis in AXES
)

# HuGaDB files carry a header; only the six accelerometer triples are kept.
HUGADB_SENSORS = ("rf", "rs", "rt", "lf", "ls", "lt")
HUGADB_SAMPLE_RATE_HZ = 60.0


@dataclass(frozen=True, eq=False)
class TimeSeriesFrame:
    """A 3S x T matrix: rows 3i, 3i + 1, 3i + 2 hold X, Y, Z of ``sensors[i]``."""

    values: np.ndarray
    sensors: tuple[str, ...]
    sample_rate_hz: float

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        sensors = tuple(str(s) for s in self.sensors)
        if not sensors or values.ndim != 2 or values.shape[1] < 1:
            raise ValueError("a frame needs at least one sensor and one sample")
        if values.shape[0] != 3 * len(sensors):
            raise ValueError(f"{values.shape[0]} rows for {len(sensors)} X/Y/Z sensors")
        if len(set(sensors)) != len(sensors):
            raise ValueError(f"sensor named twice in {sensors}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values contain NaN or Inf")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sensors", sensors)

    @property
    def channels(self) -> tuple[tuple[str, str], ...]:
        """The ``(sensor, axis)`` label of each row."""
        return tuple((sensor, axis) for sensor in self.sensors for axis in AXES)

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def sensor(self, name: str) -> "TimeSeriesFrame":
        """One sensor's X, Y and Z rows as a one-sensor frame.

        A row gather, not a slice: the copy is C-ordered whatever this
        frame's layout, so code-book statistics over it round alike.
        """
        if name not in self.sensors:
            raise KeyError(f"frame has no sensor {name!r}")
        i = self.sensors.index(name)
        return TimeSeriesFrame(
            values=self.values[3 * i + np.arange(3)],
            sensors=(name,),
            sample_rate_hz=self.sample_rate_hz,
        )

    def window(self, start: int, stop: int) -> "TimeSeriesFrame":
        """Slice samples ``[start, stop)`` into a new frame."""
        if not 0 <= start < stop <= self.n_samples:
            raise ValueError(
                f"window [{start}, {stop}) outside 0..{self.n_samples}"
            )
        return TimeSeriesFrame(
            values=self.values[:, start:stop],
            sensors=self.sensors,
            sample_rate_hz=self.sample_rate_hz,
        )


# ---------------------------------------------------------------------------
# text files: one loader and one line cursor shared by every reader
# ---------------------------------------------------------------------------

def read_file(path: str | Path) -> tuple[str, str]:
    """The text of the file at ``path`` and the sha256 of the bytes it was
    decoded from.

    The bytes are decoded as ``Path.read_text`` decodes them: in the
    locale's encoding, with universal newlines.  An unreadable or
    undecodable file raises :class:`DataError` naming it.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
        text = io.TextIOWrapper(io.BytesIO(raw)).read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return text, hashlib.sha256(raw).hexdigest()


def parse_file(path: str | Path, parse, text: str | None = None):
    """Return ``parse`` of the text of the file at ``path``.

    The file is read here unless its ``text`` is given, as ``read_file``
    returns it.  An unreadable file, and any :class:`DataError` or
    ``ValueError`` the parser raises, becomes a :class:`DataError` naming
    the file.
    """
    path = Path(path)
    if text is None:
        text, _ = read_file(path)
    try:
        return parse(text)
    except (DataError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


# Integers in persisted files must fit the int64 arrays they are read into.
_INT64 = np.iinfo(np.int64)


class LineReader:
    """Cursor over the lines of a persisted text format.

    The first line must equal ``magic``.  Each read consumes one line; a
    missing line, an unexpected key, a malformed number or a float that is
    not finite raises :class:`DataError` naming the 1-based line.
    """

    def __init__(self, text: str, magic: str) -> None:
        self._lines = text.splitlines()
        self._at = 1
        if not self._lines or self._lines[0] != magic:
            raise self.error(f"not a {magic!r} file")

    def error(self, message: str) -> DataError:
        return DataError(f"line {self._at}: {message}")

    def line(self) -> str:
        self._at += 1
        if self._at > len(self._lines):
            raise self.error("file ends early")
        return self._lines[self._at - 1]

    def rest(self, key: str) -> str:
        """Everything after ``key`` and one space on the next line."""
        line = self.line()
        if line != key and not line.startswith(key + " "):
            raise self.error(f"expected {key!r}")
        return line[len(key) + 1 :]

    def fields(self, key: str | None = None, count: int | None = None) -> list[str]:
        """The next line's tokens, after a leading ``key`` when one is given."""
        tokens = self.line().split()
        if key is not None:
            if not tokens or tokens[0] != key:
                raise self.error(f"expected {key!r}")
            tokens = tokens[1:]
        if count is not None and len(tokens) != count:
            raise self.error(f"expected {count} values, found {len(tokens)}")
        return tokens

    def numbers(self, tokens: list[str], kind=float) -> list:
        try:
            values = [kind(token) for token in tokens]
        except ValueError as exc:
            raise self.error(str(exc)) from None
        if kind is int:
            for token, value in zip(tokens, values):
                if not _INT64.min <= value <= _INT64.max:
                    raise self.error(f"integer {token!r} does not fit in 64 bits")
        elif kind is float:
            for token, value in zip(tokens, values):
                if not math.isfinite(value):
                    raise self.error(f"number {token!r} is not finite")
        return values

    def values(self, key: str | None, kind=float, count: int | None = None) -> list:
        return self.numbers(self.fields(key, count), kind)

    def value(self, key: str, kind=float):
        return self.values(key, kind, 1)[0]

    def rows(self, n: int, width: int, kind=float) -> np.ndarray:
        """``n`` lines of ``width`` numbers each, as an n x width array.

        One ``np.loadtxt`` call reads the lines.  When it rejects them,
        finds another shape or reads a float that is not finite, they are
        read one at a time, which names the line at fault or reads what
        ``kind`` accepts and ``np.loadtxt`` does not (such as ``1_000``).
        Lines that are not all ASCII, or all blank, are always read one at
        a time: ``np.loadtxt`` takes many non-ASCII characters for integer
        digits (``"1\u01fe2"`` reads as 4722), and warns on a block with no
        data.
        """
        block = self._lines[self._at : self._at + n]
        if (
            len(block) == n
            and all(map(str.isascii, block))
            and any(map(str.strip, block))
        ):
            try:
                data = np.loadtxt(block, dtype=kind, comments=None, ndmin=2)
            except ValueError:
                data = None
            if (
                data is not None
                and data.shape == (n, width)
                and np.isfinite(data).all()
            ):
                self._at += n
                return data
        return np.array(
            [self.values(None, kind, width) for _ in range(n)], dtype=kind
        ).reshape(n, width)

    def finish(self) -> None:
        if self._at < len(self._lines):
            self._at += 1
            raise self.error("unexpected content after the last record")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _table_line(line: str) -> str:
    """A ``#`` line as a blank one, other commas as spaces.

    A line of bare commas keeps them, so that it stays a row (of no values)
    and ``np.loadtxt`` rejects it.
    """
    if line.lstrip().startswith("#"):
        return ""
    spaced = line.replace(",", " ")
    return spaced if spaced.strip() else line


def _parse_table(text: str) -> tuple[list[str] | None, np.ndarray]:
    """Parse a dataset table (``docs/file-formats.md``, "Input tables").

    Values are ASCII decimal floats separated by commas or whitespace, and
    repeated separators collapse.  Blank lines and lines whose first
    non-blank character is ``#`` are skipped.  The first remaining line is
    a header if it holds a token ``float()`` rejects.  Every other line is
    a row; all rows hold the same number of values, at least one, and every
    value is finite.  Returns ``(header_tokens_or_None, rows_as_2d_array)``.

    The rows are read by one ``np.loadtxt`` call.  When it rejects them,
    :func:`_table_error` names the first line at fault.
    """
    lines = text.splitlines()
    if "#" in text or "," in text:
        lines = [_table_line(line) for line in lines]
    content = (i for i, line in enumerate(lines) if line.strip())
    first = next(content, None)
    header = None
    if first is not None:
        # a line of bare commas is a row of no values, never a header
        tokens = lines[first].replace(",", " ").split()
        if not all(_is_number(token) for token in tokens):
            header, first = tokens, next(content, None)
    if first is None:
        raise DataError("no data rows")
    try:
        data = np.loadtxt(lines[first:], dtype=float, comments=None, ndmin=2)
    except ValueError as exc:
        raise _table_error(lines, first, exc) from None
    if not np.all(np.isfinite(data)):
        bad = int(np.argwhere(~np.all(np.isfinite(data), axis=1))[0, 0])
        raise DataError(f"non-finite value in data row {bad + 1}")
    return header, data


def _table_error(lines: list[str], first: int, exc: ValueError) -> DataError:
    """The error for the first of ``lines[first:]`` outside the grammar.

    ``lines`` are :func:`_parse_table`'s, one per line of the text; when
    none breaks the grammar, the error carries ``np.loadtxt``'s message.
    """
    width = None
    for lineno, line in enumerate(lines[first:], start=first + 1):
        if not line.strip():
            continue
        tokens = line.replace(",", " ").split()
        for col, token in enumerate(tokens, start=1):
            # np.loadtxt reads what float() reads, minus "_" and non-ASCII
            if "_" in token or not token.isascii() or not _is_number(token):
                return DataError(
                    f"line {lineno}, column {col}: non-numeric value {token!r}"
                )
        if width is not None and len(tokens) != width:
            return DataError(
                f"line {lineno}: {len(tokens)} columns, expected {width}"
            )
        if not tokens:
            return DataError(f"line {lineno}: no values")
        width = len(tokens)
    return DataError(f"unreadable table: {exc}")


def _split_channel_token(token: str) -> tuple[str, str] | None:
    """``LF_X`` -> ``("LF", "X")``; None when the token has no axis suffix."""
    if "_" not in token:
        return None
    sensor, _, axis = token.rpartition("_")
    axis = axis.upper()
    if axis not in AXES or not sensor:
        return None
    return sensor, axis


def _hugadb_channel(token: str) -> tuple[str, str] | None:
    """``acc_lf_x`` -> ``("lf", "X")``; None for any other column."""
    parts = token.lower().split("_")
    if len(parts) < 3 or parts[0] != "acc":
        return None
    location, axis = parts[1], parts[2].upper()
    if location in HUGADB_SENSORS and axis in AXES:
        return location, axis
    return None


def _channel_values(
    path: Path,
    header: list[str] | tuple[str, ...],
    data: np.ndarray,
    wanted: dict[str, tuple[str, str]],
    channel_of,
) -> np.ndarray:
    """The table columns ``header`` names for ``wanted``, as a D x T matrix.

    ``wanted`` maps each expected column name to its ``(sensor, axis)``
    channel, in the order of the result; ``channel_of`` reads the channel
    a header token names, or None.  When two tokens name one channel the
    later wins.  A channel no token names, or one whose column lies past
    the end of the rows, raises :class:`DataError` naming the file.
    """
    columns: dict[tuple[str, str], tuple[int, str]] = {}
    for idx, token in enumerate(header):
        channel = channel_of(token)
        if channel is not None:
            columns[channel] = (idx, token)
    missing = [name for name, channel in wanted.items() if channel not in columns]
    if missing:
        raise DataError(f"{path}: header lacks axes {missing}")
    picks = [columns[channel] for channel in wanted.values()]
    for idx, token in picks:
        if idx >= data.shape[1]:
            raise DataError(
                f"{path}: header names {token!r} as column {idx + 1}, "
                f"but the rows hold {data.shape[1]} values"
            )
    return data[:, [idx for idx, _ in picks]].T


def load_marea(
    path: str | Path,
    sensors: tuple[str, ...] = MAREA_SENSORS,
    text: str | None = None,
) -> TimeSeriesFrame:
    """Load a per-subject MAREA text export.

    The file is a 12-column table (LF, RF, Waist, Wrist; X, Y, Z each, at
    128 Hz) or any superset/reordering described by a one-line header of
    ``<Sensor>_<Axis>`` names.  ``sensors`` selects which triplets to keep
    and fixes the row order of the result; a sensor named twice is kept
    once, where it is first named.  ``text``, when given, is the file's
    text as ``read_file`` returns it, and the file is not read again.
    """
    path = Path(path)
    sensors = tuple(dict.fromkeys(sensors))
    unknown = [s for s in sensors if s not in MAREA_SENSORS]
    if unknown:
        raise DataError(
            f"unknown MAREA sensors {unknown}; available: {list(MAREA_SENSORS)}"
        )
    header, data = parse_file(path, _parse_table, text)
    if header is None:
        if data.shape[1] < 12:
            raise DataError(
                f"{path}: headerless MAREA export needs 12 columns, "
                f"found {data.shape[1]}"
            )
        header = MAREA_HEADER
    wanted = {f"{s}_{axis}": (s, axis) for s in sensors for axis in AXES}
    return TimeSeriesFrame(
        values=_channel_values(path, header, data, wanted, _split_channel_token),
        sensors=sensors,
        sample_rate_hz=MAREA_SAMPLE_RATE_HZ,
    )


def load_hugadb(path: str | Path, text: str | None = None) -> TimeSeriesFrame:
    """Load a HuGaDB v1 text file, keeping the six accelerometer triplets.

    The file must carry a header row; accelerometer columns are recognized
    by ``acc_<location>_<axis>`` names (case-insensitive), with locations
    rf, rs, rt, lf, ls, lt.  Gyroscope and EMG columns are ignored.  All
    18 accelerometer channels must be present.  ``text`` is as for
    ``load_marea``.
    """
    path = Path(path)
    header, data = parse_file(path, _parse_table, text)
    if header is None:
        raise DataError(f"{path}: HuGaDB file lacks the expected header row")
    wanted = {
        f"acc_{loc}_{axis.lower()}": (loc, axis)
        for loc in HUGADB_SENSORS
        for axis in AXES
    }
    return TimeSeriesFrame(
        values=_channel_values(path, header, data, wanted, _hugadb_channel),
        sensors=HUGADB_SENSORS,
        sample_rate_hz=HUGADB_SAMPLE_RATE_HZ,
    )


# ---------------------------------------------------------------------------
# synthetic walker
# ---------------------------------------------------------------------------

MARKER_LEVEL = 8.0


@dataclass(frozen=True, eq=False)
class SyntheticWalk:
    """A generated walk plus the ground truth that produced it.

    ``boundaries`` holds C + 2 fenceposts: the start of each of the C
    cycles, the end of the last cycle, and the total length T (the final
    stretch is a closing marker stub).  ``cycle_lengths`` are the C true
    periods.
    """

    frame: TimeSeriesFrame
    boundaries: np.ndarray
    cycle_lengths: np.ndarray
    marker_len: int

    @property
    def n_cycles(self) -> int:
        return len(self.cycle_lengths)

    @property
    def cycle_starts(self) -> np.ndarray:
        return self.boundaries[:-2]

    @property
    def marker_onsets(self) -> np.ndarray:
        """Starts of every marker burst, including the closing stub."""
        return self.boundaries[:-1]


def _phase_levels(n_sensors: int, n_phases: int) -> np.ndarray:
    """Well-separated 3-vector plateau levels, one per (sensor, phase)."""
    levels = np.zeros((n_sensors, n_phases, 3))
    for s in range(n_sensors):
        for p in range(n_phases):
            ang = 2.0 * math.pi * (p + 0.5 * s) / n_phases
            levels[s, p, 0] = math.cos(ang) * (1.0 + 0.2 * s)
            levels[s, p, 1] = math.sin(ang) * (1.0 + 0.1 * s)
            levels[s, p, 2] = ((p + s) % n_phases) / n_phases - 0.5
    return levels


def marker_length(period_mean: float, period_jitter: float, phases: int) -> int:
    """Samples in a walk's marker burst.  A ``ValueError`` opening with the
    parameter at fault refuses a jitter outside ``[0, period_mean / 4)`` and
    a shortest cycle without room for the marker and one sample per phase."""
    if not 0 <= period_jitter < period_mean / 4:
        raise ValueError(f"period_jitter: {period_jitter} not in [0, period_mean / 4)")
    base = int(round(period_mean))
    marker_len = max(3, base // 16)
    if base - int(np.rint(period_jitter)) < marker_len + phases:
        raise ValueError(
            f"period_mean: {period_mean} with period_jitter {period_jitter} "
            f"too short for {phases} phases plus a {marker_len}-sample marker"
        )
    return marker_len


def synthesize_walker(
    seed: int,
    cycles: int,
    period_mean: float,
    period_jitter: float = 0.0,
    sensors: int = 2,
    noise: float = 0.03,
    offset: float = 0.0,
    phases: int = 6,
) -> SyntheticWalk:
    """Generate a piecewise-plateau periodic walk with known cycle structure.

    Each cycle opens with a short high-amplitude marker burst on every
    channel, followed by ``phases`` constant plateaus whose levels differ
    per sensor; a trailing marker stub closes the final cycle.  Cycle
    lengths are ``round(period_mean + U(-period_jitter, period_jitter))``
    and the plateau boundaries inside each cycle wobble by the same
    amplitude, so the marker is the only state whose runs stay exact.
    ``offset`` shifts every level, so two walks with different offsets
    occupy disjoint signal ranges.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    if sensors < 1:
        raise ValueError("sensors must be >= 1")
    if phases < 2:
        raise ValueError("phases must be >= 2")
    marker_len = marker_length(period_mean, period_jitter, phases)
    base = int(round(period_mean))

    rng = np.random.default_rng(seed)
    jitters = np.rint(rng.uniform(-period_jitter, period_jitter, cycles))
    lengths = (base + jitters).astype(int)

    # plateau edges, one row per cycle; they wobble with the same
    # amplitude as the period, so only the marker keeps zero run-size and
    # recurrence variance
    waves = lengths - marker_len
    edges = np.rint(np.outer(waves, np.arange(phases + 1)) / phases)
    edges = edges.astype(int)
    if period_jitter > 0:
        wobble = np.rint(
            rng.uniform(-period_jitter, period_jitter, (cycles, phases - 1))
        ).astype(int)
        # each edge stays past the one before it and leaves one sample
        # for every later phase
        for p in range(1, phases):
            low = edges[:, p - 1] + 1
            high = waves - (phases - p)
            edges[:, p] = np.minimum(
                np.maximum(edges[:, p] + wobble[:, p - 1], low), high
            )

    # column ``phases`` of the level table is the marker; every cycle is a
    # marker then its plateaus, and a marker stub closes the walk
    levels = _phase_levels(sensors, phases)
    table = np.full((3 * sensors, phases + 1), MARKER_LEVEL)
    table[:, :phases] = levels.transpose(0, 2, 1).reshape(3 * sensors, phases)
    spans = np.column_stack((np.full(cycles, marker_len), np.diff(edges)))
    order = np.tile(np.roll(np.arange(phases + 1), 1), cycles)
    phase = np.repeat(order, spans.ravel())
    phase = np.concatenate((phase, np.full(marker_len, phases)))

    values = table[:, phase]
    values = values + offset + noise * rng.standard_normal(values.shape)

    ends = np.cumsum(lengths)
    boundaries = np.concatenate(([0], ends, [ends[-1] + marker_len]))
    frame = TimeSeriesFrame(
        values=values,
        sensors=tuple(f"S{s}" for s in range(sensors)),
        sample_rate_hz=128.0,
    )
    return SyntheticWalk(
        frame=frame,
        boundaries=boundaries,
        cycle_lengths=lengths,
        marker_len=marker_len,
    )
