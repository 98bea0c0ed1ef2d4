"""Frame containers, dataset text loaders, and the synthetic walker."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitpass.errors import DataError
from gaitpass.ingest import (
    AXES,
    MAREA_SAMPLE_RATE_HZ,
    MARKER_LEVEL,
    TimeSeriesFrame,
    _parse_table,
    _table_error,
    load_hugadb,
    load_marea,
    read_file,
    synthesize_walker,
)
from oracles import parse_table_by_line


def make_frame(samples=8, sensors=("A",)):
    values = np.arange(3 * len(sensors) * samples, dtype=float)
    return TimeSeriesFrame(
        values=values.reshape(3 * len(sensors), samples),
        sensors=sensors,
        sample_rate_hz=100.0,
    )


class TestTimeSeriesFrame:
    def test_basic_shape_and_labels(self):
        frame = make_frame(sensors=("A", "B"))
        assert frame.values.shape == (6, 8)
        assert frame.n_samples == 8
        assert frame.sensors == ("A", "B")

    def test_channels_follow_sensors_then_axes(self):
        frame = make_frame(sensors=("B", "A"))
        assert frame.channels == (
            ("B", "X"), ("B", "Y"), ("B", "Z"),
            ("A", "X"), ("A", "Y"), ("A", "Z"),
        )

    def test_values_are_readonly(self):
        frame = make_frame()
        with pytest.raises(ValueError):
            frame.values[0, 0] = 99.0

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="2 rows for 1 X/Y/Z sensors"):
            TimeSeriesFrame(
                values=np.zeros((2, 4)),
                sensors=("A",),
                sample_rate_hz=1.0,
            )

    @pytest.mark.parametrize(
        "rows, sensors",
        [(4, ("A",)), (3, ("A", "B")), (9, ("A", "B")), (6, ("A",))],
    )
    def test_rows_three_per_sensor(self, rows, sensors):
        with pytest.raises(ValueError, match=f"{rows} rows for {len(sensors)} "):
            TimeSeriesFrame(np.zeros((rows, 4)), sensors, 1.0)

    @pytest.mark.parametrize(
        "values, sensors",
        [
            (np.zeros((3, 0)), ("A",)),
            (np.zeros((0, 4)), ()),
            (np.zeros(3), ("A",)),
        ],
    )
    def test_needs_a_sensor_and_a_sample(self, values, sensors):
        with pytest.raises(ValueError, match="at least one sensor and one sample"):
            TimeSeriesFrame(values, sensors, 1.0)

    def test_duplicate_channel(self):
        # a sensor named twice would label two row triplets alike
        with pytest.raises(ValueError, match="sensor named twice"):
            TimeSeriesFrame(
                values=np.zeros((6, 4)),
                sensors=("A", "A"),
                sample_rate_hz=1.0,
            )

    def test_rejects_non_finite(self):
        values = np.zeros((3, 4))
        values[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            TimeSeriesFrame(values=values, sensors=("A",), sample_rate_hz=1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            TimeSeriesFrame(np.zeros((3, 4)), ("A",), sample_rate_hz=0.0)

    def test_sensor_gathers_its_rows(self):
        frame = make_frame(sensors=("A", "B", "C"))
        one = frame.sensor("B")
        assert one.sensors == ("B",)
        assert one.sample_rate_hz == frame.sample_rate_hz
        assert np.array_equal(one.values, frame.values[3:6])
        assert one.values.flags.c_contiguous
        assert not one.values.flags.writeable

    def test_sensor_missing(self):
        with pytest.raises(KeyError):
            make_frame().sensor("nope")

    def test_window(self):
        frame = make_frame(samples=10)
        cut = frame.window(2, 7)
        assert cut.n_samples == 5
        assert np.array_equal(cut.values, frame.values[:, 2:7])
        with pytest.raises(ValueError):
            frame.window(5, 11)
        with pytest.raises(ValueError):
            frame.window(-1, 4)
        with pytest.raises(ValueError):
            frame.window(4, 4)


def _table_text(n_rows, n_cols, header=None, delim=",", seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_rows, n_cols)).round(4)
    lines = [] if header is None else [delim.join(header)]
    lines += [delim.join(str(v) for v in row) for row in data]
    return "\n".join(lines) + "\n", data


MAREA_HEADER = [
    f"{sensor}_{axis}"
    for sensor in ("LF", "RF", "Waist", "Wrist")
    for axis in AXES
]


class TestLoadMarea:
    def test_headered_file(self, tmp_path):
        text, data = _table_text(25, 12, header=MAREA_HEADER)
        path = tmp_path / "sub5.csv"
        path.write_text(text)
        frame = load_marea(path, sensors=("RF", "LF"))
        assert frame.sample_rate_hz == MAREA_SAMPLE_RATE_HZ
        # requested order wins over file order
        assert frame.sensors == ("RF", "LF")
        assert np.array_equal(frame.sensor("RF").values, data[:, 3:6].T)
        assert np.array_equal(frame.sensor("LF").values, data[:, 0:3].T)

    def test_header_reordered_columns(self, tmp_path):
        header = ["Waist_Z", "Waist_Y", "Waist_X", "LF_X", "LF_Y", "LF_Z"]
        text, data = _table_text(10, 6, header=header)
        path = tmp_path / "odd.csv"
        path.write_text(text)
        frame = load_marea(path, sensors=("Waist",))
        assert np.array_equal(frame.values, data[:, [2, 1, 0]].T)

    def test_headerless_fixed_layout(self, tmp_path):
        text, data = _table_text(15, 12, delim=" ")
        path = tmp_path / "plain.txt"
        path.write_text(text)
        frame = load_marea(path, sensors=("Wrist",))
        assert np.array_equal(frame.values, data[:, 9:12].T)

    def test_headerless_too_narrow(self, tmp_path):
        text, _ = _table_text(5, 9)
        path = tmp_path / "narrow.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="12 columns"):
            load_marea(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        text, data = _table_text(4, 12, header=MAREA_HEADER)
        lines = text.splitlines()
        lines.insert(1, "# exported 2024-01-01")
        lines.insert(3, "")
        path = tmp_path / "c.csv"
        path.write_text("\n".join(lines) + "\n")
        frame = load_marea(path, sensors=("LF",))
        assert frame.n_samples == 4

    def test_non_numeric_cell_cites_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,oops,6\n")
        with pytest.raises(DataError, match=r"line 2, column 2"):
            load_marea(path, sensors=("LF",))

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        text, _ = _table_text(3, 12)
        path.write_text(text + "1,2,3\n")
        with pytest.raises(DataError, match="expected 12"):
            load_marea(path)

    def test_unknown_sensor_request(self, tmp_path):
        text, _ = _table_text(3, 12)
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="unknown MAREA sensors"):
            load_marea(path, sensors=("Ankle",))

    def test_sensor_named_twice_loads_once(self, tmp_path):
        text, data = _table_text(5, 12)
        path = tmp_path / "x.csv"
        path.write_text(text)
        frame = load_marea(path, sensors=("RF", "LF", "RF"))
        assert frame.sensors == ("RF", "LF")
        assert np.array_equal(frame.values, data[:, [3, 4, 5, 0, 1, 2]].T)

    def test_header_missing_axis(self, tmp_path):
        header = ["LF_X", "LF_Y"]  # no LF_Z
        text, _ = _table_text(3, 2, header=header)
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="lacks axes"):
            load_marea(path, sensors=("LF",))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(DataError, match="no data rows"):
            load_marea(path)


# Bytes as a file holds them; None for a missing file, "dir" for a directory.
FILE_BYTES = {
    "crlf_and_cr": b"1 2\r\n3 4\r5 6\n",
    "non_ascii": "# caf\u00e9\n1 2\n".encode(),
    "undecodable": b"1 2\n\xff 3\n",
    "empty": b"",
    "missing": None,
    "directory": "dir",
}


@pytest.mark.parametrize("raw", FILE_BYTES.values(), ids=list(FILE_BYTES))
def test_read_file_reads_as_read_text_does(raw, tmp_path):
    path = tmp_path / "dir" if raw == "dir" else tmp_path / "t.txt"
    if raw == "dir":
        path.mkdir()
    elif raw is not None:
        path.write_bytes(raw)
    try:
        want = path.read_text(), hashlib.sha256(path.read_bytes()).hexdigest()
    except (OSError, UnicodeDecodeError) as exc:
        want = f"cannot read {path}: {exc}"
    try:
        got = read_file(path)
    except DataError as exc:
        got = str(exc)
    assert got == want


def parse_outcome(parse, text):
    """A parser's header and array bytes, or its error message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            header, data = parse(text)
        except DataError as exc:
            return "DataError", str(exc)
    return header, data.shape, data.dtype.str, data.tobytes()


PLAIN_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-20.0, 20.0).map(lambda v: "%.6f" % v),
    st.integers(-(10**6), 10**6).map(str),
)
# Tokens of the documented grammar only: "1_0" and non-ASCII digits, which
# the per-line reference reads as numbers, are rejected cases of their own.
ODD_TOKENS = st.sampled_from([
    "nan", "-inf", "Infinity", "1e400", "-1e-400",
    "+.5", "-0", ".5e3", "0x10", "1.5j", "oops", "LF_X", "#", "#1",
])
TOKENS = st.one_of(PLAIN_NUMBERS, PLAIN_NUMBERS, PLAIN_NUMBERS, ODD_TOKENS)
GAPS = st.sampled_from([" ", "\t", ",", ", ", " ,", "  ", ",,", "\xa0"])
# No line of bare commas: the reference reads it as a row of no values,
# which the grammar rejects (see test_rejected_inputs).
EXTRA_LINES = st.sampled_from([
    "", "   ", "\t", "\xa0", "# note", "  # 1 2", "h1 h2", "1,,2",
])
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028"])


@st.composite
def tables(draw):
    """Table text mixing rows, a header, ragged rows, odd tokens and lines.

    Separators and line breaks are any that ``str.split`` and
    ``str.splitlines`` know, as the grammar states.
    """
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(" ".join(f"c{i}" for i in range(width)))
    for _ in range(draw(st.integers(0, 6))):
        count = width if draw(st.integers(0, 7)) else draw(st.integers(1, 5))
        tokens = draw(st.lists(TOKENS, min_size=count, max_size=count))
        line = tokens[0]
        for token in tokens[1:]:
            line += draw(GAPS) + token
        lines.append(draw(st.sampled_from(["", " ", ","])) + line)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(EXTRA_LINES))
    text = ""
    for line in lines:
        text += line + draw(BREAKS)
    return text


class TestParseTable:
    @settings(max_examples=400, deadline=None)
    @given(text=tables())
    @example(text=",#x\n1 2\n")
    @example(text="# c\nh1 h2\n1 2\n")
    @example(text="h1 h2\n\n  \n")
    @example(text="1 2\r\n# c\x0c3 4\n")
    def test_matches_per_line_parser(self, text):
        assert parse_outcome(_parse_table, text) == parse_outcome(
            parse_table_by_line, text
        )

    @pytest.mark.parametrize("text", [
        "1 2\n3 4\n", "a,b\n1,2\n3,4", "\n\n5\n6\n", "# c\n1 2\n",
        "1\xa02\n",
    ])
    def test_rows_read_back(self, text):
        _, data = _parse_table(text)
        assert data.dtype == np.float64 and data.flags.c_contiguous
        assert parse_outcome(_parse_table, text) == parse_outcome(
            parse_table_by_line, text
        )

    @pytest.mark.parametrize("text, message", [
        ("", "no data rows"),
        ("h1 h2\n", "no data rows"),
        ("1 2\n3 x\n", "line 2, column 2: non-numeric value 'x'"),
        ("1 2\n\n3\n", "line 3: 1 columns, expected 2"),
        ("1 2\n3 1e400\n", "non-finite value in data row 2"),
        ("h\n1\n,\n", "line 3: 0 columns, expected 1"),
        ("h\n,,,\n1\n", "line 2: no values"),
    ])
    def test_errors_name_the_line(self, text, message):
        assert parse_outcome(_parse_table, text) == ("DataError", message)

    # Inputs the per-line reference reads as rows and the grammar rejects:
    # underscores and non-ASCII digits in a number, and bare-comma lines.
    @pytest.mark.parametrize("text, message", [
        pytest.param("1_0 2\n", "line 1, column 1: non-numeric value '1_0'",
                     id="underscore"),
        pytest.param("a b\n1 2\n3 4_0\n",
                     "line 3, column 2: non-numeric value '4_0'",
                     id="underscore_in_later_row"),
        pytest.param("\u0661 2\n",
                     "line 1, column 1: non-numeric value '\u0661'",
                     id="arabic_indic_digit"),
        pytest.param("1 2\n3 \uff14\n",
                     "line 2, column 2: non-numeric value '\uff14'",
                     id="fullwidth_digit"),
        pytest.param(",\n , ,\n", "line 1: no values", id="only_bare_commas"),
    ])
    def test_rejected_inputs(self, text, message):
        assert parse_outcome(parse_table_by_line, text)[0] != "DataError"
        assert parse_outcome(_parse_table, text) == ("DataError", message)

    def test_unlocated_rejection_keeps_loadtxt_message(self):
        error = _table_error(["1 2"], 0, ValueError("no reason"))
        assert str(error) == "unreadable table: no reason"


HUGADB_ACC = [
    f"acc_{loc}_{axis.lower()}"
    for loc in ("rf", "rs", "rt", "lf", "ls", "lt")
    for axis in AXES
]


class TestLoadHugadb:
    def test_accelerometers_extracted(self, tmp_path):
        # gyro columns interleaved before the accelerometers; must be skipped
        header = ["gyro_rf_x", "gyro_rf_y"] + HUGADB_ACC + ["EMG_r"]
        text, data = _table_text(12, len(header), header=header, delim="\t")
        path = tmp_path / "h.txt"
        path.write_text(text)
        frame = load_hugadb(path)
        assert frame.values.shape == (18, 12)
        assert frame.sample_rate_hz == 60.0
        assert frame.sensors == ("rf", "rs", "rt", "lf", "ls", "lt")
        assert np.array_equal(frame.sensor("lf").values, data[:, 11:14].T)

    def test_headerless_rejected(self, tmp_path):
        text, _ = _table_text(5, 18)
        path = tmp_path / "noheader.txt"
        path.write_text(text)
        with pytest.raises(DataError, match="header"):
            load_hugadb(path)

    def test_missing_acc_columns_named(self, tmp_path):
        header = HUGADB_ACC[:-3]  # drop the lt triplet
        text, _ = _table_text(5, len(header), header=header)
        path = tmp_path / "short.txt"
        path.write_text(text)
        with pytest.raises(DataError, match="acc_lt_x"):
            load_hugadb(path)


class TestSynthesizeWalker:
    def test_shapes_and_ground_truth(self):
        walk = synthesize_walker(seed=3, cycles=12, period_mean=64.0,
                                 period_jitter=1.0, sensors=3)
        assert walk.frame.sensors == ("S0", "S1", "S2")
        assert walk.frame.values.shape[0] == 9
        assert walk.n_cycles == 12
        assert len(walk.boundaries) == 14
        assert len(walk.marker_onsets) == 13
        assert walk.boundaries[0] == 0
        assert walk.boundaries[-1] == walk.frame.n_samples
        assert walk.boundaries[-1] - walk.boundaries[-2] == walk.marker_len
        assert np.array_equal(np.diff(walk.cycle_starts),
                              walk.cycle_lengths[:-1])

    def test_jitter_zero_lengths_constant(self):
        walk = synthesize_walker(seed=4, cycles=9, period_mean=80.0)
        assert set(walk.cycle_lengths.tolist()) == {80}

    def test_jitter_bounds_lengths(self):
        walk = synthesize_walker(seed=5, cycles=40, period_mean=100.0,
                                 period_jitter=3.0)
        assert walk.cycle_lengths.min() >= 97
        assert walk.cycle_lengths.max() <= 103

    def test_noise_free_markers_exact(self):
        walk = synthesize_walker(seed=6, cycles=5, period_mean=48.0,
                                 noise=0.0, offset=2.5)
        values = walk.frame.values
        for onset in walk.marker_onsets:
            burst = values[:, onset : onset + walk.marker_len]
            assert np.all(burst == MARKER_LEVEL + 2.5)
        # plateau samples never reach marker level
        wave = values[:, walk.marker_onsets[0] + walk.marker_len :
                      walk.boundaries[1]]
        assert np.all(wave < MARKER_LEVEL)

    def test_jitter_must_leave_one_sample_per_phase(self):
        # a 9-sample period, a 3-sample marker and 6 phases leave no room
        # for a cycle drawn 2 samples short
        synthesize_walker(seed=1, cycles=4, period_mean=9.0, phases=6)
        with pytest.raises(ValueError, match="too short for 6 phases"):
            synthesize_walker(seed=1, cycles=4, period_mean=9.0,
                              period_jitter=2.0, phases=6)

    def test_same_seed_reproduces(self):
        a = synthesize_walker(seed=7, cycles=6, period_mean=64.0,
                              period_jitter=2.0)
        b = synthesize_walker(seed=7, cycles=6, period_mean=64.0,
                              period_jitter=2.0)
        assert np.array_equal(a.frame.values, b.frame.values)
        c = synthesize_walker(seed=8, cycles=6, period_mean=64.0,
                              period_jitter=2.0)
        assert not np.array_equal(a.frame.values, c.frame.values)

    def test_offset_shifts_levels(self):
        a = synthesize_walker(seed=9, cycles=4, period_mean=48.0, noise=0.0)
        b = synthesize_walker(seed=9, cycles=4, period_mean=48.0, noise=0.0,
                              offset=5.0)
        assert np.allclose(b.frame.values, a.frame.values + 5.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synthesize_walker(seed=0, cycles=0, period_mean=64.0)
        with pytest.raises(ValueError):
            synthesize_walker(seed=0, cycles=3, period_mean=64.0,
                              period_jitter=16.0)
        with pytest.raises(ValueError):
            synthesize_walker(seed=0, cycles=3, period_mean=64.0, phases=1)
        with pytest.raises(ValueError):
            synthesize_walker(seed=0, cycles=3, period_mean=8.0, phases=7)
