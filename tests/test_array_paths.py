"""Whole-array passtensor, reader, run-statistics and walker paths.

Each path is checked against the per-cell, per-line, per-run or per-cycle
loop it replaced (``oracles.py``): equal text, equal SVG, equal arrays
byte for byte, and the same errors.
"""

import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaitpass.errors import DataError
from gaitpass.ingest import LineReader, synthesize_walker
from gaitpass.l1g2 import CoupledStateSequence
from gaitpass.landmark import CyclePartition, run_statistics
from gaitpass.passtensor import (
    MIN_BINS,
    Passtensor,
    build_passtensor,
    passtensor_from_text,
    passtensor_to_text,
    render_cylinder,
)
from gaitpass.svgfig import DEFAULT_PALETTE
from oracles import (
    passtensor_by_cycle,
    passtensor_to_text_by_cell,
    render_unrolled_by_cell,
    rows_by_line,
    run_statistics_by_dict,
    walker_values_by_cycle,
)


def passtensor_of(codes, sizes):
    c, r, _ = codes.shape
    return Passtensor(
        tensor=codes,
        ring_labels=tuple(f"ring{j}" for j in range(r)),
        alphabet_sizes=sizes,
        raw_lengths=np.arange(1, c + 1),
        landmark_state=(0,) * r,
        code_book_id="cb",
    )


@st.composite
def passtensors(draw, max_alphabet, max_bins=40):
    """A random passtensor; codes repeat along bins so stretches form."""
    c = draw(st.integers(1, 6))
    r = draw(st.integers(1, 4))
    b = draw(st.integers(MIN_BINS, max_bins))
    sizes = draw(st.lists(st.integers(1, max_alphabet), min_size=r, max_size=r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, np.array(sizes)[:, None], size=(c, r, b))
    stretch = draw(st.integers(1, 8))
    codes = np.repeat(codes[:, :, ::stretch], stretch, axis=2)[:, :, :b]
    return passtensor_of(codes, sizes)


@settings(max_examples=150, deadline=None)
@given(pt=passtensors(max_alphabet=40_000))
def test_passtensor_text_matches_cell_loop_and_reads_back(pt):
    text = passtensor_to_text(pt)
    assert text == passtensor_to_text_by_cell(pt)
    back = passtensor_from_text(text)
    assert back.tensor.dtype == np.int64
    assert np.array_equal(back.tensor, pt.tensor)
    assert back.raw_lengths.tolist() == pt.raw_lengths.tolist()
    assert passtensor_to_text(back) == text


@settings(max_examples=150, deadline=None)
@given(pt=passtensors(max_alphabet=len(DEFAULT_PALETTE), max_bins=200))
# past 160 bins the cells shrink from 6 to 3 units
@example(pt=passtensor_of(np.arange(340).reshape(2, 1, 170) // 7 % 5, (5,)))
def test_unrolled_svg_matches_cell_loop(pt):
    assert render_cylinder(pt, view="unrolled") == (
        render_unrolled_by_cell(pt, DEFAULT_PALETTE)
    )


@st.composite
def cut_sequences(draw):
    """Codes, cycle boundaries and bin count: cycles shorter than, equal
    to and longer than B, with a head and a tail of any length."""
    bins = draw(st.integers(MIN_BINS, 200))
    lengths = draw(st.lists(
        st.one_of(
            st.integers(1, bins - 1), st.just(bins),
            st.integers(bins + 1, 3 * bins),
        ),
        min_size=1, max_size=6,
    ))
    head = draw(st.integers(0, 5))
    boundaries = np.cumsum([head] + lengths)
    length = int(boundaries[-1]) + draw(st.integers(0, 5))
    arity = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, 5, size=(length, arity))
    n = len(lengths)
    first = draw(st.sampled_from([1, n]) | st.integers(1, n))
    last = draw(st.sampled_from([first, n]) | st.integers(first, n))
    cycle_range = draw(st.sampled_from([None, (first, last)]))
    return codes, boundaries, bins, cycle_range


@settings(max_examples=200, deadline=None)
@given(case=cut_sequences())
def test_passtensor_matches_cycle_loop(case):
    codes, boundaries, bins, cycle_range = case
    seq = CoupledStateSequence(
        codes=codes,
        subsystem_labels=tuple(f"c{j}" for j in range(codes.shape[1])),
        h_per_subsystem=(5,) * codes.shape[1],
    )
    partition = CyclePartition(
        landmark_state=(0,) * codes.shape[1],
        boundaries=boundaries,
        length=codes.shape[0],
    )
    pt = build_passtensor(seq, partition, bins=bins, cycle_range=cycle_range)
    tensor, lengths = passtensor_by_cycle(codes, boundaries, bins, cycle_range)
    assert pt.tensor.dtype == np.int64
    assert np.array_equal(pt.tensor, tensor)
    assert pt.raw_lengths.tolist() == lengths.tolist()


@settings(max_examples=150, deadline=None)
@given(
    arity=st.integers(1, 6),
    length=st.integers(2, 400),
    h=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_statistics_match_dict_loop(arity, length, h, seed):
    rng = np.random.default_rng(seed)
    # runs of random length, so states recur with varied sizes
    codes = np.repeat(
        rng.integers(0, h, size=(length, arity)),
        rng.integers(1, 5, size=length), axis=0,
    )[:length]
    stats = run_statistics(CoupledStateSequence(
        codes=codes,
        subsystem_labels=tuple(f"c{j}" for j in range(arity)),
        h_per_subsystem=(h,) * arity,
    ))
    order, want = run_statistics_by_dict(codes)
    assert stats.run_states.tolist() == [list(state) for state in order]
    assert list(stats.per_state) == list(want)
    all_sizes = np.diff(np.append(stats.run_starts, stats.length))
    for state, runs in stats.per_state.items():
        starts, sizes, recurrence, size_var, recurrence_var = want[state]
        assert runs.state == state
        assert runs.run_starts.tolist() == starts.tolist()
        own = np.searchsorted(stats.run_starts, runs.run_starts)
        assert all_sizes[own].tolist() == sizes.tolist()
        assert np.diff(runs.run_starts).tolist() == recurrence.tolist()
        assert runs.size_variance == size_var
        assert runs.recurrence_variance == recurrence_var


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cycles=st.integers(1, 40),
    period_mean=st.floats(12.0, 200.0),
    jitter_share=st.one_of(st.just(0.0), st.floats(0.0, 0.2499)),
    sensors=st.integers(1, 4),
    phases=st.integers(2, 8),
    noise=st.sampled_from([0.0, 0.03]),
    offset=st.sampled_from([0.0, -1.5]),
)
def test_walker_matches_cycle_loop(seed, cycles, period_mean, jitter_share,
                                   sensors, phases, noise, offset):
    args = (seed, cycles, period_mean, jitter_share * period_mean,
            sensors, noise, offset, phases)
    try:
        walk = synthesize_walker(*args)
    except ValueError as exc:
        # too little room for the jitter: the cycle loop gave overlapping
        # or missing plateaus there, and the walker now refuses
        assume("too short" not in str(exc))
        raise
    want = walker_values_by_cycle(*args)
    assert walk.frame.values.tobytes() == want.tobytes()


TOO_BIG = "99999999999999999999"
ROW_TOKENS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from([
        "+5", "-0", "007", "1_0", "1.0", "1e3", ".5", "nan", "-inf", "x",
        "\u0665", "\uff14", "1\u01fe2", TOO_BIG, "9223372036854775807",
        "-9223372036854775808", "9223372036854775808",
    ]),
)
ROW_GAPS = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2003"])


@st.composite
def row_blocks(draw):
    """Lines of numbers, sometimes ragged, blank, odd or cut short."""
    n = draw(st.integers(1, 5))
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(n + draw(st.integers(-1, 1))):
        count = width if draw(st.integers(0, 5)) else draw(st.integers(0, 5))
        tokens = draw(st.lists(ROW_TOKENS, min_size=count, max_size=count))
        line = draw(st.sampled_from(["", " "]))
        for token in tokens:
            line += token + draw(ROW_GAPS)
        lines.append(line)
    return n, width, lines


def rows_outcome(read):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            data = read()
        except DataError as exc:
            return "DataError", str(exc)
    return data.dtype.str, data.shape, data.tobytes()


@settings(max_examples=400, deadline=None)
@given(block=row_blocks(), kind=st.sampled_from([int, float]))
@example(block=(2, 2, ["1 2", "3 1\u01fe2"]), kind=int)
@example(block=(1, 2, ["1 " + TOO_BIG]), kind=int)
@example(block=(2, 1, ["", " "]), kind=float)
def test_rows_match_line_by_line_reader(block, kind):
    n, width, lines = block
    lines = ["magic"] + lines + ["end"]
    reader = LineReader("\n".join(lines), "magic")
    got = rows_outcome(lambda: reader.rows(n, width, kind))
    assert got == rows_outcome(lambda: rows_by_line(lines, 1, n, width, kind))
    if got[0] != "DataError":
        assert reader.line() == lines[n + 1]
