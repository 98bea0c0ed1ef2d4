"""Ternary quantile coding: cutoffs, band edges, persistence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpass.errors import DataError
from gaitpass.ingest import TimeSeriesFrame
from gaitpass.symbolic import (
    StateVectorSequence,
    TernaryCoding,
    coding_from_text,
    coding_to_text,
    encode_ternary,
    fit_ternary,
    resultant_acceleration,
)
from oracles import pooled_ternary_cutoffs, quantile_type7_literal


def frame_of(values, sensors=None):
    values = np.asarray(values, dtype=float)
    if sensors is None:
        sensors = [f"S{i}" for i in range(values.shape[0] // 3)]
    return TimeSeriesFrame(values=values, sensors=sensors, sample_rate_hz=10.0)


def test_resultant_magnitude():
    frame = frame_of([[3.0, 0.0], [4.0, 0.0], [0.0, 2.0]])
    res = resultant_acceleration(frame.sensor("S0"))
    assert np.allclose(res, [5.0, 2.0])


def test_resultant_refuses_two_sensor_frame():
    with pytest.raises(ValueError, match="one-sensor frame"):
        resultant_acceleration(frame_of(np.ones((6, 4))))


def test_fit_matches_literal_quantiles():
    rng = np.random.default_rng(10)
    values = rng.standard_normal((3, 200))
    coding = fit_ternary([frame_of(values)], alpha=0.25, beta=0.8)
    for d in range(3):
        assert coding.thresholds[d, 0] == pytest.approx(
            quantile_type7_literal(values[d], 0.25), abs=1e-12
        )
        assert coding.thresholds[d, 1] == pytest.approx(
            quantile_type7_literal(values[d], 0.8), abs=1e-12
        )


def test_fit_pools_across_frames():
    a = frame_of(np.full((3, 10), 0.0))
    b = frame_of(np.full((3, 30), 4.0))
    coding = fit_ternary([a, b], alpha=0.3, beta=0.7)
    pooled = np.concatenate([a.values, b.values], axis=1)
    for d in range(3):
        assert coding.thresholds[d, 0] == quantile_type7_literal(pooled[d], 0.3)


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 60), min_size=1, max_size=4),
    sensors=st.integers(1, 2),
    levels=st.sampled_from([1, 2, 3, 7, 0]),
    alpha=st.floats(0.01, 0.49),
    beta=st.floats(0.51, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_equals_pooled_quantile_bit_for_bit(
    lengths, sensors, levels, alpha, beta, seed
):
    # levels > 0 draws from that many repeated values; 0 draws continuous ones
    rng = np.random.default_rng(seed)
    frames = []
    for n in lengths:
        shape = (3 * sensors, n)
        if levels:
            values = rng.integers(0, levels, shape) * rng.uniform(0.1, 3.0)
        else:
            values = rng.standard_normal(shape)
        frames.append(frame_of(values))
    got = fit_ternary(frames, alpha, beta).thresholds
    assert got.tobytes() == pooled_ternary_cutoffs(frames, alpha, beta).tobytes()


def test_fit_never_holds_the_pooled_matrix():
    # Four 4-sensor frames: the pooled 12 x 110,000 matrix is 12 channels
    # of 0.88 MB.  The fit holds one pooled channel, numpy's partitioned
    # copy of it and a little more (3.3 channels measured); an axis-1
    # quantile over the pooled matrix peaks at 24 channels, twice its size.
    rng = np.random.default_rng(3)
    frames = [
        frame_of(rng.standard_normal((12, n)))
        for n in (20000, 25000, 30000, 35000)
    ]
    channel_bytes = 8 * sum(f.n_samples for f in frames)
    tracemalloc.start()
    try:
        fit_ternary(frames, 0.3, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * channel_bytes


def test_fit_rejects_channel_mismatch():
    a = frame_of(np.zeros((3, 5)), sensors=["L"])
    b = frame_of(np.zeros((3, 5)), sensors=["R"])
    with pytest.raises(ValueError, match="channel mismatch"):
        fit_ternary([a, b], 0.3, 0.7)
    with pytest.raises(ValueError):
        fit_ternary([], 0.3, 0.7)


def test_alpha_beta_ranges_enforced():
    frame = frame_of(np.zeros((3, 5)))
    for alpha, beta in ((0.0, 0.7), (0.5, 0.7), (0.3, 0.5), (0.3, 1.0)):
        with pytest.raises(ValueError):
            fit_ternary([frame], alpha, beta)


def test_encode_band_edges_go_low():
    # cutoffs land exactly on data values: a=2, b=4 for row of 1..5
    row = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    frame = frame_of(np.vstack([row, row, row]))
    coding = TernaryCoding(
        alpha=0.25,
        beta=0.75,
        thresholds=np.array([[2.0, 4.0]] * 3),
        channels=frame.channels,
    )
    seq = encode_ternary(frame, coding)
    assert seq.states.dtype == np.uint8
    # x == a -> 1 and x == b -> 2
    assert seq.states[:, 0].tolist() == [1, 1, 2, 2, 3]


def test_encode_requires_matching_channels():
    frame = frame_of(np.zeros((3, 4)))
    other = frame_of(np.zeros((3, 4)), sensors=["Q"])
    coding = fit_ternary([frame], 0.3, 0.7)
    with pytest.raises(ValueError, match="channels"):
        encode_ternary(other, coding)


def test_state_vector_sequence_validation():
    with pytest.raises(ValueError):
        StateVectorSequence(states=np.array([[0, 1]]))
    with pytest.raises(ValueError):
        StateVectorSequence(states=np.array([[1.5, 2.0]]))
    seq = StateVectorSequence(states=np.array([[1, 2], [3, 3]]))
    assert seq.n_samples == 2 and seq.n_dims == 2


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.integers(min_value=-500, max_value=500), min_size=4, max_size=60
    ),
    shift=st.integers(min_value=-1000, max_value=1000),
    alpha=st.floats(min_value=0.05, max_value=0.45),
    beta=st.floats(min_value=0.55, max_value=0.95),
)
def test_codes_invariant_under_integer_shift(data, shift, alpha, beta):
    # band membership depends only on order statistics, so translating
    # every value by the same amount must not change a single code
    base = np.array([data, data, data], dtype=float) / 8.0
    f0 = frame_of(base)
    f1 = frame_of(base + shift)
    c0 = fit_ternary([f0], alpha, beta)
    c1 = fit_ternary([f1], alpha, beta)
    s0 = encode_ternary(f0, c0)
    s1 = encode_ternary(f1, c1)
    assert np.array_equal(s0.states, s1.states)


def test_roundtrip_text():
    rng = np.random.default_rng(11)
    coding = fit_ternary(
        [frame_of(rng.standard_normal((6, 50)))], alpha=0.3, beta=0.7
    )
    text = coding_to_text(coding)
    back = coding_from_text(text)
    assert back.alpha == coding.alpha
    assert back.beta == coding.beta
    assert back.channels == coding.channels
    assert np.array_equal(back.thresholds, coding.thresholds)
    # byte-stable: re-serializing the parsed coding changes nothing
    assert coding_to_text(back) == text


def test_from_text_rejects_other_files():
    with pytest.raises(DataError, match="gaitpass-ternary"):
        coding_from_text("something else\n")
