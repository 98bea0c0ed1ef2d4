"""Local code books per subsystem and their coupled state sequences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpass.complexity import SymbolSequence
from gaitpass.errors import DataError
from gaitpass.hca import assign_nearest
from gaitpass.ingest import TimeSeriesFrame
from gaitpass.l1g2 import (
    CoupledStateSequence,
    couple,
    encode_subsystem,
    fit_local_code,
    local_code_from_text,
    local_code_to_text,
    stack_lr,
)


def triplet_of(values, name="L"):
    """A one-sensor frame."""
    return TimeSeriesFrame(values=values, sensors=(name,), sample_rate_hz=50.0)


def random_triplet(rng, n, name="L", shift=0.0):
    return triplet_of(rng.standard_normal((3, n)) + shift, name)


class TestStackLr:
    def test_concatenates_left_first(self):
        rng = np.random.default_rng(50)
        left = random_triplet(rng, 6, "L")
        right = random_triplet(rng, 6, "R", shift=3.0)
        stacked = stack_lr(left, right)
        assert stacked.shape == (3, 12)
        assert np.array_equal(stacked[:, :6], left.values)
        assert np.array_equal(stacked[:, 6:], right.values)

    def test_length_mismatch(self):
        rng = np.random.default_rng(51)
        with pytest.raises(ValueError, match="length mismatch"):
            stack_lr(random_triplet(rng, 5), random_triplet(rng, 6, "R"))

    def test_refuses_two_sensor_frames(self):
        rng = np.random.default_rng(54)
        pair = TimeSeriesFrame(rng.standard_normal((6, 5)), ("L", "R"), 50.0)
        one = random_triplet(rng, 5, "W")
        for left, right in ((pair, one), (one, pair)):
            with pytest.raises(ValueError, match="one-sensor frames"):
                stack_lr(left, right)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        samples=st.integers(min_value=3, max_value=60),
        sensors=st.integers(min_value=2, max_value=4),
        h=st.integers(min_value=2, max_value=6),
        data=st.data(),
    )
    def test_frame_layout_never_moves_the_code_book(
        self, seed, samples, sensors, h, data
    ):
        # a frame's values keep the layout they came in (the 50-cycle
        # walker's are F-ordered); the one-sensor frames of its sensors
        # are C-ordered copies, so the fit over them rounds alike
        names = tuple(f"S{i}" for i in range(sensors))
        left, right = data.draw(st.permutations(names))[:2]
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((3 * sensors, samples)) * 3.0 + 1.0
        ids = set()
        for order in ("C", "F"):
            frame = TimeSeriesFrame(np.array(values, order=order), names, 50.0)
            assert frame.values.flags[f"{order}_CONTIGUOUS"]
            feet = frame.sensor(left), frame.sensor(right)
            for name, one in zip((left, right), feet):
                i = names.index(name)
                assert one.values.flags.c_contiguous
                assert np.array_equal(one.values, values[3 * i : 3 * i + 3])
            ids.add(fit_local_code(stack_lr(*feet), h=h).code_book_id)
        assert len(ids) == 1


class TestFitLocalCode:
    def test_basic_fit(self):
        rng = np.random.default_rng(52)
        left = random_triplet(rng, 40, "L")
        right = random_triplet(rng, 40, "R", shift=4.0)
        code = fit_local_code(stack_lr(left, right), h=6,
                              source_sensors=("L", "R"))
        assert code.h == 6
        assert code.source_sensors == ("L", "R")
        assert len(code.code_book_id) == 16

    def test_column_count_must_split_evenly(self):
        rng = np.random.default_rng(53)
        with pytest.raises(ValueError, match="equal sensor blocks"):
            fit_local_code(rng.standard_normal((3, 11)), h=2,
                           source_sensors=("L", "R"))

    def test_subsample_over_budget(self):
        rng = np.random.default_rng(55)
        stacked = rng.standard_normal((3, 64))
        code = fit_local_code(stacked, h=4, source_sensors=("L", "R"),
                              max_fit_columns=20)
        # every fourth column fitted: ceil(64 / 20) = 4
        strided = fit_local_code(stacked[:, ::4], h=4, source_sensors=("L", "R"))
        assert np.array_equal(code.clustering.centroids,
                              strided.clustering.centroids)
        assert code.code_book_id == strided.code_book_id
        whole = fit_local_code(stacked, h=4, source_sensors=("L", "R"))
        assert code.code_book_id != whole.code_book_id

    def test_code_book_id_tracks_content(self):
        rng = np.random.default_rng(56)
        stacked = rng.standard_normal((3, 30))
        a = fit_local_code(stacked, h=5, source_sensors=("L", "R"))
        b = fit_local_code(stacked, h=5, source_sensors=("L", "R"))
        c = fit_local_code(stacked + 0.5, h=5, source_sensors=("L", "R"))
        assert a.code_book_id == b.code_book_id
        assert a.code_book_id != c.code_book_id


class TestEncodeSubsystem:
    def test_nearest_centroid_encoding(self):
        rng = np.random.default_rng(57)
        left = random_triplet(rng, 50, "L")
        right = random_triplet(rng, 50, "R", shift=4.0)
        code = fit_local_code(stack_lr(left, right), h=8)
        seq = encode_subsystem(code, left)
        assert isinstance(seq, SymbolSequence)
        assert seq.alphabet_size == 8
        assert len(seq) == 50
        assert np.array_equal(
            seq.symbols, assign_nearest(code.clustering, left.values)
        )

    def test_well_separated_sides_use_disjoint_codes(self):
        rng = np.random.default_rng(58)
        left = random_triplet(rng, 60, "L")
        right = random_triplet(rng, 60, "R", shift=50.0)
        code = fit_local_code(stack_lr(left, right), h=6)
        sl = set(encode_subsystem(code, left).symbols.tolist())
        sr = set(encode_subsystem(code, right).symbols.tolist())
        assert not (sl & sr)


def seq_of(symbols, alphabet):
    return SymbolSequence(
        symbols=np.asarray(symbols, dtype=np.int64), alphabet_size=alphabet
    )


class TestCoupledStateSequence:
    def test_couple_and_projections(self):
        a = seq_of([0, 1, 2, 1], 3)
        b = seq_of([1, 0, 1, 1], 2)
        coupled = couple([a, b], labels=["L", "R"])
        assert coupled.n_samples == 4
        assert coupled.codes.shape[1] == 2
        assert coupled.subsystem_labels == ("L", "R")
        assert coupled.h_per_subsystem == (3, 2)
        assert np.array_equal(coupled.codes[:, 0], a.symbols)
        assert np.array_equal(coupled.codes[:, 1], b.symbols)

    def test_validation(self):
        with pytest.raises(ValueError, match="length mismatch"):
            couple([seq_of([0], 2), seq_of([0, 1], 2)], labels=["L", "R"])
        with pytest.raises(ValueError, match="label"):
            couple([seq_of([0], 2)], labels=["L", "R"])
        with pytest.raises(ValueError, match="outside"):
            CoupledStateSequence(
                codes=np.array([[0, 5]]),
                subsystem_labels=("L", "R"),
                h_per_subsystem=(2, 3),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_projection_roundtrip(self, data):
        a = seq_of([p[0] for p in data], 4)
        b = seq_of([p[1] for p in data], 3)
        coupled = couple([a, b], labels=["x", "y"])
        again = couple(
            [seq_of(coupled.codes[:, 0], 4), seq_of(coupled.codes[:, 1], 3)],
            labels=["x", "y"],
        )
        assert np.array_equal(again.codes, coupled.codes)


class TestPersistence:
    def test_roundtrip(self):
        rng = np.random.default_rng(60)
        left = random_triplet(rng, 30, "L")
        right = random_triplet(rng, 30, "R", shift=4.0)
        code = fit_local_code(stack_lr(left, right), h=5,
                              source_sensors=("L", "R"))
        text = local_code_to_text(code)
        back = local_code_from_text(text)
        assert back.source_sensors == code.source_sensors
        assert back.code_book_id == code.code_book_id
        assert local_code_to_text(back) == text
        assert np.array_equal(
            encode_subsystem(back, left).symbols,
            encode_subsystem(code, left).symbols,
        )

    def test_assignments_equivalent_after_roundtrip(self):
        rng = np.random.default_rng(32)
        code = fit_local_code(rng.standard_normal((2, 20)), h=4,
                              source_sensors=("W",))
        back = local_code_from_text(local_code_to_text(code))
        columns = rng.standard_normal((2, 15))
        assert np.array_equal(
            assign_nearest(code.clustering, columns),
            assign_nearest(back.clustering, columns),
        )

    def test_bad_magic(self):
        rng = np.random.default_rng(61)
        text = local_code_to_text(
            fit_local_code(rng.standard_normal((3, 12)), h=3)
        )
        lines = text.splitlines()
        assert lines[0] == "gaitpass-codebook v3"
        # the same code book as version 2 wrote it
        old = "\n".join(
            ["gaitpass-codebook v2", lines[1], "window 0 6", "subsampled 0",
             "linkage ward", *lines[2:6], "sizes 8 3 1", *lines[6:]]
        ) + "\n"
        with pytest.raises(
            DataError, match="line 1: not a 'gaitpass-codebook v3' file"
        ):
            local_code_from_text(old)
