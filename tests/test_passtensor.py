"""Phase-normalized cycle tensors: construction, comparison, rendering."""

import dataclasses

import numpy as np
import pytest

from gaitpass.errors import CodeBookMismatchError, DataError
from gaitpass.ingest import parse_file
from gaitpass.l1g2 import CoupledStateSequence
from gaitpass.landmark import CyclePartition, partition_cycles, run_statistics
from gaitpass.passtensor import (
    MIN_BINS,
    Passtensor,
    build_passtensor,
    compare_passtensors,
    passtensor_from_text,
    passtensor_to_text,
    render_cylinder,
    render_rings,
    skeleton,
)
from oracles import bin_centers_literal, mode_literal, total_variation_literal


def coupled_of(rows, h=6):
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim == 1:
        rows = rows[:, None]
    return CoupledStateSequence(
        codes=rows,
        subsystem_labels=tuple(f"c{j}" for j in range(rows.shape[1])),
        h_per_subsystem=(h,) * rows.shape[1],
    )


def tensor_of(values, alphabet=6, code_book_id="cb"):
    """A tensor whose rings share one alphabet size, or take one each."""
    values = np.asarray(values, dtype=np.int64)
    if isinstance(alphabet, int):
        alphabet = (alphabet,) * values.shape[1]
    return Passtensor(
        tensor=values,
        ring_labels=tuple(f"c{j}" for j in range(values.shape[1])),
        alphabet_sizes=alphabet,
        raw_lengths=np.full(values.shape[0], values.shape[2]),
        landmark_state=(0,) * values.shape[1],
        code_book_id=code_book_id,
    )


def periodic_pipeline(n_cycles=6, period=24, h=6):
    """A deterministic periodic coupled sequence plus its partition."""
    block = np.repeat(np.arange(6), period // 6)[:period]
    codes = np.tile(block, n_cycles)
    seq = coupled_of(codes, h=h)
    partition = partition_cycles(run_statistics(seq), (0,))
    return seq, partition


def partition_of(boundaries, length, arity=1):
    """A hand-made partition of ``length`` samples at ``boundaries``."""
    return CyclePartition(
        landmark_state=(0,) * arity, boundaries=boundaries, length=length
    )


class TestNormalizeCycle:
    """Each cycle's nearest-sample resampling inside ``build_passtensor``."""

    def test_length_equals_bins_is_identity(self):
        rng = np.random.default_rng(80)
        codes = rng.integers(0, 6, size=(32, 2))
        seq = coupled_of(codes)
        pt = build_passtensor(seq, partition_of([0, 16], 32, arity=2), bins=16)
        assert np.array_equal(pt.tensor[0], codes[:16].T)

    def test_centers_match_integer_arithmetic(self):
        rng = np.random.default_rng(81)
        codes = rng.integers(0, 6, size=(60, 1))
        seq = coupled_of(codes)
        for start, end, bins in ((0, 20, 8), (5, 42, 16), (10, 23, 12)):
            pt = build_passtensor(seq, partition_of([start, end], 60), bins)
            centers = bin_centers_literal(end - start, bins)
            want = codes[[start + c for c in centers]].T
            assert np.array_equal(pt.tensor[0], want)

    def test_short_cycle_upsamples_by_repetition(self):
        seq = coupled_of([4, 5, 1, 4, 4, 4, 4, 4, 4])
        pt = build_passtensor(seq, partition_of([0, 3], 9), bins=9)
        assert pt.tensor[0].tolist() == [[4, 4, 4, 5, 5, 5, 1, 1, 1]]

    def test_errors(self):
        seq = coupled_of([0, 1, 2, 3])
        with pytest.raises(ValueError, match="bins"):
            build_passtensor(seq, partition_of([0, 4], 4), bins=MIN_BINS - 1)
        # an empty cycle, or one outside the sequence, has no partition
        for boundaries in ([2, 2], [0, 5], [-1, 2], [3]):
            with pytest.raises(ValueError, match="boundaries"):
                partition_of(boundaries, 4)


class TestBuildPasstensor:
    def test_default_uses_every_cycle(self):
        seq, partition = periodic_pipeline(n_cycles=6)
        pt = build_passtensor(seq, partition, bins=12, code_book_id="k")
        assert (pt.n_cycles, pt.n_rings, pt.n_bins) == (5, 1, 12)
        assert pt.ring_labels == seq.subsystem_labels
        assert pt.alphabet_sizes == tuple(seq.h_per_subsystem)
        assert pt.landmark_state == partition.landmark_state
        assert pt.raw_lengths.tolist() == [24] * 5
        assert pt.code_book_id == "k"

    def test_cycle_range_one_based_inclusive(self):
        seq, partition = periodic_pipeline(n_cycles=8)
        pt = build_passtensor(seq, partition, bins=8, cycle_range=(2, 4))
        assert pt.n_cycles == 3
        full = build_passtensor(seq, partition, bins=8)
        assert np.array_equal(pt.tensor, full.tensor[1:4])

    def test_selection_errors(self):
        seq, partition = periodic_pipeline(n_cycles=5)
        with pytest.raises(ValueError, match="cycle_range"):
            build_passtensor(seq, partition, bins=8, cycle_range=(0, 2))
        with pytest.raises(ValueError, match="cycle_range"):
            build_passtensor(seq, partition, bins=8, cycle_range=(3, 9))

    def test_partition_sequence_length_checked(self):
        seq, partition = periodic_pipeline(n_cycles=6)
        other = coupled_of(np.zeros(10, dtype=np.int64))
        with pytest.raises(ValueError, match="different-length"):
            build_passtensor(other, partition, bins=8)

    def test_tensor_validation(self):
        with pytest.raises(ValueError, match="C x R x B"):
            Passtensor(
                tensor=np.zeros((2, 8), dtype=int),
                ring_labels=("c0",),
                alphabet_sizes=(6,),
                raw_lengths=np.array([8, 8]),
                landmark_state=(0,),
                code_book_id="",
            )
        with pytest.raises(ValueError, match="bins"):
            tensor_of(np.zeros((2, 1, 4), dtype=int))
        with pytest.raises(ValueError, match="outside"):
            tensor_of(np.full((2, 1, 8), 9), alphabet=6)


class TestSkeleton:
    def test_matches_mode_oracle(self):
        rng = np.random.default_rng(82)
        mixed = np.stack(
            [rng.integers(0, h, size=(7, 16)) for h in (3, 12)], axis=1
        )
        for pt in (
            tensor_of(rng.integers(0, 5, size=(7, 2, 16))),
            tensor_of(mixed, alphabet=(3, 12)),
        ):
            skel = skeleton(pt)
            for r in range(2):
                for b in range(16):
                    assert skel[r, b] == mode_literal(pt.tensor[:, r, b])

    def test_tie_takes_smaller_code(self):
        values = np.zeros((2, 1, 8), dtype=int)
        values[0, 0, :] = 5
        values[1, 0, :] = 2
        assert skeleton(tensor_of(values)).tolist() == [[2] * 8]


def perturb(pt, cells, delta=1):
    values = pt.tensor.copy()
    for c, r, b in cells:
        h = pt.alphabet_sizes[r]
        values[c, r, b] = (values[c, r, b] + delta) % h
    return Passtensor(
        tensor=values,
        ring_labels=pt.ring_labels,
        alphabet_sizes=pt.alphabet_sizes,
        raw_lengths=pt.raw_lengths,
        landmark_state=pt.landmark_state,
        code_book_id=pt.code_book_id,
    )


class TestCompare:
    def test_identity(self):
        rng = np.random.default_rng(83)
        pt = tensor_of(rng.integers(0, 6, size=(5, 2, 12)))
        diff = compare_passtensors(pt, pt)
        assert diff.distance == 0.0
        assert diff.skeleton_agreement == 1.0
        assert diff.stochastic_agreement == 1.0
        assert diff.mismatches == ()
        assert diff.ring_agreement == (1.0, 1.0)
        assert np.all(diff.cycle_agreement_a == diff.cycle_agreement_b)

    def test_code_book_guard(self):
        rng = np.random.default_rng(84)
        values = rng.integers(0, 6, size=(3, 1, 8))
        a = tensor_of(values, code_book_id="aaaa")
        b = tensor_of(values, code_book_id="bbbb")
        with pytest.raises(CodeBookMismatchError, match="code books differ"):
            compare_passtensors(a, b)

    def test_structure_guards(self):
        rng = np.random.default_rng(85)
        a = tensor_of(rng.integers(0, 6, size=(3, 2, 8)))
        narrower = tensor_of(rng.integers(0, 6, size=(3, 2, 16)))
        with pytest.raises(ValueError, match="bin counts"):
            compare_passtensors(a, narrower)
        other_alphabet = Passtensor(
            tensor=a.tensor,
            ring_labels=a.ring_labels,
            alphabet_sizes=(9, 9),
            raw_lengths=a.raw_lengths,
            landmark_state=a.landmark_state,
            code_book_id="cb",
        )
        with pytest.raises(ValueError, match="ring structure"):
            compare_passtensors(a, other_alphabet)

    def test_landmark_guard(self):
        a = tensor_of(np.zeros((2, 2, 8), dtype=int))
        b = dataclasses.replace(a, landmark_state=(0, 1))
        with pytest.raises(
            ValueError, match=r"landmarks differ: \(0, 0\) vs \(0, 1\)"
        ):
            compare_passtensors(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(86)
        a = tensor_of(rng.integers(0, 6, size=(6, 2, 12)))
        b = perturb(a, [(0, 0, 3), (2, 1, 7), (4, 0, 9)])
        ab = compare_passtensors(a, b)
        ba = compare_passtensors(b, a)
        assert ab.distance == ba.distance
        assert ab.skeleton_agreement == ba.skeleton_agreement
        assert ab.stochastic_agreement == ba.stochastic_agreement
        assert {(r, bn, x, y) for r, bn, x, y in ab.mismatches} == {
            (r, bn, y, x) for r, bn, x, y in ba.mismatches
        }

    def test_stochastic_agreement_matches_tv_oracle(self):
        rng = np.random.default_rng(87)

        def draw(cycles, sizes):
            values = [rng.integers(0, h, size=(cycles, 8)) for h in sizes]
            return tensor_of(np.stack(values, axis=1), alphabet=sizes)

        # one ring, then rings of unequal alphabets
        for sizes in ((4,), (3, 10)):
            a, b = draw(5, sizes), draw(9, sizes)
            diff = compare_passtensors(a, b)
            tvs = [
                total_variation_literal(a.tensor[:, r, bn], b.tensor[:, r, bn])
                for r in range(len(sizes))
                for bn in range(8)
            ]
            assert diff.stochastic_agreement == pytest.approx(
                1.0 - float(np.mean(tvs)), abs=1e-12
            )

    def test_single_cell_flip_registers(self):
        # 2 cycles: a flip changes the cell's histogram and, via the
        # smaller-code tie rule, can move the skeleton too
        rng = np.random.default_rng(88)
        pt = tensor_of(rng.integers(0, 6, size=(4, 1, 8)))
        flipped = perturb(pt, [(1, 0, 5)])
        diff = compare_passtensors(pt, flipped)
        assert diff.distance > 0.0

    def test_perturbation_count_monotone(self):
        rng = np.random.default_rng(89)
        pt = tensor_of(rng.integers(0, 6, size=(5, 2, 16)))
        cells = [(c % 5, c % 2, c) for c in range(10)]
        distances = [
            compare_passtensors(pt, perturb(pt, cells[:k])).distance
            for k in range(len(cells) + 1)
        ]
        assert distances[0] == 0.0
        assert all(b >= a for a, b in zip(distances, distances[1:]))
        assert distances[-1] > 0.0

    def test_cycle_order_invisible(self):
        rng = np.random.default_rng(90)
        pt = tensor_of(rng.integers(0, 6, size=(7, 2, 12)))
        shuffled = Passtensor(
            tensor=pt.tensor[rng.permutation(7)],
            ring_labels=pt.ring_labels,
            alphabet_sizes=pt.alphabet_sizes,
            raw_lengths=pt.raw_lengths,
            landmark_state=pt.landmark_state,
            code_book_id=pt.code_book_id,
        )
        diff = compare_passtensors(pt, shuffled)
        assert diff.distance == 0.0

    def test_weight_interpolates(self):
        rng = np.random.default_rng(91)
        a = tensor_of(rng.integers(0, 6, size=(5, 1, 8)))
        # three of five cycles flipped in one bin: the modes hold, the
        # histograms move
        b = perturb(a, [(c, 0, 2) for c in range(3)])
        diff = compare_passtensors(a, b)
        assert diff.skeleton_agreement != diff.stochastic_agreement
        assert diff.distance == pytest.approx(
            1.0 - (0.7 * diff.skeleton_agreement
                   + 0.3 * diff.stochastic_agreement),
            abs=1e-12,
        )


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(93)
        pt = tensor_of(rng.integers(0, 6, size=(4, 2, 10)), code_book_id="deadbeef")
        text = passtensor_to_text(pt)
        back = passtensor_from_text(text)
        assert np.array_equal(back.tensor, pt.tensor)
        assert back.ring_labels == pt.ring_labels
        assert back.alphabet_sizes == pt.alphabet_sizes
        assert back.raw_lengths.tolist() == pt.raw_lengths.tolist()
        assert back.landmark_state == pt.landmark_state
        assert back.code_book_id == "deadbeef"
        assert passtensor_to_text(back) == text
        path = tmp_path / "pt.txt"
        path.write_text(text)
        back = parse_file(path, passtensor_from_text)
        assert np.array_equal(back.tensor, pt.tensor)

    def test_empty_code_book_id_roundtrips(self):
        rng = np.random.default_rng(94)
        pt = tensor_of(rng.integers(0, 6, size=(2, 1, 8)), code_book_id="")
        assert passtensor_from_text(passtensor_to_text(pt)).code_book_id == ""

    def test_bad_magic(self):
        with pytest.raises(DataError, match="gaitpass-passtensor"):
            passtensor_from_text("gaitpass-codebook v1\n")


class TestRendering:
    def test_rings_svg_well_formed_and_deterministic(self):
        rng = np.random.default_rng(95)
        grid = rng.integers(0, 6, size=(2, 16))
        svg = render_rings(grid, ring_labels=("L", "R"))
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        assert svg == render_rings(grid, ring_labels=("L", "R"))
        assert svg.count("<path") == 32

    def test_rings_input_validation(self):
        with pytest.raises(ValueError, match="grid"):
            render_rings(np.zeros((2, 4), dtype=int))
        with pytest.raises(ValueError, match="palette"):
            render_rings(np.full((1, 8), 32, dtype=int))

    def test_cylinder_views(self, pipeline_clean):
        pipe = pipeline_clean
        pt = build_passtensor(pipe.coupled, pipe.partition, bins=48)
        unrolled = render_cylinder(pt, view="unrolled")
        isometric = render_cylinder(pt, view="isometric")
        assert "<svg" in unrolled and unrolled.rstrip().endswith("</svg>")
        assert "<svg" in isometric and isometric.rstrip().endswith("</svg>")
        assert f"{pt.n_cycles} cycles" in isometric
        assert unrolled == render_cylinder(pt, view="unrolled")
        with pytest.raises(ValueError, match="view"):
            render_cylinder(pt, view="sideways")

    def test_identical_cycles_collapse_to_few_rects(self, pipeline_clean):
        # jitter-free cycles are identical, so every grid row merges its
        # constant stretches into the same small rect count
        pipe = pipeline_clean
        pt = build_passtensor(pipe.coupled, pipe.partition, bins=48)
        svg = render_cylinder(pt, view="unrolled")
        per_row = svg.count("<rect") / (pt.n_cycles * pt.n_rings)
        assert per_row <= 10
