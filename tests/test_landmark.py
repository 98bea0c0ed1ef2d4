"""Run-length statistics, landmark choice, and cycle partitioning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpass.l1g2 import CoupledStateSequence
from gaitpass.landmark import (
    cycles_to_tsv,
    partition_cycles,
    run_statistics,
    select_landmark,
)
from oracles import runs_literal, sample_variance_literal


def run_sizes(stats):
    """Length of each run: the gap to the next run start or the end."""
    return np.diff(np.append(stats.run_starts, stats.length))


def expand(stats):
    """Rebuild the T x k code matrix from the run encoding."""
    return np.repeat(stats.run_states, run_sizes(stats), axis=0)


def coupled(rows, h=None):
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim == 1:
        rows = rows[:, None]
    if h is None:
        h = int(rows.max()) + 1
    return CoupledStateSequence(
        codes=rows,
        subsystem_labels=tuple(f"c{j}" for j in range(rows.shape[1])),
        h_per_subsystem=(h,) * rows.shape[1],
    )


class TestRunStatistics:
    def test_matches_literal_rle(self):
        rng = np.random.default_rng(70)
        codes = rng.integers(0, 3, size=(200, 2))
        stats = run_statistics(coupled(codes))
        want = runs_literal(codes)
        assert stats.run_states.tolist() == [list(w[0]) for w in want]
        assert stats.run_starts.tolist() == [w[1] for w in want]
        assert run_sizes(stats).tolist() == [w[2] for w in want]
        assert stats.length == 200

    def test_per_state_grouping_and_variances(self):
        # state 7: runs at 0 (size 2), 5 (size 1); state 3: run at 2 (size 3)
        stats = run_statistics(coupled([7, 7, 3, 3, 3, 7]))
        seven = stats.per_state[(7,)]
        assert seven.run_starts.tolist() == [0, 5]
        runs = np.searchsorted(stats.run_starts, seven.run_starts)
        assert run_sizes(stats)[runs].tolist() == [2, 1]
        assert seven.size_variance == sample_variance_literal([2, 1])
        # one recurrence observation -> defined, zero spread
        assert seven.recurrence_variance == 0.0
        three = stats.per_state[(3,)]
        assert three.run_count == 1
        assert three.recurrence_variance == math.inf

    def test_expand_rebuilds_codes(self):
        rng = np.random.default_rng(71)
        codes = rng.integers(0, 4, size=(80, 3))
        stats = run_statistics(coupled(codes))
        assert np.array_equal(expand(stats), codes)

    def test_too_short(self):
        with pytest.raises(ValueError, match=">= 2"):
            run_statistics(coupled([1]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2), min_size=2, max_size=120
        )
    )
    def test_expand_roundtrip_property(self, symbols):
        codes = np.array(symbols)[:, None]
        stats = run_statistics(coupled(codes))
        assert np.array_equal(expand(stats), codes)
        # run sizes tile the sequence exactly
        assert int(run_sizes(stats).sum()) == len(symbols)


class TestSelectLandmark:
    def test_prefers_regular_state(self):
        # state 9 recurs every 6 samples with constant run size; state 1's
        # runs vary in both size and spacing
        pattern = [9, 9, 1, 1, 1, 2, 9, 9, 1, 2, 2, 2, 9, 9, 1, 1, 2, 2]
        seq = coupled(pattern * 4)
        landmark = select_landmark(run_statistics(seq), min_runs=3)
        assert landmark == (9,)

    def test_min_runs_filters(self):
        stats = run_statistics(coupled([5, 1, 5, 1, 5, 2]))
        with pytest.raises(ValueError, match="no state"):
            select_landmark(stats, min_runs=4)
        assert select_landmark(stats, min_runs=3) == (5,)

    def test_tie_breaks_on_run_count_then_state(self):
        # two perfectly regular states; 0 and 1 alternate so both have
        # identical variances and counts -> lexicographically smaller wins
        stats = run_statistics(coupled([0, 1] * 10))
        assert select_landmark(stats, min_runs=2) == (0,)

    def test_objective_sums_both_variances(self):
        # state 3: constant sizes, wobbly spacing; state 9: wobbly sizes,
        # constant spacing.  Size variance alone would pick 3; the sum
        # picks 9.
        base = [9, 1, 1, 3, 2, 2, 9, 9, 1, 2, 3, 2]
        stats = run_statistics(coupled(base * 4))
        objective = {
            state: runs.size_variance + runs.recurrence_variance
            for state, runs in stats.per_state.items()
        }
        assert select_landmark(stats, min_runs=3) == (9,)
        assert min(objective, key=objective.get) == (9,)
        three, nine = stats.per_state[(3,)], stats.per_state[(9,)]
        assert three.size_variance == 0.0 < nine.size_variance
        assert nine.recurrence_variance == 0.0 < three.recurrence_variance


class TestPartitionCycles:
    def test_hand_case(self):
        seq = coupled([7, 1, 1, 7, 2, 2, 2, 7, 1, 2])
        part = partition_cycles(run_statistics(seq), (7,))
        assert part.boundaries.tolist() == [0, 3, 7]
        assert part.cycles == ((0, 3), (3, 7))
        assert part.head == (0, 0)
        assert part.tail == (7, 10)
        assert part.n_cycles == 2
        assert part.period_mean == 3.5
        assert part.period_sd == math.sqrt(sample_variance_literal([3, 4]))
        assert np.diff(part.boundaries).tolist() == [3, 4]

    def test_head_before_first_landmark(self):
        seq = coupled([1, 1, 7, 2, 7, 2])
        part = partition_cycles(run_statistics(seq), (7,))
        assert part.head == (0, 2)
        assert part.boundaries.tolist() == [2, 4]

    def test_arity_mismatch(self):
        seq = coupled(np.array([[1, 2], [3, 4]]), h=9)
        with pytest.raises(ValueError, match="arity"):
            partition_cycles(run_statistics(seq), (1,))

    def test_needs_two_runs(self):
        seq = coupled([7, 7, 1, 1])
        with pytest.raises(ValueError, match="at least 2"):
            partition_cycles(run_statistics(seq), (7,))
        with pytest.raises(ValueError, match="at least 2"):
            partition_cycles(run_statistics(seq), (9,))

    def test_consecutive_landmark_runs_not_merged(self):
        # a landmark run interrupted by one sample yields two run starts
        seq = coupled([7, 7, 1, 7, 7, 2, 7])
        part = partition_cycles(run_statistics(seq), (7,))
        assert part.boundaries.tolist() == [0, 3, 6]

    def test_tsv(self):
        seq = coupled([7, 1, 7, 2, 2, 7])
        text = cycles_to_tsv(partition_cycles(run_statistics(seq), (7,)))
        assert text == "cycle\tstart\tlength\n0\t0\t2\n1\t2\t3\n"


class TestWalkerRecovery:
    def test_marker_state_wins_under_jitter(self, pipeline_jittered):
        pipe = pipeline_jittered
        walk = pipe.walk
        assert pipe.partition.n_cycles == walk.n_cycles
        assert len(pipe.partition.boundaries) == len(walk.marker_onsets)
        deviation = np.abs(pipe.partition.boundaries - walk.marker_onsets)
        assert deviation.max() <= 1

    def test_clean_walk_recovered_exactly(self, pipeline_clean):
        pipe = pipeline_clean
        walk = pipe.walk
        assert pipe.partition.n_cycles == walk.n_cycles
        assert np.array_equal(pipe.partition.boundaries, walk.marker_onsets)
        assert pipe.partition.period_sd == 0.0
        # all cycles carry the same code block
        codes = pipe.coupled.codes
        first = codes[pipe.partition.cycles[0][0] : pipe.partition.cycles[0][1]]
        for start, stop in pipe.partition.cycles:
            assert np.array_equal(codes[start:stop], first)
