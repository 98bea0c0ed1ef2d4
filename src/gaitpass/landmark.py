"""Run statistics and landmark partition of coupled state sequences.

A run is a maximal stretch over which one tuple state repeats.  The
landmark is the state whose run sizes and recurrence times (gaps between
successive run starts) are jointly most regular; its run starts slice the
trajectory into rhythmic cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .l1g2 import CoupledStateSequence


def _sample_variance(values: np.ndarray) -> float:
    # one observation carries no spread information; call it zero rather
    # than leaving the n-1 divisor undefined
    if values.shape[0] < 2:
        return 0.0
    return float(np.var(values, ddof=1))


@dataclass(frozen=True, eq=False)
class StateRuns:
    """All runs of one state: where they start and how regular they are."""

    state: tuple[int, ...]
    run_starts: np.ndarray
    size_variance: float
    recurrence_variance: float

    @property
    def run_count(self) -> int:
        return self.run_starts.shape[0]


@dataclass(frozen=True, eq=False)
class RunStatistics:
    """Run-length encoding of a sequence, grouped per distinct state.

    ``run_states`` holds each run's state as one row of a runs x k array.
    """

    per_state: dict[tuple[int, ...], StateRuns]
    run_states: np.ndarray
    run_starts: np.ndarray
    length: int


def run_statistics(seq: CoupledStateSequence) -> RunStatistics:
    """Run-length encode a sequence and compute per-state regularity.

    Variances are sample variances (n - 1 divisor); a state with fewer
    than two runs has no recurrence times and gets +inf as its recurrence
    variance so it can never win the landmark selection.  ``per_state``
    lists the states in order of first appearance.
    """
    if seq.n_samples < 2:
        raise ValueError("run statistics need a sequence of length >= 2")
    codes = seq.codes
    changed = np.any(codes[1:] != codes[:-1], axis=1)
    starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
    sizes = np.diff(np.concatenate((starts, [seq.n_samples])))
    states = codes[starts]

    # One opaque key per run's state row.  np.unique numbers the keys in
    # sorted order; a stable sort on that number lists each state's runs
    # in sequence order, and the states are visited by first appearance.
    keys = states.view(f"V{states.itemsize * states.shape[1]}").ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_key = np.argsort(inverse, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(inverse))))

    per_state: dict[tuple[int, ...], StateRuns] = {}
    for key in np.argsort(first).tolist():
        indices = by_key[bounds[key] : bounds[key + 1]]
        state = tuple(states[first[key]].tolist())
        s_starts = starts[indices]
        per_state[state] = StateRuns(
            state=state,
            run_starts=s_starts,
            size_variance=_sample_variance(sizes[indices]),
            recurrence_variance=(
                math.inf if len(indices) < 2 else _sample_variance(np.diff(s_starts))
            ),
        )
    return RunStatistics(
        per_state=per_state,
        run_states=states,
        run_starts=starts,
        length=seq.n_samples,
    )


def select_landmark(stats: RunStatistics, min_runs: int = 5) -> tuple[int, ...]:
    """Pick the state minimizing size variance + recurrence variance.

    The two terms are summed as-is, in squared-sample units.  Only states
    with at least ``min_runs`` runs compete.  Ties go to the state with
    more runs, then to the lexicographically smaller tuple.
    """
    eligible = [
        runs for runs in stats.per_state.values() if runs.run_count >= min_runs
    ]
    if not eligible:
        raise ValueError(
            f"no state has >= {min_runs} runs; sequence too short or "
            "min_runs too strict"
        )
    best = min(
        eligible,
        key=lambda runs: (
            runs.size_variance + runs.recurrence_variance,
            -runs.run_count,
            runs.state,
        ),
    )
    return best.state


@dataclass(frozen=True, eq=False)
class CyclePartition:
    """Trajectory sliced at every run start of the landmark state."""

    landmark_state: tuple[int, ...]
    boundaries: np.ndarray
    length: int

    def __post_init__(self) -> None:
        boundaries = np.array(self.boundaries, dtype=np.int64)
        if (
            boundaries.shape[0] < 2
            or np.any(np.diff(boundaries) <= 0)
            or boundaries[0] < 0
            or boundaries[-1] > self.length
        ):
            raise ValueError(
                "boundaries must be >= 2 strictly increasing indices "
                f"within [0, {self.length}]"
            )
        boundaries.flags.writeable = False
        object.__setattr__(self, "boundaries", boundaries)

    @property
    def cycles(self) -> tuple[tuple[int, int], ...]:
        edges = self.boundaries.tolist()
        return tuple(zip(edges[:-1], edges[1:]))

    @property
    def n_cycles(self) -> int:
        return self.boundaries.shape[0] - 1

    @property
    def head(self) -> tuple[int, int]:
        return 0, int(self.boundaries[0])

    @property
    def tail(self) -> tuple[int, int]:
        return int(self.boundaries[-1]), self.length

    @property
    def period_mean(self) -> float:
        return float(np.mean(np.diff(self.boundaries)))

    @property
    def period_sd(self) -> float:
        return math.sqrt(_sample_variance(np.diff(self.boundaries)))


def partition_cycles(
    stats: RunStatistics, landmark: tuple[int, ...]
) -> CyclePartition:
    """Cut a run-length encoded sequence at each run start of ``landmark``.

    Samples before the first start and from the last start onward are not
    cycles; they are reported as head and tail remainders.
    """
    landmark = tuple(int(v) for v in landmark)
    arity = stats.run_states.shape[1]
    if len(landmark) != arity:
        raise ValueError(
            f"landmark arity {len(landmark)} does not match sequence "
            f"arity {arity}"
        )
    runs = stats.per_state.get(landmark)
    if runs is None or runs.run_count < 2:
        raise ValueError(
            f"landmark {landmark} occurs as {0 if runs is None else runs.run_count} "
            "run starts; need at least 2"
        )
    return CyclePartition(
        landmark_state=landmark,
        boundaries=runs.run_starts,
        length=stats.length,
    )


def cycles_to_tsv(partition: CyclePartition) -> str:
    """Cycle table export: index, start sample, length in samples."""
    lines = ["cycle\tstart\tlength"]
    for idx, (start, end) in enumerate(partition.cycles):
        lines.append(f"{idx}\t{start}\t{end - start}")
    return "\n".join(lines) + "\n"
