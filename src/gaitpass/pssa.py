"""Principle system-state analysis over ternary state-vector sequences.

Distinct D-digit states are ranked by pooled frequency; the top N* states
form the principle set.  Recordings are then summarized segment by segment
as occupancy proportions over that set, and subjects are told apart by
small per-subject key subsets whose summed occupancy separates one
subject's segments from everyone else's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .ingest import LineReader
from .symbolic import StateVectorSequence

# The most states a subject's key set holds.
MAX_KEYS = 10


def state_label(state) -> str:
    """Digit string for one state vector, e.g. (1, 2, 1) -> '121'."""
    return "".join(str(int(d)) for d in state)


@dataclass(frozen=True, eq=False)
class SystemStateTable:
    """Distinct states with pooled counts, ranked most frequent first."""

    states: np.ndarray
    frequencies: np.ndarray
    pool_size: int

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=np.uint8)
        freqs = np.array(self.frequencies, dtype=np.int64)
        if states.ndim != 2 or states.shape[0] < 1:
            raise ValueError("states must be an N x D matrix with N >= 1")
        if freqs.shape != (states.shape[0],) or freqs.min() < 1:
            raise ValueError("one positive count per distinct state required")
        if np.any(np.diff(freqs) > 0):
            raise ValueError("frequencies must be nonincreasing")
        if int(freqs.sum()) != self.pool_size:
            raise ValueError("frequencies must sum to the pool size")
        states.flags.writeable = False
        freqs.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "frequencies", freqs)

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @property
    def n_dims(self) -> int:
        return self.states.shape[1]


def build_state_table(seqs: list[StateVectorSequence]) -> SystemStateTable:
    """Pool sequences and rank their distinct states.

    Ranking is by decreasing pooled count; equal counts order
    lexicographically by digit vector.
    """
    if not seqs:
        raise ValueError("at least one sequence is required")
    d = seqs[0].n_dims
    for seq in seqs[1:]:
        if seq.n_dims != d:
            raise ValueError(f"dimension mismatch: {seq.n_dims} vs {d}")
    pooled = np.concatenate([seq.states for seq in seqs], axis=0)
    _, first, counts = np.unique(
        _row_keys(pooled), return_index=True, return_counts=True
    )
    # Keys sort as their rows do, so np.unique returns the rows in
    # lexicographic order and a stable sort on descending count keeps the
    # lexicographic tie rule.
    order = np.argsort(-counts, kind="stable")
    return SystemStateTable(
        states=pooled[first[order]],
        frequencies=counts[order],
        pool_size=pooled.shape[0],
    )


def coverage_curve(table: SystemStateTable) -> np.ndarray:
    """Cumulative frequency share of the top N* states, for N* = 1..N.

    Shares are of the pooled sample count, so the curve ends at exactly 1.0.
    """
    return np.cumsum(table.frequencies) / float(table.pool_size)


def select_pss(
    table: SystemStateTable,
    n_states: int | None = None,
    coverage: float | None = None,
) -> np.ndarray:
    """Pick the principle set: top-N* states by rank.

    Give either ``n_states`` directly, or ``coverage`` to take the smallest
    N* whose pooled coverage reaches that fraction.  N* is capped at the
    number of distinct states.
    """
    if (n_states is None) == (coverage is None):
        raise ValueError("give exactly one of n_states or coverage")
    if coverage is not None:
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must lie in (0, 1]")
        curve = coverage_curve(table)
        n_states = int(np.searchsorted(curve, coverage) + 1)
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    n_states = min(n_states, table.n_states)
    return table.states[:n_states].copy()


def _row_keys(states: np.ndarray) -> np.ndarray:
    """One ``int64`` key per row of a ``uint8`` state matrix.

    Keys sort as the rows sort lexicographically, and equal keys mean equal
    rows.  Digits are packed at the width the largest one needs; before a
    shift would pass 62 bits the partial keys are replaced by their ranks,
    so keys made in one call share one key space and another call's do not.
    """
    width = max(int(states.max(initial=0)).bit_length(), 1)
    keys = np.zeros(states.shape[0], dtype=np.int64)
    bits = 0
    for column in states.T:
        if bits + width > 62:
            _, keys = np.unique(keys, return_inverse=True)
            bits = int(keys.max(initial=0)).bit_length()
        keys = (keys << width) | column
        bits += width
    return keys


def segment_proportions(
    seq: StateVectorSequence, pss: np.ndarray, segment_length: int
) -> np.ndarray:
    """Occupancy proportions over ``pss`` for each full-length segment.

    The sequence is chopped into floor(T / l) non-overlapping segments of
    ``l = segment_length`` samples; the trailing remainder is dropped.
    Row j of the result is the fraction of segment j's samples spent in
    each principle state, so rows sum to at most 1.
    """
    pss = np.array(pss, dtype=np.uint8)
    if pss.ndim != 2 or pss.shape[1] != seq.n_dims:
        raise ValueError("pss must be N* x D with D matching the sequence")
    if segment_length < 1:
        raise ValueError("segment_length must be >= 1")
    if seq.n_samples < segment_length:
        raise ValueError(
            f"sequence has {seq.n_samples} samples, shorter than one "
            f"segment of {segment_length}"
        )
    n_segments = seq.n_samples // segment_length
    keys = _row_keys(
        np.concatenate([pss, seq.states[: n_segments * segment_length]])
    )
    keys, samples = keys[: pss.shape[0]], keys[pss.shape[0] :]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # A state listed twice in pss counts towards its last listing.
    right = np.searchsorted(sorted_keys, samples, side="right")
    hit = right > np.searchsorted(sorted_keys, samples, side="left")
    codes = order[right[hit] - 1]
    segments = np.flatnonzero(hit) // segment_length
    counts = np.bincount(
        segments * pss.shape[0] + codes, minlength=n_segments * pss.shape[0]
    )
    return counts.reshape(n_segments, pss.shape[0]) / float(segment_length)


@dataclass(frozen=True, eq=False)
class ProportionMatrix:
    """m x N* occupancy matrix with per-row subject and segment labels."""

    proportions: np.ndarray
    subjects: tuple[str, ...]
    segment_indices: tuple[int, ...]
    pss: np.ndarray
    segment_length: int

    def __post_init__(self) -> None:
        proportions = np.array(self.proportions, dtype=float)
        pss = np.array(self.pss, dtype=np.uint8)
        if proportions.ndim != 2 or proportions.shape[0] < 1:
            raise ValueError("proportions must be m x N* with m >= 1")
        if proportions.shape[1] != pss.shape[0]:
            raise ValueError("one column per principle state required")
        if len(self.subjects) != proportions.shape[0]:
            raise ValueError("one subject label per row required")
        if len(self.segment_indices) != proportions.shape[0]:
            raise ValueError("one segment index per row required")
        if proportions.min() < 0 or np.any(
            proportions.sum(axis=1) > 1.0 + 1e-9
        ):
            raise ValueError("rows must be proportions summing to <= 1")
        if self.segment_length < 1:
            raise ValueError("segment_length must be >= 1")
        proportions.flags.writeable = False
        pss.flags.writeable = False
        object.__setattr__(self, "proportions", proportions)
        object.__setattr__(self, "pss", pss)
        object.__setattr__(self, "subjects", tuple(self.subjects))
        object.__setattr__(
            self, "segment_indices", tuple(int(i) for i in self.segment_indices)
        )

    @property
    def n_rows(self) -> int:
        return self.proportions.shape[0]

    @property
    def n_states(self) -> int:
        return self.proportions.shape[1]


def build_proportion_matrix(
    seqs_by_subject: dict[str, StateVectorSequence | list[StateVectorSequence]],
    pss: np.ndarray,
    segment_length: int,
) -> ProportionMatrix:
    """Assemble the occupancy matrix over several subjects' sequences.

    A subject's list of recordings keeps one running segment index.
    """
    parts: list[np.ndarray] = []
    subjects: list[str] = []
    for subject, value in seqs_by_subject.items():
        seqs = value if isinstance(value, list) else [value]
        part = np.concatenate(
            [segment_proportions(seq, pss, segment_length) for seq in seqs]
        )
        parts.append(part)
        subjects.extend([subject] * part.shape[0])
    if not subjects:
        raise ValueError("no segments produced; sequences too short?")
    return ProportionMatrix(
        proportions=np.concatenate(parts),
        subjects=tuple(subjects),
        segment_indices=tuple(
            index for part in parts for index in range(part.shape[0])
        ),
        pss=pss,
        segment_length=segment_length,
    )


def _take_rows(sigma: ProportionMatrix, mask: np.ndarray) -> ProportionMatrix:
    return ProportionMatrix(
        proportions=sigma.proportions[mask],
        subjects=tuple(compress(sigma.subjects, mask)),
        segment_indices=tuple(compress(sigma.segment_indices, mask)),
        pss=sigma.pss,
        segment_length=sigma.segment_length,
    )


def split_alternating(
    sigma: ProportionMatrix,
) -> tuple[ProportionMatrix, ProportionMatrix]:
    """Even-indexed segments train, odd-indexed segments test.

    Alternation happens per subject on the segment index, so both halves
    cover every subject and every part of the recording.
    """
    even = np.array([i % 2 == 0 for i in sigma.segment_indices])
    if not even.any() or even.all():
        raise ValueError("split needs segments on both sides; too few rows")
    return _take_rows(sigma, even), _take_rows(sigma, ~even)


@dataclass(frozen=True, eq=False)
class KeyPssModel:
    """Per-subject key-state sets with firing thresholds and centroids."""

    subjects: tuple[str, ...]
    pss: np.ndarray
    key_sets: dict[str, tuple[int, ...]]
    thresholds: dict[str, float]
    centroids: dict[str, np.ndarray]
    segment_length: int

    @property
    def n_states(self) -> int:
        return self.pss.shape[0]


def _greedy_keys(
    own: np.ndarray, others: np.ndarray
) -> tuple[tuple[int, ...], float, float]:
    """Grow a key set maximizing min(own sums) - max(other sums).

    Stops as soon as the margin is positive, at ``MAX_KEYS`` states, or
    when every principle state is in the set.  Returns (key set,
    threshold, final margin); the threshold is the midpoint of the two
    sums defining the margin.
    """
    n_states = own.shape[1]
    chosen: list[int] = []
    own_sums = np.zeros(own.shape[0])
    other_sums = np.zeros(others.shape[0])
    margin = -np.inf
    available = np.ones(n_states, dtype=bool)
    while len(chosen) < min(MAX_KEYS, n_states):
        mins = np.min(own_sums[:, None] + own, axis=0)
        maxs = np.max(other_sums[:, None] + others, axis=0)
        margins = np.where(available, mins - maxs, -np.inf)
        j = int(np.argmax(margins))
        chosen.append(j)
        available[j] = False
        own_sums = own_sums + own[:, j]
        other_sums = other_sums + others[:, j]
        margin = float(np.min(own_sums) - np.max(other_sums))
        if margin > 0:
            break
    threshold = float((np.min(own_sums) + np.max(other_sums)) / 2.0)
    return tuple(chosen), threshold, margin


def train_key_pss(
    sigma: ProportionMatrix,
) -> tuple[KeyPssModel, dict[str, float]]:
    """Learn one key-state set per subject from a training matrix.

    For each subject, states are added greedily to maximize the separation
    between the subject's lowest summed occupancy and every other row's
    highest; the firing threshold is the midpoint of that gap.  Needs at
    least two subjects with at least two segments each.  Returns the model
    and each subject's final training margin.
    """
    counts = Counter(sigma.subjects)
    if len(counts) < 2:
        raise ValueError("training needs at least two subjects")
    thin = [s for s, c in counts.items() if c < 2]
    if thin:
        raise ValueError(f"subjects with fewer than two segments: {thin}")

    subjects = tuple(counts)
    labels = np.array(sigma.subjects)
    key_sets: dict[str, tuple[int, ...]] = {}
    thresholds: dict[str, float] = {}
    centroids: dict[str, np.ndarray] = {}
    margins: dict[str, float] = {}
    for subject in subjects:
        mask = labels == subject
        own = sigma.proportions[mask]
        key_sets[subject], thresholds[subject], margins[subject] = (
            _greedy_keys(own, sigma.proportions[~mask])
        )
        centroids[subject] = own.mean(axis=0)

    model = KeyPssModel(
        subjects=subjects,
        pss=sigma.pss,
        key_sets=key_sets,
        thresholds=thresholds,
        centroids=centroids,
        segment_length=sigma.segment_length,
    )
    return model, margins


@dataclass(frozen=True, eq=False)
class Classification:
    """Per-row outcome of attributing a matrix's rows to subjects.

    ``predicted`` holds each row's subject, ``fallback`` marks the rows no
    rule fired for, and ``score`` is the predicted subject's relative margin.
    """

    predicted: tuple[str, ...]
    fallback: np.ndarray
    score: np.ndarray

    def accuracy(self, subjects: tuple[str, ...]) -> float:
        """Fraction of rows attributed to their labeled subject."""
        correct = sum(p == t for p, t in zip(self.predicted, subjects))
        return correct / float(len(self.predicted))


def classify_matrix(model: KeyPssModel, sigma: ProportionMatrix) -> Classification:
    """Attribute each occupancy row to a subject.

    Each subject's rule fires when the summed occupancy over its key set
    exceeds its threshold; among firing rules the largest relative margin
    wins.  When no rule fires, the nearest training centroid (Euclidean,
    over the full row) decides and the row is marked as a fallback.
    """
    if sigma.n_states != model.n_states:
        raise ValueError(
            f"rows have {sigma.n_states} states, model has {model.n_states}"
        )
    key_lists = [list(model.key_sets[s]) for s in model.subjects]
    thresholds = [model.thresholds[s] for s in model.subjects]
    centroids = [model.centroids[s] for s in model.subjects]
    predicted, fallback, score = [], [], []
    # One 1-D sum and one 1-D norm per row and subject: an axis-1 reduction
    # over the matrix adds in another order and moves the last bits.
    for row in sigma.proportions:
        totals = [float(row[keys].sum()) for keys in key_lists]
        rels = [
            (total - threshold) / max(abs(threshold), 1e-12)
            for total, threshold in zip(totals, thresholds)
        ]
        fired = [j for j, threshold in enumerate(thresholds) if totals[j] > threshold]
        if fired:
            best = max(fired, key=rels.__getitem__)
        else:
            dists = [float(np.linalg.norm(row - c)) for c in centroids]
            best = dists.index(min(dists))
        predicted.append(model.subjects[best])
        fallback.append(not fired)
        score.append(rels[best])
    return Classification(
        predicted=tuple(predicted),
        fallback=np.array(fallback, dtype=bool),
        score=np.array(score),
    )


def _average_leaf_order(points: np.ndarray) -> np.ndarray:
    """Leaf order of the average-linkage dendrogram over the rows of ``points``.

    A copy of scipy 1.17's ``leaves_list(linkage(points, "average"))``, so
    that ordering the heatmap loads no scipy module.  Euclidean distances
    are summed one dimension at a time, as ``pdist`` sums them.  The
    nearest-neighbour chain (Muellner 2011, arXiv:1109.2378) steps to the
    lowest-index nearest cluster unless the previous one is as near, and
    merges into the higher index by the size-weighted update.  The merges
    are stably sorted by height and numbered as scipy numbers them; the
    order lists the root's leaves, left subtree first.
    """
    n = points.shape[0]
    dist = np.zeros((n, n))
    for column in points.T:
        dist += np.square(column[:, None] - column[None, :])
    dist = np.sqrt(dist)
    np.fill_diagonal(dist, np.inf)
    size = np.ones(n, dtype=np.int64)
    pairs, heights, chain = [], [], []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(size)[0]))
        while len(chain) < 2 or dist[chain[-1]].min() < dist[chain[-1], chain[-2]]:
            chain.append(int(np.argmin(dist[chain[-1]])))
        x, y = sorted((chain.pop(), chain.pop()))
        nx, ny = int(size[x]), int(size[y])
        pairs.append((x, y))
        heights.append(dist[x, y])
        size[x], size[y] = 0, nx + ny
        row = (nx * dist[x] + ny * dist[y]) / (nx + ny)
        row[size == 0] = np.inf
        row[y] = np.inf
        dist[y], dist[:, y] = row, row
        dist[x], dist[:, x] = np.inf, np.inf
    # Each merge, in height order, joins the clusters its two leaves are in,
    # the lower-numbered one on the left; a cluster holds its leaves in order.
    cluster = np.arange(n)
    leaves = {i: [i] for i in range(n)}
    for label, k in enumerate(np.argsort(heights, kind="mergesort"), start=n):
        left, right = sorted(int(cluster[leaf]) for leaf in pairs[k])
        leaves[label] = leaves.pop(left) + leaves.pop(right)
        cluster[leaves[label]] = label
    return np.array(leaves[2 * n - 2], dtype=np.intp)


def cluster_sigma(sigma: ProportionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Average-linkage dendrogram leaf orders for the matrix rows and columns.

    Returns ``(row_order, col_order)`` as permutations; used to reorder
    the matrix before rendering so similar segments sit together.  An axis
    of one item orders as ``[0]``.
    """
    return (
        _average_leaf_order(sigma.proportions),
        _average_leaf_order(sigma.proportions.T),
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def sigma_to_tsv(sigma: ProportionMatrix) -> str:
    """Tab-separated export: subject, segment, then one column per state."""
    header = ["subject", "segment"] + [state_label(s) for s in sigma.pss]
    lines = ["\t".join(header)]
    for subject, index, row in zip(
        sigma.subjects, sigma.segment_indices, sigma.proportions
    ):
        lines.append(
            "\t".join([subject, str(index)] + [repr(float(v)) for v in row])
        )
    return "\n".join(lines) + "\n"


_MODEL_MAGIC = "gaitpass-keypss v2"


def model_to_text(model: KeyPssModel) -> str:
    lines = [
        _MODEL_MAGIC,
        f"segment_length {model.segment_length}",
        f"states {model.n_states} {model.pss.shape[1]}",
    ]
    for row in model.pss:
        lines.append(state_label(row))
    lines.append(f"subjects {len(model.subjects)}")
    for subject in model.subjects:
        keys = " ".join(str(k) for k in model.key_sets[subject])
        lines.append(f"subject {subject}")
        lines.append(f"keys {keys}")
        lines.append(f"threshold {repr(model.thresholds[subject])}")
        lines.append(
            "centroid " + " ".join(repr(float(v)) for v in model.centroids[subject])
        )
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> KeyPssModel:
    lines = LineReader(text, _MODEL_MAGIC)
    segment_length = lines.value("segment_length", int)
    if segment_length < 1:
        raise lines.error(f"segment_length {segment_length} is below 1")
    n_states, d = lines.values("states", int, 2)
    if n_states < 1:
        raise lines.error(f"states {n_states} is below 1")
    rows = []
    for _ in range(n_states):
        label = lines.line()
        if len(label) != d or not set(label) <= set("123"):
            raise lines.error(
                f"expected a state of {d} digits 1-3, found {label!r}"
            )
        rows.append([int(ch) for ch in label])
    pss = np.array(rows, dtype=np.uint8).reshape(n_states, d)
    subjects: list[str] = []
    key_sets: dict[str, tuple[int, ...]] = {}
    thresholds: dict[str, float] = {}
    centroids: dict[str, np.ndarray] = {}
    n_subjects = lines.value("subjects", int)
    if n_subjects < 1:
        raise lines.error(f"subjects {n_subjects} is below 1")
    for _ in range(n_subjects):
        subject = lines.rest("subject")
        if subject in subjects:
            raise lines.error(f"subject {subject!r} named twice")
        subjects.append(subject)
        keys = lines.values("keys", int)
        if not keys or len(set(keys).intersection(range(n_states))) < len(keys):
            raise lines.error(f"keys {keys} must be distinct indices below {n_states}")
        key_sets[subject] = tuple(keys)
        thresholds[subject] = lines.value("threshold")
        centroids[subject] = np.array(lines.values("centroid", float, n_states))
    lines.finish()
    return KeyPssModel(
        subjects=tuple(subjects),
        pss=pss,
        key_sets=key_sets,
        thresholds=thresholds,
        centroids=centroids,
        segment_length=segment_length,
    )
