"""Slow, literal reference implementations used to cross-check the library.

Every function here transcribes the defining procedure as directly as
possible and shares no code with the production modules (the table
parser raises the library's ``DataError``, so messages compare directly).
The per-cell, per-run and per-cycle loops at the end are the library's
own earlier versions, kept verbatim; they use its SVG helpers and walker
levels, which are not what they check.  Tests treat agreement between the
two sides on randomized inputs as evidence for both.  Where numba is installed the phrase counter is jitted, since the
acceptance sweep calls it a thousand times on long sequences.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from gaitpass.errors import DataError
from gaitpass.ingest import MARKER_LEVEL, _phase_levels
from gaitpass.svgfig import _f, svg_document, text


# ---------------------------------------------------------------------------
# production-history phrase counting
# ---------------------------------------------------------------------------

def _pointer_walk(s: np.ndarray) -> int:
    # classic two-pointer scan: i is the copy candidate, l the phrase
    # start, k the current match length, k_max the longest match so far
    n = s.shape[0]
    if n == 1:
        return 1
    c = 1
    l = 1
    i = 0
    k = 1
    k_max = 1
    while True:
        if s[i + k - 1] == s[l + k - 1]:
            k += 1
            if l + k > n:
                c += 1
                break
        else:
            if k > k_max:
                k_max = k
            i += 1
            if i == l:
                c += 1
                l += k_max
                if l + 1 > n:
                    break
                i = 0
                k = 1
                k_max = 1
            else:
                k = 1
    return c


try:
    from numba import njit

    _pointer_walk = njit(_pointer_walk)
except ImportError:
    pass


def lz76_phrases_literal(symbols) -> int:
    """Phrase count of the exhaustive production history, pointer-walk style."""
    arr = np.ascontiguousarray(symbols, dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError("need a nonempty 1-D symbol array")
    return int(_pointer_walk(arr))


def lz76_text_by_chr(symbols) -> str:
    """The LZ76 scan's string image, one ``chr`` per symbol."""
    return "".join(chr(256 + int(s)) for s in symbols)


# ---------------------------------------------------------------------------
# empirical quantiles (linear interpolation between order statistics)
# ---------------------------------------------------------------------------

def quantile_type7_literal(values, q: float) -> float:
    x = sorted(float(v) for v in values)
    pos = (len(x) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(x) - 1)
    return x[lo] + (pos - lo) * (x[hi] - x[lo])


# ---------------------------------------------------------------------------
# bottom-up column agglomeration via Lance-Williams updates
# ---------------------------------------------------------------------------

def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def agglomerate_literal(matrix, h: int, linkage: str) -> set[frozenset[int]]:
    """Merge closest clusters until h remain; return the member partition.

    Keeps a full pairwise distance table and rebuilds it after every
    merge with the textbook update for the given linkage, so the result
    is independent of any nearest-neighbour-chain bookkeeping.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[1]
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    dist: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            delta = matrix[:, i] - matrix[:, j]
            dist[(i, j)] = math.sqrt(float(np.dot(delta, delta)))

    next_id = n
    while len(members) > h:
        a, b = min(dist, key=dist.get)
        d_ab = dist.pop((a, b))
        n_a, n_b = len(members[a]), len(members[b])
        fresh: dict[int, float] = {}
        for c in members:
            if c in (a, b):
                continue
            d_ca = dist.pop(_pair(c, a))
            d_cb = dist.pop(_pair(c, b))
            n_c = len(members[c])
            if linkage == "complete":
                fresh[c] = max(d_ca, d_cb)
            elif linkage == "average":
                fresh[c] = (n_a * d_ca + n_b * d_cb) / (n_a + n_b)
            elif linkage == "ward":
                total = n_a + n_b + n_c
                fresh[c] = math.sqrt(
                    (
                        (n_a + n_c) * d_ca * d_ca
                        + (n_b + n_c) * d_cb * d_cb
                        - n_c * d_ab * d_ab
                    )
                    / total
                )
            else:
                raise ValueError(f"unknown linkage {linkage!r}")
        members[next_id] = members.pop(a) + members.pop(b)
        for c, value in fresh.items():
            dist[_pair(c, next_id)] = value
        next_id += 1
    return {frozenset(group) for group in members.values()}


def ward_ties_literal(matrix) -> list[tuple[frozenset[int], float]]:
    """Ward merges of the columns of a d x N matrix, ties to the lower position.

    Exact duplicate columns start as one cluster of their count, clusters
    listed by first appearance, and each later copy joins the copies
    before it at height zero, in column order.  Then every round scores
    all pairs of clusters, gives each cluster its nearest (of several
    equally near, the one listed first), merges every reciprocal pair, and
    lists the survivors in their order followed by the new clusters, in the
    order of their lower-listed halves.  A merge's height is the pair's
    Ward distance, raised to its children's heights where rounding puts it
    below them.  Returns ``(members, height)`` per merge, in the order a
    cut applies them: by height, ties in the order made.

    A centroid is held as ``hca`` holds it, one member column plus an
    offset that the lower-listed half keeps when two clusters merge, so
    both sides round every distance alike and meet the same exact ties.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[1]
    merges = []
    groups: dict[tuple, list[int]] = {}
    for j in range(n):
        column = tuple(matrix[:, j])
        if column in groups:
            groups[column].append(j)
            merges.append((frozenset(groups[column]), 0.0))
        else:
            groups[column] = [j]
    # (members, anchor, offset, height) per cluster, listed in order
    clusters = [
        (members, np.array(column), np.zeros(len(column)), 0.0)
        for column, members in groups.items()
    ]

    def gap(p, q):
        _, anchor_p, offset_p, _ = clusters[p]
        _, anchor_q, offset_q, _ = clusters[q]
        return (anchor_q - anchor_p) + (offset_q - offset_p)

    def ward(p, q):
        n_p, n_q = float(len(clusters[p][0])), float(len(clusters[q][0]))
        return 2.0 * n_p * n_q / (n_p + n_q) * float(np.sum(gap(p, q) ** 2))

    made = []
    while len(clusters) > 1:
        nearest = []
        for p in range(len(clusters)):
            others = [q for q in range(len(clusters)) if q != p]
            scores = [ward(p, q) for q in others]
            nearest.append(others[scores.index(min(scores))])
        survivors, fresh = [], []
        for p, q in enumerate(nearest):
            if nearest[q] != p:
                survivors.append(clusters[p])
            elif p < q:
                members_p, anchor, offset, height_p = clusters[p]
                members_q, _, _, height_q = clusters[q]
                share = len(members_q) / float(len(members_p) + len(members_q))
                height = max(math.sqrt(ward(p, q)), height_p, height_q)
                members = members_p + members_q
                fresh.append((members, anchor, offset + share * gap(p, q), height))
                made.append((frozenset(members), height))
        assert fresh, "a round without a reciprocal pair"
        clusters = survivors + fresh
    return merges + sorted(made, key=lambda merge: merge[1])


def partition_after(merges, n: int, h: int) -> set[frozenset[int]]:
    """The partition of ``n`` columns once the first ``n - h`` of the
    ``(members, height)`` merges are applied."""
    groups = {j: frozenset([j]) for j in range(n)}
    for members, _ in merges[: n - h]:
        for j in members:
            groups[j] = members
    return set(groups.values())


def partition_of_assignments(assignments) -> set[frozenset[int]]:
    """Label-free view of a flat cluster assignment vector."""
    groups: dict[int, list[int]] = {}
    for idx, label in enumerate(assignments):
        groups.setdefault(int(label), []).append(idx)
    return {frozenset(group) for group in groups.values()}


def nearest_scan_literal(centroids, row_std, columns) -> list[int]:
    """Per-column exhaustive nearest-centroid scan in row-scaled space."""
    centroids = np.asarray(centroids, dtype=float)
    columns = np.asarray(columns, dtype=float)
    labels = []
    for t in range(columns.shape[1]):
        best_id = 0
        best = math.inf
        for cid in range(centroids.shape[0]):
            total = 0.0
            for d in range(centroids.shape[1]):
                diff = (columns[d, t] - centroids[cid, d]) / row_std[d]
                total += diff * diff
            if total < best:
                best = total
                best_id = cid
        labels.append(best_id)
    return labels


def assign_nearest_whole(clustering, columns) -> np.ndarray:
    """Nearest-centroid labels from one matrix product over all columns.

    ``hca.assign_nearest`` as it ran before it worked in column blocks.
    One column is labelled as the first of two copies: numpy multiplies a
    lone column with BLAS's matrix-vector kernel, which rounds otherwise
    than the matrix-matrix kernel every wider product takes.
    """
    columns = np.asarray(columns, dtype=float)
    if columns.ndim == 1:
        columns = columns[:, None]
    if columns.shape[1] == 1:
        return assign_nearest_whole(clustering, np.repeat(columns, 2, axis=1))[:1]
    scale = clustering.row_std
    scaled = (columns - clustering.row_mean[:, None]) / scale[:, None]
    scaled_centroids = (
        clustering.centroids - clustering.row_mean[None, :]
    ) / scale[None, :]
    cross = scaled_centroids @ scaled
    norms = np.sum(scaled_centroids**2, axis=1)[:, None]
    return np.argmin(norms - 2.0 * cross, axis=0).astype(np.int64)


# ---------------------------------------------------------------------------
# run-length structure, occupancy counts, and tensor summaries
# ---------------------------------------------------------------------------

def runs_literal(codes) -> list[tuple[tuple[int, ...], int, int]]:
    """(state, start, size) for every maximal constant run, left to right."""
    codes = np.asarray(codes)
    out: list[tuple[tuple[int, ...], int, int]] = []
    start = 0
    for t in range(1, codes.shape[0] + 1):
        if t == codes.shape[0] or tuple(codes[t]) != tuple(codes[start]):
            out.append(
                (tuple(int(v) for v in codes[start]), start, t - start)
            )
            start = t
    return out


def sample_variance_literal(values) -> float:
    values = [float(v) for v in values]
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / (len(values) - 1)


def segment_proportions_literal(states, pss, segment_length: int) -> list[list[float]]:
    """Occupancy of each target state in consecutive full segments."""
    states = np.asarray(states)
    targets = [tuple(int(v) for v in row) for row in np.asarray(pss)]
    out = []
    for seg_start in range(0, states.shape[0] - segment_length + 1, segment_length):
        counts = [0] * len(targets)
        for t in range(seg_start, seg_start + segment_length):
            state = tuple(int(v) for v in states[t])
            for j, target in enumerate(targets):
                if state == target:
                    counts[j] += 1
        out.append([c / segment_length for c in counts])
    return out


def mode_literal(values) -> int:
    """Most frequent value; the smallest one when counts tie."""
    counts = Counter(int(v) for v in values)
    top = max(counts.values())
    return min(v for v, c in counts.items() if c == top)


def total_variation_literal(a, b) -> float:
    """Half the L1 gap between the two samples' empirical distributions."""
    ca = Counter(int(v) for v in a)
    cb = Counter(int(v) for v in b)
    support = set(ca) | set(cb)
    return 0.5 * sum(
        abs(ca[v] / len(a) - cb[v] / len(b)) for v in support
    )


def bin_centers_literal(length: int, bins: int) -> list[int]:
    """Integer-arithmetic phase-bin sample offsets into a cycle."""
    return [(2 * b + 1) * length // (2 * bins) for b in range(bins)]


# ---------------------------------------------------------------------------
# dataset tables and principle system states: the per-line and per-row
# versions the library used before it parsed and counted in whole arrays
# ---------------------------------------------------------------------------

def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def parse_table_by_line(text: str):
    """``(header or None, rows)`` of a numeric table, one token at a time.

    Blank and ``#`` lines are skipped; a first content row holding any
    non-numeric token is the header.  Errors are :class:`DataError`s whose
    messages name the line (and column) at fault.
    """
    header = None
    rows = []
    width = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.replace(",", " ").split()
        if header is None and not rows and any(not _is_float(t) for t in tokens):
            header = tokens
            continue
        values = []
        for col, token in enumerate(tokens, start=1):
            if not _is_float(token):
                raise DataError(
                    f"line {lineno}, column {col}: non-numeric value {token!r}"
                )
            values.append(float(token))
        if width == -1:
            width = len(values)
        elif len(values) != width:
            raise DataError(
                f"line {lineno}: {len(values)} columns, expected {width}"
            )
        rows.append(values)
    if not rows:
        raise DataError("no data rows")
    data = np.array(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        bad = int(np.argwhere(~np.all(np.isfinite(data), axis=1))[0, 0])
        raise DataError(f"non-finite value in data row {bad + 1}")
    return header, data


def state_table_by_rows(pooled):
    """Distinct rows ranked by count, ties lexicographic: ``(states, counts)``."""
    states, counts = np.unique(np.asarray(pooled), axis=0, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    return states[order], counts[order]


def segment_proportions_by_dict(states, pss, segment_length: int) -> np.ndarray:
    """Occupancy per full segment, each sample looked up in a row dict.

    A row listed twice in ``pss`` counts towards its last listing.
    """
    index = {
        row.tobytes(): j
        for j, row in enumerate(np.ascontiguousarray(pss, dtype=np.uint8))
    }
    states = np.ascontiguousarray(states, dtype=np.uint8)
    codes = np.array(
        [index.get(states[t].tobytes(), -1) for t in range(states.shape[0])],
        dtype=np.int64,
    )
    n_segments = states.shape[0] // segment_length
    rows = np.zeros((n_segments, np.asarray(pss).shape[0]))
    for i in range(n_segments):
        chunk = codes[i * segment_length : (i + 1) * segment_length]
        hits = chunk[chunk >= 0]
        if hits.size:
            rows[i] = np.bincount(hits, minlength=rows.shape[1]) / float(
                segment_length
            )
    return rows


# ---------------------------------------------------------------------------
# persisted rows, passtensor text and rendering, the heatmap, run statistics
# and the synthetic walker: one Python step per cell, line, run or cycle, as the
# library ran them before it worked on whole arrays
# ---------------------------------------------------------------------------

def rows_by_line(lines: list[str], first: int, n: int, width: int, kind):
    """``n`` rows of ``width`` numbers from ``lines[first:]``, token by token.

    Errors are :class:`DataError`s naming the 1-based line, as
    ``LineReader`` numbers it; a float that is not finite is one.
    """
    rows = []
    for at in range(first, first + n):
        if at >= len(lines):
            raise DataError(f"line {at + 1}: file ends early")
        tokens = lines[at].split()
        if len(tokens) != width:
            raise DataError(
                f"line {at + 1}: expected {width} values, found {len(tokens)}"
            )
        try:
            values = [kind(token) for token in tokens]
        except ValueError as exc:
            raise DataError(f"line {at + 1}: {exc}") from None
        for token, value in zip(tokens, values):
            if kind is int and not -(2**63) <= value < 2**63:
                raise DataError(
                    f"line {at + 1}: integer {token!r} does not fit in 64 bits"
                )
            if kind is float and not math.isfinite(value):
                raise DataError(f"line {at + 1}: number {token!r} is not finite")
        rows.append(values)
    return np.array(rows, dtype=kind).reshape(n, width)


def passtensor_to_text_by_cell(pt) -> str:
    lines = [
        "gaitpass-passtensor v1",
        f"shape {pt.n_cycles} {pt.n_rings} {pt.n_bins}",
        "rings " + " ".join(pt.ring_labels),
        "alphabets " + " ".join(str(h) for h in pt.alphabet_sizes),
        "landmark " + " ".join(str(v) for v in pt.landmark_state),
        f"codebook {pt.code_book_id}",
        "lengths " + " ".join(str(int(v)) for v in pt.raw_lengths),
        "tensor",
    ]
    for c in range(pt.n_cycles):
        for r in range(pt.n_rings):
            lines.append(" ".join(str(int(v)) for v in pt.tensor[c, r]))
    return "\n".join(lines) + "\n"


def render_unrolled_by_cell(pt, palette) -> str:
    cell = 6.0 if pt.n_bins <= 160 else 3.0
    left = 60.0
    gap = 26.0
    width = left + pt.n_bins * cell + 12.0
    section = pt.n_cycles * cell
    height = 10.0 + pt.n_rings * (section + gap)

    body: list[str] = []
    y0 = 10.0
    for r in range(pt.n_rings):
        body.append(text(6, y0 + 12, pt.ring_labels[r], size=11))
        for c in range(pt.n_cycles):
            y = y0 + c * cell
            row = pt.tensor[c, r]
            # merge consecutive equal codes into one rect per stretch
            b = 0
            while b < pt.n_bins:
                b_end = b + 1
                while b_end < pt.n_bins and row[b_end] == row[b]:
                    b_end += 1
                body.append(
                    f'<rect x="{_f(left + b * cell)}" y="{_f(y)}" '
                    f'width="{_f((b_end - b) * cell)}" height="{_f(cell)}" '
                    f'fill="{palette[row[b]]}"/>'
                )
                b = b_end
        y0 += section + gap
    return svg_document(width, height, body)


def _gradient_color(value: float) -> str:
    """White to dark blue ramp for magnitudes in [0, 1]."""
    value = min(max(value, 0.0), 1.0)
    r = round(255 + (8 - 255) * value)
    g = round(255 + (48 - 255) * value)
    b = round(255 + (107 - 255) * value)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap_by_cell(
    matrix, row_labels=None, cell_w=4.0, cell_h=10.0, title=""
) -> str:
    matrix = np.asarray(matrix, dtype=float)
    n_rows, n_cols = matrix.shape
    vmax = float(matrix.max())
    if vmax <= 0:
        vmax = 1.0
    label_w = 110.0 if row_labels else 10.0
    top = 30.0 if title else 10.0
    width = label_w + n_cols * cell_w + 10.0
    height = top + n_rows * cell_h + 10.0

    body: list[str] = []
    if title:
        body.append(text(label_w, 18, title, size=13))
    for i in range(n_rows):
        y = top + i * cell_h
        for j in range(n_cols):
            body.append(
                f'<rect x="{_f(label_w + j * cell_w)}" y="{_f(y)}" '
                f'width="{_f(cell_w)}" height="{_f(cell_h)}" '
                f'fill="{_gradient_color(matrix[i, j] / vmax)}"/>'
            )
        if row_labels:
            body.append(text(4, y + cell_h * 0.75, row_labels[i], size=9))
    return svg_document(width, height, body)


def passtensor_by_cycle(codes, boundaries, bins, cycle_range=None):
    """C x R x B tensor and cycle lengths, resampling one cycle at a time."""
    boundaries = [int(v) for v in boundaries]
    cycles = list(zip(boundaries[:-1], boundaries[1:]))
    if cycle_range is not None:
        first, last = cycle_range
        cycles = cycles[first - 1 : last]
    grids = []
    for start, end in cycles:
        length = end - start
        centers = ((np.arange(bins) + 0.5) * length) // bins
        grids.append(codes[start + centers.astype(np.int64)].T)
    lengths = np.array([end - start for start, end in cycles])
    return np.stack(grids, axis=0), lengths


def _sample_variance(values: np.ndarray) -> float:
    if values.shape[0] < 2:
        return 0.0
    return float(np.var(values, ddof=1))


def run_statistics_by_dict(codes):
    """``(run_order, per_state)`` of a T x k code matrix.

    ``per_state`` maps each state tuple, in first-appearance order, to
    ``(run_starts, run_sizes, recurrence_times, size_variance,
    recurrence_variance)``.
    """
    codes = np.asarray(codes)
    changed = np.any(codes[1:] != codes[:-1], axis=1)
    starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
    sizes = np.diff(np.concatenate((starts, [codes.shape[0]])))
    order = tuple(tuple(int(v) for v in codes[s]) for s in starts)

    grouped: dict[tuple[int, ...], list[int]] = {}
    for idx, state in enumerate(order):
        grouped.setdefault(state, []).append(idx)

    per_state = {}
    for state, indices in grouped.items():
        s_starts = starts[indices]
        s_sizes = sizes[indices]
        recurrence = np.diff(s_starts)
        per_state[state] = (
            s_starts,
            s_sizes,
            recurrence,
            _sample_variance(s_sizes),
            math.inf if len(indices) < 2 else _sample_variance(recurrence),
        )
    return order, per_state


def walker_values_by_cycle(
    seed, cycles, period_mean, period_jitter, sensors, noise, offset, phases
) -> np.ndarray:
    """The D x T values of ``synthesize_walker``, assembled cycle by cycle."""
    base = int(round(period_mean))
    marker_len = max(3, base // 16)
    rng = np.random.default_rng(seed)
    jitters = np.rint(rng.uniform(-period_jitter, period_jitter, cycles))
    lengths = (base + jitters).astype(int)

    levels = _phase_levels(sensors, phases)
    columns: list[np.ndarray] = []
    for length in lengths:
        block = np.empty((3 * sensors, length))
        block[:, :marker_len] = MARKER_LEVEL
        wave = length - marker_len
        edges = np.array(
            [round(p * wave / phases) for p in range(phases + 1)], dtype=int
        )
        if period_jitter > 0:
            wobble = np.rint(
                rng.uniform(-period_jitter, period_jitter, phases - 1)
            ).astype(int)
            for p in range(1, phases):
                low = edges[p - 1] + 1
                high = wave - (phases - p)
                edges[p] = min(max(edges[p] + wobble[p - 1], low), high)
        for p in range(phases):
            for s in range(sensors):
                block[
                    3 * s : 3 * s + 3,
                    marker_len + edges[p] : marker_len + edges[p + 1],
                ] = levels[s, p][:, None]
        columns.append(block)
    columns.append(np.full((3 * sensors, marker_len), MARKER_LEVEL))

    values = np.concatenate(columns, axis=1)
    return values + offset + noise * rng.standard_normal(values.shape)


# ---------------------------------------------------------------------------
# key-state attribution: one result object per row, as the library scored
# segments before it returned one result for the whole matrix
# ---------------------------------------------------------------------------

def classify_rows_literal(model, proportions) -> list[tuple[str, bool, float]]:
    """``(predicted, fallback, score)`` of each row, one row at a time.

    Each subject's rule fires when the summed occupancy over its key set
    exceeds its threshold; among firing rules the largest relative margin
    wins.  When no rule fires, the nearest training centroid decides.  The
    score is the winner's relative margin.
    """
    results = []
    for row in np.asarray(proportions, dtype=float):
        scores: dict[str, float] = {}
        fired: list[tuple[float, str]] = []
        for subject in model.subjects:
            total = float(row[list(model.key_sets[subject])].sum())
            threshold = model.thresholds[subject]
            rel = (total - threshold) / max(abs(threshold), 1e-12)
            scores[subject] = rel
            if total > threshold:
                fired.append((rel, subject))
        if fired:
            best = max(fired, key=lambda pair: pair[0])[1]
            results.append((best, False, scores[best]))
            continue
        dists = {
            subject: float(np.linalg.norm(row - model.centroids[subject]))
            for subject in model.subjects
        }
        best = min(model.subjects, key=lambda s: dists[s])
        results.append((best, True, scores[best]))
    return results
