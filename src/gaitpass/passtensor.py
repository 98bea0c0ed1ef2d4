"""Phase-normalized cycle stacks ("passtensors") and their comparison.

Each rhythmic cycle is resampled onto B angular bins per subsystem ring;
stacking C cycles gives a C x R x B integer tensor.  Two passtensors built
under the same code book are compared through a deterministic skeleton
(the per-bin modal code) and a stochastic profile (per-bin code-frequency
histograms), combining into one distance in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CodeBookMismatchError
from .ingest import LineReader, parse_file
from .l1g2 import CoupledStateSequence
from .landmark import CyclePartition
from .svgfig import _f, check_palette, svg_document, text

MIN_BINS = 8


@dataclass(frozen=True, eq=False)
class Passtensor:
    """C cycles x R rings x B bins of cluster codes, with landmark and code book."""

    tensor: np.ndarray
    ring_labels: tuple[str, ...]
    alphabet_sizes: tuple[int, ...]
    raw_lengths: np.ndarray
    landmark_state: tuple[int, ...]
    code_book_id: str

    def __post_init__(self) -> None:
        tensor = np.array(self.tensor, dtype=np.int64)
        lengths = np.array(self.raw_lengths, dtype=np.int64)
        if tensor.ndim != 3:
            raise ValueError("tensor must have shape C x R x B")
        c, r, b = tensor.shape
        if c < 1 or b < MIN_BINS:
            raise ValueError(f"need C >= 1 cycles and B >= {MIN_BINS} bins")
        labels = tuple(str(s) for s in self.ring_labels)
        sizes = tuple(int(v) for v in self.alphabet_sizes)
        if len(labels) != r or len(sizes) != r:
            raise ValueError("one label and one alphabet size per ring")
        for j, h in enumerate(sizes):
            if tensor[:, j, :].min() < 0 or tensor[:, j, :].max() >= h:
                raise ValueError(f"ring {j} has codes outside [0, {h})")
        if lengths.shape != (c,) or lengths.min() < 1:
            raise ValueError("raw_lengths must hold C positive cycle lengths")
        landmark = tuple(int(v) for v in self.landmark_state)
        if len(landmark) != r or not all(
            0 <= v < h for v, h in zip(landmark, sizes)
        ):
            raise ValueError(
                f"landmark {landmark} must hold one code per ring, each "
                f"below its alphabet size {sizes}"
            )
        tensor.flags.writeable = False
        lengths.flags.writeable = False
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "raw_lengths", lengths)
        object.__setattr__(self, "ring_labels", labels)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "landmark_state", landmark)

    @property
    def n_cycles(self) -> int:
        return self.tensor.shape[0]

    @property
    def n_rings(self) -> int:
        return self.tensor.shape[1]

    @property
    def n_bins(self) -> int:
        return self.tensor.shape[2]


def normalize_cycle(
    seq: CoupledStateSequence, cycle: tuple[int, int], bins: int
) -> np.ndarray:
    """Resample one cycle onto B bins by nearest-sample lookup.

    Bin b reads the sample nearest its center, index
    ``start + floor((b + 0.5) * length / B)``, so a cycle of length
    exactly B is copied unchanged.  Phase 0 is the cycle start (the
    landmark).  Returns an R x B grid, one row per subsystem ring.
    """
    start, end = (int(v) for v in cycle)
    if not 0 <= start < end <= seq.n_samples:
        raise ValueError(
            f"cycle [{start}, {end}) empty or outside 0..{seq.n_samples}"
        )
    if bins < MIN_BINS:
        raise ValueError(f"bins must be >= {MIN_BINS}")
    length = end - start
    centers = ((np.arange(bins) + 0.5) * length) // bins
    return seq.codes[start + centers.astype(np.int64)].T


def build_passtensor(
    seq: CoupledStateSequence,
    partition: CyclePartition,
    bins: int = 128,
    cycle_range: tuple[int, int] | None = None,
    trim_edges: bool = False,
    code_book_id: str = "",
) -> Passtensor:
    """Stack phase-normalized cycles into a passtensor.

    By default all cycles are used.  ``cycle_range=(first, last)`` keeps
    cycles first..last (1-based, inclusive); ``trim_edges`` instead drops
    the first two and the last cycle, which routinely carry start/stop
    transients.  Ring order and labels follow the coupled sequence.
    """
    if partition.length != seq.n_samples:
        raise ValueError("partition was built over a different-length sequence")
    if cycle_range is not None and trim_edges:
        raise ValueError("give either cycle_range or trim_edges, not both")
    total = partition.n_cycles
    if cycle_range is not None:
        first, last = (int(v) for v in cycle_range)
        if not 1 <= first <= last <= total:
            raise ValueError(
                f"cycle_range [{first}, {last}] outside 1..{total}"
            )
        selected = partition.cycles[first - 1 : last]
    elif trim_edges:
        selected = partition.cycles[2 : total - 1]
    else:
        selected = partition.cycles
    if not selected:
        raise ValueError("cycle selection is empty")
    grids = [normalize_cycle(seq, cycle, bins) for cycle in selected]
    return Passtensor(
        tensor=np.stack(grids, axis=0),
        ring_labels=seq.subsystem_labels,
        alphabet_sizes=seq.h_per_subsystem,
        raw_lengths=np.array([end - start for start, end in selected]),
        landmark_state=partition.landmark_state,
        code_book_id=code_book_id,
    )


def _code_counts(pt: Passtensor) -> np.ndarray:
    """R x B x max(H) count of each code over cycles, zero past a ring's H."""
    width = max(pt.alphabet_sizes)
    cells = np.arange(pt.n_rings * pt.n_bins).reshape(pt.n_rings, pt.n_bins)
    flat = (cells * width + pt.tensor).ravel()
    return np.bincount(flat, minlength=cells.size * width).reshape(
        pt.n_rings, pt.n_bins, width
    )


def skeleton(pt: Passtensor) -> np.ndarray:
    """Per-bin modal code over cycles (R x B); ties take the smaller code."""
    return np.argmax(_code_counts(pt), axis=2)


@dataclass(frozen=True, eq=False)
class PasstensorDiff:
    """Breakdown of how two passtensors differ.

    ``mismatches`` lists (ring, bin, code_a, code_b) cells where the two
    skeletons disagree.  A distance of 0 means equal skeletons and equal
    per-bin code distributions; cycles are compared as distributions, so
    reordering cycles does not register as a difference.
    """

    ring_agreement: tuple[float, ...]
    cycle_agreement_a: np.ndarray
    cycle_agreement_b: np.ndarray
    mismatches: tuple[tuple[int, int, int, int], ...]
    skeleton_agreement: float
    stochastic_agreement: float
    skeleton_weight: float
    distance: float


def compare_passtensors(
    a: Passtensor, b: Passtensor, skeleton_weight: float = 0.7
) -> PasstensorDiff:
    """Score the deterministic and stochastic disagreement of two tensors.

    Skeleton agreement is the fraction of (ring, bin) cells whose modal
    codes match; stochastic agreement is one minus the mean total-variation
    distance between per-cell code histograms.  The summary distance is
    ``1 - (w * skeleton + (1 - w) * stochastic)``.  Tensors from different
    code books are refused: cluster ids are meaningless across fits.  So
    are tensors cut at different landmarks, whose bins hold different
    phases of the cycle.
    """
    if a.code_book_id != b.code_book_id:
        raise CodeBookMismatchError(
            f"code books differ: {a.code_book_id!r} vs {b.code_book_id!r}"
        )
    if a.ring_labels != b.ring_labels or a.alphabet_sizes != b.alphabet_sizes:
        raise ValueError(
            f"ring structure differs: {a.ring_labels}/{a.alphabet_sizes} vs "
            f"{b.ring_labels}/{b.alphabet_sizes}"
        )
    if a.landmark_state != b.landmark_state:
        raise ValueError(
            f"landmarks differ: {a.landmark_state} vs {b.landmark_state}"
        )
    if a.n_bins != b.n_bins:
        raise ValueError(f"bin counts differ: {a.n_bins} vs {b.n_bins}")
    if not 0.0 <= skeleton_weight <= 1.0:
        raise ValueError("skeleton_weight must lie in [0, 1]")

    counts_a = _code_counts(a)
    counts_b = _code_counts(b)
    skel_a = np.argmax(counts_a, axis=2)
    skel_b = np.argmax(counts_b, axis=2)
    equal = skel_a == skel_b
    ring_agreement = tuple(float(np.mean(equal[r])) for r in range(a.n_rings))
    mismatches = tuple(
        (int(r), int(bn), int(skel_a[r, bn]), int(skel_b[r, bn]))
        for r, bn in np.argwhere(~equal)
    )
    skeleton_agreement = float(np.mean(equal))

    # per-cell total variation between the two code distributions, summed
    # over each ring's own alphabet so the padding never regroups the sum
    share_a = counts_a / a.n_cycles
    share_b = counts_b / b.n_cycles
    tv = np.array([
        0.5 * np.sum(np.abs(share_a[r, :, :h] - share_b[r, :, :h]), axis=1)
        for r, h in enumerate(a.alphabet_sizes)
    ])
    stochastic_agreement = float(1.0 - np.mean(tv))

    cycle_agreement_a = np.mean(a.tensor == skel_b, axis=(1, 2))
    cycle_agreement_b = np.mean(b.tensor == skel_a, axis=(1, 2))
    distance = 1.0 - (
        skeleton_weight * skeleton_agreement
        + (1.0 - skeleton_weight) * stochastic_agreement
    )
    return PasstensorDiff(
        ring_agreement=ring_agreement,
        cycle_agreement_a=cycle_agreement_a,
        cycle_agreement_b=cycle_agreement_b,
        mismatches=mismatches,
        skeleton_agreement=skeleton_agreement,
        stochastic_agreement=stochastic_agreement,
        skeleton_weight=skeleton_weight,
        distance=max(0.0, distance),
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _ring_point(cx: float, cy: float, rx: float, ry: float, theta: float):
    return cx + rx * math.cos(theta), cy + ry * math.sin(theta)


def _annulus_sector(
    cx: float,
    cy: float,
    r_out: tuple[float, float],
    r_in: tuple[float, float],
    theta0: float,
    theta1: float,
    fill: str,
) -> str:
    """One filled ring segment between two (possibly elliptical) radii."""
    x0, y0 = _ring_point(cx, cy, r_out[0], r_out[1], theta0)
    x1, y1 = _ring_point(cx, cy, r_out[0], r_out[1], theta1)
    x2, y2 = _ring_point(cx, cy, r_in[0], r_in[1], theta1)
    x3, y3 = _ring_point(cx, cy, r_in[0], r_in[1], theta0)
    return (
        f'<path d="M {_f(x0)} {_f(y0)} '
        f'A {_f(r_out[0])} {_f(r_out[1])} 0 0 1 {_f(x1)} {_f(y1)} '
        f'L {_f(x2)} {_f(y2)} '
        f'A {_f(r_in[0])} {_f(r_in[1])} 0 0 0 {_f(x3)} {_f(y3)} Z" '
        f'fill="{fill}" stroke="{fill}" stroke-width="0.4"/>'
    )


def _bin_angles(b: int, n_bins: int) -> tuple[float, float]:
    # phase 0 sits at 9 o'clock (angle pi) and advances clockwise on
    # screen, which with the y-down SVG frame is increasing angle
    theta0 = math.pi + 2.0 * math.pi * b / n_bins
    return theta0, theta0 + 2.0 * math.pi / n_bins


def render_rings(
    grid: np.ndarray, palette, ring_labels: tuple[str, ...] | None = None
) -> str:
    """Concentric-ring view of one R x B code grid (row 0 = outer ring)."""
    grid = np.asarray(grid, dtype=np.int64)
    if grid.ndim != 2 or grid.shape[1] < MIN_BINS:
        raise ValueError(f"grid must be R x B with B >= {MIN_BINS}")
    check_palette(palette, int(grid.max()))
    n_rings, n_bins = grid.shape
    size = 480.0
    cx = cy = size / 2.0
    outer = size / 2.0 - 12.0
    hole = 0.35 * outer
    band = (outer - hole) / n_rings

    body: list[str] = []
    for r in range(n_rings):
        r_out = outer - r * band
        r_in = r_out - band
        for b in range(n_bins):
            theta0, theta1 = _bin_angles(b, n_bins)
            body.append(
                _annulus_sector(
                    cx, cy, (r_out, r_out), (r_in, r_in), theta0, theta1,
                    palette[grid[r, b]],
                )
            )
    # phase-zero tick at 9 o'clock
    body.append(
        f'<line x1="{_f(cx - outer - 8)}" y1="{_f(cy)}" '
        f'x2="{_f(cx - hole)}" y2="{_f(cy)}" '
        f'stroke="#333333" stroke-width="1.2" stroke-dasharray="3 2"/>'
    )
    if ring_labels:
        for r, label in enumerate(ring_labels[:n_rings]):
            r_mid = outer - r * band - band / 2.0
            body.append(text(cx + 4, cy - r_mid + 4, label, size=10))
    return svg_document(size, size, body)


def render_cylinder(pt: Passtensor, palette, view: str = "unrolled") -> str:
    """Cycle-stack view of a passtensor.

    ``unrolled`` lays each ring out as a C x B cell grid (one row per
    cycle, phase left to right).  ``isometric`` projects the stacked
    cycles as a cylinder: the outer ring paints the visible shell half,
    and the top face shows all rings of the first cycle.
    """
    check_palette(palette, int(pt.tensor.max()))
    if view == "unrolled":
        return _render_unrolled(pt, palette)
    if view == "isometric":
        return _render_isometric(pt, palette)
    raise ValueError(f"view must be 'unrolled' or 'isometric', got {view!r}")


def _render_unrolled(pt: Passtensor, palette) -> str:
    cell = 6.0 if pt.n_bins <= 160 else 3.0
    left = 60.0
    gap = 26.0
    width = left + pt.n_bins * cell + 12.0
    section = pt.n_cycles * cell
    height = 10.0 + pt.n_rings * (section + gap)

    # one rect per stretch of equal codes in a cycle's row; every row
    # opens a stretch, so the next stretch's flat start ends this one
    xs = [_f(left + b * cell) for b in range(pt.n_bins)]
    widths = [_f(n * cell) for n in range(pt.n_bins + 1)]
    height_f = _f(cell)
    body: list[str] = []
    y0 = 10.0
    for r in range(pt.n_rings):
        body.append(text(6, y0 + 12, pt.ring_labels[r], size=11))
        grid = pt.tensor[:, r, :]
        opens = np.ones(grid.shape, dtype=bool)
        opens[:, 1:] = grid[:, 1:] != grid[:, :-1]
        cycles, bins = np.nonzero(opens)
        flat = cycles * pt.n_bins + bins
        runs = np.diff(flat, append=grid.size)
        ys = [_f(y0 + c * cell) for c in range(pt.n_cycles)]
        body.extend(
            f'<rect x="{xs[b]}" y="{ys[c]}" width="{widths[n]}" '
            f'height="{height_f}" fill="{palette[code]}"/>'
            for c, b, n, code in zip(
                cycles.tolist(), bins.tolist(), runs.tolist(),
                grid[cycles, bins].tolist(),
            )
        )
        y0 += section + gap
    return svg_document(width, height, body)


def _render_isometric(pt: Passtensor, palette) -> str:
    rx = 150.0
    ry = 0.35 * rx
    dz = max(2.0, 260.0 / pt.n_cycles)
    cx = rx + 50.0
    top_y = 30.0 + ry
    height = top_y + pt.n_cycles * dz + ry + 40.0
    width = cx + rx + 50.0

    body: list[str] = []
    # shell: front half of every cycle, outer ring codes, top cycle first
    for c in range(pt.n_cycles):
        y_c = top_y + c * dz
        for b in range(pt.n_bins):
            theta0, theta1 = _bin_angles(b, pt.n_bins)
            mid = (theta0 + theta1) / 2.0
            if math.sin(mid) <= 0:
                continue
            x0, e0 = _ring_point(cx, y_c, rx, ry, theta0)
            x1, e1 = _ring_point(cx, y_c, rx, ry, theta1)
            fill = palette[pt.tensor[c, 0, b]]
            body.append(
                f'<polygon points="{_f(x0)},{_f(e0)} {_f(x1)},{_f(e1)} '
                f'{_f(x1)},{_f(e1 + dz)} {_f(x0)},{_f(e0 + dz)}" '
                f'fill="{fill}" stroke="{fill}" stroke-width="0.4"/>'
            )
    # top face: concentric rings of the first stacked cycle
    hole = 0.35 * rx
    band_x = (rx - hole) / pt.n_rings
    for r in range(pt.n_rings):
        rx_out = rx - r * band_x
        rx_in = rx_out - band_x
        for b in range(pt.n_bins):
            theta0, theta1 = _bin_angles(b, pt.n_bins)
            body.append(
                _annulus_sector(
                    cx, top_y,
                    (rx_out, rx_out * 0.35), (rx_in, rx_in * 0.35),
                    theta0, theta1, palette[pt.tensor[0, r, b]],
                )
            )
    body.append(text(cx, height - 12, f"{pt.n_cycles} cycles", size=11,
                     anchor="middle"))
    return svg_document(width, height, body)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_MAGIC = "gaitpass-passtensor v1"


def passtensor_to_text(pt: Passtensor) -> str:
    lines = [
        _MAGIC,
        f"shape {pt.n_cycles} {pt.n_rings} {pt.n_bins}",
        "rings " + " ".join(pt.ring_labels),
        "alphabets " + " ".join(str(h) for h in pt.alphabet_sizes),
        "landmark " + " ".join(str(v) for v in pt.landmark_state),
        f"codebook {pt.code_book_id}",
        "lengths " + " ".join(str(int(v)) for v in pt.raw_lengths),
        "tensor",
    ]
    digits = [str(v) for v in range(int(pt.tensor.max()) + 1)]
    lines.extend(
        " ".join(map(digits.__getitem__, row))
        for row in pt.tensor.reshape(-1, pt.n_bins).tolist()
    )
    return "\n".join(lines) + "\n"


def passtensor_from_text(text: str) -> Passtensor:
    lines = LineReader(text, _MAGIC)
    c, r, b = lines.values("shape", int, 3)
    ring_labels = tuple(lines.fields("rings", r))
    alphabet_sizes = tuple(lines.values("alphabets", int, r))
    landmark_state = tuple(lines.values("landmark", int))
    code_book_id = lines.rest("codebook")
    raw_lengths = lines.values("lengths", int, c)
    lines.fields("tensor", 0)
    tensor = lines.rows(c * r, b, int).reshape(c, r, b)
    lines.finish()
    return Passtensor(
        tensor=tensor,
        ring_labels=ring_labels,
        alphabet_sizes=alphabet_sizes,
        raw_lengths=raw_lengths,
        landmark_state=landmark_state,
        code_book_id=code_book_id,
    )


def load_passtensor(path: str | Path) -> Passtensor:
    return parse_file(path, passtensor_from_text)
