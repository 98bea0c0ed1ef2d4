"""Local-first, global-second coding of multi-sensor recordings.

Left- and right-foot sensors are stacked side by side into one 3 x 2T
matrix whose columns are clustered into H local codes; each foot's signal
then becomes a 1-D code sequence under that shared code book, and code
sequences from several subsystems are coupled position-wise into tuple
states.  Further sensors (waist, wrist) get their own code books and join
the coupling as extra tuple components.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .complexity import SymbolSequence
from .hca import ColumnClustering, assign_nearest, cluster_columns
from .ingest import LineReader, TimeSeriesFrame


def _fmt(values) -> str:
    """Floats as exact, round-tripping text."""
    return " ".join(repr(float(v)) for v in values)


@dataclass(frozen=True, eq=False)
class LocalCode:
    """A frozen cluster code book and the sensors whose columns it codes."""

    clustering: ColumnClustering
    source_sensors: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.source_sensors:
            raise ValueError("source_sensors must be nonempty")
        object.__setattr__(
            self, "source_sensors", tuple(str(s) for s in self.source_sensors)
        )

    @property
    def h(self) -> int:
        return self.clustering.h

    @property
    def code_book_id(self) -> str:
        """Content hash identifying this code book across artifacts."""
        clustering = self.clustering
        payload = "|".join(
            [
                "ward",  # the linkage, still hashed so code book ids stay stable
                str(clustering.h),
                ",".join(self.source_sensors),
                _fmt(clustering.row_mean),
                _fmt(clustering.row_std),
                _fmt(clustering.centroids.ravel()),
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def stack_lr(left: TimeSeriesFrame, right: TimeSeriesFrame) -> np.ndarray:
    """Concatenate two one-sensor frames into a 3 x 2T matrix, left block first.

    Axis rows align X/Y/Z by frame construction; lengths must match.
    """
    if len(left.sensors) != 1 or len(right.sensors) != 1:
        raise ValueError(f"need one-sensor frames, got {left.sensors}, {right.sensors}")
    if left.n_samples != right.n_samples:
        raise ValueError(
            f"length mismatch: left {left.n_samples}, right {right.n_samples}"
        )
    return np.concatenate([left.values, right.values], axis=1)


def fit_stride(n_columns: int, max_fit_columns: int | None) -> int:
    """Take every k-th column into a fit so that at most ``max_fit_columns`` are."""
    if max_fit_columns is None or n_columns <= max_fit_columns:
        return 1
    return math.ceil(n_columns / max_fit_columns)


def fit_local_code(
    stacked: np.ndarray,
    h: int = 10,
    source_sensors: tuple[str, ...] = ("L", "R"),
    max_fit_columns: int | None = None,
) -> LocalCode:
    """Cluster the columns of a stacked matrix into an H-state code book.

    ``stacked`` must hold one equal-length block of columns per source
    sensor.  When ``max_fit_columns`` is given and the matrix is wider,
    every k-th column is fitted instead and the rest of the data falls
    back to nearest-centroid encoding.
    """
    stacked = np.asarray(stacked, dtype=float)
    if stacked.ndim != 2:
        raise ValueError("stacked must be a 2-D matrix")
    n_blocks = len(tuple(source_sensors))
    if n_blocks < 1 or stacked.shape[1] % n_blocks != 0:
        raise ValueError(
            f"{stacked.shape[1]} columns do not split into "
            f"{n_blocks} equal sensor blocks"
        )
    stride = fit_stride(stacked.shape[1], max_fit_columns)
    clustering, _ = cluster_columns(stacked[:, ::stride], h)
    return LocalCode(clustering=clustering, source_sensors=tuple(source_sensors))


def encode_subsystem(code: LocalCode, frame: TimeSeriesFrame) -> SymbolSequence:
    """Code every column of a frame by its nearest code-book centroid."""
    labels = assign_nearest(code.clustering, frame.values)
    return SymbolSequence(symbols=labels, alphabet_size=code.h)


@dataclass(frozen=True, eq=False)
class CoupledStateSequence:
    """Position-wise tuples of subsystem codes, kept structured."""

    codes: np.ndarray
    subsystem_labels: tuple[str, ...]
    h_per_subsystem: tuple[int, ...]

    def __post_init__(self) -> None:
        codes = np.array(self.codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] < 1:
            raise ValueError("codes must be a T x k matrix with T, k >= 1")
        labels = tuple(str(s) for s in self.subsystem_labels)
        sizes = tuple(int(v) for v in self.h_per_subsystem)
        if len(labels) != codes.shape[1] or len(sizes) != codes.shape[1]:
            raise ValueError("one label and one alphabet size per component")
        for j, h in enumerate(sizes):
            if codes[:, j].min() < 0 or codes[:, j].max() >= h:
                raise ValueError(
                    f"component {j} has codes outside [0, {h})"
                )
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "subsystem_labels", labels)
        object.__setattr__(self, "h_per_subsystem", sizes)

    @property
    def n_samples(self) -> int:
        return self.codes.shape[0]


def couple(
    seqs: list[SymbolSequence], labels: list[str]
) -> CoupledStateSequence:
    """Zip equal-length code sequences into a tuple-state sequence."""
    if not seqs:
        raise ValueError("at least one sequence is required")
    if len(labels) != len(seqs):
        raise ValueError("one label per sequence required")
    length = len(seqs[0])
    for seq in seqs[1:]:
        if len(seq) != length:
            raise ValueError(f"length mismatch: {len(seq)} vs {length}")
    return CoupledStateSequence(
        codes=np.column_stack([seq.symbols for seq in seqs]),
        subsystem_labels=tuple(labels),
        h_per_subsystem=tuple(seq.alphabet_size for seq in seqs),
    )


# ---------------------------------------------------------------------------
# persistence: the code book file holds what encoding reads
# ---------------------------------------------------------------------------

_MAGIC = "gaitpass-codebook v3"


def local_code_to_text(code: LocalCode) -> str:
    clustering = code.clustering
    lines = [
        _MAGIC,
        "sensors " + " ".join(code.source_sensors),
        f"h {clustering.h}",
        f"dims {clustering.n_dims}",
        "row_mean " + _fmt(clustering.row_mean),
        "row_std " + _fmt(clustering.row_std),
        "centroids",
    ]
    lines.extend(_fmt(row) for row in clustering.centroids)
    return "\n".join(lines) + "\n"


def local_code_from_text(text: str) -> LocalCode:
    lines = LineReader(text, _MAGIC)
    sensors = tuple(lines.fields("sensors"))
    h = lines.value("h", int)
    d = lines.value("dims", int)
    row_mean = lines.values("row_mean", float, d)
    row_std = lines.values("row_std", float, d)
    lines.fields("centroids", 0)
    centroids = lines.rows(h, d)
    lines.finish()
    clustering = ColumnClustering(
        h=h, centroids=centroids, row_mean=row_mean, row_std=row_std
    )
    return LocalCode(clustering=clustering, source_sensors=sensors)
