"""Agglomerative clustering of the columns of a signal matrix.

Columns (time points, as d-dimensional readings) are merged bottom-up under
a chosen linkage rule; cutting the merge tree where exactly H clusters
remain yields the cluster vocabulary used as a data-driven code book.
Cluster ids are relabeled so id 0 is the most populous cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster import hierarchy

LINKAGES = ("ward", "complete", "average")

# Hard ceiling on the number of columns in one fit; the pairwise distance
# matrix is quadratic in this, so longer windows must be subsampled and
# backfilled by nearest-centroid assignment.
MAX_FIT_COLUMNS = 65536


@dataclass(frozen=True, eq=False)
class ColumnClustering:
    """The code book one column-clustering fit leaves behind.

    ``centroids`` are raw-space per-cluster member means (h x d) and
    ``sizes`` the fitted columns each cluster took; ``row_mean``/``row_std``
    record the per-row standardization applied before clustering
    (zeros/ones when standardization was off).
    """

    h: int
    centroids: np.ndarray
    sizes: np.ndarray
    linkage: str
    row_mean: np.ndarray
    row_std: np.ndarray

    def __post_init__(self) -> None:
        if self.linkage not in LINKAGES:
            raise ValueError(f"linkage {self.linkage!r} not in {LINKAGES}")
        centroids = np.array(self.centroids, dtype=float)
        sizes = np.array(self.sizes, dtype=np.int64)
        row_mean = np.array(self.row_mean, dtype=float)
        row_std = np.array(self.row_std, dtype=float)
        if self.h < 1:
            raise ValueError("need h >= 1")
        if centroids.shape != (self.h, row_mean.shape[0]):
            raise ValueError("centroids must be h x d")
        if sizes.shape != (self.h,) or sizes.min() < 1:
            raise ValueError("every cluster id must own at least one column")
        for arr in (centroids, sizes, row_mean, row_std):
            arr.flags.writeable = False
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "row_mean", row_mean)
        object.__setattr__(self, "row_std", row_std)

    @property
    def n_columns(self) -> int:
        return int(self.sizes.sum())

    @property
    def n_dims(self) -> int:
        return self.centroids.shape[1]


def cluster_columns(
    matrix: np.ndarray,
    h: int,
    linkage: str = "ward",
    standardize: bool = True,
) -> tuple[ColumnClustering, np.ndarray]:
    """Fit an H-cluster column clustering of a d x N matrix.

    Rows are optionally standardized to zero mean and unit variance before
    distances are computed (constant rows keep unit scale); the merge tree
    is cut where exactly ``h`` clusters remain.  Cluster ids come out in
    decreasing size order, ties broken by earliest member column.  Returns
    the code book and the N fitted columns' cluster ids.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ValueError("matrix must be d x N with d, N >= 1")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains NaN or Inf")
    d, n = matrix.shape
    if n > MAX_FIT_COLUMNS:
        raise ValueError(
            f"{n} columns exceeds the fit ceiling of {MAX_FIT_COLUMNS}; "
            "subsample and backfill with assign_nearest"
        )
    if not 1 <= h <= n:
        raise ValueError(f"need 1 <= h <= {n}, got h={h}")
    if linkage not in LINKAGES:
        raise ValueError(f"linkage {linkage!r} not in {LINKAGES}")

    if standardize:
        row_mean = matrix.mean(axis=1)
        row_std = matrix.std(axis=1)
        row_std = np.where(row_std > 0, row_std, 1.0)
    else:
        row_mean = np.zeros(d)
        row_std = np.ones(d)
    observations = ((matrix - row_mean[:, None]) / row_std[:, None]).T

    if n == 1:
        raw_labels = np.zeros(1, dtype=np.int64)
    else:
        merges = hierarchy.linkage(observations, method=linkage)
        raw_labels = hierarchy.cut_tree(merges, n_clusters=h).ravel()

    # Relabel so cluster 0 is the largest; ties go to the cluster whose
    # first member column appears earliest.
    ids, first_seen, counts = np.unique(
        raw_labels, return_index=True, return_counts=True
    )
    order = sorted(range(len(ids)), key=lambda k: (-counts[k], first_seen[k]))
    remap = np.empty(len(ids), dtype=np.int64)
    for new_id, k in enumerate(order):
        remap[ids[k]] = new_id
    labels = remap[raw_labels]

    centroids = np.zeros((h, d))
    sizes = np.zeros(h, dtype=np.int64)
    for cid in range(h):
        members = labels == cid
        sizes[cid] = int(members.sum())
        centroids[cid] = matrix[:, members].mean(axis=1)

    clustering = ColumnClustering(
        h=h,
        centroids=centroids,
        sizes=sizes,
        linkage=linkage,
        row_mean=row_mean,
        row_std=row_std,
    )
    return clustering, labels


def assign_nearest(clustering: ColumnClustering, columns: np.ndarray) -> np.ndarray:
    """Label new d x M columns by nearest centroid in the fit space.

    Distances are Euclidean after applying the stored row standardization;
    ties resolve to the lower cluster id.
    """
    columns = np.asarray(columns, dtype=float)
    if columns.ndim == 1:
        columns = columns[:, None]
    if columns.shape[0] != clustering.n_dims:
        raise ValueError(
            f"columns have {columns.shape[0]} dims, clustering has "
            f"{clustering.n_dims}"
        )
    scale = clustering.row_std
    scaled = (columns - clustering.row_mean[:, None]) / scale[:, None]
    scaled_centroids = (
        clustering.centroids - clustering.row_mean[None, :]
    ) / scale[None, :]
    # squared distances via the expansion ||x||^2 - 2 x.c + ||c||^2
    cross = scaled_centroids @ scaled
    norms = np.sum(scaled_centroids**2, axis=1)[:, None]
    return np.argmin(norms - 2.0 * cross, axis=0).astype(np.int64)

