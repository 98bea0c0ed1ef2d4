"""Agglomerative clustering of the columns of a signal matrix.

Columns (time points, as d-dimensional readings) are merged bottom-up under
Ward's linkage; cutting the merge tree where exactly H clusters remain
yields the cluster vocabulary used as a data-driven code book.
There is one linkage per matrix (``link_columns``), cut at any H in linear
time (``cut_columns``) with partitions identical to scipy's ``cut_tree``.
Cluster ids are relabeled so id 0 is the most populous cluster.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.cluster import hierarchy

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
    row_mean: np.ndarray
    row_std: np.ndarray

    def __post_init__(self) -> None:
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
    def n_dims(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True, eq=False)
class ColumnTree:
    """One Ward linkage of a d x N column matrix, ready to be cut at any H.

    ``merges`` is scipy's (N-1) x 4 linkage matrix over the standardized
    columns; ``cut_order`` lists its rows in the order ``cut_tree`` applies
    them (by height, ties in reverse breadth-first order from the root),
    so cutting at H applies the first N-H of them.
    """

    matrix: np.ndarray
    merges: np.ndarray
    cut_order: np.ndarray
    row_mean: np.ndarray
    row_std: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.matrix, self.merges, self.cut_order,
                    self.row_mean, self.row_std):
            arr.flags.writeable = False


def _cut_order(merges: np.ndarray) -> np.ndarray:
    # scipy's _order_cluster_tree walks the tree breadth-first from the
    # root (right child queued before left) and bisect.insort_left-s each
    # node by height, so equal heights end up in reverse walk order.
    n = merges.shape[0] + 1
    children = merges[:, :2].astype(np.int64).tolist()
    walk = []
    queue = deque([n - 2])
    while queue:
        row = queue.popleft()
        walk.append(row)
        for child in reversed(children[row]):
            if child >= n:
                queue.append(child - n)
    walk = np.array(walk[::-1], dtype=np.int64)
    return walk[np.argsort(merges[walk, 2], kind="stable")]


def link_columns(matrix: np.ndarray, standardize: bool = True) -> ColumnTree:
    """Ward-link the columns of a d x N matrix once, for cutting at any H.

    Rows are optionally standardized to zero mean and unit variance before
    distances are computed (constant rows keep unit scale).
    """
    matrix = np.array(matrix, dtype=float)
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

    if standardize:
        row_mean = matrix.mean(axis=1)
        row_std = matrix.std(axis=1)
        row_std = np.where(row_std > 0, row_std, 1.0)
    else:
        row_mean = np.zeros(d)
        row_std = np.ones(d)
    observations = ((matrix - row_mean[:, None]) / row_std[:, None]).T

    if n == 1:
        merges = np.zeros((0, 4))
        cut_order = np.zeros(0, dtype=np.int64)
    else:
        merges = hierarchy.linkage(observations, method="ward")
        cut_order = _cut_order(merges)
    return ColumnTree(
        matrix=matrix,
        merges=merges,
        cut_order=cut_order,
        row_mean=row_mean,
        row_std=row_std,
    )


def cut_columns(tree: ColumnTree, h: int) -> tuple[ColumnClustering, np.ndarray]:
    """Cut a column tree where exactly ``h`` clusters remain.

    The partition equals ``scipy.cluster.hierarchy.cut_tree``'s at every
    H, ties in merge height included, in time linear in N (up to a log
    factor for the root lookup).  Cluster ids come out in decreasing size
    order, ties broken by earliest member column.  Returns the code book
    and the N fitted columns' cluster ids.
    """
    matrix = tree.matrix
    d, n = matrix.shape
    if not 1 <= h <= n:
        raise ValueError(f"need 1 <= h <= {n}, got h={h}")

    # Apply the first N-h merges as parent pointers over all 2N-1 nodes,
    # then double the pointers until every node points at its root.
    parent = np.arange(2 * n - 1)
    applied = tree.cut_order[: n - h]
    children = tree.merges[applied, :2].astype(np.int64)
    parent[children] = (applied + n)[:, None]
    while True:
        grandparent = parent[parent]
        if np.array_equal(grandparent, parent):
            break
        parent = grandparent

    # Relabel so cluster 0 is the largest; ties go to the cluster whose
    # first member column appears earliest.
    _, first_seen, raw_labels, counts = np.unique(
        parent[:n], return_index=True, return_inverse=True, return_counts=True
    )
    remap = np.empty(h, dtype=np.int64)
    remap[np.lexsort((first_seen, -counts))] = np.arange(h)
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
        row_mean=tree.row_mean,
        row_std=tree.row_std,
    )
    return clustering, labels


def cluster_columns(
    matrix: np.ndarray, h: int, standardize: bool = True
) -> tuple[ColumnClustering, np.ndarray]:
    """Fit an H-cluster column clustering of a d x N matrix.

    One ``link_columns`` then one ``cut_columns``; link once and cut
    repeatedly to fit several H on the same matrix.
    """
    return cut_columns(link_columns(matrix, standardize), h)


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

