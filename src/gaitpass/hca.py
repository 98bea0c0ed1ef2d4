"""Agglomerative clustering of the columns of a signal matrix.

Columns (time points, as d-dimensional readings) are merged bottom-up under
Ward's linkage; cutting the merge tree where exactly H clusters remain
yields the cluster vocabulary used as a data-driven code book.
There is one linkage per matrix (``link_columns``), cut at any H in linear
time (``cut_columns``) with partitions identical to scipy's ``cut_tree``.
Cluster ids are relabeled so id 0 is the most populous cluster.

The linkage merges reciprocal nearest neighbours in rounds over a k-d tree
of cluster centroids, in O(N*d) memory, and equals scipy's Ward linkage.
A matrix whose Ward distances tie is linked by scipy itself, because only
scipy's own merge order reproduces its choice among tied pairs; that path
holds the condensed distance matrix, which ``MAX_FIT_COLUMNS`` bounds.
scipy's k-d tree and linkage are imported where they are used, so a
program that imports this module but links nothing never loads them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

# Hard ceiling on the number of columns in one fit.  It binds the tie path
# of ``link_columns``, whose pairwise distance matrix is quadratic in this,
# so longer windows must be subsampled and backfilled by nearest-centroid
# assignment.
MAX_FIT_COLUMNS = 65536

# Two Ward distances within this relative gap count as tied.  The rounds'
# heights agree with scipy's to about 1e-15 relative, so this leaves a
# thousandfold margin over rounding; a wider gap sends continuous matrices
# to scipy's quadratic linkage on chance near-ties (two heights of the
# seed-5 walker stack lie 8.7e-10 apart).
_TIE = 1e-12
# Euclidean neighbours fetched per cluster before the exhaustive fallback.
# Any count of 2 or more gives the same merges and tie decisions: a cluster
# beyond the k nearest scores above the bound, so it can neither win nor
# tie.  On the four walker matrices the auth-complexity benchmark links
# (12,822 to 1,985 columns, 2-core VM), 2 to 6 neighbours took 0.33-0.35 s
# in all and 16 took 0.45 s: extra neighbours cost more to fetch and score
# than the ball searches they spare.
_NEIGHBOURS = 4
# Columns labelled per matrix product in ``assign_nearest``.
_ASSIGN_BLOCK = 16384


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


def _ward_sq(anchor, offset, size, i, j):
    # Squared Ward distance 2*n_i*n_j/(n_i+n_j) * |c_i - c_j|^2 between the
    # clusters at positions i and j, bitwise symmetric in them.  A centroid
    # is kept as one member column (its anchor) plus an offset, so the gap
    # between two close centroids loses no digits to their distance from
    # the origin.
    gap = (anchor[j] - anchor[i]) + (offset[j] - offset[i])
    return (
        2.0 * size[i] * size[j] / (size[i] + size[j]) * np.sum(gap**2, axis=-1)
    )


def _nearest(tree, anchor, offset, size, query):
    """Ward nearest neighbours of the clusters at positions ``query``.

    ``tree`` holds the centroids.  Returns the neighbours' positions and
    squared Ward distances, or None when some queried cluster's two nearest
    tie (zero distances included).  The k nearest centroids give a
    candidate; clusters outside them are at least ``r_k`` away, so none
    beats the bound 2*n*n_min/(n+n_min)*r_k^2.  Where that bound does not
    clear the candidate by the tie gap, a ball of the radius the bound
    implies is searched instead.
    """
    m = len(size)
    k = min(_NEIGHBOURS + 1, m)
    dist, idx = tree.query(tree.data[query], k=k)
    rows = np.arange(len(query))
    w = _ward_sq(anchor, offset, size, query[:, None], idx)
    w[idx == query[:, None]] = np.inf
    order = np.argsort(w, axis=1)
    best = idx[rows, order[:, 0]]
    w1 = w[rows, order[:, 0]]
    w2 = w[rows, order[:, 1]]

    near = (1.0 - _TIE) ** 2
    n_q = size[query]
    n_min = size.min()
    floor = 2.0 * n_q * n_min / (n_q + n_min)
    # The tree holds each centroid rounded to a float, up to half an ulp
    # of the largest coordinate off per axis, so its distances may be off
    # by up to this much; reach is narrowed and the radius widened by it.
    slack = 2.0 * np.finfo(float).eps * np.abs(tree.data).max()
    slack *= np.sqrt(tree.m)
    # With every cluster among the k nearest, none lies beyond them.
    reach = np.maximum(dist[:, -1] - slack, 0.0) if k < m else np.inf
    open_ = np.flatnonzero(floor * reach**2 * near <= w1)
    if len(open_):
        owners = query[open_]
        # Widened a hair more so the tree's arithmetic drops no candidate.
        radius = np.sqrt(w1[open_] / (floor[open_] * near))
        radius = radius * (1.0 + 1e-12) + slack
        balls = tree.query_ball_point(tree.data[owners], radius)
        lengths = np.fromiter(map(len, balls), np.int64, len(balls))
        cand = np.fromiter(chain.from_iterable(balls), np.int64, lengths.sum())
        owner = np.repeat(owners, lengths)
        wc = _ward_sq(anchor, offset, size, owner, cand)
        wc[cand == owner] = np.inf
        # Each ball holds its owner and the k-nearest candidate, so every
        # group has a best and a second-best entry.
        ranked = np.lexsort((wc, np.repeat(np.arange(len(owners)), lengths)))
        first = np.cumsum(lengths) - lengths
        best[open_] = cand[ranked[first]]
        w1[open_] = wc[ranked[first]]
        w2[open_] = wc[ranked[first + 1]]
    if np.any((w1 >= w2 * near) | (w1 == 0.0)):
        return None
    return best, w1


def _ward_rounds(points: np.ndarray) -> np.ndarray | None:
    """Scipy's Ward linkage of the N x d ``points``; None on a tie.

    Ward is reducible: merging two clusters never brings a third closer
    than the nearer of the two was.  So every pair of reciprocal nearest
    neighbours is a merge of the one Ward tree, whatever the order
    (Murtagh 1983; Muellner 2011, arXiv:1109.2378), and a cluster whose
    nearest neighbour survives a round keeps it.  Each round merges every
    reciprocal pair, then re-queries only the new clusters and those that
    lost their neighbour.  Without ties the merges are scipy's; its
    heights agree to rounding.  Heights are checked for ties as each round
    adds them, so a tied matrix leaves at the first round that shows it.
    """
    from scipy.spatial import cKDTree

    n = len(points)
    anchor = np.array(points, dtype=float)
    offset = np.zeros_like(anchor)
    size = np.ones(n)
    node = np.arange(n)
    nn = np.zeros(n, dtype=np.int64)
    nn_sq = np.zeros(n)
    stale = np.ones(n, dtype=bool)
    merged_nodes, heights, sizes = [], [], []
    placed = np.zeros(0)  # the merge heights so far, sorted
    made = 0
    while len(size) > 1:
        m = len(size)
        query = np.flatnonzero(stale)
        tree = cKDTree(anchor + offset)
        found = _nearest(tree, anchor, offset, size, query)
        if found is None:
            return None
        nn[query], nn_sq[query] = found
        a = np.flatnonzero((nn[nn] == np.arange(m)) & (np.arange(m) < nn))
        if not len(a):
            # A round always merges the closest pair; should rounding ever
            # break that, scipy links the matrix instead of a loop forever.
            return None
        b = nn[a]
        new_size = size[a] + size[b]
        merged = np.sqrt(nn_sq[a])
        new = np.sort(merged)
        placed = np.insert(placed, np.searchsorted(placed, new), new)
        if np.any(np.diff(placed) <= _TIE * placed[1:]):
            return None
        merged_nodes.append(np.column_stack((node[a], node[b])))
        heights.append(merged)
        sizes.append(new_size)

        # The merged cluster keeps a's anchor; its centroid moves from a's
        # towards b's by n_b / (n_a + n_b) of the gap.
        gap = (anchor[b] - anchor[a]) + (offset[b] - offset[a])
        new_offset = offset[a] + (size[b] / new_size)[:, None] * gap
        gone = np.zeros(m, dtype=bool)
        gone[a] = gone[b] = True
        keep = ~gone
        position = np.cumsum(keep) - 1
        stale = np.concatenate((gone[nn[keep]], np.ones(len(a), dtype=bool)))
        nn = np.concatenate((position[nn[keep]], np.zeros(len(a), np.int64)))
        nn_sq = np.concatenate((nn_sq[keep], np.zeros(len(a))))
        anchor = np.concatenate((anchor[keep], anchor[a]))
        offset = np.concatenate((offset[keep], new_offset))
        node = np.concatenate((node[keep], n + made + np.arange(len(a))))
        made += len(a)
        size = np.concatenate((size[keep], new_size))

    height = np.concatenate(heights)
    order = np.argsort(height, kind="stable")
    height = height[order]
    # Number each merge by its row in height order, as scipy does.
    label = np.arange(2 * n - 1)
    label[n + order] = n + np.arange(n - 1)
    children = np.sort(label[np.concatenate(merged_nodes)[order]], axis=1)
    return np.column_stack((children, height, np.concatenate(sizes)[order]))


def link_columns(matrix: np.ndarray, standardize: bool = True) -> ColumnTree:
    """Ward-link the columns of a d x N matrix once, for cutting at any H.

    Rows are optionally standardized to zero mean and unit variance before
    distances are computed (constant rows keep unit scale).  The merges
    equal scipy's ``linkage(method="ward")``; a matrix with tied Ward
    distances is handed to that call, the others never build a distance
    matrix.
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
        merges = _ward_rounds(observations)
        if merges is None:
            from scipy.cluster import hierarchy

            merges = hierarchy.linkage(observations, method="ward")
            cut_order = _cut_order(merges)
        else:
            # The rounds' heights strictly increase (a tie returns None),
            # so a cut applies their merges in row order.
            cut_order = np.arange(n - 1)
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
    mean = clustering.row_mean
    scale = clustering.row_std
    scaled_centroids = (clustering.centroids - mean) / scale
    norms = np.sum(scaled_centroids**2, axis=1)[:, None]
    # Squared distances up to ||x||^2 as ||c||^2 - 2 c.x, a block of columns
    # at a time, so the h x M temporaries stay h x block.  BLAS's
    # matrix-matrix kernel gives a column the same product whatever block
    # holds it, but a one-column product goes through its matrix-vector
    # kernel, which rounds differently: a lone last column joins the block
    # before it, and a lone column is labelled as one of a pair.
    m = columns.shape[1]
    if m == 1:
        return assign_nearest(clustering, np.repeat(columns, 2, axis=1))[:1]
    edges = list(range(0, m, _ASSIGN_BLOCK)) + [m]
    if len(edges) > 2 and m - edges[-2] == 1:
        del edges[-2]
    labels = np.empty(m, dtype=np.int64)
    for start, stop in zip(edges, edges[1:]):
        block = columns[:, start:stop] - mean[:, None]
        block /= scale[:, None]
        cross = scaled_centroids @ block
        cross *= -2.0
        cross += norms
        labels[start:stop] = cross.argmin(axis=0)
    return labels
