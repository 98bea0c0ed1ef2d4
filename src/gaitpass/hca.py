"""Agglomerative clustering of the columns of a signal matrix.

Columns (time points, as d-dimensional readings) are merged bottom-up under
Ward's linkage; cutting the merge tree where exactly H clusters remain
yields the cluster vocabulary used as a data-driven code book.
There is one linkage per matrix (``link_columns``), cut at any H in linear
time (``cut_columns``).  Cluster ids are relabeled so id 0 is the most
populous cluster.

The linkage merges reciprocal nearest neighbours in rounds over a k-d tree
of cluster centroids, in O(N*d) memory.  Exact duplicate columns start as
one weighted cluster, and a tie in Ward distance goes to the cluster at the
lowest position, so tied readings (integer counts, rounded exports) link
as continuous ones do.  Where no Ward distances tie, the linkage equals
scipy's Ward linkage and every cut its ``cut_tree``.  The k-d tree is
imported where it is used, so a program that imports this module but
links nothing never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

# The ball bound of ``_nearest`` is relaxed by this relative margin, so
# rounding in the Ward distances it bounds cannot drop a candidate.
_MARGIN = 1e-12
# Euclidean neighbours fetched per cluster before the exhaustive fallback.
# Any count of 2 or more gives the same merges: a cluster beyond the k
# nearest scores above the bound, so it can neither win nor tie.  On the
# four walker matrices the auth-complexity benchmark links (12,822 to 1,985
# columns, 2-core VM), 2 to 6 neighbours took 0.33-0.35 s in all and 16
# took 0.45 s: extra neighbours cost more to fetch and score than the ball
# searches they spare.
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

    ``merges`` is an (N-1) x 4 linkage matrix in scipy's layout over the
    standardized columns, its heights never falling from row to row, so
    cutting at H applies its first N-H rows.  Where no Ward distances tie
    it equals scipy's Ward linkage; otherwise it follows ``link_columns``'s
    tie rule.
    """

    matrix: np.ndarray
    merges: np.ndarray
    row_mean: np.ndarray
    row_std: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.matrix, self.merges, self.row_mean, self.row_std):
            arr.flags.writeable = False


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
    squared Ward distances; of several equally near, the lowest position.
    The k nearest centroids give a candidate; clusters outside them are at
    least ``r_k`` away, so none reaches the bound 2*n*n_min/(n+n_min)*r_k^2.
    Where that bound does not clear the candidate by the margin, a ball of
    the radius the bound implies is searched instead.
    """
    m = len(size)
    k = min(_NEIGHBOURS + 1, m)
    dist, idx = tree.query(tree.data[query], k=k)
    w = _ward_sq(anchor, offset, size, query[:, None], idx)
    w[idx == query[:, None]] = np.inf
    w1 = w.min(axis=1)
    best = np.where(w == w1[:, None], idx, m).min(axis=1)

    near = (1.0 - _MARGIN) ** 2
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
        # Each ball holds its owner, so no group is empty.
        first = np.cumsum(lengths) - lengths
        w1[open_] = np.minimum.reduceat(wc, first)
        tied = wc == np.repeat(w1[open_], lengths)
        best[open_] = np.minimum.reduceat(np.where(tied, cand, m), first)
    return best, w1


def _ward_rounds(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Ward linkage of the N x d ``points``, point i standing for
    ``weights[i]`` equal columns.

    Ward is reducible: merging two clusters never brings a third closer
    than the nearer of the two was.  So every pair of reciprocal nearest
    neighbours is a merge of the one Ward tree, whatever the order
    (Murtagh 1983; Muellner 2011, arXiv:1109.2378), and a cluster whose
    nearest neighbour survives a round keeps it.  Each round merges every
    reciprocal pair, then re-queries only the new clusters and those that
    lost their neighbour.  Survivors keep their order and new clusters go
    after them, so a tie, which goes to the lowest position, still goes to
    a kept neighbour, and the lower cluster of the nearest pair is always
    reciprocal.  Without ties the merges are scipy's, heights to rounding.
    """
    from scipy.spatial import cKDTree

    n = len(points)
    anchor = np.array(points, dtype=float)
    offset = np.zeros_like(anchor)
    size = np.array(weights, dtype=float)
    level = np.zeros(n)  # each cluster's merge height
    node = np.arange(n)
    nn = np.zeros(n, dtype=np.int64)
    nn_sq = np.zeros(n)
    stale = np.ones(n, dtype=bool)
    rows = [np.zeros((0, 4))]  # (node, node, height, size) per merge
    made = 0
    while len(size) > 1:
        m = len(size)
        query = np.flatnonzero(stale)
        tree = cKDTree(anchor + offset)
        nn[query], nn_sq[query] = _nearest(tree, anchor, offset, size, query)
        a = np.flatnonzero((nn[nn] == np.arange(m)) & (np.arange(m) < nn))
        if not len(a):
            raise RuntimeError("a Ward round found no reciprocal nearest pair")
        b = nn[a]
        new_size = size[a] + size[b]
        # A parent never sits below its children, even where rounding
        # puts an exact tie between them (an equilateral triple) a hair low.
        new_level = np.maximum(np.sqrt(nn_sq[a]), np.maximum(level[a], level[b]))
        rows.append(np.column_stack((node[a], node[b], new_level, new_size)))

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
        level = np.concatenate((level[keep], new_level))
        node = np.concatenate((node[keep], n + made + np.arange(len(a))))
        made += len(a)
        size = np.concatenate((size[keep], new_size))

    merges = np.concatenate(rows)
    # Stable, so a child whose height its parent ties stays before it.
    order = np.argsort(merges[:, 2], kind="stable")
    merges = merges[order]
    # Number each merge by its row in height order, as scipy does.
    label = np.arange(2 * n - 1)
    label[n + order] = n + np.arange(n - 1)
    merges[:, :2] = np.sort(label[merges[:, :2].astype(np.int64)], axis=1)
    return merges


def _join_duplicates(points: np.ndarray):
    """Exact duplicate rows of the N x d ``points``, joined at height zero.

    Returns which rows are the first of their copies, the linkage rows
    that join each later copy to the cluster of those before it (one row
    per copy, in row order), and for each distinct row, in order of first
    appearance, its count and the node its copies form.
    """
    n = len(points)
    # Copies end up adjacent, each run in row order.
    order = np.lexsort(points.T[::-1])
    new = np.ones(n, dtype=bool)
    new[1:] = np.any(points[order[1:]] != points[order[:-1]], axis=1)
    start = np.flatnonzero(new)
    first = np.zeros(n, dtype=bool)
    first[order[start]] = True
    # The node a row's cluster is once the row has joined.
    node = np.where(first, np.arange(n), n + np.cumsum(~first) - 1)
    at = np.flatnonzero(~new)  # the later copies' places in ``order``
    joins = np.zeros((len(at), 4))
    rows = node[order[at]] - n
    joins[rows, :2] = np.sort(np.column_stack((node[order[at - 1]], order[at])))
    joins[rows, 3] = at - start[np.cumsum(new)[at] - 1] + 1
    runs = np.argsort(order[start])  # the runs by first appearance
    counts = np.diff(np.append(start, n))[runs]
    top = node[order[np.append(start[1:], n) - 1]][runs]
    return first, joins, counts, top


def link_columns(matrix: np.ndarray, standardize: bool = True) -> ColumnTree:
    """Ward-link the columns of a d x N matrix once, for cutting at any H.

    Rows are optionally standardized to zero mean and unit variance before
    distances are computed (constant rows keep unit scale).  Exact
    duplicate columns join first, at height zero in column order.  The
    rounds link the distinct ones and give a tie in Ward distance to the
    cluster at the lowest position: distinct columns by first appearance,
    each round's new clusters after the survivors.  Where no Ward
    distances tie, the merges equal scipy's ``linkage(method="ward")``.
    """
    matrix = np.array(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ValueError("matrix must be d x N with d, N >= 1")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains NaN or Inf")
    d, n = matrix.shape

    if standardize:
        row_mean = matrix.mean(axis=1)
        row_std = matrix.std(axis=1)
        row_std = np.where(row_std > 0, row_std, 1.0)
    else:
        row_mean = np.zeros(d)
        row_std = np.ones(d)
    observations = ((matrix - row_mean[:, None]) / row_std[:, None]).T

    first, joins, counts, top = _join_duplicates(observations)
    merges = _ward_rounds(observations[first], counts)
    # The rounds number their u start clusters 0..u-1 and their merges
    # u, u+1, ...; here those merges follow the N-u joins of copies.
    u = len(counts)
    label = np.concatenate((top, np.arange(u, 2 * u - 1) + 2 * (n - u)))
    merges[:, :2] = np.sort(label[merges[:, :2].astype(np.int64)], axis=1)
    return ColumnTree(
        matrix=matrix,
        merges=np.concatenate((joins, merges)),
        row_mean=row_mean,
        row_std=row_std,
    )


def cut_columns(tree: ColumnTree, h: int) -> tuple[ColumnClustering, np.ndarray]:
    """Cut a column tree where exactly ``h`` clusters remain.

    The cut applies the tree's first N-h merges, in time linear in N (up
    to a log factor for the root lookup); where no merge heights tie, the
    partition equals ``scipy.cluster.hierarchy.cut_tree``'s.  Cluster ids
    come out in decreasing size order, ties broken by earliest member
    column.  Returns the code book and the N fitted columns' cluster ids.
    """
    matrix = tree.matrix
    d, n = matrix.shape
    if not 1 <= h <= n:
        raise ValueError(f"need 1 <= h <= {n}, got h={h}")

    # Apply the first N-h merges as parent pointers over all 2N-1 nodes,
    # then double the pointers until every node points at its root.
    parent = np.arange(2 * n - 1)
    children = tree.merges[: n - h, :2].astype(np.int64)
    parent[children] = np.arange(n, 2 * n - h)[:, None]
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
