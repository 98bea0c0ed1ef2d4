"""Column clustering: merge behaviour, labeling, assignment."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster import hierarchy
from scipy.spatial import cKDTree

from gaitpass import hca
from gaitpass.hca import (
    ColumnClustering,
    _nearest,
    _ward_rounds,
    assign_nearest,
    cluster_columns,
    cut_columns,
    link_columns,
)
from gaitpass.ingest import synthesize_walker
from gaitpass.l1g2 import stack_lr
from oracles import (
    agglomerate_literal,
    assign_nearest_whole,
    nearest_scan_literal,
    partition_after,
    partition_of_assignments,
    ward_ties_literal,
)


def blobs(rng, centers, per=8, spread=0.05):
    cols = []
    for center in centers:
        cols.append(
            np.asarray(center)[:, None]
            + spread * rng.standard_normal((len(center), per))
        )
    return np.concatenate(cols, axis=1)


LINKAGES = ("ward", "complete", "average")


def observations_of(tree):
    """The standardized N x d observations a column tree links."""
    return ((tree.matrix - tree.row_mean[:, None]) / tree.row_std[:, None]).T


def tree_of(matrix, linkage, standardize=True):
    """The column tree of ``matrix`` under scipy's ``linkage``.

    ``link_columns`` links by Ward only.  ``cut_columns`` reads nothing of
    the linkage but its merges, so its cut is also checked on the trees,
    and ties, of complete and average linkage.
    """
    tree = link_columns(matrix, standardize=standardize)
    if linkage == "ward":
        return tree
    merges = hierarchy.linkage(observations_of(tree), method=linkage)
    return replace(tree, merges=merges)


class TestClusterColumns:
    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_matches_literal_agglomeration(self, linkage):
        rng = np.random.default_rng(21)
        for trial in range(12):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(2, 26))
            h = int(rng.integers(1, n + 1))
            matrix = rng.standard_normal((d, n))
            _, got = cut_columns(tree_of(matrix, linkage, standardize=False), h)
            want = agglomerate_literal(matrix, h, linkage)
            assert partition_of_assignments(got) == want

    def test_standardize_equals_manual_zscore(self):
        rng = np.random.default_rng(22)
        matrix = rng.standard_normal((3, 30)) * np.array([[4.0], [0.5], [9.0]])
        z = (matrix - matrix.mean(axis=1, keepdims=True)) / matrix.std(
            axis=1, keepdims=True
        )
        a, labels_a = cluster_columns(matrix, 4, standardize=True)
        _, labels_b = cluster_columns(z, 4, standardize=False)
        assert np.array_equal(labels_a, labels_b)
        # centroids stay in raw space
        for cid in range(4):
            members = labels_a == cid
            assert np.allclose(a.centroids[cid], matrix[:, members].mean(axis=1))

    def test_constant_row_survives_standardization(self):
        matrix = np.vstack([np.ones(10), np.arange(10.0)])
        clustering, _ = cluster_columns(matrix, 2)
        assert clustering.row_std[0] == 1.0
        assert clustering.h == 2

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_separated_blobs_recovered(self, linkage):
        rng = np.random.default_rng(23)
        matrix = blobs(rng, [(0, 0), (10, 0), (0, 10)], per=7)
        _, labels = cut_columns(tree_of(matrix, linkage), 3)
        truth = np.repeat([0, 1, 2], 7)
        # same partition, labels free
        assert partition_of_assignments(labels) == partition_of_assignments(truth)

    def test_label_order_by_size_then_first_column(self):
        rng = np.random.default_rng(24)
        # sizes 4, 9, 2 at x = 0, 50, 100
        matrix = np.concatenate(
            [
                0.0 + 0.01 * rng.standard_normal((1, 4)),
                50.0 + 0.01 * rng.standard_normal((1, 9)),
                100.0 + 0.01 * rng.standard_normal((1, 2)),
            ],
            axis=1,
        )
        clustering, labels = cluster_columns(matrix, 3)
        assert labels.tolist() == [1] * 4 + [0] * 9 + [2] * 2
        assert clustering.sizes.tolist() == [9, 4, 2]

    def test_label_tie_breaks_on_first_appearance(self):
        rng = np.random.default_rng(25)
        matrix = np.concatenate(
            [
                0.0 + 0.01 * rng.standard_normal((1, 5)),
                50.0 + 0.01 * rng.standard_normal((1, 5)),
            ],
            axis=1,
        )
        _, labels = cluster_columns(matrix, 2)
        assert labels.tolist() == [0] * 5 + [1] * 5

    def test_single_column(self):
        clustering, labels = cluster_columns(np.array([[3.0]]), 1)
        assert labels.tolist() == [0]
        assert clustering.sizes.tolist() == [1]

    def test_h_equals_n(self):
        rng = np.random.default_rng(26)
        matrix = rng.standard_normal((2, 6))
        _, labels = cluster_columns(matrix, 6)
        assert sorted(labels.tolist()) == list(range(6))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cluster_columns(np.zeros((2, 5)), 0)
        with pytest.raises(ValueError):
            cluster_columns(np.zeros((2, 5)), 6)
        with pytest.raises(ValueError):
            cluster_columns(np.zeros(5), 2)
        with pytest.raises(ValueError, match="NaN"):
            cluster_columns(np.array([[np.nan, 1.0]]), 1)
        # No column count is refused: 65,537 equal columns make one start
        # cluster, so linking them allocates nothing quadratic.
        tree = link_columns(np.zeros((1, 65537)))
        assert cut_columns(tree, 1)[0].sizes.tolist() == [65537]
        assert cut_columns(tree, 2)[0].sizes.tolist() == [65536, 1]


def cut_matrices():
    """Matrices whose merge heights tie, and one whose heights never do."""
    rng = np.random.default_rng(27)
    repeated = rng.standard_normal((2, 12))
    return {
        "integer_grid": rng.integers(0, 4, size=(2, 60)).astype(float),
        "repeated_columns": np.concatenate([repeated] * 4, axis=1),
        "rounded": np.round(rng.standard_normal((3, 50)), 1),
        "continuous": rng.standard_normal((3, 50)),
    }


class TestCutColumns:
    @pytest.mark.parametrize("kind", list(cut_matrices()))
    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_matches_scipy_cut_tree_at_every_h(self, linkage, kind):
        """The cut applies the first N-H rows; scipy's ``cut_tree`` orders
        rows of equal height its own way, so the two agree wherever the cut
        does not fall inside a run of tied heights, and at every H on the
        continuous matrix, whose heights strictly increase."""
        matrix = cut_matrices()[kind]
        tree = tree_of(matrix, linkage)
        n = matrix.shape[1]
        height = tree.merges[:, 2]
        if kind == "continuous":
            assert np.all(np.diff(height) > 0)
        checked = 0
        for h in range(1, n + 1):
            applied = n - h
            if 0 < applied < n - 1 and height[applied - 1] == height[applied]:
                continue
            _, got = cut_columns(tree, h)
            want = hierarchy.cut_tree(tree.merges, n_clusters=h).ravel()
            assert partition_of_assignments(got) == \
                partition_of_assignments(want), h
            checked += 1
        assert checked >= 2

    def test_one_tree_cut_at_a_sweep_equals_separate_fits(self):
        matrix = cut_matrices()["integer_grid"]
        tree = link_columns(matrix)
        for h in [5, 2, 5, 27]:
            cut, labels = cut_columns(tree, h)
            fit, fit_labels = cluster_columns(matrix, h)
            assert np.array_equal(labels, fit_labels)
            for field in ("centroids", "sizes", "row_mean", "row_std"):
                assert np.array_equal(getattr(cut, field), getattr(fit, field))
            assert cut.h == fit.h

    def test_single_column_tree(self):
        tree = link_columns(np.array([[2.0], [5.0]]))
        assert tree.merges.shape == (0, 4)
        clustering, labels = cut_columns(tree, 1)
        assert labels.tolist() == [0]
        assert clustering.centroids.tolist() == [[2.0, 5.0]]

    def test_h_one_and_h_n(self):
        matrix = cut_matrices()["repeated_columns"]
        tree = link_columns(matrix)
        n = matrix.shape[1]
        _, one = cut_columns(tree, 1)
        assert one.tolist() == [0] * n
        _, each = cut_columns(tree, n)
        assert sorted(each.tolist()) == list(range(n))
        # equal sizes, so ids follow first appearance
        assert each.tolist() == list(range(n))

    def test_h_outside_tree_rejected(self):
        tree = link_columns(np.zeros((2, 5)))
        for h in (0, 6):
            with pytest.raises(ValueError, match="need 1 <= h <= 5"):
                cut_columns(tree, h)

    def test_tree_is_frozen_and_owns_its_matrix(self):
        matrix = np.arange(8.0).reshape(2, 4)
        tree = link_columns(matrix)
        matrix[0, 0] = 99.0
        assert tree.matrix[0, 0] == 0.0
        with pytest.raises(ValueError):
            tree.merges[0, 2] = 1.0


class TestAssignNearest:
    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(28)
        clustering, _ = cluster_columns(rng.standard_normal((4, 40)), 6)
        columns = rng.standard_normal((4, 70))
        got = assign_nearest(clustering, columns)
        want = nearest_scan_literal(
            clustering.centroids, clustering.row_std, columns
        )
        assert got.tolist() == want

    def test_fit_columns_map_to_own_cluster(self):
        rng = np.random.default_rng(29)
        matrix = blobs(rng, [(0, 0), (8, 8), (-8, 8)], per=6)
        clustering, labels = cluster_columns(matrix, 3)
        assert np.array_equal(assign_nearest(clustering, matrix), labels)

    def test_tie_goes_to_lower_id(self):
        clustering = ColumnClustering(
            h=2,
            centroids=np.array([[-1.0], [1.0]]),
            sizes=np.array([2, 2]),
            row_mean=np.zeros(1),
            row_std=np.ones(1),
        )
        assert assign_nearest(clustering, np.array([[0.0]])).tolist() == [0]

    def test_single_vector_and_dim_check(self):
        rng = np.random.default_rng(30)
        clustering, _ = cluster_columns(rng.standard_normal((3, 10)), 2)
        label = assign_nearest(clustering, rng.standard_normal(3))
        assert label.shape == (1,)
        with pytest.raises(ValueError, match="dims"):
            assign_nearest(clustering, rng.standard_normal((2, 5)))


BLOCK = 7  # the column block the block tests patch in
EDGE_WIDTHS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)


def labels_in_blocks(clustering, columns):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hca, "_ASSIGN_BLOCK", BLOCK)
        return assign_nearest(clustering, columns)


def code_book_and_columns(rng, h, d, m, kind):
    """A code book of ``h`` centroids and ``m`` columns to label by it."""
    if kind == "grid":
        # Integer centroids, repeats included, and half-integer columns
        # under power-of-two scales: distances are exact, so many columns
        # lie exactly as far from two centroids.
        centroids = rng.integers(-2, 3, (h, d)).astype(float)
        columns = rng.integers(-4, 5, (d, m)) / 2.0
        row_mean = rng.integers(-1, 2, d).astype(float)
        row_std = 2.0 ** rng.integers(-1, 2, d)
    else:
        centroids = rng.standard_normal((h, d))
        columns = rng.standard_normal((d, m))
        row_mean = rng.standard_normal(d)
        row_std = rng.uniform(0.1, 3.0, d)
        if kind == "midpoints":
            # Columns halfway between two centroids: which one wins turns
            # on the last bit of the products.
            pairs = rng.integers(0, h, (2, m))
            columns = (centroids[pairs[0]] + centroids[pairs[1]]).T / 2.0
    clustering = ColumnClustering(
        h=h, centroids=centroids, sizes=np.ones(h, dtype=np.int64),
        row_mean=row_mean, row_std=row_std,
    )
    return clustering, columns


class TestAssignInBlocks:
    @settings(max_examples=150, deadline=None)
    @given(
        h=st.integers(min_value=1, max_value=9),
        d=st.integers(min_value=1, max_value=4),
        m=st.one_of(
            st.sampled_from(EDGE_WIDTHS), st.integers(min_value=1, max_value=80)
        ),
        kind=st.sampled_from(["grid", "midpoints", "random"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_one_product(self, h, d, m, kind, seed):
        rng = np.random.default_rng(seed)
        clustering, columns = code_book_and_columns(rng, h, d, m, kind)
        got = labels_in_blocks(clustering, columns)
        assert got.dtype == np.int64
        assert np.array_equal(got, assign_nearest_whole(clustering, columns))

    def test_near_ties_at_every_edge_width(self):
        # A one-column product rounds differently from a wider one, and
        # only near-ties show it; about one draw in sixteen flips a label
        # when the last column is computed alone.
        rng = np.random.default_rng(34)
        for _ in range(120):
            h = int(rng.integers(2, 10))
            d = int(rng.integers(1, 5))
            for m in EDGE_WIDTHS:
                clustering, columns = code_book_and_columns(
                    rng, h, d, m, "midpoints"
                )
                assert np.array_equal(
                    labels_in_blocks(clustering, columns),
                    assign_nearest_whole(clustering, columns),
                )

    def test_ties_take_the_lower_id_in_every_block(self):
        # Centroid 2 repeats centroid 1, and 0.0 is as far from -1 as from 1.
        clustering = ColumnClustering(
            h=3, centroids=np.array([[-1.0], [1.0], [1.0]]),
            sizes=np.array([1, 1, 1]), row_mean=np.zeros(1), row_std=np.ones(1),
        )
        for m in (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2):
            columns = np.tile([0.0, 1.0, 2.0], m)[None, :m]
            want = np.tile([0, 1, 1], m)[:m]
            assert labels_in_blocks(clustering, columns).tolist() == want.tolist()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=14),
    h_fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_partition_property_random(n, h_fraction, seed):
    rng = np.random.default_rng(seed)
    h = 1 + int(h_fraction * (n - 1))
    matrix = rng.standard_normal((2, n))
    _, labels = cluster_columns(matrix, h, standardize=False)
    assert partition_of_assignments(labels) == agglomerate_literal(matrix, h, "ward")



def scipy_ward(tree):
    return hierarchy.linkage(observations_of(tree), method="ward")


def assert_same_linkage(got, want):
    """Equal merges and sizes; heights equal up to rounding."""
    assert np.array_equal(got[:, [0, 1, 3]], want[:, [0, 1, 3]])
    assert np.allclose(got[:, 2], want[:, 2], rtol=1e-12, atol=0)


def linking_peak(matrix):
    """Bytes ``link_columns(matrix)`` holds at its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        link_columns(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def walker_stack(cycles, seed=1):
    """The stacked 3 x 2T foot matrix of a 2-sensor walker."""
    frame = synthesize_walker(
        seed=seed, cycles=cycles, period_mean=128.0, period_jitter=2.0,
        sensors=2, noise=0.03,
    ).frame
    return stack_lr(frame.sensor("S0"), frame.sensor("S1"))


class TestWardRounds:
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=2, max_value=300),
        standardize=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_scipy_on_continuous_matrices(self, d, n, standardize, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((d, n)) * rng.uniform(0.1, 10.0, (d, 1))
        tree = link_columns(matrix, standardize=standardize)
        assert_same_linkage(tree.merges, scipy_ward(tree))

    @pytest.mark.parametrize("seed", range(8))
    def test_rounds_link_continuous_matrices_alone(self, seed):
        rng = np.random.default_rng(seed)
        observations = rng.standard_normal((200, 1 + seed % 4))
        got = _ward_rounds(observations, np.ones(len(observations)))
        assert_same_linkage(got, hierarchy.linkage(observations, method="ward"))

    @pytest.mark.parametrize("noise", [1e-3, 1e-6, 1e-9])
    def test_tight_clusters_far_from_origin(self, noise):
        # Merged centroids a few units out, columns 1e-9 apart: the gaps
        # must not lose digits to the centroids' distance from the origin.
        rng = np.random.default_rng(32)
        centers = 3.0 * rng.standard_normal((6, 3))
        observations = np.repeat(centers, 300, axis=0) + noise * (
            rng.standard_normal((1800, 3))
        )
        got = _ward_rounds(observations, np.ones(len(observations)))
        assert_same_linkage(got, hierarchy.linkage(observations, method="ward"))

    def test_parent_never_sits_below_its_child(self):
        # An equilateral triple: the second merge ties the first exactly,
        # and rounding puts its Ward distance a hair below.  The parent
        # takes its child's height and keeps the row after it.
        points = np.array([[0.0, 0.3, 0.3], [0.0, 0.6, 0.6], [0.3, 0.3, 0.6]])
        merges = _ward_rounds(points, np.ones(3))
        assert merges[:, [0, 1, 3]].tolist() == [[0, 1, 2], [2, 3, 3]]
        assert merges[1, 2] == merges[0, 2]

    def test_nearest_allows_for_rounded_centroids(self, monkeypatch):
        # Far from the origin the tree holds centroids a fraction of an ulp
        # off: it puts the 2-column cluster at 3 ulps from the query and the
        # single column at 4, though the column (3.9 ulps, Ward 15.21) is
        # nearer than the cluster (3.41 ulps, Ward 15.50).
        monkeypatch.setattr(hca, "_NEIGHBOURS", 1)
        x = 2.0**22
        ulp = np.spacing(x)
        anchor = np.array([[x], [x + 3 * ulp], [x - 4 * ulp]])
        offset = np.array([[0.0], [0.41 * ulp], [0.1 * ulp]])
        size = np.array([1.0, 2.0, 1.0])
        tree = cKDTree(anchor + offset)
        assert np.array_equal((tree.data[:, 0] - x) / ulp, [0.0, 3.0, -4.0])
        best, _ = _nearest(tree, anchor, offset, size, np.array([0]))
        assert best.tolist() == [2]

    def test_walker_stack_equals_scipy(self):
        matrix = walker_stack(20)
        assert 5000 < matrix.shape[1] < 5300
        tree = link_columns(matrix)
        assert_same_linkage(tree.merges, scipy_ward(tree))

    # Seed 5's stack has two merge heights 8.7e-10 apart relative, a chance
    # near-tie that must not send it to scipy's quadratic linkage.
    @pytest.mark.parametrize("seed, columns", [(1, 12822), (5, 12812)])
    def test_walker_stack_links_in_linear_memory(self, seed, columns):
        # scipy's pdist-based linkage peaks near 706 MB on this matrix.
        matrix = walker_stack(50, seed=seed)
        assert matrix.shape[1] == columns
        assert linking_peak(matrix) < 64 * 2**20

    def test_integer_walker_stack_links_in_linear_memory(self):
        # The seed-1 stack as integer counts: 8 of its 12,822 columns
        # repeat and many Ward distances tie.  scipy's linkage peaked near
        # 1.3 GB of RSS on it.
        matrix = np.round(walker_stack(50, seed=1) * 1000)
        assert np.unique(matrix, axis=1).shape[1] == 12814
        assert linking_peak(matrix) < 64 * 2**20


def chain(n, scale=1.0):
    """1-D points whose gaps grow by 0.2% each: nearest neighbours chain."""
    return scale * np.cumsum(1.002 ** np.arange(n))[:, None]


def standardized_walker_columns(n, seed):
    matrix = walker_stack(2, seed=seed)[:, :n]
    return ((matrix - matrix.mean(axis=1)[:, None]) / matrix.std(axis=1)[:, None]).T


def rounds_points(kind, n, seed):
    """``n`` points to link: continuous, walker, chain, tied or rounded."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.standard_normal((n, int(rng.integers(1, 5))))
    if kind == "walker":
        return standardized_walker_columns(n, seed % 8)
    if kind == "chain":
        return chain(n, rng.uniform(0.1, 10.0))
    if kind == "rounded":
        return np.round(rng.standard_normal((n, 3)), 1)
    return rng.integers(0, 4, (n, 2)).astype(float)


CONTINUOUS = ["random", "walker", "chain"]


def merges_of(points):
    return link_columns(points.T, standardize=False).merges


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(CONTINUOUS + ["tied", "rounded"]),
    n=st.integers(min_value=2, max_value=240),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_neighbour_count_changes_no_merge(kind, n, seed):
    """Any count of 2 or more fetched neighbours gives the same merges.

    The ball bound sends every cluster whose nearest lies outside the k
    fetched to the exhaustive search, so k moves only the work, never a
    merge, a height, or the lowest position among tied neighbours.
    """
    points = rounds_points(kind, n, seed)
    results = []
    with pytest.MonkeyPatch.context() as patch:
        for k in (2, 4, 16):
            patch.setattr(hca, "_NEIGHBOURS", k)
            results.append(merges_of(points))
    for other in results[1:]:
        assert np.array_equal(other, results[0])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(CONTINUOUS + ["tied"]),
    n=st.integers(min_value=2, max_value=240),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rounds_cut_in_row_order(kind, n, seed):
    """Heights never fall from row to row and every child row comes before
    its parent, so a cut applies the first N-H rows.  On continuous points
    the heights strictly increase, so that is ``cut_tree``'s order too."""
    points = rounds_points(kind, n, seed)
    tree = link_columns(points.T, standardize=False)
    height = tree.merges[:, 2]
    assert np.all(np.diff(height) >= 0)
    assert np.all(tree.merges[:, :2] < n + np.arange(n - 1)[:, None])
    if kind in CONTINUOUS:
        assert np.all(np.diff(height) > 0)
        # (cut_tree mislabels the H = N column of a multi-H call)
        want = hierarchy.cut_tree(tree.merges, n_clusters=np.arange(1, n))
        for h in range(1, n):
            _, got = cut_columns(tree, h)
            assert partition_of_assignments(got) == \
                partition_of_assignments(want[:, h - 1])


@pytest.mark.parametrize("seed", [1, 2, 3, 7919])
def test_walker_rounds_cut_in_row_order(seed):
    # The 50-cycle walker stacks the benchmark's code-book fits link: no
    # column repeats and the heights strictly increase, so the rounds link
    # every column and ``cut_tree`` applies the merges in row order.
    tree = link_columns(walker_stack(50, seed=seed))
    n = tree.matrix.shape[1]
    assert np.array_equal(
        tree.merges, _ward_rounds(observations_of(tree), np.ones(n))
    )
    assert np.all(np.diff(tree.merges[:, 2]) > 0)


def tie_matrix(kind, d, n, rng):
    """A d x n matrix whose Ward distances tie, with or without repeats."""
    if kind == "integers":
        return rng.integers(0, 4, (d, n)).astype(float)
    if kind == "quarters":
        return rng.integers(-3, 4, (d, n)) / 4.0
    if kind == "rounded":
        return np.round(rng.standard_normal((d, n)), 1)
    base = rng.standard_normal((d, max(1, n // 4)))
    return base[:, rng.integers(0, base.shape[1], n)]


TIE_KINDS = ["integers", "quarters", "rounded", "repeated"]


class TestTies:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(TIE_KINDS),
        d=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=60),
        standardize=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_literal_rounds(self, kind, d, n, standardize, seed):
        """The rounds and the literal agglomeration under the same tie rule
        give the same heights and the same partition at every H."""
        matrix = tie_matrix(kind, d, n, np.random.default_rng(seed))
        tree = link_columns(matrix, standardize=standardize)
        want = ward_ties_literal(observations_of(tree).T)
        assert tree.merges[:, 2].tolist() == [height for _, height in want]
        for h in range(1, n + 1):
            _, got = cut_columns(tree, h)
            assert partition_of_assignments(got) == partition_after(want, n, h)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["tied", "rounded"]),
        n=st.integers(min_value=2, max_value=240),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_heights_and_labels(self, kind, n, seed):
        """Each merge height is the Ward distance of the two clusters it
        joins and never falls below its children's; identical columns
        share a label at every H up to the count of distinct columns, and
        distinct ones at no H from that count on."""
        points = rounds_points(kind, n, seed)
        tree = link_columns(points.T, standardize=False)
        members = [[j] for j in range(n)]
        for left, right, height, size in tree.merges:
            a, b = members[int(left)], members[int(right)]
            gap = points[a].mean(axis=0) - points[b].mean(axis=0)
            ward = np.sqrt(2.0 * len(a) * len(b) / (len(a) + len(b)) * gap @ gap)
            assert np.isclose(height, ward, rtol=1e-9, atol=1e-12)
            for child in (int(left), int(right)):
                if child >= n:
                    assert height >= tree.merges[child - n, 2]
            members.append(a + b)
            assert size == len(a) + len(b)
        _, column = np.unique(points, axis=0, return_inverse=True)
        same = column[:, None] == column[None, :]
        distinct = int(column.max()) + 1
        for h in range(1, n + 1):
            _, labels = cut_columns(tree, h)
            shared = labels[:, None] == labels[None, :]
            if h <= distinct:
                assert np.all(shared[same])
            if h >= distinct:
                assert not np.any(shared[~same])


@settings(max_examples=150, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=9),
    d=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=2, max_value=40),
    kind=st.sampled_from(["grid", "midpoints"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_column_alone_gets_its_label_in_a_batch(h, d, m, kind, seed):
    """A one-column call labels its column as a wider call does: it takes
    the matrix-matrix product, not the matrix-vector one."""
    rng = np.random.default_rng(seed)
    clustering, columns = code_book_and_columns(rng, h, d, m, kind)
    whole = assign_nearest_whole(clustering, columns)
    alone = [assign_nearest(clustering, columns[:, j : j + 1])[0] for j in range(m)]
    assert alone == whole.tolist()
