"""Column clustering: merge behaviour, labeling, assignment."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster import hierarchy

from gaitpass.hca import (
    MAX_FIT_COLUMNS,
    ColumnClustering,
    _cut_order,
    assign_nearest,
    cluster_columns,
    cut_columns,
    link_columns,
)
from oracles import (
    agglomerate_literal,
    nearest_scan_literal,
    partition_of_assignments,
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


def tree_of(matrix, linkage, standardize=True):
    """The column tree of ``matrix`` under scipy's ``linkage``.

    ``link_columns`` links by Ward only.  ``cut_columns`` reads nothing of
    the linkage but its merges, so its cut is also checked on the trees,
    and ties, of complete and average linkage.
    """
    tree = link_columns(matrix, standardize=standardize)
    if linkage == "ward":
        return tree
    observations = (tree.matrix - tree.row_mean[:, None]) / tree.row_std[:, None]
    merges = hierarchy.linkage(observations.T, method=linkage)
    return replace(tree, merges=merges, cut_order=_cut_order(merges))


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
        with pytest.raises(ValueError, match="ceiling"):
            cluster_columns(np.zeros((1, MAX_FIT_COLUMNS + 1)), 2)


def tied_matrices():
    """Matrices whose merge heights tie: the cases a row-order cut gets wrong."""
    rng = np.random.default_rng(27)
    repeated = rng.standard_normal((2, 12))
    return {
        "integer_grid": rng.integers(0, 4, size=(2, 60)).astype(float),
        "repeated_columns": np.concatenate([repeated] * 4, axis=1),
        "rounded": np.round(rng.standard_normal((3, 50)), 1),
    }


class TestCutColumns:
    @pytest.mark.parametrize("kind", ["integer_grid", "repeated_columns", "rounded"])
    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_matches_scipy_cut_tree_at_every_h(self, linkage, kind):
        matrix = tied_matrices()[kind]
        tree = tree_of(matrix, linkage)
        n = matrix.shape[1]
        for h in range(1, n + 1):
            _, got = cut_columns(tree, h)
            want = hierarchy.cut_tree(tree.merges, n_clusters=h).ravel()
            assert partition_of_assignments(got) == \
                partition_of_assignments(want), h

    def test_one_tree_cut_at_a_sweep_equals_separate_fits(self):
        matrix = tied_matrices()["integer_grid"]
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
        matrix = tied_matrices()["repeated_columns"]
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
            tree.cut_order[0] = 1


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

