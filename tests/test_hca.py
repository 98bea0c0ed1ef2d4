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
    MAX_FIT_COLUMNS,
    ColumnClustering,
    _cut_order,
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



def scipy_ward(tree):
    return hierarchy.linkage(observations_of(tree), method="ward")


def assert_same_linkage(got, want):
    """Equal merges and sizes; heights equal up to rounding."""
    assert np.array_equal(got[:, [0, 1, 3]], want[:, [0, 1, 3]])
    assert np.allclose(got[:, 2], want[:, 2], rtol=1e-12, atol=0)


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
        got = _ward_rounds(observations)
        assert got is not None
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
        got = _ward_rounds(observations)
        assert got is not None
        assert_same_linkage(got, hierarchy.linkage(observations, method="ward"))

    def test_tied_matrices_take_scipy_linkage(self):
        matrices = dict(tied_matrices())
        rng = np.random.default_rng(31)
        matrices["integers"] = rng.integers(0, 20, size=(3, 2000)).astype(float)
        for kind, matrix in matrices.items():
            tree = link_columns(matrix)
            assert _ward_rounds(observations_of(tree)) is None, kind
            assert np.array_equal(tree.merges, scipy_ward(tree)), kind

    def test_equal_heights_are_ties(self):
        # Two far-apart pairs at the same spacing: no cluster has a tied
        # neighbour, but two merge heights are equal.
        observations = np.array([[0.0], [1.0], [10.0], [11.0]])
        assert _ward_rounds(observations) is None

    def test_tied_heights_stop_at_the_first_round(self, monkeypatch):
        # Two far-apart copies of one continuous matrix: no cluster has a
        # tied neighbour, but every merge height comes twice, the first
        # round's included.
        rng = np.random.default_rng(33)
        points = rng.standard_normal((500, 3))
        observations = np.concatenate((points, points + [100.0, 0.0, 0.0]))
        rounds = []

        def counted(*args):
            rounds.append(1)
            return _nearest(*args)

        monkeypatch.setattr(hca, "_nearest", counted)
        assert _ward_rounds(observations) is None
        assert len(rounds) == 1

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
        assert _ward_rounds(observations_of(tree)) is not None
        assert_same_linkage(tree.merges, scipy_ward(tree))

    # Seed 5's stack has two merge heights 8.7e-10 apart relative, a chance
    # near-tie that must not send it to scipy's quadratic linkage.
    @pytest.mark.parametrize("seed, columns", [(1, 12822), (5, 12812)])
    def test_walker_stack_links_in_linear_memory(self, seed, columns):
        # scipy's pdist-based linkage peaks near 706 MB on this matrix.
        matrix = walker_stack(50, seed=seed)
        assert matrix.shape[1] == columns
        tracemalloc.start()
        try:
            link_columns(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
