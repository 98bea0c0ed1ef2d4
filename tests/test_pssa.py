"""State ranking, occupancy matrices, key-state training and attribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster import hierarchy

from gaitpass.errors import DataError
from gaitpass.pssa import (
    KeyPssModel,
    ProportionMatrix,
    SystemStateTable,
    build_proportion_matrix,
    build_state_table,
    classify_matrix,
    cluster_sigma,
    coverage_curve,
    model_from_text,
    model_to_text,
    segment_proportions,
    select_pss,
    sigma_to_tsv,
    split_alternating,
    state_label,
    train_key_pss,
    _average_leaf_order,
    _row_keys,
)
from gaitpass.symbolic import StateVectorSequence
from oracles import (
    classify_rows_literal,
    segment_proportions_by_dict,
    segment_proportions_literal,
    state_table_by_rows,
)


def svs(rows):
    return StateVectorSequence(states=np.array(rows, dtype=np.uint8))


def random_svs(rng, n, d=3):
    return svs(rng.integers(1, 4, size=(n, d)))


def test_state_label():
    assert state_label((1, 2, 1)) == "121"
    assert state_label(np.array([3, 3], dtype=np.uint8)) == "33"


class TestStateTable:
    def test_ranking_by_count_then_lexicographic(self):
        # counts: (1,1) x3, (2,2) x3, (3,1) x1 -> tie broken lexicographically
        seq = svs([[1, 1], [2, 2], [1, 1], [2, 2], [3, 1], [1, 1], [2, 2]])
        table = build_state_table([seq])
        assert table.pool_size == 7
        assert [state_label(s) for s in table.states] == ["11", "22", "31"]
        assert table.frequencies.tolist() == [3, 3, 1]

    def test_pools_multiple_sequences(self):
        a = svs([[1, 1]] * 4)
        b = svs([[2, 2]] * 5)
        table = build_state_table([a, b])
        assert [state_label(s) for s in table.states] == ["22", "11"]
        assert table.pool_size == 9

    def test_errors(self):
        with pytest.raises(ValueError):
            build_state_table([])
        with pytest.raises(ValueError, match="dimension mismatch"):
            build_state_table([svs([[1, 1]]), svs([[1, 1, 1]])])

    def test_table_validation(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            SystemStateTable(
                states=np.array([[1], [2]], dtype=np.uint8),
                frequencies=np.array([1, 5]),
                pool_size=6,
            )
        with pytest.raises(ValueError, match="pool size"):
            SystemStateTable(
                states=np.array([[1]], dtype=np.uint8),
                frequencies=np.array([3]),
                pool_size=4,
            )


class TestCoverageAndSelection:
    def table(self):
        seq = svs([[1, 1]] * 5 + [[2, 2]] * 3 + [[3, 3]] * 2)
        return build_state_table([seq])

    def test_pool_curve_ends_at_one(self):
        curve = coverage_curve(self.table())
        assert np.allclose(curve, [0.5, 0.8, 1.0])

    def test_select_by_count(self):
        pss = select_pss(self.table(), n_states=2)
        assert [state_label(s) for s in pss] == ["11", "22"]
        # capped at the number of distinct states
        assert select_pss(self.table(), n_states=99).shape == (3, 2)

    def test_select_by_coverage(self):
        table = self.table()
        assert select_pss(table, coverage=0.5).shape[0] == 1
        assert select_pss(table, coverage=0.51).shape[0] == 2
        assert select_pss(table, coverage=0.8).shape[0] == 2
        assert select_pss(table, coverage=1.0).shape[0] == 3

    def test_select_argument_errors(self):
        table = self.table()
        with pytest.raises(ValueError):
            select_pss(table)
        with pytest.raises(ValueError):
            select_pss(table, n_states=2, coverage=0.5)
        with pytest.raises(ValueError):
            select_pss(table, coverage=0.0)
        with pytest.raises(ValueError):
            select_pss(table, n_states=0)


class TestSegmentProportions:
    def test_matches_literal_counting(self):
        rng = np.random.default_rng(40)
        seq = random_svs(rng, 120)
        table = build_state_table([seq])
        pss = select_pss(table, n_states=6)
        got = segment_proportions(seq, pss, 7)
        want = segment_proportions_literal(seq.states, pss, 7)
        assert np.allclose(got, np.array(want))
        assert got.shape == (17, 6)  # trailing 1-sample remainder dropped

    def test_unlisted_states_leave_mass_uncounted(self):
        seq = svs([[1, 1], [2, 2], [3, 3], [1, 1]])
        pss = np.array([[1, 1]], dtype=np.uint8)
        rows = segment_proportions(seq, pss, 4)
        assert rows.tolist() == [[0.5]]

    def test_errors(self):
        seq = svs([[1, 1]] * 5)
        pss = np.array([[1, 1]], dtype=np.uint8)
        with pytest.raises(ValueError, match="shorter"):
            segment_proportions(seq, pss, 6)
        with pytest.raises(ValueError):
            segment_proportions(seq, pss, 0)
        with pytest.raises(ValueError, match="matching"):
            segment_proportions(seq, np.array([[1, 1, 1]], dtype=np.uint8), 2)


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(1, 40),
    lengths=st.lists(st.integers(1, 150), min_size=1, max_size=3),
    pool=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_and_proportions_match_row_oracles(d, lengths, pool, seed):
    """Integer-keyed counting equals per-row ranking and per-sample lookup.

    Past 31 channels the keys are re-ranked on the way.
    """
    rng = np.random.default_rng(seed)
    common = rng.integers(1, 4, size=(pool, d))
    seqs = []
    for n in lengths:
        rows = np.where(
            rng.random((n, 1)) < 0.8,
            common[rng.integers(0, pool, n)],
            rng.integers(1, 4, size=(n, d)),
        )
        # column-major states key as row-major ones do
        seqs.append(svs(np.asfortranarray(rows) if n % 2 else rows))
    table = build_state_table(seqs)
    states, counts = state_table_by_rows(
        np.concatenate([seq.states for seq in seqs])
    )
    assert table.states.dtype == np.uint8
    assert np.array_equal(table.states, states)
    assert np.array_equal(table.frequencies, counts)

    # ranked states, one of them listed twice, then random, mostly unseen ones
    pss = np.concatenate([
        table.states[: rng.integers(0, table.n_states + 1)],
        table.states[rng.integers(0, table.n_states, 1)],
        rng.integers(1, 4, size=(rng.integers(0, 3), d)).astype(np.uint8),
    ])
    seq = seqs[0]
    length = int(rng.integers(1, seq.n_samples + 1))
    got = segment_proportions(seq, pss, length)
    want = segment_proportions_by_dict(seq.states, pss, length)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def two_subject_sigma():
    pss = np.array([[1, 1], [3, 3]], dtype=np.uint8)
    return ProportionMatrix(
        proportions=np.array(
            [[0.8, 0.1], [0.7, 0.2], [0.1, 0.9], [0.2, 0.6]]
        ),
        subjects=("A", "A", "B", "B"),
        segment_indices=(0, 1, 0, 1),
        pss=pss,
        segment_length=10,
    )


def one_row(values):
    """A one-row matrix over as many principle states as ``values`` holds."""
    return ProportionMatrix(
        proportions=np.array([values]),
        subjects=("?",),
        segment_indices=(0,),
        pss=np.array([[k + 1, k + 1] for k in range(len(values))], dtype=np.uint8),
        segment_length=10,
    )


class TestProportionMatrix:
    def test_build_from_dict(self):
        rng = np.random.default_rng(41)
        seqs = {"a": random_svs(rng, 30), "b": [random_svs(rng, 20), random_svs(rng, 25)]}
        pss = select_pss(build_state_table([seqs["a"]]), n_states=4)
        sigma = build_proportion_matrix(seqs, pss, 10)
        assert sigma.n_rows == 3 + 2 + 2
        assert sigma.subjects[:3] == ("a", "a", "a")
        # list entries keep one running segment counter per subject
        assert sigma.segment_indices == (0, 1, 2, 0, 1, 2, 3)
        assert sigma.subjects.count("b") == 4
        assert sigma.n_states == 4

    def test_split_alternating(self):
        sigma = two_subject_sigma()
        train, test = split_alternating(sigma)
        assert train.subjects == ("A", "B")
        assert test.subjects == ("A", "B")
        assert np.array_equal(train.proportions[0], sigma.proportions[0])
        assert np.array_equal(test.proportions[1], sigma.proportions[3])

    def test_split_needs_both_sides(self):
        sigma = ProportionMatrix(
            proportions=np.array([[0.5], [0.5]]),
            subjects=("A", "B"),
            segment_indices=(0, 0),
            pss=np.array([[1, 1]], dtype=np.uint8),
            segment_length=5,
        )
        with pytest.raises(ValueError, match="both sides"):
            split_alternating(sigma)

    def test_row_validation(self):
        with pytest.raises(ValueError, match="<= 1"):
            ProportionMatrix(
                proportions=np.array([[0.9, 0.9]]),
                subjects=("A",),
                segment_indices=(0,),
                pss=np.array([[1, 1], [2, 2]], dtype=np.uint8),
                segment_length=5,
            )


class TestTrainAndClassify:
    def test_hand_worked_model(self):
        sigma = two_subject_sigma()
        model, margins = train_key_pss(sigma)
        assert model.subjects == ("A", "B")
        assert model.key_sets == {"A": (0,), "B": (1,)}
        assert model.thresholds["A"] == pytest.approx((0.7 + 0.2) / 2)
        assert model.thresholds["B"] == pytest.approx((0.6 + 0.2) / 2)
        assert margins["A"] == pytest.approx(0.5)
        assert margins["B"] == pytest.approx(0.4)
        assert classify_matrix(model, sigma).accuracy(sigma.subjects) == 1.0
        assert np.allclose(model.centroids["A"], [0.75, 0.15])

    def test_classify_firing_rule(self):
        model, _ = train_key_pss(two_subject_sigma())
        result = classify_matrix(model, one_row([0.75, 0.15]))
        assert result.predicted == ("A",)
        assert not result.fallback[0]
        assert result.score[0] > 0

    def test_classify_fallback_to_nearest_centroid(self):
        model, _ = train_key_pss(two_subject_sigma())
        result = classify_matrix(model, one_row([0.35, 0.3]))
        assert result.fallback[0]
        assert result.predicted == ("A",)

    def test_classify_row_length_checked(self):
        model, _ = train_key_pss(two_subject_sigma())
        with pytest.raises(ValueError, match="states"):
            classify_matrix(model, one_row([0.5, 0.5, 0.0]))

    def test_training_preconditions(self):
        sigma = two_subject_sigma()
        only_a = ProportionMatrix(
            proportions=sigma.proportions[:2],
            subjects=("A", "A"),
            segment_indices=(0, 1),
            pss=sigma.pss,
            segment_length=10,
        )
        with pytest.raises(ValueError, match="two subjects"):
            train_key_pss(only_a)
        thin = ProportionMatrix(
            proportions=sigma.proportions[:3],
            subjects=("A", "A", "B"),
            segment_indices=(0, 1, 0),
            pss=sigma.pss,
            segment_length=10,
        )
        with pytest.raises(ValueError, match="fewer than two"):
            train_key_pss(thin)

    def test_disjoint_inventories_classified_perfectly(self):
        rng = np.random.default_rng(42)
        pools = {
            "ann": [(1, 1, 1), (2, 2, 2)],
            "bob": [(3, 3, 3), (1, 3, 1)],
        }
        seqs = {}
        for name, pool in pools.items():
            picks = rng.integers(0, 2, size=600)
            seqs[name] = svs([pool[p] for p in picks])
        table = build_state_table(list(seqs.values()))
        pss = select_pss(table, n_states=4)
        sigma = build_proportion_matrix(seqs, pss, 50)
        train, test = split_alternating(sigma)
        model, _ = train_key_pss(train)
        assert classify_matrix(model, train).accuracy(train.subjects) == 1.0
        tested = classify_matrix(model, test)
        assert tested.accuracy(test.subjects) == 1.0
        assert not tested.fallback.any()


def quantized_rows(rng, n, n_states):
    """``n`` occupancy rows rounded down to hundredths, so rows sum to <= 1."""
    raw = rng.dirichlet(np.ones(n_states + 1), size=n)[:, :n_states]
    return np.floor(raw * 100) / 100


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_subjects=st.integers(2, 7),
    n_states=st.integers(1, 14),
    model_kind=st.sampled_from(["trained", "random", "tied"]),
)
def test_classify_matrix_matches_row_by_row_oracle(
    seed, n_subjects, n_states, model_kind
):
    # Rows rounded to hundredths, and rows repeating training rows, put
    # some rows at nearly equal distance from two centroids.  A "tied"
    # model's centroids lie at one offset, permuted, from a row that no
    # rule fires for, so its distances tie up to the order of summation.
    rng = np.random.default_rng(seed)
    subjects = tuple(f"s{k}" for k in range(n_subjects))
    counts = rng.integers(2, 5, size=n_subjects)
    train = ProportionMatrix(
        proportions=quantized_rows(rng, int(counts.sum()), n_states),
        subjects=tuple(np.repeat(subjects, counts).tolist()),
        segment_indices=tuple(range(int(counts.sum()))),
        pss=np.arange(n_states, dtype=np.uint8)[:, None],
        segment_length=100,
    )
    rows = np.concatenate([
        train.proportions[rng.integers(0, train.n_rows, size=6)],
        quantized_rows(rng, 10, n_states),
    ])
    if model_kind == "trained":
        model, _ = train_key_pss(train)
    else:
        labels = np.array(train.subjects)
        centroids = {
            s: train.proportions[labels == s].mean(axis=0) for s in subjects
        }
        thresholds = {s: float(rng.integers(0, 60)) / 100 for s in subjects}
        if model_kind == "tied":
            anchor = rows[-1]
            offset = np.round(rng.normal(0.0, 0.05, n_states), 2)
            centroids = {
                s: anchor + offset[rng.permutation(n_states)] for s in subjects
            }
            thresholds = dict.fromkeys(subjects, 1.0)
            rows = np.concatenate([rows, np.repeat(anchor[None, :], 4, axis=0)])
        model = KeyPssModel(
            subjects=subjects,
            pss=train.pss,
            key_sets={
                s: tuple(rng.permutation(n_states)[
                    : rng.integers(1, min(10, n_states) + 1)].tolist())
                for s in subjects
            },
            thresholds=thresholds,
            centroids=centroids,
            segment_length=100,
        )
    sigma = ProportionMatrix(
        proportions=rows,
        subjects=("?",) * rows.shape[0],
        segment_indices=tuple(range(rows.shape[0])),
        pss=train.pss,
        segment_length=100,
    )
    result = classify_matrix(model, sigma)
    got = [
        (predicted, fallback, repr(score))
        for predicted, fallback, score in zip(
            result.predicted, result.fallback.tolist(), result.score.tolist()
        )
    ]
    want = [
        (predicted, fallback, repr(score))
        for predicted, fallback, score in classify_rows_literal(model, rows)
    ]
    assert got == want


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 40),
    n=st.integers(1, 200),
    top=st.sampled_from([1, 3, 4, 200, 255]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_keys_sort_as_rows_sort(d, n, top, seed):
    # any uint8 digits: 8-bit digits are re-ranked from the eighth column on
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, top + 1, (n, d), dtype=np.uint8)
    rows = rows[rng.integers(0, n, n)]
    keys = _row_keys(rows)
    order = np.lexsort(rows.T[::-1])
    assert np.array_equal(np.argsort(keys, kind="stable"), order)
    same_row = np.all(rows[order][1:] == rows[order][:-1], axis=1)
    assert np.array_equal(np.diff(keys[order]) == 0, same_row)


def heatmap_points(kind, n, d, rng):
    """``n`` rows of ``d`` values for the heatmap order to link."""
    if kind == "continuous":
        return rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
    if kind == "thousandths":
        return rng.integers(0, 20, (n, d)) / 1000.0
    if kind == "proportions":
        return rng.multinomial(int(rng.integers(1, 30)), np.ones(d) / d, n) / 40.0
    # a few distinct rows, each repeated
    distinct = rng.uniform(0.0, 0.2, (max(1, n // 4), d))
    return distinct[rng.integers(0, distinct.shape[0], n)]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["continuous", "thousandths", "proportions", "duplicates"]),
    n=st.integers(2, 80),
    d=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_heatmap_order_equals_scipy_average_linkage(kind, n, d, seed):
    points = heatmap_points(kind, n, d, np.random.default_rng(seed))
    want = hierarchy.leaves_list(hierarchy.linkage(points, method="average"))
    assert np.array_equal(_average_leaf_order(points), want)


class TestSigmaArtifacts:
    def test_cluster_sigma_returns_permutations(self):
        rng = np.random.default_rng(43)
        sigma = ProportionMatrix(
            proportions=rng.uniform(0, 0.2, size=(6, 4)),
            subjects=tuple("ABABAB"),
            segment_indices=(0, 0, 1, 1, 2, 2),
            pss=np.array([[1, 1], [2, 2], [3, 3], [1, 2]], dtype=np.uint8),
            segment_length=5,
        )
        rows, cols = cluster_sigma(sigma)
        assert sorted(rows.tolist()) == list(range(6))
        assert sorted(cols.tolist()) == list(range(4))
        # an axis of one item orders as [0]
        rows, cols = cluster_sigma(
            ProportionMatrix(
                proportions=np.array([[0.1], [0.5], [0.15]]),
                subjects=("A", "B", "A"),
                segment_indices=(0, 0, 1),
                pss=np.array([[1, 1]], dtype=np.uint8),
                segment_length=5,
            )
        )
        assert rows.tolist() == [1, 0, 2]
        assert cols.tolist() == [0]

    def test_sigma_tsv_round_trips_floats(self):
        sigma = two_subject_sigma()
        text = sigma_to_tsv(sigma)
        lines = text.strip().splitlines()
        assert lines[0].split("\t") == ["subject", "segment", "11", "33"]
        parsed = lines[1].split("\t")
        assert parsed[0] == "A" and parsed[1] == "0"
        assert float(parsed[2]) == sigma.proportions[0, 0]

    def test_model_text_roundtrip(self):
        model, _ = train_key_pss(two_subject_sigma())
        text = model_to_text(model)
        back = model_from_text(text)
        assert back.subjects == model.subjects
        assert back.key_sets == model.key_sets
        assert back.thresholds == model.thresholds
        assert back.segment_length == model.segment_length
        assert np.array_equal(back.pss, model.pss)
        for s in model.subjects:
            assert np.array_equal(back.centroids[s], model.centroids[s])
        assert model_to_text(back) == text

    def test_model_bad_magic(self):
        with pytest.raises(DataError, match="gaitpass-keypss"):
            model_from_text("other\n")
