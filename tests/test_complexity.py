"""Phrase-count complexity and product-alphabet coupling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitpass.complexity import SymbolSequence, couple_naive, lz76_complexity
from oracles import lz76_phrases_literal


def seq(symbols, alphabet=None):
    symbols = np.asarray(symbols, dtype=np.int64)
    if alphabet is None:
        alphabet = int(symbols.max()) + 1
    return SymbolSequence(symbols=symbols, alphabet_size=alphabet)


class TestSymbolSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            seq([])
        with pytest.raises(ValueError):
            SymbolSequence(symbols=np.array([0.5]), alphabet_size=2)
        with pytest.raises(ValueError):
            seq([0, 3], alphabet=3)
        with pytest.raises(ValueError):
            seq([-1], alphabet=2)

    def test_len_and_readonly(self):
        s = seq([0, 1, 0])
        assert len(s) == 3
        with pytest.raises(ValueError):
            s.symbols[0] = 1


class TestLz76:
    def test_frozen_values(self):
        # the classic worked example
        assert lz76_complexity(seq([int(c) for c in "0001101001000101"])) == 6
        assert lz76_complexity(seq([0], alphabet=1)) == 1
        assert lz76_complexity(seq([0] * 25, alphabet=1)) == 2
        assert lz76_complexity(seq([0, 1])) == 2
        assert lz76_complexity(seq([0, 1, 0, 1, 0, 1])) == 3

    def test_agrees_with_literal_oracle_on_fixed_seeds(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a = int(rng.integers(2, 28))
            n = int(rng.integers(1, 600))
            s = rng.integers(0, a, n)
            assert lz76_complexity(seq(s, alphabet=a)) == lz76_phrases_literal(s)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=120)
    )
    def test_agrees_with_literal_oracle(self, symbols):
        assert lz76_complexity(seq(symbols, alphabet=6)) == lz76_phrases_literal(
            symbols
        )

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=80),
        st.permutations([0, 1, 2, 3]),
    )
    def test_invariant_under_relabeling(self, symbols, perm):
        # complexity sees only the equality structure, not symbol identity
        relabeled = [perm[s] for s in symbols]
        assert lz76_complexity(seq(symbols, alphabet=4)) == lz76_complexity(
            seq(relabeled, alphabet=4)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=80)
    )
    def test_prefix_growth_steps_by_at_most_one(self, symbols):
        values = [
            lz76_complexity(seq(symbols[:k], alphabet=3))
            for k in range(1, len(symbols) + 1)
        ]
        for prev, cur in zip(values, values[1:]):
            assert prev <= cur <= prev + 1


class TestCoupleNaive:
    def test_mixed_radix_and_alphabet(self):
        a = seq([0, 1, 2], alphabet=3)
        b = seq([1, 0, 1], alphabet=2)
        coupled = couple_naive([a, b])
        assert coupled.alphabet_size == 6
        assert coupled.symbols.tolist() == [1, 2, 5]

    def test_matches_ravel_multi_index(self):
        rng = np.random.default_rng(13)
        sizes = (3, 3, 3)
        parts = [
            seq(rng.integers(0, a, 40), alphabet=a) for a in sizes
        ]
        coupled = couple_naive(parts)
        want = np.ravel_multi_index(
            tuple(p.symbols for p in parts), sizes
        )
        assert np.array_equal(coupled.symbols, want)

    def test_distinct_tuples_stay_distinct(self):
        rng = np.random.default_rng(14)
        parts = [
            seq(rng.integers(0, 4, 100), alphabet=4) for _ in range(2)
        ]
        coupled = couple_naive(parts)
        tuples = set(zip(parts[0].symbols.tolist(), parts[1].symbols.tolist()))
        assert len(set(coupled.symbols.tolist())) == len(tuples)

    def test_errors(self):
        with pytest.raises(ValueError):
            couple_naive([])
        with pytest.raises(ValueError, match="length mismatch"):
            couple_naive([seq([0, 1]), seq([0])])

    def test_single_sequence_identity(self):
        s = seq([2, 0, 1], alphabet=3)
        coupled = couple_naive([s])
        assert np.array_equal(coupled.symbols, s.symbols)
        assert coupled.alphabet_size == 3
