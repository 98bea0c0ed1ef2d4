"""Production-history complexity of finite symbol sequences.

The complexity of a sequence is the number of phrases in its left-to-right
exhaustive production history: scanning forward, each new phrase is the
shortest prefix of the remainder that cannot be copied from anywhere in the
text to its left, and a final reproducible remainder still counts as one
phrase.  The count is reported raw, without length normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """A finite sequence over the alphabet {0, ..., alphabet_size - 1}."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self) -> None:
        symbols = np.array(self.symbols)
        if symbols.ndim != 1 or symbols.shape[0] < 1:
            raise ValueError("symbols must be a nonempty 1-D array")
        if not np.issubdtype(symbols.dtype, np.integer):
            raise ValueError("symbols must be integers")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        if symbols.min() < 0 or symbols.max() >= self.alphabet_size:
            raise ValueError(
                f"symbols must lie in [0, {self.alphabet_size})"
            )
        symbols = symbols.astype(np.int64)
        symbols.flags.writeable = False
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return self.symbols.shape[0]


def lz76_complexity(seq: SymbolSequence) -> int:
    """Count production-history phrases of ``seq``.

    Implemented by longest-copyable-extension search on a string image of
    the sequence: phrase k starting at position m is grown while the grown
    candidate still occurs with a start strictly left of m, then cut one
    symbol past the longest copyable run.  A single symbol has complexity 1
    and a run of one repeated symbol has complexity 2.
    """
    # Symbols map to distinct code points above ASCII so str.find can do
    # the substring scans at C speed.
    text = "".join(chr(256 + int(s)) for s in seq.symbols)
    n = len(text)
    count = 0
    m = 0
    while m < n:
        length = 0
        while m + length < n and text.find(text[m : m + length + 1], 0, m + length) != -1:
            length += 1
        count += 1
        m += length + 1
    return count


def couple_naive(seqs: list[SymbolSequence]) -> SymbolSequence:
    """Product-alphabet coupling of equal-length sequences.

    Position t of the result encodes the tuple ``(s_1[t], ..., s_k[t])`` in
    mixed radix with the first sequence most significant; the alphabet size
    is the product of the input alphabet sizes.
    """
    if not seqs:
        raise ValueError("at least one sequence is required")
    length = len(seqs[0])
    for seq in seqs[1:]:
        if len(seq) != length:
            raise ValueError(
                f"length mismatch: {len(seq)} vs {length}"
            )
    combined = np.zeros(length, dtype=np.int64)
    for seq in seqs:
        combined = combined * seq.alphabet_size + seq.symbols
    return SymbolSequence(
        symbols=combined,
        alphabet_size=prod(s.alphabet_size for s in seqs),
    )
