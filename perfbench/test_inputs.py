"""The benchmark's inputs depend on the seed and nothing else.

    python3 -m pytest perfbench/test_inputs.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from inputs import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, generate, input_hashes  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_input_hashes(workload, tmp_path):
    first = generate(workload, DEFAULT_SEED, tmp_path / "a")
    again = generate(workload, DEFAULT_SEED, tmp_path / "b")
    other = generate(workload, HELD_OUT_SEED, tmp_path / "c")

    hashes = input_hashes(tmp_path / "a")
    assert hashes
    assert input_hashes(tmp_path / "b") == hashes
    assert first.sizes == again.sizes
    assert first.steps == again.steps
    assert input_hashes(tmp_path / "c") != hashes
    # the seed changes the data, not the command sequence
    assert [(s.command, s.config, s.out) for s in other.steps] == [
        (s.command, s.config, s.out) for s in first.steps
    ]
