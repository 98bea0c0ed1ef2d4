"""Artifact bytes pinned across versions of the code.

Criterion 8 compares two reruns of one build.  These sha256 digests were
recorded from an earlier build, so a change between versions in cluster
labels, cycle cuts or tensor text fails here even when each build is
self-consistent.  They were recorded with numpy 2.4 and scipy 1.17; update
them only together with a deliberate change of output, and say so.
"""

import hashlib

import pytest

from gaitpass.cli import main
from test_acceptance import WALK_CFG

FULL_SWEEP = "complexity.h_sweep=[" + ", ".join(map(str, range(2, 28))) + "]"

GOLDEN = {
    "complexity": (
        "complexity", [], "complexity_table.tsv",
        "0d56b683a21184eaf9aba0ffa8144a6a6e7386b9bdf29944ee17d79e75c72ae6",
    ),
    "cycles": (
        "cycles", [], "cycles.tsv",
        "f77ccdaa169c6fff6fb95a596fc9174589b72695a69008b11c30c15274165da6",
    ),
    "passtensor": (
        "passtensor-build", [], "passtensor.txt",
        "b42f038cb31723ed43812f96d9d5551a692434afc7a8d1efe822a67a79b0a1c2",
    ),
    "complexity_full_sweep": (
        "complexity", ["--set", FULL_SWEEP], "complexity_table.tsv",
        "fbc2deb028fbee02bc611795b143a438fd4ab6e4e2710ea222abf7390bf3c1b0",
    ),
}


@pytest.mark.parametrize("run", GOLDEN)
def test_artifact_bytes_match_recorded_digest(run, tmp_path):
    command, extra, artifact, digest = GOLDEN[run]
    cfg = tmp_path / "walk.yaml"
    cfg.write_text(WALK_CFG)
    out = tmp_path / "out"
    assert main([command, "-c", str(cfg), "-o", str(out)] + extra) == 0
    assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest
