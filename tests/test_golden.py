"""Artifact bytes pinned across versions of the code.

Criterion 8 compares two reruns of one build.  These sha256 digests were
recorded from an earlier build, so a change between versions in cluster
labels, cycle cuts, tensor text, key-state models or segment
classifications fails here even when each build is self-consistent.  They
were recorded with numpy 2.4 and scipy 1.17; update them only together
with a deliberate change of output, and say so.
"""

import hashlib

import numpy as np
import pytest

from gaitpass.cli import main
from gaitpass.ingest import synthesize_walker
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
    "cycles_report": (
        "cycles", [], "report.json",
        "5c8465b1492d2a4d0a28069f96d23edad722ff6f88869374ac08c199b10e8b12",
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


# The rendered views of the walker's passtensor: every view at once, and
# the rings of one cycle instead of the skeleton.
RENDER_GOLDEN = {
    ("both", "rings.svg"):
        "c89673de4bbcaa2bdf2bc9f2a178430d87902c2b5caf21f9389c9886225e229a",
    ("both", "cylinder_unrolled.svg"):
        "7332ea74b9b9287fcb350984f9a587ff8c62b82ef4bb7bbe614a7fb24fd7d834",
    ("both", "cylinder_isometric.svg"):
        "cbad51d43b4ebea6ddb24d8b6a5d78a1f1789f9ca71c853f85a04dad7b6eb1cd",
    ("ring_cycle", "rings.svg"):
        "0e938b423467cff9d8d283361549d965a2e1b1cac8b22b9a16f4a21481ebbe7d",
}

RENDER_SETTINGS = {"both": "  view: both\n", "ring_cycle": "  ring_cycle: 3\n"}


@pytest.fixture(scope="module")
def render_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("render")
    cfg = root / "walk.yaml"
    cfg.write_text(WALK_CFG)
    assert main(["passtensor-build", "-c", str(cfg), "-o", str(root / "pt")]) == 0
    for run, setting in RENDER_SETTINGS.items():
        render_cfg = root / f"{run}.yaml"
        render_cfg.write_text(
            f"render:\n  passtensor: {root / 'pt' / 'passtensor.txt'}\n"
            + setting
        )
        assert main(["render", "-c", str(render_cfg), "-o", str(root / run)]) == 0
    return root


@pytest.mark.parametrize("run,artifact", RENDER_GOLDEN)
def test_render_artifact_bytes_match_recorded_digest(run, artifact, render_runs):
    data = (render_runs / run / artifact).read_bytes()
    assert hashlib.sha256(data).hexdigest() == RENDER_GOLDEN[run, artifact]


# The identification path: pssa-train, then pssa-classify, over three
# headerless 12-column MAREA text files written from synthetic walkers.
IDENTIFY_GOLDEN = {
    "model.txt": (
        "train",
        "da9210e006ed18ca53cf0f5414caad0d324d92d672c472c21364c60628634ff0",
    ),
    "sigma_train.tsv": (
        "train",
        "0d39899919eaac811e7d41a486fe19cc455a2d020665d7f7b13e6903fe224a2a",
    ),
    "sigma_test.tsv": (
        "train",
        "13efc5c047521e8b273730538f77de2273d98c46888babb2033a598cf6a4972a",
    ),
    "classifications.tsv": (
        "classify",
        "6e583b89f1bc1d4286ff38e975f1549257b31d57713e1199a2b9dd159fcb83bc",
    ),
}


def marea_text(values) -> str:
    """One sample per row, twelve space-separated columns."""
    return "".join(" ".join("%.6f" % v for v in row) + "\n" for row in values.T)


@pytest.fixture(scope="module")
def identify_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("identify")
    dataset = "dataset:\n  kind: marea\n  subjects:\n"
    for k in range(3):
        walk = synthesize_walker(
            seed=40 + k, cycles=24, period_mean=64.0, period_jitter=1.0,
            sensors=4, offset=0.25 * k,
        )
        path = root / f"subject{k}.txt"
        path.write_text(marea_text(walk.frame.values))
        dataset += f"    s{k}: {path}\n"
    pssa = "pssa:\n  coverage: 0.95\n  segment_length: 100\n"
    train_cfg = root / "train.yaml"
    train_cfg.write_text(dataset + pssa)
    classify_cfg = root / "classify.yaml"
    classify_cfg.write_text(
        dataset + pssa + f"  model: {root / 'train' / 'model.txt'}\n"
        f"  coding: {root / 'train' / 'coding.txt'}\n"
    )
    assert main(["pssa-train", "-c", str(train_cfg), "-o", str(root / "train")]) == 0
    assert main(["pssa-classify", "-c", str(classify_cfg),
                 "-o", str(root / "classify")]) == 0
    return root


@pytest.mark.parametrize("artifact", IDENTIFY_GOLDEN)
def test_identify_artifact_bytes_match_recorded_digest(artifact, identify_runs):
    run, digest = IDENTIFY_GOLDEN[artifact]
    data = (identify_runs / run / artifact).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# The tie path of the linkage: readings rounded to integer counts repeat
# columns and tie Ward distances, so ``link_columns`` hands the matrix to
# scipy.  One headerless 12-column MAREA file of integer values.
TIED_GOLDEN = {
    "cycles.tsv":
        "f77ccdaa169c6fff6fb95a596fc9174589b72695a69008b11c30c15274165da6",
    "codebook_feet.txt":
        "b85a2d86d878b234a977647baff340a983ff0b93fc0a66f99e32fc76e049abb5",
}


@pytest.fixture(scope="module")
def tied_cycles_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tied")
    walk = synthesize_walker(
        seed=5, cycles=10, period_mean=64.0, period_jitter=1.0, sensors=4,
    )
    counts = np.round(walk.frame.values * 100).astype(np.int64)
    path = root / "walker.txt"
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in counts.T))
    cfg = root / "cycles.yaml"
    cfg.write_text(
        f"dataset:\n  kind: marea\n  subjects:\n    walkerA: {path}\n"
        "hca:\n  h_feet: 8\ncycles:\n  min_runs: 3\n"
    )
    assert main(["cycles", "-c", str(cfg), "-o", str(root / "out")]) == 0
    return root / "out"


@pytest.mark.parametrize("artifact", TIED_GOLDEN)
def test_tied_input_artifact_bytes_match_recorded_digest(artifact, tied_cycles_run):
    data = (tied_cycles_run / artifact).read_bytes()
    assert hashlib.sha256(data).hexdigest() == TIED_GOLDEN[artifact]
