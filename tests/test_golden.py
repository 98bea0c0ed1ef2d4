"""Artifact bytes pinned across versions of the code.

Criterion 8 compares two reruns of one build.  These sha256 digests were
recorded from an earlier build, so a change between versions in cluster
labels, cycle cuts, tensor text, key-state models or segment
classifications fails here even when each build is self-consistent.  They
were recorded with numpy 2.4 and scipy 1.17; update them only together
with a deliberate change of output, and say so.
"""

import hashlib
import json

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


# Settings of the identification runs.  The second scores segments of 50
# samples over 8 principle states, where some rows fire no rule and fall
# back to the nearest centroid; the third gives 4 states, so a key set can
# use up every principle state.
IDENTIFY_SETTINGS = {
    "coverage": "  coverage: 0.95\n  segment_length: 100\n",
    "fallback": "  n_states: 8\n  segment_length: 50\n",
    "exhausted": "  n_states: 4\n  segment_length: 50\n",
}


@pytest.fixture(scope="module")
def identify_run(tmp_path_factory):
    """Directory of the train and classify runs under one of the settings."""
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
    runs = {}

    def run(setting):
        if setting not in runs:
            where = root / setting
            where.mkdir()
            pssa = "pssa:\n" + IDENTIFY_SETTINGS[setting]
            train_cfg = where / "train.yaml"
            train_cfg.write_text(dataset + pssa)
            classify_cfg = where / "classify.yaml"
            classify_cfg.write_text(
                dataset + pssa + f"  model: {where / 'train' / 'model.txt'}\n"
                f"  coding: {where / 'train' / 'coding.txt'}\n"
            )
            assert main(["pssa-train", "-c", str(train_cfg),
                         "-o", str(where / "train")]) == 0
            assert main(["pssa-classify", "-c", str(classify_cfg),
                         "-o", str(where / "classify")]) == 0
            runs[setting] = where
        return runs[setting]

    return run


@pytest.mark.parametrize("artifact", IDENTIFY_GOLDEN)
def test_identify_artifact_bytes_match_recorded_digest(artifact, identify_run):
    run, digest = IDENTIFY_GOLDEN[artifact]
    data = (identify_run("coverage") / run / artifact).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# More artifacts of the identification path, by setting, run and file.
IDENTIFY_MORE_GOLDEN = {
    ("coverage", "train", "report.json"):
        "5a36989f6c591df686ff24cef91f08c3373944a22756239a3f1bfe80d8ea0267",
    ("coverage", "classify", "report.json"):
        "db63871c890f94d84e6d6adcb3e0aedec21a1fabd63a9c9fddde0759804763f1",
    ("coverage", "train", "coding.txt"):
        "e2c355108588620a9b7a4462c88b8c2d3ca25400437f380bf1710fff90a3b1b8",
    ("coverage", "train", "sigma_heatmap.svg"):
        "f142c23cd131fdb29abbd6462f2e038a4bbf54074f88885cba148ea6c050e207",
    ("fallback", "train", "model.txt"):
        "56573fb00696ac8c5162b056b7a94ed3fbc0eb0ca527abd8c0ad84e1f0dd9635",
    ("fallback", "classify", "classifications.tsv"):
        "0825c6890e816fffd0df7e7a25706b467eb4660abfea7f01f3aa19390e80e090",
    ("fallback", "train", "report.json"):
        "240feb61bad556fc7066e55a4ca1b4c144289bd21af0ff22f3262eb7c11a77f3",
    ("fallback", "classify", "report.json"):
        "cf7f47f2c698a1a187973a7a1fdba1502751403a10cb84425bbdaeaaefe615e8",
    # recorded after key sets stopped growing once every state was in them
    ("exhausted", "train", "model.txt"):
        "415500f0eda7a8fb1787c14155e83315b6c0d2bc4a696cf8ce2921b0dadc2076",
    ("exhausted", "classify", "classifications.tsv"):
        "be503942cb9845625e9e256ea420b1db43564fa891275840707d3a003c01896f",
    ("exhausted", "train", "report.json"):
        "8ef6975f79bf266dc3c8e3306693e7729e6e8f05e8fbd57c138913531c70082c",
    ("exhausted", "classify", "report.json"):
        "cc0216903a20033597b17b87f11cfe4eedd4dc10273fac3a15ad0bd97e686abf",
}


@pytest.mark.parametrize(
    "setting, run, artifact", IDENTIFY_MORE_GOLDEN,
    ids=["/".join(key) for key in IDENTIFY_MORE_GOLDEN],
)
def test_identify_more_bytes_match_recorded_digest(
    setting, run, artifact, identify_run
):
    data = (identify_run(setting) / run / artifact).read_bytes()
    assert hashlib.sha256(data).hexdigest() == IDENTIFY_MORE_GOLDEN[
        setting, run, artifact
    ]


def test_fallback_setting_falls_back(identify_run):
    where = identify_run("fallback")
    train = json.loads((where / "train" / "report.json").read_text())
    classify = json.loads((where / "classify" / "report.json").read_text())
    assert 0.0 < train["test_fallback_rate"] < 1.0
    assert 0.0 < classify["fallback_rate"] < 1.0


@pytest.mark.parametrize("setting", ["fallback", "exhausted"])
def test_key_sets_hold_distinct_states(setting, identify_run):
    text = (identify_run(setting) / "train" / "model.txt").read_text()
    key_sets = [line.split()[1:] for line in text.splitlines()
                if line.startswith("keys ")]
    assert len(key_sets) == 3
    assert all(len(set(keys)) == len(keys) for keys in key_sets)
    if setting == "exhausted":
        # a key set that ran out of principle states holds all of them
        assert max(map(len, key_sets)) == 4


# Two cycle ranges of the walker's passtensor, compared.
COMPARE_DIGEST = (
    "4ede46dff335f7263cfbed09511796b9cdc9f1d10b392a6532bf1adabb6feec1"
)


def test_compare_report_bytes_match_recorded_digest(tmp_path):
    cfg = tmp_path / "walk.yaml"
    cfg.write_text(WALK_CFG)
    paths = []
    for first, last in ((1, 4), (5, 8)):
        out = tmp_path / f"pt{first}"
        assert main(["passtensor-build", "-c", str(cfg), "-o", str(out),
                     "--set", f"passtensor.cycle_range=[{first}, {last}]"]) == 0
        paths.append(out / "passtensor.txt")
    compare_cfg = tmp_path / "compare.yaml"
    compare_cfg.write_text(f"passtensor:\n  compare: [{paths[0]}, {paths[1]}]\n")
    out = tmp_path / "compare"
    assert main(["passtensor-compare", "-c", str(compare_cfg), "-o", str(out)]) == 0
    data = (out / "diff_report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == COMPARE_DIGEST


# Readings rounded to integer counts repeat columns and tie Ward distances,
# so this fit takes ``link_columns``'s duplicate joins and lowest-position
# tie rule.  One headerless 12-column MAREA file of integer values.
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


# The 50-cycle, period-128 walker of seed 1, built in full (12.8k columns
# fitted).  Its values come out of the walker F-ordered, where a 10-cycle
# walker's are C-ordered, so these digests move if a sensor's rows reach the
# code-book fit in the frame's own layout: the last bits of the feet
# stack's row means, and with them every code, would change.
F_ORDERED_CFG = """\
dataset:
  kind: synthetic
  cycles: 50
  period_mean: 128.0
  period_jitter: 2.0
  sensors: 2
  noise: 0.03
  subjects:
    walker: {seed: 1}
"""
F_ORDERED_GOLDEN = {
    "passtensor.txt":
        "be40bc6de5121293f7d4807e81d6d43cd87457cabb795fccfb01ff7d4236ef7c",
    "codebook_feet.txt":
        "32565d962c4b269227dcde8f757c2c585c5316cf0653b260ff741709021773eb",
}


@pytest.fixture(scope="module")
def f_ordered_run(tmp_path_factory):
    walk = synthesize_walker(
        seed=1, cycles=50, period_mean=128.0, period_jitter=2.0, sensors=2,
        noise=0.03,
    )
    assert walk.frame.values.flags.f_contiguous
    assert not walk.frame.values.flags.c_contiguous
    root = tmp_path_factory.mktemp("f_ordered")
    cfg = root / "walk.yaml"
    cfg.write_text(F_ORDERED_CFG)
    assert main(["passtensor-build", "-c", str(cfg), "-o", str(root / "out")]) == 0
    return root / "out"


@pytest.mark.parametrize("artifact", F_ORDERED_GOLDEN)
def test_f_ordered_walker_bytes_match_recorded_digest(artifact, f_ordered_run):
    data = (f_ordered_run / artifact).read_bytes()
    assert hashlib.sha256(data).hexdigest() == F_ORDERED_GOLDEN[artifact]
