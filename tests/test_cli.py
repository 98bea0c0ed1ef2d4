"""End-to-end runs of every subcommand against synthetic recordings."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from gaitpass import cli
from gaitpass.cli import main
from gaitpass.config import KEYS, file_sha256
from gaitpass.ingest import HUGADB_SENSORS, synthesize_walker
from gaitpass.passtensor import Passtensor, passtensor_to_text

WALK = """\
dataset:
  kind: synthetic
  cycles: 10
  period_mean: 64.0
  period_jitter: 1.0
  sensors: 2
  noise: 0.03
  phases: 6
  subjects:
    walkerA: {seed: 5}
hca:
  h_feet: 8
cycles:
  min_runs: 3
"""

PAIR = """\
dataset:
  kind: synthetic
  cycles: 10
  period_mean: 64.0
  period_jitter: 1.0
  sensors: 2
  noise: 0.03
  phases: 6
  subjects:
    ann: {seed: 11}
    bob: {seed: 12}
coding:
  alpha: 0.3
  beta: 0.7
pssa:
  coverage: 0.95
  segment_length: 100
"""


def config_file(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


class TestCycles:
    def test_artifacts_and_manifest(self, tmp_path, capsys):
        cfg = config_file(tmp_path, WALK)
        out = tmp_path / "run1"
        assert main(["cycles", "-c", cfg, "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        for name in ("cycles.tsv", "report.json", "codebook_feet.txt",
                     "manifest.json"):
            assert (out / name).exists(), name

        manifest = read_manifest(out)
        assert manifest["command"] == "cycles"
        assert manifest["config_sha256"] == file_sha256(cfg)
        assert "output_dir" not in manifest["parameters"]
        for name, digest in manifest["artifacts"].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

        report = json.loads((out / "report.json").read_text())
        assert report["subject"] == "walkerA"
        assert report["n_cycles"] >= 8
        assert set(report["landmark"]) == {"S0", "S1"}
        header = (out / "cycles.tsv").read_text().splitlines()[0]
        assert header == "cycle\tstart\tlength"

    def test_set_overrides_recorded(self, tmp_path):
        cfg = config_file(tmp_path, WALK)
        out = tmp_path / "run2"
        rc = main([
            "cycles", "-c", cfg, "-o", str(out),
            "--set", "cycles.min_runs=4",
            "--set", "output_dir=should_not_appear",
        ])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["overrides"] == ["cycles.min_runs=4"]
        assert manifest["parameters"]["cycles"]["min_runs"] == 4
        assert not (tmp_path / "should_not_appear").exists()


class TestComplexity:
    def test_table_and_chart(self, tmp_path):
        cfg = config_file(tmp_path, WALK + "complexity:\n  h_sweep: [2, 3, 5]\n")
        out = tmp_path / "cx"
        assert main(["complexity", "-c", cfg, "-o", str(out)]) == 0
        lines = (out / "complexity_table.tsv").read_text().splitlines()
        assert lines[0] == "coding\tstates\tlz76"
        labels = [line.split("\t")[0] for line in lines[1:]]
        assert labels == [
            "ternary-X", "ternary-Y", "ternary-Z", "ternary-resultant",
            "ternary-coupled", "cluster-2", "cluster-3", "cluster-5",
        ]
        values = [int(line.split("\t")[2]) for line in lines[1:]]
        assert all(v >= 1 for v in values)
        assert "polyline" in (out / "complexity_chart.svg").read_text()


class TestPssa:
    def test_train_then_classify(self, tmp_path):
        cfg = config_file(tmp_path, PAIR)
        train_out = tmp_path / "model"
        assert main(["pssa-train", "-c", cfg, "-o", str(train_out)]) == 0
        for name in ("model.txt", "coding.txt", "sigma_train.tsv",
                     "sigma_test.tsv", "sigma_heatmap.svg", "report.json"):
            assert (train_out / name).exists(), name
        report = json.loads((train_out / "report.json").read_text())
        assert report["n_subjects"] == 2
        assert report["train_rows"] == report["test_rows"] == 6
        assert 0.0 <= report["test_accuracy"] <= 1.0
        assert report["coverage_at_pss"] >= 0.95

        classify_cfg = config_file(
            tmp_path,
            PAIR + (
                f"  model: {train_out / 'model.txt'}\n"
                f"  coding: {train_out / 'coding.txt'}\n"
            ),
            name="classify.yaml",
        )
        cls_out = tmp_path / "cls"
        assert main(["pssa-classify", "-c", classify_cfg, "-o", str(cls_out)]) == 0
        lines = (cls_out / "classifications.tsv").read_text().splitlines()
        assert lines[0] == "claimed\tsegment\tpredicted\tfallback\tscore"
        assert len(lines) == 13
        manifest = read_manifest(cls_out)
        assert str(train_out / "model.txt") in manifest["inputs"]
        assert str(train_out / "coding.txt") in manifest["inputs"]

    def test_train_on_hugadb_files(self, tmp_path):
        # HuGaDB v1 layout: '#' lines, then a tab-separated header and rows
        acc = [f"acc_{loc}_{axis}" for loc in HUGADB_SENSORS for axis in "xyz"]
        subjects = ""
        for name, seed in (("ann", 11), ("bob", 12)):
            walk = synthesize_walker(seed=seed, cycles=10, period_mean=64.0,
                                     period_jitter=1.0, sensors=6)
            rows = ["\t".join(f"{v:.6f}" for v in sample) + "\t1"
                    for sample in walk.frame.values.T]
            path = tmp_path / f"{name}.txt"
            path.write_text("\n".join(
                ["#Activity\twalking", "#ActivityID\t1", "#Date\t2017-01-01",
                 "\t".join(acc + ["act"])] + rows) + "\n")
            subjects += f"    {name}: {path}\n"
        cfg = config_file(tmp_path, (
            "dataset:\n  kind: hugadb\n  subjects:\n" + subjects
            + "pssa:\n  coverage: 0.95\n  segment_length: 100\n"
        ))
        out = tmp_path / "model"
        assert main(["pssa-train", "-c", cfg, "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_subjects"] == 2
        assert report["train_rows"] == report["test_rows"] == 6
        assert str(tmp_path / "ann.txt") in read_manifest(out)["inputs"]

    def test_train_needs_two_subjects(self, tmp_path, capsys):
        cfg = config_file(tmp_path, WALK + "pssa:\n  coverage: 0.9\n")
        assert main(["pssa-train", "-c", cfg, "-o", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert err["error"] == "config"
        assert "two subjects" in err["message"]


class TestPasstensor:
    def test_build_compare_render(self, tmp_path):
        cfg = config_file(tmp_path, WALK + "passtensor:\n  bins: 16\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["passtensor-build", "-c", cfg, "-o", str(out_a)]) == 0
        assert main(["passtensor-build", "-c", cfg, "-o", str(out_b)]) == 0
        text_a = (out_a / "passtensor.txt").read_bytes()
        assert text_a == (out_b / "passtensor.txt").read_bytes()
        report = json.loads((out_a / "report.json").read_text())
        assert report["tensor_shape"][1:] == [2, 16]

        compare_cfg = config_file(
            tmp_path,
            "passtensor:\n  compare:\n"
            f"    - {out_a / 'passtensor.txt'}\n"
            f"    - {out_b / 'passtensor.txt'}\n",
            name="compare.yaml",
        )
        cmp_out = tmp_path / "cmp"
        rc = main(["passtensor-compare", "-c", compare_cfg, "-o", str(cmp_out)])
        assert rc == 0
        diff = json.loads((cmp_out / "diff_report.json").read_text())
        assert diff["distance"] == 0.0
        assert diff["mismatch_count"] == 0
        assert diff["skeleton_agreement"] == 1.0

        render_cfg = config_file(
            tmp_path,
            "render:\n"
            f"  passtensor: {out_a / 'passtensor.txt'}\n"
            "  view: both\n",
            name="render.yaml",
        )
        r_out = tmp_path / "render"
        assert main(["render", "-c", render_cfg, "-o", str(r_out)]) == 0
        for name in ("rings.svg", "cylinder_unrolled.svg",
                     "cylinder_isometric.svg"):
            assert (r_out / name).exists(), name

    def test_ring_cycle_bounds_checked(self, tmp_path, capsys):
        cfg = config_file(tmp_path, WALK + "passtensor:\n  bins: 16\n")
        out = tmp_path / "pt"
        assert main(["passtensor-build", "-c", cfg, "-o", str(out)]) == 0
        render_cfg = config_file(
            tmp_path,
            f"render:\n  passtensor: {out / 'passtensor.txt'}\n"
            "  ring_cycle: 999\n",
            name="render.yaml",
        )
        rc = main(["render", "-c", render_cfg, "-o", str(tmp_path / "r")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert "ring_cycle" in err["message"]


def compare_refused(tmp_path, capsys, pairs):
    """The one stderr message of comparing two one-ring tensors.

    ``pairs`` gives each tensor's ``(code_book_id, landmark_state)``;
    the comparison must exit 4 and write nothing.
    """
    paths = []
    for code_book_id, landmark in pairs:
        pt = Passtensor(
            tensor=np.zeros((2, 1, 8), dtype=np.int64),
            ring_labels=("L",),
            alphabet_sizes=(3,),
            raw_lengths=(8, 8),
            landmark_state=landmark,
            code_book_id=code_book_id,
        )
        paths.append(tmp_path / f"{code_book_id}{landmark[0]}.txt")
        paths[-1].write_text(passtensor_to_text(pt))
    cfg = config_file(
        tmp_path,
        f"passtensor:\n  compare: [{paths[0]}, {paths[1]}]\n",
    )
    rc = main(["passtensor-compare", "-c", cfg, "-o", str(tmp_path / "o")])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert not (tmp_path / "o").exists()
    message = json.loads(err[0])
    assert message["error"] == "precondition"
    return message["message"]


class TestFailureModes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = config_file(tmp_path, WALK)
        rc = main(["cycles", "-c", cfg, "-o", str(tmp_path / "o"),
                   "--set", "dataset.kind=bogus"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert err == {
            "error": "config",
            "exit_code": 2,
            "message": err["message"],
        }
        assert "dataset.kind" in err["message"]

    def test_data_error_exit_3(self, tmp_path, capsys):
        cfg = config_file(
            tmp_path,
            "dataset:\n  kind: marea\n  subjects:\n"
            f"    sub5: {tmp_path / 'absent.txt'}\n",
        )
        rc = main(["cycles", "-c", cfg, "-o", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.splitlines()[0])
        assert err["error"] == "data"
        assert "cannot read" in err["message"]

    def test_precondition_error_exit_4(self, tmp_path, capsys):
        pairs = [("aaaa", (0,)), ("bbbb", (0,))]
        message = compare_refused(tmp_path, capsys, pairs)
        assert "code books differ" in message

    def test_landmark_mismatch_exit_4(self, tmp_path, capsys):
        pairs = [("aaaa", (0,)), ("aaaa", (1,))]
        message = compare_refused(tmp_path, capsys, pairs)
        assert "landmarks differ: (0,) vs (1,)" in message

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        cfg = config_file(tmp_path, WALK)
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["cycles", "-c", cfg, "-o", str(blocker / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "config"
        assert "cannot write" in json.loads(err[0])["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["cycles", "-c", str(tmp_path / "nope.yaml"),
                   "-o", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.splitlines()[0])[
            "error"] == "config"


# Mistakes the user fixes in the config: each exits 2 naming the key, even
# those only checkable against the loaded window.  The WALK window stacks
# 1,288 columns; a 100-column cap fits every 13th, so 100 of them.
CONFIG_MISTAKES = {
    "misspelt_key": (["hca.hfeet=3"], "unknown config key hca.hfeet"),
    "misspelt_section_key": (["cycles.min_run=3"], "cycles.min_run"),
    "h_feet_above_window": (["hca.h_feet=5000"], "hca.h_feet: 5000"),
    "h_extra_above_window": (
        ["dataset.sensors=3", "cycles.extra=[S2]", "hca.h_extra=645"],
        "hca.h_extra: 645",
    ),
    "h_feet_above_subsample": (
        ["hca.max_fit_columns=100", "hca.h_feet=101"], "the 100 columns"
    ),
    # the second cycle selector, next to passtensor.cycle_range
    "trim_edges_key": (
        ["passtensor.trim_edges=true"],
        "unknown config key passtensor.trim_edges",
    ),
    # keys that once chose a linkage, standardized its rows or labelled the
    # frames
    "linkage_key": (["hca.linkage=ward"], "unknown config key hca.linkage"),
    "standardize_key": (
        ["hca.standardize=false"], "unknown config key hca.standardize"
    ),
    "activity_key": (
        ["dataset.activity=walking"], "unknown config key dataset.activity"
    ),
}


@pytest.mark.parametrize(
    "overrides, named", CONFIG_MISTAKES.values(), ids=list(CONFIG_MISTAKES)
)
def test_config_mistake_exit_2(overrides, named, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["cycles", "-c", config_file(tmp_path, WALK), "-o", str(out)]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])
    assert message["error"] == "config"
    assert named in message["message"]
    assert not out.exists()


# Config files refused before any key is read: a root mixing integer and
# string keys crashed sorting the unknown ones (exit 1), and a file that
# is not UTF-8 exited 4 as a precondition.
BAD_CONFIG_FILES = {
    "mixed_key_types": (
        WALK.encode() + b"1: x\nfoo: y\n", "unknown config keys [1, 'foo']"
    ),
    "not_utf8": (b"dataset:\n  kind: synth\xe9tic\n", "cannot read config"),
}


@pytest.mark.parametrize(
    "data, named", BAD_CONFIG_FILES.values(), ids=list(BAD_CONFIG_FILES)
)
def test_bad_config_file_exit_2(data, named, tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_bytes(data)
    out = tmp_path / "out"
    assert main(["cycles", "-c", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])
    assert message["error"] == "config"
    assert named in message["message"]
    assert not out.exists()


# Values a looser check used to pass on: a boolean is not a sample index
# (window=[true, 600] cut from sample 1), a zero or NaN coverage failed
# only later, as a precondition (exit 4), a subject seed of 1.7 ran as 1,
# passtensor.compare: [1, 2] crashed opening Path(1), a misspelt subject
# key was ignored, a NaN offset exited 4 naming no key, and an infinite
# float setting ran and one beyond the float range crashed.
# A MAREA config whose file is never read: the sensor list is checked first.
MAREA = "dataset:\n  kind: marea\n  subjects:\n    walkerA: walker.txt\n"
SEED = "dataset.subjects.walkerA.seed"
OFFSET = "dataset.subjects.walkerA.offset"
LOOSE_VALUES = {
    "window_bool": ("cycles", WALK, "window=[true, 600]", "window"),
    "window_one_index": ("cycles", WALK, "window=[5]", "window"),
    "window_past_end": ("cycles", WALK, "window=[0, 99999]", "window"),
    "marea_sensors_empty": (
        "cycles", MAREA, "dataset.sensors=[]", "dataset.sensors",
    ),
    "marea_sensors_number": (
        "cycles", MAREA, "dataset.sensors=[1]", "dataset.sensors",
    ),
    "cycle_range_bool": (
        "passtensor-build", WALK, "passtensor.cycle_range=[1, true]",
        "passtensor.cycle_range",
    ),
    "coverage_zero": ("pssa-train", PAIR, "pssa.coverage=0", "pssa.coverage"),
    "coverage_nan": ("pssa-train", PAIR, "pssa.coverage=.nan", "pssa.coverage"),
    "seed_fraction": ("cycles", WALK, f"{SEED}=1.7", SEED),
    "seed_text": ("cycles", WALK, f"{SEED}=abc", SEED),
    "seed_bool": ("cycles", WALK, f"{SEED}=true", SEED),
    "seed_negative": ("cycles", WALK, f"{SEED}=-1", SEED),
    "offset_text": ("cycles", WALK, f"{OFFSET}=x", OFFSET),
    "offset_nan": ("cycles", WALK, f"{OFFSET}=.nan", OFFSET),
    "noise_inf": ("cycles", WALK, "dataset.noise=.inf", "dataset.noise"),
    "noise_huge": (
        "cycles", WALK, "dataset.noise=1" + "0" * 400, "dataset.noise",
    ),
    "subject_unknown_key": (
        "cycles", WALK, "dataset.subjects.walkerA.ofset=3.0",
        "dataset.subjects.walkerA.ofset",
    ),
    "compare_not_paths": (
        "passtensor-compare", "", "passtensor.compare=[1, 2]",
        "passtensor.compare",
    ),
}


@pytest.mark.parametrize(
    "command, text, assignment, named", LOOSE_VALUES.values(),
    ids=list(LOOSE_VALUES),
)
def test_loose_value_exit_2(command, text, assignment, named, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "-c", config_file(tmp_path, text), "-o", str(out),
                 "--set", assignment]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])
    assert message["error"] == "config"
    assert message["message"].startswith(named + ":")
    assert not out.exists()


# Selections refused before any fit or file read: a sensor named twice (an
# extra sensor naming a foot once dropped that foot's code from the
# report, and a foot named twice was stacked with itself; a MAREA sensor
# listed twice was folded into one), a cycle range no walk holds (exit 4
# once, as if the algorithm failed), and a subject count the command cannot
# use (the first missing file exited 3).  The range past the walk's 10
# cycles is refused once they are found, still before any output.
TWO_MAREA = MAREA + "    walkerB: other.txt\n"
COVERAGE = "pssa:\n  coverage: 0.95\n"
REFUSED_BEFORE_FIT = {
    "extra_names_left": (
        "cycles", WALK, ["cycles.extra=[S0]"],
        "cycles.extra: sensor 'S0' is already named by cycles.left",
    ),
    "right_names_left": (
        "passtensor-build", WALK, ["cycles.right=S0"],
        "cycles.right: sensor 'S0' is already named by cycles.left",
    ),
    "extra_twice": (
        "cycles", WALK, ["dataset.sensors=3", "cycles.extra=[S2, S2]"],
        "cycles.extra: sensor 'S2' is already named by cycles.extra",
    ),
    "marea_sensor_twice": (
        "cycles", MAREA, ["dataset.sensors=[LF, RF, LF]"],
        "dataset.sensors: sensor 'LF' named twice",
    ),
    "cycle_range_reversed": (
        "passtensor-build", WALK, ["passtensor.cycle_range=[5, 2]"],
        "passtensor.cycle_range: [5, 2] needs 1 <= first <= last",
    ),
    "cycle_range_from_zero": (
        "passtensor-build", WALK, ["passtensor.cycle_range=[0, 3]"],
        "passtensor.cycle_range: [0, 3] needs 1 <= first <= last",
    ),
    "cycle_range_past_cycles": (
        "passtensor-build", WALK, ["passtensor.cycle_range=[1, 999]"],
        "passtensor.cycle_range: last cycle 999 is past the 10 cycles found",
    ),
    "cycles_two_subjects": (
        "cycles", TWO_MAREA, [], "this command needs exactly one subject, got 2",
    ),
    "train_one_subject": (
        "pssa-train", MAREA + COVERAGE, [], "pssa-train needs at least two subjects",
    ),
    "train_alpha": (
        "pssa-train", TWO_MAREA + COVERAGE, ["coding.alpha=0.6"], "coding.alpha: 0.6",
    ),
    "train_coverage": (
        "pssa-train", TWO_MAREA, ["pssa.coverage=0"], "pssa.coverage: 0",
    ),
    "train_no_state_count": (
        "pssa-train", TWO_MAREA, [], "give exactly one of pssa.n_states",
    ),
    "train_segment_length": (
        "pssa-train", TWO_MAREA + COVERAGE, ["pssa.segment_length=0"],
        "pssa.segment_length: 0",
    ),
}


@pytest.mark.parametrize(
    "command, text, overrides, named", REFUSED_BEFORE_FIT.values(),
    ids=list(REFUSED_BEFORE_FIT),
)
def test_refused_before_fit_exit_2(command, text, overrides, named, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "-c", config_file(tmp_path, text), "-o", str(out)]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])
    assert message["error"] == "config"
    assert message["message"].startswith(named)
    assert not out.exists()


# Each command with a config it would run on; the files it names are never
# opened, because every mistake below is refused before any data.
COMMAND_CONFIGS = {
    "complexity": WALK,
    "cycles": WALK,
    "passtensor-build": WALK,
    "pssa-train": PAIR,
    "pssa-classify": PAIR + "  model: model.txt\n  coding: coding.txt\n",
    "passtensor-compare": "passtensor:\n  compare: [a.txt, b.txt]\n",
    "render": "render:\n  passtensor: a.txt\n",
}
DATA_READERS = (
    "_load_files", "synthesize_walker", "load_model", "load_coding",
    "load_passtensor", "fit_local_code",
)


@pytest.fixture
def no_data(monkeypatch):
    """Fail the test if the command reads, synthesizes or fits anything."""
    def refuse(*args, **kwargs):
        raise AssertionError("a settings mistake reached the data")
    for name in DATA_READERS:
        monkeypatch.setattr(cli, name, refuse)


def refused_before_data(command, text, overrides, tmp_path, capsys):
    """The one stderr message of a run that must exit 2 writing nothing."""
    out = tmp_path / "out"
    argv = [command, "-c", config_file(tmp_path, text), "-o", str(out)]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])
    assert message["error"] == "config"
    assert not out.exists()
    return message["message"]


@pytest.mark.parametrize("path", list(KEYS))
@pytest.mark.parametrize("command", list(COMMAND_CONFIGS))
def test_wrong_type_exit_2_before_data(command, path, no_data, tmp_path, capsys):
    wrong = 5 if KEYS[path].type is str else "x"
    message = refused_before_data(
        command, COMMAND_CONFIGS[command], [f"{path}={wrong}"], tmp_path, capsys
    )
    assert message.startswith(f"{path}: ")


# Mistakes in how settings fit together, or in a key a command does not
# read, all refused before any data: each named a key only after the
# walker was synthesized, the code books fitted or the model parsed, or
# was not refused at all (cycles ran with coding.alpha 2), or exited 4
# without naming the key (the two walker shapes).
HUGADB = "dataset:\n  kind: hugadb\n  subjects:\n    ann: a.txt\n    bob: b.txt\n"
DATA_FREE_MISTAKES = {
    "min_runs": ("cycles", WALK, ["cycles.min_runs=0"], "cycles.min_runs: 0"),
    "h_feet": ("passtensor-build", WALK, ["hca.h_feet=0"], "hca.h_feet: 0"),
    "alpha_unread": ("cycles", WALK, ["coding.alpha=2"], "coding.alpha: 2"),
    "left_unknown": ("cycles", WALK, ["cycles.left=S9"], "cycles.left: sensor 'S9'"),
    "right_one_sensor": (
        "cycles", WALK, ["dataset.sensors=1"], "cycles.right: unset",
    ),
    "complexity_sensor": (
        "complexity", WALK, ["complexity.sensor=S9"], "complexity.sensor: 'S9'",
    ),
    "h_sweep_zero": (
        "complexity", WALK, ["complexity.h_sweep=[0]"], "complexity.h_sweep: 0",
    ),
    "window_bool": ("complexity", WALK, ["window=[true, 600]"], "window: "),
    "window_empty": ("cycles", WALK, ["window=[600, 600]"], "window: [600, 600)"),
    "jitter": (
        "cycles", WALK, ["dataset.period_jitter=40"], "dataset.period_jitter: 40",
    ),
    "period_short": (
        "cycles", WALK, ["dataset.period_mean=8"], "dataset.period_mean: 8",
    ),
    "walker_sensor_names": (
        "cycles", WALK, ["dataset.sensors=[LF]"], "dataset.sensors: expected",
    ),
    "marea_sensor_count": (
        "pssa-train", TWO_MAREA + COVERAGE, ["dataset.sensors=2"],
        "dataset.sensors: expected a nonempty list",
    ),
    "hugadb_sensors": (
        "pssa-train", HUGADB + COVERAGE, ["dataset.sensors=[lf]"],
        "dataset.sensors: HuGaDB",
    ),
    "train_both_state_counts": (
        "pssa-train", PAIR, ["pssa.n_states=5"], "give exactly one of",
    ),
    "classify_dataset": (
        "pssa-classify", COMMAND_CONFIGS["pssa-classify"],
        ["dataset.period_jitter=40"], "dataset.period_jitter: 40",
    ),
    "classify_model_missing": ("pssa-classify", PAIR, [], "pssa.model: required"),
    "render_view": (
        "render", COMMAND_CONFIGS["render"], ["render.view=sideways"],
        "render.view: 'sideways'",
    ),
    "render_ring_cycle": (
        "render", COMMAND_CONFIGS["render"], ["render.ring_cycle=-1"],
        "render.ring_cycle: -1",
    ),
    "compare_one_path": (
        "passtensor-compare", "", ["passtensor.compare=[a.txt]"],
        "passtensor.compare: expected 2 values",
    ),
}


@pytest.mark.parametrize(
    "command, text, overrides, named", DATA_FREE_MISTAKES.values(),
    ids=list(DATA_FREE_MISTAKES),
)
def test_data_free_mistake_exit_2_before_data(
    command, text, overrides, named, no_data, tmp_path, capsys
):
    message = refused_before_data(command, text, overrides, tmp_path, capsys)
    assert message.startswith(named)


# The walker shapes at the edge of each bound: no jitter, and the shortest
# period whose cycles still hold the 3-sample marker and 6 phases.
@pytest.mark.parametrize("overrides", [
    ["dataset.period_jitter=0.0"],
    ["dataset.period_mean=9", "dataset.period_jitter=0"],
])
def test_walker_shape_edges_run(overrides, tmp_path):
    argv = ["cycles", "-c", config_file(tmp_path, WALK), "-o", str(tmp_path / "out")]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 0


def test_window_of_two_indices_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["cycles", "-c", config_file(tmp_path, WALK), "-o", str(out),
                 "--set", "window=[0, 600]"]) == 0
    assert read_manifest(out)["parameters"]["window"] == [0, 600]


@pytest.mark.parametrize("sweep", ["[true, 3]", "[2, 645]", "[]"])
def test_bad_complexity_sweep_exit_2(sweep, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["complexity", "-c", config_file(tmp_path, WALK),
                 "-o", str(out), "--set", f"complexity.h_sweep={sweep}"]) == 2
    message = json.loads(capsys.readouterr().err.splitlines()[0])
    assert "complexity.h_sweep" in message["message"]
    assert not out.exists()


def test_h_equal_to_fitted_columns_runs(tmp_path):
    cfg = config_file(tmp_path, WALK)
    assert main(["cycles", "-c", cfg, "-o", str(tmp_path / "out"),
                 "--set", "hca.max_fit_columns=100",
                 "--set", "hca.h_feet=100"]) == 0


# A header naming more columns than the rows hold: the last named column
# lies past the end of every row.
HUGADB_HEADER = "\t".join(
    f"acc_{loc}_{axis}" for loc in HUGADB_SENSORS for axis in "xyz"
)
NARROW_TABLES = {
    "marea": ("  sensors: [LF]\n", "LF_X LF_Y LF_Z", 2, "'LF_Z'"),
    "hugadb": ("", HUGADB_HEADER, 17, "'acc_lt_z'"),
}


@pytest.mark.parametrize("kind", NARROW_TABLES)
def test_header_wider_than_rows_exit_3(kind, tmp_path, capsys):
    sensors, header, width, token = NARROW_TABLES[kind]
    subjects = ""
    for name in ("ann", "bob"):
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(
            [header] + [" ".join(["0.5"] * width)] * 4) + "\n")
        subjects += f"    {name}: {path}\n"
    text = (f"dataset:\n  kind: {kind}\n{sensors}  subjects:\n{subjects}"
            "pssa:\n  coverage: 0.95\n")
    out = tmp_path / "out"
    assert main(["pssa-train", "-c", config_file(tmp_path, text),
                 "-o", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])
    assert message["error"] == "data"
    assert str(tmp_path / "ann.txt") in message["message"]
    assert token in message["message"]
    assert not out.exists()


def test_unknown_palette_exit_2(persisted_files, tmp_path, capsys):
    text = (f"render:\n  passtensor: {persisted_files['passtensor.txt']}\n"
            "  palette: nosuch\n")
    out = tmp_path / "out"
    assert main(["render", "-c", config_file(tmp_path, text), "-o", str(out)]) == 2
    message = json.loads(capsys.readouterr().err.splitlines()[0])
    assert message["error"] == "config"
    assert "render.palette" in message["message"]
    assert not out.exists()


def header_cut(text):
    return "".join(text.splitlines(keepends=True)[:3])


def garbled(text):
    lines = text.splitlines(keepends=True)
    lines[1] = lines[1].split(" ")[0] + " x\n"
    return "".join(lines)


def reader_run(key, bad, files):
    """(command, config text) that reads ``bad`` through config key ``key``."""
    if key == "render.passtensor":
        return "render", f"render:\n  passtensor: {bad}\n"
    if key == "passtensor.compare":
        good = files["passtensor.txt"]
        return "passtensor-compare", f"passtensor:\n  compare: [{good}, {bad}]\n"
    model = bad if key == "pssa.model" else files["model.txt"]
    coding = bad if key == "pssa.coding" else files["coding.txt"]
    return "pssa-classify", PAIR + f"  model: {model}\n  coding: {coding}\n"


READERS = {
    "render.passtensor": "passtensor.txt",
    "passtensor.compare": "passtensor.txt",
    "pssa.model": "model.txt",
    "pssa.coding": "coding.txt",
}


def first_keys(rest):
    """Damage: a model's first ``keys`` line holding ``rest`` instead."""
    return lambda text: replaced_line(text, "keys", rest)[0]


DAMAGES = {"missing": None, "header_cut": header_cut, "garbled": garbled}
BAD_INPUTS = {
    f"{key}-{name}": (key, damage)
    for key in READERS
    for name, damage in DAMAGES.items()
}
# key sets that are empty, repeat a state or leave the principle states
BAD_INPUTS.update({
    f"pssa.model-keys_{name}": ("pssa.model", first_keys(rest))
    for name, rest in (
        ("past_states", "99"), ("negative", "-1"), ("empty", ""),
        ("repeated", "0 0"),
    )
})


@pytest.mark.parametrize("key, damage", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_persisted_input_exit_3(key, damage, persisted_files, tmp_path, capsys):
    bad = tmp_path / READERS[key]
    if damage is not None:
        bad.write_text(damage(persisted_files[READERS[key]].read_text()))
    command, text = reader_run(key, bad, persisted_files)
    out = tmp_path / "out"
    rc = main([command, "-c", config_file(tmp_path, text), "-o", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])
    assert message["error"] == "data"
    assert str(bad) in message["message"]
    assert not out.exists()


def overflowed(text):
    """The first tensor row's first code set past int64."""
    lines = text.splitlines(keepends=True)
    row = lines.index("tensor\n") + 1
    lines[row] = "99999999999999999999" + lines[row][lines[row].index(" "):]
    return "".join(lines)


def data_error_of_reading(key, bad, files, tmp_path, capsys):
    """The one stderr message of a run that reads ``bad`` through ``key``."""
    command, config = reader_run(key, bad, files)
    out = tmp_path / "out"
    assert main([command, "-c", config_file(tmp_path, config), "-o", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert not out.exists()
    message = json.loads(err[0])
    assert message["error"] == "data"
    return message["message"]


def test_overflowing_passtensor_exit_3(persisted_files, tmp_path, capsys):
    bad = tmp_path / "passtensor.txt"
    text = overflowed(persisted_files["passtensor.txt"].read_text())
    bad.write_text(text)
    row = text.splitlines().index("tensor") + 2
    message = data_error_of_reading(
        "render.passtensor", bad, persisted_files, tmp_path, capsys
    )
    assert f"{bad}: line {row}: integer" in message


def replaced_line(text, key, rest):
    """``text`` with the line that starts with ``key`` ending in ``rest``."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
    lines[at] = f"{key} {rest}"
    return "\n".join(lines) + "\n", at + 1


def test_non_finite_coding_exit_3(persisted_files, tmp_path, capsys):
    bad = tmp_path / "coding.txt"
    text, line = replaced_line(
        persisted_files["coding.txt"].read_text(), "S0 X", "nan nan"
    )
    bad.write_text(text)
    message = data_error_of_reading(
        "pssa.coding", bad, persisted_files, tmp_path, capsys
    )
    assert f"{bad}: line {line}: number 'nan' is not finite" in message


@pytest.mark.parametrize("landmark", ["7 -1 5 9", "0", "99 0"])
@pytest.mark.parametrize("key", ["render.passtensor", "passtensor.compare"])
def test_passtensor_landmark_outside_rings_exit_3(
    key, landmark, persisted_files, tmp_path, capsys
):
    text = persisted_files["passtensor.txt"].read_text()
    assert text.splitlines()[1].split()[2] == "2"  # two rings
    bad = tmp_path / "passtensor.txt"
    bad.write_text(replaced_line(text, "landmark", landmark)[0])
    message = data_error_of_reading(key, bad, persisted_files, tmp_path, capsys)
    assert f"{bad}: landmark" in message


def test_model_key_set_error_names_line(persisted_files, tmp_path, capsys):
    bad = tmp_path / "model.txt"
    text, line = replaced_line(
        persisted_files["model.txt"].read_text(), "keys", "0 0"
    )
    bad.write_text(text)
    message = data_error_of_reading(
        "pssa.model", bad, persisted_files, tmp_path, capsys
    )
    assert f"{bad}: line {line}: keys [0, 0]" in message


# Segment lengths that leave the PAIR subjects (641 and 643 samples) fewer
# than the 3 segments training needs: no segment at all, one segment each
# (no test row), and two segments for ann (one training row).
@pytest.mark.parametrize("length", [700, 400, 214])
def test_segment_length_past_recordings_exit_2(length, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pssa-train", "-c", config_file(tmp_path, PAIR), "-o", str(out),
                 "--set", f"pssa.segment_length={length}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])
    assert message["error"] == "config"
    assert message["message"].startswith(f"pssa.segment_length: {length} ")
    assert "'ann' (641 samples)" in message["message"]
    assert not out.exists()


def test_three_segments_per_subject_train(tmp_path):
    out = tmp_path / "out"
    assert main(["pssa-train", "-c", config_file(tmp_path, PAIR), "-o", str(out),
                 "--set", "pssa.segment_length=213"]) == 0
    assert json.loads((out / "report.json").read_text())["test_rows"] == 2


def test_render_codes_past_palette_exit_3(persisted_files, tmp_path, capsys):
    # the first ring's alphabet widened to 40 and one of its codes set to 35
    text = persisted_files["passtensor.txt"].read_text()
    sizes = next(line for line in text.splitlines()
                 if line.startswith("alphabets ")).split()[1:]
    text = replaced_line(text, "alphabets", " ".join(["40"] + sizes[1:]))[0]
    lines = text.splitlines()
    row = lines.index("tensor") + 1
    lines[row] = "35" + lines[row][lines[row].index(" "):]
    bad = tmp_path / "passtensor.txt"
    bad.write_text("\n".join(lines) + "\n")
    message = data_error_of_reading(
        "render.passtensor", bad, persisted_files, tmp_path, capsys
    )
    assert message.startswith(f"{bad}: code 35 ")
    for named in ("32 colours", "hca.h_feet", "hca.h_extra"):
        assert named in message


def test_classify_recording_shorter_than_a_segment_exit_3(tmp_path, capsys):
    model = tmp_path / "model"
    assert main(["pssa-train", "-c", config_file(tmp_path, PAIR),
                 "-o", str(model)]) == 0
    text = PAIR + (f"  model: {model / 'model.txt'}\n"
                   f"  coding: {model / 'coding.txt'}\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["pssa-classify", "-c", config_file(tmp_path, text, "cls.yaml"),
                 "-o", str(out), "--set", "window=[0, 50]"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])
    assert message["error"] == "data"
    for named in ("'ann'", "50 samples", str(model / "model.txt"), "100"):
        assert named in message["message"]
    assert "pssa.model" in message["message"]
    assert not out.exists()


# Commands that read persisted files and cluster nothing, with the config
# each runs on: none may load scipy's clustering or k-d tree.
CLUSTER_FREE = {
    "passtensor-compare": lambda files: (
        f"passtensor:\n  compare: [{files['passtensor.txt']}, "
        f"{files['passtensor.txt']}]\n"
    ),
    "render": lambda files: (
        f"render:\n  passtensor: {files['passtensor.txt']}\n  view: both\n"
    ),
    "pssa-classify": lambda files: (
        PAIR + f"  model: {files['model.txt']}\n  coding: {files['coding.txt']}\n"
    ),
}


def scipy_loaded_by(command, text, tmp_path):
    """The scipy clustering and k-d tree modules a fresh ``gaitpass
    command`` process on config ``text`` loads, and its output directory."""
    probe = (
        "import json, sys\n"
        "from gaitpass.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules "
        "if m.startswith(('scipy.cluster', 'scipy.spatial')))]))\n"
    )
    out = tmp_path / "out"
    cfg = config_file(tmp_path, text)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", probe, command, "-c", cfg, "-o", str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    code, loaded = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stderr
    return loaded, out


# Commands that link columns load the k-d tree; only pssa-train, which
# orders its heatmap by average linkage, loads scipy's clustering.
CLUSTERING = {
    "cycles": (WALK, False),
    "passtensor-build": (WALK, False),
    "complexity": (WALK, False),
    "pssa-train": (PAIR, True),
}


@pytest.mark.parametrize("command", list(CLUSTERING))
def test_only_pssa_train_loads_scipy_clustering(command, tmp_path):
    text, clusters = CLUSTERING[command]
    loaded, _ = scipy_loaded_by(command, text, tmp_path)
    assert "scipy.spatial" in loaded
    assert ("scipy.cluster" in loaded) == clusters


@pytest.mark.parametrize("command", list(CLUSTER_FREE))
def test_cluster_free_command_loads_no_scipy_clustering(
    command, persisted_files, tmp_path
):
    text = CLUSTER_FREE[command](persisted_files)
    loaded, out = scipy_loaded_by(command, text, tmp_path)
    assert loaded == []
    assert read_manifest(out)["environment"]["scipy"] == scipy.__version__
