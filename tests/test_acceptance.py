"""Acceptance suite: one numbered criterion per test, one summary line each.

Every test appends a ``CRITERION n: PASS|FAIL|SKIP - detail`` line that the
terminal summary prints after the run.  Criteria 2, 3 and 6 replay published
dataset experiments and need local exports of the recordings, which are not
redistributable; point these variables at them to enable the tests:

  GAITPASS_MAREA_DIR    per-subject accelerometer exports named
                        subject_01.txt .. subject_NN.txt (12-column layout
                        or headered; see docs/file-formats.md)
  GAITPASS_HUGADB_DIR   original HuGaDB *walking*.txt files

Without the variables those tests skip; they are never faked.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from gaitpass.cli import main
from gaitpass.complexity import SymbolSequence, couple_naive, lz76_complexity
from gaitpass.hca import cluster_columns
from gaitpass.ingest import load_hugadb, load_marea, synthesize_walker
from gaitpass.l1g2 import couple, encode_subsystem, fit_local_code, stack_lr
from gaitpass.landmark import partition_cycles, run_statistics, select_landmark
from gaitpass.passtensor import (
    Passtensor,
    build_passtensor,
    compare_passtensors,
    skeleton,
)
from gaitpass.pssa import (
    build_proportion_matrix,
    build_state_table,
    classify_matrix,
    select_pss,
    split_alternating,
    train_key_pss,
)
from gaitpass.symbolic import StateVectorSequence, encode_ternary, fit_ternary
from oracles import lz76_phrases_literal

MAREA_ENV = "GAITPASS_MAREA_DIR"
HUGADB_ENV = "GAITPASS_HUGADB_DIR"


def conclude(log, tag, ok, detail):
    log(tag, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {tag}: {detail}"


def bail(log, tag, reason):
    log(tag, "SKIP", reason)
    pytest.skip(reason)


def marea_export(root, number):
    for name in (f"subject_{number:02d}.txt", f"subject_{number}.txt",
                 f"subject_{number:02d}.csv"):
        path = Path(root) / name
        if path.exists():
            return path
    return None


def walker_pipeline(walk, h=10):
    frame = walk.frame
    left = frame.sensor("S0")
    right = frame.sensor("S1")
    code = fit_local_code(stack_lr(left, right), h=h)
    coupled = couple(
        [encode_subsystem(code, left), encode_subsystem(code, right)],
        labels=["S0", "S1"],
    )
    stats = run_statistics(coupled)
    return partition_cycles(stats, select_landmark(stats))


def test_criterion_1_lz76_matches_oracle(criterion_log):
    rng = np.random.default_rng(2026)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(2, 28))
        n = int(rng.integers(1, 2001))
        symbols = rng.integers(0, k, size=n)
        seq = SymbolSequence(symbols=symbols, alphabet_size=k)
        if lz76_complexity(seq) != lz76_phrases_literal(symbols):
            mismatches += 1
    conclude(
        criterion_log, 1, mismatches == 0,
        "production-history phrase count vs step-by-step oracle on 1000 "
        f"random sequences (alphabets 2-27, lengths 1-2000): {mismatches} "
        "mismatches (tolerance: exact)",
    )


def test_criterion_2_cluster_coding_compresses(criterion_log):
    root = os.environ.get(MAREA_ENV)
    if not root:
        bail(criterion_log, 2, f"set {MAREA_ENV} to run (needs subject 5 export)")
    path = marea_export(root, 5)
    if path is None:
        bail(criterion_log, 2, f"no subject_05 export under {root}")

    frame = load_marea(path, sensors=("LF",)).window(0, 300)
    triplet = frame.sensor("LF")
    coding = fit_ternary([triplet], 0.3, 0.7)
    states = encode_ternary(triplet, coding).states
    axis_seqs = [
        SymbolSequence(symbols=states[:, d].astype(np.int64) - 1, alphabet_size=3)
        for d in range(3)
    ]
    naive_lz = lz76_complexity(couple_naive(axis_seqs))
    _, labels = cluster_columns(triplet.values, 27)
    cluster_lz = lz76_complexity(SymbolSequence(symbols=labels, alphabet_size=27))
    conclude(
        criterion_log, 2, naive_lz > 1.5 * cluster_lz,
        f"subject 5 left foot, samples [0, 300): lz76 coupled-ternary="
        f"{naive_lz}, 27-cluster={cluster_lz} (need coupled > 1.5 x cluster)",
    )


def _pssa_accuracy(seqs_by_subject, n_states, segment_length):
    table = build_state_table(
        [s for v in seqs_by_subject.values()
         for s in (v if isinstance(v, list) else [v])]
    )
    pss = select_pss(table, n_states=n_states)
    sigma = build_proportion_matrix(seqs_by_subject, pss, segment_length)
    train, test = split_alternating(sigma)
    model, _ = train_key_pss(train)
    return (
        classify_matrix(model, train).accuracy(train.subjects),
        classify_matrix(model, test).accuracy(test.subjects),
    )


def test_criterion_3a_marea_identification(criterion_log):
    root = os.environ.get(MAREA_ENV)
    if not root:
        bail(criterion_log, "3a",
             f"set {MAREA_ENV} to run (needs subjects 1-10)")
    paths = {i: marea_export(root, i) for i in range(1, 11)}
    missing = sorted(i for i, p in paths.items() if p is None)
    if missing:
        bail(criterion_log, "3a", f"missing MAREA exports {missing} under {root}")

    frames = {
        f"subject-{i:02d}": load_marea(paths[i], sensors=("LF", "RF", "Wrist"))
        for i in range(1, 11)
    }
    coding = fit_ternary(frames.values(), 0.3, 0.7)
    seqs = {name: encode_ternary(f, coding) for name, f in frames.items()}
    train_acc, test_acc = _pssa_accuracy(seqs, n_states=300,
                                         segment_length=1000)
    conclude(
        criterion_log, "3a", train_acc == 1.0 and test_acc >= 0.95,
        f"MAREA 10 subjects, 9-dim, alpha=0.3 beta=0.7, 300 states, l=1000: "
        f"train={train_acc:.4f} (need 1.0000), test={test_acc:.4f} "
        f"(need >= 0.9500)",
    )


def test_criterion_3b_hugadb_identification(criterion_log):
    root = os.environ.get(HUGADB_ENV)
    if not root:
        bail(criterion_log, "3b",
             f"set {HUGADB_ENV} to run (needs 17 subjects' walking files)")
    by_subject: dict[str, list[Path]] = {}
    for path in sorted(Path(root).rglob("*.txt")):
        if "walking" not in path.name.lower():
            continue
        parts = path.stem.split("_")
        if len(parts) < 2:
            continue
        by_subject.setdefault(parts[-2], []).append(path)
    if len(by_subject) < 17:
        bail(criterion_log, "3b",
             f"found walking files for only {len(by_subject)} subjects "
             f"under {root}, need 17")

    chosen = sorted(by_subject)[:17]
    frames = {
        f"subject-{sid}": [load_hugadb(p) for p in by_subject[sid]]
        for sid in chosen
    }
    coding = fit_ternary(
        [f for trials in frames.values() for f in trials], 0.1, 0.9
    )
    seqs = {
        name: [encode_ternary(f, coding) for f in trials]
        for name, trials in frames.items()
    }
    train_acc, test_acc = _pssa_accuracy(seqs, n_states=500,
                                         segment_length=1000)
    conclude(
        criterion_log, "3b", train_acc == 1.0 and test_acc >= 0.95,
        f"HuGaDB 17 subjects, 18-dim, alpha=0.1 beta=0.9, 500 states, "
        f"l=1000: train={train_acc:.4f} (need 1.0000), test={test_acc:.4f} "
        f"(need >= 0.9500)",
    )


def test_criterion_4_disjoint_inventories(criterion_log):
    rng = np.random.default_rng(404)
    pools = {
        "ann": [(1, 1, 1), (2, 2, 2), (3, 2, 1)],
        "bob": [(3, 3, 3), (1, 3, 1), (2, 1, 2)],
    }
    seqs = {}
    for name, pool in pools.items():
        picks = rng.integers(0, len(pool), size=2000)
        seqs[name] = StateVectorSequence(
            states=np.array([pool[p] for p in picks], dtype=np.uint8)
        )
    train_acc, test_acc = _pssa_accuracy(seqs, n_states=6, segment_length=100)
    conclude(
        criterion_log, 4, train_acc == 1.0 and test_acc == 1.0,
        f"two synthetic subjects with disjoint dominant states: "
        f"train={train_acc:.4f}, test={test_acc:.4f} (need exactly 1.0/1.0)",
    )


def test_criterion_5_landmark_recovery(criterion_log):
    reports = []
    ok = True
    for jitter in (0.0, 1.0, 2.0):
        walk = synthesize_walker(
            seed=29, cycles=50, period_mean=128.0, period_jitter=jitter
        )
        partition = walker_pipeline(walk)
        truth = walk.marker_onsets
        detected = np.array(
            [start for start, _ in partition.cycles]
            + [partition.cycles[-1][1]]
        )
        count_ok = partition.n_cycles == walk.n_cycles
        if count_ok and len(detected) == len(truth):
            deviation = int(np.max(np.abs(detected - truth)))
        else:
            deviation = -1
        ok = ok and count_ok and 0 <= deviation <= 1
        reports.append(
            f"jitter={jitter:g}: cycles {partition.n_cycles}/{walk.n_cycles}"
            f", max boundary deviation {deviation}"
        )
    conclude(
        criterion_log, 5, ok,
        "50-cycle walker, period 128: " + "; ".join(reports)
        + " (need exact count, deviation <= 1)",
    )


def test_criterion_6_cycle_statistics(criterion_log):
    root = os.environ.get(MAREA_ENV)
    if not root:
        bail(criterion_log, 6, f"set {MAREA_ENV} to run (needs subject 5 export)")
    path = marea_export(root, 5)
    if path is None:
        bail(criterion_log, 6, f"no subject_05 export under {root}")

    frame = load_marea(path, sensors=("LF", "RF")).window(1, 10000)
    left = frame.sensor("LF")
    right = frame.sensor("RF")
    code = fit_local_code(stack_lr(left, right), h=10)
    coupled = couple(
        [encode_subsystem(code, left), encode_subsystem(code, right)],
        labels=["LF", "RF"],
    )
    stats = run_statistics(coupled)
    partition = partition_cycles(stats, select_landmark(stats, min_runs=5))
    ok = (
        abs(partition.n_cycles - 77) <= 2
        and abs(partition.period_mean - 127.56) <= 3.0
        and partition.period_sd < 5.0
    )
    conclude(
        criterion_log, 6, ok,
        f"subject 5 L+R, samples [1, 10000): {partition.n_cycles} cycles "
        f"(need 77+-2), period mean {partition.period_mean:.2f} (need "
        f"127.56+-3.0), sd {partition.period_sd:.2f} (need < 5)",
    )


def _flip_cells(pt, cells):
    values = pt.tensor.copy()
    for c, r, b in cells:
        values[c, r, b] = (values[c, r, b] + 1) % pt.alphabet_sizes[r]
    return Passtensor(
        tensor=values,
        ring_labels=pt.ring_labels,
        alphabet_sizes=pt.alphabet_sizes,
        raw_lengths=pt.raw_lengths,
        landmark_state=pt.landmark_state,
        code_book_id=pt.code_book_id,
    )


def test_criterion_7_passtensor_identity_perturbation(
    criterion_log, pipeline_clean
):
    pipe = pipeline_clean
    pt = build_passtensor(pipe.coupled, pipe.partition, bins=48)

    self_distance = compare_passtensors(pt, pt).distance
    skel = skeleton(pt)
    skeleton_everywhere = all(
        np.array_equal(pt.tensor[c], skel) for c in range(pt.n_cycles)
    )
    cells = [(c % pt.n_cycles, c % pt.n_rings, 5 * c % pt.n_bins)
             for c in range(9)]
    distances = [
        compare_passtensors(pt, _flip_cells(pt, cells[:k])).distance
        for k in range(len(cells) + 1)
    ]
    single_positive = distances[1] > 0.0
    monotone = all(b >= a for a, b in zip(distances, distances[1:]))
    ok = (
        self_distance == 0.0
        and single_positive
        and monotone
        and skeleton_everywhere
    )
    conclude(
        criterion_log, 7, ok,
        f"self-distance={self_distance} (need 0.0), one flipped cell -> "
        f"distance {distances[1]:.6f} (need > 0), distances over 0..9 flips "
        f"nondecreasing: {monotone}, jitter-free skeleton equals all "
        f"{pt.n_cycles} cycles: {skeleton_everywhere} (exact)",
    )


WALK_CFG = """\
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
complexity:
  h_sweep: [2, 3, 5]
passtensor:
  bins: 16
"""

PAIR_CFG = """\
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
pssa:
  coverage: 0.95
  segment_length: 100
"""


def test_criterion_8_byte_identical_reruns(criterion_log, tmp_path):
    walk_cfg = tmp_path / "walk.yaml"
    walk_cfg.write_text(WALK_CFG)
    pair_cfg = tmp_path / "pair.yaml"
    pair_cfg.write_text(PAIR_CFG)

    runs = [
        ("complexity", walk_cfg),
        ("cycles", walk_cfg),
        ("passtensor-build", walk_cfg),
        ("pssa-train", pair_cfg),
    ]
    outputs = {}
    for command, cfg in runs:
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            assert main([command, "-c", str(cfg), "-o", str(out)]) == 0
            outputs.setdefault(command, []).append(out)

    render_cfg = tmp_path / "render.yaml"
    render_cfg.write_text(
        "render:\n"
        f"  passtensor: {outputs['passtensor-build'][0] / 'passtensor.txt'}\n"
        "  view: both\n"
    )
    for tag in ("a", "b"):
        out = tmp_path / f"render-{tag}"
        assert main(["render", "-c", str(render_cfg), "-o", str(out)]) == 0
        outputs.setdefault("render", []).append(out)

    compared = 0
    mismatched = []
    for command, (dir_a, dir_b) in outputs.items():
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        if names_a != names_b:
            mismatched.append(f"{command}: different artifact sets")
            continue
        for name in names_a:
            compared += 1
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
                mismatched.append(f"{command}/{name}")
    conclude(
        criterion_log, 8, not mismatched,
        f"5 pipeline commands re-run with identical configs: {compared} "
        f"artifact files byte-compared, {len(mismatched)} differ "
        f"{mismatched or ''}(need 0)",
    )
