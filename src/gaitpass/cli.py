"""Command-line pipeline runner.

Every subcommand reads one YAML config (plus ``--set`` overrides), writes
its artifacts into an output directory, and finishes with a manifest
recording the config hash, input hashes, artifact hashes and library
versions, so a run can be reproduced and verified byte for byte.  Each
file is read once, and its hash is of the bytes that were parsed.

Exit codes: 0 success, 2 config error (an unwritable output directory
included), 3 data error (a missing, truncated or malformed input file
included), 4 algorithmic precondition failure.  Failures emit one JSON
line on standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .complexity import SymbolSequence, couple_naive, lz76_complexity
from .config import RunConfig, checked_float, checked_int, load_config
from .errors import ConfigError, DataError, GaitError
from .hca import cut_columns, link_columns
from .ingest import (
    AXES,
    HUGADB_SENSORS,
    MAREA_SENSORS,
    TimeSeriesFrame,
    load_hugadb,
    load_marea,
    marker_length,
    parse_file,
    read_file,
    synthesize_walker,
)
from .l1g2 import (
    couple,
    encode_subsystem,
    fit_local_code,
    fit_stride,
    local_code_to_text,
    stack_lr,
)
from .landmark import (
    cycles_to_tsv,
    partition_cycles,
    run_statistics,
    select_landmark,
)
from .passtensor import (
    SKELETON_WEIGHT,
    build_passtensor,
    compare_passtensors,
    passtensor_from_text,
    passtensor_to_text,
    render_cylinder,
    render_rings,
    skeleton,
)
from .pssa import (
    build_proportion_matrix,
    build_state_table,
    classify_matrix,
    cluster_sigma,
    coverage_curve,
    model_from_text,
    model_to_text,
    select_pss,
    sigma_to_tsv,
    split_alternating,
    train_key_pss,
)
from .svgfig import DEFAULT_PALETTE, render_heatmap, render_line_chart
from .symbolic import (
    coding_from_text,
    coding_to_text,
    encode_ternary,
    fit_ternary,
    resultant_acceleration,
)

# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------

def _load_file(
    kind: str, path: str, sensors: tuple[str, ...]
) -> tuple[TimeSeriesFrame, str]:
    """One dataset file's frame and the sha256 of the bytes it was parsed
    from."""
    text, digest = read_file(path)
    if kind == "marea":
        return load_marea(path, sensors, text=text), digest
    return load_hugadb(path, text=text), digest


def _file_fields(kind: str, path: str, sensors: tuple[str, ...]):
    # What a worker sends back: the selected sensors' rows and their names,
    # and the file's sha256.  The parent builds the frame, so its values
    # stay read-only.
    frame, digest = _load_file(kind, path, sensors)
    return frame.values, frame.sensors, frame.sample_rate_hz, digest


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _load_files(
    kind: str, paths: list[str], sensors: tuple[str, ...]
) -> list[tuple[TimeSeriesFrame, str]]:
    """Load the dataset files, in forked workers when there are several.

    ``np.loadtxt`` holds the GIL, so only processes parse files at once.
    With one file, one usable core or no ``fork`` start method the files
    load in this process, one after another.  An error raised while loading
    names the first bad file in ``paths`` order either way.
    """
    workers = min(len(paths), _usable_cores())
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # fork, not spawn: a spawned worker would import numpy and
            # gaitpass afresh, which takes longer than parsing a file
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")
            )
            frames = []
            try:
                pending = [
                    pool.submit(_file_fields, kind, path, sensors) for path in paths
                ]
                # in config order; each result is dropped once it is framed,
                # so the parent never holds two copies of every matrix
                pending.reverse()
                while pending:
                    *fields, digest = pending.pop().result()
                    frames.append((TimeSeriesFrame(*fields), digest))
            except BrokenProcessPool:
                raise DataError(
                    f"dataset.subjects: a process loading the {len(paths)} "
                    f"{kind} files died before returning them"
                ) from None
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
            return frames
    return [_load_file(kind, path, sensors) for path in paths]


class Dataset(NamedTuple):
    """What ``_load_frames`` loads: each subject's file path or walker
    arguments, and the sensors every frame holds, in row order."""

    kind: str
    subjects: dict
    sensors: tuple[str, ...]
    window: list[int] | None


def _dataset(config: RunConfig, one: bool = False) -> Dataset:
    """Check every dataset setting; nothing is read or synthesized yet."""
    kind = config["dataset.kind"]
    subjects = config["dataset.subjects"]
    if not subjects:
        raise ConfigError("dataset.subjects: need at least one subject")
    if one and len(subjects) != 1:
        raise ConfigError(
            f"this command needs exactly one subject, got {len(subjects)}"
        )
    sensors = config["dataset.sensors"]
    if kind == "synthetic":
        count = checked_int("dataset.sensors", 2 if sensors is None else sensors, lo=1)
        period, jitter = config["dataset.period_mean"], config["dataset.period_jitter"]
        phases = config["dataset.phases"]
        try:
            marker_length(period, jitter, phases)
        except ValueError as exc:  # the message opens with the parameter
            raise ConfigError(f"dataset.{exc}") from None
        walker = dict(
            cycles=config["dataset.cycles"], period_mean=period, period_jitter=jitter,
            sensors=count, noise=config["dataset.noise"], phases=phases,
        )
        sources = {}
        for name, entry in subjects.items():
            key = f"dataset.subjects.{name}"
            if not isinstance(entry, dict) or "seed" not in entry:
                raise ConfigError(f"{key}: need a mapping with a seed")
            unknown = sorted(set(entry) - {"seed", "offset"}, key=str)
            if unknown:
                raise ConfigError(
                    f"{key}.{unknown[0]}: unknown key; a subject holds seed "
                    "and offset"
                )
            sources[str(name)] = dict(
                walker,
                seed=checked_int(f"{key}.seed", entry["seed"], lo=0),
                offset=checked_float(f"{key}.offset", entry.get("offset", 0.0)),
            )
        names = tuple(f"S{s}" for s in range(count))
    else:
        if kind == "hugadb":
            if sensors is not None:
                raise ConfigError("dataset.sensors: HuGaDB files always load all six")
            names = HUGADB_SENSORS
        else:
            names = list(MAREA_SENSORS) if sensors is None else sensors
            if (not isinstance(names, list) or not names
                    or not all(s in MAREA_SENSORS for s in names)):
                raise ConfigError(
                    "dataset.sensors: expected a nonempty list of MAREA sensors "
                    f"{list(MAREA_SENSORS)}, got {names!r}"
                )
            twice = [s for i, s in enumerate(names) if s in names[:i]]
            if twice:
                raise ConfigError(f"dataset.sensors: sensor {twice[0]!r} named twice")
            names = tuple(names)
        for name, path in subjects.items():
            if not isinstance(path, str):
                raise ConfigError(f"dataset.subjects.{name}: expected a file path")
        sources = {str(name): path for name, path in subjects.items()}
    window = config["window"]
    if window is not None and not window[0] < window[1]:
        raise ConfigError(f"window: [{window[0]}, {window[1]}) holds no sample")
    return Dataset(kind, sources, names, window)


def _load_frames(
    dataset: Dataset,
) -> tuple[dict[str, TimeSeriesFrame], dict[str, str]]:
    """Every subject's frame, cut to the window, and the sha256 of each
    file read, keyed by its path."""
    if dataset.kind == "synthetic":
        inputs = {}
        loaded = [synthesize_walker(**kw).frame for kw in dataset.subjects.values()]
    else:
        paths = list(dataset.subjects.values())
        loaded, digests = zip(*_load_files(dataset.kind, paths, dataset.sensors))
        inputs = dict(zip(paths, digests))
    frames = dict(zip(dataset.subjects, loaded))
    if dataset.window is not None:
        start, stop = dataset.window
        for name, frame in frames.items():
            if stop > frame.n_samples:
                raise ConfigError(
                    f"window: [{start}, {stop}) outside the "
                    f"{frame.n_samples} samples of subject {name!r}"
                )
        frames = {name: frame.window(start, stop) for name, frame in frames.items()}
    return frames, inputs


def _json_report(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# What each subcommand returns: its artifacts (name -> text) and the files it
# read (path -> sha256 of the bytes it parsed).
Outputs = tuple[dict[str, str], dict[str, str]]


def _read(path: str, parse, inputs: dict[str, str]):
    """``parse`` of the file at ``path``, read once; its sha256 goes into
    ``inputs``."""
    text, inputs[path] = read_file(path)
    return parse_file(path, parse, text)


def cmd_complexity(config: RunConfig) -> Outputs:
    """Complexity table and chart comparing coding schemes on one sensor."""
    dataset = _dataset(config, one=True)
    sensor = config["complexity.sensor"]
    if sensor is None:
        sensor = dataset.sensors[0]
    if sensor not in dataset.sensors:
        raise ConfigError(f"complexity.sensor: {sensor!r} not in {dataset.sensors}")
    alpha, beta = config["coding.alpha"], config["coding.beta"]
    sweep = config["complexity.h_sweep"]

    frames, inputs = _load_frames(dataset)
    (name, frame), = frames.items()
    triplet = frame.sensor(sensor)
    if max(sweep) > triplet.n_samples:
        raise ConfigError(
            f"complexity.h_sweep: {max(sweep)} clusters exceed the "
            f"{triplet.n_samples} samples of the window"
        )

    coding = fit_ternary([triplet], alpha, beta)
    states = encode_ternary(triplet, coding).states
    axis_seqs = [
        SymbolSequence(symbols=states[:, d].astype(np.int64) - 1, alphabet_size=3)
        for d in range(3)
    ]
    rows: list[tuple[str, int, int]] = []
    for axis, seq in zip("XYZ", axis_seqs):
        rows.append((f"ternary-{axis}", 3, lz76_complexity(seq)))
    resultant = resultant_acceleration(triplet)
    a_cut, b_cut = np.quantile(resultant, [alpha, beta])
    res_seq = SymbolSequence(
        symbols=((resultant > a_cut).astype(np.int64)
                 + (resultant > b_cut).astype(np.int64)),
        alphabet_size=3,
    )
    rows.append(("ternary-resultant", 3, lz76_complexity(res_seq)))
    naive = couple_naive(axis_seqs)
    naive_lz = lz76_complexity(naive)
    rows.append(("ternary-coupled", naive.alphabet_size, naive_lz))

    tree = link_columns(triplet.values)
    cluster_lz: list[int] = []
    for h in sweep:
        _, labels = cut_columns(tree, h)
        value = lz76_complexity(SymbolSequence(symbols=labels, alphabet_size=h))
        cluster_lz.append(value)
        rows.append((f"cluster-{h}", h, value))

    tsv = "coding\tstates\tlz76\n" + "".join(
        f"{label}\t{states_n}\t{value}\n" for label, states_n, value in rows
    )
    chart = render_line_chart(
        xs=[float(h) for h in sweep],
        series={
            "cluster coding": [float(v) for v in cluster_lz],
            "3-axis coupled ternary": [float(naive_lz)] * len(sweep),
        },
        x_label="clusters H",
        y_label="LZ76 phrases",
        title=f"{name}/{sensor}: coding complexity",
    )
    return {"complexity_table.tsv": tsv, "complexity_chart.svg": chart}, inputs


def _cycles_pipeline(config: RunConfig):
    """Fit the one subject's code books, couple its sensors, cut its cycles.

    Every setting is checked before the frame is loaded.  Returns the files
    read, the coupled sequence, the partition, the report and the artifacts
    (cycle table and code books) that every caller writes.
    """
    dataset = _dataset(config, one=True)
    sensors = dataset.sensors
    left, right = config["cycles.left"], config["cycles.right"]
    if left is None:
        left = sensors[0]
    if right is None:
        if len(sensors) < 2:
            raise ConfigError("cycles.right: unset, and the frames hold one sensor")
        right = sensors[1]
    extra = config["cycles.extra"]
    h_feet, h_extra = config["hca.h_feet"], config["hca.h_extra"]
    max_fit = config["hca.max_fit_columns"]
    min_runs = config["cycles.min_runs"]

    # each sensor once: a foot named twice would stack with itself, and two
    # rings of one name would keep one landmark code in the report
    named: dict[str, str] = {}
    selected = [("cycles.left", left), ("cycles.right", right)]
    for key, sensor in selected + [("cycles.extra", s) for s in extra]:
        if sensor not in sensors:
            raise ConfigError(f"{key}: sensor {sensor!r} not in {sensors}")
        if sensor in named:
            raise ConfigError(
                f"{key}: sensor {sensor!r} is already named by {named[sensor]}"
            )
        named[sensor] = key

    frames, inputs = _load_frames(dataset)
    (name, frame), = frames.items()
    one = {sensor: frame.sensor(sensor) for sensor in named}
    # (code book name, columns fitted, H key, H, sensors it encodes)
    subsystems = [
        ("feet", stack_lr(one[left], one[right]), "hca.h_feet", h_feet, (left, right))
    ] + [(s, one[s].values, "hca.h_extra", h_extra, (s,)) for s in extra]
    for _, matrix, key, h, _ in subsystems:
        fitted = math.ceil(matrix.shape[1] / fit_stride(matrix.shape[1], max_fit))
        if h > fitted:
            raise ConfigError(
                f"{key}: {h} clusters exceed the {fitted} columns the code book fits"
            )
    codes, seqs, labels = {}, [], []
    for book, matrix, _, h, encoded in subsystems:
        codes[book] = fit_local_code(
            matrix, h, source_sensors=encoded, max_fit_columns=max_fit
        )
        seqs.extend(encode_subsystem(codes[book], one[s]) for s in encoded)
        labels.extend(encoded)

    coupled = couple(seqs, labels)
    stats = run_statistics(coupled)
    partition = partition_cycles(stats, select_landmark(stats, min_runs=min_runs))
    report = _partition_report(name, frame, partition, labels, codes)
    artifacts = {"cycles.tsv": cycles_to_tsv(partition)}
    for book, code in codes.items():
        artifacts[f"codebook_{book}.txt"] = local_code_to_text(code)
    return inputs, coupled, partition, report, artifacts


def _partition_report(
    name: str, frame: TimeSeriesFrame, partition, labels, codes
) -> dict:
    ms_per_sample = 1000.0 / frame.sample_rate_hz
    return {
        "subject": name,
        "landmark": {
            label: code
            for label, code in zip(labels, partition.landmark_state)
        },
        "n_cycles": partition.n_cycles,
        "period_mean_samples": partition.period_mean,
        "period_sd_samples": partition.period_sd,
        "period_mean_ms": partition.period_mean * ms_per_sample,
        "period_sd_ms": partition.period_sd * ms_per_sample,
        "head_samples": partition.head[1] - partition.head[0],
        "tail_samples": partition.tail[1] - partition.tail[0],
        "code_book_ids": {
            key: code.code_book_id for key, code in codes.items()
        },
    }


def cmd_cycles(config: RunConfig) -> Outputs:
    """Landmark selection and rhythmic-cycle table for one recording."""
    inputs, _, _, report, artifacts = _cycles_pipeline(config)
    artifacts["report.json"] = _json_report(report)
    return artifacts, inputs


def cmd_passtensor_build(config: RunConfig) -> Outputs:
    """Build and persist the phase-normalized cycle tensor."""
    bins = config["passtensor.bins"]
    cycle_range = config["passtensor.cycle_range"]
    if cycle_range is not None and not 1 <= cycle_range[0] <= cycle_range[1]:
        raise ConfigError(
            f"passtensor.cycle_range: {cycle_range} needs 1 <= first <= last"
        )
    inputs, coupled, partition, report, artifacts = _cycles_pipeline(config)
    if cycle_range is not None and cycle_range[1] > partition.n_cycles:
        raise ConfigError(
            f"passtensor.cycle_range: last cycle {cycle_range[1]} is past the "
            f"{partition.n_cycles} cycles found"
        )
    combined_id = hashlib.sha256(
        "|".join(report["code_book_ids"].values()).encode()
    ).hexdigest()[:16]
    pt = build_passtensor(
        coupled,
        partition,
        bins=bins,
        cycle_range=cycle_range,
        code_book_id=combined_id,
    )
    report["tensor_shape"] = [pt.n_cycles, pt.n_rings, pt.n_bins]
    report["code_book_id"] = combined_id
    artifacts["passtensor.txt"] = passtensor_to_text(pt)
    artifacts["report.json"] = _json_report(report)
    return artifacts, inputs


def cmd_pssa_train(config: RunConfig) -> Outputs:
    """Fit ternary coding, select principle states, train key-state rules."""
    dataset = _dataset(config)
    if len(dataset.subjects) < 2:
        raise ConfigError("pssa-train needs at least two subjects")
    alpha, beta = config["coding.alpha"], config["coding.beta"]
    n_states, coverage = config["pssa.n_states"], config["pssa.coverage"]
    if (n_states is None) == (coverage is None):
        raise ConfigError("give exactly one of pssa.n_states or pssa.coverage")
    segment_length = config["pssa.segment_length"]
    frames, inputs = _load_frames(dataset)
    for name, frame in frames.items():  # two rows to train on, one to test
        if frame.n_samples // segment_length < 3:
            raise ConfigError(
                f"pssa.segment_length: {segment_length} cuts subject {name!r} "
                f"({frame.n_samples} samples) into fewer than the 3 segments "
                "training needs"
            )

    coding = fit_ternary(list(frames.values()), alpha, beta)
    seqs = {name: encode_ternary(f, coding) for name, f in frames.items()}
    table = build_state_table(list(seqs.values()))
    pss = select_pss(table, n_states=n_states, coverage=coverage)
    curve = coverage_curve(table)

    sigma = build_proportion_matrix(seqs, pss, segment_length)
    train, test = split_alternating(sigma)
    model, margins = train_key_pss(train)
    tested = classify_matrix(model, test)

    row_order, col_order = cluster_sigma(train)
    reordered = train.proportions[np.ix_(row_order, col_order)]
    row_labels = [
        f"{train.subjects[i]}#{train.segment_indices[i]}" for i in row_order
    ]
    heatmap = render_heatmap(
        reordered,
        row_labels=row_labels,
        cell_w=max(2.0, min(8.0, 700.0 / reordered.shape[1])),
        cell_h=10.0,
        title="segment occupancy over principle states (training half)",
    )
    report = {
        "n_subjects": len(frames),
        "n_distinct_states": table.n_states,
        "n_pss": int(pss.shape[0]),
        "coverage_at_pss": float(curve[pss.shape[0] - 1]),
        "segment_length": segment_length,
        "train_rows": train.n_rows,
        "test_rows": test.n_rows,
        "train_accuracy": classify_matrix(model, train).accuracy(train.subjects),
        "test_accuracy": tested.accuracy(test.subjects),
        "test_fallback_rate": float(tested.fallback.mean()),
        "margins": margins,
    }
    artifacts = {
        "model.txt": model_to_text(model),
        "coding.txt": coding_to_text(coding),
        "sigma_train.tsv": sigma_to_tsv(train),
        "sigma_test.tsv": sigma_to_tsv(test),
        "sigma_heatmap.svg": heatmap,
        "report.json": _json_report(report),
    }
    return artifacts, inputs


def cmd_pssa_classify(config: RunConfig) -> Outputs:
    """Attribute segments of new recordings under a trained model."""
    dataset = _dataset(config)
    model_path, coding_path = config["pssa.model"], config["pssa.coding"]
    inputs = {}
    model = _read(model_path, model_from_text, inputs)
    coding = _read(coding_path, coding_from_text, inputs)
    channels = [f"{sensor}_{axis}" for sensor in dataset.sensors for axis in AXES]
    coded = [f"{sensor}_{axis}" for sensor, axis in coding.channels]
    if coded != channels:
        raise ConfigError(
            f"pssa.coding: {coding_path} codes channels {' '.join(coded)}, "
            f"but the dataset holds {' '.join(channels)}"
        )
    if model.pss.shape[1] != coding.n_dims:
        raise ConfigError(
            f"pssa.model: {model_path} holds {model.pss.shape[1]}-digit states, "
            f"but pssa.coding {coding_path} codes {coding.n_dims} channels"
        )
    frames, loaded = _load_frames(dataset)
    inputs |= loaded
    for name, frame in frames.items():
        if frame.n_samples < model.segment_length:
            raise DataError(
                f"subject {name!r} has {frame.n_samples} samples, shorter than "
                f"one segment of {model.segment_length} in pssa.model {model_path}"
            )

    seqs = {name: encode_ternary(f, coding) for name, f in frames.items()}
    sigma = build_proportion_matrix(seqs, model.pss, model.segment_length)
    result = classify_matrix(model, sigma)

    lines = ["claimed\tsegment\tpredicted\tfallback\tscore"]
    for truth, index, predicted, fallback, score in zip(
        sigma.subjects, sigma.segment_indices, result.predicted,
        result.fallback.tolist(), result.score.tolist(),
    ):
        lines.append(
            f"{truth}\t{index}\t{predicted}\t{int(fallback)}\t{repr(score)}"
        )
    report = {
        "n_rows": sigma.n_rows,
        "accuracy_vs_claimed": result.accuracy(sigma.subjects),
        "fallback_rate": float(result.fallback.mean()),
    }
    artifacts = {
        "classifications.tsv": "\n".join(lines) + "\n",
        "report.json": _json_report(report),
    }
    return artifacts, inputs


def cmd_passtensor_compare(config: RunConfig) -> Outputs:
    """Skeleton/stochastic comparison of two persisted passtensors."""
    inputs = {}
    a, b = (_read(path, passtensor_from_text, inputs)
            for path in config["passtensor.compare"])
    diff = compare_passtensors(a, b)
    report = {
        "a": {"cycles": a.n_cycles, "rings": a.n_rings, "bins": a.n_bins},
        "b": {"cycles": b.n_cycles, "rings": b.n_rings, "bins": b.n_bins},
        "distance": diff.distance,
        "skeleton_agreement": diff.skeleton_agreement,
        "stochastic_agreement": diff.stochastic_agreement,
        "skeleton_weight": SKELETON_WEIGHT,
        "ring_agreement": {
            label: value
            for label, value in zip(a.ring_labels, diff.ring_agreement)
        },
        "mismatch_count": len(diff.mismatches),
        "mismatches_head": [list(m) for m in diff.mismatches[:50]],
        "cycle_agreement_a": {
            "min": float(diff.cycle_agreement_a.min()),
            "mean": float(diff.cycle_agreement_a.mean()),
        },
        "cycle_agreement_b": {
            "min": float(diff.cycle_agreement_b.min()),
            "mean": float(diff.cycle_agreement_b.mean()),
        },
    }
    return {"diff_report.json": _json_report(report)}, inputs


def cmd_render(config: RunConfig) -> Outputs:
    """Ring and cylinder views of a persisted passtensor."""
    path, view = config["render.passtensor"], config["render.view"]
    ring_cycle = config["render.ring_cycle"]
    inputs = {}
    pt = _read(path, passtensor_from_text, inputs)
    if ring_cycle is None:
        grid = skeleton(pt)
    elif ring_cycle < pt.n_cycles:
        grid = pt.tensor[ring_cycle]
    else:
        raise ConfigError(
            f"render.ring_cycle: {ring_cycle} outside 0..{pt.n_cycles - 1}"
        )
    if pt.tensor.max() >= len(DEFAULT_PALETTE):
        raise DataError(
            f"{path}: code {pt.tensor.max()} is past the "
            f"{len(DEFAULT_PALETTE)} colours the views draw; build the tensor "
            f"with hca.h_feet and hca.h_extra of at most {len(DEFAULT_PALETTE)}"
        )
    artifacts = {"rings.svg": render_rings(grid, ring_labels=pt.ring_labels)}
    if view in ("unrolled", "both"):
        artifacts["cylinder_unrolled.svg"] = render_cylinder(pt, view="unrolled")
    if view in ("isometric", "both"):
        artifacts["cylinder_isometric.svg"] = render_cylinder(pt, view="isometric")
    return artifacts, inputs


COMMANDS = {
    "complexity": cmd_complexity,
    "cycles": cmd_cycles,
    "pssa-train": cmd_pssa_train,
    "pssa-classify": cmd_pssa_classify,
    "passtensor-build": cmd_passtensor_build,
    "passtensor-compare": cmd_passtensor_compare,
    "render": cmd_render,
}


# ---------------------------------------------------------------------------
# manifest and entry point
# ---------------------------------------------------------------------------

def _write_run(
    outdir: Path,
    command: str,
    config: RunConfig,
    overrides: list[str],
    artifacts: dict[str, str],
    inputs: dict[str, str],
) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name in sorted(artifacts):
        data = artifacts[name].encode()
        (outdir / name).write_bytes(data)
        hashes[name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "command": command,
        "package": {"name": "gaitpass", "version": __version__},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "config_sha256": config.sha256,
        "overrides": sorted(
            o for o in overrides if not o.startswith("output_dir=")
        ),
        "parameters": config.manifest_parameters(),
        "inputs": inputs,
        "artifacts": hashes,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _fail(kind: str, code: int, exc: Exception) -> int:
    print(
        json.dumps({"error": kind, "exit_code": code, "message": str(exc)}),
        file=sys.stderr,
    )
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaitpass",
        description="Symbolic gait coding, cycle dissection and passtensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").strip().splitlines()[0])
        p.add_argument("-c", "--config", required=True, help="YAML config file")
        p.add_argument(
            "-o", "--out", default=None,
            help="output directory (overrides config output_dir)",
        )
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override a config entry (dotted path)",
        )
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.overrides)
        outdir = Path(
            args.out if args.out else config["output_dir"]
        )
        artifacts, inputs = COMMANDS[args.command](config)
        try:
            _write_run(outdir, args.command, config, args.overrides, artifacts, inputs)
        except OSError as exc:  # the output path comes from -o or output_dir
            raise ConfigError(f"cannot write {outdir}: {exc}") from exc
    except ConfigError as exc:
        return _fail("config", 2, exc)
    except DataError as exc:
        return _fail("data", 3, exc)
    except (GaitError, ValueError, KeyError) as exc:
        return _fail("precondition", 4, exc)
    print(f"wrote {len(artifacts) + 1} artifacts to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
