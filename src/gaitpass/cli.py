"""Command-line pipeline runner.

Every subcommand reads one YAML config (plus ``--set`` overrides), writes
its artifacts into an output directory, and finishes with a manifest
recording the config hash, input hashes, artifact hashes and library
versions, so a run can be reproduced and verified byte for byte.

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

import numpy as np
import scipy

from . import __version__
from .complexity import SymbolSequence, couple_naive, lz76_complexity
from .config import (
    RunConfig,
    checked_float,
    checked_int,
    file_sha256,
    load_config,
)
from .errors import ConfigError, DataError, GaitError
from .hca import MAX_FIT_COLUMNS, cut_columns, link_columns
from .ingest import (
    MAREA_SENSORS,
    TimeSeriesFrame,
    load_hugadb,
    load_marea,
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
    load_passtensor,
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
    load_model,
    model_to_text,
    select_pss,
    sigma_to_tsv,
    split_alternating,
    train_key_pss,
)
from .svgfig import DEFAULT_PALETTE, render_heatmap, render_line_chart
from .symbolic import (
    coding_to_text,
    encode_ternary,
    fit_ternary,
    load_coding,
    resultant_acceleration,
)

# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------

def _load_file(kind: str, path: str, sensors: tuple[str, ...]) -> TimeSeriesFrame:
    if kind == "marea":
        return load_marea(path, sensors)
    return load_hugadb(path)


def _file_fields(kind: str, path: str, sensors: tuple[str, ...]):
    # What a worker sends back: the selected channel matrix and its labels.
    # The parent builds the frame, so its values stay read-only.
    frame = _load_file(kind, path, sensors)
    return frame.values, frame.channels, frame.sample_rate_hz


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _load_files(
    kind: str, paths: list[str], sensors: tuple[str, ...]
) -> list[TimeSeriesFrame]:
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

            # fork, not spawn: a spawned worker would import numpy, scipy
            # and gaitpass afresh, which takes longer than parsing a file
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
                    frames.append(TimeSeriesFrame(*pending.pop().result()))
            except BrokenProcessPool:
                raise DataError(
                    f"dataset.subjects: a process loading the {len(paths)} "
                    f"{kind} files died before returning them"
                ) from None
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
            return frames
    return [_load_file(kind, path, sensors) for path in paths]


def _load_frames(config: RunConfig) -> tuple[dict[str, TimeSeriesFrame], list[str]]:
    kind = config.get_str(
        "dataset.kind", choices=("synthetic", "marea", "hugadb")
    )
    subjects_map = config.get_map("dataset.subjects")
    if not subjects_map:
        raise ConfigError("dataset.subjects: need at least one subject")

    frames: dict[str, TimeSeriesFrame] = {}
    inputs: list[str] = []
    if kind == "synthetic":
        cycles = config.get_int("dataset.cycles", 60, lo=1)
        period = config.get_float("dataset.period_mean", 128.0, lo=8.0)
        jitter = config.get_float("dataset.period_jitter", 2.0, lo=0.0)
        sensors = config.get_int("dataset.sensors", 2, lo=1)
        noise = config.get_float("dataset.noise", 0.03, lo=0.0)
        phases = config.get_int("dataset.phases", 6, lo=2)
        for name, entry in subjects_map.items():
            key = f"dataset.subjects.{name}"
            if not isinstance(entry, dict) or "seed" not in entry:
                raise ConfigError(f"{key}: need a mapping with a seed")
            unknown = sorted(set(entry) - {"seed", "offset"}, key=str)
            if unknown:
                raise ConfigError(
                    f"{key}.{unknown[0]}: unknown key; a subject holds seed "
                    "and offset"
                )
            walk = synthesize_walker(
                seed=checked_int(f"{key}.seed", entry["seed"], lo=0),
                cycles=cycles,
                period_mean=period,
                period_jitter=jitter,
                sensors=sensors,
                noise=noise,
                offset=checked_float(f"{key}.offset", entry.get("offset", 0.0)),
                phases=phases,
            )
            frames[str(name)] = walk.frame
    else:
        picked: tuple[str, ...] = ()
        if kind == "marea":
            sensor_list = config.get_list("dataset.sensors", list(MAREA_SENSORS))
            if not sensor_list or not all(s in MAREA_SENSORS for s in sensor_list):
                raise ConfigError(
                    "dataset.sensors: expected a nonempty list of MAREA sensors "
                    f"{list(MAREA_SENSORS)}, got {sensor_list!r}"
                )
            picked = tuple(sensor_list)
        for name, path in subjects_map.items():
            if not isinstance(path, str):
                raise ConfigError(f"dataset.subjects.{name}: expected a file path")
        inputs = list(subjects_map.values())
        loaded = _load_files(kind, inputs, picked)
        frames = dict(zip(map(str, subjects_map), loaded))

    window = config.get_int_pair("window", None)
    if window is not None:
        start, stop = window
        for name, frame in frames.items():
            if not 0 <= start < stop <= frame.n_samples:
                raise ConfigError(
                    f"window: [{start}, {stop}) outside the "
                    f"{frame.n_samples} samples of subject {name!r}"
                )
        frames = {
            name: frame.window(start, stop) for name, frame in frames.items()
        }
    return frames, inputs


def _single_frame(config: RunConfig) -> tuple[str, TimeSeriesFrame, list[str]]:
    frames, inputs = _load_frames(config)
    if len(frames) != 1:
        raise ConfigError(
            f"this command needs exactly one subject, got {len(frames)}"
        )
    name, frame = next(iter(frames.items()))
    return name, frame, inputs


def _get_alpha_beta(config: RunConfig) -> tuple[float, float]:
    alpha = config.get_float("coding.alpha", 0.3)
    beta = config.get_float("coding.beta", 0.7)
    if not 0.0 < alpha < 0.5:
        raise ConfigError(f"coding.alpha: {alpha} must lie in (0, 0.5)")
    if not 0.5 < beta < 1.0:
        raise ConfigError(f"coding.beta: {beta} must lie in (0.5, 1)")
    return alpha, beta


def _json_report(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (artifacts name -> text, input paths)
# ---------------------------------------------------------------------------

def cmd_complexity(config: RunConfig) -> tuple[dict[str, str], list[str]]:
    """Complexity table and chart comparing coding schemes on one sensor."""
    name, frame, inputs = _single_frame(config)
    sensor = config.get_str("complexity.sensor", frame.sensor_names()[0])
    try:
        triplet = frame.sensor(sensor)
    except KeyError:
        raise ConfigError(
            f"complexity.sensor: {sensor!r} not in {frame.sensor_names()}"
        ) from None
    alpha, beta = _get_alpha_beta(config)
    sweep = config.get_list("complexity.h_sweep", list(range(2, 28)))
    if not sweep or not all(
        type(h) is int and 1 <= h <= triplet.n_samples for h in sweep
    ):
        raise ConfigError(
            "complexity.h_sweep: expected integers within the window length"
        )
    standardize = config.get_bool("hca.standardize", True)

    coding = fit_ternary([triplet.frame], alpha, beta)
    states = encode_ternary(triplet.frame, coding).states
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

    tree = link_columns(triplet.values, standardize=standardize)
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


def _check_h(key: str, h: int, n_columns: int, max_fit: int) -> None:
    fitted = math.ceil(n_columns / fit_stride(n_columns, max_fit))
    if h > fitted:
        raise ConfigError(
            f"{key}: {h} clusters exceed the {fitted} columns the code book fits"
        )


def _cycles_pipeline(config: RunConfig, frame: TimeSeriesFrame):
    sensors = frame.sensor_names()
    left = config.get_str("cycles.left", sensors[0])
    if len(sensors) > 1:
        right = config.get_str("cycles.right", sensors[1])
    else:
        right = config.get_str("cycles.right")
    extra = config.get_list("cycles.extra", [])
    h_feet = config.get_int("hca.h_feet", 10, lo=1)
    h_extra = config.get_int("hca.h_extra", 8, lo=1)
    standardize = config.get_bool("hca.standardize", True)
    max_fit = config.get_int("hca.max_fit_columns", 20000, lo=8, hi=MAX_FIT_COLUMNS)

    try:
        left_t = frame.sensor(left)
        right_t = frame.sensor(right)
        extra_t = [frame.sensor(str(s)) for s in extra]
    except KeyError as exc:
        raise ConfigError(
            f"cycles: sensor {exc.args[0]!r} not in {sensors}"
        ) from None

    # (code book name, columns fitted, H key, H, triplets it encodes)
    subsystems = [
        ("feet", stack_lr(left_t, right_t), "hca.h_feet", h_feet, [left_t, right_t])
    ] + [
        (trip.name, trip.values, "hca.h_extra", h_extra, [trip])
        for trip in extra_t
    ]
    for _, matrix, key, h, _ in subsystems:
        _check_h(key, h, matrix.shape[1], max_fit)
    codes, seqs, labels = {}, [], []
    for name, matrix, _, h, triplets in subsystems:
        codes[name] = fit_local_code(
            matrix,
            h,
            source_sensors=tuple(trip.name for trip in triplets),
            standardize=standardize,
            max_fit_columns=max_fit,
        )
        seqs.extend(encode_subsystem(codes[name], trip) for trip in triplets)
        labels.extend(trip.name for trip in triplets)

    coupled = couple(seqs, labels)
    stats = run_statistics(coupled)
    lm = select_landmark(stats, min_runs=config.get_int("cycles.min_runs", 5, lo=1))
    partition = partition_cycles(stats, lm)
    return coupled, partition, codes, labels


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


def _codebook_artifacts(codes: dict) -> dict[str, str]:
    return {
        f"codebook_{key}.txt": local_code_to_text(code)
        for key, code in codes.items()
    }


def cmd_cycles(config: RunConfig) -> tuple[dict[str, str], list[str]]:
    """Landmark selection and rhythmic-cycle table for one recording."""
    name, frame, inputs = _single_frame(config)
    _, partition, codes, labels = _cycles_pipeline(config, frame)
    artifacts = {
        "cycles.tsv": cycles_to_tsv(partition),
        "report.json": _json_report(
            _partition_report(name, frame, partition, labels, codes)
        ),
    }
    artifacts.update(_codebook_artifacts(codes))
    return artifacts, inputs


def cmd_passtensor_build(config: RunConfig) -> tuple[dict[str, str], list[str]]:
    """Build and persist the phase-normalized cycle tensor."""
    name, frame, inputs = _single_frame(config)
    coupled, partition, codes, labels = _cycles_pipeline(config, frame)
    bins = config.get_int("passtensor.bins", 128, lo=8)
    cycle_range = config.get_int_pair("passtensor.cycle_range", None)
    combined_id = hashlib.sha256(
        "|".join(code.code_book_id for code in codes.values()).encode()
    ).hexdigest()[:16]
    pt = build_passtensor(
        coupled,
        partition,
        bins=bins,
        cycle_range=cycle_range,
        code_book_id=combined_id,
    )
    report = _partition_report(name, frame, partition, labels, codes)
    report["tensor_shape"] = [pt.n_cycles, pt.n_rings, pt.n_bins]
    report["code_book_id"] = combined_id
    artifacts = {
        "passtensor.txt": passtensor_to_text(pt),
        "cycles.tsv": cycles_to_tsv(partition),
        "report.json": _json_report(report),
    }
    artifacts.update(_codebook_artifacts(codes))
    return artifacts, inputs


def cmd_pssa_train(config: RunConfig) -> tuple[dict[str, str], list[str]]:
    """Fit ternary coding, select principle states, train key-state rules."""
    frames, inputs = _load_frames(config)
    if len(frames) < 2:
        raise ConfigError("pssa-train needs at least two subjects")
    alpha, beta = _get_alpha_beta(config)
    n_states = config.get_int("pssa.n_states", None, lo=1)
    coverage = config.get_float("pssa.coverage", None)
    if coverage is not None and not 0.0 < coverage <= 1.0:
        raise ConfigError(f"pssa.coverage: {coverage} must lie in (0, 1]")
    if (n_states is None) == (coverage is None):
        raise ConfigError("give exactly one of pssa.n_states or pssa.coverage")
    segment_length = config.get_int("pssa.segment_length", 1000, lo=1)
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
    model = train_key_pss(train)
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
        "train_accuracy": model.training_accuracy,
        "test_accuracy": tested.accuracy(test.subjects),
        "test_fallback_rate": float(tested.fallback.mean()),
        "margins": {s: model.margins[s] for s in model.subjects},
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


def cmd_pssa_classify(config: RunConfig) -> tuple[dict[str, str], list[str]]:
    """Attribute segments of new recordings under a trained model."""
    model_path = config.get_str("pssa.model")
    coding_path = config.get_str("pssa.coding")
    model = load_model(model_path)
    coding = load_coding(coding_path)
    frames, inputs = _load_frames(config)
    inputs = inputs + [model_path, coding_path]
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


def cmd_passtensor_compare(config: RunConfig) -> tuple[dict[str, str], list[str]]:
    """Skeleton/stochastic comparison of two persisted passtensors."""
    paths = config.get_list("passtensor.compare")
    if len(paths) != 2 or not all(isinstance(p, str) for p in paths):
        raise ConfigError(
            f"passtensor.compare: expected [path_a, path_b], got {paths!r}"
        )
    a = load_passtensor(paths[0])
    b = load_passtensor(paths[1])
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
    return {"diff_report.json": _json_report(report)}, [str(p) for p in paths]


def cmd_render(config: RunConfig) -> tuple[dict[str, str], list[str]]:
    """Ring and cylinder views of a persisted passtensor."""
    path = config.get_str("render.passtensor")
    pt = load_passtensor(path)
    view = config.get_str(
        "render.view", "unrolled", choices=("unrolled", "isometric", "both")
    )
    ring_cycle = config.get_int("render.ring_cycle", None, lo=0)
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
    return artifacts, [path]


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
    input_paths: list[str],
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
        "config_sha256": file_sha256(config.source) if config.source else None,
        "overrides": sorted(
            o for o in overrides if not o.startswith("output_dir=")
        ),
        "parameters": config.manifest_parameters(),
        "inputs": {path: file_sha256(path) for path in sorted(set(input_paths))},
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
            args.out if args.out else config.get_str("output_dir", "out")
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
