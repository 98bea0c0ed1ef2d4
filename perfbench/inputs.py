"""Seeded inputs for the benchmark workloads.

``generate(workload, seed, work)`` writes every config and recording a
workload's command sequence reads into ``work/inputs`` and returns the
plan: the CLI steps, the truths their output checks compare against, and
the input sizes.  The same seed writes byte-identical files; the program
only ever sees those files.

All paths inside the configs are relative to ``work``, and the benchmark
runs the CLI from there, so the inputs do not depend on where the
checkout lives.  Walkers come from ``gaitpass.ingest.synthesize_walker``
with period 128 and jitter 2.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

DEFAULT_SEED = 1
# Never used while the benchmark or a change is tuned; claims are re-checked on it.
HELD_OUT_SEED = 7919

PERIOD = 128.0
JITTER = 2.0
NOISE = 0.03

IDENTIFY_SUBJECTS = 12
IDENTIFY_CYCLES = 300
# Lowest accuracy_vs_claimed `identify` may give: the default seed's score
# when the benchmark was defined (seeds 2-12 and the held-out seed matched it).
IDENTIFY_ACCURACY_FLOOR = 1.0

COMPLEXITY_CYCLES = 20
COMPLEXITY_H_SWEEP = tuple(range(2, 28))  # the CLI default
COMPLEXITY_TERNARY_ROWS = 5  # X, Y, Z, resultant, coupled


@dataclass
class Step:
    """One CLI call: ``gaitpass <command> -c <config> -o <out>``."""

    command: str
    config: str
    out: str
    samples: int = 0  # recording samples the command loads
    cycles: int = 0  # true cycles of the walker a passtensor-build cuts


@dataclass
class Plan:
    workload: str
    seed: int
    steps: list[Step]
    sizes: dict = field(default_factory=dict)  # input sizes by part

    @property
    def samples_per_pass(self) -> int:
        return sum(step.samples for step in self.steps)


def _walker_yaml(subject_seed: int, cycles: int, sensors: int) -> str:
    return (
        "dataset:\n"
        "  kind: synthetic\n"
        f"  cycles: {cycles}\n"
        f"  period_mean: {PERIOD}\n"
        f"  period_jitter: {JITTER}\n"
        f"  sensors: {sensors}\n"
        f"  noise: {NOISE}\n"
        "  subjects:\n"
        f"    walker: {{seed: {subject_seed}}}\n"
    )


def _walker(subject_seed: int, cycles: int, sensors: int, offset: float = 0.0):
    # gaitpass is imported from the checkout's src/, which the caller puts
    # on sys.path
    from gaitpass.ingest import synthesize_walker

    return synthesize_walker(
        seed=subject_seed, cycles=cycles, period_mean=PERIOD,
        period_jitter=JITTER, sensors=sensors, noise=NOISE, offset=offset,
    )


def _fitted_columns(columns: int, max_fit: int) -> int:
    """Columns a code-book fit clusters under the ``max_fit_columns`` stride."""
    return math.ceil(columns / math.ceil(columns / max_fit))


def _auth(seed, work, part, cycles, sensors, extra, max_fit):
    """Enrol and probe passtensor-build, compare, render on one walker."""
    inputs, out = f"inputs/{part}", f"out/{part}"
    (work / inputs).mkdir(parents=True)
    walker = _walker_yaml(seed, cycles, sensors)
    hca = f"hca:\n  max_fit_columns: {max_fit}\n"
    extra_yaml = f"cycles:\n  extra: [{', '.join(extra)}]\n" if extra else ""
    half = cycles // 2
    ranges = {"enrol": (1, half), "probe": (half + 1, cycles - 1)}
    for role, (first, last) in ranges.items():
        (work / inputs / f"{role}.yaml").write_text(
            walker + hca + extra_yaml
            + f"passtensor:\n  cycle_range: [{first}, {last}]\n"
        )
    (work / inputs / "compare.yaml").write_text(
        "passtensor:\n  compare:\n"
        f"    - {out}/enrol/passtensor.txt\n    - {out}/probe/passtensor.txt\n"
    )
    (work / inputs / "render.yaml").write_text(
        f"render:\n  passtensor: {out}/enrol/passtensor.txt\n"
    )
    samples = _walker(seed, cycles, sensors).frame.n_samples
    steps = [
        Step("passtensor-build", f"{inputs}/enrol.yaml", f"{out}/enrol", samples, cycles),
        Step("passtensor-build", f"{inputs}/probe.yaml", f"{out}/probe", samples, cycles),
        Step("passtensor-compare", f"{inputs}/compare.yaml", f"{out}/compare"),
        Step("render", f"{inputs}/render.yaml", f"{out}/render"),
    ]
    per_build = _fitted_columns(2 * samples, max_fit) + len(extra) * (
        _fitted_columns(samples, max_fit)
    )
    return steps, {
        "samples": samples, "sensors": sensors, "subjects": 1,
        "cycles": cycles, "columns_fitted": 2 * per_build, "bins": 128,
    }


def _marea_text(values) -> str:
    """Headerless 12-column MAREA export, one sample per row."""
    row = " ".join(["%.6f"] * values.shape[0])
    return "\n".join(row % tuple(sample) for sample in values.T.tolist()) + "\n"


def _identify(seed, work):
    """pssa-train, then pssa-classify, over 12 subjects' MAREA files."""
    (work / "inputs").mkdir(parents=True)
    subjects = {}
    samples = 0
    for k in range(IDENTIFY_SUBJECTS):
        walk = _walker(seed * IDENTIFY_SUBJECTS + k, IDENTIFY_CYCLES, 4, 0.25 * k)
        path = f"inputs/subject{k:02d}.txt"
        (work / path).write_text(_marea_text(walk.frame.values))
        subjects[f"s{k:02d}"] = path
        samples += walk.frame.n_samples
    dataset = "dataset:\n  kind: marea\n  subjects:\n" + "".join(
        f"    {name}: {path}\n" for name, path in subjects.items()
    )
    pssa = "pssa:\n  coverage: 0.95\n  segment_length: 1000\n"
    (work / "inputs/train.yaml").write_text(dataset + pssa)
    (work / "inputs/classify.yaml").write_text(
        dataset + pssa
        + "  model: out/train/model.txt\n  coding: out/train/coding.txt\n"
    )
    steps = [
        Step("pssa-train", "inputs/train.yaml", "out/train", samples),
        Step("pssa-classify", "inputs/classify.yaml", "out/classify", samples),
    ]
    return steps, {
        "samples": samples, "sensors": 4, "subjects": IDENTIFY_SUBJECTS,
        "cycles": IDENTIFY_CYCLES, "columns_fitted": 0, "bins": 0,
    }


def _complexity(seed, work):
    """The complexity table over the default H sweep on one sensor."""
    (work / "inputs/complexity").mkdir(parents=True)
    (work / "inputs/complexity/complexity.yaml").write_text(
        _walker_yaml(seed, COMPLEXITY_CYCLES, 2) + "complexity:\n  sensor: S0\n"
    )
    samples = _walker(seed, COMPLEXITY_CYCLES, 2).frame.n_samples
    steps = [Step("complexity", "inputs/complexity/complexity.yaml",
                  "out/complexity", samples)]
    return steps, {
        "samples": samples, "sensors": 2, "subjects": 1,
        "cycles": COMPLEXITY_CYCLES,
        "columns_fitted": samples * len(COMPLEXITY_H_SWEEP), "bins": 0,
    }


# Each workload runs its parts' command sequences one after another.
WORKLOADS = {
    "identify": {"identify": _identify},
    "auth-complexity": {
        # 50 cycles, 12.8k stacked columns fitted in full
        "auth-fit": partial(_auth, part="auth-fit", cycles=50, sensors=2,
                            extra=(), max_fit=20000),
        # 2000 cycles, every fit subsampled to 2000 columns
        "auth-long": partial(_auth, part="auth-long", cycles=2000, sensors=4,
                             extra=("S2", "S3"), max_fit=2000),
        "complexity": _complexity,
    },
}


def generate(workload: str, seed: int, work: Path) -> Plan:
    """Write the inputs of ``workload`` for ``seed`` under ``work/inputs``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    work = Path(work)
    plan = Plan(workload, seed, [])
    for part, build in WORKLOADS[workload].items():
        steps, sizes = build(seed, work)
        plan.steps += steps
        plan.sizes[part] = sizes
    return plan


def input_hashes(work: Path) -> dict[str, str]:
    """sha256 of every generated input file, keyed by its relative path."""
    inputs = Path(work) / "inputs"
    return {
        str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(inputs.rglob("*")) if path.is_file()
    }
