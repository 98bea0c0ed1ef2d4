"""gaitpass benchmark: run one workload's CLI command sequence and time it.

    python3 perfbench/run.py --workload identify --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed`` (see ``inputs.py``), then
the workload's commands run through ``gaitpass.cli.main`` in this process,
pass after pass, as long as the next pass is expected to end within
``--seconds`` (two passes at least).  Every command's outputs are checked
after each call.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries
the per-layer metrics of the traced ones (see ``spans.py``).  Results,
spans and the per-layer self-time table go to ``.perfbench/<workload>/``.
``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import (
    COMPLEXITY_H_SWEEP, COMPLEXITY_TERNARY_ROWS, IDENTIFY_ACCURACY_FLOOR,
    WORKLOADS, generate,
)
from spans import LAYERS, METRICS, Tracer, unit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"

NPROC = len(os.sched_getaffinity(0))
MIN_PASSES = 2
SETUP_IMPORTS = 3


def _import_program():
    if not (SRC / "gaitpass" / "cli.py").is_file():
        sys.exit(f"perfbench: no gaitpass sources under {SRC}")
    # cap BLAS threads at the cores this process may use, before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    import gaitpass.cli

    if Path(gaitpass.cli.__file__).resolve().parent != SRC / "gaitpass":
        sys.exit(f"perfbench: imported gaitpass from {gaitpass.cli.__file__}")
    return gaitpass.cli


def measure_setup() -> float:
    """Median wall time of importing gaitpass.cli in a fresh interpreter."""
    argv = [sys.executable, "-c", "import gaitpass.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_IMPORTS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _tree_hashes(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def check_outputs(step, out: Path) -> str | None:
    """What is wrong with one command's artifacts, or None."""
    if step.command == "passtensor-build":
        rows = len((out / "cycles.tsv").read_text().splitlines()) - 1
        if rows != step.cycles:
            return f"cycles.tsv has {rows} cycles, walker has {step.cycles}"
    elif step.command == "passtensor-compare":
        distance = json.loads((out / "diff_report.json").read_text())["distance"]
        if not 0.0 <= distance <= 1.0:
            return f"distance {distance} outside [0, 1]"
    elif step.command == "pssa-classify":
        report = json.loads((out / "report.json").read_text())
        if report["accuracy_vs_claimed"] < IDENTIFY_ACCURACY_FLOOR:
            return (f"accuracy_vs_claimed {report['accuracy_vs_claimed']} "
                    f"below {IDENTIFY_ACCURACY_FLOOR}")
    elif step.command == "complexity":
        labels = [line.split("\t")[0] for line in
                  (out / "complexity_table.tsv").read_text().splitlines()[1:]]
        ternary = sum(label.startswith("ternary-") for label in labels)
        cluster = sum(label.startswith("cluster-") for label in labels)
        if (ternary, cluster) != (COMPLEXITY_TERNARY_ROWS, len(COMPLEXITY_H_SWEEP)):
            return f"table has {ternary} ternary and {cluster} cluster rows"
    return None


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Runner:
    """Runs a plan's steps from its work directory and checks each one."""

    def __init__(self, cli, plan, work: Path):
        self.cli, self.plan, self.work = cli, plan, work
        self.reference: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> float:
        """Run every step once; returns the summed wall time of the calls."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        gc.collect()
        elapsed = 0.0
        for step in self.plan.steps:
            argv = [step.command, "-c", step.config, "-o", step.out]
            captured = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured), \
                        contextlib.redirect_stderr(captured):
                    code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            elapsed += time.perf_counter() - start
            self.attempted += 1
            problem = self._check(step, code, captured.getvalue())
            if problem:
                self.failures.append(f"{step.command} -> {step.out}: {problem}")
        return elapsed

    def _check(self, step, code, output: str) -> str | None:
        if code != 0:
            return f"exit {code}: {output.strip()}"
        out = self.work / step.out
        hashes = _tree_hashes(out)
        first = self.reference.setdefault(step.out, hashes)
        if hashes != first:
            changed = sorted(n for n in set(first) | set(hashes)
                             if first.get(n) != hashes.get(n))
            return f"artifacts differ from the first pass: {changed}"
        return check_outputs(step, out)


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    outdir = RESULTS / name
    work = outdir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    plan = generate(name, seed, work)
    inputs_s = time.perf_counter() - start

    setup_s = None if trace else measure_setup()
    runner = Runner(cli, plan, work)
    tracer = Tracer() if trace else None
    spans_file = outdir / "spans.jsonl"
    if trace:
        spans_file.unlink(missing_ok=True)
    plain, traced, layer_values = [], [], []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        start = time.perf_counter()
        while True:
            if tracer is None or len(traced) == len(plain):
                plain.append(runner.run_pass())
                last = plain[-1]
            else:
                tracer.reset()
                tracer.install()
                try:
                    traced.append(runner.run_pass())
                finally:
                    tracer.uninstall()
                last = traced[-1]
                layer_values.append(tracer.metrics())
                tracer.write_spans(spans_file, len(plain) + len(traced) - 1)
            # stop before a pass that would end after the measuring window
            elapsed = time.perf_counter() - start
            if len(plain) + len(traced) >= MIN_PASSES and elapsed + last > seconds:
                break
    finally:
        os.chdir(cwd)
    shutil.rmtree(work, ignore_errors=True)

    pass_s = statistics.median(plain)
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "nproc": NPROC,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        },
        "sizes": plan.sizes,
        "samples_per_pass": plan.samples_per_pass,
        "inputs_s": inputs_s,
        "pass_times_s": plain,
        "traced_pass_times_s": traced,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
    }
    if trace:
        metrics = {m: statistics.median([v[m] for v in layer_values]) for m in METRICS}
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - pass_s
        units = {m: unit(m) for m in metrics}
        _write_self_time_table(outdir / "self_time.tsv", metrics)
    else:
        metrics = {
            "pass_s": pass_s,
            "samples_per_s": plan.samples_per_pass / pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
            "success_rate": 1.0 - len(runner.failures) / runner.attempted,
        }
        units = {"pass_s": "s", "samples_per_s": "samples/s",
                 "peak_rss_mb": "MB", "setup_s": "s", "success_rate": "ratio"}
    result["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    (outdir / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    return result


def _write_self_time_table(path: Path, metrics: dict) -> None:
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    lines = ["layer\tself_s\tshare"]
    for layer in sorted(LAYERS, key=lambda l: -metrics[f"{l}.self_s"]):
        value = metrics[f"{layer}.self_s"]
        lines.append(f"{layer}\t{value:.4f}\t{value / total:.3f}")
    lines.append(f"total\t{total:.4f}\t1.000")
    lines.append(f"tracing overhead\t{metrics['trace.overhead_s']:.4f}\t")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  inputs generated in {result['inputs_s']:.2f} s")
    print("  environment: " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for part, sizes in result["sizes"].items():
        print(f"  sizes of {part}: " + "  ".join(f"{k} {v}" for k, v in sizes.items()))
    print(f"  recording samples loaded per pass: {result['samples_per_pass']}")
    print(f"  passes: {len(result['pass_times_s'])} untraced, "
          f"{len(result['traced_pass_times_s'])} traced; pass_s is their median")
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.4f}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    if result["trace"]:
        table = RESULTS / result["workload"] / "self_time.tsv"
        print(f"  self time by layer ({table.relative_to(ROOT)}):")
        for line in table.read_text().splitlines():
            print("    " + line.replace("\t", "  "))


def _result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_program()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(_result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
