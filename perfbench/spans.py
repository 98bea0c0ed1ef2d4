"""Spans around gaitpass's public functions, recorded from outside the program.

``Tracer.install()`` replaces every public module-level function of each
gaitpass module with a timing wrapper, both where the module defines it
and wherever another gaitpass module imported it by name, so internal
calls (``partition_cycles -> run_statistics``, ``fit_local_code ->
cluster_columns``, ``encode_subsystem -> assign_nearest``) are caught.
``RunConfig``'s accessors and the CLI's frame loader and artifact writer
are wrapped as well.  ``uninstall()`` puts the originals back.

Spans (name, layer, start, end, parent) stay in memory until the caller
writes them out.  A layer is the module that defines the function; its
self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

LAYERS = (
    "cli", "config", "ingest", "symbolic", "complexity", "hca", "l1g2",
    "landmark", "passtensor", "pssa", "svgfig",
)

# SVG element builders run once per drawn shape; wrapping them would cost
# more than they do, so their time stays in the caller's self time.
UNWRAPPED = {"svgfig.rect", "svgfig.text", "svgfig.polyline"}
CLI_FUNCTIONS = ("_load_frames", "_write_run")

# Inclusive time of the outermost span among these functions.
TIMED = {
    "hca.fit_s": {"hca.cluster_columns"},
    "hca.assign_s": {"hca.assign_nearest"},
    "passtensor.build_s": {"passtensor.build_passtensor"},
    "passtensor.io_s": {
        "passtensor.passtensor_to_text", "passtensor.passtensor_from_text",
        "passtensor.load_passtensor", "passtensor.save_passtensor",
    },
    "passtensor.compare_s": {"passtensor.compare_passtensors"},
    "passtensor.render_s": {"passtensor.render_rings", "passtensor.render_cylinder"},
    "pssa.state_table_s": {"pssa.build_state_table"},
    "pssa.proportions_s": {"pssa.build_proportion_matrix", "pssa.segment_proportions"},
    "pssa.train_s": {"pssa.train_key_pss"},
    "pssa.classify_s": {"pssa.classify_matrix", "pssa.classify_segment"},
    "complexity.lz76_s": {"complexity.lz76_complexity"},
    "cli.write_s": {"cli._write_run"},
    "cli.load_frames_s": {"cli._load_frames"},
}

COUNTERS = (
    "hca.fits", "hca.fit_columns", "hca.dist_bytes_computed", "hca.assign_columns", "l1g2.codebook_refits",
    "landmark.run_statistics_calls", "landmark.runs", "passtensor.bytes",
    "ingest.bytes_parsed", "ingest.samples", "pssa.rows",
    "complexity.lz76_symbols", "cli.bytes_written",
)

METRICS = (
    tuple(f"{layer}.self_s" for layer in LAYERS)
    + tuple(TIMED)
    + COUNTERS
    + ("hca.linkages_per_matrix",)
    + tuple(f"{layer}.errors" for layer in LAYERS)
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "bytes"
    return "count"


@dataclass
class Span:
    id: int
    parent: int
    name: str
    layer: str
    start: float
    end: float
    error: bool


def _cluster_columns(tracer, bound, result):
    matrix = bound.arguments["matrix"]
    n = matrix.shape[1]
    tracer.counts["hca.fits"] += 1
    tracer.counts["hca.fit_columns"] += n
    if n > 1:
        # what scipy's linkage allocates for the condensed distance matrix,
        # computed from N, not measured
        tracer.counts["hca.dist_bytes_computed"] += 8 * n * (n - 1) // 2
        digest = hashlib.sha1(memoryview(matrix.tobytes())).hexdigest()
        key = (digest, matrix.shape, bound.arguments["standardize"])
        tracer.linkages[key] += 1


def _assign_nearest(tracer, bound, result):
    tracer.counts["hca.assign_columns"] += result.shape[0]


def _fit_local_code(tracer, bound, result):
    code_id = result.code_book_id
    if code_id in tracer.code_books:
        tracer.counts["l1g2.codebook_refits"] += 1
    tracer.code_books.add(code_id)


def _run_statistics(tracer, bound, result):
    tracer.counts["landmark.run_statistics_calls"] += 1
    tracer.counts["landmark.runs"] += len(result.run_starts)


def _passtensor_to_text(tracer, bound, result):
    tracer.counts["passtensor.bytes"] += len(result)


def _passtensor_from_text(tracer, bound, result):
    tracer.counts["passtensor.bytes"] += len(bound.arguments["text"])


def _load_recording(tracer, bound, result):
    tracer.counts["ingest.bytes_parsed"] += Path(bound.arguments["path"]).stat().st_size
    tracer.counts["ingest.samples"] += result.n_samples


def _synthesize_walker(tracer, bound, result):
    tracer.counts["ingest.samples"] += result.frame.n_samples


def _build_proportion_matrix(tracer, bound, result):
    tracer.counts["pssa.rows"] += result.n_rows


def _lz76(tracer, bound, result):
    tracer.counts["complexity.lz76_symbols"] += len(bound.arguments["seq"])


def _write_run(tracer, bound, result):
    tracer.counts["cli.bytes_written"] += sum(
        len(text.encode()) for text in bound.arguments["artifacts"].values()
    )


HOOKS = {
    "hca.cluster_columns": _cluster_columns,
    "hca.assign_nearest": _assign_nearest,
    "l1g2.fit_local_code": _fit_local_code,
    "landmark.run_statistics": _run_statistics,
    "passtensor.passtensor_to_text": _passtensor_to_text,
    "passtensor.passtensor_from_text": _passtensor_from_text,
    "ingest.load_marea": _load_recording,
    "ingest.load_hugadb": _load_recording,
    "ingest.synthesize_walker": _synthesize_walker,
    "pssa.build_proportion_matrix": _build_proportion_matrix,
    "complexity.lz76_complexity": _lz76,
    "cli._write_run": _write_run,
}


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.linkages: Counter = Counter()
        self.code_books: set[str] = set()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = Span(
                    span_id, parent, name, layer, start, end, failed
                )
                if failed:
                    tracer.counts[f"{layer}.errors"] += 1
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every loaded gaitpass module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import gaitpass.cli as cli
        from gaitpass.config import RunConfig

        modules = {
            name: sys.modules[f"gaitpass.{name}"] for name in LAYERS
        }
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[fn] = self._wrap(fn, name, layer)
        for attr in CLI_FUNCTIONS:
            fn = getattr(cli, attr)
            wrappers[fn] = self._wrap(fn, f"cli.{attr}", "cli")

        namespaces = list(modules.values()) + [sys.modules["gaitpass"]]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        self._patch(cli, "COMMANDS", {
            command: wrappers[fn] for command, fn in cli.COMMANDS.items()
        })
        for attr, fn in list(vars(RunConfig).items()):
            if inspect.isfunction(fn) and not attr.startswith("_"):
                wrapped = self._wrap(fn, f"config.RunConfig.{attr}", "config")
                self._patch(RunConfig, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        return [span for span in self.spans if span is not None]

    def self_times(self) -> dict[str, float]:
        spans = self.finished_spans()
        child = Counter()
        for span in spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in spans:
            totals[span.layer] += span.end - span.start - child[span.id]
        return totals

    def _outermost(self, names: set[str]) -> float:
        spans = {span.id: span for span in self.finished_spans()}
        total = 0.0
        for span in spans.values():
            if span.name not in names:
                continue
            parent = span.parent
            while parent >= 0 and spans[parent].name not in names:
                parent = spans[parent].parent
            if parent < 0:
                total += span.end - span.start
        return total

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the pass recorded since ``reset()``."""
        values = {f"{layer}.self_s": t for layer, t in self.self_times().items()}
        for metric, names in TIMED.items():
            values[metric] = self._outermost(names)
        for counter in COUNTERS:
            values[counter] = self.counts[counter]
        values["hca.linkages_per_matrix"] = max(self.linkages.values(), default=0)
        for layer in LAYERS:
            values[f"{layer}.errors"] = self.counts[f"{layer}.errors"]
        return values

    def write_spans(self, path: Path, pass_index: int) -> None:
        with open(path, "a") as out:
            for span in self.finished_spans():
                out.write(json.dumps({
                    "pass": pass_index, "id": span.id, "parent": span.parent,
                    "name": span.name, "layer": span.layer,
                    "start": span.start, "end": span.end, "error": span.error,
                }) + "\n")

