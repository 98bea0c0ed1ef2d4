"""Session fixtures: synthetic walks, pipelines, acceptance reporting."""

from types import SimpleNamespace

import pytest

from gaitpass.cli import main
from gaitpass.ingest import synthesize_walker
from gaitpass.l1g2 import couple, encode_subsystem, fit_local_code, stack_lr
from gaitpass.landmark import partition_cycles, run_statistics, select_landmark


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture(scope="session")
def criterion_log(pytestconfig):
    """Collect one CRITERION line per acceptance check for the summary."""
    lines = pytestconfig._criterion_lines

    def log(tag, status, detail):
        lines.append(f"CRITERION {tag}: {status} - {detail}")

    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def _run_pipeline(walk):
    frame = walk.frame
    left = frame.sensor(frame.sensors[0])
    right = frame.sensor(frame.sensors[1])
    code = fit_local_code(stack_lr(left, right), h=10)
    coupled = couple(
        [encode_subsystem(code, left), encode_subsystem(code, right)],
        labels=[*left.sensors, *right.sensors],
    )
    stats = run_statistics(coupled)
    landmark = select_landmark(stats)
    partition = partition_cycles(stats, landmark)
    return SimpleNamespace(
        walk=walk,
        frame=frame,
        code=code,
        coupled=coupled,
        stats=stats,
        landmark=landmark,
        partition=partition,
    )


@pytest.fixture(scope="session")
def walk_jittered():
    return synthesize_walker(
        seed=1, cycles=50, period_mean=128.0, period_jitter=2.0, sensors=2
    )


@pytest.fixture(scope="session")
def pipeline_jittered(walk_jittered):
    return _run_pipeline(walk_jittered)


@pytest.fixture(scope="session")
def walk_clean():
    return synthesize_walker(
        seed=2, cycles=20, period_mean=96.0, period_jitter=0.0, sensors=2
    )


@pytest.fixture(scope="session")
def pipeline_clean(walk_clean):
    return _run_pipeline(walk_clean)


CLEAN_WALK_CFG = """\
dataset:
  kind: synthetic
  cycles: 20
  period_mean: 96.0
  period_jitter: 0.0
  sensors: 2
  subjects:
    clean: {seed: 2}
passtensor:
  bins: 16
"""

PAIR_CFG = """\
dataset:
  kind: synthetic
  cycles: 10
  period_mean: 64.0
  period_jitter: 1.0
  subjects:
    ann: {seed: 11}
    bob: {seed: 12}
pssa:
  coverage: 0.95
  segment_length: 100
"""


@pytest.fixture(scope="session")
def persisted_files(tmp_path_factory):
    """Paths of every persisted format, as the CLI writes them."""
    root = tmp_path_factory.mktemp("persisted")
    for command, text in (("passtensor-build", CLEAN_WALK_CFG),
                          ("pssa-train", PAIR_CFG)):
        cfg = root / f"{command}.yaml"
        cfg.write_text(text)
        assert main([command, "-c", str(cfg), "-o", str(root)]) == 0
    return {
        name: root / name
        for name in ("passtensor.txt", "codebook_feet.txt", "model.txt",
                     "coding.txt")
    }
