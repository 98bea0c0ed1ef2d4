"""Multi-file datasets load in forked workers, one per usable core.

The pooled load must give the frames the in-process loop gives, keep them
read-only, report the first bad file in config order, and leave no process
behind, whether the command succeeds or fails.
"""

import json
import multiprocessing
import os
import signal

import pytest

from gaitpass import cli
from gaitpass.cli import main
from gaitpass.config import load_config
from gaitpass.ingest import HUGADB_SENSORS, synthesize_walker

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pooled load needs the fork start method",
)

NAMES = ("ann", "bob", "cat")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test whose pool hangs, instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("the command was still running after 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def walker_rows(seed, sensors):
    walk = synthesize_walker(seed=seed, cycles=10, period_mean=64.0,
                             period_jitter=1.0, sensors=sensors)
    return [" ".join(f"{v:.6f}" for v in sample) for sample in walk.frame.values.T]


def marea_dataset(tmp_path, names=NAMES):
    subjects = ""
    for seed, name in enumerate(names, start=11):
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(walker_rows(seed, 4)) + "\n")
        subjects += f"    {name}: {path}\n"
    return ("dataset:\n  kind: marea\n  sensors: [Wrist, LF]\n  subjects:\n"
            + subjects + "pssa:\n  coverage: 0.95\n  segment_length: 100\n")


def hugadb_dataset(tmp_path):
    header = " ".join(f"acc_{loc}_{axis}" for loc in HUGADB_SENSORS for axis in "xyz")
    subjects = ""
    for seed, name in enumerate(NAMES, start=11):
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join([header] + walker_rows(seed, 6)) + "\n")
        subjects += f"    {name}: {path}\n"
    return "dataset:\n  kind: hugadb\n  subjects:\n" + subjects


def write_config(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return str(path)


@pytest.fixture
def cores(monkeypatch):
    """Set the usable-core count the loader sees."""
    def set_cores(n):
        monkeypatch.setattr(cli, "_usable_cores", lambda: n)
    return set_cores


@pytest.fixture
def loader_pids(monkeypatch, tmp_path):
    """Record the process id of every MAREA and HuGaDB file load."""
    log = tmp_path / "pids.log"

    def recording(load):
        def wrapped(*args):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return load(*args)
        return wrapped

    monkeypatch.setattr(cli, "load_marea", recording(cli.load_marea))
    monkeypatch.setattr(cli, "load_hugadb", recording(cli.load_hugadb))

    def pids():
        found = [int(line) for line in log.read_text().split()]
        log.unlink()
        return found
    return pids


@pytest.mark.parametrize("dataset", [marea_dataset, hugadb_dataset])
def test_pooled_load_equals_in_process_load(
    dataset, tmp_path, cores, loader_pids
):
    config = load_config(write_config(tmp_path, dataset(tmp_path)))
    cores(2)
    pooled, pooled_inputs = cli._load_frames(config)
    pooled_pids = loader_pids()
    cores(1)
    serial, serial_inputs = cli._load_frames(config)
    serial_pids = loader_pids()

    assert len(pooled_pids) == len(serial_pids) == len(NAMES)
    assert os.getpid() not in pooled_pids
    assert len(set(pooled_pids)) <= 2
    assert set(serial_pids) == {os.getpid()}
    assert pooled_inputs == serial_inputs == [
        str(tmp_path / f"{name}.txt") for name in NAMES
    ]
    assert list(pooled) == list(serial) == list(NAMES)
    for name in NAMES:
        a, b = pooled[name], serial[name]
        assert a.values.dtype == b.values.dtype
        assert a.values.tobytes() == b.values.tobytes()
        assert a.values.shape == b.values.shape
        assert a.channels == b.channels
        assert a.sample_rate_hz == b.sample_rate_hz
        assert a.values.flags.writeable is False
        assert b.values.flags.writeable is False
    assert pooled["ann"].n_samples == 641


def test_one_file_loads_in_process(tmp_path, cores, loader_pids):
    config = load_config(write_config(tmp_path, marea_dataset(tmp_path, ["ann"])))
    cores(2)
    frames, _ = cli._load_frames(config)
    assert loader_pids() == [os.getpid()]
    assert frames["ann"].values.flags.writeable is False


def test_train_and_classify_leave_no_process(tmp_path, cores):
    cores(2)
    text = marea_dataset(tmp_path)
    model = tmp_path / "model"
    assert main(["pssa-train", "-c", write_config(tmp_path, text),
                 "-o", str(model)]) == 0
    assert multiprocessing.active_children() == []
    text += f"  model: {model / 'model.txt'}\n  coding: {model / 'coding.txt'}\n"
    assert main(["pssa-classify", "-c", write_config(tmp_path, text),
                 "-o", str(tmp_path / "cls")]) == 0
    assert multiprocessing.active_children() == []


def test_outputs_equal_in_process_outputs(tmp_path, cores):
    text = write_config(tmp_path, marea_dataset(tmp_path))
    digests = []
    for n in (2, 1):
        cores(n)
        out = tmp_path / f"cores{n}"
        assert main(["pssa-train", "-c", text, "-o", str(out)]) == 0
        digests.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert digests[0] == digests[1]


def one_error(capfd, kind, code):
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1, err
    message = json.loads(err[0])
    assert message["error"] == kind
    assert message["exit_code"] == code
    return message["message"]


def test_first_bad_file_in_config_order_is_named(tmp_path, cores, capfd):
    # bob's table breaks on its last line; cat is missing, which its worker
    # finds at once, but bob comes first in the config
    text = marea_dataset(tmp_path)
    bob = tmp_path / "bob.txt"
    bob.write_text(bob.read_text() + "1 2 3\n")
    (tmp_path / "cat.txt").unlink()
    cores(3)
    out = tmp_path / "out"
    assert main(["pssa-train", "-c", write_config(tmp_path, text),
                 "-o", str(out)]) == 3
    message = one_error(capfd, "data", 3)
    assert message.startswith(f"{bob}: line ")
    assert message.endswith(": 3 columns, expected 12")
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_entries_checked_before_any_file_is_read(tmp_path, cores, capfd):
    text = ("dataset:\n  kind: marea\n  subjects:\n"
            f"    ann: {tmp_path / 'missing.txt'}\n    bob: 5\n")
    cores(2)
    assert main(["pssa-train", "-c", write_config(tmp_path, text),
                 "-o", str(tmp_path / "out")]) == 2
    assert "dataset.subjects.bob" in one_error(capfd, "config", 2)


def test_dead_worker_exits_3(tmp_path, cores, monkeypatch, capfd):
    parent = os.getpid()

    def dying(path, sensors):
        assert os.getpid() != parent, "loaded in the parent process"
        os._exit(9)

    monkeypatch.setattr(cli, "load_marea", dying)
    cores(2)
    out = tmp_path / "out"
    assert main(["pssa-train", "-c", write_config(tmp_path, marea_dataset(tmp_path)),
                 "-o", str(out)]) == 3
    # one JSON line is all stderr holds: no traceback from either process
    message = one_error(capfd, "data", 3)
    assert message.startswith("dataset.subjects: ")
    assert "marea" in message
    assert not out.exists()
    assert multiprocessing.active_children() == []
