"""Config loading, the key table, overrides, hashing."""

import ast
import hashlib
import math
from pathlib import Path

import pytest

from gaitpass import cli
from gaitpass.config import KEYS, REQUIRED, RunConfig, load_config
from gaitpass.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return path


def nested(path, value):
    """A config mapping holding ``value`` at dotted ``path``."""
    section, _, key = path.partition(".")
    return {section: {key: value} if key else value}


def refused(path, value):
    with pytest.raises(ConfigError) as err:
        RunConfig(nested(path, value))
    return str(err.value)


SAMPLE = """\
dataset:
  kind: synthetic
  subjects:
    walker-1: {seed: 1}
window: [0, 300]
coding:
  alpha: 0.3
  beta: 0.7
cycles:
  min_runs: 3
output_dir: out
"""


class TestGetters:
    """Reading checked values with ``config["section.key"]``."""

    def test_dotted_lookup(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SAMPLE))
        assert cfg["dataset.kind"] == "synthetic"
        assert cfg["coding.alpha"] == 0.3
        assert cfg["cycles.min_runs"] == 3
        assert cfg["window"] == [0, 300]
        assert cfg["dataset.subjects"] == {"walker-1": {"seed": 1}}
        assert cfg["hca.h_feet"] == 10  # unset: the table's default
        # an integer given for a float key reads as a float
        period = RunConfig(nested("dataset.period_mean", 64))["dataset.period_mean"]
        assert type(period) is float and period == 64.0

    def test_missing_key_names_path(self, tmp_path):
        # a required key is refused only when a command reads it
        cfg = load_config(write_config(tmp_path, SAMPLE))
        with pytest.raises(ConfigError, match=r"pssa\.model: required key is missing"):
            cfg["pssa.model"]
        assert cfg["pssa.n_states"] is None
        assert cfg["render.ring_cycle"] is None
        assert RunConfig(nested("pssa.model", None))["pssa.n_states"] is None

    def test_type_errors_name_path(self):
        for path, value, message in TYPE_ERRORS:
            assert refused(path, value).startswith(message)

    def test_bool_is_not_an_int(self):
        assert "expected an integer" in refused("cycles.min_runs", True)
        assert "expected an integer" in refused("window", [True, 600])
        assert "expected a number" in refused("coding.alpha", False)

    def test_choice_and_range_enforcement(self):
        for path, value, message in RANGE_ERRORS:
            assert refused(path, value).startswith(f"{path}: {message}")

    def test_unknown_sections_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig({"dataset": {}, "typo_section": 1})
        with pytest.raises(ConfigError, match="root must be a mapping"):
            RunConfig([1, 2])


TYPE_ERRORS = [
    ("dataset.kind", 3, "dataset.kind: expected a string, got 3"),
    ("cycles.min_runs", "x", "cycles.min_runs: expected an integer"),
    ("cycles.min_runs", 2.0, "cycles.min_runs: expected an integer"),
    ("coding.alpha", "x", "coding.alpha: expected a number"),
    ("window", 5, "window: expected a list, got 5"),
    ("window", [5], "window: expected 2 values, got [5]"),
    ("window", [0, "x"], "window: expected an integer, got 'x'"),
    ("dataset.subjects", [1], "dataset.subjects: expected a mapping"),
    ("cycles.extra", [1], "cycles.extra: expected a string, got 1"),
    ("passtensor.compare", [1, 2], "passtensor.compare: expected a string"),
    ("dataset.sensors", "LF", "dataset.sensors: expected a count or a list"),
    ("complexity.h_sweep", [], "complexity.h_sweep: expected at least 1 values"),
]
RANGE_ERRORS = [
    ("dataset.kind", "bogus", "'bogus' not one of"),
    ("render.view", "sideways", "'sideways' not one of"),
    ("cycles.min_runs", 0, "0 below minimum 1"),
    ("hca.max_fit_columns", 7, "7 below minimum 8"),
    ("passtensor.bins", 7, "7 below minimum 8"),
    ("complexity.h_sweep", [3, 0], "0 below minimum 1"),
    ("window", [-1, 5], "-1 below minimum 0"),
    ("dataset.noise", math.inf, "expected a finite number, got inf"),
]


# Open bounds refuse their edge; inclusive ones take it.
@pytest.mark.parametrize("path, value", [
    ("coding.alpha", 0.5), ("coding.alpha", 0), ("coding.beta", 0.5),
    ("coding.beta", 1.0), ("pssa.coverage", 0), ("pssa.coverage", 1.0000001),
])
def test_open_bound_edges_refused(path, value):
    assert refused(path, value).startswith(f"{path}: ")


@pytest.mark.parametrize("path, value", [
    ("pssa.coverage", 1.0), ("dataset.period_jitter", 0.0), ("coding.alpha", 0.499),
    ("hca.max_fit_columns", 65536), ("passtensor.bins", 8),
])
def test_inclusive_bound_edges_accepted(path, value):
    assert RunConfig(nested(path, value))[path] == value


def test_every_default_passes_its_own_key():
    defaults = {
        path: list(key.default) if isinstance(key.default, tuple) else key.default
        for path, key in KEYS.items()
        if key.default is not None and key.default is not REQUIRED
    }
    data = {}
    for path, value in defaults.items():
        section, _, key = path.partition(".")
        if key:
            data.setdefault(section, {})[key] = value
        else:
            data[section] = value
    config = RunConfig(data)
    for path, value in defaults.items():
        assert config[path] == value


class TestSchema:
    def test_unknown_key_in_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown config key hca\.hfeet") as err:
            RunConfig({"hca": {"hfeet": 3}})
        assert "h_feet" in str(err.value)

    def test_misspelt_override_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"coding\.alpah"):
            load_config(write_config(tmp_path, SAMPLE), ["coding.alpah=0.2"])

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="hca: expected a mapping"):
            RunConfig({"hca": 3})
        assert RunConfig({"hca": None})["hca.h_feet"] == 10

    def test_subjects_are_free_form(self):
        cfg = RunConfig({"dataset": {"subjects": {"a": {"seed": 1, "any": 2}}}})
        assert cfg["dataset.subjects"]["a"]["any"] == 2

    def test_keys_a_command_does_not_read_are_checked(self):
        # pssa-classify reads no code-book key, yet a wrong one is refused
        with pytest.raises(ConfigError, match=r"hca\.h_feet: 0 below minimum 1"):
            RunConfig({"pssa": {"model": "m.txt"}, "hca": {"h_feet": 0}})

    def test_schema_lists_exactly_the_keys_the_cli_reads(self):
        # A key the CLI stopped reading but left in the table would be
        # accepted and silently ignored.
        tree = ast.parse(Path(cli.__file__).read_text())
        reads = [
            node.slice
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "config"
        ]
        assert all(isinstance(read, ast.Constant) for read in reads)
        assert {read.value for read in reads} == set(KEYS)

    def test_readme_names_every_key(self):
        text = README.read_text()
        reference = text.split("## Config reference", 1)[1].split("\n## ", 1)[0]
        missing = [path for path in KEYS if f"`{path}`" not in reference]
        assert missing == []


class TestOverrides:
    def test_override_replaces_and_creates(self, tmp_path):
        path = write_config(tmp_path, SAMPLE)
        cfg = load_config(
            path,
            overrides=["coding.alpha=0.1", "pssa.n_states=500", "hca.h_extra=4"],
        )
        assert cfg["coding.alpha"] == 0.1
        assert cfg["pssa.n_states"] == 500
        assert cfg["hca.h_extra"] == 4

    def test_override_values_parse_as_yaml(self, tmp_path):
        path = write_config(tmp_path, SAMPLE)
        cfg = load_config(path, overrides=["window=[10, 20]",
                                           "dataset.kind=marea"])
        assert cfg["window"] == [10, 20]
        assert cfg["dataset.kind"] == "marea"

    def test_override_errors(self, tmp_path):
        path = write_config(tmp_path, SAMPLE)
        with pytest.raises(ConfigError, match="must look like"):
            load_config(path, overrides=["coding.alpha"])
        with pytest.raises(ConfigError, match="is not a mapping"):
            load_config(path, overrides=["coding.alpha.deep=1"])


class TestLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.yaml")

    def test_parse_error_cites_file(self, tmp_path):
        path = write_config(tmp_path, "dataset: [unclosed\n")
        with pytest.raises(ConfigError, match="YAML parse error"):
            load_config(path)

    def test_non_mapping_root(self, tmp_path):
        path = write_config(tmp_path, "- just\n- a list\n")
        with pytest.raises(ConfigError, match="root must be a mapping"):
            load_config(path)

    def test_empty_file_is_empty_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        assert cfg.data == {}

    def test_manifest_parameters_drop_output_dir(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SAMPLE))
        params = cfg.manifest_parameters()
        assert "output_dir" not in params
        assert params["coding"] == {"alpha": 0.3, "beta": 0.7}


def test_config_sha256_is_of_the_bytes_parsed(tmp_path):
    path = write_config(tmp_path, SAMPLE)
    assert load_config(path).sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert RunConfig({}).sha256 is None


@pytest.mark.parametrize("raw", [None, b"dataset:\n  kind: synth\xe9tic\n"],
                         ids=["missing", "not_utf8"])
def test_unreadable_config_names_the_cause(raw, tmp_path):
    path = tmp_path / "run.yaml"
    if raw is not None:
        path.write_bytes(raw)
    with pytest.raises((OSError, UnicodeDecodeError)) as cause:
        path.read_text()
    with pytest.raises(ConfigError) as error:
        load_config(path)
    assert str(error.value) == f"cannot read config {path}: {cause.value}"
