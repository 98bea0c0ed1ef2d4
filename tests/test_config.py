"""Config loading, typed getters, overrides, hashing."""

import ast
from pathlib import Path

import pytest

from gaitpass import cli
from gaitpass.config import KNOWN_KEYS, RunConfig, file_sha256, load_config
from gaitpass.errors import ConfigError


def write_config(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return path


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
    def test_dotted_lookup(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SAMPLE))
        assert cfg.get_str("dataset.kind") == "synthetic"
        assert cfg.get_float("coding.alpha") == 0.3
        assert cfg.get_int("cycles.min_runs") == 3
        assert cfg.get_list("window") == [0, 300]
        assert cfg.get_map("dataset.subjects") == {"walker-1": {"seed": 1}}

    def test_missing_key_names_path(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SAMPLE))
        with pytest.raises(ConfigError, match=r"pssa\.n_states: required"):
            cfg.get_int("pssa.n_states")
        assert cfg.get_int("pssa.n_states", default=300) == 300
        assert cfg.get_str("render.view", default=None) is None

    def test_type_errors_name_path(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SAMPLE))
        with pytest.raises(ConfigError, match="dataset.kind: expected an integer"):
            cfg.get_int("dataset.kind")
        with pytest.raises(ConfigError, match="coding.alpha: expected a string"):
            cfg.get_str("coding.alpha")
        with pytest.raises(ConfigError, match="expected true/false"):
            cfg.get_bool("cycles.min_runs")
        with pytest.raises(ConfigError, match="expected a list"):
            cfg.get_list("coding")
        with pytest.raises(ConfigError, match="expected a mapping"):
            cfg.get_map("window")

    def test_bool_is_not_an_int(self):
        cfg = RunConfig({"cycles": {"min_runs": True}})
        with pytest.raises(ConfigError, match="expected an integer"):
            cfg.get_int("cycles.min_runs")

    def test_choice_and_range_enforcement(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SAMPLE))
        assert cfg.get_str("dataset.kind", choices=("synthetic", "marea")) \
            == "synthetic"
        with pytest.raises(ConfigError, match="not one of"):
            cfg.get_str("dataset.kind", choices=("marea", "hugadb"))
        with pytest.raises(ConfigError, match="below minimum"):
            cfg.get_int("cycles.min_runs", lo=10)
        with pytest.raises(ConfigError, match="above maximum"):
            cfg.get_int("cycles.min_runs", hi=2)

    def test_unknown_sections_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig({"dataset": {}, "typo_section": 1})
        with pytest.raises(ConfigError, match="root must be a mapping"):
            RunConfig([1, 2])


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
        assert RunConfig({"hca": None}).get_int("hca.h_feet", 10) == 10

    def test_subjects_are_free_form(self):
        cfg = RunConfig({"dataset": {"subjects": {"a": {"seed": 1, "any": 2}}}})
        assert cfg.get_map("dataset.subjects")["a"]["any"] == 2

    def test_schema_lists_exactly_the_keys_the_cli_reads(self):
        # A key dropped from cli.py but left in KNOWN_KEYS would be
        # accepted and silently ignored.
        tree = ast.parse(Path(cli.__file__).read_text())
        first_arguments = [
            node.args[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("get_")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "config"
        ]
        assert all(isinstance(arg, ast.Constant) for arg in first_arguments)
        read = {arg.value for arg in first_arguments}
        known = {
            section if keys is None else f"{section}.{key}"
            for section, keys in KNOWN_KEYS.items()
            for key in keys or (None,)
        }
        assert read == known


class TestOverrides:
    def test_override_replaces_and_creates(self, tmp_path):
        path = write_config(tmp_path, SAMPLE)
        cfg = load_config(
            path,
            overrides=["coding.alpha=0.1", "pssa.n_states=500",
                       "hca.standardize=false"],
        )
        assert cfg.get_float("coding.alpha") == 0.1
        assert cfg.get_int("pssa.n_states") == 500
        assert cfg.get_bool("hca.standardize") is False

    def test_override_values_parse_as_yaml(self, tmp_path):
        path = write_config(tmp_path, SAMPLE)
        cfg = load_config(path, overrides=["window=[10, 20]",
                                           "dataset.kind=marea"])
        assert cfg.get_list("window") == [10, 20]
        assert cfg.get_str("dataset.kind") == "marea"

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


def test_file_sha256(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"gait")
    import hashlib

    assert file_sha256(path) == hashlib.sha256(b"gait").hexdigest()
