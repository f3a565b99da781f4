import dataclasses
import importlib.util
import json
import multiprocessing
import os
import pathlib
import re
import time
import types

import numpy as np
import pytest
import yaml

import wigs.config
import wigs.geometry
import wigs.harness
from wigs.config import (
    KINDS,
    ExperimentConfig,
    MethodSpec,
    Query,
    config_from_dict,
    config_to_dict,
    default_methods,
    load_config,
    snapshot_json,
    snapshot_to_config,
)
from wigs.data import ColumnMeta, Dataset, PartitionBlock, SplitState, initial_split
from wigs.harness import (
    BLOCK_BYTES,
    pair_blocks,
    resolve_dataset,
    run_block,
    run_experiment,
    run_replication,
    seed_bytes,
)
from wigs.metrics import Trace, correlation_coefficient, hybrid_rmse
from wigs.model import (
    bootstrap_counts,
    cv_rmse,
    fit_bootstrap_committee,
    fit_ridge,
    fold_assignment,
)
from wigs.rng import STREAMS, generator
from wigs.sac import build_state
from wigs.selectors import veto_demo

from test_geometry import cache_of
from test_model import child_seed


def small_config(tmp_path, methods, n=60, replications=2, parallelism=1, base_seed=100):
    return ExperimentConfig(
        dgp="two_regime", n=n, dataset_seed=1,
        methods=methods, replications=replications, base_seed=base_seed,
        parallelism=parallelism, out_dir=str(tmp_path / "record"),
    )


class TestConfig:
    def test_yaml_roundtrip(self, tmp_path):
        text = """
dataset:
  dgp: two_regime
  n: 80
  seed: 3
preprocessing:
  scaling: robust
split:
  initial_fraction: 0.1
model:
  alpha: 0.5
  cv_folds: 3
run:
  replications: 4
  base_seed: 7
  parallelism: 2
  out_dir: out
methods:
  - name: igs
    kind: igs
  - name: wigs_s_0.75
    kind: wigs_static
    w: 0.75
"""
        path = tmp_path / "config.yaml"
        path.write_text(text)
        config = load_config(str(path))
        assert config.dgp == "two_regime" and config.n == 80
        assert config.scaling == "robust"
        assert config.alpha == 0.5 and config.cv_folds == 3
        assert config.methods[1].params["w"] == 0.75
        assert config.replications == 4 and config.base_seed == 7
        assert config == ExperimentConfig(
            dgp="two_regime", n=80, dataset_seed=3, scaling="robust", initial_fraction=0.1,
            alpha=0.5, cv_folds=3, replications=4, base_seed=7, parallelism=2, out_dir="out",
            methods=(MethodSpec("igs", "igs"), MethodSpec("wigs_s_0.75", "wigs_static",
                                                          {"w": 0.75})))

    def test_yaml_defaults_come_from_the_dataclass(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("dataset:\n  dgp: two_regime\n  n: 40\nmodel:\n")
        assert load_config(str(path)) == ExperimentConfig(dgp="two_regime", n=40,
                                                          methods=default_methods())

    @pytest.mark.parametrize("text, message", [
        ("model:\n  alhpa: 0.5\n", "unknown key 'alhpa' in config section 'model'"),
        ("run:\n  replication: 100\n", "unknown key 'replication' in config section 'run'"),
        ("runs:\n  replications: 100\n", "unknown config section 'runs'"),
        ("methods:\n  - name: s\n    kind: wigs_static\n    params: {w: 0.5}\n    c: 1.0\n",
         "s: unknown keys ['c'] beside params"),
    ], ids=["model_key", "run_key", "section", "key_beside_params"])
    def test_yaml_typo_rejected(self, tmp_path, text, message):
        path = tmp_path / "config.yaml"
        path.write_text("dataset:\n  dgp: two_regime\n  n: 40\n" + text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(str(path))

    @pytest.mark.parametrize("text, message", [
        ("- dataset\n- methods\n", "a config file is a mapping of sections, not a list"),
        ("dataset: 3\n", "config section 'dataset' is a mapping of keys, not 3"),
        ("dataset:\n  dgp: two_regime\n  n: 40\nmethods:\n  - kind: gsx\n",
         "methods entry 0 needs a name and a kind: {'kind': 'gsx'}"),
        ("dataset:\n  dgp: two_regime\n  n: 40\nmethods:\n  - name: igs\n    kind: igs\n"
         "  - name: gsx\n", "methods entry 1 needs a name and a kind: {'name': 'gsx'}"),
        ("dataset:\n  dgp: two_regime\n  n: 40\nmethods: gsx\n",
         "config section 'methods' is 'default' or a list of methods, not 'gsx'"),
        ("dataset:\n  dgp: two_regime\n  n: 40\nmethods:\n  - gsx\n",
         "methods entry 0 needs a name and a kind: 'gsx'"),
        ("dataset:\n  dgp: two_regime\n  n: 40\nmethods:\n  - name: g\n    kind: gsx\n"
         "    params: abc\n", "g: params is a mapping, not 'abc'"),
    ], ids=["top_level_list", "scalar_section", "entry_without_name", "entry_without_kind",
            "methods_string", "bare_string_entry", "params_string"])
    def test_yaml_structure_named(self, tmp_path, text, message):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(str(path))

    @pytest.mark.parametrize("value", ["color", "3", "[color, 3]", "{color: 1}"])
    def test_yaml_categorical_columns_must_be_a_list_of_names(self, tmp_path, value):
        path = tmp_path / "config.yaml"
        path.write_text(f"dataset:\n  csv: d.csv\npreprocessing:\n  categorical_columns: {value}\n")
        with pytest.raises(ValueError, match=re.escape(
                "preprocessing.categorical_columns = ") + ".*expected a list of column names"):
            load_config(str(path))
        path.write_text("dataset:\n  csv: d.csv\npreprocessing:\n  categorical_columns: [color]\n")
        assert load_config(str(path)).categorical_columns == ("color",)

    def test_default_methods_battery(self):
        methods = default_methods()
        assert len(methods) == 14
        assert len({m.name for m in methods}) == 14

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=(MethodSpec("igs", "igs"),))  # no dataset
        with pytest.raises(ValueError):
            ExperimentConfig(dgp="two_regime", n=50, methods=())
        with pytest.raises(ValueError):
            ExperimentConfig(dgp="nope", n=50, methods=(MethodSpec("igs", "igs"),))
        for alpha in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                ExperimentConfig(dgp="two_regime", n=50, alpha=alpha,
                                 methods=(MethodSpec("igs", "igs"),))

    def test_generators_are_read_from_one_table(self):
        from wigs.cli import build_parser
        from wigs.data import GENERATORS
        methods = (MethodSpec("igs", "igs"),)
        assert list(GENERATORS) == ["two_regime", "three_regime"]
        for name, sampler in GENERATORS.items():
            config = ExperimentConfig(dgp=name, n=30, dataset_seed=2, methods=methods)
            resolved, raw = resolve_dataset(config), sampler(30, 2)
            assert resolved.name == raw.name == name
            assert resolved.targets.tobytes() == raw.targets.tobytes()
            assert build_parser().parse_args(
                ["synth", "--dgp", name, "--n", "5", "--seed", "0", "--out", "x"]).dgp == name
        for dgp in (["two_regime"], {"two_regime": 1}):
            with pytest.raises(ValueError, match="unknown generator"):
                ExperimentConfig(dgp=dgp, n=30, methods=methods)

    @pytest.mark.parametrize("field, value, message", [
        ("n", 40.5, "generator runs need an integer n >= 2"),
        ("n", float("inf"), "generator runs need an integer n >= 2"),
        ("n", True, "generator runs need an integer n >= 2"),
        ("n", 1, "generator runs need an integer n >= 2"),
        ("replications", 2.5, "replications must be an integer >= 1"),
        ("replications", True, "replications must be an integer >= 1"),
        ("replications", 0, "replications must be an integer >= 1"),
        ("cv_folds", 2.5, "cv_folds must be an integer >= 2"),
        ("cv_folds", float("nan"), "cv_folds must be an integer >= 2"),
        ("parallelism", 1.5, "parallelism must be an integer >= 1"),
        ("parallelism", True, "parallelism must be an integer >= 1"),
    ])
    def test_integer_fields(self, field, value, message):
        settings = {"dgp": "two_regime", "n": 50, "methods": (MethodSpec("igs", "igs"),)}
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(**{**settings, field: value})
        assert ExperimentConfig(**{**settings, field: np.int64(3)})  # numpy integers are integers

    SEED_AND_NAME_CASES = [
        ("base_seed", 1.5, "base_seed must be an integer >= 0"),
        ("base_seed", True, "base_seed must be an integer >= 0"),
        ("base_seed", -1, "base_seed must be an integer >= 0"),
        ("base_seed", 2**128, "base_seed + replications - 1 must lie below 2**128"),
        ("base_seed", 2**130, "base_seed + replications - 1 must lie below 2**128"),
        ("replications", 2**128 + 1, "base_seed + replications - 1 must lie below 2**128"),
        ("dataset_seed", 1.5, "dataset_seed must be an integer >= 0"),
        ("dataset_seed", False, "dataset_seed must be an integer >= 0"),
        ("dataset_seed", -1, "dataset_seed must be an integer >= 0"),
        ("categorical_columns", "color", "expected a list of column names"),
        ("categorical_columns", ["color", 3], "expected a list of column names"),
        ("categorical_columns", 3, "expected a list of column names"),
        ("categorical_columns", {"color": 1}, "expected a list of column names"),
        ("csv_path", pathlib.Path("d.csv"), "csv_path must be a path string or None"),
        ("csv_path", 7, "csv_path must be a path string or None"),
        ("csv_path", ["d.csv"], "csv_path must be a path string or None"),
        ("out_dir", pathlib.Path("out"), "out_dir must be a path string"),
        ("out_dir", 5, "out_dir must be a path string"),
        ("out_dir", None, "out_dir must be a path string"),
        ("alpha", True, "alpha must be positive and finite"),
        ("initial_fraction", True, "initial_fraction must lie in (0, 1)"),
    ]

    @pytest.mark.parametrize("field, value, message", SEED_AND_NAME_CASES)
    def test_seed_and_name_fields_refused_on_every_path(self, tmp_path, field, value, message):
        """The constructor, the snapshot reader and the YAML reader refuse the
        same values with the same error; the YAML reader names its key, and
        refuses a fraction itself before the constructor sees it.  A
        ``csv_path`` row replaces the generator with a CSV source, and a path
        object, which no YAML document holds, skips the YAML reader."""
        source = {"csv_path": "d.csv"} if field == "csv_path" else {"dgp": "two_regime", "n": 50}
        settings = {**source, "methods": (MethodSpec("igs", "igs"),)}
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(**{**settings, field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict({**config_to_dict(ExperimentConfig(**settings)), field: value})
        (section, key), = [(section, key) for section, entries in wigs.config._YAML_FIELDS.items()
                           for key, (name, _) in entries.items() if name == field]
        if isinstance(value, pathlib.PurePath):
            return
        document = {"dataset": {"csv": "d.csv"} if field == "csv_path" else
                    {"dgp": "two_regime", "n": 50}}
        document.setdefault(section, {})[key] = value
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(document))
        if isinstance(value, float):
            message = f"{section}.{key} = {value!r}: not an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(str(path))

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", "0.5", "alpha must be positive and finite"),
        ("initial_fraction", "0.1", "initial_fraction must lie in (0, 1)"),
        ("alpha", 10**400, "alpha must be positive and finite"),
        ("initial_fraction", None, "initial_fraction must lie in (0, 1)"),
    ])
    def test_float_fields_refuse_what_is_no_number(self, field, value, message):
        """A string, None or an int too large for a float is refused by the
        field's own message, on the constructor and the snapshot reader."""
        settings = {"dgp": "two_regime", "n": 50, "methods": (MethodSpec("igs", "igs"),)}
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(**{**settings, field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict({**config_to_dict(ExperimentConfig(**settings)), field: value})

    def test_yaml_float_keys_parse_numeric_strings(self, tmp_path):
        """PyYAML reads ``1e-2`` (no dot) as a string; the float reader parses it."""
        path = tmp_path / "config.yaml"
        path.write_text("dataset:\n  dgp: two_regime\n  n: 40\nmodel:\n  alpha: 1e-2\n"
                        "split:\n  initial_fraction: 2e-1\n")
        assert yaml.safe_load(path.read_text())["model"]["alpha"] == "1e-2"
        config = load_config(str(path))
        assert config.alpha == 0.01 and config.initial_fraction == 0.2

    def test_column_names_read_as_a_tuple(self):
        settings = {"csv_path": "d.csv", "methods": (MethodSpec("igs", "igs"),)}
        config = ExperimentConfig(**settings, categorical_columns=["color", "size"])
        assert config.categorical_columns == ("color", "size")
        assert config == ExperimentConfig(**settings, categorical_columns=("color", "size"))
        assert config_from_dict(config_to_dict(config)) == config
        assert snapshot_to_config(snapshot_json(config)) == config

    @pytest.mark.parametrize("text, message", [
        ("run:\n  replications: .inf\n",
         "run.replications = inf: cannot convert float infinity to integer"),
        ("run:\n  replications: .nan\n", "run.replications = nan: cannot convert float NaN"),
        ("run:\n  replications: 2.5\n", "run.replications = 2.5: not an integer"),
        ("run:\n  parallelism: -.inf\n", "run.parallelism = -inf: cannot convert"),
        ("model:\n  cv_folds: 2.5\n", "model.cv_folds = 2.5: not an integer"),
        ("run:\n  base_seed: many\n", "run.base_seed = 'many': invalid literal for int()"),
    ], ids=["inf", "nan", "fraction", "minus_inf", "cv_folds_fraction", "word"])
    def test_yaml_integer_key_named(self, tmp_path, text, message):
        path = tmp_path / "config.yaml"
        path.write_text("dataset:\n  dgp: two_regime\n  n: 40\n" + text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(str(path))

    def test_yaml_generator_size_must_be_an_integer(self, tmp_path):
        """``dataset.n`` follows the rule of every integer key: an integral
        float reads as its integer, a fraction is named by its key."""
        path = tmp_path / "config.yaml"
        for n, outcome in (("40.5", "dataset.n = 40.5: not an integer"),
                           (".inf", "dataset.n = inf: cannot convert float infinity to integer"),
                           ("40", 40), ("40.0", 40), ("1", "generator runs need an integer n >= 2"),
                           ("true", "generator runs need an integer n >= 2")):
            path.write_text(f"dataset:\n  dgp: two_regime\n  n: {n}\n")
            if isinstance(outcome, int):
                assert load_config(str(path)).n == outcome
            else:
                with pytest.raises(ValueError, match=re.escape(outcome)):
                    load_config(str(path))

    @pytest.mark.parametrize("kind, params, message", [
        ("wigs_static", {}, "static weight must lie in"),
        ("wigs_static", {"w": 2.0}, "static weight must lie in"),
        ("wigs_static", {"w": -0.1}, "static weight must lie in"),
        ("wigs_linear", {"c": 0.0}, "decay constant must be positive"),
        ("wigs_exp", {"c": -1.0}, "decay constant must be positive"),
        ("wigs_mab", {"arms": ()}, "bandit arms must lie in"),
        ("wigs_mab", {"arms": (0.5, 1.5)}, "bandit arms must lie in"),
        ("wigs_mab", {"c_explore": -0.5}, "c_explore must be nonnegative"),
        ("qbc", {"committee_size": 1}, "committee needs at least 2"),
        ("emcm", {"committee_size": 1}, "committee needs at least 2"),
        ("unknown_kind", {}, "unknown method kind 'unknown_kind'"),
        ("wigs_mab", {"c_exploer": 0.5}, "unknown parameter 'c_exploer' for kind 'wigs_mab'"),
        ("wigs_sac", {"state_dim": 7}, "unknown parameter 'state_dim' for kind 'wigs_sac'"),
        ("wigs_sac", {"lr": "3e-4"}, "lr must be a positive number"),
        ("wigs_sac", yaml.safe_load("lr: 3e-4"), "lr must be a positive number"),  # no dot: a str
        ("wigs_sac", {"lr": 0.0}, "lr must be a positive number"),
        ("wigs_sac", {"hidden": 64.5}, "hidden must be an integer >= 1"),
        ("wigs_sac", {"hidden": 0}, "hidden must be an integer >= 1"),
        ("wigs_sac", {"batch_size": True}, "batch_size must be an integer >= 1"),
        ("wigs_sac", {"buffer_capacity": 0}, "buffer_capacity must be an integer >= 1"),
        ("wigs_sac", {"updates_per_step": 0}, "updates_per_step must be an integer >= 1"),
        ("wigs_sac", {"gamma": "0.99"}, "gamma must be a number"),
        ("wigs_sac", {"tau": False}, "tau must be a number"),
        ("qbc", {"committee_size": 2.5}, "committee needs at least 2"),
        ("emcm", {"committee_size": 10.0}, "committee needs at least 2"),
        ("qbc", {"committee_size": "10"}, "committee needs at least 2"),
        ("wigs_mab", {"arms": 0.5}, "bandit arms must lie in"),
        ("wigs_mab", {"c_explore": None}, "c_explore must be nonnegative"),
        ("wigs_linear", {"c": None}, "decay constant must be positive"),
        ("wigs_static", {"w": [0.5]}, "static weight must lie in"),
        ("wigs_mab", yaml.safe_load("arms: [5e-1]"), "bandit arms must lie in"),  # a str
        ("wigs_mab", yaml.safe_load("c_explore: 2e0"), "c_explore must be nonnegative"),
        ("wigs_static", {"w": True}, "static weight must lie in"),
        ("wigs_exp", yaml.safe_load("c: .inf"), "decay constant must be positive"),
        ("wigs_linear", {"c": float("nan")}, "decay constant must be positive"),
        ("wigs_mab", yaml.safe_load("c_explore: .inf"), "c_explore must be nonnegative"),
        ("wigs_mab", {"arms": (0.5, float("nan"))}, "bandit arms must lie in"),
        ("wigs_static", {"w": float("nan")}, "static weight must lie in"),
        ("wigs_sac", yaml.safe_load("gamma: .nan"), "gamma must be a number"),
        ("wigs_sac", yaml.safe_load("tau: .inf"), "tau must be a number"),
        ("wigs_sac", {"lr": float("inf")}, "lr must be a positive number"),
        ("wigs_sac", {"log_std_min": float("-inf")}, "log_std_min must be a number"),
        ("wigs_sac", {"hidden": 10**400}, "hidden must be an integer >= 1"),
        ("qbc", {"committee_size": 10**400}, "committee needs at least 2"),
        ("wigs_exp", {"c": 10**400}, "decay constant must be positive"),
        ("wigs_sac", {"batch_size": 64, "buffer_capacity": 32},
         "batch_size must not exceed buffer_capacity"),
        ("wigs_sac", {"buffer_capacity": 63}, "batch_size must not exceed buffer_capacity"),
        ("wigs_sac", {"batch_size": 10_001}, "batch_size must not exceed buffer_capacity"),
        ("wigs_sac", {"beta1": 1.0}, "beta1 must be a number in [0, 1)"),
        ("wigs_sac", {"beta1": -0.1}, "beta1 must be a number in [0, 1)"),
        ("wigs_sac", {"beta2": 1.0}, "beta2 must be a number in [0, 1)"),
        ("wigs_sac", {"adam_eps": 0.0}, "adam_eps must be a positive number"),
        ("wigs_sac", {"gamma": 1.01}, "gamma must be a number in [0, 1]"),
        ("wigs_sac", {"gamma": -0.5}, "gamma must be a number in [0, 1]"),
        ("wigs_sac", {"tau": 2.0}, "tau must be a number in [0, 1]"),
        ("wigs_sac", {"tau": -1e-9}, "tau must be a number in [0, 1]"),
        ("wigs_sac", {"log_std_min": 2.0}, "log_std_min must lie below log_std_max"),
        ("wigs_sac", {"log_std_min": 0.0, "log_std_max": -1.0},
         "log_std_min must lie below log_std_max"),
        ("wigs_sac", {"alpha_ent": -5.0}, "alpha_ent must be a nonnegative number"),
        ("wigs_sac", {"alpha_ent": -1e-300}, "alpha_ent must be a nonnegative number"),
    ])
    def test_method_validation(self, kind, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MethodSpec("m", kind, params)

    @pytest.mark.parametrize("params", [
        {"batch_size": 32, "buffer_capacity": 32}, {"beta1": 0.0, "beta2": 0.0},
        {"gamma": 0.0, "tau": 1.0}, {"gamma": 1.0, "tau": 0.0},
        {"log_std_min": 1.0, "log_std_max": 1.5}, {"alpha_ent": 0.0}])
    def test_sac_params_at_the_edges_of_their_ranges(self, params):
        assert MethodSpec("m", "wigs_sac", params).settings().items() >= params.items()

    def test_settings_fill_defaults_without_writing_back(self):
        spec = MethodSpec("mab", "wigs_mab", {"c_explore": 0.5})
        assert spec.settings() == {"arms": (0.25, 0.50, 0.75), "c_explore": 0.5}
        assert spec.params == {"c_explore": 0.5}
        assert MethodSpec("sac", "wigs_sac", {"lr": 1e-3}).settings()["updates_per_step"] == 1

    def test_flat_yaml_typo_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("""
dataset:
  dgp: two_regime
  n: 40
methods:
  - name: lin
    kind: wigs_linear
    cc: 2.0
""")
        with pytest.raises(ValueError, match="unknown parameter 'cc' for kind 'wigs_linear'"):
            load_config(str(path))

    def test_snapshot_roundtrip(self, tmp_path):
        config = small_config(tmp_path, (MethodSpec("igs", "igs"),))
        restored = snapshot_to_config(snapshot_json(config))
        assert restored == config

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        config = small_config(tmp_path, (MethodSpec("igs", "igs"),))
        monkeypatch.setenv("WIGS_OUT_DIR", str(tmp_path / "elsewhere"))
        assert config.resolved_out_dir() == str(tmp_path / "elsewhere")


@pytest.fixture(scope="module")
def dataset():
    config = ExperimentConfig(dgp="two_regime", n=60, dataset_seed=1,
                              methods=(MethodSpec("igs", "igs"),))
    return resolve_dataset(config)


class TestRunReplication:
    def test_trace_shape_and_exhaustion(self, dataset):
        trace = run_replication(dataset, MethodSpec("igs", "igs"), seed=5)
        pool_size = 60 - 3  # ceil(0.05 * 60) = 3 labeled
        assert trace.n_iterations == pool_size
        assert trace.rmse[-1] == 0.0
        assert trace.labeled_count[-1] == 60
        assert trace.cc[-1] == 1.0

    def test_same_seed_identical_traces(self, dataset):
        a = run_replication(dataset, MethodSpec("igs", "igs"), seed=5)
        b = run_replication(dataset, MethodSpec("igs", "igs"), seed=5)
        assert np.array_equal(a.rmse, b.rmse)
        assert np.array_equal(a.acquired_idx, b.acquired_idx)

    def test_wigs_one_matches_gsx_order(self):
        config = ExperimentConfig(dgp="two_regime", n=60, dataset_seed=2,
                                  methods=(MethodSpec("igs", "igs"),))
        dataset = resolve_dataset(config)
        for seed in (0, 1):
            gsx = run_replication(dataset, MethodSpec("gsx", "gsx"), seed=seed)
            wigs = run_replication(
                dataset, MethodSpec("w1", "wigs_static", {"w": 1.0}), seed=seed)
            assert np.array_equal(gsx.acquired_idx, wigs.acquired_idx)

    def test_wigs_zero_matches_gsy_order(self):
        config = ExperimentConfig(dgp="two_regime", n=60, dataset_seed=2,
                                  methods=(MethodSpec("igs", "igs"),))
        dataset = resolve_dataset(config)
        gsy = run_replication(dataset, MethodSpec("gsy", "gsy"), seed=3)
        wigs = run_replication(
            dataset, MethodSpec("w0", "wigs_static", {"w": 0.0}), seed=3)
        assert np.array_equal(gsy.acquired_idx, wigs.acquired_idx)

    def test_every_method_kind_runs(self, dataset):
        for kind in KINDS:
            spec = MethodSpec(kind, kind, {"w": 0.5} if kind == "wigs_static" else {})
            trace = run_replication(dataset, spec, seed=2)
            assert trace.rmse[-1] == 0.0, kind
            assert np.all(np.isfinite(trace.rmse))
            recorded = trace.weight[~np.isnan(trace.weight)]
            assert np.all((recorded >= 0.0) & (recorded <= 1.0)), kind
            if KINDS[kind].policy is not None:
                assert len(recorded) == trace.n_iterations, kind

    def test_cache_kinds_share_one_dx_per_dataset(self, monkeypatch):
        calls = []
        real = wigs.geometry.pairwise_distances
        monkeypatch.setattr(wigs.geometry, "pairwise_distances",
                            lambda a, b: calls.append(len(b)) or real(a, b))
        config = ExperimentConfig(dgp="two_regime", n=60, dataset_seed=4,
                                  methods=(MethodSpec("igs", "igs"),))
        dataset = resolve_dataset(config)
        for kind in ("gsx", "egal", "igs"):
            run_replication(dataset, MethodSpec(kind, kind), seed=0)
        assert calls == [60]  # p = 1: the whole (60, 60) matrix in one block, once

    def test_weights_recorded_for_wigs_only(self, dataset):
        igs = run_replication(dataset, MethodSpec("igs", "igs"), seed=2)
        assert np.isnan(igs.weight).all()
        static = run_replication(
            dataset, MethodSpec("w", "wigs_static", {"w": 0.25}), seed=2)
        assert np.isnan(static.weight[0])
        assert np.all(static.weight[1:] == 0.25)


def list_based_replication(dataset, method, seed, initial_fraction=0.05, alpha=0.01,
                           cv_folds=5):
    """The acquisition loop on Python lists of labeled and pool indices, as it
    was before the in-place partition: the oracle for ``run_replication``.

    Its only departure from that loop is the distance state, a one-row
    ``DistanceBlock`` that it builds afresh from the lists after every
    acquisition instead of moving it.
    """
    X, y = dataset.features, dataset.targets
    n_total = dataset.n_samples
    split = initial_split(dataset, initial_fraction, seed)
    labeled = list(split.labeled_idx)
    pool = list(split.pool_idx)
    horizon = len(pool)

    kind = KINDS[method.kind]
    params = method.settings()
    policy = kind.policy(params, seed) if kind.policy else None
    state = kind.setup(dataset, seed) if kind.setup else None

    def fresh_cache():
        lists = SplitState(np.array(labeled), np.array(pool, dtype=np.int64), seed=0)
        return cache_of(dataset, lists)

    rows = {name: [] for name in ("rmse", "cc", "labeled", "acquired", "score", "weight")}

    def record(preds):
        rows["rmse"].append(hybrid_rmse(preds - y[pool], n_total))
        hybrid = y.copy()
        hybrid[pool] = preds
        rows["cc"].append(correlation_coefficient(hybrid, y))
        rows["labeled"].append(len(labeled))

    fits = fit_ridge(X[labeled], y[labeled], alpha)  # a block of one row
    pool_features = X[pool]
    pool_preds = pool_features @ fits.coefficients[0] + fits.intercepts[0]
    record(pool_preds)
    rows["acquired"].append(-1)
    rows["score"].append(np.nan)
    rows["weight"].append(np.nan)
    cache = fresh_cache() if kind.cache else None

    cv_prev = cv_initial = None
    for t in range(horizon):
        weight = None
        if policy is not None:
            reward = context = None
            if kind.cv_reward:
                folds = fold_assignment(len(labeled), cv_folds,
                                        generator(child_seed(seed, "cv", t), "cv"))
                cv_now = cv_rmse(X[labeled], y[labeled], alpha, folds)
                if cv_initial is None:
                    cv_initial = cv_now if cv_now > 0 else 1.0
                if cv_prev is not None:
                    reward = cv_prev - cv_now
                if kind.sac_state:
                    context = build_state(cv_now, cv_initial, t, horizon, y[labeled],
                                          cache.labeled_nn(0))
                cv_prev = cv_now
            weight = policy.step(t, horizon, reward, context)
        committee = None
        if kind.committee:
            child = child_seed(seed, "bootstrap", t)
            counts = bootstrap_counts(len(labeled), [generator(child + i, "bootstrap")
                                                     for i in range(params["committee_size"])])
            committee = fit_bootstrap_committee(X[labeled], y[labeled], alpha, counts)
        result = kind.select(Query(fits, 0, pool_features, pool_preds, y[labeled], cache,
                                   committee, weight, state))

        pos = result.chosen
        ds_idx = pool[pos]
        labeled.append(ds_idx)
        del pool[pos]
        fits = fit_ridge(X[labeled], y[labeled], alpha)
        pool_features = X[pool]
        pool_preds = pool_features @ fits.coefficients[0] + fits.intercepts[0]
        if kind.cache:
            cache = fresh_cache()

        record(pool_preds)
        rows["acquired"].append(ds_idx)
        rows["score"].append(result.score)
        rows["weight"].append(np.nan if weight is None else weight)

    return Trace(
        method=method.name, dataset=dataset.name, seed=int(seed),
        labeled_count=np.array(rows["labeled"], dtype=np.int64),
        rmse=np.array(rows["rmse"]), cc=np.array(rows["cc"]),
        weight=np.array(rows["weight"], dtype=float), score=np.array(rows["score"]),
        acquired_idx=np.array(rows["acquired"], dtype=np.int64),
        wall_ms=np.zeros(len(rows["rmse"])),
    )


def spec_for(kind):
    return MethodSpec(kind, kind, {"w": 0.5} if kind == "wigs_static" else {})


def rows_dataset(features, targets, name="rows"):
    features = np.asarray(features, dtype=float)
    meta = tuple(ColumnMeta(f"x{i}", "continuous") for i in range(features.shape[1]))
    return Dataset(features, np.asarray(targets, dtype=float), meta, name)


@pytest.fixture(scope="module")
def oracle_datasets(dataset):
    rng = np.random.default_rng(33)
    X = rng.normal(size=(50, 3))
    p3 = rows_dataset(X, X @ np.array([1.0, -0.5, 0.25]) + 0.1 * rng.normal(size=50), "p3")
    X = rng.normal(size=(50, 20))  # p = 20: the block predicts with ndarray.dot, the oracle with @
    p20 = rows_dataset(X, np.sin(X[:, 0]) + 0.3 * X[:, 1] + 0.1 * rng.normal(size=50), "p20")
    return {"two_regime": dataset, "p3": p3, "p20": p20}


class TestListOracle:
    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("data", ["two_regime", "p3", "p20"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_field_bit_equal_to_list_loop(self, oracle_datasets, kind, data, seed):
        ds = oracle_datasets[data]
        got = run_replication(ds, spec_for(kind), seed)
        want = list_based_replication(ds, spec_for(kind), seed)
        for field in ("method", "dataset", "seed"):
            assert getattr(got, field) == getattr(want, field)
        for field in ("labeled_count", "rmse", "cc", "weight", "score", "acquired_idx"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def _tracing_module():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library imports only
    return module


def _global_names(code):
    """Global names a function's code reads, nested functions included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


LOOP_SITES = {"initial_split", "fit_ridge", "cv_rmse", "fit_bootstrap_committee", "build_cache",
              "update_after_acquisition", "build_state", "hybrid_rmse", "correlation_coefficient"}


class TestTracerSeesTheLoop:
    """The traced benchmark wraps ``wigs.harness`` globals; the block loop,
    ``run_block`` and the phases of its ``_Block``, must keep calling every
    one of them through that module, or the traced run reads 0.

    The ``select_*`` sites are left out: the kind table calls the selectors
    through ``wigs.config``, so the tracer reads 0 calls there today (the
    FOUND line on ``bench/tracing.py`` in CHANGES.md).
    """

    @pytest.fixture(scope="class")
    def calls(self, dataset):
        loop_names = _global_names(run_block.__code__).union(
            *(_global_names(phase.__code__) for phase in vars(wigs.harness._Block).values()
              if isinstance(phase, types.FunctionType)))
        sites = {attr for _, _, layer_sites in _tracing_module().LAYERS
                 for path, attr in layer_sites
                 if path == "wigs.harness" and attr in loop_names
                 and not attr.startswith("select_")}
        counts = dict.fromkeys(sites, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            for name in sites:
                mp.setattr(wigs.harness, name, counting(name, getattr(wigs.harness, name)))
            for method in default_methods():
                wigs.harness.run_replication(dataset, method, seed=0)
        return counts

    def test_loop_reads_every_traced_site(self, calls):
        assert set(calls) == LOOP_SITES

    @pytest.mark.parametrize("name", sorted(LOOP_SITES))
    def test_site_called_over_default_battery(self, calls, name):
        assert calls[name] >= 1, name


class TestDegenerateRows:
    """Duplicated and identical rows, and more features than rows, go
    through the partition and the cache on purpose, for every kind."""

    @staticmethod
    def run_checked(ds, kind, monkeypatch):
        positions = []
        real = PartitionBlock.acquire

        def checked(parts, chosen):
            acquired = real(parts, chosen)
            assert len(parts.orders) == 1  # the one pair of the replication
            positions.append(int(parts.positions[0]))
            # the partition: labeled, then pool, and each row's features with it
            everything = np.sort(np.concatenate([parts.orders[0, :parts.n_labeled],
                                                 parts.orders[0, parts.n_labeled:]]))
            assert np.array_equal(everything, np.arange(ds.n_samples))
            assert np.array_equal(parts.features[0], ds.features[parts.orders[0]])
            return acquired

        monkeypatch.setattr(PartitionBlock, "acquire", checked)
        trace = run_replication(ds, spec_for(kind), seed=3)
        acquired = trace.acquired_idx[1:]
        assert len(positions) == trace.n_iterations == len(acquired)
        assert len(set(acquired.tolist())) == len(acquired)  # no repeated acquisition
        assert trace.labeled_count[-1] == ds.n_samples
        assert np.isfinite(trace.rmse).all() and trace.rmse[-1] == 0.0
        return positions

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_row_duplicated(self, kind, monkeypatch):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        ds = rows_dataset(np.vstack([X, X]), rng.normal(size=40))
        self.run_checked(ds, kind, monkeypatch)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_all_rows_identical(self, kind, monkeypatch):
        ds = rows_dataset(np.tile([[0.4, -1.1]], (40, 1)), np.linspace(-1.0, 2.0, 40))
        positions = self.run_checked(ds, kind, monkeypatch)
        if kind == "gsx":
            # every dx_min is 0: the tie goes to the lowest pool position
            assert positions == [0] * len(positions)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_more_features_than_rows(self, kind, monkeypatch):
        rng = np.random.default_rng(7)
        ds = rows_dataset(rng.normal(size=(30, 40)), rng.normal(size=30))
        self.run_checked(ds, kind, monkeypatch)


class TestConstantTargets:
    @pytest.mark.parametrize("value", [0.1, 2.0])
    def test_cc_nan_on_every_row(self, value):
        """0.1 centres to rounding noise at N = 80, 2.0 exactly; both are a
        truth of zero variance, so every cc of every kind is NaN."""
        rng = np.random.default_rng(12)
        ds = rows_dataset(rng.normal(size=(80, 2)), np.full(80, value))
        traces = run_block(ds, [(spec, 0) for spec in default_methods()])
        for trace in traces:
            assert np.isnan(trace.cc).all(), trace.method
            assert np.isfinite(trace.rmse).all() and trace.rmse[-1] == 0.0, trace.method


class TestRefusedDatasets:
    """A dataset the loop cannot run is refused before the first
    acquisition, with the same message whatever the kind."""

    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_target(self, kind, cell, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "data.csv"
        rows = [f"{a!r},{b!r},{t!r}" for a, b, t in rng.normal(size=(30, 3)).tolist()]
        rows[6] = rows[6].rsplit(",", 1)[0] + "," + cell
        path.write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
        config = ExperimentConfig(csv_path=str(path), methods=(spec_for(kind),),
                                  out_dir=str(tmp_path / "record"))
        with pytest.raises(ValueError, match=f"non-finite value '{cell}' in column 'y', row 8"):
            run_experiment(config)
        X, y = rng.normal(size=(30, 2)), rng.normal(size=30)
        y[6] = float(cell)
        with pytest.raises(ValueError, match="non-finite feature or target entries"):
            rows_dataset(X, y)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_too_few_rows_for_two_labeled_points(self, kind):
        """N = 4 at the default fraction 0.05 labels ceil(0.2) = 1 point."""
        rng = np.random.default_rng(14)
        ds = rows_dataset(rng.normal(size=(4, 2)), rng.normal(size=4))
        with pytest.raises(ValueError, match="labeled set would have 1 < 2 points"):
            run_replication(ds, spec_for(kind), seed=0)


def per_cell_trace_rows(trace):
    """The rows as they were built before the text came from columns: one
    tuple per row, a numpy scalar read per cell, written by ``_format_rows``."""
    return [(trace.dataset, trace.method, trace.seed, i, int(trace.labeled_count[i]),
             repr(float(trace.rmse[i])), repr(float(trace.cc[i])),
             repr(float(trace.weight[i])), repr(float(trace.score[i])),
             int(trace.acquired_idx[i])) for i in range(len(trace.rmse))]


def per_cell_timing_rows(trace):
    return [(trace.dataset, trace.method, trace.seed, i, repr(float(trace.wall_ms[i])))
            for i in range(len(trace.wall_ms))]


class TestTraceText:
    """``trace_rows`` and ``timing_rows`` give the text ``_format_rows``
    gave for the per-cell rows, byte for byte."""

    @staticmethod
    def assert_same_text(trace):
        assert wigs.harness.trace_rows(trace) == wigs.harness._format_rows(
            per_cell_trace_rows(trace))
        assert wigs.harness.timing_rows(trace) == wigs.harness._format_rows(
            per_cell_timing_rows(trace))

    @pytest.mark.parametrize("dataset_name, method_name", [
        ("plain", "igs"), ('a,"b', 'm"1,2'), ("", "x y"), ("line\nbreak", ",")])
    def test_awkward_names_and_cells(self, dataset_name, method_name):
        cells = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, 0.1 + 0.2,
                          1.7976931348623157e308, -2.5])
        n = len(cells)
        self.assert_same_text(Trace(
            method=method_name, dataset=dataset_name, seed=-3,
            labeled_count=np.arange(2, 2 + n), rmse=cells, cc=cells[::-1].copy(),
            weight=np.roll(cells, 3), score=np.roll(cells, 7),
            acquired_idx=np.array([-1] + list(range(n - 1)), dtype=np.int64),
            wall_ms=np.roll(cells, 1)))

    def test_block_traces(self, dataset):
        for trace in run_block(dataset, [(spec_for(kind), 5) for kind in KINDS]):
            self.assert_same_text(trace)


class TestRunExperiment:
    def test_bookkeeping(self, tmp_path):
        methods = (MethodSpec("igs", "igs"), MethodSpec("gsx", "gsx"))
        config = small_config(tmp_path, methods, n=40, replications=3)
        record = run_experiment(config)
        assert len(record.traces) == 6
        pool_size = 40 - 2
        with open(os.path.join(record.record_dir, "traces.csv")) as fh:
            rows = fh.read().strip().split("\n")
        assert len(rows) == 1 + 6 * (pool_size + 1)  # header + traces

    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        methods = (MethodSpec("igs", "igs"), MethodSpec("passive", "passive"))
        serial = run_experiment(small_config(tmp_path / "s", methods, n=40,
                                             replications=4, parallelism=1))
        parallel = run_experiment(small_config(tmp_path / "p", methods, n=40,
                                               replications=4, parallelism=8))
        with open(os.path.join(serial.record_dir, "traces.csv"), "rb") as fh:
            serial_bytes = fh.read()
        with open(os.path.join(parallel.record_dir, "traces.csv"), "rb") as fh:
            parallel_bytes = fh.read()
        assert serial_bytes == parallel_bytes

    def test_atomic_overwrite_on_rerun(self, tmp_path):
        config = small_config(tmp_path, (MethodSpec("igs", "igs"),), n=40)
        first = run_experiment(config)
        with open(os.path.join(first.record_dir, "traces.csv"), "rb") as fh:
            first_bytes = fh.read()
        second = run_experiment(config)
        with open(os.path.join(second.record_dir, "traces.csv"), "rb") as fh:
            second_bytes = fh.read()
        assert first_bytes == second_bytes
        assert not os.path.exists(os.path.join(second.record_dir, "traces.csv.part"))

    def test_snapshot_replays_byte_identical(self, tmp_path):
        config = small_config(tmp_path, (MethodSpec("igs", "igs"),), n=40)
        record = run_experiment(config)
        with open(os.path.join(record.record_dir, "config.json")) as fh:
            replay_config = snapshot_to_config(fh.read())
        replay_config = config_from_dict(
            {**config_to_dict(replay_config), "out_dir": str(tmp_path / "replay")})
        replay = run_experiment(replay_config)
        with open(os.path.join(record.record_dir, "traces.csv"), "rb") as fh:
            original = fh.read()
        with open(os.path.join(replay.record_dir, "traces.csv"), "rb") as fh:
            replayed = fh.read()
        assert original == replayed

    def test_replication_errors_recorded_and_rest_continue(self, tmp_path, monkeypatch):
        import wigs.harness as harness_module
        real = harness_module.run_block

        def flaky(dataset, pairs, *args, **kwargs):
            if any(seed == 101 for _, seed in pairs):
                raise RuntimeError("synthetic failure")
            return real(dataset, pairs, *args, **kwargs)

        monkeypatch.setattr(harness_module, "run_block", flaky)
        config = small_config(tmp_path, (MethodSpec("igs", "igs"),),
                              n=40, replications=3)
        record = run_experiment(config)
        assert len(record.traces) == 2
        assert len(record.errors) == 1
        assert record.errors[0][:2] == ("igs", 101)
        errors_path = os.path.join(record.record_dir, "errors.csv")
        assert os.path.exists(errors_path)
        with open(errors_path) as fh:
            assert "synthetic failure" in fh.read()

    def test_run_releases_the_distance_matrix(self, tmp_path):
        record = run_experiment(small_config(tmp_path, (MethodSpec("igs", "igs"),), n=40))
        assert wigs.harness._worker_dataset is None
        assert "feature_distances" not in record.dataset.__dict__

    def test_fit_failure_names_the_failing_pairs(self, dataset, monkeypatch):
        """The stacked refit fails as one; the error names the pairs whose
        own fit fails: those of seed 4, whose first labeled row is poisoned."""
        real = wigs.harness.fit_ridge
        n_initial = len(initial_split(dataset, 0.05, 4).labeled_idx)
        poisoned = dataset.features[initial_split(dataset, 0.05, 4).labeled_idx[0]]
        assert not np.array_equal(
            dataset.features[initial_split(dataset, 0.05, 3).labeled_idx[0]], poisoned)

        def fragile(X, y, alpha):
            sets = X if X.ndim == 3 else X[None]
            if X.shape[-2] == n_initial + 3 and any(np.array_equal(x[0], poisoned) for x in sets):
                raise np.linalg.LinAlgError("synthetic singular Gram")
            return real(X, y, alpha)

        monkeypatch.setattr(wigs.harness, "fit_ridge", fragile)
        pairs = [(spec_for("gsx"), 3), (spec_for("igs"), 4), (spec_for("qbc"), 3),
                 (spec_for("passive"), 4)]
        with pytest.raises(RuntimeError,
                           match=r"^model fit failed at iteration 2 of igs/4, passive/4$"):
            run_block(dataset, pairs)

    def test_csv_dataset_source(self, tmp_path):
        from wigs.data import sample_two_regime, save_csv
        csv_path = tmp_path / "data.csv"
        save_csv(sample_two_regime(50, seed=9), csv_path)
        config = ExperimentConfig(
            csv_path=str(csv_path), methods=(MethodSpec("igs", "igs"),),
            replications=1, base_seed=0, out_dir=str(tmp_path / "rec"))
        record = run_experiment(config)
        assert record.dataset.n_samples == 50
        assert record.traces[0].rmse[-1] == 0.0


def assert_same_trace(got, want):
    """Every field but wall_ms, in bits."""
    for field in ("method", "dataset", "seed"):
        assert getattr(got, field) == getattr(want, field)
    for field in ("labeled_count", "rmse", "cc", "weight", "score", "acquired_idx"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def read_bytes(record, name):
    with open(os.path.join(record.record_dir, name), "rb") as fh:
        return fh.read()


class TestBlockInvariance:
    """A seed's trace does not depend on the block it runs in."""

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_alone_in_twenty_and_in_another_block(self, dataset, kind):
        spec = spec_for(kind)
        twenty = run_block(dataset, [(spec, seed) for seed in range(20)])
        other = run_block(dataset, [(spec, seed) for seed in (19, 31, 7, 0, 12)])
        assert [trace.seed for trace in twenty] == list(range(20))
        assert [trace.seed for trace in other] == [19, 31, 7, 0, 12]
        for trace in other:
            alone = run_replication(dataset, spec, trace.seed)
            assert_same_trace(trace, alone)
            if trace.seed < 20:
                assert_same_trace(twenty[trace.seed], alone)

    def test_every_kind_in_one_block(self, dataset):
        """Every kind, a second seed of one kind and a second committee size,
        in one block whose kernel groups interleave in ``pairs``."""
        pairs = [(spec_for(kind), 3) for kind in KINDS]
        pairs.insert(2, (MethodSpec("qbc4", "qbc", {"committee_size": 4}), 5))
        pairs.append((spec_for("wigs_mab"), 8))
        traces = run_block(dataset, pairs)
        assert [(trace.method, trace.seed) for trace in traces] == [
            (spec.name, seed) for spec, seed in pairs]
        for (spec, seed), trace in zip(pairs, traces):
            assert_same_trace(trace, run_replication(dataset, spec, seed))

    def test_runs_cut_by_the_scoring_budget(self, dataset, monkeypatch):
        """A small ``SCORE_BUDGET`` cuts a run of six WiGS rows into groups of
        4 and 2, then 3 and 3, then 2, then rows of their own as P·L grows,
        and every trace is still the trace of its pair alone."""
        sizes = []
        real = wigs.harness.select_stacked

        def recording(dx_pairs, *args):
            sizes.append(len(dx_pairs))
            return real(dx_pairs, *args)

        monkeypatch.setattr(wigs.harness, "SCORE_BUDGET", 700)
        monkeypatch.setattr(wigs.harness, "select_stacked", recording)
        pairs = [(spec_for(kind), seed) for kind in ("igs", "wigs_static", "wigs_linear",
                                                     "wigs_exp", "gsx") for seed in (0, 1)]
        pairs.append((spec_for("wigs_mab"), 2))  # a run of one, after the CV sort
        traces = run_block(dataset, pairs)
        assert sizes[:3] == [2, 4, 2]  # iteration 0, P·L = 57·3: igs, then WiGS
        assert {2, 3, 4} <= set(sizes) and 5 not in sizes
        for (spec, seed), trace in zip(pairs, traces):
            assert_same_trace(trace, run_replication(dataset, spec, seed))

    def test_one_kernel_call_per_group_and_iteration(self, dataset, monkeypatch):
        """One refit for the whole block, one CV call for the CV pairs and one
        committee call per committee size, each over exactly those pairs, and
        one call of each recording site per row and one distance update per
        iteration over the whole block, whatever R is."""
        calls = []

        def counting(name):
            real = getattr(wigs.harness, name)

            def wrapper(X, *args, **kwargs):
                calls.append((name, len(X)))
                return real(X, *args, **kwargs)
            return wrapper

        for name in ("fit_ridge", "cv_rmse", "fit_bootstrap_committee", "hybrid_rmse",
                     "correlation_coefficient", "update_after_acquisition"):
            monkeypatch.setattr(wigs.harness, name, counting(name))
        pairs = [(spec_for("passive"), 0), (spec_for("wigs_mab"), 0), (spec_for("qbc"), 0),
                 (spec_for("wigs_sac"), 1), (spec_for("emcm"), 2),
                 (MethodSpec("qbc4", "qbc", {"committee_size": 4}), 0), (spec_for("igs"), 0)]
        horizon = run_block(dataset, pairs)[0].n_iterations
        # the distance update takes the three cache pairs: wigs_mab, wigs_sac, igs
        assert sorted(set(calls)) == [("correlation_coefficient", 7), ("cv_rmse", 2),
                                      ("fit_bootstrap_committee", 1),
                                      ("fit_bootstrap_committee", 2), ("fit_ridge", 7),
                                      ("hybrid_rmse", 7), ("update_after_acquisition", 3)]
        assert len(calls) == 3 * (horizon + 1) + 3 * horizon + horizon
        assert calls.count(("update_after_acquisition", 3)) == horizon
        calls.clear()
        run_replication(dataset, spec_for("gsx"), 0)
        assert sorted(calls) == sorted([("correlation_coefficient", 1), ("fit_ridge", 1),
                                        ("hybrid_rmse", 1)] * (horizon + 1)
                                       + [("update_after_acquisition", 1)] * horizon)

    def test_block_state_freed_without_the_cycle_collector(self, dataset, monkeypatch):
        """The distance block refers to the partitions and to nothing that
        refers back to it, so a finished block frees its state, the (N, N)
        matrix's users among it, by reference counting alone."""
        import gc
        import weakref

        made = []
        real = wigs.harness.DistanceBlock

        def tracked(*args):
            block = real(*args)
            made.append(weakref.ref(block))
            return block

        monkeypatch.setattr(wigs.harness, "DistanceBlock", tracked)
        gc.disable()
        try:
            run_block(dataset, [(spec_for("igs"), 0), (spec_for("passive"), 1),
                                (spec_for("wigs_sac"), 2)])
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()

    def test_gsy_keeps_no_distance_row(self, dataset):
        """gsy reads its prediction and target rows, not a distance row: a
        block of gsy alone builds no ``DistanceBlock``, and the default
        battery's block keeps nine distance rows, gsx, igs, the six WiGS
        methods and egal, in its first rows."""
        alone = wigs.harness._Block(dataset, [(spec_for("gsy"), 0)], 0.05, 0.01, 5)
        alone.build_caches()
        assert alone.n_caches == 0 and alone.distances is None
        battery = wigs.harness._Block(dataset, [(method, 0) for method in default_methods()],
                                      0.05, 0.01, 5)
        battery.build_caches()
        assert battery.n_caches == len(battery.distances) == 9
        assert all(kind.cache for kind in battery.kinds[:9])
        assert [method.name for method in battery.methods[9:]] == [
            "passive", "gsy", "uncertainty", "qbc", "emcm"]

    def test_traces_csv_same_at_parallelism_one_and_two(self, tmp_path):
        methods = (MethodSpec("gsx", "gsx"), MethodSpec("mab", "wigs_mab"), MethodSpec("qbc", "qbc"))
        serial, parallel = (
            run_experiment(small_config(tmp_path / str(degree), methods, n=40,
                                        replications=20, parallelism=degree))
            for degree in (1, 2))
        assert read_bytes(serial, "traces.csv") == read_bytes(parallel, "traces.csv")


def huge_target_dataset(n=40):
    """Targets near 1e300 (targets are never scaled): the squared residuals overflow."""
    rng = np.random.default_rng(8)
    return rng.uniform(size=(n, 1)), 1e300 * (1.0 + 0.1 * rng.normal(size=n))


STREAM_KINDS = ("qbc", "emcm", "wigs_mab", "wigs_sac")


class TestBatchedStreams:
    """The CV and bootstrap streams are derived a chunk of iterations at a
    time, once per distinct seed of a fit group: every pair still draws the
    streams of numpy's SeedSequence, whatever the chunk and its block."""

    @pytest.mark.parametrize("chunk", [1, 7, wigs.harness.STREAM_CHUNK])
    def test_traces_do_not_depend_on_the_chunk(self, dataset, monkeypatch, chunk):
        monkeypatch.setattr(wigs.harness, "STREAM_CHUNK", chunk)
        pairs = [(spec_for(kind), seed) for kind in STREAM_KINDS for seed in (0, 2**64 + 3)]
        for (spec, seed), trace in zip(pairs, run_block(dataset, pairs)):
            assert_same_trace(trace, list_based_replication(dataset, spec, seed))

    def test_horizon_of_several_default_chunks(self):
        dataset = resolve_dataset(ExperimentConfig(dgp="two_regime", n=150, dataset_seed=2,
                                                   methods=(MethodSpec("igs", "igs"),)))
        pairs = [(spec_for("qbc"), 4), (spec_for("wigs_mab"), 4)]
        traces = run_block(dataset, pairs)
        assert traces[0].n_iterations > 2 * wigs.harness.STREAM_CHUNK
        for (spec, seed), trace in zip(pairs, traces):
            assert_same_trace(trace, list_based_replication(dataset, spec, seed))

    def test_pairs_that_share_a_seed_match_their_runs_alone(self, dataset):
        """qbc, emcm and a second qbc size share seed 0's resample counts,
        wigs_mab and wigs_sac its fold assignments; each gets its trace alone."""
        pairs = [(spec_for("qbc"), 0), (spec_for("emcm"), 0), (spec_for("wigs_mab"), 0),
                 (spec_for("wigs_sac"), 0), (spec_for("qbc"), 1), (spec_for("emcm"), 0),
                 (MethodSpec("qbc4", "qbc", {"committee_size": 4}), 0), (spec_for("wigs_mab"), 0)]
        for (spec, seed), trace in zip(pairs, run_block(dataset, pairs)):
            assert_same_trace(trace, run_replication(dataset, spec, seed))

    def test_no_seed_sequence_after_the_set_up(self, dataset, monkeypatch):
        """A battery block builds numpy SeedSequences for its one-off streams
        (split, sac, passive, egal) while it sets up, and none per iteration."""
        made = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            made.append(kwargs.get("spawn_key"))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        pairs = [(method, seed) for method in default_methods() for seed in (0, 1)]
        wigs.harness._Block(dataset, pairs, 0.05, 0.01, 5)
        set_up = list(made)
        made.clear()
        run_block(dataset, pairs)
        assert made == set_up
        assert {key[0] for key in set_up} == {STREAMS[name]
                                              for name in ("split", "sac", "passive", "egal")}


class TestNonFiniteRecordFails:
    """A prediction or RMSE that is not finite fails on purpose, in one check
    per iteration over the block, naming the pairs and the iteration."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
    def test_block_error_names_the_failing_pairs(self):
        ds = rows_dataset(*huge_target_dataset())
        with pytest.raises(ValueError, match=r"^non-finite predictions or rmse at iteration 0 "
                                             r"of gsx/0, passive/1$"):
            run_block(ds, [(spec_for("gsx"), 0), (spec_for("passive"), 1)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_default_kind_gives_the_same_error_row(self, tmp_path):
        features, targets = huge_target_dataset()
        path = tmp_path / "huge.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y\n")
            fh.writelines(f"{x!r},{y!r}\n" for x, y in zip(features[:, 0].tolist(),
                                                            targets.tolist()))
        methods = default_methods()
        record = run_experiment(ExperimentConfig(
            csv_path=str(path), methods=methods, replications=2, base_seed=0,
            out_dir=str(tmp_path / "record")))
        assert record.traces == ()
        assert [error[:2] for error in record.errors] == [
            (method.name, seed) for method in methods for seed in (0, 1)]
        for method, seed, error in record.errors:
            assert error.rstrip().splitlines()[-1] == (
                f"ValueError: non-finite predictions or rmse at iteration 0 of {method}/{seed}")


class TestBlockBudget:
    """run_experiment cuts the (method, seed) pairs where a block's summed
    estimate would pass BLOCK_BYTES; the cut changes no result."""

    EGAL = MethodSpec("egal", "egal")

    def test_large_n_egal_runs_in_blocks_smaller_than_replications(self):
        per_seed = seed_bytes(10_000, 2, self.EGAL, 5)
        assert per_seed >= 8 * 10_000 ** 2  # the similarity matrix
        pairs = [(self.EGAL, seed) for seed in range(20)]
        blocks = pair_blocks(pairs, [per_seed] * 20, 1)
        assert [len(block) for block in blocks] == [1] * 20
        assert [pair for block in blocks for pair in block] == pairs

    def test_egal_counts_its_running_density(self):
        """An egal pair's state is its (N, N) similarities, its (N,) running
        density and its (N,) mask of counted rows, and ``seed_bytes`` counts
        each of them over what a gsx pair, which shares its other terms,
        adds."""
        rng = np.random.default_rng(15)
        n = 50
        state = wigs.config.KINDS["egal"].setup(rows_dataset(rng.normal(size=(n, 3)),
                                                             rng.normal(size=n)), 0)
        held = state.similarity.nbytes + state.density.nbytes + state.counted.nbytes
        assert held == 8 * n * n + 9 * n
        assert seed_bytes(n, 3, self.EGAL, 5) - seed_bytes(n, 3, MethodSpec("gsx", "gsx"), 5) \
            == held

    def test_small_n_runs_in_one_block_per_worker(self):
        pairs = [(self.EGAL, seed) for seed in range(20)]
        sizes = [seed_bytes(80, 1, self.EGAL, 5)] * 20
        assert pair_blocks(pairs, sizes, 1) == [tuple(pairs)]
        assert pair_blocks(pairs, sizes, 3) == [
            tuple(pairs[:7]), tuple(pairs[7:14]), tuple(pairs[14:])]

    def test_methods_share_a_block_up_to_the_summed_budget(self):
        cheap = MethodSpec("gsx", "gsx")
        pairs = [(cheap, 0), (cheap, 1), (self.EGAL, 0), (self.EGAL, 1), (cheap, 2)]
        sizes = [1, 1, BLOCK_BYTES - 1, BLOCK_BYTES - 1, 1]
        assert pair_blocks(pairs, sizes, 1) == [
            tuple(pairs[:2]), (pairs[2],), tuple(pairs[3:])]
        assert pair_blocks(pairs, [1] * 5, 2) == [tuple(pairs[:3]), tuple(pairs[3:])]

    def test_committee_and_cv_fits_count_per_seed(self):
        one_fit = seed_bytes(400, 20, MethodSpec("uncertainty", "uncertainty"), 5)
        assert seed_bytes(400, 20, MethodSpec("qbc", "qbc", {"committee_size": 10}), 5) > one_fit
        cached = seed_bytes(400, 20, MethodSpec("igs", "igs"), 5)
        assert seed_bytes(400, 20, MethodSpec("mab", "wigs_mab"), 5) > cached
        assert seed_bytes(400, 20, MethodSpec("sac", "wigs_sac"), 5) > cached

    def test_split_blocks_write_the_same_record(self, tmp_path, monkeypatch):
        import wigs.harness as harness_module
        methods = (self.EGAL, MethodSpec("qbc", "qbc"), MethodSpec("mab", "wigs_mab"))
        whole = run_experiment(small_config(tmp_path / "whole", methods, n=40, replications=6))

        real = harness_module.run_block
        blocks = []

        def spy(dataset, pairs, *args, **kwargs):
            blocks.append([method.name for method, _ in pairs])
            return real(dataset, pairs, *args, **kwargs)

        monkeypatch.setattr(harness_module, "run_block", spy)
        n_features = whole.dataset.features.shape[1]
        monkeypatch.setattr(harness_module, "BLOCK_BYTES",
                            2 * seed_bytes(40, n_features, self.EGAL, 5) + 1)
        split = run_experiment(small_config(tmp_path / "split", methods, n=40, replications=6))

        assert [block.count("egal") for block in blocks if "egal" in block] == [2, 2, 2]
        assert blocks[:3] == [["egal", "egal"]] * 3
        assert sum(len(block) for block in blocks) == 18
        assert any(len(set(block)) > 1 for block in blocks)  # qbc and mab pairs share one
        assert read_bytes(split, "traces.csv") == read_bytes(whole, "traces.csv")
        for got, want in zip(split.traces, whole.traces, strict=True):
            assert_same_trace(got, want)


class TestFailureIsolation:
    """One seed that raises costs its block only that seed's trace."""

    BAD_SEED = 103  # of seeds 100..105; a block of 3 at parallelism 2

    @staticmethod
    def patch_gsx(monkeypatch, bad_seed):
        """gsx with a selector that raises at the 5th acquisition of ``bad_seed``,
        and no block scorer, so the block calls that selector on every row."""
        real = KINDS["gsx"]

        def select(q):
            q.state["calls"] += 1
            if q.state["seed"] == bad_seed and q.state["calls"] == 5:
                raise RuntimeError(f"synthetic selector failure for seed {bad_seed}")
            return real.select(q)

        monkeypatch.setitem(KINDS, "gsx", dataclasses.replace(
            real, select=select, scorer=None,
            setup=lambda dataset, seed: {"seed": seed, "calls": 0}))

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_other_seeds_keep_their_traces(self, tmp_path, monkeypatch, parallelism):
        if parallelism > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched kind reaches the workers only through fork")
        methods = (MethodSpec("gsx", "gsx"), MethodSpec("igs", "igs"))
        clean = run_experiment(small_config(tmp_path / "clean", methods, n=40, replications=6))
        self.patch_gsx(monkeypatch, self.BAD_SEED)
        alone = run_experiment(small_config(tmp_path / "alone", methods[:1], n=40,
                                            replications=1, base_seed=self.BAD_SEED))
        record = run_experiment(small_config(tmp_path / "run", methods, n=40, replications=6,
                                             parallelism=parallelism))

        assert [error[:2] for error in alone.errors] == [("gsx", self.BAD_SEED)]
        assert alone.errors[0][2].rstrip().endswith(
            f"RuntimeError: synthetic selector failure for seed {self.BAD_SEED}")
        assert record.errors == alone.errors
        assert read_bytes(record, "errors.csv") == read_bytes(alone, "errors.csv")
        want = [trace for trace in clean.traces if (trace.method, trace.seed) != ("gsx", self.BAD_SEED)]
        assert len(record.traces) == len(want) == 11
        for got, expected in zip(record.traces, want):
            assert_same_trace(got, expected)


class TestTimings:
    @pytest.mark.parametrize("kinds", [["gsx"], ["wigs_mab"], ["qbc"], list(KINDS)],
                             ids=["gsx", "wigs_mab", "qbc", "mixed"])
    def test_wall_ms_finite_nonnegative_and_within_the_block(self, dataset, kinds):
        pairs = [(spec_for(kind), seed) for kind in kinds
                 for seed in range(5 if len(kinds) == 1 else 1)]
        start = time.perf_counter()
        traces = run_block(dataset, pairs)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        wall_ms = np.concatenate([trace.wall_ms for trace in traces])
        assert np.isfinite(wall_ms).all() and (wall_ms >= 0.0).all()
        assert wall_ms.sum() <= elapsed_ms

    SLEEP_MS = 5.0

    @pytest.mark.parametrize("site, kind", [("fit_bootstrap_committee", "qbc"),
                                            ("cv_rmse", "wigs_mab")])
    def test_a_kernel_call_is_timed_on_its_own_pairs(self, dataset, monkeypatch, site, kind):
        """A slow committee (or CV) call lands on the rows of the pairs it
        fits, whole when it fits one pair, and on no other pair's rows."""
        real = getattr(wigs.harness, site)

        def slow(*args, **kwargs):
            time.sleep(self.SLEEP_MS / 1000.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(wigs.harness, site, slow)
        passive, fitted = run_block(dataset, [(spec_for("passive"), 0), (spec_for(kind), 0)])
        assert (fitted.wall_ms[1:] >= self.SLEEP_MS).all()
        # an even split would put at least SLEEP_MS / 2 on every passive row
        assert np.median(passive.wall_ms[1:]) < self.SLEEP_MS / 4

    def test_a_scoring_group_is_timed_on_its_rows(self, dataset, monkeypatch):
        """A slow group call lands 1/G on each of its G rows, and on no
        other pair's rows."""
        real = wigs.harness.select_stacked

        def slow(*args):
            time.sleep(self.SLEEP_MS / 1000.0)
            return real(*args)

        monkeypatch.setattr(wigs.harness, "select_stacked", slow)
        passive, *scored = run_block(dataset, [(spec_for("passive"), 0)]
                                     + [(spec_for("wigs_static"), seed) for seed in range(4)])
        for trace in scored:  # n = 60: P·L stays under the budget, one group of 4
            assert (trace.wall_ms[1:] >= self.SLEEP_MS / 4).all()
        assert np.median(passive.wall_ms[1:]) < self.SLEEP_MS / 8

    def test_shared_calls_are_booked_exactly(self, dataset, monkeypatch):
        """With a clock that ticks once per read, a block run twice books
        the same seconds but for calls made 2**20 s slower in the second
        run: 1/Rc of each distance update on each of the Rc cache pairs,
        1/G of each scoring call on each row of its group of G, the whole
        CV call on the one pair that takes it, and nothing on any other
        row.  Every share is a power of two, so every sum is exact."""
        pairs = [(spec_for(kind), seed) for kind, seed in (
            ("wigs_static", 0), ("wigs_static", 1), ("gsx", 0), ("wigs_mab", 0),  # the Rc = 4
            ("passive", 0), ("passive", 1), ("gsy", 0), ("qbc", 0))]
        clock = TickingClock()
        monkeypatch.setattr(wigs.harness, "time", clock)

        def run():
            clock.now = 0.0
            return np.array([trace.wall_ms for trace in run_block(dataset, pairs)])

        def slowed(real):
            def call(*args, **kwargs):
                clock.advance(2.0**20)
                return real(*args, **kwargs)
            return call

        base = run()
        with monkeypatch.context() as patch:
            for site in ("update_after_acquisition", "cv_rmse", "select_stacked"):
                patch.setattr(wigs.harness, site, slowed(getattr(wigs.harness, site)))
            slow = run()
        # n = 60: P·L stays under the budget, so the two wigs_static rows are one group
        units = np.zeros_like(base)
        units[:, 1:] = np.array([1 + 2, 1 + 2, 1, 1 + 4, 0, 0, 0, 0])[:, None]
        assert np.array_equal(slow - base, units * (1000.0 * 2**18))


class TickingClock:
    """A stand-in for the ``time`` module whose ``perf_counter`` moves on
    by one second at each read, and by ``advance``'s seconds."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestVetoDemo:
    def test_default_report_passes(self):
        text, ok = veto_demo()
        assert ok
        assert "prefers distractor" in text
        assert "0.667" in text

    def test_multiplicative_agreement_tuple(self):
        # d* u* > d' u': multiplicative also prefers the target; reported, not a failure
        text, ok = veto_demo(d_star=0.5, u_star=0.9, d_prime=0.6, u_prime=0.1)
        assert ok
        assert "prefers target" in text
