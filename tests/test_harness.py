import json
import os
import re

import numpy as np
import pytest

from wigs.config import (
    KINDS,
    ExperimentConfig,
    MethodSpec,
    config_from_dict,
    config_to_dict,
    default_methods,
    load_config,
    snapshot_json,
    snapshot_to_config,
)
from wigs.harness import resolve_dataset, run_experiment, run_replication
from wigs.selectors import veto_demo


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
    ])
    def test_method_validation(self, kind, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MethodSpec("m", kind, params)

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

    def test_weights_recorded_for_wigs_only(self, dataset):
        igs = run_replication(dataset, MethodSpec("igs", "igs"), seed=2)
        assert np.isnan(igs.weight).all()
        static = run_replication(
            dataset, MethodSpec("w", "wigs_static", {"w": 0.25}), seed=2)
        assert np.isnan(static.weight[0])
        assert np.all(static.weight[1:] == 0.25)


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
        real = harness_module.run_replication

        def flaky(dataset, method, seed, *args, **kwargs):
            if seed == 101:
                raise RuntimeError("synthetic failure")
            return real(dataset, method, seed, *args, **kwargs)

        monkeypatch.setattr(harness_module, "run_replication", flaky)
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
