import csv
import hashlib
import os

import numpy as np
import pytest

from wigs.cli import main
from wigs.config import KINDS, ExperimentConfig, MethodSpec, default_methods
from wigs.data import PreprocessWarning
from wigs.harness import run_experiment
from wigs.report import ReportWarning, emit_report, load_record

from test_hashes import STACK


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("record")
    config = ExperimentConfig(
        dgp="two_regime", n=50, dataset_seed=4,
        methods=(
            MethodSpec("igs", "igs"),
            MethodSpec("gsx", "gsx"),
            MethodSpec("wigs_s_0.75", "wigs_static", {"w": 0.75}),
        ),
        replications=3, base_seed=40, parallelism=1, out_dir=str(out),
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def thirteen_seeds(tmp_path_factory):
    """13 seeds: the Wilcoxon matrix takes its normal-approximation branch."""
    config = ExperimentConfig(
        dgp="two_regime", n=30, dataset_seed=4,
        methods=(
            MethodSpec("igs", "igs"),
            MethodSpec("gsx", "gsx"),
            MethodSpec("wigs_lin", "wigs_linear"),
        ),
        replications=13, base_seed=0, out_dir=str(tmp_path_factory.mktemp("thirteen")))
    return run_experiment(config)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# The sha256 of each of the seven report artifacts of two records; the
# values belong to the stack that recorded them (STACK).
REPORT_BYTES = {
    "record": {
        "delta_vs_baseline.svg": "9a65218d99a7f9182210a74a7a998fc42ae9f457fa5f03f49118071f556c51fa",
        "label_efficiency.csv": "e1c2d97d2bf2ffe8da071b7c6aa17db15ae7b530996a08fba1ea3d6ee1a1ba69",
        "label_efficiency_summary.csv":
            "f9e1a0dcfcd292f096918f97d7e8d9dfb1d18e3a19e7cb0b4a3d833b041637f2",
        "rel_auc.csv": "c453cb349b7e5e684f062ea24d930f236e29c1e1c9b20d8195ab6b73d4a44b4b",
        "weight_by_position.csv": "3ecd47ab271ec4eb567201c996e01d6e063b4fe6bb4f9ca3cf25b7898426e09d",
        "weights_vs_iteration.svg":
            "cdc0bacb3a82cf07fb08eea92dfb74459aa90da16267726ccd02d96f025e3d9e",
        "wilcoxon.csv": "3bce2614d3f6292efa4f2ee9ad1db612a9b20476d678b1b04f60eee129f8dc2d",
    },
    "thirteen_seeds": {
        "delta_vs_baseline.svg": "6766c5dc211dc342f64a78e9cc19c668609593f277856ee7f7c10569625169f1",
        "label_efficiency.csv": "b325e3b3a80e16b4e552e7ceecf7d85b13cabc5dd5f2190afb4ba3bdc3fce668",
        "label_efficiency_summary.csv":
            "ae6fd27d89d7605ef898ef31e68000fb7e8b27daa97c7ba6257ca87b024b7f9c",
        "rel_auc.csv": "97c61c04459f5a502dd47d6c589d66160165e1bc41447fdee632586cb145caf3",
        "weight_by_position.csv": "b0ebfc0d80ed810daf8818c6d882b1fb901cca63baa5b05779bd6fb2e8a00dd0",
        "weights_vs_iteration.svg":
            "87e80cb23102c7d8039c831d24c1380050d05a91b202dc61a76b83cfd1a41573",
        "wilcoxon.csv": "fa036a224c7a291bd6e22a62cd6c36bfdc3733c2370fcb4c7320188490dbf71e",
    },
}


@pytest.mark.parametrize("fixture", sorted(REPORT_BYTES))
def test_report_artifacts_keep_their_bytes(fixture, request, tmp_path):
    """The 3-seed record takes the exact Wilcoxon branch, the 13-seed one the
    normal approximation; both have one weighted method."""
    files = emit_report(request.getfixturevalue(fixture), str(tmp_path))
    got = {os.path.basename(path): sha256_file(path) for path in files.values()}
    want = REPORT_BYTES[fixture]
    differ = [f"{name}: pinned {want[name][:8]}, got {got[name][:8] if name in got else 'no file'}"
              for name in sorted(want) if got.get(name) != want[name]]
    differ += [f"{name}: not pinned" for name in sorted(set(got) - set(want))]
    assert not differ, (f"{len(differ)} of {len(want)} {fixture} artifacts differ from the "
                        f"table recorded on {STACK}:\n" + "\n".join(differ))


class TestEmitReport:
    def test_all_artifacts_written(self, record):
        files = emit_report(record)
        for key in ("rel_auc", "label_efficiency", "wilcoxon",
                    "delta_plot", "weight_plot", "weight_by_position"):
            assert key in files and os.path.exists(files[key])

    def test_each_trace_serialized_once(self, tmp_path, monkeypatch):
        import wigs.harness
        import wigs.report
        calls = []
        real = wigs.harness.trace_rows

        def counting(trace):
            calls.append((trace.method, trace.seed))
            return real(trace)

        for module in (wigs.harness, wigs.report):
            monkeypatch.setattr(module, "trace_rows", counting)
        config = ExperimentConfig(
            dgp="two_regime", n=30, dataset_seed=4,
            methods=(MethodSpec("igs", "igs"), MethodSpec("gsx", "gsx")),
            replications=2, base_seed=3, out_dir=str(tmp_path / "rec"))
        record = run_experiment(config)
        paths = [os.path.join(record.record_dir, name) for name in ("traces.csv", "timings.csv")]

        def snapshot():
            out = []
            for path in paths:
                with open(path, "rb") as fh:
                    out.append((os.stat(path).st_ino, fh.read()))
            return out

        before = snapshot()
        emit_report(record)
        assert sorted(calls) == sorted((tr.method, tr.seed) for tr in record.traces)
        assert snapshot() == before  # same inodes, same bytes

    def test_rel_auc_baseline_row_is_one(self, record):
        files = emit_report(record)
        rows = read_csv(files["rel_auc"])
        by_method = {r[1]: float(r[2]) for r in rows[1:]}
        assert by_method["igs"] == 1.0
        assert set(by_method) == {"igs", "gsx", "wigs_s_0.75"}

    def test_wilcoxon_diagonal_ones(self, record):
        files = emit_report(record)
        rows = read_csv(files["wilcoxon"])
        methods = rows[0][1:]
        for i, row in enumerate(rows[1:]):
            assert float(row[1 + i]) == 1.0
            for j in range(len(methods)):
                p = float(row[1 + j])
                assert 0.0 <= p <= 1.0

    def test_wilcoxon_symmetric_with_unit_diagonal(self, record):
        rows = read_csv(emit_report(record)["wilcoxon"])
        assert rows[0][0] == "method"
        methods = rows[0][1:]
        assert [row[0] for row in rows[1:]] == methods
        matrix = [row[1:] for row in rows[1:]]
        for i in range(len(methods)):
            assert matrix[i][i] == "1.0"
            for j in range(len(methods)):
                assert matrix[i][j] == matrix[j][i]

    def test_svg_self_contained_with_polylines(self, record):
        files = emit_report(record)
        with open(files["delta_plot"]) as fh:
            svg = fh.read()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3  # one per method
        assert "href" not in svg  # no external assets

    def test_weight_by_position_columns(self, record):
        files = emit_report(record)
        rows = read_csv(files["weight_by_position"])
        assert rows[0][:6] == ["dataset", "method", "seed", "iteration",
                               "acquired_idx", "weight"]
        assert rows[0][6].startswith("pos_")
        methods = {r[1] for r in rows[1:]}
        assert methods == {"wigs_s_0.75"}
        weights = {float(r[5]) for r in rows[1:]}
        assert weights == {0.75}

    def test_igs_only_record(self, tmp_path):
        config = ExperimentConfig(
            dgp="two_regime", n=40, dataset_seed=4,
            methods=(MethodSpec("igs", "igs"),),
            replications=2, base_seed=1, out_dir=str(tmp_path / "solo"))
        files = emit_report(run_experiment(config))
        rows = read_csv(files["rel_auc"])
        assert len(rows) == 2  # header + single row
        assert float(rows[1][2]) == 1.0

    def test_no_baseline_warns(self, tmp_path):
        config = ExperimentConfig(
            dgp="two_regime", n=40, dataset_seed=4,
            methods=(MethodSpec("gsx", "gsx"),),
            replications=2, base_seed=1, out_dir=str(tmp_path / "nobase"))
        record = run_experiment(config)
        with pytest.warns(ReportWarning):
            files = emit_report(record)
        assert "rel_auc" not in files
        assert "wilcoxon" in files

    def test_degenerate_record_does_not_crash(self, tmp_path):
        # constant target: the initial fit is already exact (zero starting
        # RMSE), so milestone rows are undefined; the report must survive
        import numpy as np
        from wigs.data import save_csv, Dataset, ColumnMeta
        x = np.linspace(0.0, 1.0, 30)
        ds = Dataset(x[:, None], np.full(30, 5.0),
                     (ColumnMeta("x", "continuous"),), "flat")
        csv_path = tmp_path / "line.csv"
        save_csv(ds, csv_path)
        config = ExperimentConfig(
            csv_path=str(csv_path), methods=(MethodSpec("igs", "igs"),),
            replications=2, base_seed=0, out_dir=str(tmp_path / "rec"))
        rec = run_experiment(config)
        with pytest.warns(ReportWarning):
            files = emit_report(rec)
        assert "wilcoxon" in files

    def test_constant_targets_end_to_end(self, tmp_path):
        """Constant targets on purpose: every cc is NaN (a truth of zero
        variance) and the rest of each row finite; every fit is exact, so
        every rmse is 0.0, no relative AUC is defined, and rel_auc.csv holds
        its header alone, with a ReportWarning."""
        rng = np.random.default_rng(3)
        path = tmp_path / "flat.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("a,b,y\n")
            fh.writelines(f"{a!r},{b!r},2.0\n" for a, b in rng.normal(size=(30, 2)).tolist())
        methods = default_methods()
        record = run_experiment(ExperimentConfig(
            csv_path=str(path), methods=methods, replications=2, out_dir=str(tmp_path / "rec")))
        assert record.errors == ()
        loaded = load_record(record.record_dir)
        kinds = {method.name: KINDS[method.kind] for method in methods}
        assert sorted((tr.method, tr.seed) for tr in loaded.traces) == sorted(
            (method.name, seed) for method in methods for seed in (0, 1))
        for tr in loaded.traces:
            assert np.isnan(tr.cc).all(), tr.method
            assert (tr.rmse == 0.0).all(), tr.method
            assert np.isfinite(tr.score[1:]).all(), tr.method
            assert np.isfinite(tr.weight[1:]).all() == (kinds[tr.method].policy is not None)
        with pytest.warns(ReportWarning, match="relative AUCs undefined"):
            files = emit_report(loaded)
        assert read_csv(files["rel_auc"]) == [["dataset", "method", "mean_rel_auc", "n_seeds"]]

    def test_label_efficiency_identity_for_baseline(self, record):
        files = emit_report(record)
        rows = read_csv(files["label_efficiency"])
        igs_rows = [r for r in rows[1:] if r[1] == "igs"]
        assert igs_rows
        assert all(float(r[6]) == 1.0 for r in igs_rows)


def assert_same_dataset(loaded, ran):
    assert loaded.features.tobytes() == ran.features.tobytes()
    assert loaded.targets.tobytes() == ran.targets.tobytes()
    assert loaded.feature_names == ran.feature_names
    assert loaded.name == ran.name


class TestLoadRecord:
    def test_roundtrip(self, record):
        emit_report(record)
        loaded = load_record(record.record_dir)
        assert len(loaded.traces) == len(record.traces)
        orig = {(t.method, t.seed): t for t in record.traces}
        for tr in loaded.traces:
            other = orig[(tr.method, tr.seed)]
            assert np.array_equal(tr.rmse, other.rmse)
            assert np.array_equal(tr.acquired_idx, other.acquired_idx)
        assert_same_dataset(loaded.dataset, record.dataset)

    def test_errors_roundtrip(self, tmp_path, monkeypatch):
        import test_harness
        test_harness.TestFailureIsolation.patch_gsx(monkeypatch, 101)
        record = run_experiment(ExperimentConfig(
            dgp="two_regime", n=40, dataset_seed=4, methods=(MethodSpec("gsx", "gsx"),),
            replications=3, base_seed=100, out_dir=str(tmp_path / "rec")))
        assert [error[:2] for error in record.errors] == [("gsx", 101)]
        assert "\n" in record.errors[0][2]
        loaded = load_record(record.record_dir)
        # errors.csv keeps each failure on one line, with " | " for its newlines
        assert loaded.errors == tuple((method, seed, text.replace("\n", " | "))
                                      for method, seed, text in record.errors)
        assert [(tr.method, tr.seed) for tr in loaded.traces] == [("gsx", 100), ("gsx", 102)]

    def test_csv_record_roundtrip(self, tmp_path):
        # a categorical column (one-hot in the record) and a constant one
        # (dropped by scaling): dataset.csv must read back as the run's data
        rng = np.random.default_rng(5)
        path = tmp_path / "mixed.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["color", "a", "const", "b", "y"])
            for i in range(30):
                writer.writerow([("red", "blue", "green")[i % 3], repr(float(rng.normal())),
                                 "5", repr(float(rng.exponential())), repr(float(rng.normal()))])
        config = ExperimentConfig(csv_path=str(path), scaling="robust",
                                  methods=(MethodSpec("gsx", "gsx"),),
                                  out_dir=str(tmp_path / "rec"))
        with pytest.warns(PreprocessWarning, match="mixed: column 'const'"):
            record = run_experiment(config)
        assert record.dataset.feature_names == [
            "color=blue", "color=green", "color=red", "a", "b"]
        assert_same_dataset(load_record(record.record_dir).dataset, record.dataset)


class TestCli:
    def test_synth_and_run_and_report(self, tmp_path, capsys):
        csv_path = tmp_path / "synth.csv"
        assert main(["synth", "--dgp", "two_regime", "--n", "40",
                     "--seed", "3", "--out", str(csv_path)]) == 0
        assert csv_path.exists()

        config_path = tmp_path / "config.yaml"
        config_path.write_text(f"""
dataset:
  csv: {csv_path}
run:
  replications: 2
  base_seed: 5
  out_dir: {tmp_path / "rec"}
methods:
  - name: igs
    kind: igs
  - name: passive
    kind: passive
""")
        assert main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "rec" / "traces.csv").exists()

        out2 = tmp_path / "rereport"
        assert main(["report", "--record", str(tmp_path / "rec"),
                     "--out", str(out2)]) == 0
        assert (out2 / "wilcoxon.csv").exists()

    def test_veto_demo_exit_codes(self, capsys):
        assert main(["veto-demo"]) == 0
        out = capsys.readouterr().out
        assert "additive window" in out

    def test_run_parallel_flag(self, tmp_path):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(f"""
dataset:
  dgp: two_regime
  n: 30
run:
  replications: 2
  base_seed: 5
  out_dir: {tmp_path / "rec"}
methods:
  - name: igs
    kind: igs
""")
        assert main(["run", "--config", str(config_path), "--parallel", "2",
                     "--out", str(tmp_path / "rec2")]) == 0
        assert (tmp_path / "rec2" / "traces.csv").exists()
