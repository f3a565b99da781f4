"""Each record check accepts a clean record and rejects a corrupted one.

Run with:  PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import csv
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

import checks
from wigs import ExperimentConfig, MethodSpec, emit_report, load_record, run_experiment

METHODS = (
    MethodSpec("passive", "passive"),
    MethodSpec("gsx", "gsx"),
    MethodSpec("gsy", "gsy"),
    MethodSpec("igs", "igs"),
    MethodSpec("wigs_s", "wigs_static", {"w": 0.5}),
    MethodSpec("wigs_lin", "wigs_linear", {"c": 1.0}),
    MethodSpec("wigs_exp", "wigs_exp", {"c": 5.0}),
    MethodSpec("wigs_mab", "wigs_mab", {"arms": (0.25, 0.5, 0.75), "c_explore": 2.0}),
    MethodSpec("uncertainty", "uncertainty"),
)
TABLE = {m.name: (m.kind, dict(m.params)) for m in METHODS}
CONFIG = ExperimentConfig(dgp="two_regime", n=50, methods=METHODS, replications=2,
                          cv_folds=2, base_seed=3)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("record"))
    record = run_experiment(replace(CONFIG, out_dir=out))
    emit_report(load_record(out))
    return out, record


@pytest.fixture
def record_dir(clean, tmp_path):
    """A fresh copy of the clean record that a test may corrupt."""
    out = str(tmp_path / "record")
    shutil.copytree(clean[0], out)
    return out


def edit_rows(path, edit):
    """Rewrite a CSV file after ``edit(header, rows)`` changed its rows in place."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    edit(header, rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def edit_trace(record_dir, method, seed, column, edit):
    """Apply ``edit(values)`` to one column of one (method, seed) trace."""
    def apply(header, rows):
        col = header.index(column)
        mine = [r for r in rows if r[1] == method and int(r[2]) == seed]
        values = [r[col] for r in mine]
        edit(values)
        for r, v in zip(mine, values):
            r[col] = v
    edit_rows(os.path.join(record_dir, "traces.csv"), apply)


def load(record_dir):
    traces = checks.read_traces(record_dir)
    X, y = checks.read_dataset(record_dir)
    return traces, X, y


def swap(i, j):
    def edit(values):
        values[i], values[j] = values[j], values[i]
    return edit


def test_clean_record_passes_every_check(clean):
    out, record = clean
    checks.check_record(out, TABLE, CONFIG.initial_fraction, CONFIG.alpha, "igs")
    checks.check_roundtrip(record.traces, load_record(out).traces)


def test_swapped_acquisition_fails_refit_and_oracle(record_dir):
    edit_trace(record_dir, "gsx", 3, "acquired_idx", swap(1, 2))
    traces, X, y = load(record_dir)
    with pytest.raises(checks.CheckFailed, match="rmse at row 1"):
        checks.check_refit(traces, X, y, CONFIG.alpha, CONFIG.initial_fraction)
    with pytest.raises(checks.CheckFailed, match="acquisition 1 scores"):
        checks.check_selections(traces, X, y, CONFIG.alpha, CONFIG.initial_fraction, TABLE)


@pytest.mark.parametrize("method", ["gsy", "igs", "wigs_mab", "uncertainty"])
def test_oracle_rejects_a_non_maximizer(record_dir, method):
    # The last acquisition takes the only candidate left; the one before it
    # chooses between two, so swapping them records the worse one.
    traces, X, y = load(record_dir)
    horizon = len(traces[(method, 4)]["rmse"]) - 1
    edit_trace(record_dir, method, 4, "acquired_idx", swap(horizon - 1, horizon))
    traces, X, y = load(record_dir)
    with pytest.raises(checks.CheckFailed, match=f"acquisition {horizon - 1} scores"):
        checks.check_selections(traces, X, y, CONFIG.alpha, CONFIG.initial_fraction, TABLE)


def test_perturbed_score_fails_oracle(record_dir):
    edit_trace(record_dir, "igs", 3, "selector_score",
               lambda v: v.__setitem__(1, repr(float(v[1]) * (1 + 1e-6) + 1e-6)))
    traces, X, y = load(record_dir)
    with pytest.raises(checks.CheckFailed, match="recorded score"):
        checks.check_selections(traces, X, y, CONFIG.alpha, CONFIG.initial_fraction, TABLE)


@pytest.mark.parametrize("column,match", [("rmse", "rmse at row"), ("cc", "cc at row")])
def test_perturbed_value_fails_refit(record_dir, column, match):
    traces, _, _ = load(record_dir)
    middle = (len(traces[("wigs_s", 3)]["rmse"]) - 1) // 2
    edit_trace(record_dir, "wigs_s", 3, column,
               lambda v: v.__setitem__(middle, repr(float(v[middle]) * (1 + 1e-6))))
    traces, X, y = load(record_dir)
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_refit(traces, X, y, CONFIG.alpha, CONFIG.initial_fraction)


@pytest.mark.parametrize("column,edit,match", [
    ("rmse", lambda v: v.__setitem__(-1, "1e-300"), "final rmse"),
    ("acquired_idx", lambda v: v.__setitem__(2, v[1]), "exactly once"),
    ("labeled_count", lambda v: v.__setitem__(3, v[2]), "grow by one"),
    ("cc", lambda v: v.__setitem__(0, repr(float(v[0]) + 1e-9)), "row 0 differs"),
])
def test_broken_exhaustion_invariant_fails(record_dir, column, edit, match):
    edit_trace(record_dir, "passive", 4, column, edit)
    traces, _, y = load(record_dir)
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_exhaustion(traces, len(y), CONFIG.initial_fraction)


def test_truncated_trace_fails_exhaustion(record_dir):
    edit_rows(os.path.join(record_dir, "traces.csv"),
              lambda header, rows: rows.remove(next(r for r in rows if r[1] == "gsx")))
    traces, _, y = load(record_dir)
    with pytest.raises(checks.CheckFailed, match="rows, expected"):
        checks.check_exhaustion(traces, len(y), CONFIG.initial_fraction)


@pytest.mark.parametrize("method,value", [
    ("wigs_lin", "0.123"), ("wigs_exp", "0.5"), ("wigs_s", "0.75"),
    ("wigs_mab", "0.3"), ("gsx", "0.5"),
])
def test_wrong_weight_fails(record_dir, method, value):
    edit_trace(record_dir, method, 3, "weight", lambda v: v.__setitem__(5, value))
    traces, _, _ = load(record_dir)
    with pytest.raises(checks.CheckFailed, match="weights do not follow"):
        checks.check_weights(traces, TABLE)


def test_report_tables_are_recomputed(record_dir):
    traces, _, _ = load(record_dir)
    rel = os.path.join(record_dir, "rel_auc.csv")
    wil = os.path.join(record_dir, "wilcoxon.csv")
    shutil.copy(rel, rel + ".orig")
    edit_rows(rel, lambda h, rows: rows[1].__setitem__(2, repr(float(rows[1][2]) * 1.001)))
    with pytest.raises(checks.CheckFailed, match="rel_auc.csv"):
        checks.check_report(record_dir, traces, "igs")
    shutil.copy(rel + ".orig", rel)
    edit_rows(wil, lambda h, rows: rows[0].__setitem__(2, "0.0123"))
    with pytest.raises(checks.CheckFailed, match="not symmetric"):
        checks.check_report(record_dir, traces, "igs")
    edit_rows(wil, lambda h, rows: rows[0].__setitem__(1, "0.5"))
    with pytest.raises(checks.CheckFailed, match="diagonal"):
        checks.check_report(record_dir, traces, "igs")


def test_roundtrip_detects_one_ulp(clean):
    out, record = clean
    first = record.traces[0]
    rmse = first.rmse.copy()
    rmse[1] = np.nextafter(rmse[1], np.inf)
    changed = (replace(first, rmse=rmse),) + record.traces[1:]
    with pytest.raises(checks.CheckFailed, match="changed rmse"):
        checks.check_roundtrip(changed, load_record(out).traces)
