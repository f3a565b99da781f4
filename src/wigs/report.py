"""Tables and plots derived from a completed run record.

``emit_report`` turns a record into the tables and plots derived from
the traces that ``run_experiment`` wrote: the relative-AUC table, the
label-efficiency table at the 70% and 80% milestones, the pairwise
signed-rank p-value matrix, and two SVG plots (mean deviation from the
baseline with a +/-1 std band, and the weight trajectory of the adaptive
methods).  A record directory on
disk can be reloaded with ``load_record``, so reporting works offline from
the persisted CSVs alone.
"""

from __future__ import annotations

import csv
import os
import warnings
from collections import defaultdict
from dataclasses import replace

import numpy as np

from .config import ExperimentConfig
from .data import load_csv
from .harness import RunRecord, TRACE_COLUMNS, _atomic_write, _format_rows

# Not called here; bench/tracing.py wraps these names.
from .harness import timing_rows, trace_rows  # noqa: F401
from .metrics import (
    Trace,
    label_efficiency,
    milestone_iteration,
    relative_auc,
    wilcoxon_signed_rank,
)
from .svg import Series, line_plot


class ReportWarning(UserWarning):
    """Recorded when a table cannot be produced from the given record."""


def load_record(record_dir: str) -> RunRecord:
    """Rebuild a RunRecord from a persisted record directory."""
    from .config import snapshot_to_config

    with open(os.path.join(record_dir, "config.json"), encoding="utf-8") as fh:
        config = snapshot_to_config(fh.read())

    # dataset.csv holds the preprocessed features: parsed, not scaled again.
    name = config.dgp or os.path.splitext(os.path.basename(config.csv_path))[0]
    dataset = replace(load_csv(os.path.join(record_dir, "dataset.csv")), name=name)

    # Each row is parsed as it is read, so the file is never held as lists
    # of strings: (iteration, labeled_count, rmse, cc, weight, score,
    # acquired_idx, dataset).
    grouped: dict[tuple[str, int], list[tuple]] = defaultdict(list)
    with open(os.path.join(record_dir, "traces.csv"), newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError("unrecognized trace schema")
        for row in reader:
            grouped[(row[1], int(row[2]))].append(
                (int(row[3]), int(row[4]), float(row[5]), float(row[6]), float(row[7]),
                 float(row[8]), int(row[9]), row[0]))

    walls: dict[tuple[str, int], dict[int, float]] = defaultdict(dict)
    timings_path = os.path.join(record_dir, "timings.csv")
    if os.path.exists(timings_path):
        with open(timings_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                walls[(row[1], int(row[2]))][int(row[3])] = float(row[4])

    traces = []
    for (method, seed), rows in sorted(grouped.items()):
        rows.sort(key=lambda r: r[0])
        wall = walls.get((method, seed), {})
        traces.append(Trace(
            method=method,
            dataset=rows[0][7],
            seed=seed,
            labeled_count=np.array([r[1] for r in rows], dtype=np.int64),
            rmse=np.array([r[2] for r in rows]),
            cc=np.array([r[3] for r in rows]),
            weight=np.array([r[4] for r in rows]),
            score=np.array([r[5] for r in rows]),
            acquired_idx=np.array([r[6] for r in rows], dtype=np.int64),
            wall_ms=np.array([wall.get(r[0], 0.0) for r in rows]),
        ))
    return RunRecord(config=config, dataset=dataset, traces=tuple(traces),
                     errors=(), record_dir=record_dir)


def _by_method(record: RunRecord) -> dict[str, dict[int, Trace]]:
    out: dict[str, dict[int, Trace]] = defaultdict(dict)
    for tr in record.traces:
        out[tr.method][tr.seed] = tr
    return out


def _baseline_name(config: ExperimentConfig) -> str | None:
    for m in config.methods:
        if m.kind == "igs":
            return m.name
    return None


def _method_order(record: RunRecord) -> list[str]:
    present = {tr.method for tr in record.traces}
    ordered = [m.name for m in record.config.methods if m.name in present]
    ordered += sorted(present - set(ordered))
    return ordered


def emit_report(record: RunRecord, out_dir: str | None = None) -> dict[str, str]:
    """Write every derived table and plot; returns {artifact name: path}.

    ``traces.csv`` and ``timings.csv`` stay as ``run_experiment`` wrote them.
    """
    out = out_dir or record.record_dir
    os.makedirs(out, exist_ok=True)
    written: dict[str, str] = {}
    methods = _method_order(record)
    by_method = _by_method(record)
    baseline = _baseline_name(record.config)

    if baseline is not None and baseline in by_method:
        base_traces = by_method[baseline]

        # A seed whose baseline trace integrates to zero (an exact fit from
        # the start) has no ratio: it is left out, with a warning, and a
        # method with no defined ratio gets no row rather than a NaN mean.
        rel_rows = [("dataset", "method", "mean_rel_auc", "n_seeds")]
        undefined = 0
        for name in methods:
            ratios = []
            for seed, tr in sorted(by_method[name].items()):
                if seed not in base_traces:
                    continue
                try:
                    ratios.append(relative_auc(tr.rmse, base_traces[seed].rmse))
                except ValueError:
                    undefined += 1
            if ratios:
                rel_rows.append((record.dataset.name, name,
                                 repr(float(np.mean(ratios))), len(ratios)))
        if undefined:
            warnings.warn(f"{undefined} (method, seed) relative AUCs undefined "
                          "(zero baseline AUC); seeds skipped", ReportWarning, stacklevel=2)
        path = os.path.join(out, "rel_auc.csv")
        _atomic_write(path, _format_rows(rel_rows))
        written["rel_auc"] = path

        eff_rows = [("dataset", "method", "seed", "q", "n_method", "n_baseline", "n_rel")]
        summary: dict[tuple[str, float], list[float]] = defaultdict(list)
        degenerate = 0
        for name in methods:
            for seed, tr in sorted(by_method[name].items()):
                if seed not in base_traces:
                    continue
                for q in (0.7, 0.8):
                    try:
                        n_m = milestone_iteration(tr.rmse, q)
                        n_b = milestone_iteration(base_traces[seed].rmse, q)
                        n_rel = label_efficiency(tr.rmse, base_traces[seed].rmse, q)
                    except ValueError:
                        degenerate += 1  # run already starts at zero error
                        continue
                    eff_rows.append((record.dataset.name, name, seed, q, n_m, n_b,
                                     repr(float(n_rel))))
                    summary[(name, q)].append(n_rel)
        if degenerate:
            warnings.warn(f"{degenerate} (method, seed, q) milestones undefined "
                          "(zero starting error); rows skipped",
                          ReportWarning, stacklevel=2)
        path = os.path.join(out, "label_efficiency.csv")
        _atomic_write(path, _format_rows(eff_rows))
        written["label_efficiency"] = path

        sum_rows = [("dataset", "method", "q", "mean_n_rel", "n_seeds")]
        for (name, q), vals in sorted(summary.items(), key=lambda kv: (methods.index(kv[0][0]), kv[0][1])):
            sum_rows.append((record.dataset.name, name, q,
                             repr(float(np.mean(vals))), len(vals)))
        path = os.path.join(out, "label_efficiency_summary.csv")
        _atomic_write(path, _format_rows(sum_rows))
        written["label_efficiency_summary"] = path
    else:
        warnings.warn("record has no multiplicative-baseline runs; "
                      "relative tables skipped", ReportWarning, stacklevel=2)

    # pairwise signed-rank matrix on per-seed trace means
    seed_means = {
        name: {seed: float(tr.rmse.mean()) for seed, tr in by_method[name].items()}
        for name in methods
    }
    wil_rows = [("method", *methods)]
    for a in methods:
        row: list[object] = [a]
        for b in methods:
            if a == b:
                row.append(repr(1.0))
                continue
            shared = sorted(set(seed_means[a]) & set(seed_means[b]))
            if len(shared) == 0:
                row.append(repr(float("nan")))
                continue
            va = np.array([seed_means[a][s] for s in shared])
            vb = np.array([seed_means[b][s] for s in shared])
            row.append(repr(wilcoxon_signed_rank(va, vb)))
        wil_rows.append(tuple(row))
    path = os.path.join(out, "wilcoxon.csv")
    _atomic_write(path, _format_rows(wil_rows))
    written["wilcoxon"] = path

    if baseline is not None and baseline in by_method:
        series = []
        base_traces = by_method[baseline]
        for name in methods:
            pairs = [(tr.rmse, base_traces[seed].rmse)
                     for seed, tr in sorted(by_method[name].items())
                     if seed in base_traces]
            if not pairs:
                continue
            deltas = np.stack([m - b for m, b in pairs])
            mean = deltas.mean(axis=0)
            std = deltas.std(axis=0)
            x = list(range(len(mean)))
            series.append(Series(name, x, list(mean),
                                 list(mean - std), list(mean + std)))
        path = os.path.join(out, "delta_vs_baseline.svg")
        _atomic_write(path, line_plot(
            series,
            title=f"{record.dataset.name}: RMSE deviation from {baseline}",
            xlabel="labels acquired",
            ylabel="delta full-pool RMSE",
        ))
        written["delta_plot"] = path

    weight_series = []
    for name in methods:
        traces = [tr for _, tr in sorted(by_method[name].items())]
        stacked = np.stack([tr.weight for tr in traces])[:, 1:]  # row 0 has no weight
        if np.isnan(stacked).all():
            continue
        mean_w = np.nanmean(stacked, axis=0)
        weight_series.append(Series(name, list(range(1, len(mean_w) + 1)), list(mean_w)))
    if weight_series:
        path = os.path.join(out, "weights_vs_iteration.svg")
        _atomic_write(path, line_plot(
            weight_series,
            title=f"{record.dataset.name}: selection weight per iteration",
            xlabel="iteration",
            ylabel="weight",
        ))
        written["weight_plot"] = path

        pos_rows = [("dataset", "method", "seed", "iteration", "acquired_idx", "weight",
                     *(f"pos_{n}" for n in record.dataset.feature_names))]
        for name in methods:
            for seed, tr in sorted(by_method[name].items()):
                if np.isnan(tr.weight).all():
                    continue
                for i in range(1, len(tr.weight)):
                    if np.isnan(tr.weight[i]):
                        continue
                    idx = int(tr.acquired_idx[i])
                    feats = record.dataset.features[idx]
                    pos_rows.append((record.dataset.name, name, seed, i, idx,
                                     repr(float(tr.weight[i])),
                                     *(repr(float(v)) for v in feats)))
        path = os.path.join(out, "weight_by_position.csv")
        _atomic_write(path, _format_rows(pos_rows))
        written["weight_by_position"] = path

    return written
