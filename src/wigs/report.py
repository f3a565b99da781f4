"""Tables and plots derived from a completed run record.

``emit_report`` turns a record into the tables and plots derived from
the traces that ``run_experiment`` wrote: the relative-AUC table, the
label-efficiency tables at the 70% and 80% milestones, the pairwise
signed-rank p-value matrix, two SVG plots (mean deviation from the
baseline with a +/-1 std band, and the weight trajectory of the adaptive
methods) and the weight of each acquisition by the acquired point's
position.  A record directory on disk can be reloaded with
``load_record``, so reporting works offline from the persisted CSVs alone.
"""

from __future__ import annotations

import csv
import itertools
import os
import warnings
from collections import defaultdict
from dataclasses import replace

import numpy as np

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
    """Rebuild a RunRecord from a persisted record directory: its config,
    dataset, traces (with ``wall_ms`` from ``timings.csv``) and errors."""
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
    for row in _data_rows(os.path.join(record_dir, "timings.csv")):
        walls[(row[1], int(row[2]))][int(row[3])] = float(row[4])
    # errors.csv holds each failure's text with " | " for its newlines
    errors = tuple((method, int(seed), text) for method, seed, text
                   in _data_rows(os.path.join(record_dir, "errors.csv")))

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
                     errors=errors, record_dir=record_dir)


def _data_rows(path: str):
    """The rows of a CSV file below its header; none if there is no file."""
    if os.path.exists(path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            yield from reader


def emit_report(record: RunRecord, out_dir: str | None = None) -> dict[str, str]:
    """Write every derived table and plot; returns {artifact name: path}.

    Methods appear in config order, then any others by name; seeds ascend.
    The baseline is the first ``igs`` method of the config.  If it has
    traces, each method's seeds shared with it are paired once, and the
    pairs give:

    - ``rel_auc.csv``: the mean relative AUC per method.  A seed whose
      baseline AUC is zero has no ratio and is left out, and a method with
      no ratio gets no row (one ReportWarning counts them).
    - ``label_efficiency.csv``: one row per (method, seed, q) at the 70% and
      80% milestones, and ``label_efficiency_summary.csv`` their mean per
      (method, q).  A milestone undefined by a zero starting error is left
      out (a second ReportWarning counts them).
    - ``delta_vs_baseline.svg``: the mean method-minus-baseline RMSE per
      iteration with a +/-1 std band.

    Without baseline traces these are skipped with a ReportWarning.  Always:

    - ``wilcoxon.csv``: the signed-rank p-value of each pair of methods on
      their shared seeds' mean RMSE.  The p-value is symmetric bit for bit,
      so each unordered pair is scored once and mirrored; the diagonal is
      1.0 and a pair with no shared seed NaN.

    A method with a weight other than NaN past row 0 (which has none) gets
    a line in ``weights_vs_iteration.svg`` (its mean over the seeds) and
    one row in ``weight_by_position.csv`` per such weight, with the
    features of the point acquired there.  With no such method both are
    skipped.
    ``traces.csv`` and ``timings.csv`` stay as ``run_experiment`` wrote them.
    """
    out = out_dir or record.record_dir
    os.makedirs(out, exist_ok=True)
    written: dict[str, str] = {}
    dataset = record.dataset.name
    by_method: dict[str, dict[int, Trace]] = defaultdict(dict)
    for tr in record.traces:
        by_method[tr.method][tr.seed] = tr
    methods = [m.name for m in record.config.methods if m.name in by_method]
    methods += sorted(set(by_method) - set(methods))
    for name in methods:
        by_method[name] = dict(sorted(by_method[name].items()))

    def write(key: str, filename: str, text: str) -> None:
        written[key] = os.path.join(out, filename)
        _atomic_write(written[key], text)

    baseline = next((m.name for m in record.config.methods if m.kind == "igs"), None)
    if baseline in by_method:
        base = by_method[baseline]
        rel_rows = [("dataset", "method", "mean_rel_auc", "n_seeds")]
        eff_rows = [("dataset", "method", "seed", "q", "n_method", "n_baseline", "n_rel")]
        sum_rows = [("dataset", "method", "q", "mean_n_rel", "n_seeds")]
        series = []
        undefined = degenerate = 0
        for name in methods:
            paired = [(seed, tr.rmse, base[seed].rmse)
                      for seed, tr in by_method[name].items() if seed in base]
            if not paired:
                continue
            ratios = []
            n_rel: dict[float, list[float]] = {0.7: [], 0.8: []}
            for seed, rmse, base_rmse in paired:
                try:
                    ratios.append(relative_auc(rmse, base_rmse))
                except ValueError:
                    undefined += 1
                for q in n_rel:
                    try:
                        n_m, n_b = milestone_iteration(rmse, q), milestone_iteration(base_rmse, q)
                        rel = label_efficiency(rmse, base_rmse, q)
                    except ValueError:
                        degenerate += 1  # run already starts at zero error
                        continue
                    eff_rows.append((dataset, name, seed, q, n_m, n_b, repr(float(rel))))
                    n_rel[q].append(rel)
            if ratios:
                rel_rows.append((dataset, name, repr(float(np.mean(ratios))), len(ratios)))
            sum_rows += [(dataset, name, q, repr(float(np.mean(v))), len(v))
                         for q, v in n_rel.items() if v]
            deltas = np.stack([rmse - base_rmse for _, rmse, base_rmse in paired])
            mean, std = deltas.mean(axis=0), deltas.std(axis=0)
            series.append(Series(name, list(range(len(mean))), mean.tolist(),
                                 (mean - std).tolist(), (mean + std).tolist()))
        if undefined:
            warnings.warn(f"{undefined} (method, seed) relative AUCs undefined "
                          "(zero baseline AUC); seeds skipped", ReportWarning, stacklevel=2)
        if degenerate:
            warnings.warn(f"{degenerate} (method, seed, q) milestones undefined "
                          "(zero starting error); rows skipped",
                          ReportWarning, stacklevel=2)
        write("rel_auc", "rel_auc.csv", _format_rows(rel_rows))
        write("label_efficiency", "label_efficiency.csv", _format_rows(eff_rows))
        write("label_efficiency_summary", "label_efficiency_summary.csv", _format_rows(sum_rows))
        write("delta_plot", "delta_vs_baseline.svg", line_plot(
            series,
            title=f"{dataset}: RMSE deviation from {baseline}",
            xlabel="labels acquired",
            ylabel="delta full-pool RMSE",
        ))
    else:
        warnings.warn("record has no multiplicative-baseline runs; "
                      "relative tables skipped", ReportWarning, stacklevel=2)

    seed_means = {name: {seed: float(tr.rmse.mean()) for seed, tr in by_method[name].items()}
                  for name in methods}
    p_values = {(a, a): repr(1.0) for a in methods}
    for a, b in itertools.combinations(methods, 2):
        shared = sorted(seed_means[a].keys() & seed_means[b].keys())
        p = float("nan")  # no shared seed
        if shared:
            p = wilcoxon_signed_rank(np.array([seed_means[a][s] for s in shared]),
                                     np.array([seed_means[b][s] for s in shared]))
        p_values[a, b] = p_values[b, a] = repr(p)
    write("wilcoxon", "wilcoxon.csv", _format_rows(
        [("method", *methods)] + [(a, *(p_values[a, b] for b in methods)) for a in methods]))

    weight_series = []
    pos_rows = [("dataset", "method", "seed", "iteration", "acquired_idx", "weight",
                 *(f"pos_{n}" for n in record.dataset.feature_names))]
    for name in methods:
        traces = list(by_method[name].values())
        stacked = np.stack([tr.weight for tr in traces])[:, 1:]  # row 0 has no weight
        if np.isnan(stacked).all():
            continue
        mean_w = np.nanmean(stacked, axis=0)
        weight_series.append(Series(name, list(range(1, len(mean_w) + 1)), mean_w.tolist()))
        for row, col in zip(*np.nonzero(~np.isnan(stacked))):
            tr, i = traces[row], int(col) + 1
            idx = int(tr.acquired_idx[i])
            pos_rows.append((dataset, name, tr.seed, i, idx, repr(float(stacked[row, col])),
                             *(repr(float(v)) for v in record.dataset.features[idx])))
    if weight_series:
        write("weight_plot", "weights_vs_iteration.svg", line_plot(
            weight_series,
            title=f"{dataset}: selection weight per iteration",
            xlabel="iteration",
            ylabel="weight",
        ))
        write("weight_by_position", "weight_by_position.csv", _format_rows(pos_rows))
    return written
