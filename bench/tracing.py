"""Span tracing of the wigs layers for the benchmark's traced run.

Each layer is timed by replacing a public function at the place where its
caller looks it up, a module global or a class attribute, with a wrapper
that records a span: name, start, end and the index of the enclosing span.
Spans stay in memory while the run measures and are written out when it
ends.  A layer's self time is its duration minus the time of the spans it
encloses.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time
from collections import defaultdict

SELECT_KINDS = ("passive", "gsx", "gsy", "igs", "wigs", "uncertainty", "qbc", "emcm", "egal")
POLICIES = ("StaticPolicy", "LinearDecayPolicy", "ExpDecayPolicy", "BanditPolicy", "SacPolicy")

# (layer, reported time: "s" inclusive or "self_s", [(owner, attribute), ...])
LAYERS = (
    ("data.resolve_dataset", "s", [("wigs.harness", "resolve_dataset")]),
    ("data.initial_split", "s", [("wigs.harness", "initial_split")]),
    ("data.load_csv", "s", [("wigs.harness", "load_csv")]),
    ("model.fit_ridge", "s", [("wigs.harness", "fit_ridge")]),
    ("model.cv_rmse", "s", [("wigs.harness", "cv_rmse")]),
    ("model.fit_bootstrap_committee", "s", [("wigs.harness", "fit_bootstrap_committee")]),
    ("model.predict", "s", [("wigs.model:RidgeModel", "predict")]),
    ("geometry.build_cache", "s", [("wigs.harness", "build_cache")]),
    ("geometry.update_after_acquisition", "s", [("wigs.harness", "update_after_acquisition")]),
    ("geometry.normalize_phi", "s", [("wigs.selectors", "normalize_phi")]),
    ("geometry.pairwise_distances", "s", [("wigs.geometry", "pairwise_distances"),
                                          ("wigs.selectors", "pairwise_distances"),
                                          ("wigs.sac", "pairwise_distances")]),
    *((f"selectors.select_{kind}", "self_s", [("wigs.harness", f"select_{kind}")])
      for kind in SELECT_KINDS),
    ("weights.step", "self_s", [(f"wigs.weights:{cls}", "step") for cls in POLICIES]),
    ("sac.build_state", "s", [("wigs.harness", "build_state")]),
    ("sac.sac_update", "s", [("wigs.weights", "sac_update")]),
    ("sac.sample_action", "s", [("wigs.weights", "sample_action")]),
    ("metrics.record", "s", [("wigs.harness", "hybrid_rmse"),
                             ("wigs.harness", "correlation_coefficient")]),
    ("metrics.wilcoxon_signed_rank", "s", [("wigs.report", "wilcoxon_signed_rank")]),
    ("harness.run_replication", "self_s", [("wigs.harness", "run_replication")]),
    ("harness.trace_rows", "s", [("wigs.harness", "trace_rows"), ("wigs.report", "trace_rows")]),
    ("harness.timing_rows", "s", [("wigs.harness", "timing_rows"), ("wigs.report", "timing_rows")]),
    ("report.load_record", "s", [("wigs.report", "load_record")]),
    ("report.emit_report", "self_s", [("wigs.report", "emit_report")]),
    ("svg.line_plot", "s", [("wigs.report", "line_plot")]),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Wraps every layer in LAYERS; records spans only while ``enabled``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        for name, _, sites in LAYERS:
            for path, attr in sites:
                owner = _owner(path)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original))
                self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as the root span of a round."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def totals(self) -> dict[str, list]:
        """{span name: [calls, inclusive seconds, self seconds]}."""
        enclosed = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                enclosed[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, enclosed):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return out

    def write(self, path: str) -> None:
        """Spans as CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start_s", "end_s", "parent"))
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((i, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent))


def layer_metrics(totals: dict, rounds: int) -> dict[str, tuple[float, str]]:
    """Per traced round: each layer's call count and its inclusive or self time."""
    metrics = {}
    for name, kind, _ in LAYERS:
        calls, inclusive, self_s = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / rounds, "count")
        metrics[f"{name}.{kind}"] = ((inclusive if kind == "s" else self_s) / rounds, "s")
    return metrics
