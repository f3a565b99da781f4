"""Correctness checks on a finished run record, made apart from the program.

The checks read the persisted record (``traces.csv``, ``dataset.csv`` and
the report tables) with plain ``csv`` and numpy, and compare it with an
independent computation or with a property of the method.  None of them
compares with a stored copy of earlier output.  A failed check raises
``CheckFailed``.
"""

from __future__ import annotations

import csv
import math
import os
from collections import defaultdict

import numpy as np

# The refits below solve the ridge system with numpy where the program uses
# a Cholesky solve and other summation orders, so values agree to rounding,
# not bit for bit.  This tolerance is far above that rounding and far below
# the change that a wrong acquisition or a perturbed value makes.
REL_TOL = 1e-8
ABS_TOL = 1e-10

# Stream id of the initial split in the seed scheme the README documents:
# SeedSequence(entropy=seed, spawn_key=(stream_id, index)).
SPLIT_STREAM = 0

# Kinds whose acquisition the brute-force oracle checks.
ORACLE_KINDS = {"gsx", "gsy", "igs", "wigs_static", "wigs_linear", "wigs_exp",
                "wigs_mab", "wigs_sac", "uncertainty"}
TRACE_FIELDS = ("labeled_count", "rmse", "cc", "weight", "score", "acquired_idx", "wall_ms")


class CheckFailed(Exception):
    """A run record contradicts an independent computation."""


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_traces(record_dir: str) -> dict[tuple[str, int], dict]:
    """traces.csv as {(method, seed): {column: array}}, plus row 0 as text."""
    header, rows = read_csv(os.path.join(record_dir, "traces.csv"))
    col = {name: i for i, name in enumerate(header)}
    grouped = defaultdict(list)
    for row in rows:
        grouped[(row[col["method"]], int(row[col["seed"]]))].append(row)
    traces = {}
    for key, group in grouped.items():
        def ints(name, group=group):
            return np.array([int(r[col[name]]) for r in group], dtype=np.int64)

        def floats(name, group=group):
            return np.array([float(r[col[name]]) for r in group])

        traces[key] = {
            "iteration": ints("iteration"),
            "labeled_count": ints("labeled_count"),
            "rmse": floats("rmse"),
            "cc": floats("cc"),
            "weight": floats("weight"),
            "score": floats("selector_score"),
            "acquired": ints("acquired_idx"),
            "row0": [c for i, c in enumerate(group[0]) if i != col["method"]],
        }
    return traces


def read_dataset(record_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """dataset.csv as (features, targets)."""
    _, rows = read_csv(os.path.join(record_dir, "dataset.csv"))
    values = np.array([[float(c) for c in row] for row in rows])
    return values[:, :-1], values[:, -1]


def initial_split(n: int, frac: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Labeled and pool indices: the first ceil(frac * n) rows of the split
    stream's permutation are labeled, the rest form the pool in order."""
    n_labeled = math.ceil(frac * n)
    stream = np.random.SeedSequence(entropy=int(seed), spawn_key=(SPLIT_STREAM, 0))
    perm = np.random.Generator(np.random.PCG64(stream)).permutation(n)
    return perm[:n_labeled], perm[n_labeled:]


def states(trace: dict, labeled0: np.ndarray, pool0: np.ndarray, at):
    """Yield (t, labeled, pool) for each t in ``at``: the sets just before
    acquisition t + 1, rebuilt from the acquisition sequence.  The pool
    keeps its order, which decides ties."""
    labeled = [int(i) for i in labeled0]
    pool = [int(i) for i in pool0]
    t = 0
    for target in sorted(set(at)):
        while t < target:
            acquired = int(trace["acquired"][t + 1])
            if acquired not in pool:
                raise CheckFailed(f"acquisition {t + 1} ({acquired}) is not in the pool")
            pool.remove(acquired)
            labeled.append(acquired)
            t += 1
        yield t, np.array(labeled, dtype=np.int64), np.array(pool, dtype=np.int64)


def ridge(X: np.ndarray, y: np.ndarray, alpha: float):
    """Ridge with an unpenalized intercept: centre, then solve
    (Xc'Xc + alpha I) coef = Xc'(y - mean y).  Returns (coef, intercept, gram, x_mean)."""
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    gram = Xc.T @ Xc + alpha * np.eye(X.shape[1])
    coef = np.linalg.solve(gram, Xc.T @ (y - y_mean))
    return coef, y_mean - x_mean @ coef, gram, x_mean


def refit_points(horizon: int) -> list[int]:
    return sorted({0, 1, horizon // 2, horizon - 1, horizon})


def oracle_points(horizon: int) -> list[int]:
    # horizon - 2 is the last choice between two candidates; after it one is left.
    return sorted({0, 1, horizon // 3, (2 * horizon) // 3, max(horizon - 2, 0)})


def _where(method: str, seed: int) -> str:
    return f"{method}/seed {seed}"


def check_exhaustion(traces: dict, n: int, frac: float) -> None:
    """Every trace runs to pool exhaustion, and row 0 is shared per seed."""
    row0 = {}
    for (method, seed), tr in sorted(traces.items()):
        where = _where(method, seed)
        labeled0, pool0 = initial_split(n, frac, seed)
        horizon = len(pool0)
        rows = horizon + 1
        if len(tr["rmse"]) != rows:
            raise CheckFailed(f"{where}: {len(tr['rmse'])} rows, expected horizon + 1 = {rows}")
        if not np.array_equal(tr["iteration"], np.arange(rows)):
            raise CheckFailed(f"{where}: iterations are not 0..{horizon}")
        if not np.array_equal(tr["labeled_count"], len(labeled0) + np.arange(rows)):
            raise CheckFailed(f"{where}: labeled_count does not grow by one per row")
        acquired = tr["acquired"]
        if acquired[0] != -1 or not np.array_equal(np.sort(acquired[1:]), np.sort(pool0)):
            raise CheckFailed(f"{where}: acquisitions do not cover the initial pool exactly once")
        if tr["rmse"][-1] != 0.0:
            raise CheckFailed(f"{where}: final rmse is {float(tr['rmse'][-1])!r}, not 0.0")
        first_method, first_row = row0.setdefault(seed, (method, tr["row0"]))
        if tr["row0"] != first_row:
            raise CheckFailed(f"{where}: row 0 differs from row 0 of {first_method}")


def check_refit(traces: dict, X: np.ndarray, y: np.ndarray, alpha: float, frac: float) -> None:
    """At sampled iterations, refit ridge on the rebuilt labeled set and
    recompute the hybrid RMSE and the Pearson cc."""
    n = len(y)
    for (method, seed), tr in sorted(traces.items()):
        labeled0, pool0 = initial_split(n, frac, seed)
        for t, labeled, pool in states(tr, labeled0, pool0, refit_points(len(pool0))):
            coef, intercept, _, _ = ridge(X[labeled], y[labeled], alpha)
            preds = X[pool] @ coef + intercept
            residuals = preds - y[pool]
            rmse = math.sqrt(residuals @ residuals / n)
            hybrid = y.copy()
            hybrid[pool] = preds
            cc = float(np.corrcoef(hybrid, y)[0, 1])
            if not close(tr["rmse"][t], rmse):
                raise CheckFailed(f"{_where(method, seed)}: rmse at row {t} is {float(tr['rmse'][t])!r}, "
                                  f"a refit gives {rmse!r}")
            if not close(tr["cc"][t], cc):
                raise CheckFailed(f"{_where(method, seed)}: cc at row {t} is {float(tr['cc'][t])!r}, "
                                  f"a refit gives {cc!r}")


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    return np.zeros_like(values) if hi == lo else (values - lo) / (hi - lo)


def criterion(kind: str, X, y, labeled, pool, alpha: float, weight: float) -> np.ndarray:
    """The selection criterion of every pool candidate, by brute force."""
    coef, intercept, gram, x_mean = ridge(X[labeled], y[labeled], alpha)
    if kind == "uncertainty":
        k, p = len(labeled), X.shape[1]
        residuals = y[labeled] - (X[labeled] @ coef + intercept)
        sigma2 = residuals @ residuals / max(k - p - 1, 1)
        Xc = X[pool] - x_mean
        return sigma2 * np.sum(Xc * np.linalg.solve(gram, Xc.T).T, axis=1)
    dx = np.sqrt(((X[pool][:, None, :] - X[labeled][None, :, :]) ** 2).sum(axis=2))
    dy = np.abs((X[pool] @ coef + intercept)[:, None] - y[labeled][None, :])
    if kind == "gsx":
        return dx.min(axis=1)
    if kind == "gsy":
        return dy.min(axis=1)
    if kind == "igs":
        return (dx * dy).min(axis=1)
    # min_m (w phi(dx) + (1 - w) phi(dy)), phi min-max over the P x L collection
    return (weight * _minmax(dx) + (1.0 - weight) * _minmax(dy)).min(axis=1)


def check_selections(traces: dict, X, y, alpha: float, frac: float, methods: dict) -> None:
    """At sampled iterations, each gsx, gsy, igs, WiGS and uncertainty
    acquisition maximizes its criterion (ties allowed), and the recorded
    selector score is the criterion value of the acquired candidate."""
    n = len(y)
    for (method, seed), tr in sorted(traces.items()):
        kind = methods[method][0]
        if kind not in ORACLE_KINDS:
            continue
        labeled0, pool0 = initial_split(n, frac, seed)
        for t, labeled, pool in states(tr, labeled0, pool0, oracle_points(len(pool0))):
            chosen = int(tr["acquired"][t + 1])
            scores = criterion(kind, X, y, labeled, pool, alpha, tr["weight"][t + 1])
            got = float(scores[np.flatnonzero(pool == chosen)[0]])
            best = float(scores.max())
            if got < best - (ABS_TOL + REL_TOL * abs(best)):
                raise CheckFailed(f"{_where(method, seed)}: acquisition {t + 1} scores {got!r}, "
                                  f"the best candidate scores {best!r}")
            if not close(tr["score"][t + 1], got):
                raise CheckFailed(f"{_where(method, seed)}: recorded score {float(tr['score'][t + 1])!r} "
                                  f"at row {t + 1}, the criterion gives {got!r}")


def check_weights(traces: dict, methods: dict) -> None:
    """Schedules follow their formula, bandit weights lie in the arm set,
    SAC weights in [0, 1]; methods without a weight record NaN."""
    for (method, seed), tr in sorted(traces.items()):
        kind, params = methods[method]
        weight = tr["weight"]
        horizon = len(weight) - 1
        steps = weight[1:]
        if not math.isnan(weight[0]):
            ok = False
        elif kind == "wigs_static":
            ok = bool(np.all(steps == float(params["w"])))
        elif kind == "wigs_linear":
            c = float(params.get("c", 1.0))
            ok = all(close(w, max(0.0, 1.0 - c * t / horizon)) for t, w in enumerate(steps))
        elif kind == "wigs_exp":
            c = float(params.get("c", 5.0))
            ok = all(close(w, math.exp(-c * t / horizon)) for t, w in enumerate(steps))
        elif kind == "wigs_mab":
            arms = [float(a) for a in params.get("arms", (0.25, 0.50, 0.75))]
            ok = bool(np.isin(steps, arms).all())
        elif kind == "wigs_sac":
            ok = bool(np.all((steps >= 0.0) & (steps <= 1.0)))
        else:
            ok = bool(np.isnan(steps).all())
        if not ok:
            raise CheckFailed(f"{_where(method, seed)}: weights do not follow the {kind} rule")


def check_report(record_dir: str, traces: dict, baseline: str) -> None:
    """rel_auc.csv matches per-seed trapezoid ratios (1.0 for the baseline);
    wilcoxon.csv is symmetric with a unit diagonal and p in [0, 1]."""
    by_method = defaultdict(dict)
    for (method, seed), tr in traces.items():
        by_method[method][seed] = tr["rmse"]
    base = by_method[baseline]

    _, rows = read_csv(os.path.join(record_dir, "rel_auc.csv"))
    if {row[1] for row in rows} != set(by_method):
        raise CheckFailed("rel_auc.csv does not list every method once")
    for _, method, value, n_seeds in rows:
        ratios = [np.trapezoid(rmse) / np.trapezoid(base[seed])
                  for seed, rmse in sorted(by_method[method].items())]
        if int(n_seeds) != len(ratios) or not close(float(value), float(np.mean(ratios))):
            raise CheckFailed(f"rel_auc.csv: {method} reads {value} over {n_seeds} seeds, "
                              f"recomputed {float(np.mean(ratios))!r} over {len(ratios)}")
        if method == baseline and float(value) != 1.0:
            raise CheckFailed(f"rel_auc.csv: baseline {method} reads {value}, not 1.0")

    header, rows = read_csv(os.path.join(record_dir, "wilcoxon.csv"))
    names = header[1:]
    if set(names) != set(by_method) or [row[0] for row in rows] != names:
        raise CheckFailed("wilcoxon.csv is not a square matrix over the methods")
    p = np.array([[float(c) for c in row[1:]] for row in rows])
    if not (np.all(np.isfinite(p)) and np.all((p >= 0.0) & (p <= 1.0))):
        raise CheckFailed("wilcoxon.csv: a p-value lies outside [0, 1]")
    if not np.all(np.diag(p) == 1.0):
        raise CheckFailed("wilcoxon.csv: diagonal is not 1.0")
    if not np.allclose(p, p.T, rtol=0.0, atol=1e-12):
        raise CheckFailed("wilcoxon.csv: matrix is not symmetric")


def _bits(values: np.ndarray) -> bytes:
    if values.dtype.kind == "f":
        values = np.where(np.isnan(values), np.nan, values)  # one NaN bit pattern
    return values.tobytes()


def check_roundtrip(in_memory, loaded) -> None:
    """load_record gives back the traces run_experiment returned, bit for bit."""
    a = {(tr.method, tr.seed): tr for tr in in_memory}
    b = {(tr.method, tr.seed): tr for tr in loaded}
    if a.keys() != b.keys():
        raise CheckFailed("load_record returned other (method, seed) pairs than the run")
    for key, tr in a.items():
        for name in TRACE_FIELDS:
            x, z = getattr(tr, name), getattr(b[key], name)
            if x.dtype != z.dtype or x.shape != z.shape or _bits(x) != _bits(z):
                raise CheckFailed(f"{_where(*key)}: load_record changed {name}")


def check_record(record_dir: str, methods: dict, frac: float, alpha: float,
                 baseline: str) -> None:
    """Every check on one record directory; ``methods`` maps name -> (kind, params)."""
    traces = read_traces(record_dir)
    X, y = read_dataset(record_dir)
    check_exhaustion(traces, len(y), frac)
    check_refit(traces, X, y, alpha, frac)
    check_selections(traces, X, y, alpha, frac, methods)
    check_weights(traces, methods)
    check_report(record_dir, traces, baseline)
