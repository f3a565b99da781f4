"""Experiment configuration: dataclasses, validation, YAML loading, snapshots.

A config names one dataset source (a CSV path or a bundled generator), the
preprocessing mode, the split fraction, the model settings, the method
battery with per-method parameters, and the replication plan.  The same
dictionary form round-trips through the JSON snapshot written next to run
outputs, so a finished run can be replayed byte-for-byte.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .geometry import DistanceBlock
from .model import RidgeFits
from .rng import generator
from .sac import SacConfig
from .sac import state_bytes as sac_state_bytes
from .selectors import (
    EgalState,
    SelectionResult,
    select_emcm,
    select_gsx,
    select_gsy,
    select_igs,
    select_passive,
    select_qbc,
    select_uncertainty,
    select_wigs,
)
from .weights import BanditPolicy, ExpDecayPolicy, LinearDecayPolicy, SacPolicy, StaticPolicy

ENV_OUT_DIR = "WIGS_OUT_DIR"

# Named interpretation choices baked into this implementation, embedded in
# every run snapshot so downstream consumers know which conventions
# produced the numbers.
INTERPRETATION_REGISTRY = {
    "version": 1,
    "phi_normalization": "per-iteration min-max over the full candidate x labeled pairwise distance collection, separately per metric",
    "tie_breaking": "lowest candidate index",
    "zscore_std": "population standard deviation",
    "robust_quantiles": "midpoint interpolation (average of bracketing order statistics)",
    "mixture_out_of_range": "redraw component and value until the draw lands in [0, 1]",
    "milestone_anchor": "threshold = (1 - q) * starting RMSE; final RMSE is exactly 0 at pool exhaustion",
    "relative_auc_aggregation": "per-seed AUC ratios averaged across seeds",
    "ucb_bonus": "mean_i + c_explore * sqrt(ln n / n_i)",
    "first_reward": "skipped; transitions are stored once two CV values exist",
    "replication_seeds": "base_seed + replication index; named substreams per consumer",
    "egal": "Gaussian similarity, bandwidth = mean pairwise distance on a seeded sample of <= 500 rows, diversity filter at the 25th percentile of nearest-labeled distance",
}


@dataclass(frozen=True)
class Param:
    """One method parameter: its default (None: required) and its range rule."""

    default: object = None
    check: Callable[[object], bool] = lambda value: True
    rule: str = ""  # the error message when ``check`` fails


class Query(NamedTuple):
    """What a selector may read at one iteration (a tuple: one is built per
    pair per iteration).  The pair's fit is row ``row`` of the block's
    ``fits``, whose residual variances are computed only if a selector
    reads them; ``predictions`` is its (P,) row of pool predictions,
    ``targets`` its (L,) row of labeled targets, ``distances`` the block's
    ``DistanceBlock`` (None when no pair of the block keeps a distance
    state), whose row ``row`` is a cache pair's own, and ``committee`` its
    members' (B, p) coefficients and (B,) intercepts."""

    fits: RidgeFits
    row: int
    pool_features: np.ndarray
    predictions: np.ndarray
    targets: np.ndarray
    distances: DistanceBlock | None
    committee: tuple[np.ndarray, np.ndarray] | None
    weight: float | None
    state: object  # the value the kind's ``setup`` built for this run


@dataclass(frozen=True)
class Kind:
    """Everything the acquisition loop needs to know about one method kind.

    ``policy`` builds the weight controller from the resolved params and
    the replication seed; ``setup`` builds per-run selector state from the
    dataset and the seed, once, and only for the kinds that have one (it
    may read ``dataset.feature_distances``, built once per dataset).
    ``state_bytes`` bounds what that controller and setup state hold for
    the resolved params on an N-row dataset, for the kinds where it grows
    with N or is large.  The flags name what the loop computes each
    iteration for this kind, besides the refit and the pool predictions
    that every pair gets and ``select`` reads as rows of the block's arrays
    (``Query``).  ``scorer`` names the block scorer: the block
    scores consecutive rows whose kinds name the same one together, with
    the bits ``select`` gives each row (``wigs.harness._Block.select``).
    """

    select: Callable[[Query], SelectionResult]
    params: dict[str, Param] = field(default_factory=dict)
    policy: Callable[[dict, int], object] | None = None
    setup: Callable[[Dataset, int], object] | None = None
    state_bytes: Callable[[dict, int], int] | None = None
    cache: bool = False      # a row of the block's DistanceBlock, moved after each acquisition
    cv_reward: bool = False  # the policy is fed the drop in CV RMSE
    sac_state: bool = False  # the policy is fed the learning-context vector
    committee: bool = False  # a bootstrap committee is refit before selection
    scorer: str | None = None  # the block scorer of runs of rows: "gsx", "igs" or "wigs"


def _real(value) -> bool:
    """A finite number; bools are not, nor are strings (PyYAML reads ``2e0``
    as one).  An int too large for a float raises OverflowError."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and math.isfinite(value)


def _passes(check: Callable[[object], bool], value) -> bool:
    """``check(value)``, and False where the check raises: on one number as
    bandit arms, or on an int too large for a float, such as 10**400."""
    try:
        return bool(check(value))
    except (TypeError, ValueError, OverflowError):
        return False


def _integer(value) -> bool:
    """An integer; bools are not, nor are integral floats such as 2.0."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _column_names(value) -> bool:
    """None, or a tuple or list of strings; a bare string is not (it would
    read as its letters)."""
    return value is None or isinstance(value, (tuple, list)) \
        and all(isinstance(name, str) for name in value)


def _unit(value) -> bool:
    return _real(value) and 0.0 <= value <= 1.0


def _select_wigs(q: Query) -> SelectionResult:
    return select_wigs(q.distances.pair(q.row), q.predictions, q.targets, q.weight,
                       q.distances.dx_min(q.row))


def _sac_param(name: str, default) -> Param:
    """Rule from the default's type: an int field takes an integer >= 1, a
    float field a number (``lr`` a positive one); bools are not numbers."""
    integral = isinstance(default, int)

    def check(v) -> bool:
        if not _real(v) or integral and not isinstance(v, numbers.Integral):
            return False
        return v >= 1 if integral else (v > 0 or name != "lr")

    noun = "an integer >= 1" if integral else "a positive number" if name == "lr" else "a number"
    return Param(default, check, f"{name} must be {noun}")


def _decay(default: float) -> dict[str, Param]:
    return {"c": Param(default, lambda c: _real(c) and c > 0, "decay constant must be positive")}


_COMMITTEE = {"committee_size": Param(
    10, lambda n: _real(n) and isinstance(n, numbers.Integral) and n >= 2,
    "committee needs at least 2 members (an integer)")}

KINDS: dict[str, Kind] = {
    "passive": Kind(lambda q: select_passive(len(q.pool_features), q.state),
                    setup=lambda dataset, seed: generator(seed, "passive")),
    "gsx": Kind(lambda q: select_gsx(q.distances.dx_min(q.row)), cache=True, scorer="gsx"),
    "gsy": Kind(lambda q: select_gsy(q.predictions, q.targets)),
    "igs": Kind(lambda q: select_igs(q.distances.pair(q.row), q.predictions, q.targets),
                cache=True, scorer="igs"),
    "wigs_static": Kind(
        _select_wigs, {"w": Param(None, _unit, "static weight must lie in [0, 1]")},
        policy=lambda p, seed: StaticPolicy(float(p["w"])), cache=True, scorer="wigs"),
    "wigs_linear": Kind(_select_wigs, _decay(1.0),
                        policy=lambda p, seed: LinearDecayPolicy(float(p["c"])), cache=True,
                        scorer="wigs"),
    "wigs_exp": Kind(_select_wigs, _decay(5.0),
                     policy=lambda p, seed: ExpDecayPolicy(float(p["c"])), cache=True,
                     scorer="wigs"),
    "wigs_mab": Kind(
        _select_wigs,
        {"arms": Param((0.25, 0.50, 0.75), lambda arms: bool(arms) and all(map(_unit, arms)),
                       "bandit arms must lie in [0, 1]"),
         "c_explore": Param(2.0, lambda c: _real(c) and c >= 0, "c_explore must be nonnegative")},
        policy=lambda p, seed: BanditPolicy(tuple(p["arms"]), float(p["c_explore"])),
        cache=True, cv_reward=True, scorer="wigs"),
    "wigs_sac": Kind(
        _select_wigs,
        {f.name: _sac_param(f.name, f.default) for f in fields(SacConfig) if f.init},
        policy=lambda p, seed: SacPolicy(SacConfig(**p), generator(seed, "sac")),
        state_bytes=lambda p, n: sac_state_bytes(SacConfig(**p), n),
        cache=True, cv_reward=True, sac_state=True, scorer="wigs"),
    "uncertainty": Kind(lambda q: select_uncertainty(
        q.pool_features, q.fits.feature_means[q.row], q.fits.gram_inverse[q.row],
        q.fits.sigma2_hat[q.row])),
    "qbc": Kind(lambda q: select_qbc(q.pool_features, *q.committee), _COMMITTEE, committee=True),
    "emcm": Kind(lambda q: select_emcm(q.pool_features, q.predictions,
                                       q.fits.feature_means[q.row], *q.committee),
                 _COMMITTEE, committee=True),
    # the state holds the (N, N) similarities, an (N,) running density and an (N,) mask
    "egal": Kind(lambda q: q.state.select(q.distances.pool(q.row), q.distances.dx_min(q.row)),
                 setup=EgalState.setup, state_bytes=lambda p, n: 8 * n * n + 9 * n, cache=True),
}


@dataclass(frozen=True)
class MethodSpec:
    """One selection strategy plus its parameters.

    ``name`` labels output rows and must be unique within a config;
    ``kind`` picks the entry of ``KINDS``; ``params`` holds kind-specific
    settings as given, and ``settings()`` fills in the kind's defaults.
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown method kind {self.kind!r}")
        for key in self.params:
            if key not in kind.params:
                raise ValueError(f"{self.name}: unknown parameter {key!r} for kind {self.kind!r}")
        for key, value in self.settings().items():
            param = kind.params[key]
            if not _passes(param.check, value):
                raise ValueError(f"{self.name}: {param.rule}")

    def settings(self) -> dict:
        """The params with the kind's defaults filled in."""
        defaults = {key: p.default for key, p in KINDS[self.kind].params.items()}
        return {**defaults, **self.params}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run."""

    # dataset source: exactly one of csv_path / dgp
    csv_path: str | None = None
    dgp: str | None = None
    n: int | None = None
    dataset_seed: int = 0
    scaling: str = "zscore"
    categorical_columns: tuple[str, ...] | None = None
    initial_fraction: float = 0.05
    alpha: float = 0.01
    cv_folds: int = 5
    methods: tuple[MethodSpec, ...] = ()
    replications: int = 1
    base_seed: int = 0
    parallelism: int = 1
    out_dir: str = "results"

    def __post_init__(self):
        if not (self.csv_path is None or isinstance(self.csv_path, str)):
            raise ValueError("csv_path must be a path string or None")
        if not isinstance(self.out_dir, str):
            raise ValueError("out_dir must be a path string")
        if (self.csv_path is None) == (self.dgp is None):
            raise ValueError("specify exactly one dataset source: csv_path or dgp")
        if self.dgp is not None:
            if self.dgp not in ("two_regime", "three_regime"):
                raise ValueError(f"unknown generator {self.dgp!r}")
            if not (_integer(self.n) and self.n >= 2):
                raise ValueError("generator runs need an integer n >= 2")
        if self.scaling not in ("zscore", "robust"):
            raise ValueError(f"unknown scaling {self.scaling!r}")
        if not _passes(lambda f: _real(f) and 0.0 < f < 1.0, self.initial_fraction):
            raise ValueError("initial_fraction must lie in (0, 1)")
        if not _passes(lambda a: _real(a) and a > 0, self.alpha):
            raise ValueError("alpha must be positive and finite")
        if not (_integer(self.cv_folds) and self.cv_folds >= 2):
            raise ValueError("cv_folds must be an integer >= 2")
        if not self.methods:
            raise ValueError("methods list is empty")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError("method names must be unique")
        if not (_integer(self.replications) and self.replications >= 1):
            raise ValueError("replications must be an integer >= 1")
        if not (_integer(self.parallelism) and self.parallelism >= 1):
            raise ValueError("parallelism must be an integer >= 1")
        for name in ("dataset_seed", "base_seed"):
            if not (_integer(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be an integer >= 0")
        if self.base_seed + self.replications - 1 >= 2**128:  # the batched stream derivation
            raise ValueError("base_seed + replications - 1 must lie below 2**128")
        if not _column_names(self.categorical_columns):
            raise ValueError("categorical_columns: expected a list of column names, or None")
        if self.categorical_columns is not None:
            object.__setattr__(self, "categorical_columns", tuple(self.categorical_columns))

    def resolved_out_dir(self) -> str:
        return os.environ.get(ENV_OUT_DIR, self.out_dir)


def default_methods() -> tuple[MethodSpec, ...]:
    """The standard 14-method battery with documented defaults."""
    return (
        MethodSpec("passive", "passive"),
        MethodSpec("gsx", "gsx"),
        MethodSpec("gsy", "gsy"),
        MethodSpec("igs", "igs"),
        MethodSpec("wigs_s_0.25", "wigs_static", {"w": 0.25}),
        MethodSpec("wigs_s_0.75", "wigs_static", {"w": 0.75}),
        MethodSpec("wigs_lin", "wigs_linear", {"c": 1.0}),
        MethodSpec("wigs_exp", "wigs_exp", {"c": 5.0}),
        MethodSpec("wigs_mab", "wigs_mab", {"arms": (0.25, 0.50, 0.75), "c_explore": 2.0}),
        MethodSpec("wigs_sac", "wigs_sac"),
        MethodSpec("uncertainty", "uncertainty"),
        MethodSpec("qbc", "qbc", {"committee_size": 10}),
        MethodSpec("emcm", "emcm", {"committee_size": 10}),
        MethodSpec("egal", "egal"),
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["methods"] = [asdict(m) for m in config.methods]
    return d


def config_from_dict(d: dict) -> ExperimentConfig:
    d = dict(d)
    d["methods"] = tuple(
        MethodSpec(m["name"], m["kind"], dict(m.get("params") or {}))
        for m in d.get("methods", [])
    )
    return ExperimentConfig(**d)


def _read_int(value) -> int:
    """``int`` that drops no fraction: 3, 3.0 and "3" read as 3, 2.5 is an
    error.  A bool stays a bool, for ``ExperimentConfig`` to refuse."""
    if isinstance(value, bool):
        return value
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ValueError("not an integer")
    return number


def _read_float(value) -> float:
    """``float``, which also parses a string (PyYAML reads ``1e-2`` as
    one).  A bool stays a bool, for ``ExperimentConfig`` to refuse."""
    return value if isinstance(value, bool) else float(value)


def _read_names(value) -> list[str] | None:
    """A list of column names, or null (the default), named by its key when
    it is anything else."""
    if not _column_names(value):
        raise ValueError("expected a list of column names")
    return value


# YAML section -> key -> (ExperimentConfig field, reader applied to the value
# or None).  The defaults live only in ExperimentConfig.
_YAML_FIELDS = {
    "dataset": {"csv": ("csv_path", None), "dgp": ("dgp", None), "n": ("n", _read_int),
                "seed": ("dataset_seed", _read_int)},
    "preprocessing": {"scaling": ("scaling", None),
                      "categorical_columns": ("categorical_columns", _read_names)},
    "split": {"initial_fraction": ("initial_fraction", _read_float)},
    "model": {"alpha": ("alpha", _read_float), "cv_folds": ("cv_folds", _read_int)},
    "run": {"replications": ("replications", _read_int), "base_seed": ("base_seed", _read_int),
            "parallelism": ("parallelism", _read_int), "out_dir": ("out_dir", None)},
}


def load_config(path: str) -> ExperimentConfig:
    """Parse a YAML config file (sections: dataset, preprocessing, split,
    model, run, methods); see the README for the full schema.  An unknown
    section or key, or a section of the wrong shape, is a ``ValueError``
    that names it."""
    import yaml

    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ValueError(f"a config file is a mapping of sections, not a {type(raw).__name__}")

    d = {}
    for section, entries in raw.items():
        if section == "methods":
            continue
        if section not in _YAML_FIELDS:
            raise ValueError(f"unknown config section {section!r}")
        if entries is None:  # an empty section
            entries = {}
        elif not isinstance(entries, dict):
            raise ValueError(f"config section {section!r} is a mapping of keys, not {entries!r}")
        for key, value in entries.items():
            if key not in _YAML_FIELDS[section]:
                raise ValueError(f"unknown key {key!r} in config section {section!r}")
            name, read = _YAML_FIELDS[section][key]
            try:
                d[name] = value if read is None else read(value)
            except (TypeError, ValueError, OverflowError) as exc:  # e.g. .inf, .nan, 2.5
                raise ValueError(f"{section}.{key} = {value!r}: {exc}") from exc

    methods_raw = raw.get("methods")
    if methods_raw == "default" or methods_raw is None:
        d["methods"] = [asdict(m) for m in default_methods()]
    elif not isinstance(methods_raw, list):
        raise ValueError(f"config section 'methods' is 'default' or a list of methods, "
                         f"not {methods_raw!r}")
    else:
        d["methods"] = []
        for i, entry in enumerate(methods_raw):
            if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
                raise ValueError(f"methods entry {i} needs a name and a kind: {entry!r}")
            entry = dict(entry)
            name, kind = entry.pop("name"), entry.pop("kind")
            params = entry.pop("params", None)
            if params is None:
                params = entry  # flat style: remaining keys are the params
            elif not isinstance(params, dict):
                raise ValueError(f"{name}: params is a mapping, not {params!r}")
            elif entry:
                raise ValueError(f"{name}: unknown keys {sorted(entry)} beside params")
            d["methods"].append({"name": name, "kind": kind, "params": params})
    return config_from_dict(d)


def snapshot_json(config: ExperimentConfig) -> str:
    """Deterministic JSON snapshot embedded in run outputs."""
    payload = {
        "schema_version": 1,
        "config": config_to_dict(config),
        "interpretation": INTERPRETATION_REGISTRY,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def snapshot_to_config(text: str) -> ExperimentConfig:
    return config_from_dict(json.loads(text)["config"])
