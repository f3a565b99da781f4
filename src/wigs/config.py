"""Experiment configuration: dataclasses, validation, YAML loading, snapshots.

A config names one dataset source (a CSV path or a bundled generator), the
preprocessing mode, the split fraction, the model settings, the method
battery with per-method parameters, and the replication plan.  The same
dictionary form round-trips through the JSON snapshot written next to run
outputs, so a finished run can be replayed byte-for-byte.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from .geometry import DistanceCache
from .model import Committee, RidgeModel
from .rng import generator
from .sac import SacConfig
from .selectors import (
    SelectionResult,
    egal_bandwidth,
    select_egal,
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


@dataclass(frozen=True)
class Query:
    """What a selector may read at one iteration."""

    model: RidgeModel
    pool_features: np.ndarray
    cache: DistanceCache | None
    committee: Committee | None
    weight: float | None
    state: object  # the value the kind's ``setup`` built for this run


@dataclass(frozen=True)
class Kind:
    """Everything the acquisition loop needs to know about one method kind.

    ``policy`` builds the weight controller from the resolved params and
    the replication seed; ``setup`` builds per-run selector state from the
    features and the seed, once, and only for the kinds that have one.
    The flags name what the loop computes each iteration for this kind.
    """

    select: Callable[[Query], SelectionResult]
    params: dict[str, Param] = field(default_factory=dict)
    policy: Callable[[dict, int], object] | None = None
    setup: Callable[[np.ndarray, int], object] | None = None
    cache: bool = False      # distance cache, updated after each acquisition
    cv_reward: bool = False  # the policy is fed the drop in CV RMSE
    sac_state: bool = False  # the policy is fed the learning-context vector
    committee: bool = False  # a bootstrap committee is refit before selection


def _unit(value) -> bool:
    return value is not None and 0.0 <= float(value) <= 1.0


def _select_wigs(q: Query) -> SelectionResult:
    return select_wigs(q.cache, q.weight)


def _sac_policy(p: dict, seed: int) -> SacPolicy:
    config = SacConfig(**{k: v for k, v in p.items() if k != "updates_per_step"})
    return SacPolicy(config, generator(seed, "sac"), updates_per_step=int(p["updates_per_step"]))


def _decay(default: float) -> dict[str, Param]:
    return {"c": Param(default, lambda c: float(c) > 0, "decay constant must be positive")}


_COMMITTEE = {"committee_size": Param(10, lambda n: int(n) >= 2,
                                      "committee needs at least 2 members")}

KINDS: dict[str, Kind] = {
    "passive": Kind(lambda q: select_passive(len(q.pool_features), q.state),
                    setup=lambda X, seed: generator(seed, "passive")),
    "gsx": Kind(lambda q: select_gsx(q.cache), cache=True),
    "gsy": Kind(lambda q: select_gsy(q.cache), cache=True),
    "igs": Kind(lambda q: select_igs(q.cache), cache=True),
    "wigs_static": Kind(
        _select_wigs, {"w": Param(None, _unit, "static weight must lie in [0, 1]")},
        policy=lambda p, seed: StaticPolicy(float(p["w"])), cache=True),
    "wigs_linear": Kind(_select_wigs, _decay(1.0),
                        policy=lambda p, seed: LinearDecayPolicy(float(p["c"])), cache=True),
    "wigs_exp": Kind(_select_wigs, _decay(5.0),
                     policy=lambda p, seed: ExpDecayPolicy(float(p["c"])), cache=True),
    "wigs_mab": Kind(
        _select_wigs,
        {"arms": Param((0.25, 0.50, 0.75), lambda arms: bool(arms) and all(map(_unit, arms)),
                       "bandit arms must lie in [0, 1]"),
         "c_explore": Param(2.0, lambda c: float(c) >= 0, "c_explore must be nonnegative")},
        policy=lambda p, seed: BanditPolicy(tuple(p["arms"]), float(p["c_explore"])),
        cache=True, cv_reward=True),
    "wigs_sac": Kind(
        _select_wigs,
        {**{f.name: Param(f.default) for f in fields(SacConfig) if f.init},
         "updates_per_step": Param(1)},
        policy=_sac_policy, cache=True, cv_reward=True, sac_state=True),
    "uncertainty": Kind(lambda q: select_uncertainty(q.model, q.pool_features)),
    "qbc": Kind(lambda q: select_qbc(q.committee, q.pool_features), _COMMITTEE, committee=True),
    "emcm": Kind(lambda q: select_emcm(q.model, q.committee, q.pool_features), _COMMITTEE,
                 committee=True),
    "egal": Kind(lambda q: select_egal(q.cache, q.state), setup=egal_bandwidth, cache=True),
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
            if not kind.params[key].check(value):
                raise ValueError(f"{self.name}: {kind.params[key].rule}")

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
        if (self.csv_path is None) == (self.dgp is None):
            raise ValueError("specify exactly one dataset source: csv_path or dgp")
        if self.dgp is not None:
            if self.dgp not in ("two_regime", "three_regime"):
                raise ValueError(f"unknown generator {self.dgp!r}")
            if self.n is None or self.n < 2:
                raise ValueError("generator runs need n >= 2")
        if self.scaling not in ("zscore", "robust"):
            raise ValueError(f"unknown scaling {self.scaling!r}")
        if not 0.0 < self.initial_fraction < 1.0:
            raise ValueError("initial_fraction must lie in (0, 1)")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")
        if not self.methods:
            raise ValueError("methods list is empty")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError("method names must be unique")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")

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
    if d.get("categorical_columns") is not None:
        d["categorical_columns"] = tuple(d["categorical_columns"])
    return ExperimentConfig(**d)


def load_config(path: str) -> ExperimentConfig:
    """Parse a YAML config file (sections: dataset, preprocessing, split,
    model, run, methods); see the README for the full schema."""
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}

    dataset = raw.get("dataset") or {}
    preprocessing = raw.get("preprocessing") or {}
    split = raw.get("split") or {}
    model = raw.get("model") or {}
    run = raw.get("run") or {}

    methods_raw = raw.get("methods")
    if methods_raw == "default" or methods_raw is None:
        methods = default_methods()
    else:
        methods = []
        for entry in methods_raw:
            entry = dict(entry)
            name = entry.pop("name")
            kind = entry.pop("kind")
            params = entry.pop("params", None)
            if params is None:
                params = entry  # flat style: remaining keys are the params
            methods.append(MethodSpec(name, kind, dict(params)))
        methods = tuple(methods)

    cat = preprocessing.get("categorical_columns")
    return ExperimentConfig(
        csv_path=dataset.get("csv"),
        dgp=dataset.get("dgp"),
        n=dataset.get("n"),
        dataset_seed=int(dataset.get("seed", 0)),
        scaling=preprocessing.get("scaling", "zscore"),
        categorical_columns=tuple(cat) if cat is not None else None,
        initial_fraction=float(split.get("initial_fraction", 0.05)),
        alpha=float(model.get("alpha", 0.01)),
        cv_folds=int(model.get("cv_folds", 5)),
        methods=methods,
        replications=int(run.get("replications", 1)),
        base_seed=int(run.get("base_seed", 0)),
        parallelism=int(run.get("parallelism", 1)),
        out_dir=str(run.get("out_dir", "results")),
    )


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
