"""Pool-based active learning for regression.

Greedy-sampling query strategies and their weighted additive extension,
adaptive weight controllers (UCB1 bandit, soft actor-critic), four
density/uncertainty baselines, and a seeded benchmark harness with
learning-curve metrics and paired statistics.
"""

from .config import ExperimentConfig, MethodSpec, default_methods, load_config
from .data import (
    ColumnMeta,
    Dataset,
    PartitionBlock,
    SplitState,
    initial_split,
    load_csv,
    sample_three_regime,
    sample_two_regime,
    save_csv,
    scale_features,
)
from .geometry import (
    DistanceBlock,
    DistanceCache,
    build_cache,
    normalize_phi,
    update_after_acquisition,
)
from .harness import RunRecord, run_block, run_experiment, run_replication
from .metrics import (
    Trace,
    auc_trapezoid,
    correlation_coefficient,
    label_efficiency,
    relative_auc,
    wilcoxon_signed_rank,
)
from .model import (
    RidgeFits,
    bootstrap_counts,
    cv_rmse,
    fit_bootstrap_committee,
    fit_ridge,
    fold_assignment,
    predictive_variance_batch,
)
from .report import emit_report, load_record
from .sac import ReplayBuffer, SacAgent, SacConfig, build_state, sac_update, sample_action
from .selectors import (
    SelectionResult,
    select_egal,
    select_emcm,
    select_gsx,
    select_gsy,
    select_igs,
    select_passive,
    select_qbc,
    select_uncertainty,
    select_wigs,
    verify_density_veto,
    veto_demo,
)
from .weights import BanditPolicy

__version__ = "0.1.0"
