#!/usr/bin/env python3
"""Score one pool state under every query strategy and compare the picks.

Also walks through the density-veto arithmetic: a concrete pair of scores
where the multiplicative rule is forced to pick the wrong candidate while
the additive rule keeps a whole interval of weights that pick the right
one.
"""

from wigs.data import PartitionBlock, initial_split, sample_two_regime, scale_features
from wigs.geometry import DistanceBlock, build_cache
from wigs.model import bootstrap_counts, fit_bootstrap_committee, fit_ridge
from wigs.rng import generator
from wigs.selectors import (
    egal_setup,
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
)

dataset = scale_features(sample_two_regime(120, seed=3), "zscore")
split = initial_split(dataset, 0.05, seed=1)
X, y = dataset.features, dataset.targets

# one labeled set is a block of one row: its fit is row 0 of each array
fits = fit_ridge(X[split.labeled_idx], y[split.labeled_idx], alpha=0.01)
pool_X = X[split.pool_idx]
preds = pool_X @ fits.coefficients[0] + fits.intercepts[0]
# the distance state of a block of one replication: row 0 of its partitions
distances = DistanceBlock(dataset.feature_distances, PartitionBlock(dataset, [split]), 1)
build_cache(distances, 0)
dx_pair, targets = distances.pair(0), y[split.labeled_idx]
# member i resamples with generator(1 + i, "bootstrap")
counts = bootstrap_counts(len(split.labeled_idx),
                          [generator(1 + i, "bootstrap") for i in range(10)])
# the members' (B, p) coefficients and (B,) intercepts
committee = fit_bootstrap_committee(X[split.labeled_idx], y[split.labeled_idx], 0.01, counts)
egal_state = egal_setup(dataset, seed=1)

picks = {
    "passive": select_passive(len(split.pool_idx), generator(1, "passive")),
    "gsx": select_gsx(distances.dx_min(0)),
    "gsy": select_gsy(preds, targets),
    "igs": select_igs(dx_pair, preds, targets),
    "wigs w=0.25": select_wigs(dx_pair, preds, targets, 0.25),
    "wigs w=0.75": select_wigs(dx_pair, preds, targets, 0.75),
    "uncertainty": select_uncertainty(pool_X, fits.feature_means[0], fits.gram_inverse[0],
                                      fits.sigma2_hat[0]),
    "qbc": select_qbc(pool_X, *committee),
    "emcm": select_emcm(pool_X, preds, fits.feature_means[0], *committee),
    "egal": select_egal(distances.pool(0), distances.dx_min(0), egal_state),
}

print(f"{'strategy':<14} {'pool pos':>8} {'x':>8} {'score':>12}")
for name, result in picks.items():
    ds_idx = split.pool_idx[result.chosen]
    print(f"{name:<14} {result.chosen:>8} {X[ds_idx, 0]:>8.3f} {result.score:>12.5f}")

print("\ndensity veto on normalized (diversity, uncertainty) score pairs:")
report = verify_density_veto(d_star=0.05, u_star=0.9, d_prime=0.3, u_prime=0.4)
print("  target   d=0.05 u=0.90  -> product 0.045")
print("  distractor d=0.30 u=0.40 -> product 0.120")
print("  multiplicative rule prefers distractor:", report.igs_prefers_distractor)
lo, hi = report.additive_weight_window
print(f"  additive rule prefers the target for every w in ({lo:.3f}, {hi:.3f})")
for w in (0.2, 0.5, 0.66, 0.68):
    target = w * 0.05 + (1 - w) * 0.9
    distractor = w * 0.3 + (1 - w) * 0.4
    print(f"    w={w:.3f}: target {target:.3f} vs distractor {distractor:.3f} "
          f"-> {'target' if target > distractor else 'distractor'}")
