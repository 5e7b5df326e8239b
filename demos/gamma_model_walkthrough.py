#!/usr/bin/env python3
"""Sharded Bayesian Gamma model, end to end at desk scale.

Positive data (think waiting times or delays) modeled as Gamma(alpha,
beta).  The chain walks the (mean, sd) reparameterization, which removes
most of the correlation between shape and rate, under wide uniform
priors; draws are reported back as (alpha, beta).  Shard posteriors are
combined with all four methods and scored against the full-data chain.
"""

import numpy as np

import chaincombine as cc

ALPHA, BETA = 4.0, 2.0
N, M, T, BURNIN, THIN, SEED = 20000, 5, 4000, 500, 5, 0

print(f"simulating n={N} draws from Gamma(alpha={ALPHA}, beta={BETA})")
rows = cc.simulate_gamma_data(N, ALPHA, BETA, seed=SEED)

print(f"sampling {M} shard chains + 1 full-data chain (T={T}, burnin={BURNIN}, thin={THIN})")
config = cc.MhConfig(iterations=T, burnin=BURNIN, seed=SEED, thin=THIN)
bundle, full, _ = cc.run_chains("gamma", rows, M, config)
bundle = cc.shuffle_within_machines(bundle, seed=SEED)

combined = {
    "sample average": cc.sample_average(bundle),
    "consensus indep": cc.consensus_independent(bundle),
    "consensus cov": cc.consensus_covariance(bundle),
    "semiparam dpe": cc.semiparametric_dpe(bundle, cc.DpeConfig(seed=SEED)),
}

print()
print("method            alpha    beta     (relative L2 vs full-data chain)")
for name, result in combined.items():
    dists = [cc.relative_l2_distance(full[i], result.values[i]) for i in range(2)]
    print(f"{name:16s}  {dists[0]:6.3f}  {dists[1]:6.3f}")

print()
print("full-data posterior mean of (alpha, beta):",
      np.round(full.mean(axis=1), 3), " true:", (ALPHA, BETA))
