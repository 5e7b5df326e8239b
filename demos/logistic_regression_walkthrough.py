#!/usr/bin/env python3
"""Sharded Bayesian logistic regression, end to end at desk scale.

Simulates a five-covariate logistic regression, splits the rows across
five machines, samples each shard's posterior (flat priors) plus the
full-data posterior, then combines the shard draws with all four methods
and reports per-coefficient relative L2 distances against the full-data
chain.  Smaller n and T than a production run so the whole script
finishes in well under a minute.
"""

import numpy as np

import chaincombine as cc

BETA_TRUE = np.array([0.47, -1.70, 0.54, -0.90, 0.86])
N, M, T, BURNIN, THIN, SEED = 10000, 5, 4000, 500, 5, 0

print(f"simulating n={N} observations, sharding into M={M} subsets")
rows = cc.simulate_logistic_data(N, BETA_TRUE, seed=SEED)

print(f"sampling {M} shard chains + 1 full-data chain (T={T}, burnin={BURNIN}, thin={THIN})")
config = cc.MhConfig(iterations=T, burnin=BURNIN, seed=SEED, thin=THIN)
bundle, full, _ = cc.run_chains("logistic", rows, M, config)
# Permuting draws within machines decorrelates same-index draws across
# machines, which sharpens the combined sample.
bundle = cc.shuffle_within_machines(bundle, seed=SEED)

combined = {
    "sample average": cc.sample_average(bundle),
    "consensus indep": cc.consensus_independent(bundle),
    "consensus cov": cc.consensus_covariance(bundle),
    "semiparam dpe": cc.semiparametric_dpe(bundle, cc.DpeConfig(seed=SEED)),
}

print()
header = "method           " + "".join(f"  beta_{i + 1}" for i in range(5))
print(header)
for name, result in combined.items():
    dists = [cc.relative_l2_distance(full[i], result.values[i]) for i in range(5)]
    print(f"{name:16s}" + "".join(f"  {x:6.3f}" for x in dists))

print()
print("full-data posterior means:   ", np.round(full.mean(axis=1), 3))
print("consensus-cov pooled means:  ",
      np.round(combined["consensus cov"].values.mean(axis=1), 3))
print("generating coefficients:     ", BETA_TRUE)
