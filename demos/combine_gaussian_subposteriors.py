#!/usr/bin/env python3
"""Combine synthetic Gaussian subposteriors and check against the exact answer.

Five machines each hold draws from their own Gaussian "subposterior".
For Gaussian subposteriors the pooled posterior is available in closed
form (precision-weighted product), so every combiner can be scored
exactly.  Consensus with full covariance weights should essentially nail
the product moments; plain averaging ignores the differing machine
precisions and lands further away.
"""

import numpy as np

import chaincombine as cc

rng = np.random.default_rng(20250809)
d, T, M = 3, 20000, 5
scale = 0.02  # posterior-sized: big-data posteriors are tight

means, covs, draws = [], [], []
for m in range(M):
    a = rng.standard_normal((d, d))
    cov = (scale**2) * M * (a @ a.T / d + np.eye(d))
    mean = rng.normal(0.0, 0.3 * scale * np.sqrt(M), size=d)
    chol = np.linalg.cholesky(cov)
    draws.append(mean[:, None] + chol @ rng.standard_normal((d, T)))
    means.append(mean)
    covs.append(cov)

bundle = cc.SubposteriorBundle(np.stack(draws, axis=2))
mean_star, cov_star = cc.gaussian_product_oracle(means, covs)
print(f"bundle: d={d}, T={T}, M={M}")
print("oracle pooled mean:", np.round(mean_star, 5))

methods = {
    "sample average   ": cc.sample_average(bundle),
    "consensus indep  ": cc.consensus_independent(bundle),
    "consensus cov    ": cc.consensus_covariance(bundle),
    "semiparametric   ": cc.semiparametric_dpe(bundle, cc.DpeConfig(seed=1)),
}

print()
print("method             |mean - mean*|   cov error (Frobenius, relative)")
for name, combined in methods.items():
    mean_err = np.abs(combined.values.mean(axis=1) - mean_star).max()
    cov_err = np.linalg.norm(np.cov(combined.values, ddof=1) - cov_star)
    cov_rel = cov_err / np.linalg.norm(cov_star)
    print(f"{name}  {mean_err:14.6f}   {cov_rel:10.4f}")

print()
print("Per-marginal relative L2 distances against draws from the exact product:")
oracle_draws = mean_star[:, None] + np.linalg.cholesky(cov_star) @ rng.standard_normal((d, T))
for name, combined in methods.items():
    dists = [
        cc.relative_l2_distance(oracle_draws[i], combined.values[i]) for i in range(d)
    ]
    print(f"{name}  " + "  ".join(f"{x:.4f}" for x in dists))
