#!/usr/bin/env python3
"""How the density-product sampler reacts to its bandwidth settings.

The kernel bandwidth is the method's main tuning knob.  Three settings
are compared on the same Gaussian bundle:

* annealed (default): h shrinks as t^(-1/(4+d)) from the starting value;
* fixed h = 1: no annealing at all;
* fixed rule-of-thumb bandwidths: per-component values sized to the
  actual draw spread.

The annealing schedule itself is printed first; note the d-dependence of
the exponent.
"""

import numpy as np

import chaincombine as cc

print("annealing schedule h(t) = t^(-1/(4+d)) with bandw = 1:")
print("        t:      1      2      8     32    512  10000")
for d in (1, 2, 5):
    row = [t ** (-1.0 / (4.0 + d)) for t in (1, 2, 8, 32, 512, 10000)]
    print(f"   d = {d}: " + " ".join(f"{h:6.3f}" for h in row))
print()

rng = np.random.default_rng(7)
d, T, M = 2, 8000, 5
scale = 0.02
means, covs, draws = [], [], []
for m in range(M):
    cov = (scale**2) * M * np.diag(rng.uniform(0.8, 1.2, size=d))
    mean = rng.normal(0.0, 0.3 * scale * np.sqrt(M), size=d)
    draws.append(mean[:, None] + np.sqrt(np.diag(cov))[:, None] * rng.standard_normal((d, T)))
    means.append(mean)
    covs.append(cov)
bundle = cc.SubposteriorBundle(np.stack(draws, axis=2))
mean_star, cov_star = cc.gaussian_product_oracle(means, covs)
oracle_draws = mean_star[:, None] + np.linalg.cholesky(cov_star) @ rng.standard_normal((d, T))

# Rule-of-thumb bandwidths per component, sized to one machine's spread.
rot = [cc.silverman_bandwidth(bundle.values[i, :, 0], d=d) for i in range(d)]
print("rule-of-thumb bandwidths for this bundle:", np.round(rot, 4))

settings = {
    "annealed, bandw=1 (default)": cc.DpeConfig(seed=3),
    "fixed h = 1": cc.DpeConfig(anneal=False, seed=3),
    "fixed rule-of-thumb": cc.DpeConfig(bandw=rot, anneal=False, seed=3),
}

print()
print("setting                        relative L2 per marginal vs exact product")
for name, config in settings.items():
    out = cc.semiparametric_dpe(bundle, config)
    dists = [cc.relative_l2_distance(oracle_draws[i], out.values[i]) for i in range(d)]
    print(f"{name:30s} " + "  ".join(f"{x:.4f}" for x in dists))

print()
print("The sampler is sensitive to this choice.  Large bandwidths lean on")
print("the pooled Gaussian fit, which is exactly right for Gaussian targets.")
print("Rule-of-thumb bandwidths keep the kernel correction active, but with")
print("the kernel much narrower than the draw spread the component chain")
print("accepts few moves at this T, so the distances degrade.  Prefer the")
print("defaults unless the subposteriors are visibly non-Gaussian.")
