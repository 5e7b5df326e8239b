"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Statistical criteria use fixed seeds so the suite is deterministic; the
seeds were checked to be typical (margins measured over 10-seed sweeps
during development), not cherry-picked outliers.
"""

import time

import numpy as np
import pytest

from chaincombine import (
    DpeConfig,
    MhConfig,
    SubposteriorBundle,
    consensus_covariance,
    consensus_independent,
    partition_rows,
    relative_l2_distance,
    run_chains,
    sample_average,
    semiparametric_dpe,
    shuffle_within_machines,
    silverman_bandwidth,
    simulate_gamma_data,
    simulate_logistic_data,
)
from chaincombine.cli import main
from chaincombine.combiners import _bandwidth_scales

from conftest import criterion_report, gaussian_subposteriors

BETA_TRUE = np.array([0.47, -1.70, 0.54, -0.90, 0.86])

# Shard chains advance 10 Metropolis steps per retained draw so that the
# T retained draws are near-independent; the distance bands below assume
# draw quality comparable to the reference setup they were scaled from.
THIN = 10


def batch_mcse(chain, n_batches=50):
    d, T = chain.shape
    usable = T - T % n_batches
    batches = chain[:, :usable].reshape(d, n_batches, -1).mean(axis=2)
    return batches.std(axis=1, ddof=1) / np.sqrt(n_batches)


def combine_all(bundle, seed):
    return {
        "sample-avg": sample_average(bundle),
        "consensus-indep": consensus_independent(bundle),
        "consensus-cov": consensus_covariance(bundle),
        "semiparam-dpe": semiparametric_dpe(bundle, DpeConfig(seed=seed)),
    }


def test_criterion_1_gaussian_oracle_equivalence():
    with criterion_report("1 gaussian-oracle-equivalence"):
        start = time.time()
        d, T, M = 3, 20000, 5

        rng = np.random.default_rng(101)
        bundle, mean_star, cov_star = gaussian_subposteriors(rng, d, T, M, scale=0.005)
        out = consensus_covariance(bundle)
        se = np.sqrt(np.diag(cov_star) / T)
        assert np.all(np.abs(out.values.mean(axis=1) - mean_star) < 3.0 * se)
        cov_err = np.linalg.norm(np.cov(out.values, ddof=1) - cov_star)
        assert cov_err / np.linalg.norm(cov_star) < 0.10

        rng = np.random.default_rng(102)
        bundle, mean_star, cov_star = gaussian_subposteriors(
            rng, d, T, M, scale=0.005, diagonal=True
        )
        out = consensus_independent(bundle)
        se = np.sqrt(np.diag(cov_star) / T)
        assert np.all(np.abs(out.values.mean(axis=1) - mean_star) < 3.0 * se)
        cov_err = np.linalg.norm(np.cov(out.values, ddof=1) - cov_star)
        assert cov_err / np.linalg.norm(cov_star) < 0.10

        assert time.time() - start < 10.0


def test_criterion_2_dpe_on_gaussians():
    with criterion_report("2 dpe-gaussian-correctness"):
        start = time.time()
        d, T, M = 3, 20000, 5
        rng = np.random.default_rng(103)
        bundle, mean_star, cov_star = gaussian_subposteriors(rng, d, T, M, scale=0.005)
        out = semiparametric_dpe(bundle, DpeConfig(seed=103))

        # The output is an MCMC chain: its mean's standard error combines
        # the batch-means MCSE with the moment-estimation gap between the
        # pooled sample moments and the exact oracle (~ sqrt(Sigma*/T)).
        se = np.sqrt(batch_mcse(out.values) ** 2 + np.diag(cov_star) / T)
        assert np.all(np.abs(out.values.mean(axis=1) - mean_star) < 3.0 * se)

        oracle_rng = np.random.default_rng(104)
        chol = np.linalg.cholesky(cov_star)
        oracle_draws = mean_star[:, None] + chol @ oracle_rng.standard_normal((d, T))
        for i in range(d):
            assert relative_l2_distance(oracle_draws[i], out.values[i]) < 0.05

        assert time.time() - start < 180.0


# Criteria 3 and 4 hold every method's distance below these bands.
BAND_3 = 0.10
BAND_4 = 0.08


def criterion_3_distances(seed):
    """Criterion 3's run: logistic data, n = 20000 on 5 shards, T = 10000
    after 1000 burn-in steps, sampled (shards + full data), combined four
    ways; the beta_1-marginal relative L2 distance per method."""
    rows = simulate_logistic_data(20000, BETA_TRUE, seed=seed)
    config = MhConfig(iterations=10000, burnin=1000, seed=seed, thin=THIN)
    bundle, full, _ = run_chains("logistic", rows, 5, config)
    combined = combine_all(shuffle_within_machines(bundle, seed), seed)
    return {name: relative_l2_distance(full[0], result.values[0])
            for name, result in combined.items()}


def gamma_distances(seed):
    """Criterion 4's run: Gamma(4, 2) data, n = 50000 on 5 shards, sampled,
    combined four ways; the alpha-marginal relative L2 distance per method."""
    rows = simulate_gamma_data(50000, 4.0, 2.0, seed=seed)
    config = MhConfig(iterations=10000, burnin=1000, seed=seed, thin=THIN)
    bundle, full, _ = run_chains("gamma", rows, 5, config)
    combined = combine_all(shuffle_within_machines(bundle, seed), seed)
    return {name: relative_l2_distance(full[0], result.values[0])
            for name, result in combined.items()}


def consensus_cov_top_two(distances):
    """Criterion 3's rank rule: consensus-cov is first or second closest."""
    return sorted(distances, key=distances.get).index("consensus-cov") < 2


def test_criterion_3_logistic_desk_scale():
    # Seeds 1-3 out of a ten-seed development sweep (seeds 1-10), re-run
    # when the random streams became one per role: 10/10 seeds pass the
    # distance band (largest 0.093, sample-average on seeds 3 and 7) and
    # consensus-cov ranks top-two in 9/10 (fourth on seed 10, 0.060
    # against 0.033-0.051).  Seed 1 is close: consensus-cov 0.0392,
    # consensus-indep 0.0395.  Under the earlier streams 9/10 passed the
    # band and 8/10 the rank rule.
    with criterion_report("3 logistic-desk-scale"):
        start = time.time()
        for seed in (1, 2, 3):
            distances = criterion_3_distances(seed)
            assert all(dist < BAND_3 for dist in distances.values()), (seed, distances)
            assert consensus_cov_top_two(distances), (seed, distances)
        assert time.time() - start < 600.0


def test_criterion_4_gamma_desk_scale():
    # Seed 0; over seeds 0-9 the band held on 9/10 (the miss was seed 6,
    # consensus-cov 0.082), and on 8/10 under the earlier streams.
    with criterion_report("4 gamma-desk-scale"):
        start = time.time()
        for name, alpha_distance in gamma_distances(seed=0).items():
            assert alpha_distance < BAND_4, (name, alpha_distance)
        assert time.time() - start < 600.0


def test_criterion_5_reduction_identities():
    with criterion_report("5 reduction-identities"):
        # (a) full-covariance weights reduce to per-component weights at d=1.
        rng = np.random.default_rng(105)
        bundle = SubposteriorBundle(2.0 + rng.standard_normal((1, 500, 4)))
        np.testing.assert_allclose(
            consensus_covariance(bundle).values,
            consensus_independent(bundle).values,
            rtol=1e-12,
            atol=1e-12,
        )
        # (b) equal machine variances make the weights cancel bitwise.
        base = rng.standard_normal((3, 100))
        equal = SubposteriorBundle(np.stack([base, -base, -base], axis=2))
        np.testing.assert_array_equal(
            consensus_independent(equal).values, sample_average(equal).values
        )
        # (c) M=1 is the exact identity for all three linear combiners.
        single = SubposteriorBundle(rng.standard_normal((2, 300, 1)))
        for combine in (sample_average, consensus_independent, consensus_covariance):
            np.testing.assert_array_equal(
                combine(single).values, single.values[:, :, 0]
            )


def test_criterion_6_silverman_formula():
    with criterion_report("6 silverman-formula"):
        samples = np.tile([-2.0, 2.0], 50000)  # T=100000, sd ~= 2
        assert silverman_bandwidth(samples, d=1) == pytest.approx(0.21184, abs=1e-4)
        rng = np.random.default_rng(106)
        base_samples = rng.standard_normal(1000)
        base = silverman_bandwidth(base_samples)
        assert silverman_bandwidth(8.0 * base_samples) == 8.0 * base
        assert silverman_bandwidth(-0.25 * base_samples) == 0.25 * base


def test_criterion_7_annealing_schedule(tmp_path):
    with criterion_report("7 annealing-schedule"):
        # h_t = bandw * sqrt(s_t) with bandw = 1.
        annealed = np.sqrt(_bandwidth_scales(32, 1, anneal=True))
        assert annealed[0] == 1.0
        assert annealed[31] == pytest.approx(0.5, abs=1e-12)
        fixed = np.sqrt(_bandwidth_scales(10000, 1, anneal=False))
        for step in (1, 32, 10000):
            assert fixed[step - 1] == 1.0

        # The CLI --no-anneal path reproduces the fixed-bandwidth variant.
        from chaincombine.io import read_matrix, write_bundle

        rng = np.random.default_rng(107)
        bundle = SubposteriorBundle(0.02 * rng.standard_normal((1, 300, 3)))
        manifest = tmp_path / "bundle.json"
        write_bundle(bundle, manifest)
        out_fixed = tmp_path / "fixed.csv"
        assert main(["combine", "--method", "semiparam-dpe", "--no-anneal",
                     "--seed", "1", "--bundle", str(manifest),
                     "--out", str(out_fixed)]) == 0
        expected = semiparametric_dpe(bundle, DpeConfig(anneal=False, seed=1))
        np.testing.assert_array_equal(read_matrix(out_fixed).T, expected.values)


def test_criterion_8_shuffle_and_partition_properties():
    with criterion_report("8 shuffle-partition-properties"):
        rng = np.random.default_rng(108)
        bundle = SubposteriorBundle(rng.standard_normal((3, 40, 4)))
        shuffled = shuffle_within_machines(bundle, seed=9)
        for m in range(bundle.M):
            before = np.sort(bundle.values[:, :, m].T.tolist(), axis=0)
            after = np.sort(shuffled.values[:, :, m].T.tolist(), axis=0)
            np.testing.assert_array_equal(before, after)
        np.testing.assert_array_equal(
            shuffle_within_machines(bundle, seed=9).values, shuffled.values
        )

        data = rng.standard_normal((103, 2))
        shards = partition_rows(data, 5, seed=10)
        assert sorted(s.shape[0] for s in shards) == [20, 20, 21, 21, 21]
        rebuilt = np.vstack(shards)
        np.testing.assert_array_equal(
            rebuilt[np.lexsort(rebuilt.T)], data[np.lexsort(data.T)]
        )
        again = partition_rows(data, 5, seed=10)
        for lhs, rhs in zip(shards, again):
            np.testing.assert_array_equal(lhs, rhs)


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion_report("9 determinism"):
        harness_args = ["harness", "--model", "gamma", "--n", "1500",
                        "--shards", "2", "--iters", "250", "--burnin", "50",
                        "--thin", "2", "--seed", "77"]
        main(harness_args + ["--out-dir", str(tmp_path / "a")])
        main(harness_args + ["--out-dir", str(tmp_path / "b")])
        for name in ("bundle.json", "machine_1.csv", "machine_2.csv",
                     "full_chain.csv", "run.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

        logistic_args = ["harness", "--model", "logistic", "--n", "1500",
                         "--shards", "3", "--iters", "250", "--burnin", "50",
                         "--thin", "2", "--seed", "78"]
        main(logistic_args + ["--out-dir", str(tmp_path / "la")])
        main(logistic_args + ["--out-dir", str(tmp_path / "lb")])
        for name in ("bundle.json", "machine_1.csv", "machine_2.csv",
                     "machine_3.csv", "full_chain.csv", "run.json"):
            assert (tmp_path / "la" / name).read_bytes() == (
                tmp_path / "lb" / name
            ).read_bytes(), name

        for method in ("sample-avg", "semiparam-dpe"):
            outs = []
            for tag in ("x", "y"):
                out = tmp_path / f"{method}-{tag}.csv"
                assert main(["combine", "--method", method, "--shuff",
                             "--seed", "5",
                             "--bundle", str(tmp_path / "a" / "bundle.json"),
                             "--out", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], method
