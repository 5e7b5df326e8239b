"""Data simulators, shard samplers, partitioning and the product oracle.

``reference_random_walk`` and the two reference densities below are the
Metropolis loop and log densities in plain numpy-scalar form, drawing a
block of normals and then a block of uniforms every ``RANDOM_BLOCK``
steps.  ``TestBitwiseAgainstReference`` holds the sampler to them bit for
bit: same draws, same acceptance rate.  ``TestEnvelopeScreen`` holds the
logistic chains, which skip proposals their envelope rejects, to the
unscreened sampler in the same way.
"""

import math
import multiprocessing
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chaincombine import harness
from chaincombine import (
    DegenerateChain,
    DpeConfig,
    MhConfig,
    NonConvergenceWarning,
    NonPositiveData,
    SingularCovariance,
    SubposteriorBundle,
    TooManyShards,
    adaptive_random_walk,
    gaussian_product_oracle,
    partition_rows,
    run_chains,
    semiparametric_dpe,
    shuffle_within_machines,
    simulate_gamma_data,
    simulate_logistic_data,
)
from chaincombine.core import ROLES
from chaincombine.harness import (
    _expit,
    _gamma_chain,
    _gamma_log_posterior,
    _logistic_chain,
    _logistic_envelope,
    _logistic_log_likelihood,
    _logistic_mode,
)

BETA_REFERENCE = np.array([0.47, -1.70, 0.54, -0.90, 0.86])


def serial_chains(chain, rows, shards, config):
    """What ``run_chains`` computes, one chain at a time in this process:
    the shards cut by seed s, then chain m on chain stream m of s, the
    full data last.  Returns one ``(draws, rate)`` per chain."""
    blocks = [*partition_rows(rows, shards, config.seed), rows]
    return [chain(block, config, m) for m, block in enumerate(blocks)]


def reference_random_walk(log_density, start, config, chain=0):
    """The Metropolis loop of ``adaptive_random_walk``, one column per kept
    draw, with the rate the fraction of post-burn-in proposals accepted."""
    start = np.asarray(start, dtype=float)
    d = start.size
    target = harness.TARGET_ACCEPT_SCALAR if d == 1 else harness.TARGET_ACCEPT_MULTIVARIATE
    key = (ROLES.index("chain"), chain)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=key))
    x = start.copy()
    log_p = log_density(x)
    chol = harness._proposal_cholesky(log_density, start)
    scale = 2.38 / np.sqrt(d)
    draws = np.empty((d, config.iterations))
    total_steps = config.burnin + config.iterations * config.thin
    block = harness.RANDOM_BLOCK
    accepts = 0
    for k in range(total_steps):
        if k % block == 0:
            size = min(block, total_steps - k)
            steps = rng.standard_normal((size, d)) @ chol.T
            uniforms = rng.uniform(size=size)
        proposal = x + scale * steps[k % block]
        log_p_prop = log_density(proposal)
        if log_p_prop == -math.inf:
            accept_prob = 0.0
        else:
            accept_prob = math.exp(min(0.0, log_p_prop - log_p))
            if uniforms[k % block] < accept_prob:
                x = proposal
                log_p = log_p_prop
                accepts += k >= config.burnin
        if k < config.burnin:
            scale *= math.exp((k + 1.0) ** -0.6 * (accept_prob - target))
        else:
            kept = k - config.burnin
            if kept % config.thin == config.thin - 1:
                draws[:, kept // config.thin] = x
    return draws, accepts / (config.iterations * config.thin)


def reference_logistic_log_likelihood(x, y):
    xt = np.ascontiguousarray(x.T)
    yx = xt @ y

    def log_density(beta):
        logits = beta @ xt
        softplus = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))
        return yx @ beta - softplus.sum()

    return log_density


def reference_gamma_log_posterior(y):
    n = y.size
    sum_y = y.sum()
    sum_log_y = np.log(y).sum()

    def log_density(params):
        mean, sd = params
        if not (harness.GAMMA_PRIOR_LO < mean < harness.GAMMA_PRIOR_HI
                and harness.GAMMA_PRIOR_LO < sd < harness.GAMMA_PRIOR_HI):
            return -math.inf
        var = sd * sd
        alpha = mean * mean / var
        beta = mean / var
        return (
            n * (alpha * math.log(beta) - math.lgamma(alpha))
            + (alpha - 1.0) * sum_log_y
            - beta * sum_y
        )

    return log_density


def _logistic_shard():
    shard = partition_rows(simulate_logistic_data(4000, BETA_REFERENCE, seed=60), 4, seed=61)[0]
    x, y = shard[:, 1:], shard[:, 0]
    return _logistic_log_likelihood(x, y), reference_logistic_log_likelihood(x, y), \
        _logistic_mode(x, y)


def _gamma_shard():
    y = partition_rows(simulate_gamma_data(4000, 4.0, 2.0, seed=62), 4, seed=63)[0][:, 0]
    return _gamma_log_posterior(y), reference_gamma_log_posterior(y), \
        np.array([y.mean(), y.std(ddof=1)])


def _half_plane():
    # -inf for x_0 >= 0.5: about a third of the proposals draw no uniform.
    def log_target(x):
        return -0.5 * float(x @ x) if x[0] < 0.5 else -np.inf

    return log_target, log_target, np.zeros(2)


def _gaussian(d):
    def log_target(x):
        return -0.5 * float(x @ x)

    return lambda: (log_target, log_target, np.full(d, 0.25))


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("problem, config", [
        (_logistic_shard, MhConfig(iterations=600, burnin=200, seed=64)),
        (_gamma_shard, MhConfig(iterations=600, burnin=200, seed=65)),
        (_half_plane, MhConfig(iterations=600, burnin=200, seed=66)),
        (_gamma_shard, MhConfig(iterations=300, burnin=200, seed=67, thin=3)),
        (_gaussian(3), MhConfig(iterations=600, burnin=0, seed=68)),
        (_gaussian(1), MhConfig(iterations=600, burnin=200, seed=69)),
        # Three blocks and 7 steps: the burn-in ends inside the first block.
        (_gaussian(2), MhConfig(iterations=harness.RANDOM_BLOCK, burnin=7, seed=71, thin=3)),
        # The scale freezes on a block edge, then 5 steps past one.
        (_gaussian(2), MhConfig(iterations=300, burnin=harness.RANDOM_BLOCK, seed=72)),
        (_gaussian(2), MhConfig(iterations=300, burnin=harness.RANDOM_BLOCK + 5, seed=73,
                                thin=3)),
    ], ids=["logistic-shard", "gamma-shard", "inf-region", "thin-3", "burnin-0", "d-1",
            "three-blocks-and-7", "burnin-on-block-edge", "burnin-past-block-edge"])
    def test_draws_and_rate_equal_reference(self, problem, config):
        log_density, reference_density, start = problem()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            draws, rate = adaptive_random_walk(log_density, start, config)
            ref_draws, ref_rate = reference_random_walk(reference_density, start, config)
        assert draws.shape == ref_draws.shape == (start.size, config.iterations)
        assert draws.flags.c_contiguous
        np.testing.assert_array_equal(draws, ref_draws)
        assert rate == ref_rate

    @pytest.mark.parametrize("problem, points", [(_logistic_shard, 300), (_gamma_shard, 5000)],
                             ids=["logistic-shard", "gamma-shard"])
    def test_log_density_equals_reference(self, problem, points):
        log_density, reference_density, mode = problem()
        rng = np.random.default_rng(70)
        for params in mode * np.exp(0.3 * rng.standard_normal((points, mode.size))):
            assert log_density(params) == reference_density(params)


def _shard_rows(seed):
    return partition_rows(simulate_logistic_data(20000, BETA_REFERENCE, seed), 5, seed)[0]


def _duplicated_column_rows(seed):
    # X^T W X is singular, so the envelope's curvature is 0 up to rounding.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2000, 3))
    x[:, 1] = x[:, 0]
    y = (rng.uniform(size=2000) < _expit(x @ [0.5, 0.5, -1.0])).astype(float)
    return np.column_stack([y, x])


def _near_separable_rows(seed):
    # A skewed posterior with a heavy tail: 30 rows, one covariate, slope 4.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 1))
    y = (rng.uniform(size=30) < _expit(4.0 * x[:, 0])).astype(float)
    return np.column_stack([y, x])


def counting_log_likelihoods(monkeypatch):
    """Make every logistic chain count its log-density calls, one entry
    per chain in the returned list."""
    make = harness._logistic_log_likelihood
    calls = []

    def counting(x, y):
        log_density = make(x, y)
        calls.append(0)

        def counted(beta):
            calls[-1] += 1
            return log_density(beta)

        return counted

    monkeypatch.setattr(harness, "_logistic_log_likelihood", counting)
    return calls


class TestEnvelopeScreen:
    @staticmethod
    def assert_screen_is_exact(rows, config):
        x, y = rows[:, 1:], rows[:, 0]
        chain = config.seed % 6
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            draws, rate = _logistic_chain(rows, config, chain)
            ref_draws, ref_rate = adaptive_random_walk(
                _logistic_log_likelihood(x, y), _logistic_mode(x, y), config, chain)
        assert draws.tobytes() == ref_draws.tobytes()
        assert rate == ref_rate

    @pytest.mark.parametrize("rows, config", [
        (_shard_rows, MhConfig(iterations=800, burnin=200, seed=80)),
        (lambda seed: simulate_logistic_data(20000, BETA_REFERENCE, seed),
         MhConfig(iterations=1000, burnin=500, seed=81, thin=2)),
        (_shard_rows, MhConfig(iterations=300, burnin=100, seed=82, thin=10)),
        (_shard_rows, MhConfig(iterations=600, burnin=0, seed=83)),
        # The burn-in ends inside the first block, and the screened steps
        # cross into a second, where w is solved for afresh.
        (_shard_rows, MhConfig(iterations=2000, burnin=300, seed=84, thin=2)),
        (_shard_rows, MhConfig(iterations=400, burnin=harness.RANDOM_BLOCK + 100, seed=85)),
        (_duplicated_column_rows, MhConfig(iterations=1000, burnin=200, seed=86)),
    ], ids=["shard-thin-1", "full-thin-2", "shard-thin-10", "burnin-0", "across-a-block-edge",
            "burnin-ends-in-second-block", "duplicated-column"])
    def test_screened_chain_equals_unscreened(self, rows, config):
        self.assert_screen_is_exact(rows(config.seed), config)

    def test_ball_keeps_out_what_the_bound_does_not_cover(self, monkeypatch):
        # Well outside radius 1 the bound built for that radius fails on
        # this skewed posterior; only the ball test keeps those proposals
        # from being screened.
        monkeypatch.setattr(harness, "ENVELOPE_RADIUS", 1.0)
        self.assert_screen_is_exact(_near_separable_rows(87),
                                    MhConfig(iterations=2000, burnin=0, seed=87))

    def test_log_density_calls_at_benchmark_size(self, monkeypatch):
        # logistic-pipeline's harness: n = 20000, 5 shards, 1000 draws at
        # thin 2 after 500 burn-in steps, seed 3.  Unscreened, each chain
        # calls the log density 1 + 60 (the proposal Hessian) + 2500 times,
        # 15,366 calls in all.  Screened, it took 8,797 calls, the full
        # chain evaluating 682 of its 2,000 post-burn-in steps.  Bounds:
        # at most 60% of the unscreened calls, and at most 40% of the full
        # chain's post-burn-in steps evaluated (its cost is the harness's).
        calls = counting_log_likelihoods(monkeypatch)
        rows = simulate_logistic_data(20000, BETA_REFERENCE, seed=3)
        serial_chains(_logistic_chain, rows, 5, MhConfig(iterations=1000, burnin=500, seed=3,
                                                         thin=2))
        assert len(calls) == 6
        assert sum(calls) <= 0.6 * 6 * 2561
        assert calls[-1] - 561 <= 0.4 * 2000

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(20, 200), d=st.integers(1, 4), size=st.floats(0.0, 6.0),
           offset=st.sampled_from([0.0, 0.5, 2.0]), seed=st.integers(0, 2**32 - 1))
    def test_envelope_bounds_the_log_density(self, n, d, size, offset, seed):
        # Large coefficients on few rows make near-separable shards, whose
        # logits at the mode are large and whose curvature is small.  The
        # bound holds around any center; off the mode its margin holds
        # the slope term.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        y = (rng.uniform(size=n) < _expit(x @ (size * rng.standard_normal(d)))).astype(float)
        log_density = _logistic_log_likelihood(x, y)
        try:
            mode = _logistic_mode(x, y)
        except DegenerateChain:
            assume(False)
        chol = harness._proposal_cholesky(log_density, mode)
        center = mode + offset * (chol @ rng.standard_normal(d))
        half_curvature, margin = _logistic_envelope(x, y, center, chol)
        # 32 points on the ball's boundary, 32 inside it.
        w = rng.standard_normal((64, d))
        w *= harness.ENVELOPE_RADIUS / np.linalg.norm(w, axis=1, keepdims=True)
        w[32:] *= rng.uniform(size=(32, 1))
        ceiling = log_density(center) + margin
        for point in w:
            assert log_density(center + chol @ point) <= ceiling - half_curvature * (point @ point)


class TestSimulateLogistic:
    def test_zero_coefficients_balance_outcomes(self):
        n = 40000
        y = simulate_logistic_data(n, np.zeros(5), seed=0)[:, 0]
        assert abs(y.mean() - 0.5) < 3.0 / np.sqrt(n)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            simulate_logistic_data(0, BETA_REFERENCE, seed=0)

    def test_mle_recovers_reference_coefficients(self):
        n = 100000
        rows = simulate_logistic_data(n, BETA_REFERENCE, seed=1)
        x, y = rows[:, 1:], rows[:, 0]
        beta_hat = _logistic_mode(x, y)
        # Asymptotic standard errors from the observed information.
        p = 1.0 / (1.0 + np.exp(-(x @ beta_hat)))
        info = (x * (p * (1.0 - p))[:, None]).T @ x
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        assert np.all(np.abs(beta_hat - BETA_REFERENCE) < 3.0 * se)

    def test_mode_zeroes_the_score(self):
        # Newton's method converges quadratically, so the score
        # X^T (y - p) vanishes at the returned mode to rounding error.
        rows = simulate_logistic_data(20000, BETA_REFERENCE, seed=1)
        x, y = rows[:, 1:], rows[:, 0]
        beta_hat = _logistic_mode(x, y)
        score = x.T @ (y - _expit(x @ beta_hat))
        assert np.abs(score).max() <= 1e-8

    @pytest.mark.parametrize("design", ["separable", "duplicated-column"])
    def test_rank_deficient_mode_is_finite(self, design):
        # A duplicated column makes X^T W X singular; the mode must still
        # come out finite, with no warning.  Separable outcomes have no
        # finite maximum at all, so they must raise DegenerateChain, also
        # with no warning on the way.
        rng = np.random.default_rng(42)
        x = rng.standard_normal((200, 3))
        if design == "separable":
            y = (x[:, 0] + 0.5 * x[:, 1] > 0.0).astype(float)
        else:
            x[:, 1] = x[:, 0]
            y = (rng.uniform(size=200) < _expit(x @ [0.5, 0.5, -1.0])).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if design == "separable":
                with pytest.raises(DegenerateChain, match="no finite maximum"):
                    _logistic_mode(x, y)
                return
            beta_hat = _logistic_mode(x, y)
        assert np.all(np.isfinite(beta_hat))

    def test_all_weights_underflowing_is_not_a_mode(self):
        # Every outcome is 1, so the likelihood grows without bound in beta.
        # Newton's steps drive every p(1 - p) to exactly zero within the
        # step cap, where a zero step would otherwise pass for convergence.
        x = np.array([[1.0], [2.0]])
        y = np.array([1.0, 1.0])
        with pytest.raises(DegenerateChain):
            _logistic_mode(x, y)

    def test_deterministic(self):
        a = simulate_logistic_data(100, BETA_REFERENCE, seed=3)
        b = simulate_logistic_data(100, BETA_REFERENCE, seed=3)
        np.testing.assert_array_equal(a, b)


class TestLogisticPosterior:
    def test_posterior_covers_truth_on_one_shard(self):
        # The chain against the exact posterior's Laplace approximation
        # N(mode, I(mode)^-1): each mean within half a posterior sd of the
        # mode and each sd within 0.8-1.25 times the Laplace one.  Then the truth
        # inside the chain's 99.9% joint region, whose squared Mahalanobis
        # radius is the chi-square(5) quantile 20.52: a box of five 3 sd
        # intervals misses a true value for about 1.3% of data sets.
        rows = simulate_logistic_data(10000, BETA_REFERENCE, seed=5)
        config = MhConfig(iterations=4000, burnin=500, seed=6)
        draws, _ = _logistic_chain(rows, config)
        assert draws.shape == (5, 4000)
        x, y = rows[:, 1:], rows[:, 0]
        mode = _logistic_mode(x, y)
        p = _expit(x @ mode)
        laplace_sd = np.sqrt(np.diag(np.linalg.inv((x.T * (p * (1.0 - p))) @ x)))
        mean, cov = draws.mean(axis=1), np.cov(draws)
        assert np.all(np.abs(mean - mode) < 0.5 * laplace_sd)
        sd_ratio = np.sqrt(np.diag(cov)) / laplace_sd
        assert np.all((0.8 < sd_ratio) & (sd_ratio < 1.25))
        miss = BETA_REFERENCE - mean
        assert miss @ np.linalg.solve(cov, miss) < 20.52

    def test_disjoint_shards_differ_but_both_cover(self):
        rows = simulate_logistic_data(10000, BETA_REFERENCE, seed=7)
        shards = partition_rows(rows, 2, seed=8)
        chains = []
        for m, shard in enumerate(shards):
            config = MhConfig(iterations=3000, burnin=500, seed=9 + m)
            chains.append(_logistic_chain(shard, config)[0])
        assert not np.array_equal(chains[0], chains[1])
        for draws in chains:
            mean = draws.mean(axis=1)
            sd = draws.std(axis=1, ddof=1)
            assert np.all(np.abs(mean - BETA_REFERENCE) < 3.0 * sd)

    def test_flat_prior_constant_cancels_in_acceptance(self, monkeypatch):
        # Adding a constant to the log target must leave every Metropolis
        # decision unchanged: same seed, same proposal factor, same chain.
        monkeypatch.setattr(harness, "_proposal_cholesky", lambda f, x: np.eye(2))

        def log_target(x):
            return -0.5 * float(x @ x)

        def shifted(x):
            return log_target(x) + 123.25

        # burnin=0 freezes the proposal scale: any difference could only
        # come from the accept/reject decisions themselves.
        config = MhConfig(iterations=2000, burnin=0, seed=11)
        a, _ = adaptive_random_walk(log_target, np.zeros(2), config)
        b, _ = adaptive_random_walk(shifted, np.zeros(2), config)
        np.testing.assert_array_equal(a, b)


class TestLogisticLogDensity:
    @staticmethod
    def reference(x, y, beta):
        return y @ x @ beta - np.logaddexp(0.0, x @ beta).sum()

    def test_matches_logaddexp_at_extreme_logits(self):
        rng = np.random.default_rng(40)
        n = 401
        x = np.column_stack([np.linspace(-800.0, 800.0, n), rng.standard_normal((n, 2))])
        y = (rng.uniform(size=n) < 0.5).astype(float)
        log_density = _logistic_log_likelihood(x, y)
        for beta in ([1.0, 0.3, -0.2], [-1.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.01, 2.0, -1.0]):
            beta = np.array(beta)
            np.testing.assert_allclose(
                log_density(beta), self.reference(x, y, beta), rtol=1e-12
            )
        # Where the naive log(1 + e^z) overflows, the stable form stays finite.
        with np.errstate(over="ignore"):
            assert np.isinf(np.log1p(np.exp(x[:, 0])).sum())
        assert np.isfinite(log_density(np.array([1.0, 0.0, 0.0])))

    def test_strided_rows_match_contiguous_copy(self):
        rows = simulate_logistic_data(500, BETA_REFERENCE, seed=41)
        x, y = rows[:, 1:], rows[:, 0]
        assert not x.flags.c_contiguous
        beta = BETA_REFERENCE + 0.1
        strided = _logistic_log_likelihood(x, y)(beta)
        contiguous = _logistic_log_likelihood(np.ascontiguousarray(x), y)(beta)
        assert strided == contiguous


class TestRunChains:
    CONFIG = MhConfig(iterations=200, burnin=100, seed=50)

    @staticmethod
    def assert_matches_serial(model, chain, rows, shards, config):
        bundle, full, rates = run_chains(model, rows, shards, config)
        serial = serial_chains(chain, rows, shards, config)
        expected = np.stack([draws for draws, _ in serial[:-1]], axis=2)
        np.testing.assert_array_equal(bundle.values, expected)
        np.testing.assert_array_equal(full, serial[-1][0])
        assert rates == [rate for _, rate in serial]

    def test_logistic_matches_serial_bitwise(self):
        rows = simulate_logistic_data(3000, BETA_REFERENCE, seed=42)
        self.assert_matches_serial("logistic", _logistic_chain, rows, 3,
                                   replace(self.CONFIG, thin=2))

    def test_gamma_matches_serial_bitwise(self, monkeypatch):
        # Whatever the worker count: five blocks on fewer workers make a
        # worker run several tasks, each naming its block by index.
        rows = simulate_gamma_data(3000, 4.0, 2.0, seed=44)
        for workers in (1, 2, 3):
            monkeypatch.setattr(harness, "_usable_cores", lambda: workers)
            self.assert_matches_serial("gamma", _gamma_chain, rows, 4, self.CONFIG)

    def test_spawned_workers_give_the_forked_bytes(self, monkeypatch, tmp_path):
        # The path of platforms without fork: each worker unpickles the
        # rows and the cut once, from its process arguments.
        rows = simulate_gamma_data(2000, 4.0, 2.0, seed=46)
        names = ["shard_1.csv", "shard_2.csv", "shard_3.csv", "full.csv"]
        for method in ("fork", "spawn"):
            (tmp_path / method).mkdir()
        forked = run_chains("gamma", rows, 3, self.CONFIG, [tmp_path / "fork" / n for n in names])
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
        spawned = run_chains("gamma", rows, 3, self.CONFIG, [tmp_path / "spawn" / n for n in names])
        assert spawned[0].values.tobytes() == forked[0].values.tobytes()
        assert spawned[1].tobytes() == forked[1].tobytes()
        assert spawned[2] == forked[2]
        for name in names:
            assert (tmp_path / "spawn" / name).read_bytes() == \
                (tmp_path / "fork" / name).read_bytes()

    def test_parent_holds_no_shard(self):
        # The workers gather their own shards from the inherited rows: the
        # parent allocates the permutation (one sixth of the rows here) and
        # no permuted copy of the rows.
        rows = simulate_logistic_data(100_000, BETA_REFERENCE, seed=48)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonConvergenceWarning)
                run_chains("logistic", rows, 4, MhConfig(iterations=20, burnin=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * rows.nbytes

    @pytest.mark.parametrize("model, paths, match", [
        ("probit", None, "unknown model"),
        ("gamma", ["a.csv", "b.csv"], "2 shards need 3 paths, got 2"),
    ])
    def test_bad_arguments_rejected(self, model, paths, match):
        rows = simulate_gamma_data(100, 4.0, 2.0, seed=45)
        with pytest.raises(ValueError, match=match):
            run_chains(model, rows, 2, self.CONFIG, paths)

    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0], [-2.0], [3.0]]), NonPositiveData),
        (np.full((10, 1), 2.5), DegenerateChain),
    ])
    def test_worker_error_keeps_its_type(self, bad, error):
        with pytest.raises(error) as caught:
            run_chains("gamma", bad, 1, self.CONFIG)
        assert caught.value.exit_code == 2
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_and_is_joined(self, monkeypatch):
        # A worker that dies mid-chain, as one killed for memory would,
        # closes its pipe; the forked workers inherit the patched chain.
        gamma_chain = harness._gamma_chain

        def dying_chain(rows, config, chain=0):
            if chain == 2:
                os._exit(1)
            return gamma_chain(rows, config, chain)

        monkeypatch.setattr(harness, "_gamma_chain", dying_chain)
        rows = simulate_gamma_data(2000, 4.0, 2.0, seed=51)
        with pytest.raises(ChildProcessError):
            run_chains("gamma", rows, 3, self.CONFIG)
        assert multiprocessing.active_children() == []

    def test_thousands_of_shards(self):
        # Each worker has one chain index in flight: 5,000 indices queued
        # at once would fill the pipes before any worker reads them.
        rows = simulate_gamma_data(20_000, 4.0, 2.0, seed=52)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle, _, _ = run_chains("gamma", rows, 5000, MhConfig(iterations=2, burnin=0))
        assert bundle.values.shape == (2, 2, 5000)

    def test_warnings_reissued_in_chain_order(self, monkeypatch):
        # An empty healthy range makes every chain warn; the forked
        # workers inherit the patched module.
        monkeypatch.setattr(harness, "ACCEPTANCE_HEALTHY", (1.0, 0.0))
        rows = simulate_gamma_data(2000, 4.0, 2.0, seed=47)
        with pytest.warns(NonConvergenceWarning) as serial:
            serial_chains(_gamma_chain, rows, 3, self.CONFIG)
        with pytest.warns(NonConvergenceWarning) as parallel:
            run_chains("gamma", rows, 3, self.CONFIG)
        assert len(serial) == 3 + 1
        assert [str(w.message) for w in parallel] == [str(w.message) for w in serial]

    def test_warning_filter_error_raises_in_caller(self, monkeypatch):
        monkeypatch.setattr(harness, "ACCEPTANCE_HEALTHY", (1.0, 0.0))
        rows = simulate_gamma_data(1000, 4.0, 2.0, seed=49)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergenceWarning)
            with pytest.raises(NonConvergenceWarning):
                run_chains("gamma", rows, 1, self.CONFIG)


class TestStreamIndependence:
    def test_no_two_roles_share_a_stream(self, monkeypatch):
        # Every generator a harness-to-combine run makes, by its first
        # words: data, shard cut, chains 0..M, shuffle machines 0..M-1 and
        # the DPE, under seeds s and s + k for k = 1..5.  The chains run
        # in this process, as run_chains' workers run them, so that their
        # generators are recorded too.
        make_rng = np.random.default_rng
        words = []

        def recording_rng(seed):
            words.append(tuple(make_rng(seed).bit_generator.random_raw(2).tolist()))
            return make_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        M, seeds = 3, range(1, 7)
        for seed in seeds:
            rows = simulate_gamma_data(300, 4.0, 2.0, seed)
            config = MhConfig(iterations=200, burnin=50, seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonConvergenceWarning)
                chains = serial_chains(_gamma_chain, rows, M, config)
            bundle = SubposteriorBundle(np.stack([draws for draws, _ in chains[:-1]], axis=2))
            semiparametric_dpe(shuffle_within_machines(bundle, seed), DpeConfig(seed=seed))
        assert len(words) == len(seeds) * (1 + 1 + (M + 1) + M + 1)
        assert len(set(words)) == len(words)


class TestSimulateGamma:
    def test_unit_mean_when_shape_equals_rate(self):
        n = 50000
        y = simulate_gamma_data(n, 3.0, 3.0, seed=12)
        assert abs(y.mean() - 1.0) < 3.0 * y.std() / np.sqrt(n)

    def test_moments_of_gamma_4_2(self):
        y = simulate_gamma_data(100000, 4.0, 2.0, seed=13)
        assert y.shape == (100000, 1)
        assert y.mean() == pytest.approx(2.0, abs=0.02)
        assert y.var() == pytest.approx(1.0, abs=0.03)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            simulate_gamma_data(0, 4.0, 2.0, seed=14)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 2.0), (4.0, -1.0)])
    def test_nonpositive_parameters_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="must be positive"):
            simulate_gamma_data(100, alpha, beta, seed=14)

    def test_deterministic(self):
        a = simulate_gamma_data(100, 4.0, 2.0, seed=14)
        b = simulate_gamma_data(100, 4.0, 2.0, seed=14)
        np.testing.assert_array_equal(a, b)


class TestGammaPosterior:
    def test_posterior_covers_truth(self):
        rows = simulate_gamma_data(20000, 4.0, 2.0, seed=15)
        config = MhConfig(iterations=4000, burnin=500, seed=16)
        draws, _ = _gamma_chain(rows, config)
        assert draws.shape == (2, 4000)
        mean = draws.mean(axis=1)
        sd = draws.std(axis=1, ddof=1)
        assert abs(mean[0] - 4.0) < 3.0 * sd[0]
        assert abs(mean[1] - 2.0) < 3.0 * sd[1]

    def test_prior_box_boundary_rejected(self):
        log_density = _gamma_log_posterior(simulate_gamma_data(100, 4.0, 2.0, seed=30)[:, 0])
        # The Uniform(1e-4, 1e4) priors are open: each edge has no mass.
        for edge in ([1e-4, 1.0], [1e4, 1.0], [2.0, 1e-4], [2.0, 1e4]):
            assert log_density(np.array(edge)) == -np.inf
        assert np.isfinite(log_density(np.array([2.0, 1.0])))

    def test_stencil_outside_prior_falls_back_to_diagonal(self):
        # The Hessian stencil around this start reaches below mean = 1e-4.
        log_density = _gamma_log_posterior(simulate_gamma_data(100, 4.0, 2.0, seed=31)[:, 0])
        start = np.array([1.5e-4, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chol = harness._proposal_cholesky(log_density, start)
        np.testing.assert_array_equal(chol, np.eye(2))

    def test_shape_rate_algebra_against_internal_state(self):
        rows = simulate_gamma_data(5000, 4.0, 2.0, seed=17)
        y = rows[:, 0]
        config = MhConfig(iterations=500, burnin=100, seed=18)
        (alpha, beta), _ = _gamma_chain(rows, config)
        # The same (mean, sd) chain, run directly from the same start and seed.
        start = np.array([y.mean(), y.std(ddof=1)])
        (lam, delta), _ = adaptive_random_walk(_gamma_log_posterior(y), start, config)
        np.testing.assert_allclose(alpha / beta, lam, rtol=1e-12)
        np.testing.assert_allclose(alpha / beta**2, delta**2, rtol=1e-12)

    def test_nonpositive_data_rejected(self):
        with pytest.raises(NonPositiveData):
            _gamma_chain(np.array([[1.0], [-2.0], [3.0]]), MhConfig(iterations=10, burnin=0))


class TestPartitionRows:
    def test_too_many_shards(self):
        with pytest.raises(TooManyShards):
            partition_rows(np.arange(3.0)[:, None], 4, seed=24)


class TestGaussianProductOracle:
    def test_single_gaussian_identity(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        mean_star, cov_star = gaussian_product_oracle([mean], [cov])
        np.testing.assert_allclose(mean_star, mean, rtol=1e-12)
        np.testing.assert_allclose(cov_star, cov, rtol=1e-12)

    def test_scalar_precision_arithmetic(self):
        mean_star, cov_star = gaussian_product_oracle(
            [[0.0], [4.0]], [[[2.0]], [[2.0]]]
        )
        np.testing.assert_allclose(mean_star, [2.0], rtol=1e-14)
        np.testing.assert_allclose(cov_star, [[1.0]], rtol=1e-14)

    def test_three_equal_gaussians(self):
        mean = np.array([0.5, 1.5])
        cov = np.array([[1.0, 0.2], [0.2, 2.0]])
        mean_star, cov_star = gaussian_product_oracle([mean] * 3, [cov] * 3)
        np.testing.assert_allclose(mean_star, mean, rtol=1e-12)
        np.testing.assert_allclose(cov_star, cov / 3.0, rtol=1e-12)

    def test_singular_input_rejected(self):
        with pytest.raises(SingularCovariance):
            gaussian_product_oracle([[0.0, 0.0]], [np.zeros((2, 2))])


class TestAdaptiveRandomWalk:
    def test_acceptance_lands_near_target(self):
        def log_target(x):
            return -0.5 * float(x @ x)

        config = MhConfig(iterations=4000, burnin=1000, seed=26)
        _, rate = adaptive_random_walk(log_target, np.zeros(2), config)
        assert 0.1 <= rate <= 0.6

    def test_poor_mixing_warns(self):
        def log_target(x):
            return 0.0 if abs(x[0] - 1.0) < 1e-3 else -np.inf

        config = MhConfig(iterations=500, burnin=0, seed=27)
        with pytest.warns(NonConvergenceWarning):
            adaptive_random_walk(log_target, np.ones(1), config)

    def test_every_step_spends_one_normal_row_and_one_uniform(self, monkeypatch):
        # A proposal with log density -inf spends its uniform unused, so the
        # randomness of step k is fixed by k alone, drawn one block at a time.
        make_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = make_rng(seed)
                self.sizes = []

            def standard_normal(self, size):
                self.sizes.append(("normal", size))
                return self.rng.standard_normal(size)

            def random(self, size):
                self.sizes.append(("uniform", size))
                return self.rng.random(size)

        rngs = []

        def counting_rng(seed):
            rngs.append(CountingRng(seed))
            return rngs[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        values = []

        def log_target(x):
            values.append(-0.5 * float(x @ x) if x[0] < 0.5 else -np.inf)
            return values[-1]

        block = harness.RANDOM_BLOCK
        config = MhConfig(iterations=block, burnin=100, seed=28)
        adaptive_random_walk(log_target, np.zeros(2), config)
        proposals = np.array(values[-(config.burnin + config.iterations):])
        assert 0 < np.isfinite(proposals).sum() < proposals.size
        assert rngs[0].sizes == [("normal", (block, 2)), ("uniform", block),
                                 ("normal", (100, 2)), ("uniform", 100)]

    def test_random_blocks_do_not_grow_with_the_chain(self):
        # Burn-in keeps no draw, so what a longer chain could add is its
        # random numbers: at most two blocks of them are live at once (the
        # next is drawn before the last is freed), whatever the length.
        # All 40 blocks at once would take 40 times one block.  The first
        # (warm-up) run also allocates one-off caches.
        def log_target(x):
            return -0.5 * float(x @ x)

        peaks = []
        for blocks in (2, 2, 40):
            config = MhConfig(iterations=2, burnin=blocks * harness.RANDOM_BLOCK, seed=29)
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", NonConvergenceWarning)
                    adaptive_random_walk(log_target, np.zeros(3), config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        block_bytes = harness.RANDOM_BLOCK * 3 * 8
        assert peaks[1] >= block_bytes
        assert peaks[2] <= peaks[1] + block_bytes // 8

    def test_nan_proposal_rejected(self):
        # min(0, nan) is 0, so a NaN log density once passed for an
        # acceptance probability of 1 and the chain ran off into the region.
        def log_target(x):
            return np.nan if x[0] >= 1.0 else -0.5 * float(x @ x)

        config = MhConfig(iterations=2000, burnin=200, seed=1)
        draws, _ = adaptive_random_walk(log_target, np.zeros(1), config)
        assert draws.max() < 1.0

    def test_start_without_mass_rejected(self):
        def log_target(x):
            return -np.inf if x[0] < 0.0 else 0.0

        with pytest.raises(DegenerateChain, match="no posterior mass"):
            adaptive_random_walk(log_target, -np.ones(1), MhConfig(iterations=10, burnin=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MhConfig(iterations=1)
        with pytest.raises(ValueError):
            MhConfig(burnin=-1)
        with pytest.raises(ValueError):
            MhConfig(thin=0)
