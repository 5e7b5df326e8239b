"""The semiparametric density-product sampler.

``reference_run_chain`` is the index chain in its earlier numpy-array
form, one weight per ``@`` on length-d arrays.
``TestBitwiseAgainstReference`` holds ``_DpeBasis.run_chain`` to it bit
for bit: same history, same final indices.
"""

import itertools

import numpy as np
import pytest

from chaincombine import (
    DegenerateChain,
    DpeConfig,
    NonPositiveBandwidth,
    SubposteriorBundle,
    semiparametric_dpe,
)
from chaincombine.cli import main
from chaincombine.combiners import _bandwidth_scales, _DpeBasis, _log_ratio
from chaincombine.core import _stream
from chaincombine.io import write_bundle

from conftest import gaussian_subposteriors


def scheduled_bandwidths(step, d, bandw, anneal=True):
    """The sampler's bandwidths h = bandw * sqrt(s) at 1-based ``step``."""
    return np.asarray(bandw, dtype=float) * np.sqrt(_bandwidth_scales(step, d, anneal)[-1])


class TestBandwidthSchedule:
    def test_no_anneal_is_constant(self):
        for step in (1, 7, 5000):
            np.testing.assert_array_equal(
                scheduled_bandwidths(step, 3, [0.7, 1.0, 2.0], anneal=False),
                [0.7, 1.0, 2.0],
            )

    def test_exponent_uses_dimension(self):
        # d = 3 gives t^(-1/7).
        np.testing.assert_allclose(
            scheduled_bandwidths(128, 3, [1.0])[0], 128.0 ** (-1.0 / 7.0), rtol=1e-15
        )

    def test_starting_vector_scales_componentwise(self):
        out = scheduled_bandwidths(32, 1, [1.0, 2.0], anneal=True)
        np.testing.assert_allclose(out, [0.5, 1.0], atol=1e-12)


class TestConfig:
    def test_default_bandwidths_are_ones(self):
        np.testing.assert_array_equal(DpeConfig().resolved_bandwidths(4), np.ones(4))

    def test_scalar_broadcasts(self):
        np.testing.assert_array_equal(
            DpeConfig(bandw=0.5).resolved_bandwidths(3), [0.5, 0.5, 0.5]
        )

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(NonPositiveBandwidth):
            DpeConfig(bandw=[1.0, 0.0]).resolved_bandwidths(2)
        with pytest.raises(NonPositiveBandwidth):
            DpeConfig(bandw=-1.0).resolved_bandwidths(2)

    def test_wrong_length_rejected(self):
        with pytest.raises(NonPositiveBandwidth):
            DpeConfig(bandw=[1.0, 1.0]).resolved_bandwidths(3)


class TestSampler:
    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(1)
        bundle, _, _ = gaussian_subposteriors(rng, 2, 250, 4, scale=0.01)
        out = semiparametric_dpe(bundle, DpeConfig(seed=2))
        assert out.values.shape == (2, 250)
        assert np.isfinite(out.values).all()

    def test_one_draw_per_machine_refused(self, tmp_path, capsys):
        # The machine covariances need two draws each; one draw is a
        # validation error, exit code 2 at the command line.
        bundle = SubposteriorBundle(np.array([[[1.0, 3.0]], [[2.0, 4.0]]]))
        with pytest.raises(DegenerateChain):
            semiparametric_dpe(bundle)
        manifest = tmp_path / "bundle.json"
        write_bundle(bundle, manifest)
        code = main(["combine", "--method", "semiparam-dpe",
                     "--bundle", str(manifest), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: DegenerateChain" in capsys.readouterr().err

    def test_partly_constant_machine_refused(self):
        # A component that is constant on one machine while the others vary
        # has zero variance and no precision; like the consensus rules, the
        # sampler refuses it.
        values = np.random.default_rng(4).standard_normal((2, 500, 3))
        values[0, :, 1] = 0.7
        with pytest.raises(DegenerateChain, match="machine 1 component 0"):
            semiparametric_dpe(SubposteriorBundle(values))

    def test_single_machine_small_bandwidth_is_near_bootstrap(self):
        # With one machine and a bandwidth well below the sample spread the
        # estimator resamples the input draws, so first and second moments
        # come back within a few percent.
        rng = np.random.default_rng(2)
        draws = 10.0 + 2.0 * rng.standard_normal((1, 2000, 1))
        bundle = SubposteriorBundle(draws)
        bandw = 0.05 * draws.std()
        out = semiparametric_dpe(bundle, DpeConfig(bandw=bandw, anneal=False, seed=3))
        assert abs(out.values.mean() - draws.mean()) < 0.05 * abs(draws.mean())
        assert abs(out.values.std() - draws.std()) < 0.05 * draws.std()

    def test_gaussian_product_moments_quick(self):
        # Smaller sibling of the acceptance criterion: mean within 5 combined
        # standard errors, covariance within 15% Frobenius.
        rng = np.random.default_rng(3)
        T = 4000
        bundle, mean_star, cov_star = gaussian_subposteriors(rng, 3, T, 5, scale=0.005)
        out = semiparametric_dpe(bundle, DpeConfig(seed=4))
        se = np.sqrt(2.0 * np.diag(cov_star) / T)
        assert np.all(np.abs(out.values.mean(axis=1) - mean_star) < 5.0 * se)
        sample_cov = np.cov(out.values, ddof=1)
        rel = np.linalg.norm(sample_cov - cov_star) / np.linalg.norm(cov_star)
        assert rel < 0.15


def selected_sums(basis, indices):
    """``(sum z, sum |z|^2, sum log_fit)`` over the draws that ``indices``
    (one per machine) select, recomputed from the basis tables."""
    cols = np.arange(basis.M)
    return (
        basis.z[indices, cols].sum(axis=0),
        float(basis.z_sq[indices, cols].sum()),
        float(basis.log_fit[indices, cols].sum()),
    )


def dense_reference(bundle):
    """Dense reference formulas for the DPE mixture, built from Cholesky
    factors: the diagonal kernel weight, the compatibility density
    N(theta_bar | mu*, Sigma* + hsq/M), the machine-fit denominator, and
    the component Gaussian with precision Sigma*^-1 + diag(M/hsq)."""
    d, M = bundle.d, bundle.M
    means, covs = [], []
    for m in range(M):
        draws = bundle.values[:, :, m]
        means.append(draws.mean(axis=1))
        covs.append(np.cov(draws, ddof=1))
    precisions = [np.linalg.inv(c) for c in covs]
    pooled_prec = np.sum(precisions, axis=0)
    prec_mean = np.sum([p @ mu for p, mu in zip(precisions, means)], axis=0)
    pooled_cov = np.linalg.inv(pooled_prec)
    pooled_mean = pooled_cov @ prec_mean

    def logpdf(x, mean, cov):
        chol = np.linalg.cholesky(cov)
        z = np.linalg.solve(chol, np.atleast_2d(x - mean).T)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        return -0.5 * (d * np.log(2.0 * np.pi) + logdet + (z * z).sum(axis=0))

    def log_weight(indices, hsq):
        selected = bundle.values[:, indices, np.arange(M)]
        theta_bar = selected.mean(axis=1)
        log_w = logpdf(selected.T, theta_bar, np.diag(hsq)).sum()
        log_compat = logpdf(theta_bar, pooled_mean, pooled_cov + np.diag(hsq / M))[0]
        log_fit = sum(
            logpdf(selected[:, m], means[m], covs[m])[0] for m in range(M)
        )
        return log_w + log_compat - log_fit

    def component(indices, hsq):
        theta_bar = bundle.values[:, indices, np.arange(M)].mean(axis=1)
        chol = np.linalg.cholesky(pooled_prec + np.diag(M / hsq))
        rhs = (M / hsq) * theta_bar + prec_mean
        mean = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        inv_chol = np.linalg.solve(chol, np.eye(d))
        return mean, inv_chol.T @ inv_chol

    return log_weight, component


class TestEigenbasisAgainstDense:
    @pytest.mark.parametrize("anneal", [True, False])
    def test_log_weight_differences_and_components(self, anneal):
        rng = np.random.default_rng(9)
        d, T, M = 3, 60, 4
        bundle, _, _ = gaussian_subposteriors(rng, d, T, M, scale=0.01)
        bandw = np.array([0.02, 0.05, 0.1])
        basis = _DpeBasis(bundle, bandw)
        log_weight, component = dense_reference(bundle)
        for step in (1, 7, 60, 5000):
            h = bandw * step ** (-1.0 / (4.0 + d)) if anneal else bandw
            s = _bandwidth_scales(step, d, anneal)[-1:]
            np.testing.assert_allclose(s * bandw**2, h**2, rtol=1e-14)
            k, c = basis.weight_terms(s[0])
            base = rng.integers(0, T, size=M)
            for _ in range(5):
                other = rng.integers(0, T, size=M)
                want = log_weight(other, h**2) - log_weight(base, h**2)
                # The whole move from base to other, taken as one row change.
                (z_b, q_b, f_b), (z_o, q_o, f_o) = (
                    selected_sums(basis, base), selected_sums(basis, other)
                )
                got = _log_ratio(z_b, z_o, z_b, q_o - q_b, f_o - f_b, k, c)
                np.testing.assert_allclose(got, want, rtol=1e-10)

                # The emission is affine in the normals: zero noise gives the
                # component mean, unit normals give columns of a covariance root.
                zbar = selected_sums(basis, other)[0] / M
                rows = basis.emit(
                    np.tile(zbar, (d + 1, 1)),
                    np.repeat(s, d + 1),
                    np.vstack([np.zeros(d), np.eye(d)]),
                )
                mean, root = rows[:, 0], rows[:, 1:] - rows[:, :1]
                want_mean, want_cov = component(other, h**2)
                np.testing.assert_allclose(
                    mean, want_mean, rtol=1e-10, atol=1e-10 * np.abs(want_mean).max()
                )
                np.testing.assert_allclose(
                    root @ root.T, want_cov, rtol=1e-10, atol=1e-10 * np.abs(want_cov).max()
                )

    @pytest.mark.parametrize("anneal", [True, False], ids=["anneal", "fixed"])
    def test_step_accepts_just_below_dense_ratio(self, anneal):
        # One run_chain step that moves one machine, with log u 1e-9 below and
        # then 1e-9 above the dense log-weight difference: accept, then reject.
        rng = np.random.default_rng(11)
        d, T, M = 3, 60, 4
        bundle, _, _ = gaussian_subposteriors(rng, d, T, M, scale=0.01)
        bandw = np.array([0.02, 0.05, 0.1])
        basis = _DpeBasis(bundle, bandw)
        log_weight, _ = dense_reference(bundle)
        s = _bandwidth_scales(60, d, anneal)[-1:]
        base = rng.integers(0, T, size=M)
        other = base.copy()
        other[2] = (base[2] + 1) % T
        want = log_weight(other, s * bandw**2) - log_weight(base, s * bandw**2)
        for offset, moved in ((-1e-9, True), (1e-9, False)):
            _, indices = basis.run_chain(
                s, base, np.array([2]), other[2:3], np.array([want + offset])
            )
            np.testing.assert_array_equal(indices, other if moved else base)


def run_index_chain(bundle, anneal, seed):
    """The sampler's index chain on its own, as semiparametric_dpe runs it."""
    d, T, M = bundle.d, bundle.T, bundle.M
    basis = _DpeBasis(bundle, np.ones(d))
    rng = _stream(seed, "dpe")
    start = rng.integers(0, T, size=M)
    s = _bandwidth_scales(T, d, anneal)
    history, indices = basis.run_chain(
        s,
        start,
        rng.integers(0, M, size=T),
        rng.integers(0, T, size=T),
        np.log(rng.uniform(size=T)),
    )
    return basis, indices, history


def reference_run_chain(basis, s, indices, machines, proposals, log_u):
    """``_DpeBasis.run_chain`` as it ran on numpy arrays: each step indexes
    the (T, M, d) draws and takes both weights with a length-d ``@``.
    Returns the ``sum z`` history and moves ``indices`` in place."""
    z, z_sq, log_fit = basis.z, basis.z_sq, basis.log_fit

    def log_weight(sums, k, c):
        sum_z, sum_q, sum_f = sums
        return (sum_z * sum_z) @ k - c * sum_q - sum_f

    k, c = basis.weight_terms(s)
    cur = selected_sums(basis, indices)
    history = np.empty((len(s), z.shape[2]))
    steps = zip(machines.tolist(), proposals.tolist(), log_u.tolist(), k, c.tolist())
    for t, (m, p, lu, k_t, c_t) in enumerate(steps):
        i = indices[m]
        prop = (
            cur[0] + (z[p, m] - z[i, m]),
            cur[1] + (z_sq[p, m] - z_sq[i, m]),
            cur[2] + (log_fit[p, m] - log_fit[i, m]),
        )
        if lu < log_weight(prop, k_t, c_t) - log_weight(cur, k_t, c_t):
            indices[m] = p
            cur = prop
        history[t] = cur[0]
    return history


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("bandw", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("anneal", [True, False], ids=["anneal", "fixed"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_chain_equals_reference(self, d, anneal, bandw):
        rng = np.random.default_rng(100 + d)
        T, M = 600, 4
        bundle, _, _ = gaussian_subposteriors(rng, d, T, M, scale=0.01)
        basis = _DpeBasis(bundle, np.full(d, bandw))
        s = _bandwidth_scales(T, d, anneal)
        start = rng.integers(0, T, size=M)
        steps = (rng.integers(0, M, size=T), rng.integers(0, T, size=T),
                 np.log(rng.uniform(size=T)))
        kept, ref_indices = start.copy(), start.copy()
        history, indices = basis.run_chain(s, start, *steps)
        ref_history = reference_run_chain(basis, s, ref_indices, *steps)
        np.testing.assert_array_equal(history, ref_history)
        np.testing.assert_array_equal(indices, ref_indices)
        np.testing.assert_array_equal(start, kept)
        # The chain both moved and stayed: each branch of the step ran.
        assert 1 < len(np.unique(history, axis=0)) < T


class TestChainState:
    def check_running_sums(self, bundle, anneal, seed):
        basis, indices, history = run_index_chain(bundle, anneal, seed)
        sum_z = selected_sums(basis, indices)[0]
        spread = np.abs(basis.z).max()
        np.testing.assert_allclose(history[-1], sum_z, rtol=0, atol=1e-12 * spread)
        # The chain moved: a frozen chain would pass the checks trivially.
        assert len(np.unique(history, axis=0)) > bundle.T // 10

    def test_incremental_state_matches_recomputation(self):
        rng = np.random.default_rng(4)
        bundle, _, _ = gaussian_subposteriors(rng, 2, 400, 4, scale=0.01)
        self.check_running_sums(bundle, anneal=True, seed=6)

    def test_fixed_bandwidth_state_recomputes_too(self):
        rng = np.random.default_rng(6)
        bundle, _, _ = gaussian_subposteriors(rng, 2, 300, 3, scale=0.01)
        self.check_running_sums(bundle, anneal=False, seed=8)

    def test_visit_frequencies_match_mixture_weights(self):
        # With T=4 and M=3 the mixture has 64 components.  The chain's visit
        # frequencies must approach their dense-reference weights: this
        # checks the direction of the Metropolis ratio, which moment tests
        # at wide bandwidths cannot see.
        rng = np.random.default_rng(10)
        d, T, M = 2, 4, 3
        bundle, _, _ = gaussian_subposteriors(rng, d, T, M, scale=0.01)
        bandw = np.full(d, 0.02)
        basis = _DpeBasis(bundle, bandw)
        log_weight, _ = dense_reference(bundle)
        components = [np.array(c) for c in itertools.product(range(T), repeat=M)]
        log_w = np.array([log_weight(c, bandw**2) for c in components])
        weights = np.exp(log_w - log_w.max())
        weights /= weights.sum()

        n = 40000
        history, _ = basis.run_chain(
            np.ones(n),
            rng.integers(0, T, size=M),
            rng.integers(0, M, size=n),
            rng.integers(0, T, size=n),
            np.log(rng.uniform(size=n)),
        )
        sums = np.array([selected_sums(basis, c)[0] for c in components])
        visited = np.argmin(((history[:, None, :] - sums) ** 2).sum(axis=2), axis=1)
        freq = np.bincount(visited, minlength=len(components)) / n
        assert 0.5 * np.abs(freq - weights).sum() < 0.06

    def test_theta_bar_is_mean_of_selected_draws(self):
        # The rotated basis maps back: mu* + D^1/2 U zbar is the mean of the
        # selected draws in the original coordinates.
        rng = np.random.default_rng(5)
        bundle, _, _ = gaussian_subposteriors(rng, 3, 200, 5, scale=0.01)
        basis, indices, history = run_index_chain(bundle, anneal=True, seed=7)
        theta_bar = basis.mean + basis.scale * (basis.eigvec @ history[-1] / bundle.M)
        selected = bundle.values[:, indices, np.arange(bundle.M)]
        np.testing.assert_allclose(theta_bar, selected.mean(axis=1), rtol=1e-12)

