"""The three linear combiners, the machine moments they share, and the
checked SPD inversion.

Derived expectations are computed by independent brute-force oracles in
the tests themselves (elementwise means, explicit matrix algebra) so the
library path is never checked against itself.
"""

import warnings

import numpy as np
import pytest

from chaincombine import (
    DegenerateChain,
    SingularCovariance,
    SubposteriorBundle,
    consensus_covariance,
    consensus_independent,
    gaussian_product_oracle,
    machine_moments,
    sample_average,
    semiparametric_dpe,
)
from chaincombine.combiners import _DpeBasis, spd_inverse


def random_bundle(rng, d, T, M):
    return SubposteriorBundle(rng.standard_normal((d, T, M)))


def tiny_component_values(scale):
    """(2, 50, 3) standard normal draws, except that machine 2's component 1
    spreads over [scale, 2 * scale]."""
    rng = np.random.default_rng(14)
    values = rng.standard_normal((2, 50, 3))
    values[1, :, 2] = scale * (1.0 + rng.uniform(size=50))
    return values


class TestSampleAverage:
    def test_two_machines_single_draw(self):
        bundle = SubposteriorBundle(np.array([[[1.0, 3.0]], [[2.0, 4.0]]]))
        out = sample_average(bundle)
        np.testing.assert_array_equal(out.values, [[2.0], [3.0]])

    def test_matches_elementwise_mean_oracle(self):
        rng = np.random.default_rng(1)
        bundle = random_bundle(rng, 3, 100, 5)
        # Brute-force oracle: loop over every (i, t) cell.
        expected = np.empty((3, 100))
        for i in range(3):
            for t in range(100):
                expected[i, t] = sum(bundle.values[i, t, m] for m in range(5)) / 5.0
        np.testing.assert_allclose(sample_average(bundle).values, expected, atol=1e-12)

    def test_tolerates_zero_variance_chain(self):
        values = np.ones((1, 4, 2))
        values[0, :, 1] = [1.0, 2.0, 3.0, 4.0]
        out = sample_average(SubposteriorBundle(values))
        np.testing.assert_allclose(out.values[0], [1.0, 1.5, 2.0, 2.5])


class TestMachineMoments:
    """Hand cases for :func:`machine_moments`, every machine's Gaussian fit."""

    def test_scalar_hand_case(self):
        bundle = SubposteriorBundle(np.array([0.0, 2.0]).reshape(1, 2, 1))
        means, covs = machine_moments(bundle)
        assert means[0, 0] == 1.0
        assert covs[0, 0, 0] == 2.0  # (1 + 1) / (T - 1)

    def test_constant_chain_flagged(self):
        bundle = SubposteriorBundle(np.full((1, 3, 1), 5.0))
        means, covs = machine_moments(bundle)
        assert means[0, 0] == 5.0
        assert covs[0, 0, 0] == 0.0

    def test_two_dim_hand_case(self):
        draws = np.array([[0.0, 2.0], [0.0, 2.0]]).reshape(2, 2, 1)
        _, covs = machine_moments(SubposteriorBundle(draws))
        np.testing.assert_allclose(covs[0], [[2.0, 2.0], [2.0, 2.0]])

    def test_needs_two_draws(self):
        bundle = SubposteriorBundle(np.zeros((2, 1, 1)))
        with pytest.raises(DegenerateChain):
            machine_moments(bundle)

    def test_variance_near_overflow_is_finite(self):
        # Every entry is 2 a^2 = 1.2e308, finite, though twice it is not.
        a = 7.75e153
        draws = np.array([[a, -a], [a, -a]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, covs = machine_moments(SubposteriorBundle(np.stack([draws, -draws], axis=2)))
        np.testing.assert_array_equal(covs, np.full((2, 2, 2), 2.0 * a * a))


class TestConsensusIndependent:
    def test_hand_case_scalar_two_machines(self):
        # Machine 1 draws {0, 2} (variance 2), machine 2 draws {0, 4}
        # (variance 8): weights 0.5 and 0.125, combined draws {0, 2.4}.
        values = np.array([[[0.0, 0.0], [2.0, 4.0]]])
        out = consensus_independent(SubposteriorBundle(values))
        np.testing.assert_allclose(out.values, [[0.0, 2.4]], rtol=1e-14)

    @pytest.mark.parametrize("scale", [1e-155, 1e-160])
    def test_subnormal_variance_dominates_its_component(self, scale):
        # Machine 2's component 1 has a positive but subnormal variance, whose
        # reciprocal overflows: its weight dwarfs the others', so the pooled
        # component is its draws (and CombinedSamples refuses a non-finite one).
        values = tiny_component_values(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = consensus_independent(SubposteriorBundle(values)).values
        np.testing.assert_array_equal(out[1], values[1, :, 2])

    def test_zero_variance_refused(self):
        values = np.ones((1, 4, 2))
        values[0, :, 1] = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(DegenerateChain):
            consensus_independent(SubposteriorBundle(values))


class TestConsensusCovariance:
    def test_shared_covariance_reduces_to_sample_average(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((3, 60, 1))
        bundle = SubposteriorBundle(np.concatenate([base + m for m in range(4)], axis=2))
        np.testing.assert_allclose(
            consensus_covariance(bundle).values,
            sample_average(bundle).values,
            atol=1e-10,
        )

    def test_matches_matrix_algebra_oracle(self):
        rng = np.random.default_rng(6)
        bundle = random_bundle(rng, 2, 50, 2)
        out = consensus_covariance(bundle).values
        # Scripted oracle: explicit inverses and per-draw solves.
        weights = []
        for m in range(bundle.M):
            draws = bundle.values[:, :, m]
            weights.append(np.linalg.inv(np.cov(draws, ddof=1)))
        total = weights[0] + weights[1]
        for t in range(bundle.T):
            pooled = np.linalg.inv(total) @ sum(
                weights[m] @ bundle.values[:, t, m] for m in range(2)
            )
            np.testing.assert_allclose(out[:, t], pooled, rtol=1e-9, atol=1e-12)

    def test_hand_chosen_diagonal_covariances(self):
        # Machines with exact sample covariances diag(1, 4) and diag(4, 1):
        # component weights (1, 0.25) and (0.25, 1), so the pooled draw is a
        # per-component weighted average.
        def draws_with_diag_cov(v1, v2, center):
            a = np.sqrt(3.0 * v1 / 2.0)
            b = np.sqrt(3.0 * v2 / 2.0)
            pattern = np.array(
                [[a, -a, 0.0, 0.0], [0.0, 0.0, b, -b]]
            )
            return pattern + np.asarray(center)[:, None]

        m1 = draws_with_diag_cov(1.0, 4.0, [0.0, 0.0])
        m2 = draws_with_diag_cov(4.0, 1.0, [1.0, 1.0])
        bundle = SubposteriorBundle(np.stack([m1, m2], axis=2))
        _, covs = machine_moments(bundle)
        np.testing.assert_allclose(covs[0], np.diag([1.0, 4.0]), atol=1e-12)
        np.testing.assert_allclose(covs[1], np.diag([4.0, 1.0]), atol=1e-12)

        out = consensus_covariance(bundle).values
        w1 = np.array([1.0, 0.25])
        w2 = np.array([0.25, 1.0])
        expected = (w1[:, None] * m1 + w2[:, None] * m2) / (w1 + w2)[:, None]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_zero_variance_refused(self):
        values = np.ones((2, 5, 2))
        values[:, :, 0] = np.random.default_rng(8).standard_normal((2, 5))
        with pytest.raises(DegenerateChain):
            consensus_covariance(SubposteriorBundle(values))


def pooled_moments(bundle):
    """The density-product sampler's pooled Gaussian ``(mu*, Sigma*)``,
    with Sigma* rebuilt from its eigenbasis as ``D^1/2 U diag(lam) U^T D^1/2``."""
    basis = _DpeBasis(bundle, np.ones(bundle.d))
    root = basis.scale[:, None] * basis.eigvec
    return basis.mean, (root * basis.eigval) @ root.T


class TestPooledMoments:
    """The product of the machines' Gaussian fits, as the DPE forms it."""

    def test_single_machine_is_identity(self):
        rng = np.random.default_rng(9)
        bundle = random_bundle(rng, 3, 100, 1)
        mean, cov = pooled_moments(bundle)
        draws = bundle.values[:, :, 0]
        np.testing.assert_allclose(mean, draws.mean(axis=1), rtol=1e-9)
        np.testing.assert_allclose(cov, np.cov(draws, ddof=1), rtol=1e-8)

    def test_scalar_precision_arithmetic(self):
        # Variances {2, 2} and means {0, 4} pool to variance 1, mean 2.
        values = np.array([[[-1.0, 3.0], [1.0, 5.0]]])
        mean, cov = pooled_moments(SubposteriorBundle(values))
        np.testing.assert_allclose(cov, [[1.0]], rtol=1e-9)
        np.testing.assert_allclose(mean, [2.0], rtol=1e-9)

    def test_matches_gaussian_product_oracle(self):
        rng = np.random.default_rng(10)
        bundle = random_bundle(rng, 3, 500, 4)
        mean, cov = pooled_moments(bundle)
        draws = [bundle.values[:, :, m] for m in range(4)]
        mean_star, cov_star = gaussian_product_oracle(
            [x.mean(axis=1) for x in draws], [np.cov(x, ddof=1) for x in draws]
        )
        np.testing.assert_allclose(mean, mean_star, atol=1e-10)
        np.testing.assert_allclose(cov, cov_star, atol=1e-10)


class TestSharedProperties:
    """Cross-method invariants on shapes and affine maps."""

    @pytest.mark.parametrize(
        "combine", [sample_average, consensus_independent, consensus_covariance]
    )
    def test_output_shape_and_finiteness(self, combine):
        rng = np.random.default_rng(11)
        bundle = random_bundle(rng, 3, 25, 4)
        out = combine(bundle)
        assert out.values.shape == (3, 25)
        assert np.isfinite(out.values).all()

    @pytest.mark.parametrize("combine", [sample_average, consensus_independent])
    def test_affine_equivariance(self, combine):
        rng = np.random.default_rng(13)
        bundle = random_bundle(rng, 2, 30, 3)
        a = np.array([2.5, -0.5])
        b = np.array([1.0, -3.0])
        mapped = SubposteriorBundle(
            a[:, None, None] * bundle.values + b[:, None, None]
        )
        expected = a[:, None] * combine(bundle).values + b[:, None]
        np.testing.assert_allclose(
            combine(mapped).values, expected, rtol=1e-12, atol=1e-12
        )

    def test_T_one_supported_by_sample_average_only(self):
        bundle = SubposteriorBundle(np.array([[[1.0, 3.0]], [[2.0, 4.0]]]))
        assert bundle.T == 1
        np.testing.assert_array_equal(sample_average(bundle).values, [[2.0], [3.0]])
        with pytest.raises(DegenerateChain):
            consensus_independent(bundle)
        with pytest.raises(DegenerateChain):
            consensus_covariance(bundle)

    @pytest.mark.parametrize(
        "combine", [consensus_independent, consensus_covariance, semiparametric_dpe]
    )
    def test_one_machine_constant_component_refused(self, combine):
        # One machine is pooled as it is, but its Gaussian fit is still
        # checked: a constant component has no precision at any M.
        values = np.random.default_rng(15).standard_normal((2, 40, 1))
        values[1] = 0.7
        with pytest.raises(DegenerateChain, match="machine 0 component 1 "):
            combine(SubposteriorBundle(values))

    @pytest.mark.parametrize(
        "combine", [consensus_independent, consensus_covariance, semiparametric_dpe]
    )
    def test_underflowed_variance_refused(self, combine):
        # Machine 2's component 1 is not constant, but its draws are so small
        # that their fitted variance underflows to exactly zero.
        bundle = SubposteriorBundle(tiny_component_values(1e-200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateChain, match="machine 2 component 1 "):
                combine(bundle)

    @pytest.mark.parametrize("combine", [consensus_covariance, semiparametric_dpe])
    def test_subnormal_variance_is_singular(self, combine):
        # Machine 2's component 1 has a positive but subnormal variance, so its
        # covariance has no finite inverse: no precision can weight it.
        bundle = SubposteriorBundle(tiny_component_values(1e-155))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularCovariance, match="inverse is not finite"):
                combine(bundle)


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T / d + np.eye(d))


class TestSpdInverse:
    """:func:`spd_inverse` floors no eigenvalue: it inverts exactly or raises."""

    def test_singular_matrix_raises(self):
        # Rank 1: the covariance of a machine whose two components are collinear.
        with pytest.raises(SingularCovariance, match="not positive definite"):
            spd_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("variance", [np.inf, 1e-310])
    def test_non_finite_matrix_or_inverse_raises(self, variance):
        with pytest.raises(SingularCovariance, match="not finite"):
            spd_inverse(np.array([[variance]]))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularCovariance):
            spd_inverse(np.zeros((2, 2)))
        with pytest.raises(SingularCovariance):
            spd_inverse(np.zeros((3, 3)))

    def test_inverse_of_pd_matrix(self):
        rng = np.random.default_rng(4)
        cov = random_spd(rng, 5)
        np.testing.assert_allclose(spd_inverse(cov) @ cov, np.eye(5), atol=1e-9)
