"""Bandwidth rule, kernel density estimate and relative L2 distance.

``kde_1d`` is a linearly binned estimator.  The direct kernel sum below is
the reference that ``TestBinnedAgainstDirect`` holds it to.
"""

import functools

import numpy as np
import pytest

from chaincombine import density
from chaincombine import (
    DegenerateChain,
    InvalidGrid,
    NonFiniteValue,
    NonPositiveBandwidth,
    density_pair,
    kde_1d,
    relative_l2_distance,
    silverman_bandwidth,
)


def direct_kde(samples, grid, bandwidth):
    """Reference estimate: (1 / (T h)) sum_t phi((grid - samples[t]) / h)."""
    z = (np.asarray(grid)[:, None] - np.asarray(samples)[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (len(samples) * bandwidth * np.sqrt(2.0 * np.pi))


def l2_distance(grid, p_full, p_comb):
    """``relative_l2_distance``'s trapezoid ratio, over given densities."""
    return float(np.sqrt(np.trapezoid((p_full - p_comb) ** 2, grid))
                 / np.sqrt(np.trapezoid(p_full**2, grid)))


def convolved_kde(samples, grid, bandwidth):
    """``kde_1d``'s binning, spread by one full convolution over every fine
    bin, of which every ``refine``-th output is kept."""
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    refine = min(density.MAX_BIN_REFINEMENT,
                 int(np.ceil(density.BIN_CELLS_PER_BANDWIDTH * step / bandwidth)))
    fine = step / refine
    half = int(density.KERNEL_CUTOFF_BANDWIDTHS * bandwidth / fine)
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * (fine / bandwidth)) ** 2)
    kernel /= kernel.sum() * fine * samples.size
    size = (grid.size - 1) * refine + 2 * half + 3
    pos = (samples - grid[0]) / fine + half + 1
    pos = pos[(pos >= 0.0) & (pos < size - 1)]
    cell = pos.astype(np.intp)
    counts = np.zeros(size)
    np.add.at(counts, cell, 1.0 - (pos - cell))
    np.add.at(counts, cell + 1, pos - cell)
    return refine, np.convolve(counts, kernel, mode="valid")[1:-1:refine]


def draws(shape, T, seed):
    rng = np.random.default_rng(seed)
    if shape == "normal":
        return rng.standard_normal(T)
    if shape == "gamma":
        return rng.gamma(2.0, size=T)
    return np.where(rng.random(T) < 0.4, -3.0, 2.0) + rng.standard_normal(T)


def scored_pairs(shape, T):
    """The draws of ``shape`` against a normal partner whose spread is 1,
    5 or 20 times narrower or wider, in both argument orders."""
    x = draws(shape, T, seed=T)
    partner = draws("normal", T, seed=T + 1) * x.std()
    for ratio in (1.0, 5.0, 20.0, 1 / 5, 1 / 20):
        yield x, partner / ratio
        yield partner / ratio, x


@functools.cache
def direct_pairs(shape, T):
    """Each scored pair with ``density_pair``'s grid and the direct kernel
    sums on it, computed once per ``(shape, T)`` for both tests that use them."""
    pairs = []
    for full, combined in scored_pairs(shape, T):
        grid, _, _ = density_pair(full, combined)
        pairs.append((full, combined, grid,
                      direct_kde(full, grid, silverman_bandwidth(full)),
                      direct_kde(combined, grid, silverman_bandwidth(combined))))
    return pairs


SHAPES_AND_SIZES = [(shape, T) for shape in ("normal", "gamma", "bimodal")
                    for T in (200, 1000, 10000)]


class TestSilvermanBandwidth:
    def test_reference_value(self):
        # d=1, T=100000, sd ~= 2: (4/3)^(1/5) * 100000^(-1/5) * 2 = 0.21184...
        samples = np.tile([-2.0, 2.0], 50000)
        bw = silverman_bandwidth(samples)
        assert bw == pytest.approx(0.21184, abs=1e-4)
        # Frozen direct evaluation with the actual sample sd.
        sd = samples.std(ddof=1)
        assert bw == pytest.approx((4.0 / 3.0) ** 0.2 * 100000.0**-0.2 * sd, rel=1e-15)

    # The rounded mean of identical values can miss them, which leaves a
    # computed sd of order 1e-16: for 500 copies of 0.3 or 2.1, and for 100
    # copies of 0.7.
    @pytest.mark.parametrize("value", [3.0, 0.3, 2.1, 0.7])
    def test_zero_spread_rejected(self, value):
        for size in (1, 100, 500):
            with pytest.raises(DegenerateChain):
                silverman_bandwidth(np.full(size, value))

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(500)
        base = silverman_bandwidth(samples)
        # Powers of two rescale every intermediate float exactly.
        assert silverman_bandwidth(4.0 * samples) == 4.0 * base
        assert silverman_bandwidth(-8.0 * samples) == 8.0 * base
        # General scales agree to rounding.
        assert silverman_bandwidth(3.7 * samples) == pytest.approx(3.7 * base, rel=1e-12)

    def test_dimension_argument(self):
        samples = np.tile([-2.0, 2.0], 50000)
        bw5 = silverman_bandwidth(samples, d=5)
        sd = samples.std(ddof=1)
        expected = (4.0 / 7.0) ** (1.0 / 9.0) * 100000.0 ** (-1.0 / 9.0) * sd
        assert bw5 == pytest.approx(expected, rel=1e-15)


class TestKde1d:
    def test_single_sample_is_the_kernel(self):
        grid = np.linspace(-4.0, 4.0, 101)
        est = kde_1d([0.0], grid, bandwidth=1.0)
        expected = np.exp(-0.5 * grid**2) / np.sqrt(2.0 * np.pi)
        np.testing.assert_allclose(est, expected, atol=1e-12)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(200)
        grid = np.linspace(-4.0, 4.0, 64)
        shift = 5.0
        a = kde_1d(samples, grid, 0.3)
        b = kde_1d(samples + shift, grid + shift, 0.3)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)

    def test_sup_norm_error_vs_true_density(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(10000)
        bw = silverman_bandwidth(samples)
        grid = np.linspace(-4.0, 4.0, 256)
        est = kde_1d(samples, grid, bw)
        truth = np.exp(-0.5 * grid**2) / np.sqrt(2.0 * np.pi)
        assert np.abs(est - truth).max() < 0.02

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(NonPositiveBandwidth):
            kde_1d([0.0, 1.0], np.linspace(-1, 1, 8), 0.0)

    def test_no_samples_rejected(self):
        with pytest.raises(DegenerateChain, match="at least 1 sample"):
            kde_1d([], np.linspace(-1, 1, 8), 0.5)

    def test_mass_near_one_on_covering_grid(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(2000)
        grid, p_a, p_b = density_pair(samples, samples + 0.5)
        assert 0.98 <= np.trapezoid(p_a, grid) <= 1.02
        assert 0.98 <= np.trapezoid(p_b, grid) <= 1.02
        assert np.all(p_a >= 0.0)


class TestBinnedAgainstDirect:
    @pytest.mark.parametrize("shape, T", SHAPES_AND_SIZES)
    def test_densities_within_1e_3_of_peak(self, shape, T):
        for full, combined, _, ref_full, ref_comb in direct_pairs(shape, T):
            _, p_full, p_comb = density_pair(full, combined)
            assert np.abs(p_full - ref_full).max() <= 1e-3 * ref_full.max()
            assert np.abs(p_comb - ref_comb).max() <= 1e-3 * ref_comb.max()

    @pytest.mark.parametrize("shape, T", SHAPES_AND_SIZES)
    def test_distance_within_1e_4(self, shape, T):
        for full, combined, grid, ref_full, ref_comb in direct_pairs(shape, T):
            assert relative_l2_distance(full, combined) == pytest.approx(
                l2_distance(grid, ref_full, ref_comb), abs=1e-4)

    def test_draws_beyond_both_grid_ends_add_their_tails(self):
        # A third of the draws lie off a grid that spans +-1 sd; each must
        # add its kernel tail inside the grid, not pile onto an end point.
        samples = np.random.default_rng(10).standard_normal(3000)
        grid = np.linspace(-1.0, 1.0, 101)
        est = kde_1d(samples, grid, 0.3)
        ref = direct_kde(samples, grid, 0.3)
        np.testing.assert_allclose(est, ref, rtol=0.0, atol=1e-3 * ref.max())

    @pytest.mark.parametrize("steps_per_bandwidth, refine", [
        (1 / 40, 1), (1 / 4.1, 8), (4.0, density.MAX_BIN_REFINEMENT),
        (1000.0, density.MAX_BIN_REFINEMENT),  # a kernel narrower than a phase
    ])
    def test_phase_correlations_equal_one_convolution(self, steps_per_bandwidth, refine):
        samples = np.random.default_rng(11).gamma(2.0, size=2500)
        grid = np.linspace(-1.0, 12.0, 512)
        bandwidth = (grid[1] - grid[0]) / steps_per_bandwidth
        used, want = convolved_kde(samples, grid, bandwidth)
        got = kde_1d(samples, grid, bandwidth)
        assert used == refine
        assert np.abs(got - want).max() <= 1e-15 * want.max()

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 3.0], [0.5], np.linspace(1.0, -1.0, 9)],
                             ids=["uneven", "one-point", "decreasing"])
    def test_grid_must_be_even_increasing_and_two_points(self, grid):
        with pytest.raises(InvalidGrid, match="grid must"):
            kde_1d([0.0, 0.2], grid, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draws_rejected(self, bad):
        with pytest.raises(NonFiniteValue):
            kde_1d([0.0, bad, 0.3], np.linspace(-1.0, 1.0, 16), 0.5)
        with pytest.raises(NonFiniteValue):
            relative_l2_distance([0.0, 0.5, 0.3], [0.1, bad, 0.2])


class TestRelativeL2Distance:
    def test_identical_samples_give_zero_exactly(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(500)
        assert relative_l2_distance(samples, samples.copy()) == 0.0

    def test_disjoint_gaussians_approach_sqrt_two(self):
        # Non-overlapping supports make ||p - q||^2 = ||p||^2 + ||q||^2, and
        # with equal shapes the relative distance is sqrt(2).
        rng = np.random.default_rng(5)
        a = rng.standard_normal(5000)
        b = rng.standard_normal(5000) + 10.0
        assert relative_l2_distance(a, b) == pytest.approx(np.sqrt(2.0), rel=0.05)

    def test_noise_floor_at_fifty_thousand_draws(self):
        # Empirical Monte Carlo floor between two independent same-posterior
        # sample sets.
        rng = np.random.default_rng(6)
        a = rng.standard_normal(50000)
        b = rng.standard_normal(50000)
        assert relative_l2_distance(a, b) < 0.03

    def test_not_symmetric_in_arguments(self):
        # Swapping arguments changes only the normalization; with a wider
        # "full" density the denominator norm is smaller, so the value grows.
        rng = np.random.default_rng(7)
        narrow = rng.standard_normal(20000)
        wide = 3.0 * rng.standard_normal(20000)
        d_ab = relative_l2_distance(narrow, wide)
        d_ba = relative_l2_distance(wide, narrow)
        assert d_ab != d_ba
        # Numerators are identical up to grid detail; check the ratio matches
        # the norm ratio within a few percent.
        assert d_ba / d_ab == pytest.approx(np.sqrt(3.0), rel=0.05)

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(4000)
        b = rng.standard_normal(4000) * 1.2 + 0.3
        base = relative_l2_distance(a, b)
        for scale, shift in ((2.0, 5.0), (-0.5, 1.0)):
            mapped = relative_l2_distance(scale * a + shift, scale * b + shift)
            assert mapped == pytest.approx(base, abs=1e-3)

    def test_full_density_vanishing_on_the_grid_rejected(self):
        # Full draws 1e5 times narrower than the combined ones sit between
        # two grid points, 0.004 from the nearest, at a bandwidth of about 3e-6.
        rng = np.random.default_rng(11)
        wide = rng.standard_normal(1000)
        narrow = 0.004 + 1e-5 * rng.standard_normal(1000)
        with pytest.raises(DegenerateChain, match="zero at every grid point"):
            relative_l2_distance(narrow, wide)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        assert relative_l2_distance(a, b) >= 0.0
