"""Kernel density estimation and the relative L2 distance between densities.

Combined posteriors are scored against the full-data posterior one
marginal at a time: estimate both densities on a shared grid with a
Gaussian kernel and report ||p_full - p_combined|| / ||p_full|| under
trapezoidal integration.
"""

import numpy as np

from .core import _check_finite
from .errors import DegenerateChain, InvalidGrid, NonPositiveBandwidth

GRID_SIZE = 512
GRID_PAD_BANDWIDTHS = 3.0
KERNEL_CUTOFF_BANDWIDTHS = 8.5
BIN_CELLS_PER_BANDWIDTH = 32
MAX_BIN_REFINEMENT = 64


def silverman_bandwidth(samples, d=1):
    """Rule-of-thumb kernel bandwidth from the sample standard deviation.

    Returns ``(4/(d+2))**(1/(d+4)) * T**(-1/(d+4)) * sd`` where ``sd``
    uses the unbiased (T-1) divisor and ``d`` is the dimension of the
    parameter vector the samples are a marginal of.
    """
    samples = np.asarray(samples, dtype=float)
    _check_finite(samples)
    T = samples.size
    if T < 2:
        raise DegenerateChain("bandwidth selection needs at least 2 samples")
    # Tested on the values: the rounded mean of identical values can differ
    # from them, and then their computed sd is not zero.
    if (samples == samples.flat[0]).all():
        raise DegenerateChain("samples have zero standard deviation")
    sd = samples.std(ddof=1)
    return (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * T ** (-1.0 / (d + 4.0)) * sd


def kde_1d(samples, grid, bandwidth):
    """Gaussian-kernel density estimate of ``samples`` on ``grid``.

    Approximates values[g] = (1 / (T h)) * sum_t phi((grid[g] - samples[t]) / h)
    by linear binning (Silverman 1982; Wand 1994): each draw splits its
    weight between its two neighbouring bins, and the kernel sampled at the
    bin offsets out to +-8.5 h, scaled to unit mass, spreads the counts
    onto the grid points.  The bins split each grid step finely enough that
    h spans ``BIN_CELLS_PER_BANDWIDTH`` of them (at most
    ``MAX_BIN_REFINEMENT`` per step), which keeps the estimate within
    about 1e-4 of the direct sum's peak.  Draws beyond the grid ends still
    add their tails inside it.  ``grid`` must be increasing and evenly
    spaced with at least 2 points; any other grid raises :class:`InvalidGrid`.
    """
    if not 0.0 < bandwidth < np.inf:
        raise NonPositiveBandwidth(f"bandwidth must be positive and finite, got {bandwidth}")
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DegenerateChain("density estimation needs at least 1 sample")
    _check_finite(samples)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InvalidGrid(f"grid must be a 1-d array of >= 2 points, got shape {grid.shape}")
    grid_step = (grid[-1] - grid[0]) / (grid.size - 1)
    # linspace puts each point within a few ulps of its magnitude.
    slack = 1e-6 * grid_step + 8.0 * np.finfo(float).eps * np.abs(grid).max()
    if not (0.0 < grid_step < np.inf and np.all(np.abs(np.diff(grid) - grid_step) <= slack)):
        raise InvalidGrid("grid must be increasing and evenly spaced")
    refine = min(MAX_BIN_REFINEMENT, int(np.ceil(BIN_CELLS_PER_BANDWIDTH * grid_step / bandwidth)))
    step = grid_step / refine
    half = int(KERNEL_CUTOFF_BANDWIDTHS * bandwidth / step)
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * (step / bandwidth)) ** 2)
    kernel /= kernel.sum() * step * samples.size
    # Pad the bins by half + 1 a side, so that a draw just beyond either
    # grid end keeps its tail; draws farther out add < 2e-16 and are dropped.
    pad = half + 1
    size = (grid.size - 1) * refine + 1 + 2 * pad
    pos = (samples - grid[0]) / step + pad
    pos = pos[(pos >= 0.0) & (pos < size - 1)]
    cell = pos.astype(np.intp)
    frac = pos - cell
    counts = np.bincount(cell, 1.0 - frac, size) + np.bincount(cell + 1, frac, size)
    # Grid point g sums counts[1 + g * refine + i] * kernel[i]: one valid-mode
    # correlation per phase i % refine computes only the grid points.
    return sum(np.correlate(counts[1 + p::refine], kernel[p::refine], "valid")[:grid.size]
               for p in range(min(refine, kernel.size)))


def density_pair(full_samples, combined_samples):
    """KDEs of both sample sets on a shared grid covering both.

    Returns ``(grid, p_full, p_combined)``, three (G,) arrays.  Each
    density gets its own rule-of-thumb bandwidth; the grid spans the
    union of both sample ranges padded by three of the larger bandwidth,
    which keeps the truncated tail mass negligible.
    """
    full_samples = np.asarray(full_samples, dtype=float)
    combined_samples = np.asarray(combined_samples, dtype=float)
    h_full = silverman_bandwidth(full_samples)
    h_comb = silverman_bandwidth(combined_samples)
    pad = GRID_PAD_BANDWIDTHS * max(h_full, h_comb)
    lo = min(full_samples.min(), combined_samples.min()) - pad
    hi = max(full_samples.max(), combined_samples.max()) + pad
    grid = np.linspace(lo, hi, GRID_SIZE)
    return grid, kde_1d(full_samples, grid, h_full), kde_1d(combined_samples, grid, h_comb)


def relative_l2_distance(full_samples, combined_samples):
    """Relative L2 distance between two estimated marginal densities.

    ||p_full - p_combined||_L2 / ||p_full||_L2, with both densities
    estimated by :func:`kde_1d` on a shared grid.  The normalization is
    by the full-data density, so the arguments are not interchangeable.
    """
    grid, p_full, p_comb = density_pair(full_samples, combined_samples)
    diff = p_full - p_comb
    num = np.sqrt(np.trapezoid(diff * diff, grid))
    den = np.sqrt(np.trapezoid(p_full**2, grid))
    if den == 0.0:
        raise DegenerateChain("full-data density is zero at every grid point: "
                              "its spread is far below the grid step")
    return float(num / den)
