"""Kernel density estimation and the relative L2 distance between densities.

Combined posteriors are scored against the full-data posterior one
marginal at a time: estimate both densities on a shared grid with a
Gaussian kernel and report ||p_full - p_combined|| / ||p_full|| under
trapezoidal integration.
"""

import numpy as np

from .errors import DegenerateChain, NonPositiveBandwidth

GRID_SIZE = 512
GRID_PAD_BANDWIDTHS = 3.0
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def silverman_bandwidth(samples, d=1):
    """Rule-of-thumb kernel bandwidth from the sample standard deviation.

    Returns ``(4/(d+2))**(1/(d+4)) * T**(-1/(d+4)) * sd`` where ``sd``
    uses the unbiased (T-1) divisor and ``d`` is the dimension of the
    parameter vector the samples are a marginal of.
    """
    samples = np.asarray(samples, dtype=float)
    T = samples.size
    if T < 2:
        raise DegenerateChain("bandwidth selection needs at least 2 samples")
    sd = samples.std(ddof=1)
    if sd == 0.0:
        raise DegenerateChain("samples have zero standard deviation")
    return (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * T ** (-1.0 / (d + 4.0)) * sd


def kde_1d(samples, grid, bandwidth):
    """Gaussian-kernel density estimate of ``samples`` on ``grid``.

    Returns the (G,) array values[g] = (1 / (T h)) * sum_t
    phi((grid[g] - samples[t]) / h).
    """
    if bandwidth <= 0.0:
        raise NonPositiveBandwidth(f"bandwidth must be positive, got {bandwidth}")
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    values = np.empty_like(grid)
    # Chunk the grid so the (chunk, T) broadcast stays small.
    chunk = 128
    scale = 1.0 / (samples.size * bandwidth * _SQRT_2PI)
    for start in range(0, grid.size, chunk):
        z = (grid[start:start + chunk, None] - samples[None, :]) / bandwidth
        values[start:start + chunk] = np.exp(-0.5 * z * z).sum(axis=1) * scale
    return values


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
    return float(num / den)
