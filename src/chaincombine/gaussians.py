"""Guarded inversion of estimated covariance matrices."""

import numpy as np

from .errors import SingularCovariance

# Relative eigenvalue floor applied before inverting an estimated covariance.
EIG_FLOOR = 1e-10


def spd_inverse(matrix):
    """Inverse of a covariance matrix, or of each matrix in a (..., d, d)
    stack, after flooring its eigenvalues at EIG_FLOOR * trace/d.

    Raises :class:`SingularCovariance` when flooring cannot help (zero
    or non-finite trace, i.e. there is no scale to work with).
    """
    matrix = np.asarray(matrix, dtype=float)
    sym = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
    scale = np.trace(sym, axis1=-2, axis2=-1) / matrix.shape[-1]
    bad = ~(np.isfinite(scale) & (scale > 0.0))
    if bad.any():
        raise SingularCovariance(
            f"covariance has non-positive trace ({scale[bad][0]!r}); cannot regularize"
        )
    eigval, eigvec = np.linalg.eigh(sym)
    floored = np.maximum(eigval, EIG_FLOOR * scale[..., None])
    return (eigvec / floored[..., None, :]) @ np.swapaxes(eigvec, -1, -2)
