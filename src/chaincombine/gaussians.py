"""Guarded inversion of estimated covariance matrices."""

import numpy as np

from .errors import SingularCovariance

# Relative eigenvalue floor applied before inverting an estimated covariance.
EIG_FLOOR = 1e-10


def spd_inverse(matrix):
    """Inverse of a covariance matrix after flooring its eigenvalues at
    EIG_FLOOR * trace/d.

    Raises :class:`SingularCovariance` when flooring cannot help (zero
    or non-finite trace, i.e. there is no scale to work with).
    """
    matrix = np.asarray(matrix, dtype=float)
    sym = 0.5 * (matrix + matrix.T)
    scale = np.trace(sym) / matrix.shape[0]
    if not np.isfinite(scale) or scale <= 0.0:
        raise SingularCovariance(
            f"covariance has non-positive trace ({scale!r}); cannot regularize"
        )
    eigval, eigvec = np.linalg.eigh(sym)
    return (eigvec / np.maximum(eigval, EIG_FLOOR * scale)) @ eigvec.T
