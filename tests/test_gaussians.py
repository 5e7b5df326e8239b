"""Guarded SPD inversion."""

import numpy as np
import pytest

from chaincombine.combiners import spd_inverse
from chaincombine.errors import SingularCovariance


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T / d + np.eye(d))


class TestFlooring:
    def test_pd_matrix_unchanged_within_floor(self):
        rng = np.random.default_rng(3)
        cov = random_spd(rng, 3)
        np.testing.assert_allclose(spd_inverse(cov), np.linalg.inv(cov), rtol=1e-9)

    def test_singular_matrix_becomes_invertible(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        inv = spd_inverse(cov)
        assert np.all(np.isfinite(inv))
        # The nonsingular direction is inverted correctly: eigenvector
        # (1,1)/sqrt(2) has eigenvalue 2.  The floored direction carries a
        # ~1e10 eigenvalue, so projection error is amplified; tolerance
        # reflects that.
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(v @ inv @ v, 0.5, atol=1e-6)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularCovariance):
            spd_inverse(np.zeros((2, 2)))
        with pytest.raises(SingularCovariance):
            spd_inverse(np.zeros((3, 3)))

    def test_inverse_of_pd_matrix(self):
        rng = np.random.default_rng(4)
        cov = random_spd(rng, 5)
        np.testing.assert_allclose(spd_inverse(cov) @ cov, np.eye(5), atol=1e-9)
