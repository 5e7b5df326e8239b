import contextlib
import sys

import numpy as np

from chaincombine import SubposteriorBundle, gaussian_product_oracle


@contextlib.contextmanager
def criterion_report(name):
    """Print one PASS/FAIL line per acceptance criterion (visible with -s)."""
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {name}: PASS")


def gaussian_subposteriors(rng, d, T, M, scale, diagonal=False):
    """Machines that mimic subposteriors of one tight posterior: machine
    covariance ~ M * scale^2 * base, machine means scattered by ~0.3 of
    the machine spread.  Returns (bundle, exact product mean/cov)."""
    means, covs, draws = [], [], []
    for _ in range(M):
        if diagonal:
            base = np.diag(rng.uniform(0.7, 1.3, size=d))
        else:
            a = rng.standard_normal((d, d))
            base = a @ a.T / d + np.eye(d)
        cov = (scale**2) * M * base
        mean = rng.normal(0.0, 0.3 * scale * np.sqrt(M), size=d)
        chol = np.linalg.cholesky(cov)
        draws.append(mean[:, None] + chol @ rng.standard_normal((d, T)))
        means.append(mean)
        covs.append(cov)
    bundle = SubposteriorBundle(np.stack(draws, axis=2))
    mean_star, cov_star = gaussian_product_oracle(means, covs)
    return bundle, mean_star, cov_star
