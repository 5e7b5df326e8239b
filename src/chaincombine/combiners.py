"""The four subposterior-combination algorithms.

Three linear combiners pool draws across machines within each iteration:
plain averaging, per-component inverse-variance weighting, and full
covariance weighting.  The fourth method samples from a semiparametric
density-product estimate of the pooled posterior with an independent
Metropolis-within-Gibbs chain over kernel mixture components.
"""

from dataclasses import dataclass

import numpy as np

from .core import CombinedSamples, _stream
from .errors import DegenerateChain, NonPositiveBandwidth, SingularCovariance


@dataclass(frozen=True)
class DpeConfig:
    """Settings for the density-product estimator sampler.

    ``bandw`` is the starting kernel bandwidth per component (scalar or
    length-d vector; default 1.0 for every component).  With ``anneal``
    the bandwidth shrinks as ``bandw * t**(-1/(4+d))`` over iterations t;
    otherwise it stays fixed.
    """

    bandw: object = 1.0
    anneal: bool = True
    seed: int = 0

    def resolved_bandwidths(self, d):
        """The (d,) starting-bandwidth vector, validated positive."""
        bandw = np.atleast_1d(np.asarray(self.bandw, dtype=float))
        if bandw.size == 1:
            bandw = np.full(d, bandw[0])
        if bandw.shape != (d,):
            raise NonPositiveBandwidth(
                f"bandw must be a scalar or length-{d} vector, got shape {bandw.shape}"
            )
        if not np.all(np.isfinite(bandw)) or np.any(bandw <= 0.0):
            raise NonPositiveBandwidth(f"bandwidths must be positive, got {bandw}")
        return bandw


def _pool(bundle, weights):
    """Draw-by-draw pooling ``(sum_m W_m)^-1 sum_m W_m x_m`` with (M, d, d)
    machine weights ``W_m``.

    Row i of every ``W_m`` is divided by ``max_m |W_m[i, i]|`` first,
    which leaves the solution unchanged, guards against overflow and
    makes equal weights exactly the identity.  The draws are pooled about
    a reference point ``c``, as ``c + pool(x_m - c)``, so that the rounding
    follows their spread, not their distance from the origin.  ``c`` is
    the first draws pooled as they are: near every machine that carries
    weight, so no such machine's digits are lost to the subtraction.  One
    machine's draws are returned as they are, whatever its weights.
    """
    if bundle.M == 1:
        return CombinedSamples(bundle.values[:, :, 0])
    diag = np.diagonal(weights, axis1=1, axis2=2)
    norm = weights / np.abs(diag).max(axis=0)[:, None]
    values, total = bundle.values, norm.sum(axis=0)
    try:
        centre = np.linalg.solve(total, np.einsum("mij,jm->i", norm, values[:, 0, :]))
        weighted = np.einsum("mij,jtm->it", norm, values - centre[:, None, None], optimize=True)
        pooled = np.linalg.solve(total, weighted)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("sum of machine precisions is singular") from exc
    return CombinedSamples(pooled + centre[:, None])


def sample_average(bundle):
    """Pool draws by averaging across machines within each iteration.

    Component covariances are ignored entirely; every machine gets the
    same weight.
    """
    return _pool(bundle, np.broadcast_to(np.eye(bundle.d), (bundle.M, bundle.d, bundle.d)))


def machine_moments(bundle):
    """Every machine's Gaussian fit: (M, d) sample means and (M, d, d)
    unbiased sample covariances, from one pass over the (d, T, M) array.

    A component whose draws are all equal takes its first draw as its
    mean, so its variance and covariances come out exactly zero rather
    than at the rounding error of a computed mean.
    """
    if bundle.T < 2:
        raise DegenerateChain("covariance estimation needs at least 2 draws")
    values = bundle.values
    constant = (values == values[:, :1, :]).all(axis=1).T
    means = np.where(constant, values[:, 0, :].T, values.mean(axis=1).T)
    dev = values - means.T[:, None, :]
    # Entries (i, j) and (j, i) multiply the same pairs in the same order,
    # so the covariances come out exactly symmetric.
    return means, np.einsum("itm,jtm->mij", dev, dev) / (bundle.T - 1)


def _require_positive_variances(covs):
    mask = np.diagonal(covs, axis1=1, axis2=2) <= 0.0
    if mask.any():
        m, i = np.argwhere(mask)[0]
        raise DegenerateChain(
            f"machine {m} component {i} has zero variance; "
            "a machine's Gaussian fit needs positive variances"
        )


def spd_inverse(matrix):
    """Inverse of a covariance matrix, or of each matrix in a (..., d, d)
    stack.

    Raises :class:`SingularCovariance` when a matrix is not positive
    definite, or it or its inverse is not finite.
    """
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("covariance is not positive definite") from exc
    inverse = np.linalg.inv(matrix)
    if not (np.isfinite(matrix).all() and np.isfinite(inverse).all()):
        raise SingularCovariance("covariance or its inverse is not finite")
    return inverse


def consensus_independent(bundle):
    """Consensus pooling that treats parameter components as independent.

    Each component of each machine is weighted by the reciprocal of that
    machine's sample variance for the component.
    """
    _, covs = machine_moments(bundle)
    _require_positive_variances(covs)
    # Reciprocal variances scaled per component by an exact power of two, so
    # that a subnormal variance cannot overflow before _pool normalises.
    frac, exp = np.frexp(np.diagonal(covs, axis1=1, axis2=2))  # (M, d)
    weights = np.ldexp(1.0 / frac, exp.min(axis=0) - exp)
    return _pool(bundle, np.eye(bundle.d) * weights[:, :, None])


def consensus_covariance(bundle):
    """Consensus pooling with full covariance weights.

    Machine m is weighted by the inverse of its sample covariance; the
    pooled draw solves (sum of precisions) x = (precision-weighted sum of
    draws), so no matrix is inverted in the apply step.
    """
    _, covs = machine_moments(bundle)
    _require_positive_variances(covs)
    return _pool(bundle, spd_inverse(covs))


def _log_ratio(sum_z, row_z, held_z, d_q, d_f, k, c):
    """Change in the log weight ``(sum z)^2 . k - c sum|z|^2 - sum log_fit``
    as one machine's ``z`` row goes ``held_z`` -> ``row_z`` and the other sums
    move by ``d_q, d_f``.  A loop, not ``sum()``, whose rounding changed in 3.12."""
    kernel = 0.0
    for s_i, b_i, h_i, k_i in zip(sum_z, row_z, held_z, k):
        dz = b_i - h_i
        kernel += k_i * dz * (2.0 * s_i + dz)
    return kernel - c * d_q - d_f


def _bandwidth_scales(T, d, anneal):
    """``s_t = (h_t / bandw)**2`` at steps t = 1..T: annealing shrinks the
    starting bandwidths to ``h_t = bandw * t**(-1/(4+d))``, so early steps
    explore broadly and later ones tighten the mixture."""
    if not anneal:
        return np.ones(T)
    return np.arange(1, T + 1, dtype=float) ** (-2.0 / (4.0 + d))


class _DpeBasis:
    """Every machine's draws in the one basis that serves every bandwidth.

    With ``D = diag(bandw**2 / M)`` the squared bandwidths at iteration t
    are ``M * s_t * D`` for a scalar ``s_t``.  The widened compatibility
    covariance ``Sigma* + s_t D`` and the component precision
    ``Sigma*^-1 + D^-1 / s_t`` then both diagonalize in the eigenbasis
    ``U, lam`` of ``D^-1/2 Sigma* D^-1/2``, so one eigendecomposition
    serves the whole chain.  Draw ``x`` of machine ``m`` is stored as
    ``z = U^T D^-1/2 (x - mu*)``, beside its ``|z|^2`` and fit log density:
    the three tables whose row changes :meth:`run_chain` reads.
    """

    def __init__(self, bundle, bandw):
        means, covs = machine_moments(bundle)
        _require_positive_variances(covs)
        precisions = spd_inverse(covs)
        pooled_cov = spd_inverse(precisions.sum(axis=0))  # Sigma*
        self.M = bundle.M
        self.mean = pooled_cov @ np.einsum("mij,mj->i", precisions, means)  # mu*
        self.scale = bandw / np.sqrt(bundle.M)  # D^1/2
        self.eigval, self.eigvec = np.linalg.eigh(
            pooled_cov / np.outer(self.scale, self.scale)
        )
        dev = (bundle.values - self.mean[:, None, None]) / self.scale[:, None, None]
        self.z = np.einsum("dtm,de->tme", dev, self.eigvec)  # (T, M, d)
        self.z_sq = np.einsum("tme,tme->tm", self.z, self.z)
        # log N(draw | machine mean, machine covariance) up to a per-machine
        # constant, shape (T, M): the denominator of every mixture weight.
        # The constants cancel, since every component selects one draw per
        # machine.  An einsum, not a triangular solve over all T draws:
        # OpenBLAS's threaded solve leaves a worker spinning for about
        # 0.1 s, which slows whatever single-threaded work follows.
        resid = bundle.values - means.T[:, None, :]
        self.log_fit = -0.5 * np.einsum("dtm,mde,etm->tm", resid, precisions, resid)

    def weight_terms(self, s):
        """Coefficients ``(k, c)`` of :func:`_log_ratio` at scale(s) ``s``.

        The kernel term ``-(sum|z|^2 - |sum z|^2 / M) / (2 M s)`` plus the
        compatibility term ``-1/2 sum_i zbar_i^2 / (lam_i + s)`` equals
        ``(sum z)^2 . k - c sum|z|^2`` with ``c = 1 / (2 M s)`` and
        ``k = lam / (2 M^2 s (lam + s))``.  Works on a scalar or a (T,)
        array of scales.
        """
        s = np.asarray(s, dtype=float)[..., None]
        c = 0.5 / (self.M * s[..., 0])
        k = self.eigval / (2.0 * self.M**2 * s * (self.eigval + s))
        return k, c

    def run_chain(self, s, start, machines, proposals, log_u):
        """Walk the mixture-component index chain from the index per
        machine in ``start``, which it leaves untouched.

        Step t re-proposes the index of machine ``machines[t]`` as
        ``proposals[t]`` and accepts when ``log_u[t]`` lies below the log
        weight ratio at scale ``s[t]``.  Returns new arrays ``(history,
        indices)``: the (T, d) ``sum z`` after every step, final indices.

        Each step takes one :func:`_log_ratio` on Python floats, from the
        running ``sum z`` and each machine's selected rows, all it keeps.
        """
        k, c = (a.tolist() for a in self.weight_terms(s))
        tables, cols = (self.z, self.z_sq, self.log_fit), np.arange(self.M)
        held_z, held_q, held_f = (a[start, cols].tolist() for a in tables)
        sum_z, picks, history = self.z[start, cols].sum(axis=0).tolist(), start.tolist(), []
        steps = zip(machines.tolist(), proposals.tolist(), log_u.tolist(), k, c,
                    *(a[proposals, machines].tolist() for a in tables))
        for m, p, lu, k_t, c_t, z_p, q_p, f_p in steps:
            z_h, d_q, d_f = held_z[m], q_p - held_q[m], f_p - held_f[m]
            if lu < _log_ratio(sum_z, z_p, z_h, d_q, d_f, k_t, c_t):
                sum_z = [a + (b - h) for a, b, h in zip(sum_z, z_p, z_h)]
                picks[m], held_z[m], held_q[m], held_f[m] = p, z_p, q_p, f_p
            history.append(sum_z)
        return np.array(history), np.array(picks)

    def emit(self, zbar, s, normals):
        """One output draw per row: ``mu* + D^1/2 U [lam / (lam + s) zbar
        + sqrt(lam s / (lam + s)) eps]`` for (T, d) ``zbar`` and ``normals``
        and (T,) ``s``; returns (d, T)."""
        lam, s = self.eigval, s[:, None]
        inner = lam / (lam + s) * zbar + np.sqrt(lam * s / (lam + s)) * normals
        return self.mean[:, None] + self.scale[:, None] * (self.eigvec @ inner.T)


def semiparametric_dpe(bundle, config=DpeConfig()):
    """Sample the pooled posterior via the semiparametric density product.

    Each machine's subposterior density is modeled as a Gaussian fit
    times a kernel correction; the product across machines is a mixture
    of T^M Gaussians.  An independent Metropolis-within-Gibbs chain walks
    over mixture components: per iteration one machine's selected draw
    index is re-proposed uniformly and accepted by the mixture-weight
    ratio, then one pooled draw is emitted from the selected component.

    Algorithm 1 of Neiswanger, Wang & Xing, *Asymptotically Exact,
    Embarrassingly Parallel MCMC* (arXiv:1311.4780), instead re-proposes
    every machine's index before each emitted draw.  This sampler
    re-proposes one machine, chosen uniformly at random, per draw.

    Annealed or fixed, each iteration's acceptance ratio is one O(d)
    log-weight difference at that iteration's bandwidth, common to the
    current and the proposed component.  All random numbers are drawn
    up front from the ``"dpe"`` stream of ``config.seed``, which no data,
    chain or shuffle stream of any seed replays; the chain runs in a
    rotated basis on Python floats over proposal rows gathered before
    the loop (see :class:`_DpeBasis`), and all T draws are emitted in
    one batched pass after it.

    Parameters
    ----------
    bundle : SubposteriorBundle
        Needs T >= 2 and positive definite machine covariances.
    config : DpeConfig, optional
        Bandwidths, annealing flag and seed.
    """
    d, T, M = bundle.d, bundle.T, bundle.M
    basis = _DpeBasis(bundle, config.resolved_bandwidths(d))
    rng = _stream(config.seed, "dpe")
    start = rng.integers(0, T, size=M)
    machines = rng.integers(0, M, size=T)
    proposals = rng.integers(0, T, size=T)
    log_u = np.log(rng.uniform(size=T))
    normals = rng.standard_normal((T, d))
    s = _bandwidth_scales(T, d, config.anneal)
    sum_z, _ = basis.run_chain(s, start, machines, proposals, log_u)
    return CombinedSamples(basis.emit(sum_z / M, s, normals))
