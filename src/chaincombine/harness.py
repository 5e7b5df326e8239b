"""Self-contained test problems: simulate data, shard it, sample shards.

Two models are provided end to end.  A five-covariate logistic
regression with flat priors on the coefficients, and a Gamma model
reparameterized in terms of its mean and standard deviation (which
decorrelates the shape and rate) with wide uniform priors.  Both are
sampled with an adaptive random-walk Metropolis chain whose proposal
scale is tuned during burn-in only, so the retained draws come from a
fixed kernel.  :func:`run_chains` shards the data and samples the
shards and the full data in parallel worker processes, since the chains
never communicate.  Every random role (data, shard cut, chain m) draws
from its own stream of the run seed (``core.ROLES``).

The exact product-of-Gaussians moments live here too; they are the
independent oracle the combiners are tested against.
"""

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .core import SubposteriorBundle, _stream
from .errors import (
    DegenerateChain,
    NonConvergenceWarning,
    NonPositiveData,
    SingularCovariance,
    TooManyShards,
)
from .io import write_matrix

GAMMA_PRIOR_LO = 1e-4
GAMMA_PRIOR_HI = 1e4

# Roberts-Rosenthal targets for random-walk Metropolis.
TARGET_ACCEPT_SCALAR = 0.44
TARGET_ACCEPT_MULTIVARIATE = 0.234

ACCEPTANCE_HEALTHY = (0.1, 0.6)

# Newton's method for the logistic mode stops at a step this small; a mode
# not reached in this many steps does not exist.
MODE_STEP_TOL = 1e-10
MODE_MAX_STEPS = 50

# Central-difference step for the proposal Hessian, relative to max(|x|, 1).
HESSIAN_REL_STEP = 1e-4

# Metropolis steps whose proposal normals and uniforms are drawn at once.
RANDOM_BLOCK = 4096

# Radius of the ball, in whitened proposal units, where an envelope screens.
ENVELOPE_RADIUS = 6.0


@dataclass(frozen=True)
class MhConfig:
    """Chain length and tuning for the random-walk Metropolis samplers.

    ``iterations`` counts retained draws after ``burnin`` discarded ones.
    With ``thin`` > 1 the chain advances ``thin`` Metropolis steps per
    retained draw; random-walk chains decorrelate over roughly 2-4x the
    parameter count in steps, so thinning buys near-independent retained
    draws at proportional cost.
    """

    iterations: int = 10_000
    burnin: int = 1_000
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        if self.iterations < 2:
            raise ValueError("iterations must be >= 2")
        if self.burnin < 0:
            raise ValueError("burnin must be >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


def _expit(z):
    """The logistic function 1 / (1 + e^-z), formed from e^-|z| so that
    it cannot overflow and keeps its relative accuracy in both tails."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def simulate_logistic_data(n, beta, seed):
    """Draw covariates i.i.d. standard normal and Bernoulli outcomes.

    Returns the (n, 1 + d) rows ``[y, x_1, ..., x_d]`` that
    :func:`run_chains` shards, drawn from the ``"data"`` stream of ``seed``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    beta = np.asarray(beta, dtype=float)
    rng = _stream(seed, "data")
    x = rng.standard_normal((n, beta.size))
    p = _expit(x @ beta)
    y = (rng.uniform(size=n) < p).astype(float)
    return np.column_stack([y, x])


def simulate_gamma_data(n, alpha, beta, seed):
    """Draw n observations from Gamma(alpha, beta) with rate beta, as
    the (n, 1) rows ``[y]`` that :func:`run_chains` shards, from the
    ``"data"`` stream of ``seed``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("alpha and beta must be positive")
    return _stream(seed, "data").gamma(shape=alpha, scale=1.0 / beta, size=(n, 1))


def _cut(n, shards, seed):
    """Each shard's row indices: one permutation of n by the ``"cut"``
    stream of ``seed``, cut into runs whose lengths differ by at most one."""
    if not 1 <= shards <= n:
        raise TooManyShards(f"cannot split {n} rows into {shards} shards")
    return np.array_split(_stream(seed, "cut").permutation(n), shards)


def partition_rows(data, n_shards, seed):
    """Randomly split (n, k) data rows into ``n_shards`` disjoint blocks,
    copies of the rows :func:`_cut` gives each: their union is the input."""
    data = np.asarray(data, dtype=float)
    return [data[index] for index in _cut(data.shape[0], n_shards, seed)]


def gaussian_product_oracle(means, covs):
    """Exact moments of the normalized product of Gaussian densities.

    Independent of the combiner implementations on purpose: plain
    precision sums with ``np.linalg.inv``, no regularization.
    """
    means = [np.atleast_1d(np.asarray(m, dtype=float)) for m in means]
    covs = [np.atleast_2d(np.asarray(c, dtype=float)) for c in covs]
    for cov in covs:
        if np.any(np.linalg.eigvalsh(0.5 * (cov + cov.T)) <= 0.0):
            raise SingularCovariance("oracle requires positive definite covariances")
    precisions = [np.linalg.inv(c) for c in covs]
    cov_star = np.linalg.inv(np.sum(precisions, axis=0))
    mean_star = cov_star @ np.sum(
        [p @ m for p, m in zip(precisions, means)], axis=0
    )
    return mean_star, cov_star


def _finite_difference_hessian(log_density, x):
    """Central-difference Hessian, used to shape the proposal covariance."""
    x = np.asarray(x, dtype=float)
    d = x.size
    steps = HESSIAN_REL_STEP * np.maximum(np.abs(x), 1.0)
    hess = np.empty((d, d))
    basis = np.diag(steps)
    for i in range(d):
        for j in range(i, d):
            ei, ej = basis[i], basis[j]
            fpp = log_density(x + ei + ej)
            fpm = log_density(x + ei - ej)
            fmp = log_density(x - ei + ej)
            fmm = log_density(x - ei - ej)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * steps[i] * steps[j])
    return hess


def _proposal_cholesky(log_density, center):
    """Cholesky factor of the local inverse-curvature at ``center``.

    Falls back to the identity scaled by |center| when the curvature is
    not usable (flat directions, numerical noise, a stencil point where
    the log density is -inf).
    """
    with np.errstate(invalid="ignore"):
        hess = _finite_difference_hessian(log_density, center)
    try:
        eigval, eigvec = np.linalg.eigh(-0.5 * (hess + hess.T))
    except np.linalg.LinAlgError:
        eigval = None
    if eigval is not None and np.all(eigval > 0.0) and np.all(np.isfinite(eigval)):
        return np.linalg.cholesky((eigvec / eigval) @ eigvec.T)
    return np.diag(np.maximum(np.abs(center), 1.0))


def adaptive_random_walk(log_density, start, config, chain=0, envelope=None):
    """Random-walk Metropolis with burn-in-only scale adaptation.

    The proposal is ``scale * L z`` with ``L`` the local curvature
    factor at the start point.  During burn-in the global ``scale``
    follows a Robbins-Monro recursion toward the target acceptance rate
    and is frozen afterwards.
    ``log_density`` is ``-inf`` where the target has no mass; such a
    proposal, or one whose log density is NaN, is rejected.  A start
    whose log density is not finite raises :class:`DegenerateChain`.

    ``envelope(L)``, if given, returns ``(h, margin)``: ``log_density(start +
    L w) <= log_density(start) - h |w|^2 + margin`` where ``|w| <= ENVELOPE_RADIUS``.
    After burn-in, a proposal this bound rejects is rejected unevaluated: same draws.

    The randomness comes from the ``("chain", chain)`` stream of
    ``config.seed``, drawn ``RANDOM_BLOCK`` steps at a time: a block of
    normals, turned into proposal steps by one product with ``L``, then
    a block of uniforms, one per step whether the step uses it or not.
    So the memory stays O(RANDOM_BLOCK * d) at any chain length.

    Returns ``(draws, acceptance_rate)`` with ``draws`` of shape (d, T)
    and the rate the fraction of post-burn-in proposals accepted.  A
    rate outside [0.1, 0.6] triggers a :class:`NonConvergenceWarning`.
    """
    start = np.asarray(start, dtype=float)
    d = start.size
    target = TARGET_ACCEPT_SCALAR if d == 1 else TARGET_ACCEPT_MULTIVARIATE
    rng = _stream(config.seed, "chain", chain)
    x = start.copy()
    log_p = log_density(x)
    if not math.isfinite(log_p):
        raise DegenerateChain(f"log density at the start {start} is {log_p}; "
                              "the start has no posterior mass")
    chol = _proposal_cholesky(log_density, start)
    if envelope is not None:
        half_curvature, margin = envelope(chol)
        ceiling = log_p + margin

    # Python floats where the loop allows: numpy scalar arithmetic is slower.
    scale = 2.38 / math.sqrt(d)
    burnin, thin = config.burnin, config.thin
    total = burnin + config.iterations * thin
    kept = []
    accepts = 0
    for first in range(0, total, RANDOM_BLOCK):
        size = min(RANDOM_BLOCK, total - first)
        normals = rng.standard_normal((size, d))
        steps = normals @ chol.T
        if first >= burnin:
            steps *= scale
        w = w_y = None  # w = L^-1 (x - start), solved once a block so rounding cannot drift
        zs = normals.tolist() if envelope is not None else [None] * size
        for k, step, u, z in zip(range(first, first + size), steps, rng.random(size).tolist(), zs):
            if envelope is not None and k >= burnin:
                w = w or np.linalg.solve(chol, x - start).tolist()
                w_y = [a + scale * b for a, b in zip(w, z)]
                ww = sum([a * a for a in w_y])
                excess = min(ceiling - half_curvature * ww - log_p, 0.0)
                # Even the bound's acceptance probability is below u: rejected unevaluated.
                if ww <= ENVELOPE_RADIUS ** 2 and u >= math.exp(excess):
                    if (k - burnin) % thin == thin - 1:
                        kept.append(x)
                    continue
            # Steps are scaled a block at a time once the scale is frozen (below);
            # the iterator yields views, so those steps arrive scaled.
            proposal = x + scale * step if k < burnin else x + step
            log_p_prop = log_density(proposal)
            # False for -inf and for NaN alike: neither proposal has mass.
            if log_p_prop > -math.inf:
                delta = log_p_prop - log_p
                accept_prob = math.exp(delta) if delta < 0.0 else 1.0
            else:
                accept_prob = 0.0
            if u < accept_prob:
                x, log_p, w = proposal, log_p_prop, w_y
                accepts += k >= burnin
            if k < burnin:
                scale *= math.exp((k + 1.0) ** -0.6 * (accept_prob - target))
                if k == burnin - 1:  # the scale is frozen from here on
                    steps[k + 1 - first:] *= scale
            elif (k - burnin) % thin == thin - 1:
                kept.append(x)
    # C order: numpy sums a C-order row pairwise but a transposed one
    # sequentially, so the layout decides the last bits of a draw mean.
    draws = np.ascontiguousarray(np.array(kept).T)
    rate = accepts / (config.iterations * config.thin)
    if not ACCEPTANCE_HEALTHY[0] <= rate <= ACCEPTANCE_HEALTHY[1]:
        warnings.warn(
            f"post-burn-in acceptance rate {rate:.3f} outside "
            f"{ACCEPTANCE_HEALTHY}; chain may be poorly mixed",
            NonConvergenceWarning,
            stacklevel=2,
        )
    return draws, rate


def _logistic_log_likelihood(x, y):
    """Closure returning the flat-prior log posterior for coefficients.

    The logits are taken against a C-contiguous copy of x transposed, so
    the value does not depend on the layout of ``x``, and log(1 + e^z)
    is summed as the stable softplus max(z, 0) + log1p(e^-|z|), which
    is several times faster than ``np.logaddexp(0, z)``; it is formed in
    place in the logits and one temporary.
    """
    xt = np.ascontiguousarray(x.T)
    yx = xt @ y  # sufficient statistic for the linear term

    def log_density(beta):
        logits = beta @ xt
        tail = np.abs(logits)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        softplus = np.maximum(logits, 0.0, out=logits)
        softplus += tail
        return float(yx @ beta - softplus.sum())

    return log_density


def _logistic_mode(x, y):
    """Maximum-likelihood coefficients, the chain's starting point: Newton's
    method from beta = 0 with W = diag(p (1 - p)), each step a least-squares
    solve, so a duplicated column still gives a finite step.  Separable
    outcomes have no finite maximum and an improper posterior; steps that
    never fall below MODE_STEP_TOL, or an all-zero W, raise DegenerateChain."""
    beta = np.zeros(x.shape[1])
    for _ in range(MODE_MAX_STEPS):
        p = _expit(x @ beta)
        weights = p * (1.0 - p)
        if not weights.any():
            break
        hess = (x.T * weights) @ x
        step = np.linalg.lstsq(hess, x.T @ (y - p), rcond=None)[0]
        beta += step
        if np.abs(step).max() < MODE_STEP_TOL:
            return beta
    raise DegenerateChain(f"logistic likelihood on {x.shape[0]} rows has no finite "
                          "maximum (separable outcomes?); the posterior is improper")


def _logistic_envelope(x, y, mode, chol):
    """The :func:`adaptive_random_walk` envelope of the logistic log likelihood.

    Where |w| <= R = ENVELOPE_RADIUS, beta = mode + L w (L = ``chol``) moves
    logit z_i = x_i . mode by at most R |c_i|, c_i = L^T x_i; s(z) = e^-|z| /
    (1 + e^-|z|)^2 falls with |z|, so by Taylor's theorem from the mode the
    curvature is the least eigenvalue of sum_i s(|z_i| + R |c_i|) c_i c_i^T.
    The margin holds R |L^T gradient| (0 at the mode but for rounding) and
    4 times a call's rounding (at the mode, at the proposal, the gradient,
    the rest): there |beta| <= r = |mode| + R |L|_F, so a call sums terms of
    size <= b_i + 1, b_i = |x_i| r, n + d + 5 deep: error <= (n + d + 5) eps sum(b_i + 1).
    """
    z, c = x @ mode, x @ chol
    e = np.exp(-np.abs(z) - ENVELOPE_RADIUS * np.linalg.norm(c, axis=1))
    curvature = np.linalg.eigvalsh((c.T * (e / (1.0 + e) ** 2)) @ c)[0]
    b = np.linalg.norm(x, axis=1) * (np.linalg.norm(mode) + ENVELOPE_RADIUS * np.linalg.norm(chol))
    rounding = (x.shape[0] + x.shape[1] + 5) * np.finfo(float).eps * (b + 1.0).sum()
    slope = np.linalg.norm(chol.T @ (x.T @ (y - _expit(z))))
    return 0.5 * float(curvature), float(4.0 * rounding + ENVELOPE_RADIUS * slope)


def _logistic_chain(rows, config, chain=0):
    """Posterior draws for logistic-regression coefficients on rows
    ``[y, x_1, ..., x_d]``, from chain stream ``chain``.

    Flat priors make the log posterior equal the log likelihood up to a
    constant.  Returns ``(draws, rate)``: the (d, T) retained draws and
    the post-burn-in acceptance rate.
    """
    x, y = rows[:, 1:], rows[:, 0]
    log_density = _logistic_log_likelihood(x, y)
    start = _logistic_mode(x, y)
    return adaptive_random_walk(log_density, start, config, chain,
                                lambda chol: _logistic_envelope(x, y, start, chol))


def _gamma_log_posterior(y):
    """Log posterior on (mean, sd) for Gamma data under Uniform(GAMMA_PRIOR_LO,
    GAMMA_PRIOR_HI) priors on each: ``-inf`` outside that open box."""
    n = y.size
    sum_y = float(y.sum())
    sum_log_y = float(np.log(y).sum())

    def log_density(params):
        # Python floats: numpy scalar arithmetic costs several times more.
        mean, sd = params.tolist()
        if not (GAMMA_PRIOR_LO < mean < GAMMA_PRIOR_HI and GAMMA_PRIOR_LO < sd < GAMMA_PRIOR_HI):
            return -math.inf
        var = sd * sd
        alpha = mean * mean / var
        beta = mean / var
        return (
            n * (alpha * math.log(beta) - math.lgamma(alpha))
            + (alpha - 1.0) * sum_log_y
            - beta * sum_y
        )

    return log_density


def _gamma_chain(rows, config, chain=0):
    """Posterior draws of (alpha, beta) for Gamma data on rows ``[y]``,
    from chain stream ``chain``.

    The chain walks the (mean, sd) parameterization under
    Uniform(0.0001, 10000) priors on each coordinate; proposals outside
    the prior box have log density ``-inf`` and are rejected, and a data
    mean or sd outside it raises :class:`DegenerateChain`.  Returns
    ``(draws, rate)``: the (2, T) retained draws as shape and rate,
    alpha = mean^2/sd^2 and beta = mean/sd^2, and the post-burn-in
    acceptance rate.
    """
    y = rows[:, 0]
    if np.any(y <= 0.0):
        raise NonPositiveData("Gamma observations must be strictly positive")
    log_density = _gamma_log_posterior(y)
    start = np.array([y.mean(), y.std(ddof=1)])
    if start[1] == 0.0:
        raise DegenerateChain("data has zero variance; Gamma fit is degenerate")
    (mean, sd), rate = adaptive_random_walk(log_density, start, config, chain)
    var = sd * sd
    return np.vstack([mean * mean / var, mean / var]), rate


def _serve(conn, model, rows, cut, config, paths):
    """A worker process: for each chain index k that ``conn`` brings until
    None, chain k on the shard it gathers or, past the last shard, on all
    the rows, its (T, d) draws written to ``paths[k]`` unless that is None.
    Answers ``(k, (draws, rate, warnings))`` or ``(k, error)``."""
    chain = _logistic_chain if model == "logistic" else _gamma_chain
    for k in iter(conn.recv, None):
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                draws, rate = chain(rows[cut[k]] if k < len(cut) else rows, config, k)
            if paths[k] is not None:
                write_matrix(paths[k], draws.T)
            conn.send((k, (draws, rate, [w.message for w in caught])))
        except Exception as exc:
            conn.send((k, exc))


def _usable_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chains(model, rows, shards, config, paths=None):
    """Shard the data rows and sample every shard and the full data.

    ``model`` is ``"logistic"`` (rows ``[y, x_1, ..., x_d]``) or
    ``"gamma"`` (rows ``[y]``), as the simulators return them.  The rows
    are cut into ``shards`` blocks as by ``partition_rows(rows, shards,
    config.seed)``, and chain ``m`` runs ``config`` on the ``("chain",
    m)`` stream of ``config.seed``: the shards in order, then the
    full-data chain.  The chains share nothing, so they run in forked
    worker processes, one per usable core at most, each fed one chain
    index at a time, largest block first.  The workers inherit the rows
    and the cut and gather their own shards, so the parent holds no
    shard and no row passes through a pipe.  Without fork, each worker
    receives the rows once.  Given ``paths``, one per chain, each worker
    writes its chain's (T, d) draws there by :func:`io.write_matrix` as
    soon as the chain ends, as separate machines would.  The draws equal
    a one-chain-at-a-time loop bit for bit, whatever the core count.  An
    error raised in a chain, a failed write too, reaches the caller with
    its own type, the first in chain order; a worker that dies raises
    :class:`ChildProcessError`.  Warnings are re-issued in chain order.

    Returns ``(bundle, full_chain, rates)``: the
    :class:`SubposteriorBundle` of the shard chains, the (d, T)
    full-data draws, and the post-burn-in acceptance rates, shards first
    and the full-data chain last.
    """
    # Imported here, the one place that forks: most callers of the package
    # combine draws sampled elsewhere and never start a worker.
    import multiprocessing
    from multiprocessing.connection import wait

    if model not in ("logistic", "gamma"):
        raise ValueError(f"unknown model {model!r}")
    if paths is not None and len(paths) != shards + 1:
        raise ValueError(f"{shards} shards need {shards + 1} paths, got {len(paths)}")
    rows = np.asarray(rows, dtype=float)
    cut = _cut(rows.shape[0], shards, config.seed)
    sizes = [*map(len, cut), rows.shape[0]]
    pending = iter(sorted(range(len(sizes)), key=lambda k: -sizes[k]))
    # Fork by name (forkserver is Linux's default from Python 3.14), not spawn:
    # a spawned worker pays a fresh interpreter and numpy import, about 0.3 s.
    # A forked worker inherits the rows unpickled; without fork, each unpickles them.
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    paths = paths or [None] * len(sizes)
    results = [None] * len(sizes)
    workers = {}  # by the parent's end of each worker's pipe
    try:
        for _ in range(min(_usable_cores(), len(sizes))):
            conn, child = context.Pipe()
            worker = context.Process(target=_serve, args=(child, model, rows, cut, config, paths))
            worker.start()
            child.close()  # so that a worker that dies reads as EOF here
            workers[conn] = worker
            conn.send(next(pending))
        # One index in flight per worker: thousands queued would fill the pipes.
        busy = list(workers)
        while busy:
            for conn in wait(busy):
                try:
                    k, results[k] = conn.recv()
                except EOFError:
                    raise ChildProcessError("a chain worker died before it answered") from None
                k = next(pending, None)
                conn.send(k)
                if k is None:
                    busy.remove(conn)
    except BaseException:
        for worker in workers.values():
            worker.terminate()
        raise
    finally:
        for conn, worker in workers.items():
            worker.join()
            conn.close()
    for result in results:
        if isinstance(result, Exception):
            raise result
    chains, rates = [], []
    for draws, rate, caught in results:
        for message in caught:
            warnings.warn(message, stacklevel=2)
        chains.append(draws)
        rates.append(rate)
    full_chain = chains.pop()
    return SubposteriorBundle(np.stack(chains, axis=2)), full_chain, rates
