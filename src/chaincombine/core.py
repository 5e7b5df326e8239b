"""Sample-bundle data model shared by every combination method.

A bundle holds the MCMC draws produced on M separate machines, each of
which sampled the posterior of its own data shard.  The array layout is
``values[i, t, m]`` = component i of draw t on machine m, i.e. shape
(d, T, M).  Combined output is a (d, T) matrix.
"""

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue


class _Draws:
    """Read-only float draws with one axis, of length >= 1, per ``layout``
    name: a wrong shape raises :class:`DimensionMismatch` and the first
    NaN or infinity :class:`NonFiniteValue`."""

    layout = ()

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.ndim != len(self.layout) or min(values.shape) < 1:
            raise DimensionMismatch(
                f"{type(self).__name__} must be a ({', '.join(self.layout)}) array "
                f"with every dimension >= 1, got shape {values.shape}"
            )
        _check_finite(values)
        values.setflags(write=False)
        self.values = values

    @property
    def d(self):
        return self.values.shape[0]

    @property
    def T(self):
        return self.values.shape[1]

    def __repr__(self):
        dims = ", ".join(f"{k}={n}" for k, n in zip(self.layout, self.values.shape))
        return f"{type(self).__name__}({dims})"


class SubposteriorBundle(_Draws):
    """Validated, immutable container of per-machine MCMC draws.

    Parameters
    ----------
    values : array_like, shape (d, T, M)
        Draws indexed by [parameter, iteration, machine].
    """

    layout = ("d", "T", "M")

    @property
    def M(self):
        return self.values.shape[2]


class CombinedSamples(_Draws):
    """A validated, read-only (d, T) matrix of pooled posterior draws."""

    layout = ("d", "T")


def _check_finite(values):
    if not np.isfinite(values).all():
        idx = np.argwhere(~np.isfinite(values))[0]
        pos = ", ".join(str(k) for k in idx)
        raise NonFiniteValue(f"non-finite value at index ({pos})")


# The random roles of a run: no two roles, and no role under two seeds,
# share a stream.
ROLES = ("data", "cut", "chain", "dpe", "shuffle")


def _stream(seed, role, *index):
    """The generator of ``role``, number ``index`` where it has several:
    the child of ``SeedSequence(seed)`` with spawn key ``(r, *index)`` for
    ``r = ROLES.index(role)``."""
    key = (ROLES.index(role), *index)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def shuffle_within_machines(bundle, seed):
    """Independently permute the draw order of every machine.

    Each d-dimensional draw moves as a unit, so per-machine draw
    multisets are preserved exactly; only the pairing of draws across
    machines changes.  This breaks spurious correlation between
    same-index draws on different machines.

    Machine m's permutation comes from the ``("shuffle", m)`` stream of
    ``seed``, so it replays neither another machine's nor the stream of
    the density-product sampler, which ``combine --shuff --seed s`` seeds
    with the same ``s``.
    """
    shuffled = np.empty_like(bundle.values)
    for m in range(bundle.M):
        perm = _stream(seed, "shuffle", m).permutation(bundle.T)
        shuffled[:, :, m] = bundle.values[:, perm, m]
    return SubposteriorBundle(shuffled)
