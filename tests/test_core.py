"""Bundle and combined-sample validation, and the per-machine shuffle."""

import numpy as np
import pytest

from chaincombine import (
    CombinedSamples,
    DimensionMismatch,
    NonFiniteValue,
    SubposteriorBundle,
    shuffle_within_machines,
)
from chaincombine.core import _stream


class TestSubposteriorBundle:
    def test_nan_reports_index(self):
        raw = np.zeros((2, 3, 2))
        raw[1, 2, 0] = np.nan
        with pytest.raises(NonFiniteValue, match=r"\(1, 2, 0\)"):
            SubposteriorBundle(raw)

    def test_infinity_rejected(self):
        raw = np.zeros((1, 2, 1))
        raw[0, 0, 0] = np.inf
        with pytest.raises(NonFiniteValue):
            SubposteriorBundle(raw)

    def test_flat_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            SubposteriorBundle(np.arange(12.0))

    def test_constant_chain_accepted(self):
        raw = np.zeros((2, 3, 2))
        raw[0, :, 0] = 5.0
        raw[1, :, 0] = [1.0, 2.0, 3.0]
        raw[:, :, 1] = np.arange(6.0).reshape(2, 3)
        SubposteriorBundle(raw)

    def test_values_are_immutable(self):
        bundle = SubposteriorBundle(np.zeros((1, 2, 1)))
        assert repr(bundle) == "SubposteriorBundle(d=1, T=2, M=1)"
        with pytest.raises(ValueError):
            bundle.values[0, 0, 0] = 1.0


class TestCombinedSamples:
    @pytest.mark.parametrize("shape", [(6,), (2, 3, 1)])
    def test_requires_a_matrix(self, shape):
        with pytest.raises(DimensionMismatch):
            CombinedSamples(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 4), (2, 0)])
    def test_zero_dimension_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            CombinedSamples(np.zeros(shape))

    def test_nan_reports_index(self):
        raw = np.zeros((2, 5))
        raw[1, 3] = np.nan
        with pytest.raises(NonFiniteValue, match=r"\(1, 3\)"):
            CombinedSamples(raw)

    def test_values_are_immutable_copy(self):
        raw = np.zeros((2, 3))
        combined = CombinedSamples(raw)
        assert (combined.d, combined.T) == (2, 3)
        assert repr(combined) == "CombinedSamples(d=2, T=3)"
        with pytest.raises(ValueError):
            combined.values[0, 0] = 1.0
        raw[0, 0] = 1.0
        assert combined.values[0, 0] == 0.0


class TestShuffleWithinMachines:
    def test_single_machine_two_draws_preserves_multiset(self):
        values = np.array([[1.0, 3.0], [2.0, 4.0]]).reshape(2, 2, 1)
        bundle = SubposteriorBundle(values)
        shuffled = shuffle_within_machines(bundle, seed=7)
        drawn = sorted(map(tuple, shuffled.values[:, :, 0].T))
        assert drawn == [(1.0, 2.0), (3.0, 4.0)]

    def test_draw_vectors_move_as_units(self):
        # Components of one draw stay together: tag each draw by an exact
        # linear relation between its components and check it survives.
        t = np.arange(10.0)
        values = np.stack([t, 2.0 * t], axis=0).reshape(2, 10, 1)
        shuffled = shuffle_within_machines(SubposteriorBundle(values), seed=2)
        np.testing.assert_array_equal(
            shuffled.values[1, :, 0], 2.0 * shuffled.values[0, :, 0]
        )

    def test_distinct_seeds_usually_differ(self):
        # Statistical smoke test, not a hard guarantee: with T=12 the
        # chance of two seeds agreeing is 1/12!.
        rng = np.random.default_rng(9)
        bundle = SubposteriorBundle(rng.standard_normal((1, 12, 2)))
        a = shuffle_within_machines(bundle, seed=1)
        b = shuffle_within_machines(bundle, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_stream_independent_of_sampler_seed(self):
        # combine --shuff --seed s seeds the density-product sampler with
        # the same s; the shuffle must not replay the sampler's stream.
        T = 50
        bundle = SubposteriorBundle(np.arange(float(T)).reshape(1, T, 1))
        for seed in (0, 5, 123):
            perm = shuffle_within_machines(bundle, seed).values[0, :, 0]
            assert not np.array_equal(perm, _stream(seed, "dpe").permutation(T))
