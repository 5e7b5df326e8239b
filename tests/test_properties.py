"""Property tests over random shapes: machine moments, affine maps,
machine order, shifts, the bundle file round trip, row partitioning and
malformed bundle files.

For the statistical properties Hypothesis picks the shapes and a seed,
and the data come from a numpy generator with that seed, so every
example is Gaussian noise, well scaled except where a property is about
scale.  The file round trip instead takes its values from Hypothesis
directly, adversarial digit patterns included, since exact serialization
is what it checks.
"""

import contextlib
import io
import json
import string
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chaincombine import (
    SubposteriorBundle,
    consensus_covariance,
    consensus_independent,
    machine_moments,
    partition_rows,
    sample_average,
)
from chaincombine.cli import METHODS, main
from chaincombine.io import read_bundle, write_bundle

seeds = st.integers(0, 2**32 - 1)
magnitudes = st.floats(min_value=1e-300, max_value=1e300)
finite_values = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v))


@settings(deadline=None, max_examples=60)
@given(
    d=st.integers(1, 4),
    T=st.integers(2, 40),
    M=st.integers(1, 5),
    seed=seeds,
    constant_share=st.sampled_from([0.0, 0.3]),
)
def test_machine_moments_match_numpy(d, T, M, seed, constant_share):
    rng = np.random.default_rng(seed)
    values = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 3.0), size=(d, T, M))
    constant = rng.uniform(size=(d, M)) < constant_share
    values.transpose(0, 2, 1)[constant] = rng.uniform(-5.0, 5.0, size=(constant.sum(), 1))
    bundle = SubposteriorBundle(values)

    means, covs = machine_moments(bundle)

    assert means.shape == (M, d) and covs.shape == (M, d, d)
    for m in range(M):
        draws = values[:, :, m]
        np.testing.assert_allclose(means[m], draws.mean(axis=1), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            covs[m], np.atleast_2d(np.cov(draws, ddof=1)), rtol=1e-10, atol=1e-12
        )
    # A constant component has exactly zero variance and no covariance.
    assert np.all(covs[constant.T] == 0.0)


@settings(deadline=None, max_examples=60)
@given(
    d=st.integers(1, 4),
    T=st.integers(2, 40),
    M=st.integers(1, 5),
    seed=seeds,
)
def test_consensus_covariance_affine_equivariance(d, T, M, seed):
    # x -> A x + b with A = diag(c) Q diag(s) R, Q and R orthogonal, s in
    # [0.5, 2] and per-component scales c in [1e-8, 1], and b = c * b0.  So
    # component i of the output scales by c_i, and each component is checked
    # against its own scale: a covariance is inverted exactly, whatever the
    # spread of scales between its components.
    T = max(T, 4 * d + 4)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    r, _ = np.linalg.qr(rng.standard_normal((d, d)))
    c = 10.0 ** rng.uniform(-8.0, 0.0, size=d)
    a = c[:, None] * (q * rng.uniform(0.5, 2.0, size=d)) @ r
    b = c * rng.uniform(-3.0, 3.0, size=d)
    bundle = SubposteriorBundle(rng.standard_normal((d, T, M)) + rng.standard_normal((d, 1, M)))
    mapped = SubposteriorBundle(np.einsum("ij,jtm->itm", a, bundle.values) + b[:, None, None])

    expected = a @ consensus_covariance(bundle).values + b[:, None]
    got = consensus_covariance(mapped).values

    for i in range(d):
        np.testing.assert_allclose(got[i], expected[i], rtol=1e-9,
                                   atol=1e-9 * np.abs(expected[i]).max())


@settings(deadline=None, max_examples=60)
@given(
    d=st.integers(1, 4),
    T=st.integers(2, 40),
    M=st.integers(1, 5),
    seed=seeds,
    data=st.data(),
)
def test_linear_combiners_ignore_machine_order(d, T, M, seed, data):
    # The density-product sampler is left out: its random stream walks the
    # machines in order, so permuting them changes its draws.
    T = max(T, 4 * d + 4)
    rng = np.random.default_rng(seed)
    values = (rng.uniform(0.5, 2.0, size=(d, 1, M)) * rng.standard_normal((d, T, M))
              + rng.standard_normal((d, 1, M)))
    order = data.draw(st.permutations(range(M)))
    bundle = SubposteriorBundle(values)
    permuted = SubposteriorBundle(values[:, :, order])

    for combine in (sample_average, consensus_independent, consensus_covariance):
        expected = combine(bundle).values
        np.testing.assert_allclose(combine(permuted).values, expected,
                                   rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@settings(deadline=None, max_examples=60)
@given(
    d=st.integers(1, 4),
    T=st.integers(2, 40),
    M=st.integers(2, 5),
    seed=seeds,
    log_shift=st.floats(0.0, 12.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_linear_combiners_move_with_a_shift(d, T, M, seed, log_shift, sign):
    # x -> x + a with |a| up to 1e12 moves each linear combiner's output by
    # a, to within 8 ulps of the shifted draws, plus 1e-12 for the
    # combiner's own rounding on these correlated, unit-scale draws.  The
    # unshifted bundle is the shifted one less a, which is exact, so both
    # hold the same points.  Solving on uncentred draws, consensus-cov was
    # off by up to about 500 ulps here.
    T = max(T, 4 * d + 4)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    r, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mix = (q * rng.uniform(0.05, 1.0, size=d)) @ r
    draws = (rng.uniform(0.5, 2.0, size=(1, 1, M)) * rng.standard_normal((d, T, M))
             + rng.standard_normal((d, 1, M)))
    shift = sign * 10.0**log_shift
    shifted = np.einsum("ij,jtm->itm", mix, draws) + shift
    bound = 8.0 * np.spacing(np.abs(shifted).max()) + 1e-12

    for combine in (sample_average, consensus_independent, consensus_covariance):
        expected = combine(SubposteriorBundle(shifted - shift)).values + shift
        got = combine(SubposteriorBundle(shifted)).values
        assert np.abs(got - expected).max() <= bound, combine.__name__


@settings(deadline=None, max_examples=60)
@given(
    values=arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 3)),
        elements=finite_values,
    )
)
def test_bundle_file_round_trip_is_bitwise(values):
    bundle = SubposteriorBundle(values)
    with tempfile.TemporaryDirectory() as directory:
        manifest = Path(directory) / "bundle.json"
        write_bundle(bundle, manifest)
        back = read_bundle(manifest)
    assert back.values.shape == values.shape
    np.testing.assert_array_equal(back.values.view(np.uint64), values.view(np.uint64))


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 60),
    width=st.integers(1, 3),
    shard_share=st.floats(0.0, 1.0),
    seed=seeds,
)
def test_partition_rows_keeps_the_row_multiset(n, width, shard_share, seed):
    # Values from a small integer range, so repeated rows are common and
    # the multiset, not just the set, is what the check compares.
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 3, size=(n, width)).astype(float)
    n_shards = 1 + int(shard_share * (n - 1))

    shards = partition_rows(data, n_shards, seed=seed)

    sizes = [shard.shape[0] for shard in shards]
    assert len(shards) == n_shards and max(sizes) - min(sizes) <= 1
    rebuilt = np.vstack(shards)
    np.testing.assert_array_equal(
        rebuilt[np.lexsort(rebuilt.T)], data[np.lexsort(data.T)]
    )


def _not_a_float(token):
    try:
        float(token)
    except ValueError:
        return True
    return False


# Tokens that float() rejects, without the delimiter, the comment sign or
# white space, so that each stays one field of its line.
bad_tokens = st.text(string.ascii_letters + string.digits + "+-.", min_size=1).filter(
    _not_a_float
)


@st.composite
def malformed_bundles(draw):
    """A valid bundle's files as (manifest dict, machine file texts), then
    one fault put into them; returns the faulty pair and, for a non-finite
    value, the name of the machine file that holds it (else None)."""
    d, T, M = draw(st.integers(1, 3)), draw(st.integers(2, 6)), draw(st.integers(1, 3))
    seed = draw(seeds)
    values = np.random.default_rng(seed).standard_normal((d, T, M))
    texts = [
        "".join(",".join(repr(v) for v in row) + "\n" for row in values[:, :, m].T.tolist())
        for m in range(M)
    ]
    manifest = {"d": d, "T": T, "M": M,
                "machine_files": [f"machine_{m + 1}.csv" for m in range(M)]}
    fault = draw(st.sampled_from(["token", "ragged", "empty", "missing-key", "wrong-M",
                                  "nonpositive-dim", "non-finite"]))
    m = draw(st.integers(0, M - 1))
    lines = texts[m].splitlines()
    t = draw(st.integers(0, T - 1))
    fields = lines[t].split(",")
    if fault == "token":
        fields[draw(st.integers(0, d - 1))] = draw(bad_tokens)
    elif fault == "non-finite":
        fields[draw(st.integers(0, d - 1))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif fault == "ragged":
        fields = fields[:-1] if d > 1 and draw(st.booleans()) else fields + ["0.5"]
    lines[t] = ",".join(fields)
    texts[m] = "\n".join(lines) + "\n"
    if fault == "empty":
        texts[m] = draw(st.sampled_from(["", "\n", "\n\n", " \n\t\n"]))
    elif fault == "missing-key":
        del manifest[draw(st.sampled_from(["d", "T", "M", "machine_files"]))]
    elif fault == "wrong-M":
        manifest["M"] = draw(st.integers(0, M + 2).filter(lambda k: k != M))
    elif fault == "nonpositive-dim":
        manifest[draw(st.sampled_from(["d", "T"]))] = draw(st.integers(-3, 0))
    return manifest, texts, f"machine_{m + 1}.csv" if fault == "non-finite" else None


@settings(deadline=None, max_examples=60)
@given(case=malformed_bundles(), method=st.sampled_from(METHODS))
def test_malformed_bundle_files_exit_2(case, method):
    # Bad input is a data error, exit 2: never a success (0), and never a
    # traceback or a warning escaping (1).
    manifest, texts, named = case
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "bundle.json").write_text(json.dumps(manifest))
        for m, text in enumerate(texts):
            (root / f"machine_{m + 1}.csv").write_text(text)
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(["combine", "--method", method, "--bundle", str(root / "bundle.json"),
                         "--out", str(root / "out.csv")])
    assert code == 2, stderr.getvalue()
    assert stderr.getvalue().startswith("error: ")
    if named:
        assert named in stderr.getvalue(), stderr.getvalue()
