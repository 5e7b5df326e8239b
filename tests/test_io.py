"""Bundle manifests and matrix files."""

import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chaincombine import (
    DimensionMismatch,
    FileMissing,
    NonFiniteValue,
    ParseError,
    SubposteriorBundle,
)
from chaincombine import io as chaincombine_io
from chaincombine.io import (
    FLOAT_FORMAT,
    read_bundle,
    read_matrix,
    read_samples,
    write_bundle,
    write_matrix,
)


@pytest.fixture
def bundle():
    rng = np.random.default_rng(0)
    # Awkward magnitudes on purpose: round-tripping must be exact.
    values = rng.standard_normal((3, 100, 2)) * np.array([1e-7, 1.0, 1e9])[:, None, None]
    return SubposteriorBundle(values)


class TestMatrixFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-8, 8, size=(50, 3))
        path = tmp_path / "m.csv"
        write_matrix(path, matrix)
        np.testing.assert_array_equal(read_matrix(path), matrix)

    def test_single_column_keeps_two_dims(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(path, np.arange(5.0)[:, None])
        assert read_matrix(path).shape == (5, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileMissing):
            read_matrix(tmp_path / "nope.csv")
        with pytest.raises(FileMissing):
            read_matrix(tmp_path)  # a directory is no matrix file

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        # float() reads "1_0" as 10; loadtxt, which reads the file, does not.
        for text, where in (("1.0,2.0\n3.0,oops\n", r"line 2, column 2"),
                            ("1_0,2\n3,4\n", r"line 1, column 1: not a number")):
            path.write_text(text)
            with pytest.raises(ParseError, match=where):
                read_matrix(path)

    def test_ragged_rows_report_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        # loadtxt skips an empty line but reads a blank one as one field.
        for text, where in (("1.0,2.0\n3.0\n", r"line 2"),
                            ("1,2\n \n3,4\n", r"line 2 has 1 fields, expected 2")):
            path.write_text(text)
            with pytest.raises(ParseError, match=where):
                read_matrix(path)

    def test_non_finite_reports_first_row_and_column(self, tmp_path):
        # The nan at row 3, column 2 comes before the inf at row 5, column 1.
        path = tmp_path / "nan.csv"
        path.write_text("1,2\n3,4\n5,nan\n7,8\ninf,10\n")
        with pytest.raises(NonFiniteValue,
                           match=r"nan\.csv: non-finite value at row 3, column 2$"):
            read_matrix(path)


edge_values = st.sampled_from(
    [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e308, -1.7976931348623157e308]
)


@settings(deadline=None, max_examples=80)
@given(
    matrix=arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 5)),
        elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True), edge_values),
    ),
    block_rows=st.integers(1, 5),
)
def test_write_matrix_bytes_equal_savetxt(matrix, block_rows):
    # Small blocks put block boundaries inside the matrix.
    expected = io.BytesIO()
    np.savetxt(expected, matrix, fmt=FLOAT_FORMAT, delimiter=",")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.csv"
        with mock.patch.object(chaincombine_io, "WRITE_BLOCK_ROWS", block_rows):
            write_matrix(path, matrix)
        assert path.read_bytes() == expected.getvalue()


class TestBundleFiles:
    def test_round_trip_identity(self, tmp_path, bundle):
        manifest_path = tmp_path / "bundle.json"
        write_bundle(bundle, manifest_path, seed=42)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["machine_files"] == ["machine_1.csv", "machine_2.csv"]
        loaded = read_bundle(manifest_path)
        np.testing.assert_array_equal(loaded.values, bundle.values)

    def test_manifest_contents(self, tmp_path, bundle):
        manifest_path = tmp_path / "bundle.json"
        write_bundle(bundle, manifest_path, seed=7)
        raw = json.loads(manifest_path.read_text())
        assert raw["d"] == 3 and raw["T"] == 100 and raw["M"] == 2
        assert raw["seed"] == 7
        assert raw["created_by"].startswith("chaincombine ")

    def test_shape_mapping(self, tmp_path):
        rng = np.random.default_rng(2)
        bundle = SubposteriorBundle(rng.standard_normal((3, 100, 2)))
        manifest_path = tmp_path / "bundle.json"
        write_bundle(bundle, manifest_path)
        loaded = read_bundle(manifest_path)
        assert (loaded.d, loaded.T, loaded.M) == (3, 100, 2)

    def test_short_machine_file_names_culprit(self, tmp_path, bundle):
        manifest_path = tmp_path / "bundle.json"
        write_bundle(bundle, manifest_path)
        target = tmp_path / "machine_2.csv"
        lines = target.read_text().splitlines()
        target.write_text("\n".join(lines[:-1]) + "\n")  # drop one row
        with pytest.raises(DimensionMismatch, match="machine_2.csv"):
            read_bundle(manifest_path)

    def test_missing_machine_file(self, tmp_path, bundle):
        manifest_path = tmp_path / "bundle.json"
        write_bundle(bundle, manifest_path)
        (tmp_path / "machine_1.csv").unlink()
        with pytest.raises(FileMissing):
            read_bundle(manifest_path)
        (tmp_path / "machine_1.csv").mkdir()
        with pytest.raises(FileMissing, match="machine_1.csv"):
            read_bundle(manifest_path)

    def test_manifest_machine_count_checked(self, tmp_path, bundle):
        manifest_path = tmp_path / "bundle.json"
        write_bundle(bundle, manifest_path)
        raw = json.loads(manifest_path.read_text())
        raw["machine_files"].append("machine_3.csv")
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(DimensionMismatch):
            read_bundle(manifest_path)

    def test_invalid_json(self, tmp_path):
        manifest_path = tmp_path / "bundle.json"
        manifest_path.write_text("{not json")
        with pytest.raises(ParseError):
            read_bundle(manifest_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileMissing):
            read_bundle(tmp_path / "bundle.json")
        with pytest.raises(FileMissing):
            read_bundle(tmp_path)

    @pytest.mark.parametrize("names", [[1, 2], [{"x": 1}, {"x": 2}], "ab"], ids=repr)
    def test_machine_files_must_be_names(self, tmp_path, bundle, names):
        # "ab" is no list: read as one, it would name the files a and b.
        manifest_path = tmp_path / "bundle.json"
        write_bundle(bundle, manifest_path)
        raw = json.loads(manifest_path.read_text())
        raw["machine_files"] = names
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match="machine_files"):
            read_bundle(manifest_path)

    @pytest.mark.parametrize("key, value", [("d", 1.9), ("d", True), ("T", "4"), ("M", 2.5)],
                             ids=["d=1.9", "d=true", 'T="4"', "M=2.5"])
    def test_dimensions_must_be_integers(self, tmp_path, key, value):
        # Each value truncates to the written size, so int() would load it.
        manifest_path = tmp_path / "bundle.json"
        write_bundle(SubposteriorBundle(np.arange(8.0).reshape(1, 4, 2)), manifest_path)
        raw = json.loads(manifest_path.read_text())
        raw[key] = value
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match=re.escape(f"{key}={value!r}")):
            read_bundle(manifest_path)

    def test_samples_round_trip(self, tmp_path, bundle):
        from chaincombine import sample_average
        from chaincombine.io import write_samples

        combined = sample_average(bundle)
        path = tmp_path / "combined.csv"
        write_samples(path, combined)
        np.testing.assert_array_equal(read_samples(path), combined.values)
