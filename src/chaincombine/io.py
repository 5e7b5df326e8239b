"""Bundle manifests and matrix files.

A bundle on disk is one headerless comma-separated matrix file per
machine (T rows by d columns, row t = draw t) plus a small JSON manifest
naming the dimensions and the machine files.  Machine files are
referenced relative to the manifest so shard outputs produced on
separate machines can be collected into one directory later.

Values are serialized with 17 significant digits, which round-trips
float64 exactly.  :func:`write_matrix` writes the same bytes as
``np.savetxt(fmt=FLOAT_FORMAT, delimiter=",")``, but formats each block
of rows with one ``%`` operation on a format string repeated per column
and row, in place of savetxt's Python loop over rows; every CSV the
package writes goes through it.
"""

import json
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .core import SubposteriorBundle
from .errors import DimensionMismatch, FileMissing, NonFiniteValue, ParseError

FLOAT_FORMAT = "%.17g"

# Rows formatted per ``%`` operation; bounds the string held in memory.
WRITE_BLOCK_ROWS = 4096


def write_matrix(path, matrix):
    """Write a (T, d) matrix as headerless CSV with full float precision;
    an ``OSError`` names ``path``, also from a write or the close."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    row_format = ",".join([FLOAT_FORMAT] * matrix.shape[1]) + "\n"
    try:
        with open(path, "w", encoding="latin1", newline="") as handle:
            for start in range(0, matrix.shape[0], WRITE_BLOCK_ROWS):
                block = matrix[start:start + WRITE_BLOCK_ROWS]
                handle.write(row_format * block.shape[0] % tuple(block.ravel().tolist()))
    except OSError as exc:
        exc.filename = exc.filename or str(path)  # a failed write has none
        raise


def read_matrix(path):
    """Read a headerless comma-separated matrix as a (T, d) float array.

    Raises :class:`FileMissing` if no regular file is there, :class:`ParseError`
    (naming file, line and column) on a field that is not a number, a ragged
    row or no data, and :class:`NonFiniteValue` (naming the file and the 1-based
    data row and column) on the first NaN or inf in file order.
    """
    path = Path(path)
    if not path.is_file():
        raise FileMissing(f"matrix file not found: {path}")
    try:
        with warnings.catch_warnings():
            # numpy warns, and returns a 0 x 1 array, on a file without data.
            warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
            matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, UserWarning):
        _diagnose_matrix(path)
        raise  # unreachable unless the file changed under us
    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0] + 1
        raise NonFiniteValue(f"{path}: non-finite value at row {row}, column {col}")
    return matrix


def _diagnose_matrix(path):
    """Re-read a bad matrix file by loadtxt's rules to pin down the
    offending field: a ``#`` starts a comment, a line left empty is
    skipped, a line of white space is one field, and each field is
    converted by loadtxt itself."""
    width = None
    with open(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].rstrip("\n")
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(
                    f"{path}: line {line_no} has {len(fields)} fields, "
                    f"expected {width}"
                )
            for col_no, token in enumerate(fields, start=1):
                try:
                    np.loadtxt([line], delimiter=",", usecols=[col_no - 1])
                except ValueError:
                    raise ParseError(
                        f"{path}: line {line_no}, column {col_no}: "
                        f"not a number: {token!r}"
                    ) from None
    if width is None:
        raise ParseError(f"{path}: file holds no data")
    raise ParseError(f"{path}: file could not be parsed as a numeric matrix")


def machine_file_names(M):
    """The machine file names of an M-machine bundle, by machine:
    ``machine_<m>.csv`` for m from 1, zero-padded to the width of M."""
    pad = len(str(M))
    return [f"machine_{m + 1:0{pad}d}.csv" for m in range(M)]


def write_manifest(manifest_path, d, T, M, seed=None):
    """Write the manifest of a (d, T, M) bundle whose machine files, named
    by :func:`machine_file_names`, lie next to it.  It holds d, T, M,
    ``machine_files`` and ``created_by``, then ``seed`` when one is given."""
    manifest = {"d": d, "T": T, "M": M, "machine_files": machine_file_names(M),
                "created_by": f"chaincombine {__version__}"}
    if seed is not None:
        manifest["seed"] = seed
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def write_bundle(bundle, manifest_path, seed=None):
    """Write a bundle as one matrix file per machine plus a manifest
    (:func:`write_manifest`), the machine files next to it."""
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    for m, name in enumerate(machine_file_names(bundle.M)):
        write_matrix(manifest_path.parent / name, bundle.values[:, :, m].T)
    write_manifest(manifest_path, bundle.d, bundle.T, bundle.M, seed)


def read_bundle(manifest_path):
    """Load a bundle from its manifest.

    The dimensions must be positive JSON integers, and every machine
    file must parse to a (T, d) matrix matching them; mismatches name
    the offending file.  The files are read before any array of the
    manifest's size is made.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise FileMissing(f"manifest not found: {manifest_path}")
    try:
        with open(manifest_path, "r") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{manifest_path}: invalid JSON: {exc}") from exc
    try:
        d, T, M, names = (raw[key] for key in ("d", "T", "M", "machine_files"))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed manifest: {exc}") from exc
    if any(type(n) is not int for n in (d, T, M)):  # JSON integers; bool is an int
        raise ParseError(f"malformed manifest: d, T and M must be integers, "
                         f"got (d={d!r}, T={T!r}, M={M!r})")
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise ParseError("malformed manifest: machine_files must be a list of file names")
    if len(names) != M:
        raise DimensionMismatch(f"manifest lists {len(names)} machine files but M={M}")
    if min(d, T, M) < 1:
        raise DimensionMismatch(f"manifest dimensions must all be >= 1, "
                                f"got (d={d}, T={T}, M={M})")
    matrices = []
    for name in names:
        matrix = read_matrix(manifest_path.parent / name)
        if matrix.shape != (T, d):
            raise DimensionMismatch(
                f"{name}: expected {T} rows x {d} columns, "
                f"got {matrix.shape[0]} x {matrix.shape[1]}"
            )
        matrices.append(matrix.T)
    return SubposteriorBundle(np.stack(matrices, axis=2))


def write_samples(path, combined):
    """Write combined samples as a (T, d) matrix file."""
    write_matrix(path, combined.values.T)


def read_samples(path):
    """Read a combined-samples file back as a finite (d, T) array."""
    return read_matrix(path).T
