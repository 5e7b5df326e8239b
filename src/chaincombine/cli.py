"""Batch command-line front end.

Three subcommands cover the pipeline:

* ``harness``  - simulate data, shard it, run one chain per shard plus a
  full-data chain (in parallel worker processes, each writing its own
  chain file), and write the manifests.
* ``combine``  - read a bundle manifest and write combined samples.
* ``metric``   - score combined samples against a full-data chain with
  per-parameter relative L2 distances.

Exit codes: 0 success, 1 usage error, and otherwise the error's own
``exit_code``: 2 data/validation error or a file that cannot be read or
written, 3 numerical failure.  Errors are printed to stderr with an
``error: <Type>:`` prefix.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .combiners import (
    DpeConfig,
    consensus_covariance,
    consensus_independent,
    sample_average,
    semiparametric_dpe,
)
from .core import CombinedSamples, shuffle_within_machines
from .density import density_pair, relative_l2_distance
from .errors import ChainCombineError, DimensionMismatch
from .harness import MhConfig, run_chains, simulate_gamma_data, simulate_logistic_data
# write_bundle is not called here: perfbench writes its wide-consensus inputs through it.
from .io import (machine_file_names, read_bundle, read_samples, write_bundle, write_manifest,
                 write_matrix, write_samples)

EXIT_OK = 0
EXIT_USAGE = 1

METHODS = ("sample-avg", "consensus-indep", "consensus-cov", "semiparam-dpe")

# Generating coefficients for the logistic test problem.
LOGISTIC_BETA = (0.47, -1.70, 0.54, -0.90, 0.86)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: UsageError: {message}\n")


def _number(kind, low, strict=False):
    """An argparse ``type=``: ``kind(text)``, rejected if it is below
    ``low`` (or equal to it, when ``strict``) or NaN."""

    def parse(text):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text!r}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _reals(text):
    """An argparse ``type=``: comma-separated reals, no field empty."""
    try:
        return [float(field) for field in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated reals, got {text!r}") from None


@functools.cache  # parse_args leaves the parser as it was, so one serves every main()
def build_parser():
    parser = _Parser(
        prog="chaincombine",
        description="Combine subposterior MCMC samples from sharded data sets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    combine = sub.add_parser(
        "combine", help="combine a bundle of subposterior samples"
    )
    combine.add_argument("--method", required=True, choices=METHODS)
    combine.add_argument("--bundle", required=True, help="bundle manifest path")
    combine.add_argument("--out", required=True, help="output matrix file (T x d)")
    combine.add_argument(
        "--shuff",
        action="store_true",
        help="randomly permute draws within each machine before combining",
    )
    combine.add_argument("--seed", type=_number(int, 0), default=0)
    combine.add_argument(
        "--bandw",
        type=_reals,
        default="1",
        help="comma-separated starting bandwidths (semiparam-dpe only; default 1 for all)",
    )
    combine.add_argument(
        "--no-anneal",
        action="store_true",
        help="keep the bandwidth fixed instead of shrinking it per iteration",
    )
    combine.add_argument(
        "--discard",
        type=_number(int, 0),
        default=0,
        help="drop this many leading draws from the semiparam-dpe chain",
    )
    combine.set_defaults(func=run_combine)

    metric = sub.add_parser(
        "metric", help="score combined samples against a full-data chain"
    )
    metric.add_argument("--full", required=True, help="full-data samples (T x d)")
    metric.add_argument("--combined", required=True, help="combined samples (T x d)")
    metric.add_argument(
        "--density-out",
        default=None,
        help="write gridded density pairs per parameter next to this stem",
    )
    metric.set_defaults(func=run_metric)

    harness = sub.add_parser(
        "harness", help="simulate data, shard it and sample every shard"
    )
    harness.add_argument("--model", required=True, choices=("logistic", "gamma"))
    harness.add_argument(
        "--n", type=_number(int, 1), default=20_000, help="observations to simulate"
    )
    harness.add_argument(
        "--shards", type=_number(int, 1), default=5, help="number of data shards M"
    )
    harness.add_argument("--iters", type=_number(int, 2), default=MhConfig.iterations,
                         help="retained draws T")
    harness.add_argument("--burnin", type=_number(int, 0), default=MhConfig.burnin)
    harness.add_argument(
        "--thin", type=_number(int, 1), default=MhConfig.thin,
        help="Metropolis steps advanced per retained draw",
    )
    harness.add_argument("--seed", type=_number(int, 0), default=MhConfig.seed)
    harness.add_argument(
        "--alpha", type=_number(float, 0.0, strict=True), default=4.0,
        help="Gamma shape (gamma model)",
    )
    harness.add_argument(
        "--beta", type=_number(float, 0.0, strict=True), default=2.0,
        help="Gamma rate (gamma model)",
    )
    harness.add_argument("--out-dir", required=True)
    harness.set_defaults(func=run_harness)

    return parser


def run_combine(args):
    """Read a bundle, combine it with the requested method, write T x d output."""
    bundle = read_bundle(args.bundle)
    if args.discard and args.method != "semiparam-dpe":
        raise DimensionMismatch("--discard only applies to semiparam-dpe")
    if args.discard >= bundle.T:
        raise DimensionMismatch(f"--discard must lie in [0, {bundle.T}), got {args.discard}")
    if args.shuff:
        bundle = shuffle_within_machines(bundle, args.seed)
    if args.method == "semiparam-dpe":
        config = DpeConfig(bandw=args.bandw, anneal=not args.no_anneal, seed=args.seed)
        combined = semiparametric_dpe(bundle, config)
        if args.discard:
            combined = CombinedSamples(combined.values[:, args.discard:])
    else:
        combine = {
            "sample-avg": sample_average,
            "consensus-indep": consensus_independent,
            "consensus-cov": consensus_covariance,
        }[args.method]
        combined = combine(bundle)
    write_samples(args.out, combined)
    return EXIT_OK


def run_metric(args):
    """Print per-parameter relative L2 distances between two sample files."""
    full = read_samples(args.full)
    combined = read_samples(args.combined)
    if full.shape[0] != combined.shape[0]:
        raise DimensionMismatch(
            f"parameter count mismatch: full has {full.shape[0]}, "
            f"combined has {combined.shape[0]}"
        )
    # Every distance and density file first, so that a failure leaves stdout empty.
    distances = [relative_l2_distance(full[i], combined[i]) for i in range(full.shape[0])]
    if args.density_out:
        for i in range(full.shape[0]):
            _write_density_pair(args.density_out, i, full[i], combined[i])
    print("parameter,relative_l2")
    for i, distance in enumerate(distances):
        print(f"{i + 1},{distance:.6f}")
    return EXIT_OK


def _write_density_pair(stem, index, full_samples, combined_samples):
    """One CSV of (grid, p_full, p_combined) triples per parameter."""
    stem = Path(stem)
    path = stem.with_name(f"{stem.stem}.p{index + 1}{stem.suffix or '.csv'}")
    write_matrix(path, np.column_stack(density_pair(full_samples, combined_samples)))


def run_harness(args):
    """Simulate, shard, sample shards and the full data, write everything:
    the chain workers write the chain files, and the manifest comes last."""
    # First, so that a directory that cannot be made fails before sampling,
    # and a run that fails part-way leaves no record naming old and new files.
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path, record_path = out_dir / "bundle.json", out_dir / "run.json"
    for path in (manifest_path, record_path):
        path.unlink(missing_ok=True)
    if args.model == "logistic":
        rows = simulate_logistic_data(args.n, LOGISTIC_BETA, seed=args.seed)
        truth = {"beta_true": list(LOGISTIC_BETA)}
    else:
        rows = simulate_gamma_data(args.n, args.alpha, args.beta, seed=args.seed)
        truth = {"alpha_true": args.alpha, "beta_true": args.beta}
    config = MhConfig(iterations=args.iters, burnin=args.burnin, seed=args.seed,
                      thin=args.thin)
    full_path = out_dir / "full_chain.csv"
    paths = [*(out_dir / name for name in machine_file_names(args.shards)), full_path]
    bundle, _, rates = run_chains(args.model, rows, args.shards, config, paths)

    run_record = {
        "created_by": f"chaincombine {__version__}",
        "model": args.model,
        "n": args.n,
        "shards": args.shards,
        "iters": args.iters,
        "burnin": args.burnin,
        "thin": args.thin,
        "seed": args.seed,
        "bundle_manifest": manifest_path.name,
        "full_chain": full_path.name,
        "acceptance_rates": rates,
        **truth,
    }
    with open(record_path, "w") as handle:
        json.dump(run_record, handle, indent=2)
        handle.write("\n")
    write_manifest(manifest_path, bundle.d, bundle.T, bundle.M, seed=args.seed)
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChainCombineError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", ChainCombineError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
