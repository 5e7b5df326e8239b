"""Combine subposterior MCMC samples from sharded data sets.

When a data set is too large to analyze whole, it can be split across M
machines, each of which samples the posterior of its own shard (with the
prior tempered to a 1/M share).  This package merges those per-machine
draws back into samples approximating the full-data posterior, offers a
relative L2 distance for scoring the result against a full-data chain,
and ships a simulation harness plus a batch CLI so the whole pipeline
runs self-contained.
"""

__version__ = "0.1.0"

from .core import (
    CombinedSamples,
    SubposteriorBundle,
    shuffle_within_machines,
)
from .combiners import (
    DpeConfig,
    consensus_covariance,
    consensus_independent,
    machine_moments,
    sample_average,
    semiparametric_dpe,
)
from .density import (
    density_pair,
    kde_1d,
    relative_l2_distance,
    silverman_bandwidth,
)
from .harness import (
    MhConfig,
    adaptive_random_walk,
    gaussian_product_oracle,
    partition_rows,
    run_chains,
    simulate_gamma_data,
    simulate_logistic_data,
)
from .errors import (
    ChainCombineError,
    DegenerateChain,
    DimensionMismatch,
    FileMissing,
    InvalidGrid,
    NonConvergenceWarning,
    NonFiniteValue,
    NonPositiveBandwidth,
    NonPositiveData,
    NumericalError,
    ParseError,
    SingularCovariance,
    TooManyShards,
    ValidationError,
)

__all__ = [
    "__version__",
    "SubposteriorBundle",
    "CombinedSamples",
    "shuffle_within_machines",
    "DpeConfig",
    "machine_moments",
    "sample_average",
    "consensus_independent",
    "consensus_covariance",
    "semiparametric_dpe",
    "silverman_bandwidth",
    "kde_1d",
    "density_pair",
    "relative_l2_distance",
    "MhConfig",
    "simulate_logistic_data",
    "simulate_gamma_data",
    "partition_rows",
    "run_chains",
    "gaussian_product_oracle",
    "adaptive_random_walk",
    "ChainCombineError",
    "ValidationError",
    "NumericalError",
    "DimensionMismatch",
    "NonFiniteValue",
    "DegenerateChain",
    "NonPositiveBandwidth",
    "NonPositiveData",
    "TooManyShards",
    "FileMissing",
    "InvalidGrid",
    "ParseError",
    "SingularCovariance",
    "NonConvergenceWarning",
]
