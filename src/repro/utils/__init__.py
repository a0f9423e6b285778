"""Shared utilities: exceptions, RNG handling, distance kernels, timing."""

from .exceptions import (
    ConfigurationError,
    DatasetError,
    NotFittedError,
    ReproError,
    SerializationError,
    ValidationError,
)
from .rng import SeedLike, resolve_rng, spawn_rngs
from .distances import (
    cosine_distance,
    euclidean,
    get_metric,
    pairwise_topk,
    squared_euclidean,
)
from .timing import Stopwatch
from .validation import (
    as_float_matrix,
    as_query_matrix,
    check_labels,
    check_positive_int,
)

__all__ = [
    "ConfigurationError",
    "DatasetError",
    "NotFittedError",
    "ReproError",
    "SerializationError",
    "ValidationError",
    "SeedLike",
    "resolve_rng",
    "spawn_rngs",
    "cosine_distance",
    "euclidean",
    "get_metric",
    "pairwise_topk",
    "squared_euclidean",
    "Stopwatch",
    "as_float_matrix",
    "as_query_matrix",
    "check_labels",
    "check_positive_int",
]
