"""Datasets: synthetic toy data and ANN benchmark stand-ins/loaders."""

from .synthetic import (
    LabeledDataset,
    make_blobs,
    make_circles,
    make_classification,
    make_gaussian_mixture,
    make_moons,
)
from .ground_truth import compute_ground_truth
from .io import (
    read_fvecs,
    read_ivecs,
    write_fvecs,
    write_ivecs,
)
from .ann import (
    AnnDataset,
    available_datasets,
    from_fvecs,
    glove_like,
    load_dataset,
    mnist_like,
    sift_like,
)

__all__ = [
    "LabeledDataset",
    "make_blobs",
    "make_circles",
    "make_classification",
    "make_gaussian_mixture",
    "make_moons",
    "compute_ground_truth",
    "read_fvecs",
    "read_ivecs",
    "write_fvecs",
    "write_ivecs",
    "AnnDataset",
    "available_datasets",
    "from_fvecs",
    "glove_like",
    "load_dataset",
    "mnist_like",
    "sift_like",
]
