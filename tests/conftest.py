"""Shared fixtures for the test suite.

Datasets are deliberately tiny so the full suite runs in well under a
minute; the benchmark harness under ``benchmarks/`` is where realistic
scales live.
"""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest

from repro.core import KnnMatrix, UspConfig, UspIndex, build_knn_matrix
from repro.datasets import AnnDataset, sift_like


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_dataset() -> AnnDataset:
    """A small clustered ANN dataset (600 base points, 40 queries, 16-d)."""
    return sift_like(n_points=600, n_queries=40, dim=16, n_clusters=6, gt_k=20, seed=3)


@pytest.fixture(scope="session")
def tiny_knn(tiny_dataset: AnnDataset) -> KnnMatrix:
    return build_knn_matrix(tiny_dataset.base, 8)


@pytest.fixture(scope="session")
def fast_usp_config() -> UspConfig:
    """A USP configuration that trains in a second or two on the tiny dataset."""
    return UspConfig(
        n_bins=4,
        k_prime=8,
        eta=10.0,
        hidden_dim=32,
        epochs=6,
        max_batch_size=128,
        min_batch_size=64,
        learning_rate=3e-3,
        seed=0,
    )


@pytest.fixture(scope="session")
def built_usp_index(tiny_dataset: AnnDataset, tiny_knn: KnnMatrix, fast_usp_config: UspConfig) -> UspIndex:
    """A trained USP index shared by the read-only query/introspection tests."""
    return UspIndex(fast_usp_config).build(tiny_dataset.base, knn=tiny_knn)


@pytest.fixture(scope="session")
def blob_points(rng: np.random.Generator) -> np.ndarray:
    """Three well-separated Gaussian blobs in 2-D (for clustering tests)."""
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
    labels = np.repeat(np.arange(3), 60)
    return centers[labels] + rng.normal(scale=0.6, size=(180, 2))


@pytest.fixture(scope="session")
def blob_labels() -> np.ndarray:
    return np.repeat(np.arange(3), 60)


def wait_for_connections(server, count: int) -> None:
    """Wait until a running ``SearchServer`` has exactly ``count`` open connections."""
    stop_at = time.monotonic() + 10.0
    while len(server._connections) != count:
        assert time.monotonic() < stop_at, f"open connections never reached {count}"
        time.sleep(0.005)


@pytest.fixture()
def idle_connections():
    """Open idle sockets to a running ``SearchServer``; closed at teardown.

    ``open(server, n)`` waits for the server's earlier connections to
    close, then returns once it has accepted all ``n``: its open
    connections are then exactly these.
    """
    sockets = []

    def open_(server, n: int) -> None:
        wait_for_connections(server, 0)
        for _ in range(n):
            sockets.append(socket.create_connection((server.host, server.port)))
        wait_for_connections(server, n)

    yield open_
    for sock in sockets:
        sock.close()
