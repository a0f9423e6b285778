"""Balanced k-NN graph partitioning (the Neural LSH preprocessing stage).

Neural LSH (Dong et al., ICLR 2020) partitions the dataset's k-NN graph
with a balanced combinatorial partitioner (KaHIP) and uses the resulting
part labels as supervision for a classifier.  KaHIP is not available here,
so this module implements a self-contained balanced partitioner with the
same contract:

1. **Balanced region growing**: parts grow breadth-first from random
   seed vertices, each capped at its share of the vertices.
2. **Local refinement** (Kernighan–Lin flavoured): several passes move
   single vertices to the part that reduces the edge cut the most, subject
   to a hard balance constraint.

The output is a labelling of the vertices into ``n_parts`` parts of nearly
equal size that keeps most k-NN edges inside a part — exactly the property
Neural LSH's supervision needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..utils.exceptions import ValidationError
from ..utils.rng import SeedLike, resolve_rng
from ..utils.validation import check_positive_int


@dataclass
class GraphPartitionResult:
    """Partition labels plus quality statistics."""

    labels: np.ndarray
    n_parts: int
    edge_cut: int
    imbalance: float


def _build_adjacency(
    n_vertices: int, edges: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Convert an edge list to CSR-style (indptr, neighbors) arrays.

    Edges are treated as undirected: both directions are inserted.
    """
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValidationError("edges must be an (n_edges, 2) array")
    sources = np.concatenate([edges[:, 0], edges[:, 1]])
    targets = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(sources, kind="stable")
    sources = sources[order]
    targets = targets[order]
    indptr = np.searchsorted(sources, np.arange(n_vertices + 1))
    return indptr, targets


def partition_knn_graph(
    knn_indices: np.ndarray,
    n_parts: int,
    *,
    imbalance: float = 0.05,
    refinement_passes: int = 10,
    seed: SeedLike = None,
) -> GraphPartitionResult:
    """Partition the k-NN graph given by ``knn_indices`` into balanced parts.

    Parameters
    ----------
    knn_indices:
        ``(n, k')`` neighbour indices (the k'-NN matrix).
    n_parts:
        Number of parts (bins).
    imbalance:
        Allowed relative overload of a part: each part may hold at most
        ``(1 + imbalance) * n / n_parts`` vertices.
    refinement_passes:
        Number of local-move refinement sweeps.
    seed:
        Random seed controlling the region seeds and the refinement order.
    """
    knn_indices = np.asarray(knn_indices, dtype=np.int64)
    if knn_indices.ndim != 2:
        raise ValidationError("knn_indices must be a 2-D array")
    n_vertices = knn_indices.shape[0]
    n_parts = check_positive_int(n_parts, "n_parts")
    if n_parts > n_vertices:
        raise ValidationError("n_parts cannot exceed the number of vertices")
    rng = resolve_rng(seed)

    sources = np.repeat(np.arange(n_vertices, dtype=np.int64), knn_indices.shape[1])
    edges = np.column_stack([sources, knn_indices.reshape(-1)])
    indptr, neighbors = _build_adjacency(n_vertices, edges)

    capacity = int(np.ceil((1.0 + imbalance) * n_vertices / n_parts))
    labels = _region_growing_assignment(indptr, neighbors, n_parts, capacity, rng)
    for _ in range(max(0, int(refinement_passes))):
        moved = _refinement_pass(indptr, neighbors, labels, n_parts, capacity, rng)
        if moved == 0:
            break

    cut = _edge_cut(indptr, neighbors, labels)
    sizes = np.bincount(labels, minlength=n_parts)
    achieved_imbalance = float(sizes.max() * n_parts / n_vertices - 1.0)
    return GraphPartitionResult(
        labels=labels, n_parts=n_parts, edge_cut=cut, imbalance=achieved_imbalance
    )


def _region_growing_assignment(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    n_parts: int,
    capacity: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Balanced multi-source BFS region growing.

    Each part grows outwards from a random seed vertex, one frontier vertex
    per round in round-robin order, so parts stay connected (low cut) and
    equally sized (capacity-bounded).  Vertices unreachable from any seed
    are swept up at the end by the least-loaded part.
    """
    n_vertices = indptr.shape[0] - 1
    labels = np.full(n_vertices, -1, dtype=np.int64)
    sizes = np.zeros(n_parts, dtype=np.int64)
    seeds = rng.choice(n_vertices, size=n_parts, replace=False)
    frontiers: List[List[int]] = [[] for _ in range(n_parts)]
    for part, seed_vertex in enumerate(seeds):
        if labels[seed_vertex] == -1:
            labels[seed_vertex] = part
            sizes[part] += 1
            frontiers[part] = [int(seed_vertex)]
    active = True
    cursor = np.zeros(n_parts, dtype=np.int64)  # read position per frontier
    while active:
        active = False
        for part in range(n_parts):
            if sizes[part] >= capacity:
                continue
            grabbed = False
            while cursor[part] < len(frontiers[part]) and not grabbed:
                vertex = frontiers[part][cursor[part]]
                neigh = neighbors[indptr[vertex] : indptr[vertex + 1]]
                for candidate in neigh:
                    if labels[candidate] == -1:
                        labels[candidate] = part
                        sizes[part] += 1
                        frontiers[part].append(int(candidate))
                        grabbed = True
                        active = True
                        if sizes[part] >= capacity:
                            break
                if not grabbed:
                    cursor[part] += 1
            if grabbed:
                continue
    # Assign any remaining (unreached) vertices to the least-loaded parts.
    remaining = np.where(labels == -1)[0]
    for vertex in remaining:
        part = int(sizes.argmin())
        labels[vertex] = part
        sizes[part] += 1
    return labels


def _refinement_pass(
    indptr: np.ndarray,
    neighbors: np.ndarray,
    labels: np.ndarray,
    n_parts: int,
    capacity: int,
    rng: np.random.Generator,
) -> int:
    """One sweep of single-vertex moves that reduce the edge cut."""
    n_vertices = indptr.shape[0] - 1
    sizes = np.bincount(labels, minlength=n_parts)
    moved = 0
    order = rng.permutation(n_vertices)
    for vertex in order:
        current = labels[vertex]
        neigh = neighbors[indptr[vertex] : indptr[vertex + 1]]
        if neigh.size == 0:
            continue
        counts = np.bincount(labels[neigh], minlength=n_parts)
        internal = counts[current]
        candidates = np.where((counts > internal) & (sizes < capacity))[0]
        if candidates.size == 0:
            continue
        target = int(candidates[counts[candidates].argmax()])
        if target == current:
            continue
        labels[vertex] = target
        sizes[current] -= 1
        sizes[target] += 1
        moved += 1
    return moved


def _edge_cut(indptr: np.ndarray, neighbors: np.ndarray, labels: np.ndarray) -> int:
    """Number of (undirected) edges crossing parts."""
    n_vertices = indptr.shape[0] - 1
    sources = np.repeat(np.arange(n_vertices), np.diff(indptr))
    crossing = labels[sources] != labels[neighbors]
    # Every undirected edge appears twice in the adjacency structure.
    return int(crossing.sum() // 2)
