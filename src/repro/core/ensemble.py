"""Boosted ensemble of USP partitions (Section 4.4.1, Algorithms 3 and 4).

The ensemble trains ``e`` partition models sequentially.  Every point
starts with weight 1; after each model is trained, a point's weight is
multiplied by the number of its ``k'`` nearest neighbours that the model
separated from it, so later models focus on the points earlier models
placed badly.  At query time each model reports a confidence (its highest
bin probability); the candidate set of the most confident model is searched
(Algorithm 4).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional, Tuple

import numpy as np

from ..api.protocol import IndexCapabilities, RegisteredIndex
from ..api.registry import register_index
from ..utils.exceptions import NotFittedError, SerializationError
from ..utils.rng import spawn_rngs
from ..utils.timing import Stopwatch
from ..utils.topk import select
from ..utils.validation import as_float_matrix, as_query_matrix, check_positive_int
from .base import rerank_candidates
from .config import EnsembleConfig, UspConfig
from .index import UspIndex
from .knn_matrix import KnnMatrix, build_knn_matrix


def boosting_weights(
    assignments: np.ndarray,
    knn: KnnMatrix,
    previous_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Update per-point weights from a trained partition (Algorithm 3, step b).

    For point ``i`` the new raw weight is the number of its ``k'`` nearest
    neighbours assigned to a *different* bin; it is multiplied by the
    previous weight so only points that every earlier model handled badly
    keep large weights.
    """
    assignments = np.asarray(assignments, dtype=np.int64)
    neighbor_bins = assignments[knn.indices]  # (n, k')
    mismatches = (neighbor_bins != assignments[:, None]).sum(axis=1).astype(np.float64)
    if previous_weights is None:
        return mismatches
    previous_weights = np.asarray(previous_weights, dtype=np.float64)
    return mismatches * previous_weights


def _make_usp_ensemble(
    config: Optional[EnsembleConfig] = None,
    *,
    n_models: int = 3,
    **params,
) -> "UspEnsembleIndex":
    """Registry factory: flat USP params plus ``n_models``."""
    if config is None:
        config = EnsembleConfig(n_models=n_models, base=UspConfig(**params))
    return UspEnsembleIndex(config)


@register_index(
    "usp-ensemble",
    factory=_make_usp_ensemble,
    capabilities=IndexCapabilities(
        metrics=("euclidean", "sqeuclidean", "cosine"),
        probe_parameter="n_probes",
        supports_candidate_sets=True,
        trainable=True,
        reports_parameter_count=True,
        filterable=True,
    ),
    description="Boosted ensemble of USP partitions (Algorithms 3 and 4)",
)
class UspEnsembleIndex(RegisteredIndex):
    """Ensemble of :class:`UspIndex` members with boosting weights.

    The public API mirrors :class:`~repro.core.base.PartitionIndexBase`
    (``build`` / ``query`` / ``batch_query`` / ``candidate_sets``) so the
    evaluation harness can treat single models and ensembles uniformly.
    """

    def __init__(
        self,
        config: Optional[EnsembleConfig] = None,
        *,
        n_models: Optional[int] = None,
        base_config: Optional[UspConfig] = None,
    ) -> None:
        if config is None:
            config = EnsembleConfig(
                n_models=3 if n_models is None else n_models,
                base=base_config or UspConfig(),
            )
        elif n_models is not None or base_config is not None:
            config = EnsembleConfig(
                n_models=config.n_models if n_models is None else n_models,
                base=base_config or config.base,
            )
        self.config = config
        self.metric = config.base.metric
        self.members: List[UspIndex] = []
        self.weight_history: List[np.ndarray] = []
        self.knn: Optional[KnnMatrix] = None
        self.build_seconds: float = 0.0
        self._base: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # offline phase (Algorithm 3)
    # ------------------------------------------------------------------ #
    def build(self, base: np.ndarray, *, knn: Optional[KnnMatrix] = None) -> "UspEnsembleIndex":
        """Train all ensemble members sequentially with boosting weights."""
        base = as_float_matrix(base, name="base")
        config = self.config
        stopwatch = Stopwatch()
        with stopwatch.section("build"):
            if knn is None:
                knn = build_knn_matrix(base, config.base.k_prime, metric=config.base.metric)
            self.knn = knn
            rngs = spawn_rngs(config.base.seed, config.n_models)
            weights = np.ones(base.shape[0], dtype=np.float64)
            self.members = []
            self.weight_history = []
            for j in range(config.n_models):
                member_seed = int(rngs[j].integers(0, 2**31 - 1))
                member_config = config.base.with_updates(seed=member_seed)
                member = UspIndex(member_config)
                # All points zero-weighted (perfect previous partition) would
                # make the quality term vanish; fall back to uniform weights.
                effective = weights if weights.sum() > 0 else None
                member.build(base, knn=knn, point_weights=effective)
                self.members.append(member)
                self.weight_history.append(weights.copy())
                weights = boosting_weights(member.assignments, knn, weights)
        self._base = base
        self.build_seconds = stopwatch.totals()["build"]
        return self

    # ------------------------------------------------------------------ #
    # online phase (Algorithm 4)
    # ------------------------------------------------------------------ #
    def _require_built(self) -> None:
        if not self.members or self._base is None:
            raise NotFittedError("UspEnsembleIndex has not been built yet")

    @property
    def is_built(self) -> bool:
        return bool(self.members) and self._base is not None

    @property
    def n_models(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        self._require_built()
        return int(self._base.shape[1])

    @property
    def n_points(self) -> int:
        self._require_built()
        return int(self._base.shape[0])

    @property
    def n_bins(self) -> int:
        self._require_built()
        return self.members[0].n_bins

    def confidences(self, queries: np.ndarray) -> np.ndarray:
        """Confidence value of every member for every query: ``(n_q, e)``."""
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        return np.column_stack([member.confidence(queries) for member in self.members])

    def best_members(self, queries: np.ndarray) -> np.ndarray:
        """Index of the most confident member per query (Algorithm 4, step 4)."""
        return self.confidences(queries).argmax(axis=1)

    def candidate_sets(self, queries: np.ndarray, n_probes: int = 1) -> List[np.ndarray]:
        """Candidate set per query from its most confident member (Algorithm 4)."""
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        check_positive_int(n_probes, "n_probes")
        # One model pass per member gives both its confidence and its bin
        # ranking; buckets are gathered from the chosen member only.
        scores = [member.bin_scores(queries) for member in self.members]
        best = np.column_stack([s.max(axis=1) for s in scores]).argmax(axis=1)
        candidates: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * queries.shape[0]
        for m, member in enumerate(self.members):
            chosen = np.flatnonzero(best == m)
            ranked = select(-scores[m][chosen], n_probes)
            for i, bins in zip(chosen, ranked):
                candidates[i] = np.concatenate([member.points_in_bin(b) for b in bins])
        return candidates

    def batch_query(
        self, queries: np.ndarray, k: int = 10, *, n_probes: int = 1, filter=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate ``k``-NN for each query via the ensemble candidate sets."""
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        check_positive_int(k, "k")
        if filter is not None:
            return self._filtered_batch_query(queries, k, filter, n_probes=int(n_probes))
        candidates = self.candidate_sets(queries, n_probes)
        return rerank_candidates(self._base, queries, candidates, k, metric=self.metric)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def num_parameters(self) -> int:
        """Total learnable parameters across all members."""
        self._require_built()
        return int(sum(member.num_parameters() for member in self.members))

    def training_seconds(self) -> float:
        """Total wall-clock training time across members (Table 3)."""
        self._require_built()
        return float(sum(member.training_seconds() for member in self.members))

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _state(self):
        config = {
            "n_models": int(len(self.members)),
            "base": asdict(self.config.base),
            "build_seconds": self.build_seconds,
        }
        arrays = {"__base__": self._base}
        for j, weights in enumerate(self.weight_history):
            arrays[f"weights.{j}"] = weights
        children = {f"member-{j}": member for j, member in enumerate(self.members)}
        return config, arrays, children

    @classmethod
    def _from_state(cls, config, arrays, load_child):
        # Older saves record the query mode; only Algorithm 4's "best" remains.
        mode = config.get("combination", "best")
        if mode != "best":
            raise SerializationError(
                f"saved ensemble uses the removed {mode!r} combination mode; "
                "only the most-confident-member query ('best') is supported"
            )
        ensemble_config = EnsembleConfig(
            n_models=int(config["n_models"]),
            base=UspConfig(**config["base"]),
        )
        index = cls(ensemble_config)
        index.members = [
            load_child(f"member-{j}") for j in range(ensemble_config.n_models)
        ]
        index.weight_history = [
            arrays[key] for key in sorted(
                (k for k in arrays if k.startswith("weights.")),
                key=lambda k: int(k.split(".", 1)[1]),
            )
        ]
        index._base = arrays["__base__"]
        index.build_seconds = float(config.get("build_seconds", 0.0))
        return index
