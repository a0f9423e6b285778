"""Boosted ensemble of USP partitions (Section 4.4.1, Algorithms 3 and 4).

The ensemble trains ``e`` partition models sequentially.  Every point
starts with weight 1; after each model is trained, a point's weight is
multiplied by the number of its ``k'`` nearest neighbours that the model
separated from it, so later models focus on the points earlier models
placed badly.  At query time each model reports a confidence (its highest
bin score); the bins of the most confident model are searched
(Algorithm 4).  :class:`BestMemberIndex` is that query rule over any
partition members; the boosted search forest shares it.
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
from .base import PartitionIndexBase, Route, scan_routes
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


class BestMemberIndex(RegisteredIndex):
    """Algorithm 4: each query is answered by its most confident member alone.

    ``members`` are partition indexes over one base (``_base``).  A
    member's confidence in a query is its highest bin score.  One
    :meth:`~repro.core.base.PartitionIndexBase.bin_scores` pass per member
    over the whole batch gives both the confidences and the chosen
    member's bin ranking, so a query's answer is, bit for bit, the row the
    chosen member's own ``batch_query`` gives it.  Subclasses train the
    members.
    """

    metric: str = "euclidean"
    members: List[PartitionIndexBase]
    _base: Optional[np.ndarray]

    def _require_built(self) -> None:
        if not self.members or self._base is None:
            raise NotFittedError(f"{type(self).__name__} has not been built yet")

    @property
    def is_built(self) -> bool:
        return bool(self.members) and self._base is not None

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

    def num_parameters(self) -> int:
        """Total stored parameters across all members."""
        self._require_built()
        return int(sum(member.num_parameters() for member in self.members))

    def route(self, queries: np.ndarray, n_probes: int) -> List[Route]:
        """One route per chosen member: its queries and their top ``n_probes`` bins."""
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        n_probes = check_positive_int(n_probes, "n_probes")
        scores = [member.bin_scores(queries) for member in self.members]
        best = np.column_stack([s.max(axis=1) for s in scores]).argmax(axis=1)
        routes: List[Route] = []
        for m, member in enumerate(self.members):
            rows = np.flatnonzero(best == m)
            if rows.size:
                ranked = select(-scores[m][rows], min(n_probes, member.n_bins))
                routes.append((member, rows, ranked))
        return routes

    def batch_query(
        self, queries: np.ndarray, k: int = 10, *, n_probes: int = 1, filter=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate ``k``-NN of each query within its most confident member's bins."""
        self._require_built()
        queries = as_query_matrix(queries, self.dim)
        check_positive_int(k, "k")
        if filter is not None:
            return self._filtered_batch_query(queries, k, filter, n_probes=int(n_probes))
        return scan_routes(self.route(queries, n_probes), queries, int(k))


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
        routed=True,
        trainable=True,
        reports_parameter_count=True,
        filterable=True,
    ),
    description="Boosted ensemble of USP partitions (Algorithms 3 and 4)",
)
class UspEnsembleIndex(BestMemberIndex):
    """Boosted :class:`UspIndex` members (Algorithm 3), queried by Algorithm 4.

    It routes like a single partition index, so the evaluation harness
    reads |C| and the candidate ceiling from the chosen member's bins.
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
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_models(self) -> int:
        return len(self.members)

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
