"""Experiment runners: one function per table/figure of the paper.

Every benchmark module under ``benchmarks/`` is a thin wrapper around a
function in this module, so the same experiments can also be run directly
from Python or from the examples.  All experiments run at a reduced,
CPU-friendly scale controlled by :class:`ExperimentScale`, on synthetic
structural stand-ins for SIFT and MNIST (docs/benchmarks.md lists which
runner reproduces which table or figure).

Query execution inside every sweep goes through
:class:`repro.service.SearchService` (see :mod:`repro.eval.sweep`), so the
Figure 7 throughput numbers and the Table 4 operating points are measured
on the same instrumented serving path a deployment would use.  Benchmark
datasets are memoized per ``(name, scale)`` — together with
:meth:`repro.datasets.AnnDataset.ground_truth_for` this means repeated
runners stop regenerating data and recomputing exact k-NN from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.registry import make_index
from ..clustering.dbscan import DBSCAN
from ..clustering.metrics import adjusted_rand_index, normalized_mutual_information
from ..clustering.spectral import SpectralClustering
from ..clustering.usp_clustering import UspClustering
from ..core.config import EnsembleConfig, HierarchicalConfig, UspConfig
from ..core.knn_matrix import build_knn_matrix
from ..core.models import build_mlp_module
from ..datasets.ann import AnnDataset, mnist_like, sift_like
from ..datasets.synthetic import make_circles, make_classification, make_moons
from .sweep import SweepCurve, accuracy_candidate_curve, probe_schedule, throughput_accuracy_curve


# ---------------------------------------------------------------------- #
# Scale control
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentScale:
    """Dataset sizes used by the experiment runners.

    ``small`` keeps the whole suite in the minutes range on one CPU core;
    ``paper`` matches the paper's dataset shapes (1M x 128 SIFT, 60k x 784
    MNIST) and is provided for users with the time/hardware to run it.
    """

    sift_points: int = 4000
    sift_queries: int = 200
    sift_dim: int = 64
    sift_clusters: int = 12
    mnist_points: int = 2500
    mnist_queries: int = 150
    mnist_dim: int = 256
    seed: int = 7


#: memoized benchmark datasets per (canonical name, scale); cached instances
#: also accumulate their own per-(k, metric) ground-truth cache across runs
_DATASET_CACHE: Dict[Tuple[str, ExperimentScale], AnnDataset] = {}


def benchmark_dataset(
    name: str, scale: Optional[ExperimentScale] = None, *, cached: bool = True
) -> AnnDataset:
    """Materialise the SIFT-like or MNIST-like benchmark at the given scale.

    Datasets are memoized per ``(name, scale)`` so the table/figure runners
    (and repeated benchmark invocations in one process) share one instance
    — and with it the dataset's memoized exact ground truth.  Pass
    ``cached=False`` for a fresh, independent copy.
    """
    scale = scale or ExperimentScale()
    if name in ("sift", "sift-like"):
        canonical = "sift-like"
    elif name in ("mnist", "mnist-like"):
        canonical = "mnist-like"
    else:
        raise ValueError(f"unknown benchmark dataset {name!r}")
    key = (canonical, scale)
    if cached and key in _DATASET_CACHE:
        return _DATASET_CACHE[key]
    if canonical == "sift-like":
        dataset = sift_like(
            n_points=scale.sift_points,
            n_queries=scale.sift_queries,
            dim=scale.sift_dim,
            n_clusters=scale.sift_clusters,
            seed=scale.seed,
        )
    else:
        dataset = mnist_like(
            n_points=scale.mnist_points,
            n_queries=scale.mnist_queries,
            dim=scale.mnist_dim,
            seed=scale.seed,
        )
    if cached:
        _DATASET_CACHE[key] = dataset
    return dataset


# ---------------------------------------------------------------------- #
# Default configurations (the reproduction's analogue of the paper's
# Table 3 settings; eta is re-tuned because the balance term here is
# normalised to [-1, 0])
# ---------------------------------------------------------------------- #
def default_usp_config(n_bins: int, *, dataset: str = "sift", seed: int = 0) -> UspConfig:
    """USP hyper-parameters per dataset/bins (the reproduction's Table 3)."""
    eta = 30.0 if n_bins <= 32 else 40.0
    return UspConfig(
        n_bins=n_bins,
        k_prime=10,
        eta=eta,
        model="mlp",
        hidden_dim=128,
        dropout=0.1,
        epochs=25,
        batch_fraction=0.04,
        max_batch_size=512,
        learning_rate=2e-3,
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# Figure 5: USP vs space-partitioning baselines
# ---------------------------------------------------------------------- #
def run_figure5(
    dataset: AnnDataset,
    *,
    n_bins: int = 16,
    ensemble_size: int = 3,
    hierarchical: bool = False,
    hierarchical_levels: Optional[Sequence[int]] = None,
    k: int = 10,
    probes: Optional[Sequence[int]] = None,
    epochs: Optional[int] = None,
    seed: int = 0,
) -> List[SweepCurve]:
    """Accuracy vs candidate-set-size curves for USP and the Figure 5 baselines.

    Returns curves for: USP ensemble (e models), USP single model,
    Neural LSH, K-means, and Cross-polytope LSH, all with the same number of
    bins.  With ``hierarchical=True`` the USP partition is built as a tree
    (the paper's 256-bin configuration = 16 x 16).
    """
    base_config = default_usp_config(n_bins, seed=seed)
    if epochs is not None:
        base_config = base_config.with_updates(epochs=epochs)
    knn = build_knn_matrix(dataset.base, base_config.k_prime)
    curves: List[SweepCurve] = []

    if hierarchical:
        levels = tuple(hierarchical_levels or _square_levels(n_bins))
        hier_config = HierarchicalConfig(levels=levels, base=base_config)
        usp_single: object = make_index("usp-hierarchical", config=hier_config).build(
            dataset.base
        )
    else:
        usp_single = make_index("usp", config=base_config).build(dataset.base, knn=knn)
    curves.append(
        accuracy_candidate_curve(
            usp_single, dataset, k=k, probes=probes, method="USP (1 model)"
        )
    )

    if ensemble_size > 1 and not hierarchical:
        ensemble = make_index(
            "usp-ensemble",
            config=EnsembleConfig(n_models=ensemble_size, base=base_config),
        ).build(dataset.base, knn=knn)
        curves.append(
            accuracy_candidate_curve(
                ensemble,
                dataset,
                k=k,
                probes=probes,
                method=f"USP (ensemble of {ensemble_size})",
            )
        )

    neural_lsh = make_index(
        "neural-lsh",
        n_bins=n_bins,
        k_prime=base_config.k_prime,
        hidden_dim=max(256, base_config.hidden_dim * 2),
        epochs=base_config.epochs,
        seed=seed,
    ).build(dataset.base, knn=knn)
    curves.append(
        accuracy_candidate_curve(
            neural_lsh, dataset, k=k, probes=probes, method="Neural LSH"
        )
    )

    curves.append(
        accuracy_candidate_curve(
            "kmeans",
            dataset,
            k=k,
            probes=probes,
            method="K-means",
            index_params=dict(n_bins=n_bins, seed=seed),
        )
    )

    lsh_bins = n_bins if n_bins % 2 == 0 else n_bins + 1
    lsh_bins = min(lsh_bins, 2 * dataset.dim)
    curves.append(
        accuracy_candidate_curve(
            "cross-polytope-lsh",
            dataset,
            k=k,
            probes=probes,
            method="Cross-polytope LSH",
            index_params=dict(n_bins=lsh_bins, seed=seed),
        )
    )
    return curves


def _square_levels(n_bins: int) -> Sequence[int]:
    """Factor ``n_bins`` into two (near-)square levels, e.g. 256 -> (16, 16)."""
    root = int(round(np.sqrt(n_bins)))
    for candidate in range(root, 1, -1):
        if n_bins % candidate == 0:
            return (candidate, n_bins // candidate)
    return (n_bins,)


# ---------------------------------------------------------------------- #
# Figure 6: tree-based (hyperplane) comparison
# ---------------------------------------------------------------------- #
def run_figure6(
    dataset: AnnDataset,
    *,
    depth: int = 6,
    k: int = 10,
    probes: Optional[Sequence[int]] = None,
    epochs: int = 15,
    seed: int = 0,
) -> List[SweepCurve]:
    """Binary-tree baselines versus the USP logistic-regression tree.

    The paper uses depth 10 (1024 bins) on million-point datasets; at the
    reproduction scale the default depth keeps leaves adequately populated.
    """
    n_leaves = 2**depth
    if probes is None:
        probes = probe_schedule(n_leaves)
    curves: List[SweepCurve] = []

    usp_tree_config = HierarchicalConfig(
        levels=(2,) * depth,
        base=UspConfig(
            n_bins=2,
            model="logistic",
            epochs=epochs,
            eta=10.0,
            k_prime=10,
            learning_rate=5e-3,
            max_batch_size=512,
            seed=seed,
        ),
    )
    usp_tree = make_index("usp-hierarchical", config=usp_tree_config).build(dataset.base)
    curves.append(
        accuracy_candidate_curve(
            usp_tree, dataset, k=k, probes=probes, method="USP (logistic tree)"
        )
    )

    baselines = [
        ("Regression LSH", "regression-lsh", dict(depth=depth, epochs=epochs, seed=seed)),
        ("2-means tree", "two-means-tree", dict(depth=depth, seed=seed)),
        ("PCA tree", "pca-tree", dict(depth=depth, seed=seed)),
        ("Random projection tree", "rp-tree", dict(depth=depth, seed=seed)),
        ("Learned KD-tree", "kd-tree", dict(depth=depth, seed=seed)),
        ("Boosted search forest", "boosted-forest", dict(n_trees=3, depth=depth, seed=seed)),
    ]
    for method, name, params in baselines:
        curves.append(
            accuracy_candidate_curve(
                name, dataset, k=k, probes=probes, method=method, index_params=params
            )
        )
    return curves


# ---------------------------------------------------------------------- #
# Figure 7: full ANN pipelines (ScaNN / HNSW / FAISS)
# ---------------------------------------------------------------------- #
def run_figure7(
    dataset: AnnDataset,
    *,
    n_bins: int = 16,
    k: int = 10,
    probes: Optional[Sequence[int]] = None,
    efs: Sequence[int] = (10, 20, 40, 80, 160),
    epochs: int = 25,
    seed: int = 0,
    include_hnsw: bool = True,
) -> List[SweepCurve]:
    """Accuracy vs throughput for USP+ScaNN against the Figure 7 baselines."""
    if probes is None:
        probes = probe_schedule(n_bins, max_points=6)
    codec = dict(n_subspaces=16, n_codewords=64, anisotropic_eta=4.0, rerank_factor=30)
    curves: List[SweepCurve] = []

    curves.append(
        throughput_accuracy_curve(
            "usp-scann",
            dataset,
            k=k,
            probes=probes,
            method="USP + ScaNN",
            index_params=dict(
                config=default_usp_config(n_bins, seed=seed).with_updates(epochs=epochs),
                seed=seed,
                **codec,
            ),
        )
    )

    curves.append(
        throughput_accuracy_curve(
            "kmeans-scann",
            dataset,
            k=k,
            probes=probes,
            method="K-means + ScaNN",
            index_params=dict(n_bins=n_bins, seed=seed, **codec),
        )
    )

    curves.append(
        throughput_accuracy_curve(
            "scann",
            dataset,
            k=k,
            probes=[1],
            method="ScaNN (no partition)",
            index_params=dict(seed=seed, **codec),
        )
    )

    curves.append(
        throughput_accuracy_curve(
            "ivf-pq",
            dataset,
            k=k,
            probes=probes,
            method="FAISS (IVF-PQ)",
            index_params=dict(
                n_lists=n_bins, n_subspaces=16, n_codewords=64, rerank_factor=30, seed=seed
            ),
        )
    )

    if include_hnsw:
        curves.append(
            throughput_accuracy_curve(
                "hnsw",
                dataset,
                k=k,
                efs=efs,
                method="HNSW",
                index_params=dict(m=12, ef_construction=60, ef_search=40, seed=seed),
            )
        )
    return curves


def speedup_at_accuracy(
    curves: Sequence[SweepCurve], reference_method: str, target_method: str, accuracy: float
) -> float:
    """Throughput ratio target/reference at a matched accuracy level.

    Used to reproduce the headline "~40% faster than K-means + ScaNN" claim.
    Returns ``nan`` if either curve never reaches the accuracy.
    """
    def best_qps(curve: SweepCurve) -> float:
        qps = [
            p.queries_per_second
            for p in curve.points
            if p.accuracy >= accuracy and p.queries_per_second is not None
        ]
        return max(qps) if qps else float("nan")

    reference = next((c for c in curves if c.method == reference_method), None)
    target = next((c for c in curves if c.method == target_method), None)
    if reference is None or target is None:
        return float("nan")
    return best_qps(target) / best_qps(reference)


# ---------------------------------------------------------------------- #
# Table 2: learnable parameter counts
# ---------------------------------------------------------------------- #
def run_table2(
    *,
    dim: int = 128,
    n_bins: int = 256,
    usp_hidden: int = 128,
    usp_ensemble_size: int = 3,
    neural_lsh_hidden: int = 512,
    neural_lsh_hidden_layers: int = 3,
) -> Dict[str, int]:
    """Parameter counts of Neural LSH, USP, and K-means at matched bins.

    Architectures follow the paper's Section 5.2 / Table 2: USP is an
    ensemble of small one-hidden-layer (width 128) networks, Neural LSH is a
    deeper network with hidden width 512, and K-means stores one centroid
    per bin.  With the defaults this reproduces the paper's ~729k / ~183k /
    ~33k ordering for SIFT (d=128) at 256 bins.
    """
    from ..nn import BatchNorm1d, Dropout, Linear, ReLU, Sequential

    usp_model = build_mlp_module(dim, n_bins, hidden_dim=usp_hidden, dropout=0.1)
    layers: list = []
    in_features = dim
    for _ in range(max(1, neural_lsh_hidden_layers)):
        layers.extend(
            [
                Linear(in_features, neural_lsh_hidden),
                BatchNorm1d(neural_lsh_hidden),
                ReLU(),
                Dropout(0.1),
            ]
        )
        in_features = neural_lsh_hidden
    layers.append(Linear(in_features, n_bins))
    neural_lsh_model = Sequential(*layers)
    return {
        "Neural LSH": neural_lsh_model.num_parameters(),
        "USP (ours)": usp_model.num_parameters() * max(1, usp_ensemble_size),
        "K-means": dim * n_bins,
    }


# ---------------------------------------------------------------------- #
# Table 3: offline training times
# ---------------------------------------------------------------------- #
def run_table3(
    *,
    scale: Optional[ExperimentScale] = None,
    configurations: Optional[Sequence[Dict]] = None,
    ensemble_size: int = 3,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Offline training time per (dataset, bins) configuration.

    Mirrors the paper's Table 3 rows: {MNIST, SIFT} x {16, 256} bins (the
    256-bin rows are scaled down proportionally to the reduced dataset
    sizes; the reproduced quantity is the *ratio* between rows).
    """
    scale = scale or ExperimentScale()
    if configurations is None:
        configurations = [
            {"dataset": "mnist-like", "n_bins": 16},
            {"dataset": "mnist-like", "n_bins": 64},
            {"dataset": "sift-like", "n_bins": 16},
            {"dataset": "sift-like", "n_bins": 64},
        ]
    rows: List[Dict[str, object]] = []
    for spec in configurations:
        data = benchmark_dataset(spec["dataset"], scale)
        n_bins = int(spec["n_bins"])
        config = default_usp_config(n_bins, seed=seed)
        if "epochs" in spec:
            config = config.with_updates(epochs=int(spec["epochs"]))
        knn = build_knn_matrix(data.base, config.k_prime)
        ensemble = make_index(
            "usp-ensemble",
            config=EnsembleConfig(n_models=ensemble_size, base=config),
        ).build(data.base, knn=knn)
        rows.append(
            {
                "dataset": spec["dataset"],
                "n_bins": n_bins,
                "eta": config.eta,
                "ensemble_size": ensemble_size,
                "training_seconds": ensemble.training_seconds(),
                "build_seconds": ensemble.build_seconds,
            }
        )
    return rows


# ---------------------------------------------------------------------- #
# Table 4: candidate-set size reduction at fixed accuracy
# ---------------------------------------------------------------------- #
def run_table4(
    dataset: AnnDataset,
    *,
    n_bins: int = 16,
    target_accuracy: float = 0.85,
    ensemble_size: int = 3,
    k: int = 10,
    epochs: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, float]:
    """Relative decrease in |C| for USP vs Neural LSH and K-means at matched accuracy."""
    curves = run_figure5(
        dataset,
        n_bins=n_bins,
        ensemble_size=ensemble_size,
        k=k,
        epochs=epochs,
        seed=seed,
    )
    by_method = {curve.method: curve for curve in curves}
    usp_key = f"USP (ensemble of {ensemble_size})" if ensemble_size > 1 else "USP (1 model)"
    usp_size = by_method[usp_key].candidate_size_at_accuracy(target_accuracy)
    results: Dict[str, float] = {"usp_candidate_size": usp_size}
    for method in ("Neural LSH", "K-means"):
        baseline_size = by_method[method].candidate_size_at_accuracy(target_accuracy)
        if np.isinf(baseline_size) or np.isinf(usp_size):
            results[method] = float("nan")
        else:
            results[method] = 1.0 - usp_size / baseline_size
    return results


# ---------------------------------------------------------------------- #
# Table 5: clustering comparison
# ---------------------------------------------------------------------- #
def run_table5(
    *,
    n_points: int = 400,
    seed: int = 0,
    include_spectral: bool = True,
) -> List[Dict[str, object]]:
    """ARI/NMI of USP clustering vs DBSCAN, K-means, spectral on toy datasets."""
    from ..baselines.kmeans import KMeans

    datasets = [
        ("moons", make_moons(n_points, noise=0.05, seed=seed), 2, 0.2),
        ("circles", make_circles(n_points, noise=0.04, factor=0.5, seed=seed), 2, 0.2),
        (
            "classification (4 clusters)",
            make_classification(n_points, n_clusters=4, dim=2, class_sep=2.5, seed=seed),
            4,
            0.6,
        ),
    ]
    rows: List[Dict[str, object]] = []
    for name, data, n_clusters, eps in datasets:
        methods: Dict[str, np.ndarray] = {}
        usp = UspClustering(n_clusters)
        methods["USP (ours)"] = usp.fit_predict(data.points)
        methods["DBSCAN"] = DBSCAN(eps=eps, min_samples=5).fit_predict(data.points)
        methods["K-means"] = KMeans(n_clusters, n_init=5, seed=seed).fit(data.points).labels
        if include_spectral:
            methods["Spectral clustering"] = SpectralClustering(
                n_clusters, affinity="knn", n_neighbors=10, seed=seed
            ).fit_predict(data.points)
        for method, labels in methods.items():
            rows.append(
                {
                    "dataset": name,
                    "method": method,
                    "ari": adjusted_rand_index(data.labels, labels),
                    "nmi": normalized_mutual_information(data.labels, labels),
                    "n_clusters_found": int(np.unique(labels[labels >= 0]).size),
                }
            )
    return rows
