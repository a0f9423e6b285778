"""Ablation benchmarks for USP's design choices (see PAPER.md).

These go beyond the paper's tables: they isolate the effect of the soft
neighbour labels, the balance term, the ensemble size, k', the batch
fraction, and hierarchical-vs-flat partitioning, using candidate recall at
one probe as the common quality measure.
"""

from conftest import run_once

from repro.api import make_index
from repro.core import (
    EnsembleConfig,
    HierarchicalConfig,
    UspConfig,
    build_knn_matrix,
)
from repro.datasets import sift_like
from repro.eval import candidate_stats, format_table


def _ablation_dataset():
    return sift_like(n_points=2000, n_queries=120, dim=48, n_clusters=10, seed=11)


def _quality(index, dataset, n_probes=1):
    size, recall = candidate_stats(index, dataset.queries, dataset.ground_truth, 10, n_probes)
    return recall, size


BASE = UspConfig(
    n_bins=8, k_prime=10, eta=20.0, hidden_dim=64, epochs=15,
    max_batch_size=256, learning_rate=2e-3, seed=0,
)


def test_ablation_soft_vs_hard_labels(benchmark, report):
    dataset = _ablation_dataset()
    knn = build_knn_matrix(dataset.base, BASE.k_prime)

    def run():
        rows = []
        for soft in (True, False):
            index = make_index("usp", config=BASE.with_updates(soft_labels=soft)).build(dataset.base, knn=knn)
            recall, size = _quality(index, dataset)
            rows.append(("soft labels" if soft else "hard labels", round(recall, 3), round(size, 1)))
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_soft_vs_hard_labels",
        format_table(["quality target", "candidate recall@1probe", "avg |C|"], rows,
                     title="Ablation — soft vs hard neighbour labels"),
    )
    soft_recall = rows[0][1]
    hard_recall = rows[1][1]
    assert soft_recall >= hard_recall - 0.05


def test_ablation_balance_term(benchmark, report):
    dataset = _ablation_dataset()
    knn = build_knn_matrix(dataset.base, BASE.k_prime)

    def run():
        rows = []
        for term in ("topk", "entropy", "none"):
            index = make_index("usp", config=BASE.with_updates(balance_term=term)).build(dataset.base, knn=knn)
            recall, size = _quality(index, dataset)
            imbalance = float(index.bin_sizes().max() / (dataset.n_points / index.n_bins))
            rows.append((term, round(recall, 3), round(size, 1), round(imbalance, 2)))
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_balance_term",
        format_table(
            ["balance term", "candidate recall@1probe", "avg |C|", "max bin / ideal"],
            rows,
            title="Ablation — balance term variants",
        ),
    )
    by_term = {r[0]: r for r in rows}
    # Without any balance term the partition degenerates towards few huge
    # bins: its largest bin must be at least as oversized as with the
    # paper's window term.
    assert by_term["none"][3] >= by_term["topk"][3] * 0.9


def test_ablation_ensemble_size(benchmark, report):
    dataset = _ablation_dataset()
    knn = build_knn_matrix(dataset.base, BASE.k_prime)

    def run():
        rows = []
        for e in (1, 2, 3):
            if e == 1:
                index = make_index("usp", config=BASE).build(dataset.base, knn=knn)
            else:
                index = make_index(
                    "usp-ensemble", config=EnsembleConfig(n_models=e, base=BASE)
                ).build(dataset.base, knn=knn)
            recall, size = _quality(index, dataset)
            rows.append((e, round(recall, 3), round(size, 1)))
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_ensemble_size",
        format_table(["ensemble size e", "candidate recall@1probe", "avg |C|"], rows,
                     title="Ablation — ensemble size"),
    )
    assert rows[-1][1] >= rows[0][1] - 0.03


def test_ablation_kprime(benchmark, report):
    dataset = _ablation_dataset()

    def run():
        rows = []
        for k_prime in (2, 5, 10, 20):
            knn = build_knn_matrix(dataset.base, k_prime)
            index = make_index("usp", config=BASE.with_updates(k_prime=k_prime)).build(dataset.base, knn=knn)
            recall, size = _quality(index, dataset)
            rows.append((k_prime, round(recall, 3), round(size, 1)))
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_kprime",
        format_table(["k'", "candidate recall@1probe", "avg |C|"], rows,
                     title="Ablation — k'-NN matrix width (paper: k'=10 suffices)"),
    )
    by_k = {r[0]: r[1] for r in rows}
    # Larger k' should not be dramatically better than k'=10 (paper's claim).
    assert by_k[20] <= by_k[10] + 0.1


def test_ablation_batch_fraction(benchmark, report):
    dataset = _ablation_dataset()
    knn = build_knn_matrix(dataset.base, BASE.k_prime)

    def run():
        rows = []
        for fraction in (0.02, 0.04, 0.15):
            config = BASE.with_updates(batch_fraction=fraction, min_batch_size=32)
            index = make_index("usp", config=config).build(dataset.base, knn=knn)
            recall, size = _quality(index, dataset)
            rows.append((fraction, config.batch_size_for(dataset.n_points), round(recall, 3), round(size, 1)))
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_batch_fraction",
        format_table(
            ["batch fraction", "batch size", "candidate recall@1probe", "avg |C|"],
            rows,
            title="Ablation — mini-batch fraction (paper: ~4% suffices)",
        ),
    )
    by_fraction = {r[0]: r[2] for r in rows}
    assert by_fraction[0.04] >= by_fraction[0.15] - 0.12


def test_ablation_hierarchical_vs_flat(benchmark, report):
    dataset = _ablation_dataset()

    def run():
        flat = make_index("usp", config=BASE.with_updates(n_bins=16)).build(dataset.base)
        hier = make_index(
            "usp-hierarchical",
            config=HierarchicalConfig(levels=(4, 4), base=BASE.with_updates(n_bins=4)),
        ).build(dataset.base)
        rows = []
        for name, index in (("flat 16 bins", flat), ("hierarchical 4 x 4", hier)):
            recall, size = _quality(index, dataset, n_probes=2)
            rows.append(
                (name, round(recall, 3), round(size, 1), index.num_parameters(),
                 round(index.training_seconds(), 2))
            )
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_hierarchical_vs_flat",
        format_table(
            ["partitioner", "candidate recall@2probes", "avg |C|", "parameters", "train s"],
            rows,
            title="Ablation — hierarchical vs flat partitioning at 16 bins",
        ),
    )
    assert abs(rows[0][1] - rows[1][1]) < 0.35
