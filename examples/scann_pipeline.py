"""Accelerating a ScaNN-style vector search pipeline with USP partitioning.

Scenario (the paper's Figure 7): a recommendation backend already uses a
ScaNN-like searcher (anisotropic quantization + exact re-ranking) and wants
higher throughput at the same recall.  The paper's proposal is to put its
unsupervised space partitioner in front of the quantized scan so each query
touches only a few bins ("USP + ScaNN").

This example builds three pipelines over the same data and codec —
vanilla ScaNN (no partitioning), K-means + ScaNN, and USP + ScaNN —
plus the plain product-quantized scan (``pq-adc``: no partition, no
anisotropic loss, its re-rank budget as the dial), and reports 10-NN
accuracy against measured queries/second.

Run with:  python examples/scann_pipeline.py
"""

from __future__ import annotations

from repro.ann import kmeans_scann, usp_scann, vanilla_scann
from repro.api import make_index
from repro.core import UspConfig
from repro.datasets import sift_like
from repro.eval import format_curves, speedup_at_accuracy, throughput_accuracy_curve


def main() -> None:
    data = sift_like(n_points=6000, n_queries=250, dim=64, n_clusters=16, seed=33)
    codec = dict(n_subspaces=8, n_codewords=32, anisotropic_eta=4.0, rerank_factor=20, seed=0)
    n_bins = 16

    print("building pipelines (partitioner + anisotropic codec + re-ranker)...")
    pipelines = {
        "USP + ScaNN": usp_scann(
            UspConfig(n_bins=n_bins, epochs=25, eta=30.0, hidden_dim=128, seed=0), **codec
        ).build(data.base),
        "K-means + ScaNN": kmeans_scann(n_bins, **codec).build(data.base),
        "ScaNN (no partition)": vanilla_scann(**codec).build(data.base),
        "PQ ADC (no partition)": make_index("pq-adc", n_subspaces=8, n_codewords=32, seed=0).build(data.base),
    }

    curves = []
    for name, searcher in pipelines.items():
        probes = {"ScaNN (no partition)": [1], "PQ ADC (no partition)": [50, 200]}.get(name, [1, 2, 3, 5, 8])
        curves.append(
            throughput_accuracy_curve(searcher, data, k=10, probes=probes, method=name)
        )
    print(format_curves(curves, title="10-NN accuracy vs throughput (higher accuracy and higher qps are better)"))

    for accuracy in (0.85, 0.9):
        vs_vanilla = speedup_at_accuracy(curves, "ScaNN (no partition)", "USP + ScaNN", accuracy)
        vs_kmeans = speedup_at_accuracy(curves, "K-means + ScaNN", "USP + ScaNN", accuracy)
        print(f"\nat {accuracy:.0%} accuracy: USP+ScaNN is {vs_vanilla:.2f}x the throughput of vanilla ScaNN, "
              f"{vs_kmeans:.2f}x that of K-means+ScaNN")
    print("\n(The paper reports ~40% faster 10-NN retrieval than K-means+ScaNN on the "
          "full-scale datasets. All three pipelines run one bin-major ADC scan, so what "
          "separates them is how many codes the partition makes each query score; at this "
          "reduced scale the exact re-rank every pipeline pays alike is a large share of a "
          "query — see benchmarks/results/figure7_sift_pipelines.txt.)")


if __name__ == "__main__":
    main()
