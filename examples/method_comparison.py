"""Fig. 8 analogue: compare PCA / IPCA / t-SNE / UMAP / Aligned-UMAP / mrDMD / I-mrDMD.

The paper labels 40 readings (20 baseline, 20 non-baseline) out of the 4,392
processed measurements and shows how each method separates them: the
dimensionality-reduction baselines produce micro-clusters that mix the two
classes, while the mrDMD/I-mrDMD z-scores separate them.

This example builds a labelled synthetic dataset with the same structure,
runs every method, and prints a separation score per method (distance
between class centroids over within-class spread), plus each DMD variant's
z-score separation.  It also dumps the 2-D embeddings to CSV files so they
can be plotted externally.

Run with ``python examples/method_comparison.py``.
"""

from __future__ import annotations

import csv
import os
import time

import numpy as np

from repro.compare import PCA, AlignedUMAPLite, IncrementalPCA, TSNE, UMAPLite
from repro.core import BaselineModel, BaselineSpec, IncrementalMrDMD, MrDMDConfig, compute_mrdmd
from repro.telemetry import HotNodes, TelemetryGenerator, theta_machine

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def separation(embedding: np.ndarray, labels: np.ndarray) -> float:
    """Distance between class centroids divided by mean within-class spread."""
    a, b = embedding[labels == 0], embedding[labels == 1]
    spread = (a.std(axis=0).mean() + b.std(axis=0).mean()) / 2.0
    return float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)) / max(spread, 1e-12))


def main(n_per_class: int = 20, n_timesteps: int = 1_000) -> None:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    machine = theta_machine(racks_per_row=1, node_limit=2 * n_per_class)
    hot_nodes = tuple(range(n_per_class, 2 * n_per_class))
    generator = TelemetryGenerator(machine, seed=29, utilization_target=0.3)
    stream = generator.generate(
        n_timesteps,
        sensors=["cpu_temp"],
        anomalies=[HotNodes(node_indices=hot_nodes, start=n_timesteps // 4, delta=13.0)],
    )
    data = stream.values
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    print(f"dataset: {data.shape[0]} readings x {data.shape[1]} time points "
          f"({n_per_class} baseline + {n_per_class} non-baseline)")

    half = n_timesteps // 2
    results: dict[str, float] = {}

    methods = {
        "PCA": PCA(),
        "IPCA": IncrementalPCA(),
        "TSNE": TSNE(n_iter=400, perplexity=10, random_state=3),
        "UMAP": UMAPLite(n_epochs=150, n_neighbors=10, random_state=3),
        "Aligned-UMAP": AlignedUMAPLite(n_epochs=120, n_neighbors=10, random_state=3),
    }
    for name, model in methods.items():
        t0 = time.perf_counter()
        if model.supports_partial_fit:
            model.fit(data[:, :half])
            model.partial_fit(data[:, half:])
            embedding = model.embedding_
        else:
            embedding = model.fit_transform(data)
        elapsed = time.perf_counter() - t0
        results[name] = separation(embedding, labels)
        _dump_embedding(name, embedding, labels)
        print(f"{name:>14s}: separation {results[name]:.2f} ({elapsed:.2f}s)")

    # mrDMD and I-mrDMD enter through the z-score pipeline.
    for name, use_incremental in [("mrDMD", False), ("I-mrDMD", True)]:
        t0 = time.perf_counter()
        if use_incremental:
            model = IncrementalMrDMD(dt=stream.dt, config=MrDMDConfig(max_levels=5), retain_data="all")
            model.fit(data[:, :half])
            model.partial_fit(data[:, half:])
            tree = model.tree
        else:
            tree = compute_mrdmd(data, stream.dt, MrDMDConfig(max_levels=5))
        recon = tree.reconstruct(data.shape[1])
        baseline = BaselineModel.from_data(recon, BaselineSpec(value_range=(46.0, 57.0)))
        z = baseline.score(recon).zscores
        elapsed = time.perf_counter() - t0
        embedding = np.column_stack([np.arange(z.size), z])
        results[name] = separation(embedding[:, 1:2], labels)
        _dump_embedding(name.replace("-", "_"), embedding, labels)
        print(f"{name:>14s}: z-score separation {results[name]:.2f} ({elapsed:.2f}s)")

    dmd_family = min(results["mrDMD"], results["I-mrDMD"])
    best_dr = max(results[k] for k in ("PCA", "IPCA", "TSNE", "UMAP", "Aligned-UMAP"))
    print(f"\nDMD-family z-score separation {dmd_family:.2f}; best DR baseline {best_dr:.2f}.")
    print("The paper's Fig. 8 shows the DMD family separating baseline from non-baseline "
          "readings while the DR baselines form mixed micro-clusters; on this cleanly "
          "separable synthetic set the linear baselines also separate well (see "
          "EXPERIMENTS.md), so the reproduced claim is that the DMD-family separation "
          "is clear (> 2) and in the same league as the baselines.")


def _dump_embedding(name: str, embedding: np.ndarray, labels: np.ndarray) -> None:
    path = os.path.join(OUTPUT_DIR, f"fig8_{name.lower()}_embedding.csv")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["component_1", "component_2", "label"])
        for row, label in zip(embedding, labels):
            second = row[1] if row.shape[0] > 1 else 0.0
            writer.writerow([f"{row[0]:.6f}", f"{second:.6f}", int(label)])


if __name__ == "__main__":
    main()
