"""Micro-benchmarks of the hot components of the screening pipeline.

These are not paper artefacts; they track the per-pose costs that determine
end-to-end throughput: featurization (the paper's identified bottleneck),
model inference for each head and fusion variant, docking score evaluation
and MM/GBSA rescoring.
"""

import copy

import numpy as np

from repro.docking.mmgbsa import MMGBSARescorer
from repro.docking.vina import VinaScorer
from repro.featurize.pipeline import collate_complexes
from repro.nn.tensor import no_grad


def _sample_complexes(workbench, n=8):
    return [entry.complex for entry in workbench.dataset.core[:n]]


def test_voxelization_per_complex(benchmark, workbench):
    complexes = _sample_complexes(workbench)
    benchmark(lambda: [workbench.featurizer.voxelizer.voxelize(c) for c in complexes])


def test_graph_construction_per_complex(benchmark, workbench):
    complexes = _sample_complexes(workbench)
    benchmark(lambda: [workbench.featurizer.graph_builder.build(c) for c in complexes])


def test_full_featurization_per_complex(benchmark, workbench):
    complexes = _sample_complexes(workbench)
    benchmark(lambda: [workbench.featurizer.featurize(c) for c in complexes])


def _batch(workbench, n=8):
    return collate_complexes(workbench.core_samples[:n])


def test_cnn3d_inference(benchmark, workbench):
    batch = _batch(workbench)
    workbench.cnn3d.eval()

    def forward():
        with no_grad():
            return workbench.cnn3d(batch).numpy()

    out = benchmark(forward)
    assert np.isfinite(out).all()


def test_sgcnn_inference(benchmark, workbench):
    batch = _batch(workbench)
    workbench.sgcnn.eval()

    def forward():
        with no_grad():
            return workbench.sgcnn(batch).numpy()

    out = benchmark(forward)
    assert np.isfinite(out).all()


def test_coherent_fusion_inference(benchmark, workbench):
    batch = _batch(workbench)
    workbench.coherent_fusion.eval()

    def forward():
        with no_grad():
            return workbench.coherent_fusion(batch).numpy()

    out = benchmark(forward)
    assert np.isfinite(out).all()


def test_coherent_fusion_training_step(benchmark, workbench):
    from repro.nn.loss import mse_loss
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor

    batch = _batch(workbench)
    # train a copy: the cached workbench model is shared with every other benchmark
    model = copy.deepcopy(workbench.coherent_fusion)
    optimizer = Adam(model.trainable_parameters(), lr=1e-4)
    pack = optimizer.fuse()

    def step():
        model.train()
        loss = mse_loss(model(batch), Tensor(batch["target"]))
        optimizer.zero_grad()
        loss.backward()
        optimizer.step_fused(pack.grad_vector())
        return loss.item()

    value = benchmark(step)
    assert np.isfinite(value)


def test_vina_scoring_per_pose(benchmark, workbench):
    complexes = _sample_complexes(workbench)
    vina = VinaScorer()
    benchmark(lambda: [vina.score(c) for c in complexes])


def test_mmgbsa_scoring_per_pose(benchmark, workbench):
    complexes = _sample_complexes(workbench)
    mmgbsa = MMGBSARescorer()
    benchmark(lambda: [mmgbsa.score(c) for c in complexes])
