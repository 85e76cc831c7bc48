"""Quickstart: train a binding-affinity model on the synthetic PDBbind dataset.

This mirrors the core supervised-learning task of the paper at toy scale:

1. generate a synthetic PDBbind-2019-like dataset (general / refined /
   core strata, quintile train/validation split);
2. featurize complexes into voxel grids (3D-CNN head) and spatial graphs
   (SG-CNN head);
3. train the SG-CNN and 3D-CNN heads and combine them with Late Fusion;
4. evaluate on the held-out core set with the paper's Table 6 metrics.

Run:  python examples/quickstart.py
Expected runtime: ~1-2 minutes on a laptop CPU.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import PDBbindConfig, generate_pdbbind
from repro.eval import regression_report
from repro.eval.reports import format_table
from repro.featurize import FeaturePipeline, GraphConfig, VoxelGridConfig, predict_samples
from repro.models import CNN3D, CNN3DConfig, LateFusion, SGCNN, SGCNNConfig, Trainer, TrainerConfig


def main() -> None:
    print("=== 1. Generating a synthetic PDBbind dataset ===")
    dataset = generate_pdbbind(
        PDBbindConfig(n_general=60, n_refined=30, n_core=16, n_families=10, n_core_families=3, seed=7)
    )
    print(f"general={len(dataset.general)}  refined={len(dataset.refined)}  core={len(dataset.core)}")
    for subset in ("general", "refined", "core"):
        labels = np.array([entry.experimental_pk for entry in getattr(dataset, subset)])
        print(f"  {subset:8s} pK mean={labels.mean():.2f} sd={labels.std():.2f} "
              f"range=[{labels.min():.1f}, {labels.max():.1f}]")

    print("\n=== 2. Featurizing (voxel grids + spatial graphs) ===")
    featurizer = FeaturePipeline(
        voxel_config=VoxelGridConfig(grid_dim=12, channel_set="reduced"),
        graph_config=GraphConfig(),  # paper Table 2 thresholds by default
        augment=True,
        seed=7,
    )
    train_entries, val_entries = dataset.train_val_split()
    train = dataset.featurize_entries(train_entries, featurizer, training=True)
    val = dataset.featurize_entries(val_entries, featurizer)
    core = dataset.featurize_entries(dataset.core, featurizer)
    print(f"train={len(train)}  val={len(val)}  core(held-out)={len(core)}")

    print("\n=== 3. Training the SG-CNN and 3D-CNN heads ===")
    sg_config = SGCNNConfig.scaled_down()
    sgcnn = SGCNN(sg_config, seed=0)
    sg_history = Trainer(
        sgcnn, train, val,
        TrainerConfig(epochs=12, batch_size=8, learning_rate=sg_config.learning_rate, seed=0),
    ).fit(log_fn=lambda e, tr, va: print(f"  SG-CNN  epoch {e:2d}  train MSE {tr:6.2f}  val MSE {va:6.2f}"))

    cnn_config = CNN3DConfig.scaled_down()
    cnn_config.grid_dim = 12
    cnn_config.in_channels = featurizer.voxelizer.config.num_channels
    cnn3d = CNN3D(cnn_config, seed=0)
    cnn_history = Trainer(
        cnn3d, train, val,
        TrainerConfig(epochs=10, batch_size=8, learning_rate=cnn_config.learning_rate, seed=0),
    ).fit(log_fn=lambda e, tr, va: print(f"  3D-CNN  epoch {e:2d}  train MSE {tr:6.2f}  val MSE {va:6.2f}"))

    print(f"\nbest val MSE: SG-CNN {sg_history.best_val_loss:.2f}, 3D-CNN {cnn_history.best_val_loss:.2f}")

    print("\n=== 4. Core-set evaluation (Table 6 metrics) ===")
    late_fusion = LateFusion(cnn3d, sgcnn).eval()
    targets = np.array([s.target for s in core])
    rows = []
    for name, model in (("SG-CNN", sgcnn), ("3D-CNN", cnn3d), ("Late Fusion", late_fusion)):
        predictions = predict_samples(model, core, batch_size=8)
        report = regression_report(targets, predictions)
        rows.append([name, report["rmse"], report["mae"], report["r2"], report["pearson"], report["spearman"]])
    print(format_table(["model", "RMSE", "MAE", "R2", "Pearson", "Spearman"], rows,
                       title="Held-out core set (crystal structures)"))


if __name__ == "__main__":
    main()
