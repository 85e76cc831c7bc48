"""repro — reproduction of the SC'21 Deep Fusion virtual-screening system.

The package re-implements, in pure NumPy/SciPy, the system described in
"High-Throughput Virtual Screening of Small Molecule Inhibitors for
SARS-CoV-2 Protein Targets with Deep Fusion Models" (Stevenson et al.,
SC 2021): the 3D-CNN and SG-CNN binding-affinity models, their Late /
Mid-level / Coherent fusion, the PB2 population-based hyper-parameter
optimization, the ConveyorLC-style physics-based docking substrate, the
distributed high-throughput scoring architecture, and the retrospective
SARS-CoV-2 campaign analysis.

Sub-packages
------------
``repro.nn``           NumPy autograd engine, layers, optimizers, data loaders.
``repro.chem``         Molecules, proteins, complexes, descriptors, ligand prep.
``repro.featurize``    Voxel grids and spatial graphs for the two model heads.
``repro.datasets``     Synthetic PDBbind, compound libraries, assay simulators.
``repro.docking``      Vina-like docking, MM/GBSA rescoring, ConveyorLC pipeline.
``repro.models``       3D-CNN, SG-CNN, Late / Mid-level / Coherent Fusion.
``repro.hpo``          PB2 population-based bandit hyper-parameter optimization.
``repro.hpc``          Simulated cluster, LSF scheduler, MPI/Horovod, HDF5 store.
``repro.screening``    Streamed fusion screening engine and campaign pipeline.
``repro.serving``      Online scoring service: micro-batching, replicas, cache.
``repro.runtime``      Fault-tolerant campaign runtime: stage checkpoints, resume.
``repro.eval``         Metrics, classification analyses, report rendering.
``repro.experiments``  Drivers regenerating every paper table and figure.
"""

import os
import sys

# The numerics' reference environment is BLAS on one thread: OpenBLAS
# splits some reductions across threads, which moves the last ulp of
# scores and trained weights.  A value already set is kept, and the pin
# only works before numpy's first import.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: True when numpy was imported before ``repro`` (the pin came too late)
NUMPY_PRELOADED = "numpy" in sys.modules
for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")
del _name

from repro.version import __version__  # noqa: E402

__all__ = ["__version__", "BLAS_THREAD_VARS", "NUMPY_PRELOADED"]
