"""Distributed, genetic hyper-parameter optimization (PB2).

Implements the Population-Based Bandits (PB2) optimization the paper used
to find the final SG-CNN / 3D-CNN / Fusion hyper-parameters (Tables 2-5):
a population of trials trains in parallel; every perturbation interval the
under-performing half clones a top performer (exploit) and proposes new
continuous hyper-parameters with a time-varying Gaussian-process bandit
(explore).  Plain population-based training is PB2's base scheduler, and
random search is the baseline of the PB2 ablation benchmark.
"""

from repro.hpo.space import (
    Boolean,
    Choice,
    SearchSpace,
    Uniform,
    cnn3d_search_space,
    fusion_search_space,
    sgcnn_search_space,
)
from repro.hpo.trial import Trial, TrialState
from repro.hpo.gp import TimeVaryingGP
from repro.hpo.pb2 import PB2Scheduler
from repro.hpo.pbt import PBTScheduler
from repro.hpo.random_search import RandomSearch
from repro.hpo.tune import TuneConfig, TuneRunner

__all__ = [
    "Uniform",
    "Choice",
    "Boolean",
    "SearchSpace",
    "cnn3d_search_space",
    "sgcnn_search_space",
    "fusion_search_space",
    "Trial",
    "TrialState",
    "TimeVaryingGP",
    "PB2Scheduler",
    "PBTScheduler",
    "RandomSearch",
    "TuneRunner",
    "TuneConfig",
]
