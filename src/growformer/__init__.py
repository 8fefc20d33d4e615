"""Growable staged-projection attention at desk scale.

The package has three layers: a deterministic numeric core (linalg, rng),
the model itself (ladder projections, attention, a small causal LM, and
the dual-axis growth engine), and the growth-dynamics analysis pipeline
(alignment statistics; trajectory geometry, a PCA embedding of the
alignment states with each embedding's Euclidean and Grassmann distance
from the first; time-series tests; FLOP accounting) with a CLI harness
on top.
"""

from .alignment import (
    AlignmentSnapshot,
    WeightSample,
    noc,
    perf_gain,
    percent_shift,
    radial_energy,
    snapshot_alignment,
    u_p_score,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import NumericError, ValidationError
from .flops import FlopsBreakdown, efficiency_ratio, model_flops, nexus_proj_flops, standard_proj_flops
from .growth import GrowthPlan, GrowthReport, grow_model, new_block_gradient_report, verify_function_preservation
from .ladder import attention_forward, ladder_forward, rank_bottleneck_check, validate_hierarchy
from .model import ModelConfig, TOY_CONFIG, init_params, model_forward, model_loss_and_grads
from .rng import RngState, seeded_gaussian
from .seriesstats import fisher_g_test, harmonic_fit, ols_linear, scaling_law_fit
from .trajectory import PcaModel, pca_fit, pca_project, trajectory_series
from .training import ExperimentConfig, GrowthConfig, train

__all__ = [
    "AlignmentSnapshot",
    "Checkpoint",
    "ExperimentConfig",
    "FlopsBreakdown",
    "GrowthConfig",
    "GrowthPlan",
    "GrowthReport",
    "ModelConfig",
    "NumericError",
    "PcaModel",
    "RngState",
    "TOY_CONFIG",
    "ValidationError",
    "WeightSample",
    "attention_forward",
    "efficiency_ratio",
    "fisher_g_test",
    "grow_model",
    "harmonic_fit",
    "init_params",
    "ladder_forward",
    "load_checkpoint",
    "model_flops",
    "model_forward",
    "model_loss_and_grads",
    "new_block_gradient_report",
    "nexus_proj_flops",
    "noc",
    "ols_linear",
    "pca_fit",
    "pca_project",
    "percent_shift",
    "perf_gain",
    "radial_energy",
    "rank_bottleneck_check",
    "save_checkpoint",
    "scaling_law_fit",
    "seeded_gaussian",
    "snapshot_alignment",
    "standard_proj_flops",
    "train",
    "trajectory_series",
    "u_p_score",
    "validate_hierarchy",
    "verify_function_preservation",
]
