"""Desk-scale GIN engine: layers, model assembly, task generator, training."""

from .layers import (
    Affine,
    ExpanderLayerParams,
    GinLayerParams,
    HyperedgeMode,
    init_affine,
    init_expander_params,
    init_gin_params,
)
from .model import GinModel, build_model, loss_and_gradients, named_parameters
from .training import TrainConfig, TrainResult, TrainingDiverged, train
from .treematch import make_dataset, tree_graph

__all__ = [
    "Affine",
    "ExpanderLayerParams",
    "GinLayerParams",
    "GinModel",
    "HyperedgeMode",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "build_model",
    "init_affine",
    "init_expander_params",
    "init_gin_params",
    "loss_and_gradients",
    "make_dataset",
    "named_parameters",
    "train",
    "tree_graph",
]
