"""Desk-scale GIN engine: layers, model assembly, task generator, training."""

from .layers import (
    Affine,
    ExpanderLayerParams,
    GinLayerParams,
    HyperedgeMode,
    expander_layer_forward,
    gin_layer_forward,
    init_affine,
    init_expander_params,
    init_gin_params,
)
from .model import (
    GinModel,
    build_model,
    forward,
    load_parameters,
    loss_and_gradients,
    named_parameters,
    parameters_to_dict,
)
from .training import TrainConfig, TrainResult, TrainingDiverged, train
from .treematch import TreeMatchInstance, generate_tree_match, make_dataset, tree_graph

__all__ = [
    "Affine",
    "ExpanderLayerParams",
    "GinLayerParams",
    "GinModel",
    "HyperedgeMode",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "TreeMatchInstance",
    "build_model",
    "expander_layer_forward",
    "forward",
    "generate_tree_match",
    "gin_layer_forward",
    "init_affine",
    "init_expander_params",
    "init_gin_params",
    "load_parameters",
    "loss_and_gradients",
    "make_dataset",
    "named_parameters",
    "parameters_to_dict",
    "train",
    "tree_graph",
]
