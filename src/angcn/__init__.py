"""Population-graph node classification with aggregator-normalized graph
convolutions, skip connections, and identity mapping."""

from .data import DatasetBundle, SyntheticSpec, generate_synthetic, load_bundle, save_bundle
from .graph_core import Graph, normalize_adjacency
from .metrics import confusion, pr_curve, roc_curve, scalar_metrics
from .model import ModelParams, forward, init_params, layer_forward, predict
from .popgraph import (
    PhenotypicMeasure,
    PopulationGraphSpec,
    build_adjacency,
    connectome_features,
    rfe_ridge,
)
from .sampler import (
    AggregationStats,
    aggregation_matrix,
    presample,
    sample_node_subgraph,
)
from .training import (
    TrainConfig,
    adam_step,
    backward,
    cross_entropy,
    cross_validate,
    finite_difference_check,
    stratified_kfold,
    train,
)

__all__ = [
    "AggregationStats",
    "DatasetBundle",
    "Graph",
    "ModelParams",
    "PhenotypicMeasure",
    "PopulationGraphSpec",
    "SyntheticSpec",
    "TrainConfig",
    "adam_step",
    "aggregation_matrix",
    "backward",
    "build_adjacency",
    "confusion",
    "connectome_features",
    "cross_entropy",
    "cross_validate",
    "finite_difference_check",
    "forward",
    "generate_synthetic",
    "init_params",
    "layer_forward",
    "load_bundle",
    "normalize_adjacency",
    "pr_curve",
    "predict",
    "presample",
    "rfe_ridge",
    "roc_curve",
    "sample_node_subgraph",
    "save_bundle",
    "scalar_metrics",
    "stratified_kfold",
    "train",
]

__version__ = "0.1.0"
