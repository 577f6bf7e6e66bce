"""Frost prediction at unmonitored sites from off-site weather stations.

Per-station neural submodels map one station's climate to another site's
upcoming minimum temperature; their outputs are combined by averaging,
attribute-weighted averaging, or weighted frost voting, with inverse-distance
and kriging interpolation of the same outputs as spatial baselines.

This namespace holds what README.md documents; everything else is imported
from its submodule.
"""

from .core import (
    RAW_COLUMNS,
    FoldAssignment,
    GeoPoint,
    StationAttributes,
    StationSeries,
    validate_series,
)
from .ensemble import (
    AGGREGATORS,
    WEIGHT_EPSILON,
    SubmodelBank,
    attribute_weights,
    load_bank,
    save_bank,
    train_bank,
)
from .errors import (
    DataError,
    DivergenceError,
    DomainError,
    FormatError,
    FrostcastError,
    NumericalError,
    OutOfExtentError,
    UnsupportedVersionError,
)
from .evaluate import build_prediction_matrices, make_folds, run_fold_experiment
from .ingest import load_dataset
from .neuralnet import TrainConfig
from .synth import WorldSpec, generate_world

__version__ = "0.1.0"

__all__ = [
    "AGGREGATORS",
    "DataError",
    "DivergenceError",
    "DomainError",
    "FoldAssignment",
    "FormatError",
    "FrostcastError",
    "GeoPoint",
    "NumericalError",
    "OutOfExtentError",
    "RAW_COLUMNS",
    "StationAttributes",
    "StationSeries",
    "SubmodelBank",
    "TrainConfig",
    "UnsupportedVersionError",
    "WEIGHT_EPSILON",
    "WorldSpec",
    "attribute_weights",
    "build_prediction_matrices",
    "generate_world",
    "load_bank",
    "load_dataset",
    "make_folds",
    "run_fold_experiment",
    "save_bank",
    "train_bank",
    "validate_series",
]
