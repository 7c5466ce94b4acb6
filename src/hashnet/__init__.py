"""Supervised learning-to-hash toolkit.

Trains a multilayer hashing network with an alternating scheme that keeps
an explicitly binary copy of the codes, then serves exact Hamming-distance
retrieval over bit-packed codes with mAP evaluation.
"""

from .errors import (
    DivergenceError,
    FormatError,
    InvalidInput,
    NumericalFailure,
    UndefinedMetric,
)
from .hashloss import Hyperparams, loss_grad, loss_terms, similarity_matrix
from .index import (
    PackedCodes,
    binarize,
    mean_average_precision,
    pack,
    search,
    unpack,
)
from .network import (
    Layer,
    NetworkParams,
    SgdConfig,
    backward,
    forward,
    init_head_layers,
    sgd_step,
    zero_velocity,
)
from .numerics import EigenDecomposition, procrustes_rotation, sym_eig
from .pretrain import ItqResult, PcaModel, init_binary_codes, itq, pca_fit
from .trainer import (
    BatchRecord,
    LabeledFeatures,
    TrainSchedule,
    TrainState,
    default_schedule,
    quantization_gap,
    train,
    update_codes,
)

__version__ = "0.1.0"

__all__ = [
    "BatchRecord",
    "DivergenceError",
    "EigenDecomposition",
    "FormatError",
    "Hyperparams",
    "InvalidInput",
    "ItqResult",
    "LabeledFeatures",
    "Layer",
    "NetworkParams",
    "NumericalFailure",
    "PackedCodes",
    "PcaModel",
    "SgdConfig",
    "TrainSchedule",
    "TrainState",
    "UndefinedMetric",
    "backward",
    "binarize",
    "default_schedule",
    "forward",
    "init_binary_codes",
    "init_head_layers",
    "itq",
    "loss_grad",
    "loss_terms",
    "mean_average_precision",
    "pack",
    "pca_fit",
    "procrustes_rotation",
    "quantization_gap",
    "search",
    "sgd_step",
    "similarity_matrix",
    "sym_eig",
    "train",
    "unpack",
    "update_codes",
    "zero_velocity",
    "__version__",
]
