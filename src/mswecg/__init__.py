"""Multi-scale windowed-attention transformer for multilabel ECG classification."""

from .config import MswConfig
from .data import Dataset, DatasetHeader, SynthSpec
from .metrics import EvalBatch, MetricReport
from .model import ForwardResult, forward, predict
from .params import ParamStore, init_params, load_checkpoint, save_checkpoint
from .train import AdamState, TrainConfig, TrainResult, train_loop

__all__ = [
    "MswConfig",
    "Dataset",
    "DatasetHeader",
    "SynthSpec",
    "EvalBatch",
    "MetricReport",
    "ForwardResult",
    "forward",
    "predict",
    "ParamStore",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
    "AdamState",
    "TrainConfig",
    "TrainResult",
    "train_loop",
]

__version__ = "0.1.0"
