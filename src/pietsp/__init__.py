"""Permutation-aware temporal set prediction: model, training, metrics, benchmarks."""

from .bench import BenchReport
from .data import (
    Corpus,
    PreparedSample,
    SyntheticSpec,
    UserRecord,
    gen_synthetic,
    load_corpus,
    prepare_sample,
    split_users,
)
from .errors import PietspError
from .metrics import MetricReport, ndcg_at_k, recall_at_k, top_k, top_k_rows
from .model import ForwardTrace, ModelParams, backward, forward, init_params
from .optim import AdamState, adam_step, cosine_lr
from .train import FitResult, TrainConfig, bce_loss, evaluate, fit

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BenchReport",
    "Corpus",
    "FitResult",
    "ForwardTrace",
    "MetricReport",
    "ModelParams",
    "PietspError",
    "PreparedSample",
    "SyntheticSpec",
    "TrainConfig",
    "UserRecord",
    "adam_step",
    "backward",
    "bce_loss",
    "cosine_lr",
    "evaluate",
    "fit",
    "forward",
    "gen_synthetic",
    "init_params",
    "load_corpus",
    "ndcg_at_k",
    "prepare_sample",
    "recall_at_k",
    "split_users",
    "top_k",
    "top_k_rows",
]
