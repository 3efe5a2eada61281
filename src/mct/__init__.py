"""Transductive few-shot classification with meta-learned confidence.

The pieces compose bottom-up: ``numkit`` provides a small reverse-mode
tape over numpy, ``episodes`` samples few-shot tasks from synthetic
Gaussians or embedding tables, ``encoder`` and ``metric`` define the
model, ``transduce`` refines prototypes with confidence-weighted query
mass, ``metatrain`` fits everything episodically, and ``evalcli`` wraps
evaluation, gradient checking, and the command line.
"""

from .checkpoint import ModelState, load_state, save_state, load_tensors, save_tensors
from .encoder import (
    VIEWS,
    EncoderParams,
    PerturbPolicy,
    ViewSpec,
    embedding_dim,
    encode_batch,
    per_position,
    perturb_input,
    view_by_name,
)
from .episodes import (
    BayesOracle,
    EmbeddingTable,
    Episode,
    SyntheticSpec,
    derive_seed,
    gen_synthetic,
    load_embeddings,
    sample_episode,
    save_embeddings,
)
from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    FormatError,
    MctError,
)
from .evalcli import (
    EvalProtocol,
    GradcheckReport,
    Report,
    evaluate,
    gradcheck,
    main,
    nll,
    render_jsonl,
    render_table,
)
from .metatrain import (
    GlobalClassifier,
    LrSchedule,
    StepReport,
    TrainConfig,
    TrainState,
    dimension_loss,
    lr_at,
    train,
    train_step,
    training_loss,
)
from .metric import METRIC_KINDS, MetricSpec, ScalerParams, pairwise, scaler_eval
from .transduce import predict_labels, refine_batch, update_prototypes

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MctError", "DomainError", "ContractError", "CapacityError", "FormatError",
    # episodes
    "Episode", "SyntheticSpec", "EmbeddingTable", "BayesOracle",
    "sample_episode", "gen_synthetic", "derive_seed",
    "save_embeddings", "load_embeddings",
    # encoder
    "EncoderParams", "ViewSpec", "VIEWS", "view_by_name", "embedding_dim",
    "encode_batch", "per_position", "PerturbPolicy", "perturb_input",
    # metric
    "MetricSpec", "ScalerParams", "METRIC_KINDS",
    "scaler_eval", "pairwise",
    # transduction
    "update_prototypes", "refine_batch", "predict_labels",
    # training
    "TrainConfig", "TrainState", "StepReport", "GlobalClassifier",
    "LrSchedule", "lr_at", "dimension_loss",
    "training_loss", "train", "train_step",
    # checkpoints
    "ModelState", "save_state", "load_state", "save_tensors", "load_tensors",
    # evaluation
    "EvalProtocol", "Report", "evaluate", "nll", "render_jsonl",
    "render_table", "GradcheckReport", "gradcheck", "main",
]
