"""Attribute-graph matching recommender.

Users and items become complete graphs over their attribute-value pairs.
Same-side attribute interactions are modeled by neural message passing,
user-item interactions by elementwise node matching; a GRU fuses both
signals per node and the two aggregated graph representations are matched
by dot product to score the pair.
"""

from .autodiff import ArrayOps, Parameter, RowLocalOps, Tape, Value, gradient_check
from .data import (
    ITEM,
    USER,
    AttributeId,
    AttributeValuePair,
    DataSample,
    EmbeddingTable,
    init_embeddings,
    sample_item_key,
    sample_user_key,
    universe_of,
)
from .dataio import (
    Dataset,
    ParseOptions,
    SynthSpec,
    Vocabulary,
    generate_synthetic,
    load_checkpoint,
    parse_dataset,
    parse_dataset_lines,
    save_checkpoint,
    serialize_dataset,
    write_synthetic,
)
from .errors import (
    CheckpointError,
    ContractError,
    EmptyDatasetError,
    EngineError,
    InvalidConfigError,
    MissingEmbeddingError,
    NumericError,
    ParseError,
    SamplingError,
    ShapeError,
    TrainingError,
    UndefinedMetricError,
)
from .metrics import (
    ScoredSample,
    auc,
    bce_loss,
    evaluate_model,
    export_matrices,
    format_matrix,
    format_metric_report,
    logloss,
    ndcg_at_k,
    score_dataset,
)
from .model import (
    CANONICAL,
    FM_REDUCTION,
    ForwardResult,
    GruWeights,
    MlpWeights,
    ModelParams,
    NodeDiagnostics,
    VariantConfig,
    format_variant,
    fuse,
    init_model_params,
    parse_variant,
    predict,
    score_samples,
)
from .selfcheck import fm_predict, fm_reduction_predict, run_fmcheck, run_gradcheck
from .training import (
    AdamState,
    EpochLog,
    SplitDataset,
    TrainConfig,
    TrainResult,
    ablate,
    adam_step,
    item_pool_of,
    l2_penalty,
    negative_sample,
    regularized_risk,
    split_per_user,
    train,
)

__version__ = "0.1.0"
