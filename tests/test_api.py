"""The public surface of gmrec, pinned: a name added to or removed from the
package's namespace shows up as a reviewed change to the list below."""
import types

import gmrec

PUBLIC_NAMES = [
    "AdamState", "ArrayOps", "AttributeId", "AttributeValuePair", "CANONICAL", "CheckpointError",
    "ContractError", "DataSample", "Dataset", "EmbeddingTable", "EmptyDatasetError", "EngineError",
    "EpochLog", "FM_REDUCTION", "ForwardResult", "GruWeights", "ITEM", "InvalidConfigError",
    "MissingEmbeddingError", "MlpWeights", "ModelParams", "NodeDiagnostics", "NumericError",
    "Parameter", "ParseError", "ParseOptions", "RowLocalOps", "SamplingError", "ScoredSample",
    "ShapeError", "SplitDataset", "SynthSpec", "Tape", "TrainConfig", "TrainResult",
    "TrainingError", "USER", "UndefinedMetricError", "Value", "VariantConfig", "Vocabulary",
    "ablate", "adam_step", "auc", "bce_loss", "evaluate_model", "export_matrices", "fm_predict",
    "fm_reduction_predict", "format_matrix", "format_metric_report", "format_variant", "fuse",
    "generate_synthetic", "gradient_check", "init_embeddings", "init_model_params", "item_pool_of",
    "l2_penalty", "load_checkpoint", "logloss", "ndcg_at_k", "negative_sample", "parse_dataset",
    "parse_dataset_lines", "parse_variant", "predict", "regularized_risk", "run_fmcheck",
    "run_gradcheck", "sample_item_key", "sample_user_key", "save_checkpoint", "score_dataset",
    "score_samples", "serialize_dataset", "split_per_user", "train", "universe_of",
    "write_synthetic",
]


def test_public_names_are_pinned():
    """gmrec's names without a leading underscore, submodules left out."""
    names = sorted(name for name, value in vars(gmrec).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
