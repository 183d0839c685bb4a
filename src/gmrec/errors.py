"""Exception types shared across the engine.

Every error raised by gmrec derives from EngineError so that callers
(and the CLI) can distinguish engine failures from programming bugs.
"""


class EngineError(Exception):
    """Base class for all gmrec errors."""


class InvalidConfigError(EngineError):
    """A configuration value is outside its allowed range.

    `field` names the offending setting when one is to blame.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class MissingEmbeddingError(EngineError):
    """An attribute id has no vector in the embedding table."""


class ShapeError(EngineError):
    """Operand shapes do not conform to a primitive's contract."""


class ContractError(EngineError):
    """A precondition of an operation was violated."""


class NumericError(EngineError):
    """A computation produced a non-finite value."""


class UndefinedMetricError(EngineError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class ParseError(EngineError):
    """A dataset line could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyDatasetError(EngineError):
    """Parsing or filtering produced no usable samples."""


class SamplingError(EngineError):
    """Negative sampling could not satisfy its contract."""


class CheckpointError(EngineError):
    """A checkpoint file is malformed, truncated, or of the wrong version."""


class TrainingError(EngineError):
    """Training aborted, e.g. because the loss became non-finite."""
