"""The paper's contribution: MSCN featurization, model, training, sketches."""

from .batches import Batch, TrainingSet, collate
from .builder import (
    BuildReport,
    PendingBuild,
    ProgressEvent,
    STAGES,
    SketchBuilder,
    SketchConfig,
    build_sketch,
)
from .estimator import CardinalityEstimator, estimate_sql
from .maintenance import (
    DriftReport,
    RefreshResult,
    detect_drift,
    refresh_sketch,
    try_refresh_sketch,
)
from .featurization import Featurizer, QueryFeatures
from .mscn import MSCN
from .sketch import DeepSketch
from .training import (
    EpochStats,
    GeneralizationReport,
    TemplateEvalResult,
    Trainer,
    TrainingConfig,
    TrainingResult,
    evaluate_on_suite,
    run_generalization_experiment,
    validation_qerrors,
)

__all__ = [
    "Featurizer",
    "QueryFeatures",
    "Batch",
    "TrainingSet",
    "collate",
    "MSCN",
    "Trainer",
    "TrainingConfig",
    "TrainingResult",
    "EpochStats",
    "validation_qerrors",
    "DeepSketch",
    "SketchBuilder",
    "SketchConfig",
    "BuildReport",
    "PendingBuild",
    "ProgressEvent",
    "STAGES",
    "build_sketch",
    "CardinalityEstimator",
    "estimate_sql",
    "DriftReport",
    "RefreshResult",
    "detect_drift",
    "refresh_sketch",
    "try_refresh_sketch",
    "TemplateEvalResult",
    "GeneralizationReport",
    "evaluate_on_suite",
    "run_generalization_experiment",
]
