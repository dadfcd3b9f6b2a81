"""Integrated hardware-software performance modeling — the paper's core.

Public API:

* data containers: :class:`ProfileRecord`, :class:`ProfileDataset`
* specifications: :class:`ModelSpec`, :class:`TransformKind`
* fitting: :class:`InferredModel`, :func:`fit_ols`
* automated search: :class:`GeneticSearch`, :class:`Chromosome`
* baselines: :func:`stepwise_search`, :func:`manual_general_spec`
* metrics: :func:`median_error`, :func:`pearson_correlation`,
  :class:`BoxplotStats`

System dynamics (§3.2-§3.3: absorb new software, re-specify when it is
poorly served) live in :class:`repro.stream.StreamingRespecifier`, whose
default :class:`repro.stream.DriftConfig` is the paper's update policy.
"""

from repro.core.dataset import ProfileDataset, ProfileRecord
from repro.core.transforms import (
    TransformKind,
    FittedTransform,
    fit_transform,
    stabilize,
    choose_ladder_power,
    skewness,
    spline_knots,
)
from repro.core.design import ModelSpec, DesignMatrixBuilder, normalize_interaction
from repro.core.collinearity import (
    prune_correlated,
    prune_rank_deficient,
    prune_design,
    variance_inflation_factors,
)
from repro.core.regression import (
    LinearFit,
    accumulate_gram,
    fit_ols,
    r_squared,
    solve_gram,
)
from repro.core.metrics import (
    BoxplotStats,
    absolute_percentage_errors,
    median_error,
    pearson_correlation,
    spearman_correlation,
)
from repro.core.model import InferredModel
from repro.core.chromosome import Chromosome, chromosome_from_spec
from repro.core.fitness import FitnessResult, derive_app_splits, evaluate_spec
from repro.core.engine import FitnessEngine
from repro.core.genetic import GeneticSearch, SearchResult, GenerationRecord
from repro.core.transfer import (
    TransferOutcome,
    TransferTrial,
    generations_to_target,
    shared_representation_score,
    transfer_search,
    warm_start_population,
)
from repro.core.stepwise import stepwise_search
from repro.core.manual import manual_general_spec
from repro.core.significance import (
    SignificanceReport,
    inclusion_frequency,
    interaction_matrix,
    modal_transforms,
    table3_rows,
    transform_histogram,
)
from repro.core.serialize import (
    SCHEMA_VERSION,
    ModelFormatError,
    load_model,
    model_from_dict,
    model_to_dict,
    payload_checksum,
    save_model,
)

__all__ = [
    "ProfileDataset",
    "ProfileRecord",
    "TransformKind",
    "FittedTransform",
    "fit_transform",
    "stabilize",
    "choose_ladder_power",
    "skewness",
    "spline_knots",
    "ModelSpec",
    "DesignMatrixBuilder",
    "normalize_interaction",
    "prune_correlated",
    "prune_rank_deficient",
    "prune_design",
    "variance_inflation_factors",
    "LinearFit",
    "accumulate_gram",
    "fit_ols",
    "r_squared",
    "solve_gram",
    "BoxplotStats",
    "absolute_percentage_errors",
    "median_error",
    "pearson_correlation",
    "spearman_correlation",
    "InferredModel",
    "Chromosome",
    "chromosome_from_spec",
    "FitnessResult",
    "derive_app_splits",
    "evaluate_spec",
    "FitnessEngine",
    "GeneticSearch",
    "SearchResult",
    "GenerationRecord",
    "TransferOutcome",
    "TransferTrial",
    "generations_to_target",
    "shared_representation_score",
    "transfer_search",
    "warm_start_population",
    "stepwise_search",
    "manual_general_spec",
    "SignificanceReport",
    "inclusion_frequency",
    "interaction_matrix",
    "modal_transforms",
    "table3_rows",
    "transform_histogram",
    "SCHEMA_VERSION",
    "ModelFormatError",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "payload_checksum",
    "save_model",
]
