"""Cluster-center mapping for mixed-type tabular records.

Complete records are clustered, each record collapses to the sum of
its distances to every cluster center (its mapping value), and a
record with missing cells borrows those cells from the complete record
whose mapping value sits nearest.  The same machinery labels new
records.  See the README for the two nearest-donor modes and their
very different behavior.
"""

from __future__ import annotations

from .classify import ClassificationResult, classify_mapped, classify_raw_knn
from .dataset import (
    CATEGORICAL,
    NUMERIC,
    AttributeSpec,
    Dataset,
    GroupSplit,
    Record,
    Schema,
    dataset_to_csv,
    decode_dataset,
    encode,
    load_dataset,
    load_schema,
    parse_dataset,
    schema_from_dict,
    split_groups,
    write_dataset,
)
from .errors import (
    CannotClassifyError,
    ConfigError,
    DecodeError,
    InsufficientDataError,
    NoDonorsError,
    ParseError,
    SchemaError,
)
from .evaluate import (
    ALL_METHODS,
    EvaluationReport,
    ExperimentConfig,
    MaskPlan,
    inject_mcar,
    make_synthetic_dataset,
    run_experiment,
    score_imputation,
)
from .impute import (
    MODE_ABSOLUTE,
    MODE_SIGNED,
    MODES,
    DifferenceTable,
    ImputationResult,
    ImputeConfig,
    difference_table,
    impute_dataset,
    nearest_record,
)
from .kmeans import (
    ClusterModel,
    FarthestFirst,
    FixedPartition,
    SeededRandom,
    cluster,
)
from .mapping import (
    MappingTable,
    build_mapping,
)

__version__ = "0.1.0"

