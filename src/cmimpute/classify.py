"""Classification of new complete records: the mapped pipeline reused
as a classifier, plus the raw 1-NN baseline it is compared against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .dataset import Dataset, Record
from .errors import CannotClassifyError, NoDonorsError
from .impute import MODE_ABSOLUTE, nearest_record
from .kmeans import ClusterModel
from .mapping import build_mapping, type1_distance


@dataclass(frozen=True)
class ClassificationResult:
    """Predicted label(s), the training record(s) that carried them,
    and the per-record distance column the decision came from."""

    labels: tuple[str, ...]
    nearest: tuple[str, ...]
    table: Mapping[str, float]

    @property
    def is_ambiguous(self) -> bool:
        return len(self.labels) > 1


def _check_training_data(dataset: Dataset) -> None:
    if not dataset.records:
        raise NoDonorsError("empty training dataset")
    if not dataset.is_encoded:
        raise ValueError("training dataset must be encoded")
    for r in dataset.records:
        if not r.is_complete:
            raise ValueError(f"training record {r.id} has missing cells; impute first")
    unlabeled = [r.id for r in dataset.records if r.label is None]
    if unlabeled:
        raise CannotClassifyError(f"training records without labels: {unlabeled}")


def classify_mapped(
    query: Record,
    dataset: Dataset,
    model: ClusterModel,
    mode: str = MODE_ABSOLUTE,
) -> ClassificationResult:
    """Assign the label of the training record nearest to the query on
    the mapping scalar.

    The model must cluster exactly the given dataset (the classifier
    re-clusters completed data rather than reusing an imputation-time
    model, so post-imputation records participate).  Returns all tied
    labels when several records attain the minimal difference.
    """
    _check_training_data(dataset)
    if not query.is_complete:
        raise ValueError(f"query {query.id} has missing cells")
    model_ids = set(model.assignment)
    data_ids = {r.id for r in dataset.records}
    if model_ids != data_ids:
        raise ValueError("model was built on different records than the training dataset")

    maps = build_mapping(dataset.records, [query], model)
    nearest = nearest_record(maps, query.id, mode)
    labels = tuple(sorted({dataset.record(i).label for i in nearest}))
    c = maps.query_map[query.id]
    column = {i: v - c for i, v in maps.complete_map.items()}
    return ClassificationResult(labels, nearest, column)


def classify_raw_knn(query: Record, dataset: Dataset) -> ClassificationResult:
    """Full-dimensional Euclidean 1-NN over the training records.

    All tied nearest records are returned with the union of their
    labels; with neighbors from different classes this yields the
    multi-label ambiguity the mapped classifier avoids.
    """
    _check_training_data(dataset)
    if not query.is_complete:
        raise ValueError(f"query {query.id} has missing cells")
    distances = {
        r.id: type1_distance(query, [float(c) for c in r.cells]) for r in dataset.records
    }
    best = min(distances.values())
    nearest = tuple(r.id for r in dataset.records if distances[r.id] == best)
    labels = tuple(sorted({dataset.record(i).label for i in nearest}))
    return ClassificationResult(labels, nearest, distances)
