"""Classification of new complete records: the mapped pipeline reused
as a classifier, plus the raw 1-NN baseline it is compared against.

The training side of both (the data checks, the training matrix and,
per model, the training mapping table) is fitted once per training
dataset, on its first query, and kept on the dataset.  A query then
pays only for its own mapping value, a bisect and the O(m) column."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dataset import Dataset, Record
from .errors import CannotClassifyError, NoDonorsError
from .impute import MODE_ABSOLUTE, nearest_donors
from .kmeans import ClusterModel
from .mapping import MappingTable, build_mapping, check_map_value, map_query, squared_distances


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


class _Fit:
    """The training side of both classifiers for one checked training
    dataset.  It holds the dataset's records but not the dataset, so
    the dataset that keeps it is still freed by reference counting."""

    def __init__(self, dataset: Dataset) -> None:
        _check_training_data(dataset)
        self.records = dataset.records
        self.ids = tuple(r.id for r in dataset.records)
        self.matrix = dataset.matrix
        self._maps: dict[int, tuple[ClusterModel, MappingTable]] = {}

    def mapping(self, model: ClusterModel) -> MappingTable:
        """The training records mapped under the model, built and
        checked on the model's first use.  Entries are keyed by
        id(model) and hold the model itself, so the identity test never
        matches a different model that reuses a freed id."""
        entry = self._maps.get(id(model))
        if entry is None or entry[0] is not model:
            if set(model.assignment) != set(self.ids):
                raise ValueError("model was built on different records than the training dataset")
            entry = self._maps[id(model)] = (model, build_mapping(self.records, [], model))
        return entry[1]


def _fit(dataset: Dataset) -> _Fit:
    """The dataset's fit, built on the first call.  A dataset that
    fails the checks keeps no fit and fails them again next time."""
    fit = dataset._memo.get(_Fit)
    if fit is None:
        fit = dataset._memo[_Fit] = _Fit(dataset)
    return fit


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
    fit = _fit(dataset)
    if not query.is_complete:
        raise ValueError(f"query {query.id} has missing cells")
    maps = fit.mapping(model)
    c = check_map_value("query_map", query.id, map_query(query, model))
    nearest = nearest_donors(maps, c, mode)
    labels = tuple(sorted({dataset.record(i).label for i in nearest}))
    column = {i: v - c for i, v in maps.complete_map.items()}
    return ClassificationResult(labels, nearest, column)


def classify_raw_knn(query: Record, dataset: Dataset) -> ClassificationResult:
    """Full-dimensional Euclidean 1-NN over the training records.

    All tied nearest records are returned with the union of their
    labels; with neighbors from different classes this yields the
    multi-label ambiguity the mapped classifier avoids.

    Distances come from the mapping's own kernel, one call over the
    training matrix, so they equal type1_distance bit for bit.
    """
    fit = _fit(dataset)
    if not query.is_complete:
        raise ValueError(f"query {query.id} has missing cells")
    n = fit.matrix.shape[1]
    if len(query.cells) != n:
        raise ValueError(f"query {query.id} has {len(query.cells)} cells, training records have {n}")
    squared = squared_distances(fit.matrix, [query.cells])[:, 0]
    distances = dict(zip(fit.ids, np.sqrt(squared).tolist()))
    best = min(distances.values())
    nearest = tuple(i for i in fit.ids if distances[i] == best)
    labels = tuple(sorted({dataset.record(i).label for i in nearest}))
    return ClassificationResult(labels, nearest, distances)
