"""Classification of new complete records: the mapped pipeline reused
as a classifier, plus the raw 1-NN baseline it is compared against.

The training side of both (the data checks, the training matrix and,
per model, the training mapping table) is fitted once per training
dataset, on its first query, and kept on the dataset.  A query then
pays only for its own mapping value and a bisect (mapped) or a
screened search that squares only the rows that may be nearest (raw
1-NN); its distance column is computed when read."""

from __future__ import annotations

from functools import cache, cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import Dataset, Record
from .errors import CannotClassifyError, NoDonorsError, ParseError
from .impute import MODE_ABSOLUTE, _nearest_rows, _select_all
from .kmeans import ClusterModel
from .mapping import (
    MappingTable,
    check_map_value,
    map_values,
    nearest_rows,
    squared_distances,
)


class ClassificationResult(NamedTuple):
    """Predicted label(s), the training record(s) that carried them,
    and the per-record distance column the decision came from, a
    read-only mapping whose values are computed when read."""

    labels: tuple[str, ...]
    nearest: tuple[str, ...]
    table: Mapping[str, float]

    @property
    def is_ambiguous(self) -> bool:
        return len(self.labels) > 1


class _Column(Mapping[str, float]):
    """A read-only id -> value column that computes each value when it
    is read, as value(source[id]), so a query whose column nobody reads
    pays nothing for it."""

    def __init__(self, source: Mapping[str, object], value: Callable[[object], float]) -> None:
        self._source = source
        self._value = value

    def __getitem__(self, rid: str) -> float:
        return self._value(self._source[rid])

    def __iter__(self) -> Iterator[str]:
        return iter(self._source)

    def __len__(self) -> int:
        return len(self._source)


def check_training_data(dataset: Dataset) -> None:
    """The checks both classifiers run on their training dataset: it is
    non-empty, encoded, complete (a ParseError) and fully labeled."""
    if not len(dataset):
        raise NoDonorsError("empty training dataset")
    incomplete = np.isnan(dataset.matrix).any(axis=1)
    if incomplete.any():
        rid = dataset.ids[int(incomplete.argmax())]
        raise ParseError(f"training record {rid} has missing cells; impute first")
    unlabeled = [rid for rid, label in zip(dataset.ids, dataset.labels) if label is None]
    if unlabeled:
        raise CannotClassifyError(f"training records without labels: {unlabeled}")


class _Fit:
    """The training side of both classifiers for one checked training
    dataset: its ids, labels, id -> row map and matrix, but not the
    dataset, so the dataset that keeps it is still freed by reference
    counting."""

    def __init__(self, dataset: Dataset) -> None:
        check_training_data(dataset)
        self.ids, self.labels, self.rows, self.matrix = dataset.ids, dataset.labels, dataset._by_id, dataset.matrix
        self._maps: dict[int, tuple[ClusterModel, MappingTable]] = {}

    @cached_property
    def by_column(self) -> np.ndarray:
        """The matrix in column-major order, for nearest_rows."""
        return np.asfortranarray(self.matrix)

    def result(self, rows: Sequence[int], table: Mapping[str, float]) -> ClassificationResult:
        """The answer whose nearest training records are the given rows."""
        labels = tuple(sorted({self.labels[r] for r in rows}))
        return ClassificationResult(labels, tuple(self.ids[r] for r in rows), table)

    def mapping(self, model: ClusterModel) -> MappingTable:
        """The training records mapped under the model, built and
        checked on the model's first use.  Entries are keyed by
        id(model) and hold the model itself, so the identity test never
        matches a different model that reuses a freed id."""
        entry = self._maps.get(id(model))
        if entry is None or entry[0] is not model:
            if set(model.assignment) != set(self.rows):
                raise ValueError("model was built on different records than the training dataset")
            n, arity = self.matrix.shape[1], len(model.centroids[0])
            if n != arity:
                raise ValueError(f"dataset has {n} attributes, the model's centroids {arity}")
            maps = MappingTable(self.ids, map_values(self.matrix, model.centroids), (), np.empty(0))
            entry = self._maps[id(model)] = (model, maps)
        return entry[1]


def _fit(dataset: Dataset) -> _Fit:
    """The dataset's fit, built on the first call.  A dataset that
    fails the checks keeps no fit and fails them again next time."""
    fit = dataset._memo.get(_Fit)
    if fit is None:
        fit = dataset._memo[_Fit] = _Fit(dataset)
    return fit


def _query_row(query: Record, dataset: Dataset) -> np.ndarray:
    """The query's cells as a float row, checked to be complete and of
    the training records' arity."""
    if not query.is_complete:
        raise ValueError(f"query {query.id} has missing cells")
    n = dataset.schema.arity
    if len(query.cells) != n:
        raise ValueError(f"query {query.id} has {len(query.cells)} cells, training records have {n}")
    return np.array(query.cells, dtype=float)


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
    maps = fit.mapping(model)
    q = _query_row(query, dataset)
    c = check_map_value("query_map", query.id, float(map_values(q[None, :], model.centroids)[0]))
    return _mapped(fit, maps, _nearest_rows(maps, c, mode), c)


def classify_mapped_all(
    queries: Dataset,
    dataset: Dataset,
    model: ClusterModel,
    mode: str = MODE_ABSOLUTE,
) -> list[ClassificationResult]:
    """classify_mapped for every record of queries, an encoded dataset
    of complete records, in order: one mapping call for all of them,
    and one selection, the one impute_dataset makes."""
    fit = _fit(dataset)
    if queries.schema.arity != dataset.schema.arity:
        raise ValueError(f"queries have {queries.schema.arity} attributes, training records {dataset.schema.arity}")
    incomplete = np.isnan(queries.matrix).any(axis=1)
    if incomplete.any():
        raise ValueError(f"query {queries.ids[int(incomplete.argmax())]} has missing cells")
    maps = fit.mapping(model)
    c = map_values(queries.matrix, model.centroids)
    values = [check_map_value("query_map", rid, v) for rid, v in zip(queries.ids, c.tolist())]
    return [_mapped(fit, maps, rows, v) for rows, v in zip(_select_all(maps, c, mode), values)]


def _mapped(fit: _Fit, maps: MappingTable, rows: Sequence[int], c: float) -> ClassificationResult:
    """The mapped classifier's answer: nearest rows, mapping value c."""
    return fit.result(rows, _Column(maps.complete_map, lambda v: v - c))


def classify_raw_knn(query: Record, dataset: Dataset) -> ClassificationResult:
    """Full-dimensional Euclidean 1-NN over the training records.

    All tied nearest records are returned with the union of their
    labels; with neighbors from different classes this yields the
    multi-label ambiguity the mapped classifier avoids.

    Distances come from the mapping's own kernel, squared_distances,
    bit for bit: nearest_rows screens the training matrix and squares
    only the rows that may be nearest, and the table's column is one
    kernel call over the whole matrix, made when the table is first
    read.
    """
    fit = _fit(dataset)
    X, q = fit.matrix, _query_row(query, dataset)
    rows, exact = nearest_rows(fit.by_column, q)
    distances = np.sqrt(exact)
    column = cache(lambda: np.sqrt(squared_distances(X, q[None, :])[:, 0]))
    return fit.result(rows[distances == distances.min()].tolist(), _Column(fit.rows, lambda row: float(column()[row])))
