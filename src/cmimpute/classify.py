"""Classification of new complete records: the mapped pipeline reused
as a classifier, plus the raw 1-NN baseline it is compared against.

The training side of both (the data checks, the training matrix and
the mapping table of the last model given) is fitted once per training
dataset, on its first query, and kept on the dataset.  A query then
pays only for its own mapping value and the donor search
impute_dataset makes (mapped), or a screened search that squares
only the rows that may be nearest (raw 1-NN); its distance column is
computed when read."""

from __future__ import annotations

from functools import cache, cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import MAX_MAGNITUDE, TOO_LARGE, Dataset, Record
from .errors import CannotClassifyError, NoDonorsError, ParseError, SchemaError
from .impute import MODE_ABSOLUTE, _select_all
from .kmeans import ClusterModel
from .mapping import MappingTable, check_model, map_values, nearest_rows, squared_distances


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


def check_training_data(dataset: Dataset) -> _Fit:
    """The dataset's fit, built by the first call that passes the checks
    both classifiers run on their training dataset: it is non-empty,
    complete (a ParseError) and fully labeled.  A dataset that fails
    them keeps no fit and fails them again next time."""
    fit = dataset._memo.get(_Fit)
    if fit is None:
        if not len(dataset):
            raise NoDonorsError("empty training dataset")
        incomplete = np.isnan(dataset.matrix).any(axis=1)
        if incomplete.any():
            rid = dataset.ids[int(incomplete.argmax())]
            raise ParseError(f"training record {rid} has missing cells; impute first")
        unlabeled = [rid for rid, label in zip(dataset.ids, dataset.labels) if label is None]
        if unlabeled:
            raise CannotClassifyError(f"training records without labels: {unlabeled}")
        fit = dataset._memo[_Fit] = _Fit(dataset)
    return fit


class _Fit:
    """The training side of both classifiers for one checked training
    dataset: its ids, labels, id -> row map and matrix, but not the
    dataset, so the dataset that keeps it is still freed by reference
    counting, and one slot for a model, its checked centroids and its
    training mapping table."""

    def __init__(self, dataset: Dataset) -> None:
        self.ids, self.labels, self.rows, self.matrix = dataset.ids, dataset.labels, dataset._by_id, dataset.matrix
        self._model = self._slot = None

    @cached_property
    def by_column(self) -> np.ndarray:
        """The matrix in column-major order, for nearest_rows."""
        return np.asfortranarray(self.matrix)

    def result(self, rows: Sequence[int], table: Mapping[str, float]) -> ClassificationResult:
        """The answer whose nearest training records are the given rows."""
        labels = tuple(sorted({self.labels[r] for r in rows}))
        return ClassificationResult(labels, tuple(self.ids[r] for r in rows), table)

    def mapping(self, model: ClusterModel) -> tuple[np.ndarray, MappingTable]:
        """The model's checked centroids and the training records mapped
        under them (complete, as check_training_data proved), both made
        anew whenever a model other than the slot's arrives."""
        if model is not self._model:
            if set(model.assignment) != set(self.rows):
                raise SchemaError("model was built on different records than the training dataset")
            centroids = check_model(model, self.matrix.shape[1])
            maps = MappingTable(self.ids, map_values(self.matrix, centroids), (), np.empty(0))
            self._slot, self._model = (centroids, maps), model
        return self._slot


def _query_row(query: Record, dataset: Dataset) -> np.ndarray:
    """The query's cells as a float row, checked in plain Python to be
    of the training records' arity and, as in a Dataset, complete (NaN
    is missing) and within MAX_MAGNITUDE."""
    if not query.is_complete or any(v != v for v in query.cells):
        raise ParseError(f"query record {query.id} has missing cells")
    n = dataset.schema.arity
    if len(query.cells) != n:
        raise SchemaError(f"query {query.id} has {len(query.cells)} cells, training records have {n}")
    for value, spec in zip(query.cells, dataset.schema.attributes):
        if abs(value) > MAX_MAGNITUDE:
            raise SchemaError(TOO_LARGE.format(query.id, float(value), spec.name))
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
    fit = check_training_data(dataset)
    centroids, maps = fit.mapping(model)
    (result,) = _classify(fit, maps, centroids, _query_row(query, dataset)[None, :], mode)
    return result


def classify_mapped_all(
    queries: Dataset,
    dataset: Dataset,
    model: ClusterModel,
    mode: str = MODE_ABSOLUTE,
) -> list[ClassificationResult]:
    """classify_mapped for every record of queries, a dataset of
    complete records (a missing cell is a ParseError), in order: one
    mapping call and one selection for all of them."""
    fit = check_training_data(dataset)
    centroids, maps = fit.mapping(model)
    if queries.schema.arity != dataset.schema.arity:
        raise SchemaError(f"queries have {queries.schema.arity} attributes, training records {dataset.schema.arity}")
    holed = np.isnan(queries.matrix).any(axis=1)
    if holed.any():
        raise ParseError(f"query record {queries.ids[int(holed.argmax())]} has missing cells")
    return _classify(fit, maps, centroids, queries.matrix, mode)


def _classify(fit: _Fit, maps: MappingTable, centroids: np.ndarray, X, mode: str) -> list[ClassificationResult]:
    """Mapped answers for the checked query rows X, maps holding the
    training records mapped under the checked centroids: one mapping
    call and one selection, impute_dataset's."""
    c = map_values(X, centroids)
    run, runs = _select_all(maps, c, mode)
    return [_mapped(fit, maps, runs[r], v) for r, v in zip(run, c.tolist())]


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
    fit = check_training_data(dataset)
    X, q = fit.matrix, _query_row(query, dataset)
    rows, exact = nearest_rows(fit.by_column, q)
    distances = np.sqrt(exact)
    column = cache(lambda: np.sqrt(squared_distances(X, q[None, :])[:, 0]))
    return fit.result(rows[distances == distances.min()].tolist(), _Column(fit.rows, lambda row: float(column()[row])))
