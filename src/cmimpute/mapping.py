"""Cluster-center distances and the reduction of every record to a
single scalar: the sum of its distances to all centroids."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .dataset import Record, cell_matrix
from .kmeans import ClusterModel


def squared_distances(X, U) -> np.ndarray:
    """(m, k) squared Euclidean distances from every row of X to every
    row of U over the coordinates both observe: the one distance
    kernel.  NaN marks a missing cell, so a complete record's distance
    is its partial distance over every cell.

    The arithmetic is fixed: each term (c - u) ** 2 is squared by libm
    pow (np.float_power; NumPy's square, x * x and power(x, 2) round
    differently for roughly 0.1% of values), a missing term adds an
    exact +0.0, and each row's terms are added left to right in
    attribute order, starting from 0.0 (never np.sum, einsum or @, whose
    order differs, nor Python's sum(), which compensates from 3.12 on).
    """
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    d = X[:, None, :] - U[None, :, :]
    terms = np.float_power(np.where(np.isnan(d), 0.0, d), 2.0)
    total = np.zeros(terms.shape[:2])
    for attr in range(terms.shape[2]):
        total += terms[:, :, attr]
    return total


def map_values(X, centroids) -> np.ndarray:
    """Map'(R) for every row of X: its distances to the centroids,
    added left to right in centroid order."""
    distances = np.sqrt(squared_distances(X, centroids))
    total = np.zeros(len(distances))
    for column in distances.T:
        total += column
    return total


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean of values, added left to right from 0.0 as
    the kernel adds its terms, so it is the same on every Python."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _row(record: Record, centroids: Sequence[Sequence[float]]) -> list[tuple]:
    """The record as a one-row input of the kernel, once its arity is
    checked against every centroid."""
    for centroid in centroids:
        if len(record.cells) != len(centroid):
            raise ValueError(
                f"record {record.id} has {len(record.cells)} cells, centroid has {len(centroid)}"
            )
    return [record.cells]


MISSING = "record {} has missing cells; use type2_distance"
UNOBSERVED = "record {} has no observed values"


def _check_observed(record: Record) -> None:
    if record.cells.count(None) == len(record.cells):
        raise ValueError(UNOBSERVED.format(record.id))


def type2_distance(record: Record, centroid: Sequence[float]) -> float:
    """Euclidean distance over the record's observed coordinates only.

    Missing coordinates are discarded with no rescaling, so records
    with more missing cells systematically measure shorter; the
    reproduced tables assume exactly that.
    """
    _check_observed(record)
    return math.sqrt(squared_distances(_row(record, [centroid]), [centroid])[0, 0])


def map_query(record: Record, model: ClusterModel) -> float:
    """Map'(R): sum of type-2 distances to every centroid.  For a
    complete record this is Map(R), the sum of its type-1 distances."""
    _check_observed(record)
    return float(map_values(_row(record, model.centroids), model.centroids)[0])


def check_map_value(table: str, rid: str, value: float) -> float:
    """The value, if it is a usable mapping value: finite and non-negative."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{table}[{rid!r}] = {value!r} is not a finite non-negative value")
    return value


@dataclass(frozen=True)
class MappingTable:
    """Scalar mapping values for the donor pool and for the queries."""

    complete_map: Mapping[str, float]
    query_map: Mapping[str, float]

    def __post_init__(self) -> None:
        for name, table in (("complete_map", self.complete_map), ("query_map", self.query_map)):
            for rid, value in table.items():
                check_map_value(name, rid, value)

    @cached_property
    def donor_ids(self) -> tuple[str, ...]:
        """Donor ids in donor-pool order."""
        return tuple(self.complete_map)

    @cached_property
    def sorted_donors(self) -> tuple[list[float], list[int]]:
        """Donor mapping values in ascending order, each paired with its
        donor's position in donor-pool order.  Built once per table."""
        values = list(self.complete_map.values())
        order = sorted(range(len(values)), key=values.__getitem__)
        return [values[i] for i in order], order


def _group_map(records: Sequence[Record], model: ClusterModel, complete: bool) -> dict[str, float]:
    """Mapping value per record id for one group, checked as map_query
    checks a record (and, for donors, for a missing cell), raised for
    the first record that fails."""
    centroids = model.centroids
    try:
        X = cell_matrix(records, len(centroids[0]))
    except ValueError:
        for r in records:
            _row(r, centroids)
        raise
    missing = np.isnan(X)
    bad = missing.any(axis=1) if complete else missing.all(axis=1)
    if bad.any():
        raise ValueError((MISSING if complete else UNOBSERVED).format(records[int(bad.argmax())].id))
    return dict(zip((r.id for r in records), map_values(X, centroids).tolist()))


def build_mapping(
    g1: Sequence[Record],
    queries: Sequence[Record],
    model: ClusterModel,
) -> MappingTable:
    """Map(R) for the donor pool and Map'(R) for the queries, one kernel
    call per group."""
    return MappingTable(
        complete_map=_group_map(g1, model, complete=True),
        query_map=_group_map(queries, model, complete=False),
    )
