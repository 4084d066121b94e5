"""Cluster-center distances and the reduction of every record to a
single scalar: the sum of its distances to all centroids."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset, Record
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
    attribute order by np.add.accumulate, whose first partial sum is
    the first term itself, as 0.0 + term is (never np.sum, einsum or @,
    whose order differs, nor Python's sum(), which compensates from
    3.12 on).
    """
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    d = X[:, None, :] - U[None, :, :]
    d[np.isnan(d)] = 0.0
    np.float_power(d, 2.0, out=d)
    return np.add.accumulate(d, axis=2)[..., -1]


def nearest_rows(X, q) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a complete matrix X that may be nearest to the
    complete row q, ascending, with their exact squared distances from
    squared_distances: a superset of the kernel's tie set, found
    without squaring every term through pow.

    A screen squares each difference by multiplication and adds the
    squares in whatever order np.sum takes.  pow(d, 2) and d * d differ
    by at most an ulp, and n non-negative terms added in any order come
    within a relative (n - 1) * 2**-53 of their exact sum, so a row's
    screen and kernel sums differ by a few n ulps, plus n subnormal ulps
    where squares underflow.  Any row whose kernel sum equals the
    kernel's minimum, or rounds to the same square root, therefore has
    a screen sum within min * (1 + (n + 2) * 2**-48) + (n + 2) *
    2**-1060, a bound with several times that slack; every other row is
    ruled out unsquared.  A minimum so large that the bound overflows
    rules out no row.
    """
    d = X.T - q[:, None]  # a column-major X makes this one contiguous pass
    d *= d
    screen = d.sum(axis=0)
    n = len(d) + 2
    rows = np.flatnonzero(screen <= screen.min() * (1 + n * 2.0**-48) + n * 2.0**-1060)
    return rows, squared_distances(X[rows], q[None, :])[:, 0]


def map_values(X, centroids) -> np.ndarray:
    """Map'(R) for every row of X: its distances to the centroids,
    added left to right in centroid order."""
    return np.add.accumulate(np.sqrt(squared_distances(X, centroids)), axis=1)[:, -1]


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean of values, added left to right from 0.0 as
    the kernel adds its terms, so it is the same on every Python."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


MISSING = "record {} has missing cells; use type2_distance"
UNOBSERVED = "record {} has no observed values"


def _one_row(record: Record, arity: int) -> list[tuple]:
    """The record as a one-row input of the kernel, checked to have
    arity cells, at least one of them observed."""
    if len(record.cells) != arity:
        raise ValueError(f"record {record.id} has {len(record.cells)} cells, expected {arity}")
    if record.cells.count(None) == arity:
        raise ValueError(UNOBSERVED.format(record.id))
    return [record.cells]


def type2_distance(record: Record, centroid: Sequence[float]) -> float:
    """Euclidean distance over the record's observed coordinates only.

    Missing coordinates are discarded with no rescaling, so records
    with more missing cells systematically measure shorter; the
    reproduced tables assume exactly that.
    """
    return math.sqrt(squared_distances(_one_row(record, len(centroid)), [centroid])[0, 0])


def map_query(record: Record, model: ClusterModel) -> float:
    """Map'(R): sum of type-2 distances to every centroid.  For a
    complete record this is Map(R), the sum of its type-1 distances."""
    return float(map_values(_one_row(record, len(model.centroids[0])), model.centroids)[0])


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
            values = np.fromiter(table.values(), float, len(table))
            bad = ~((values >= 0) & (values < math.inf))  # NaN fails both
            if bad.any():
                rid = list(table)[int(bad.argmax())]
                check_map_value(name, rid, table[rid])

    @cached_property
    def donor_ids(self) -> tuple[str, ...]:
        """Donor ids in donor-pool order."""
        return tuple(self.complete_map)

    @cached_property
    def sorted_donors(self) -> tuple[list[float], list[int]]:
        """Donor mapping values in ascending order (a stable sort), each
        paired with its donor's position in donor-pool order."""
        values = np.fromiter(self.complete_map.values(), float, len(self.complete_map))
        order = np.argsort(values, kind="stable")
        return values[order].tolist(), order.tolist()


def _group_map(rows: Dataset, model: ClusterModel, complete: bool) -> dict[str, float]:
    """Mapping value per record id for one group, checked as map_query
    checks a record (and, for donors, for a missing cell), raised for
    the first record that fails."""
    arity = len(model.centroids[0])
    if rows.schema.arity != arity:
        raise ValueError(f"dataset has {rows.schema.arity} attributes, the model's centroids {arity}")
    if not len(rows):
        return {}
    missing = np.isnan(rows.matrix)
    bad = missing.any(axis=1) if complete else missing.all(axis=1)
    if bad.any():
        raise ValueError((MISSING if complete else UNOBSERVED).format(rows.ids[int(bad.argmax())]))
    return dict(zip(rows.ids, map_values(rows.matrix, model.centroids).tolist()))


def build_mapping(g1: Dataset, queries: Dataset, model: ClusterModel) -> MappingTable:
    """Map(R) for the donor pool and Map'(R) for the queries, each
    group an encoded dataset, one kernel call per group."""
    return MappingTable(
        complete_map=_group_map(g1, model, complete=True),
        query_map=_group_map(queries, model, complete=False),
    )
