"""Cluster-center distances and the reduction of every record to a
single scalar: the sum of its distances to all centroids."""

from __future__ import annotations

import math
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset
from .kmeans import ClusterModel


def squared_distances(X, U) -> np.ndarray:
    """(m, k) squared Euclidean distances from every row of X to every
    row of U over the coordinates both observe: the one distance
    kernel.  NaN marks a missing cell, so a complete record's distance
    is its partial distance over every cell.

    The arithmetic is fixed: each term (c - u) ** 2 is squared by libm
    pow (np.float_power; NumPy's square, x * x and power(x, 2) round
    differently for roughly 0.1% of values), a missing term's NaN
    square becomes an exact +0.0 by np.fmax (no square is negative or
    -0.0), and each row's terms are added left to right in
    attribute order by np.add.accumulate, whose first partial sum is
    the first term itself, as 0.0 + term is (never np.sum, einsum or @,
    whose order differs, nor Python's sum(), which compensates from
    3.12 on).
    """
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    d = X[:, None, :] - U[None, :, :]
    np.float_power(d, 2.0, out=d)
    np.fmax(d, 0.0, out=d)
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


MISSING = "record {} has missing cells"
UNOBSERVED = "record {} has no observed values"


def check_map_value(table: str, rid: str, value: float) -> float:
    """The value, if it is a usable mapping value: finite and non-negative."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{table}[{rid!r}] = {value!r} is not a finite non-negative value")
    return value


class MappingTable:
    """Scalar mapping values for the donor pool and for the queries:
    each group's ids, and its values as a read-only array aligned with
    them.  complete_map and query_map are read-only id -> value views
    of the two groups, built when first read."""

    def __init__(self, donor_ids: Sequence[str], donor_values, query_ids: Sequence[str], query_values) -> None:
        self.donor_ids, self.donor_values = tuple(donor_ids), np.asarray(donor_values, dtype=float)
        self.query_ids, self.query_values = tuple(query_ids), np.asarray(query_values, dtype=float)
        groups = (("complete_map", self.donor_ids, self.donor_values), ("query_map", self.query_ids, self.query_values))
        for name, ids, values in groups:
            bad = ~((values >= 0) & (values < math.inf))  # NaN fails both
            if bad.any():
                i = int(bad.argmax())
                check_map_value(name, ids[i], float(values[i]))
            values.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MappingTable):
            return NotImplemented
        return (self.complete_map, self.query_map) == (other.complete_map, other.query_map)

    @cached_property
    def complete_map(self) -> Mapping[str, float]:
        """Map(R) per donor id."""
        return MappingProxyType(dict(zip(self.donor_ids, self.donor_values.tolist())))

    @cached_property
    def query_map(self) -> Mapping[str, float]:
        """Map'(R) per query id."""
        return MappingProxyType(dict(zip(self.query_ids, self.query_values.tolist())))

    @cached_property
    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Donor mapping values in ascending order (a stable sort), each
        paired with its donor's position in donor-pool order."""
        order = np.argsort(self.donor_values, kind="stable")
        return self.donor_values[order], order

    @cached_property
    def sorted_donors(self) -> tuple[list[float], list[int]]:
        """sorted_arrays as lists, for a bisect of one scalar."""
        values, order = self.sorted_arrays
        return values.tolist(), order.tolist()


def _group_values(rows: Dataset, model: ClusterModel, complete: bool) -> np.ndarray:
    """Mapping value per record of one group, in row order, checked to
    have an observed cell (a donor: no missing cell), raised for the
    first record that fails."""
    arity = len(model.centroids[0])
    if rows.schema.arity != arity:
        raise ValueError(f"dataset has {rows.schema.arity} attributes, the model's centroids {arity}")
    if not len(rows):
        return np.empty(0)
    missing = np.isnan(rows.matrix)
    bad = missing.any(axis=1) if complete else missing.all(axis=1)
    if bad.any():
        raise ValueError((MISSING if complete else UNOBSERVED).format(rows.ids[int(bad.argmax())]))
    return map_values(rows.matrix, model.centroids)


def build_mapping(g1: Dataset, queries: Dataset, model: ClusterModel) -> MappingTable:
    """Map(R) for the donor pool and Map'(R) for the queries, each
    group an encoded dataset, one kernel call per group; each group's
    values stay an array aligned with its rows."""
    return MappingTable(
        g1.ids,
        _group_values(g1, model, complete=True),
        queries.ids,
        _group_values(queries, model, complete=False),
    )
