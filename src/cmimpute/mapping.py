"""Cluster-center distances and the reduction of every record to a
single scalar: the sum of its distances to all centroids."""

from __future__ import annotations

import math
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .dataset import MAX_MAGNITUDE, Dataset
from .errors import SchemaError
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


def nearest_rows(X, Q) -> tuple[np.ndarray, np.ndarray]:
    """The ascending rows of a complete matrix X that may be nearest to
    some row of the block Q, and their squared_distances to every row
    of Q, found without pow on every term.  A NaN in Q is a coordinate
    the query does not observe: its term is +0.0, as in the kernel.

    A screen squares each difference by multiplication and adds the
    squares in whatever order np.sum takes: pow(d, 2) and d * d differ
    by at most an ulp, and n non-negative terms added in any order come
    within a relative (n - 1) * 2**-53 of their exact sum, so a row's
    screen and kernel sums differ by a few n ulps, plus n subnormal ulps
    where squares underflow.  A row that ties a query's kernel minimum,
    or its square root, has a screen sum within that query's screen min *
    (1 + (n + 2) * 2**-48) + (n + 2) * 2**-1060, several times that
    slack; a row outside every query's bound is ruled out unsquared, and
    no row returned lies below any query's minimum.  A minimum so large
    that the bound overflows rules out no row.
    """
    d = X.T[:, None, :] - Q.T[:, :, None]  # (n, q, m): a column-major X makes each query one contiguous pass
    d *= d
    if np.isnan(Q).any():
        np.fmax(d, 0.0, out=d)
    screen = d.sum(axis=0)
    n = len(d) + 2
    bound = screen.min(axis=1, keepdims=True) * (1 + n * 2.0**-48) + n * 2.0**-1060
    rows = np.flatnonzero((screen <= bound).any(axis=0))
    return rows, squared_distances(X[rows], Q)


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


ARITY = "dataset has {} attributes, the model's centroids {}"


def check_model(model: ClusterModel, arity: int) -> np.ndarray:
    """The model's centroids as one read-only (k, n) float array: k >= 1,
    n the data's arity and every coordinate finite and within
    MAX_MAGNITUDE, or a SchemaError.  Under that bound, as under a
    dataset's, every mapping value is finite and non-negative."""
    try:
        U = np.array(model.centroids, dtype=float)
    except (TypeError, ValueError, OverflowError):
        U = np.empty(0)
    if U.ndim != 2 or not len(U):
        raise SchemaError("the model's centroids are not one or more rows of numbers of one length")
    if U.shape[1] != arity:
        raise SchemaError(ARITY.format(arity, U.shape[1]))
    bad = ~(np.abs(U) <= MAX_MAGNITUDE)  # NaN fails <=
    if bad.any():
        i, j = divmod(int(bad.argmax()), arity)
        raise SchemaError(f"the model's centroid {i + 1} coordinate {j + 1}: {U[i, j]} is not within {MAX_MAGNITUDE:g}")
    U.flags.writeable = False
    return U


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
                raise SchemaError(f"{name}[{ids[i]!r}] = {float(values[i])!r} is not a finite non-negative value")
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
        """Donor mapping values in ascending order (a stable sort)
        between a -inf and a +inf sentinel, and each value's donor
        position in donor-pool order: padded[i + 1] is donor order[i]'s
        value."""
        order = np.argsort(self.donor_values, kind="stable")
        return np.concatenate(([-math.inf], self.donor_values[order], [math.inf])), order


def build_mapping(g1: Dataset, queries: Dataset, model: ClusterModel) -> MappingTable:
    """Map(R) for the donor pool, whose records are complete, and Map'(R)
    for the queries, each with an observed cell, one kernel call per
    group; each group's values stay an array aligned with its rows."""
    U = check_model(model, g1.matrix.shape[1])
    missing = np.isnan(g1.matrix).any(axis=1)
    if missing.any():
        raise SchemaError(f"record {g1.ids[int(missing.argmax())]} has missing cells")
    if queries.matrix.shape[1] != U.shape[1]:
        raise SchemaError(ARITY.format(queries.matrix.shape[1], U.shape[1]))
    unobserved = np.isnan(queries.matrix).all(axis=1)
    if unobserved.any():
        raise SchemaError(f"record {queries.ids[int(unobserved.argmax())]} has no observed values")
    return MappingTable(g1.ids, map_values(g1.matrix, U), queries.ids, map_values(queries.matrix, U))
